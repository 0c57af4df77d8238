"""Floating-point contour quadrature, the independent numeric cross-check.

The constant term of f equals the n-fold contour integral of f over a torus
of nested circles |x_j| = r_j against the measure prod_j dx_j/(2*pi*i*x_j),
provided the torus lies where the exact engine's expansions converge.
Parameterizing each circle by angle turns that measure into dtheta/(2*pi),
so the estimate is the plain mean of f over a uniform product grid of
angles.  The rule is spectrally accurate here: the integrand is analytic
in an annulus around every circle, so the error decays geometrically in
the per-circle sample count N, and halving is checked by comparing N
against 2N rather than by any error expansion.  The N grid is the even
points of the 2N grid, so each doubling step evaluates the factors once.
Coefficients and radii are real, and a half power's principal root has
sqrt(conj z) = conj sqrt(z) in the right half-plane, so the angle indices
k and -k (on every circle at once) give conjugate values and the mean is
real: circle 1 is sampled at k = 0..N/2 only, weighted 1, 2, ..., 2, 1,
and every estimate is a float.

_sample never forms the whole N**n grid: each factor is evaluated on the
axes of its own variables, the factors on one axis set are multiplied in
place into the set's first array, each set is folded into one that
contains it, and what is left is summed by one sum, by one matrix product
and one dot when it is the pair triangle (i,j), (i,k), (j,k) of every
n = 3 family integrand and chain form, or else by one np.einsum.
chain_values hands each form's arrays to the next form, so a chain call
allocates its N**2 pair arrays once, not once per form.
Grids over _SAMPLE_BUDGET points, and arrays over _ARRAY_ELEMS elements,
are refused before any array is built, and no sample warns or raises past
the float64 range: a mean that is not finite reads math.inf.
Only the sampling functions import numpy, so importing this module (as the
CLI does for every subcommand) starts no BLAS threads.

contour_ct_converged samples a torus whose radii are read off the
integrand's factors (see _chosen_radii): inside the domain where the exact
engine's series converge, so the mean is the engine's constant term, and
as wide as that domain allows, which keeps the mean |f|, and with it the
float64 noise floor, small while the error still decays like 0.5**N, and
so the N-doubling starts where 0.5**N meets the tolerance.

The module also samples the four forms of the thm substitution chain,
which identities.chain_forms builds as factored rationals, the y and t
forms with half-integer powers of affine bases: each like the integrand
of contour_ct_converged, on the torus read off its factors.  The module
builds no polynomial of its own; it samples what identities hands it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .ctengine import FactoredRational
from .errors import ConfigError
from .identities import IdentitySpec, build_integrand, chain_forms
from .polyring import Poly

if TYPE_CHECKING:
    import numpy as np

# The most grid points a sample may cover: n = 3 at N = 2048, a default oracle's top.
_SAMPLE_BUDGET = 2 ** 33
# The most elements one array of a sample may hold (1 GiB of complex128): N**k
# for a factor in k variables, so N = 2**13 with pair factors, 2**26 without.
_ARRAY_ELEMS = 2 ** 26
# The largest einsum intermediate (32 MB): the N**3 tensors that route n = 4 at
# N = 128 through BLAS, ~20x faster than einsum's one loop over all N**4 points.
_EINSUM_ELEMS = 2 ** 21


@dataclass(frozen=True)
class QuadratureConfig:
    """Per-circle sample count, a power of two.  epsilon selects no sample
    and is not checked; it stays because the benchmark workloads pass one,
    and the chain command passes default_epsilon's."""

    epsilon: float = 0.025
    points: int = 1024

    def __post_init__(self):
        if self.points < 2 or self.points & (self.points - 1):
            raise ConfigError(f"points must be a power of two >= 2, got {self.points}")


def default_epsilon(n: int, shifted: bool = False) -> float:
    """0.05/n, or 0.0125/n shifted, the chain's; it selects no sample.  It
    stays because the benchmark workloads call it, and so does the chain
    command, which refuses n < 1 through it."""
    if n < 1:
        raise ConfigError(f"n must be at least 1, got n={n}")
    return (0.0125 if shifted else 0.05) / n


def converged(v1: float, v2: float, tol: float) -> bool:
    """N-doubling acceptance: |v1 - v2| <= tol * max(1, |v2|)."""
    return abs(v1 - v2) <= tol * max(1.0, abs(v2))


def _poly_on_grid(p: Poly, xs: Sequence[np.ndarray]):
    import numpy as np
    total = None
    for mono, coef in p.terms():
        term = complex(coef)
        for v, e in mono:
            term = term * (xs[v] if e == 1 else xs[v] ** e)
        total = term if total is None else total + term
    return np.asarray(0j if total is None else total)


def _check_budget(n: int, *grids: int) -> None:
    for grid in grids:
        if grid ** n > _SAMPLE_BUDGET:
            raise ConfigError(f"n={n} at N={grid} needs points**n = {grid}**{n} "
                              f"samples, over the budget of {_SAMPLE_BUDGET}")


def _widest_axes(f: FactoredRational) -> int:
    """k, the most variables in one polynomial of f (at least 1, for the
    circle's own N points): a sample of f holds arrays of up to N**k elements."""
    return max([1, len(f.num.variables())] + [len(base.variables()) for base, _ in f.den])


def _sample(f: FactoredRational, radii: Sequence[float], points: int,
            coarse: bool = False, spare: Optional[dict] = None):
    """Mean of f over the product grid, the package's one float evaluator
    (see the module notes); a half-integer power takes the principal square
    root of its base, in the right half-plane, after the integer powers.
    Arrays of points**_widest_axes(f) elements past _ARRAY_ELEMS are
    refused after the grid budget; k <= n, so k is read off f only when
    the whole grid, points**n, passes that bound too.
    With coarse, returns (mean over the even points, mean over all); the
    even points are the grid of points // 2, whose budget is checked first;
    on circle 1 they are that grid's own half circle, with weights[::2].
    The mean is the real part of the weighted sum, or math.inf if that
    sum is not finite.
    spare maps array shapes to arrays an earlier call left: each product
    starts in one of the same shape, if any, and the call leaves its own."""
    import numpy as np
    n = len(radii)
    grids = (points // 2, points) if coarse else (points,)
    _check_budget(n, *grids)
    if points ** n > _ARRAY_ELEMS and points ** (k := _widest_axes(f)) > _ARRAY_ELEMS:
        raise ConfigError(f"N={points} needs arrays of N**k = {points}**{k} elements, "
                          f"over the bound of {_ARRAY_ELEMS} per array")
    unit = np.exp(1j * (2.0 * np.pi * np.arange(points) / points))
    half = points // 2 + 1  # circle 1 keeps k = 0..N/2 (see the module notes)
    xs = [(r * (unit if j else unit[:half])).reshape((1,) * j + (-1,) + (1,) * (n - 1 - j))
          for j, r in enumerate(radii)]
    weights = np.full((half,) + (1,) * (n - 1), 2 + 0j)
    weights[0] = weights[-1] = 1  # k = 0 and N/2 are their own conjugates
    num, den = {(0,): weights}, {}  # axes -> product of the factors on exactly those axes
    spare = {} if spare is None else spare

    def put(group, p, times=1):
        vals = _poly_on_grid(p, xs)  # fresh: it may become the buffer
        if not isinstance(times, int):  # a half-integer power
            if not np.all(vals.real > 0):
                raise ConfigError("square-root factor left the right half-plane")
            vals, times = np.sqrt(vals), times.numerator
        axes = tuple(j for j, size in enumerate(vals.shape) if size > 1)
        buf = group.get(axes)
        if buf is None:  # squared in place only if no multiply follows: v*v*v would be v**4
            buf = spare.pop(vals.shape, None)
            if buf is None:
                buf = vals if times <= 2 else np.empty_like(vals)
            group[axes] = buf
            if times > 1:
                np.multiply(vals, vals, out=buf)
            elif buf is not vals:
                np.copyto(buf, vals)
            times -= min(times, 2)
        for _ in range(times):  # numpy's complex power is slower for exp != 2
            np.multiply(buf, vals, out=buf)

    with np.errstate(all="ignore"):  # the means below show any overflow
        try:
            put(num, f.num)
            for base, exp in sorted(f.den, key=lambda fac: not isinstance(fac[1], int)):
                put(den, base, exp)
        except OverflowError:  # complex() of an int coefficient past float64
            return (math.inf,) * len(grids) if coarse else math.inf
        for axes, buf in den.items():
            np.divide(num.pop(axes, 1), buf, out=buf)
        groups = {**den, **num}
        for axes in sorted(groups, key=len):
            hosts = [b for b in groups if set(axes) < set(b)]
            if hosts:
                groups[hosts[0]] *= groups.pop(axes)
        covered = set().union(*groups)
        triangle = len(groups) == 3 == len(covered) and all(len(a) == 2 for a in groups)
        means = []
        for grid in grids:
            step = (slice(None, None, points // grid),)
            tensors = {axes: vals.reshape([vals.shape[j] for j in axes])[step * len(axes)]
                       for axes, vals in groups.items()}
            if len(tensors) == 1:
                total = tensors.popitem()[1].sum()
            elif triangle:  # (i,j), (i,k), (j,k): one matrix product and one dot
                a, b, c = (tensors[axes] for axes in sorted(tensors))
                total = np.dot(np.matmul(a.T, b).ravel(), c.ravel())
            else:
                operands = [x for axes, t in tensors.items() for x in (t, list(axes))]
                total = np.einsum(*operands, [], optimize=("greedy", _EINSUM_ELEMS))
            mean = complex(total) / grid ** len(covered)  # real when finite
            means.append(mean.real if cmath.isfinite(mean) else math.inf)
        spare.update((vals.shape, vals) for vals in groups.values())
    return tuple(means) if coarse else means[0]


# -- the torus of the converged oracle --------------------------------------

# The worst ratio |h1*v / h0| the chosen torus allows.  The trapezoidal
# error decays like ratio**N, while wider circles lower the float64 floor;
# at 0.5 neither exceeds about 2e-12 at N = 64 on the acceptance grid.
_TORUS_RATIO = 0.5


def _expansion_conditions(f: FactoredRational) -> set:
    """The convergence conditions of ct_var's geometric series, one for
    each affine base, of an integer or a half-integer power, and,
    recursively, for each v-free part h0 it leaves.

    A base's terms are (variable, |coefficient|) in elimination order, the
    constant last as variable inf.  A condition is such a term list read
    from its head: the head is h1*v and the rest is h0, whose last term
    dominates it, so the minimum of |h0| over a torus is exactly the last
    magnitude minus the others, and the condition max |h1*v / h0| < 1 is
    linear in the radii."""
    conditions = set()
    for base, _ in f.den:
        terms = []
        for mono, coef in base.terms():
            if len(mono) > 1 or (mono and mono[0][1] > 1):
                raise ConfigError(f"factor ({base}) is not affine; the torus "
                                  "of the converged oracle needs affine factors")
            terms.append((mono[0][0] if mono else math.inf, abs(float(coef))))
        terms.sort()
        conditions.update(tuple(terms[i:]) for i in range(len(terms) - 1))
    return conditions


def _h0_floor(h0: Sequence[Tuple[float, float]], radii: Dict[float, float]) -> float:
    """The minimum of |h0| over the torus, the constant counting as a term
    of radius 1; positive exactly when the last term dominates."""
    *rest, (last, lead) = h0
    return lead * radii.get(last, 1.0) - sum(c * radii[w] for w, c in rest)


def _chosen_radii(f: FactoredRational, n: int) -> List[float]:
    """Radii r_1..r_n for contour_ct_converged and the chain, read off f's
    factors.

    From the outermost variable inwards, each r_v is the largest radius at
    which every condition headed by v has ratio |h1| r_v / min |h0| at most
    _TORUS_RATIO, or 1 if none is; for the built-in families this gives
    r_j = 0.5**(n - j + 1).  The conditions on a base's later terms keep
    each of its h0 floors above zero, so the radii meet every condition
    under which ct_var's series converge, and the mean of f on this torus
    is the engine's constant term.  Raises ConfigError for a non-affine
    factor."""
    conditions = _expansion_conditions(f)
    # A condition's h0 holds only variables after its head, and each of those
    # but the last heads conditions of its own, so from the outermost head
    # inwards every radius a floor reads is final when it is read.
    radii: Dict[float, float] = {}
    for (v, h1), *h0 in sorted(conditions, reverse=True):
        r = _TORUS_RATIO * _h0_floor(h0, radii) / h1
        radii[v] = min(r, radii.get(v, r))
    return [radii.get(v, 1.0) for v in range(n)]


def contour_ct_converged(
        spec: IdentitySpec,
        epsilon: Optional[float] = None,
        tol: float = 1e-6,
        start_points: Optional[int] = None,
        max_points: int = 2048) -> Tuple[float, int, bool]:
    """Double the sample count until two successive estimates agree to tol;
    returns (estimate, points, converged).  Each step evaluates the factors
    once, at 2N; the first takes its N estimate from the even points.

    The samples are taken on the torus _chosen_radii reads off the
    integrand's factors: every affine base h0 + h1*v, v its
    first-eliminated variable, keeps max |h1*v / h0| below 1 on it, and so
    does every h0 in turn.  That is the condition under which ct_var's
    geometric series converge, so the mean on that torus is the engine's
    constant term.  epsilon selects no sample and is not checked; it
    stays because the benchmark workloads pass one.
    start_points defaults to the least power of two N with _TORUS_RATIO**N
    <= tol (32 at tol 1e-6); pole orders can need more, which comparing N
    with 2N finds.  Raises ConfigError unless max_points = start_points *
    2**k, k >= 1, for a non-affine factor, when an estimate leaves the
    float64 range, past _ARRAY_ELEMS, or past _SAMPLE_BUDGET, the one
    bound on n: on a 2-vCPU VM n=5 takes 6 s at N=64, and the dearest
    calls it admits, cry n=8 at N=16 and n=11 at N=8, about 60 and 90 s."""
    if not (tol > 0):
        raise ConfigError("tolerance must be positive")
    if start_points is None:
        start_points = 2
        while _TORUS_RATIO ** start_points > tol:
            start_points *= 2
    points = QuadratureConfig(points=start_points).points
    ratio, rest = divmod(max_points, start_points)
    if rest or ratio < 2 or ratio & (ratio - 1):
        raise ConfigError(f"max_points={max_points} must be start_points="
                          f"{start_points} times a power of two >= 2")
    _check_budget(spec.n, points, 2 * points)  # the first step's, before building f
    f = build_integrand(spec)
    radii = _chosen_radii(f, spec.n)
    points *= 2
    value, nxt = _sample(f, radii, points, coarse=True)
    while math.isfinite(nxt) and not converged(value, nxt, tol):
        if points == max_points:
            return nxt, points, False
        points *= 2
        value, nxt = nxt, _sample(f, radii, points)
    if not math.isfinite(nxt):
        raise ConfigError(f"the {spec} integrand exceeds the float64 range")
    return nxt, points, True


# -- the substitution chain -------------------------------------------------

def chain_values(n: int, a: int, twoc: int,
                 cfg: QuadratureConfig) -> Dict[str, float]:
    """Quadrature estimates of the four substitution-chain forms of the thm
    constant term, keyed "x", "z", "y", "t"; in exact arithmetic all equal.

    Each form is sampled at cfg.points per circle on the torus
    _chosen_radii reads off its factors, where its mean is its constant
    term, as in contour_ct_converged; cfg.epsilon selects no sample.
    Raises ConfigError, naming the form, when its mean leaves the float64
    range, and past _SAMPLE_BUDGET, the one bound on n, before any form is
    built, or _ARRAY_ELEMS."""
    IdentitySpec.create("thm", n, a=a, twoc=twoc)
    _check_budget(n, cfg.points)
    out: Dict[str, float] = {}
    spare: dict = {}  # each form's arrays, for the next form's products
    for form, f in chain_forms(n, a, twoc).items():
        value = _sample(f, _chosen_radii(f, n), cfg.points, spare=spare)
        if not math.isfinite(value):
            raise ConfigError(f"the {form} form for n={n} a={a} twoc={twoc} "
                              "exceeds the float64 range")
        out[form] = value
    return out


def chain_spread(values: Dict[str, float]) -> float:
    """Largest pairwise relative difference among the four form values: the
    values are real and rounding is monotone, so max - min is that pair's."""
    vs = values.values()
    return (max(vs) - min(vs)) / max(1.0, max(map(abs, vs)))

