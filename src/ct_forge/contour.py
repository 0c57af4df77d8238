"""Floating-point contour quadrature, the independent numeric cross-check.

The constant term of f equals the n-fold contour integral of f over a torus
of nested circles |x_j| = r_j against the measure prod_j dx_j/(2*pi*i*x_j),
provided the torus lies where the exact engine's expansions converge.
Parameterizing each circle by angle turns that measure into dtheta/(2*pi),
so the estimate is the plain mean of f over a uniform product grid of
angles.  The rule is spectrally accurate here: the integrand is analytic
in an annulus around every circle, so the error decays geometrically in
the per-circle sample count N, and halving is checked by comparing N
against 2N rather than by any error expansion.

contour_ct samples the origin torus r_j = j*epsilon that the caller states.
contour_ct_converged samples a torus whose radii are read off the
integrand's factors (see _chosen_radii): as wide as the expansion domain
allows, which keeps the mean |f|, and with it the float64 noise floor,
small while the error still decays like 0.5**N.

The module also evaluates the four-form substitution chain for the thm
family.  Each form is a contour integral (1/(2*pi*i))^n of a listed
integrand over circles centered at 0 or 1; on a circle w = c + r*e^(i*t)
the plain measure dw/(2*pi*i) becomes (w - c) * dt/(2*pi), so every form
reduces to prefactor * mean(integrand * prod_j (w_j - c_j)).  The two
square-root forms use the principal branch, and the factor arguments are
checked to stay in the right half-plane, away from the branch cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .ctengine import FactoredRational
from .errors import ConfigError
from .identities import IdentitySpec, build_integrand
from .polyring import Poly

_CHUNK_ELEMS = 1 << 21


@dataclass(frozen=True)
class QuadratureConfig:
    """Base radius epsilon and per-circle sample count (a power of two)."""

    epsilon: float = 0.025
    points: int = 1024

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.points < 2 or self.points & (self.points - 1):
            raise ConfigError(f"points must be a power of two >= 2, got {self.points}")

    def doubled(self) -> "QuadratureConfig":
        return QuadratureConfig(self.epsilon, 2 * self.points)


def default_epsilon(n: int, shifted: bool = False) -> float:
    """Default base radius: 0.05/n for origin circles, 0.0125/n for the
    shifted chain contours (whose radii carry factors 2 and 4)."""
    return (0.0125 if shifted else 0.05) / n


class ChainForm(Enum):
    X_FORM = "x"
    Z_FORM = "z"
    Y_FORM = "y"
    T_FORM = "t"


def converged(v1: complex, v2: complex, tol: float) -> bool:
    """N-doubling acceptance: |v1 - v2| <= tol * max(1, |v2|)."""
    if not (tol > 0):
        raise ConfigError("tolerance must be positive")
    return abs(v1 - v2) <= tol * max(1.0, abs(v2))


def _circle(center: float, radius: float, points: int) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(points) / points
    return center + radius * np.exp(1j * angles)


def _broadcast_axes(circles: Sequence[np.ndarray]) -> List[np.ndarray]:
    n = len(circles)
    return [c.reshape((1,) * j + (-1,) + (1,) * (n - 1 - j)) for j, c in enumerate(circles)]


def _poly_on_grid(p: Poly, xs: Sequence[np.ndarray]):
    total = 0
    for mono, coef in p.terms():
        term = complex(coef)
        for v, e in mono:
            term = term * xs[v] ** e
        total = total + term
    if np.isscalar(total):
        total = np.asarray(total, dtype=complex)
    return total


def _torus_mean(circles: Sequence[np.ndarray],
                evaluate: Callable[[Sequence[np.ndarray]], np.ndarray]) -> complex:
    """Mean of evaluate(xs) over the product grid, chunked along the first
    axis so peak memory stays bounded."""
    n = len(circles)
    points = len(circles[0])
    tail = points ** (n - 1)
    block = max(1, _CHUNK_ELEMS // tail)
    total = 0j
    first = circles[0]
    rest = _broadcast_axes(circles)[1:] if n > 1 else []
    for start in range(0, points, block):
        piece = first[start:start + block].reshape((-1,) + (1,) * (n - 1))
        vals = evaluate([piece] + rest)
        total += complex(np.sum(vals))
    return total / points ** n


def _factored_evaluator(f: FactoredRational) -> Callable:
    def evaluate(xs):
        num = _poly_on_grid(f.num, xs)
        out = num.astype(complex) if num.dtype != complex else num
        for base, exp in f.den:
            out = out / _poly_on_grid(base, xs) ** exp
        return out
    return evaluate


def _origin_radii(n: int, epsilon: float) -> List[float]:
    """Radii j*epsilon of the caller's origin torus, refused unless
    n <= 4 and n*epsilon < 0.1."""
    if n > 4:
        raise ConfigError("quadrature supports n <= 4 (cost grows as points**n)")
    if n * epsilon >= 0.1:
        raise ConfigError(
            f"n*epsilon = {n * epsilon:.4f} must stay below 0.1 so every "
            "circle avoids the non-origin poles")
    return [j * epsilon for j in range(1, n + 1)]


def _sample(f: FactoredRational, radii: Sequence[float], points: int) -> complex:
    circles = [_circle(0.0, r, points) for r in radii]
    return _torus_mean(circles, _factored_evaluator(f))


def contour_ct(spec: IdentitySpec, cfg: QuadratureConfig) -> complex:
    """Quadrature estimate of the constant term of the spec's integrand on
    circles |x_j| = j*epsilon.  The imaginary part of the result is an
    error indicator; convergence is the caller's job (compare N with 2N,
    or use contour_ct_converged)."""
    radii = _origin_radii(spec.n, cfg.epsilon)
    return _sample(build_integrand(spec), radii, cfg.points)


# -- the torus of the converged oracle --------------------------------------

# The worst ratio |h1*v / h0| the chosen torus allows.  The trapezoidal
# error decays like ratio**N, while wider circles lower the float64 floor;
# at 0.5 neither exceeds about 2e-12 at N = 64 on the acceptance grid.
_TORUS_RATIO = 0.5


def _expansion_conditions(f: FactoredRational) -> set:
    """The convergence conditions of ct_var's geometric series, one for
    each affine base and, recursively, for each v-free part h0 it leaves.

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


def _chosen_radii(f: FactoredRational, origin: Sequence[float]) -> List[float]:
    """Radii for contour_ct_converged, read off the integrand's factors.

    From the outermost variable inwards, each r_v is the largest radius at
    which every condition headed by v has ratio |h1| r_v / min |h0| at most
    _TORUS_RATIO, or 1 if none is; for the built-in families this gives
    r_j = 0.5**(n - j + 1).  The origin torus must satisfy the same
    conditions.  Both then lie in the convex set the linear conditions cut
    out, the straight path between them stays in it, and by Cauchy's
    theorem both give the same constant term.  Raises ConfigError for a
    non-affine factor or when the origin torus breaks a condition; the
    chosen radii always meet them, since the conditions on a base's later
    terms keep each of its h0 floors above zero."""
    conditions = _expansion_conditions(f)
    origin_radii = dict(enumerate(origin))
    for (v, h1), *h0 in conditions:
        floor = _h0_floor(h0, origin_radii)
        if not (floor > 0 and h1 * origin_radii[v] < floor):
            raise ConfigError(
                f"the origin torus leaves the expansion domain at x{v + 1}")
    radii: Dict[float, float] = {}
    for v in reversed(range(len(origin))):
        radii[v] = min((_TORUS_RATIO * _h0_floor(h0, radii) / h1
                        for (w, h1), *h0 in conditions if w == v), default=1.0)
    return [radii[v] for v in range(len(origin))]


def contour_ct_converged(
        spec: IdentitySpec,
        epsilon: Optional[float] = None,
        tol: float = 1e-6,
        start_points: int = 64,
        max_points: int = 2048) -> Tuple[complex, int, bool]:
    """Double the sample count until two successive estimates agree to tol;
    returns (estimate, points, converged).

    epsilon states the origin torus |x_j| = j*epsilon (default 0.05/n),
    refused outside n*epsilon < 0.1 as in contour_ct.  The samples are
    taken on the torus _chosen_radii reads off the integrand's factors:
    every affine base h0 + h1*v, v its first-eliminated variable, keeps
    max |h1*v / h0| below 1 on it, and so does every h0 in turn.  That is
    the condition under which ct_var's geometric series converge, and the
    origin torus meets it too, so both tori have the same constant term.
    Raises ConfigError when the rule cannot hold on either torus."""
    if epsilon is None:
        epsilon = default_epsilon(spec.n)
    cfg = QuadratureConfig(epsilon, start_points)
    f = build_integrand(spec)
    radii = _chosen_radii(f, _origin_radii(spec.n, epsilon))
    value = _sample(f, radii, cfg.points)
    while cfg.points < max_points:
        cfg = cfg.doubled()
        nxt = _sample(f, radii, cfg.points)
        if converged(value, nxt, tol):
            return nxt, cfg.points, True
        value = nxt
    return value, cfg.points, False


# -- the substitution chain -------------------------------------------------

def _chain_prefactor(form: ChainForm, n: int, a: int, twoc: int) -> float:
    e = 2 * a * n + 2 * twoc * math.comb(n, 2)
    sign = -1.0 if n % 2 else 1.0
    if form is ChainForm.X_FORM:
        return 1.0
    if form is ChainForm.Z_FORM:
        return sign * 2.0 ** (e - n)
    if form is ChainForm.Y_FORM:
        return sign * 2.0 ** (e - 2 * n)
    return 2.0 ** (e - 2 * n)


def _chain_factors(form: ChainForm, n: int, a: int, twoc: int):
    """Integer-exponent reciprocal factors and square-root reciprocal
    factors of the form's integrand, as polynomials in w_1..w_n."""
    one = Poly.one()
    den: List[Tuple[Poly, int]] = []
    roots: List[Poly] = []
    ws = [Poly.var(j) for j in range(n)]
    if form is ChainForm.X_FORM:
        for w in ws:
            den.append((w, a))
            den.append((one - w, a))
        for j in range(n):
            for k in range(j + 1, n):
                den.append((ws[k] - ws[j], twoc))
                den.append((one - ws[k] - ws[j], twoc))
    elif form is ChainForm.Z_FORM:
        for w in ws:
            den.append((one - w * w, a))
        for j in range(n):
            for k in range(j + 1, n):
                den.append((ws[j] * ws[j] - ws[k] * ws[k], twoc))
    elif form is ChainForm.Y_FORM:
        for w in ws:
            den.append((one - w, a))
            roots.append(w)
        for j in range(n):
            for k in range(j + 1, n):
                den.append((ws[j] - ws[k], twoc))
    else:
        for w in ws:
            den.append((w, a))
            roots.append(one - w)
        for j in range(n):
            for k in range(j + 1, n):
                den.append((ws[k] - ws[j], twoc))
    return den, roots


_CHAIN_GEOMETRY = {
    ChainForm.X_FORM: (0.0, 1),
    ChainForm.Z_FORM: (1.0, 2),
    ChainForm.Y_FORM: (1.0, 4),
    ChainForm.T_FORM: (0.0, 4),
}


def chain_values(n: int, a: int, twoc: int,
                 cfg: QuadratureConfig) -> Dict[ChainForm, complex]:
    """Quadrature estimates of all four substitution-chain forms of the thm
    constant term; in exact arithmetic all four would be equal."""
    if n > 3:
        raise ConfigError("the chain check supports n <= 3")
    if a < 1 or twoc < 1:
        raise ConfigError("chain parameters need a >= 1 and twoc >= 1")
    if n * cfg.epsilon >= 0.1 or 4 * n * cfg.epsilon >= 0.5:
        raise ConfigError(
            f"epsilon {cfg.epsilon} too large: need n*eps < 0.1 and 4n*eps < 0.5")
    out: Dict[ChainForm, complex] = {}
    for form in ChainForm:
        center, mult = _CHAIN_GEOMETRY[form]
        den, roots = _chain_factors(form, n, a, twoc)
        circles = [_circle(center, mult * j * cfg.epsilon, cfg.points)
                   for j in range(1, n + 1)]

        def evaluate(xs, den=den, roots=roots, center=center):
            acc = None
            for x in xs:
                measure = x - center
                acc = measure if acc is None else acc * measure
            for base, exp in den:
                acc = acc / _poly_on_grid(base, xs) ** exp
            for base in roots:
                vals = _poly_on_grid(base, xs)
                if not np.all(vals.real > 0):
                    raise ConfigError(
                        "square-root factor left the right half-plane; "
                        "shrink epsilon")
                acc = acc * vals ** -0.5
            return acc

        out[form] = _chain_prefactor(form, n, a, twoc) * _torus_mean(circles, evaluate)
    return out


def chain_spread(values: Dict[ChainForm, complex]) -> float:
    """Largest pairwise relative difference among the four form values."""
    vs = list(values.values())
    scale = max(1.0, max(abs(v) for v in vs))
    worst = 0.0
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            worst = max(worst, abs(vs[i] - vs[j]) / scale)
    return worst

