"""Tests for the numeric contour oracle and the substitution-chain check.

Tolerances follow the module contract: quadrature is spectrally accurate,
so modest sample counts already sit at the double-precision floor for the
small instances exercised here.
"""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ct_forge import contour
from ct_forge.contour import (
    QuadratureConfig,
    chain_spread,
    chain_values,
    contour_ct_converged,
    _TORUS_RATIO,
    _chosen_radii,
    _expansion_conditions,
    _h0_floor,
    _sample,
    converged,
    default_epsilon,
)
from ct_forge.ctengine import FactoredRational, ct_iterated
from ct_forge.errors import ConfigError, DomainError
from ct_forge.exactarith import thm_rhs
from ct_forge.identities import IdentitySpec, build_integrand, rhs
from ct_forge.polyring import Poly, parse_poly


def rel_err(value: complex, exact) -> float:
    exact = float(exact)
    return abs(value - exact) / max(1.0, abs(exact))


def origin_ct(spec: IdentitySpec, epsilon: float, points: int) -> complex:
    """The mean of the spec's integrand over the origin torus |x_j| = j*epsilon."""
    return _sample(build_integrand(spec), [j * epsilon for j in range(1, spec.n + 1)],
                   points)


def brute_force_mean(integrand, radii, points):
    """The plain mean of integrand(x1, ..., xn) over all points**n grid
    points; no symmetry of the integrand is used."""
    angles = 2 * np.pi * np.arange(points) / points
    xs = np.meshgrid(*(r * np.exp(1j * angles) for r in radii), indexing="ij")
    return np.mean(integrand(*xs))


def full_grid_mean(f, radii, points):
    """f on the whole grid, a half power by the principal square root."""
    def at(p, xs):
        return sum(complex(coef) * math.prod(xs[v] ** e for v, e in mono)
                   for mono, coef in p.terms())

    def power(vals, e):
        return vals ** e if isinstance(e, int) else np.sqrt(vals) ** e.numerator

    def integrand(*xs):
        return at(f.num, xs) / math.prod(power(at(base, xs), e) for base, e in f.den)
    return brute_force_mean(integrand, radii, points)


def assert_full_grid_mean(f, radii, points, label=None):
    """_sample, which takes circle 1 at k = 0..N/2 only, is the mean over
    the whole grid at rel 1e-12, and exactly real."""
    value = _sample(f, radii, points)
    expected = full_grid_mean(f, radii, points)
    assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected)), label
    assert value.imag == 0.0, label


FAMILIES = [("mm", {}), ("cry", {})]
FAMILIES += [("morris", {"a": a, "b": b, "twoc": twoc})
             for a in (1, 2, 3) for b in (0, 1, 2) for twoc in (1, 2)]
FAMILIES += [("thm", {"a": a, "twoc": twoc}) for a in (1, 2, 3) for twoc in (1, 2)]
# acceptance criterion 7's 77 instances, and the 18 chain instances (n, a, twoc)
CRITERION_7 = [IdentitySpec.create(family, n, **kwargs) for n in (1, 2, 3)
               for family, kwargs in FAMILIES if (family, n) != ("mm", 1)]
CHAIN_GRID = [(n, a, twoc) for n in (1, 2, 3) for a in (1, 2, 3) for twoc in (1, 2)]


class TestQuadratureConfig:
    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.epsilon == 0.025 and cfg.points == 1024

    @pytest.mark.parametrize("eps,points", [(0.01, 0), (0.01, 1), (0.01, 100)])
    def test_validation(self, eps, points):
        with pytest.raises(ConfigError):
            QuadratureConfig(eps, points)

    def test_default_epsilon(self):
        assert default_epsilon(2) == pytest.approx(0.025)
        assert default_epsilon(3, shifted=True) == pytest.approx(0.0125 / 3)

    @pytest.mark.parametrize("n", [0, -1])
    def test_default_epsilon_refuses_nonpositive_n(self, n):
        with pytest.raises(ConfigError, match=f"n={n}"):
            default_epsilon(n, shifted=True)


class TestConverged:
    def test_examples(self):
        assert converged(32.0000001, 32.0000002, 1e-6)
        assert not converged(31.9, 32.0, 1e-6)
        assert converged(0, 0, 1e-9)  # the max(1, .) floor handles zero


class TestContourCt:
    def test_cry_n1(self):
        value = origin_ct(IdentitySpec.create("cry", 1), 0.05, 256)
        assert abs(value - 1.0) < 1e-10

    def test_mm_n2(self):
        value = origin_ct(IdentitySpec.create("mm", 2), 0.02, 1024)
        assert rel_err(value, 32) < 1e-6

    def test_morris_n2(self):
        value = origin_ct(IdentitySpec.create("morris", 2), 0.02, 1024)
        assert rel_err(value, 2) < 1e-6

    def test_variable_cap(self, monkeypatch):
        """No variable count is refused, only the sample budget; a first
        step over it is refused before the integrand, whose size grows as
        n**2, is built."""
        def unreachable(spec):
            raise AssertionError("build_integrand called")

        monkeypatch.setattr(contour, "build_integrand", unreachable)
        with pytest.raises(ConfigError, match="n=5 at N=1024 .* over the budget"):
            contour_ct_converged(IdentitySpec.create("mm", 5), start_points=1024,
                                 max_points=2048)

    def test_n5_inside_the_budget(self):
        """cry n=5 at N=32 is 2**25 samples, well inside the budget, and
        its estimate there is finite and close."""
        value, points, _ = contour_ct_converged(IdentitySpec.create("cry", 5),
                                                start_points=16, max_points=32)
        assert points == 32 and cmath.isfinite(value)
        assert rel_err(value, 5880) < 1e-8

    def test_converging_wrapper(self):
        value, points, ok = contour_ct_converged(IdentitySpec.create("mm", 2))
        assert ok and points <= 2048
        assert rel_err(value, 32) < 1e-6

    def test_converged_float64_floor_instance(self):
        """On the origin torus this instance has a float64 floor near rel
        7e-6 at every N; the torus read off its factors converges."""
        value, points, ok = contour_ct_converged(
            IdentitySpec.create("morris", 3, a=1, b=2, twoc=2))
        assert ok and points <= 1024
        assert rel_err(value, 300) < 1e-6
        assert abs(value.imag) < 1e-6

    def test_epsilon_selects_nothing(self):
        """epsilon is neither read nor refused: the n*epsilon = 0.102 that
        was once refused gives the same tuple as no epsilon."""
        spec = IdentitySpec.create("morris", 3)
        assert contour_ct_converged(spec, epsilon=0.034) == contour_ct_converged(spec)

    def test_estimates_are_floats(self):
        for spec in CRITERION_7:
            value, _, _ = contour_ct_converged(spec, max_points=1024)
            assert type(value) is float, spec

    @pytest.mark.parametrize("start,top", [(64, 100), (64, 64), (64, 32), (None, 48), (64, 192)])
    def test_max_points_must_double_the_start(self, start, top):
        """max_points is start_points times 2**k, k >= 1; the derived start
        at tol 1e-6 is 32."""
        with pytest.raises(ConfigError, match=f"max_points={top} .*start_points="
                                              f"{start or 32} "):
            contour_ct_converged(IdentitySpec.create("mm", 2),
                                 start_points=start, max_points=top)


class TestConvergedStart:
    """By default the doubling starts at the smallest N with 0.5**N <= tol;
    the comparison of N with 2N still decides."""

    @pytest.fixture
    def sampled(self, monkeypatch):
        """The N of every mean _sample returns, in order: a coarse call at
        2N returns the means at N and 2N."""
        counts = []

        def recording(f, radii, points, coarse=False):
            counts.extend([points // 2, points] if coarse else [points])
            return _sample(f, radii, points, coarse)

        monkeypatch.setattr(contour, "_sample", recording)
        return counts

    @pytest.mark.parametrize("tol,start", [(1e-6, 32), (1e-10, 64)])
    def test_start_derived_from_tol(self, sampled, tol, start):
        contour_ct_converged(IdentitySpec.create("mm", 2), tol=tol)
        assert sampled[0] == start

    @pytest.mark.parametrize("spec,points", [
        (IdentitySpec.create("mm", 3), 64),
        (IdentitySpec.create("thm", 3, a=3, twoc=2), 128)])
    def test_default_call(self, spec, points):
        """thm n=3 a=3 twoc=2 is still 3.2e-5 off at N=32, where 0.5**32 is
        2e-10: its pole orders multiply the decay by a polynomial in N."""
        value, used, ok = contour_ct_converged(spec)
        assert ok and used == points
        assert rel_err(value, rhs(spec)) < 1e-6

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
    def test_tolerance_refused_before_sampling(self, sampled, tol):
        """The start derivation would never end on a tolerance <= 0."""
        with pytest.raises(ConfigError, match="tolerance"):
            contour_ct_converged(IdentitySpec.create("mm", 2), tol=tol)
        assert sampled == []

    def test_float64_refused_at_its_step(self, sampled):
        """A mean past the float64 range is refused at the step that gave
        it, not doubled up to max_points as an unconverged NaN."""
        with pytest.raises(ConfigError, match="^the morris n=1 a=1100 b=0 twoc=1 "
                                              "integrand exceeds the float64 range$"):
            contour_ct_converged(IdentitySpec.create("morris", 1, a=1100))
        assert sampled == [32, 64]

    def test_explicit_start_is_honoured(self, sampled):
        value, used, ok = contour_ct_converged(IdentitySpec.create("mm", 3),
                                               start_points=64)
        assert ok and used == 128 and sampled == [64, 128]
        assert rel_err(value, 5120) < 1e-6


class TestNestedGrid:
    """The N grid is the even points of the 2N grid, so the coarse mean of
    one evaluation at 2N is the N sample itself, bit for bit."""

    @pytest.mark.parametrize("points", [2, 4, 32, 64])
    @pytest.mark.parametrize("spec", [
        IdentitySpec.create("cry", 1),
        IdentitySpec.create("mm", 2),
        IdentitySpec.create("morris", 3, a=1, b=2, twoc=2),
        IdentitySpec.create("thm", 3, a=3, twoc=2)])  # converges at N=128
    def test_coarse_mean_is_the_half_grid_sample(self, spec, points):
        """The even points of circle 1's k = 0..N are its k = 0..N/2 at N,
        with the weights w[::2]; at N = 2 that is k = 0 and N/2 alone."""
        f = build_integrand(spec)
        radii = _chosen_radii(f, spec.n)
        coarse, fine = _sample(f, radii, 2 * points, coarse=True)
        assert coarse == _sample(f, radii, points)
        assert fine == _sample(f, radii, 2 * points)
        expected = full_grid_mean(f, radii, points)
        assert abs(coarse - expected) <= 1e-12 * max(1.0, abs(expected))


class TestContraction:
    """_sample sums factor tensors on their own axes; these compare it with
    the plain mean over the full product grid."""

    RADII = [0.3, 0.4, 0.5]
    POINTS = 16

    def brute_force_mean(self, integrand):
        return brute_force_mean(integrand, self.RADII, self.POINTS)

    def full_grid_mean(self, f):
        return full_grid_mean(f, self.RADII, self.POINTS)

    @pytest.fixture
    def einsum_calls(self, monkeypatch):
        calls = []
        einsum = np.einsum

        def spy(*args, **kwargs):
            calls.append(args)
            return einsum(*args, **kwargs)
        monkeypatch.setattr(np, "einsum", spy)
        return calls

    @pytest.mark.parametrize("triple", [False, True])
    def test_matches_brute_force(self, triple):
        """Without the base on all three variables the pair triangle is left
        for the matrix product; with it everything folds into one group."""
        den = [(parse_poly("x1"), 2), (parse_poly("1 - x2"), 1),
               (parse_poly("3 - x1 - x2"), 2), (parse_poly("2 + x1*x3"), 1),
               (parse_poly("2 - x3 + x2"), 3), (parse_poly("1 + x3"), Fraction(1, 2))]
        if triple:
            den.append((parse_poly("4 - x1 + x2 - x3"), 1))
        f = FactoredRational.create(parse_poly("1 + 2*x1 - x2 + x1*x2"), den)

        def integrand(x1, x2, x3):
            value = ((1 + 2 * x1 - x2 + x1 * x2)
                     / (x1 ** 2 * (1 - x2) * (3 - x1 - x2) ** 2 * (2 + x1 * x3)
                        * (2 - x3 + x2) ** 3 * np.sqrt(1 + x3)))
            return value / (4 - x1 + x2 - x3) if triple else value

        expected = self.brute_force_mean(integrand)
        value = _sample(f, self.RADII, self.POINTS)
        assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))

    @pytest.mark.parametrize("exp", [3, 4])
    def test_repeated_factors(self, exp):
        """A base with exponent e is multiplied in e times; its own values
        must never become the buffer they are multiplied into.  Covers a
        single-axis base, a pair base and two bases on one pair axis set."""
        f = FactoredRational.create(parse_poly("1 + x1*x2"), [
            (parse_poly("2 - x1"), exp), (parse_poly("3 - x1 + x2"), exp),
            (parse_poly("4 + x1 + x2"), exp)])

        def integrand(x1, x2, x3):
            return ((1 + x1 * x2) / ((2 - x1) * (3 - x1 + x2) * (4 + x1 + x2)) ** exp
                    + 0 * x3)

        expected = self.brute_force_mean(integrand)
        value = _sample(f, self.RADII, self.POINTS)
        assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))

    @pytest.mark.parametrize("f", [
        build_integrand(IdentitySpec.create("mm", 3)),
        build_integrand(IdentitySpec.create("thm", 3, a=2, twoc=2)),
        contour._chain_forms(3, 2, 2)["y"]], ids=["mm", "thm", "chain-y"])
    def test_pair_triangle(self, f, einsum_calls):
        """The pair groups (i,j), (i,k), (j,k) of every n = 3 family
        integrand and chain form are summed by a matrix product and a dot,
        on the full grid and on its even points alike."""
        value = _sample(f, self.RADII, self.POINTS)
        expected = self.full_grid_mean(f)
        assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))
        assert _sample(f, self.RADII, 2 * self.POINTS, coarse=True)[0] == value
        assert einsum_calls == []

    def test_two_pair_groups_reach_einsum(self, einsum_calls):
        """Pair groups (0,1) and (1,2) are no triangle: einsum sums them."""
        f = FactoredRational.create(parse_poly("1 + x2"), [
            (parse_poly("x1"), 1), (parse_poly("2 - x1 + x2"), 2),
            (parse_poly("3 - x2 - x3"), 1), (parse_poly("4 + x3"), 3)])
        value = _sample(f, self.RADII, self.POINTS)
        expected = self.full_grid_mean(f)
        assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))
        assert len(einsum_calls) == 1

    def test_spare_arrays_of_other_shapes(self):
        """One spare dict across integrands of other shapes and N: a call
        starts a product only in a left array of its own shape, and
        overwrites what that array held.  Covers exponents 1 to 3."""
        cube = FactoredRational.create(parse_poly("1 + x1*x2"), [
            (parse_poly("2 - x1"), 3), (parse_poly("3 - x1 + x2"), 3),
            (parse_poly("4 + x2 + x3"), 1), (parse_poly("5 - x1 - x3"), 2)])
        thm3 = build_integrand(IdentitySpec.create("thm", 3, a=3, twoc=2))
        mm3 = build_integrand(IdentitySpec.create("mm", 3))
        mm2 = build_integrand(IdentitySpec.create("mm", 2))
        spare = {}
        for f, radii, points in [(thm3, self.RADII, 16), (mm3, self.RADII, 16),
                                 (mm2, [0.25, 0.5], 16), (cube, self.RADII, 32),
                                 (thm3, self.RADII, 16), (mm2, [0.25, 0.5], 32)]:
            assert _sample(f, radii, points, spare=spare) == _sample(f, radii, points)
            assert spare

    @pytest.mark.parametrize("num,den,integrand", [
        ("2 + x1", [("3 - x2", 1)], lambda x1, x2, x3: (2 + x1) / (3 - x2) + 0 * x3),
        ("1 + x2*x3", [("3 - x2", 2)],
         lambda x1, x2, x3: (1 + x2 * x3) / (3 - x2) ** 2 + 0 * x1),
        ("3 + x1 + 2*x1^2", [], lambda x1, x2, x3: 3 + x1 + 2 * x1 ** 2 + 0 * x2 + 0 * x3)],
        ids=["no-x3", "no-x1", "x1-numerator-only"])
    def test_uncovered_axis(self, num, den, integrand):
        """A variable no factor involves still counts N points per circle;
        with no factor in x1, circle 1's weights alone sum to N."""
        f = FactoredRational.create(parse_poly(num),
                                    [(parse_poly(base), e) for base, e in den])
        value = _sample(f, self.RADII, self.POINTS)
        assert value == pytest.approx(self.brute_force_mean(integrand), abs=1e-14)
        assert value.imag == 0.0

    @pytest.mark.parametrize("spec", CRITERION_7, ids=str)
    def test_half_circle_on_the_criterion_7_grid(self, spec):
        f = build_integrand(spec)
        assert_full_grid_mean(f, _chosen_radii(f, spec.n), 8)

    @pytest.mark.parametrize("n,a,twoc", CHAIN_GRID)
    def test_half_circle_on_the_chain_forms(self, n, a, twoc):
        for form, f in contour._chain_forms(n, a, twoc).items():
            assert_full_grid_mean(f, _chosen_radii(f, n), 8, form)

    def test_root_leaving_right_half_plane(self):
        f = FactoredRational.create(Poly.one(), [(parse_poly("2 - x1"), 1),
                                                 (parse_poly("10*x2 - 1"), Fraction(1, 2))])
        with pytest.raises(ConfigError, match="right half-plane"):
            _sample(f, self.RADII, self.POINTS)

    def test_past_float64_is_not_finite(self):
        """No sample warns (pytest makes a RuntimeWarning an error) or raises
        past the float64 range; the mean shows it."""
        f = FactoredRational.create(Poly.constant(2 ** 1100), [(parse_poly("2 - x1"), 1)])
        assert _sample(f, self.RADII, self.POINTS) == math.inf
        assert _sample(f, self.RADII, self.POINTS, coarse=True) == (math.inf, math.inf)
        g = build_integrand(IdentitySpec.create("thm", 2, a=300))
        assert not cmath.isfinite(_sample(g, [0.25, 0.5], self.POINTS))

    def test_sample_budget(self):
        """n=4 at N=2048 is refused before any array is built."""
        with pytest.raises(ConfigError, match="n=4 at N=2048"):
            origin_ct(IdentitySpec.create("mm", 4), 0.01, 2048)

    @pytest.mark.parametrize("family,kwargs", [
        ("mm", {}), ("thm", {"a": 2, "twoc": 2}), ("cry", {}),
        ("morris", {"a": 2, "b": 2, "twoc": 2})])
    def test_n4_agreement(self, family, kwargs):
        """n=4 converges at N=128, well inside the sample budget."""
        spec = IdentitySpec.create(family, 4, **kwargs)
        value, points, ok = contour_ct_converged(spec, max_points=256)
        assert ok and rel_err(value, rhs(spec)) < 1e-6


class TestArrayBound:
    """A sample's widest arrays hold N**k elements, k the most variables in
    one polynomial of the integrand.  The refusals themselves run in a
    memory-capped child process (test_cli.TestArrayBound)."""

    @pytest.mark.parametrize("f,k", [
        (build_integrand(IdentitySpec.create("cry", 1)), 1),
        (build_integrand(IdentitySpec.create("mm", 3)), 2),
        (contour._chain_forms(1, 2, 1)["y"], 1),
        (contour._chain_forms(3, 2, 2)["z"], 2),
        (FactoredRational.create(parse_poly("1 + x1*x2*x3"), [(parse_poly("2 - x1"), 1)]), 3),
        (FactoredRational.create(Poly.constant(3), []), 1)],
        ids=["cry1", "mm3", "chain1-y", "chain3-z", "numerator", "constant"])
    def test_widest_axes(self, f, k):
        assert contour._widest_axes(f) == k

    def test_read_only_past_the_whole_grid_bound(self, monkeypatch):
        """k <= n, so k is read off f only when points**n passes the bound:
        the acceptance grid and the chain at N = 128 never read it."""
        def unread(f):
            raise AssertionError("k was read")

        monkeypatch.setattr(contour, "_widest_axes", unread)
        value, points, ok = contour_ct_converged(IdentitySpec.create("thm", 3, a=3, twoc=2))
        assert ok and points == 128
        chain_values(3, 2, 2, QuadratureConfig(default_epsilon(3, shifted=True), 128))


class TestChosenTorus:
    @pytest.mark.parametrize("family", ["cry", "mm", "morris", "thm"])
    def test_radii_from_factors(self, family):
        f = build_integrand(IdentitySpec.create(family, 3))
        assert _chosen_radii(f, 3) == pytest.approx([0.125, 0.25, 0.5])

    def test_unconstrained_variable_gets_unit_radius(self):
        f = build_integrand(IdentitySpec.create("morris", 2, a=0, b=1))
        assert _chosen_radii(f, 2) == pytest.approx([0.5, 1.0])

    def test_non_affine_factor(self):
        f = FactoredRational.create(Poly.one(), [(parse_poly("1 - x1*x2"), 1)])
        with pytest.raises(ConfigError):
            _chosen_radii(f, 2)

    @staticmethod
    def assert_inside_domain(f, n, label):
        """Every convergence condition of ct_var's series holds on the
        chosen torus: a positive h0 floor, and |h1| r_v / floor at most
        _TORUS_RATIO, up to rounding."""
        radii = dict(enumerate(_chosen_radii(f, n)))
        for (v, h1), *h0 in _expansion_conditions(f):
            floor = _h0_floor(h0, radii)
            assert floor > 0, (label, v)
            assert h1 * radii[v] / floor <= _TORUS_RATIO * (1 + 1e-12), (label, v)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_family_torus_inside_domain(self, n):
        for family, kwargs in FAMILIES:
            spec = IdentitySpec.create(family, n, **kwargs)
            self.assert_inside_domain(build_integrand(spec), n, str(spec))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_chain_torus_inside_domain(self, n):
        for a in (1, 2, 3):
            for twoc in (1, 2):
                for form, f in contour._chain_forms(n, a, twoc).items():
                    self.assert_inside_domain(f, n, (a, twoc, form))


class TestEpsilonIndependence:
    def test_contour_deformation_invariance(self):
        """The estimate must not depend on the base radius: 100 random
        instances compared between epsilon and epsilon/2.

        The radii are drawn from the top of the allowed window because the
        roundoff floor of the estimate scales like epsilon**-(pole depth):
        the integrand magnitude near the origin grows as a power of 1/eps
        while the true mean stays O(1), so shrinking the circles trades
        truncation error (already at machine level) for cancellation error.
        At n*eps in [0.072, 0.09] the floor for the deepest grid instances
        (b = 2, twoc = 2, depth 6) stays under 1e-7 even at epsilon/2."""
        rng = random.Random(20250817)
        cfg_pool = []
        for _ in range(100):
            n = rng.choice((1, 2))
            family = rng.choice(("cry", "mm", "morris", "thm"))
            kwargs = {}
            if family == "morris":
                kwargs = {"a": rng.randint(1, 3), "b": rng.randint(0, 2),
                          "twoc": rng.randint(1, 2)}
            elif family == "thm":
                kwargs = {"a": rng.randint(1, 3), "twoc": rng.randint(1, 2)}
            cfg_pool.append((IdentitySpec.create(family, n, **kwargs),
                             rng.uniform(0.072, 0.09) / n))
        for spec, eps in cfg_pool:
            v1 = origin_ct(spec, eps, 128)
            v2 = origin_ct(spec, eps / 2, 128)
            assert abs(v1 - v2) <= 1e-6 * max(1.0, abs(v2)), (spec, eps)
            # the true value is real; the imaginary part is pure noise
            assert abs(v1.imag) <= 1e-9 * max(1.0, abs(v1.real)), (spec, eps)
            exact = ct_iterated(build_integrand(spec))
            assert rel_err(v1, exact) < 1e-6, (spec, eps)


class TestChain:
    @pytest.mark.parametrize("a,expect", [(1, 1), (2, 2), (3, 6)])
    @pytest.mark.parametrize("twoc", [1, 2])
    def test_n1_closed_form(self, a, expect, twoc):
        values = chain_values(1, a, twoc, QuadratureConfig(0.0125, 256))
        assert list(values) == ["x", "z", "y", "t"]
        assert math.comb(2 * a - 2, a - 1) == expect
        for form, v in values.items():
            assert rel_err(v, expect) < 1e-8, form

    def test_n2_agreement_grid(self):
        for a in (1, 2, 3):
            for twoc in (1, 2):
                cfg = QuadratureConfig(default_epsilon(2, shifted=True), 128)
                values = chain_values(2, a, twoc, cfg)
                assert chain_spread(values) < 1e-5, (a, twoc)
                exact = thm_rhs(2, a, twoc)
                for form, v in values.items():
                    assert rel_err(v, exact) < 1e-5, (a, twoc, form)

    @pytest.mark.parametrize("a,twoc", [(2, 2), (3, 1), (3, 2)])
    def test_n3_on_the_chosen_torus(self, a, twoc):
        """On the shifted circles of radius mult*j*epsilon these instances
        drifted apart (rel 17.4 at a=3, twoc=2); on the torus read off each
        form's factors they agree."""
        cfg = QuadratureConfig(default_epsilon(3, shifted=True), 128)
        values = chain_values(3, a, twoc, cfg)
        assert chain_spread(values) < 1e-5
        exact = thm_rhs(3, a, twoc)
        for form, v in values.items():
            assert rel_err(v, exact) < 1e-5, form

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_forms_hand_arrays_over_bit_for_bit(self, n):
        """chain_values hands each form's arrays to the next form; every
        value equals the form sampled on its own, bit for bit."""
        cfg = QuadratureConfig(default_epsilon(n, shifted=True), 32)
        for a in (1, 2, 3):
            for twoc in (1, 2):
                alone = {form: _sample(f, _chosen_radii(f, n), cfg.points)
                         for form, f in contour._chain_forms(n, a, twoc).items()}
                assert chain_values(n, a, twoc, cfg) == alone, (a, twoc)

    @pytest.mark.parametrize("n,a,twoc", [
        (n, a, twoc) for n in (1, 2, 3) for a in (1, 2, 3) for twoc in (1, 2)]
        + [(4, 1, 1), (4, 2, 1), (4, 2, 2)])
    def test_exact_forms(self, n, a, twoc):
        """The exact engine takes each form's half powers too, and every
        form's iterated constant term is the closed form."""
        forms = contour._chain_forms(n, a, twoc)
        assert {form: ct_iterated(f) for form, f in forms.items()} == dict.fromkeys(
            "xzyt", thm_rhs(n, a, twoc))

    @pytest.mark.parametrize("n,a,twoc", [(2, 1, 1), (3, 2, 1), (3, 3, 2), (4, 2, 2)])
    def test_forms_hand_create_canonical_bases(self, n, a, twoc, monkeypatch):
        """Every integer-power base _chain_forms passes to create already has
        the sign create gives it, so create negates none of them."""
        create = FactoredRational.create.__func__
        seen = []

        def spy(cls, num, den=()):
            seen.extend(den)
            return create(cls, num, den)

        monkeypatch.setattr(FactoredRational, "create", classmethod(spy))
        contour._chain_forms(n, a, twoc)
        pairs = [base for base, exp in seen if len(base.variables()) == 2]
        assert len(pairs) >= 3 * math.comb(n, 2)  # at least u_k - u_j in Z, Y and T
        for base, exp in seen:
            if isinstance(exp, int):
                assert base.canonical_sign() == 1, (str(base), exp)

    def test_config_errors(self):
        cfg = QuadratureConfig(0.005, 64)
        with pytest.raises(ConfigError, match="n=4 at N=1024 .* over the budget"):
            chain_values(4, 2, 1, QuadratureConfig(0.005, 1024))
        with pytest.raises(DomainError, match="n must be a positive integer, got 0"):
            chain_values(0, 2, 1, cfg)
        with pytest.raises(DomainError, match="thm requires a >= 1"):
            chain_values(2, 0, 1, cfg)

    def test_epsilon_selects_nothing(self):
        """QuadratureConfig()'s epsilon, 0.025, was once refused at n = 4;
        it gives the same values as the chain command's epsilon."""
        assert chain_values(4, 1, 1, QuadratureConfig(points=16)) == chain_values(
            4, 1, 1, QuadratureConfig(default_epsilon(4, shifted=True), 16))

    def test_values_are_floats(self):
        for n, a, twoc in CHAIN_GRID:
            values = chain_values(n, a, twoc, QuadratureConfig(points=32))
            assert all(type(v) is float for v in values.values()), (n, a, twoc)

    def test_budget_refused_before_the_forms(self, monkeypatch):
        """An over-budget grid is refused before any form is built."""
        def unbuilt(n, a, twoc):
            raise AssertionError("_chain_forms called")

        monkeypatch.setattr(contour, "_chain_forms", unbuilt)
        with pytest.raises(ConfigError, match="over the budget"):
            chain_values(40, 2, 1, QuadratureConfig(0.0125 / 40, 2))

    def test_spread_of_identical_values(self):
        vals = {form: 5.0 for form in "xzyt"}
        assert chain_spread(vals) == 0.0

