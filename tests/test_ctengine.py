"""Tests for the exact constant-term engine.

The consistency class checks the engine against the brute-force series
oracle in tests/oracle_series.py, which shares no code with the engine.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ct_var_reference
import oracle_series
import rationals
from ct_forge.ctengine import (
    FactoredRational,
    ct_iterated,
    ct_var,
    factored_loads,
)
from ct_forge.errors import (
    ExponentOverflowError,
    NonAffineError,
    NonRationalError,
    ParseError,
    ResidualVariableError,
    ZeroConstantError,
)
from ct_forge.polyring import Poly

x1, x2 = Poly.var(0), Poly.var(1)
one = Poly.one()
half = Fraction(1, 2)


def rational(num, den=()):
    return FactoredRational.create(num, den)


class TestFactoredRational:
    def test_constant_factors_fold_into_numerator(self):
        f = rational(one, [(Poly.constant(2), 1), (one - x1, 1)])
        assert f.num == Fraction(1, 2)
        assert f.den == ((one - x1, 1),)

    def test_content_moves_to_numerator(self):
        f = rational(one, [(2 * x1 - 2, 1)])
        # content -2 folds out, leaving the base with a positive constant term
        assert f.num == Fraction(-1, 2)
        assert f.den == ((one - x1, 1),)

    def test_repeated_bases_merge(self):
        f = rational(one, [(one - x1, 1), (one - x1, 2)])
        assert f.den == ((one - x1, 3),)

    def test_zero_numerator_clears_denominator(self):
        f = rational(Poly.zero(), [(x1, 5)])
        assert f.is_zero()
        assert f.den == ()

    def test_bad_factors(self):
        with pytest.raises(ValueError):
            rational(one, [(x1, 0)])
        with pytest.raises(ValueError):
            rational(one, [(x1, True)])
        with pytest.raises(ZeroDivisionError):
            rational(one, [(Poly.zero(), 1)])

    def test_as_constant(self):
        assert rational(Poly.constant(6), [(Poly.constant(1) + 1, 1)]).as_constant() == 3
        with pytest.raises(ResidualVariableError):
            rational(one, [(one - x2, 1)]).as_constant()

    def test_equivalence_and_sum(self):
        f = rational(one, [(one - x1, 1)])
        g = rational(one - x1, [(one - x1, 2)])
        assert rationals.equivalent(f, g)
        s = rationals.add(f, rational(-f.num, f.den))
        assert s.is_zero()
        h = rationals.add(f, f)
        assert rationals.equivalent(h, rational(Poly.constant(2), [(one - x1, 1)]))


# Bases of every kind create orders: homogeneous, with a constant term,
# single terms, several variables, both signs, and contents to fold out.
order_pool = [x1, x2, x1 * x2, 3 * x2, one - x1, 1 - 2 * x2, one - x1 - x2, x2 - x1,
              x1 - x2, 2 * x1 - 2, x1 + x1 * x2, Poly.constant(2)]


class TestFactorOrder:
    @given(st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_input_order_does_not_matter(self, data):
        """create returns one FactoredRational for any permutation of its
        factors, and for a base whose exponent is split across entries."""
        den = data.draw(st.lists(st.tuples(st.sampled_from(order_pool), st.integers(1, 3)),
                                 min_size=1, max_size=6))
        num = x1 + 2
        f = rational(num, den)
        assert rational(num, data.draw(st.permutations(den))) == f
        i = data.draw(st.integers(0, len(den) - 1))
        base, exp = den[i]
        k = data.draw(st.integers(1, 3))
        merged = den[:i] + [(base, exp + k)] + den[i + 1:]
        split = data.draw(st.permutations(den + [(base, k)]))
        assert rational(num, split) == rational(num, merged)

    def test_groups(self):
        # several terms without a constant, then with one, then single terms
        f = rational(one, [(x1, 1), (one - x2, 1), (x1 * x2, 1), (x2 - x1, 1),
                           (one - x1, 1), (x1 - x2, 1)])
        # x1 - x2 is -(x2 - x1), so the two merge
        assert [(str(b), e) for b, e in f.den] == [
            ("-x1 + x2", 2), ("1 - x1", 1), ("1 - x2", 1), ("x1", 1), ("x1*x2", 1)]
        assert f.num == -1


class TestCanonicalSign:
    """create stores an integer-power base with a positive constant term, or
    else a positive coefficient on its highest packed monomial, and moves
    (-1)**exp into the numerator; a half power keeps its base's sign."""

    @pytest.mark.parametrize("e", [1, 2, 3, 4])
    def test_opposite_bases_merge(self, e):
        f = rational(one + x1, [(x1 - x2, e), (x2 - x1, 1)])
        assert f.den == ((x2 - x1, e + 1),)
        assert f.num == (-1) ** e * (one + x1)
        g = rational(one, [(x1 - 1, e), (2 * x2 - 2 * x1, 1)])
        assert g.den == ((x2 - x1, 1), (one - x1, e))
        assert g.num == Fraction((-1) ** e, 2)

    def test_half_power_keeps_its_sign(self):
        f = rational(one, [(x1 - x2, half), (x1 - 1, half), (x1 - x2, 1)])
        assert f.den == ((x2 - x1, 1), (x1 - x2, half), (x1 - 1, half))
        assert f.num == -1


class TestCtVar:
    def test_monomial_times_geometric(self):
        # coefficient of x1^1 in (1-x1)^-2
        f = rational(one, [(x1, 1), (one - x1, 2)])
        assert ct_var(f, 0).as_constant() == 2

    def test_constant_passthrough(self):
        f = rational(Poly.constant(5))
        assert ct_var(f, 0).as_constant() == 5
        assert ct_var(f, 1).as_constant() == 5

    def test_pair_factor_leaves_reciprocal(self):
        # hand expansion: (x2-x1)^-1 = x2^-1 sum (x1/x2)^t, so the x1^0
        # coefficient of the cry n=2 integrand is x2^-1 (1-x2)^-2
        f = rational(one, [(one - x1, 2), (one - x2, 2), (x2 - x1, 1)])
        g = ct_var(f, 0)
        expect = rational(one, [(x2, 1), (one - x2, 2)])
        assert g == expect

    def test_zero_input(self):
        z = rational(Poly.zero())
        assert ct_var(z, 0).is_zero()

    def test_non_affine(self):
        with pytest.raises(NonAffineError):
            ct_var(rational(one, [(one - x1 * x1, 1)]), 0)

    def test_zero_constant_part(self):
        with pytest.raises(ZeroConstantError):
            ct_var(rational(one, [(x1 + x1 * x2, 1)]), 0)

    def test_shift_past_packed_exponent(self):
        # the work grows linearly in the shift M; M = 1e9 is refused before it
        f = rational(one, [(x1, 10 ** 9), (one - x1, 1), (x2 - x1, 1)])
        with pytest.raises(ExponentOverflowError, match="exponent of x1 exceeds 32767"):
            ct_var(f, 0)

    def test_odd_monomial_power_kills_even_series(self):
        # x1^-1 alone: no x1^0 term anywhere
        assert ct_var(rational(one, [(x1, 1)]), 0).is_zero()


class TestHalfExponents:
    """Exponents may be half-integers, as in the reciprocal square roots of
    the substitution chain; integral exponents stay ints."""

    def test_merged_halves(self):
        f = rational(one, [(one - x1, half), (one - x1, half)])
        assert f.den == ((one - x1, 1),) and type(f.den[0][1]) is int
        g = rational(one, [(one - x1, half), (one - x1, 1), (one - x2, half)])
        assert g.den == ((one - x1, Fraction(3, 2)), (one - x2, half))

    @pytest.mark.parametrize("exp", [Fraction(1, 3), Fraction(-1, 2), Fraction(2), 0.5])
    def test_other_exponents_refused(self, exp):
        with pytest.raises(ValueError, match="must be positive integers, got"):
            rational(one, [(one - x1, exp)])

    def test_exact_root_of_content_and_constant(self):
        """(4 - 4*x1)**(1/2) folds its content 4 as an exact 2."""
        f = rational(one, [(x1, 1), (4 - 4 * x1, half), (Poly.constant(9), Fraction(3, 2))])
        assert f.num == Fraction(1, 54)
        assert ct_iterated(rational(one, [(x1, 1), (4 - 4 * x1, half)])) == Fraction(1, 4)

    @pytest.mark.parametrize("base", [2 - 2 * x1, Poly.constant(2), Poly.constant(-4),
                                      Poly.constant(Fraction(1, 2))])
    def test_irrational_root_refused(self, base):
        with pytest.raises(NonRationalError, match=r"\^\(1/2\) is not rational"):
            rational(one, [(base, half), (one - x2, 1)])

    def test_half_power_of_monomial_refused(self):
        """c*v to a half power has no Laurent series in v."""
        f = rational(one, [(x1, half), (one - x1, 1)])
        with pytest.raises(ZeroConstantError,
                           match=r"^\(x1\)\^\(1/2\) has no Laurent series in x1$"):
            ct_var(f, 0)

    @pytest.mark.parametrize("t", range(12))
    def test_central_binomials(self, t):
        """CT[x1**-t (1 - x1)**(-1/2)] = C(2t, t) / 4**t, the coefficients of
        the binomial series, computed without the engine's binomials."""
        den = [(x1, t)] if t else []
        f = rational(one, den + [(one - x1, half)])
        assert ct_iterated(f) == Fraction(math.comb(2 * t, t), 4 ** t)


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
numerators = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(1, 2)).map(lambda p: (p,)),
    small_fracs, max_size=3,
).map(Poly)
# catalog-shaped denominators: affine in each variable with nonzero
# constant-or-other-variable part, plus pure monomials
den_pool = [x1, x2, one - x1, one - x2, x2 - x1, one - x1 - x2, 2 - x2]
den_factors = st.lists(
    st.tuples(st.sampled_from(range(len(den_pool))), st.integers(1, 2)),
    max_size=3,
).map(lambda ixs: [(den_pool[i], e) for i, e in ixs])


class TestLinearity:
    @given(numerators, numerators, den_factors, den_factors,
           small_fracs, small_fracs, st.integers(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_ct_is_linear(self, p, q, dp, dq, alpha, beta, v):
        f = rational(p * alpha, dp)
        g = rational(q * beta, dq)
        lhs = ct_var(rationals.add(f, g), v)
        rhs = rationals.add(ct_var(f, v), ct_var(g, v))
        assert rationals.equivalent(lhs, rhs)


@st.composite
def step_inputs(draw):
    """(f, v): a 2- or 3-variable rational with at least two affine factors
    in v, a monomial shift of 0-4 and a numerator with gaps in its v-degrees."""
    n_vars = draw(st.integers(2, 3))
    v = draw(st.integers(0, n_vars - 1))
    xv, others = Poly.var(v), [Poly.var(j) for j in range(n_vars) if j != v]
    coeffs = st.lists(st.integers(-2, 2), min_size=n_vars, max_size=n_vars).filter(any)

    def v_free():
        c = draw(coeffs)
        return c[0] + sum(k * x for k, x in zip(c[1:], others))

    den = [(v_free() + v_free() * xv, draw(st.integers(1, 3)))
           for _ in range(draw(st.integers(2, 3)))]
    shift = draw(st.integers(0, 4))
    if shift:
        den.append((draw(st.sampled_from([1, -1, 2])) * xv, shift))
    if draw(st.booleans()):
        den.append((one - others[0], draw(st.integers(1, 2))))
    degrees = draw(st.sets(st.integers(0, 6), min_size=1, max_size=4))
    num = sum((v_free() * xv ** d for d in degrees), Poly.zero())
    f = rational(num, den)
    assume(sum(b.degree_in(v) == 1 and 0 in b.coeffs_in(v)
               for b, _ in f.den) >= 2)
    return f, v


class TestStepIdentity:
    """ct_var forms only the series terms that reach v**M; the reference
    forms them all.  Both must give the same FactoredRational, num and den."""

    @given(step_inputs())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_matches_full_convolution(self, case):
        f, v = case
        assert ct_var(f, v) == ct_var_reference.ct_var(f, v)

    @pytest.mark.parametrize("num,den,expect", [
        # M = 0: every cleared series is 1, so the numerator's x1^0 part stays
        (one + x1 + x2 * x1 * x1, [(one - x1, 1), (x2 - x1, 2)], rational(one, [(x2, 2)])),
        # one affine factor: coefficient of x1^2 in x2 * (x2 - x1)^-2 is 3/x2^3
        (x2, [(x1, 2), (x2 - x1, 2)], rational(3 * x2, [(x2, 4)])),
        # no numerator term of degree <= M: the result is zero
        (x1 ** 3 + x1 ** 4 * x2, [(x1, 2), (one - x1, 1), (x2 - x1, 1)], rational(Poly.zero())),
        # lowest numerator degree equals M: only the t = 0 series terms
        (x1 * x1 * x2, [(x1, 2), (one - x1 - x2, 1), (x2 - x1, 1)],
         rational(x2 ** 3 * (one - x2) ** 2, [(one - x2, 3), (x2, 3)])),
    ])
    def test_fixed_cases(self, num, den, expect):
        f = rational(num, den)
        assert ct_var(f, 0) == ct_var_reference.ct_var(f, 0) == expect


def two_var_integrand(p, q, r, w, flip=False):
    pair = (x1 - x2) if flip else (x2 - x1)
    factors = [(x1, p), (x2, p), (one - x1, q), (one - x2, q),
               (pair, r), (one - x2 - x1, w)]
    return rational(one, [(b, e) for b, e in factors if e > 0])


class TestSeriesOracleConsistency:
    @pytest.mark.parametrize("p,q,r,w", [
        pqrw for pqrw in itertools.product(range(3), range(4), range(3), range(3))
    ])
    def test_two_variable_grid(self, p, q, r, w):
        got = ct_iterated(two_var_integrand(p, q, r, w))
        assert got == oracle_series.series_ct2(p, q, r, w)

    @pytest.mark.parametrize("p,q,r,w", [(0, 2, 1, 0), (1, 2, 1, 1), (1, 2, 2, 2)])
    def test_flipped_pair_orientation(self, p, q, r, w):
        got = ct_iterated(two_var_integrand(p, q, r, w, flip=True))
        assert got == oracle_series.series_ct2_flipped_pair(p, q, r, w)

    def test_one_variable(self):
        for p in range(4):
            for q in range(4):
                factors = [(b, e) for b, e in [(x1, p), (one - x1, q)] if e > 0]
                got = ct_iterated(rational(one, factors))
                assert got == oracle_series.series_ct1(p, q)


class TestCtIterated:
    def test_default_order_is_sorted_variables(self):
        f = two_var_integrand(1, 2, 1, 1)  # the mm n=2 integrand
        assert ct_iterated(f) == 32

    def test_explicit_order_on_separable_integrand(self):
        f = rational(one, [(x1, 1), (x2, 1), (one - x1, 1), (one - x2, 1)])
        assert ct_iterated(f, (0, 1)) == 1
        assert ct_iterated(f, (1, 0)) == 1

    def test_reversed_order_flips_pair_orientation(self):
        f = two_var_integrand(1, 2, 1, 1)
        assert ct_iterated(f, (1, 0)) == -32

    def test_order_must_cover_variables(self):
        f = two_var_integrand(0, 2, 1, 0)
        with pytest.raises(ResidualVariableError):
            ct_iterated(f, [0])


class TestJson:
    def test_loads_example(self):
        text = ('{"num": "1", "den": [["x1", 1], ["x2", 1], ["1 - x1", 2],'
                ' ["1 - x2", 2], ["x2 - x1", 1], ["1 - x1 - x2", 1]]}')
        assert ct_iterated(factored_loads(text)) == 32

    @pytest.mark.parametrize("text", [
        "not json", '{"num": "1"}', '{"num": "1", "den": [["x1"]]}',
        '{"num": "(", "den": []}', '{"num": "1", "den": [["x1", "e"]]}',
    ])
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            factored_loads(text)
