"""Tests for the exact Gamma/Catalan arithmetic."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ct_forge.errors import DomainError, NonRationalError, PoleError
from ct_forge.exactarith import (
    catalan,
    gamma_half,
    gamma_quotient,
    mm_rhs,
    morris_rhs,
    thm_rhs,
)


class TestGammaQuotient:
    def test_plain_quotient(self):
        assert gamma_quotient([6], [2, 2]) == 2  # Gamma(3)/Gamma(1)^2

    def test_denominator_pole_collapses(self):
        assert gamma_quotient([2], [0]) == 0

    def test_denominator_pole_wins_over_numerator_pole(self):
        # the reciprocal-Gamma = 0 convention keeps the evaluators total
        # at a = 0, where numerator and denominator poles coincide
        assert gamma_quotient([0], [-2]) == 0

    def test_numerator_pole_alone_is_an_error(self):
        with pytest.raises(PoleError, match=r"^Gamma\(0\) pole in a numerator$"):
            gamma_quotient([0], [2])
        # the first numerator pole in argument order names the error, and a
        # numerator pole wins over an uncancelled sqrt(pi)
        with pytest.raises(PoleError, match=r"^Gamma\(-1\) pole in a numerator$"):
            gamma_quotient([1, -2, 0], [2])

    def test_uncancelled_sqrt_pi(self):
        with pytest.raises(NonRationalError,
                           match=r"^value carries sqrt\(pi\)\^1, not rational$"):
            gamma_quotient([1], [2])
        with pytest.raises(NonRationalError,
                           match=r"^value carries sqrt\(pi\)\^-2, not rational$"):
            gamma_quotient([2], [1, 3])


class TestGammaHalf:
    @pytest.mark.parametrize("twice,rat,pi_exp", [
        (1, Fraction(1), 1),            # Gamma(1/2) = sqrt(pi)
        (2, Fraction(1), 0),            # Gamma(1) = 1
        (3, Fraction(1, 2), 1),         # Gamma(3/2) = sqrt(pi)/2
        (6, Fraction(2), 0),            # Gamma(3) = 2
        (7, Fraction(15, 8), 1),        # Gamma(7/2) = 15/8 sqrt(pi)
        (-1, Fraction(-2), 1),          # Gamma(-1/2) = -2 sqrt(pi)
        (-3, Fraction(4, 3), 1),        # Gamma(-3/2) = 4/3 sqrt(pi)
        (10, Fraction(24), 0),          # Gamma(5) = 24
    ])
    def test_known_values(self, twice, rat, pi_exp):
        # gamma_half returns the rational part; the value carries sqrt(pi)
        # exactly when the argument is odd
        assert gamma_half(twice) == rat
        assert type(gamma_half(twice)) is Fraction
        assert twice % 2 == pi_exp

    @pytest.mark.parametrize("twice", [0, -2, -4])
    def test_poles(self, twice):
        with pytest.raises(PoleError):
            gamma_half(twice)

    def test_odd_argument_is_not_rational(self):
        # a lone Gamma at a half-odd integer carries one sqrt(pi)
        with pytest.raises(NonRationalError, match=r"sqrt\(pi\)\^1,"):
            gamma_quotient([1], [])
        assert gamma_quotient([6], []) == 2

    def test_product_and_quotient(self):
        # Gamma(1/2)^2 = pi, carried as sqrt(pi)^2
        assert gamma_half(1) * gamma_half(1) == 1
        with pytest.raises(NonRationalError, match=r"sqrt\(pi\)\^2,"):
            gamma_quotient([1, 1], [])
        assert gamma_quotient([3], [1]) == Fraction(1, 2)

    # q must avoid the poles at nonpositive integers: odd twice-values are
    # never integers, even ones must stay positive.
    @given(st.integers(min_value=-25, max_value=25).filter(
        lambda t: t % 2 != 0 or t > 0))
    @settings(max_examples=100)
    def test_recurrence(self, twice):
        """Gamma(q+1) = q * Gamma(q)."""
        assert gamma_half(twice + 2) == Fraction(twice, 2) * gamma_half(twice)

    @given(st.lists(st.integers(min_value=-15, max_value=25).filter(
               lambda t: t % 2 != 0), min_size=0, max_size=6),
           st.lists(st.integers(min_value=-15, max_value=25).filter(
               lambda t: t % 2 != 0), min_size=0, max_size=6))
    @settings(max_examples=100)
    def test_pi_exponent_bookkeeping(self, nums, dens):
        """Each half-odd-integer Gamma carries exactly one sqrt(pi); the
        power of a quotient is the count difference, and gamma_quotient
        returns the product of the rational parts exactly when it cancels."""
        rational_part = Fraction(1)
        for t in nums:
            rational_part *= gamma_half(t)
        for t in dens:
            rational_part /= gamma_half(t)
        if len(nums) == len(dens):
            value = gamma_quotient(nums, dens)
            assert isinstance(value, Fraction) and value == rational_part
        else:
            power = len(nums) - len(dens)
            with pytest.raises(NonRationalError, match=rf"sqrt\(pi\)\^{power},"):
                gamma_quotient(nums, dens)


class TestCatalan:
    def test_values(self):
        assert [catalan(k) for k in range(1, 6)] == [1, 2, 5, 14, 42]

    @pytest.mark.parametrize("k", [0, -3])
    def test_domain(self, k):
        with pytest.raises(DomainError):
            catalan(k)

    def test_ratio(self):
        for k in range(1, 21):
            assert catalan(k + 1) / catalan(k) == Fraction(2 * (2 * k + 1), k + 2)


class TestMorrisRhs:
    def test_binomial_specialization(self):
        # n = 1 collapses to binom(a+b-1, b), independent of twoc
        from math import comb
        for a in range(1, 6):
            for b in range(6):
                expect = comb(a + b - 1, b)
                assert morris_rhs(1, a, b, 1) == expect
                assert morris_rhs(1, a, b, 2) == expect

    def test_zero_by_reciprocal_pole(self):
        assert morris_rhs(2, 0, 0, 1) == 0
        assert morris_rhs(1, 0, 3, 2) == 0
        # a = 0 always puts Gamma(0) in a denominator, so the convention
        # sends the whole right side to 0 whatever the other parameters do
        assert morris_rhs(1, 0, 0, 1) == 0

    def test_known_values(self):
        # cross-checked against the series oracle (n = 2) and the contour
        # quadrature (n = 3) before being frozen here
        assert morris_rhs(2, 2, 0, 1) == 2
        assert morris_rhs(2, 3, 2, 2) == 300
        assert morris_rhs(3, 3, 2, 1) == 9240
        assert morris_rhs(3, 3, 2, 2) == 147000

    @pytest.mark.parametrize("args", [(0, 1, 0, 1), (2, -1, 0, 1),
                                      (2, 1, -1, 1), (2, 1, 0, 0)])
    def test_domain(self, args):
        with pytest.raises(DomainError):
            morris_rhs(*args)


class TestMmRhs:
    def test_values(self):
        assert [mm_rhs(n) for n in range(1, 5)] == [2, 32, 5120, 9175040]

    def test_domain(self):
        with pytest.raises(DomainError):
            mm_rhs(0)


class TestThmRhs:
    def test_pairless_case(self):
        # n = 1: value is binom(2a-2, a-1) whatever twoc is
        from math import comb
        for a in range(1, 6):
            for twoc in (1, 2, 3):
                assert thm_rhs(1, a, twoc) == comb(2 * a - 2, a - 1)

    def test_known_values(self):
        assert thm_rhs(2, 1, 1) == 2
        assert thm_rhs(2, 2, 1) == 32
        assert thm_rhs(2, 3, 1) == 512
        assert thm_rhs(2, 1, 2) == 6
        assert thm_rhs(2, 2, 2) == 180
        assert thm_rhs(2, 3, 2) == 4200

    def test_a_zero_collapses(self):
        assert thm_rhs(2, 0, 1) == 0

    def test_matches_mm(self):
        for n in range(2, 9):
            assert thm_rhs(n, 2, 1) == mm_rhs(n)

    @pytest.mark.parametrize("args", [(0, 1, 1), (1, -1, 1), (1, 1, 0)])
    def test_domain(self, args):
        with pytest.raises(DomainError):
            thm_rhs(*args)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_is_morris_form_at_b_minus_half(self, n):
        # thm_rhs = 2^e times the Morris product at b = -1/2, the product
        # transcribed here with gamma_half alone; a = 0 gives 0 on both sides
        for a in range(5):
            for twoc in range(1, 5):
                e = 2 * a * n + twoc * n * (n - 1) - 2 * n
                assert thm_rhs(n, a, twoc) == 2 ** e * _morris_at_half_b(n, a, twoc)


def _morris_at_half_b(n, a, twoc):
    """(1/n!) prod_j G(a+b+(n-1+j)c) G(c) / [G(a+jc) G(c+jc) G(b+jc+1)]
    at b = -1/2, in twice-units; 0 when a denominator Gamma is a pole."""
    num, den = [], []
    for j in range(n):
        num += [2 * a - 1 + (n - 1 + j) * twoc, twoc]
        den += [2 * a + j * twoc, twoc + j * twoc, 1 + j * twoc]
    if any(t <= 0 and t % 2 == 0 for t in den):
        return Fraction(0)
    # one sqrt(pi) per odd argument: the counts must cancel for a rational value
    assert sum(t % 2 for t in num) == sum(t % 2 for t in den)
    acc = Fraction(1)
    for t in num:
        acc *= gamma_half(t)
    for t in den:
        acc /= gamma_half(t)
    return acc / factorial(n)
