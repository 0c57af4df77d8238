"""Exact arithmetic for half-integer Gamma values and the closed-form products
built from them.

Everything here is exact: rationals are `fractions.Fraction`, half integers
are carried as twice their value, and a Gamma value is its rational part,
the sqrt(pi) of an odd argument counted.  No floating point enters here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .errors import DomainError, NonRationalError, PoleError


def gamma_half(t: int) -> Fraction:
    """The rational part of Gamma(t/2), via the recurrence from Gamma(1) = 1
    and Gamma(1/2) = sqrt(pi): Gamma(t/2) is it times sqrt(pi) when t is odd.

    Negative half integers are fine (Gamma(-1/2) = -2 sqrt(pi) gives -2);
    nonpositive integers are poles.
    """
    if t % 2 == 0:
        if t <= 0:
            raise PoleError(f"Gamma({t // 2}) is a pole")
        return Fraction(math.factorial(t // 2 - 1))
    rat = Fraction(1)
    for s in range(1, t, 2):  # up from Gamma(1/2): Gamma(s/2 + 1) = (s/2) Gamma(s/2)
        rat *= Fraction(s, 2)
    for s in range(t, 1, 2):  # down from Gamma(1/2) when t < 0
        rat /= Fraction(s, 2)
    return rat


def catalan(k: int) -> Fraction:
    """The k-th Catalan number binom(2k, k)/(k+1), as an exact rational."""
    if k < 1:
        raise DomainError(f"catalan requires k >= 1, got {k}")
    return Fraction(math.comb(2 * k, k), k + 1)


def catalan_product(n: int) -> Fraction:
    """prod_{k=1}^{n} Cat(k); the empty product 1 for n < 1."""
    prod = Fraction(1)
    for k in range(1, n + 1):
        prod *= catalan(k)
    return prod


def gamma_quotient(num_twice: Iterable[int], den_twice: Iterable[int]) -> Fraction:
    """prod Gamma(num)/prod Gamma(den), arguments in twice-units: the product
    of gamma_half's rational parts, times sqrt(pi) to the count of odd
    numerator arguments less the count of odd denominator arguments.

    Returns 0 when any denominator argument is a nonpositive integer: the
    reciprocal of a Gamma pole is zero and collapses the whole product,
    even if a numerator argument is also a pole (that is the convention that
    keeps the closed-form evaluators total at a = 0).  Otherwise the first
    numerator pole raises PoleError, then a nonzero sqrt(pi) power raises
    NonRationalError.
    """
    den = list(den_twice)
    if any(t <= 0 and t % 2 == 0 for t in den):
        return Fraction(0)
    acc, pi_half_exp = Fraction(1), 0
    for t in num_twice:
        if t <= 0 and t % 2 == 0:
            raise PoleError(f"Gamma({t // 2}) pole in a numerator")
        acc *= gamma_half(t)
        pi_half_exp += t % 2
    for t in den:
        acc /= gamma_half(t)
        pi_half_exp -= t % 2
    if pi_half_exp:
        raise NonRationalError(f"value carries sqrt(pi)^{pi_half_exp}, not rational")
    return acc


def _morris_form(n: int, twoa: int, twob: int, twoc: int) -> Fraction:
    """The Gamma product of morris_rhs with a, b and c in twice-units, so
    that b may be a half integer; 0 when a denominator Gamma is at a pole."""
    num = []
    den = []
    for j in range(n):
        num.append(twoa + twob + (n - 1 + j) * twoc)
        num.append(twoc)
        den.append(twoa + j * twoc)
        den.append(twoc + j * twoc)
        den.append(twob + j * twoc + 2)
    return gamma_quotient(num, den) / math.factorial(n)


def morris_rhs(n: int, a: int, b: int, twoc: int) -> Fraction:
    """Gamma-product closed form for the n-variable constant term of
    prod (1-x_i)^{-a} x_i^{-b} prod_{i<j} (x_j-x_i)^{-2c} with c = twoc/2:

        (1/n!) prod_{j=0}^{n-1} G(a+b+(n-1+j)c) G(c)
                               / [G(a+jc) G(c+jc) G(b+jc+1)]
    """
    if n < 1:
        raise DomainError(f"morris_rhs requires n >= 1, got {n}")
    if a < 0 or b < 0:
        raise DomainError("morris_rhs requires a >= 0 and b >= 0")
    if twoc < 1:
        raise DomainError("morris_rhs requires twoc >= 1")
    return _morris_form(n, 2 * a, 2 * b, twoc)


def mm_rhs(n: int) -> Fraction:
    """2^(n^2) times the product of the first n Catalan numbers.

    Stated for n >= 2; n = 1 is accepted as the natural extension (value 2).
    """
    if n < 1:
        raise DomainError(f"mm_rhs requires n >= 1, got {n}")
    return Fraction(2) ** (n * n) * catalan_product(n)


def thm_rhs(n: int, a: int, twoc: int) -> Fraction:
    """Closed form 2^(2an + 4c*binom(n,2) - 2n) * (1/n!) *
    prod_{j=0}^{n-1} G(a-1/2+(n-1+j)c) G(c) / [G(1/2+jc) G(c+jc) G(a+jc)]
    with c = twoc/2: 2^e times the Morris form at b = -1/2.

    a = 0 collapses to 0 through the reciprocal-Gamma convention.
    """
    if n < 1:
        raise DomainError(f"thm_rhs requires n >= 1, got {n}")
    if a < 0:
        raise DomainError("thm_rhs requires a >= 0")
    if twoc < 1:
        raise DomainError("thm_rhs requires twoc >= 1")
    exponent = 2 * a * n + 2 * twoc * (n * (n - 1) // 2) - 2 * n
    return Fraction(2) ** exponent * _morris_form(n, 2 * a, -1, twoc)
