"""Closed-sum reference for the two-variable constant terms of the catalog.

The integrand shape is

    x1^-p * x2^-p * (1-x1)^-q * (1-x2)^-q * (x2-x1)^-r * (1-x2-x1)^-w

with x1 on the smaller circle.  Putting x1 = s*x2 maps the monomial
x1^i x2^j to s^i x2^(i+j), one to one, so the constant term is unchanged and
equals the coefficient of s^p x2^(2p+r) in

    (1-s)^-r * (1-s*x2)^-q * (1-x2)^-q * (1-(1+s)*x2)^-w

Every factor there is a plain Taylor series, so the coefficient is a finite
sum over how the s- and x2-degrees split between the four factors.  Nothing
here imports ct_forge: the benchmark checks the engine against it.
"""

from __future__ import annotations

from math import comb


def _neg_binom(e: int, t: int) -> int:
    """Coefficient of z^t in (1-z)^-e for e >= 0."""
    if e == 0:
        return 1 if t == 0 else 0
    return comb(e - 1 + t, t)


def ct2(p: int, q: int, r: int, w: int) -> int:
    """Exact constant term of the shape above; every exponent is >= 0."""
    if min(p, q, r, w) < 0:
        raise ValueError("exponents must be nonnegative")
    x_deg = 2 * p + r
    total = 0
    # (1-s)^-r gives s^i; (1-s*x2)^-q gives s^j x2^j; (1-x2)^-q gives x2^k;
    # (1-(1+s)*x2)^-w gives C(l, m) s^m x2^l.
    for j in range(p + 1):
        for m in range(p - j + 1):
            i = p - j - m
            a = _neg_binom(r, i) * _neg_binom(q, j)
            if not a:
                continue
            for l in range(m, x_deg - j + 1):
                k = x_deg - j - l
                total += a * comb(l, m) * _neg_binom(w, l) * _neg_binom(q, k)
    return total
