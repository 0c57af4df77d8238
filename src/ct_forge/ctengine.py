"""Exact iterated constant-term extraction for factored rational functions.

A FactoredRational is a polynomial numerator over a product of polynomial
factors raised to positive integer or half-integer (Fraction) powers:

    num / prod(base_i ** exp_i)

Constant-term extraction in a variable v views f as a Laurent series in v
around 0 under the nested-circle convention: the contour for v is tighter
than the contour of every variable that has not been extracted yet, so a
factor h0 + h1*v with v-free h0 != 0 has no zero inside the v-circle and
its reciprocal expands as a geometric series

    (h0 + h1*v)**-e = sum_t C(e+t-1, t) * (-1)**t * h1**t * h0**(-e-t) * v**t

with C the generalized binomial for a half-integer e, while a pure
monomial factor (c*v)**-e, e an integer, shifts which coefficient is wanted.
The engine convolves the factor series with the numerator's v-coefficients
up to the needed order, one polyring.poly_dot per coefficient.  No polynomial
gcd is ever computed: results stay factored, and every new denominator base
is the v-free part h0 of an input base, which keeps all bases affine per
variable.  Each step counts its term products, a factor's whole convolution
before its first one, and raises BudgetError past _STEP_BUDGET.

FactoredRational.create turns a base b of integer exponent e into -b, with
(-1)**e in the numerator, unless its constant term, or else its highest
packed monomial's coefficient, is positive; half powers keep their sign.
It keeps the bases in one canonical order, read off their packed terms by
Poly.order_key, not off the rendered text: bases of several terms without a
constant term first, then those with one, then single terms, each group by
its sorted (packed monomial, coefficient) pairs.  ct_var walks the factors in
that order, so its last series factor, the one that contributes only a dot
product, is the last affine factor in it.  On the family integrands up to
n = 9 the order is that of the text.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import (
    BudgetError,
    NonAffineError,
    NonRationalError,
    ParseError,
    ResidualVariableError,
    ZeroConstantError,
)
from .polyring import _MAX_EXP, Poly, _overflow, parse_poly, poly_dot

Factor = Tuple[Poly, Union[int, Fraction]]

_STEP_BUDGET = 2**25  # term products per ct_var step; mm n=7's dearest step forms 12,128,512


def _half_power(q, exp: Fraction) -> Fraction:
    """q**exp for a rational q and a half-integer exp, from the exact root of q."""
    root = Fraction(math.isqrt(max(q.numerator, 0)), math.isqrt(q.denominator))
    if root * root != q:
        raise NonRationalError(f"({q})^({exp}) is not rational")
    return root ** exp.numerator


def _half_binomial(top: Fraction, t: int) -> Fraction:
    """The generalized binomial C(top, t) = top*(top-1)*...*(top-t+1)/t!."""
    return Fraction(math.prod(top - i for i in range(t)), math.factorial(t))


@dataclass(frozen=True)
class FactoredRational:
    """num / prod(base**exp); exps positive, bases nonconstant primitives."""

    num: Poly
    den: Tuple[Factor, ...]

    @classmethod
    def create(cls, num: Poly, den: Sequence[Factor] = ()) -> "FactoredRational":
        """Normalize: fold rational contents and constant factors into the
        numerator, a half-integer power by its exact root or NonRationalError,
        merge bases equal up to sign, drop everything on a zero numerator."""
        scale = Fraction(1)
        merged: Dict[Poly, Union[int, Fraction]] = {}
        for base, exp in den:
            half = type(exp) is Fraction and exp.denominator == 2 and exp.numerator > 0
            if not half and (isinstance(exp, bool) or not isinstance(exp, int) or exp <= 0):
                raise ValueError(f"factor exponents must be positive integers, got {exp!r}")
            if base.is_zero():
                raise ZeroDivisionError("zero polynomial in denominator")
            if base.is_constant():
                c = base.constant_coeff()
                scale /= _half_power(c, exp) if half else c ** exp
                continue
            content, prim = base.content_and_primitive()
            if not half and prim.canonical_sign() < 0:  # (-b)**exp = (-1)**exp * b**exp
                content, prim = -content, -prim
            if content != 1:
                scale /= _half_power(content, exp) if half else content ** exp
            exp = merged.get(prim, 0) + exp
            merged[prim] = exp.numerator if half and exp.denominator == 1 else exp
        if scale != 1:
            num = num * scale
        if num.is_zero():
            return cls(Poly.zero(), ())
        factors = tuple(sorted(merged.items(), key=lambda f: f[0].order_key()))
        return cls(num, factors)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def variables(self) -> frozenset:
        vs = set(self.num.variables())
        for base, _ in self.den:
            vs |= base.variables()
        return frozenset(vs)

    def as_constant(self) -> Fraction:
        """The value of a variable-free result, which create leaves no factors."""
        leftover = self.variables()
        if leftover:
            names = ", ".join(f"x{v + 1}" for v in sorted(leftover))
            raise ResidualVariableError(f"variables remain after extraction: {names}")
        return self.num.constant_coeff()


def ct_var(f: FactoredRational, v: int) -> FactoredRational:
    """Constant term of f in variable v, exactly.

    Denominator factors split three ways by their shape in v: v-free factors
    pass through untouched, pure monomials c*v shift which numerator
    coefficient is wanted, and affine factors with nonzero v-free part h0
    expand as geometric series.  The result is the coefficient of v**M, M
    the total monomial shift, in the product of those series with the
    numerator, written over denominator bases h0**(exp+M).  BudgetError
    when that takes more than _STEP_BUDGET term products, before forming them.
    """
    if f.is_zero():
        return f
    passthrough: List[Factor] = []
    series_factors: List[Tuple[Poly, Poly, int]] = []  # (h0, h1, exp)
    M = 0  # the monomial shift: the power of v whose coefficient is wanted
    mono_scale = 1
    for base, exp in f.den:
        d = base.degree_in(v)
        if d == 0:
            passthrough.append((base, exp))
            continue
        if d > 1:
            raise NonAffineError(
                f"factor ({base}) has degree {d} in x{v + 1}; "
                "constant-term extraction needs affine factors")
        parts = base.coeffs_in(v)
        h0, h1 = parts.get(0, Poly.zero()), parts[1]
        if h0.is_zero():
            if not h1.is_constant():
                raise ZeroConstantError(
                    f"factor ({base}) contains x{v + 1} but has no x{v + 1}-free part "
                    "and is not a pure monomial")
            if not isinstance(exp, int):
                raise ZeroConstantError(f"({base})^({exp}) has no Laurent series in x{v + 1}")
            M += exp
            mono_scale /= h1.constant_coeff() ** exp
            continue
        series_factors.append((h0, h1, exp))
    if M > _MAX_EXP:  # refused before the series work, which grows linearly in M
        raise _overflow(v)

    # Wanted: coefficient of v**M in num * prod (h0 + h1*v)**-exp.
    # Each factor's series is cleared of negative powers by the per-factor
    # denominator h0**(exp+M), so the products below are purely polynomial:
    # the series term in v**t is C(exp+t-1, t) * (-h1)**t * h0**(M-t).  Series
    # powers are nonnegative, so numerator terms above v**M never reach v**M,
    # and with lo the lowest v-degree kept only series terms t <= M - lo do.
    # Every factor but the last convolves up to v**M; the last forms only
    # the v**M coefficient, a dot product over the accumulated degrees.
    acc = {d: p for d, p in f.num.coeffs_in(v).items() if d <= M}
    out_den = passthrough + [(h0, exp + M) for h0, _, exp in series_factors]
    top, last = M - min(acc, default=M), len(series_factors) - 1
    work = 0  # term products formed in this step, each group counted before it is formed

    def spend(products: int) -> None:
        nonlocal work
        work += products
        if work > _STEP_BUDGET:
            raise BudgetError(f"eliminating x{v + 1} needs over {_STEP_BUDGET} term products")

    for i, (h0, h1, exp) in enumerate(series_factors if M and acc else ()):
        # h**0 .. h**e, each from the one before, take k * C(e+k-1, k) products at most
        k0, k1 = len(h0), len(h1)  # the k of h0 and of -h1
        spend(k0 * math.comb(M + k0 - 1, k0) + k1 * math.comb(top + k1 - 1, k1))
        h0_pows = list(accumulate(repeat(h0, M), Poly.__mul__, initial=Poly.one()))
        neg_h1_pows = list(accumulate(repeat(-h1, top), Poly.__mul__, initial=Poly.one()))
        binom = math.comb if isinstance(exp, int) else _half_binomial
        ts = [M - d for d in acc] if i == last else range(top + 1)
        spend(sum(len(neg_h1_pows[t]) * len(h0_pows[M - t]) for t in ts))
        fac = {t: binom(exp + t - 1, t) * neg_h1_pows[t] * h0_pows[M - t] for t in ts}
        sums = {s: [(p, fac[s - d]) for d, p in acc.items() if d <= s]
                for s in ([M] if i == last else range(M - top, M + 1))}
        spend(sum(len(p) * len(q) for pairs in sums.values() for p, q in pairs))
        acc = {s: poly_dot(pairs) for s, pairs in sums.items()}

    target = acc.get(M, Poly.zero()) * mono_scale
    return FactoredRational.create(target, out_den)


def ct_iterated(f: FactoredRational, order: Optional[Sequence[int]] = None) -> Fraction:
    """Apply ct_var along order, a sequence of 0-based variable indices,
    innermost (smallest contour) first, and return the constant.  The
    default consumes x1, then x2, and so on through every variable of f,
    matching the convention that lower-index variables ride smaller circles.
    """
    for v in sorted(f.variables()) if order is None else order:
        f = ct_var(f, v)
    return f.as_constant()


# -- JSON interchange ------------------------------------------------------

def factored_loads(text: str) -> FactoredRational:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    try:
        num = parse_poly(obj["num"])
        den = [(parse_poly(base), exp) for base, exp in obj["den"]]
        if extra := sorted(set(obj) - {"num", "den"}):
            raise ParseError(f"unknown keys in factored-rational object: {', '.join(extra)}")
        return FactoredRational.create(num, den)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed factored-rational object: {exc}") from exc
