"""Sparse multivariate polynomials over exact rationals, on an integer core.

Variables are indices 0 to 1023; index i renders as ``x{i+1}``.  A
polynomial is a positive rational content times a primitive integer
polynomial: a dict from packed monomials to int coefficients whose gcd is
1, the sign kept in the coefficients.  That form is canonical, so equality
and hashing compare the content and the dict; the zero polynomial is the
empty dict over content 1.  By Gauss's lemma a product of primitive
polynomials is primitive, so a product only multiplies the contents.

A packed monomial is one int that holds the exponent of variable i in
bits [i*_BITS, (i+1)*_BITS) (Monagan & Pearce, CASC 2007): a monomial
product is one integer addition, and a degree or coefficient in one
variable is a shift and a mask.  The top bit of each field is a guard.
Exponents stay below it, so a sum of two exponents never carries into the
next field, and an exponent that reaches it raises ExponentOverflowError.
Every product runs one term loop, _products, into one int dict: a one-term
operand makes it a shift, and poly_dot(pairs) adds all of sum(p * q) into one
dict.  One rule, _over_lcm, puts rationals over the lcm of their denominators,
and one accumulator, _from_rationals, sums repeated monomials.  There is no
power: ct_var forms the powers it needs by products, inside its step budget.

At the boundary a monomial is a sorted tuple of (variable, exponent) pairs
with positive exponents, the constant monomial being the empty tuple:
Poly(mapping) accepts that form and terms() yields it, with exact rational
coefficients.  coeffs_in(v) is the one split by powers of a variable.

Coefficient arithmetic is always exact; the single floating-point path is
`contour._poly_on_grid`, used only by the numeric cross-check.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import reduce
from numbers import Rational
from typing import Dict, Iterable, List, Mapping, Tuple

from .errors import ExponentOverflowError, ParseError

Monomial = Tuple[Tuple[int, int], ...]

_BITS = 16
_MASK = (1 << _BITS) - 1
_GUARD = 1 << (_BITS - 1)
_MAX_EXP = _GUARD - 1
# Variable indices stay below _VARS, which bounds a monomial at 2 KB.
_VARS = 1024
_GUARDS = ((1 << (_BITS * _VARS)) - 1) // _MASK * _GUARD  # the guard bit of every field


def _overflow(v: int) -> ExponentOverflowError:
    return ExponentOverflowError(
        f"exponent of x{v + 1} exceeds {_MAX_EXP}, the largest a packed monomial holds")


def _check_var(v: int) -> None:
    if not 0 <= v < _VARS:
        raise ValueError(f"variable index {v} is outside 0..{_VARS - 1}")


def _pack(mono) -> int:
    """One packed monomial from (variable, exponent) pairs; a repeated
    variable adds its exponents."""
    m = 0
    for v, e in mono:
        v, e = int(v), int(e)
        if not e:
            continue
        if e < 0:
            raise ValueError(f"bad monomial entry ({v}, {e})")
        _check_var(v)
        shift = _BITS * v
        if ((m >> shift) & _MASK) + e > _MAX_EXP:
            raise _overflow(v)
        m += e << shift
    return m


def _unpack(m: int) -> Monomial:
    out = []
    while m:
        v = ((m & -m).bit_length() - 1) // _BITS  # the lowest variable present
        e = (m >> (_BITS * v)) & _MASK
        out.append((v, e))
        m -= e << (_BITS * v)
    return tuple(out)


def _rational(q):
    """q as an int when it is integral, so contents stay ints where they can."""
    return q.numerator if q.denominator == 1 else q


def _primitive(terms: Dict[int, int], content):
    """(terms, content) with the gcd of the int coefficients moved into content."""
    g = math.gcd(*terms.values())
    if g == 0:
        return terms, 1
    if g != 1:
        terms = {m: c // g for m, c in terms.items()}
        content = content * g
    return terms, _rational(content)


def _over_lcm(qs):
    """(ints, k) with qs = k * ints and k = 1/lcm of their denominators, the int 1 for 1/1."""
    den = math.lcm(*[q.denominator for q in qs])
    return [q.numerator * (den // q.denominator) for q in qs], Fraction(1, den) if den > 1 else 1


def _from_rationals(pairs: Iterable[Tuple[int, Rational]]):
    """(terms, content) of (packed monomial, rational) pairs; repeats add, zero sums drop."""
    acc: Dict[int, Rational] = {}
    for m, c in pairs:
        acc[m] = acc.get(m, 0) + c
    acc = {m: c for m, c in acc.items() if c}
    nums, k = _over_lcm(acc.values())
    return _primitive(dict(zip(acc, nums)), k)


def _products(pairs) -> Dict[int, int]:
    """sum(k * a * b) over the (a, b, k) in pairs, int term dicts, in one dict; a lone
    product with a one-term operand is a shift.  ExponentOverflowError at a guard bit."""
    a, b, k = pairs[0]
    if len(a) == 1:
        a, b = b, a
    out = {}
    if len(pairs) == 1 and len(b) == 1:
        (m0, c0), = b.items()
        if m0 == 0 and c0 * k == 1:
            return a
        for m, c in a.items():
            out[m + m0] = c * c0 * k
    else:
        get = out.get
        for a, b, k in pairs:
            for m1, c1 in a.items():
                c1 *= k
                for m2, c2 in b.items():
                    m = m1 + m2
                    s = get(m, 0) + c1 * c2
                    if s:
                        out[m] = s
                    else:
                        del out[m]
    hit = reduce(operator.or_, out, 0) & _GUARDS  # where a sum reached a guard bit
    if hit:
        raise _overflow(((hit & -hit).bit_length() - 1) // _BITS)
    return out


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_terms", "_content")

    def __init__(self, terms: Mapping[Monomial, object] | None = None):
        pairs = ((mono, Fraction(c)) for mono, c in (terms or {}).items())
        self._terms, self._content = _from_rationals((_pack(mono), c) for mono, c in pairs if c)

    @classmethod
    def _raw(cls, terms: Dict[int, int], content) -> "Poly":
        # internal: terms must be primitive and content positive, as _primitive leaves them
        p = object.__new__(cls)
        p._terms = terms
        p._content = content
        return p

    @classmethod
    def zero(cls) -> "Poly":
        return cls._raw({}, 1)

    @classmethod
    def one(cls) -> "Poly":
        return cls._raw({0: 1}, 1)

    @classmethod
    def constant(cls, c) -> "Poly":
        c = Fraction(c)
        if not c:
            return cls.zero()
        return cls._raw({0: 1 if c > 0 else -1}, _rational(abs(c)))

    @classmethod
    def var(cls, index: int) -> "Poly":
        _check_var(index)
        return cls._raw({1 << (_BITS * index): 1}, 1)

    # -- queries ---------------------------------------------------------

    def terms(self) -> List[Tuple[Monomial, Rational]]:
        """(monomial, coefficient) pairs; a coefficient is an int when integral."""
        k = self._content
        return [(_unpack(m), k * c) for m, c in self._terms.items()]

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def constant_coeff(self) -> Fraction:
        return Fraction(self._content * self._terms.get(0, 0))

    def variables(self) -> frozenset:
        return frozenset(v for v, _ in _unpack(reduce(operator.or_, self._terms, 0)))

    def degree_in(self, v: int) -> int:
        shift = _BITS * v
        return max(((m >> shift) & _MASK for m in self._terms), default=0)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._content == other._content and self._terms == other._terms

    def __hash__(self) -> int:
        if self.is_constant():  # equal to its rational value, so hashed as one
            return hash(self._content * self._terms.get(0, 0))
        return hash((self._content, frozenset(self._terms.items())))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        a, b = self._content, other._content
        if a == b:
            ka = kb = 1
        else:
            # a*P + b*Q = k * (ka*P + kb*Q) with ints ka, kb; _primitive takes out the sum's gcd
            (ka, kb), a = _over_lcm((a, b))
        out = dict(self._terms) if ka == 1 else {m: ka * c for m, c in self._terms.items()}
        for m, c in other._terms.items():
            s = out.get(m, 0) + kb * c
            if s:
                out[m] = s
            else:
                del out[m]
        return Poly._raw(*_primitive(out, a))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw({m: -c for m, c in self._terms.items()}, self._content)

    def __sub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if other and self._terms:
                terms = self._terms if other > 0 else {m: -c for m, c in self._terms.items()}
                return Poly._raw(terms, _rational(self._content * abs(other)))
        elif self._terms and other._terms:
            return Poly._raw(_products([(self._terms, other._terms, 1)]),
                             _rational(self._content * other._content))
        return Poly.zero()

    __rmul__ = __mul__

    # -- structure -------------------------------------------------------

    def coeffs_in(self, v: int) -> Dict[int, "Poly"]:
        """The nonzero coefficients of the powers of v, each a polynomial in
        the other variables, keyed by the power."""
        shift = _BITS * v
        parts: Dict[int, Dict[int, int]] = {}
        for m, c in self._terms.items():
            k = (m >> shift) & _MASK
            parts.setdefault(k, {})[m - (k << shift)] = c
        return {k: Poly._raw(*_primitive(t, self._content)) for k, t in parts.items()}

    def content_and_primitive(self) -> Tuple[Rational, "Poly"]:
        """Split into a positive rational content and a primitive part with
        coprime integer coefficients (sign pattern preserved)."""
        if self._content == 1:
            return 1, self
        return self._content, Poly._raw(self._terms, 1)

    def canonical_sign(self) -> int:
        """The sign of the constant term, else of the highest packed monomial's."""
        return 1 if (self._terms.get(0) or self._terms[max(self._terms)]) > 0 else -1

    def order_key(self) -> tuple:
        """The key that orders a factored rational's primitive bases: bases
        of several terms first, those without a constant term before those
        with one, then single terms, each group by its sorted (packed
        monomial, coefficient) pairs.  The content takes no part."""
        t = self._terms
        return len(t) == 1, 0 in t, sorted(t.items())

    # -- text ------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        # graded order: total degree first, then the exponent tuple itself
        for m, c in sorted(self.terms(), key=lambda t: (sum(e for _, e in t[0]), t[0])):
            mono_s = "*".join(f"x{v + 1}" + (f"^{e}" if e > 1 else "") for v, e in m)
            mag = abs(c)
            if not mono_s:
                body = str(mag)
            elif mag == 1:
                body = mono_s
            else:
                body = f"{mag}*{mono_s}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


def poly_dot(pairs) -> Poly:
    """sum(p * q for p, q in pairs), every term product added into one dict."""
    if len(pairs) < 2:
        return pairs[0][0] * pairs[0][1] if pairs else Poly.zero()
    ks, k = _over_lcm([p._content * q._content for p, q in pairs])
    out = _products([(p._terms, q._terms, kp) for (p, q), kp in zip(pairs, ks)])
    return Poly._raw(*_primitive(out, k))


def _coerce(value) -> "Poly":
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.constant(value)
    return NotImplemented


# -- parsing -------------------------------------------------------------

# A term is signs, then '*'-separated factors, each a rational or a variable
# power; whitespace may separate any two tokens, and the text may end in '*'.
_FACTOR = r"(?:\d+(?:/\d+)?|x\d+(?:\s*(?:\^|\*\*)\s*\d+)?)"
_TERM_RE = re.compile(
    rf"\s*((?:[+-]\s*)*)({_FACTOR}(?:\s*\*\s*{_FACTOR})*)\s*(?:\*\s*\Z)?")
_FACTOR_RE = re.compile(r"x(\d+)(?:\s*(?:\^|\*\*)\s*(\d+))?|(\d+)(?:/(\d+))?")


def parse_poly(text: str) -> Poly:
    """Parse the rendered polynomial format: a signed sum of terms, each a
    '*'-separated product of a rational coefficient and variable powers,
    e.g. "1 - x1 - x2", "3/2*x1^2*x3"."""
    terms: List[Tuple[int, Rational]] = []
    pos = 0
    while pos < len(text) or not pos:
        m = _TERM_RE.match(text, pos)
        if m is None or (pos and not m.group(1)):
            raise ParseError(f"malformed polynomial at {pos}: {text[pos:pos + 20]!r}")
        num, den = -1 if m.group(1).count("-") % 2 else 1, 1
        exps: Dict[int, int] = {}
        for var, exp, p, q in _FACTOR_RE.findall(m.group(2)):
            if p:
                num *= int(p)
                den *= int(q or 1) or Fraction(int(p), 0)  # p/0 raises as Fraction("p/0") does
            elif not 1 <= int(var) <= _VARS:
                raise ParseError(f"bad variable x{var}")
            else:
                exps[int(var) - 1] = exps.get(int(var) - 1, 0) + int(exp or 1)
        terms.append((_pack(exps.items()), Fraction(num, den) if den > 1 else num))
        pos = m.end()
    return Poly._raw(*_from_rationals(terms))
