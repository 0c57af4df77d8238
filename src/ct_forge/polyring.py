"""Sparse multivariate polynomials over exact rationals.

Variables are dense nonnegative indices; index i renders as ``x{i+1}``.  A
monomial is a sorted tuple of (variable, exponent) pairs with positive
exponents, so the constant monomial is the empty tuple.  A polynomial maps
monomials to nonzero Fraction coefficients; the zero polynomial is the empty
map, which makes canonical equality plain dict equality.

Coefficient arithmetic is always exact; the single floating-point path is
`contour._poly_on_grid`, used only by the numeric cross-check.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple

from .errors import ParseError

Monomial = Tuple[Tuple[int, int], ...]

_ZERO = Fraction(0)


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _mono_sort_key(m: Monomial):
    # graded order: total degree first, then the exponent tuple itself
    return (sum(e for _, e in m), m)


def _render_mono(m: Monomial) -> str:
    return "*".join(f"x{v + 1}" + (f"^{e}" if e > 1 else "") for v, e in m)


class Poly:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, object] | None = None):
        canon: Dict[Monomial, Fraction] = {}
        for mono, coef in (terms or {}).items():
            c = Fraction(coef)
            if not c:
                continue
            pairs = tuple(sorted((int(v), int(e)) for v, e in mono if e))
            for v, e in pairs:
                if v < 0 or e < 0:
                    raise ValueError(f"bad monomial entry ({v}, {e})")
            canon[pairs] = canon.get(pairs, _ZERO) + c
        self._terms = {m: c for m, c in canon.items() if c}

    @classmethod
    def _raw(cls, terms: Dict[Monomial, Fraction]) -> "Poly":
        # internal: terms must already be canonical
        p = object.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def zero(cls) -> "Poly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "Poly":
        return cls.constant(1)

    @classmethod
    def constant(cls, c) -> "Poly":
        c = Fraction(c)
        return cls._raw({(): c} if c else {})

    @classmethod
    def var(cls, index: int) -> "Poly":
        if index < 0:
            raise ValueError("variable indices are nonnegative")
        return cls._raw({((index, 1),): Fraction(1)})

    # -- queries ---------------------------------------------------------

    def terms(self) -> Iterable[Tuple[Monomial, Fraction]]:
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and () in self._terms)

    def constant_coeff(self) -> Fraction:
        return self._terms.get((), _ZERO)

    def variables(self) -> frozenset:
        return frozenset(v for m in self._terms for v, _ in m)

    def degree_in(self, v: int) -> int:
        deg = 0
        for m in self._terms:
            for var, e in m:
                if var == v and e > deg:
                    deg = e
        return deg

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = out.get(m, _ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw({m: -c for m, c in self._terms.items()})

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
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Poly.zero()
            return Poly._raw({m: k * c for m, k in self._terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        out: Dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = _mono_mul(m1, m2)
                s = out.get(m, _ZERO) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Poly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial powers take nonnegative integers")
        out = Poly.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    # -- structure -------------------------------------------------------

    def coeff_of(self, v: int, k: int) -> "Poly":
        """Coefficient of v**k, as a polynomial in the other variables."""
        out: Dict[Monomial, Fraction] = {}
        for m, c in self._terms.items():
            e = 0
            for var, ex in m:
                if var == v:
                    e = ex
                    break
            if e != k:
                continue
            out[tuple(p for p in m if p[0] != v)] = c
        return Poly._raw(out)

    def content_and_primitive(self) -> Tuple[Fraction, "Poly"]:
        """Split into a positive rational content and a primitive part with
        coprime integer coefficients (sign pattern preserved)."""
        if not self._terms:
            return Fraction(1), self
        num_gcd = 0
        den_lcm = 1
        for c in self._terms.values():
            num_gcd = math.gcd(num_gcd, abs(c.numerator))
            den_lcm = math.lcm(den_lcm, c.denominator)
        content = Fraction(num_gcd, den_lcm)
        if content == 1:
            return content, self
        inv = 1 / content
        return content, Poly._raw({m: c * inv for m, c in self._terms.items()})

    # -- text ------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for m in sorted(self._terms, key=_mono_sort_key):
            c = self._terms[m]
            mono_s = _render_mono(m)
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


def _coerce(value) -> "Poly":
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.constant(value)
    return NotImplemented


# -- parsing -------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<var>x\d+)|(?P<num>\d+(?:/\d+)?)|(?P<pow>\^|\*\*)|(?P<mul>\*)|(?P<sign>[+-]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"unexpected input at {pos!r}: {rest[:20]!r}")
        pos = m.end()
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))
    return tokens


def parse_poly(text: str) -> Poly:
    """Parse the rendered polynomial format: a signed sum of terms, each a
    '*'-separated product of a rational coefficient and variable powers,
    e.g. "1 - x1 - x2", "3/2*x1^2*x3"."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    terms: Dict[Monomial, Fraction] = {}
    i = 0
    n_tok = len(tokens)
    while i < n_tok:
        sign = 1
        while i < n_tok and tokens[i][0] == "sign":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n_tok:
            raise ParseError("dangling sign")
        coef = Fraction(sign)
        exps: Dict[int, int] = {}
        expect_factor = True
        saw_factor = False
        while i < n_tok:
            kind, text_v = tokens[i]
            if kind == "sign" and not expect_factor:
                break
            if kind == "mul":
                if expect_factor:
                    raise ParseError("misplaced '*'")
                expect_factor = True
                i += 1
                continue
            if not expect_factor:
                raise ParseError(f"missing '*' before {text_v!r}")
            if kind == "num":
                coef *= Fraction(text_v)
                i += 1
            elif kind == "var":
                v = int(text_v[1:]) - 1
                if v < 0:
                    raise ParseError(f"bad variable {text_v!r}")
                e = 1
                if i + 1 < n_tok and tokens[i + 1][0] == "pow":
                    if i + 2 >= n_tok or tokens[i + 2][0] != "num":
                        raise ParseError("exponent expected after '^'")
                    exp_text = tokens[i + 2][1]
                    if "/" in exp_text:
                        raise ParseError("exponents must be integers")
                    e = int(exp_text)
                    i += 2
                exps[v] = exps.get(v, 0) + e
                i += 1
            else:
                raise ParseError(f"unexpected token {text_v!r}")
            expect_factor = False
            saw_factor = True
        if not saw_factor:
            raise ParseError("empty term")
        mono = tuple(sorted((v, e) for v, e in exps.items() if e))
        acc = terms.get(mono, _ZERO) + coef
        if acc:
            terms[mono] = acc
        else:
            terms.pop(mono, None)
    return Poly._raw(terms)
