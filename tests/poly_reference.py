"""Dict-of-Fraction polynomials, the reference for ct_forge.polyring.

A polynomial is a dict from a sorted tuple of (variable, exponent) pairs
to a nonzero Fraction, the form Poly(mapping) accepts and Poly.terms()
yields.  It shares no code with the packed integer core it checks.
"""

import math
from fractions import Fraction


def of(poly) -> dict:
    """The reference form of a Poly, read through its public terms()."""
    return {mono: Fraction(c) for mono, c in poly.terms()}


def _put(out: dict, mono, c) -> None:
    s = out.get(mono, Fraction(0)) + c
    if s:
        out[mono] = s
    else:
        out.pop(mono, None)


def add(p: dict, q: dict) -> dict:
    out = dict(p)
    for mono, c in q.items():
        _put(out, mono, c)
    return out


def neg(p: dict) -> dict:
    return {mono: -c for mono, c in p.items()}


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            _put(out, tuple(sorted(exps.items())), c1 * c2)
    return out


def degree_in(p: dict, v: int) -> int:
    return max((dict(mono).get(v, 0) for mono in p), default=0)


def coeff_of(p: dict, v: int, k: int) -> dict:
    return {tuple(pair for pair in mono if pair[0] != v): c
            for mono, c in p.items() if dict(mono).get(v, 0) == k}


def content(p: dict) -> Fraction:
    """gcd of the numerators over lcm of the denominators; 1 for zero."""
    if not p:
        return Fraction(1)
    return Fraction(math.gcd(*(c.numerator for c in p.values())),
                    math.lcm(*(c.denominator for c in p.values())))
