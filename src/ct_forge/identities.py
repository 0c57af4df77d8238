"""Catalog of the verified constant-term identities.

Each identity instance is named by an IdentitySpec: a family plus the
parameters (n, a, b, twoc), where twoc carries the half-integer exponent
parameter c as the integer 2c.  The four families:

    cry      prod_j (1-x_j)^-2  *  prod_{j<k} (x_k-x_j)^-1
             = prod_k Cat(k)
    mm       prod_j x_j^-1 (1-x_j)^-2  *  prod_{j<k} (x_k-x_j)^-1 (1-x_k-x_j)^-1
             = 2^(n^2) prod_k Cat(k)
    morris   prod_j x_j^-b (1-x_j)^-a  *  prod_{j<k} (x_k-x_j)^-2c
             = Gamma-product closed form (morris_rhs)
    thm      prod_j x_j^-(a-1) (1-x_j)^-a  *  prod_{j<k} (x_k-x_j)^-2c (1-x_k-x_j)^-2c
             = 2^(2an+2*twoc*binom(n,2)-2n) * Gamma-product (thm_rhs)

All pair factors are oriented larger-index-first, (x_k - x_j) for j < k.
For the thm family both orientations of the printed statement circulate;
the orientation here is the one confirmed by the independent series oracle
at n = 2 (they differ by (-1)^binom(n,2) when twoc is odd).

verify() computes the left side with the exact CT engine and the right
side with the exact Gamma evaluators and compares, exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial
from typing import Callable, Dict, Optional, Sequence, Tuple

from .ctengine import FactoredRational, ct_iterated
from .errors import DomainError, ParseError
from .exactarith import (
    catalan_product,
    gamma_quotient,
    mm_rhs,
    morris_rhs,
    thm_rhs,
)
from .polyring import Poly


class IdentityFamily(str, Enum):
    CRY = "cry"
    MM = "mm"
    MORRIS = "morris"
    THM = "thm"


@dataclass(frozen=True)
class _Family:
    """One catalog row: everything that defines a family."""

    pinned: Dict[str, int]      # fixed parameters; any other explicit value is refused
    defaults: Dict[str, int]    # the free parameters' values when not given
    # exponents of x_j, (1 - x_j) and each pair factor; 0 drops the factor
    exponents: Callable[["IdentitySpec"], Tuple[int, int, int]]
    mixed: bool                 # whether pairs also carry (1 - x_k - x_j)
    rhs: Callable[["IdentitySpec"], Fraction]
    min_a: int = 0              # the least a the family admits


# mm states its exponents literally rather than as thm at a = 2, so that
# the mm closed form is checked against an integrand built on its own.
_CATALOG = {
    IdentityFamily.CRY: _Family(
        pinned={"a": 2, "b": 0, "twoc": 1}, defaults={},
        exponents=lambda s: (0, 2, 1), mixed=False,
        rhs=lambda s: catalan_product(s.n)),
    IdentityFamily.MM: _Family(
        pinned={"a": 2, "b": 0, "twoc": 1}, defaults={},
        exponents=lambda s: (1, 2, 1), mixed=True,
        rhs=lambda s: mm_rhs(s.n)),
    IdentityFamily.MORRIS: _Family(
        pinned={}, defaults={"a": 2, "b": 0, "twoc": 1},
        exponents=lambda s: (s.b, s.a, s.twoc), mixed=False,
        rhs=lambda s: morris_rhs(s.n, s.a, s.b, s.twoc)),
    IdentityFamily.THM: _Family(
        pinned={"b": 0}, defaults={"a": 2, "twoc": 1},
        exponents=lambda s: (s.a - 1, s.a, s.twoc), mixed=True,
        rhs=lambda s: thm_rhs(s.n, s.a, s.twoc), min_a=1),
}


def _is_int(value) -> bool:
    """A JSON or Python integer; bools are refused, not read as 0 or 1."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class IdentitySpec:
    family: IdentityFamily
    n: int
    a: int
    b: int
    twoc: int

    @classmethod
    def create(cls, family, n: int, a: Optional[int] = None,
               b: Optional[int] = None, twoc: Optional[int] = None) -> "IdentitySpec":
        if not isinstance(family, IdentityFamily):
            try:
                family = IdentityFamily(str(family).lower())
            except ValueError:
                raise DomainError(f"unknown identity family {family!r}") from None
        if not _is_int(n) or n < 1:
            raise DomainError(f"n must be a positive integer, got {n!r}")
        params = {"a": a, "b": b, "twoc": twoc}
        row = _CATALOG[family]
        resolved = {}
        for name, given in params.items():
            if name in row.pinned:
                if given is not None and (not _is_int(given) or given != row.pinned[name]):
                    raise DomainError(
                        f"{family.value} fixes {name}={row.pinned[name]}; got {given}")
                resolved[name] = row.pinned[name]
            else:
                resolved[name] = row.defaults[name] if given is None else given
        a, b, twoc = resolved["a"], resolved["b"], resolved["twoc"]
        for name, val in (("a", a), ("b", b), ("twoc", twoc)):
            if not _is_int(val):
                raise DomainError(f"{name} must be an integer, got {val!r}")
        if a < 0 or b < 0:
            raise DomainError("a and b must be nonnegative")
        if twoc < 1:
            raise DomainError("twoc must be a positive integer (twoc = 2c)")
        if a < row.min_a:
            raise DomainError(f"{family.value} requires a >= {row.min_a}")
        return cls(family, n, a, b, twoc)

    def __str__(self) -> str:
        return f"{self.family.value} n={self.n} a={self.a} b={self.b} twoc={self.twoc}"


def build_integrand(spec: IdentitySpec) -> FactoredRational:
    """The family integrand as a FactoredRational with numerator 1."""
    n = spec.n
    row = _CATALOG[spec.family]
    mono_exp, one_minus_exp, pair_exp = row.exponents(spec)
    one = Poly.one()
    factors = []
    for j in range(n):
        xj = Poly.var(j)
        if mono_exp > 0:
            factors.append((xj, mono_exp))
        if one_minus_exp > 0:
            factors.append((one - xj, one_minus_exp))
    for j in range(n):
        for k in range(j + 1, n):
            xj, xk = Poly.var(j), Poly.var(k)
            factors.append((xk - xj, pair_exp))
            if row.mixed:
                factors.append((one - xk - xj, pair_exp))
    return FactoredRational.create(one, factors)


def rhs(spec: IdentitySpec) -> Fraction:
    return _CATALOG[spec.family].rhs(spec)


@dataclass(frozen=True)
class VerificationReport:
    spec: IdentitySpec
    lhs: Fraction
    rhs: Fraction
    equal: bool
    elapsed_ms: float

    def to_json(self) -> dict:
        return {
            "spec": spec_to_json(self.spec),
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "equal": self.equal,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def verify(spec: IdentitySpec, order: Optional[Sequence[int]] = None) -> VerificationReport:
    """Exact check of one identity instance; a mismatch is a report with
    equal=False, not an exception."""
    start = time.perf_counter()
    lhs = ct_iterated(build_integrand(spec), order)
    right = rhs(spec)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return VerificationReport(spec, lhs, right, lhs == right, elapsed_ms)


def check_cat_identity(n: int) -> bool:
    """Gamma-product form of the a=2, b=0, twoc=1 specialization against the
    Catalan product, both exact.  Transcribed from the displayed arguments
    (not routed through morris_rhs, so the two sides stay independent):

        (1/n!) prod_{j=0}^{n-1} G((n+3+j)/2) G(1/2)
                              / [G((4+j)/2) G((1+j)/2) G((2+j)/2)]
        ==  prod_{k=1}^{n} Cat(k)
    """
    if n < 1:
        raise DomainError("n must be positive")
    num = [t for j in range(n) for t in (n + 3 + j, 1)]
    den = [t for j in range(n) for t in (4 + j, 1 + j, 2 + j)]
    return gamma_quotient(num, den) / factorial(n) == catalan_product(n)


def check_ratio_identity(n: int) -> bool:
    """G(n+1) G(1/2) / (G((n+2)/2) G((n+1)/2)) == 2^n, exactly."""
    if n < 1:
        raise DomainError("n must be positive")
    return gamma_quotient([2 * n + 2, 1], [n + 2, n + 1]) == Fraction(2) ** n


# -- JSON interchange ------------------------------------------------------

def spec_to_json(spec: IdentitySpec) -> dict:
    return {
        "family": spec.family.name,
        "n": spec.n,
        "a": spec.a,
        "b": spec.b,
        "twoc": spec.twoc,
    }


def spec_from_json(obj: dict) -> IdentitySpec:
    if not isinstance(obj, dict) or "family" not in obj or "n" not in obj:
        raise ParseError("identity spec needs at least 'family' and 'n'")
    if extra := sorted(set(obj) - {"family", "n", "a", "b", "twoc"}):
        raise ParseError(f"unknown keys in identity spec: {', '.join(extra)}")
    params = {key: obj[key] for key in ("a", "b", "twoc") if key in obj}
    if nulls := [key for key, value in params.items() if value is None]:
        raise ParseError(f"null value for {', '.join(nulls)} in identity spec")
    return IdentitySpec.create(obj["family"], obj["n"], **params)
