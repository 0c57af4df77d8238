"""Sum and equality of factored rationals, for the CT linearity properties,
and the tests' one power of a polynomial.

Sum and equality work over a common denominator and compute no gcd.  None
of these shares code with the constant-term extraction they are used to
check; the ring has no power, so power multiplies repeatedly.
"""

import math
from itertools import repeat

from ct_forge.ctengine import FactoredRational
from ct_forge.polyring import Poly


def power(p: Poly, e: int) -> Poly:
    """p**e for an int e >= 0, as e products."""
    return math.prod(repeat(p, e), start=Poly.one())


def add(f: FactoredRational, g: FactoredRational) -> FactoredRational:
    """f + g over the merged denominator."""
    fden, gden = dict(f.den), dict(g.den)
    common = tuple((b, max(fden.get(b, 0), gden.get(b, 0))) for b in set(fden) | set(gden))
    fnum, gnum = f.num, g.num
    for b, e in common:
        fnum = fnum * power(b, e - fden.get(b, 0))
        gnum = gnum * power(b, e - gden.get(b, 0))
    return FactoredRational.create(fnum + gnum, common)


def equivalent(f: FactoredRational, g: FactoredRational) -> bool:
    """Whether f and g are the same rational function, by cross-multiplying."""
    left, right = f.num, g.num
    for base, exp in g.den:
        left = left * power(base, exp)
    for base, exp in f.den:
        right = right * power(base, exp)
    return left == right
