"""Sum and equality of factored rationals, for the CT linearity properties.

Both work over a common denominator and compute no gcd.  They share no
code with the constant-term extraction they are used to check.
"""

from ct_forge.ctengine import FactoredRational


def add(f: FactoredRational, g: FactoredRational) -> FactoredRational:
    """f + g over the merged denominator."""
    fden, gden = dict(f.den), dict(g.den)
    common = tuple((b, max(fden.get(b, 0), gden.get(b, 0))) for b in set(fden) | set(gden))
    fnum, gnum = f.num, g.num
    for b, e in common:
        fnum = fnum * b ** (e - fden.get(b, 0))
        gnum = gnum * b ** (e - gden.get(b, 0))
    return FactoredRational.create(fnum + gnum, common)


def equivalent(f: FactoredRational, g: FactoredRational) -> bool:
    """Whether f and g are the same rational function, by cross-multiplying."""
    left, right = f.num, g.num
    for base, exp in g.den:
        left = left * base ** exp
    for base, exp in f.den:
        right = right * base ** exp
    return left == right
