"""Weighted integer-flow counts: an exact oracle for all four families that
imports nothing from ct_forge.

On nested circles |x_1| < ... < |x_n| every factor of the morris integrand

    prod_j x_j^-b (1 - x_j)^-a  *  prod_{j<k} (x_k - x_j)^-twoc

is a geometric series: (1 - x_j)^-a = sum_d C(a+d-1, d) x_j^d and
(x_k - x_j)^-m = x_k^-m sum_d C(m+d-1, d) (x_j/x_k)^d.  Choose d for each
factor and read it as d units on an edge: j -> sink for (1 - x_j), j -> k
for (x_k - x_j).  The term is constant exactly when, at every vertex j, the
units leaving exceed the units arriving by b + twoc*(j-1).  So

    CT morris(n, a, b, twoc) = flow_count(n, a, b, twoc)

the sum, over the integer flows on vertices 1..n plus a sink with edges
j -> k (j < k) of multiplicity twoc, edges j -> sink of multiplicity a and
netflow b + twoc*(j-1) at vertex j, of the product over the edges of
C(m+d-1, d), d the units on an edge of multiplicity m; for m = 1/2 that is
the generalized binomial (Baldoni and Vergne, Transform. Groups 13, 2008).
The thm substitution chain ends in the t form, 2^(2an + twoc*n(n-1) - 2n)
times the morris integrand at a = 1/2, b = a - 1, so

    CT thm(n, a, twoc) = 2^(2an + twoc*n(n-1) - 2n) * flow_count(n, 1/2, a - 1, twoc)

cry is morris at a = 2, b = 0, twoc = 1, and mm is thm at a = 2, twoc = 1.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod


@lru_cache(maxsize=None)
def _weight(m, d: int) -> Fraction:
    """C(m+d-1, d) = m (m+1) ... (m+d-1) / d!, for an integer or half-integer m."""
    return Fraction(prod(m + i for i in range(d)), factorial(d))


def flow_count(n: int, a, b: int, twoc: int) -> Fraction:
    """The weighted flow count, one vertex at a time: a state is the units
    still to leave the current vertex and the units each later vertex has
    received, and vertex j's edges are chosen one at a time."""
    states = {(0,) * n: Fraction(1)}  # units received by vertices j..n, before vertex j
    for j in range(n):
        layer = {}
        for (got, *later), w in states.items():
            key = (b + twoc * j + got, *later)
            layer[key] = layer.get(key, 0) + w
        for k in range(n - j - 1):  # the edge j -> j + k + 1
            nxt = {}
            for (left, *later), w in layer.items():
                for d in range(left + 1):
                    key = (left - d, *later[:k], later[k] + d, *later[k + 1:])
                    nxt[key] = nxt.get(key, 0) + w * _weight(twoc, d)
            layer = nxt
        states = {}
        for (left, *later), w in layer.items():  # the rest goes to the sink
            states[tuple(later)] = states.get(tuple(later), 0) + w * _weight(a, left)
    return states[()]


def thm_count(n: int, a: int, twoc: int) -> Fraction:
    """CT thm(n, a, twoc) through the t form's flow count."""
    power = 2 * a * n + twoc * n * (n - 1) - 2 * n
    return 2 ** power * flow_count(n, Fraction(1, 2), a - 1, twoc)


def family_count(family: str, n: int, a: int, b: int, twoc: int) -> Fraction:
    """The constant term of a family integrand; cry and mm take their pinned
    parameters, a = 2, b = 0, twoc = 1."""
    if family in ("cry", "morris"):
        return flow_count(n, a, b, twoc)
    return thm_count(n, a, twoc)
