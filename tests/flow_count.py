"""A weighted integer-flow count over an exponent table: the one exact
reference for the engine, and it imports nothing from ct_forge.

An exponent table (b, a, m, q) on vertices 1..n names the integrand

    prod_j x_j^-b_j (1 - x_j)^-a_j  *  prod_{j<k} (x_k - x_j)^-m_jk (1 - x_k - x_j)^-q_jk

and table_count returns its iterated constant term: x_1 first, every factor
expanded as a series in the variable being eliminated, as the engine does.
When x_j is eliminated, two rewrites make each factor that holds it a
geometric series in x_j alone:

    (x_k - x_j)^-m     = x_k^-m (1 - x_j/x_k)^-m
                       = sum_d C(m+d-1, d) x_j^d x_k^-(m+d)
    (1 - x_k - x_j)^-q = (1 - x_k)^-q (1 - x_j/(1 - x_k))^-q
                       = sum_e C(q+e-1, e) x_j^e (1 - x_k)^-(q+e)
    (1 - x_j)^-a       = sum_f C(a+f-1, f) x_j^f

Read d and e as units that vertex j sends to a later vertex k along its
edges of multiplicity m_jk and q_jk, and f as units it sends to a sink.
Vertex k then carries the extra powers that earlier vertices sent it,
r_k = sum_j (m_jk + d_jk) of x_k^-1 and s_k = sum_j (q_jk + e_jk) of
(1 - x_k)^-1.  A term is constant in x_j exactly when the units leaving j
number b_j + r_j, and its sink weight is then C(a_j + s_j + f - 1, f).  So
the constant term is the sum, over these flows, of the product of the
weights C(m + d - 1, d) of d units on an edge of multiplicity m; for a
half-integer m that is the generalized binomial (Baldoni and Vergne,
Transform. Groups 13, 2008).  No weight is negative, so no term cancels.

Each family is a table with one value per vertex and one per pair: morris
is (b, a, twoc, 0), cry (0, 2, 1, 0), thm (a - 1, a, twoc, twoc) and mm
(1, 2, 1, 1); family_count counts these x integrands as they stand.  The
thm substitution chain x = (1 - z)/2, z^2 = y, t = 1 - y (Meszaros and
Morales, IMRN 2015, state the conjecture it proves) ends in the t form

    2^(2an + twoc*n(n-1) - 2n) prod_j t_j^-(a-1) (1 - t_j)^-1/2 prod_{j<k} (t_k - t_j)^-twoc,

the table (a - 1, 1/2, twoc, 0), which thm_count counts.  The two counts
agree exactly where the chain keeps the constant term.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, prod


@lru_cache(maxsize=None)
def _weight(m, d: int):
    """C(m+d-1, d) = m (m+1) ... (m+d-1) / d!: an int for an integer m, a
    Fraction for a half-integer one."""
    if isinstance(m, int):
        return comb(m + d - 1, d) if m else int(d == 0)
    return Fraction(prod(m + i for i in range(d)), factorial(d))


def table_count(b, a, m, q) -> Fraction:
    """The constant term of the table's integrand; b and a hold one
    exponent per vertex, and m and q map each pair (j, k), j < k, counted
    from 0, to its exponent (absent is 0).

    Vertex by vertex: a state is the flat tuple (r_k, s_k, ...) over the
    vertices still to come; while vertex j sends, it leads with the units
    it has left and its own s_j, and its edges are taken one at a time."""
    n = len(b)
    states = {(0,) * (2 * n): 1}
    for j in range(n):
        # (m_jk, q_jk) for each k > j, laid out as the (r_k, s_k) they add to
        base = tuple(pairs.get((j, k), 0) for k in range(j + 1, n) for pairs in (m, q))
        layer = {}
        for (r, s, *later), w in states.items():
            key = (b[j] + r, s, *(x + e for x, e in zip(later, base)))
            layer[key] = layer.get(key, 0) + w
        for i, mk in enumerate(base):  # slot i + 2 of the key is r_k or s_k
            if not mk:
                continue
            nxt = {}
            top = max((key[0] for key in layer), default=0)
            weights = [_weight(mk, d) for d in range(top + 1)]
            for key, w in layer.items():
                left, head, got, tail = key[0], key[1:i + 2], key[i + 2], key[i + 3:]
                for d in range(left + 1):
                    out = (left - d,) + head + (got + d,) + tail
                    nxt[out] = nxt.get(out, 0) + w * weights[d]
            layer = nxt
        states = {}
        for key, w in layer.items():  # the rest goes to the sink
            if weight := _weight(a[j] + key[1], key[0]):
                states[key[2:]] = states.get(key[2:], 0) + w * weight
    return Fraction(states.get((), 0))


def uniform_count(n: int, b, a, m, q) -> Fraction:
    """table_count of the table on n vertices with one value per vertex and
    one per pair; at n = 2 that is x1^-b x2^-b (1-x1)^-a (1-x2)^-a
    (x2-x1)^-m (1-x2-x1)^-q."""
    pairs = list(combinations(range(n), 2))
    return table_count([b] * n, [a] * n, dict.fromkeys(pairs, m), dict.fromkeys(pairs, q))


def family_count(family: str, n: int, a: int, b: int, twoc: int) -> Fraction:
    """The constant term of a family's x integrand; cry and mm take their
    pinned parameters, a = 2, b = 0, twoc = 1, and are morris and thm there."""
    if family in ("cry", "morris"):
        return uniform_count(n, b, a, twoc, 0)
    return uniform_count(n, a - 1, a, twoc, twoc)


def thm_count(n: int, a: int, twoc: int) -> Fraction:
    """CT thm(n, a, twoc) through the chain: the count of the t form."""
    power = 2 * a * n + twoc * n * (n - 1) - 2 * n
    return 2 ** power * uniform_count(n, a - 1, Fraction(1, 2), twoc, 0)
