"""Tests for the sparse polynomial ring, its parser, and its renderer."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import poly_reference as ref
from ct_forge.errors import ExponentOverflowError, ParseError
from ct_forge.polyring import Poly, parse_poly, poly_dot

x1, x2, x3 = Poly.var(0), Poly.var(1), Poly.var(2)


# Random polynomials in up to 3 variables, degree <= 3 per variable,
# small rational coefficients; monomials mix up to two distinct variables.
monomials = st.lists(
    st.tuples(st.integers(0, 2), st.integers(1, 3)),
    max_size=2, unique_by=lambda p: p[0],
).map(lambda pairs: tuple(sorted(pairs)))
polys = st.dictionaries(
    monomials,
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
    max_size=5,
).map(Poly)
scalars = st.fractions(min_value=-9, max_value=9, max_denominator=4)

# Reference-form polynomials in up to 4 variables with rational coefficients.
ref_monomials = st.dictionaries(st.integers(0, 3), st.integers(1, 4), max_size=4).map(
    lambda exps: tuple(sorted(exps.items())))
ref_polys = st.dictionaries(
    ref_monomials,
    st.fractions(min_value=-20, max_value=20, max_denominator=6).filter(bool),
    max_size=6,
)
# One-term reference polynomials: +-1, +-monomials and rational multiples.
ref_one_terms = st.builds(
    lambda mono, c: {mono: c}, ref_monomials,
    st.sampled_from([Fraction(1), Fraction(-1)])
    | st.fractions(min_value=-20, max_value=20, max_denominator=6).filter(bool))

# A reference polynomial with a rational content, for the one-term examples.
rational_poly = {(): Fraction(1), ((0, 1),): Fraction(-2), ((1, 1), (2, 1)): Fraction(1, 3)}


def ref_dot(pairs) -> dict:
    out: dict = {}
    for a, b in pairs:
        out = ref.add(out, ref.mul(a, b))
    return out


class TestConstruction:
    def test_canonicalization(self):
        assert Poly({((0, 1),): 1}) == x1
        assert Poly({((0, 1),): 0}) == Poly.zero()
        assert Poly({((0, 0),): 5}) == 5  # zero exponents drop out
        assert Poly.constant(Fraction(3, 2)).constant_coeff() == Fraction(3, 2)

    def test_int_and_fraction_equality(self):
        assert Poly.constant(4) == 4
        assert Poly.constant(Fraction(1, 3)) == Fraction(1, 3)
        assert x1 != 1

    def test_bad_entries(self):
        with pytest.raises(ValueError):
            Poly.var(-1)
        with pytest.raises(ValueError):
            Poly({((-1, 1),): 1})

    def test_hash_consistency(self):
        assert hash(1 - x1) == hash(Poly({(): 1, ((0, 1),): -1}))
        assert len({x1, Poly.var(0), x2}) == 2

    @pytest.mark.parametrize("value", [2, -3, Fraction(7, 3), Fraction(-1, 2), 0])
    def test_constant_hashes_as_its_value(self, value):
        # equal objects hash equal, so a constant and its value find each
        # other as dict keys, whichever way the constant was built
        for p in (Poly.constant(value), Poly({(): value}), (x1 + value) - x1,
                  Poly.constant(value) * 6 * Fraction(1, 6)):
            assert p == value and hash(p) == hash(value)
            assert value in {p: 0} and p in {value: 0}


class TestArithmetic:
    def test_product_example(self):
        assert (1 - x1) * (1 + x1) == 1 - x1 * x1

    def test_pow(self):
        p = (1 - x1) ** 3
        assert p == 1 - 3 * x1 + 3 * x1 ** 2 - x1 ** 3
        assert x1 ** 0 == 1
        with pytest.raises(ValueError):
            x1 ** -1

    def test_scalar_ops(self):
        assert 2 * x1 + x1 == 3 * x1
        assert (1 - x1) - 1 == -x1
        assert 0 * x2 == Poly.zero()

    @given(polys, polys, polys)
    @settings(max_examples=100)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - p == Poly.zero()
        assert p * Poly.one() == p
        assert p + Poly.zero() == p

    @given(polys, st.integers(0, 2))
    @settings(max_examples=100)
    def test_coeffs_in_reconstruction(self, p, v):
        xv = Poly.var(v)
        parts = p.coeffs_in(v)
        total = Poly.zero()
        for k in range(p.degree_in(v) + 1):
            part = parts.get(k, Poly.zero())
            assert v not in part.variables()
            total = total + part * xv ** k
        assert total == p


class TestAgainstReference:
    """The packed integer core against the dict-of-Fraction reference."""

    @given(ref_polys, ref_polys, scalars, st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=150, derandomize=True)
    def test_operations(self, a, b, s, v, e):
        p, q = Poly(a), Poly(b)
        assert ref.of(p) == a
        assert ref.of(p + q) == ref.add(a, b)
        assert ref.of(p - q) == ref.add(a, ref.neg(b))
        assert ref.of(p * q) == ref.mul(a, b)
        assert ref.of(p * s) == {m: c * s for m, c in a.items() if c * s}
        assert ref.of(p ** e) == ref.power(a, e)
        assert p.degree_in(v) == ref.degree_in(a, v)
        parts = p.coeffs_in(v)
        for k in range(ref.degree_in(a, v) + 2):
            assert ref.of(parts.get(k, Poly.zero())) == ref.coeff_of(a, v, k)
        c, prim = p.content_and_primitive()
        assert c == ref.content(a)
        assert ref.of(prim) == {m: x / c for m, x in a.items()}
        assert all(Fraction(x).denominator == 1 for _, x in prim.terms())
        assert parse_poly(str(p)) == p
        assert (p == q) == (a == b)
        for same in (Poly(dict(reversed(list(a.items())))), (p + q) - q, (p * 3) * Fraction(1, 3)):
            assert same == p and hash(same) == hash(p)


class TestProductPaths:
    """The one-term shift and the fused sum of products against the reference."""

    @given(ref_polys, ref_one_terms)
    @settings(max_examples=40, derandomize=True)
    @example(rational_poly, {(): Fraction(1)})
    @example(rational_poly, {(): Fraction(-1)})
    @example(rational_poly, {((1, 1),): Fraction(-1)})
    @example(rational_poly, {((0, 1), (2, 2)): Fraction(1)})
    def test_one_term_operand(self, a, t):
        p, u = Poly(a), Poly(t)
        assert ref.of(p * u) == ref.mul(a, t)
        assert ref.of(u * p) == ref.mul(t, a)
        assert p * u == u * p == poly_dot([(p, u)])

    @given(st.lists(st.tuples(ref_polys, ref_polys), min_size=1, max_size=3))
    @settings(max_examples=30, derandomize=True)
    def test_fused_sum(self, pairs):
        got = poly_dot([(Poly(a), Poly(b)) for a, b in pairs])
        assert ref.of(got) == ref_dot(pairs)
        # the canonical form is the one a chain of products and adds reaches
        assert got == sum((Poly(a) * Poly(b) for a, b in pairs), Poly.zero())

    @given(ref_polys, ref_polys, ref_polys)
    @settings(max_examples=20, derandomize=True)
    def test_fused_sum_that_cancels(self, a, b, c):
        p, q, r = Poly(a), Poly(b), Poly(c)
        assert poly_dot([(p, q), (-q, p)]).is_zero()
        assert poly_dot([(p, q), (r, q), (-(p + r), q)]).is_zero()
        assert ref.of(poly_dot([(p, q), (r, q), (-p, q)])) == ref.mul(c, b)

    def test_fused_sum_with_rational_contents(self):
        pairs = [(Fraction(1, 6) * (1 - x1), 4 * x2), (Fraction(3, 4) * x1, Fraction(2, 9) + x2)]
        expect = ref_dot([(ref.of(p), ref.of(q)) for p, q in pairs])
        assert ref.of(poly_dot(pairs)) == expect
        assert poly_dot([]) == poly_dot([(Poly.zero(), x1)]) == Poly.zero()
        # contents whose products are integral Fractions
        pairs = [(Fraction(1, 2) * x1, 2 * x2), (Fraction(3, 4) * x2, Fraction(4, 3) + 4 * x1)]
        assert poly_dot(pairs) == x1 * x2 + x2 + 3 * x1 * x2


class TestExponentField:
    TOP = 2 ** 15 - 1  # a 16-bit field less its guard bit

    def test_largest_exponent_fits(self):
        p = x2 ** self.TOP
        assert p.degree_in(1) == self.TOP
        assert p.degree_in(0) == p.degree_in(2) == 0
        assert x2 ** (self.TOP // 2) * x2 ** (self.TOP - self.TOP // 2) == p
        assert (p * x1 * x3).variables() == frozenset({0, 1, 2})
        assert parse_poly(f"x2^{self.TOP}") == Poly({((1, self.TOP),): 1}) == p
        assert str(p) == f"x2^{self.TOP}"

    @pytest.mark.parametrize("make", [
        lambda top: x2 ** top * x2,
        lambda top: x2 ** (top + 1),
        lambda top: parse_poly(f"x2^{top + 1}"),
        lambda top: parse_poly(f"x2^{top}*x2"),
        lambda top: Poly({((1, top + 1),): 1}),
        lambda top: Poly({((1, top), (1, 1)): 1}),
        lambda top: Poly.var(1023) ** top * Poly.var(1023),  # the last field
    ])
    def test_one_more_raises(self, make):
        with pytest.raises(ExponentOverflowError):
            make(self.TOP)

    @pytest.mark.parametrize("make", [
        lambda top: (x1 + x2 ** top) * x2,  # a one-term operand, as a shift
        lambda top: -x2 * (x1 - 3 * x2 ** top),
        lambda top: poly_dot([(x2 ** top + x1, x2)]),
        lambda top: poly_dot([(x1, x1), (x2 ** top + x1, x2 + 1)]),
    ])
    def test_product_reaching_a_guard_bit_raises(self, make):
        with pytest.raises(ExponentOverflowError, match="^exponent of x2 exceeds 32767"):
            make(self.TOP)


    def test_variable_index_bound(self):
        assert (Poly.var(1023) * x1).variables() == frozenset({0, 1023})
        assert parse_poly("x1024^2") == Poly.var(1023) ** 2
        with pytest.raises(ValueError):
            Poly.var(1024)
        with pytest.raises(ValueError):
            Poly({((1024, 1),): 1})
        with pytest.raises(ParseError):
            parse_poly("x1025")


class TestQueries:
    def test_degrees(self):
        p = 1 - x1 * x2 ** 2 + x3
        assert p.degree_in(1) == 2
        assert p.degree_in(0) == 1

    def test_variables(self):
        assert (x1 * x3 + 2).variables() == frozenset({0, 2})
        assert Poly.constant(7).variables() == frozenset()

    def test_is_constant(self):
        assert Poly.zero().is_constant()
        assert Poly.constant(-2).is_constant()
        assert not (1 + x1).is_constant()

    def test_content_and_primitive(self):
        c, prim = (Fraction(2, 3) - Fraction(2, 3) * x1).content_and_primitive()
        assert c == Fraction(2, 3)
        assert prim == 1 - x1
        c, prim = (-2 * x1).content_and_primitive()
        assert c == 2 and prim == -x1  # sign stays with the polynomial
        c, prim = Poly.zero().content_and_primitive()
        assert c == 1 and prim.is_zero()


class TestText:
    @pytest.mark.parametrize("p,expected", [
        (Poly.zero(), "0"),
        (Poly.constant(Fraction(-3, 2)), "-3/2"),
        (1 - x1 - x2, "1 - x1 - x2"),
        (Fraction(3, 2) * x1 ** 2 * x3, "3/2*x1^2*x3"),
        (2 * x2 - x1, "-x1 + 2*x2"),
    ])
    def test_render(self, p, expected):
        assert str(p) == expected

    @pytest.mark.parametrize("text,p", [
        ("0", Poly.zero()),
        ("x2 - x1", x2 - x1),
        ("1 - x1 - x2", 1 - x1 - x2),
        ("3/2*x1^2*x3", Fraction(3, 2) * x1 ** 2 * x3),
        ("x1**2", x1 ** 2),
        ("2*x1*x1", 2 * x1 ** 2),
        ("- x1 + x1", Poly.zero()),
        ("+5", Poly.constant(5)),
    ])
    def test_parse(self, text, p):
        assert parse_poly(text) == p

    @given(polys)
    @settings(max_examples=100)
    def test_round_trip(self, p):
        assert parse_poly(str(p)) == p

    @pytest.mark.parametrize("text", [
        "", "x0", "y1", "1 +", "x1 ^", "x1^x2", "x1^1/2", "* x1", "x1 2",
        "1 - - ", "x1^^2",
    ])
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_poly(text)
