"""Tests for the identity catalog: spec validation, integrand construction,
closed forms, and the pair-factor orientation pinned by the weighted flow
count of tests/flow_count.py, which counts the x integrands without the
substitution chain."""

import itertools
import json
from fractions import Fraction

import pytest

import flow_count
from ct_forge import ctengine, polyring
from ct_forge.ctengine import ct_iterated, ct_var
from ct_forge.errors import BudgetError, DomainError, ParseError
from ct_forge.exactarith import mm_rhs, thm_rhs
from ct_forge.identities import (
    IdentityFamily,
    IdentitySpec,
    build_integrand,
    chain_forms,
    check_cat_identity,
    check_ratio_identity,
    rhs,
    spec_from_json,
    spec_to_json,
    verify,
)
from ct_forge.polyring import Poly

x1 = Poly.var(0)
one = Poly.one()
_N3_SPECS = pytest.mark.parametrize("family,n,kwargs", [
    ("mm", 3, {}),
    ("cry", 3, {}),
    ("thm", 3, {"a": 2, "twoc": 2}),
    ("morris", 3, {"a": 2, "b": 1, "twoc": 2}),
])

# Denominators of build_integrand at the family defaults, written out by
# hand, in the order FactoredRational.create sorts them.  At their
# defaults (a=2, b=0, twoc=1) morris has cry's integrand and thm has mm's.
_CRY_DEN = {
    1: [("1 - x1", 2)],
    2: [("-x1 + x2", 1), ("1 - x1", 2), ("1 - x2", 2)],
    3: [("-x1 + x2", 1), ("-x1 + x3", 1), ("-x2 + x3", 1),
        ("1 - x1", 2), ("1 - x2", 2), ("1 - x3", 2)],
}
_MM_DEN = {
    1: [("1 - x1", 2), ("x1", 1)],
    2: [("-x1 + x2", 1), ("1 - x1", 2), ("1 - x1 - x2", 1), ("1 - x2", 2),
        ("x1", 1), ("x2", 1)],
    3: [("-x1 + x2", 1), ("-x1 + x3", 1), ("-x2 + x3", 1), ("1 - x1", 2),
        ("1 - x1 - x2", 1), ("1 - x1 - x3", 1), ("1 - x2", 2), ("1 - x2 - x3", 1),
        ("1 - x3", 2), ("x1", 1), ("x2", 1), ("x3", 1)],
}
LITERAL_DEN = {"cry": _CRY_DEN, "mm": _MM_DEN, "morris": _CRY_DEN, "thm": _MM_DEN}


class TestIdentitySpec:
    def test_defaults(self):
        spec = IdentitySpec.create("morris", 2)
        assert (spec.a, spec.b, spec.twoc) == (2, 0, 1)
        assert IdentitySpec.create("thm", 2).a == 2

    def test_family_parsing(self):
        assert IdentitySpec.create("MM", 2).family is IdentityFamily.MM
        assert IdentitySpec.create("Morris", 1).family is IdentityFamily.MORRIS
        with pytest.raises(DomainError):
            IdentitySpec.create("qjacobi", 2)

    def test_pinned_parameters(self):
        # cry and mm admit no free parameters; matching values are accepted
        assert IdentitySpec.create("cry", 2, a=2).a == 2
        with pytest.raises(DomainError):
            IdentitySpec.create("cry", 2, a=3)
        with pytest.raises(DomainError):
            IdentitySpec.create("mm", 2, twoc=2)
        with pytest.raises(DomainError):
            IdentitySpec.create("thm", 2, b=1)

    @pytest.mark.parametrize("kwargs", [
        {"n": 0}, {"n": 2, "a": -1}, {"n": 2, "b": -2}, {"n": 2, "twoc": 0},
    ])
    def test_domain(self, kwargs):
        n = kwargs.pop("n")
        with pytest.raises(DomainError):
            IdentitySpec.create("morris", n, **kwargs)

    @pytest.mark.parametrize("family,kwargs", [
        ("mm", {"n": True}), ("morris", {"n": 2, "a": True}),
        ("morris", {"n": 2, "b": False}), ("thm", {"n": 2, "twoc": True}),
        ("cry", {"n": 2, "twoc": True}), ("mm", {"n": 2, "b": False}),
    ])
    def test_bools_are_not_integers(self, family, kwargs):
        # True == 1 and False == 0 in Python; a spec must still refuse them,
        # pinned parameters included
        n = kwargs.pop("n")
        with pytest.raises(DomainError):
            IdentitySpec.create(family, n, **kwargs)
        with pytest.raises(DomainError):
            spec_from_json({"family": family, "n": n, **kwargs})

    def test_thm_needs_positive_a(self):
        with pytest.raises(DomainError):
            IdentitySpec.create("thm", 2, a=0)
        assert IdentitySpec.create("morris", 2, a=0).a == 0


class TestBuildIntegrand:
    def test_cry_n1(self):
        f = build_integrand(IdentitySpec.create("cry", 1))
        assert f.num == 1
        assert f.den == ((one - x1, 2),)

    def test_mm_n2(self):
        f = build_integrand(IdentitySpec.create("mm", 2))
        x2 = Poly.var(1)
        assert set(f.den) == {(x1, 1), (x2, 1), (one - x1, 2), (one - x2, 2),
                              (x2 - x1, 1), (one - x2 - x1, 1)}

    def test_thm_monomial_exponent(self):
        f = build_integrand(IdentitySpec.create("thm", 1, a=3, twoc=2))
        assert f.num == 1
        assert set(f.den) == {(x1, 2), (one - x1, 3)}
        # a = 1 makes the monomial exponent vanish entirely
        g = build_integrand(IdentitySpec.create("thm", 1, a=1))
        assert g.den == ((one - x1, 1),)

    @pytest.mark.parametrize("family,n", list(itertools.product(
        ["cry", "mm", "morris", "thm"], [1, 2, 3, 4])))
    def test_structural_counts(self, family, n):
        spec = IdentitySpec.create(family, n)
        f = build_integrand(spec)
        pair_bases = [b for b, _ in f.den if len(b.variables()) > 1]
        single_bases = [b for b, _ in f.den if len(b.variables()) == 1]
        expected_pairs = n * (n - 1)
        if spec.family in (IdentityFamily.CRY, IdentityFamily.MORRIS):
            expected_pairs //= 2
        assert len(pair_bases) == expected_pairs
        assert len(single_bases) <= 2 * n
        if n <= 3:
            assert f.num == 1
            assert [(str(b), e) for b, e in f.den] == LITERAL_DEN[family][n]

    @pytest.mark.parametrize("family,params", [
        ("cry", {}), ("mm", {}), ("morris", {}), ("morris", {"a": 3, "b": 2, "twoc": 2}),
        ("thm", {}), ("thm", {"a": 1, "twoc": 2}),
    ])
    def test_order_is_the_rendered_order(self, family, params):
        """create orders bases by their packed terms, never by their text;
        on the family integrands up to n = 9, and on every intermediate ct_var
        forms from them up to n = 4, that is the order of (str(base), exp),
        so ct_var's series order is the rendered one there.  From n = 10 it is
        not: x10 renders before x2."""
        def rendered(f):
            return sorted(f.den, key=lambda fac: (str(fac[0]), fac[1]))

        for n in range(1, 10):
            f = build_integrand(IdentitySpec.create(family, n, **params))
            assert list(f.den) == rendered(f)
            for v in range(n if n <= 4 else 0):
                f = ct_var(f, v)
                assert list(f.den) == rendered(f)

    def test_morris_exponents_follow_parameters(self):
        f = build_integrand(IdentitySpec.create("morris", 2, a=3, b=2, twoc=2))
        exps = {str(b): e for b, e in f.den}
        assert exps["x1"] == 2 and exps["1 - x1"] == 3
        assert exps["-x1 + x2"] == 2


class TestOrientationPin:
    """The pair orientation (x_k - x_j) for j < k is the one that makes the
    thm family true; the flow count decides, not the engine."""

    @pytest.mark.parametrize("a,value", [(1, 2), (2, 32), (3, 512)])
    def test_thm_n2_twoc1(self, a, value):
        twoc = 1
        spec = IdentitySpec.create("thm", 2, a=a, twoc=twoc)
        lhs = ct_iterated(build_integrand(spec))
        assert lhs == flow_count.uniform_count(2, a - 1, a, twoc, twoc) == value
        # the flipped orientation, (x1 - x2)^-twoc = (-1)^twoc (x2 - x1)^-twoc,
        # gives the negated value at odd twoc
        assert (-1) ** twoc * flow_count.uniform_count(2, a - 1, a, twoc, twoc) == -value

    @pytest.mark.parametrize("a,value", [(1, 6), (2, 180), (3, 4200)])
    def test_thm_n2_twoc2(self, a, value):
        spec = IdentitySpec.create("thm", 2, a=a, twoc=2)
        assert ct_iterated(build_integrand(spec)) == value
        assert flow_count.uniform_count(2, a - 1, a, 2, 2) == value


class TestRhs:
    def test_dispatch(self):
        assert rhs(IdentitySpec.create("cry", 3)) == 10
        assert rhs(IdentitySpec.create("mm", 3)) == 5120
        assert rhs(IdentitySpec.create("morris", 2)) == 2
        assert rhs(IdentitySpec.create("thm", 2)) == 32


class TestVerify:
    def test_mm_n2(self):
        report = verify(IdentitySpec.create("mm", 2))
        assert report.equal
        assert report.lhs == report.rhs == 32
        assert report.elapsed_ms >= 0
        payload = report.to_json()
        assert payload["lhs"] == "32" and payload["equal"] is True
        assert payload["spec"]["family"] == "MM"

    def test_degenerate_morris_instance(self):
        # a = b = 0 leaves only the pair factor; both sides are 0
        report = verify(IdentitySpec.create("morris", 2, a=0, b=0, twoc=1))
        assert report.equal and report.lhs == 0

    @pytest.mark.parametrize("family,n,kwargs", [
        ("mm", 5, {}),
        ("cry", 8, {}),
        ("thm", 4, {"a": 3, "twoc": 2}),
        ("morris", 6, {"a": 2, "b": 2, "twoc": 2}),
    ])
    def test_engine_size_instances(self, family, n, kwargs):
        assert verify(IdentitySpec.create(family, n, **kwargs)).equal

    # The benchmark's frontier set, pinned: the exact engine well past n=4.
    @pytest.mark.parametrize("family,n,kwargs,lhs", [
        ("mm", 6, {}, 53337309063413760),
        ("cry", 10, {}, 38883505145515430400),
        ("thm", 5, {"a": 2, "twoc": 2}, 551304948520662336000),
        ("morris", 7, {"a": 2, "b": 2, "twoc": 2}, 224737840779305293440000),
    ])
    def test_frontier_instances(self, family, n, kwargs, lhs):
        report = verify(IdentitySpec.create(family, n, **kwargs))
        assert report.equal and report.lhs == lhs

    def test_step_budget_bounds_the_library(self, monkeypatch):
        spec = IdentitySpec.create("mm", 3)
        assert verify(spec).lhs == 5120
        monkeypatch.setattr(ctengine, "_STEP_BUDGET", 100)
        with pytest.raises(BudgetError, match="^eliminating x2 needs over 100 term products$"):
            verify(spec)

    @_N3_SPECS
    def test_step_budget_counts_the_products_formed(self, monkeypatch, family, n, kwargs):
        # on linear bases the count is exact: a step answers at a budget of
        # exactly the term products it forms, and is refused at one less;
        # every product, a shift or a fused sum too, runs the one term loop
        formed, loop, budget = [0], polyring._products, ctengine._STEP_BUDGET

        def counting_products(pairs):
            formed[0] += sum(len(a) * len(b) for a, b, _ in pairs)
            return loop(pairs)

        monkeypatch.setattr(polyring, "_products", counting_products)
        f = build_integrand(IdentitySpec.create(family, n, **kwargs))
        for v in range(n):
            formed[0] = 0
            step, products = ct_var(f, v), formed[0]
            monkeypatch.setattr(ctengine, "_STEP_BUDGET", products)
            assert ct_var(f, v) == step
            if products:  # a step with M = 0 forms none
                monkeypatch.setattr(ctengine, "_STEP_BUDGET", products - 1)
                with pytest.raises(BudgetError, match=f"^eliminating x{v + 1} "):
                    ct_var(f, v)
            monkeypatch.setattr(ctengine, "_STEP_BUDGET", budget)
            f = step

    @_N3_SPECS
    def test_refused_factor_forms_none_of_its_convolution(self, monkeypatch, family, n, kwargs):
        # a factor's whole convolution is counted before its first product:
        # at a budget one short of it, the step forms only what came before
        log, products, dot = [], polyring._products, ctengine.poly_dot
        in_dot = [False]

        def counting_products(pairs):
            log.append((in_dot[0], sum(len(a) * len(b) for a, b, _ in pairs)))
            return products(pairs)

        def marked_dot(pairs):
            in_dot[0] = True
            try:
                return dot(pairs)
            finally:
                in_dot[0] = False

        monkeypatch.setattr(polyring, "_products", counting_products)
        monkeypatch.setattr(ctengine, "poly_dot", marked_dot)
        f = build_integrand(IdentitySpec.create(family, n, **kwargs))
        budget, refused = ctengine._STEP_BUDGET, 0
        for v in range(n):
            log.clear()
            step, full = ct_var(f, v), list(log)
            # each run of fused-sum products is one factor's convolution
            starts = [j for j, (d, _) in enumerate(full) if d and not (j and full[j - 1][0])]
            for j in starts:
                end = next((k for k in range(j, len(full)) if not full[k][0]), len(full))
                before, whole = sum(c for _, c in full[:j]), sum(c for _, c in full[j:end])
                monkeypatch.setattr(ctengine, "_STEP_BUDGET", before + whole - 1)
                log.clear()
                with pytest.raises(BudgetError):
                    ct_var(f, v)
                assert log == full[:j]
                refused += 1
            monkeypatch.setattr(ctengine, "_STEP_BUDGET", budget)
            f = step
        assert refused

    def test_flow_count_agreement_n2(self):
        # every family at n = 2 against the independent flow count
        cases = [(IdentitySpec.create("cry", 2), (0, 2, 1, 0)),
                 (IdentitySpec.create("mm", 2), (1, 2, 1, 1))]
        for a in range(4):
            for b in range(3):
                for twoc in (1, 2):
                    cases.append((IdentitySpec.create("morris", 2, a=a, b=b, twoc=twoc),
                                  (b, a, twoc, 0)))
        for a in range(1, 4):
            for twoc in (1, 2):
                cases.append((IdentitySpec.create("thm", 2, a=a, twoc=twoc),
                              (a - 1, a, twoc, twoc)))
        for spec, (p, q, r, w) in cases:
            lhs = ct_iterated(build_integrand(spec))
            assert lhs == flow_count.uniform_count(2, p, q, r, w), spec
            assert lhs == rhs(spec), spec


# Every family at n <= 4: the parameter grids of acceptance criteria 3 and 4,
# with morris also at a = 0, carried on to n = 4.
_FLOW_GRID = [(family, n, {}) for family in ("cry", "mm") for n in (1, 2, 3, 4)]
_FLOW_GRID += [("morris", n, {"a": a, "b": b, "twoc": twoc}) for n in (1, 2, 3, 4)
               for a in (0, 1, 2, 3) for b in (0, 1, 2) for twoc in (1, 2)]
_FLOW_GRID += [("thm", n, {"a": a, "twoc": twoc}) for n in (1, 2, 3, 4)
               for a in (1, 2, 3) for twoc in (1, 2)]


class TestFlowCount:
    """The exact engine against the weighted flow count of tests/flow_count.py,
    which shares no code with the package: the x count of every family
    integrand, and for thm and mm also the t count, which rests on the chain."""

    def test_family_integrands(self):
        for family, n, kwargs in _FLOW_GRID:
            spec = IdentitySpec.create(family, n, **kwargs)
            x_count = flow_count.family_count(family, n, spec.a, spec.b, spec.twoc)
            assert ct_iterated(build_integrand(spec)) == x_count, spec
            if family in ("mm", "thm"):
                assert flow_count.thm_count(n, spec.a, spec.twoc) == x_count, spec

    @pytest.mark.parametrize("n,a,twoc", [
        (n, a, twoc) for n in (1, 2, 3) for a in (1, 2, 3) for twoc in (1, 2)])
    def test_chain_t_form(self, n, a, twoc):
        assert ct_iterated(chain_forms(n, a, twoc)["t"]) == flow_count.thm_count(n, a, twoc)

    def test_t_form_past_the_x_form(self):
        """The step budget refuses the x form at both instances; the t form,
        without its mixed pair bases 1 - x_k - x_j, answers in well under 1 s."""
        assert ct_iterated(chain_forms(8, 2, 1)["t"]) == thm_rhs(8, 2, 1) == mm_rhs(8)
        assert ct_iterated(chain_forms(7, 2, 2)["t"]) == thm_rhs(7, 2, 2)


class TestGammaIdentities:
    def test_cat_identity(self):
        for n in range(1, 11):
            assert check_cat_identity(n)

    def test_ratio_identity(self):
        for n in range(1, 11):
            assert check_ratio_identity(n)

    def test_domain(self):
        with pytest.raises(DomainError):
            check_cat_identity(0)
        with pytest.raises(DomainError):
            check_ratio_identity(-1)


class TestSpecJson:
    def test_documented_form(self):
        spec = spec_from_json(json.loads('{"family":"MM","n":3,"a":2,"b":0,"twoc":1}'))
        assert spec == IdentitySpec.create("mm", 3)

    def test_round_trip(self):
        for fam in ("cry", "mm", "morris", "thm"):
            spec = IdentitySpec.create(fam, 2)
            assert spec_from_json(spec_to_json(spec)) == spec

    def test_partial_object_uses_defaults(self):
        spec = spec_from_json({"family": "morris", "n": 2, "a": 3})
        assert (spec.a, spec.b, spec.twoc) == (3, 0, 1)

    def test_errors(self):
        with pytest.raises(ParseError):
            spec_from_json({"n": 2})
        with pytest.raises(DomainError):
            spec_from_json({"family": "cry", "n": 2, "a": 5})
        with pytest.raises(DomainError):
            spec_from_json({"family": "mm", "n": "two"})
        # "c" is not "twoc": read as given, it would answer a different question
        with pytest.raises(ParseError, match="unknown keys in identity spec: c, order$"):
            spec_from_json({"family": "morris", "n": 2, "a": 2, "b": 1, "c": 2, "order": "2,1"})
        # null is not "not given": the default would answer in its place
        with pytest.raises(ParseError, match="null value for b, twoc in identity spec$"):
            spec_from_json({"family": "morris", "n": 2, "a": 2, "b": None, "twoc": None})

    def test_rationals_render_plain(self):
        report = verify(IdentitySpec.create("morris", 1, a=2, b=1))
        assert report.to_json()["rhs"] == str(Fraction(2))
