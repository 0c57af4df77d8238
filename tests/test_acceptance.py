"""Acceptance suite: every top-level criterion, one printed line each.

Each test prints `[PASS] criterion k: ...` (or FAIL) outside pytest's
capture so the lines are visible in a plain `pytest -v` run.  Numeric
criteria state their tolerances inline; exact criteria compare Fractions.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

import rationals
from ct_forge.contour import (
    QuadratureConfig,
    chain_spread,
    chain_values,
    contour_ct_converged,
    default_epsilon,
    _sample,
)
from ct_forge.ctengine import (
    ct_var,
    ct_iterated,
    FactoredRational,
)
from ct_forge.errors import NonRationalError
from ct_forge.exactarith import gamma_half, gamma_quotient, mm_rhs, thm_rhs
from ct_forge.identities import (
    IdentitySpec,
    build_integrand,
    check_cat_identity,
    check_ratio_identity,
    verify,
)
from ct_forge.polyring import Poly


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


MORRIS_GRID = [(n, a, b, twoc)
               for n in (1, 2, 3) for a in (1, 2, 3)
               for b in (0, 1, 2) for twoc in (1, 2)]
THM_GRID = [(n, a, twoc)
            for n in (1, 2, 3) for a in (1, 2, 3) for twoc in (1, 2)]


def test_criterion_1_mm_exact(capsys):
    expected = {2: 32, 3: 5120, 4: 9175040}
    results = {}
    start = time.perf_counter()
    for n, value in expected.items():
        report = verify(IdentitySpec.create("mm", n))
        results[n] = report.equal and report.lhs == value
    elapsed = time.perf_counter() - start
    ok = all(results.values()) and elapsed < 300
    announce(capsys, 1, ok,
             f"type-D identity exact at n=2,3,4 (32/5120/9175040) in {elapsed:.2f}s")


def test_criterion_2_cry_exact(capsys):
    expected = [1, 2, 10, 140]
    start = time.perf_counter()
    ok = True
    for n, value in enumerate(expected, start=1):
        report = verify(IdentitySpec.create("cry", n))
        ok = ok and report.equal and report.lhs == value
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    announce(capsys, 2, ok,
             f"Catalan-product identity exact at n=1..4 (1/2/10/140) in {elapsed:.2f}s")


def test_criterion_3_morris_grid(capsys):
    start = time.perf_counter()
    failures = [args for args in MORRIS_GRID
                if not verify(IdentitySpec.create(
                    "morris", args[0], a=args[1], b=args[2], twoc=args[3])).equal]
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 600
    announce(capsys, 3, ok,
             f"{len(MORRIS_GRID)}-instance Gamma-product grid exact in {elapsed:.2f}s"
             + (f"; failures: {failures}" if failures else ""))


def test_criterion_4_thm_grid(capsys):
    start = time.perf_counter()
    failures = [args for args in THM_GRID
                if not verify(IdentitySpec.create(
                    "thm", args[0], a=args[1], twoc=args[2])).equal]
    elapsed = time.perf_counter() - start
    ok = not failures
    announce(capsys, 4, ok,
             f"{len(THM_GRID)}-instance mixed-pair grid exact in {elapsed:.2f}s"
             + (f"; failures: {failures}" if failures else ""))


def test_criterion_5_gamma_identities(capsys):
    ok = all(check_cat_identity(n) and check_ratio_identity(n)
             for n in range(1, 11))
    announce(capsys, 5, ok, "Gamma/Catalan and 2^n ratio identities exact for n=1..10")


def test_criterion_6_specialization(capsys):
    rhs_ok = all(thm_rhs(n, 2, 1) == mm_rhs(n) for n in range(2, 9))
    lhs_ok = True
    for n in (2, 3):
        thm_lhs = ct_iterated(build_integrand(IdentitySpec.create("thm", n, a=2, twoc=1)))
        mm_lhs = ct_iterated(build_integrand(IdentitySpec.create("mm", n)))
        lhs_ok = lhs_ok and thm_lhs == mm_lhs
    announce(capsys, 6, rhs_ok and lhs_ok,
             "a=2, twoc=1 specialization matches the type-D identity "
             "(rhs n=2..8, lhs n=2..3)")


def all_grid_specs_n_le_3():
    specs = [IdentitySpec.create("mm", n) for n in (2, 3)]
    specs += [IdentitySpec.create("cry", n) for n in (1, 2, 3)]
    specs += [IdentitySpec.create("morris", n, a=a, b=b, twoc=twoc)
              for n, a, b, twoc in MORRIS_GRID]
    specs += [IdentitySpec.create("thm", n, a=a, twoc=twoc)
              for n, a, twoc in THM_GRID]
    return specs


def test_criterion_7_oracle_agreement(capsys):
    # contour_ct_converged samples the torus it reads off the integrand's
    # factors (radii 0.5**(n-j+1)), inside the engine's expansion domain.
    #
    # On the origin torus |x_j| = j*epsilon, epsilon = 0.0999/n, the n=3,
    # a=1, b=2, twoc=2 instance has exact value 300, about eleven orders of
    # magnitude below the integrand's mean magnitude there, and a relative
    # float64 noise floor near 7e-6 at any N, above the 1e-6 tolerance.
    # The wider chosen torus brings that mean magnitude down, so the
    # instance converges at N=64 to about 5e-14 (see README.md, "Numerical
    # accuracy of the oracle").
    specs = all_grid_specs_n_le_3()
    start = time.perf_counter()
    worst_rel = 0.0
    worst_imag = 0.0
    failures = []
    for spec in specs:
        exact = ct_iterated(build_integrand(spec))
        value, points, is_converged = contour_ct_converged(
            spec, tol=1e-6, max_points=1024)
        rel = abs(value.real - float(exact)) / max(1.0, abs(float(exact)))
        imag = abs(value.imag) / max(1.0, abs(value.real))
        worst_rel = max(worst_rel, rel)
        worst_imag = max(worst_imag, imag)
        if not (is_converged and rel < 1e-6 and imag < 1e-6):
            failures.append((str(spec.family.value), spec.n, spec.a, spec.b,
                             spec.twoc, points, float(f"{rel:.3g}")))
    elapsed = time.perf_counter() - start
    announce(capsys, 7, not failures,
             f"contour oracle matches all {len(specs)} exact values at n<=3 "
             f"(worst rel {worst_rel:.1e}, worst imag {worst_imag:.1e}) "
             f"in {elapsed:.1f}s"
             + (f"; float64 noise-floor failures (see README): {failures}"
                if failures else ""))


def test_criterion_8_chain_agreement(capsys):
    ok = True
    details = []
    values = chain_values(2, 2, 1, QuadratureConfig(default_epsilon(2, shifted=True), 128))
    spread = chain_spread(values)
    vs_exact = max(abs(v - 32.0) / 32.0 for v in values.values())
    ok = ok and spread < 1e-5 and vs_exact < 1e-5
    details.append(f"n=2 spread {spread:.1e}, vs 32 {vs_exact:.1e}")
    worst = 0.0
    for a in (1, 2, 3):
        closed = float(thm_rhs(1, a, 1))  # binom(2a-2, a-1): 1, 2, 6
        for twoc in (1, 2):
            vals = chain_values(1, a, twoc, QuadratureConfig(0.0125, 256))
            worst = max(worst, max(abs(v - closed) / max(1.0, closed)
                                   for v in vals.values()))
    ok = ok and worst < 1e-5
    details.append(f"n=1 grid vs binom(2a-2,a-1) worst {worst:.1e}")
    announce(capsys, 8, ok, "four-form substitution chain agrees: " + "; ".join(details))


# -- criterion 9: six property groups, 100 seeded random cases each ---------

def _random_poly(rng, n_vars=3, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(sorted((v, rng.randint(1, max_exp))
                            for v in rng.sample(range(n_vars), rng.randint(0, 2))))
        terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return Poly(terms)


def _prop_ring_axioms(rng):
    p, q, r = (_random_poly(rng) for _ in range(3))
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p - p == Poly.zero()


_x1, _x2 = Poly.var(0), Poly.var(1)
_DEN_POOL = [_x1, _x2, Poly.one() - _x1, Poly.one() - _x2,
             _x2 - _x1, Poly.one() - _x1 - _x2]


def _random_factored(rng):
    num = _random_poly(rng, n_vars=2, max_terms=3, max_exp=2)
    den = [(rng.choice(_DEN_POOL), rng.randint(1, 2))
           for _ in range(rng.randint(0, 3))]
    return FactoredRational.create(num, den)


def _prop_ct_linearity(rng):
    f = _random_factored(rng)
    f = FactoredRational.create(f.num * Fraction(rng.randint(-4, 4), rng.randint(1, 3)), f.den)
    g = _random_factored(rng)
    g = FactoredRational.create(g.num * Fraction(rng.randint(-4, 4), rng.randint(1, 3)), g.den)
    v = rng.randint(0, 1)
    lhs = ct_var(rationals.add(f, g), v)
    rhs = rationals.add(ct_var(f, v), ct_var(g, v))
    assert rationals.equivalent(lhs, rhs)


def _prop_coeff_reconstruction(rng):
    p = _random_poly(rng)
    v = rng.randint(0, 2)
    parts = p.coeffs_in(v)
    total = Poly.zero()
    for k in range(p.degree_in(v) + 1):
        total = total + parts.get(k, Poly.zero()) * rationals.power(Poly.var(v), k)
    assert total == p


def _origin_ct(spec, epsilon, points):
    """The mean of the spec's integrand over the origin torus |x_j| = j*epsilon."""
    return _sample(build_integrand(spec), [j * epsilon for j in range(1, spec.n + 1)],
                   points)


def _prop_epsilon_independence(rng):
    n = rng.choice((1, 2))
    family = rng.choice(("cry", "mm", "morris", "thm"))
    kwargs = {}
    if family == "morris":
        kwargs = {"a": rng.randint(1, 3), "b": rng.randint(0, 2),
                  "twoc": rng.randint(1, 2)}
    elif family == "thm":
        kwargs = {"a": rng.randint(1, 3), "twoc": rng.randint(1, 2)}
    spec = IdentitySpec.create(family, n, **kwargs)
    eps = rng.uniform(0.072, 0.09) / n  # upper radius window; see criterion 7
    v1 = _origin_ct(spec, eps, 128)
    v2 = _origin_ct(spec, eps / 2, 128)
    assert abs(v1 - v2) <= 1e-6 * max(1.0, abs(v2))


def _prop_gamma_recurrence(rng):
    twice = rng.choice([t for t in range(-25, 26) if t % 2 != 0 or t > 0])
    assert Fraction(*gamma_half(twice + 2)) == Fraction(twice, 2) * Fraction(*gamma_half(twice))


def _prop_pi_exponent(rng):
    odd = [t for t in range(-15, 26) if t % 2 != 0]
    nums = [rng.choice(odd) for _ in range(rng.randint(0, 6))]
    dens = [rng.choice(odd) for _ in range(rng.randint(0, 6))]
    if len(nums) == len(dens):
        assert isinstance(gamma_quotient(nums, dens), Fraction)
    else:
        try:
            gamma_quotient(nums, dens)
        except NonRationalError:
            pass
        else:
            raise AssertionError("an uncancelled sqrt(pi) gave a value")


def test_criterion_9_property_suites(capsys):
    groups = [
        ("ring axioms", _prop_ring_axioms),
        ("CT linearity", _prop_ct_linearity),
        ("coefficient reconstruction", _prop_coeff_reconstruction),
        ("epsilon independence", _prop_epsilon_independence),
        ("Gamma recurrence", _prop_gamma_recurrence),
        ("pi-exponent bookkeeping", _prop_pi_exponent),
    ]
    failed = []
    for seed_offset, (name, prop) in enumerate(groups):
        rng = random.Random(90125 + seed_offset)
        try:
            for _ in range(100):
                prop(rng)
        except AssertionError:
            failed.append(name)
    announce(capsys, 9, not failed,
             "property suites x100: " + ", ".join(name for name, _ in groups)
             + (f"; FAILED: {failed}" if failed else ""))
