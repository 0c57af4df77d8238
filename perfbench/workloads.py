"""The three benchmark workloads: their operations, inputs and checks.

Each operation is a call into ct_forge plus a check of its answer.  The call
looks every library function up through its module when it runs, so the
wrappers that spans.py installs are seen by the traced passes.  A check
returns a Verdict; a failing one is counted, never dropped.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ct_forge import cli, contour, identities
from ct_forge.contour import QuadratureConfig, default_epsilon
from ct_forge.exactarith import thm_rhs
from ct_forge.identities import IdentitySpec

import series

# Gates of acceptance criterion 7 (oracle against the closed form) and of the
# `chain` subcommand, pinned here so the benchmark does not move with them.
ORACLE_TOL = 1e-6
ORACLE_MAX_POINTS = 1024
CHAIN_TOL = 1e-5
CHAIN_POINTS = 128

MORRIS_GRID = [(n, a, b, twoc) for n in (1, 2, 3) for a in (1, 2, 3)
               for b in (0, 1, 2) for twoc in (1, 2)]
THM_GRID = [(n, a, twoc) for n in (1, 2, 3) for a in (1, 2, 3) for twoc in (1, 2)]

# Exact left sides at the growth frontier, pinned as literals.
FRONTIER = [
    ("mm", 6, {}, 53337309063413760),
    ("cry", 10, {}, 38883505145515430400),
    ("thm", 5, {"a": 2, "twoc": 2}, 551304948520662336000),
    ("morris", 7, {"a": 2, "b": 2, "twoc": 2}, 224737840779305293440000),
]

# Failures present in the program when the benchmark was defined.  They are
# still attempted, checked and counted in `failed`; being listed here only
# keeps them from marking the run incorrect.
KNOWN_DEFECTS = {
    # float64 noise floor on the fixed contour: rel 7.4e-6 against the 1e-6
    # gate, unconverged at N=1024 after about 75 s, so it meets the op limit.
    "contour morris n=3 a=1 b=2 twoc=2",
    # the four chain forms drift apart at n=3 on the shifted circles
    "chain thm n=3 a=2 twoc=2",
    "chain thm n=3 a=3 twoc=1",
    "chain thm n=3 a=3 twoc=2",
}

CT_CASES = 40


@dataclass
class Verdict:
    failure: Optional[str] = None          # None when the answer is right
    measures: Dict[str, float] = field(default_factory=dict)


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Verdict]


@dataclass
class Workload:
    ops: List[Op]
    op_limit_s: float                      # an op that runs longer fails
    workdir: Optional[Path] = None
    # Untraced filling passes run the ops faster than this as one sweep
    # before each slower op (run.fill_units); 0 turns sweeps off.
    sweep_below_s: float = 0.0

    def cleanup(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def _spec_label(spec: IdentitySpec) -> str:
    return f"{spec.family.value} n={spec.n} a={spec.a} b={spec.b} twoc={spec.twoc}"


# -- frontier --------------------------------------------------------------

def _frontier_op(family: str, n: int, kwargs: dict, lhs: int) -> Op:
    spec = IdentitySpec.create(family, n, **kwargs)

    def check(report) -> Verdict:
        if report.lhs != lhs:
            return Verdict(f"lhs {report.lhs} != pinned {lhs}")
        if not report.equal:
            return Verdict(f"rhs {report.rhs} != lhs {report.lhs}")
        return Verdict()

    return Op(f"verify {_spec_label(spec)}", lambda: identities.verify(spec), check)


def frontier(rng: random.Random, workdir: Path) -> Workload:
    return Workload([_frontier_op(*row) for row in FRONTIER], op_limit_s=40.0)


# -- oracle-grid -----------------------------------------------------------

def criterion7_specs() -> List[IdentitySpec]:
    specs = [IdentitySpec.create("mm", n) for n in (2, 3)]
    specs += [IdentitySpec.create("cry", n) for n in (1, 2, 3)]
    specs += [IdentitySpec.create("morris", n, a=a, b=b, twoc=twoc)
              for n, a, b, twoc in MORRIS_GRID]
    specs += [IdentitySpec.create("thm", n, a=a, twoc=twoc) for n, a, twoc in THM_GRID]
    return specs


def _contour_op(spec: IdentitySpec) -> Op:
    exact = float(identities.rhs(spec))

    def call():
        return contour.contour_ct_converged(
            spec, epsilon=0.0999 / spec.n, tol=ORACLE_TOL, max_points=ORACLE_MAX_POINTS)

    def check(result) -> Verdict:
        value, points, is_converged = result
        rel = abs(value.real - exact) / max(1.0, abs(exact))
        imag = abs(value.imag) / max(1.0, abs(value.real))
        measures = {"rel_err": rel, "converged": float(is_converged)}
        if not is_converged:
            return Verdict(f"unconverged at N={points} (rel {rel:.3g})", measures)
        if not (rel < ORACLE_TOL and imag < ORACLE_TOL):
            return Verdict(f"rel {rel:.3g}, imag {imag:.3g} at N={points}", measures)
        return Verdict(None, measures)

    return Op(f"contour {_spec_label(spec)}", call, check)


def _chain_op(n: int, a: int, twoc: int) -> Op:
    exact = float(thm_rhs(n, a, twoc))
    cfg = QuadratureConfig(default_epsilon(n, shifted=True), CHAIN_POINTS)

    def check(values) -> Verdict:
        worst = max(abs(v - exact) / max(1.0, abs(exact)) for v in values.values())
        spread = contour.chain_spread(values)
        measures = {"chain_err": worst}
        if not (spread < CHAIN_TOL and worst < CHAIN_TOL):
            return Verdict(f"spread {spread:.3g}, vs thm_rhs {worst:.3g}", measures)
        return Verdict(None, measures)

    return Op(f"chain thm n={n} a={a} twoc={twoc}",
              lambda: contour.chain_values(n, a, twoc, cfg), check)


def oracle_grid(rng: random.Random, workdir: Path) -> Workload:
    ops = [_contour_op(spec) for spec in criterion7_specs()]
    ops += [_chain_op(n, a, twoc) for n, a, twoc in THM_GRID]
    # A pass takes about 13 s, most of it in 32 ops of 0.07-5 s.  The
    # machine it was tuned on had slow stretches of 5-10 s, so ~60 ops of
    # 0.1-3 ms run as a sweep between those, about 2.5 times a second.
    return Workload(ops, op_limit_s=5.0, sweep_below_s=0.01)


# -- catalog ---------------------------------------------------------------

def _run_cli(argv: List[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_op(name: str, argv: List[str], check_payload: Callable[[dict], Optional[str]]) -> Op:
    def check(result) -> Verdict:
        code, out, err = result
        if code != 0:
            return Verdict(f"exit {code}: {(err or out).strip()[:120]}")
        try:
            payload = json.loads(out)
        except ValueError:
            return Verdict(f"output is not JSON: {out[:120]!r}")
        return Verdict(check_payload(payload))

    return Op(name, lambda: _run_cli(argv), check)


def _cli_verify_op(spec: IdentitySpec) -> Op:
    argv = ["verify", "--family", spec.family.value, "--n", str(spec.n)]
    if spec.family.value in ("morris", "thm"):
        argv += ["--a", str(spec.a), "--twoc", str(spec.twoc)]
    if spec.family.value == "morris":
        argv += ["--b", str(spec.b)]
    argv += ["--format", "json"]
    expected = str(identities.rhs(spec))

    def check_payload(payload: dict) -> Optional[str]:
        if payload.get("equal") is not True:
            return f"equal={payload.get('equal')!r}"
        if payload.get("lhs") != expected:
            return f"lhs {payload.get('lhs')} != closed form {expected}"
        return None

    return _cli_op(f"cli verify {_spec_label(spec)}", argv, check_payload)


def _affine(terms) -> str:
    """Render sum(coef * var) with var None for the constant term."""
    text = ""
    for coef, var in terms:
        mag = abs(coef)
        body = str(mag) if var is None else (var if mag == 1 else f"{mag}*{var}")
        if not text:
            text = f"-{body}" if coef < 0 else body
        else:
            text += f" - {body}" if coef < 0 else f" + {body}"
    return text


def _content(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def ct_case(rng: random.Random):
    """One seeded two-variable rational of the series-oracle shape, with a
    rational content on every base and a common factor (1-x1)^s in both
    numerator and denominator.  Returns (json object, exact value, label)."""
    p, q, r, w, s = (rng.randint(0, 3), rng.randint(1, 3), rng.randint(0, 2),
                     rng.randint(0, 2), rng.randint(0, 2))
    shapes = [
        ([(1, "x1")], p), ([(1, "x2")], p),
        ([(1, None), (-1, "x1")], q), ([(1, None), (-1, "x2")], q),
        ([(1, "x2"), (-1, "x1")], r), ([(1, None), (-1, "x2"), (-1, "x1")], w),
    ]
    den = []
    scale = _content(rng)
    num_terms = []
    for k in range(s + 1):
        coef = scale * comb(s, k) * (-1) ** k
        num_terms.append((coef, None if k == 0 else ("x1" if k == 1 else f"x1^{k}")))
    value = scale * series.ct2(p, q, r, w)
    for terms, exp in shapes:
        if exp == 0:
            continue
        c = _content(rng)
        den.append([_affine([(c * coef, var) for coef, var in terms]), exp])
        value /= c ** exp
    if s:
        den.append(["1 - x1", s])
    rng.shuffle(den)
    return {"num": _affine(num_terms), "den": den}, value, f"p={p} q={q} r={r} w={w} s={s}"


def _cli_ct_op(path: Path, value: Fraction, label: str) -> Op:
    def check_payload(payload: dict) -> Optional[str]:
        got = payload.get("ct")
        try:
            ok = Fraction(got) == value
        except (TypeError, ValueError):
            ok = False
        return None if ok else f"ct {got!r} != series {value}"

    return _cli_op(f"cli ct {path.stem} {label}", ["ct", str(path), "--format", "json"],
                   check_payload)


def _gamma_check_payload(payload: dict) -> Optional[str]:
    flags = payload.get("cat", []) + payload.get("ratio", [])
    if payload.get("all_ok") is not True or len(flags) != 20 or not all(flags):
        return f"gamma-check reported {payload}"
    return None


def catalog(rng: random.Random, workdir: Path) -> Workload:
    specs = [IdentitySpec.create("mm", n) for n in (2, 3, 4)]
    specs += [IdentitySpec.create("cry", n) for n in (1, 2, 3, 4)]
    specs += [IdentitySpec.create("morris", n, a=a, b=b, twoc=twoc)
              for n, a, b, twoc in MORRIS_GRID]
    specs += [IdentitySpec.create("thm", n, a=a, twoc=twoc) for n, a, twoc in THM_GRID]
    ops = [_cli_verify_op(spec) for spec in specs]
    workdir.mkdir(parents=True, exist_ok=True)
    for k in range(CT_CASES):
        obj, value, label = ct_case(rng)
        path = workdir / f"case{k:02d}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        ops.append(_cli_ct_op(path, value, label))
    ops.append(_cli_op("cli gamma-check n=10",
                       ["gamma-check", "--n", "10", "--format", "json"],
                       _gamma_check_payload))
    return Workload(ops, op_limit_s=5.0, workdir=workdir)


BY_NAME = {"frontier": frontier, "oracle-grid": oracle_grid, "catalog": catalog}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload's operations in this seed's pass order, with their
    inputs written and their references computed."""
    rng = random.Random(seed)
    workload = BY_NAME[name](rng, workdir)
    rng.shuffle(workload.ops)
    return workload
