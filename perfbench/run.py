"""ct-forge benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload {frontier,oracle-grid,catalog}
                             --seed N --seconds S --trace {0,1}

Run from the root of a ct-forge checkout; the program is imported from
src/.  A run makes a whole pass over the workload's operations, in the
seed's order, and fills the rest of --seconds with further passes; between
operations it measures set-up in fresh processes.  Every answer is checked.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced passes, wrapping the calls into each
ct_forge module (spans.py), and prints the per-layer metrics; the spans go
to perfbench/out/.  The last line of stdout is the JSON result.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before ct_forge loads

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 7
RUN_DEADLINE_S = 160.0  # from process start; no op starts after it
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)


def load_program() -> None:
    """Put the checkout's src/ first on the path and make sure ct_forge comes
    from there; exits non-zero when the checkout has no program."""
    init = ROOT / "src" / "ct_forge" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from the root of a ct-forge checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import ct_forge
    if Path(ct_forge.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: ct_forge was imported from {ct_forge.__file__}, not {init}")


def metric_units(trace: int) -> Dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# -- running operations ----------------------------------------------------

class OpTimeout(BaseException):
    """Raised from SIGALRM; a BaseException so no handler in the program
    mistakes it for one of its own errors."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Attempt:
    op: int
    latency: Optional[float]           # None when the op never started
    failure: Optional[str]
    measures: Dict[str, float] = field(default_factory=dict)


@dataclass
class Pass:
    traced: bool
    attempts: List[Attempt]

    @property
    def wall(self) -> float:
        return sum(a.latency or 0.0 for a in self.attempts)


def run_op(index, op, limit) -> Attempt:
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            result = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return Attempt(index, time.perf_counter() - start, f"exceeded the {limit:.3g} s op limit")
    except Exception as exc:  # a failing operation is counted, not fatal
        return Attempt(index, time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}")
    latency = time.perf_counter() - start
    try:
        verdict = op.check(result)
    except Exception as exc:
        return Attempt(index, latency, f"check raised {type(exc).__name__}: {exc}")
    return Attempt(index, latency, verdict.failure, verdict.measures)


def run_pass(workload, traced: bool, deadline: float, units=None,
             fill_until: Optional[float] = None,
             expected: Optional[Dict[int, float]] = None,
             between: Optional[Callable[[], None]] = None) -> Pass:
    """One pass: each unit's ops once, in order; by default every op is its
    own unit.  With fill_until, the pass ends before the first unit whose
    time in `expected` says it would end after that time.  `between` is
    called before each unit, outside every op's time."""
    if units is None:
        units = [[index] for index in range(len(workload.ops))]
    attempts = []
    for unit in units:
        if between is not None:
            between()
        if fill_until is not None and \
                time.perf_counter() + sum(expected[i] for i in unit) > fill_until:
            break
        for index in unit:
            limit = min(workload.op_limit_s, deadline - time.perf_counter())
            if limit <= 0:
                attempts.append(Attempt(index, None, "not started before the run deadline"))
                continue
            attempts.append(run_op(index, workload.ops[index], limit))
    return Pass(traced, attempts)


def fill_units(workload, expected: Dict[int, float]):
    """The units of a filling pass.  Ops the first pass timed below the
    workload's sweep_below_s form one sweep, run again before each slower
    op, so their attempts spread over the whole run instead of bunching.
    An op that used its whole time limit in the first pass has failed and
    has the limit for latency; running it again would measure nothing."""
    indices = [i for i in range(len(workload.ops)) if expected[i] < workload.op_limit_s]
    quick = [i for i in indices if expected[i] < workload.sweep_below_s]
    slow = [[i] for i in indices if expected[i] >= workload.sweep_below_s]
    if not quick:
        return slow
    units = [unit for op in slow for unit in (quick, op)]
    return units or [quick]


def measure(workload, seconds: float, recorder, between=None) -> List[Pass]:
    """Untraced: one whole pass, then filling passes until `seconds` is used
    up; the last one stops at the first unit that would not end in time.
    Traced: whole passes, so per-pass counts are exact, alternately untraced
    and traced, while another one fits, and at least one of each."""
    signal.signal(signal.SIGALRM, _on_alarm)
    deadline = _T0 + RUN_DEADLINE_S
    start = time.perf_counter()
    if recorder is None:
        passes = [run_pass(workload, False, deadline, between=between)]
        expected = {a.op: a.latency or 0.0 for a in passes[0].attempts}
        units = fill_units(workload, expected)
        fill_until = min(start + seconds, deadline)
        while time.perf_counter() < fill_until:
            p = run_pass(workload, False, deadline, units, fill_until, expected, between)
            if p.attempts:
                passes.append(p)
            if len(p.attempts) < sum(len(unit) for unit in units):
                break
        return passes
    passes = []
    while True:
        traced = len(passes) % 2 == 1
        if traced:
            recorder.install()
        try:
            passes.append(run_pass(workload, traced, deadline))
        finally:
            if traced:
                recorder.uninstall()
        now = time.perf_counter()
        longest = max(p.wall for p in passes)
        if now + longest > deadline:
            break
        if len(passes) >= 2 and now - start + longest > seconds:
            break
    return passes


# -- metrics ---------------------------------------------------------------

def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def tail_percentile(n: int) -> float:
    """Highest percentile of the ladder with at least 10 of n samples beyond
    it; 100 (the maximum) when n is too small for any."""
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100.0 * n) >= 10:
            return pct
    return 100.0


def best_latency(passes: List[Pass]) -> Dict[int, float]:
    """Each op's fastest latency over the given passes, by op index.  On a
    shared 2-vCPU VM, other tenants slowed the same call by up to 50% for
    stretches of 5-10 s; the median of a run moved with that load, the
    fastest attempt much less."""
    best: Dict[int, float] = {}
    for p in passes:
        for a in p.attempts:
            if a.latency is not None:
                best[a.op] = min(a.latency, best.get(a.op, a.latency))
    return best


def end_to_end(passes, workload, setup_samples, notes) -> dict:
    untraced = [p for p in passes if not p.traced]
    by_op = best_latency(untraced)
    latencies = list(by_op.values())
    failing = {a.op for p in passes for a in p.attempts if a.failure is not None}
    tail = tail_percentile(len(latencies))
    slowest = sorted(by_op.items(), key=lambda item: -item[1])[:4]
    notes.append("slowest ops: " + "; ".join(
        f"{workload.ops[op].name} {t:.4f} s" for op, t in slowest))
    notes.append(f"latency_s.tail is p{tail:g} of {len(latencies)} per-op best latencies; "
                 f"{len(untraced)} untraced passes")
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": sum(latencies),
        "latency_s.p50": statistics.median(latencies),
        "latency_s.tail": percentile(latencies, tail),
        "ok_frac": 1.0 - len(failing) / len(workload.ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_pass(total: float, n: int):
    value = total / n
    return int(value) if float(value).is_integer() else value


def per_layer(passes, workload, recorder, notes) -> dict:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    tp = len(traced)
    s = recorder.summary()
    total, own, counts, peaks = s["total"], s["self"], recorder.counts, recorder.peaks
    traced_wall = statistics.median(p.wall for p in traced)
    untraced_wall = statistics.median(p.wall for p in untraced)
    attempts = [a for p in passes for a in p.attempts]
    converged = [a.measures.get("converged", 0.0) for a in attempts
                 if workload.ops[a.op].name.startswith("contour ")]
    notes.append(f"{tp} traced passes, {s['spans']} spans; traced wall {traced_wall:.4f} s, "
                 f"untraced wall {untraced_wall:.4f} s")

    def err_max(key):
        return max((a.measures[key] for a in attempts if key in a.measures), default=0.0)

    layer = {f"{name}.self_s": seconds / tp for name, seconds in s["layer_self"].items()}
    return {
        "polyring.mul.calls": _per_pass(counts["mul.calls"], tp),
        "polyring.mul.term_pairs": _per_pass(counts["mul.term_pairs"], tp),
        "polyring.mul.terms_out": _per_pass(counts["mul.terms_out"], tp),
        "polyring.mul.s": total["polyring.mul"] / tp,
        "polyring.add.calls": _per_pass(counts["add.calls"], tp),
        "polyring.add.s": total["polyring.add"] / tp,
        "polyring.parse.s": total["polyring.parse"] / tp,
        "ctengine.ct_var.calls": _per_pass(counts["ct_var.calls"], tp),
        "ctengine.ct_var.s": total["ctengine.ct_var"] / tp,
        "ctengine.ct_var.self_s": own["ctengine.ct_var"] / tp,
        "ctengine.step.max_s": s["step_max_s"],
        "ctengine.create.s": total["ctengine.create"] / tp,
        "ctengine.num_terms.peak": peaks["num_terms"],
        "ctengine.den_factors.peak": peaks["den_factors"],
        "ctengine.den_exp.peak": peaks["den_exp"],
        "ctengine.coeff_bits.peak": peaks["coeff_bits"],
        "exactarith.rhs.s": total["exactarith.rhs"] / tp,
        "exactarith.gamma_half.calls": _per_pass(counts["gamma_half.calls"], tp),
        "identities.build_integrand.s": total["identities.build_integrand"] / tp,
        "identities.verify.self_s": own["identities.verify"] / tp,
        "contour.contour_ct.calls": _per_pass(counts["contour_ct.calls"], tp),
        "contour.samples": _per_pass(recorder.samples_done, tp),
        "contour.samples_per_s": (recorder.samples_done / recorder.samples_s
                                  if recorder.samples_s else 0.0),
        "contour.points.max": recorder.points_max,
        "contour.converged_frac": statistics.fmean(converged) if converged else 0.0,
        "contour.chain.s": total["contour.chain"] / tp,
        "contour.rel_err.max": err_max("rel_err"),
        "contour.chain_rel_err.max": err_max("chain_err"),
        "cli.main.s": total["cli.main"] / tp,
        **layer,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.coverage_frac": s["top_s"] / sum(p.wall for p in traced),
        "trace.spans": _per_pass(s["spans"], tp),
    }


# -- environment and set-up ------------------------------------------------

def _commit() -> Optional[str]:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    src = sorted((ROOT / "src").rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src),
    }


def setup_probe(args) -> float:
    """Seconds a fresh process takes to import ct_forge and build this
    workload's inputs and references."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class SetupProbes:
    """Takes SETUP_PROBES set-up samples spread evenly over --seconds, when
    called between ops: on a machine with slow stretches of 5-10 s, probes
    taken back to back all fell in the same one."""

    def __init__(self, args):
        self.args = args
        self.samples: List[float] = []
        self.due: Optional[List[float]] = None

    def __call__(self, finish: bool = False) -> None:
        if self.due is None:
            start = time.perf_counter()
            self.due = [start + self.args.seconds * k / SETUP_PROBES
                        for k in range(SETUP_PROBES)]
        while self.due and (finish or time.perf_counter() >= self.due[0]):
            self.due.pop(0)
            self.samples.append(setup_probe(self.args))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["frontier", "oracle-grid", "catalog"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_program()
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    if args.setup_only:
        workloads.build(args.workload, args.seed, workdir).cleanup()
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0

    units = metric_units(args.trace)
    probes, recorder = None, None
    if args.trace:
        import spans
        recorder = spans.Recorder()
    else:
        probes = SetupProbes(args)
    workload = workloads.build(args.workload, args.seed, workdir)
    try:
        passes = measure(workload, args.seconds, recorder, probes)
    finally:
        workload.cleanup()

    notes: List[str] = []
    if recorder is None:
        probes(finish=True)
        metrics = end_to_end(passes, workload, probes.samples, notes)
    else:
        metrics = per_layer(passes, workload, recorder, notes)
        trace_file = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        recorder.write(trace_file)
        notes.append(f"spans written to {trace_file.relative_to(ROOT)}")
    if set(metrics) != set(units):
        sys.exit(f"perfbench: computed metrics {sorted(set(metrics) ^ set(units))} "
                 "do not match BENCHMARK.json")

    attempts = [a for p in passes for a in p.attempts]
    failures: Dict[str, List[str]] = {}
    for a in attempts:
        if a.failure is not None:
            failures.setdefault(workload.ops[a.op].name, []).append(a.failure)
    unexpected = set(failures) - workloads.KNOWN_DEFECTS

    # An operation is counted once however often it ran, and fails if any
    # of its attempts did, so the counts do not move with machine speed.
    attempted = {workload.ops[a.op].name for a in attempts}
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} loop=closed callers=1 ops/pass={len(workload.ops)} "
          f"passes={len(passes)} attempts={len(attempts)}")
    print("env " + json.dumps(environment()))
    for name, reasons in sorted(failures.items()):
        kind = "known defect" if name in workloads.KNOWN_DEFECTS else "FAILURE"
        print(f"{kind}: {name}: {reasons[0]} (x{len(reasons)})")
    for note in notes:
        print(note)
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(attempted),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
