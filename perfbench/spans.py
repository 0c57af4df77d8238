"""Spans around the calls into each ct_forge module, for the traced passes.

install() replaces the public entry points of every layer with wrappers that
record a span (name, start, end, own id, parent id) and a few counts, and
uninstall() puts the originals back.  Each function is replaced where its
callers look it up: ct_iterated finds ct_var as a module global, and cli,
contour and identities call the names they imported into their own
namespaces.  Spans stay in memory in flat arrays until the run ends.

A span's layer is the part of its name before the first dot; its self time
is its duration minus the durations of its children.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

from ct_forge import cli, contour, ctengine, exactarith, identities, polyring
from ct_forge.ctengine import FactoredRational
from ct_forge.polyring import Poly

LAYERS = ("polyring", "ctengine", "exactarith", "identities", "contour", "cli")


class Recorder:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._saved: List[tuple] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.peaks: Dict[str, int] = defaultdict(int)
        self.points_max = 0
        self.samples_done = 0
        self.samples_s = 0.0

    # -- recording -------------------------------------------------------

    def _wrap(self, fn: Callable, name: str,
              after: Optional[Callable] = None) -> Callable:
        idx = self._index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        stack, names, parents, starts, ends = (
            self._stack, self.name, self.parent, self.start, self.end)

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if after is not None:
                after(args, result, t1 - t0)
            return result

        return wrapper

    def _count(self, fn: Callable, key: str) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def _patch_function(self, home, attr: str, name: str, owners,
                        after: Optional[Callable] = None, before=None) -> None:
        """Wrap home.attr once and put the wrapper in every owner that holds
        that same function.  Names a version of the program lacks are
        skipped, so their metrics read 0 instead of the run failing."""
        fn = home.__dict__.get(attr)
        if fn is None:
            return
        wrapped = self._wrap(fn if before is None else before(fn), name, after)
        for owner in owners:
            if owner.__dict__.get(attr) is fn:
                self._patch(owner, attr, wrapped)

    # -- counts taken at the boundaries -----------------------------------

    def _after_mul(self, args, result, _dt) -> None:
        if not isinstance(result, Poly):
            return
        other = args[1]
        self.counts["mul.calls"] += 1
        self.counts["mul.term_pairs"] += len(args[0]) * (
            len(other) if isinstance(other, Poly) else 1)
        self.counts["mul.terms_out"] += len(result)

    def _after_add(self, _args, _result, _dt) -> None:
        self.counts["add.calls"] += 1

    def _after_ct_var(self, _args, result: FactoredRational, _dt) -> None:
        peaks = self.peaks
        self.counts["ct_var.calls"] += 1
        peaks["num_terms"] = max(peaks["num_terms"], len(result.num))
        peaks["den_factors"] = max(peaks["den_factors"], len(result.den))
        peaks["den_exp"] = max([peaks["den_exp"]] + [e for _, e in result.den])
        bits = max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                    for _, c in result.num.terms()), default=0)
        peaks["coeff_bits"] = max(peaks["coeff_bits"], bits)

    @staticmethod
    def _grid(args):
        """(points per circle, variables) of a contour_ct(spec, cfg) call."""
        points = next((a.points for a in args if hasattr(a, "points")), 0)
        n = next((a.n for a in args if hasattr(a, "n")), 0)
        return points, n

    def _after_contour(self, args, _result, dt) -> None:
        points, n = self._grid(args)
        self.samples_done += points ** n
        self.samples_s += dt

    def _before_contour(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.counts["contour_ct.calls"] += 1
            self.points_max = max(self.points_max, self._grid(args)[0])
            return fn(*args, **kwargs)
        return wrapper

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        for attr, name, after in (("__mul__", "polyring.mul", self._after_mul),
                                  ("__rmul__", "polyring.mul", self._after_mul),
                                  ("__add__", "polyring.add", self._after_add),
                                  ("__radd__", "polyring.add", self._after_add),
                                  ("__pow__", "polyring.pow", None)):
            if attr in Poly.__dict__:
                self._patch(Poly, attr, self._wrap(Poly.__dict__[attr], name, after))
        create = FactoredRational.__dict__["create"].__func__
        self._patch(FactoredRational, "create",
                    classmethod(self._wrap(create, "ctengine.create")))

        patch = self._patch_function
        patch(polyring, "parse_poly", "polyring.parse", (polyring, ctengine))
        patch(ctengine, "ct_var", "ctengine.ct_var", (ctengine,), self._after_ct_var)
        patch(ctengine, "ct_iterated", "ctengine.ct_iterated", (ctengine, identities, cli))
        patch(ctengine, "factored_loads", "ctengine.loads", (ctengine, cli))
        patch(identities, "build_integrand", "identities.build_integrand",
              (identities, contour))
        patch(identities, "rhs", "exactarith.rhs", (identities,))
        patch(identities, "verify", "identities.verify", (identities, cli))
        for attr in ("check_cat_identity", "check_ratio_identity"):
            patch(identities, attr, "identities.gamma_check", (identities, cli))
        patch(contour, "contour_ct", "contour.contour_ct", (contour, cli),
              self._after_contour, self._before_contour)
        patch(contour, "chain_values", "contour.chain", (contour, cli))
        patch(cli, "main", "cli.main", (cli,))
        gamma = exactarith.__dict__.get("gamma_half")
        counted = self._count(gamma, "gamma_half.calls")
        for owner in (exactarith, identities):
            if gamma is not None and owner.__dict__.get("gamma_half") is gamma:
                self._patch(owner, "gamma_half", counted)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reading the spans ---------------------------------------------------

    def summary(self) -> dict:
        """Per-name total and self seconds; per-layer self seconds; seconds
        covered by top-level spans; the longest ct_var step."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += dur[sid]
        total = defaultdict(float)
        own = defaultdict(float)
        step_max = 0.0
        top = 0.0
        ct_var_idx = self._index.get("ctengine.ct_var", -1)
        for sid in range(n):
            name = self.names[self.name[sid]]
            total[name] += dur[sid]
            own[name] += dur[sid] - child[sid]
            if self.parent[sid] < 0:
                top += dur[sid]
            if self.name[sid] == ct_var_idx:
                step_max = max(step_max, dur[sid])
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, seconds in own.items():
            layer_self[name.split(".", 1)[0]] += seconds
        return {"total": total, "self": own, "layer_self": layer_self,
                "top_s": top, "step_max_s": step_max, "spans": n}

    def write(self, path: Path) -> None:
        """One line per span: id, parent id, name, start and end seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid in range(len(self.start)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{self.names[self.name[sid]]}\t"
                         f"{self.start[sid]:.9f}\t{self.end[sid]:.9f}\n")
