"""The exact engine at the x-form frontier, and one size past it, against
the weighted flow count.

Runs verify on mm n=7 and thm (a=2, twoc=2) n=6, and checks the engine, the
closed form, the x count and the t count of tests/flow_count.py against one
another.  At mm n=8 and thm (a=2, twoc=2) n=7, where the step budget refuses
the x form, it checks x count == t count == closed form: the x count needs
no substitution chain, so this checks the paper's reduction exactly.  On a
mismatch it names the sides that disagree, and exits 1.  About 40 s in all.
Not a pytest module, so Tier-1 does not collect it:

    PYTHONPATH=src python tests/frontier_flows.py
"""

import sys
import time

from ct_forge.identities import IdentitySpec, rhs, verify
from flow_count import family_count, thm_count  # this script's own directory leads sys.path

ENGINE = [IdentitySpec.create("mm", 7), IdentitySpec.create("thm", 6, a=2, twoc=2)]
PAST_ENGINE = [IdentitySpec.create("mm", 8), IdentitySpec.create("thm", 7, a=2, twoc=2)]


def check(spec, with_engine: bool) -> bool:
    sides, times = {}, []
    if with_engine:
        report = verify(spec)
        sides["engine"] = report.lhs
        times.append(f"engine {report.elapsed_ms / 1000:.2f} s")
    sides["closed form"] = rhs(spec)
    counts = {"x count": lambda: family_count(spec.family.value, spec.n, spec.a, spec.b,
                                              spec.twoc),
              "t count": lambda: thm_count(spec.n, spec.a, spec.twoc)}
    for name, count in counts.items():
        start = time.perf_counter()
        sides[name] = count()
        times.append(f"{name} {time.perf_counter() - start:.2f} s")
    groups = {}
    for name, value in sides.items():
        groups.setdefault(value, []).append(name)
    ok = len(groups) == 1
    print(f"{spec}: {'equal' if ok else 'MISMATCH'}; {', '.join(times)}", flush=True)
    if not ok:  # each line is a set of sides that agree
        for value, names in groups.items():
            print(f"  {' = '.join(names)}: {value}")
    return ok


def main() -> int:
    results = [check(spec, True) for spec in ENGINE]
    results += [check(spec, False) for spec in PAST_ENGINE]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
