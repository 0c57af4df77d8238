"""The exact engine at the x-form frontier against the weighted flow count.

Runs verify on mm n=7 and thm (a=2, twoc=2) n=6 and checks both sides
against tests/flow_count.py, which shares no code with the package; exits
1 on any mismatch.  About 10 s in all.  Not a pytest module, so Tier-1 does
not collect it:

    PYTHONPATH=src python tests/frontier_flows.py
"""

import sys
import time

from ct_forge.identities import IdentitySpec, verify
from flow_count import family_count  # this script's own directory leads sys.path

FRONTIER = [IdentitySpec.create("mm", 7), IdentitySpec.create("thm", 6, a=2, twoc=2)]


def main() -> int:
    failed = 0
    for spec in FRONTIER:
        report = verify(spec)
        start = time.perf_counter()
        count = family_count(spec.family.value, spec.n, spec.a, spec.b, spec.twoc)
        ok = report.lhs == report.rhs == count
        failed += not ok
        print(f"{spec}: {'equal' if ok else 'MISMATCH'} "
              f"engine {report.elapsed_ms / 1000:.2f} s, "
              f"flow count {time.perf_counter() - start:.2f} s")
        if not ok:
            print(f"  lhs {report.lhs}\n  rhs {report.rhs}\n  flow count {count}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
