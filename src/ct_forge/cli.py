"""Command-line front end.

Subcommands:

    verify       check one identity instance (or a --grid of them) exactly
    ct           exact constant term of a user-supplied factored rational
    oracle       numeric contour estimate of an identity's constant term
    chain        numeric check of the four-form substitution chain
    gamma-check  exact Gamma-product identities (Catalan form and 2^n ratio)

Exit codes: 0 verified/agreed, 1 computed but mismatched or unconverged,
2 usage or engine errors, among them an elimination step past the exact
engine's per-step work budget (errors.BudgetError).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from .contour import (
    QuadratureConfig,
    chain_spread,
    chain_values,
    contour_ct_converged,
    default_epsilon,
)
from .ctengine import ct_iterated, factored_loads
from .errors import CTForgeError
from .exactarith import thm_rhs
from .identities import (
    IdentityFamily,
    IdentitySpec,
    check_cat_identity,
    check_ratio_identity,
    spec_from_json,
    verify,
)

CHAIN_TOL = 1e-5


def _parse_order(text: Optional[str]) -> Optional[Tuple[int, ...]]:
    """Comma list of 1-based variable numbers, e.g. '2,1', as 0-based indices."""
    if text is None:
        return None
    try:
        order = tuple(int(part) - 1 for part in text.split(","))
        if len(set(order)) != len(order):
            raise ValueError("extraction order repeats a variable")
        if min(order) < 0:
            raise ValueError("variable numbers start at 1")
    except ValueError as exc:
        raise CTForgeError(f"bad --order {text!r}: {exc}") from None
    if order != tuple(range(len(order))):
        print("warning: non-default extraction order corresponds to a different "
              "contour nesting; results are exploratory", file=sys.stderr)
    return order


def _spec_from_args(args) -> IdentitySpec:
    if args.family is None or args.n is None:
        raise CTForgeError("--family and --n are required")
    return IdentitySpec.create(args.family, args.n, a=args.a, b=args.b, twoc=args.twoc)


def _report_line(report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.to_json())
    flag = "equal" if report.equal else "MISMATCH"
    return (f"{report.spec}: lhs={report.lhs} rhs={report.rhs} {flag} "
            f"({report.elapsed_ms:.1f} ms)")


def _cmd_verify(args) -> int:
    if args.grid:
        given = [name for name in ("family", "n", "a", "b", "twoc", "order")
                 if getattr(args, name) is not None]
        if given:
            raise CTForgeError(f"--grid cannot be combined with --{given[0]}")
        with open(args.grid, "r", encoding="utf-8") as fh:
            entries = json.load(fh)
        if not isinstance(entries, list):
            raise CTForgeError("--grid file must hold a JSON list of identity specs")
        if not entries:
            raise CTForgeError("--grid file lists no specs")
        specs = [spec_from_json(entry) for entry in entries]
    else:
        specs = [_spec_from_args(args)]
    order = _parse_order(args.order)
    reports = [verify(spec, order=order) for spec in specs]
    all_equal = True
    for report in reports:
        print(_report_line(report, args.format))
        all_equal = all_equal and report.equal
    return 0 if all_equal else 1


def _cmd_ct(args) -> int:
    with open(args.spec_file, "r", encoding="utf-8") as fh:
        rational = factored_loads(fh.read())
    value = ct_iterated(rational, _parse_order(args.order))
    if args.format == "json":
        print(json.dumps({"ct": str(value)}))
    else:
        print(value)
    return 0


def _cmd_oracle(args) -> int:
    spec = _spec_from_args(args)
    fine, points, is_converged = contour_ct_converged(
        spec, start_points=args.points, max_points=2 * args.points)
    if args.format == "json":
        print(json.dumps({"re": fine.real, "im": fine.imag, "N": points,
                          "converged": is_converged}))
    else:
        print(f"{spec}: re={fine.real!r} im={fine.imag!r} N={points} "
              f"converged={'yes' if is_converged else 'no'}")
    return 0 if is_converged else 1


def _cmd_chain(args) -> int:
    cfg = QuadratureConfig(default_epsilon(args.n, shifted=True), args.points)
    # refuse what chain_values would, before the closed form is computed
    IdentitySpec.create("thm", args.n, a=args.a, twoc=args.twoc)
    exact = thm_rhs(args.n, args.a, args.twoc)
    try:  # before sampling, so an overflowing closed form is named as such
        exact_float = float(exact)
    except OverflowError:
        raise CTForgeError(f"the closed form for n={args.n} a={args.a} twoc={args.twoc} "
                           "exceeds the float64 range") from None
    values = chain_values(args.n, args.a, args.twoc, cfg)
    scale = max(1.0, abs(exact_float))
    spread = chain_spread(values)
    worst_vs_exact = max(abs(v - exact_float) / scale for v in values.values())
    ok = spread < CHAIN_TOL and worst_vs_exact < CHAIN_TOL
    if args.format == "json":
        print(json.dumps({
            "forms": {f: {"re": v.real, "im": v.imag} for f, v in values.items()},
            "spread": spread,
            "vs_exact": worst_vs_exact,
            "exact": str(exact),
            "N": cfg.points,
            "within_tolerance": ok,
        }))
    else:
        for form, v in values.items():
            print(f"  {form}: re={v.real!r} im={v.imag!r}")
        print(f"pairwise spread={spread:.3e} vs exact {exact}: {worst_vs_exact:.3e} "
              f"N={cfg.points} -> {'within tolerance' if ok else 'OUT OF TOLERANCE'}")
    return 0 if ok else 1


def _cmd_gamma_check(args) -> int:
    if args.n < 1:
        raise CTForgeError(f"gamma-check needs --n of at least 1, got {args.n}")
    cat = [check_cat_identity(n) for n in range(1, args.n + 1)]
    ratio = [check_ratio_identity(n) for n in range(1, args.n + 1)]
    all_ok = all(cat) and all(ratio)
    if args.format == "json":
        print(json.dumps({"cat": cat, "ratio": ratio, "all_ok": all_ok}))
    else:
        for i in range(args.n):
            print(f"n={i + 1}: cat={'ok' if cat[i] else 'FAIL'} "
                  f"ratio={'ok' if ratio[i] else 'FAIL'}")
    return 0 if all_ok else 1


def _build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="ct-forge",
        description="exact and numeric verification of constant-term identities")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers: Dict[str, argparse.ArgumentParser] = {}

    def add_subparser(name, text, func):
        p = subparsers[name] = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        return p

    def add_spec_flags(p):
        p.add_argument("--family", choices=[f.value for f in IdentityFamily])
        p.add_argument("--n", type=int)
        p.add_argument("--a", type=int)
        p.add_argument("--b", type=int)
        p.add_argument("--twoc", type=int)

    def add_format(p):
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = add_subparser("verify", "exact check of an identity instance", _cmd_verify)
    add_spec_flags(p)
    p.add_argument("--order", help="extraction order as 1-based comma list, e.g. 2,1")
    p.add_argument("--grid", help="JSON file with a list of identity specs")
    add_format(p)

    p = add_subparser("ct", "exact constant term of a factored rational", _cmd_ct)
    p.add_argument("spec_file", help="JSON file: {\"num\": ..., \"den\": [[poly, exp], ...]}")
    p.add_argument("--order", help="extraction order as 1-based comma list")
    add_format(p)

    p = add_subparser("oracle", "numeric contour estimate of an identity", _cmd_oracle)
    add_spec_flags(p)
    p.add_argument("--points", type=int, default=1024,
                   help="samples per circle; the estimate is refined at twice this")
    add_format(p)

    p = add_subparser("chain", "numeric check of the substitution chain", _cmd_chain)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--twoc", type=int, required=True)
    p.add_argument("--points", type=int, default=1024)
    add_format(p)

    p = add_subparser("gamma-check", "exact Gamma-product identity checks", _cmd_gamma_check)
    p.add_argument("--n", type=int, default=10, help="check 1..n (default 10)")
    add_format(p)

    return parser, subparsers


# Built once: each add_argument reads the terminal size and the gettext
# catalog, and parse_args keeps no state between calls.  An argv that starts
# with a subcommand goes to that subcommand's parser alone, not through both.
_PARSER, _SUBPARSERS = _build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        sub = _SUBPARSERS.get(argv[0]) if argv else None
        args, extra = sub.parse_known_args(argv[1:]) if sub else (_PARSER.parse_args(argv), [])
        if extra:  # named under the top-level usage, as the top-level parse names them
            _PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (CTForgeError, OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
