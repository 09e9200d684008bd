"""Command-line interface.

Commands: ``analyze``, ``generate``, ``check``, ``bounds``, ``verify``.
Societies travel as JSON (see README for the format); ``analyze`` and
``check`` read from a file or stdin (``-``), ``generate`` writes to a file
or stdout, so generators pipe straight into analysis.

Exit codes: 0 success, 1 property violation (``verify`` only), 2 usage or
data error.

Each command imports only the modules it runs, so ``analyze --format json``
loads the society loader and the sweep and nothing else.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .errors import CapExceededError

if TYPE_CHECKING:
    from .bounds import BoundSheet
    from .society import Society

# The names of verify.SUITES, spelled out so that building the parser does
# not import the suites; tests/test_cli.py checks the two agree.
SUITE_CHOICES = ("all", "linear", "box", "graph")


def _read_society(path: str) -> Society:
    from .society import load_society, require_valid

    society = load_society(sys.stdin if path == "-" else path)
    require_valid(society)
    return society


def _print_sheet_text(sheet: BoundSheet) -> None:
    if sheet.vacuous:
        witness = ",".join(sheet.agreeability_witness or ())
        print(f"(k,m)=({sheet.params.k},{sheet.params.m}): NOT agreeable (witness {witness}); bounds vacuous")
        return
    print(f"(k,m)=({sheet.params.k},{sheet.params.m}): agreeable")
    for entry in sheet.entries:
        if not entry.applicable:
            print(f"  {entry.name}: not applicable ({entry.note})")
            continue
        status = "satisfied" if entry.satisfied else "VIOLATED"
        print(f"  {entry.name}: {entry.value} -> {status}")


def cmd_analyze(args: argparse.Namespace) -> int:
    from .agreement import agreement

    society = _read_society(args.society)
    report = agreement(society)
    sheet = None
    if args.k is not None or args.m is not None:
        if args.k is None or args.m is None:
            raise ValueError("provide both --k and --m or neither")
        from .agreeability import AgreeParams
        from .bounds import bound_sheet

        sheet = bound_sheet(society, AgreeParams(args.k, args.m), report=report)

    if args.format == "json":
        obj = report.to_obj()
        if sheet is not None:
            obj["bound_sheet"] = sheet.to_obj()
        print(json.dumps(obj, separators=(",", ":")))
    else:
        from .bounds import decimal_str
        from .society import coord_str

        print(f"voters: {report.n}")
        print(f"agreement number: {report.agreement_number}")
        print(
            f"agreement proportion: {coord_str(report.proportion)}"
            f" (~{decimal_str(report.proportion)})"
        )
        witnesses = ", ".join(str(w) if not isinstance(w, tuple) else
                              "(" + ", ".join(coord_str(x) for x in w) + ")"
                              for w in report.witnesses)
        print(f"witness platforms: {witnesses if witnesses else '(none)'}")
        if report.per_candidate is not None:
            for c, count in report.per_candidate.items():
                print(f"  candidate {coord_str(c)}: {count} approvals")
        if sheet is not None:
            _print_sheet_text(sheet)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .agreeability import AgreeParams, is_km_agreeable

    society = _read_society(args.society)
    result = is_km_agreeable(society, AgreeParams(args.k, args.m))
    if args.format == "json":
        obj = {
            "k": args.k,
            "m": args.m,
            "agreeable": result.agreeable,
            "witness": list(result.witness) if result.witness else None,
        }
        print(json.dumps(obj, separators=(",", ":")))
    elif result.agreeable:
        print(f"({args.k},{args.m})-agreeable: yes")
    else:
        print(f"({args.k},{args.m})-agreeable: no (witness {','.join(result.witness)})")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    from .agreeability import AgreeParams
    from .bounds import FractionalHellyBound, bound_values, coord_str

    def json_value(value):  # a Fraction or a FractionalHellyBound
        return value.to_obj() if isinstance(value, FractionalHellyBound) else coord_str(value)

    # A str is the note of a bound whose hypothesis fails: not printed.  A
    # Fraction's str is its coord_str.
    values = bound_values(AgreeParams(args.k, args.m), args.n, args.d)
    values = {key: value for key, value in values.items() if not isinstance(value, str)}
    if args.format == "json":
        print(json.dumps(values, separators=(",", ":"), default=json_value))
    else:
        print("\n".join(f"{key}: {value}" for key, value in values.items()))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from .agreeability import AgreeParams
    from .generators import (
        RandomConfig,
        clique_plus_isolated,
        disjoint_cliques,
        extremal_linear,
        five_cycle_boxes,
        random_society,
    )
    from .society import save_society

    if args.generator == "extremal":
        society = extremal_linear(args.n, AgreeParams(args.k, args.m))
    elif args.generator == "clique-isolated":
        society = clique_plus_isolated(args.n, AgreeParams(args.k, args.m))
    elif args.generator == "disjoint-cliques":
        society = disjoint_cliques(args.n, AgreeParams(args.k, args.m))
    elif args.generator == "five-cycle-boxes":
        society = five_cycle_boxes()
    else:
        config = RandomConfig(
            coord_min=args.coord_min,
            coord_max=args.coord_max,
            min_length=args.min_length,
            max_length=args.max_length,
            empty_percent=args.empty_percent,
            num_candidates=args.num_candidates,
            dimension=args.d,
        )
        society = random_society(args.kind, args.n, args.seed, config)
    save_society(society, sys.stdout if args.out in (None, "-") else args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suites

    report = run_suites(args.suite, args.trials, args.seed, args.failure_dir)
    if args.format == "json":
        print(json.dumps(report.to_obj(), separators=(",", ":")))
    else:
        for r in report.results:
            status = "PASS" if r.ok else "FAIL"
            print(f"{r.suite}/{r.name}: checked={r.checked} violations={len(r.violations)} {status}")
            for v in r.violations:
                print(f"  violation: {v}")
        total = sum(r.checked for r in report.results)
        print(f"RESULT {'PASS' if report.ok else 'FAIL'} ({len(report.results)} properties, {total} checks)")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agreeable",
        description="Agreement numbers, (k,m)-agreeability and bounds for interval/box approval societies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="agreement report (and bound sheet with --k/--m) for a society file")
    p.add_argument("society", help="society JSON file, or - for stdin")
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("check", help="(k,m)-agreeability verdict for a society file")
    p.add_argument("society", help="society JSON file, or - for stdin")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bounds", help="evaluate the bound formulas without a society")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("generate", help="emit a society as JSON")
    gen = p.add_subparsers(dest="generator", required=True)

    for name in ("extremal", "clique-isolated", "disjoint-cliques"):
        g = gen.add_parser(name)
        g.add_argument("--n", type=int, required=True)
        g.add_argument("--k", type=int, required=True)
        g.add_argument("--m", type=int, required=True)
        g.add_argument("--out")
        g.set_defaults(func=cmd_generate)

    g = gen.add_parser("five-cycle-boxes")
    g.add_argument("--out")
    g.set_defaults(func=cmd_generate)

    g = gen.add_parser("random")
    g.add_argument("--kind", choices=("line", "candidates", "box"), default="line")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--d", type=int, default=2, help="dimension for --kind box")
    g.add_argument("--coord-min", type=int, default=0)
    g.add_argument("--coord-max", type=int, default=12)
    g.add_argument("--min-length", type=int, default=0)
    g.add_argument("--max-length", type=int, default=8)
    g.add_argument("--empty-percent", type=int, default=0)
    g.add_argument("--num-candidates", type=int, default=6)
    g.add_argument("--out")
    g.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="run the seeded property suites")
    p.add_argument("--suite", choices=SUITE_CHOICES, default="all")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--failure-dir",
        help="write failing instances here for replay (default: write nothing)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CapExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
