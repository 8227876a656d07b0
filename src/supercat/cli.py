"""Command-line front end: ``supercat <table|verify|map|enumerate|render>``.

Output conventions: TSV cells are decimal integers ("-" for out-of-domain
cells); JSON is canonical (sorted keys, compact separators) with all
potentially large integers encoded as strings so arbitrary precision
survives transport.  Exit codes: 0 success/verified, 1 computation or
precondition failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from operator import itemgetter

from . import bijections as bij
from . import verify
from .enumeration import (
    _ballot_even_walks,
    _ballot_walks,
    _dyck_walks,
    _motzkin2_walks,
    _pair_walks,
)
from .errors import DomainError, SupercatError
from .numbers import ballot_number, catalan, super_catalan_s, super_catalan_t
from .paths import parse_path, reverse
from .render import render_svg
from .verify import VerificationReport

# Verifications that would enumerate more paths than theorem1 does at
# m+n <= 18 (C(1) + ... + C(17), about 1.8e8) refuse to run without --force.
ENUMERATION_CAP = verify.path_cost("theorem1", max_sum=18)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _default_jobs() -> int:
    env = os.environ.get("SUPERCAT_JOBS")
    if env:
        try:
            jobs = int(env)
        except ValueError:
            jobs = 0
        if jobs >= 1:
            return jobs
        print(f"warning: ignoring SUPERCAT_JOBS={env!r}, not a positive integer", file=sys.stderr)
    if not hasattr(os, "fork"):
        return 1  # the worker pool forks
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))  # the CPUs this process may run on
    return os.cpu_count() or 1


def _table_cell(kind: str, m: int, n: int) -> int | None:
    if kind == "T":
        if m == 0 and n == 0:
            return None
        return super_catalan_t(m, n)
    if kind == "S":
        return super_catalan_s(m, n)
    if kind == "C":
        return catalan(n)
    # kind B: row index is the path-count parameter, column the terminal one
    if 1 <= n <= m:
        return ballot_number(m, n)
    return None


def _cmd_table(args) -> int:
    max_m = args.max_m if args.max_m is not None else args.rows
    max_n = args.max_n if args.max_n is not None else args.cols
    if max_m is None or max_n is None:
        print("table requires bounds: table KIND MAX_M MAX_N", file=sys.stderr)
        return 2
    if max_m < 0 or max_n < 0:
        print("table bounds must be >= 0", file=sys.stderr)
        return 2
    rows = []
    for m in range(max_m + 1):
        row = []
        for n in range(max_n + 1):
            cell = _table_cell(args.kind, m, n)
            row.append("-" if cell is None else str(cell))
        rows.append(row)
    if args.kind == "T":
        print("warning: T(0,0) is not integral; cell rendered as '-'", file=sys.stderr)
    if args.format == "json":
        print(_dumps({"kind": args.kind, "max_m": max_m, "max_n": max_n, "rows": rows}))
    else:
        for row in rows:
            print("\t".join(row))
    return 0


def _report_lines(report: VerificationReport) -> list[str]:
    bounds = ",".join(f"{k}={v}" for k, v in report.bounds.items())
    lines = [
        f"identity\t{report.identity}",
        f"bounds\t{bounds}",
        f"cases\t{report.cases}",
        f"failures\t{len(report.failures)}",
        f"passed\t{str(report.passed).lower()}",
    ]
    for failure in report.failures:
        lines.append(f"failure\t{failure.params}\tlhs={failure.lhs}\trhs={failure.rhs}")
    return lines


def _report_json(report: VerificationReport) -> dict:
    return {
        "identity": report.identity,
        "bounds": report.bounds,
        "cases": report.cases,
        "passed": report.passed,
        "failures": [
            {"params": str(f.params), "lhs": str(f.lhs), "rhs": str(f.rhs)}
            for f in report.failures
        ],
    }


def _flag(bound: str) -> str:
    return "--" + bound.replace("_", "-")


def _cmd_verify(args) -> int:
    jobs = _default_jobs() if args.jobs is None else args.jobs
    try:
        verify._check_jobs(jobs)
    except DomainError as exc:
        print(exc, file=sys.stderr)
        return 2
    names = list(verify.IDENTITIES) if args.identity == "all" else [args.identity]
    explicit = {"max_sum": args.max_sum, "max_m": args.max_m, "max_n": args.max_n}
    if args.identity != "all":
        # --max fills only the bounds a suite takes; an explicit bound must be one
        _, _, defaults = verify._resolve(args.identity)
        stray = [_flag(k) for k, v in explicit.items() if v is not None and k not in defaults]
        if stray:
            taken = " and ".join(_flag(k) for k in explicit if k in defaults)
            print(f"{args.identity} takes {taken}, not {' and '.join(stray)}", file=sys.stderr)
            return 2
    bounds = {key: args.max if value is None else value for key, value in explicit.items()}
    for name in names:
        cost = verify.path_cost(name, **bounds)
        if cost > ENUMERATION_CAP and not args.force:
            print(
                f"{name}: refusing a sweep over {cost:,} paths, more than the "
                f"{ENUMERATION_CAP:,} budget; pass --force to run it anyway",
                file=sys.stderr,
            )
            return 2
    reports = verify.run_identities(names, **bounds, jobs=jobs)
    if args.format == "json":
        payload = [_report_json(r) for r in reports]
        print(_dumps(payload[0] if args.identity != "all" else payload))
    else:
        for i, report in enumerate(reports):
            if i:
                print()
            print("\n".join(_report_lines(report)))
    return 0 if all(r.passed for r in reports) else 1


# Each map kind: the alphabet of each path it reads, and the map.  A map
# that returns a pair prints one component per line.
_MAPS = {
    "m2d": (("motzkin",), bij.motzkin_to_dyck),
    "d2m": (("dyck",), bij.dyck_to_motzkin),
    "f": (("dyck",), bij.injection_f),
    "f-inv": (("dyck",), bij.injection_f_inverse),
    "g": (("dyck",), bij.injection_g),
    "g-inv": (("dyck",), bij.injection_g_inverse),
    "pair": (("dyck",), bij.to_pair),
    "unpair": (("dyck", "dyck"), lambda first, second: bij.from_pair(bij.DyckPair(first, second))),
    "reverse": (("motzkin",), reverse),
}


def _cmd_map(args) -> int:
    alphabets, fn = _MAPS[args.kind]
    needed = len(alphabets)
    texts = args.paths
    if not texts:
        texts = [line.rstrip("\n") for line in islice(sys.stdin, needed)]
    if len(texts) != needed:
        print(f"map {args.kind} takes exactly {needed} path argument(s)", file=sys.stderr)
        return 2
    out = fn(*map(parse_path, texts, alphabets))
    for path in out if isinstance(out, bij.DyckPair) else (out,):
        print(path.steps)
    return 0


# Each family to enumerate: its parameter count and walks whose first items print.
_FAMILIES = {
    "dyck": (1, _dyck_walks),
    "motzkin2": (1, _motzkin2_walks),
    "ballot": (2, _ballot_walks),
    "ballot-even": (1, _ballot_even_walks),
    "pairs": (1, lambda n: ((f"{a[0]}\t{b[0]}",) for a, b in _pair_walks(n))),
}


def _cmd_enumerate(args) -> int:
    arity, walks = _FAMILIES[args.family]
    if len(args.params) != arity:
        print(f"enumerate {args.family} takes {arity} integer parameter(s)", file=sys.stderr)
        return 2
    stream = map(itemgetter(0), walks(*args.params))
    if args.count:
        print(sum(1 for _ in stream))
    else:
        for line in stream:
            print(line)
    return 0


def _cmd_render(args) -> int:
    path = parse_path(args.path, "motzkin")
    svg = render_svg(path, show_markers=args.markers)
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(svg)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercat",
        description="Exact lattice-path toolkit for the super Catalan numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="print a value table")
    table.add_argument("kind", choices=("T", "S", "C", "B"))
    table.add_argument("rows", nargs="?", type=int, default=None, metavar="MAX_M")
    table.add_argument("cols", nargs="?", type=int, default=None, metavar="MAX_N")
    table.add_argument("--max-m", type=int, default=None)
    table.add_argument("--max-n", type=int, default=None)
    table.add_argument("--format", choices=("tsv", "json"), default="tsv")
    table.set_defaults(func=_cmd_table)

    check = sub.add_parser("verify", help="verify an identity over a range")
    check.add_argument("identity", choices=verify.IDENTITIES + ("all",))
    check.add_argument("--max-sum", type=int, default=None)
    check.add_argument("--max", type=int, default=None, help="shorthand for the identity's natural bound")
    check.add_argument("--max-m", type=int, default=None)
    check.add_argument("--max-n", type=int, default=None)
    check.add_argument("--force", action="store_true", help="allow sweeps beyond the desk-scale cap")
    check.add_argument("--jobs", type=int, default=None)
    check.add_argument("--format", choices=("tsv", "json"), default="tsv")
    check.set_defaults(func=_cmd_verify)

    map_cmd = sub.add_parser("map", help="apply a bijection to path(s)")
    map_cmd.add_argument("kind", choices=tuple(_MAPS))
    map_cmd.add_argument("paths", nargs="*", metavar="PATH", help="path text; read from stdin when omitted")
    map_cmd.set_defaults(func=_cmd_map)

    enum_cmd = sub.add_parser("enumerate", help="stream a path family")
    enum_cmd.add_argument("family", choices=tuple(_FAMILIES))
    enum_cmd.add_argument("params", nargs="+", type=int)
    enum_cmd.add_argument("--count", action="store_true", help="print only the number of paths")
    enum_cmd.set_defaults(func=_cmd_enumerate)

    render = sub.add_parser("render", help="write an SVG diagram of a path")
    render.add_argument("path")
    render.add_argument("out")
    render.add_argument("--markers", action="store_true", help="label the split anchor and rightmost maximum")
    render.set_defaults(func=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SupercatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
