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
import sys
from itertools import islice
from operator import itemgetter

from . import bijections as bij
from . import verify
from .enumeration import (
    _BUDGET,
    _ballot_even_walks,
    _ballot_walks,
    _dyck_walks,
    _motzkin2_walks,
    _over_budget,
    _pair_walks,
    _paths_text,
)
from .errors import DomainError, SupercatError
from .numbers import ballot_number, catalan, super_catalan_s, super_catalan_t
from .paths import parse_path, reverse
from .render import render_svg
from .verify import VerificationReport


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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
    max_m, max_n = args.max_m, args.max_n
    if max_m < 0 or max_n < 0:
        print("table bounds must be >= 0", file=sys.stderr)
        return 2
    # the exact values are the product: lift Python's int-to-str digit limit (3.10.7 on) for them alone
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        rows = [["-" if (cell := _table_cell(args.kind, m, n)) is None else str(cell) for n in range(max_n + 1)]
                for m in range(max_m + 1)]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    if args.kind == "T":
        print("warning: T(0,0) is not integral; cell rendered as '-'", file=sys.stderr)
    if args.format == "json":
        print(_dumps({"kind": args.kind, "max_m": max_m, "max_n": max_n, "rows": rows}))
    else:
        for row in rows:
            print("\t".join(row))
    return 0


def _report_json(report: VerificationReport) -> dict:
    return {
        "identity": report.identity,
        "bounds": report.bounds,
        "cases": report.cases,
        "passed": report.passed,
        "failures": [{field: str(value) for field, value in f._asdict().items()} for f in report.failures],
    }


def _report_lines(record: dict) -> list[str]:
    """The TSV lines of one :func:`_report_json` record."""
    bounds = ",".join(f"{k}={v}" for k, v in record["bounds"].items())
    return [
        f"identity\t{record['identity']}",
        f"bounds\t{bounds}",
        f"cases\t{record['cases']}",
        f"failures\t{len(record['failures'])}",
        f"passed\t{str(record['passed']).lower()}",
        *(f"failure\t{f['params']}\tlhs={f['lhs']}\trhs={f['rhs']}" for f in record["failures"]),
    ]


def _flag(bound: str) -> str:
    return "--" + bound.replace("_", "-")


def _cmd_verify(args) -> int:
    try:
        jobs = verify._check_jobs(args.jobs)
    except DomainError as exc:
        print(exc, file=sys.stderr)
        return 2
    names = list(verify.IDENTITIES) if args.identity == "all" else [args.identity]
    explicit = {"max_sum": args.max_sum, "max_m": args.max_m, "max_n": args.max_n}
    if args.identity != "all":
        # --max fills only the bounds a suite takes; an explicit bound must be one
        defaults = verify._plan(args.identity).bounds
        stray = [_flag(k) for k, v in explicit.items() if v is not None and k not in defaults]
        if stray:
            taken = " and ".join(_flag(k) for k in explicit if k in defaults)
            print(f"{args.identity} takes {taken}, not {' and '.join(stray)}", file=sys.stderr)
            return 2
    bounds = {key: args.max if value is None else value for key, value in explicit.items()}
    for name in names:
        plan = verify._plan(name, **bounds)
        if not args.force and (cost := _over_budget(map(plan.paths, reversed(plan.rows)))):
            print(
                f"{name}: refusing a sweep over at least {_paths_text(cost)} paths, more than the "
                f"{_BUDGET:,} budget; pass --force to run it anyway",
                file=sys.stderr,
            )
            return 2
    records = [_report_json(r) for r in verify.run_identities(names, **bounds, jobs=jobs)]
    if args.format == "json":
        print(_dumps(records[0] if args.identity != "all" else records))
    else:
        print("\n\n".join("\n".join(_report_lines(r)) for r in records))
    return 0 if all(r["passed"] for r in records) else 1


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
    table.add_argument("max_m", type=int, metavar="MAX_M")
    table.add_argument("max_n", type=int, metavar="MAX_N")
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
