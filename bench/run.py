"""Layered benchmark for the supercat CLI and its layers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-digests

Stdlib only; runs against ``src/`` of the checkout it sits in, with no
install step.  ``--trace 0`` times whole CLI processes with tracing off
and reports the end-to-end metrics, with times in reference seconds:
scaled by how fast the host ran a fixed piece of work next to them (see
``spawner.py`` and README.md).  ``--trace 1`` runs the same
invocations in-process, once untraced and once with span tracing of the
``numbers``, ``paths``, ``enumeration``, ``bijections``, ``verify`` and
``cli`` layers, and reports the per-layer metrics and the tracing
overhead.  Both print every metric with its unit and sample count, then,
as the last line, one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.

Every invocation is checked: it must exit 0, report ``passed`` true (for
``verify``), and print exactly the stdout bytes whose sha256 is recorded
in ``digests.json``.  The ``--jobs 1`` and ``--jobs N`` runs of an
invocation share one digest, so they must print identical bytes.
``--record-digests`` rewrites that file after checking each output
independently; see ``record_digests``.

See ``README.md`` next to this file for why each workload exists and
which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import subprocess
import sys
import time
import uuid
from collections import Counter
from pathlib import Path
from statistics import median
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
OUT = BENCH / "out"

# Marks where ``--jobs J`` goes; table commands have no --jobs option.
JOBS = "{jobs}"

# Each workload is a fixed list of CLI invocations; the seed only
# permutes the order they run in.  Why each one exists: README.md.
WORKLOADS: dict[str, list[list[str]]] = {
    "verify-all": [
        ["verify", "all", "--format", "json", JOBS],
    ],
    "m2-maps": [
        ["verify", "theorem4", "--max-n", "11", "--format", "json", JOBS],
        ["verify", "pairs", "--max-n", "10", "--format", "json", JOBS],
        ["verify", "bijection-f", "--max-n", "9", "--format", "json", JOBS],
        ["verify", "bijection-g", "--max-n", "9", "--format", "json", JOBS],
        ["verify", "pair-map", "--max-n", "9", "--format", "json", JOBS],
    ],
    "formula-grid": [
        ["table", "T", "200", "200", "--format", "json"],
        ["table", "B", "200", "200", "--format", "json"],
        ["verify", "rubenstein", "--max-m", "150", "--max-n", "150", "--format", "json", JOBS],
        ["verify", "ballot-sum", "--max-m", "60", "--max-n", "60", "--format", "json", JOBS],
        ["verify", "symmetry", "--max-sum", "300", "--format", "json", JOBS],
    ],
}

# A CLI invocation that does no work: interpreter start, ``import
# supercat`` and the parser build.  Repeated, and the median reported.
SETUP_ARGV = ["--help"]
SETUP_REPEATS = 9

# Timed wall times are scaled to a host on which one run of the reference
# work in reference.py takes this long (README.md, "Reference seconds").
REFERENCE_S = 0.1

# A hung invocation is killed so that one run ends within three minutes.
INVOCATION_TIMEOUT_S = 150
# stdout larger than this is hashed but not kept (tables are megabytes).
KEEP_STDOUT_BYTES = 1 << 16

E2E_UNITS = {
    "wall_s": "s",
    "wall_jobs_s": "s",
    "parallel_speedup": "x",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cases_per_s": "1/s",
}

LAYER_UNITS = {
    "enumeration.paths": "count",
    "enumeration.self_s": "s",
    "enumeration.paths_per_s": "1/s",
    "verify.cases": "count",
    "verify.self_s": "s",
    "verify.paths_per_case": "ratio",
    "bijections.maps": "count",
    "bijections.self_s": "s",
    "bijections.maps_per_s": "1/s",
    "paths.calls": "count",
    "paths.self_s": "s",
    "paths.validations_per_map": "ratio",
    "numbers.calls": "count",
    "numbers.self_s": "s",
    "numbers.cells_per_s": "1/s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_pct": "%",
    "trace.self_sum_s": "s",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def key_of(template: list[str]) -> str:
    """The digest key: the invocation without its --jobs setting."""
    return " ".join(arg for arg in template if arg != JOBS)


def expand(template: list[str], jobs: int) -> list[str]:
    out: list[str] = []
    for arg in template:
        out += ["--jobs", str(jobs)] if arg == JOBS else [arg]
    return out


def table_cells(template: list[str]) -> int:
    """Cells a ``table KIND MAX_M MAX_N`` invocation prints."""
    if template[0] != "table":
        return 0
    return (int(template[2]) + 1) * (int(template[3]) + 1)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # the CLI reads SUPERCAT_JOBS silently; every invocation passes --jobs
    env.pop("SUPERCAT_JOBS", None)
    return env


class Result(NamedTuple):
    """Outcome of one child process; ``stdout`` is None when too large to keep."""

    code: int
    wall_s: float
    scaled_s: float
    slices: int
    rss_mb: float
    sha256: str
    stdout: bytes | None
    stderr: bytes


class Spawner:
    """Runs child processes one at a time through ``spawner.py``, which
    times and reaps them; their stdout and stderr go to files under OUT."""

    def __init__(self):
        OUT.mkdir(exist_ok=True)
        self.stdout_file = OUT / "stdout.bin"
        self.stderr_file = OUT / "stderr.txt"
        self.proc = subprocess.Popen(
            [sys.executable, "-E", "-s", "-S", str(BENCH / "spawner.py"), repr(REFERENCE_S)],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, cmd: list[str], keep: int | None = KEEP_STDOUT_BYTES,
            scale: bool = False) -> Result:
        """Run ``cmd``; keep its stdout if it is at most ``keep`` bytes
        (None keeps any size).  ``scale`` times it in reference seconds
        as well (see spawner.py)."""
        request = {"argv": cmd, "stdout": str(self.stdout_file), "stderr": str(self.stderr_file),
                   "timeout": INVOCATION_TIMEOUT_S, "scale": scale}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner exited with code {self.proc.wait()}")
        reply = json.loads(line)
        digest = hashlib.sha256()
        size = 0
        with self.stdout_file.open("rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 16), b""):
                digest.update(chunk)
                size += len(chunk)
            handle.seek(0)
            stdout = handle.read() if keep is None or size <= keep else None
        stderr = self.stderr_file.read_bytes()[-4096:]
        return Result(reply["code"], reply["wall_s"], reply["scaled_s"], reply["slices"],
                      reply["rss_mb"], digest.hexdigest(),
                      stdout, stderr)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def cli_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-E", "-s", str(BENCH / "launch.py"), str(SRC), *argv]


def child_cmd(argv: list[str], run_id: str, trace: int) -> list[str]:
    return [sys.executable, "-E", "-s", str(BENCH / "child.py"), "--src", str(SRC),
            "--run-id", run_id, "--trace", str(trace), "--", *argv]


def verify_reports(stdout: bytes) -> list[dict]:
    """The report objects a ``verify --format json`` invocation printed."""
    payload = json.loads(stdout)
    return payload if isinstance(payload, list) else [payload]


class Checker:
    """Counts invocations and the ones that failed the correctness gate."""

    def __init__(self, digests: dict[str, str]):
        self.digests = digests
        self.attempted = 0
        self.failed = 0

    def check(self, template: list[str], code: int, sha256: str, stdout: bytes | None,
              stderr: bytes = b"") -> int:
        """Count one invocation; return the cases it verified (table cells
        for ``table``), or 0 if it failed."""
        self.attempted += 1
        key = key_of(template)
        problem = None
        cases = table_cells(template)
        if code != 0:
            problem = f"exit code {code}"
        elif sha256 != self.digests.get(key):
            problem = f"stdout sha256 {sha256} != recorded {self.digests.get(key)}"
        elif template[0] == "verify" and stdout is not None:
            try:
                reports = verify_reports(stdout)
            except ValueError as exc:
                problem = f"unreadable report: {exc}"
            else:
                if not all(r["passed"] for r in reports):
                    problem = "passed=false"
                cases = sum(int(r["cases"]) for r in reports)
        if problem:
            self.failed += 1
            tail = stderr.decode("utf-8", "replace").strip()[-500:]
            print(f"FAIL {key}: {problem}" + (f"\n  stderr: {tail}" if tail else ""), file=sys.stderr)
            return 0
        return cases


def run_e2e(spawner: Spawner, workload: str, seed: int, seconds: float,
            checker: Checker) -> tuple[dict, dict]:
    """Time CLI processes with tracing off, in reference seconds.  One
    iteration runs every invocation at --jobs 1 and again at --jobs nproc,
    in an order drawn from the seed; iterations repeat until ``seconds``
    would be exceeded."""
    jobs_n = nproc()
    started = time.perf_counter()
    spawner.run(cli_cmd(SETUP_ARGV))  # compile bytecode before anything is timed
    setup, raw_setup = [], []
    for _ in range(SETUP_REPEATS):
        res = spawner.run(cli_cmd(SETUP_ARGV), scale=True)
        if res.code != 0:
            raise RuntimeError(f"no-op invocation exited {res.code}: {res.stderr[-500:]!r}")
        setup.append(res.scaled_s)
        raw_setup.append(res.wall_s)

    rng = random.Random(seed)
    templates = WORKLOADS[workload]
    # pass 0 runs at --jobs 1, pass 1 at --jobs nproc
    steps = [(i, pass_) for i in range(len(templates)) for pass_ in (0, 1)]
    times: dict[tuple[int, int], list[float]] = {step: [] for step in steps}
    raw: dict[tuple[int, int], list[float]] = {step: [] for step in steps}
    cases = [0] * len(templates)
    peak_rss = 0.0
    iterations = slices = 0
    while True:
        t0 = time.perf_counter()
        digests: dict[int, set[str]] = {}
        for i, pass_ in rng.sample(steps, len(steps)):
            template = templates[i]
            res = spawner.run(cli_cmd(expand(template, (1, jobs_n)[pass_])), scale=True)
            got = checker.check(template, res.code, res.sha256, res.stdout, res.stderr)
            times[(i, pass_)].append(res.scaled_s)
            raw[(i, pass_)].append(res.wall_s)
            slices += res.slices
            if pass_ == 0:
                cases[i] = got
            peak_rss = max(peak_rss, res.rss_mb)
            digests.setdefault(i, set()).add(res.sha256)
        for i, seen in digests.items():
            # both runs were checked against one recorded digest, so a
            # difference has already been counted as a failure
            if len(seen) != 1:
                print(f"FAIL {key_of(templates[i])}: --jobs 1 and --jobs {jobs_n} outputs differ",
                      file=sys.stderr)
        iterations += 1
        now = time.perf_counter()
        if now - started + (now - t0) > seconds:
            break

    def workload_s(table: dict, pass_: int) -> float:
        """Per-invocation medians, summed over the workload."""
        return sum(median(table[(i, pass_)]) for i in range(len(templates)))

    wall_s = workload_s(times, 0)
    wall_jobs_s = workload_s(times, 1)
    print(f"  unscaled wall time: jobs 1 {workload_s(raw, 0):.4f} s, jobs {jobs_n} "
          f"{workload_s(raw, 1):.4f} s, setup {median(raw_setup):.4f} s; {slices} slices")
    metrics = {
        "wall_s": wall_s,
        "wall_jobs_s": wall_jobs_s,
        "parallel_speedup": wall_s / wall_jobs_s,
        "setup_s": median(setup),
        "peak_rss_mb": peak_rss,
        "cases_per_s": sum(cases) / wall_s,
    }
    samples = {
        "wall_s": iterations,
        "wall_jobs_s": iterations,
        "parallel_speedup": iterations,
        "setup_s": len(setup),
        "peak_rss_mb": iterations * len(steps),
        "cases_per_s": iterations,
    }
    return metrics, samples


def run_child_pass(spawner: Spawner, templates: list[list[str]], run_id: str, trace: int,
                   checker: Checker) -> list[dict]:
    summaries = []
    for template in templates:
        res = spawner.run(child_cmd(expand(template, 1), run_id, trace), keep=None)
        summary = json.loads(res.stdout) if res.code == 0 and res.stdout else None
        if summary is None:
            checker.attempted += 1
            checker.failed += 1
            print(f"FAIL {key_of(template)}: runner exited {res.code}: "
                  f"{res.stderr.decode('utf-8', 'replace')[-500:]}", file=sys.stderr)
            continue
        # the digest check needs no report text: a passing run's bytes are recorded
        checker.check(template, summary["code"], summary["sha256"], None)
        summary["template"] = template
        summaries.append(summary)
    return summaries


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_traced(spawner: Spawner, workload: str, seed: int, checker: Checker) -> tuple[dict, dict]:
    """Run each invocation at --jobs 1 in-process, untraced then traced,
    each in a fresh process as the CLI would be.  Returns the per-layer
    metrics and the per-(family, length) enumeration table, and writes
    the spans to a trace file."""
    run_id = uuid.uuid4().hex
    templates = random.Random(seed).sample(WORKLOADS[workload], len(WORKLOADS[workload]))
    plain = run_child_pass(spawner, templates, run_id, 0, checker)
    traced = run_child_pass(spawner, templates, run_id, 1, checker)

    self_s: Counter[str] = Counter()
    import_s: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    crossings: Counter[str] = Counter()
    rows: dict[tuple[str, int], list] = {}
    paths = cases = spans = stdout_bytes = 0
    for summary in traced:
        trace = summary["trace"]
        self_s.update(trace["self_s"])
        import_s.update(trace["import_s"])
        calls.update(trace["calls"])
        crossings.update(trace["crossings"])
        for family, length, n, seconds in trace["rows"]:
            row = rows.setdefault((family, length), [0, 0.0])
            row[0] += n
            row[1] += seconds
        paths += trace["paths"]
        cases += trace["verify_cases"]
        spans += len(trace["spans"])
        stdout_bytes += summary["stdout_bytes"]

        # spans nest inside the imports and cli.main, which the wall encloses
        invocation_self = sum(trace["self_s"].values())
        if invocation_self > summary["wall_s"] * (1 + 1e-9):
            checker.failed += 1
            print(f"FAIL {key_of(summary['template'])}: layer self times sum to "
                  f"{invocation_self:.6f} s > traced wall {summary['wall_s']:.6f} s", file=sys.stderr)

    def layer_calls(layer: str) -> int:
        return sum(v for k, v in calls.items() if k.startswith(layer + "."))

    def rate(count: int, layer: str) -> float:
        """Work per second of the layer's self time outside module imports."""
        return ratio(count, self_s[layer] - import_s[layer])

    maps = layer_calls("bijections")
    traced_wall = sum(s["wall_s"] for s in traced)
    plain_wall = sum(s["wall_s"] for s in plain)
    metrics = {
        "enumeration.paths": paths,
        "enumeration.self_s": self_s["enumeration"],
        "enumeration.paths_per_s": rate(paths, "enumeration"),
        "verify.cases": cases,
        "verify.self_s": self_s["verify"],
        "verify.paths_per_case": ratio(paths, cases),
        "bijections.maps": maps,
        "bijections.self_s": self_s["bijections"],
        "bijections.maps_per_s": rate(maps, "bijections"),
        "paths.calls": layer_calls("paths"),
        "paths.self_s": self_s["paths"],
        "paths.validations_per_map": ratio(
            calls["paths.is_dyck"] + calls["paths.is_motzkin2"], maps),
        "numbers.calls": layer_calls("numbers"),
        "numbers.self_s": self_s["numbers"],
        "numbers.cells_per_s": rate(crossings["numbers"], "numbers"),
        "cli.self_s": self_s["cli"],
        "cli.stdout_bytes": stdout_bytes,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_pct": 100 * ratio(traced_wall - plain_wall, plain_wall),
        "trace.self_sum_s": sum(self_s.values()),
    }

    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "run_id": run_id,
        "workload": workload,
        "seed": seed,
        "invocations": [
            {"argv": expand(s["template"], 1), "wall_s": s["wall_s"], "trace": s["trace"]}
            for s in traced
        ],
    }))
    print(f"trace: {spans} spans of at least 1 ms written to {trace_file.relative_to(ROOT)}")
    return metrics, rows


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_stats() -> tuple[int, str]:
    """Line count of the package sources, and a digest of their contents."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((SRC / "supercat").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, digest.hexdigest()[:16]


def record_digests() -> int:
    """Rewrite digests.json from the current program after checking each
    output independently: every verify report passes, the --jobs 1 and
    --jobs N bytes agree, and every table cell matches a formula computed
    here without the library."""
    digests = {}
    for templates in WORKLOADS.values():
        for template in templates:
            outs = {}
            for jobs in sorted({1, nproc()}):
                proc = subprocess.run(cli_cmd(expand(template, jobs)), cwd=ROOT, env=child_env(),
                                      capture_output=True, timeout=INVOCATION_TIMEOUT_S)
                if proc.returncode != 0:
                    raise SystemExit(f"{key_of(template)} --jobs {jobs} exited {proc.returncode}")
                outs[jobs] = proc.stdout
            if len(set(outs.values())) != 1:
                raise SystemExit(f"{key_of(template)}: outputs differ between job counts")
            stdout = outs[1]
            if template[0] == "verify":
                if not all(r["passed"] for r in verify_reports(stdout)):
                    raise SystemExit(f"{key_of(template)}: a report did not pass")
            else:
                check_table(template, json.loads(stdout))
            digests[key_of(template)] = hashlib.sha256(stdout).hexdigest()
            print(f"{digests[key_of(template)]}  {key_of(template)}")
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


def check_table(template: list[str], table: dict) -> None:
    kind, max_m, max_n = template[1], int(template[2]), int(template[3])
    f = math.factorial
    for m in range(max_m + 1):
        for n in range(max_n + 1):
            if kind == "T":
                want = None if m == n == 0 else f(2 * m) * f(2 * n) // (2 * f(m) * f(n) * f(m + n))
            elif kind == "B":
                # reflection count of up/down paths of length 2m-1 to level 2n-1
                want = (math.comb(2 * m - 1, m + n - 1) - math.comb(2 * m - 1, m + n)
                        if 1 <= n <= m else None)
            else:
                raise SystemExit(f"no independent check for table {kind}")
            cell = table["rows"][m][n]
            if cell != ("-" if want is None else str(want)):
                raise SystemExit(f"table {kind}({m},{n}) = {cell}, expected {want}")


def emit(correct: bool, checker: Checker, metrics: dict, units: dict, samples: dict) -> None:
    for name, unit in units.items():
        value = metrics[name]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:<28} {shown} {unit:<6} n={samples.get(name, 1)}")
    rate = ratio(checker.failed, checker.attempted)
    print(f"  {'error_rate':<28} {rate:>16.6g} {'share':<6} n={checker.attempted}")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description="supercat layered benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the current program")
    args = parser.parse_args()

    if not (SRC / "supercat" / "cli.py").is_file():
        print(f"error: no supercat sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")

    checker = Checker(json.loads(DIGESTS.read_text()))
    lines, src_digest = src_stats()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": nproc(),
        "git_sha": git_sha(),
        "src_digest": src_digest,
        "src_lines": lines,
    }
    print("meta " + json.dumps(meta))
    spawner = Spawner()
    try:
        if args.trace:
            metrics, rows = run_traced(spawner, args.workload, args.seed, checker)
            units, samples = LAYER_UNITS, {}
            for (family, length), (n, seconds) in sorted(rows.items()):
                print(f"  enumeration {family:<12} length {length:>3}: {n:>9} paths "
                      f"{ratio(n, seconds):>12.0f} paths/s")
        else:
            metrics, samples = run_e2e(spawner, args.workload, args.seed, args.seconds, checker)
            units = E2E_UNITS
    finally:
        spawner.close()
    correct = checker.failed == 0
    emit(correct, checker, metrics, units, samples)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
