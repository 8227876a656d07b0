"""Verification suites: each checks one identity exhaustively over a
parameter range and returns a :class:`VerificationReport`.

:func:`run_identities` and :func:`run_identity` are the only runners.  They
plan each named suite by its ``_REGISTRY`` plan, whose keyword-only defaults
are the default bounds (bounds checked, rows listed: each length m + n, or
each n of the m = 2 suites, each row's independent parts and its price, the
paths it enumerates), then run every (row, part) task of them all on one pool
of forked worker processes, priciest row first; :func:`path_cost` sums the
same prices.  Parts and rows merge per suite in order, so reports are identical
for every worker count.  A 2-Motzkin row tallies its path family once and reads
every (m, n) cell of its length off that pass.

A tally row (theorem1, theorem4, pairs), whose check reads only sums over its
paths, runs as one share per worker, every k-th engine prefix of k, if it costs
at least its plan's total over the worker count, and merges the shares by exact
sums before it checks; at one job its one share is the whole row.  Pathwise
rows keep whole parts, as their failures come in path order.

The m = 2 rows (bijection-f, bijection-g, pair-map) have one check,
:func:`_round_trips`: each of a row's two parts is a filtered walk stream,
its maps there and back, and the failures of one case.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from itertools import islice, product
from typing import BinaryIO, NamedTuple

from . import bijections as bij
from .enumeration import _dyck_walks, _motzkin2_walks, _pair_walks, _profiles, _Walk
from .errors import DomainError
from .numbers import ballot_number, ballot_sum_identity, catalan, super_catalan_t
from .paths import _DYCK, _MOTZKIN2, _reverse, _split


class Failure(NamedTuple):
    """One violated instance: the parameters and both sides."""

    params: tuple
    lhs: object
    rhs: object


class VerificationReport(NamedTuple):
    """Outcome of checking one identity over a parameter range."""

    identity: str
    bounds: dict[str, int]
    failures: tuple[Failure, ...]
    cases: int

    @property
    def passed(self) -> bool:
        return not self.failures


Row = tuple[list[Failure], int]


def _checked(cases: Iterable[tuple[tuple, object, object]]) -> Row:
    """Count ``(params, lhs, rhs)`` cases and keep those whose sides differ."""
    failures = []
    count = 0
    for params, lhs, rhs in cases:
        count += 1
        if lhs != rhs:
            failures.append(Failure(params, lhs, rhs))
    return failures, count


class _Plan(NamedTuple):
    """A planned suite: ``part(b)`` for each b in ``rows`` and each of the
    row's independent ``parts``, merged in that order.  ``paths(b)`` is row
    b's price, the paths its parts enumerate: none for a formula suite.  A
    tally plan has a ``merge`` and one part, ``part(b, share)``, a tally of one
    share of row b's paths; the row is ``merge(b, tallies)``, in share order."""

    identity: str
    bounds: dict[str, int]
    parts: tuple[Callable, ...]
    rows: range
    paths: Callable[[int], int] = lambda b: 0
    merge: Callable[[int, list], Row] | None = None


def _rows(identity: str, lo: int, *parts: Callable, paths: Callable[[int], int] = _Plan._field_defaults["paths"],
          merge: Callable[[int, list], Row] | None = None, **bounds: int) -> _Plan:
    """Rows lo..hi of the last bound, hi its value, each checked by a partial
    of every one of ``parts`` and the other bounds and priced by ``paths``."""
    *fixed, (bound, hi) = bounds.items()
    if hi < lo:
        raise DomainError(f"{identity} requires {bound} >= {lo}")
    args = dict(fixed).values()
    return _Plan(identity, bounds, tuple(partial(part, *args) for part in parts), range(lo, hi + 1), paths, merge)


# One part, or one share of a tally plan's part, of one row of a plan, run as ``part(b)``.
_Task = tuple[_Plan, int, Callable[[int], object]]


def _default_jobs() -> int:
    """The worker count when none is given: the CPUs this process may run on, or 1 without ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _check_jobs(jobs: int | None) -> int:
    """The worker count to run, :func:`_default_jobs` for None: the one rule on it, which the CLI checks too."""
    if jobs is None:
        return _default_jobs()
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1 and not hasattr(os, "fork"):
        raise DomainError(f"jobs must be 1 on a platform without os.fork, got {jobs}")
    return jobs


def _shares(plan: _Plan, jobs: int) -> list[tuple[Callable, ...]]:
    """Each row's tasks: its parts, or a tally row's shares, one per worker if
    the row costs at least its plan's total over ``jobs`` (the smaller rows
    already balance on the shared queue), else one."""
    if not plan.merge:
        return [plan.parts] * len(plan.rows)
    total = sum(map(plan.paths, plan.rows))
    counts = (jobs if plan.paths(b) * jobs >= total else 1 for b in plan.rows)
    return [tuple(partial(plan.parts[0], share=(i, k)) for i in range(k)) for k in counts]


def _execute(plans: list[_Plan], jobs: int) -> list[VerificationReport]:
    """Every plan's report.  At one job, or for one task, tasks run in order
    in this process; else on :func:`_forked` workers, priciest row first, each
    of a tally row's :func:`_shares` at its row's price."""
    jobs = _check_jobs(jobs)
    shares = [_shares(plan, jobs) for plan in plans]
    tasks = [(plan, b, part) for plan, row_parts in zip(plans, shares)
             for b, parts in zip(plan.rows, row_parts) for part in parts]
    if jobs == 1 or len(tasks) < 2:
        results = [part(b) for _, b, part in tasks]
    else:
        order = sorted(range(len(tasks)), key=lambda i: tasks[i][0].paths(tasks[i][1]), reverse=True)
        results = _forked(tasks, order, min(jobs, len(tasks)))
    reports, merged = [], iter(results)
    for plan, row_parts in zip(plans, shares):
        rows = [list(islice(merged, len(parts))) for parts in row_parts]
        rows = [plan.merge(b, row) for b, row in zip(plan.rows, rows)] if plan.merge else sum(rows, [])
        failures = tuple(failure for row_failures, _ in rows for failure in row_failures)
        reports.append(VerificationReport(plan.identity, plan.bounds, failures, sum(cases for _, cases in rows)))
    return reports


def _forked(tasks: list[_Task], order: list[int], workers: int) -> list[Row]:
    """Each task's row, in task order, from ``workers`` forked processes.

    The workers inherit ``tasks``.  The parent hands each idle worker the
    next index in ``order`` and reads back one pickle: the row, or the
    exception its part raised and the worker's traceback.  Once a task
    raises, no later task is handed out, and when every earlier one is done
    the earliest exception is raised, as one process would raise it, from a
    ``RuntimeError`` that holds the traceback.  A worker that exits before
    its pickle is whole raises ``RuntimeError`` naming its row.  Every
    worker is reaped on the way out, and one still busy is killed first."""
    import pickle  # deferred: most runs open no pool
    import select
    import signal

    outcomes: list[tuple[bool, object] | None] = [None] * len(tasks)
    queue = order[::-1]  # the next task last
    first = len(tasks)  # the earliest task known to have raised
    pool = {}  # by a worker's buffered result pipe: [its pid, its task pipe, its task or None]

    def reap(results: BinaryIO) -> int:
        pid, sender, task = pool.pop(results)
        results.close()
        os.close(sender)
        if task is not None:
            os.kill(pid, signal.SIGKILL)
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    try:
        for _ in range(workers):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid == 0:  # a worker, which must never return into the caller's code
                status = 1
                try:
                    for fd in (task_w, result_r, *(sender for _, sender, _ in pool.values())):
                        os.close(fd)
                    for results in pool:
                        os.close(results.fileno())
                    _serve(tasks, task_r, result_w)
                    status = 0
                finally:
                    os._exit(status)
            os.close(task_r)
            os.close(result_w)
            pool[open(result_r, "rb")] = [pid, task_w, None]
        while None in outcomes[:first]:
            for worker in pool.values():
                while worker[2] is None and queue:
                    if (i := queue.pop()) < first:
                        worker[2] = i
                        os.write(worker[1], i.to_bytes(4, "little"))  # under PIPE_BUF: one whole write
            busy = [results for results, (_, _, task) in pool.items() if task is not None]
            for results in select.select(busy, [], [])[0]:
                i, pool[results][2] = pool[results][2], None
                try:
                    outcomes[i] = pickle.load(results)
                except (EOFError, pickle.UnpicklingError):
                    plan, b, _ = tasks[i]
                    raise RuntimeError(f"{plan.identity} row {b}: a worker exited with code {reap(results)} "
                                       "before returning its result") from None
                if not outcomes[i][0]:
                    first = min(first, i)
        if first < len(tasks):
            error, trace = outcomes[first][1]
            raise error from RuntimeError(f"in a worker process:\n{trace}")
        return [row for _, row in outcomes]
    finally:
        for results in list(pool):
            reap(results)


def _serve(tasks: list[_Task], task_r: int, result_w: int) -> None:
    """Run each task whose index arrives on ``task_r`` until it closes, and
    pickle its outcome onto ``result_w``."""
    import pickle

    with open(result_w, "wb") as out:
        while index := os.read(task_r, 4):
            _, b, part = tasks[int.from_bytes(index, "little")]
            try:
                message = pickle.dumps((True, part(b)))
            except Exception as exc:  # raised by the parent, in task order
                import traceback

                message = pickle.dumps((False, (exc, traceback.format_exc())))
            # one whole pickle per write: pickle.dump into the pipe ran 20% slower on big rows
            out.write(message)
            out.flush()


def _theorem1_cells(s: int, tallies: list[list[list[int]]]) -> Row:
    """All cells with m + n == s, read off the summed level histograms of the
    shares of the 2-Motzkin paths of length s - 2 (byte profiles, no steps).

    At the point after m - 1 steps a path joins a walk from 0 to some level
    l and a reversed walk from l back to 0, so B(m, l+1) B(n, l+1) paths sit
    at level l.  Each cell checks its levels against those ballot products,
    reporting both sides as ``(level, count)`` pairs, and then its signed sum,
    each level's count times that level's sign, against T(m, n); a cell counts
    as one case."""
    hist = [list(map(sum, zip(*point))) for point in zip(*tallies)]
    failures = []
    for m in range(1, s):
        n = s - m
        counts = hist[m - 1]
        observed = tuple((level, count) for level, count in enumerate(counts) if count)
        expected = tuple((level, ballot_number(m, level + 1) * ballot_number(n, level + 1))
                         for level in range(min(m, n)))
        if observed != expected:
            failures.append(Failure((m, n), observed, expected))
        signed = sum(count * bij._sign(level) for level, count in observed)
        t = super_catalan_t(m, n)
        if signed != t:
            failures.append(Failure((m, n), signed, t))
    return failures, s - 1


def _theorem1(identity: str, *, max_sum: int = 14) -> _Plan:
    """P(m,n) - N(m,n) == T(m,n) for all m, n >= 1 with m + n <= max_sum,
    by exhausting the 2-Motzkin paths of each length."""
    return _rows(identity, 2, lambda s, share: bij._level_histogram(_profiles(s - 2, _MOTZKIN2, share), s - 2),
                 paths=lambda s: catalan(s - 1), merge=_theorem1_cells, max_sum=max_sum)


def _pathwise(s: int, failures: list[Failure], sides: Callable[[str, tuple[int, ...]], tuple]) -> Iterator[_Walk]:
    """Each 2-Motzkin walk of length s - 2, yielded once ``failures`` holds,
    in order, every m = 1..s-1 at whose point the walk's two ``sides`` differ."""
    for steps, levels in _motzkin2_walks(s - 2):
        lhs, rhs = sides(steps, levels)
        if lhs != rhs:
            failures.extend(Failure((m, s - m, steps), a, b) for m, a, b in zip(range(1, s), lhs, rhs) if a != b)
        yield steps, levels


def _theorem1_dyck_row(s: int) -> Row:
    failures, memo = [], {}  # memo: each distinct level profile, doubled

    def sides(steps: str, levels: tuple[int, ...]) -> tuple[tuple, tuple]:
        # the canonical bijection's odd points against the doubled profile
        if (doubled := memo.get(levels)) is None:
            doubled = memo[levels] = tuple(2 * level + 1 for level in levels)
        return bij._motzkin_to_dyck(steps)[1][1::2], doubled

    levels = (levels for _, levels in _pathwise(s, failures, sides))  # one pass for the checks and the tally
    hist = bij._level_histogram(iter(lambda: b"".join(map(bytes, islice(levels, 256))), b""), s - 2)
    paths = hist[0][0]  # every path starts at level 0
    # independent tally on the Dyck side: levels at each odd point, read mod 4
    dyck_hist = bij._level_histogram(_profiles(2 * s - 2, _DYCK), 2 * s - 2, slice(1, None, 2), _DYCK)

    def cell(m: int) -> tuple[tuple, object, object]:
        dyck = bij._mod4_split(dyck_hist[m - 1])
        motzkin = bij._sign_split(hist[m - 1])
        if dyck != motzkin:
            return (m, s - m), dyck, motzkin
        return (m, s - m), dyck[0] - dyck[1], super_catalan_t(m, s - m)

    cell_failures, cells = _checked(cell(m) for m in range(1, s))
    return failures + cell_failures, paths * (s - 1) + cells


def _theorem1_dyck(identity: str, *, max_sum: int = 12) -> _Plan:
    """The Dyck-path restatement: tallies by level mod 4 at the point after
    2m-1 steps agree componentwise with the 2-Motzkin tallies, and the
    level correspondence under the canonical bijection holds pathwise."""
    return _rows(identity, 2, _theorem1_dyck_row, paths=lambda s: 2 * catalan(s - 1), max_sum=max_sum)


def _reversal_row(s: int) -> Row:
    """Each path's signs at m = 1..s-1 against its mirror's at s-m, reversed:
    the mirror is built per path, the signs once per level profile."""
    failures, memo = [], {}  # memo: each distinct level profile's signs, one _sign call per point

    def sides(steps: str, levels: tuple[int, ...]) -> tuple[tuple, tuple]:
        mirrored = _reverse(steps)[1]
        if (signs := memo.get(levels)) is None:
            signs = memo[levels] = tuple(map(bij._sign, levels))
        if (mirror_signs := memo.get(mirrored)) is None:
            mirror_signs = memo[mirrored] = tuple(map(bij._sign, mirrored))
        return signs, mirror_signs[::-1]

    return failures, sum(1 for _ in _pathwise(s, failures, sides)) * (s - 1)


def _reversal(identity: str, *, max_sum: int = 12) -> _Plan:
    """Reading a path right to left preserves its sign: the weight at m of
    every 2-Motzkin path of length m+n-2 equals the weight at n of its reverse,
    whose levels are read from its mirrored steps; so T(m,n) = T(n,m)."""
    return _rows(identity, 2, _reversal_row, paths=lambda s: catalan(s - 1), max_sum=max_sum)


def _grid_row(sides: Callable[[int, int], tuple[int, int]], max_m: int, max_n: int) -> Row:
    """Both sides of every cell 1 <= m <= max_m, 1 <= n <= max_n."""
    cells = product(range(1, max_m + 1), range(1, max_n + 1))
    return _checked(((m, n), *sides(m, n)) for m, n in cells)


def _grid(identity: str, sides: Callable[[int, int], tuple[int, int]], max_m: int, max_n: int) -> _Plan:
    """A formula suite over a grid of (m, n) cells, run as one row."""
    if max_m < 1 or max_n < 1:
        raise DomainError(f"{identity} requires bounds >= 1")
    return _rows(identity, max_n, partial(_grid_row, sides), max_m=max_m, max_n=max_n)


def _rubenstein(identity: str, *, max_m: int = 50, max_n: int = 50) -> _Plan:
    """4 T(m,n) = T(m+1,n) + T(m,n+1) for all 1 <= m <= max_m,
    1 <= n <= max_n."""
    def sides(m: int, n: int) -> tuple[int, int]:
        return 4 * super_catalan_t(m, n), super_catalan_t(m + 1, n) + super_catalan_t(m, n + 1)

    return _grid(identity, sides, max_m, max_n)


def _ballot_sum(identity: str, *, max_m: int = 30, max_n: int = 30) -> _Plan:
    """The alternating ballot-product sum equals T(m,n); termwise equality
    of its two printed forms is asserted inside the evaluation."""
    return _grid(identity, lambda m, n: (ballot_sum_identity(m, n), super_catalan_t(m, n)), max_m, max_n)


def _symmetry_row(max_sum: int) -> Row:
    return _checked(
        ((m, s - m), super_catalan_t(m, s - m), super_catalan_t(s - m, m))
        for s in range(1, max_sum + 1)
        for m in range(0, s // 2 + 1)
    )


def _symmetry(identity: str, *, max_sum: int = 100) -> _Plan:
    """Formula-level T(m,n) = T(n,m) for all m + n <= max_sum."""
    if max_sum < 1:
        raise DomainError(f"{identity} requires max_sum >= 1")
    return _rows(identity, max_sum, _symmetry_row, max_sum=max_sum)


def _census(n: int, count: int) -> Row:
    return _checked([((n,), count, super_catalan_t(2, n))])


def _theorem4(identity: str, *, max_n: int = 10) -> _Plan:
    """The bounded-gap census over Dyck paths of length 2n (height-one path
    twice, in the one share that holds it) equals T(2,n) for every 1 <= n <= max_n."""
    return _rows(identity, 1, lambda n, share: sum(1 for _ in bij._theorem4_walks(n, share)), paths=catalan,
                 merge=lambda n, counts: _census(n, sum(counts)), max_n=max_n)


def _pairs(identity: str, *, max_n: int = 9) -> _Plan:
    """The number of ordered Dyck-path pairs of total length 2n with height
    difference at most 1 equals T(2,n) for every 1 <= n <= max_n, from the
    shares' height tallies per Dyck size."""
    return _rows(identity, 1, bij._heights, paths=lambda n: sum(map(catalan, range(n + 1))),
                 merge=lambda n, tallies: _census(n, bij._close_pairs(*tallies)), max_n=max_n)


def _round_trips(inputs: Iterable, there: Callable[[object], Iterable], back: Callable,
                 failed: Callable[[object, object, object], tuple[Failure, ...]]) -> Row:
    """The m = 2 rows' one check: each image y in ``there(x)`` of each input
    x, in order, is one case, with the failures ``failed(x, y, back(y))``
    returns for it, ``()`` when the round trip and any check on y hold."""
    failures = []
    cases = 0
    for x in inputs:
        for y in there(x):
            cases += 1
            failures.extend(failed(x, y, back(y)))
    return failures, cases


def _injection_sources(start: bij.StartClass, forward: Callable[[_Walk], _Walk],
                       inverse: Callable[[_Walk], _Walk], in_image: Callable[[tuple[int, ...]], bool],
                       n: int) -> Row:
    """``forward`` maps the Dyck walks of length 2n+2 in class ``start`` one
    to one onto the Dyck walks of length 2n whose levels satisfy ``in_image``,
    and ``inverse`` undoes it on both sides.  Both are unchecked cores on the
    engine's ``(steps, levels)`` walks, each checking its own output.  Here
    each input's round trip makes ``forward`` one to one and each image is
    checked to satisfy ``in_image``; :func:`_injection_targets`, the row's
    other part, puts every target in the image, so the image is exactly the
    targets.  No image is kept."""
    def failed(walk: _Walk, image: _Walk, back: _Walk) -> tuple[Failure, ...]:
        steps = walk[0]
        outside = () if in_image(image[1]) else (Failure((n, steps), image[0], "outside the expected image"),)
        return outside if back[0] == steps else (*outside, Failure((n, steps), back[0], steps))

    sources = (walk for walk in _dyck_walks(n + 1) if bij._start_class(*walk) is start)
    return _round_trips(sources, lambda walk: (forward(walk),), inverse, failed)


def _injection_targets(name: str, forward: Callable[[_Walk], _Walk], inverse: Callable[[_Walk], _Walk],
                       in_image: Callable[[tuple[int, ...]], bool], n: int) -> Row:
    """Each target, a Dyck walk of length 2n whose levels satisfy
    ``in_image``, round-trips through ``inverse`` and then ``forward``."""
    def failed(walk: _Walk, source: _Walk, back: _Walk) -> tuple[Failure, ...]:
        return () if back[0] == walk[0] else (Failure((n, walk[0]), f"{name}({name}_inv) != id", walk[0]),)

    targets = (walk for walk in _dyck_walks(n) if in_image(walk[1]))
    return _round_trips(targets, lambda walk: (inverse(walk),), forward, failed)


def _injection(identity: str, name: str, start: bij.StartClass, max_n: int, *maps: Callable) -> _Plan:
    """Rows 2..max_n: the sources of length 2n + 2, then the targets of length 2n, priced at both."""
    return _rows(identity, 2, partial(_injection_sources, start, *maps), partial(_injection_targets, name, *maps),
                 paths=lambda n: catalan(n + 1) + catalan(n), max_n=max_n)


def _bijection_f(identity: str, *, max_n: int = 8) -> _Plan:
    """Round-trips and image census of the first injection, for every
    2 <= n <= max_n: it is a bijection from the avoiding class onto the Dyck
    paths of height >= 2, missing exactly the height-one path."""
    return _injection(identity, "f", bij.StartClass.NSTAR, max_n,
                      bij._injection_f, bij._injection_f_inverse, bij._in_f_image)


def _bijection_g(identity: str, *, max_n: int = 8) -> _Plan:
    """Round-trips and image census of the two-stage injection, for every
    2 <= n <= max_n: it is a bijection from the attaining class onto the Dyck
    paths whose post-split maximum exceeds the pre-split maximum by at least
    3.  Its even-terminal intermediate's gap of at least 4 is asserted inside
    :func:`~supercat.bijections.g_intermediate`."""
    return _injection(identity, "g", bij.StartClass.NSTARSTAR, max_n,
                      bij._injection_g, bij._injection_g_inverse, bij._in_g_image)


def _pair_map_split(n: int) -> Row:
    """Each bounded-gap Dyck walk of length 2n splits into pairs that join
    back to it, with split heights (h_minus, h_plus - 1); one case per pair,
    and their count is T(2, n)."""
    def failed(walk: _Walk, pair: tuple[_Walk, _Walk], back: _Walk) -> tuple[Failure, ...]:
        steps, levels = walk
        records = () if back == walk else (Failure((n, steps), "from_pair(to_pair) != id", steps),)
        h, _, x = _split(levels)
        heights = (max(pair[0][1]), max(pair[1][1]))
        h_minus = max(levels[: x + 1])
        if h > 1 and heights != (h_minus, h - 1):
            records += (Failure((n, steps), heights, (h_minus, h - 1)),)
        return records

    walks = (walk for walk in _dyck_walks(n) if bij._bounded_gap(walk[1]))
    failures, cases = _round_trips(walks, bij._to_pair_all, lambda pair: bij._from_pair(*pair), failed)
    expected = super_catalan_t(2, n)
    if cases != expected:
        failures.append(Failure((n, "pair count"), cases, expected))
    return failures, cases


def _pair_map_recovery(n: int) -> Row:
    """Each pair of Dyck walks of total length 2n with heights at most 1
    apart is among the pairs its join splits into."""
    def failed(pair: tuple[_Walk, _Walk], joined: _Walk, pairs: tuple) -> tuple[Failure, ...]:
        return () if pair in pairs else (Failure((n, pair[0][0], pair[1][0]), joined[0], "pair not recovered"),)

    close = (pair for pair in _pair_walks(n) if bij._close(max(pair[0][1]), max(pair[1][1])))
    return _round_trips(close, lambda pair: (bij._from_pair(*pair),), bij._to_pair_all, failed)


def _pair_map(identity: str, *, max_n: int = 8) -> _Plan:
    """The pair split and its inverse are mutually inverse, split heights
    match the pre/post maxima, and the pair multiset is counted by T(2,n).
    Row n is priced at its C(n) split walks and the C(n + 1) pairs it compares."""
    return _rows(identity, 1, _pair_map_split, _pair_map_recovery,
                 paths=lambda n: catalan(n) + catalan(n + 1), max_n=max_n)


# Every identity, in the order `supercat verify all` runs them, and its plan.
# Default bounds live only in the plans' keyword-only defaults, and each name
# only in its key, which :func:`_plan` passes to the plan.
_REGISTRY: dict[str, Callable[..., _Plan]] = {
    "theorem1": _theorem1,
    "theorem1-dyck": _theorem1_dyck,
    "rubenstein": _rubenstein,
    "ballot-sum": _ballot_sum,
    "symmetry": _symmetry,
    "theorem4": _theorem4,
    "pairs": _pairs,
    "bijection-f": _bijection_f,
    "bijection-g": _bijection_g,
    "pair-map": _pair_map,
    "reversal": _reversal,
}
IDENTITIES = tuple(_REGISTRY)


def _plan(name: str, **overrides: int | None) -> _Plan:
    """The named suite's plan, given its name, at its keyword-only default bounds,
    each replaced by an override it takes that is not None (an explicit 0 reaches the plan)."""
    if name not in _REGISTRY:
        raise DomainError(f"unknown identity {name!r}")
    plan = _REGISTRY[name]
    return plan(name, **{k: v if overrides.get(k) is None else overrides[k] for k, v in plan.__kwdefaults__.items()})


def run_identities(names: Iterable[str], *, max_sum: int | None = None, max_m: int | None = None,
                   max_n: int | None = None, jobs: int = 1) -> list[VerificationReport]:
    """Plan each named suite, with its default bounds unless overridden, and
    only then run every row of them all on ``jobs`` worker processes."""
    return _execute([_plan(name, max_sum=max_sum, max_m=max_m, max_n=max_n) for name in names], jobs)


def run_identity(name: str, *, jobs: int = 1, **overrides: int | None) -> VerificationReport:
    """Run one named suite with its default bounds unless overridden."""
    return run_identities([name], jobs=jobs, **overrides)[0]


def path_cost(name: str, *, max_sum: int | None = None, max_m: int | None = None,
              max_n: int | None = None) -> int:
    """Paths :func:`run_identity` would enumerate with the same overrides:
    the sum of its plan's row prices.  Raises the plan's :class:`DomainError`
    on bounds the suite refuses."""
    plan = _plan(name, max_sum=max_sum, max_m=max_m, max_n=max_n)
    return sum(map(plan.paths, plan.rows))
