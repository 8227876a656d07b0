"""Verification suites: each checks one identity exhaustively over a
parameter range and returns a :class:`VerificationReport`.

A suite is planned (bounds checked, rows listed: each length m + n, or each n
of the m = 2 suites), then run; :func:`run_identities` plans every named suite,
then runs all their rows on one process pool, priciest first.  Rows merge per
suite in order, so reports are identical for every worker count.  A 2-Motzkin
row tallies its path family once and reads every (m, n) cell of its length off
that pass.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import partial, wraps
from itertools import islice, product
from typing import NamedTuple

from . import bijections as bij
from .enumeration import _dyck_walks, _motzkin2_walks, _pair_walks, _Walk
from .errors import DomainError
from .numbers import ballot_number, ballot_sum_identity, catalan, super_catalan_t
from .paths import _markers, _reverse


class Failure(NamedTuple):
    """One violated instance: the parameters and both sides."""

    params: tuple
    lhs: object
    rhs: object


@dataclass(frozen=True)
class VerificationReport:
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
    """A planned suite: ``row(b)`` for each b in ``rows``, merged in order."""

    identity: str
    bounds: dict[str, int]
    row: Callable[[int], Row]
    rows: range


def _rows(identity: str, row: Callable[..., Row], lo: int, **bounds: int) -> _Plan:
    """Rows lo..hi of the last bound, hi its value, checked by a partial of
    ``row`` and the other bounds; it reaches workers pickled."""
    *fixed, (bound, hi) = bounds.items()
    if hi < lo:
        raise DomainError(f"{identity} requires {bound} >= {lo}")
    return _Plan(identity, bounds, partial(row, *dict(fixed).values()), range(lo, hi + 1))


def _row_cost(plan: _Plan, b: int) -> int:
    """Row b's share of its suite's registry cost: cost(b) - cost(b - 1)."""
    cost, bound = _REGISTRY[plan.identity][1], [*plan.bounds][-1]
    return cost(**{**plan.bounds, bound: b}) - cost(**{**plan.bounds, bound: b - 1})


def _execute(plans: list[_Plan], jobs: int) -> list[VerificationReport]:
    """Every plan's report.  At one job, or for one row, rows run in order in
    this process; else on one pool, priciest row first.  Results are read in
    plan order, so a raising row raises what one job would, and cancels the
    rows still queued."""
    if jobs < 1:
        raise DomainError(f"{plans[0].identity} requires jobs >= 1")
    tasks = [(plan, b) for plan in plans for b in plan.rows]
    if jobs == 1 or len(tasks) < 2:
        results = [plan.row(b) for plan, b in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # deferred: most runs never open a pool

        order = sorted(range(len(tasks)), key=lambda i: _row_cost(*tasks[i]), reverse=True)
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            futures = {i: pool.submit(tasks[i][0].row, tasks[i][1]) for i in order}
            try:
                results = [futures[i].result() for i in range(len(tasks))]
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    reports, merged = [], iter(results)
    for plan in plans:
        rows = list(islice(merged, len(plan.rows)))
        failures = tuple(failure for row_failures, _ in rows for failure in row_failures)
        reports.append(VerificationReport(plan.identity, plan.bounds, failures, sum(cases for _, cases in rows)))
    return reports


def _suite(plan: Callable[..., _Plan]) -> Callable[..., VerificationReport]:
    """The suite that runs ``plan`` on ``jobs`` workers; ``__wrapped__`` is the plan."""
    return wraps(plan)(lambda *args, jobs=1, **bounds: _execute([plan(*args, **bounds)], jobs)[0])


def _theorem1_row(s: int) -> Row:
    """All cells with m + n == s, read off one level histogram of the
    2-Motzkin paths of length s - 2.

    At the point after m - 1 steps a path joins a walk from 0 to some level
    l and a reversed walk from l back to 0, so B(m, l+1) B(n, l+1) paths sit
    at level l.  Each cell checks its levels against those ballot products,
    reporting both sides as ``(level, count)`` pairs, and then its signed sum
    against T(m, n); a cell counts as one case."""
    hist = bij._level_histogram(_motzkin2_walks(s - 2), s - 2)
    failures = []
    for m in range(1, s):
        n = s - m
        counts = hist[m - 1]
        observed = tuple((level, count) for level, count in enumerate(counts) if count)
        expected = tuple((level, ballot_number(m, level + 1) * ballot_number(n, level + 1))
                         for level in range(min(m, n)))
        if observed != expected:
            failures.append(Failure((m, n), observed, expected))
        even, odd = bij._parity_split(counts)
        t = super_catalan_t(m, n)
        if even - odd != t:
            failures.append(Failure((m, n), even - odd, t))
    return failures, s - 1


@_suite
def verify_theorem1(max_sum: int = 14) -> _Plan:
    """P(m,n) - N(m,n) == T(m,n) for all m, n >= 1 with m + n <= max_sum,
    by exhausting the 2-Motzkin paths of each length."""
    return _rows("theorem1", _theorem1_row, 2, max_sum=max_sum)


def _theorem1_dyck_row(s: int) -> Row:
    failures, ms = [], range(1, s)
    memo: dict[tuple[int, ...], tuple[int, ...]] = {}

    def pathwise() -> Iterator[tuple[str, tuple[int, ...]]]:
        # the canonical bijection's odd points against the doubled profile, on the histogram's stream
        for steps, levels in _motzkin2_walks(s - 2):
            got = bij._motzkin_to_dyck(steps)[1][1::2]
            if levels not in memo:
                memo[levels] = tuple(2 * level + 1 for level in levels)
            want = memo[levels]
            if got != want:  # then every m whose sides differ, in order
                failures.extend(Failure((m, s - m, steps), a, b) for m, a, b in zip(ms, got, want) if a != b)
            yield steps, levels

    hist = bij._level_histogram(pathwise(), s - 2)
    paths = hist[0][0]  # every path starts at level 0
    # independent tally on the Dyck side: levels at each odd point, read mod 4
    dyck_hist = bij._level_histogram(_dyck_walks(s - 1), 2 * s - 2, slice(1, None, 2))

    def cell(m: int) -> tuple[tuple, object, object]:
        dyck = bij._mod4_split(dyck_hist[m - 1])
        motzkin = bij._parity_split(hist[m - 1])
        if dyck != motzkin:
            return (m, s - m), dyck, motzkin
        return (m, s - m), dyck[0] - dyck[1], super_catalan_t(m, s - m)

    cell_failures, cells = _checked(cell(m) for m in range(1, s))
    return failures + cell_failures, paths * (s - 1) + cells


@_suite
def verify_theorem1_dyck(max_sum: int = 12) -> _Plan:
    """The Dyck-path restatement: tallies by level mod 4 at the point after
    2m-1 steps agree componentwise with the 2-Motzkin tallies, and the
    level correspondence under the canonical bijection holds pathwise."""
    return _rows("theorem1-dyck", _theorem1_dyck_row, 2, max_sum=max_sum)


def _reversal_row(s: int) -> Row:
    """Each path's signs at m = 1..s-1 against its mirror's at s-m, reversed:
    the mirror is built per path, the signs once per level profile."""
    failures, cases, ms = [], 0, range(1, s)
    memo: dict[tuple[int, ...], tuple[int, ...]] = {}

    def signs(levels: tuple[int, ...]) -> tuple[int, ...]:
        if levels not in memo:  # one _sign call per distinct (profile, m)
            memo[levels] = tuple(bij._sign(levels, m) for m in ms)
        return memo[levels]

    for steps, levels in _motzkin2_walks(s - 2):
        lhs, rhs = signs(levels), signs(_reverse(steps)[1])[::-1]
        if lhs != rhs:  # then every m whose sides differ, in order
            failures.extend(Failure((m, s - m, steps), a, b) for m, a, b in zip(ms, lhs, rhs) if a != b)
        cases += s - 1
    return failures, cases


@_suite
def verify_reversal(max_sum: int = 12) -> _Plan:
    """Reading a path right to left preserves its sign: the weight at m of
    every 2-Motzkin path of length m+n-2 equals the weight at n of its reverse,
    whose levels are read from its mirrored steps; so T(m,n) = T(n,m)."""
    return _rows("reversal", _reversal_row, 2, max_sum=max_sum)


def _rubenstein_row(max_m: int, max_n: int) -> Row:
    return _checked(
        ((m, n), 4 * super_catalan_t(m, n), super_catalan_t(m + 1, n) + super_catalan_t(m, n + 1))
        for m, n in product(range(1, max_m + 1), range(1, max_n + 1))
    )


@_suite
def verify_rubenstein(max_m: int = 50, max_n: int = 50) -> _Plan:
    """4 T(m,n) = T(m+1,n) + T(m,n+1) for all 1 <= m <= max_m,
    1 <= n <= max_n."""
    if max_m < 1 or max_n < 1:
        raise DomainError("rubenstein requires bounds >= 1")
    return _rows("rubenstein", _rubenstein_row, max_n, max_m=max_m, max_n=max_n)


def _ballot_sum_row(max_m: int, max_n: int) -> Row:
    return _checked(
        ((m, n), ballot_sum_identity(m, n), super_catalan_t(m, n))
        for m, n in product(range(1, max_m + 1), range(1, max_n + 1))
    )


@_suite
def verify_ballot_sum(max_m: int = 30, max_n: int = 30) -> _Plan:
    """The alternating ballot-product sum equals T(m,n); termwise equality
    of its two printed forms is asserted inside the evaluation."""
    if max_m < 1 or max_n < 1:
        raise DomainError("ballot-sum requires bounds >= 1")
    return _rows("ballot-sum", _ballot_sum_row, max_n, max_m=max_m, max_n=max_n)


def _symmetry_row(max_sum: int) -> Row:
    return _checked(
        ((m, s - m), super_catalan_t(m, s - m), super_catalan_t(s - m, m))
        for s in range(1, max_sum + 1)
        for m in range(0, s // 2 + 1)
    )


@_suite
def verify_symmetry(max_sum: int = 100) -> _Plan:
    """Formula-level T(m,n) = T(n,m) for all m + n <= max_sum."""
    if max_sum < 1:
        raise DomainError("symmetry requires max_sum >= 1")
    return _rows("symmetry", _symmetry_row, max_sum, max_sum=max_sum)


def _census_row(census: Callable[[int], int], n: int) -> Row:
    return _checked([((n,), census(n), super_catalan_t(2, n))])


@_suite
def verify_theorem4(max_n: int = 10) -> _Plan:
    """The bounded-gap census over Dyck paths of length 2n (height-one path
    twice) equals T(2,n) for every 1 <= n <= max_n."""
    return _rows("theorem4", partial(_census_row, bij.theorem4_census), 1, max_n=max_n)


@_suite
def verify_pairs(max_n: int = 9) -> _Plan:
    """The number of ordered Dyck-path pairs of total length 2n with height
    difference at most 1 equals T(2,n) for every 1 <= n <= max_n."""
    return _rows("pairs", partial(_census_row, bij.pair_census), 1, max_n=max_n)


def _injection_row(name: str, start: bij.StartClass, forward: Callable[[_Walk], _Walk],
                   inverse: Callable[[_Walk], _Walk], in_image: Callable[[tuple[int, ...]], bool],
                   n: int) -> Row:
    """``forward`` maps the Dyck walks of length 2n+2 in class ``start`` one
    to one onto the Dyck walks of length 2n whose levels satisfy ``in_image``,
    and ``inverse`` undoes it on both sides.  Both are unchecked cores on the
    engine's ``(steps, levels)`` walks, each checking its own output.  Each
    input's round trip makes ``forward`` one to one, each image is checked to
    satisfy ``in_image``, and each target's round trip puts it in the image,
    so the image is exactly the targets; no image is kept."""
    failures = []
    cases = 0
    for walk in _dyck_walks(n + 1):
        steps, levels = walk
        if bij._start_class(steps, levels) is not start:
            continue
        cases += 1
        image = forward(walk)
        if not in_image(image[1]):
            failures.append(Failure((n, steps), image[0], "outside the expected image"))
        back = inverse(image)[0]
        if back != steps:
            failures.append(Failure((n, steps), back, steps))
    for walk in _dyck_walks(n):
        steps, levels = walk
        if not in_image(levels):
            continue
        cases += 1
        if forward(inverse(walk))[0] != steps:
            failures.append(Failure((n, steps), f"{name}({name}_inv) != id", steps))
    return failures, cases


@_suite
def verify_bijection_f(max_n: int = 8) -> _Plan:
    """Round-trips and image census of the first injection, for every
    2 <= n <= max_n: it is a bijection from the avoiding class onto the Dyck
    paths of height >= 2, missing exactly the height-one path."""
    row = partial(_injection_row, "f", bij.StartClass.NSTAR, bij._injection_f, bij._injection_f_inverse,
                  bij._in_f_image)
    return _rows("bijection-f", row, 2, max_n=max_n)


@_suite
def verify_bijection_g(max_n: int = 8) -> _Plan:
    """Round-trips and image census of the two-stage injection, for every
    2 <= n <= max_n: it is a bijection from the attaining class onto the Dyck
    paths whose post-split maximum exceeds the pre-split maximum by at least
    3.  Its even-terminal intermediate's gap of at least 4 is asserted inside
    :func:`~supercat.bijections.g_intermediate`."""
    row = partial(_injection_row, "g", bij.StartClass.NSTARSTAR, bij._injection_g, bij._injection_g_inverse,
                  bij._in_g_image)
    return _rows("bijection-g", row, 2, max_n=max_n)


def _pair_map_row(n: int) -> Row:
    failures = []
    cases = 0
    for walk in _dyck_walks(n):
        steps, levels = walk
        mk = _markers(levels)
        if not bij._bounded_gap(mk):
            continue
        pairs = bij._to_pair_all(walk, mk)
        for pair in pairs:
            cases += 1
            if bij._from_pair(*pair) != walk:
                failures.append(Failure((n, steps), "from_pair(to_pair) != id", steps))
        if mk.height > 1:
            heights = (max(pairs[0][0][1]), max(pairs[0][1][1]))
            if heights != (mk.h_minus, mk.h_plus - 1):
                failures.append(Failure((n, steps), heights, (mk.h_minus, mk.h_plus - 1)))
    expected = super_catalan_t(2, n)
    if cases != expected:  # so far one case per pair
        failures.append(Failure((n, "pair count"), cases, expected))
    for pair in _pair_walks(n):
        first, second = pair
        if not bij._close(max(first[1]), max(second[1])):
            continue
        cases += 1
        joined = bij._from_pair(first, second)
        if pair not in bij._to_pair_all(joined, _markers(joined[1])):
            failures.append(Failure((n, first[0], second[0]), joined[0], "pair not recovered"))
    return failures, cases


@_suite
def verify_pair_map(max_n: int = 8) -> _Plan:
    """The pair split and its inverse are mutually inverse, split heights
    match the pre/post maxima, and the pair multiset is counted by T(2,n)."""
    return _rows("pair-map", _pair_map_row, 1, max_n=max_n)


def _catalan_sum(lo: int, hi: int) -> int:
    return sum(catalan(n) for n in range(lo, hi + 1))


def _rows_cost(max_sum: int) -> int:
    return _catalan_sum(1, max_sum - 1)  # row s: the C(s-1) 2-Motzkin paths of length s-2


def _injection_cost(max_n: int) -> int:
    return _catalan_sum(3, max_n + 1) + _catalan_sum(2, max_n)


# Every identity, in the order `supercat verify all` runs them: its suite and
# the paths that suite enumerates, given its bounds.  Default bounds live only
# in the suite signatures.
_REGISTRY: dict[str, tuple[Callable[..., VerificationReport], Callable[..., int]]] = {
    "theorem1": (verify_theorem1, _rows_cost),
    "theorem1-dyck": (verify_theorem1_dyck, lambda max_sum: 2 * _rows_cost(max_sum)),
    "rubenstein": (verify_rubenstein, lambda **_: 0),
    "ballot-sum": (verify_ballot_sum, lambda **_: 0),
    "symmetry": (verify_symmetry, lambda **_: 0),
    "theorem4": (verify_theorem4, lambda max_n: _catalan_sum(1, max_n)),
    "pairs": (verify_pairs, lambda max_n: sum(_catalan_sum(0, n) for n in range(1, max_n + 1))),
    "bijection-f": (verify_bijection_f, _injection_cost),
    "bijection-g": (verify_bijection_g, _injection_cost),
    "pair-map": (verify_pair_map, lambda max_n: _catalan_sum(1, max_n) + _catalan_sum(2, max_n + 1)),
    "reversal": (verify_reversal, _rows_cost),
}
IDENTITIES = tuple(_REGISTRY)


def _resolve(name: str, **overrides: int | None):
    """The named suite's plan, its cost and its signature's default bounds, replaced
    by each override it takes that is not None (an explicit 0 reaches the plan)."""
    if name not in _REGISTRY:
        raise DomainError(f"unknown identity {name!r}")
    suite, cost = _REGISTRY[name]
    params = inspect.signature(suite).parameters
    bounds = {k: p.default if overrides.get(k) is None else overrides[k] for k, p in params.items()}
    return suite.__wrapped__, cost, bounds


def run_identities(names: Iterable[str], *, max_sum: int | None = None, max_m: int | None = None,
                   max_n: int | None = None, jobs: int = 1) -> list[VerificationReport]:
    """Plan each named suite, with its default bounds unless overridden, and
    only then run every row of them all on ``jobs`` worker processes."""
    resolved = [_resolve(name, max_sum=max_sum, max_m=max_m, max_n=max_n) for name in names]
    return _execute([plan(**bounds) for plan, _, bounds in resolved], jobs)


def run_identity(name: str, *, jobs: int = 1, **overrides: int | None) -> VerificationReport:
    """Run one named suite with its default bounds unless overridden."""
    return run_identities([name], jobs=jobs, **overrides)[0]


def path_cost(name: str, *, max_sum: int | None = None, max_m: int | None = None,
              max_n: int | None = None) -> int:
    """Paths :func:`run_identity` would enumerate with the same overrides."""
    _, cost, bounds = _resolve(name, max_sum=max_sum, max_m=max_m, max_n=max_n)
    return cost(**bounds)
