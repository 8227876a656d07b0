"""Verification suites: each checks one identity exhaustively over a
parameter range and returns a :class:`~supercat.numbers.VerificationReport`.

The enumeration-backed suites tally a whole path family once per total
length and read every (m, n) cell of that length off the same pass, so
the sweep stays exhaustive without re-enumerating per cell.  Suites that
partition cleanly by total length take a ``jobs`` argument and fan rows
out to a process pool; rows merge in order, so reports are identical for
every worker count.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor

from . import bijections as bij
from .enumeration import enum_dyck, enum_motzkin2, enum_pairs_total
from .errors import DomainError
from .numbers import (
    Failure,
    VerificationReport,
    ballot_sum_identity,
    catalan,
    check_rubenstein,
    super_catalan_t,
)
from .paths import markers, parse_path, reverse

Row = tuple[list[Failure], int]


def _map_rows(fn: Callable[[int], Row], args: Sequence[int], jobs: int) -> list[Row]:
    if jobs <= 1 or len(args) <= 1:
        return [fn(a) for a in args]
    with ProcessPoolExecutor(max_workers=min(jobs, len(args))) as pool:
        return list(pool.map(fn, args))


def _merge(identity: str, bounds: dict[str, int], rows: Iterable[Row]) -> VerificationReport:
    failures: list[Failure] = []
    cases = 0
    for row_failures, row_cases in rows:
        failures.extend(row_failures)
        cases += row_cases
    return VerificationReport(identity, bounds, tuple(failures), cases)


def _theorem1_row(s: int) -> Row:
    """All cells with m + n == s: tally even-level counts at every point of
    every 2-Motzkin path of length s - 2 in one pass."""
    k = s - 2
    even = [0] * (k + 1)
    total = 0
    for path in enum_motzkin2(k):
        total += 1
        for x, lv in enumerate(path.levels):
            if not lv & 1:
                even[x] += 1
    failures = []
    for m in range(1, s):
        n = s - m
        diff = 2 * even[m - 1] - total
        expected = super_catalan_t(m, n)
        if diff != expected:
            failures.append(Failure((m, n), diff, expected))
    return failures, s - 1


def verify_theorem1(max_sum: int = 14, jobs: int = 1) -> VerificationReport:
    """P(m,n) - N(m,n) == T(m,n) for all m, n >= 1 with m + n <= max_sum,
    by exhausting the 2-Motzkin paths of each length."""
    if max_sum < 2:
        raise DomainError("verify_theorem1 requires max_sum >= 2")
    rows = _map_rows(_theorem1_row, range(2, max_sum + 1), jobs)
    return _merge("theorem1", {"max_sum": max_sum}, rows)


def _theorem1_dyck_row(s: int) -> Row:
    failures = []
    cases = 0
    # independent tally on the Dyck side: level mod 4 at each odd point
    mod4_pos = [0] * s
    total_dyck = 0
    for path in enum_dyck(s - 1):
        total_dyck += 1
        levels = path.levels
        for m in range(1, s):
            if levels[2 * m - 1] % 4 == 1:
                mod4_pos[m] += 1
    even = [0] * (s - 1)
    total = 0
    for path in enum_motzkin2(s - 2):
        total += 1
        for x, lv in enumerate(path.levels):
            if not lv & 1:
                even[x] += 1
        # pathwise correspondence under the canonical bijection
        image = bij.motzkin_to_dyck(path)
        for m in range(1, s):
            cases += 1
            got = image.levels[2 * m - 1]
            want = 2 * path.levels[m - 1] + 1
            if got != want:
                failures.append(Failure((m, s - m, path.steps), got, want))
    for m in range(1, s):
        n = s - m
        cases += 1
        dyck_cell = (mod4_pos[m], total_dyck - mod4_pos[m])
        motzkin_cell = (even[m - 1], total - even[m - 1])
        if dyck_cell != motzkin_cell:
            failures.append(Failure((m, n), dyck_cell, motzkin_cell))
        elif dyck_cell[0] - dyck_cell[1] != super_catalan_t(m, n):
            failures.append(
                Failure((m, n), dyck_cell[0] - dyck_cell[1], super_catalan_t(m, n))
            )
    return failures, cases


def verify_theorem1_dyck(max_sum: int = 12, jobs: int = 1) -> VerificationReport:
    """The Dyck-path restatement: tallies by level mod 4 at the point after
    2m-1 steps agree componentwise with the 2-Motzkin tallies, and the
    level correspondence under the canonical bijection holds pathwise."""
    if max_sum < 2:
        raise DomainError("verify_theorem1_dyck requires max_sum >= 2")
    rows = _map_rows(_theorem1_dyck_row, range(2, max_sum + 1), jobs)
    return _merge("theorem1-dyck", {"max_sum": max_sum}, rows)


def _reversal_row(s: int) -> Row:
    failures = []
    cases = 0
    for path in enum_motzkin2(s - 2):
        mirrored = reverse(path)
        for m in range(1, s):
            n = s - m
            cases += 1
            if bij.weight(path, m) != bij.weight(mirrored, n):
                failures.append(
                    Failure((m, n, path.steps), bij.weight(path, m), bij.weight(mirrored, n))
                )
    return failures, cases


def verify_reversal(max_sum: int = 12, jobs: int = 1) -> VerificationReport:
    """Reading a path right to left preserves its sign: the weight at m of
    every 2-Motzkin path of length m+n-2 equals the weight at n of its
    reverse.  This is the combinatorial symmetry T(m,n) = T(n,m)."""
    if max_sum < 2:
        raise DomainError("verify_reversal requires max_sum >= 2")
    rows = _map_rows(_reversal_row, range(2, max_sum + 1), jobs)
    return _merge("reversal", {"max_sum": max_sum}, rows)


def verify_rubenstein(max_m: int = 50, max_n: int = 50) -> VerificationReport:
    """4 T(m,n) = T(m+1,n) + T(m,n+1) over the full grid."""
    return check_rubenstein(max_m, max_n)


def verify_ballot_sum(max_m: int = 30, max_n: int = 30) -> VerificationReport:
    """The alternating ballot-product sum equals T(m,n); termwise equality
    of its two printed forms is asserted inside the evaluation."""
    if max_m < 1 or max_n < 1:
        raise DomainError("verify_ballot_sum requires bounds >= 1")
    failures = []
    cases = 0
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            cases += 1
            lhs = ballot_sum_identity(m, n)
            rhs = super_catalan_t(m, n)
            if lhs != rhs:
                failures.append(Failure((m, n), lhs, rhs))
    return VerificationReport(
        "ballot-sum", {"max_m": max_m, "max_n": max_n}, tuple(failures), cases
    )


def verify_symmetry(max_sum: int = 100) -> VerificationReport:
    """Formula-level T(m,n) = T(n,m) for all m + n <= max_sum."""
    if max_sum < 1:
        raise DomainError("verify_symmetry requires max_sum >= 1")
    failures = []
    cases = 0
    for s in range(1, max_sum + 1):
        for m in range(0, s // 2 + 1):
            n = s - m
            cases += 1
            if super_catalan_t(m, n) != super_catalan_t(n, m):
                failures.append(Failure((m, n), super_catalan_t(m, n), super_catalan_t(n, m)))
    return VerificationReport("symmetry", {"max_sum": max_sum}, tuple(failures), cases)


def verify_theorem4(max_n: int = 10) -> VerificationReport:
    """The bounded-gap census over Dyck paths of length 2n (height-one path
    twice) equals T(2,n)."""
    if max_n < 1:
        raise DomainError("verify_theorem4 requires max_n >= 1")
    failures = []
    for n in range(1, max_n + 1):
        census = bij.theorem4_census(n)
        expected = super_catalan_t(2, n)
        if census != expected:
            failures.append(Failure((n,), census, expected))
    return VerificationReport("theorem4", {"max_n": max_n}, tuple(failures), max_n)


def verify_pairs(max_n: int = 9) -> VerificationReport:
    """The number of ordered Dyck-path pairs of total length 2n with height
    difference at most 1 equals T(2,n)."""
    if max_n < 1:
        raise DomainError("verify_pairs requires max_n >= 1")
    failures = []
    for n in range(1, max_n + 1):
        census = bij.pair_census(n)
        expected = super_catalan_t(2, n)
        if census != expected:
            failures.append(Failure((n,), census, expected))
    return VerificationReport("pairs", {"max_n": max_n}, tuple(failures), max_n)


def verify_bijection_f(max_n: int = 8) -> VerificationReport:
    """Round-trips and image census of the first injection: it is a
    bijection from the avoiding class onto the Dyck paths of height >= 2,
    missing exactly the height-one path."""
    if max_n < 2:
        raise DomainError("verify_bijection_f requires max_n >= 2")
    failures = []
    cases = 0
    for n in range(2, max_n + 1):
        images = []
        for path in enum_dyck(n + 1):
            if bij.classify_start(path) is not bij.StartClass.NSTAR:
                continue
            cases += 1
            image = bij.injection_f(path)
            images.append(image.steps)
            back = bij.injection_f_inverse(image)
            if back != path:
                failures.append(Failure((n, path.steps), back.steps, path.steps))
        expected = {p.steps for p in enum_dyck(n) if p.height >= 2}
        if len(set(images)) != len(images):
            failures.append(Failure((n, "injective"), len(set(images)), len(images)))
        if set(images) != expected:
            failures.append(Failure((n, "image census"), len(set(images)), len(expected)))
        for target in enum_dyck(n):
            if target.height < 2:
                continue
            cases += 1
            if bij.injection_f(bij.injection_f_inverse(target)) != target:
                failures.append(Failure((n, target.steps), "f(f_inv) != id", target.steps))
    return VerificationReport("bijection-f", {"max_n": max_n}, tuple(failures), cases)


def verify_bijection_g(max_n: int = 8) -> VerificationReport:
    """Round-trips and image census of the two-stage injection: it is a
    bijection from the attaining class onto the Dyck paths whose post-split
    maximum exceeds the pre-split maximum by at least 3, and its
    even-terminal intermediate shows a gap of at least 4."""
    if max_n < 2:
        raise DomainError("verify_bijection_g requires max_n >= 2")
    failures = []
    cases = 0
    for n in range(2, max_n + 1):
        images = []
        for path in enum_dyck(n + 1):
            if bij.classify_start(path) is not bij.StartClass.NSTARSTAR:
                continue
            cases += 1
            inter = bij.g_intermediate(path)
            x = max(i for i, lv in enumerate(inter.levels) if lv == 1)
            gap = max(inter.levels[x:]) - max(inter.levels[: x + 1])
            if gap < 4:
                failures.append(Failure((n, path.steps), gap, ">= 4"))
            image = bij.injection_g(path)
            images.append(image.steps)
            back = bij.injection_g_inverse(image)
            if back != path:
                failures.append(Failure((n, path.steps), back.steps, path.steps))
        expected = set()
        for target in enum_dyck(n):
            if len(target) == 0:
                continue
            mk = markers(target)
            if mk.h_plus >= mk.h_minus + 3:
                expected.add(target.steps)
        if len(set(images)) != len(images):
            failures.append(Failure((n, "injective"), len(set(images)), len(images)))
        if set(images) != expected:
            failures.append(Failure((n, "image census"), len(set(images)), len(expected)))
        for steps in sorted(expected):
            cases += 1
            target = parse_path(steps, "dyck")
            if bij.injection_g(bij.injection_g_inverse(target)) != target:
                failures.append(Failure((n, steps), "g(g_inv) != id", steps))
    return VerificationReport("bijection-g", {"max_n": max_n}, tuple(failures), cases)


def verify_pair_map(max_n: int = 8) -> VerificationReport:
    """The pair split and its inverse are mutually inverse, split heights
    match the pre/post maxima, and the pair multiset is counted by T(2,n)."""
    if max_n < 1:
        raise DomainError("verify_pair_map requires max_n >= 1")
    failures = []
    cases = 0
    for n in range(1, max_n + 1):
        total_pairs = 0
        for path in enum_dyck(n):
            mk = markers(path)
            if mk.h_plus > mk.h_minus + 2:
                continue
            for pair in bij.to_pair_all(path):
                cases += 1
                total_pairs += 1
                if bij.from_pair(pair) != path:
                    failures.append(Failure((n, path.steps), "from_pair(to_pair) != id", path.steps))
            if mk.height > 1:
                pair = bij.to_pair(path)
                if pair.first.height != mk.h_minus or pair.second.height != mk.h_plus - 1:
                    failures.append(
                        Failure(
                            (n, path.steps),
                            (pair.first.height, pair.second.height),
                            (mk.h_minus, mk.h_plus - 1),
                        )
                    )
        expected = super_catalan_t(2, n)
        if total_pairs != expected:
            failures.append(Failure((n, "pair count"), total_pairs, expected))
        for first, second in enum_pairs_total(n):
            if abs(first.height - second.height) > 1:
                continue
            cases += 1
            joined = bij.from_pair(bij.DyckPair(first, second))
            if (first, second) not in bij.to_pair_all(joined):
                failures.append(
                    Failure((n, first.steps, second.steps), joined.steps, "pair not recovered")
                )
    return VerificationReport("pair-map", {"max_n": max_n}, tuple(failures), cases)


def _catalan_sum(lo: int, hi: int) -> int:
    return sum(catalan(n) for n in range(lo, hi + 1))


def _rows_cost(max_sum: int, jobs: int) -> int:
    return _catalan_sum(1, max_sum - 1)  # row s: the C(s-1) 2-Motzkin paths of length s-2


def _injection_cost(max_n: int) -> int:
    return _catalan_sum(3, max_n + 1) + 2 * _catalan_sum(2, max_n)


# Every identity, in the order verify_all runs them: its suite and the paths
# that suite enumerates, given its bounds.  Default bounds live only in the
# suite signatures.
_REGISTRY: dict[str, tuple[Callable[..., VerificationReport], Callable[..., int]]] = {
    "theorem1": (verify_theorem1, _rows_cost),
    "theorem1-dyck": (verify_theorem1_dyck, lambda **b: 2 * _rows_cost(**b)),
    "rubenstein": (verify_rubenstein, lambda **_: 0),
    "ballot-sum": (verify_ballot_sum, lambda **_: 0),
    "symmetry": (verify_symmetry, lambda **_: 0),
    "theorem4": (verify_theorem4, lambda max_n: _catalan_sum(1, max_n)),
    "pairs": (verify_pairs, lambda max_n: _catalan_sum(2, max_n + 1)),
    "bijection-f": (verify_bijection_f, _injection_cost),
    "bijection-g": (verify_bijection_g, _injection_cost),
    "pair-map": (verify_pair_map, lambda max_n: _catalan_sum(1, max_n) + _catalan_sum(2, max_n + 1)),
    "reversal": (verify_reversal, _rows_cost),
}
IDENTITIES = tuple(_REGISTRY)


def _resolve(name: str, **overrides: int | None):
    """The named suite, its cost and its signature's default bounds, replaced by
    each override it takes that is not None (an explicit 0 reaches the suite)."""
    if name not in _REGISTRY:
        raise DomainError(f"unknown identity {name!r}")
    suite, cost = _REGISTRY[name]
    params = inspect.signature(suite).parameters
    bounds = {k: p.default if overrides.get(k) is None else overrides[k] for k, p in params.items()}
    return suite, cost, bounds


def run_identity(name: str, *, max_sum: int | None = None, max_m: int | None = None,
                 max_n: int | None = None, jobs: int | None = None) -> VerificationReport:
    """Run one named suite with its default bounds unless overridden."""
    suite, _, bounds = _resolve(name, max_sum=max_sum, max_m=max_m, max_n=max_n, jobs=jobs)
    return suite(**bounds)


def path_cost(name: str, *, max_sum: int | None = None, max_m: int | None = None,
              max_n: int | None = None) -> int:
    """Paths :func:`run_identity` would enumerate with the same overrides."""
    _, cost, bounds = _resolve(name, max_sum=max_sum, max_m=max_m, max_n=max_n)
    return cost(**bounds)


def verify_all(jobs: int = 1) -> list[VerificationReport]:
    """Every suite at its default bounds; the CI entry point."""
    return [run_identity(name, jobs=jobs) for name in IDENTITIES]
