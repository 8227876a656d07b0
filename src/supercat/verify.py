"""Verification suites: each checks one identity exhaustively over a
parameter range and returns a :class:`VerificationReport`.

The enumeration-backed suites tally a whole path family once per total
length and read every (m, n) cell of that length off the same pass, so
the sweep stays exhaustive without re-enumerating per cell.  Suites that
partition cleanly by total length take a ``jobs`` argument and fan rows
out to a process pool; rows merge in order, so reports are identical for
every worker count.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from . import bijections as bij
from .enumeration import _dyck_walks, _motzkin2_walks, enum_pairs_total
from .errors import DomainError
from .numbers import ballot_sum_identity, catalan, super_catalan_t
from .paths import DyckPath, LatticePath, _markers, _reverse


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


def _merge(identity: str, bounds: dict[str, int], rows: Iterable[Row]) -> VerificationReport:
    failures: list[Failure] = []
    cases = 0
    for row_failures, row_cases in rows:
        failures.extend(row_failures)
        cases += row_cases
    return VerificationReport(identity, bounds, tuple(failures), cases)


def _row_suite(identity: str, row: Callable[[int], Row], max_sum: int, jobs: int) -> VerificationReport:
    """Check each total length 2..max_sum with ``row``, on ``jobs`` worker
    processes when there is more than one; rows merge in length order."""
    if max_sum < 2:
        raise DomainError(f"{identity} requires max_sum >= 2")
    if jobs < 1:
        raise DomainError(f"{identity} requires jobs >= 1")
    sums = range(2, max_sum + 1)
    if jobs <= 1 or len(sums) <= 1:
        return _merge(identity, {"max_sum": max_sum}, map(row, sums))
    with ProcessPoolExecutor(max_workers=min(jobs, len(sums))) as pool:
        # longest rows first, so the longest does not start last
        rows = list(pool.map(row, sums[::-1]))[::-1]
    return _merge(identity, {"max_sum": max_sum}, rows)


def _theorem1_row(s: int) -> Row:
    """All cells with m + n == s, read off one even-level tally of the
    2-Motzkin paths of length s - 2."""
    even, total = bij._even_tally(_motzkin2_walks(s - 2), s - 2)
    return _checked(
        ((m, s - m), 2 * even[m - 1] - total, super_catalan_t(m, s - m)) for m in range(1, s)
    )


def verify_theorem1(max_sum: int = 14, jobs: int = 1) -> VerificationReport:
    """P(m,n) - N(m,n) == T(m,n) for all m, n >= 1 with m + n <= max_sum,
    by exhausting the 2-Motzkin paths of each length."""
    return _row_suite("theorem1", _theorem1_row, max_sum, jobs)


def _theorem1_dyck_row(s: int) -> Row:
    failures = []
    # pathwise correspondence under the canonical bijection
    for steps, levels in _motzkin2_walks(s - 2):
        image = bij._motzkin_to_dyck(steps).levels
        for m in range(1, s):
            got = image[2 * m - 1]
            want = 2 * levels[m - 1] + 1
            if got != want:
                failures.append(Failure((m, s - m, steps), got, want))
    even, total = bij._even_tally(_motzkin2_walks(s - 2), s - 2)
    # independent tally on the Dyck side: level mod 4 at each odd point
    ones, total_dyck = bij._mod4_tally(_dyck_walks(s - 1), s)

    def cell(m: int) -> tuple[tuple, object, object]:
        dyck = (ones[m], total_dyck - ones[m])
        motzkin = (even[m - 1], total - even[m - 1])
        if dyck != motzkin:
            return (m, s - m), dyck, motzkin
        return (m, s - m), dyck[0] - dyck[1], super_catalan_t(m, s - m)

    cell_failures, cells = _checked(cell(m) for m in range(1, s))
    return failures + cell_failures, total * (s - 1) + cells


def verify_theorem1_dyck(max_sum: int = 12, jobs: int = 1) -> VerificationReport:
    """The Dyck-path restatement: tallies by level mod 4 at the point after
    2m-1 steps agree componentwise with the 2-Motzkin tallies, and the
    level correspondence under the canonical bijection holds pathwise."""
    return _row_suite("theorem1-dyck", _theorem1_dyck_row, max_sum, jobs)


def _reversal_row(s: int) -> Row:
    failures = []
    cases = 0
    for steps, levels in _motzkin2_walks(s - 2):
        mirrored = _reverse(steps).levels
        for m in range(1, s):
            lhs, rhs = bij._sign(levels, m), bij._sign(mirrored, s - m)
            if lhs != rhs:
                failures.append(Failure((m, s - m, steps), lhs, rhs))
        cases += s - 1
    return failures, cases


def verify_reversal(max_sum: int = 12, jobs: int = 1) -> VerificationReport:
    """Reading a path right to left preserves its sign: the weight at m of
    every 2-Motzkin path of length m+n-2 equals the weight at n of its reverse,
    whose levels are read from its mirrored steps; so T(m,n) = T(n,m)."""
    return _row_suite("reversal", _reversal_row, max_sum, jobs)


def verify_rubenstein(max_m: int = 50, max_n: int = 50) -> VerificationReport:
    """4 T(m,n) = T(m+1,n) + T(m,n+1) for all 1 <= m <= max_m,
    1 <= n <= max_n."""
    if max_m < 1 or max_n < 1:
        raise DomainError("rubenstein requires bounds >= 1")
    row = _checked(
        ((m, n), 4 * super_catalan_t(m, n), super_catalan_t(m + 1, n) + super_catalan_t(m, n + 1))
        for m, n in product(range(1, max_m + 1), range(1, max_n + 1))
    )
    return _merge("rubenstein", {"max_m": max_m, "max_n": max_n}, [row])


def verify_ballot_sum(max_m: int = 30, max_n: int = 30) -> VerificationReport:
    """The alternating ballot-product sum equals T(m,n); termwise equality
    of its two printed forms is asserted inside the evaluation."""
    if max_m < 1 or max_n < 1:
        raise DomainError("ballot-sum requires bounds >= 1")
    row = _checked(
        ((m, n), ballot_sum_identity(m, n), super_catalan_t(m, n))
        for m, n in product(range(1, max_m + 1), range(1, max_n + 1))
    )
    return _merge("ballot-sum", {"max_m": max_m, "max_n": max_n}, [row])


def verify_symmetry(max_sum: int = 100) -> VerificationReport:
    """Formula-level T(m,n) = T(n,m) for all m + n <= max_sum."""
    if max_sum < 1:
        raise DomainError("symmetry requires max_sum >= 1")
    row = _checked(
        ((m, s - m), super_catalan_t(m, s - m), super_catalan_t(s - m, m))
        for s in range(1, max_sum + 1)
        for m in range(0, s // 2 + 1)
    )
    return _merge("symmetry", {"max_sum": max_sum}, [row])


def _census_suite(identity: str, census: Callable[[int], int], max_n: int) -> VerificationReport:
    """census(n) == T(2,n) for every 1 <= n <= max_n."""
    if max_n < 1:
        raise DomainError(f"{identity} requires max_n >= 1")
    row = _checked(((n,), census(n), super_catalan_t(2, n)) for n in range(1, max_n + 1))
    return _merge(identity, {"max_n": max_n}, [row])


def verify_theorem4(max_n: int = 10) -> VerificationReport:
    """The bounded-gap census over Dyck paths of length 2n (height-one path
    twice) equals T(2,n)."""
    return _census_suite("theorem4", bij.theorem4_census, max_n)


def verify_pairs(max_n: int = 9) -> VerificationReport:
    """The number of ordered Dyck-path pairs of total length 2n with height
    difference at most 1 equals T(2,n)."""
    return _census_suite("pairs", bij.pair_census, max_n)


def _injection_suite(identity: str, start: bij.StartClass, forward: Callable[[DyckPath], DyckPath],
                     inverse: Callable[[DyckPath], DyckPath], in_image: Callable[[tuple[int, ...]], bool],
                     max_n: int) -> VerificationReport:
    """For 2 <= n <= max_n: ``forward`` maps the Dyck paths of length 2n+2
    in class ``start`` one to one onto the Dyck paths of length 2n whose
    levels satisfy ``in_image``, and ``inverse`` undoes it on both sides.
    The maps are unchecked cores, each of which checks its own output.

    Each input's round trip makes ``forward`` one to one, each image is
    checked to satisfy ``in_image``, and each target's round trip puts it in
    the image, so the image is exactly the targets; no image is kept."""
    if max_n < 2:
        raise DomainError(f"{identity} requires max_n >= 2")
    name = identity.removeprefix("bijection-")
    failures = []
    cases = 0
    for n in range(2, max_n + 1):
        for steps, levels in _dyck_walks(n + 1):
            if bij._start_class(steps, levels) is not start:
                continue
            cases += 1
            image = forward(LatticePath(steps, levels))
            if not in_image(image.levels):
                failures.append(Failure((n, steps), image.steps, "outside the expected image"))
            back = inverse(image).steps
            if back != steps:
                failures.append(Failure((n, steps), back, steps))
        for steps, levels in _dyck_walks(n):
            if not in_image(levels):
                continue
            cases += 1
            if forward(inverse(LatticePath(steps, levels))).steps != steps:
                failures.append(Failure((n, steps), f"{name}({name}_inv) != id", steps))
    return VerificationReport(identity, {"max_n": max_n}, tuple(failures), cases)


def verify_bijection_f(max_n: int = 8) -> VerificationReport:
    """Round-trips and image census of the first injection: it is a
    bijection from the avoiding class onto the Dyck paths of height >= 2,
    missing exactly the height-one path."""
    return _injection_suite(
        "bijection-f", bij.StartClass.NSTAR, bij._injection_f, bij._injection_f_inverse,
        lambda levels: max(levels) >= 2, max_n,
    )


def verify_bijection_g(max_n: int = 8) -> VerificationReport:
    """Round-trips and image census of the two-stage injection: it is a
    bijection from the attaining class onto the Dyck paths whose post-split
    maximum exceeds the pre-split maximum by at least 3.  Its even-terminal
    intermediate's gap of at least 4 is asserted inside
    :func:`~supercat.bijections.g_intermediate`."""
    return _injection_suite(
        "bijection-g", bij.StartClass.NSTARSTAR, bij._injection_g, bij._injection_g_inverse,
        lambda levels: not bij._bounded_gap(_markers(levels)), max_n,
    )


def verify_pair_map(max_n: int = 8) -> VerificationReport:
    """The pair split and its inverse are mutually inverse, split heights
    match the pre/post maxima, and the pair multiset is counted by T(2,n)."""
    if max_n < 1:
        raise DomainError("pair-map requires max_n >= 1")
    failures = []
    cases = 0
    for n in range(1, max_n + 1):
        total_pairs = 0
        for steps, levels in _dyck_walks(n):
            mk = _markers(levels)
            if not bij._bounded_gap(mk):
                continue
            path = LatticePath(steps, levels)
            pairs = bij._to_pair_all(path, mk)
            for pair in pairs:
                cases += 1
                total_pairs += 1
                if bij._from_pair(*pair) != path:
                    failures.append(Failure((n, path.steps), "from_pair(to_pair) != id", path.steps))
            if mk.height > 1:
                heights = (pairs[0].first.height, pairs[0].second.height)
                if heights != (mk.h_minus, mk.h_plus - 1):
                    failures.append(Failure((n, path.steps), heights, (mk.h_minus, mk.h_plus - 1)))
        expected = super_catalan_t(2, n)
        if total_pairs != expected:
            failures.append(Failure((n, "pair count"), total_pairs, expected))
        for first, second in enum_pairs_total(n):
            if not bij._close(first.height, second.height):
                continue
            cases += 1
            joined = bij._from_pair(first, second)
            if (first, second) not in bij._to_pair_all(joined, _markers(joined.levels)):
                failures.append(Failure((n, first.steps, second.steps), joined.steps, "pair not recovered"))
    return VerificationReport("pair-map", {"max_n": max_n}, tuple(failures), cases)


def _catalan_sum(lo: int, hi: int) -> int:
    return sum(catalan(n) for n in range(lo, hi + 1))


def _rows_cost(max_sum: int, jobs: int) -> int:
    return _catalan_sum(1, max_sum - 1)  # row s: the C(s-1) 2-Motzkin paths of length s-2


def _injection_cost(max_n: int) -> int:
    return _catalan_sum(3, max_n + 1) + _catalan_sum(2, max_n)


# Every identity, in the order `supercat verify all` runs them: its suite and
# the paths that suite enumerates, given its bounds.  Default bounds live only
# in the suite signatures.
_REGISTRY: dict[str, tuple[Callable[..., VerificationReport], Callable[..., int]]] = {
    "theorem1": (verify_theorem1, _rows_cost),
    "theorem1-dyck": (verify_theorem1_dyck, lambda **b: 3 * _rows_cost(**b)),
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
