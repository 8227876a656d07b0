"""Constructive maps between the path families.

Index conventions, used throughout this module:

* points are 0-based x-coordinates into ``path.levels`` (the point after
  ``x`` steps);
* the step *into* point ``x`` is ``path.steps[x-1]``; the step *leaving*
  point ``x`` is ``path.steps[x]``;
* prose like "the 2nd and 3rd steps" is 1-based and corresponds to string
  indices 1 and 2.

Every public map validates its input's precondition (raising
:class:`~supercat.errors.DomainError`; a Dyck input by :func:`_walk`'s family
test, handing on its levels) and then runs its private ``_`` core, which trusts
input the enumeration engine or another map has already checked.  Public
maps and cores alike check their output with the one family test,
:func:`~supercat.paths._family_levels`, on the family value the engine
walks (an invalid output raises AssertionError: it means the implementation
is wrong, never the caller).  The paper's sign rule is :func:`_sign` alone:
:func:`weight`, the signed tallies and the verify suites all read it.  The
m = 2 maps find their split point only through :func:`~supercat.paths._split`;
only :func:`_g_intermediate` scans for a last level-one point of its own: its
intermediate's, a different point.  :func:`_bounded_gap` is the one statement
of the gap rule.  Every core takes and returns checked ``(steps, levels)``
walks, the enumeration engine's type (the pair split a tuple of walk pairs);
only the public maps build a :class:`~supercat.paths.LatticePath` or a
:class:`DyckPair` of two.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from enum import Enum
from itertools import starmap
from operator import itemgetter
from typing import NamedTuple

from .enumeration import _BUDGET, _dyck_walks, _over_budget, _paths_text, _profiles, _Walk
from .errors import DomainError
from .numbers import catalan
from .paths import (
    EMPTY_PATH,
    RISE,
    DyckPath,
    LatticePath,
    TwoMotzkinPath,
    _BALLOT_EVEN,
    _DYCK,
    _MOTZKIN2,
    _Family,
    _family_levels,
    _split,
    is_motzkin2,
)

__all__ = [
    "DyckPair",
    "SignedCount",
    "StartClass",
    "classify_start",
    "dyck_to_motzkin",
    "from_pair",
    "g_intermediate",
    "injection_f",
    "injection_f_inverse",
    "injection_g",
    "injection_g_inverse",
    "motzkin_to_dyck",
    "pair_census",
    "signed_count",
    "signed_count_dyck",
    "start_class_sizes",
    "theorem4_census",
    "theorem4_paths",
    "to_pair",
    "to_pair_all",
    "weight",
]

_DOUBLE = {"U": "UU", "D": "DD", "S": "UD", "W": "DU"}
_M2D = str.maketrans(_DOUBLE)
_PAIR_TO_STEP = {pair: step for step, pair in _DOUBLE.items()}

# Bytes of packed level profiles joined before each counted point's column
# is sliced out and counted by level (in C).  A byte budget, since an engine
# block holds anywhere from one profile to a few hundred.  16 KiB keeps
# the peak flat: `verify theorem1-dyck --jobs 1` peaked at 15.09 MB with
# budgets of 8, 16 and 32 KiB and at 15.21 MB with 48 KiB, and neither it
# nor `verify all` ran steadily faster with a bigger budget.
_BATCH = 16 * 1024


class SignedCount(NamedTuple):
    """Tally of positive and negative paths for one (m, n) cell."""

    positive: int
    negative: int

    @property
    def difference(self) -> int:
        return self.positive - self.negative

    @property
    def total(self) -> int:
        return self.positive + self.negative


class StartClass(Enum):
    """Partition of Dyck paths of length >= 6 by their first three steps.

    Paths opening up-up-up are split by whether they come back to level one
    strictly between the third step and the rightmost maximum.
    """

    A = "up-down-up"
    B = "up-up-down"
    NSTAR = "up-up-up, avoids level one before the rightmost maximum"
    NSTARSTAR = "up-up-up, attains level one before the rightmost maximum"


class DyckPair(NamedTuple):
    first: DyckPath
    second: DyckPath


def _walk(path: LatticePath) -> tuple[str, tuple[int, ...] | None]:
    """A public Dyck input's steps and its one family test's levels, None off the family."""
    return path.steps, _family_levels(path.steps, _DYCK)


_EMPTY_WALK = _walk(EMPTY_PATH)


def _nonempty_dyck(path: DyckPath, name: str) -> _Walk:
    """The walk of a nonempty Dyck path: the one input check of the maps that need one."""
    walk = _walk(path)
    _require(walk[1] is not None and len(path) >= 2, f"{name} requires a nonempty valid Dyck path")
    return walk


def _path_pair(first: _Walk, second: _Walk) -> DyckPair:
    return DyckPair(LatticePath(first[0]), LatticePath(second[0]))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DomainError(message)


def _afford(call: str, paths: Callable[[int], int], size: int) -> None:
    """Refuse an exhaustive tally over more than the path budget the CLI's
    ``--force`` guards: ``paths(size)`` paths, a count that grows with size,
    so a size past 1,000 is priced at 1,000, a lower bound and a cheap one."""
    if count := _over_budget((paths(min(size, 1000)),)):
        raise DomainError(f"{call} would walk at least {_paths_text(count)} paths, "
                          f"more than the {_BUDGET:,} path budget")


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(f"internal: {message}")


def _bounded_gap(levels: tuple[int, ...]) -> bool:
    """The post-split maximum (the height) exceeds the pre-split maximum by at
    most 2: the family theorem 4 counts and the pair split reads."""
    h, _, x = _split(levels)
    # exact: a walk from 0 passes every level up to h, so some point up to x sits at h - 2 iff its first visit does
    return h < 3 or levels.index(h - 2) <= x


def _in_f_image(levels: tuple[int, ...]) -> bool:
    """The image of :func:`injection_f`: Dyck paths of height >= 2."""
    return max(levels) >= 2


def _in_g_image(levels: tuple[int, ...]) -> bool:
    """The image of :func:`injection_g`: the complement of :func:`_bounded_gap`."""
    return not _bounded_gap(levels)


def _close(a: int, b: int) -> bool:
    """Two heights differing by at most 1, as in a counted pair."""
    return abs(a - b) <= 1


def _flip(steps: str, i: int, expect: str, to: str) -> str:
    if steps[i] != expect:
        raise AssertionError(f"internal: step at index {i} is {steps[i]!r}, expected {expect!r}")
    return steps[:i] + to + steps[i + 1 :]


def _dyck_walk(steps: str) -> _Walk:
    """Constructed steps and their levels, checked to be a Dyck path: the one
    output check of every map that builds one."""
    levels = _family_levels(steps, _DYCK)
    if levels is not None:
        return steps, levels
    raise AssertionError(f"internal: constructed path {steps!r} is not a valid Dyck path")


def motzkin_to_dyck(path: TwoMotzkinPath) -> DyckPath:
    """Canonical bijection from 2-Motzkin paths of length k to Dyck paths
    of length 2k+2.

    Each step doubles (U -> UU, D -> DD, S -> UD, W -> DU) and the result
    is wrapped in one extra U ... D, which lifts the interior touches of
    level -1 that wavy steps introduce.
    """
    _require(is_motzkin2(path), "motzkin_to_dyck requires a valid 2-Motzkin path")
    return LatticePath(_motzkin_to_dyck(path.steps)[0])


def _motzkin_to_dyck(steps: str) -> _Walk:
    return _dyck_walk("U" + steps.translate(_M2D) + "D")


def dyck_to_motzkin(path: DyckPath) -> TwoMotzkinPath:
    """Inverse of :func:`motzkin_to_dyck`: strip the outer wrap, then read
    the interior two steps at a time."""
    steps = _nonempty_dyck(path, "dyck_to_motzkin")[0]
    inner = steps[1:-1]
    out = "".join(_PAIR_TO_STEP[inner[i : i + 2]] for i in range(0, len(inner), 2))
    _check(_family_levels(out, _MOTZKIN2) is not None, f"pair decoding of {steps!r} is not a 2-Motzkin path")
    return LatticePath(out)


def weight(path: TwoMotzkinPath, m: int) -> int:
    """+1 if the m-th step of the path begins on an even level, else -1.

    Formalized on the point after m-1 steps, so it is defined even when the
    path has exactly m-1 steps and the m-th step itself does not exist.
    """
    if m < 1:
        raise DomainError("weight requires m >= 1")
    if len(path) < m - 1:
        raise DomainError(f"path of length {len(path)} has no point at x={m - 1}")
    return _sign(path.levels[m - 1])


def _sign(level: int) -> int:
    """A path's weight at a point of this level: the one statement of the sign rule."""
    return 1 if level % 2 == 0 else -1


def _level_histogram(blocks: Iterable[bytes], length: int, points: slice = slice(None),
                     family: _Family = _MOTZKIN2) -> list[list[int]]:
    """For blocks of packed level profiles (such as the engine's
    :func:`~supercat.enumeration._profiles`) of the ``family``'s paths from
    level 0 back to 0: entry ``[i][l]`` counts the paths at level ``l`` at the
    ``i``-th of ``points`` (every point by default).  Blocks are joined up to
    ``_BATCH`` bytes, and each point ``x``'s column of the join is counted at
    the levels within its reach: 0 to ``min(x, length - x)``, and only those
    of x's parity if the family has no level step.  A torn profile or a level
    outside that reach is an internal error, never a dropped path."""
    width, step = length + 1, 2 if all(RISE[c] for c in family[0]) else 1
    hist = [[0] * (length // 2 + 1) for _ in range(width)][points]
    columns = [(x, slice(x % step, min(x, length - x) + 1, step), counts)
               for x, counts in zip(range(width)[points], hist)]

    def fold(joined: bytearray) -> None:
        paths, torn = divmod(len(joined), width)
        _check(not torn, f"{len(joined)} profile bytes are not whole profiles of {width} points")
        for x, reach, counts in columns:
            column = joined[x::width]
            found = [column.count(level) for level in range(width)[reach]]
            _check(sum(found) == paths, f"point {x} has a level outside its reach")
            counts[reach] = map(int.__add__, counts[reach], found)

    joined = bytearray()
    for block in blocks:
        joined += block
        if len(joined) >= _BATCH:
            fold(joined)
            joined.clear()
    fold(joined)
    return hist


def _sign_split(counts: list[int]) -> tuple[int, int]:
    """Paths of weight +1 and of weight -1, from one point's level counts."""
    by_sign = Counter()
    for level, count in enumerate(counts):
        by_sign[_sign(level)] += count
    return by_sign[1], by_sign[-1]


def _mod4_split(counts: list[int]) -> tuple[int, int]:
    """Paths at level 1 and at level 3 (mod 4), from one odd point's level counts."""
    return sum(counts[1::4]), sum(counts[3::4])


def signed_count(m: int, n: int) -> SignedCount:
    """Exhaustively tally 2-Motzkin paths of length m+n-2 by sign; the
    difference equals the super Catalan number T(m,n)."""
    _require(m >= 1 and n >= 1, "signed_count requires m, n >= 1")
    profiles = _profiles(m + n - 2, _MOTZKIN2)  # refuses a level past a byte first
    _afford(f"signed_count({m}, {n})", catalan, m + n - 1)
    hist = _level_histogram(profiles, m + n - 2)
    return SignedCount(*_sign_split(hist[m - 1]))


def signed_count_dyck(m: int, n: int) -> SignedCount:
    """Same tally stated on Dyck paths of length 2m+2n-2: the point after
    2m-1 steps sits at level 1 (mod 4) for positive paths and 3 (mod 4) for
    negative ones."""
    _require(m >= 1 and n >= 1, "signed_count_dyck requires m, n >= 1")
    profiles = _profiles(2 * (m + n - 1), _DYCK)
    _afford(f"signed_count_dyck({m}, {n})", catalan, m + n - 1)
    hist = _level_histogram(profiles, 2 * (m + n - 1), slice(1, None, 2), _DYCK)
    return SignedCount(*_mod4_split(hist[m - 1]))


def classify_start(path: DyckPath) -> StartClass:
    """Start class of a Dyck path of length >= 6.

    "Between the third step and the rightmost maximum" is read strictly:
    a level-one point at some x with 3 < x < rightmost_max.
    """
    return _start_class(*_start_walk(path, "classify_start"))


def _start_walk(path: DyckPath, name: str, start: StartClass | None = None) -> _Walk:
    """The walk of a Dyck path of length >= 6, in the class ``start`` if one is
    given: the one input check of :func:`classify_start` and the maps defined
    on one class, raised in the caller's name."""
    walk = _walk(path)
    _require(walk[1] is not None, f"{name} requires a valid Dyck path")
    _require(len(path) >= 6, f"{name} requires length >= 6")
    reach = "avoiding" if start is StartClass.NSTAR else "attaining"
    _require(start is None or _start_class(*walk) is start,
             f"{name} requires an up-up-up start {reach} level one before the rightmost maximum")
    return walk


def _start_class(steps: str, levels: tuple[int, ...]) -> StartClass:
    prefix = steps[:3]
    if prefix == "UDU":
        return StartClass.A
    if prefix == "UUD":
        return StartClass.B
    # a Dyck path of length >= 6 opening with neither of those opens UUU, so
    # its only level-one point before point 4 is point 1, and its rightmost
    # maximum is at level 3 or higher, past point 3
    return StartClass.NSTARSTAR if _split(levels)[2] > 1 else StartClass.NSTAR


def injection_f(path: DyckPath) -> DyckPath:
    """Shrink an up-up-up path that avoids level one before its rightmost
    maximum: drop the 2nd and 3rd steps (both ups) and turn the down step
    leaving the rightmost maximum into an up step.

    Length drops by 2; the image is every Dyck path of height >= 2 (the
    height-one path is never produced).
    """
    return LatticePath(_injection_f(_start_walk(path, "injection_f", StartClass.NSTAR))[0])


def _injection_f(walk: _Walk) -> _Walk:
    steps, levels = walk
    rightmost = _split(levels)[1]
    shrunk = steps[0] + steps[3:]
    # dropping string indices 1 and 2 shifts the flip target left by 2
    result = _dyck_walk(_flip(shrunk, rightmost - 2, "D", "U"))
    _check(_in_f_image(result[1]), "shrunk path lost its height-two guarantee")
    return result


def injection_f_inverse(path: DyckPath) -> DyckPath:
    """Inverse of :func:`injection_f`: insert two up steps after the first
    step, then turn the up step entering the leftmost maximum into a down
    step."""
    walk = _nonempty_dyck(path, "injection_f_inverse")
    _require(_in_f_image(walk[1]), "height-one path is outside the image of injection_f")
    return LatticePath(_injection_f_inverse(walk)[0])


def _injection_f_inverse(walk: _Walk) -> _Walk:
    steps, levels = walk
    leftmost = levels.index(max(levels))
    grown = steps[0] + "UU" + steps[1:]
    # the step entering the leftmost maximum was at index leftmost-1; the
    # two inserted steps shift it to leftmost+1
    result = _dyck_walk(_flip(grown, leftmost + 1, "U", "D"))
    _check(_start_class(*result) is StartClass.NSTAR, "inverse image left the avoiding class")
    return result


def g_intermediate(path: DyckPath) -> LatticePath:
    """First stage of :func:`injection_g`: drop the 2nd and 3rd steps and
    turn the two down steps entering the first level-one return into up
    steps.

    The result is a nonnegative up/down path of even length ending at
    level 2, and the maximum before its last level-one point trails the
    maximum after it by at least 4.
    """
    return LatticePath(_g_intermediate(_start_walk(path, "g_intermediate", StartClass.NSTARSTAR))[0])


def _g_intermediate(walk: _Walk) -> _Walk:
    steps, levels = walk
    # the attaining class puts this point before the rightmost maximum
    y = levels.index(1, 4)
    # the two steps entering y descend from level 3; after dropping string
    # indices 1 and 2 they sit at y-4 and y-3
    shrunk = steps[0] + steps[3:]
    out = _flip(shrunk, y - 4, "D", "U")
    out = _flip(out, y - 3, "D", "U")
    inter = _family_levels(out, _BALLOT_EVEN)
    _check(inter is not None, "stage one did not produce an even-terminal ballot path")
    x = len(inter) - 1 - inter[::-1].index(1)
    gap = max(inter[x:]) - max(inter[: x + 1])
    if gap < 4:
        raise AssertionError(f"internal: stage one of {steps!r} left a maximum gap of {gap}, below 4")
    return out, inter


def injection_g(path: DyckPath) -> DyckPath:
    """Shrink an up-up-up path that attains level one before its rightmost
    maximum: after :func:`g_intermediate`, turn the up step entering the
    intermediate's leftmost maximum into a down step.

    The image is exactly the Dyck paths whose post-split maximum exceeds
    the pre-split maximum by at least 3.
    """
    return LatticePath(_injection_g(_start_walk(path, "injection_g", StartClass.NSTARSTAR))[0])


def _injection_g(walk: _Walk) -> _Walk:
    inter, levels = _g_intermediate(walk)
    result = _dyck_walk(_flip(inter, levels.index(max(levels)) - 1, "U", "D"))
    _check(_in_g_image(result[1]), "image lost the height-gap guarantee")
    return result


def injection_g_inverse(path: DyckPath) -> DyckPath:
    """Inverse of :func:`injection_g`.

    Turn the down step leaving the rightmost maximum into an up step (giving
    the even-terminal intermediate), then insert two up steps after the
    first step and turn the two up steps leaving the intermediate's last
    level-one point into down steps.
    """
    walk = _nonempty_dyck(path, "injection_g_inverse")
    _require(
        _in_g_image(walk[1]),
        "injection_g_inverse requires the post-split maximum to exceed the pre-split maximum by at least 3",
    )
    return LatticePath(_injection_g_inverse(walk)[0])


def _injection_g_inverse(walk: _Walk) -> _Walk:
    steps, levels = walk
    _, rightmost, x = _split(levels)
    # the flip lifts every point after the rightmost maximum by 2, so x, the
    # last level-one point before it, is the ballot path's last level-one point
    ballot = _flip(steps, rightmost, "D", "U")
    grown = ballot[0] + "UU" + ballot[1:]
    # the two steps leaving x were at indices x and x+1; insertion shifts
    # them to x+2 and x+3
    grown = _flip(grown, x + 2, "U", "D")
    result = _dyck_walk(_flip(grown, x + 3, "U", "D"))
    _check(_start_class(*result) is StartClass.NSTARSTAR, "inverse image left the attaining class")
    return result


def theorem4_census(n: int) -> int:
    """Count Dyck paths of length 2n whose post-split maximum exceeds the
    pre-split maximum by at most 2, with the height-one path counted twice;
    equals the super Catalan number T(2,n)."""
    _require(n >= 1, "theorem4_census requires n >= 1")
    _afford(f"theorem4_census({n})", catalan, n)
    return sum(1 for _ in _theorem4_walks(n))


def theorem4_paths(n: int) -> Iterator[DyckPath]:
    """The paths behind :func:`theorem4_census`, with the height-one path
    yielded twice."""
    _require(n >= 1, "theorem4_paths requires n >= 1")
    return (LatticePath(steps) for steps, _ in _theorem4_walks(n))


def _theorem4_walks(n: int, share: tuple[int, int] = (0, 1)) -> Iterator[_Walk]:
    height_one = "UD" * n
    for walk in _dyck_walks(n, share):
        if _bounded_gap(walk[1]):
            yield walk
            if walk[0] == height_one:
                yield walk


def _bounded_gap_walk(path: DyckPath, name: str) -> _Walk:
    """The walk of a bounded-gap Dyck path: the one input check of the pair split."""
    walk = _nonempty_dyck(path, name)
    _require(_bounded_gap(walk[1]),
             f"{name} requires the post-split maximum to exceed the pre-split maximum by at most 2")
    return walk


def to_pair(path: DyckPath) -> DyckPair:
    """Split a bounded-gap Dyck path of height > 1 into an ordered pair.

    Turn the up step leaving the last level-one point into a down step and
    the down step leaving the rightmost maximum into an up step; the point
    after the first flip lands on level zero and splits the result in two.
    The pair heights are the input's pre-split maximum and post-split
    maximum minus one, so they differ by at most 1.
    """
    walk = _bounded_gap_walk(path, "to_pair")
    _require(max(walk[1]) > 1,
             "height-one path maps to two pairs (path, empty) and (empty, path); see to_pair_all")
    return _path_pair(*_to_pair_all(walk)[0])


def to_pair_all(path: DyckPath) -> tuple[DyckPair, ...]:
    """All pairs a bounded-gap Dyck path accounts for: one for height > 1,
    and for the height-one path the two tagged pairs (path, empty) and
    (empty, path), in that order."""
    return tuple(starmap(_path_pair, _to_pair_all(_bounded_gap_walk(path, "to_pair_all"))))


def _to_pair_all(walk: _Walk) -> tuple[tuple[_Walk, _Walk], ...]:
    h, rightmost, x = _split(walk[1])
    if h == 1:
        return ((walk, _EMPTY_WALK), (_EMPTY_WALK, walk))
    out = _flip(walk[0], x, "U", "D")
    out = _flip(out, rightmost, "D", "U")
    first = _dyck_walk(out[: x + 1])
    second = _dyck_walk(out[x + 1 :])
    _check(_close(max(first[1]), max(second[1])), "pair heights drifted by more than one")
    return ((first, second),)


def from_pair(pair: DyckPair) -> DyckPath:
    """Inverse of :func:`to_pair`.

    Both tagged pairs of the height-one path invert to that path.  For the
    general case the components are joined, the down step entering the
    junction becomes an up step, and the up step entering the second
    component's leftmost maximum becomes a down step.
    """
    first, second = map(_walk, pair)
    _require(None not in (first[1], second[1]), "from_pair requires two valid (possibly empty) Dyck paths")
    _require(bool(first[0] or second[0]), "from_pair requires a nonempty pair")
    _require(_close(max(first[1]), max(second[1])),
             "from_pair requires the pair heights to differ by at most 1")
    return LatticePath(_from_pair(first, second)[0])


def _from_pair(first: _Walk, second: _Walk) -> _Walk:
    if not first[0] or not second[0]:
        survivor = first if not second[0] else second
        # the empty partner forces height one on the other component
        _check(max(survivor[1]) == 1, "one-sided pair with height above one")
        return survivor
    junction = len(first[0])
    leftmost = second[1].index(max(second[1]))
    out = _flip(first[0] + second[0], junction - 1, "D", "U")
    out = _flip(out, junction + leftmost - 1, "U", "D")
    result = _dyck_walk(out)
    _check(max(result[1]) > 1 and _bounded_gap(result[1]), "joined path left the bounded-gap family")
    return result


def pair_census(n: int) -> int:
    """Number of ordered pairs of (possibly empty) Dyck paths of total
    length 2n with heights differing by at most 1, by convolving one height
    tally per Dyck size 0..n; equals the super Catalan number T(2,n)."""
    _require(n >= 1, "pair_census requires n >= 1")
    _afford(f"pair_census({n})", lambda k: sum(map(catalan, range(k + 1))), n)
    return _close_pairs(_heights(n))


def _heights(n: int, share: tuple[int, int] = (0, 1)) -> list[Counter]:
    """One height tally per Dyck size 0..n, over the walks of the ``share``."""
    return [Counter(map(max, map(itemgetter(1), _dyck_walks(k, share)))) for k in range(n + 1)]


def _close_pairs(*shares: list[Counter]) -> int:
    """The pairs :func:`pair_census` counts, from each share's :func:`_heights`, summed."""
    heights = [sum(sizes, Counter()) for sizes in zip(*shares)]
    return sum(left[a] * right[b] for left, right in zip(heights, reversed(heights))
               for a in left for b in right if _close(a, b))


def start_class_sizes(n_plus_1: int) -> dict[StartClass, int]:
    """Sizes of the four start classes over Dyck paths of length
    2*n_plus_1 (length >= 6)."""
    _require(n_plus_1 >= 3, "start_class_sizes requires paths of length >= 6")
    _afford(f"start_class_sizes({n_plus_1})", catalan, n_plus_1)
    sizes = Counter(starmap(_start_class, _dyck_walks(n_plus_1)))
    _check(sizes.total() == catalan(n_plus_1), "class sizes do not add up")
    return {cls: sizes[cls] for cls in StartClass}
