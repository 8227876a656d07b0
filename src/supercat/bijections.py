"""Constructive maps between the path families.

Index conventions, used throughout this module:

* points are 0-based x-coordinates into ``path.levels`` (the point after
  ``x`` steps);
* the step *into* point ``x`` is ``path.steps[x-1]``; the step *leaving*
  point ``x`` is ``path.steps[x]``;
* prose like "the 2nd and 3rd steps" is 1-based and corresponds to string
  indices 1 and 2.

Every public map validates its input's precondition (raising
:class:`~supercat.errors.DomainError`) and then runs its private ``_`` core,
which trusts input the enumeration engine or another map has already
checked.  Public maps and cores alike check their output's family
invariants with the family tests of :mod:`~supercat.paths` (an invalid output
raises AssertionError: it means the implementation is wrong, never the
caller).  The paper's sign rule is :func:`_sign` alone: :func:`weight`, the
signed tallies and the verify suites all read it.  Every core takes and returns
checked ``(steps, levels)`` walks, the enumeration engine's type (the pair
split a tuple of walk pairs); only the public maps build a
:class:`~supercat.paths.LatticePath` or a :class:`DyckPair` of two.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import islice, starmap
from operator import itemgetter
from typing import NamedTuple

from .enumeration import _dyck_walks, _motzkin2_walks, _Walk
from .errors import DomainError
from .numbers import catalan
from .paths import (
    EMPTY_PATH,
    DyckPath,
    LatticePath,
    PathMarkers,
    TwoMotzkinPath,
    _dyck_levels,
    _even_terminal_ballot,
    _levels,
    _markers,
    _motzkin2_levels,
    _rightmost,
    is_dyck,
    is_motzkin2,
)

_DOUBLE = {"U": "UU", "D": "DD", "S": "UD", "W": "DU"}
_M2D = str.maketrans(_DOUBLE)
_PAIR_TO_STEP = {pair: step for step, pair in _DOUBLE.items()}
_AVOIDING = "injection_f requires an up-up-up start avoiding level one before the rightmost maximum"
_ATTAINING = "injection_g requires an up-up-up start attaining level one before the rightmost maximum"

# Walks whose level profiles are counted (in C) before each distinct profile
# is folded into the per-point tallies.  S and W give the same levels, so
# the 742,900 paths of length 12 have only 15,511 profiles; a batch of 2,048
# folds 79,639 times there.  Bounded so peak memory stays flat: `verify all`
# peaks near 19 MB, and one Counter of a whole row's profiles added about
# 2.9 MB to that, a batch of 4,096 0.6 MB and one of 2,048 0.3 MB, all at
# the same speed.
_BATCH = 2048


@dataclass(frozen=True)
class SignedCount:
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


def _walk(path: LatticePath) -> _Walk:
    return path.steps, path.levels


_EMPTY_WALK = _walk(EMPTY_PATH)


def _path_pair(first: _Walk, second: _Walk) -> DyckPair:
    return DyckPair(LatticePath(*first), LatticePath(*second))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DomainError(message)


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(f"internal: {message}")


def _bounded_gap(mk: PathMarkers) -> bool:
    """The post-split maximum exceeds the pre-split maximum by at most 2:
    the family theorem 4 counts and the pair split reads."""
    return mk.h_plus <= mk.h_minus + 2


def _in_f_image(levels: tuple[int, ...]) -> bool:
    """The image of :func:`injection_f`: Dyck paths of height >= 2."""
    return max(levels) >= 2


def _in_g_image(levels: tuple[int, ...]) -> bool:
    """The image of :func:`injection_g`: the complement of :func:`_bounded_gap`."""
    return not _bounded_gap(_markers(levels))


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
    levels = _dyck_levels(steps)
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
    return LatticePath(*_motzkin_to_dyck(path.steps))


def _motzkin_to_dyck(steps: str) -> _Walk:
    return _dyck_walk("U" + steps.translate(_M2D) + "D")


def dyck_to_motzkin(path: DyckPath) -> TwoMotzkinPath:
    """Inverse of :func:`motzkin_to_dyck`: strip the outer wrap, then read
    the interior two steps at a time."""
    _require(is_dyck(path) and len(path) >= 2, "dyck_to_motzkin requires a nonempty valid Dyck path")
    steps = path.steps
    inner = steps[1:-1]
    out = "".join(_PAIR_TO_STEP[inner[i : i + 2]] for i in range(0, len(inner), 2))
    levels = _motzkin2_levels(out)
    if levels is None:
        raise AssertionError(f"internal: pair decoding of {steps!r} is not a 2-Motzkin path")
    return LatticePath(out, levels)


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


def _level_histogram(walks: Iterable[_Walk], length: int, points: slice = slice(None)) -> list[list[int]]:
    """For the ``(steps, levels)`` walks of paths of the given length below
    level ``length // 2 + 1``: entry ``[i][l]`` counts the paths at level
    ``l`` at the ``i``-th of ``points`` (every point by default).  Each
    batch's distinct profiles at those points are counted, then folded in
    once with their multiplicities; every walk is consumed."""
    hist = [[0] * (length // 2 + 1) for _ in range(length + 1)][points]
    profiles = map(itemgetter(1), walks)
    if points != slice(None):  # a second map layer costs theorem1 about a sixth of its fold
        profiles = map(itemgetter(points), profiles)
    while batch := Counter(islice(profiles, _BATCH)):
        for levels, count in batch.items():
            for point, level in zip(hist, levels):
                point[level] += count
    return hist


def _sign_split(counts: list[int]) -> tuple[int, int]:
    """Paths of weight +1 and of weight -1, from one point's level counts."""
    by_sign = Counter()
    for level, count in enumerate(counts):
        by_sign[_sign(level)] += count
    return by_sign[1], by_sign[-1]


def _mod4_split(counts: list[int]) -> tuple[int, int]:
    """Paths at level 1 and at level 3 (mod 4), from one odd point's level counts."""
    _check(not any(counts[0::2]), "odd point at even level")
    return sum(counts[1::4]), sum(counts[3::4])


def signed_count(m: int, n: int) -> SignedCount:
    """Exhaustively tally 2-Motzkin paths of length m+n-2 by sign; the
    difference equals the super Catalan number T(m,n)."""
    _require(m >= 1 and n >= 1, "signed_count requires m, n >= 1")
    hist = _level_histogram(_motzkin2_walks(m + n - 2), m + n - 2)
    return SignedCount(*_sign_split(hist[m - 1]))


def signed_count_dyck(m: int, n: int) -> SignedCount:
    """Same tally stated on Dyck paths of length 2m+2n-2: the point after
    2m-1 steps sits at level 1 (mod 4) for positive paths and 3 (mod 4) for
    negative ones."""
    _require(m >= 1 and n >= 1, "signed_count_dyck requires m, n >= 1")
    hist = _level_histogram(_dyck_walks(m + n - 1), 2 * (m + n - 1), slice(1, None, 2))
    return SignedCount(*_mod4_split(hist[m - 1]))


def classify_start(path: DyckPath) -> StartClass:
    """Start class of a Dyck path of length >= 6.

    "Between the third step and the rightmost maximum" is read strictly:
    a level-one point at some x with 3 < x < rightmost_max.
    """
    _require(is_dyck(path), "classify_start requires a valid Dyck path")
    _require(len(path) >= 6, "classify_start requires length >= 6")
    return _start_class(path.steps, path.levels)


def _start_class(steps: str, levels: tuple[int, ...]) -> StartClass:
    prefix = steps[:3]
    if prefix == "UDU":
        return StartClass.A
    if prefix == "UUD":
        return StartClass.B
    # a Dyck path of length >= 6 opening with neither of those opens UUU
    if 1 in levels[4 : _rightmost(levels, max(levels))]:
        return StartClass.NSTARSTAR
    return StartClass.NSTAR


def injection_f(path: DyckPath) -> DyckPath:
    """Shrink an up-up-up path that avoids level one before its rightmost
    maximum: drop the 2nd and 3rd steps (both ups) and turn the down step
    leaving the rightmost maximum into an up step.

    Length drops by 2; the image is every Dyck path of height >= 2 (the
    height-one path is never produced).
    """
    _require(classify_start(path) is StartClass.NSTAR, _AVOIDING)
    return LatticePath(*_injection_f(_walk(path)))


def _injection_f(walk: _Walk) -> _Walk:
    steps, levels = walk
    rightmost = _rightmost(levels, max(levels))
    shrunk = steps[0] + steps[3:]
    # dropping string indices 1 and 2 shifts the flip target left by 2
    result = _dyck_walk(_flip(shrunk, rightmost - 2, "D", "U"))
    _check(_in_f_image(result[1]), "shrunk path lost its height-two guarantee")
    return result


def injection_f_inverse(path: DyckPath) -> DyckPath:
    """Inverse of :func:`injection_f`: insert two up steps after the first
    step, then turn the up step entering the leftmost maximum into a down
    step."""
    _require(is_dyck(path) and len(path) >= 2, "injection_f_inverse requires a nonempty valid Dyck path")
    _require(_in_f_image(path.levels), "height-one path is outside the image of injection_f")
    return LatticePath(*_injection_f_inverse(_walk(path)))


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
    _require(classify_start(path) is StartClass.NSTARSTAR, _ATTAINING)
    return LatticePath(*_g_intermediate(_walk(path)))


def _g_intermediate(walk: _Walk) -> _Walk:
    steps, levels = walk
    # the attaining class puts this point before the rightmost maximum
    y = levels.index(1, 4)
    # the two steps entering y descend from level 3; after dropping string
    # indices 1 and 2 they sit at y-4 and y-3
    shrunk = steps[0] + steps[3:]
    out = _flip(shrunk, y - 4, "D", "U")
    out = _flip(out, y - 3, "D", "U")
    inter = _levels(out)
    _check(_even_terminal_ballot(out, inter), "stage one did not produce an even-terminal ballot path")
    x = _rightmost(inter, 1)
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
    _require(classify_start(path) is StartClass.NSTARSTAR, _ATTAINING)
    return LatticePath(*_injection_g(_walk(path)))


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
    _require(is_dyck(path) and len(path) >= 2, "injection_g_inverse requires a nonempty valid Dyck path")
    _require(
        _in_g_image(path.levels),
        "injection_g_inverse requires the post-split maximum to exceed the pre-split maximum by at least 3",
    )
    return LatticePath(*_injection_g_inverse(_walk(path)))


def _injection_g_inverse(walk: _Walk) -> _Walk:
    steps, levels = walk
    ballot = _flip(steps, _rightmost(levels, max(levels)), "D", "U")
    x = _rightmost(_levels(ballot), 1)  # grown's own check covers ballot's steps
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
    return sum(1 for _ in _theorem4_walks(n))


def theorem4_paths(n: int) -> Iterator[DyckPath]:
    """The paths behind :func:`theorem4_census`, with the height-one path
    yielded twice."""
    return starmap(LatticePath, _theorem4_walks(n))


def _theorem4_walks(n: int) -> Iterator[_Walk]:
    _require(n >= 1, "theorem4_paths requires n >= 1")

    def gen() -> Iterator[_Walk]:
        for walk in _dyck_walks(n):
            mk = _markers(walk[1])
            if _bounded_gap(mk):
                yield walk
                if mk.height == 1:
                    yield walk

    return gen()


def _split_markers(path: DyckPath, name: str) -> PathMarkers:
    _require(is_dyck(path) and len(path) >= 2, f"{name} requires a nonempty valid Dyck path")
    mk = _markers(path.levels)
    _require(_bounded_gap(mk),
             "to_pair requires the post-split maximum to exceed the pre-split maximum by at most 2")
    return mk


def to_pair(path: DyckPath) -> DyckPair:
    """Split a bounded-gap Dyck path of height > 1 into an ordered pair.

    Turn the up step leaving the last level-one point into a down step and
    the down step leaving the rightmost maximum into an up step; the point
    after the first flip lands on level zero and splits the result in two.
    The pair heights are the input's pre-split maximum and post-split
    maximum minus one, so they differ by at most 1.
    """
    mk = _split_markers(path, "to_pair")
    _require(mk.height > 1,
             "height-one path maps to two pairs (path, empty) and (empty, path); see to_pair_all")
    return _path_pair(*_to_pair_all(_walk(path), mk)[0])


def to_pair_all(path: DyckPath) -> tuple[DyckPair, ...]:
    """All pairs a bounded-gap Dyck path accounts for: one for height > 1,
    and for the height-one path the two tagged pairs (path, empty) and
    (empty, path), in that order."""
    mk = _split_markers(path, "to_pair_all")
    return tuple(starmap(_path_pair, _to_pair_all(_walk(path), mk)))


def _to_pair_all(walk: _Walk, mk: PathMarkers) -> tuple[tuple[_Walk, _Walk], ...]:
    if mk.height == 1:
        return ((walk, _EMPTY_WALK), (_EMPTY_WALK, walk))
    x = mk.last_level_one
    out = _flip(walk[0], x, "U", "D")
    out = _flip(out, mk.rightmost_max, "D", "U")
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
    first, second = pair
    _require(is_dyck(first) and is_dyck(second), "from_pair requires two valid (possibly empty) Dyck paths")
    _require(len(first) > 0 or len(second) > 0, "from_pair requires a nonempty pair")
    _require(_close(first.height, second.height), "from_pair requires the pair heights to differ by at most 1")
    return LatticePath(*_from_pair(_walk(first), _walk(second)))


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
    mk = _markers(result[1])
    _check(mk.height > 1 and _bounded_gap(mk), "joined path left the bounded-gap family")
    return result


def pair_census(n: int) -> int:
    """Number of ordered pairs of (possibly empty) Dyck paths of total
    length 2n with heights differing by at most 1, by convolving one height
    tally per Dyck size 0..n; equals the super Catalan number T(2,n)."""
    _require(n >= 1, "pair_census requires n >= 1")
    heights = [Counter(map(max, map(itemgetter(1), _dyck_walks(k)))) for k in range(n + 1)]
    return sum(left[a] * right[b]
               for left, right in zip(heights, reversed(heights))
               for a in left for b in right if _close(a, b))


def start_class_sizes(n_plus_1: int) -> dict[StartClass, int]:
    """Sizes of the four start classes over Dyck paths of length
    2*n_plus_1 (length >= 6)."""
    _require(n_plus_1 >= 3, "start_class_sizes requires paths of length >= 6")
    sizes = Counter(starmap(_start_class, _dyck_walks(n_plus_1)))
    _check(sizes.total() == catalan(n_plus_1), "class sizes do not add up")
    return {cls: sizes[cls] for cls in StartClass}
