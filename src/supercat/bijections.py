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
invariants (an invalid output raises AssertionError: it means the
implementation is wrong, never the caller).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import starmap
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
    _markers,
    _rightmost,
    is_dyck,
    is_even_terminal_ballot,
    is_motzkin2,
    parse_path,
)

_DOUBLE = {"U": "UU", "D": "DD", "S": "UD", "W": "DU"}
_M2D = str.maketrans(_DOUBLE)
_PAIR_TO_STEP = {pair: step for step, pair in _DOUBLE.items()}
_AVOIDING = "injection_f requires an up-up-up start avoiding level one before the rightmost maximum"
_ATTAINING = "injection_g requires an up-up-up start attaining level one before the rightmost maximum"


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


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DomainError(message)


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(f"internal: {message}")


def _bounded_gap(mk: PathMarkers) -> bool:
    """The post-split maximum exceeds the pre-split maximum by at most 2:
    the family theorem 4 counts and the pair split reads.  The image of
    :func:`injection_g` is exactly its complement."""
    return mk.h_plus <= mk.h_minus + 2


def _close(a: int, b: int) -> bool:
    """Two heights differing by at most 1, as in a counted pair."""
    return abs(a - b) <= 1


def _flip(steps: str, i: int, expect: str, to: str) -> str:
    if steps[i] != expect:
        raise AssertionError(f"internal: step at index {i} is {steps[i]!r}, expected {expect!r}")
    return steps[:i] + to + steps[i + 1 :]


def _dyck(steps: str) -> LatticePath:
    path = parse_path(steps, "dyck")
    if not is_dyck(path):
        raise AssertionError(f"internal: constructed path {steps!r} is not a valid Dyck path")
    return path


def motzkin_to_dyck(path: TwoMotzkinPath) -> DyckPath:
    """Canonical bijection from 2-Motzkin paths of length k to Dyck paths
    of length 2k+2.

    Each step doubles (U -> UU, D -> DD, S -> UD, W -> DU) and the result
    is wrapped in one extra U ... D, which lifts the interior touches of
    level -1 that wavy steps introduce.
    """
    _require(is_motzkin2(path), "motzkin_to_dyck requires a valid 2-Motzkin path")
    return _motzkin_to_dyck(path.steps)


def _motzkin_to_dyck(steps: str) -> DyckPath:
    return _dyck("U" + steps.translate(_M2D) + "D")


def dyck_to_motzkin(path: DyckPath) -> TwoMotzkinPath:
    """Inverse of :func:`motzkin_to_dyck`: strip the outer wrap, then read
    the interior two steps at a time."""
    _require(is_dyck(path) and len(path) >= 2, "dyck_to_motzkin requires a nonempty valid Dyck path")
    steps = path.steps
    inner = steps[1:-1]
    out = "".join(_PAIR_TO_STEP[inner[i : i + 2]] for i in range(0, len(inner), 2))
    result = parse_path(out, "motzkin")
    if not is_motzkin2(result):
        raise AssertionError(f"internal: pair decoding of {steps!r} is not a 2-Motzkin path")
    return result


def weight(path: TwoMotzkinPath, m: int) -> int:
    """+1 if the m-th step of the path begins on an even level, else -1.

    Formalized on the point after m-1 steps, so it is defined even when the
    path has exactly m-1 steps and the m-th step itself does not exist.
    """
    if m < 1:
        raise DomainError("weight requires m >= 1")
    if len(path) < m - 1:
        raise DomainError(f"path of length {len(path)} has no point at x={m - 1}")
    return _sign(path.levels, m)


def _sign(levels: tuple[int, ...], m: int) -> int:
    return 1 if levels[m - 1] % 2 == 0 else -1


def _even_tally(walks: Iterable[_Walk], length: int) -> tuple[list[int], int]:
    """For the ``(steps, levels)`` walks of the 2-Motzkin paths of the given
    length: how many sit on an even level at each point, and how many paths
    there are."""
    even = [0] * (length + 1)
    total = 0
    for _, levels in walks:
        total += 1
        for x, lv in enumerate(levels):
            if not lv & 1:
                even[x] += 1
    return even, total


def _mod4_tally(walks: Iterable[_Walk], s: int) -> tuple[list[int], int]:
    """For the ``(steps, levels)`` walks of the Dyck paths of length 2s-2: how
    many sit at level 1 (mod 4) at the point after 2m-1 steps, for each
    1 <= m < s (index m), and how many paths there are.  Every other path
    sits at level 3 (mod 4) there."""
    ones = [0] * s
    total = 0
    for steps, levels in walks:
        total += 1
        for m, lv in enumerate(levels[1::2], 1):
            residue = lv & 3
            if residue == 1:
                ones[m] += 1
            elif residue != 3:
                raise AssertionError(f"internal: odd point at even level in {steps!r}")
    return ones, total


def signed_count(m: int, n: int) -> SignedCount:
    """Exhaustively tally 2-Motzkin paths of length m+n-2 by sign; the
    difference equals the super Catalan number T(m,n)."""
    _require(m >= 1 and n >= 1, "signed_count requires m, n >= 1")
    even, total = _even_tally(_motzkin2_walks(m + n - 2), m + n - 2)
    return SignedCount(even[m - 1], total - even[m - 1])


def signed_count_dyck(m: int, n: int) -> SignedCount:
    """Same tally stated on Dyck paths of length 2m+2n-2: the point after
    2m-1 steps sits at level 1 (mod 4) for positive paths and 3 (mod 4) for
    negative ones."""
    _require(m >= 1 and n >= 1, "signed_count_dyck requires m, n >= 1")
    ones, total = _mod4_tally(_dyck_walks(m + n - 1), m + n)
    return SignedCount(ones[m], total - ones[m])


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
    return _injection_f(path)


def _injection_f(path: DyckPath) -> DyckPath:
    rightmost = _rightmost(path.levels, path.height)
    shrunk = path.steps[0] + path.steps[3:]
    # dropping string indices 1 and 2 shifts the flip target left by 2
    out = _flip(shrunk, rightmost - 2, "D", "U")
    result = _dyck(out)
    _check(result.height >= 2, "shrunk path lost its height-two guarantee")
    return result


def injection_f_inverse(path: DyckPath) -> DyckPath:
    """Inverse of :func:`injection_f`: insert two up steps after the first
    step, then turn the up step entering the leftmost maximum into a down
    step."""
    _require(is_dyck(path) and len(path) >= 2, "injection_f_inverse requires a nonempty valid Dyck path")
    _require(path.height >= 2, "height-one path is outside the image of injection_f")
    return _injection_f_inverse(path)


def _injection_f_inverse(path: DyckPath) -> DyckPath:
    leftmost = path.levels.index(path.height)
    grown = path.steps[0] + "UU" + path.steps[1:]
    # the step entering the leftmost maximum was at index leftmost-1; the
    # two inserted steps shift it to leftmost+1
    out = _flip(grown, leftmost + 1, "U", "D")
    result = _dyck(out)
    _check(_start_class(out, result.levels) is StartClass.NSTAR, "inverse image left the avoiding class")
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
    return _g_intermediate(path)


def _g_intermediate(path: DyckPath) -> LatticePath:
    # the attaining class puts this point before the rightmost maximum
    y = path.levels.index(1, 4)
    # the two steps entering y descend from level 3; after dropping string
    # indices 1 and 2 they sit at y-4 and y-3
    shrunk = path.steps[0] + path.steps[3:]
    out = _flip(shrunk, y - 4, "D", "U")
    out = _flip(out, y - 3, "D", "U")
    result = parse_path(out, "dyck")
    _check(is_even_terminal_ballot(result), "stage one did not produce an even-terminal ballot path")
    x = _rightmost(result.levels, 1)
    gap = max(result.levels[x:]) - max(result.levels[: x + 1])
    if gap < 4:
        raise AssertionError(f"internal: stage one of {path.steps!r} left a maximum gap of {gap}, below 4")
    return result


def injection_g(path: DyckPath) -> DyckPath:
    """Shrink an up-up-up path that attains level one before its rightmost
    maximum: after :func:`g_intermediate`, turn the up step entering the
    intermediate's leftmost maximum into a down step.

    The image is exactly the Dyck paths whose post-split maximum exceeds
    the pre-split maximum by at least 3.
    """
    _require(classify_start(path) is StartClass.NSTARSTAR, _ATTAINING)
    return _injection_g(path)


def _injection_g(path: DyckPath) -> DyckPath:
    inter = _g_intermediate(path)
    leftmost = inter.levels.index(inter.height)
    out = _flip(inter.steps, leftmost - 1, "U", "D")
    result = _dyck(out)
    _check(not _bounded_gap(_markers(result.levels)), "image lost the height-gap guarantee")
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
        not _bounded_gap(_markers(path.levels)),
        "injection_g_inverse requires the post-split maximum to exceed the pre-split maximum by at least 3",
    )
    return _injection_g_inverse(path)


def _injection_g_inverse(path: DyckPath) -> DyckPath:
    ballot = _flip(path.steps, _rightmost(path.levels, path.height), "D", "U")
    levels = parse_path(ballot, "dyck").levels
    x = _rightmost(levels, 1)
    grown = ballot[0] + "UU" + ballot[1:]
    # the two steps leaving x were at indices x and x+1; insertion shifts
    # them to x+2 and x+3
    grown = _flip(grown, x + 2, "U", "D")
    grown = _flip(grown, x + 3, "U", "D")
    result = _dyck(grown)
    _check(_start_class(grown, result.levels) is StartClass.NSTARSTAR, "inverse image left the attaining class")
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
    return _to_pair_all(path, mk)[0]


def to_pair_all(path: DyckPath) -> tuple[DyckPair, ...]:
    """All pairs a bounded-gap Dyck path accounts for: one for height > 1,
    and for the height-one path the two tagged pairs (path, empty) and
    (empty, path), in that order."""
    return _to_pair_all(path, _split_markers(path, "to_pair_all"))


def _to_pair_all(path: DyckPath, mk: PathMarkers) -> tuple[DyckPair, ...]:
    if mk.height == 1:
        return (DyckPair(path, EMPTY_PATH), DyckPair(EMPTY_PATH, path))
    x = mk.last_level_one
    out = _flip(path.steps, x, "U", "D")
    out = _flip(out, mk.rightmost_max, "D", "U")
    first = _dyck(out[: x + 1])
    second = _dyck(out[x + 1 :])
    _check(_close(first.height, second.height), "pair heights drifted by more than one")
    return (DyckPair(first, second),)


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
    return _from_pair(first, second)


def _from_pair(first: DyckPath, second: DyckPath) -> DyckPath:
    if len(first) == 0 or len(second) == 0:
        survivor = first if len(second) == 0 else second
        # the empty partner forces height one on the other component
        _check(survivor.height == 1, "one-sided pair with height above one")
        return survivor
    joined = first.steps + second.steps
    junction = len(first)
    leftmost = second.levels.index(second.height)
    out = _flip(joined, junction - 1, "D", "U")
    out = _flip(out, junction + leftmost - 1, "U", "D")
    result = _dyck(out)
    mk = _markers(result.levels)
    _check(mk.height > 1 and _bounded_gap(mk), "joined path left the bounded-gap family")
    return result


def pair_census(n: int) -> int:
    """Number of ordered pairs of (possibly empty) Dyck paths of total
    length 2n with heights differing by at most 1, by direct convolution of
    the enumerated families; equals the super Catalan number T(2,n)."""
    _require(n >= 1, "pair_census requires n >= 1")
    count = 0
    for k in range(n + 1):
        left_heights = [max(levels) for _, levels in _dyck_walks(k)]
        right_heights = [max(levels) for _, levels in _dyck_walks(n - k)]
        count += sum(1 for a in left_heights for b in right_heights if _close(a, b))
    return count


def start_class_sizes(n_plus_1: int) -> dict[StartClass, int]:
    """Sizes of the four start classes over Dyck paths of length
    2*n_plus_1 (length >= 6)."""
    _require(n_plus_1 >= 3, "start_class_sizes requires paths of length >= 6")
    sizes = dict.fromkeys(StartClass, 0)
    for steps, levels in _dyck_walks(n_plus_1):
        sizes[_start_class(steps, levels)] += 1
    _check(sum(sizes.values()) == catalan(n_plus_1), "class sizes do not add up")
    return sizes
