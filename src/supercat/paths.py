"""Lattice paths over the four-letter step alphabet.

Steps are single characters: ``U`` (up, +1), ``D`` (down, -1), ``S``
(straight level step, 0) and ``W`` (wavy level step, 0).  A path is an
immutable step string; its level profile, computed on first use, has
``levels[x]`` the y-coordinate after ``x`` steps and ``levels[0] == 0``.

Family membership (Dyck, 2-Motzkin, ballot) is a predicate over this one
type rather than a distinct runtime type: parsing is deliberately
permissive, so a freshly parsed path may be invalid for every family.
``DyckPath``/``TwoMotzkinPath`` are aliases used in signatures to say
which family an operation expects or guarantees.  A family is one value
``(alphabet, table, end)``: its steps in canonical order, the table deleting
them, its end level.  The enumeration engine walks it, and the one membership
test, :func:`_family_levels`, tests it for the ``is_*`` predicates, the maps'
own output checks and :func:`parse_path`'s alphabet check.
:func:`_split` is the one split-point scan of a Dyck path (its height,
rightmost maximum and last level-one point before it) and its only internal
form: the m = 2 maps and suites read it, and only the public :func:`markers`
builds a :class:`PathMarkers` from it.  The cores ``_split`` and ``_reverse``
trust their input.  ``_reverse`` returns a checked ``(steps, levels)``
walk, the enumeration engine's type, and no :class:`LatticePath`: a wrong
mirror raises AssertionError.

The text format is a single line over ``{U,D,S,W}`` with no separators;
the empty string is the empty path.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

from .errors import DomainError, ParseError

__all__ = [
    "EMPTY_PATH",
    "DyckPath",
    "LatticePath",
    "PathMarkers",
    "TwoMotzkinPath",
    "is_dyck",
    "is_even_terminal_ballot",
    "is_motzkin2",
    "markers",
    "parse_path",
    "reverse",
]

RISE = {"U": 1, "D": -1, "S": 0, "W": 0}
_RISES = bytes.maketrans("".join(RISE).encode(), bytes(rise & 0xFF for rise in RISE.values()))

# Each family: its alphabet in the canonical step order of enumeration and
# golden files, the table deleting that alphabet, and the level it ends on.
_Family = tuple[str, dict[int, None], int]
_DYCK: _Family = ("UD", str.maketrans("", "", "UD"), 0)
_MOTZKIN2: _Family = ("UDSW", str.maketrans("", "", "UDSW"), 0)
_BALLOT_EVEN: _Family = (*_DYCK[:2], 2)
_ALPHABETS = {"dyck": _DYCK, "motzkin": _MOTZKIN2}

_MIRROR = str.maketrans("UD", "DU")


class LatticePath:
    """Immutable step sequence; :func:`parse_path` builds one over a checked
    alphabet, and ``levels`` is derived from the steps on first use."""

    steps: str

    def __init__(self, steps: str) -> None:
        object.__setattr__(self, "steps", steps)

    def __eq__(self, other: object) -> bool:
        return self.steps == other.steps if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.steps,))

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError  # deferred: only this error needs the module

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        return self.steps

    def __repr__(self) -> str:
        return f"LatticePath({self.steps!r})"

    @cached_property
    def levels(self) -> tuple[int, ...]:
        if foreign := self.steps.translate(_MOTZKIN2[1]):  # the byte kernel would read it as a rise
            raise KeyError(foreign[0])
        return _levels(self.steps)

    @property
    def height(self) -> int:
        return max(self.levels)


# Signature aliases; validity is checked by the is_* predicates.
DyckPath = LatticePath
TwoMotzkinPath = LatticePath

EMPTY_PATH = LatticePath("")


def parse_path(text: str, alphabet: str) -> LatticePath:
    """Parse a path string over the ``"dyck"`` (U/D) or ``"motzkin"``
    (U/D/S/W) alphabet.

    Checks the alphabet but does not enforce nonnegativity or any
    terminal condition; the ``is_*`` predicates check those.  Raises
    :class:`ParseError` naming the first offending index.
    """
    try:
        table = _ALPHABETS[alphabet][1]
    except KeyError:
        raise DomainError(f"unknown alphabet {alphabet!r}; expected 'dyck' or 'motzkin'") from None
    if foreign := text.translate(table):
        i = text.index(foreign[0])
        raise ParseError(f"unknown step {foreign[0]!r} at index {i}", index=i)
    return LatticePath(text)


def _levels(steps: str) -> tuple[int, ...]:
    """The level profile of steps over U/D/S/W, unchecked: the one level rule."""
    # each step becomes its signed-byte rise in C; a tuple built straight from
    # an iterator is over-allocated, one built from a list is exact-size
    return tuple(list(accumulate(memoryview(steps.encode().translate(_RISES)).cast("b"), initial=0)))


def _family_levels(steps: str, family: _Family) -> tuple[int, ...] | None:
    """The levels of steps over the family's alphabet that never go below the
    axis and end on the family's level, else None."""
    _, table, end = family
    if steps.translate(table):
        return None
    levels = _levels(steps)
    # steps move by at most one level, so a path below the axis passes -1
    return levels if -1 not in levels and levels[-1] == end else None


def is_dyck(path: LatticePath) -> bool:
    """Up/down steps only, never below the axis, ends on the axis.

    The empty path qualifies (length 0, height 0).
    """
    return _family_levels(path.steps, _DYCK) is not None


def is_motzkin2(path: LatticePath) -> bool:
    """Never below the axis and ends on the axis; level steps allowed."""
    return _family_levels(path.steps, _MOTZKIN2) is not None


def is_even_terminal_ballot(path: LatticePath) -> bool:
    """Up/down path ending at level 2, never below the axis (so of even length)."""
    return _family_levels(path.steps, _BALLOT_EVEN) is not None


class PathMarkers(NamedTuple):
    """Distinguished points and split statistics of a nonempty Dyck path.

    ``last_level_one`` is the last point at level one up to and including
    the rightmost maximum; ``h_minus``/``h_plus`` are the maximum levels
    over the prefix up to that point and the suffix from it (both
    inclusive).  Always ``h_minus <= h_plus == height``.
    """

    height: int
    leftmost_max: int
    rightmost_max: int
    last_level_one: int
    h_minus: int
    h_plus: int


def _split(levels: tuple[int, ...]) -> tuple[int, int, int]:
    """``(height, rightmost_max, last_level_one)`` of a checked nonempty Dyck
    path's levels: the one scan for the point the m = 2 maps split at."""
    h = max(levels)
    rev = levels[::-1]
    r = rev.index(h)
    # a nonempty Dyck path starts with U, so point 1 is at level one and the
    # second search cannot fail
    return h, len(levels) - 1 - r, len(levels) - 1 - rev.index(1, r)


def markers(path: DyckPath) -> PathMarkers:
    """Compute :class:`PathMarkers` for a valid, nonempty Dyck path."""
    if len(path) == 0:
        raise DomainError("markers undefined for empty path")
    if not is_dyck(path):
        raise DomainError("markers require a valid Dyck path")
    levels = path.levels
    h, rightmost, x = _split(levels)
    # the suffix from x holds the rightmost maximum, so its maximum is h
    return PathMarkers(h, levels.index(h), rightmost, x, max(levels[: x + 1]), h)


def _reverse(steps: str) -> tuple[str, tuple[int, ...]]:
    """The mirror of a checked 2-Motzkin path's steps and its levels, checked."""
    mirrored = steps[::-1].translate(_MIRROR)
    levels = _family_levels(mirrored, _MOTZKIN2)
    if levels is None:
        raise AssertionError(f"internal: reversed path {mirrored!r} is not a valid 2-Motzkin path")
    return mirrored, levels


def reverse(path: TwoMotzkinPath) -> TwoMotzkinPath:
    """The path read right to left: step order reversed, up and down
    exchanged, level steps kept.  An involution on valid 2-Motzkin paths."""
    if not is_motzkin2(path):
        raise DomainError("reverse requires a valid 2-Motzkin path")
    return LatticePath(_reverse(path.steps)[0])
