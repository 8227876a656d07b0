"""Lattice paths over the four-letter step alphabet.

Steps are single characters: ``U`` (up, +1), ``D`` (down, -1), ``S``
(straight level step, 0) and ``W`` (wavy level step, 0).  A path is an
immutable value: the step string plus a cached level profile, where
``levels[x]`` is the y-coordinate after ``x`` steps and ``levels[0] == 0``.

Family membership (Dyck, 2-Motzkin, ballot) is a predicate over this one
type rather than a distinct runtime type: parsing is deliberately
permissive, so a freshly parsed path may be invalid for every family.
``DyckPath``/``TwoMotzkinPath`` are aliases used in signatures to say
which family an operation expects or guarantees.  Public functions check
it through one private test per family, :func:`_dyck_levels` and
:func:`_motzkin2_levels`, which the maps' own output checks share; the
cores ``_markers`` and ``_reverse`` trust their input.  ``_reverse``
returns a checked ``(steps, levels)`` walk, the enumeration engine's type,
and no :class:`LatticePath`: a wrong mirror raises AssertionError.

The text format is a single line over ``{U,D,S,W}`` with no separators;
the empty string is the empty path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from .errors import DomainError, ParseError

UP = "U"
DOWN = "D"
STRAIGHT = "S"
WAVY = "W"

RISE = {UP: 1, DOWN: -1, STRAIGHT: 0, WAVY: 0}

# Canonical step order for enumeration and golden files.
DYCK_ALPHABET = (UP, DOWN)
MOTZKIN_ALPHABET = (UP, DOWN, STRAIGHT, WAVY)

_ALPHABETS = {"dyck": frozenset(DYCK_ALPHABET), "motzkin": frozenset(MOTZKIN_ALPHABET)}

_MIRROR = str.maketrans("UD", "DU")
_NOT_UD = str.maketrans("", "", "UD")


@dataclass(frozen=True)
class LatticePath:
    """Immutable step sequence with its level profile.

    Construct through :func:`parse_path` (or :func:`make_path`); the two
    fields must stay consistent: ``len(levels) == len(steps) + 1`` and each
    increment matches the step's rise.
    """

    steps: str
    levels: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        return self.steps

    def __repr__(self) -> str:
        return f"LatticePath({self.steps!r})"

    @property
    def height(self) -> int:
        return max(self.levels)


# Signature aliases; validity is checked by the is_* predicates.
DyckPath = LatticePath
TwoMotzkinPath = LatticePath

EMPTY_PATH = LatticePath("", (0,))


def parse_path(text: str, alphabet: str) -> LatticePath:
    """Parse a path string over the ``"dyck"`` (U/D) or ``"motzkin"``
    (U/D/S/W) alphabet.

    Computes the level profile but does not enforce nonnegativity or any
    terminal condition; the ``is_*`` predicates check those.  Raises
    :class:`ParseError` naming the first offending index.
    """
    try:
        allowed = _ALPHABETS[alphabet]
    except KeyError:
        raise DomainError(f"unknown alphabet {alphabet!r}; expected 'dyck' or 'motzkin'") from None
    if not allowed.issuperset(text):
        i, ch = next((i, ch) for i, ch in enumerate(text) if ch not in allowed)
        raise ParseError(f"unknown step {ch!r} at index {i}", index=i)
    return LatticePath(text, _levels(text))


def _levels(steps: str) -> tuple[int, ...]:
    """The level profile of steps over U/D/S/W, unchecked."""
    # a tuple built straight from an iterator is over-allocated; one built
    # from a list is exact-size
    return tuple(list(accumulate(map(RISE.__getitem__, steps), initial=0)))


def make_path(text: str) -> LatticePath:
    """Parse over the full U/D/S/W alphabet."""
    return parse_path(text, "motzkin")


def _dyck_levels(steps: str) -> tuple[int, ...] | None:
    """The levels of steps that form a Dyck path (see :func:`is_dyck`), else None."""
    if steps.translate(_NOT_UD):
        return None
    levels = _levels(steps)
    return levels if min(levels) == 0 and levels[-1] == 0 else None


def _motzkin2_levels(steps: str) -> tuple[int, ...] | None:
    """The levels of steps that form a 2-Motzkin path (see :func:`is_motzkin2`), else None."""
    levels = _levels(steps)
    return levels if min(levels) >= 0 and levels[-1] == 0 else None


def is_dyck(path: LatticePath) -> bool:
    """Up/down steps only, never below the axis, ends on the axis.

    The empty path qualifies (length 0, height 0).
    """
    return _dyck_levels(path.steps) is not None


def is_motzkin2(path: LatticePath) -> bool:
    """Never below the axis and ends on the axis; level steps allowed."""
    return _motzkin2_levels(path.steps) is not None


def is_even_terminal_ballot(path: LatticePath) -> bool:
    """Up/down path of even length ending at level 2, never below the axis."""
    return _even_terminal_ballot(path.steps, path.levels)


def _even_terminal_ballot(steps: str, levels: tuple[int, ...]) -> bool:
    if set(steps) - {UP, DOWN}:
        return False
    return len(steps) % 2 == 0 and levels[-1] == 2 and min(levels) >= 0


def _rightmost(levels: tuple[int, ...], level: int) -> int:
    return len(levels) - 1 - levels[::-1].index(level)


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


def _markers(levels: tuple[int, ...]) -> PathMarkers:
    """:class:`PathMarkers` from the levels of a checked nonempty Dyck path."""
    h = max(levels)
    rightmost = _rightmost(levels, h)
    # a nonempty Dyck path starts with U, so x=1 is always a level-one
    # candidate and the search below cannot fail
    x = rightmost - levels[rightmost::-1].index(1)
    # the suffix from x holds the rightmost maximum, so its maximum is h
    return PathMarkers(h, levels.index(h), rightmost, x, max(levels[: x + 1]), h)


def markers(path: DyckPath) -> PathMarkers:
    """Compute :class:`PathMarkers` for a valid, nonempty Dyck path."""
    if len(path) == 0:
        raise DomainError("markers undefined for empty path")
    if not is_dyck(path):
        raise DomainError("markers require a valid Dyck path")
    return _markers(path.levels)


def _reverse(steps: str) -> tuple[str, tuple[int, ...]]:
    """The mirror of a checked 2-Motzkin path's steps and its levels, checked
    (the mirror table keeps U/D/S/W, and the level scan raises on any other)."""
    mirrored = steps[::-1].translate(_MIRROR)
    levels = _motzkin2_levels(mirrored)
    if levels is None:
        raise AssertionError(f"internal: reversed path {mirrored!r} is not a valid 2-Motzkin path")
    return mirrored, levels


def reverse(path: TwoMotzkinPath) -> TwoMotzkinPath:
    """The path read right to left: step order reversed, up and down
    exchanged, level steps kept.  An involution on valid 2-Motzkin paths."""
    if not is_motzkin2(path):
        raise DomainError("reverse requires a valid 2-Motzkin path")
    return LatticePath(*_reverse(path.steps))
