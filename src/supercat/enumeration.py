"""Exhaustive, deterministic generation of path families.

One backtrack, :func:`_prefixes`, walks every path of a family (one
``(alphabet, table, end)`` value, which :func:`~supercat.paths._family_levels`
tests), lazily and without recursion.  It is an explicit-stack backtrack
(after Knuth, TAOCP 4A §7.2.1.6, Algorithm P) over all but the last few
steps, pruned by nonnegativity and by whether the terminal level is still
reachable, so work stays linear in the output size.  It hands out each
prefix with every tail of the remaining steps from its end level, read from
a table built once per call.  Two joins complete the paths: :func:`_walks`
yields ``(steps, levels)`` pairs, and :func:`_profiles` yields only the
paths' levels as ``bytes``, one per point, in one packed block per prefix:
the prefix's levels packed once, joined in C to each of its tails' levels,
packed once per call, and building no steps.  Order is lexicographic in the
canonical step order U < D < S < W; two runs emit identical sequences, and
both joins emit them in the same order; k shares, each every k-th prefix,
split a family between k workers.

The public ``enum_*`` streams wrap each pair's steps in a
:class:`LatticePath`, which recomputes levels only if they are read.
Callers that read steps (the m = 2 map rows, the pathwise checks,
``supercat enumerate``) take the private ``_*_walks`` streams and build no
path; the level histograms that read no steps (theorem1's rows, the Dyck
side of theorem1-dyck's, the signed counts) take :func:`_profiles`.
:func:`_pair_walks` is the one pair stream: it feeds ``enum_pairs_total``,
``supercat enumerate pairs`` and pair-map's recovery half.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from itertools import accumulate

from .errors import DomainError
from .numbers import catalan
from .paths import _BALLOT_EVEN, _DYCK, _MOTZKIN2, RISE, LatticePath, _Family

__all__ = [
    "enum_ballot",
    "enum_ballot_even",
    "enum_dyck",
    "enum_motzkin2",
    "enum_pairs_total",
]

_Walk = tuple[str, tuple[int, ...]]

# The most paths one call walks unforced: theorem1's sweep at m + n <= 18,
# C(1) + ... + C(17), about 1.8e8.  Through _over_budget, the CLI refuses a longer
# sweep without --force, and the library's exhaustive tallies a bigger family.
_BUDGET = sum(map(catalan, range(1, 18)))


def _over_budget(prices: Iterable[int]) -> int:
    """The one budget test: the first running total of path prices past
    ``_BUDGET``, else 0.  It reads no price after that one."""
    return next((total for total in accumulate(prices) if total > _BUDGET), 0)


def _paths_text(count: int) -> str:
    """A path count as refusals print it: in full, or as the power of two at
    or below it when its decimal text would be long (int-to-str has a digit limit)."""
    return f"{count:,}" if count < 10**30 else f"2^{count.bit_length() - 1}"


# Steps left to the tail table, by alphabet size: long enough that the
# per-prefix backtrack is a small share of the work, short enough that
# the table stays small (at most 2**10 = 4**5 tails per start level, a few
# tens of KB; longer tails ran no faster and cost peak memory).
_TAIL = {2: 10, 4: 5}


def _tails(length: int, terminal: int, rises: list[tuple[str, int]]) -> dict[int, list[_Walk]]:
    """Every nonnegative walk of ``length`` steps that ends at ``terminal``,
    keyed by start level, in canonical order; levels leave out the start."""
    table: dict[int, list[_Walk]] = {terminal: [("", ())]}
    for _ in range(length):
        grown: dict[int, list[_Walk]] = {}
        for start in range(max(min(table) - 1, 0), max(table) + 2):
            walks = [
                (ch + steps, (start + rise,) + levels)
                for ch, rise in rises
                for steps, levels in table.get(start + rise, ())
            ]
            if walks:
                grown[start] = walks
        table = grown
    return table


def _prefixes(length: int, family: _Family, pack: Callable[[list[_Walk]], list] = list,
              share: tuple[int, int] = (0, 1)) -> Iterator[tuple[list[str], list[int], list]]:
    """The one backtrack: each prefix, all but the tail of ``length`` steps,
    of the family's paths in canonical order, as its live ``steps`` and
    ``levels`` buffers with the tails from its end level.  ``pack`` turns
    each start level's tails into the form the join reads, once per call.  A
    ``share`` ``(part, parts)`` keeps every parts-th prefix from the part-th."""
    alphabet, _, terminal = family
    part, parts = share
    cut = max(length - _TAIL[len(alphabet)], 0)
    if terminal < 0 or terminal > length or part and not cut:  # share 0 holds a short path's one prefix
        return
    if all(RISE[c] for c in alphabet) and (length - terminal) % 2:
        # pure up/down steps cannot change the parity of length - terminal
        return
    rises = [(c, RISE[c]) for c in alphabet]
    tails = {start: pack(walks) for start, walks in _tails(length - cut, terminal, rises).items()}
    steps = [""] * cut
    levels = [0] * (cut + 1)
    # choice[pos]: index into rises of the next step to try at pos
    choice = [0] * cut
    pos = seen = 0  # seen: the prefixes reached so far
    while pos >= 0:
        if pos == cut:
            if seen % parts == part:
                yield steps, levels, tails[levels[cut]]
            seen += 1
            pos -= 1
            continue
        level = levels[pos]
        rem = length - pos - 1
        for i in range(choice[pos], len(rises)):
            ch, rise = rises[i]
            nl = level + rise
            if nl >= 0 and abs(nl - terminal) <= rem:
                choice[pos] = i + 1
                steps[pos] = ch
                levels[pos + 1] = nl
                pos += 1
                break
        else:
            choice[pos] = 0
            pos -= 1


def _walks(length: int, family: _Family, share: tuple[int, int] = (0, 1)) -> Iterator[_Walk]:
    """All paths of ``length`` steps in the family (or in one ``share``), in canonical order."""
    for steps, levels, tails in _prefixes(length, family, list, share):
        head, lead = "".join(steps), tuple(levels)
        for tail_steps, tail_levels in tails:
            yield head + tail_steps, lead + tail_levels


def _profiles(length: int, family: _Family, share: tuple[int, int] = (0, 1)) -> Iterator[bytes]:
    """The level profiles of the family's paths of ``length`` steps, one byte
    per point, end to end in canonical order, packed in one block per engine
    prefix (a nonempty multiple of ``length + 1`` bytes); refused past a byte."""
    if length > 255:  # no level of a path exceeds its length
        raise DomainError(f"byte level profiles require length <= 255, got {length}")
    # head.join([b"", t1, t2, ...]) == head + t1 + head + t2 + ...: every path's profile, in one C join
    prefixes = _prefixes(length, family, lambda tails: [b"", *(bytes(levels) for _, levels in tails)], share)
    return (bytes(levels).join(tails) for _, levels, tails in prefixes)


def _dyck_walks(n: int, share: tuple[int, int] = (0, 1)) -> Iterator[_Walk]:
    if n < 0:
        raise DomainError("enum_dyck requires n >= 0")
    return _walks(2 * n, _DYCK, share)


def _motzkin2_walks(length: int) -> Iterator[_Walk]:
    if length < 0:
        raise DomainError("enum_motzkin2 requires length >= 0")
    return _walks(length, _MOTZKIN2)


def _ballot_walks(n: int, r: int) -> Iterator[_Walk]:
    if not 1 <= r <= n:
        raise DomainError(f"enum_ballot requires 1 <= r <= n, got n={n}, r={r}")
    return _walks(2 * n - 1, (*_DYCK[:2], 2 * r - 1))


def _ballot_even_walks(length: int) -> Iterator[_Walk]:
    if length < 0:
        raise DomainError("enum_ballot_even requires length >= 0")
    return _walks(length, _BALLOT_EVEN)


def enum_dyck(n: int) -> Iterator[LatticePath]:
    """Every Dyck path of length 2n exactly once; count is catalan(n)."""
    return (LatticePath(steps) for steps, _ in _dyck_walks(n))


def enum_motzkin2(length: int) -> Iterator[LatticePath]:
    """Every 2-Motzkin path of the given length; count is catalan(length+1)."""
    return (LatticePath(steps) for steps, _ in _motzkin2_walks(length))


def enum_ballot(n: int, r: int) -> Iterator[LatticePath]:
    """Every nonnegative up/down path of length 2n-1 ending at level 2r-1;
    count is ballot_number(n, r)."""
    return (LatticePath(steps) for steps, _ in _ballot_walks(n, r))


def enum_ballot_even(length: int) -> Iterator[LatticePath]:
    """Every nonnegative up/down path of the given even length ending at
    level 2 (the intermediate family of the two-stage injection)."""
    return (LatticePath(steps) for steps, _ in _ballot_even_walks(length))


def enum_pairs_total(n: int) -> Iterator[tuple[LatticePath, LatticePath]]:
    """All ordered pairs of (possibly empty) Dyck paths of total length 2n,
    grouped by the first component's length, ascending."""
    return ((LatticePath(first[0]), LatticePath(second[0])) for first, second in _pair_walks(n))


def _pair_walks(n: int) -> Iterator[tuple[_Walk, _Walk]]:
    if n < 1:
        raise DomainError("enum_pairs_total requires n >= 1")

    def gen() -> Iterator[tuple[_Walk, _Walk]]:
        for k in range(n + 1):
            # hold the seconds only when they are the smaller half: about C(n // 2) walks at most
            seconds = list(_dyck_walks(n - k)) if 2 * k > n else None
            for first in _dyck_walks(k):
                for second in seconds or _dyck_walks(n - k):
                    yield first, second

    return gen()
