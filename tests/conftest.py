"""Shared brute-force oracles and hypothesis strategies.

The oracles here deliberately avoid the library's own machinery: path
families are filtered out of the full cartesian product of step strings,
and formula values are recomputed from raw factorial quotients.  Keep
them slow and obvious.
"""

from __future__ import annotations

import itertools
import math

from hypothesis import strategies as st

from supercat.paths import RISE, PathMarkers, parse_path

STEP_ORDER = {"U": 0, "D": 1, "S": 2, "W": 3}

# The mutants of the sign rule that the ROADMAP's mutation sweep found alive.
SIGN_MUTANTS = {
    "return 2": lambda level: 2 if level % 2 == 0 else -1,
    "else -2": lambda level: 1 if level % 2 == 0 else -2,
    "% 3": lambda level: 1 if level % 3 == 0 else -1,
    "!= 0": lambda level: 1 if level % 2 != 0 else -1,
    "== 1": lambda level: 1 if level % 2 == 1 else -1,
}


def canon_key(steps: str) -> tuple[int, ...]:
    """Sort key for the canonical U < D < S < W order."""
    return tuple(STEP_ORDER[c] for c in steps)


def brute_family(length: int, terminal: int, alphabet: str) -> list[str]:
    """Every nonnegative path of ``length`` steps ending at ``terminal``,
    by filtering the full product.  Exponential; keep length small."""
    found = []
    for combo in itertools.product(alphabet, repeat=length):
        level = 0
        for ch in combo:
            level += RISE[ch]
            if level < 0:
                break
        else:
            if level == terminal:
                found.append("".join(combo))
    return found


def random_member(rng, length: int, alphabet: str, end: int = 0) -> str | None:
    """A random nonnegative path over ``alphabet`` of ``length`` steps ending
    at ``end``, built step by step under the completability constraint;
    None when there is no such path.  Takes a seeded ``random.Random``."""
    if end > length or (set(alphabet) <= {"U", "D"} and (length - end) % 2):
        return None
    steps, level = [], 0
    for pos in range(length):
        rem = length - pos - 1
        ch = rng.choice([c for c in alphabet if level + RISE[c] >= 0 and abs(level + RISE[c] - end) <= rem])
        steps.append(ch)
        level += RISE[ch]
    return "".join(steps)


def brute_height(steps: str) -> int:
    level = 0
    top = 0
    for ch in steps:
        level += RISE[ch]
        top = max(top, level)
    return top


def reference_markers(steps: str) -> PathMarkers:
    """PathMarkers of a nonempty Dyck path by plain loops over its docstring."""
    levels = [0]
    for ch in steps:
        levels.append(levels[-1] + RISE[ch])
    height = 0
    for level in levels:
        height = max(height, level)
    leftmost = rightmost = None
    for x, level in enumerate(levels):
        if level == height:
            if leftmost is None:
                leftmost = x
            rightmost = x
    # the last point at level one up to and including the rightmost maximum
    anchor = None
    for x in range(rightmost + 1):
        if levels[x] == 1:
            anchor = x
    # maxima over the prefix up to the anchor and the suffix from it
    h_minus = h_plus = 0
    for x, level in enumerate(levels):
        if x <= anchor:
            h_minus = max(h_minus, level)
        if x >= anchor:
            h_plus = max(h_plus, level)
    return PathMarkers(height, leftmost, rightmost, anchor, h_minus, h_plus)


def ref_super_catalan_s(m: int, n: int) -> int:
    num = math.factorial(2 * m) * math.factorial(2 * n)
    den = math.factorial(m) * math.factorial(n) * math.factorial(m + n)
    assert num % den == 0
    return num // den


def ref_catalan(n: int) -> int:
    num = math.factorial(2 * n)
    den = math.factorial(n) * math.factorial(n + 1)
    assert num % den == 0
    return num // den


def ref_ballot(n: int, r: int) -> int:
    num = r * math.comb(2 * n, n + r)
    assert num % n == 0
    return num // n


@st.composite
def motzkin_paths(draw, max_len: int = 10):
    """A uniform-ish random valid 2-Motzkin path, built step by step under
    the completability constraint."""
    length = draw(st.integers(0, max_len))
    steps = []
    level = 0
    for pos in range(length):
        rem = length - pos - 1
        options = [c for c in "UDSW" if level + RISE[c] >= 0 and level + RISE[c] <= rem]
        ch = draw(st.sampled_from(options))
        steps.append(ch)
        level += RISE[ch]
    return parse_path("".join(steps), "motzkin")


@st.composite
def dyck_paths(draw, max_n: int = 7, min_n: int = 0):
    length = 2 * draw(st.integers(min_n, max_n))
    steps = []
    level = 0
    for pos in range(length):
        rem = length - pos - 1
        options = [c for c in "UD" if level + RISE[c] >= 0 and level + RISE[c] <= rem]
        ch = draw(st.sampled_from(options))
        steps.append(ch)
        level += RISE[ch]
    return parse_path("".join(steps), "motzkin")
