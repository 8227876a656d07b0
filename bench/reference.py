"""A fixed piece of pure-Python work that times how fast one CPU is now.

    python3 -E -s -S bench/reference.py           # run it once, print the time
    python3 -E -s -S bench/reference.py --serve   # time it once per line read

It imports nothing from supercat, so no change to the program moves its
time; only the host does.  ``spawner.py`` keeps one ``--serve`` process
pinned to each CPU and times the work on the CPUs a child runs on, just
before the child starts and after each slice of its run (see README.md,
"Reference seconds").  The work is a small mix of what supercat's layers
do: recursive generators building tuples (enumeration, paths), dict
tallies (verify), factorials and ``Fraction`` sums (numbers), and JSON
text (cli).  The first run is checked against ``EXPECTED``; on a
mismatch the process exits 1.
"""

import json
import sys
import time
from fractions import Fraction
from math import comb, factorial

EXPECTED = "reference 7 69576 336977 ba0c9dad 3174"


def walks(n, h=0, acc=()):
    """Motzkin words of length n from level h back to level 0."""
    if n == 0:
        if h == 0:
            yield acc
        return
    if h < n:
        yield from walks(n - 1, h + 1, acc + (1,))
    yield from walks(n - 1, h, acc + (0,))
    if h > 0:
        yield from walks(n - 1, h - 1, acc + (-1,))


def work() -> str:
    tally: dict[int, int] = {}
    for word in walks(12):
        peak = max(sum(word[:i]) for i in range(0, 13, 3))
        tally[peak] = tally.get(peak, 0) + word.count(0)
    total = Fraction(0)
    for k in range(1, 60):
        total += Fraction(factorial(2 * k), factorial(k) * factorial(k + 1)) / comb(k + 9, 4)
    text = json.dumps({str(k): [str(comb(2 * k, j)) for j in range(0, k, 7)] for k in range(250)})
    return (f"reference {len(tally)} {sum(tally.values())} {len(text)} "
            f"{total.numerator % (1 << 32):08x} {total.denominator % (1 << 16):04x}")


def timed() -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def main() -> int:
    line = work()
    if line != EXPECTED:
        print(f"reference work gave {line!r}, expected {EXPECTED!r}", file=sys.stderr)
        return 1
    if sys.argv[1:] != ["--serve"]:
        print(f"{line}: {timed():.6f} s")
        return 0
    for _ in sys.stdin:
        sys.stdout.write(f"{timed()!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
