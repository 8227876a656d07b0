"""Exact closed-form values of the super Catalan, Catalan and ballot numbers.

Every formula is evaluated by exact integer division whose remainder must
be zero; a non-integral result raises immediately instead of silently
rounding.  Plain Python integers carry the arbitrary precision.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import DomainError

__all__ = [
    "ballot_number",
    "ballot_sum_identity",
    "ballot_sum_terms",
    "catalan",
    "super_catalan_s",
    "super_catalan_t",
]

# Memoized so a table does not recompute large factorials per cell, and bounded
# so a wide one does not keep them all: 1,024 sits above the working set of
# `table T 200 200` (0! to 400!) and of each formula suite (451, symmetry's).
_fact = lru_cache(maxsize=1024)(math.factorial)


def _exact_div(num: int, den: int, what: str, *args: int) -> int:
    quotient, remainder = divmod(num, den)
    if remainder:
        raise AssertionError(f"internal: {what % args} evaluated to non-integer {num}/{den}")
    return quotient


def super_catalan_s(m: int, n: int) -> int:
    """(2m)! (2n)! / (m! n! (m+n)!), always an integer."""
    if m < 0 or n < 0:
        raise DomainError("super_catalan_s requires m, n >= 0")
    num, den = _fact(2 * m) * _fact(2 * n), _fact(m) * _fact(n) * _fact(m + n)
    return _exact_div(num, den, "S(%s,%s)", m, n)


def super_catalan_t(m: int, n: int) -> int:
    """The super Catalan number: half of :func:`super_catalan_s`.

    Integral for every (m, n) except (0, 0), which is rejected.
    """
    if m < 0 or n < 0:
        raise DomainError("super_catalan_t requires m, n >= 0")
    if m == 0 and n == 0:
        raise DomainError("T(0,0) is not integral")
    s = super_catalan_s(m, n)
    if s % 2:
        raise AssertionError(f"internal: S({m},{n}) = {s} is odd")
    return s // 2


def catalan(n: int) -> int:
    """binom(2n, n) / (n+1)."""
    if n < 0:
        raise DomainError("catalan requires n >= 0")
    return _exact_div(math.comb(2 * n, n), n + 1, "C(%s)", n)


def ballot_number(n: int, r: int) -> int:
    """(r/n) * binom(2n, n+r): nonnegative up/down paths of length 2n-1
    ending at level 2r-1."""
    if not 1 <= r <= n:
        raise DomainError(f"ballot_number requires 1 <= r <= n, got n={n}, r={r}")
    return _exact_div(r * math.comb(2 * n, n + r), n, "B(%s,%s)", n, r)


def ballot_sum_terms(m: int, n: int) -> list[tuple[int, int, int]]:
    """Unsigned terms of the alternating ballot-product sum, in both printed
    forms: ``(r, B(m,r)*B(n,r), (r^2/(m n)) * binom(2m,m+r) * binom(2n,n+r))``.

    The two forms must agree exactly for every r; a mismatch is an internal
    error.  The sum truncates at r = min(m, n) because the binomials vanish
    beyond it.
    """
    if m < 1 or n < 1:
        raise DomainError("ballot_sum_terms requires m, n >= 1")
    terms = []
    for r in range(1, min(m, n) + 1):
        product_form = ballot_number(m, r) * ballot_number(n, r)
        binomial_form = _exact_div(
            r * r * math.comb(2 * m, m + r) * math.comb(2 * n, n + r), m * n,
            "ballot-sum term r=%s of (%s,%s)", r, m, n,
        )
        if product_form != binomial_form:
            raise AssertionError(
                f"internal: ballot-sum term mismatch at (m={m}, n={n}, r={r}): "
                f"{product_form} != {binomial_form}"
            )
        terms.append((r, product_form, binomial_form))
    return terms


def ballot_sum_identity(m: int, n: int) -> int:
    """Sum over r of (-1)^(r-1) B(m,r) B(n,r); equals the super Catalan
    number T(m,n)."""
    return sum(
        (term if r % 2 else -term) for r, term, _ in ballot_sum_terms(m, n)
    )

