"""Acceptance gate: one test per criterion, each at its stated bound.

All comparisons are exact (integer arithmetic); the only tolerances are
the two runtime budgets, asserted as wall-clock bounds.  Each test prints
a PASS line on success; run with ``pytest -v -s tests/test_acceptance.py``
to see them.
"""

import time

import pytest

from supercat import verify
from supercat.bijections import signed_count, theorem4_paths
from supercat.enumeration import enum_ballot, enum_dyck, enum_motzkin2
from supercat.errors import DomainError
from supercat.numbers import (
    ballot_number,
    catalan,
    super_catalan_s,
    super_catalan_t,
)


def ok(num: int, message: str) -> None:
    print(f"ACCEPTANCE {num:02d}: PASS  {message}")


def test_c01_figure_one_reproduction():
    start = time.perf_counter()
    cell = signed_count(2, 3)
    elapsed = time.perf_counter() - start
    assert cell.positive == 10
    assert cell.negative == 4
    assert cell.difference == 6 == super_catalan_t(2, 3)
    assert elapsed < 1.0
    ok(1, f"signed_count(2,3) = (10, 4), difference 6, {elapsed:.3f}s")


def test_c02_signed_interpretation_exhaustive():
    start = time.perf_counter()
    report = verify.run_identity("theorem1", max_sum=14, jobs=1)
    elapsed = time.perf_counter() - start
    assert report.passed, report.failures[:3]
    assert report.cases == sum(s - 1 for s in range(2, 15))
    assert elapsed < 60.0
    ok(2, f"P-N = T for all m+n <= 14 ({report.cases} cells), {elapsed:.1f}s single-threaded")


def test_c03_dyck_reformulation():
    report = verify.run_identity("theorem1-dyck", max_sum=12, jobs=1)
    assert report.passed, report.failures[:3]
    ok(3, f"mod-4 Dyck tallies and pathwise bijection correspondence, m+n <= 12 ({report.cases} checks)")


def test_c04_rubenstein_recurrence():
    start = time.perf_counter()
    report = verify.run_identity("rubenstein", max_m=50, max_n=50)
    elapsed = time.perf_counter() - start
    assert report.passed
    assert report.cases == 2500
    assert elapsed < 1.0
    ok(4, f"4T(m,n) = T(m+1,n) + T(m,n+1) on the 50x50 grid, {elapsed:.3f}s")


def test_c05_ballot_sum_identity():
    start = time.perf_counter()
    report = verify.run_identity("ballot-sum", max_m=30, max_n=30)
    elapsed = time.perf_counter() - start
    assert report.passed, report.failures[:3]
    assert report.cases == 900
    assert elapsed < 1.0
    ok(5, f"alternating ballot-product sum = T with termwise form equality, m,n <= 30, {elapsed:.3f}s")


def test_c06_bounded_gap_census():
    report = verify.run_identity("theorem4", max_n=10)
    assert report.passed, report.failures[:3]
    listing = sorted(p.steps for p in theorem4_paths(3))
    assert listing == sorted(["UDUDUD", "UDUDUD", "UUDDUD", "UDUUDD", "UUDUDD", "UUUDDD"])
    ok(6, "bounded-gap census = T(2,n) for n <= 10; n=3 multiset matches exactly")


def test_c07_pair_count_oracle():
    report = verify.run_identity("pairs", max_n=9)
    assert report.passed, report.failures[:3]
    ok(7, "ordered pairs with height gap <= 1 counted by T(2,n) for n <= 9")


def test_c08_injection_roundtrips_and_censuses():
    report_f = verify.run_identity("bijection-f", max_n=8)
    assert report_f.passed, report_f.failures[:3]
    report_g = verify.run_identity("bijection-g", max_n=8)
    assert report_g.passed, report_g.failures[:3]
    ok(8, f"both injections round-trip with exact image censuses for n <= 8 "
          f"({report_f.cases}+{report_g.cases} checks)")


def test_c09_pair_map_inverse_and_heights():
    report = verify.run_identity("pair-map", max_n=8)
    assert report.passed, report.failures[:3]
    ok(9, f"pair split/join mutually inverse with matching split heights for n <= 8 ({report.cases} checks)")


def test_c10_weight_preserving_reversal_and_symmetry():
    report = verify.run_identity("reversal", max_sum=12, jobs=1)
    assert report.passed, report.failures[:3]
    formula = verify.run_identity("symmetry", max_sum=100)
    assert formula.passed, formula.failures[:3]
    ok(10, f"reversal preserves weights for m+n <= 12 ({report.cases} checks); "
           f"T(m,n) = T(n,m) for m+n <= 100 ({formula.cases} cells)")


def test_c11_parity_and_excluded_origin():
    checked = 0
    for s in range(1, 101):
        for m in range(s + 1):
            assert super_catalan_s(m, s - m) % 2 == 0
            checked += 1
    with pytest.raises(DomainError, match=r"T\(0,0\) is not integral"):
        super_catalan_t(0, 0)
    ok(11, f"S(m,n) even for all {checked} cells with 1 <= m+n <= 100; T(0,0) raises")


def test_c12_enumeration_counts():
    for n in range(13):
        assert sum(1 for _ in enum_dyck(n)) == catalan(n)
    for k in range(13):
        assert sum(1 for _ in enum_motzkin2(k)) == catalan(k + 1)
    ballot_cells = 0
    for n in range(1, 11):
        for r in range(1, n + 1):
            assert sum(1 for _ in enum_ballot(n, r)) == ballot_number(n, r)
            ballot_cells += 1
    ok(12, f"|D_n| = C_n (n <= 12), |M_k| = C_(k+1) (k <= 12), {ballot_cells} ballot families exact")
