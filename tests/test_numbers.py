import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ref_ballot, ref_catalan, ref_super_catalan_s
from supercat import numbers
from supercat.enumeration import enum_ballot, enum_dyck
from supercat.errors import DomainError
from supercat.numbers import (
    ballot_number,
    ballot_sum_identity,
    ballot_sum_terms,
    catalan,
    super_catalan_s,
    super_catalan_t,
)
from supercat.verify import run_identity


class TestSuperCatalanS:
    @pytest.mark.parametrize("m,n,expected", [(0, 0, 1), (1, 1, 2), (2, 3, 12)])
    def test_frozen(self, m, n, expected):
        assert super_catalan_s(m, n) == expected

    @given(st.integers(0, 40), st.integers(0, 40))
    def test_against_raw_factorials(self, m, n):
        assert super_catalan_s(m, n) == ref_super_catalan_s(m, n)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            super_catalan_s(-1, 2)

    def test_large_values_stay_exact(self):
        # exercises the integrality assertion on ~500-digit intermediates
        value = super_catalan_s(100, 100)
        assert value == ref_super_catalan_s(100, 100)


class TestSuperCatalanT:
    @pytest.mark.parametrize(
        "m,n,expected", [(2, 3, 6), (1, 3, 5), (0, 2, 3), (2, 1, 2), (3, 3, 10)]
    )
    def test_frozen(self, m, n, expected):
        assert super_catalan_t(m, n) == expected

    def test_half_of_s(self):
        for m in range(8):
            for n in range(8):
                if (m, n) != (0, 0):
                    assert 2 * super_catalan_t(m, n) == super_catalan_s(m, n)

    def test_first_row_is_catalan(self):
        assert [super_catalan_t(1, n) for n in range(9)] == [ref_catalan(n) for n in range(9)]

    def test_origin_rejected(self):
        with pytest.raises(DomainError, match=r"T\(0,0\) is not integral"):
            super_catalan_t(0, 0)
        with pytest.raises(DomainError, match="^super_catalan_t requires m, n >= 0$"):
            super_catalan_t(-1, 2)


class TestCatalan:
    def test_frozen_sequence(self):
        assert [catalan(n) for n in range(11)] == [
            1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796,
        ]

    def test_against_enumeration(self):
        for n in range(9):
            assert catalan(n) == sum(1 for _ in enum_dyck(n))

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            catalan(-1)


class TestBallotNumber:
    @pytest.mark.parametrize("n,r,expected", [(1, 1, 1), (3, 1, 5), (2, 2, 1), (3, 2, 4)])
    def test_frozen(self, n, r, expected):
        assert ballot_number(n, r) == expected

    def test_against_enumeration(self):
        for n in range(1, 7):
            for r in range(1, n + 1):
                assert ballot_number(n, r) == sum(1 for _ in enum_ballot(n, r))

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            ballot_number(2, 3)
        with pytest.raises(DomainError):
            ballot_number(2, 0)


class TestRubenstein:
    def test_spot_values(self):
        assert 4 * super_catalan_t(1, 1) == super_catalan_t(2, 1) + super_catalan_t(1, 2)
        assert 4 * super_catalan_t(2, 2) == super_catalan_t(3, 2) + super_catalan_t(2, 3)

    def test_full_grid(self):
        report = run_identity("rubenstein", max_m=50, max_n=50)
        assert report.passed
        assert report.cases == 2500
        assert report.identity == "rubenstein"
        assert report.bounds == {"max_m": 50, "max_n": 50}

    def test_bounds_validated(self):
        with pytest.raises(DomainError):
            run_identity("rubenstein", max_m=0, max_n=5)


class TestBallotSum:
    @pytest.mark.parametrize("m,n,expected", [(2, 2, 3), (1, 1, 1), (2, 3, 6)])
    def test_frozen(self, m, n, expected):
        assert ballot_sum_identity(m, n) == expected

    def test_2_3_term_by_term(self):
        # B(2,1)B(3,1) - B(2,2)B(3,2) = 2*5 - 1*4
        assert [(r, prod) for r, prod, _ in ballot_sum_terms(2, 3)] == [(1, 10), (2, 4)]

    def test_equals_super_catalan(self):
        for m in range(1, 13):
            for n in range(1, 13):
                assert ballot_sum_identity(m, n) == super_catalan_t(m, n)

    def test_both_printed_forms_agree(self):
        for m in range(1, 11):
            for n in range(1, 11):
                for r, product_form, binomial_form in ballot_sum_terms(m, n):
                    assert product_form == binomial_form
                    assert product_form == ref_ballot(m, r) * ref_ballot(n, r)

    def test_truncation_matches_longer_sum(self):
        # terms beyond r = min(m, n) vanish, so extending the range is a no-op
        m, n = 3, 5
        explicit = sum(
            (-1) ** (r - 1) * ref_ballot(m, r) * ref_ballot(n, r) for r in range(1, m + 1)
        )
        assert ballot_sum_identity(m, n) == explicit

    def test_requires_positive(self):
        with pytest.raises(DomainError):
            ballot_sum_identity(0, 3)


class TestInexactDivision:
    """A non-integral evaluation raises AssertionError naming the formula and its arguments."""

    def test_super_catalan_s(self, monkeypatch):
        monkeypatch.setattr(numbers, "_fact", lambda k: k + 2)
        with pytest.raises(AssertionError) as info:
            super_catalan_s(1, 2)
        # (4 * 6) / (3 * 4 * 5)
        assert str(info.value) == "internal: S(1,2) evaluated to non-integer 24/60"

    def test_catalan(self, monkeypatch):
        monkeypatch.setattr(math, "comb", lambda n, k: 1)
        with pytest.raises(AssertionError) as info:
            catalan(3)
        assert str(info.value) == "internal: C(3) evaluated to non-integer 1/4"

    def test_ballot_number(self, monkeypatch):
        monkeypatch.setattr(math, "comb", lambda n, k: 1)
        with pytest.raises(AssertionError) as info:
            ballot_number(4, 3)
        assert str(info.value) == "internal: B(4,3) evaluated to non-integer 3/4"

    def test_ballot_sum_term(self, monkeypatch):
        # product forms that pass, so the binomial form is the one evaluated inexactly
        monkeypatch.setattr(numbers, "ballot_number", lambda n, r: 1)
        monkeypatch.setattr(math, "comb", lambda n, k: 1)
        with pytest.raises(AssertionError) as info:
            ballot_sum_terms(2, 3)
        assert str(info.value) == "internal: ballot-sum term r=1 of (2,3) evaluated to non-integer 1/6"


class TestInternalChecks:
    """A failed consistency check on exact values raises AssertionError naming them."""

    def test_odd_super_catalan_s(self, monkeypatch):
        monkeypatch.setattr(numbers, "_fact", lambda k: 1)
        with pytest.raises(AssertionError) as info:
            super_catalan_t(1, 2)
        assert str(info.value) == "internal: S(1,2) = 1 is odd"

    def test_ballot_sum_term_mismatch(self, monkeypatch):
        # the binomial form of r = 1 at (2,3) is 1 * 4 * 15 / 6 = 10
        monkeypatch.setattr(numbers, "ballot_number", lambda n, r: 1)
        with pytest.raises(AssertionError) as info:
            ballot_sum_terms(2, 3)
        assert str(info.value) == "internal: ballot-sum term mismatch at (m=2, n=3, r=1): 1 != 10"


class TestAlgebraicProperties:
    @given(st.integers(0, 30), st.integers(0, 30))
    def test_symmetry(self, m, n):
        if (m, n) == (0, 0):
            return
        assert super_catalan_t(m, n) == super_catalan_t(n, m)

    def test_parity_of_s(self):
        for s in range(1, 41):
            for m in range(s + 1):
                assert super_catalan_s(m, s - m) % 2 == 0

    def test_t0n_is_half_central_binomial(self):
        import math

        for n in range(1, 30):
            assert 2 * super_catalan_t(0, n) == math.comb(2 * n, n)

