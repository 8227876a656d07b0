import hashlib
import tracemalloc
from itertools import chain, islice

import pytest

from conftest import brute_family, brute_height, canon_key, ref_ballot, ref_catalan
from supercat.enumeration import (
    _dyck_walks,
    _pair_walks,
    _profiles,
    _walks,
    enum_ballot,
    enum_ballot_even,
    enum_dyck,
    enum_motzkin2,
    enum_pairs_total,
)
from supercat.bijections import signed_count, signed_count_dyck
from supercat.errors import DomainError
from supercat.paths import _BALLOT_EVEN, _DYCK, _MOTZKIN2, is_dyck, is_motzkin2, parse_path


def test_dyck_empty_case():
    assert [p.steps for p in enum_dyck(0)] == [""]


def test_dyck_n3_order_frozen():
    assert [p.steps for p in enum_dyck(3)] == [
        "UUUDDD",
        "UUDUDD",
        "UUDDUD",
        "UDUUDD",
        "UDUDUD",
    ]


def test_dyck_matches_brute_sets():
    for n in range(7):
        assert sorted(p.steps for p in enum_dyck(n)) == sorted(brute_family(2 * n, 0, "UD"))


def test_dyck_counts():
    for n in range(10):
        assert sum(1 for _ in enum_dyck(n)) == ref_catalan(n)


def test_dyck_rejects_negative():
    with pytest.raises(DomainError):
        enum_dyck(-1)
    # and the two families sized by length
    with pytest.raises(DomainError, match="^enum_motzkin2 requires length >= 0$"):
        enum_motzkin2(-1)
    with pytest.raises(DomainError, match="^enum_ballot_even requires length >= 0$"):
        enum_ballot_even(-1)


def test_motzkin_empty_case():
    assert [p.steps for p in enum_motzkin2(0)] == [""]


def test_motzkin_len2_order_frozen():
    assert [p.steps for p in enum_motzkin2(2)] == ["UD", "SS", "SW", "WS", "WW"]


def test_motzkin_len3_count_and_extremes():
    paths = [p.steps for p in enum_motzkin2(3)]
    assert len(paths) == 14
    assert paths[0] == "UDS"
    assert paths[-1] == "WWW"


def test_motzkin_matches_brute_sets():
    for length in range(8):
        assert sorted(p.steps for p in enum_motzkin2(length)) == sorted(
            brute_family(length, 0, "UDSW")
        )


def test_motzkin_counts():
    for length in range(9):
        assert sum(1 for _ in enum_motzkin2(length)) == ref_catalan(length + 1)


def test_ballot_single_step():
    assert [p.steps for p in enum_ballot(1, 1)] == ["U"]


def test_ballot_2_1_frozen():
    assert [p.steps for p in enum_ballot(2, 1)] == ["UUD", "UDU"]


def test_ballot_2_2_frozen():
    assert [p.steps for p in enum_ballot(2, 2)] == ["UUU"]


def test_ballot_matches_brute_sets():
    for n in range(1, 6):
        for r in range(1, n + 1):
            assert sorted(p.steps for p in enum_ballot(n, r)) == sorted(
                brute_family(2 * n - 1, 2 * r - 1, "UD")
            )


def test_ballot_counts():
    for n in range(1, 8):
        for r in range(1, n + 1):
            assert sum(1 for _ in enum_ballot(n, r)) == ref_ballot(n, r)


def test_ballot_parameter_errors():
    with pytest.raises(DomainError):
        enum_ballot(2, 3)
    with pytest.raises(DomainError):
        enum_ballot(2, 0)


def test_ballot_even_matches_brute_sets():
    for length in range(0, 9):
        assert sorted(p.steps for p in enum_ballot_even(length)) == sorted(
            brute_family(length, 2, "UD")
        )


def test_pairs_n1_frozen():
    pairs = [(a.steps, b.steps) for a, b in enum_pairs_total(1)]
    assert pairs == [("", "UD"), ("UD", "")]


def test_pairs_unfiltered_count_is_catalan_convolution():
    # sum over splits of C_k * C_{n-k}
    assert sum(1 for _ in enum_pairs_total(2)) == 5
    assert sum(1 for _ in enum_pairs_total(4)) == sum(
        ref_catalan(k) * ref_catalan(4 - k) for k in range(5)
    )


def test_pairs_filtered_by_height_gap():
    kept = [
        (a, b)
        for a, b in enum_pairs_total(3)
        if abs(brute_height(a.steps) - brute_height(b.steps)) <= 1
    ]
    assert len(kept) == 6


def test_pair_walks_are_every_first_by_every_second_in_order():
    for n in range(1, 9):
        want = [
            (first, second)
            for k in range(n + 1)
            for first in list(_dyck_walks(k))
            for second in list(_dyck_walks(n - k))
        ]
        assert list(_pair_walks(n)) == want, n


def test_pair_walks_hold_no_whole_dyck_size():
    # listing every second of n = 10 peaks near 7 MiB; the smaller half only
    # about 0.2 MiB
    tracemalloc.start()
    try:
        for _ in _pair_walks(10):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@pytest.mark.parametrize(
    "family,lengths",
    [
        (_DYCK, range(17)),
        (_MOTZKIN2, range(10)),
        (_BALLOT_EVEN, range(17)),
        *(((*_DYCK[:2], 2 * r - 1), range(17)) for r in (1, 2, 4, 6)),
    ],
    ids=["dyck", "motzkin2", "ballot-even", "ballot-1", "ballot-2", "ballot-4", "ballot-6"],
)
def test_profiles_are_the_walks_levels_in_order(family, lengths):
    # both joins read one backtrack: from length 0, through the lengths of the
    # wrong parity or below the end level that yield nothing, to past the tail
    # table's length (10 up/down or 5 four-letter steps), where every path
    # joins a prefix to a tail; each prefix's block packs whole profiles
    for length in lengths:
        blocks = list(_profiles(length, family))
        assert b"".join(blocks) == b"".join(bytes(levels) for _, levels in _walks(length, family)), length
        assert all(block and len(block) % (length + 1) == 0 for block in blocks), length


@pytest.mark.parametrize(
    "family,lengths",
    [
        (_DYCK, (0, 4, 10, 12, 16)),
        (_MOTZKIN2, (0, 3, 5, 6, 8)),
        (_BALLOT_EVEN, (2, 10, 12, 15)),
        ((*_DYCK[:2], 3), (3, 11, 13)),
    ],
    ids=["dyck", "motzkin2", "ballot-even", "ballot-2"],
)
@pytest.mark.parametrize("parts", [1, 2, 3])
def test_shares_partition_the_stream_in_canonical_order(family, lengths, parts):
    # short lengths have one prefix, the empty one, which share 0 holds; past
    # the tail table's length the prefixes are dealt out in turn
    for length in lengths:
        whole = list(_walks(length, family))
        index = {steps: i for i, (steps, _) in enumerate(whole)}
        dealt = []
        for part in range(parts):
            share = list(_walks(length, family, (part, parts)))
            at = [index[steps] for steps, _ in share]
            assert at == sorted(at), (length, part)
            dealt += at
            packed = b"".join(_profiles(length, family, (part, parts)))
            assert packed == b"".join(bytes(levels) for _, levels in share), (length, part)
        assert sorted(dealt) == list(range(len(whole))), length


def test_profiles_refuse_a_level_past_a_byte():
    # a length-255 stream is only built, never walked; one step more is refused before any path
    _profiles(255, _DYCK)
    with pytest.raises(DomainError, match=r"^byte level profiles require length <= 255, got 256$"):
        _profiles(256, _DYCK)
    with pytest.raises(DomainError, match=r"^byte level profiles require length <= 255, got 598$"):
        signed_count_dyck(200, 100)
    with pytest.raises(DomainError, match=r"^byte level profiles require length <= 255, got 256$"):
        signed_count(129, 129)


def test_pairs_requires_positive_n():
    with pytest.raises(DomainError):
        enum_pairs_total(0)


def test_no_duplicates():
    for n in range(9):
        paths = [p.steps for p in enum_dyck(n)]
        assert len(set(paths)) == len(paths)
    for length in range(9):
        paths = [p.steps for p in enum_motzkin2(length)]
        assert len(set(paths)) == len(paths)


def test_deterministic_order():
    assert list(enum_motzkin2(7)) == list(enum_motzkin2(7))
    assert list(enum_dyck(6)) == list(enum_dyck(6))


def test_order_is_lexicographic_in_canonical_alphabet():
    for length in range(8):
        emitted = [p.steps for p in enum_motzkin2(length)]
        assert emitted == sorted(emitted, key=canon_key)
    for n in range(7):
        emitted = [p.steps for p in enum_dyck(n)]
        assert emitted == sorted(emitted, key=canon_key)


def test_streams_are_lazy():
    # a consumer may stop early without paying for the whole family
    first_three = list(islice(enum_dyck(40), 3))
    assert len(first_three) == 3
    assert first_three[0].steps == "U" * 40 + "D" * 40


def test_emitted_paths_are_valid():
    assert all(is_dyck(p) for p in enum_dyck(6))
    assert all(is_motzkin2(p) for p in enum_motzkin2(6))


# sha256 of steps + "\n" over each stream, in order; recorded from the
# recursive backtracker this engine replaced.
ORDER_DIGESTS = [
    pytest.param(
        "motzkin", lambda: chain.from_iterable(enum_motzkin2(length) for length in range(11)),
        82499, "4127cdcdd38a5ca11999b22d07d266b2ec945d39ca0b2d9eebcf35c306dac983",
        id="motzkin2",
    ),
    pytest.param(
        "dyck", lambda: chain.from_iterable(enum_dyck(n) for n in range(12)),
        82500, "a25dbc712e1d0b430683efd1fe8feb810f74cae6a922a5a664fa94553cb37361",
        id="dyck",
    ),
    pytest.param(
        "dyck", lambda: chain.from_iterable(
            enum_ballot(n, r) for n in range(1, 9) for r in range(1, n + 1)
        ),
        8788, "bb3a54b18b52e8a4d8f01c973cf087fe21c6b453d25377c6de4f5c53c002a7e6",
        id="ballot",
    ),
    pytest.param(
        "dyck", lambda: chain.from_iterable(enum_ballot_even(length) for length in range(15)),
        1429, "1f01110630c72b43edbfa9adb0c7baf060fc8ba80c73fc4ba468cf7c77922d1e",
        id="ballot-even",
    ),
]


@pytest.mark.parametrize("alphabet, stream, count, digest", ORDER_DIGESTS)
def test_order_digests(alphabet, stream, count, digest):
    sha = hashlib.sha256()
    seen = 0
    for path in stream():
        seen += 1
        sha.update(path.steps.encode() + b"\n")
        assert path.levels == parse_path(path.steps, alphabet).levels
    assert seen == count
    assert sha.hexdigest() == digest


def test_deep_streams_do_not_recurse():
    assert next(enum_dyck(600)).steps == "U" * 600 + "D" * 600
    assert next(enum_motzkin2(2000)).steps == "U" * 1000 + "D" * 1000
