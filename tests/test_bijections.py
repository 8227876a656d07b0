from collections import Counter
from itertools import product

import pytest
from hypothesis import given

from conftest import dyck_paths, motzkin_paths, ref_catalan, ref_super_catalan_s, reference_markers
from supercat import bijections
from supercat.bijections import (
    DyckPair,
    StartClass,
    classify_start,
    dyck_to_motzkin,
    from_pair,
    g_intermediate,
    injection_f,
    injection_f_inverse,
    injection_g,
    injection_g_inverse,
    motzkin_to_dyck,
    pair_census,
    signed_count,
    signed_count_dyck,
    start_class_sizes,
    theorem4_census,
    theorem4_paths,
    to_pair,
    to_pair_all,
    weight,
)
from supercat.enumeration import _dyck_walks, _profiles, _walks, enum_dyck, enum_motzkin2
from supercat.errors import DomainError
from supercat.numbers import super_catalan_t
from supercat.paths import (
    _DYCK,
    _MOTZKIN2,
    EMPTY_PATH,
    LatticePath,
    is_dyck,
    is_even_terminal_ballot,
    markers,
    parse_path,
)


def dyck(steps: str):
    return parse_path(steps, "dyck")


class TestCanonicalBijection:
    @pytest.mark.parametrize("motzkin,image", [("", "UD"), ("S", "UUDD"), ("W", "UDUD")])
    def test_frozen_forward(self, motzkin, image):
        assert motzkin_to_dyck(parse_path(motzkin, "motzkin")).steps == image

    @pytest.mark.parametrize("image,motzkin", [("UD", ""), ("UUDD", "S")])
    def test_frozen_backward(self, image, motzkin):
        assert dyck_to_motzkin(dyck(image)).steps == motzkin

    def test_roundtrip_exhaustive(self):
        for length in range(6):
            for path in enum_motzkin2(length):
                assert dyck_to_motzkin(motzkin_to_dyck(path)) == path

    def test_bijective_onto_next_dyck_family(self):
        for length in range(6):
            images = {motzkin_to_dyck(p).steps for p in enum_motzkin2(length)}
            assert images == {p.steps for p in enum_dyck(length + 1)}

    def test_public_map_returns_the_parsed_path(self):
        for path in enum_motzkin2(5):
            image = motzkin_to_dyck(path)
            assert type(image) is LatticePath
            assert image == dyck(image.steps)

    def test_a_broken_core_raises_assertion_error(self, monkeypatch):
        # a level step in a constructed Dyck path is the program's fault, not
        # the caller's: AssertionError, never ParseError
        monkeypatch.setattr(bijections, "_M2D", str.maketrans({**bijections._DOUBLE, "U": "US"}))
        with pytest.raises(AssertionError, match="not a valid Dyck path"):
            motzkin_to_dyck(parse_path("UD", "motzkin"))

    def test_rejects_invalid_input(self):
        with pytest.raises(DomainError):
            motzkin_to_dyck(parse_path("WDU", "motzkin"))
        with pytest.raises(DomainError):
            dyck_to_motzkin(EMPTY_PATH)
        with pytest.raises(DomainError):
            dyck_to_motzkin(dyck("DU"))


class TestDyckOutputCheck:
    def test_accepts_exactly_the_dyck_paths(self):
        for length in range(7):
            for steps in map("".join, product("UDSW", repeat=length)):
                if is_dyck(parse_path(steps, "motzkin")):
                    assert bijections._dyck_walk(steps) == (steps, parse_path(steps, "motzkin").levels)
                else:
                    with pytest.raises(AssertionError, match="not a valid Dyck path"):
                        bijections._dyck_walk(steps)

    @pytest.mark.parametrize("steps", ["UDS", "UUDX"])
    def test_a_foreign_step_is_an_internal_error(self, steps):
        with pytest.raises(AssertionError, match="not a valid Dyck path"):
            bijections._dyck_walk(steps)

    def test_a_flip_of_the_wrong_step_is_an_internal_error(self):
        with pytest.raises(AssertionError) as info:
            bijections._flip("UD", 0, "D", "U")
        assert str(info.value) == "internal: step at index 0 is 'U', expected 'D'"


class TestPublicMapsBuildPaths:
    """The cores work on bare walks; every public m = 2 map still returns
    parsed :class:`LatticePath` values (or :class:`DyckPair`s of them)."""

    @staticmethod
    def assert_parsed(result):
        for path in result if isinstance(result, tuple) else (result,):
            assert type(path) is LatticePath
            assert path == parse_path(path.steps, "dyck")

    def test_every_valid_input_up_to_n6(self):
        from supercat.enumeration import enum_pairs_total

        for n in range(1, 7):
            for path in enum_dyck(n):
                mk = markers(path)
                if n >= 3 and classify_start(path) is StartClass.NSTAR:
                    self.assert_parsed(injection_f(path))
                if n >= 3 and classify_start(path) is StartClass.NSTARSTAR:
                    self.assert_parsed(g_intermediate(path))
                    self.assert_parsed(injection_g(path))
                if mk.height >= 2:
                    self.assert_parsed(injection_f_inverse(path))
                if mk.h_plus >= mk.h_minus + 3:
                    self.assert_parsed(injection_g_inverse(path))
                if mk.h_plus <= mk.h_minus + 2:
                    pairs = to_pair_all(path)
                    assert all(type(pair) is DyckPair for pair in pairs)
                    for pair in pairs:
                        self.assert_parsed(pair)
                    if mk.height > 1:
                        assert to_pair(path) == pairs[0] and type(to_pair(path)) is DyckPair
                        self.assert_parsed(to_pair(path))
            for first, second in enum_pairs_total(n):
                if abs(first.height - second.height) <= 1:
                    self.assert_parsed(from_pair(DyckPair(first, second)))

    def test_height_one_path_pairs_with_the_empty_path(self):
        for n in range(1, 7):
            p = parse_path("UD" * n, "dyck")
            assert to_pair_all(p) == (DyckPair(p, EMPTY_PATH), DyckPair(EMPTY_PATH, p))


class TestWeight:
    def test_frozen(self):
        assert weight(parse_path("SUD", "motzkin"), 2) == 1
        assert weight(parse_path("UDS", "motzkin"), 2) == -1

    @given(motzkin_paths())
    def test_first_step_always_positive(self, path):
        assert weight(path, 1) == 1

    def test_defined_at_one_past_the_end(self):
        # the point after m-1 steps exists even when the m-th step does not
        assert weight(parse_path("UD", "motzkin"), 3) == 1

    def test_too_short_rejected(self):
        with pytest.raises(DomainError):
            weight(parse_path("UD", "motzkin"), 4)
        with pytest.raises(DomainError):
            weight(parse_path("UD", "motzkin"), 0)

    def test_sign_is_the_parity_of_the_level(self):
        assert [bijections._sign(level) for level in range(8)] == [1, -1, 1, -1, 1, -1, 1, -1]

    def test_weights_sum_to_t(self):
        # the paper's statement itself, path by path; T(m,n) = S(m,n) / 2
        for m in range(1, 9):
            for n in range(1, 10 - m):
                total = sum(weight(path, m) for path in enum_motzkin2(m + n - 2))
                assert total == ref_super_catalan_s(m, n) // 2, (m, n)


class TestSignedCount:
    def test_figure_one_cell(self):
        cell = signed_count(2, 3)
        assert (cell.positive, cell.negative) == (10, 4)
        assert cell.difference == 6
        assert repr(cell) == "SignedCount(positive=10, negative=4)"
        assert cell == (10, 4)

    def test_m1_row_has_no_negatives(self):
        for n in range(1, 7):
            cell = signed_count(1, n)
            assert cell.negative == 0
            assert cell.positive == ref_catalan(n)

    def test_symmetric_cell(self):
        assert signed_count(3, 2).difference == 6

    def test_total_is_catalan(self):
        for m in range(1, 5):
            for n in range(1, 5):
                assert signed_count(m, n).total == ref_catalan(m + n - 1)

    def test_difference_matches_formula(self):
        for m in range(1, 6):
            for n in range(1, 6):
                assert signed_count(m, n).difference == super_catalan_t(m, n)

    @pytest.mark.parametrize("batch", [None, 7])
    def test_level_histogram_matches_a_plain_count(self, monkeypatch, batch):
        # None keeps the real byte budget; 7 bytes, no wider than a profile of
        # any length the engine splits into blocks, folds each block alone
        if batch is not None:
            monkeypatch.setattr(bijections, "_BATCH", batch)
        # each 2-Motzkin length at every point, and each Dyck length at its odd points
        families = [(_MOTZKIN2, length, slice(None)) for length in range(11)]
        families += [(_DYCK, 2 * n, slice(1, None, 2)) for n in range(8)]
        for family, length, points in families:
            plain = [Counter() for _ in range(length + 1)][points]
            for _, levels in _walks(length, family):
                for x, level in enumerate(levels[points]):
                    plain[x][level] += 1
            if points == slice(None):
                hist = bijections._level_histogram(_profiles(length, family), length)
            else:
                hist = bijections._level_histogram(_profiles(length, family), length, points)
            assert [Counter({lv: c for lv, c in enumerate(row) if c}) for row in hist] == plain

    def test_level_histogram_drops_no_profile(self):
        # a level above length // 2 and a block torn inside a profile each
        # fail the fold instead of being dropped from the counts
        with pytest.raises(AssertionError, match=r"^internal: point 1 has a level outside its reach$"):
            bijections._level_histogram([bytes([0, 1, 0, 0, 2, 0])], 2)
        with pytest.raises(AssertionError, match=r"^internal: 5 profile bytes are not whole profiles of 3 points$"):
            bijections._level_histogram([bytes([0, 1, 0]), bytes([0, 1])], 2)

    def test_level_histogram_counts_a_dyck_point_at_its_parity_only(self):
        # with no level step, an odd point sits at an odd level: the Dyck
        # histogram counts only those, and equals the every-level count
        for n in range(8):
            blocks = list(_profiles(2 * n, _DYCK))
            odd = slice(1, None, 2)
            assert (bijections._level_histogram(blocks, 2 * n, odd, _DYCK)
                    == bijections._level_histogram(blocks, 2 * n, odd))
        # an even level at an odd point is outside a Dyck point's reach, not a dropped path
        flat = [bytes([0, 0, 0])]
        assert bijections._level_histogram(flat, 2) == [[1, 0], [1, 0], [1, 0]]
        with pytest.raises(AssertionError, match=r"^internal: point 1 has a level outside its reach$"):
            bijections._level_histogram(flat, 2, slice(1, None, 2), _DYCK)
        with pytest.raises(AssertionError, match=r"^internal: point 1 has a level outside its reach$"):
            bijections._level_histogram(flat, 2, slice(None), _DYCK)

    def test_mod4_split_sums_levels_1_and_3_mod_4(self):
        assert bijections._mod4_split([0, 3, 0, 2, 0, 5]) == (8, 2)


class TestSignedCountDyck:
    def test_figure_one_cell(self):
        cell = signed_count_dyck(2, 3)
        assert (cell.positive, cell.negative) == (10, 4)

    def test_small_cell(self):
        assert signed_count_dyck(1, 2) == signed_count(1, 2)
        assert signed_count_dyck(1, 2).positive == 2

    def test_componentwise_agreement(self):
        for s in range(2, 9):
            for m in range(1, s):
                assert signed_count_dyck(m, s - m) == signed_count(m, s - m)

    def test_level_correspondence_pathwise(self):
        for s in range(2, 9):
            for path in enum_motzkin2(s - 2):
                image = motzkin_to_dyck(path)
                for m in range(1, s):
                    assert image.levels[2 * m - 1] == 2 * path.levels[m - 1] + 1


class TestClassifyStart:
    @pytest.mark.parametrize(
        "steps,expected",
        [
            ("UDUUDD", StartClass.A),
            ("UUDDUD", StartClass.B),
            ("UUUDDDUD", StartClass.NSTAR),
            ("UUUDDD", StartClass.NSTAR),
            ("UUUDDUUDDD", StartClass.NSTARSTAR),
        ],
    )
    def test_frozen(self, steps, expected):
        assert classify_start(dyck(steps)) is expected

    def test_rightmost_max_at_three_is_avoiding(self):
        # no strict interior between the third step and R when R == 3
        mk = markers(dyck("UUUDDDUD"))
        assert mk.rightmost_max == 3
        assert classify_start(dyck("UUUDDDUD")) is StartClass.NSTAR

    def test_core_matches_the_definition(self):
        # the UUU classes by their plain reading: a level-one point strictly
        # between point 3 and the rightmost maximum
        for n in range(3, 10):
            for steps, levels in _dyck_walks(n):
                if steps[:3] == "UUU":
                    rightmost = reference_markers(steps).rightmost_max
                    attains = any(levels[x] == 1 for x in range(4, rightmost))
                    expected = StartClass.NSTARSTAR if attains else StartClass.NSTAR
                else:
                    expected = {"UDU": StartClass.A, "UUD": StartClass.B}[steps[:3]]
                assert bijections._start_class(steps, levels) is expected

    def test_short_path_rejected(self):
        with pytest.raises(DomainError):
            classify_start(dyck("UUDD"))

    def test_invalid_path_rejected(self):
        with pytest.raises(DomainError):
            classify_start(parse_path("DUUUDD", "motzkin"))

    def test_partition_and_class_sizes(self):
        for n in range(2, 8):
            sizes = start_class_sizes(n + 1)
            assert sizes[StartClass.A] == sizes[StartClass.B] == ref_catalan(n)
            total = sum(sizes.values())
            assert total == ref_catalan(n + 1)

    def test_contracting_a_and_b_gives_the_smaller_family(self):
        # dropping the 2nd and 3rd steps maps each of A and B onto all Dyck
        # paths of the next size down, one to one
        for n in range(2, 7):
            expected = {p.steps for p in enum_dyck(n)}
            for prefix_class in (StartClass.A, StartClass.B):
                contracted = [
                    p.steps[0] + p.steps[3:]
                    for p in enum_dyck(n + 1)
                    if classify_start(p) is prefix_class
                ]
                assert len(contracted) == len(set(contracted))
                assert set(contracted) == expected

    def test_grand_identity(self):
        # 2 C_n - |avoiding| - |attaining| = T(2,n)
        for n in range(2, 11):
            sizes = start_class_sizes(n + 1)
            lhs = 2 * ref_catalan(n) - sizes[StartClass.NSTAR] - sizes[StartClass.NSTARSTAR]
            assert lhs == super_catalan_t(2, n)


class TestInjectionF:
    def test_frozen_example(self):
        assert injection_f(dyck("UUUDDDUD")).steps == "UUDDUD"

    def test_frozen_inverse(self):
        assert injection_f_inverse(dyck("UUDDUD")).steps == "UUUDDDUD"

    def test_wrong_class_rejected(self):
        with pytest.raises(DomainError):
            injection_f(dyck("UDUDUDUD"))
        with pytest.raises(DomainError):
            injection_f(dyck("UUUDDUUDDD"))

    def test_height_one_outside_image(self):
        with pytest.raises(DomainError):
            injection_f_inverse(dyck("UDUDUD"))

    def test_flipped_step_becomes_leftmost_max(self):
        for n in range(2, 7):
            for path in enum_dyck(n + 1):
                if classify_start(path) is not StartClass.NSTAR:
                    continue
                mk_in = markers(path)
                image = injection_f(path)
                # the point after the flipped step is the image's leftmost max
                assert markers(image).leftmost_max == mk_in.rightmost_max - 1

    def test_roundtrips_and_image_census(self):
        for n in range(2, 8):
            images = []
            for path in enum_dyck(n + 1):
                if classify_start(path) is not StartClass.NSTAR:
                    continue
                image = injection_f(path)
                assert image.height >= 2
                assert injection_f_inverse(image) == path
                images.append(image.steps)
            assert len(images) == len(set(images))
            assert len(images) == ref_catalan(n) - 1
            assert set(images) == {p.steps for p in enum_dyck(n) if p.height >= 2}
            for target in enum_dyck(n):
                if target.height >= 2:
                    assert injection_f(injection_f_inverse(target)) == target

    @given(dyck_paths(min_n=1, max_n=7))
    def test_roundtrip_property(self, path):
        if path.height >= 2:
            assert injection_f(injection_f_inverse(path)) == path


class TestInjectionG:
    def test_frozen_example(self):
        assert injection_g(dyck("UUUDDUUDDD")).steps == "UUUUDDDD"

    def test_frozen_intermediate(self):
        inter = g_intermediate(dyck("UUUDDUUDDD"))
        assert inter.steps == "UUUUUDDD"
        assert is_even_terminal_ballot(inter)

    def test_frozen_inverse(self):
        assert injection_g_inverse(dyck("UUUUDDDD")).steps == "UUUDDUUDDD"

    def test_wrong_class_rejected(self):
        with pytest.raises(DomainError):
            injection_g(dyck("UUUDDDUD"))

    def test_small_gap_outside_image(self):
        mk = markers(dyck("UUDUDD"))
        assert mk.h_plus == mk.h_minus
        with pytest.raises(DomainError):
            injection_g_inverse(dyck("UUDUDD"))

    def test_an_intermediate_gap_below_four_is_an_internal_error(self):
        # UUUDDD avoids level one before its rightmost maximum, so no public map
        # hands it to the core; stage one leaves UUUD, whose gap is 3 - 1
        with pytest.raises(AssertionError) as info:
            bijections._g_intermediate(("UUUDDD", (0, 1, 2, 3, 2, 1, 0)))
        assert str(info.value) == "internal: stage one of 'UUUDDD' left a maximum gap of 2, below 4"

    def test_intermediate_gap_at_least_four(self):
        for n in range(2, 8):
            for path in enum_dyck(n + 1):
                if classify_start(path) is not StartClass.NSTARSTAR:
                    continue
                inter = g_intermediate(path)
                x = max(i for i, lv in enumerate(inter.levels) if lv == 1)
                assert max(inter.levels[x:]) - max(inter.levels[: x + 1]) >= 4

    def test_inverse_splits_at_the_ballot_paths_last_level_one_point(self):
        # the lemma behind injection_g_inverse: turning the down step leaving
        # the rightmost maximum into an up step lifts every later point by 2,
        # so the split point _split reads is the ballot path's last level-one point
        checked = 0
        for n in range(1, 10):
            for steps, levels in _dyck_walks(n):
                if not bijections._in_g_image(levels):
                    continue
                rightmost = reference_markers(steps).rightmost_max
                assert steps[rightmost] == "D"
                ballot = steps[:rightmost] + "U" + steps[rightmost + 1 :]
                level, last = 0, None
                for x, step in enumerate(ballot, start=1):
                    level += 1 if step == "U" else -1
                    if level == 1:
                        last = x
                assert bijections._split(levels)[2] == last
                checked += 1
        # g is a bijection from the attaining class onto its image
        assert checked == sum(start_class_sizes(n + 1)[StartClass.NSTARSTAR] for n in range(2, 10))

    def test_output_markers(self):
        for n in range(2, 8):
            for path in enum_dyck(n + 1):
                if classify_start(path) is not StartClass.NSTARSTAR:
                    continue
                mk = markers(injection_g(path))
                assert mk.h_plus >= mk.h_minus + 3

    def test_roundtrips_and_image_census(self):
        for n in range(2, 8):
            images = []
            for path in enum_dyck(n + 1):
                if classify_start(path) is not StartClass.NSTARSTAR:
                    continue
                image = injection_g(path)
                assert injection_g_inverse(image) == path
                images.append(image.steps)
            assert len(images) == len(set(images))
            expected = set()
            for target in enum_dyck(n):
                if len(target) == 0:
                    continue
                mk = markers(target)
                if mk.h_plus >= mk.h_minus + 3:
                    expected.add(target.steps)
                    assert injection_g(injection_g_inverse(target)) == target
            assert set(images) == expected

    @given(dyck_paths(min_n=1, max_n=7))
    def test_roundtrip_property(self, path):
        mk = markers(path)
        if mk.h_plus >= mk.h_minus + 3:
            assert injection_g(injection_g_inverse(path)) == path


@pytest.mark.parametrize(
    "name,steps,text",
    [
        ("classify_start", "", "classify_start requires length >= 6"),
        ("classify_start", "UD", "classify_start requires length >= 6"),
        ("classify_start", "DU", "classify_start requires a valid Dyck path"),
        ("injection_f", "", "injection_f requires length >= 6"),
        ("injection_f", "UD", "injection_f requires length >= 6"),
        ("injection_f", "DU", "injection_f requires a valid Dyck path"),
        ("injection_f", "UUUDDUUDDD",
         "injection_f requires an up-up-up start avoiding level one before the rightmost maximum"),
        ("injection_g", "", "injection_g requires length >= 6"),
        ("injection_g", "UD", "injection_g requires length >= 6"),
        ("injection_g", "DU", "injection_g requires a valid Dyck path"),
        ("injection_g", "UUUDDDUD",
         "injection_g requires an up-up-up start attaining level one before the rightmost maximum"),
        ("g_intermediate", "", "g_intermediate requires length >= 6"),
        ("g_intermediate", "UD", "g_intermediate requires length >= 6"),
        ("g_intermediate", "DU", "g_intermediate requires a valid Dyck path"),
        ("g_intermediate", "UUUDDDUD",
         "g_intermediate requires an up-up-up start attaining level one before the rightmost maximum"),
        ("to_pair", "", "to_pair requires a nonempty valid Dyck path"),
        ("to_pair", "DU", "to_pair requires a nonempty valid Dyck path"),
        ("to_pair", "UUUUDDDD",
         "to_pair requires the post-split maximum to exceed the pre-split maximum by at most 2"),
        ("to_pair_all", "", "to_pair_all requires a nonempty valid Dyck path"),
        ("to_pair_all", "DU", "to_pair_all requires a nonempty valid Dyck path"),
        ("to_pair_all", "UUUUDDDD",
         "to_pair_all requires the post-split maximum to exceed the pre-split maximum by at most 2"),
    ],
)
def test_each_public_map_names_itself(name, steps, text):
    # one input check per family of maps, raised in the public caller's name
    with pytest.raises(DomainError, match=f"^{text}$"):
        getattr(bijections, name)(parse_path(steps, "motzkin"))


class TestTheorem4Census:
    def test_n1(self):
        assert theorem4_census(1) == 2

    def test_n3_lists_exactly_the_expected_multiset(self):
        assert sorted(p.steps for p in theorem4_paths(3)) == sorted(
            ["UDUDUD", "UDUDUD", "UUDDUD", "UDUUDD", "UUDUDD", "UUUDDD"]
        )
        assert theorem4_census(3) == 6

    def test_matches_formula(self):
        for n in range(1, 8):
            assert theorem4_census(n) == super_catalan_t(2, n)

    def test_requires_positive(self):
        # each public census names itself
        with pytest.raises(DomainError, match=r"^theorem4_census requires n >= 1$"):
            theorem4_census(0)
        with pytest.raises(DomainError, match=r"^theorem4_paths requires n >= 1$"):
            theorem4_paths(0)

    def test_bounded_gap_matches_the_definition(self):
        for n in range(1, 10):
            for steps, levels in _dyck_walks(n):
                mk = reference_markers(steps)
                assert bijections._bounded_gap(levels) == (mk.h_plus <= mk.h_minus + 2)

    def test_bounded_gap_matches_the_definition_at_n_10(self):
        # the first-visit test reads no slice: every walk of the largest size theorem4 runs at by default
        for steps, levels in _dyck_walks(10):
            mk = reference_markers(steps)
            assert bijections._bounded_gap(levels) == (mk.h_plus <= mk.h_minus + 2)


class TestPairMap:
    def test_frozen_splits(self):
        assert to_pair(dyck("UUDUDD")) == DyckPair(dyck("UUDD"), dyck("UD"))
        assert to_pair(dyck("UUDDUD")) == DyckPair(dyck("UD"), dyck("UDUD"))

    def test_frozen_joins(self):
        assert from_pair(DyckPair(dyck("UUDD"), dyck("UD"))).steps == "UUDUDD"
        assert from_pair(DyckPair(dyck("UD"), dyck("UDUD"))).steps == "UUDDUD"

    def test_height_one_path_maps_to_two_tagged_pairs(self):
        tau = dyck("UDUD")
        pairs = to_pair_all(tau)
        assert pairs == (DyckPair(tau, EMPTY_PATH), DyckPair(EMPTY_PATH, tau))
        for pair in pairs:
            assert from_pair(pair) == tau
        with pytest.raises(DomainError):
            to_pair(tau)

    def test_large_gap_rejected(self):
        with pytest.raises(DomainError):
            to_pair(dyck("UUUUDDDD"))

    def test_from_pair_errors(self):
        with pytest.raises(DomainError):
            from_pair(DyckPair(EMPTY_PATH, EMPTY_PATH))
        with pytest.raises(DomainError):
            from_pair(DyckPair(EMPTY_PATH, dyck("UUDD")))
        with pytest.raises(DomainError):
            from_pair(DyckPair(dyck("UD"), dyck("UUUDDD")))

    def test_split_heights(self):
        for n in range(1, 8):
            for path in enum_dyck(n):
                mk = markers(path)
                if mk.h_plus > mk.h_minus + 2 or mk.height <= 1:
                    continue
                pair = to_pair(path)
                assert pair.first.height == mk.h_minus
                assert pair.second.height == mk.h_plus - 1
                assert abs(pair.first.height - pair.second.height) <= 1

    def test_mutually_inverse_exhaustive(self):
        from supercat.enumeration import enum_pairs_total

        for n in range(1, 7):
            seen = 0
            for path in enum_dyck(n):
                mk = markers(path)
                if mk.h_plus > mk.h_minus + 2:
                    continue
                for pair in to_pair_all(path):
                    seen += 1
                    assert from_pair(pair) == path
            assert seen == super_catalan_t(2, n)
            for first, second in enum_pairs_total(n):
                if abs(first.height - second.height) > 1:
                    continue
                joined = from_pair(DyckPair(first, second))
                assert (first, second) in to_pair_all(joined)

    def test_pair_census_matches_formula(self):
        for n in range(1, 8):
            assert pair_census(n) == super_catalan_t(2, n)
