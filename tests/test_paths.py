import copy
import pickle
from dataclasses import FrozenInstanceError
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given

from conftest import brute_family, dyck_paths, motzkin_paths, reference_markers
from supercat.bijections import weight
from supercat.enumeration import _walks, enum_dyck, enum_motzkin2
from supercat.errors import DomainError, ParseError
from supercat.paths import (
    _BALLOT_EVEN,
    _DYCK,
    _MOTZKIN2,
    EMPTY_PATH,
    LatticePath,
    PathMarkers,
    _family_levels,
    _levels,
    _reverse,
    _split,
    is_dyck,
    is_even_terminal_ballot,
    is_motzkin2,
    markers,
    parse_path,
    reverse,
)
from supercat.render import render_svg


class TestParse:
    def test_levels_computed(self):
        assert parse_path("UUDD", "dyck").levels == (0, 1, 2, 1, 0)

    def test_empty(self):
        path = parse_path("", "dyck")
        assert path.levels == (0,)
        assert len(path) == 0
        assert path == EMPTY_PATH

    def test_bad_character_names_index(self):
        with pytest.raises(ParseError) as exc:
            parse_path("UXD", "dyck")
        assert exc.value.index == 1
        assert "index 1" in str(exc.value)

    def test_dyck_alphabet_rejects_level_steps(self):
        with pytest.raises(ParseError) as exc:
            parse_path("SUD", "dyck")
        assert exc.value.index == 0

    def test_motzkin_alphabet(self):
        assert parse_path("SUWD", "motzkin").levels == (0, 0, 1, 1, 0)

    def test_unknown_alphabet(self):
        with pytest.raises(DomainError):
            parse_path("UD", "paren")

    def test_does_not_enforce_validity(self):
        # parsing is permissive; the path may dip below the axis
        assert parse_path("DU", "dyck").levels == (0, -1, 0)

    def test_parse_error_survives_pickle(self):
        # a worker process hands its exception to the parent as a pickle
        error = pickle.loads(pickle.dumps(ParseError("unknown step 'X' at index 3", index=3)))
        assert (type(error), str(error), error.index) == (ParseError, "unknown step 'X' at index 3", 3)


class TestPathValue:
    def test_str_and_repr(self):
        path = parse_path("UWD", "motzkin")
        assert str(path) == "UWD"
        assert repr(path) == "LatticePath('UWD')"

    def test_equality_and_hash(self):
        assert parse_path("UD", "motzkin") == parse_path("UD", "dyck")
        assert len({parse_path("UD", "motzkin"), parse_path("UD", "dyck")}) == 1
        assert hash(parse_path("UD", "motzkin")) == hash(("UD",))
        # only a path equals a path: same steps on another class is not enough
        assert parse_path("UD", "motzkin") != SimpleNamespace(steps="UD")
        assert parse_path("UD", "motzkin") != "UD"

    def test_survives_pickle_and_copy(self):
        fresh, read = parse_path("UD", "motzkin"), parse_path("UUDD", "motzkin")
        assert read.levels == (0, 1, 2, 1, 0)
        for path in (fresh, read):
            for clone in (pickle.loads(pickle.dumps(path)), copy.copy(path)):
                assert type(clone) is LatticePath
                assert clone == path and hash(clone) == hash(path)
                assert clone.levels == path.levels

    def test_height_and_final_level(self):
        path = parse_path("UUDS", "motzkin")
        assert path.height == 2

    def test_the_steps_are_the_only_field(self):
        with pytest.raises(TypeError):
            LatticePath("UD", (0, 1, 0))

    def test_levels_cannot_be_assigned(self):
        path = parse_path("UD", "motzkin")
        with pytest.raises(FrozenInstanceError):
            path.levels = (0, 1, 1)
        assert path.levels == (0, 1, 0)
        for name in ("steps", "levels"):
            with pytest.raises(FrozenInstanceError):
                setattr(path, name, "UD")
            with pytest.raises(FrozenInstanceError):
                delattr(path, name)
        assert (path.steps, path.levels) == ("UD", (0, 1, 0))

    def test_a_path_built_from_its_steps_is_the_path(self):
        streamed = [p for n in range(6) for p in enum_dyck(n)]
        streamed += [p for length in range(5) for p in enum_motzkin2(length)]
        for path in streamed:
            rebuilt, parsed = LatticePath(path.steps), parse_path(path.steps, "motzkin")
            assert rebuilt == path and hash(rebuilt) == hash(path), path
            for p in (path, rebuilt):
                assert p.levels == parsed.levels and p.height == parsed.height, path
                assert [weight(p, m) for m in range(1, len(p) + 2)] == [
                    weight(parsed, m) for m in range(1, len(p) + 2)
                ], path
                assert render_svg(p) == render_svg(parsed), path


class TestValidate:
    def test_dyck_true(self):
        assert is_dyck(parse_path("UDUD", "dyck"))

    def test_dyck_dips_below(self):
        assert not is_dyck(parse_path("UDDU", "dyck"))

    def test_dyck_nonzero_end(self):
        assert not is_dyck(parse_path("UUD", "dyck"))

    def test_motzkin_level_steps(self):
        assert is_motzkin2(parse_path("SUWD", "motzkin"))
        assert not is_motzkin2(parse_path("WDU", "motzkin"))

    def test_dyck_rejects_level_steps(self):
        assert not is_dyck(parse_path("SS", "motzkin"))

    def test_even_terminal_ballot(self):
        assert is_even_terminal_ballot(parse_path("UUUUUDDD", "motzkin"))
        assert not is_even_terminal_ballot(parse_path("UUU", "motzkin"))
        assert not is_even_terminal_ballot(parse_path("USU", "motzkin"))

    @pytest.mark.parametrize("family", [_DYCK, _MOTZKIN2, _BALLOT_EVEN], ids=["dyck", "motzkin2", "ballot"])
    def test_family_levels_accepts_exactly_the_brute_force_family(self, family):
        # one family value drives both the membership test and the engine
        alphabet, _, end = family
        for length in range(9):
            members = brute_family(length, end, alphabet)  # in the alphabet's order: canonical
            in_family = set(members)
            for steps in map("".join, product("UDSW", repeat=length)):
                levels = _family_levels(steps, family)
                assert (levels is not None) == (steps in in_family), steps
                if levels is not None:
                    assert levels == parse_path(steps, "motzkin").levels
            assert list(_walks(length, family)) == [(steps, _family_levels(steps, family)) for steps in members]

    def test_level_kernel_matches_a_plain_loop(self):
        # every word over U/D/S/W, in each family or not: below the axis, off
        # the end level, or with steps outside the family's alphabet
        rises = {"U": 1, "D": -1, "S": 0, "W": 0}
        for length in range(9):
            for steps in map("".join, product("UDSW", repeat=length)):
                levels = [0]
                for step in steps:
                    levels.append(levels[-1] + rises[step])
                expected = tuple(levels)
                assert _levels(steps) == expected, steps
                for family in (_DYCK, _MOTZKIN2, _BALLOT_EVEN):
                    alphabet, _, end = family
                    valid = set(steps) <= set(alphabet) and min(levels) >= 0 and levels[-1] == end
                    assert _family_levels(steps, family) == (expected if valid else None), (steps, alphabet, end)

    def test_a_foreign_step_is_in_no_family(self):
        path = LatticePath("UXD")
        assert not is_dyck(path)
        assert not is_motzkin2(path)
        assert not is_even_terminal_ballot(path)

    # the byte kernel would read a control byte as its own rise ("\x01" as an
    # up step, "\x00" as a level step) and a non-ASCII step as several bytes
    @pytest.mark.parametrize("steps", ["UX", "ud", "\x01D", "U\x00D", "U\xffD", "U\u00e9D", "U\U0001f600D"])
    def test_a_foreign_or_non_ascii_step_has_no_levels_and_no_family(self, steps):
        path = LatticePath(steps)
        assert not is_dyck(path)
        assert not is_motzkin2(path)
        assert not is_even_terminal_ballot(path)
        with pytest.raises(KeyError):
            path.levels


class TestMarkers:
    @pytest.mark.parametrize(
        "steps,height,rightmost,anchor,h_minus,h_plus",
        [
            ("UUDUDD", 2, 4, 3, 2, 2),
            ("UUUDDD", 3, 3, 1, 1, 3),
            ("UD", 1, 1, 1, 1, 1),
            ("UDUDUD", 1, 5, 5, 1, 1),
        ],
    )
    def test_frozen_scans(self, steps, height, rightmost, anchor, h_minus, h_plus):
        mk = markers(parse_path(steps, "dyck"))
        assert mk.height == height
        assert mk.rightmost_max == rightmost
        assert mk.last_level_one == anchor
        assert mk.h_minus == h_minus
        assert mk.h_plus == h_plus

    def test_leftmost_max(self):
        assert markers(parse_path("UDUD", "dyck")).leftmost_max == 1
        assert markers(parse_path("UUDUDD", "dyck")).leftmost_max == 2

    def test_empty_path_rejected(self):
        with pytest.raises(DomainError, match="markers undefined for empty path"):
            markers(EMPTY_PATH)

    def test_invalid_path_rejected(self):
        with pytest.raises(DomainError):
            markers(parse_path("DU", "dyck"))

    def test_core_matches_the_definition(self):
        # markers and _split, the scan it shares with the m = 2 suites,
        # against a plain-loop reading of the PathMarkers docstring
        for n in range(1, 10):
            for path in enum_dyck(n):
                mk = reference_markers(path.steps)
                assert markers(path) == mk
                assert _split(path.levels) == (mk.height, mk.rightmost_max, mk.last_level_one)

    def test_named_tuple_keeps_the_public_behaviour(self):
        mk = markers(parse_path("UUDUDD", "dyck"))
        # the README's library tour, joined onto one line
        assert repr(mk) == (
            "PathMarkers(height=2, leftmost_max=2, rightmost_max=4, last_level_one=3, h_minus=2, h_plus=2)"
        )
        with pytest.raises(AttributeError):
            mk.height = 3
        assert mk == PathMarkers(height=2, leftmost_max=2, rightmost_max=4, last_level_one=3, h_minus=2, h_plus=2)
        again = markers(parse_path("UUDUDD", "dyck"))
        assert again == mk and hash(again) == hash(mk)

    def test_split_invariant_exhaustive(self):
        # h_minus <= h_plus == height over every Dyck path of length <= 16
        for n in range(1, 9):
            for steps in brute_family(2 * n, 0, "UD"):
                mk = markers(parse_path(steps, "dyck"))
                assert mk.h_minus <= mk.h_plus == mk.height


class TestReverse:
    @pytest.mark.parametrize("steps,expected", [("SUD", "UDS"), ("", ""), ("UWD", "UWD")])
    def test_frozen(self, steps, expected):
        assert reverse(parse_path(steps, "motzkin")).steps == expected

    def test_requires_valid_path(self):
        with pytest.raises(DomainError):
            reverse(parse_path("DU", "motzkin"))

    @given(motzkin_paths())
    def test_involution(self, path):
        assert reverse(reverse(path)) == path

    @given(motzkin_paths())
    def test_mirrors_levels(self, path):
        mirrored = reverse(path)
        n = len(path)
        assert all(path.levels[x] == mirrored.levels[n - x] for x in range(n + 1))

    def test_output_valid(self):
        for steps in brute_family(6, 0, "UDSW"):
            assert is_motzkin2(reverse(parse_path(steps, "motzkin")))

    def test_core_check_matches_the_predicate(self):
        # the core's lean check on its mirror raises exactly where is_motzkin2 fails
        for length in range(7):
            for steps in map("".join, product("UDSW", repeat=length)):
                mirror = parse_path(steps[::-1].translate(str.maketrans("UD", "DU")), "motzkin")
                if is_motzkin2(mirror):
                    assert _reverse(steps) == (mirror.steps, mirror.levels)
                else:
                    with pytest.raises(AssertionError, match="reversed path"):
                        _reverse(steps)

    def test_public_map_returns_the_parsed_path(self):
        for steps in brute_family(5, 0, "UDSW"):
            mirrored = reverse(parse_path(steps, "motzkin"))
            assert type(mirrored) is LatticePath
            assert mirrored == parse_path(mirrored.steps, "motzkin")


@given(motzkin_paths())
def test_parse_render_roundtrip(path):
    assert parse_path(path.steps, "motzkin") == path


@given(dyck_paths())
def test_generated_dyck_paths_validate(path):
    assert is_dyck(path)
    assert min(path.levels) == 0
    assert len(path) % 2 == 0


@given(dyck_paths(min_n=1))
def test_markers_bounds(path):
    mk = markers(path)
    assert 0 < mk.last_level_one <= mk.rightmost_max
    assert path.levels[mk.last_level_one] == 1
    assert mk.leftmost_max <= mk.rightmost_max
