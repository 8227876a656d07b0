import pytest
from hypothesis import given

from conftest import brute_family, dyck_paths, motzkin_paths
from supercat.enumeration import enum_dyck
from supercat.errors import DomainError, ParseError
from supercat.paths import (
    EMPTY_PATH,
    RISE,
    PathMarkers,
    _markers,
    is_dyck,
    is_even_terminal_ballot,
    is_motzkin2,
    make_path,
    markers,
    parse_path,
    reverse,
)


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


class TestPathValue:
    def test_str_and_repr(self):
        path = make_path("UWD")
        assert str(path) == "UWD"
        assert repr(path) == "LatticePath('UWD')"

    def test_equality_and_hash(self):
        assert make_path("UD") == parse_path("UD", "dyck")
        assert len({make_path("UD"), parse_path("UD", "dyck")}) == 1

    def test_height_and_final_level(self):
        path = make_path("UUDS")
        assert path.height == 2


class TestValidate:
    def test_dyck_true(self):
        assert is_dyck(parse_path("UDUD", "dyck"))

    def test_dyck_dips_below(self):
        assert not is_dyck(parse_path("UDDU", "dyck"))

    def test_dyck_nonzero_end(self):
        assert not is_dyck(parse_path("UUD", "dyck"))

    def test_motzkin_level_steps(self):
        assert is_motzkin2(make_path("SUWD"))
        assert not is_motzkin2(make_path("WDU"))

    def test_dyck_rejects_level_steps(self):
        assert not is_dyck(make_path("SS"))

    def test_even_terminal_ballot(self):
        assert is_even_terminal_ballot(make_path("UUUUUDDD"))
        assert not is_even_terminal_ballot(make_path("UUU"))
        assert not is_even_terminal_ballot(make_path("USU"))


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
        # _markers, which markers and the m = 2 suites share, against a
        # plain-loop reading of the PathMarkers docstring
        for n in range(1, 10):
            for path in enum_dyck(n):
                assert _markers(path.levels) == reference_markers(path.steps)

    def test_split_invariant_exhaustive(self):
        # h_minus <= h_plus == height over every Dyck path of length <= 16
        for n in range(1, 9):
            for steps in brute_family(2 * n, 0, "UD"):
                mk = markers(parse_path(steps, "dyck"))
                assert mk.h_minus <= mk.h_plus == mk.height


def reference_markers(steps: str) -> PathMarkers:
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


class TestReverse:
    @pytest.mark.parametrize("steps,expected", [("SUD", "UDS"), ("", ""), ("UWD", "UWD")])
    def test_frozen(self, steps, expected):
        assert reverse(make_path(steps)).steps == expected

    def test_requires_valid_path(self):
        with pytest.raises(DomainError):
            reverse(make_path("DU"))

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
            assert is_motzkin2(reverse(make_path(steps)))


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
