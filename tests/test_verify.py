import pytest

from supercat import verify
from supercat.errors import DomainError


@pytest.mark.parametrize("name", verify.IDENTITIES)
def test_every_identity_passes_at_small_bounds(name):
    report = verify.run_identity(name, max_sum=8, max_m=8, max_n=6)
    assert report.identity == name
    assert report.passed, report.failures[:3]
    assert report.cases > 0


def test_unknown_identity():
    with pytest.raises(DomainError):
        verify.run_identity("fermat")


def test_identity_list_is_complete():
    assert verify.IDENTITIES == (
        "theorem1",
        "theorem1-dyck",
        "rubenstein",
        "ballot-sum",
        "symmetry",
        "theorem4",
        "pairs",
        "bijection-f",
        "bijection-g",
        "pair-map",
        "reversal",
    )


def test_parallel_rows_merge_deterministically():
    serial = verify.verify_theorem1(9, jobs=1)
    parallel = verify.verify_theorem1(9, jobs=4)
    assert serial == parallel
    serial = verify.verify_reversal(8, jobs=1)
    parallel = verify.verify_reversal(8, jobs=2)
    assert serial == parallel


def test_reports_carry_bounds():
    report = verify.verify_theorem4(5)
    assert report.bounds == {"max_n": 5}
    report = verify.verify_ballot_sum(4, 7)
    assert report.bounds == {"max_m": 4, "max_n": 7}


def test_bounds_validated():
    with pytest.raises(DomainError):
        verify.verify_theorem1(1)
    with pytest.raises(DomainError):
        verify.verify_bijection_f(1)
    with pytest.raises(DomainError):
        verify.verify_pairs(0)
    # an explicit bound of 0 reaches the suite instead of its default
    with pytest.raises(DomainError):
        verify.run_identity("theorem1", max_sum=0)
    with pytest.raises(DomainError):
        verify.run_identity("rubenstein", max_m=0)
    # a worker count below one is refused, not run serially
    with pytest.raises(DomainError, match="theorem1"):
        verify.verify_theorem1(5, jobs=0)
    with pytest.raises(DomainError, match="reversal"):
        verify.run_identity("reversal", max_sum=5, jobs=-3)


def test_path_cost_counts_enumerated_paths():
    # theorem1 exhausts the 2-Motzkin paths of lengths 0..max_sum-2
    assert verify.path_cost("theorem1", max_sum=5) == 1 + 2 + 5 + 14
    # theorem1-dyck walks each 2-Motzkin length twice and one Dyck length
    assert verify.path_cost("theorem1-dyck", max_sum=5) == 3 * (1 + 2 + 5 + 14)
    assert verify.path_cost("theorem4", max_n=3) == 1 + 2 + 5
    assert verify.path_cost("symmetry", max_sum=10**6) == 0
    # defaults come from the suite signatures
    assert verify.path_cost("theorem1") == verify.path_cost("theorem1", max_sum=14)


@pytest.mark.parametrize(
    "name,bounds",
    [
        ("theorem1", {"max_sum": 7}),
        ("theorem1-dyck", {"max_sum": 7}),
        ("theorem4", {"max_n": 6}),
        ("bijection-f", {"max_n": 5}),
        ("bijection-g", {"max_n": 5}),
        ("reversal", {"max_sum": 7}),
    ],
)
def test_path_cost_matches_the_paths_enumerated(monkeypatch, name, bounds):
    # pairs and pair-map are priced in pair comparisons, not in paths
    from supercat import enumeration

    walks = enumeration._walks
    yielded = []

    def counted(*args):
        for walk in walks(*args):
            yielded.append(None)
            yield walk

    monkeypatch.setattr(enumeration, "_walks", counted)
    assert verify.run_identity(name, **bounds).passed
    assert len(yielded) == verify.path_cost(name, **bounds)


class TestVerificationReport:
    def test_passed_iff_no_failures(self):
        clean = verify.VerificationReport("x", {"max": 1}, (), 1)
        assert clean.passed
        broken = verify.VerificationReport("x", {"max": 1}, (verify.Failure((1,), 0, 1),), 1)
        assert not broken.passed
        assert broken.failures[0].params == (1,)


# Reports of a deliberately broken program: T(2,3) is off by one, so every
# suite that compares against T fails exactly where that value is read.
BROKEN_T_REPORTS = {
    "theorem1": (15, [((2, 3), 6, 7)]),
    "theorem1-dyck": (301, [((2, 3), 6, 7)]),
    "rubenstein": (12, [((1, 3), 20, 21), ((2, 2), 12, 13), ((2, 3), 28, 24)]),
    "ballot-sum": (12, [((2, 3), 6, 7)]),
    "symmetry": (15, [((2, 3), 7, 6)]),
    "theorem4": (4, [((3,), 6, 7)]),
    "pairs": (4, [((3,), 6, 7)]),
    "bijection-f": (36, []),
    "bijection-g": (2, []),
    "pair-map": (50, [((3, "pair count"), 6, 7)]),
    "reversal": (286, []),
}


@pytest.mark.parametrize("name", verify.IDENTITIES)
def test_failing_reports_are_pinned(monkeypatch, name):
    from supercat import numbers

    true_t = numbers.super_catalan_t

    def broken_t(m, n):
        return true_t(m, n) + ((m, n) == (2, 3))

    monkeypatch.setattr(numbers, "super_catalan_t", broken_t)
    monkeypatch.setattr(verify, "super_catalan_t", broken_t)
    report = verify.run_identity(name, max_sum=6, max_m=3, max_n=4)
    cases, failures = BROKEN_T_REPORTS[name]
    assert report.cases == cases
    assert report.failures == tuple(failures)
    assert report.passed == (not failures)


def test_failing_reversal_report_is_pinned(monkeypatch):
    from supercat import bijections

    true_sign = bijections._sign

    def broken_sign(levels, m):
        # UD is the only 2-Motzkin path with this level profile
        sign = true_sign(levels, m)
        return -sign if (levels, m) == ((0, 1, 0), 1) else sign

    monkeypatch.setattr(bijections, "_sign", broken_sign)
    report = verify.run_identity("reversal", max_sum=5)
    assert report.cases == 76
    assert report.failures == (((1, 3, "UD"), -1, 1), ((3, 1, "UD"), 1, -1))


def test_reversal_checks_the_mirrored_steps(monkeypatch):
    from supercat import paths

    # flattening U and D keeps the mirror a 2-Motzkin path but not its signs
    monkeypatch.setattr(paths, "_MIRROR", str.maketrans("UD", "SS"))
    assert not verify.verify_reversal(5).passed
    # reversing without exchanging U and D keeps every level's parity, so
    # only the mirror's own output check can see it
    monkeypatch.setattr(paths, "_MIRROR", str.maketrans("", ""))
    with pytest.raises(AssertionError, match="reversed path"):
        verify.verify_reversal(5)


def test_non_injective_map_fails(monkeypatch):
    from supercat import bijections
    from supercat.enumeration import enum_dyck

    true_f = bijections._injection_f
    first, second = [
        p for p in enum_dyck(4) if bijections.classify_start(p) is bijections.StartClass.NSTAR
    ][:2]

    def collapsed(path):
        # send the second input to the first one's image
        return true_f(first if path == second else path)

    monkeypatch.setattr(bijections, "_injection_f", collapsed)
    report = verify.verify_bijection_f(3)
    image = true_f(second).steps
    assert report.failures == (
        ((3, second.steps), first.steps, second.steps),
        ((3, image), "f(f_inv) != id", image),
    )
    assert not report.passed


def test_image_outside_the_target_family_fails(monkeypatch):
    from supercat import bijections
    from supercat.enumeration import enum_dyck
    from supercat.paths import parse_path

    true_f, true_inverse = bijections._injection_f, bijections._injection_f_inverse
    first = next(
        p for p in enum_dyck(4) if bijections.classify_start(p) is bijections.StartClass.NSTAR
    )
    flat = parse_path("UDUDUD", "dyck")  # height one, so outside the image of f
    monkeypatch.setattr(bijections, "_injection_f", lambda p: flat if p == first else true_f(p))
    monkeypatch.setattr(
        bijections, "_injection_f_inverse", lambda p: first if p == flat else true_inverse(p)
    )
    report = verify.verify_bijection_f(3)
    image = true_f(first).steps
    assert report.failures == (
        ((3, first.steps), "UDUDUD", "outside the expected image"),
        ((3, image), "f(f_inv) != id", image),
    )


def test_suites_do_not_revalidate_their_paths(monkeypatch):
    # the m = 2 suites hand engine paths to the unchecked cores, so is_dyck
    # runs only in the cores' output checks: one per map applied
    from supercat import bijections, paths

    calls = []

    def counted(is_dyck):
        def wrapper(path):
            calls.append(None)
            return is_dyck(path)

        return wrapper

    monkeypatch.setattr(paths, "is_dyck", counted(paths.is_dyck))
    monkeypatch.setattr(bijections, "is_dyck", counted(bijections.is_dyck))
    report = verify.verify_bijection_f(6)
    assert report.passed and report.cases == 380
    assert len(calls) <= 2 * report.cases
    calls.clear()
    assert verify.verify_theorem4(8).passed
    assert calls == []


def test_failing_pair_map_report_is_pinned(monkeypatch):
    from supercat import bijections

    true_to_pair_all = bijections._to_pair_all

    def swapped(path, mk):
        pairs = true_to_pair_all(path, mk)
        return (bijections.DyckPair(pairs[0].second, pairs[0].first),) if path.steps == "UUDUDD" else pairs

    monkeypatch.setattr(bijections, "_to_pair_all", swapped)
    report = verify.verify_pair_map(3)
    assert report.cases == 22
    assert report.failures == (
        ((3, "UUDUDD"), "from_pair(to_pair) != id", "UUDUDD"),
        ((3, "UUDUDD"), (1, 2), (2, 1)),
        ((3, "UUDD", "UD"), "UUDUDD", "pair not recovered"),
    )


def test_failing_bijection_g_report_is_pinned(monkeypatch):
    from supercat import bijections
    from supercat.paths import parse_path

    true_g, true_inverse = bijections._injection_g, bijections._injection_g_inverse
    source = parse_path("UUUDDUUDDD", "dyck")
    flat = parse_path("UDUDUDUD", "dyck")  # height one, so no gap of 3
    monkeypatch.setattr(bijections, "_injection_g", lambda p: flat if p == source else true_g(p))
    monkeypatch.setattr(
        bijections, "_injection_g_inverse", lambda p: source if p == flat else true_inverse(p)
    )
    report = verify.verify_bijection_g(4)
    assert report.cases == 2
    assert report.failures == (
        ((4, "UUUDDUUDDD"), "UDUDUDUD", "outside the expected image"),
        ((4, "UUUUDDDD"), "g(g_inv) != id", "UUUUDDDD"),
    )
