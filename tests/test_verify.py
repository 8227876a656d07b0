import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor

import pytest

from supercat import verify
from supercat.errors import DomainError

# The suites that enumerate paths; the rest evaluate formulas only.
PATH_SUITES = (
    "theorem1", "theorem1-dyck", "theorem4", "pairs", "bijection-f", "bijection-g", "pair-map", "reversal",
)


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


@pytest.mark.parametrize("name", PATH_SUITES)
def test_path_suites_refuse_jobs_below_one(name):
    with pytest.raises(DomainError, match=f"{name} requires jobs >= 1"):
        verify.run_identity(name, jobs=0)


@pytest.fixture
def opened(monkeypatch):
    """Swap the process pool for one that runs each submitted row at once, in
    this process; the worker count of every pool opened is recorded."""
    opened = []

    class SerialPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    return opened


@pytest.mark.parametrize("name", verify.IDENTITIES)
def test_path_suites_fan_rows_out_to_a_pool(opened, name):
    bounds = {"max_sum": 5, "max_m": 3, "max_n": 3}
    pooled = verify.run_identity(name, **bounds, jobs=2)
    assert opened == ([2] if name in PATH_SUITES else [])
    assert pooled == verify.run_identity(name, **bounds, jobs=1)


def test_verify_all_opens_one_pool(opened, capsys):
    from supercat.cli import main

    argv = ["verify", "all", "--max", "5", "--format", "json", "--jobs"]
    assert main([*argv, "3"]) == 0
    pooled = capsys.readouterr().out
    assert opened == [3]
    assert main([*argv, "1"]) == 0
    assert capsys.readouterr().out == pooled
    assert opened == [3]


def _broken_injection_f(walk):
    # module level, so that the worker a row is sent to can unpickle it
    raise AssertionError(f"internal: broken core on {walk[0]}")


def test_a_raising_row_cancels_the_shared_queue(monkeypatch):
    from supercat import bijections
    from supercat.cli import main

    class CancellingPool(ProcessPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            cancelled.append(cancel_futures)
            super().shutdown(wait, cancel_futures=cancel_futures)

    cancelled = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", CancellingPool)
    # bijection-f is the eighth of eleven suites; each of its rows raises
    monkeypatch.setattr(bijections, "_injection_f", _broken_injection_f)
    raised = []
    for jobs in ("1", "2"):
        with pytest.raises(AssertionError) as exc:
            main(["verify", "all", "--max", "6", "--jobs", jobs, "--format", "json"])
        raised.append((type(exc.value), str(exc.value)))
        assert multiprocessing.active_children() == []
    assert raised[0] == raised[1] == (AssertionError, "internal: broken core on UUUDDD")
    # the queued rows of the suites after it were dropped, not run
    assert cancelled[0] is True


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
    # theorem1-dyck walks each 2-Motzkin length once and one Dyck length
    assert verify.path_cost("theorem1-dyck", max_sum=5) == 2 * (1 + 2 + 5 + 14)
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
        ("pairs", {"max_n": 6}),
    ],
)
def test_path_cost_matches_the_paths_enumerated(monkeypatch, name, bounds):
    # pair-map is priced in paths plus the pairs it compares
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


def check_broken_t_report(monkeypatch, name, jobs):
    from supercat import numbers

    true_t = numbers.super_catalan_t

    def broken_t(m, n):
        return true_t(m, n) + ((m, n) == (2, 3))

    monkeypatch.setattr(numbers, "super_catalan_t", broken_t)
    monkeypatch.setattr(verify, "super_catalan_t", broken_t)
    report = verify.run_identity(name, max_sum=6, max_m=3, max_n=4, jobs=jobs)
    cases, failures = BROKEN_T_REPORTS[name]
    assert report.cases == cases
    assert report.failures == tuple(failures)
    assert report.passed == (not failures)


@pytest.mark.parametrize("name", verify.IDENTITIES)
def test_failing_reports_are_pinned(monkeypatch, name):
    check_broken_t_report(monkeypatch, name, jobs=1)


@pytest.mark.parametrize("name", verify.IDENTITIES)
def test_failing_reports_are_pinned_at_two_jobs(monkeypatch, name):
    # forked workers inherit the patch (fork is Linux's default start method before Python 3.14)
    check_broken_t_report(monkeypatch, name, jobs=2)


def test_failing_level_report_is_pinned(monkeypatch):
    true_b = verify.ballot_number

    def broken_b(n, r):
        return true_b(n, r) + ((n, r) == (3, 2))

    # B(3, 2) = 4 is the level-1 factor of (2, 3), (3, 2) and (3, 3) only;
    # their levels fail and their signed sums still match T
    monkeypatch.setattr(verify, "ballot_number", broken_b)
    report = verify.run_identity("theorem1", max_sum=6)
    assert report.cases == 15
    assert report.failures == (
        ((2, 3), ((0, 10), (1, 4)), ((0, 10), (1, 5))),
        ((3, 2), ((0, 10), (1, 4)), ((0, 10), (1, 5))),
        ((3, 3), ((0, 25), (1, 16), (2, 1)), ((0, 25), (1, 25), (2, 1))),
    )


def test_failing_theorem1_dyck_report_is_pinned(monkeypatch):
    from supercat import bijections

    true_map = bijections._motzkin_to_dyck
    # SSSS doubles to UUDUDUDUDD: every odd point at level 1, where UUDD's image
    # climbs to 5; the two agree only at m = 1 and m = 5
    monkeypatch.setattr(bijections, "_motzkin_to_dyck", lambda steps: true_map("SSSS" if steps == "UUDD" else steps))
    report = verify.run_identity("theorem1-dyck", max_sum=6)
    assert report.cases == 301
    assert report.failures == (((2, 4, "UUDD"), 1, 3), ((3, 3, "UUDD"), 1, 5), ((4, 2, "UUDD"), 1, 3))


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


def test_a_broken_sign_fails_every_path_sharing_the_profile(monkeypatch):
    from supercat import bijections

    true_sign = bijections._sign

    def broken_sign(levels, m):
        # SS, SW, WS and WW all have this level profile
        sign = true_sign(levels, m)
        return -sign if (levels, m) == ((0, 0, 0), 1) else sign

    monkeypatch.setattr(bijections, "_sign", broken_sign)
    report = verify.run_identity("reversal", max_sum=5)
    assert report.cases == 76
    assert report.failures == tuple(
        failure for p in ("SS", "SW", "WS", "WW") for failure in (((1, 3, p), -1, 1), ((3, 1, p), 1, -1))
    )


def test_reversal_mirrors_every_path_and_signs_every_profile_once(monkeypatch):
    from supercat import bijections
    from supercat.enumeration import enum_motzkin2

    true_sign, true_reverse = bijections._sign, verify._reverse
    signed, mirrored = [], []

    def counted_sign(levels, m):
        signed.append((levels, m))
        return true_sign(levels, m)

    def counted_reverse(steps):
        mirrored.append(steps)
        return true_reverse(steps)

    monkeypatch.setattr(bijections, "_sign", counted_sign)
    monkeypatch.setattr(verify, "_reverse", counted_reverse)
    assert verify.run_identity("reversal", max_sum=7).passed
    walked = [path for s in range(2, 8) for path in enum_motzkin2(s - 2)]
    assert mirrored == [path.steps for path in walked]
    assert sorted(signed) == sorted({(path.levels, m) for path in walked for m in range(1, len(path) + 2)})


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
    first_walk, second_walk = (first.steps, first.levels), (second.steps, second.levels)

    def collapsed(walk):
        # send the second input to the first one's image
        return true_f(first_walk if walk == second_walk else walk)

    monkeypatch.setattr(bijections, "_injection_f", collapsed)
    report = verify.verify_bijection_f(3)
    image = true_f(second_walk)[0]
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
    first_walk, flat_walk = (first.steps, first.levels), (flat.steps, flat.levels)
    monkeypatch.setattr(bijections, "_injection_f", lambda w: flat_walk if w == first_walk else true_f(w))
    monkeypatch.setattr(
        bijections, "_injection_f_inverse", lambda w: first_walk if w == flat_walk else true_inverse(w)
    )
    report = verify.verify_bijection_f(3)
    image = true_f(first_walk)[0]
    assert report.failures == (
        ((3, first.steps), "UDUDUD", "outside the expected image"),
        ((3, image), "f(f_inv) != id", image),
    )


def test_suites_do_not_revalidate_their_paths(monkeypatch):
    # the m = 2 suites hand engine paths to the unchecked cores, so no input
    # is revalidated and a Dyck check runs only as the cores' output check:
    # one per map applied
    from supercat import bijections, paths

    calls, validations = [], []

    def counted(check, tally):
        def wrapper(arg):
            tally.append(None)
            return check(arg)

        return wrapper

    monkeypatch.setattr(bijections, "_dyck_walk", counted(bijections._dyck_walk, calls))
    monkeypatch.setattr(paths, "is_dyck", counted(paths.is_dyck, validations))
    monkeypatch.setattr(bijections, "is_dyck", counted(bijections.is_dyck, validations))
    report = verify.verify_bijection_f(6)
    assert report.passed and report.cases == 380
    assert len(calls) <= 2 * report.cases
    calls.clear()
    assert verify.verify_theorem4(8).passed
    assert calls == []
    assert validations == []


def test_m2_rows_build_no_path(monkeypatch):
    # the m = 2 rows hand the engine's walks to the cores and compare walks
    from supercat.paths import LatticePath

    built = []
    init = LatticePath.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LatticePath, "__init__", counted)
    assert verify.verify_bijection_f(6).passed
    assert verify.verify_bijection_g(6).passed
    assert verify.verify_pair_map(6).passed
    assert built == []


def test_pair_map_recovers_the_close_pairs_in_order(monkeypatch):
    from supercat import bijections
    from supercat.enumeration import enum_pairs_total
    from supercat.numbers import super_catalan_t

    true_from_pair = bijections._from_pair
    calls = []

    def recorded(first, second):
        calls.append((first[0], second[0]))
        return true_from_pair(first, second)

    monkeypatch.setattr(bijections, "_from_pair", recorded)
    for n in range(1, 7):
        calls.clear()
        failures, _ = verify._pair_map_row(n)
        assert failures == []
        # the first T(2,n) calls invert the split of each bounded-gap path
        assert calls[super_catalan_t(2, n):] == [
            (a.steps, b.steps) for a, b in enum_pairs_total(n) if abs(a.height - b.height) <= 1
        ]


def test_failing_pair_map_report_is_pinned(monkeypatch):
    from supercat import bijections

    true_to_pair_all = bijections._to_pair_all

    def swapped(walk, mk):
        pairs = true_to_pair_all(walk, mk)
        return ((pairs[0][1], pairs[0][0]),) if walk[0] == "UUDUDD" else pairs

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
    source_walk, flat_walk = (source.steps, source.levels), (flat.steps, flat.levels)
    monkeypatch.setattr(bijections, "_injection_g", lambda w: flat_walk if w == source_walk else true_g(w))
    monkeypatch.setattr(
        bijections, "_injection_g_inverse", lambda w: source_walk if w == flat_walk else true_inverse(w)
    )
    report = verify.verify_bijection_g(4)
    assert report.cases == 2
    assert report.failures == (
        ((4, "UUUDDUUDDD"), "UDUDUDUD", "outside the expected image"),
        ((4, "UUUUDDDD"), "g(g_inv) != id", "UUUUDDDD"),
    )
