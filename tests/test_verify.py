import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from conftest import SIGN_MUTANTS, ref_catalan, ref_super_catalan_s
from supercat import verify
from supercat.errors import DomainError, ParseError
from supercat.numbers import catalan

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
    serial = verify.run_identity("theorem1", max_sum=9, jobs=1)
    parallel = verify.run_identity("theorem1", max_sum=9, jobs=4)
    assert serial == parallel
    serial = verify.run_identity("reversal", max_sum=8, jobs=1)
    parallel = verify.run_identity("reversal", max_sum=8, jobs=2)
    assert serial == parallel


@pytest.mark.parametrize("name", PATH_SUITES)
def test_path_suites_refuse_jobs_below_one(name):
    with pytest.raises(DomainError, match="^jobs must be at least 1, got 0$"):
        verify.run_identity(name, jobs=0)


@pytest.fixture
def opened(monkeypatch):
    """Swap the forked pool for one that runs each task at once, in this
    process, in the pool's order; the worker count of every pool opened is
    recorded."""
    opened = []

    def serial(tasks, order, workers):
        opened.append(workers)
        rows = {i: tasks[i][2](tasks[i][1]) for i in order}
        return [rows[i] for i in range(len(tasks))]

    monkeypatch.setattr(verify, "_forked", serial)
    return opened


def assert_every_worker_reaped():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    raise AssertionError(f"internal: broken core on {walk[0]}")


def _logged(log, label, part, b):
    # appends from every worker process land whole
    with open(log, "a") as out:
        out.write(f"{label} {b}\n")
    return part(b)


def test_a_raising_row_cancels_the_shared_queue(monkeypatch, tmp_path):
    from supercat import bijections
    from supercat.cli import main

    log, forked = tmp_path / "ran", verify._forked

    def logging_forked(tasks, order, workers):
        logged = [(plan, b, partial(_logged, log, plan.identity, part)) for plan, b, part in tasks]
        return forked(logged, order, workers)

    monkeypatch.setattr(verify, "_forked", logging_forked)
    # bijection-f is the eighth of eleven suites; each of its rows raises
    monkeypatch.setattr(bijections, "_injection_f", _broken_injection_f)
    raised = []
    for jobs in ("1", "2"):
        with pytest.raises(AssertionError) as exc:
            main(["verify", "all", "--max", "6", "--jobs", jobs, "--format", "json"])
        raised.append((type(exc.value), str(exc.value)))
        assert_every_worker_reaped()
    assert raised[0] == raised[1] == (AssertionError, "internal: broken core on UUUDDD")
    # the queued rows of the suites after it were dropped, not run: both
    # workers start on bijection-f's row 6, the priciest, and both raise
    ran = {line.split()[0] for line in log.read_text().splitlines()}
    assert "bijection-f" in ran
    assert ran.isdisjoint({"bijection-g", "pair-map", "reversal"})


def _raising_at_2_and_4(b):
    if b in (2, 4):
        raise ValueError(f"row {b}")
    return [], 1


@pytest.mark.parametrize("workers", [1, 2])
def test_the_pool_raises_the_earliest_error_once_every_earlier_task_ran(tmp_path, workers):
    log = tmp_path / "ran"
    plan = verify._Plan("probe", {"n": 5}, (partial(_logged, log, "probe", _raising_at_2_and_4),), range(6))
    tasks = [(plan, b, part) for b in plan.rows for part in plan.parts]
    with pytest.raises(ValueError, match="row 2"):
        verify._forked(tasks, [3, 4, 2, 0, 1, 5], workers)
    assert_every_worker_reaped()
    ran = [int(line.split()[1]) for line in log.read_text().splitlines()]
    assert {0, 1, 2} <= set(ran)
    if workers == 1:
        # 4 raised, then 2; 0 and 1 come before 2 and still ran; 5 was dropped
        assert ran == [3, 4, 2, 0, 1]


def _gap_of_one(levels):
    # the gap rule with 2 mistyped as 1
    from supercat.paths import _split

    h, _, x = _split(levels)
    return h < 3 or h - 1 in levels[: x + 1]


@pytest.mark.parametrize("name,bounds,mutant", [
    ("theorem1", {"max_sum": 9}, None),
    ("theorem4", {"max_n": 8}, None),
    ("pairs", {"max_n": 8}, None),
    ("theorem1", {"max_sum": 9}, ("_sign", SIGN_MUTANTS["% 3"])),
    ("theorem4", {"max_n": 8}, ("_bounded_gap", _gap_of_one)),
    ("pairs", {"max_n": 8}, ("_close", lambda a, b: abs(a - b) <= 2)),
])
def test_tally_rows_merge_their_shares_to_one_report(monkeypatch, name, bounds, mutant):
    # a tally plan runs its priciest rows as one share per worker; the merged
    # report, failures and their order included, is the one pass of --jobs 1
    from supercat import bijections

    if mutant is not None:
        monkeypatch.setattr(bijections, *mutant)
    reports = [verify.run_identity(name, jobs=jobs, **bounds) for jobs in (1, 2, 3)]
    assert_every_worker_reaped()
    assert reports[0] == reports[1] == reports[2]
    assert reports[0].passed == (mutant is None)


def test_only_tally_rows_at_a_workers_share_of_their_plan_are_split():
    # theorem1 at max_sum 9 costs C(1) + ... + C(8) = 2,055 paths; only row 9,
    # at C(8) = 1,430, reaches 2,055 / 3, and at one job nothing is split
    plan = verify._plan("theorem1", max_sum=9)
    assert [len(parts) for parts in verify._shares(plan, 3)] == [1] * 7 + [3]
    assert [len(parts) for parts in verify._shares(plan, 1)] == [1] * 8
    assert [part.keywords["share"] for part in verify._shares(plan, 3)[-1]] == [(0, 3), (1, 3), (2, 3)]
    plan = verify._plan("pair-map", max_n=6)
    assert verify._shares(plan, 3) == [plan.parts] * 6


def test_m2_rows_run_their_parts_on_the_pool_and_reap_every_worker():
    for name in ("bijection-f", "bijection-g", "pair-map"):
        assert verify.run_identity(name, max_n=6, jobs=3) == verify.run_identity(name, max_n=6, jobs=1)
        assert_every_worker_reaped()


# Run in a child interpreter, so that a worker that dies or a hung pool
# cannot take the pytest process with it; the child prints what it saw.
POOL_PROBE = """
import os, pickle, signal, sys, time
from supercat import verify

signal.signal(signal.SIGINT, signal.default_int_handler)
sources = verify._injection_sources

whole = pickle.dumps
truncating = False

def dumps(outcome):
    data = whole(outcome)
    return data[: len(data) // 2] if truncating else data

def broken(*args):
    global truncating
    if args[-1] == 4:  # row 4's source part
        if sys.argv[1] == "exit":
            os._exit(3)
        if sys.argv[1] == "truncate":  # this worker sends half its result, then dies
            truncating = True
            os.read = lambda fd, size: os._exit(3)
            return sources(*args)
        os.kill(os.getppid(), signal.SIGINT)
        time.sleep(120)
    return sources(*args)

verify._injection_sources = broken
pickle.dumps = dumps
try:
    verify.run_identity("bijection-f", max_n=4, jobs=2)
except (RuntimeError, KeyboardInterrupt) as exc:
    print(type(exc).__name__, exc)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("reaped")
"""


@pytest.mark.parametrize("how,seen", [
    ("exit", "RuntimeError bijection-f row 4: a worker exited with code 3 before returning its result"),
    ("truncate", "RuntimeError bijection-f row 4: a worker exited with code 3 before returning its result"),
    ("interrupt", "KeyboardInterrupt "),
])
def test_a_dead_worker_or_an_interrupt_reaps_every_worker(how, seen):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run([sys.executable, "-c", POOL_PROBE, how], env=env, capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [seen, "reaped"]


@pytest.mark.parametrize("mutant", SIGN_MUTANTS)
def test_theorem1_reads_the_sign_rule(monkeypatch, mutant):
    from supercat import bijections

    monkeypatch.setattr(bijections, "_sign", SIGN_MUTANTS[mutant])
    assert not verify.run_identity("theorem1", max_sum=6).passed


def test_jobs_above_one_need_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(DomainError, match="^jobs must be 1 on a platform without os.fork, got 2$"):
        verify.run_identity("theorem4", max_n=3, jobs=2)
    assert verify.run_identity("theorem4", max_n=3, jobs=1).passed
    # no worker count is the default one, which is 1 here
    assert verify._check_jobs(None) == 1
    assert verify.run_identity("theorem4", max_n=3, jobs=None).passed


def test_reports_carry_bounds():
    report = verify.run_identity("theorem4", max_n=5)
    assert report.bounds == {"max_n": 5}
    report = verify.run_identity("ballot-sum", max_m=4, max_n=7)
    assert report.bounds == {"max_m": 4, "max_n": 7}


def test_bounds_validated():
    with pytest.raises(DomainError):
        verify.run_identity("theorem1", max_sum=1)
    with pytest.raises(DomainError):
        verify.run_identity("bijection-f", max_n=1)
    with pytest.raises(DomainError):
        verify.run_identity("pairs", max_n=0)
    # an explicit bound of 0 reaches the suite instead of its default
    with pytest.raises(DomainError):
        verify.run_identity("theorem1", max_sum=0)
    with pytest.raises(DomainError):
        verify.run_identity("rubenstein", max_m=0)
    # a worker count below one is refused, not run serially
    with pytest.raises(DomainError, match="^jobs must be at least 1, got 0$"):
        verify.run_identity("theorem1", max_sum=5, jobs=0)
    with pytest.raises(DomainError, match="^jobs must be at least 1, got -3$"):
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
    yielded = []
    count_paths(monkeypatch, yielded)
    assert verify.run_identity(name, **bounds).passed
    assert len(yielded) == verify.path_cost(name, **bounds)


def counted_stream(stream, pulled):
    """``stream`` with each item it yields appended to ``pulled``."""
    def counted(*args):
        for item in stream(*args):
            pulled.append(item)
            yield item

    return counted


def count_paths(monkeypatch, pulled):
    """Append each path either join of the engine yields to ``pulled``: the
    walks, and each profile in the packed blocks the row tallies read."""
    from supercat import enumeration

    def profiles(length, family, share=(0, 1), stream=verify._profiles):
        for block in stream(length, family, share):
            pulled.extend([block] * (len(block) // (length + 1)))
            yield block

    monkeypatch.setattr(enumeration, "_walks", counted_stream(enumeration._walks, pulled))
    monkeypatch.setattr(verify, "_profiles", profiles)


@pytest.mark.parametrize(
    "name,bounds",
    [
        ("theorem1", {"max_sum": 7}),
        ("theorem1-dyck", {"max_sum": 7}),
        ("reversal", {"max_sum": 7}),
        ("theorem4", {"max_n": 6}),
        ("pairs", {"max_n": 6}),
        ("bijection-f", {"max_n": 5}),
        ("bijection-g", {"max_n": 5}),
    ],
)
def test_each_row_enumerates_its_price(monkeypatch, name, bounds):
    # the pool's queue orders tasks by each row's price, so each must be exact;
    # a tally plan's shares enumerate it between them, and their merge passes
    pulled = []
    count_paths(monkeypatch, pulled)
    plan = verify._plan(name, **bounds)
    for b in plan.rows:
        for parts in (1, 3) if plan.merge else (None,):
            pulled.clear()
            if plan.merge:
                (part,) = plan.parts
                assert plan.merge(b, [part(b, share=(i, parts)) for i in range(parts)])[0] == []
            else:
                for part in plan.parts:
                    assert part(b)[0] == []
            assert len(pulled) == plan.paths(b), (name, b, parts)


def test_pair_map_rows_are_priced_at_their_split_walks_and_compared_pairs(monkeypatch):
    from supercat import enumeration

    walks, pairs = [], []
    monkeypatch.setattr(enumeration, "_walks", counted_stream(enumeration._walks, walks))
    monkeypatch.setattr(verify, "_pair_walks", counted_stream(verify._pair_walks, pairs))
    plan = verify._plan("pair-map", max_n=6)
    split, recovery = plan.parts
    for n in plan.rows:
        walks.clear()
        pairs.clear()
        assert split(n)[0] == []
        assert len(walks) == catalan(n)
        assert recovery(n)[0] == []
        assert len(pairs) == catalan(n + 1)
        assert plan.paths(n) == catalan(n) + catalan(n + 1)


def test_path_cost_refuses_the_bounds_its_suite_refuses():
    with pytest.raises(DomainError, match="^theorem1 requires max_sum >= 2$"):
        verify.path_cost("theorem1", max_sum=1)
    with pytest.raises(DomainError, match="^unknown identity 'fermat'$"):
        verify.path_cost("fermat")


def _parse_error_core(walk):
    raise ParseError(f"unknown step 'X' in {walk[0]}", index=4)


def test_a_parse_error_in_a_worker_reaches_the_parent_whole(monkeypatch):
    from supercat import bijections

    monkeypatch.setattr(bijections, "_injection_f", _parse_error_core)
    raised = []
    for jobs in (1, 2):
        with pytest.raises(ParseError) as exc:
            verify.run_identity("bijection-f", max_n=4, jobs=jobs)
        raised.append((type(exc.value), str(exc.value), exc.value.index))
        assert_every_worker_reaped()
    assert raised[0] == raised[1] == (ParseError, "unknown step 'X' in UUUDDD", 4)


class TestVerificationReport:
    def test_passed_iff_no_failures(self):
        clean = verify.VerificationReport("x", {"max": 1}, (), 1)
        assert clean.passed
        broken = verify.VerificationReport("x", {"max": 1}, (verify.Failure((1,), 0, 1),), 1)
        assert not broken.passed
        assert broken.failures[0].params == (1,)

    def test_a_report_is_a_tuple_of_its_fields(self):
        report = verify.VerificationReport("x", {"max": 1}, (), 1)
        assert repr(report) == "VerificationReport(identity='x', bounds={'max': 1}, failures=(), cases=1)"
        assert report == ("x", {"max": 1}, (), 1)
        identity, bounds, failures, cases = report
        assert (identity, bounds, failures, cases) == (report.identity, report.bounds, report.failures, report.cases)


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
    # the forked workers inherit the patch
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


def test_theorem1_dyck_reports_a_tally_mismatch_per_cell(monkeypatch):
    from supercat import bijections

    true_split = bijections._mod4_split
    monkeypatch.setattr(bijections, "_mod4_split", lambda counts: true_split(counts)[::-1])
    report = verify.run_identity("theorem1-dyck", max_sum=5, jobs=1)
    want = []
    for s in range(2, 6):
        for m in range(1, s):
            # the C(s - 1) paths of a cell split into P - N = T(m, n) and P + N = C(s - 1)
            t, total = ref_super_catalan_s(m, s - m) // 2, ref_catalan(s - 1)
            p, n = (total + t) // 2, (total - t) // 2
            want.append(((m, s - m), (n, p), (p, n)))
    assert len(want) == 10
    # a mismatched cell reports its tallies only, never its T(m, n) check
    assert report.failures == tuple(want)
    assert report.cases == 86


def test_pathwise_yields_every_walk_after_its_failures():
    from supercat.enumeration import _motzkin2_walks

    def sides(steps, levels):
        # one walk's sides differ at points 0 and 2, that is at m = 1 and m = 3
        return levels, (9, levels[1], 9) if steps == "SW" else levels

    failures, seen = [], []
    for steps, levels in verify._pathwise(4, failures, sides):
        seen.append((steps, levels, list(failures)))
    walks = list(_motzkin2_walks(2))
    assert [steps for steps, _, _ in seen] == ["UD", "SS", "SW", "WS", "WW"] == [steps for steps, _ in walks]
    assert [levels for _, levels, _ in seen] == [levels for _, levels in walks]
    want = [((1, 3, "SW"), 0, 9), ((3, 1, "SW"), 0, 9)]
    # a walk's failures are in the list by the time it is yielded
    assert [held for _, _, held in seen] == [[], [], want, want, want]
    assert failures == want


def test_failing_reversal_report_is_pinned(monkeypatch):
    true_reverse = verify._reverse

    def broken_reverse(steps):
        # UD is the only 2-Motzkin path whose mirror has this level profile
        mirrored, levels = true_reverse(steps)
        return mirrored, (0, 0, 0) if levels == (0, 1, 0) else levels

    monkeypatch.setattr(verify, "_reverse", broken_reverse)
    report = verify.run_identity("reversal", max_sum=5)
    assert report.cases == 76
    assert report.failures == (((2, 2, "UD"), -1, 1),)


def test_a_broken_mirror_fails_every_path_sharing_the_profile(monkeypatch):
    true_reverse = verify._reverse

    def broken_reverse(steps):
        # SS, SW, WS and WW all mirror to this level profile
        mirrored, levels = true_reverse(steps)
        return mirrored, (0, 1, 0) if levels == (0, 0, 0) else levels

    monkeypatch.setattr(verify, "_reverse", broken_reverse)
    report = verify.run_identity("reversal", max_sum=5)
    assert report.cases == 76
    assert report.failures == tuple(((2, 2, p), 1, -1) for p in ("SS", "SW", "WS", "WW"))


def test_reversal_mirrors_every_path_and_signs_every_profile_once(monkeypatch):
    from supercat import bijections
    from supercat.enumeration import enum_motzkin2

    true_sign, true_reverse = bijections._sign, verify._reverse
    signed, mirrored = [], []

    def counted_sign(level):
        signed.append(level)
        return true_sign(level)

    def counted_reverse(steps):
        mirrored.append(steps)
        return true_reverse(steps)

    monkeypatch.setattr(bijections, "_sign", counted_sign)
    monkeypatch.setattr(verify, "_reverse", counted_reverse)
    assert verify.run_identity("reversal", max_sum=7).passed
    walked = [path for s in range(2, 8) for path in enum_motzkin2(s - 2)]
    assert mirrored == [path.steps for path in walked]
    # one call per point of each distinct profile (a row's profiles share one length)
    assert sorted(signed) == sorted(level for levels in {path.levels for path in walked} for level in levels)


def test_reversal_checks_the_mirrored_steps(monkeypatch):
    from supercat import paths

    # flattening U and D keeps the mirror a 2-Motzkin path but not its signs
    monkeypatch.setattr(paths, "_MIRROR", str.maketrans("UD", "SS"))
    assert not verify.run_identity("reversal", max_sum=5).passed
    # reversing without exchanging U and D keeps every level's parity, so
    # only the mirror's own output check can see it
    monkeypatch.setattr(paths, "_MIRROR", str.maketrans("", ""))
    with pytest.raises(AssertionError, match="reversed path"):
        verify.run_identity("reversal", max_sum=5)


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
    image = true_f(second_walk)[0]
    for jobs in (1, 2):
        report = verify.run_identity("bijection-f", max_n=3, jobs=jobs)
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
    image = true_f(first_walk)[0]
    for jobs in (1, 2):
        report = verify.run_identity("bijection-f", max_n=3, jobs=jobs)
        assert report.failures == (
            ((3, first.steps), "UDUDUD", "outside the expected image"),
            ((3, image), "f(f_inv) != id", image),
        )


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_source_failing_both_checks_reports_its_image_then_its_round_trip(monkeypatch, jobs):
    from supercat import bijections
    from supercat.paths import parse_path

    true_f, true_inverse = bijections._injection_f, bijections._injection_f_inverse
    source, flat, back = (parse_path(steps, "dyck") for steps in ("UUUUDDDD", "UDUDUD", "UUUDUDDD"))
    source_walk, flat_walk, back_walk = ((p.steps, p.levels) for p in (source, flat, back))
    # the source's image lies outside the image of f and maps back to another source: both checks fail
    monkeypatch.setattr(bijections, "_injection_f", lambda w: flat_walk if w == source_walk else true_f(w))
    monkeypatch.setattr(
        bijections, "_injection_f_inverse", lambda w: back_walk if w == flat_walk else true_inverse(w)
    )
    report = verify.run_identity("bijection-f", max_n=3, jobs=jobs)
    assert report.cases == 10
    assert report.failures == (
        ((3, "UUUUDDDD"), "UDUDUD", "outside the expected image"),
        ((3, "UUUUDDDD"), "UUUDUDDD", "UUUUDDDD"),
        ((3, "UUUDDD"), "f(f_inv) != id", "UUUDDD"),
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
    report = verify.run_identity("bijection-f", max_n=6)
    assert report.passed and report.cases == 380
    assert len(calls) <= 2 * report.cases
    calls.clear()
    assert verify.run_identity("theorem4", max_n=8).passed
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
    assert verify.run_identity("bijection-f", max_n=6).passed
    assert verify.run_identity("bijection-g", max_n=6).passed
    assert verify.run_identity("pair-map", max_n=6).passed
    assert built == []


def test_m2_rows_build_no_markers(monkeypatch):
    # the m = 2 rows read the split point from paths._split alone: only the
    # public markers builds a PathMarkers, and no row calls it
    from supercat.numbers import super_catalan_t
    from supercat.paths import PathMarkers, markers, parse_path

    built = []
    new = PathMarkers.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(PathMarkers, "__new__", counted)
    for name in ("theorem4", "bijection-f", "bijection-g"):
        assert verify.run_identity(name, max_n=7).passed
    for n in range(1, 8):
        assert verify._pair_map_split(n) == ([], super_catalan_t(2, n))
        assert verify._pair_map_recovery(n)[0] == []
    assert built == []
    # the count sees every construction: the public view builds one
    markers(parse_path("UD", "motzkin"))
    assert built == [(1, 1, 1, 1, 1, 1)]


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
        failures, cases = verify._pair_map_split(n)
        assert failures == []
        # the split part inverts the split of each bounded-gap path: T(2,n) calls
        assert len(calls) == cases == super_catalan_t(2, n)
        calls.clear()
        failures, _ = verify._pair_map_recovery(n)
        assert failures == []
        assert calls == [
            (a.steps, b.steps) for a, b in enum_pairs_total(n) if abs(a.height - b.height) <= 1
        ]


def test_failing_pair_map_report_is_pinned(monkeypatch):
    from supercat import bijections

    true_to_pair_all = bijections._to_pair_all

    def swapped(walk):
        pairs = true_to_pair_all(walk)
        return ((pairs[0][1], pairs[0][0]),) if walk[0] == "UUDUDD" else pairs

    monkeypatch.setattr(bijections, "_to_pair_all", swapped)
    for jobs in (1, 2):
        report = verify.run_identity("pair-map", max_n=3, jobs=jobs)
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
    for jobs in (1, 2):
        report = verify.run_identity("bijection-g", max_n=4, jobs=jobs)
        assert report.cases == 2
        assert report.failures == (
            ((4, "UUUDDUUDDD"), "UDUDUDUD", "outside the expected image"),
            ((4, "UUUUDDDD"), "g(g_inv) != id", "UUUUDDDD"),
        )
