import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import SIGN_MUTANTS
from supercat.cli import main
from supercat.errors import DomainError
from supercat.numbers import catalan


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_t_table_frozen(self, capsys):
        code, out, err = run(capsys, "table", "T", "3", "3")
        assert code == 0
        assert out.splitlines() == [
            "-\t1\t3\t10",
            "1\t1\t2\t5",
            "3\t2\t3\t6",
            "10\t5\t6\t10",
        ]
        assert "T(0,0)" in err

    def test_catalan_row(self, capsys):
        code, out, _ = run(capsys, "table", "C", "0", "5")
        assert code == 0
        assert out.splitlines() == ["1\t1\t2\t5\t14\t42"]

    def test_t_origin_only(self, capsys):
        code, out, err = run(capsys, "table", "T", "0", "0")
        assert code == 0
        assert out.strip() == "-"
        assert "not integral" in err

    def test_s_table_has_no_hole(self, capsys):
        # S(0,0)=1, S(0,1)=S(1,0)=2, S(1,1)=2: no excluded cell
        code, out, _ = run(capsys, "table", "S", "1", "1")
        assert code == 0
        assert out.splitlines() == ["1\t2", "2\t2"]

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
    def test_table_prints_values_past_the_int_to_str_digit_limit(self, capsys):
        # C(1100) has 658 digits, past the least limit Python allows (640), as
        # C(8000) is past the default 4300; the limit is lifted for the table alone
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, _ = run(capsys, "table", "C", "0", "1100", "--format", "json")
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0
        assert int(json.loads(out)["rows"][0][1100]) == catalan(1100)

    def test_ballot_table_domain_shape(self, capsys):
        code, out, _ = run(capsys, "table", "B", "3", "3")
        assert code == 0
        assert out.splitlines() == [
            "-\t-\t-\t-",
            "-\t1\t-\t-",
            "-\t2\t1\t-",
            "-\t5\t4\t1",
        ]

    def test_json_is_canonical_and_roundtrips(self, capsys):
        code, out, _ = run(capsys, "table", "T", "2", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][2][2] == "3"
        assert payload["rows"][0][0] == "-"
        # re-rendering the parsed document reproduces the bytes
        assert json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n" == out

    def test_big_cells_survive_json_as_strings(self, capsys):
        code, out, _ = run(capsys, "table", "T", "0", "40", "--format", "json")
        payload = json.loads(out)
        assert int(payload["rows"][0][40]) > 2**63

    def test_missing_bounds(self, capsys):
        # the two positionals are the only bounds: argparse's usage error
        for argv in (["T"], ["T", "3"], ["T", "--max-m", "3", "--max-n", "3"]):
            with pytest.raises(SystemExit) as exc:
                main(["table", *argv])
            assert exc.value.code == 2
            assert capsys.readouterr().err.startswith("usage: supercat")

    def test_negative_bounds(self, capsys):
        code, _, _ = run(capsys, "table", "T", "-1", "3")
        assert code == 2


class TestVerify:
    def test_rubenstein_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "rubenstein", "--max", "15")
        assert code == 0
        assert "passed\ttrue" in out
        assert "cases\t225" in out

    def test_theorem1_with_jobs(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem1", "--max-sum", "8", "--jobs", "2")
        assert code == 0
        assert "passed\ttrue" in out

    def test_unknown_identity_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "gauss"])
        assert exc.value.code == 2

    def test_enumeration_cap_refused_without_force(self, capsys):
        code, _, err = run(capsys, "verify", "theorem1", "--max-sum", "19")
        assert code == 2
        assert "--force" in err

    def test_refusal_prices_only_the_rows_it_needs(self, capsys):
        # C(4999), the last row's price, is past the cap on its own
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "theorem1", "--max-sum", "5000")
        assert time.perf_counter() - start < 2
        assert code == 2
        assert out == ""
        assert "refusing a sweep over at least" in err and "--force" in err

    @pytest.mark.parametrize("max_sum", [5000, 8000])
    def test_refusal_of_a_huge_sweep_is_one_short_line(self, capsys, max_sum):
        # the last row's price alone, C(max_sum - 1), passes the cap; past 30
        # digits it is given as the power of two below it, and at 8000 its
        # decimal text would pass Python's int-to-str digit limit
        code, out, err = run(capsys, "verify", "theorem1", "--max-sum", str(max_sum))
        assert code == 2
        assert out == ""
        assert f"refusing a sweep over at least 2^{catalan(max_sum - 1).bit_length() - 1} paths" in err
        assert err.count("\n") == 1 and len(err) < 160

    @pytest.mark.parametrize("argv,count", [
        (("theorem1", "--max-sum", "19"), "477,638,700"),
        (("pairs", "--max-n", "40"), "3,541,413,699,369,763,259,450"),
        (("theorem1", "--max-sum", "5000"), f"2^{catalan(4999).bit_length() - 1}"),
    ])
    def test_refusal_line_is_pinned(self, capsys, argv, count):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err == (f"{argv[0]}: refusing a sweep over at least {count} paths, more than the "
                       "178,405,156 budget; pass --force to run it anyway\n")

    def test_refusal_agrees_with_path_cost(self, capsys, monkeypatch):
        from supercat import enumeration, verify

        def passed(names, *, jobs, **bounds):
            return [verify.VerificationReport(name, {}, (), 1) for name in names]

        monkeypatch.setattr(verify, "run_identities", passed)
        for name in verify.IDENTITIES:
            for bound in range(25):
                try:
                    cost = verify.path_cost(name, max_sum=bound, max_m=bound, max_n=bound)
                except DomainError:
                    want = 1
                else:
                    want = 2 if cost > enumeration._BUDGET else 0
                assert main(["verify", name, "--max", str(bound), "--jobs", "1"]) == want, (name, bound)
        capsys.readouterr()

    def test_cap_is_a_path_budget(self):
        from supercat import enumeration, verify

        assert verify.path_cost("theorem1", max_sum=18) <= enumeration._BUDGET
        assert verify.path_cost("theorem1", max_sum=19) > enumeration._BUDGET
        # theorem1-dyck walks two families, so its largest bound is one less
        assert verify.path_cost("theorem1-dyck", max_sum=17) <= enumeration._BUDGET
        assert verify.path_cost("theorem1-dyck", max_sum=18) > enumeration._BUDGET
        # pairs walks every Dyck size up to n for each row n
        assert verify.path_cost("pairs", max_n=16) <= enumeration._BUDGET
        assert verify.path_cost("pairs", max_n=17) > enumeration._BUDGET
        # every suite runs at its defaults without --force
        assert all(verify.path_cost(name) <= enumeration._BUDGET for name in verify.IDENTITIES)

    def test_costly_small_bound_refused_without_force(self, capsys, monkeypatch):
        from supercat import verify

        def never(*args, **kwargs):
            raise AssertionError("sweep ran past the cap")

        monkeypatch.setattr(verify, "run_identities", never)
        code, out, err = run(capsys, "verify", "bijection-f", "--max-n", "16")
        assert code == 2
        assert out == ""
        assert "--force" in err

    @pytest.mark.parametrize(
        "argv", [("theorem1", "--max-sum", "0"), ("all", "--max", "0"), ("rubenstein", "--max-m", "0")]
    )
    def test_zero_bound_is_not_replaced_by_default(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv, "--jobs", "1")
        assert code != 0
        assert "passed\ttrue" not in out
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("theorem1", "--max-n", "5"), "theorem1 takes --max-sum, not --max-n"),
            (("theorem4", "--max-sum", "3"), "theorem4 takes --max-n, not --max-sum"),
            (("rubenstein", "--max-m", "3", "--max-sum", "4"), "takes --max-m and --max-n, not --max-sum"),
        ],
    )
    def test_bound_the_identity_does_not_take_is_usage_error(self, capsys, monkeypatch, argv, message):
        from supercat import verify

        def never(*args, **kwargs):
            raise AssertionError("suite ran with a bound it does not take")

        monkeypatch.setattr(verify, "run_identities", never)
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_is_usage_error(self, capsys, monkeypatch, jobs):
        from supercat import verify

        def never(*args, **kwargs):
            raise AssertionError("suite ran with a worker count below 1")

        monkeypatch.setattr(verify, "run_identities", never)
        code, out, err = run(capsys, "verify", "theorem4", "--max-n", "3", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert err == f"jobs must be at least 1, got {jobs}\n"

    @pytest.mark.parametrize("bound", ["0", "1"])
    def test_bound_errors_come_before_any_worker(self, capsys, monkeypatch, bound):
        def never(*args, **kwargs):
            raise AssertionError("a pool opened before every suite was planned")

        # theorem1 is planned first, and every later suite takes the bound too
        monkeypatch.setattr("supercat.verify._forked", never)
        code, out, err = run(capsys, "verify", "all", "--max", bound, "--jobs", "2")
        assert code == 1
        assert out == ""
        assert err == "error: theorem1 requires max_sum >= 2\n"

    def test_all_refuses_a_bad_bound_before_pricing_a_later_suite(self, capsys):
        # theorem1's plan refuses max_sum 1 before theorem4's price at n = 20 is read
        code, out, err = run(capsys, "verify", "all", "--max-sum", "1", "--max-n", "20")
        assert (code, out, err) == (1, "", "error: theorem1 requires max_sum >= 2\n")

    def test_all_prints_the_same_bytes_for_every_worker_count(self, capsys):
        outputs = {run(capsys, "verify", "all", "--max", "6", "--jobs", jobs, "--format", "json")[1:]
                   for jobs in ("1", "2", "3")}
        assert len(outputs) == 1
        (out, err), = outputs
        assert err == ""
        assert [report["passed"] for report in json.loads(out)] == [True] * 11

    def test_import_loads_no_pool_modules(self):
        # the pool is imported only where a run opens one; -S keeps site hooks out
        probe = "import sys, supercat.cli; print(*sorted(set(sys.argv[1:]) & set(sys.modules)))"
        pool = ["concurrent.futures", "concurrent.futures.process", "multiprocessing", "logging", "socket"]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        result = subprocess.run([sys.executable, "-S", "-c", probe, *pool], env=env, capture_output=True, text=True,
                                timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "\n"

    def test_import_loads_no_introspection_modules(self):
        # the record types and plan defaults need neither dataclasses nor inspect;
        # only modules the import adds count, so a site hook may preload any of them
        probe = ("import sys; before = set(sys.modules); import supercat.cli; "
                 "print(*sorted(set(sys.argv[1:]) & (set(sys.modules) - before)))")
        heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        result = subprocess.run([sys.executable, "-c", probe, *heavy], env=env, capture_output=True, text=True,
                                timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "\n"

    def test_a_pooled_run_loads_no_pool_modules(self):
        # the forked pool needs only os, select and pickle
        probe = ("import sys; from supercat.cli import main; code = main(sys.argv[1:7]); "
                 "print(code, *sorted(set(sys.argv[7:]) & set(sys.modules)), file=sys.stderr)")
        argv = ["verify", "pair-map", "--max-n", "5", "--jobs", "2"]
        pool = ["concurrent.futures", "concurrent.futures.process", "multiprocessing", "logging", "socket"]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        result = subprocess.run([sys.executable, "-S", "-c", probe, *argv, *pool], env=env, capture_output=True,
                                text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert "passed\ttrue" in result.stdout
        assert result.stderr == "0\n"

    def test_force_flag_accepted(self, capsys):
        code, _, _ = run(capsys, "verify", "theorem4", "--max-n", "4", "--force")
        assert code == 0

    def test_all_with_small_bounds(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--max", "6", "--jobs", "1")
        assert code == 0
        assert out.count("identity\t") == 11
        assert out.count("passed\ttrue") == 11

    def test_tsv_failure_lines_match_the_json_report(self, capsys, monkeypatch):
        from supercat import bijections

        monkeypatch.setattr(bijections, "_sign", SIGN_MUTANTS["% 3"])
        argv = ("verify", "theorem1", "--max-sum", "6", "--jobs", "1")
        code, tsv, _ = run(capsys, *argv)
        json_code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == json_code == 1
        report = json.loads(out)
        assert report["failures"] == [{"params": "(3, 3)", "lhs": "8", "rhs": "10"}]
        lines = tsv.splitlines()
        assert lines[:5] == ["identity\ttheorem1", "bounds\tmax_sum=6", f"cases\t{report['cases']}",
                             f"failures\t{len(report['failures'])}", "passed\tfalse"]
        assert [line.split("\t") for line in lines[5:]] == [
            ["failure", f["params"], f"lhs={f['lhs']}", f"rhs={f['rhs']}"] for f in report["failures"]
        ]

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "symmetry", "--max-sum", "12", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["identity"] == "symmetry"
        assert payload["passed"] is True
        assert json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n" == out


class TestMap:
    @pytest.mark.parametrize(
        "kind,path,expected",
        [
            ("f", "UUUDDDUD", "UUDDUD"),
            ("f-inv", "UUDDUD", "UUUDDDUD"),
            ("g", "UUUDDUUDDD", "UUUUDDDD"),
            ("g-inv", "UUUUDDDD", "UUUDDUUDDD"),
            ("m2d", "S", "UUDD"),
            ("d2m", "UUDD", "S"),
            ("reverse", "SUD", "UDS"),
        ],
    )
    def test_frozen_maps(self, capsys, kind, path, expected):
        code, out, _ = run(capsys, "map", kind, path)
        assert code == 0
        assert out.strip() == expected

    def test_pair_emits_two_lines(self, capsys):
        code, out, _ = run(capsys, "map", "pair", "UUDUDD")
        assert code == 0
        assert out.splitlines() == ["UUDD", "UD"]

    def test_unpair_from_arguments(self, capsys):
        code, out, _ = run(capsys, "map", "unpair", "UUDD", "UD")
        assert code == 0
        assert out.strip() == "UUDUDD"

    def test_unpair_reads_two_lines_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("UUDD\nUD\n"))
        code, out, _ = run(capsys, "map", "unpair")
        assert code == 0
        assert out.strip() == "UUDUDD"

    @pytest.mark.parametrize("kind,text", [("m2d", ""), ("unpair", "UUDD\n")])
    def test_stdin_short_of_paths_is_usage_error(self, capsys, monkeypatch, kind, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "map", kind)
        assert code == 2
        assert out == ""
        assert "takes exactly" in err

    def test_blank_stdin_line_is_the_empty_path(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("\n"))
        code, out, _ = run(capsys, "map", "m2d")
        assert code == 0
        assert out.strip() == "UD"

    def test_unpair_with_empty_component(self, capsys):
        code, out, _ = run(capsys, "map", "unpair", "", "UD")
        assert code == 0
        assert out.strip() == "UD"

    def test_wrong_class_names_condition(self, capsys):
        code, _, err = run(capsys, "map", "f", "UDUDUDUD")
        assert code == 1
        assert "up-up-up" in err

    def test_short_path_error_names_the_map(self, capsys):
        code, out, err = run(capsys, "map", "f", "UD")
        assert (code, out, err) == (1, "", "error: injection_f requires length >= 6\n")

    def test_parse_error_is_failure(self, capsys):
        code, _, err = run(capsys, "map", "f", "UXD")
        assert code == 1
        assert "index 1" in err

    def test_wrong_arity(self, capsys):
        code, _, err = run(capsys, "map", "f", "UD", "UD")
        assert code == 2


class TestEnumerate:
    def test_dyck_stream(self, capsys):
        code, out, _ = run(capsys, "enumerate", "dyck", "3")
        assert code == 0
        assert out.splitlines() == ["UUUDDD", "UUDUDD", "UUDDUD", "UDUUDD", "UDUDUD"]

    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "enumerate", "motzkin2", "5", "--count")
        assert code == 0
        assert out.strip() == "132"

    def test_ballot(self, capsys):
        code, out, _ = run(capsys, "enumerate", "ballot", "2", "1")
        assert code == 0
        assert out.splitlines() == ["UUD", "UDU"]

    def test_pairs_tab_separated(self, capsys):
        code, out, _ = run(capsys, "enumerate", "pairs", "1")
        assert code == 0
        assert out.splitlines() == ["\tUD", "UD\t"]

    def test_pairs_print_the_public_pair_stream(self, capsys):
        import hashlib

        from supercat.enumeration import enum_pairs_total

        code, out, _ = run(capsys, "enumerate", "pairs", "7")
        assert code == 0
        assert out == "".join(f"{a.steps}\t{b.steps}\n" for a, b in enum_pairs_total(7))
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "5f9880b8c6dee53928297540a9516ae3b6b098e8a1d7ff786bb5f399c910d519"

    def test_arity_checked(self, capsys):
        code, _, err = run(capsys, "enumerate", "ballot", "3")
        assert code == 2
        assert "2 integer" in err

    def test_bad_parameters_fail_cleanly(self, capsys):
        code, _, err = run(capsys, "enumerate", "ballot", "2", "5")
        assert code == 1
        assert "1 <= r <= n" in err


class TestRender:
    def test_writes_svg_with_one_element_per_step(self, capsys, tmp_path):
        out_file = tmp_path / "path.svg"
        code, _, _ = run(capsys, "render", "UUDUDD", str(out_file))
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("<svg")
        assert text.count('class="step ') == 6

    def test_markers_positions(self, capsys, tmp_path):
        out_file = tmp_path / "m.svg"
        code, _, _ = run(capsys, "render", "UUDUDD", str(out_file), "--markers")
        assert code == 0
        text = out_file.read_text()
        assert 'class="marker marker-anchor" data-x="3"' in text
        assert 'class="marker marker-rightmost" data-x="4"' in text

    def test_wavy_distinct_from_straight(self, capsys, tmp_path):
        out_file = tmp_path / "w.svg"
        code, _, _ = run(capsys, "render", "SUW", str(out_file))
        assert code == 0
        text = out_file.read_text()
        assert '<line class="step step-straight"' in text
        assert '<path class="step step-wavy"' in text

    def test_unwritable_target(self, capsys, tmp_path):
        code, _, err = run(capsys, "render", "UD", str(tmp_path / "no" / "dir.svg"))
        assert code == 1
        assert "cannot write" in err

    def test_markers_need_valid_dyck(self, capsys, tmp_path):
        code, _, err = run(capsys, "render", "SUW", str(tmp_path / "x.svg"), "--markers")
        assert code == 1
        assert "Dyck" in err


class TestJobsEnvironment:
    @pytest.fixture
    def seen_jobs(self, monkeypatch):
        """Patch the suite runner to record the worker count it is given."""
        from supercat import verify

        seen = []

        def record(names, *, jobs, **bounds):
            seen.append(jobs)
            return [verify.VerificationReport(name, {}, (), 1) for name in names]

        monkeypatch.setattr(verify, "run_identities", record)
        return seen

    @pytest.fixture
    def pinned(self, monkeypatch):
        """Two of the machine's four CPUs are usable by this process."""
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2}, raising=False)

    def test_default_counts_only_usable_cpus(self, monkeypatch, capsys, seen_jobs, pinned):
        assert main(["verify", "symmetry"]) == 0
        monkeypatch.delattr(os, "sched_getaffinity")
        assert main(["verify", "symmetry"]) == 0
        # the core count only where the platform cannot say which CPUs are usable
        assert seen_jobs == [2, 4]

    def test_default_is_one_job_without_fork(self, monkeypatch, capsys, seen_jobs, pinned):
        monkeypatch.delattr(os, "fork")
        assert main(["verify", "symmetry"]) == 0
        assert seen_jobs == [1]

    def test_more_jobs_without_fork_is_usage_error(self, monkeypatch, capsys, seen_jobs):
        monkeypatch.delattr(os, "fork")
        code, out, err = run(capsys, "verify", "theorem4", "--max-n", "3", "--jobs", "2")
        assert code == 2
        assert out == ""
        assert err == "jobs must be 1 on a platform without os.fork, got 2\n"
        assert seen_jobs == []
        assert main(["verify", "theorem4", "--max-n", "3", "--jobs", "1"]) == 0
        assert seen_jobs == [1]

    def test_environment_does_not_set_jobs(self, monkeypatch, capsys, seen_jobs, pinned):
        # --jobs is the one way to choose a worker count
        monkeypatch.setenv("SUPERCAT_JOBS", "3")
        code, _, err = run(capsys, "verify", "symmetry")
        assert code == 0
        assert err == ""
        assert seen_jobs == [2]
