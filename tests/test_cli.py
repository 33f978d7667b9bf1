import hashlib
import os
import threading
import time
import tracemalloc

import pytest

import pibench.goldens as goldens
from pibench.cli import (
    UsageError,
    main,
    parse_args,
    parse_decimal_exp,
    parse_schedule_expr,
)
from pibench.fixedpoint import BigFixed
from pibench.report import CSV_HEADER


class TestScheduleExpr:
    def test_range_plus_point(self):
        sched = parse_schedule_expr("5:100:5,1000")
        assert len(sched.points) == 21
        assert sched.points[0] == 5 and sched.points[-1] == 1000

    def test_single_points(self):
        assert parse_schedule_expr("1,2,10").points == (1, 2, 10)

    def test_malformed(self):
        for bad in ("", "5:100", "a:b:c", "5,,10", "10:5:1", "5:10:0"):
            with pytest.raises(UsageError):
                parse_schedule_expr(bad)


class TestThresholds:
    def test_exponent_forms(self):
        assert parse_decimal_exp("1e-3") == BigFixed(1, 3)
        assert parse_decimal_exp("2.5e-2") == BigFixed(25, 3)
        assert parse_decimal_exp("1e2") == BigFixed(100)
        assert parse_decimal_exp("0.5") == BigFixed(5, 1)

    def test_bad(self):
        with pytest.raises(UsageError):
            parse_decimal_exp("abc")


class TestParseArgs:
    def test_run_grammar(self):
        cfg = parse_args(
            ["run", "--method", "wallis", "--schedule", "5:100:5,1000",
             "--dp", "15", "--format", "csv"]
        )
        assert cfg.command == "run"
        assert len(cfg.schedule.points) == 21
        assert cfg.fmt == "csv"

    def test_unknown_method(self):
        with pytest.raises(UsageError):
            parse_args(["run", "--method", "nosuch", "--schedule", "5"])

    def test_dp_too_small(self):
        with pytest.raises(UsageError):
            parse_args(["run", "--method", "wallis", "--schedule", "5", "--dp", "0"])

    def test_compare_preset_name(self):
        cfg = parse_args(["compare", "--methods", "newton-vs-zeta8"])
        assert [m.value for m in cfg.methods] == ["newton", "zeta8"]

    def test_table_id_validation(self):
        with pytest.raises(UsageError):
            parse_args(["table", "--id", "9"])


class TestMainExitCodes:
    def test_usage_error_exit_1(self, capsys):
        assert main(["run", "--method", "nosuch", "--schedule", "5"]) == 1
        assert "unknown method" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--method", "viete", "--schedule", "0"],
        ["compare", "--methods", "wallis,viete", "--schedule", "0:3:1"],
        ["compare", "--methods", "newton,zeta8", "--thresholds", "1e-8,1e-3"],
        ["compare", "--methods", "newton,zeta8", "--thresholds", "0"],
        ["compare", "--methods", "newton,newton", "--schedule", "1:3:1"],
        ["run", "--method", "wallis", "--schedule", "5", "--reference", "abc"],
    ])
    def test_bad_input_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("pibench: ")
        assert len(captured.err.splitlines()) == 1

    def test_reference_integrity_exit_2(self, capsys):
        rc = main(["run", "--method", "wallis", "--schedule", "5",
                   "--reference", "2.9"])
        assert rc == 2
        capsys.readouterr()

    def test_run_csv(self, capsys):
        assert main(["run", "--method", "wallis", "--schedule", "5,10",
                     "--dp", "15", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER
        rows = [ln.split(",") for ln in lines[1:]]
        assert [row[1] for row in rows] == ["5", "10"]
        assert rows[0][2] == "3.002175954556907"

    def test_run_below_13_dp(self, capsys):
        assert main(["run", "--method", "wallis", "--schedule", "5",
                     "--dp", "12", "--format", "csv"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[2] == "3.002175954557"

    def test_run_plot(self, capsys):
        assert main(["run", "--method", "viete", "--schedule", "1:5:1",
                     "--format", "plot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# viete value")

    def test_compare_exit_0(self, capsys):
        rc = main(["compare", "--methods", "newton,zeta8",
                   "--thresholds", "1e-3,1e-8", "--schedule", "1:30:1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# crossover" in out

    def test_table_4_has_28_rows(self, capsys):
        assert main(["table", "--id", "4"]) == 0
        out = capsys.readouterr().out
        data_rows = [ln for ln in out.splitlines() if ln.startswith("| ") and
                     not ln.startswith("| n") and not ln.startswith("| ---")]
        assert len(data_rows) == 28  # schedule 1..10 plus 15..100 step 5

    def test_table_deterministic(self, capsys):
        main(["table", "--id", "5"])
        first = capsys.readouterr().out
        main(["table", "--id", "5"])
        second = capsys.readouterr().out
        assert first == second
        assert "elapsed" not in first

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        assert main(["run", "--method", "zeta8", "--schedule", "5",
                     "--dp", "14", "--format", "csv", "--out", str(path)]) == 0
        text = path.read_text()
        assert text.startswith(CSV_HEADER)
        assert capsys.readouterr().out == ""


    def test_unwritable_out_fails_before_any_work(self, tmp_path, monkeypatch, capsys):
        from pibench import cli

        def no_run(*args, **kwargs):
            pytest.fail("run was called although --out cannot be written")

        monkeypatch.setattr(cli, "run", no_run)
        path = tmp_path / "missing" / "x.csv"
        assert main(["run", "--method", "wallis", "--schedule", "5",
                     "--format", "csv", "--out", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"pibench: cannot write {path}")
        assert len(captured.err.splitlines()) == 1

    def test_reference_failure_leaves_out_alone(self, tmp_path, capsys):
        kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
        kept.write_text("earlier output\n")
        for path in (kept, fresh):
            assert main(["run", "--method", "wallis", "--schedule", "5",
                         "--reference", "2.9", "--out", str(path)]) == 2
        assert kept.read_text() == "earlier output\n"
        assert not fresh.exists()
        capsys.readouterr()

    def test_csv_run_memory_is_bounded(self, tmp_path):
        # A CSV run writes each record as it is computed and keeps none, so
        # its peak grows only with the schedule (about 82 B a point), not
        # with records (about 0.8 kB each when they were all kept).
        peaks = {}
        for n in (5_000, 50_000):
            argv = ["run", "--method", "leibniz", "--schedule", f"1:{n}:1",
                    "--format", "csv", "--out", str(tmp_path / "x.csv")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peaks[50_000] - peaks[5_000]) / 45_000 < 200, peaks


@pytest.fixture
def small_selftest(monkeypatch):
    """Shrink Tables 1-3 to n <= 100, so a full selftest takes milliseconds."""
    from dataclasses import replace

    from pibench.harness import TABLE_PRESETS, Schedule

    goldens.load.cache_clear()
    data = goldens.load()
    small = Schedule(tuple(range(5, 101, 5)))
    for tid in (1, 2, 3):
        preset = replace(TABLE_PRESETS[tid], schedule=small, guard_dp=12)
        monkeypatch.setitem(TABLE_PRESETS, tid, preset)
        rows = [r for r in data[str(tid)]["rows"] if r["n"] <= 100]
        monkeypatch.setitem(data[str(tid)], "rows", rows)
    yield
    goldens.load.cache_clear()


# The shrunk selftest's report text, forked or not: 101 divergent cells.
SMALL_SELFTEST_SHA256 = "094b7159c2c30e33dc06abbc42c4d49880860f41d8089adcff0ae10551ec0776"


class TestSelftestCommand:
    @pytest.mark.parametrize("fork", ["forked", "in-process"])
    def test_selftest_quick_paths(self, small_selftest, monkeypatch, fork):
        forks = []
        if fork == "forked":
            real_fork = os.fork

            def counted_fork():
                forks.append(1)
                return real_fork()

            monkeypatch.setattr(os, "fork", counted_fork)
        else:
            monkeypatch.delattr(os, "fork")

        report = goldens.selftest()
        assert len(forks) == (fork == "forked")
        assert (report.ok, report.expected_divergent, report.mismatches) == (True, 101, 0)
        digest = hashlib.sha256(report.text().encode()).hexdigest()
        assert digest == SMALL_SELFTEST_SHA256

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_child_failure_raises_in_parent(self, small_selftest, monkeypatch):
        real_audit = goldens._audit_table

        def audit(tid, table):
            if tid == 1:
                raise ValueError("broken on purpose")
            return real_audit(tid, table)

        monkeypatch.setattr(goldens, "_audit_table", audit)
        with pytest.raises(RuntimeError, match="table 1 .*ValueError: broken on purpose"):
            goldens.selftest()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_parent_interrupt_kills_the_child(self, small_selftest, monkeypatch):
        def audit(tid, table):
            if tid == 1:
                time.sleep(60)  # still running when the parent is interrupted
            raise KeyboardInterrupt

        monkeypatch.setattr(goldens, "_audit_table", audit)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            goldens.selftest()
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_fork_while_another_thread_runs(self, small_selftest, monkeypatch):
        def no_fork():
            pytest.fail("selftest forked while another thread was running")

        monkeypatch.setattr(os, "fork", no_fork, raising=False)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            report = goldens.selftest()
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert report.ok

    def test_mismatch_exit_3(self, monkeypatch, capsys):
        from pibench import cli
        from pibench.goldens import SelftestReport

        lines = ["MISMATCH table 1 n=5 value: computed=3.0 published=3.1",
                 "selftest: 0 expected-divergent cells, 1 failures"]
        report = SelftestReport(lines, False, 0, 1)
        monkeypatch.setattr(cli, "selftest", lambda: report)
        assert main(["selftest"]) == cli.EXIT_MISMATCH == 3
        assert capsys.readouterr().out == report.text()

    def test_threads_option_is_gone(self, capsys):
        assert main(["selftest", "--threads", "2"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
