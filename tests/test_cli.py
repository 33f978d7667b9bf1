import contextlib
import errno
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import pibench
import pibench.cli as cli
import pibench.forked as forked
import pibench.goldens as goldens
import pibench.harness as harness
from pibench.cli import (
    EXIT_BROKEN_PIPE,
    UsageError,
    main,
    parse_args,
    parse_decimal_exp,
    parse_schedule_expr,
)
from pibench.fixedpoint import BigFixed, PrecisionCtx, default_guard, fx_to_string
from pibench.harness import PAIRINGS, ROW_BLOCK, Schedule, run
from pibench.methods import ApproximantState, LeibnizState, MethodId, WallisState
from pibench.report import CSV_HEADER, TableSpec, render_csv, render_markdown, render_plot_data
from conftest import leibniz_mp, mp_string, pct_err_mp, wallis_mp


_PINNED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "pinned.json").read_text()
)
PINNED_SELFTEST = _PINNED["reproduce"]
PINNED_TABLES = _PINNED["tables"]


def expanded_schedule(expr: str) -> list[int]:
    """The reference expansion of a schedule expression: every point of
    every item, sorted, without repeats. UsageError where the parser must
    raise it."""
    points = set()
    for item in expr.split(","):
        item = item.strip()
        if not item:
            raise UsageError("empty item")
        if ":" in item:
            parts = item.split(":")
            if len(parts) != 3:
                raise UsageError("not start:stop:step")
            try:
                start, stop, step_ = (int(p) for p in parts)
            except ValueError:
                raise UsageError("non-integer bound")
            if step_ < 1 or stop < start:
                raise UsageError("bad range")
            points.update(range(start, stop + 1, step_))
        else:
            try:
                points.add(int(item))
            except ValueError:
                raise UsageError("non-integer point")
    if not points or min(points) < 0:
        raise UsageError("empty or negative")
    return sorted(points)


_bound = st.integers(-3, 40)
_schedule_items = st.one_of(
    _bound.map(str),
    st.tuples(_bound, _bound, st.integers(0, 6)).map(lambda t: "%d:%d:%d" % t),
    st.sampled_from(["", "x", "1:2", "1:x:1"]),
)


class TestScheduleExpr:
    def test_range_plus_point(self):
        sched = parse_schedule_expr("5:100:5,1000")
        assert len(list(sched)) == 21
        assert sched.first == 5 and sched.max_n == 1000

    def test_single_points(self):
        assert list(parse_schedule_expr("1,2,10")) == [1, 2, 10]

    def test_malformed(self):
        for bad in ("", "5:100", "a:b:c", "5,,10", "10:5:1", "5:10:0"):
            with pytest.raises(UsageError):
                parse_schedule_expr(bad)

    @given(st.lists(_schedule_items, min_size=1, max_size=6).map(",".join))
    def test_same_points_as_the_expansion(self, expr):
        # Overlapping, unsorted and repeated items merge to the sorted
        # points without repeats, on every pass.
        try:
            expected = expanded_schedule(expr)
        except UsageError:
            with pytest.raises(UsageError):
                parse_schedule_expr(expr)
            return
        sched = parse_schedule_expr(expr)
        assert list(sched) == expected
        assert list(sched) == expected
        assert (sched.first, sched.max_n) == (expected[0], expected[-1])

    def test_a_billion_points_are_not_expanded(self):
        tracemalloc.start()
        try:
            sched = parse_schedule_expr("0:1000000000:1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak
        assert (sched.first, sched.max_n) == (0, 10**9)
        ctx = PrecisionCtx(15, default_guard(sched.max_n))
        records = run(MethodId.NEWTON_ARCSINE, sched, ctx)
        assert [r.n for r in itertools.islice(records, 3)] == [0, 1, 2]


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
        assert len(list(cfg.schedule)) == 21
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

    def test_context_built_once(self):
        cfg = parse_args(["run", "--method", "wallis", "--schedule", "5:100:5,1000"])
        assert cfg.ctx == PrecisionCtx(15, default_guard(1000))
        cfg = parse_args(["compare", "--methods", "newton,zeta8", "--dp", "20"])
        assert cfg.ctx == PrecisionCtx(20, default_guard(100))
        assert parse_args(["table", "--id", "1"]).ctx is None

    @pytest.mark.parametrize("command", [
        ["run", "--method", "wallis", "--schedule", "5"],
        ["compare", "--methods", "newton,zeta8"],
    ], ids=["run", "compare"])
    def test_bad_precision_exits_before_out_is_opened(self, command, tmp_path, capsys):
        # PrecisionCtx's own rule, reported as a usage error.
        path = tmp_path / "x.csv"
        assert main([*command, "--dp", "0", "--out", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "pibench: bad --dp 0: working_dp must be >= 1\n"
        assert not path.exists()


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
        ["run", "--method", "wallis", "--schedule", "5", "--reference", "3.14159265358979"],
        ["run", "--method", "wallis", "--schedule", "5", "--guard", "0"],
        ["compare", "--methods", "newton,zeta8", "--guard", "3"],
    ])
    def test_bad_input_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("pibench: ")
        assert len(captured.err.splitlines()) == 1

    def test_reference_integrity_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(harness, "_atan_inv", lambda x, one: one // x)
        rc = main(["run", "--method", "wallis", "--schedule", "5"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("pibench: reference integrity: computed reference")
        assert len(captured.err.splitlines()) == 1

    def test_internal_error_exit_4(self, capsys, monkeypatch):
        # A fault in pibench itself is not a usage error: it exits 4, with
        # its traceback on stderr and nothing on stdout.
        def broken(*args):
            raise RuntimeError("row kernel broken")

        monkeypatch.setattr(harness, "_csv_rows", broken)
        rc = main(["run", "--method", "wallis", "--schedule", "5", "--format", "csv"])
        assert rc == cli.EXIT_INTERNAL == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("Traceback (most recent call last):\n")
        assert captured.err.endswith("RuntimeError: row kernel broken\n")

    def test_run_csv(self, capsys):
        assert main(["run", "--method", "wallis", "--schedule", "5,10",
                     "--dp", "15", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER
        rows = [ln.split(",") for ln in lines[1:]]
        assert [row[1] for row in rows] == ["5", "10"]
        assert rows[0][2] == "3.002175954556907"

    @pytest.mark.parametrize("method, n, dp, exact", [
        ("newton", 1, 40, 6 * (Fraction(1, 2) + Fraction(1, 48))),
        ("wallis", 1000, 30, 2 * math.prod(Fraction(4 * k * k, 4 * k * k - 1)
                                           for k in range(1, 1001))),
    ], ids=["newton-1", "wallis-1000"])
    def test_run_prints_the_rounded_approximant(self, method, n, dp, exact, capsys):
        # With the guard derived from the schedule, the printed value is the
        # exact approximant rounded half-even.
        assert main(["run", "--method", method, "--schedule", str(n),
                     "--dp", str(dp), "--format", "csv"]) == 0
        value = capsys.readouterr().out.splitlines()[1].split(",")[2]
        assert value == fx_to_string(BigFixed(round(exact * 10 ** dp), dp), dp)

    @pytest.mark.parametrize("method, oracle", [("wallis", wallis_mp), ("leibniz", leibniz_mp)])
    def test_run_jumps_to_a_billion(self, method, oracle, monkeypatch, capsys):
        # Stepping to n = 10^9 would take minutes. The row is printed from
        # the certified closed form, and its cells are the oracle's.
        cls = WallisState if method == "wallis" else LeibnizState
        real_advance = cls.advance_to

        def advance_to(state, n):
            assert n < 1000, f"stepped to {n}"
            real_advance(state, n)

        monkeypatch.setattr(cls, "advance_to", advance_to)
        assert main(["run", "--method", method, "--schedule", "1000000000",
                     "--dp", "15", "--format", "csv"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[2] == mp_string(lambda: oracle(10 ** 9), 15)
        assert row[4] == mp_string(lambda: pct_err_mp(oracle(10 ** 9)), 5)

    @pytest.mark.parametrize("dp", [1, 4, 7, 300, 1000])
    @pytest.mark.parametrize("method, oracle", [("wallis", wallis_mp), ("leibniz", leibniz_mp)])
    def test_run_jumps_to_10_18_at_few_digits(self, method, oracle, dp, monkeypatch, capsys):
        # At --dp 7 or less the enclosure at n = 10^18 holds pi itself; its
        # rows still agree, so the row jumps rather than stepping for ever.
        # At any --dp the only steps are the closed form's check at its
        # anchor, 2 (scale + 10) and one past it.
        cls = WallisState if method == "wallis" else LeibnizState
        real_advance = cls.advance_to

        def advance_to(state, n):
            assert n <= 2 * (state.ctx.scale + 10) + 1, f"stepped to {n}"
            real_advance(state, n)

        monkeypatch.setattr(cls, "advance_to", advance_to)
        assert main(["run", "--method", method, "--schedule", str(10 ** 18),
                     "--dp", str(dp), "--format", "csv"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[2] == mp_string(lambda: oracle(10 ** 18), dp, dps=dp + 40)
        # Both are within 10^-18 of pi, whose 18th decimal is 8: they agree
        # with it in 17 decimals (pi = 3.14159265358979323846...).
        assert row[3:6] == ["0.00000", "0.00000", str(min(dp, 17))]

    def test_run_below_13_dp(self, capsys):
        assert main(["run", "--method", "wallis", "--schedule", "5",
                     "--dp", "12", "--format", "csv"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[2] == "3.002175954557"

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="Python before 3.10.7 converts ints of any size")
    @pytest.mark.parametrize("fmt", ["csv", "md", "plot"])
    @pytest.mark.parametrize("command", [["run", "--method", "newton"],
                                         ["compare", "--methods", "newton,leibniz"]],
                             ids=["run", "compare"])
    def test_largest_dp_is_the_int_to_string_limit(self, command, fmt, capsys):
        # A value cell prints --dp digits of one int, so up to this
        # Python's limit (lowered here to 640, the least it may be) --dp
        # prints its rows, and one more is a usage error naming the limit.
        argv = [*command, "--schedule", "1:3:1", "--format", fmt, "--dp"]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            at_limit, printed = main([*argv, "640"]), capsys.readouterr()
            above, refused = main([*argv, "641"]), capsys.readouterr()
        finally:
            sys.set_int_max_str_digits(limit)
        assert (at_limit, printed.err) == (0, "")
        values = re.findall(r"(?<![\d.])\d\.\d{640}(?!\d)", printed.out)
        assert len(values) == 3 * len(command[2].split(","))
        assert (above, refused.out) == (1, "")
        assert refused.err == ("pibench: bad --dp 641: more than 640 digits, the limit of this"
                               " Python's int-to-string conversion"
                               " (sys.get_int_max_str_digits())\n")

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

    @pytest.mark.parametrize("fmt", ["md", "csv", "plot"])
    def test_crossings_inside_a_block_are_compare_s(self, fmt, capsys):
        # Rows are computed a block (harness.ROW_BLOCK) ahead of the
        # writer, and crossings are filled as rows are computed: the
        # crossing lines are still the library compare()'s, among them
        # crossings that fall inside a block.
        thresholds = "1,0.5,0.001,1e-9"
        assert main(["compare", "--methods", "leibniz,newton", "--schedule", "1:80:1",
                     "--thresholds", thresholds, "--format", fmt]) == 0
        printed = [ln for ln in capsys.readouterr().out.splitlines() if "%: " in ln]
        runs, crossings = harness.compare(
            [MethodId.LEIBNIZ, MethodId.NEWTON_ARCSINE], Schedule(range(1, 81)),
            PrecisionCtx(15, default_guard(80)),
            tuple(map(parse_decimal_exp, thresholds.split(","))))
        for records in runs.values():
            for _ in records:
                pass
        assert printed == _crossing_lines(crossings)
        crossed = [n for pairs in crossings.values() for _, n in pairs if n is not None]
        assert any(n % ROW_BLOCK not in (0, 1) for n in crossed), crossed

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

        def no_rows(*args, **kwargs):
            pytest.fail("a method ran although --out cannot be written")

        monkeypatch.setattr(harness, "_csv_rows", no_rows)
        path = tmp_path / "missing" / "x.csv"
        assert main(["run", "--method", "wallis", "--schedule", "5",
                     "--format", "csv", "--out", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"pibench: cannot write {path}")
        assert len(captured.err.splitlines()) == 1

    def test_reference_failure_leaves_out_alone(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "_atan_inv", lambda x, one: one // x)
        for command in (["run", "--method", "wallis", "--schedule", "5"],
                        ["compare", "--methods", "newton,zeta8", "--schedule", "1:5:1"],
                        ["table", "--id", "4"]):
            kept, fresh = tmp_path / "kept.out", tmp_path / "fresh.out"
            kept.write_text("earlier output\n")
            for path in (kept, fresh):
                assert main([*command, "--out", str(path)]) == 2
            assert kept.read_text() == "earlier output\n"
            assert not fresh.exists()
        capsys.readouterr()

    @pytest.mark.parametrize("args", [
        ["--methods", "newton"],
        ["--methods", "newton,zeta8,newton"],
        ["--methods", "newton,zeta8", "--thresholds", "1,0"],
        ["--methods", "newton,zeta8", "--thresholds", "1e-8,1e-3"],
        ["--methods", "leibniz,viete", "--schedule", "0:10:1"],
    ], ids=["one-method", "repeated", "not-positive", "not-decreasing", "first-index"])
    def test_compare_usage_error_leaves_out_alone(self, args, tmp_path, capsys):
        kept, fresh = tmp_path / "kept.md", tmp_path / "fresh.md"
        kept.write_text("earlier output\n")
        for path in (kept, fresh):
            assert main(["compare", *args, "--out", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("pibench: ")
            assert len(captured.err.splitlines()) == 1
        assert kept.read_text() == "earlier output\n"
        assert not fresh.exists()

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="Python before 3.10.7 converts ints of any size")
    @pytest.mark.parametrize("threshold", ["1e5000", "1e999999999", "1e-999999999"])
    def test_threshold_past_the_int_to_string_limit(self, threshold, tmp_path, capsys):
        # A crossing line prints its threshold in full, so its digits after
        # the point and in its significand are held to --dp's limit, before
        # 10**999999999 is built or the output opened.
        out = tmp_path / "out.csv"
        started = time.perf_counter()
        code = main(["compare", "--methods", "leibniz,newton", "--schedule", "1:3:1",
                     "--thresholds", threshold, "--out", str(out)])
        assert time.perf_counter() - started < 1
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        limit = sys.get_int_max_str_digits()
        assert captured.err == (f"pibench: bad threshold {threshold!r}: more than {limit}"
                                " digits, the limit of this Python's int-to-string"
                                " conversion (sys.get_int_max_str_digits())\n")
        assert not out.exists()

    def test_bad_method_fails_before_any_step(self, monkeypatch, capsys):
        # A 10^9-point compare whose second method is not defined at n = 0
        # fails at once, on the library's check: no method steps.
        def no_state(*args):
            pytest.fail("a method state was built")

        monkeypatch.setattr(harness, "make_state", no_state)
        monkeypatch.setattr(ApproximantState, "__init__", no_state)
        assert main(["compare", "--methods", "leibniz,viete",
                     "--schedule", "0:1000000000:1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "pibench: viete is defined for n >= 1\n"

    def test_csv_run_memory_is_bounded(self, tmp_path, monkeypatch):
        # A CSV run writes each record as it is computed and keeps none, and
        # its schedule stays a range, so its peak does not grow with the
        # points (it grew by 78 B a point while the schedule was expanded,
        # and by about 0.8 kB while every record was kept). Both paths are
        # held to it; on the split one tracemalloc sees only the parent,
        # which reads the child's spilled half back a line at a time.
        def argv(n):
            return ["run", "--method", "leibniz", "--schedule", f"1:{n}:1",
                    "--format", "csv", "--out", str(tmp_path / "x.csv")]

        for split in _PATHS:
            _take_path(monkeypatch, split)
            peaks = _traced_peaks(argv, (5_000, 50_000))
            assert (peaks[50_000] - peaks[5_000]) / 45_000 < 8, (split, peaks)

    @pytest.mark.parametrize("command", [
        ["run", "--method", "newton", "--format", "md"],
        ["run", "--method", "newton", "--format", "plot"],
        ["compare", "--methods", "newton,viete", "--format", "md"],
        ["compare", "--methods", "newton,viete", "--format", "csv"],
        ["compare", "--methods", "newton,viete", "--format", "plot"],
    ], ids=["run-md", "run-plot", "compare-md", "compare-csv", "compare-plot"])
    def test_streamed_memory_is_bounded(self, command, tmp_path, monkeypatch):
        # Every other format of run and compare is written as it is
        # computed too; these grew by 0.6-2.1 kB a point while every record
        # was kept. Past n = 48 the Newton and Viete registers no longer
        # change, so a point costs only its value and metrics. On the split
        # path tracemalloc sees only the parent.
        def argv(n):
            return [*command, "--schedule", f"100:{99 + n}:1",
                    "--out", str(tmp_path / "x.out")]

        for split in _PATHS:
            _take_path(monkeypatch, split)
            peaks = _traced_peaks(argv, (1_000, 3_000))
            assert (peaks[3_000] - peaks[1_000]) / 2_000 < 8, (split, peaks)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ["table", "--id", "4"],
        ["run", "--method", "newton", "--schedule", "0:2000:1", "--format", "md"],
    ], ids=["table", "run-streamed"])
    def test_full_disk_exit_5(self, argv, capsys):
        # A write that fails, at once or after part of the output has gone
        # out, is one line on stderr and its own exit code.
        assert main([*argv, "--out", "/dev/full"]) == cli.EXIT_OUTPUT == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"pibench: cannot write output: {os.strerror(errno.ENOSPC)}\n"
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_exit_5(self):
        # Stdout is flushed inside main, so its write error is reported
        # there, and not again when the interpreter exits.
        src = Path(pibench.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        argv = [sys.executable, "-m", "pibench.cli", "compare",
                "--methods", "newton,zeta8", "--schedule", "1:30:1"]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE,
                                  env=env, timeout=60)
        assert proc.returncode == 5
        assert proc.stderr.decode() == (
            f"pibench: cannot write output: {os.strerror(errno.ENOSPC)}\n"
        )

    def test_reader_closing_the_pipe_early(self, tmp_path):
        # `pibench run ... | head`: the closed pipe ends the run with the
        # documented code, and no traceback.
        src = Path(pibench.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        argv = [sys.executable, "-m", "pibench.cli", "run", "--method", "newton",
                "--schedule", "0:1000000000:1", "--format", "csv"]
        with open(tmp_path / "stderr", "wb") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
            try:
                head = [proc.stdout.readline() for _ in range(4)]
                proc.stdout.close()
                code = proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        assert head[0] == (CSV_HEADER + "\n").encode()
        assert [line.split(b",")[1] for line in head[1:]] == [b"0", b"1", b"2"]
        assert code == EXIT_BROKEN_PIPE == 141
        assert (tmp_path / "stderr").read_bytes() == b""


def _without_elapsed(out: str) -> str:
    """out with the last field of each CSV row, elapsed_ns, cut off. The
    other lines of every format have no comma."""
    return "".join(ln.rsplit(",", 1)[0].rstrip("\n") + "\n"
                   for ln in out.splitlines(keepends=True))


@pytest.fixture
def forks(monkeypatch):
    """Split every one-range run and compare schedule of two or more
    points; the list gets one item a fork."""
    counted = []
    real_fork = os.fork

    def counted_fork():
        counted.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    _take_path(monkeypatch, True)
    return counted


# Thresholds crossed in the first half (newton, viete), in the second
# (viete at n = 43; the split is after n = 30) and never (newton).
COMPARE_SPLIT = ["--schedule", "1:60:1", "--thresholds", "1,1e-16,1e-30"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestSplit:
    @pytest.mark.parametrize("fmt", ["csv", "md", "plot"])
    @pytest.mark.parametrize("command", [
        ["run", "--method", "leibniz", "--schedule", "0:300:1"],
        ["compare", "--methods", "newton,viete", *COMPARE_SPLIT],
        # md takes the methods sorted, the child in the given order
        ["compare", "--methods", "viete,newton", *COMPARE_SPLIT],
        # every row jumps, so neither half steps Wallis past n = 2w + 1
        ["run", "--method", "wallis", "--schedule", "1000:2000000:1000"],
    ], ids=["run", "compare", "compare-reversed", "run-jumps"])
    def test_split_equals_serial(self, command, fmt, forks, monkeypatch, capsys):
        argv = [*command, "--format", fmt]
        assert main(argv) == 0
        split = capsys.readouterr().out
        assert len(forks) == 1
        monkeypatch.setattr(forked, "can_fork", lambda: False)
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert len(forks) == 1
        assert _without_elapsed(split) == _without_elapsed(serial)
        if command[0] == "compare":
            assert "# viete < 0.000000000000000000000000000001%: 43\n" in split
            assert "# newton < 0.000000000000000000000000000001%: not reached\n" in split

    @pytest.mark.parametrize("fmt", ["csv", "md"])
    @pytest.mark.parametrize("points", [6 * ROW_BLOCK - 1, 6 * ROW_BLOCK + 2])
    def test_split_off_a_block_end_equals_serial(self, points, fmt, forks, monkeypatch,
                                                 capsys):
        # A half that is not a whole number of blocks (harness.ROW_BLOCK):
        # the child's rows, and Leibniz's crossing of 0.5% inside the
        # child's first block, are the serial run's.
        head, tail = Schedule(range(1, points + 1)).halves(2)
        assert head.max_n % ROW_BLOCK or (tail.max_n - head.max_n) % ROW_BLOCK
        argv = ["compare", "--methods", "leibniz,newton", "--schedule", f"1:{points}:1",
                "--thresholds", "1,0.5", "--format", fmt]
        assert main(argv) == 0
        split = capsys.readouterr().out
        assert len(forks) == 1
        monkeypatch.setattr(forked, "can_fork", lambda: False)
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert len(forks) == 1
        assert _without_elapsed(split) == _without_elapsed(serial)
        assert tail.first < 63 < tail.first + ROW_BLOCK - 1
        assert "# leibniz < 0.5%: 63\n" in split

    def test_elapsed_continues_across_the_split(self, forks, capsys):
        # The child's rows continue from the parent's last elapsed_ns.
        assert main(["compare", "--methods", "leibniz,newton", "--schedule", "1:2000:1",
                     "--format", "csv"]) == 0
        rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]
                if not ln.startswith("#")]
        assert len(forks) == 1
        for method in ("leibniz", "newton"):
            elapsed = [int(row[6]) for row in rows if row[0] == method]
            assert len(elapsed) == 2000
            assert elapsed == sorted(elapsed), method

    def test_catch_up_is_outside_the_clock(self, forks, monkeypatch, capsys):
        # Both halves step from n = 0 to 200,000 before their first row;
        # only the parent's clock counts it. The child's first row then
        # adds one step to the parent's last, not another 200,000. No row
        # jumps (harness.JUMP_MIN), so that both halves step.
        monkeypatch.setattr(harness, "JUMP_MIN", 10 ** 9)
        assert main(["run", "--method", "leibniz", "--schedule", "200000:200003:1",
                     "--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        elapsed = [int(row.rsplit(",", 1)[1]) for row in rows]
        assert len(forks) == 1
        assert elapsed[2] - elapsed[1] < elapsed[0] / 10, elapsed

    @pytest.mark.parametrize("points, caught_up", [
        (range(1000, 2_000_001, 1000), False),  # every row jumps
        (range(1, 2001), True),  # every row steps
        # Dense but far out: 1000 jumps cost less than 10^7 steps.
        (range(10 ** 7, 10 ** 7 + 2000), False),
    ], ids=["jumps", "steps", "dense-far-out"])
    def test_child_steps_only_a_chain_it_steps(self, points, caught_up, monkeypatch):
        # The child advances a fresh state to the parent's last point only
        # when the tail's rows would step from there and that costs less
        # than jumping them all; either way its rows are the serial run's.
        targets = []
        real_advance = WallisState.advance_to

        def advance_to(state, target):
            targets.append(target)
            real_advance(state, target)

        monkeypatch.setattr(WallisState, "advance_to", advance_to)
        head, tail = Schedule(points).halves(2)
        ctx = PrecisionCtx(15, default_guard(points[-1]))
        ref = harness.reference_pi(ctx)
        spill = io.StringIO()
        done = list(harness._second_half({MethodId.WALLIS: spill}, head.max_n, tail, ref, []))
        assert done == [["wallis", []]]
        assert (head.max_n in targets) is caught_up
        # Jumps step only to the anchor where a context's closed form is
        # checked once, 2w + 1 for w = scale + 10.
        assert (max(targets, default=0) > 2 * (ctx.scale + 10) + 1) is caught_up
        serial = harness._csv_rows(WallisState(ctx), Schedule(points), ref)
        expected = [row for row in serial if int(row.split(",")[1]) > head.max_n]
        assert _without_elapsed(spill.getvalue()) == _without_elapsed("".join(expected))

    @pytest.mark.parametrize("schedule", ["1:50:1,100:1000:100", "7"])
    def test_only_a_range_of_two_points_or_more_splits(self, schedule, forks, capsys):
        assert main(["compare", "--methods", "leibniz,newton", "--schedule", schedule,
                     "--format", "csv"]) == 0
        capsys.readouterr()
        assert forks == []

    def test_below_the_split_points_runs_serially(self, forks, monkeypatch, capsys):
        monkeypatch.setattr(harness, "SPLIT_MIN_POINTS", 301)
        assert main(["run", "--method", "leibniz", "--schedule", "0:299:1"]) == 0
        assert forks == []
        assert main(["run", "--method", "leibniz", "--schedule", "0:300:1"]) == 0
        assert len(forks) == 1
        capsys.readouterr()

    def test_child_failure_exit_4(self, forks, monkeypatch, capsys):
        def broken(*args):
            raise MemoryError

        monkeypatch.setattr(harness, "_second_half", broken)
        assert main(["run", "--method", "leibniz", "--schedule", "0:300:1",
                     "--format", "csv"]) == cli.EXIT_INTERNAL == 4
        out, err = capsys.readouterr()
        assert out.startswith(CSV_HEADER + "\n")  # the parent's half may be out
        assert err == ("pibench: the second half of the schedule failed in its"
                       " child process: MemoryError\n")
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_closed_stdout_exit_141_leaves_no_child(self, forks, monkeypatch, capsys):
        # The reader has gone before the first row: the parent's first
        # flush fails, and the child, still computing, is killed and reaped.
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        with open(write_fd, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            code = main(["run", "--method", "leibniz", "--schedule", "0:100000:1",
                         "--format", "csv"])
            monkeypatch.setattr(sys, "stdout", sys.__stdout__)
        assert code == EXIT_BROKEN_PIPE == 141
        assert capsys.readouterr().err == ""
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("command", [
    ["run", "--method", "leibniz", "--schedule", "0:300:1"],
    ["compare", "--methods", "newton,viete", *COMPARE_SPLIT],
], ids=["run", "compare"])
def test_failed_fork_exit_4(command, monkeypatch, capsys):
    # No process can be started: one line and exit 4, before any output,
    # and the pipe opened for the child is closed.
    fds = _failing_fork(monkeypatch)
    _take_path(monkeypatch, True)
    assert main([*command, "--format", "csv"]) == cli.EXIT_INTERNAL == 4
    assert capsys.readouterr() == ("", (
        "pibench: the second half of the schedule could not start its child"
        f" process: {os.strerror(errno.EAGAIN)}\n"))
    _assert_closed(fds)


@pytest.mark.parametrize("command", [
    ["run", "--method", "leibniz", "--schedule", "0:300:1"],
    ["compare", "--methods", "newton,viete", *COMPARE_SPLIT],
], ids=["run", "compare"])
def test_failed_pipe_exit_4(command, tmp_path, monkeypatch, capsys):
    # No fd is left for the child's pipe: one line and exit 4, and the
    # spill files opened before it are closed.
    _take_path(monkeypatch, True)
    monkeypatch.setattr(os, "pipe", _no_fds)
    before = _open_fds()
    out = tmp_path / "out.csv"
    assert main([*command, "--format", "csv", "--out", str(out)]) == cli.EXIT_INTERNAL == 4
    assert capsys.readouterr() == ("", (
        "pibench: the second half of the schedule could not start its child"
        f" process: {os.strerror(errno.EMFILE)}\n"))
    assert _open_fds() == before
    assert out.read_text() == ""


@pytest.mark.parametrize("command, spills", [
    (["run", "--method", "leibniz", "--schedule", "0:300:1"], 1),
    (["compare", "--methods", "newton,viete", *COMPARE_SPLIT], 2),
], ids=["run", "compare"])
def test_failed_spill_exit_4(command, spills, monkeypatch, capsys):
    # The last method's spill file cannot be opened: one line and exit 4,
    # no child started, and the spill files opened before it are closed.
    import tempfile

    real_file = tempfile.TemporaryFile
    opened = []

    def temporary_file(*args, **kwargs):
        if len(opened) + 1 == spills:
            _no_fds()
        opened.append(real_file(*args, **kwargs))
        return opened[-1]

    def no_fork():
        pytest.fail("a child was started without its spill files")

    _take_path(monkeypatch, True)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
    before = _open_fds()
    assert main([*command, "--format", "csv"]) == cli.EXIT_INTERNAL == 4
    assert capsys.readouterr() == ("", (
        "pibench: the second half of the schedule could not start its child"
        f" process: {os.strerror(errno.EMFILE)}\n"))
    assert len(opened) == spills - 1 and all(f.closed for f in opened)
    assert _open_fds() == before


@pytest.mark.parametrize("stdout, code", [
    ("closed pipe", EXIT_BROKEN_PIPE),
    pytest.param("/dev/full", cli.EXIT_OUTPUT, marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="needs /dev/full")),
], ids=["closed-pipe", "full-disk"])
def test_failed_stdout_leaves_no_fd_open(stdout, code, monkeypatch, capsys):
    # Stdout is pointed at devnull, so that the flush at exit does not fail
    # again, and the fd opened on devnull for that is closed.
    if stdout == "closed pipe":
        read_fd, fd = os.pipe()
        os.close(read_fd)
    else:
        fd = os.open(stdout, os.O_WRONLY)
    with open(fd, "w") as stream:
        monkeypatch.setattr(sys, "stdout", stream)
        before = _open_fds()
        assert main(["run", "--method", "leibniz", "--schedule", "0:100:1",
                     "--format", "csv"]) == code
        after = _open_fds()
        monkeypatch.setattr(sys, "stdout", sys.__stdout__)
    assert after == before


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("blocker", ["one-cpu", "thread"])
def test_no_child_on_one_cpu_or_beside_a_thread(blocker, monkeypatch, capsys):
    # A 4,096-point run splits where a forked child can run beside this
    # process. With one usable CPU, or while another thread runs, it starts
    # no child and prints the serial bytes.
    if blocker == "one-cpu" and not hasattr(os, "sched_setaffinity"):
        pytest.skip("needs os.sched_setaffinity")
    argv = ["run", "--method", "leibniz", "--schedule", "1:4096:1", "--format", "csv"]
    assert Schedule(range(1, 4097)).halves(harness.SPLIT_MIN_POINTS)
    with monkeypatch.context() as serial_only:
        serial_only.setattr(forked, "can_fork", lambda: False)
        assert main(argv) == 0
    serial = capsys.readouterr().out
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a child was started"))
    with contextlib.ExitStack() as stack:
        if blocker == "one-cpu":
            cpus = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(cpus)})
            stack.callback(os.sched_setaffinity, 0, cpus)
        else:
            stop = threading.Event()
            thread = threading.Thread(target=stop.wait)
            thread.start()
            stack.callback(thread.join, 10)
            stack.callback(stop.set)
        assert main(argv) == 0
    assert blocker == "one-cpu" or not thread.is_alive()
    assert _without_elapsed(capsys.readouterr().out) == _without_elapsed(serial)
    assert len(serial.splitlines()) == 4097


def _no_fds(*args):
    raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))


def _open_fds() -> set:
    """This process's open fds, where the system lists them."""
    path = "/proc/self/fd"
    return set(os.listdir(path)) if os.path.isdir(path) else set()


def _failing_fork(monkeypatch) -> list:
    """Make os.fork fail as it does when no process can be started, and
    start none; the list gets each fd os.pipe opens."""
    fds = []
    real_pipe = os.pipe

    def pipe():
        fds.extend(real_pipe())
        return tuple(fds[-2:])

    def fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork, raising=False)
    return fds


def _assert_closed(fds: list) -> None:
    assert fds
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)


class TestForkRule:
    def test_needs_two_cpus(self, monkeypatch):
        for cpus, expected in ((1, False), (2, hasattr(os, "fork"))):
            monkeypatch.setattr(forked, "usable_cpus", lambda: cpus)
            assert forked.can_fork() is expected

    def test_needs_one_thread_and_os_fork(self, monkeypatch):
        monkeypatch.setattr(forked, "usable_cpus", lambda: 2)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert forked.can_fork() is False
        finally:
            stop.set()
            thread.join(timeout=10)
        monkeypatch.delattr(os, "fork", raising=False)
        assert forked.can_fork() is False

    def test_usable_cpus_reads_the_affinity(self):
        if hasattr(os, "sched_getaffinity"):
            assert forked.usable_cpus() == len(os.sched_getaffinity(0))
        assert forked.usable_cpus() >= 1


# The serial path, and the split one where os.fork exists.
_PATHS = (False, True) if hasattr(os, "fork") else (False,)


def _take_path(monkeypatch, split: bool) -> None:
    """Make run and compare split every one-range schedule of two or more
    points, or none. A split child stops tracemalloc, which would only slow
    it: a traced peak is the parent's."""
    monkeypatch.setattr(forked, "can_fork", lambda: split)
    monkeypatch.setattr(harness, "SPLIT_MIN_POINTS", 2)
    second_half = harness._second_half

    def untraced_second_half(*args):
        tracemalloc.stop()
        return second_half(*args)

    monkeypatch.setattr(harness, "_second_half", untraced_second_half)


def _traced_peaks(argv, sizes) -> dict:
    """n -> the traced peak of main(argv(n)), for each n in sizes. A first
    small run takes the one-time allocations out of the comparison."""
    assert main(argv(10)) == 0
    peaks = {}
    for n in sizes:
        tracemalloc.start()
        try:
            assert main(argv(n)) == 0
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


@pytest.fixture
def small_selftest(monkeypatch):
    """Shrink Tables 1-3 to n <= 100, so a full selftest takes milliseconds.
    Their guard follows the schedule, so it falls from 17 to 12 digits."""
    from pibench.harness import TABLE_PRESETS, Schedule

    goldens.load.cache_clear()
    data = goldens.load()
    small = Schedule(tuple(range(5, 101, 5)))
    for tid in (1, 2, 3):
        preset = TABLE_PRESETS[tid]._replace(schedule=small)
        monkeypatch.setitem(TABLE_PRESETS, tid, preset)
        rows = [r for r in data[str(tid)]["rows"] if r["n"] <= 100]
        monkeypatch.setitem(data[str(tid)], "rows", rows)
    yield
    goldens.load.cache_clear()


# The shrunk selftest's report text: 101 divergent cells.
SMALL_SELFTEST_SHA256 = "094b7159c2c30e33dc06abbc42c4d49880860f41d8089adcff0ae10551ec0776"


class TestSelftestCommand:
    def test_selftest_quick_paths(self, small_selftest):
        report = goldens.selftest()
        assert (report.ok, report.expected_divergent, report.mismatches) == (True, 101, 0)
        digest = hashlib.sha256(report.text().encode()).hexdigest()
        assert digest == SMALL_SELFTEST_SHA256

    def test_never_forks(self, monkeypatch, capsys):
        # The full selftest audits every table in this process, with two
        # CPUs usable too: it opens no pipe and starts no child.
        def no_fork():
            pytest.fail("selftest forked")

        monkeypatch.setattr(os, "fork", no_fork, raising=False)
        monkeypatch.setattr(os, "pipe", _no_fds)
        monkeypatch.setattr(forked, "usable_cpus", lambda: 2)
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SELFTEST
        assert out.endswith("selftest: 111 expected-divergent cells, 0 failures\n")

    def test_tables_1_and_2_step_only_to_n_100(self, monkeypatch):
        # Their rows from n = 1000 to 10^7 are printed from certified closed
        # forms; only the rows to n = 100, and the anchors where each
        # context checks its closed forms (n <= 85 at scale 32), step.
        targets = []
        for cls in (WallisState, LeibnizState):
            def advance_to(state, n, real=cls.advance_to):
                targets.append(n)
                real(state, n)

            monkeypatch.setattr(cls, "advance_to", advance_to)
        for tid in (1, 2):
            _, _, bad = goldens._audit_table(tid, goldens.load()[str(tid)])
            assert bad == 0
        assert 100 in targets and max(targets) == 100

    def test_one_cpu_runs_in_one_process(self, small_selftest, monkeypatch):
        def no_fork():
            pytest.fail("selftest forked with one usable CPU")

        monkeypatch.setattr(os, "fork", no_fork, raising=False)
        monkeypatch.setattr(forked, "usable_cpus", lambda: 1)
        report = goldens.selftest()
        assert hashlib.sha256(report.text().encode()).hexdigest() == SMALL_SELFTEST_SHA256

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
        report = SelftestReport(lines, 0, 1)
        monkeypatch.setattr(cli, "selftest", lambda: report)
        assert main(["selftest"]) == cli.EXIT_MISMATCH == 3
        assert capsys.readouterr().out == report.text()

    def test_changed_cells_are_mismatches(self, small_selftest, monkeypatch, capsys):
        # A published string that no longer matches, and a divergent cell
        # whose frozen recomputation no longer matches, in the real audit.
        rows = {r["n"]: r for r in goldens.load()["1"]["rows"]}
        monkeypatch.setitem(rows[5]["values"], "wallis", "3.002175954556900")
        flag = rows[15]["flags"]["wallis"]
        monkeypatch.setitem(flag, "recomputed_value", "3.091336888596221")
        report = goldens.selftest()
        assert [ln for ln in report.lines if ln.startswith("MISMATCH")] == [
            "MISMATCH table 1 n=5 value: computed=3.002175954556907"
            " published=3.002175954556900",
            "MISMATCH table 1 n=15 value: computed=3.091336888596220 differs from"
            " frozen recomputation 3.091336888596221 (published=3.091336888596228)",
        ]
        assert (report.ok, report.expected_divergent, report.mismatches) == (False, 101, 2)
        assert main(["selftest"]) == cli.EXIT_MISMATCH
        assert capsys.readouterr().out == report.text()

    def test_audit_checks_the_printed_cells(self, small_selftest, monkeypatch, capsys):
        # The audit reads its cells from the CSV rows that table prints, so
        # a row printed wrong is a mismatch although the value is right.
        real_rows = harness._csv_rows

        def csv_rows(*args):
            for line in real_rows(*args):
                if line.startswith("wallis,5,"):
                    line = line.replace(",3.002175954556907,", ",3.002175954556908,")
                yield line

        monkeypatch.setattr(harness, "_csv_rows", csv_rows)
        assert main(["table", "--id", "1"]) == 0
        assert "| 5 | 3.002175954556908 |" in capsys.readouterr().out
        assert main(["selftest"]) == cli.EXIT_MISMATCH == 3
        lines = capsys.readouterr().out.splitlines()
        assert [ln for ln in lines if ln.startswith("MISMATCH")] == [
            "MISMATCH table 1 n=5 value: computed=3.002175954556908"
            " published=3.002175954556907",
        ]
        assert lines[-1] == "selftest: 101 expected-divergent cells, 1 failures"

    def test_sqrt_two_units_high_fails_every_radicand(self, monkeypatch):
        assert goldens._quick_invariants() == []
        real_sqrt = goldens.fx_sqrt

        def high_sqrt(x, ctx):
            return BigFixed(real_sqrt(x, ctx).significand + 2, ctx.scale)

        monkeypatch.setattr(goldens, "fx_sqrt", high_sqrt)
        assert goldens._quick_invariants() == [
            f"INVARIANT FAIL: sqrt ulp bound violated for {sig}"
            for sig in (2, 3, 5, 7, 10, 123456789)
        ]

    def test_broken_continued_fraction_exits_3(self, small_selftest, monkeypatch, capsys):
        real_pair = goldens.euler_cf_pair

        def plus_one(d):  # the convergent + 1
            num, den = real_pair(d)
            return num + den, den

        monkeypatch.setattr(goldens, "euler_cf_pair", plus_one)
        line = "INVARIANT FAIL: continued fraction != series partial sum at d=1"
        assert goldens._quick_invariants() == [line]
        assert main(["selftest"]) == cli.EXIT_MISMATCH
        assert capsys.readouterr().out.endswith(
            f"{line}\nselftest: 101 expected-divergent cells, 1 failures\n"
        )

    def test_threads_option_is_gone(self, capsys):
        assert main(["selftest", "--threads", "2"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


def _crossing_lines(crossings: dict) -> list:
    """The lines `compare` prints for the crossings of the library's
    compare(), without their newlines."""
    return [f"# {m.value} < {fx_to_string(t, t.scale)}%: {'not reached' if n is None else n}"
            for m, pairs in crossings.items() for t, n in pairs]


# Far n only where every method gets there without stepping through it:
# Wallis and Leibniz jump, and Newton's and Viete's registers stop
# changing, after about 1.5 and 1.66 steps a digit. The largest --dp for
# each: Viete's steps take a square root each, 0.14 s in all at 1,000
# digits, 0.9 s at 2,000.
_FAR_DP = {"wallis": 5000, "leibniz": 5000, "newton": 5000, "viete": 1000}
_ORACLE_MAX_N = 400  # the library oracle steps every n


@st.composite
def _command_lines(draw):
    """argv for main(): run, compare or table; a method list (one, several
    or a pairing's name), a schedule of one or more items, --dp from 1 to
    5,000, thresholds and format, valid or not. Far n (up to 10^18) only
    where every method reaches it without stepping (_FAR_DP)."""
    command = draw(st.sampled_from(["run", "compare", "compare", "table"]))
    if command == "table":
        return ["table", "--id", str(draw(st.integers(0, 8)))]
    dp = draw(st.one_of(st.integers(1, 40), st.integers(1, 5000)))
    names = [m.value for m in MethodId]
    kind = "one" if command == "run" else draw(
        st.sampled_from(["pairing", "several", "several", "one or twice"]))
    if kind == "pairing":
        methods = draw(st.sampled_from(sorted(PAIRINGS)))
        chosen = [m.value for m in PAIRINGS[methods]]
    else:
        chosen = draw(st.lists(st.sampled_from(names), unique=kind == "several",
                               min_size=2 if kind == "several" else 1,
                               max_size={"one": 1, "several": 3, "one or twice": 2}[kind]))
        methods = ",".join(chosen)
    start = draw(st.integers(0, 5))
    step = draw(st.integers(1, 5))
    items = [f"{start}:{start + step * draw(st.integers(0, 25))}:{step}"]
    items += map(str, draw(st.lists(st.integers(0, _ORACLE_MAX_N), max_size=3)))
    if all(dp <= _FAR_DP.get(m, 0) for m in chosen):
        items += map(str, draw(st.lists(st.integers(10 ** 6, 10 ** 18), max_size=2)))
    argv = [command, "--methods" if command == "compare" else "--method", methods,
            "--schedule", ",".join(items), "--dp", str(dp),
            "--format", draw(st.sampled_from(["md", "csv", "plot"]))]
    if command == "compare" and draw(st.booleans()):
        cells = ["1", "0.5", "0.1", "1e-3", "2.5e-7", "1e-20", "0", "x", "1e5000"]
        argv += ["--thresholds", ",".join(draw(st.lists(st.sampled_from(cells), min_size=1,
                                                        max_size=4)))]
    return argv


def _library_output(ns) -> str:
    """What the library's plain record path prints for the parsed run or
    compare ns: run's or compare()'s records, rendered as ns.fmt, and the
    crossing lines."""
    crossings = {}
    if ns.command == "compare":
        runs, crossings = harness.compare(ns.methods, ns.schedule, ns.ctx, ns.thresholds)
        records = [r for m in ns.methods for r in runs[m]]
    else:
        records = list(run(ns.methods[0], ns.schedule, ns.ctx))
    if ns.fmt == "csv":
        text = render_csv(records)
    elif ns.fmt == "plot":
        text = render_plot_data(records)
    else:
        text = render_markdown(records, TableSpec(None, ns.ctx.working_dp))
    if crossings:
        text += "# crossover: first sampled n with abs error below threshold\n"
        text += "".join(f"{line}\n" for line in _crossing_lines(crossings))
    return text


# Without shrinking: a failing compare took over 9 minutes to shrink, and
# the first failing command line is reported as drawn.
@given(_command_lines())
@settings(deadline=timedelta(seconds=5), phases=[p for p in Phase if p is not Phase.shrink])
def test_any_command_line_exits_0_or_1(argv):
    # Every input gets its rows or a usage error, never exit 4 (an
    # internal error). Where every n is small, the rows are the library's,
    # elapsed_ns aside; a published table is its pinned bytes.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), err.getvalue()
    if code == 1:
        assert out.getvalue() == "" and err.getvalue().startswith("pibench: ")
        return
    assert err.getvalue() == ""
    if argv[0] == "table":
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest == PINNED_TABLES[argv[2]]
        return
    ns = parse_args(argv)
    if ns.schedule.max_n <= _ORACLE_MAX_N:
        assert _without_elapsed(out.getvalue()) == _without_elapsed(_library_output(ns))
