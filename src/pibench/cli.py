"""Command-line interface: runs, comparisons, reference tables, selftest."""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .fixedpoint import BigFixed, PrecisionCtx, default_guard, fx_parse, fx_to_string
from .forked import ChildError
from .goldens import selftest
from .harness import (
    PAIRINGS,
    TABLE_PRESETS,
    ReferenceIntegrityError,
    Schedule,
    compare_args,
    reference_pi,
    rows,
)
from .methods import MethodId, check_index
from .report import CSV_HEADER, markdown_lines, plot_lines

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFERENCE = 2
EXIT_MISMATCH = 3
EXIT_INTERNAL = 4  # a forked child failed, or pibench itself raised
EXIT_OUTPUT = 5  # writing the output failed
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: what a shell reports for `yes | head`


class UsageError(ValueError):
    pass


class OutputError(Exception):
    """Writing stdout or the --out file failed (the disk is full, say)."""


def parse_schedule_expr(expr: str) -> Schedule:
    """Comma list of `N` or `start:stop:step`, inclusive of stop. Each item
    stays a range, so no expression is expanded."""
    runs = []
    for item in map(str.strip, expr.split(",")):
        try:
            bounds = [int(b) for b in item.split(":")]
        except ValueError:  # empty, or not an integer
            bounds = []
        if len(bounds) == 1:
            bounds += [bounds[0], 1]
        if len(bounds) != 3:
            raise UsageError(f"schedule item {item!r} is not N or start:stop:step")
        start, stop, step_ = bounds
        if step_ < 1 or stop < start:
            raise UsageError(f"bad range {item!r}")
        runs.append(range(start, stop + 1, step_))
    try:
        return Schedule(*runs)
    except ValueError as e:
        raise UsageError(str(e))


def parse_decimal_exp(s: str) -> BigFixed:
    """Decimal number with optional exponent, e.g. 0.5 or 1e-3."""
    s = s.strip()
    mant, sep, exp_s = s.partition("e") if "e" in s else s.partition("E")
    try:
        exp = int(exp_s) if sep else 0
        v = fx_parse(mant)
    except ValueError:
        raise UsageError(f"bad decimal number {s!r}")
    if exp >= v.scale:
        return BigFixed(v.significand * 10 ** (exp - v.scale), 0)
    return BigFixed(v.significand, v.scale - exp)


def _parse_methods(expr: str) -> list:
    if expr in PAIRINGS:
        return list(PAIRINGS[expr])
    methods = []
    for name in expr.split(","):
        name = name.strip()
        try:
            methods.append(MethodId(name))
        except ValueError:
            known = ", ".join(m.value for m in MethodId)
            raise UsageError(f"unknown method {name!r} (known: {known})")
    return methods


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="pibench", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="sample one method over a schedule")
    runp.add_argument("--method", dest="methods", metavar="METHOD", required=True)
    runp.add_argument("--schedule", required=True)
    runp.set_defaults(handler=_cmd_run)

    cmp_ = sub.add_parser("compare", help="align several methods on one schedule")
    cmp_.add_argument("--methods", required=True, help="comma list or a pairing preset name")
    cmp_.add_argument("--schedule", default="5:100:5")
    cmp_.add_argument("--thresholds", default=None, help="comma list of abs-error percentages")
    cmp_.set_defaults(handler=_cmd_compare)

    tab = sub.add_parser("table", help="reproduce a published reference table")
    tab.add_argument("--id", type=int, required=True, dest="table_id", choices=TABLE_PRESETS)
    tab.set_defaults(handler=_cmd_table, ctx=None, fmt="md")

    selftest_p = sub.add_parser("selftest", help="recompute all reference tables and invariants")
    selftest_p.set_defaults(handler=_cmd_selftest, ctx=None)

    # The options several commands share, each declared once.
    for cmd in (runp, cmp_):
        cmd.add_argument("--dp", type=int, default=15)
        cmd.add_argument("--format", dest="fmt", choices=("md", "csv", "plot"), default="md")
        cmd.set_defaults(table_id=None)  # md in the generic layout
    for cmd in (runp, cmp_, tab):
        cmd.add_argument("--out", default=None)
    return p


def parse_args(argv) -> argparse.Namespace:
    """The parsed command line. For run and compare, methods, schedule, ctx
    and thresholds are converted, and checked by the library's rules, so a
    bad argument fails before any output is opened. ctx is --dp working
    digits and the schedule's default_guard; compare's thresholds have the
    defaults filled in (harness.compare_args)."""
    ns = _build_parser().parse_args(argv)
    if ns.command not in ("run", "compare"):
        return ns
    ns.schedule = parse_schedule_expr(ns.schedule)
    ns.methods = _parse_methods(ns.methods)
    if ns.command == "run" and len(ns.methods) != 1:
        raise UsageError("run takes exactly one --method")
    if ns.command == "compare" and ns.thresholds is not None:
        ns.thresholds = tuple(map(parse_decimal_exp, ns.thresholds.split(",")))
    try:
        ns.ctx = PrecisionCtx(ns.dp, default_guard(ns.schedule.max_n))
    except ValueError as e:  # the guard is derived, so the rule broken is --dp's
        raise UsageError(f"bad --dp {ns.dp}: {e}") from None
    try:
        if ns.command == "run":
            check_index(ns.methods[0], ns.schedule.first)
        else:
            ns.methods, ns.thresholds = compare_args(ns.methods, ns.schedule, ns.thresholds)
    except ValueError as e:
        raise UsageError(str(e)) from None
    return ns


@contextlib.contextmanager
def _open_out(path: str | None):
    """The output stream: stdout, or the --out file, opened now so that an
    unwritable path fails before any work. An OSError raised while it is in
    use, other than a closed pipe, is an OutputError. Stdout is flushed
    before it is left, so that its write errors surface here too."""
    if path is None:
        out = contextlib.nullcontext(sys.stdout)
    else:
        try:
            out = open(path, "w")
        except OSError as e:
            raise UsageError(f"cannot write {path}: {e.strerror}") from None
    try:
        with out as stream:
            yield stream
            stream.flush()
    except BrokenPipeError:
        raise
    except OSError as e:
        if path is None:
            _stdout_to_devnull()
        raise OutputError(e.strerror or str(e)) from None


def _stdout_to_devnull() -> None:
    """Point stdout at devnull, so that the flush at exit does not fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _write_out(ns: argparse.Namespace, job, crossings: dict | None = None) -> int:
    """The body of run, compare and table: the rows (harness.rows) of each
    of job.methods over job.schedule at job.ctx, where job is the command
    line or, for table, the table's preset. They are written in ns.fmt as
    they are computed, keeping none: md in lockstep, in table ns.table_id's
    layout or the generic one; csv and plot one method after another. Then
    the crossings, if any. The reference is built before --out is opened,
    so that exit 2 leaves it alone."""
    ref = reference_pi(job.ctx)
    with _open_out(ns.out) as out, rows(job.methods, job.schedule, ref, crossings) as runs:
        if ns.fmt == "csv":
            out.write(CSV_HEADER + "\n")
            for method_rows in runs.values():
                out.writelines(method_rows)
        elif ns.fmt == "plot":
            out.writelines(plot_lines(runs))
        else:
            out.writelines(markdown_lines(runs, ns.table_id))
        if crossings:
            out.write("# crossover: first sampled n with abs error below threshold\n")
            for m, crossed in crossings.items():
                for threshold, n in crossed:
                    shown = fx_to_string(threshold, threshold.scale)
                    out.write(f"# {m.value} < {shown}%: {'not reached' if n is None else n}\n")
    return EXIT_OK


def _cmd_run(ns: argparse.Namespace) -> int:
    return _write_out(ns, ns)


def _cmd_compare(ns: argparse.Namespace) -> int:
    return _write_out(ns, ns, {m: [(t, None) for t in ns.thresholds] for m in ns.methods})


def _cmd_table(ns: argparse.Namespace) -> int:
    return _write_out(ns, TABLE_PRESETS[ns.table_id])


def _cmd_selftest(ns: argparse.Namespace) -> int:
    report = selftest()
    with _open_out(None) as out:
        out.write(report.text())
    return EXIT_OK if report.ok else EXIT_MISMATCH


def main(argv=None) -> int:
    try:
        ns = parse_args(sys.argv[1:] if argv is None else argv)
        return ns.handler(ns)
    except UsageError as e:
        print(f"pibench: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ReferenceIntegrityError as e:
        print(f"pibench: reference integrity: {e}", file=sys.stderr)
        return EXIT_REFERENCE
    except ChildError as e:
        print(f"pibench: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except OutputError as e:
        print(f"pibench: cannot write output: {e}", file=sys.stderr)
        return EXIT_OUTPUT
    except BrokenPipeError:  # the reader closed stdout early (`pibench run ... | head`)
        _stdout_to_devnull()
        return EXIT_BROKEN_PIPE
    except Exception:  # a fault in pibench, not in its input: not a usage error
        import traceback  # only on this path; it costs set-up time

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
