"""Command-line interface: runs, comparisons, reference tables, selftest."""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .fixedpoint import BigFixed, PrecisionCtx, default_guard, fx_parse, fx_to_string
from .goldens import AuditChildError, selftest
from .harness import (
    PAIRINGS,
    TABLE_PRESETS,
    ReferenceIntegrityError,
    Schedule,
    compare,
    compare_args,
    reference_pi,
    run,
    run_table,
)
from .methods import MethodId, check_index
from .report import (
    CSV_HEADER,
    TableSpec,
    csv_line,
    render_csv,
    render_markdown,
    render_plot_data,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFERENCE = 2
EXIT_MISMATCH = 3
EXIT_INTERNAL = 4  # a forked selftest audit failed
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: what a shell reports for `yes | head`


class UsageError(ValueError):
    pass


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
    tab.set_defaults(handler=_cmd_table, ctx=None)

    selftest_p = sub.add_parser("selftest", help="recompute all reference tables and invariants")
    selftest_p.set_defaults(handler=_cmd_selftest, ctx=None)

    # The options several commands share, each declared once.
    for cmd in (runp, cmp_):
        cmd.add_argument("--dp", type=int, default=15)
        cmd.add_argument("--format", dest="fmt", choices=("md", "csv", "plot"), default="md")
    for cmd in (runp, cmp_, tab):
        cmd.add_argument("--out", default=None)
    return p


def parse_args(argv) -> argparse.Namespace:
    """The parsed command line. For run and compare, methods, schedule, ctx
    and thresholds are converted, and checked by the library's rules, so a
    bad argument fails before any output is opened. ctx is --dp working
    digits and the schedule's default_guard."""
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
            compare_args(ns.methods, ns.schedule, ns.thresholds)
    except ValueError as e:
        raise UsageError(str(e)) from None
    return ns


def _open_out(path: str | None):
    """The output stream: stdout, or the --out file, opened now so that an
    unwritable path fails before any work."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e.strerror}") from None


def _render_records(records, fmt: str, value_dp: int) -> str:
    if fmt == "csv":
        return render_csv(records)
    if fmt == "plot":
        return render_plot_data(records)
    return render_markdown(records, TableSpec(None, value_dp))


def _cmd_run(ns: argparse.Namespace) -> int:
    ref = reference_pi(ns.ctx)  # before --out is opened: exit 2 leaves it alone
    with _open_out(ns.out) as out:
        records = run(ns.methods[0], ns.schedule, ns.ctx, ref)
        if ns.fmt == "csv":  # written as computed: no record is kept
            out.write(CSV_HEADER + "\n")
            out.writelines(map(csv_line, records))
        else:
            out.write(_render_records(list(records), ns.fmt, ns.ctx.working_dp))
    return EXIT_OK


def _cmd_compare(ns: argparse.Namespace) -> int:
    with _open_out(ns.out) as out:
        records, crossings = compare(ns.methods, ns.schedule, ns.ctx, ns.thresholds)
        flat = [r for recs in records.values() for r in recs]
        text = _render_records(flat, ns.fmt, ns.ctx.working_dp)
        lines = ["# crossover: first sampled n with abs error below threshold"]
        for m, crossed in crossings.items():
            for threshold, n in crossed:
                shown = n if n is not None else "not reached"
                lines.append(
                    f"# {m.value} < {fx_to_string(threshold, threshold.scale)}%: {shown}"
                )
        out.write(text + "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_table(ns: argparse.Namespace) -> int:
    with _open_out(ns.out) as out:
        records = run_table(ns.table_id)
        out.write(render_markdown(records, TableSpec.for_table(ns.table_id)))
    return EXIT_OK


def _cmd_selftest(ns: argparse.Namespace) -> int:
    report = selftest()
    sys.stdout.write(report.text())
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
    except AuditChildError as e:
        print(f"pibench: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        # The reader closed stdout early (`pibench run ... | head`). Point
        # stdout at devnull so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
