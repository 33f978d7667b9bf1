"""Command-line interface: runs, comparisons, reference tables, selftest."""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import dataclass, field

from .fixedpoint import BigFixed, PrecisionCtx, default_guard, fx_parse, fx_to_string
from .goldens import selftest
from .harness import (
    PAIRINGS,
    TABLE_PRESETS,
    ReferenceIntegrityError,
    Schedule,
    compare,
    reference_pi,
    run,
    run_table,
)
from .methods import MethodId, make_state
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
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: what a shell reports for `yes | head`


class UsageError(ValueError):
    pass


@dataclass
class CliConfig:
    command: str
    methods: list = field(default_factory=list)
    schedule: Schedule | None = None
    ctx: PrecisionCtx | None = None
    fmt: str = "md"
    out: str | None = None
    reference: str | None = None
    thresholds: list | None = None
    table_id: int | None = None


def parse_schedule_expr(expr: str) -> Schedule:
    """Comma list of `N` or `start:stop:step`, inclusive of stop. Each item
    stays a range, so no expression is expanded."""
    runs = []
    for item in expr.split(","):
        item = item.strip()
        if not item:
            raise UsageError(f"empty schedule item in {expr!r}")
        if ":" in item:
            parts = item.split(":")
            if len(parts) != 3:
                raise UsageError(f"range must be start:stop:step, got {item!r}")
            try:
                start, stop, step_ = (int(p) for p in parts)
            except ValueError:
                raise UsageError(f"non-integer range bound in {item!r}")
            if step_ < 1 or stop < start:
                raise UsageError(f"bad range {item!r}")
            runs.append(range(start, stop + 1, step_))
        else:
            try:
                n = int(item)
            except ValueError:
                raise UsageError(f"non-integer schedule point {item!r}")
            runs.append(range(n, n + 1))
    try:
        return Schedule(*runs)
    except ValueError as e:
        raise UsageError(str(e))


def parse_decimal_exp(s: str) -> BigFixed:
    """Decimal literal with optional exponent, e.g. 0.5 or 1e-3."""
    s = s.strip()
    mant, sep, exp_s = s.partition("e") if "e" in s else s.partition("E")
    try:
        exp = int(exp_s) if sep else 0
        v = fx_parse(mant)
    except ValueError:
        raise UsageError(f"bad decimal literal {s!r}")
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
    runp.add_argument("--method", required=True)
    runp.add_argument("--schedule", required=True)
    runp.add_argument("--dp", type=int, default=15)
    runp.add_argument("--guard", type=int, default=None)
    runp.add_argument("--format", dest="fmt", choices=("md", "csv", "plot"), default="md")
    runp.add_argument("--out", default=None)
    runp.add_argument("--reference", default=None, help="override the computed reference value")

    cmp_ = sub.add_parser("compare", help="align several methods on one schedule")
    cmp_.add_argument("--methods", required=True, help="comma list or a pairing preset name")
    cmp_.add_argument("--schedule", default="5:100:5")
    cmp_.add_argument("--thresholds", default=None, help="comma list of abs-error percentages")
    cmp_.add_argument("--dp", type=int, default=15)
    cmp_.add_argument("--guard", type=int, default=None)
    cmp_.add_argument("--format", dest="fmt", choices=("md", "csv", "plot"), default="md")
    cmp_.add_argument("--out", default=None)

    tab = sub.add_parser("table", help="reproduce a published reference table")
    tab.add_argument("--id", type=int, required=True, dest="table_id")
    tab.add_argument("--out", default=None)

    sub.add_parser("selftest", help="recompute all reference tables and invariants")
    return p


def parse_args(argv) -> CliConfig:
    ns = _build_parser().parse_args(argv)
    cfg = CliConfig(command=ns.command)
    if ns.command in ("run", "compare"):
        if ns.dp < 1:
            raise UsageError("--dp must be >= 1")
        if ns.guard is not None and ns.guard < 0:
            raise UsageError("--guard must be >= 0")
        cfg.schedule = parse_schedule_expr(ns.schedule)
        guard = default_guard(cfg.schedule.max_n) if ns.guard is None else ns.guard
        cfg.ctx = PrecisionCtx(ns.dp, guard)
        cfg.fmt = ns.fmt
        cfg.out = ns.out
    if ns.command == "run":
        cfg.methods = _parse_methods(ns.method)
        if len(cfg.methods) != 1:
            raise UsageError("run takes exactly one --method")
        if ns.reference is not None:
            try:
                fx_parse(ns.reference)
            except ValueError:
                raise UsageError(f"bad --reference literal {ns.reference!r}")
        cfg.reference = ns.reference
    elif ns.command == "compare":
        cfg.methods = _parse_methods(ns.methods)
        if len(cfg.methods) < 2:
            raise UsageError("compare needs at least two methods")
        if len(set(cfg.methods)) != len(cfg.methods):
            raise UsageError("compare takes each method once")
        if ns.thresholds is not None:
            cfg.thresholds = [parse_decimal_exp(t) for t in ns.thresholds.split(",")]
            if any(t.significand <= 0 for t in cfg.thresholds):
                raise UsageError("--thresholds must be positive")
            if any(b >= a for a, b in zip(cfg.thresholds, cfg.thresholds[1:])):
                raise UsageError("--thresholds must be strictly decreasing")
    elif ns.command == "table":
        if ns.table_id not in TABLE_PRESETS:
            raise UsageError("--id must be in 1..7")
        cfg.table_id = ns.table_id
        cfg.out = ns.out
    for m in cfg.methods:
        low = make_state(m, PrecisionCtx(1, 0)).min_index
        if cfg.schedule.first < low:
            raise UsageError(f"{m.value} is defined for n >= {low}")
    return cfg


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


def _cmd_run(cfg: CliConfig) -> int:
    ref = reference_pi(cfg.ctx, cfg.reference)
    with _open_out(cfg.out) as out:
        records = run(cfg.methods[0], cfg.schedule, cfg.ctx, ref)
        if cfg.fmt == "csv":  # written as computed: no record is kept
            out.write(CSV_HEADER + "\n")
            out.writelines(map(csv_line, records))
        else:
            out.write(_render_records(list(records), cfg.fmt, cfg.ctx.working_dp))
    return EXIT_OK


def _cmd_compare(cfg: CliConfig) -> int:
    with _open_out(cfg.out) as out:
        records, crossings = compare(
            cfg.methods,
            cfg.schedule,
            cfg.ctx,
            tuple(cfg.thresholds) if cfg.thresholds else None,
        )
        flat = [r for recs in records.values() for r in recs]
        text = _render_records(flat, cfg.fmt, cfg.ctx.working_dp)
        lines = ["# crossover: first sampled n with abs error below threshold"]
        for m, crossed in crossings.items():
            for threshold, n in crossed:
                shown = n if n is not None else "not reached"
                lines.append(
                    f"# {m.value} < {fx_to_string(threshold, threshold.scale)}%: {shown}"
                )
        out.write(text + "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_table(cfg: CliConfig) -> int:
    with _open_out(cfg.out) as out:
        records = run_table(cfg.table_id)
        out.write(render_markdown(records, TableSpec.for_table(cfg.table_id)))
    return EXIT_OK


def _cmd_selftest(cfg: CliConfig) -> int:
    report = selftest()
    sys.stdout.write(report.text())
    return EXIT_OK if report.ok else EXIT_MISMATCH


def main(argv=None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
        handler = {
            "run": _cmd_run,
            "compare": _cmd_compare,
            "table": _cmd_table,
            "selftest": _cmd_selftest,
        }[cfg.command]
        return handler(cfg)
    except UsageError as e:
        print(f"pibench: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ReferenceIntegrityError as e:
        print(f"pibench: reference integrity: {e}", file=sys.stderr)
        return EXIT_REFERENCE
    except BrokenPipeError:
        # The reader closed stdout early (`pibench run ... | head`). Point
        # stdout at devnull so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
