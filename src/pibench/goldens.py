"""Embedded reference-table rows and the selftest discrepancy audit.

The data file carries the seven published convergence tables keyed by
(table, row); harness.TABLE_PRESETS says which methods and columns each
table prints. Cells the published source demonstrably got wrong (print
artifacts, duplicated rows, row-shifted error columns) are flagged
divergent and carry the exactly recomputed value alongside the published
string. The selftest recomputes every table and checks:

  - every non-divergent cell matches the published string exactly;
  - every divergent cell matches its frozen recomputed string exactly,
    and is reported as EXPECTED-DIVERGENT rather than silently skipped;
  - a handful of fast structural invariants (monotonicity, alternation,
    series/continued-fraction equivalence, root accuracy).
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .fixedpoint import (
    BigFixed,
    PrecisionCtx,
    fx_sqrt,
)
from .harness import (
    TABLE_PRESETS,
    reference_pi,
    run_table,
)
from .methods import (
    MethodId,
    euler_cf_convergent,
    make_state,
)
from .report import TableSpec


@lru_cache(maxsize=1)
def load() -> dict:
    with resources.files("pibench._data").joinpath("goldens.json").open() as f:
        return json.load(f)["tables"]


@dataclass(frozen=True)
class SelftestReport:
    lines: list
    expected_divergent: int
    mismatches: int

    @property
    def ok(self) -> bool:
        return self.mismatches == 0

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


@dataclass(frozen=True)
class Cell:
    """One published cell and its audit flags."""

    where: str
    method: str
    n: int
    column: str  # "value" or "err"
    published: str
    recomputed: str | None  # the frozen recomputation of a divergent cell
    reason: str | None

    @property
    def divergent(self) -> bool:
        return self.recomputed is not None


def _cells(tid: int, table: dict):
    """Every published cell of a golden table, in audit order.

    A row holds the published "values" and "errs" strings by method, and a
    flag for each method with a divergent cell: a column of that cell is
    divergent iff the flag holds recomputed_<column>. The preset says which
    methods and columns the table has.
    """
    preset = TABLE_PRESETS[tid]
    for row in table["rows"]:
        n = row["n"]
        for column, _ in preset.columns:
            for method in preset.methods:
                name = method.value
                flag = row["flags"].get(name, {})
                label = column if len(preset.methods) == 1 else name
                yield Cell(
                    f"table {tid} n={n} {label}", name, n, column,
                    row[column + "s"][name], flag.get(f"recomputed_{column}"),
                    flag.get("reason"),
                )


def _check_cell(lines: list, cell: Cell, computed: str) -> tuple[int, int]:
    """Append audit lines for one cell; return (divergent_seen, mismatch_seen)."""
    where, published, recomputed = cell.where, cell.published, cell.recomputed
    if not cell.divergent:
        if computed == published:
            return 0, 0
        lines.append(
            f"MISMATCH {where}: computed={computed} published={published}"
        )
        return 0, 1
    if computed == recomputed:
        lines.append(
            f"EXPECTED-DIVERGENT {where}: published={published}"
            f" recomputed={recomputed} ({cell.reason})"
        )
        return 1, 0
    lines.append(
        f"MISMATCH {where}: computed={computed} differs from frozen"
        f" recomputation {recomputed} (published={published})"
    )
    return 1, 1


def _quick_invariants() -> list:
    """Cheap structural checks; returns failure lines (empty when clean)."""
    failures = []
    ctx = PrecisionCtx(40, 12)
    ref = reference_pi(ctx)

    for method in (
        MethodId.WALLIS,
        MethodId.NEWTON_ARCSINE,
        MethodId.VIETE,
        MethodId.ZETA2,
        MethodId.ZETA8,
    ):
        state = make_state(method, ctx)
        state.step()
        prev = state.value()
        for _ in range(30):
            state.step()
            cur = state.value()
            if not (prev < cur < ref.value):
                failures.append(
                    f"INVARIANT FAIL: {method.value} not strictly increasing"
                    f" below the reference at n={state.n}"
                )
                break
            prev = cur

    # Partial sums overshoot the reference at even n (the leading +4
    # term dominates) and undershoot at odd n.
    state = make_state(MethodId.LEIBNIZ, ctx)
    for n in range(1, 51):
        state.step()
        if (state.value() > ref.value) != (n % 2 == 0):
            failures.append(f"INVARIANT FAIL: alternation broken at n={n}")
            break

    for d in range(1, 31):
        series = sum(Fraction(4 * (-1) ** k, 2 * k + 1) for k in range(d + 1))
        if euler_cf_convergent(d) != series:
            failures.append(
                f"INVARIANT FAIL: continued fraction != series partial sum at d={d}"
            )
            break

    # r units of 10^-S are within 1 unit of sqrt(x) iff, exactly in
    # integers, (r-1)^2 < x 10^(2S) < (r+1)^2.
    for sig in (2, 3, 5, 7, 10, 123456789):
        r = fx_sqrt(BigFixed(sig), ctx).significand
        if not ((r - 1) ** 2 < sig * 10 ** (2 * ctx.scale) < (r + 1) ** 2):
            failures.append(f"INVARIANT FAIL: sqrt ulp bound violated for {sig}")
    return failures


def _audit_table(tid: int, table: dict) -> tuple[list, int, int]:
    """Recompute one table; (audit lines, divergent cells, mismatches)."""
    spec = TableSpec.for_table(tid)
    records = {(r.method.value, r.n): r for r in run_table(tid)}
    lines = []
    divergent = bad = 0
    for cell in _cells(tid, table):
        computed = spec.cell(records[cell.method, cell.n], cell.column)
        d, m = _check_cell(lines, cell, computed)
        divergent += d
        bad += m
    return lines, divergent, bad


# Table 1's Wallis chain is the longest audit, and it cannot be split: each
# factor rounds the previous product. So one child audits it while the
# parent audits the rest, and more processes would not finish sooner.
FORKED_TABLE = 1


def _send_audit(fd: int, tid: int, table: dict) -> int:
    """In the child: write the audit as JSON, or the error text, to fd.

    Returns the exit status, 0 for an audit and 1 for an error.
    """
    try:
        payload, status = json.dumps(_audit_table(tid, table)), 0
    except Exception as exc:  # the parent raises it, naming the table
        payload, status = f"{type(exc).__name__}: {exc}", 1
    with open(fd, "w", encoding="utf-8") as f:
        f.write(payload)
    return status


class _ForkedAudit:
    """One table's audit, running in a forked child process.

    The child sends its result back through a pipe and leaves through
    os._exit on every path, so it never returns into the caller's stack and
    never flushes buffers it inherited. It writes nothing to stdout.
    """

    def __init__(self, tid: int, table: dict):
        self.tid = tid
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(read_fd)
                status = _send_audit(write_fd, tid, table)
            finally:
                os._exit(status)
        os.close(write_fd)
        self.pipe = open(read_fd, encoding="utf-8")

    def result(self) -> tuple[list, int, int]:
        """Wait for the child; its audit, or RuntimeError if it failed."""
        payload = self.pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError(
                f"table {self.tid} audit failed in its child process:"
                f" {payload or 'no output'}"
            )
        lines, divergent, bad = json.loads(payload)
        return lines, divergent, bad

    def close(self) -> None:
        """Kill and reap the child unless result() has reaped it."""
        if self.pid is not None:
            import signal  # only on this path; it costs set-up time

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        self.pipe.close()


def selftest() -> SelftestReport:
    tables = load()
    # Forking while other threads run could copy a lock one of them holds.
    forked = None
    if hasattr(os, "fork") and threading.active_count() == 1:
        forked = _ForkedAudit(FORKED_TABLE, tables[str(FORKED_TABLE)])
    audits = {}
    try:
        for tid in TABLE_PRESETS:
            if forked is None or tid != forked.tid:
                audits[tid] = _audit_table(tid, tables[str(tid)])
        failures = _quick_invariants()
        if forked is not None:
            audits[forked.tid] = forked.result()
    finally:
        if forked is not None:
            forked.close()

    lines = []
    divergent = bad = 0
    for tid in TABLE_PRESETS:
        table_lines, d, m = audits[tid]
        lines.extend(table_lines)
        divergent += d
        bad += m
    lines.extend(failures)
    bad += len(failures)

    lines.append(
        f"selftest: {divergent} expected-divergent cells, {bad} failures"
    )
    return SelftestReport(lines, divergent, bad)
