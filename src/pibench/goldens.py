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
import pkgutil
from functools import lru_cache
from typing import NamedTuple

from . import report
from .fixedpoint import BigFixed, PrecisionCtx, fx_sqrt
from .harness import TABLE_PRESETS, reference_pi, rows
from .methods import (LeibnizState, MethodId, NewtonArcsineState, VieteState, WallisState,
                      ZetaState, euler_cf_pair)


@lru_cache(maxsize=1)
def load() -> dict:
    # Through the package's own loader, so a zipped install reads it too.
    return json.loads(pkgutil.get_data(__name__, "_data/goldens.json"))["tables"]


class SelftestReport(NamedTuple):
    lines: list
    expected_divergent: int
    mismatches: int

    @property
    def ok(self) -> bool:
        return self.mismatches == 0

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _quick_invariants() -> list:
    """Cheap structural checks; returns failure lines (empty when clean)."""
    failures = []
    ctx = PrecisionCtx(40, 12)
    ref = reference_pi(ctx)

    for state in (WallisState(ctx), NewtonArcsineState(ctx), VieteState(ctx),
                  ZetaState(ctx, MethodId.ZETA2), ZetaState(ctx, MethodId.ZETA8)):
        state.step()
        prev = state.value()
        for _ in range(30):
            state.step()
            cur = state.value()
            if not (prev < cur < ref.value):
                failures.append(
                    f"INVARIANT FAIL: {state.method.value} not strictly increasing"
                    f" below the reference at n={state.n}"
                )
                break
            prev = cur

    # Partial sums overshoot the reference at even n (the leading +4
    # term dominates) and undershoot at odd n.
    state = LeibnizState(ctx)
    for n in range(1, 51):
        state.step()
        if (state.value() > ref.value) != (n % 2 == 0):
            failures.append(f"INVARIANT FAIL: alternation broken at n={n}")
            break

    # The Leibniz partial sum to k = d is num / den, not reduced; it equals
    # the convergent at depth d exactly when the cross products agree.
    num, den = 4, 1
    for d in range(1, 31):
        num, den = num * (2 * d + 1) + 4 * (-1) ** d * den, den * (2 * d + 1)
        cf_num, cf_den = euler_cf_pair(d)
        if cf_num * den != num * cf_den:
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
    """Recompute one table; (audit lines, divergent cells, mismatches).

    A row holds the published "values" and "errs" strings by method, and a
    flag for each method with a divergent cell: a column of that cell is
    divergent iff the flag holds recomputed_<column>. The preset says which
    methods and columns the table has. A computed cell is the field of its
    CSV row (harness.rows) that `pibench table --id tid` prints.
    """
    preset = TABLE_PRESETS[tid]
    printed = {}
    with rows(preset.methods, preset.schedule, reference_pi(preset.ctx)) as runs:
        for m, lines in runs.items():
            for line in lines:
                fields = line.split(",", 5)
                printed[m, int(fields[1])] = fields
    lines = []
    divergent = bad = 0
    for row in table["rows"]:
        n = row["n"]
        for column, _ in preset.columns:
            for method in preset.methods:
                name = method.value
                label = column if len(preset.methods) == 1 else name
                where = f"table {tid} n={n} {label}"
                published = row[column + "s"][name]
                flag = row["flags"].get(name, {})
                recomputed = flag.get(f"recomputed_{column}")
                computed = printed[method, n][report._FIELDS[column]]
                if recomputed is None:
                    if computed != published:
                        bad += 1
                        lines.append(
                            f"MISMATCH {where}: computed={computed} published={published}"
                        )
                    continue
                divergent += 1
                if computed == recomputed:
                    lines.append(
                        f"EXPECTED-DIVERGENT {where}: published={published}"
                        f" recomputed={recomputed} ({flag.get('reason')})"
                    )
                else:
                    bad += 1
                    lines.append(
                        f"MISMATCH {where}: computed={computed} differs from frozen"
                        f" recomputation {recomputed} (published={published})"
                    )
    return lines, divergent, bad


def selftest() -> SelftestReport:
    """Every table's audit, then the invariants, in this process."""
    tables = load()
    lines = []
    divergent = bad = 0
    for tid in TABLE_PRESETS:
        table_lines, d, m = _audit_table(tid, tables[str(tid)])
        lines.extend(table_lines)
        divergent += d
        bad += m
    failures = _quick_invariants()
    lines.extend(failures)
    bad += len(failures)

    lines.append(
        f"selftest: {divergent} expected-divergent cells, {bad} failures"
    )
    return SelftestReport(lines, divergent, bad)
