"""Rendering of run results: Markdown tables, CSV, plot-ready columns."""

from __future__ import annotations

from dataclasses import dataclass

from .fixedpoint import _div_half_even, fx_to_string
from .harness import ERR_DP, TABLE_PRESETS, RunRecord
from .methods import MethodId

CSV_HEADER = "method,n,value,signed_err_pct,abs_err_pct,digits_correct,elapsed_ns"

# Generic layout: a value and an error column per method.
_GENERIC_COLUMNS = (("value", "{method}"), ("err", "{method} err (%)"))


class ReportShapeError(ValueError):
    """Records do not match the shape the table spec requires."""


@dataclass(frozen=True)
class TableSpec:
    """Layout parameters for a rendered table.

    A table_id in TABLE_PRESETS selects that published table's methods and
    columns; any other id, or None, is a generic layout for arbitrary
    method sets.
    """

    table_id: int | None
    value_dp: int

    @classmethod
    def for_table(cls, table_id: int) -> "TableSpec":
        preset = TABLE_PRESETS.get(table_id)
        if preset is None:
            raise ReportShapeError(f"no published table {table_id}")
        return cls(table_id, preset.working_dp)

    def cell(self, record: RunRecord, column: str) -> str:
        """One printed cell: the record's value or its abs error."""
        if column == "value":
            return record.value_str(self.value_dp)
        return fx_to_string(record.abs_err_pct, ERR_DP)


def _group(records: list[RunRecord]) -> dict[MethodId, list[RunRecord]]:
    by_method: dict[MethodId, list[RunRecord]] = {}
    for r in records:
        by_method.setdefault(r.method, []).append(r)
    return by_method


def render_markdown(records: list[RunRecord], spec: TableSpec) -> str:
    by_method = _group(records)
    if not by_method:
        raise ReportShapeError("no records to render")

    preset = TABLE_PRESETS.get(spec.table_id)
    if preset is None:
        methods = sorted(by_method, key=lambda m: m.value)
        columns = _GENERIC_COLUMNS
    else:
        methods, columns = preset.methods, preset.columns
        if set(by_method) != set(methods):
            names = ", ".join(m.value for m in methods)
            raise ReportShapeError(f"table {spec.table_id} takes {names}")
    ns = [r.n for r in by_method[methods[0]]]
    for m in methods[1:]:
        if [r.n for r in by_method[m]] != ns:
            raise ReportShapeError("method schedules are not aligned")

    pairs = [(m, column, head) for m in methods for column, head in columns]
    lines = [
        "| n |" + "".join(f" {head.format(method=m.value)} |" for m, _, head in pairs),
        "| --- |" + " --- |" * len(pairs),
    ]
    for i, n in enumerate(ns):
        cells = "".join(f" {spec.cell(by_method[m][i], c)} |" for m, c, _ in pairs)
        lines.append(f"| {n} |{cells}")
    return "\n".join(lines) + "\n"


class _PowersOfTen(dict):
    """e -> 10**e, each computed on its first use."""

    __slots__ = ()

    def __missing__(self, e: int) -> int:
        p = self[e] = 10 ** e
        return p


_TEN = _PowersOfTen()


def csv_line(r: RunRecord) -> str:
    """One CSV row of a record, with its newline.

    The value and the signed error print as fx_to_string prints them, each
    from one half-even division of its significand; a scale below the
    printed dp takes fx_to_string itself. Both cells are written out here,
    not through a helper per cell, whose two calls measured about a seventh
    of this function's time. Half-even rounding is symmetric, so the abs
    cell is the signed one without its '-'.
    """
    method, n, value, signed_err, _, digits, elapsed, dp = r
    e = value.scale - dp
    if e < 0 or dp < 1:
        value_cell = fx_to_string(value, dp)
    else:
        q = _div_half_even(value.significand, _TEN[e])
        value_cell = str(abs(q)).zfill(dp + 1)
        value_cell = f"{'-' if q < 0 else ''}{value_cell[:-dp]}.{value_cell[-dp:]}"
    e = signed_err.scale - ERR_DP
    if e < 0:
        signed = fx_to_string(signed_err, ERR_DP)
        absolute = signed.lstrip("-")
    else:
        q = _div_half_even(signed_err.significand, _TEN[e])
        absolute = str(abs(q)).zfill(ERR_DP + 1)
        absolute = f"{absolute[:-ERR_DP]}.{absolute[-ERR_DP:]}"
        signed = "-" + absolute if q < 0 else absolute
    return (
        f"{method._value_},{n},{value_cell},{signed},{absolute},"
        f"{digits},{elapsed}\n"
    )


def render_csv(records: list[RunRecord]) -> str:
    return CSV_HEADER + "\n" + "".join(map(csv_line, records))


def render_plot_data(records: list[RunRecord]) -> str:
    """Per-method (n, y) column blocks for value and error series: the
    value, abs and signed error cells of each record's CSV row, regrouped."""
    if not records:
        return ""
    blocks = []
    for method, recs in _group(records).items():
        rows = [csv_line(r).split(",") for r in recs]
        for series, i in (("value", 2), ("abs_err_pct", 4), ("signed_err_pct", 3)):
            lines = [f"# {method.value} {series}"]
            lines.extend(f"{row[1]} {row[i]}" for row in rows)
            blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
