"""Rendering of run results: Markdown tables, CSV, plot-ready columns."""

from __future__ import annotations

from dataclasses import dataclass

from .fixedpoint import fx_to_string
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
    err_dp: int = ERR_DP

    @classmethod
    def for_table(cls, table_id: int) -> "TableSpec":
        preset = TABLE_PRESETS.get(table_id)
        if preset is None:
            raise ReportShapeError(f"no published table {table_id}")
        return cls(table_id, preset.value_dp, preset.err_dp)

    def cell(self, record: RunRecord, column: str) -> str:
        """One printed cell: the record's value or its abs error."""
        if column == "value":
            return record.value_str(self.value_dp)
        return fx_to_string(record.abs_err_pct, self.err_dp)


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


def _err_cells(r: RunRecord) -> tuple[str, str]:
    """The signed and abs error cells of a record, from one rounding.

    Half-even rounding is symmetric, so the abs cell is the signed one
    without its '-'; a negative error that rounds to zero already prints
    without one.
    """
    signed = fx_to_string(r.signed_err_pct, ERR_DP)
    return signed, signed.lstrip("-")


def csv_line(r: RunRecord) -> str:
    """One CSV row of a record, with its newline."""
    signed, absolute = _err_cells(r)
    return (
        f"{r.method.value},{r.n},{r.value_str(r.working_dp)},{signed},{absolute},"
        f"{r.digits_correct},{r.elapsed_ns}\n"
    )


def render_csv(records: list[RunRecord]) -> str:
    return CSV_HEADER + "\n" + "".join(map(csv_line, records))


def render_plot_data(records: list[RunRecord]) -> str:
    """Per-method (n, y) column blocks for value and error series."""
    if not records:
        return ""
    blocks = []
    for method, recs in _group(records).items():
        errs = [_err_cells(r) for r in recs]
        for series, cells in (
            ("value", [r.value_str(r.working_dp) for r in recs]),
            ("abs_err_pct", [absolute for _, absolute in errs]),
            ("signed_err_pct", [signed for signed, _ in errs]),
        ):
            lines = [f"# {method.value} {series}"]
            lines.extend(f"{r.n} {cell}" for r, cell in zip(recs, cells))
            blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
