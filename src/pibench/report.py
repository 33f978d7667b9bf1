"""Rendering of run results: Markdown tables, CSV, plot-ready columns."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
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


def markdown_lines(
    runs: dict[MethodId, Iterable[RunRecord]], spec: TableSpec
) -> Iterator[str]:
    """The Markdown table of runs on one schedule, a line at a time: the
    header, then one row per n, taking the next record of every run. A row
    is written as its records are computed, and none is kept."""
    if not runs:
        raise ReportShapeError("no records to render")
    preset = TABLE_PRESETS.get(spec.table_id)
    if preset is None:
        methods = sorted(runs, key=lambda m: m.value)
        columns = _GENERIC_COLUMNS
    else:
        methods, columns = preset.methods, preset.columns
        if set(runs) != set(methods):
            names = ", ".join(m.value for m in methods)
            raise ReportShapeError(f"table {spec.table_id} takes {names}")

    pairs = [(i, column, head.format(method=m.value))
             for i, m in enumerate(methods) for column, head in columns]
    yield "| n |" + "".join(f" {head} |" for _, _, head in pairs) + "\n"
    yield "| --- |" + " --- |" * len(pairs) + "\n"
    for row in zip(*(runs[m] for m in methods), strict=True):
        cells = "".join(f" {spec.cell(row[i], c)} |" for i, c, _ in pairs)
        yield f"| {row[0].n} |{cells}\n"


def render_markdown(records: list[RunRecord], spec: TableSpec) -> str:
    by_method = _group(records)
    ns = [[r.n for r in recs] for recs in by_method.values()]
    if any(other != ns[0] for other in ns):
        raise ReportShapeError("method schedules are not aligned")
    return "".join(markdown_lines(by_method, spec))


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


def plot_lines(runs: dict[MethodId, Iterable[RunRecord]]) -> Iterator[str]:
    """Per-method (n, y) column blocks for value and error series, a line
    at a time: the value, abs and signed error cells of each record's CSV
    row, regrouped. The runs are taken one after another. A run's value
    block is written as its records are computed; its two error blocks are
    spilled to temporary files and copied out after it, so no record is
    kept."""
    import tempfile  # only on this path; it costs set-up time

    gap = ""
    for method, records in runs.items():
        yield f"{gap}# {method.value} value\n"
        with tempfile.TemporaryFile("w+") as absolute, \
                tempfile.TemporaryFile("w+") as signed:
            for r in records:
                _, n, value, signed_cell, abs_cell, _ = csv_line(r).split(",", 5)
                yield f"{n} {value}\n"
                absolute.write(f"{n} {abs_cell}\n")
                signed.write(f"{n} {signed_cell}\n")
            for series, spill in (("abs_err_pct", absolute), ("signed_err_pct", signed)):
                yield f"\n# {method.value} {series}\n"
                spill.seek(0)
                while chunk := spill.read(8192):  # never the whole block at once
                    yield chunk
        gap = "\n"


def render_plot_data(records: list[RunRecord]) -> str:
    return "".join(plot_lines(_group(records)))
