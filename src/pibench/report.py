"""Rendering of run results: Markdown tables, CSV, plot-ready columns."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
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

    @classmethod
    def for_table(cls, table_id: int) -> "TableSpec":
        preset = TABLE_PRESETS.get(table_id)
        if preset is None:
            raise ReportShapeError(f"no published table {table_id}")
        return cls(table_id, preset.working_dp)


def _group(records: list[RunRecord]) -> dict[MethodId, list[RunRecord]]:
    by_method: dict[MethodId, list[RunRecord]] = {}
    for r in records:
        by_method.setdefault(r.method, []).append(r)
    return by_method


# The field of a CSV row (csv_line) that each printed column takes.
_FIELDS = {"value": 2, "err": 4}


def markdown_lines(runs: dict[MethodId, Iterable[str]],
                   table_id: int | None = None) -> Iterator[str]:
    """The Markdown table of runs on one schedule, a line at a time, from
    each method's CSV rows (csv_line): the header, then one row per n,
    taking the next CSV row of every run. The layout is published table
    table_id's, or the generic one. A cell is its row's value cell or its
    abs error cell, so the values print at the rows' working_dp. A row is
    written as its CSV rows are computed, and none is kept."""
    if not runs:
        raise ReportShapeError("no records to render")
    preset = TABLE_PRESETS.get(table_id)
    if preset is None:
        methods = sorted(runs, key=lambda m: m.value)
        columns = _GENERIC_COLUMNS
    else:
        methods, columns = preset.methods, preset.columns
        if set(runs) != set(methods):
            names = ", ".join(m.value for m in methods)
            raise ReportShapeError(f"table {table_id} takes {names}")

    pairs = [(i, _FIELDS[column], head.format(method=m.value))
             for i, m in enumerate(methods) for column, head in columns]
    yield "| n |" + "".join(f" {head} |" for _, _, head in pairs) + "\n"
    yield "| --- |" + " --- |" * len(pairs) + "\n"
    for row in zip(*(runs[m] for m in methods), strict=True):
        fields = [line.split(",", 5) for line in row]
        cells = "".join(f" {fields[i][f]} |" for i, f, _ in pairs)
        yield f"| {fields[0][1]} |{cells}\n"


def render_markdown(records: list[RunRecord], spec: TableSpec) -> str:
    by_method = _group(records)
    ns = [[r.n for r in recs] for recs in by_method.values()]
    if any(other != ns[0] for other in ns):
        raise ReportShapeError("method schedules are not aligned")
    # csv_line prints a value at its record's working_dp: set it to the spec's.
    dp = spec.value_dp
    rows = {m: (csv_line(r if r.working_dp == dp else r._replace(working_dp=dp))
                for r in recs)
            for m, recs in by_method.items()}
    return "".join(markdown_lines(rows, spec.table_id))


def csv_line(r: RunRecord) -> str:
    """One CSV row of a record, with its newline: the value at the record's
    working_dp and both errors at ERR_DP, as fx_to_string prints them."""
    return (
        f"{r.method.value},{r.n},{fx_to_string(r.value, r.working_dp)},"
        f"{fx_to_string(r.signed_err_pct, ERR_DP)},{fx_to_string(r.abs_err_pct, ERR_DP)},"
        f"{r.digits_correct},{r.elapsed_ns}\n"
    )


def render_csv(records: list[RunRecord]) -> str:
    return CSV_HEADER + "\n" + "".join(map(csv_line, records))


def plot_lines(runs: dict[MethodId, Iterable[str]]) -> Iterator[str]:
    """Per-method (n, y) column blocks for value and error series, a line
    at a time, from each method's CSV rows (csv_line): the value, abs and
    signed error cells of each row, regrouped. The runs are taken one
    after another. A run's value block is written as its rows are
    computed; its two error blocks are spilled to temporary files and
    copied out after it, so no row is kept."""
    import tempfile  # only on this path; it costs set-up time

    gap = ""
    for method, rows in runs.items():
        yield f"{gap}# {method.value} value\n"
        with tempfile.TemporaryFile("w+") as absolute, \
                tempfile.TemporaryFile("w+") as signed:
            for row in rows:
                _, n, value, signed_cell, abs_cell, _ = row.split(",", 5)
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
    runs = {m: map(csv_line, recs) for m, recs in _group(records).items()}
    return "".join(plot_lines(runs))
