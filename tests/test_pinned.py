"""CLI outputs against the digests in perfbench/pinned.json (read only).

A kernel change that moves a reported digit changes one of these digests.
"""

import hashlib
import json
from pathlib import Path

import pytest

from pibench.cli import main
from pibench.report import TableSpec, render_markdown

PINNED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "pinned.json").read_text()
)


def _stdout_sha256(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


# Tables 1 and 2 take seconds each, so they are rendered from the runs
# the acceptance criteria share, as `pibench table` renders them.
@pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
def test_table_digest(capsys, k):
    assert _stdout_sha256(capsys, ["table", "--id", str(k)]) == PINNED["tables"][str(k)]


@pytest.mark.parametrize("k", [1, 2])
def test_long_table_digest(table_runs, k):
    text = render_markdown(table_runs[k], TableSpec.for_table(k))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED["tables"][str(k)]


def test_hiprec_compare_digest(capsys):
    # The benchmark's hiprec-dense workload at stop 400: 150-digit Viète values.
    argv = ["compare", "--methods", "viete,eulercf,zeta4,zeta8",
            "--schedule", "1:400:1", "--dp", "150", "--format", "md"]
    assert _stdout_sha256(capsys, argv) == PINNED["hiprec-dense"]["400"]


def test_long_schedule_csv_digest(tmp_path, capsys):
    # The benchmark's long-schedule workload at stop 100000, streamed to a
    # file. elapsed_ns, the last column, is a timing: it is cut off before
    # hashing, as perfbench/run.py does.
    out = tmp_path / "long-schedule.csv"
    assert main(["run", "--method", "leibniz", "--schedule", "1:100000:1",
                 "--dp", "15", "--format", "csv", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    lines = out.read_bytes().splitlines(keepends=True)
    stripped = b"".join(ln.rsplit(b",", 1)[0] + b"\n" for ln in lines)
    assert hashlib.sha256(stripped).hexdigest() == PINNED["long-schedule"]["100000"]
