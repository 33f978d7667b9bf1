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


# Outputs of the other streamed paths, pinned from the code that rendered
# them from a list of every record: compare in each format (a multi-run
# schedule for md, whose points heapq merges), and run as md and plot.
COMPARE3 = ["compare", "--methods", "viete,eulercf,zeta4", "--schedule", "1:60:1",
            "--dp", "30"]
NEWTON40 = ["run", "--method", "newton", "--schedule", "0:80:1", "--dp", "40"]


@pytest.mark.parametrize("argv, digest", [
    (COMPARE3 + ["--format", "plot"],
     "02943dd439abc9c03df6b7eea7e673fc6ba807b2215f5a038184114bb6f939f3"),
    (["compare", "--methods", "leibniz,newton", "--schedule", "1:50:1,100:1000:100",
      "--format", "md"],
     "11bb73637f769e14b6b096122daca2b6c36c7128c3d5e9cb1af2531272cebdc5"),
    (NEWTON40 + ["--format", "md"],
     "c02aaa8fbd59efe50098251d1cea7af223540da79b2e07e2ff009cc76f56826f"),
    (NEWTON40 + ["--format", "plot"],
     "a3d8ed5ba506895c166dc5936798363555dc09a3b351e5b75e89004cb93c7b3c"),
], ids=["compare-plot", "compare-md-merged", "run-md", "run-plot"])
def test_streamed_output_digest(capsys, argv, digest):
    assert _stdout_sha256(capsys, argv) == digest


def test_compare_csv_digest(capsys):
    # elapsed_ns cut off as above; the crossing lines have no comma to cut.
    assert main(COMPARE3 + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.encode().splitlines(keepends=True)
    stripped = b"".join(ln.rsplit(b",", 1)[0].rstrip(b"\n") + b"\n" for ln in lines)
    digest = "a4c5588cd728f4e0d22b4cac8e5808c09088fc9988655a1cc45f9ad43dd457fe"
    assert hashlib.sha256(stripped).hexdigest() == digest
