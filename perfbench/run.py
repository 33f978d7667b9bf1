#!/usr/bin/env python3
"""pibench benchmark: end-to-end walls and RSS, or a traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, untraced then traced

Run from the root of a source checkout; the program is imported from
``src/``. Each workload is one ``pibench`` CLI command (see README.md).

``--trace 0`` launches the command repeatedly, each time in a fresh child
process with a scrubbed environment, for about S seconds (at least once),
and reports the medians of ``wall_s``, ``setup_s`` and ``peak_rss_mb``.
``wall_s`` and ``setup_s`` are scaled by the machine's speed while the
children ran (see speed.py). Extra set-up-only children run first so
``setup_s`` is a median of many.

``--trace 1`` runs the command twice in this process, untraced and then
with spans on the entry points of each pibench module, and reports the
per-layer split, then the kernel micro-suite. On ``reproduce`` it also
checks the digests of Tables 1-7.

Every output is checked; a failed check counts as a failed operation and
makes the exit code 1. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED = json.loads((HERE / "pinned.json").read_text())

SETUP_ONLY_CHILDREN = 15
CHILD_TIMEOUT_S = 170
CHILD_ENV = {
    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    "PYTHONPATH": "src",
    "PYTHONHASHSEED": "0",
}

METHODS = ("wallis", "leibniz", "newton", "eulercf", "viete",
           "zeta2", "zeta4", "zeta6", "zeta8")
ZETAS = ("zeta2", "zeta4", "zeta6", "zeta8")
TABLE_METHODS = {1: ("wallis",), 2: ("leibniz",), 3: ("newton",),
                 4: ("eulercf",), 5: ("viete",), 6: ZETAS, 7: ZETAS}
SELFTEST_SUMMARY = b"selftest: 111 expected-divergent cells, 0 failures\n"

# The seed picks each schedule's stop from a small fixed range; every stop
# has a pinned digest. The ranges are narrow so cost barely moves with seed.
HIPREC_STOPS = (398, 399, 400, 401, 402)
LONG_STOPS = (99996, 99997, 99998, 99999, 100000)

WORKLOADS = ("reproduce", "hiprec-dense", "long-schedule")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Workload:
    name: str
    cli_args: list[str]
    # Reference contexts built during set-up, as "working:guard" where guard
    # is digits or "auto-N" (the CLI default for a schedule ending at N).
    contexts: list[str]
    stop: int | None = None
    out_file: Path | None = None

    def check(self, stdout: bytes) -> list[str]:
        """Problems with one invocation's output; empty when correct."""
        if self.name == "reproduce":
            problems = []
            if not stdout.endswith(SELFTEST_SUMMARY):
                problems.append("selftest summary line missing or changed")
            if sha256(stdout) != PINNED["reproduce"]:
                problems.append("selftest stdout digest changed")
            return problems
        if self.name == "hiprec-dense":
            if sha256(stdout) != PINNED["hiprec-dense"][str(self.stop)]:
                return [f"compare markdown digest changed (stop {self.stop})"]
            return []
        problems = [] if not stdout else ["run --out also wrote to stdout"]
        lines = self.out_file.read_bytes().splitlines(keepends=True)
        if len(lines) - 1 != self.stop:
            problems.append(f"CSV has {len(lines) - 1} rows, expected {self.stop}")
        # elapsed_ns, the last column, is a timing and differs on every run.
        digest = sha256(b"".join(ln.rsplit(b",", 1)[0] + b"\n" for ln in lines))
        if digest != PINNED["long-schedule"][str(self.stop)]:
            problems.append(f"CSV digest without elapsed_ns changed (stop {self.stop})")
        return problems


def make_workload(name: str, seed: int, tmp: Path) -> Workload:
    if name == "reproduce":
        return Workload(name, ["selftest"], ["15:17", "15:12", "14:12"])
    if name == "hiprec-dense":
        stop = HIPREC_STOPS[seed % len(HIPREC_STOPS)]
        args = ["compare", "--methods", "viete,eulercf,zeta4,zeta8",
                "--schedule", f"1:{stop}:1", "--dp", "150", "--format", "md"]
        return Workload(name, args, [f"150:auto-{stop}"], stop)
    if name == "long-schedule":
        stop = LONG_STOPS[seed % len(LONG_STOPS)]
        out = tmp / "long-schedule.csv"
        args = ["run", "--method", "leibniz", "--schedule", f"1:{stop}:1",
                "--dp", "15", "--format", "csv", "--out", str(out)]
        return Workload(name, args, [f"15:auto-{stop}"], stop, out)
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        for p in problems:
            print(f"CHECK FAILED {what}: {p}", file=sys.stderr)
        if problems:
            self.failed += 1
        return not problems


def unit_of(name: str) -> str:
    if name.endswith("_ns") or "_ns." in name or name.endswith("_ns_per_record"):
        return "ns"
    if name.endswith("_s") or ".run_s." in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("parallelism"):
        return "ratio"
    return "count"


# -- child processes ------------------------------------------------------


@dataclass
class Child:
    code: int
    wall_s: float
    stdout: bytes
    record: dict | None  # what child.py wrote: setup_s, pibench, peak_rss_kib
    speed: float | None = None  # SpeedProbe.factor() while it ran, if probed


def launch(workload: Workload | None, tmp: Path, cli_args: list[str] | None = None) -> Child:
    """One child process, timed from outside; it reports set-up and peak RSS."""
    record_path, stdout_path = tmp / "child.json", tmp / "stdout"
    record_path.unlink(missing_ok=True)
    contexts = workload.contexts if workload else []
    argv = [sys.executable, str(HERE / "child.py"), str(record_path), *contexts,
            "--", *(cli_args or [])]
    # Timed launches run their own speed probe; measure_untraced probes the
    # set-up-only ones as a group.
    probe = SpeedProbe() if cli_args else contextlib.nullcontext()
    with open(stdout_path, "wb") as out, probe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV,
                                stdin=subprocess.DEVNULL, stdout=out)
        # wait() with a timeout polls; a timer keeps the blocking wait exact.
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
            proc.kill()  # no-op once it has exited; stops it on interrupt
            proc.wait()
        wall_s = time.perf_counter() - t0
    record = json.loads(record_path.read_text()) if record_path.exists() else None
    child = Child(code, wall_s, stdout_path.read_bytes(), record)
    if cli_args:
        child.speed = probe.factor()
    return child


def child_problems(child: Child) -> list[str]:
    problems = []
    if child.code != 0:
        problems.append(f"exit code {child.code}")
    if child.record is None:
        problems.append("no set-up record")
    elif not Path(child.record["pibench"]).resolve().is_relative_to(SRC):
        problems.append(f"imported pibench from {child.record['pibench']}, not {SRC}")
    return problems


def measure_untraced(w: Workload, seconds: int, tmp: Path, tally: Tally) -> None:
    # The first child fills the bytecode cache; it is checked, not timed.
    tally.record(f"{w.name} warm-up", child_problems(launch(None, tmp)))
    setups = []
    # The set-up-only children are too short to probe one by one; one probe
    # spans them all.
    with SpeedProbe() as probe:
        for _ in range(SETUP_ONLY_CHILDREN):
            child = launch(w, tmp)
            if tally.record(f"{w.name} set-up", child_problems(child)):
                setups.append(child.record["setup_s"])
    setups = [s * probe.factor() for s in setups]
    walls, raw, rss = [], [], []
    start = time.perf_counter()
    while True:
        child = launch(w, tmp, w.cli_args)
        problems = child_problems(child)
        if not problems:
            problems = w.check(child.stdout)
        if tally.record(w.name, problems):
            walls.append(child.wall_s * child.speed)
            raw.append(child.wall_s)
            rss.append(child.record["peak_rss_kib"] * 1024 / 1e6)
            setups.append(child.record["setup_s"] * child.speed)
        # Start another only if it should end within the run length.
        if time.perf_counter() - start + child.wall_s > seconds:
            break
    if walls:
        tally.metrics["wall_s"] = statistics.median(walls)
        tally.metrics["peak_rss_mb"] = statistics.median(rss)
    if setups:
        tally.metrics["setup_s"] = statistics.median(setups)
    print(f"{w.name}: {len(setups)} set-ups; raw wall -> scaled wall_s of each timed run:",
          " ".join(f"{r:.3f}->{x:.3f}" for r, x in zip(raw, walls)))
    if raw:
        print(f"{w.name}: median raw wall {statistics.median(raw):.4f} s")


# -- traced run ------------------------------------------------------------


def import_pibench():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pibench.cli
    import pibench.fixedpoint
    import pibench.goldens
    import pibench.harness
    import pibench.methods
    import pibench.report
    return pibench


def run_in_process(pb, w: Workload) -> tuple[int, bytes, float, float]:
    """(exit code, stdout, wall s, process CPU s) of cli.main in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0, c0 = time.perf_counter(), time.process_time()
        code = pb.cli.main(list(w.cli_args))
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return code, buf.getvalue().encode(), wall, cpu


def in_process_problems(w: Workload, code: int, stdout: bytes) -> list[str]:
    return [f"exit code {code}"] if code != 0 else w.check(stdout)


def count_golden_cells(tables: dict) -> int:
    cells = 0
    for table in tables.values():
        for row in table["rows"]:
            cells += sum(1 for k in ("value", "err") if k in row)
            cells += sum(len(row[k]) for k in ("values", "errs") if k in row)
    return cells


# Self-time metric of each layer -> the span it is taken from.
LAYERS = {
    "cli.self_s": "cli.main",
    "harness.reference_pi_s": "harness.reference_pi",
    "harness.compare_s": "harness.compare",
    "methods.step_s": "harness.run",
    "methods.value_s": "methods.value",
    "harness.metrics_s": "harness.metrics",
    "report.render_s": "report.render",
    "goldens.audit_s": "goldens.selftest",
}


def layer_metrics(tracer, wall: float, untraced_wall: float, cpu: float) -> dict:
    totals = tracer.totals()
    m: dict = {}

    def self_s(span):
        return totals.get(span + ".self_ns", 0) / 1e9

    def put(metric, span, value):
        if span in tracer.installed:
            m[metric] = value

    for metric, span in LAYERS.items():
        put(metric, span, self_s(span))
    put("harness.reference_pi_calls", "harness.reference_pi",
        totals.get("harness.reference_pi.calls", 0))
    put("methods.steps", "harness.run", totals.get("methods.steps", 0))
    put("harness.records", "harness.run", totals.get("harness.records", 0))
    for method in METHODS:
        put(f"harness.run_s.{method}", "harness.run",
            totals.get(f"harness.run.incl_ns.{method}", 0) / 1e9)
    put("methods.values", "methods.value", totals.get("methods.value.calls", 0))
    put("report.bytes", "report.render", totals.get("report.bytes", 0))
    m["process.cpu_s"] = cpu
    m["process.parallelism"] = cpu / wall
    m["trace.overhead_s"] = wall - untraced_wall
    m["trace.unattributed_s"] = wall - sum(self_s(s) for s in LAYERS.values())
    return m


def goldens_metrics(pb, reports: list) -> dict:
    """Audit counts from what the traced selftest calls returned."""
    m = {
        "goldens.expected_divergent": sum(r.expected_divergent for r in reports),
        "goldens.mismatches": sum(r.mismatches for r in reports),
    }
    try:
        m["goldens.cells_checked"] = count_golden_cells(pb.goldens.load()) * len(reports)
    except (AttributeError, KeyError, TypeError):
        print("trace: goldens.load() has another layout; cells_checked is absent")
    return m


def check_tables(pb, tracer, tmp: Path, tally: Tally) -> None:
    """Table digests from the traced selftest's records; CLI for Tables 4-7."""
    runs = dict(tracer.runs)
    for k, methods in TABLE_METHODS.items():
        pinned = PINNED["tables"][str(k)]
        spec = getattr(getattr(pb.report, "TableSpec", None), "for_table", None)
        if spec and all(m in runs for m in methods):
            records = [r for m in methods for r in runs[m]]
            text = pb.report.render_markdown(records, spec(k))
            digest = sha256(text.encode())
            print(f"table {k} sha256 {digest}")
            tally.record(f"table {k} from selftest records",
                         [] if digest == pinned else ["digest changed"])
        else:
            print(f"table {k}: no run() records or TableSpec.for_table to render it")
        if k >= 4:
            child = launch(None, tmp, ["table", "--id", str(k)])
            problems = child_problems(child)
            if sha256(child.stdout) != pinned:
                problems.append("CLI output digest changed")
            tally.record(f"pibench table --id {k}", problems)


def measure_traced(w: Workload, tmp: Path, tally: Tally) -> None:
    import micro
    from tracer import Tracer

    pb = import_pibench()
    code, stdout, untraced_wall, _ = run_in_process(pb, w)
    tally.record(f"{w.name} untraced in-process", in_process_problems(w, code, stdout))

    tracer = Tracer(capture_runs=w.name == "reproduce")
    tracer.install(pb)
    try:
        with tracer.span("cli.main"):
            code, stdout, wall, cpu = run_in_process(pb, w)
    finally:
        tracer.uninstall()
    tally.record(f"{w.name} traced", in_process_problems(w, code, stdout))
    for name in tracer.missing:
        print(f"trace: entry point {name} not found; its metrics are absent")

    metrics = layer_metrics(tracer, wall, untraced_wall, cpu)
    metrics.update(goldens_metrics(pb, tracer.reports))
    if w.name == "reproduce":
        problems = []
        if (metrics["goldens.expected_divergent"], metrics["goldens.mismatches"]) != (111, 0):
            problems.append("selftest counts are not 111 expected-divergent, 0 mismatches")
        tally.record("goldens audit counts", problems)
        check_tables(pb, tracer, tmp, tally)

    shares = sorted((metrics[k] / wall, k) for k in LAYERS if k in metrics)
    print(f"{w.name}: share of traced wall by layer:",
          ", ".join(f"{k} {share:.1%}" for share, k in reversed(shares)))
    metrics.update(micro.run_suite(pb))
    tally.metrics.update(metrics)


# -- entry point -----------------------------------------------------------


def metadata(seed: int, workload: Workload, trace: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = got.stdout.strip() or None
    threads = None
    with contextlib.suppress(AttributeError):
        threads = import_pibench().harness.default_thread_count()
    return {
        "workload": workload.name, "seed": seed, "stop": workload.stop,
        "trace": trace, "python": platform.python_version(),
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "default_threads": threads, "git_sha": sha,
    }


def measure(name: str, seed: int, seconds: int, trace: int, tally: Tally) -> None:
    tmp = ROOT / ".perfbench_tmp" / f"{os.getpid()}-{name}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        w = make_workload(name, seed, tmp)
        print("meta " + json.dumps(metadata(seed, w, trace)))
        if trace:
            measure_traced(w, tmp, tally)
        else:
            measure_untraced(w, seconds, tmp, tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="default: 0 for one workload, both for all")
    args = p.parse_args(argv)

    if not (SRC / "pibench" / "__init__.py").is_file():
        print(f"perfbench: no pibench sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("PIBENCH_THREADS", None)  # the in-process runs use defaults

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.trace is not None:
        traces = (args.trace,)
    else:
        traces = (0, 1) if args.workload == "all" else (0,)
    tally = Tally()
    metrics = {}
    for name in names:
        for trace in traces:
            part = Tally()
            measure(name, args.seed, args.seconds, trace, part)
            tally.attempted += part.attempted
            tally.failed += part.failed
            for metric, value in part.metrics.items():
                print(f"{name} {metric} = {value:.6g} {unit_of(metric)}")
                key = metric if len(names) == 1 else f"{name}.{metric}"
                metrics[key] = {"value": value, "unit": unit_of(metric)}

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
