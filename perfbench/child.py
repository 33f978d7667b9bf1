"""One timed pibench invocation, run as a child process by run.py.

    python3 perfbench/child.py SETUP_OUT [W:G ...] -- [pibench CLI args]

W:G is a reference context, working and guard digits; G may be ``auto-N``,
the CLI's default guard for a schedule whose largest point is N.

Set-up time runs from the first statement of this file (so interpreter
launch is left out) until ``pibench`` is imported, ``goldens.load()`` has
returned and ``reference_pi`` has been built for each context the
workload uses. It is written to SETUP_OUT as
JSON with the peak RSS of the run, read from ``VmHWM`` once the CLI has
returned; the CLI's exit code is this process's exit code. With no CLI
arguments only set-up is measured.

Peak RSS is taken here rather than from ``wait4``: on Linux a child's
``ru_maxrss`` starts at the parent's peak, because the parent's address
space is accounted to the child until ``exec``.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    setup_out, contexts, cli_args = argv[0], argv[1:sep], argv[sep + 1:]

    import pibench
    from pibench import cli, goldens

    goldens.load()
    for spec in contexts:
        working, guard = spec.split(":")
        if guard.startswith("auto-"):
            guard = pibench.default_guard(int(guard[len("auto-"):]))
        pibench.reference_pi(pibench.PrecisionCtx(int(working), int(guard)))
    setup_s = time.perf_counter() - T0

    code = cli.main(cli_args) if cli_args else 0
    record = {"setup_s": setup_s, "pibench": pibench.__file__,
              "peak_rss_kib": peak_rss_kib()}
    with open(setup_out, "w") as f:
        json.dump(record, f)
    return code


def peak_rss_kib() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
