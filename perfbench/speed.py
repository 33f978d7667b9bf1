"""The machine's speed while a child runs, read from a fixed chunk of work.

This VM's speed is not steady: a fixed CPU loop timed back to back varies by
up to 1.5x, in phases that last from seconds to minutes, because the host
shares its cores (the kernel counts part of it as steal time). A child's
wall time moves with those phases, so two runs of the same code minutes
apart can differ by a third. Scaling each child's wall time by how fast a
fixed chunk of pure-Python integer work runs at the same moment removes
most of that, whatever the program does.

``SpeedProbe`` is used as a context manager around one child. A thread of
the benchmark's own process runs ``chunk()`` every ``PERIOD_S`` seconds
while the child runs, about a tenth of one core, and keeps each chunk's
on-CPU time: its wall time minus the time the thread waited in this VM's
run queue (``/proc/self/task/<tid>/schedstat``). Waiting for the child's
own threads is left out, so the probe reads the host, not the child's
scheduling; time the host takes the CPU away (steal) and a slower core
are kept. ``factor()`` is ``REF_CHUNK_S`` divided by the median: above 1
when the machine runs faster than the reference, below 1 when slower.
"""

from __future__ import annotations

import statistics
import threading
import time

PERIOD_S = 0.1
# A fixed reference for chunk()'s on-CPU time, about its median on a 2-vCPU
# Xeon VM with CPython 3.11.7 while a child runs. It sets the unit of scaled
# times, which come out near the raw walls on that machine, not their ratios.
REF_CHUNK_S = 0.0075

_S32 = 10 ** 32  # the table scale, 32 digits
_S162 = 10 ** 162  # the dp150 scale, 162 digits
_S324 = 2 * _S162 * _S162  # what a square root at that scale divides


def chunk() -> int:
    """Fixed work like pibench's (7-13 ms): about half interpreter-bound
    small big-int steps, half 324-by-162-digit divisions as in a root."""
    acc = 0
    for i in range(1, 22_000):
        acc += _S32 * i // (i + 7)
    for i in range(1, 3_000):
        acc += _S324 // (_S162 + i)
    return acc


def _run_queue_wait_s() -> float:
    """Time this thread has spent runnable but waiting for a CPU."""
    with open(f"/proc/self/task/{threading.get_native_id()}/schedstat") as f:
        return int(f.read().split()[1]) / 1e9


class SpeedProbe:
    def __init__(self) -> None:
        self.chunk_s: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while True:
            q0, t0 = _run_queue_wait_s(), time.perf_counter()
            chunk()
            wall = time.perf_counter() - t0
            self.chunk_s.append(wall - (_run_queue_wait_s() - q0))
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self) -> float:
        return REF_CHUNK_S / statistics.median(self.chunk_s)
