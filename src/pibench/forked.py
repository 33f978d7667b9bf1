"""Forked child processes: when one may run, and how it reports back.

harness.rows, the one source of printed rows, gives the second half of a
long run or compare schedule to one through ForkedChild, where can_fork
allows it.
"""

from __future__ import annotations

import json
import os
import threading
from collections.abc import Callable, Iterable


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def can_fork() -> bool:
    """Whether a forked child can run beside this process: os.fork exists,
    no other thread is running (a fork could copy a lock one of them
    holds), and two CPUs are usable, so that the child does not just take
    turns with its parent."""
    return (
        hasattr(os, "fork")
        and threading.active_count() == 1
        and usable_cpus() >= 2
    )


class ChildError(RuntimeError):
    """A forked child process failed, or could not be started."""


def _send(fd: int, work: Callable[[], Iterable]) -> int:
    """In the child: each item of work() as one JSON line [true, item] on
    fd, or [false, error text] once work raises. Returns the exit status,
    0 when work finished and 1 when it raised."""
    with open(fd, "w", encoding="utf-8") as pipe:
        try:
            for item in work():
                pipe.write(json.dumps([True, item]) + "\n")
                pipe.flush()
        except Exception as exc:  # the parent raises it, naming the work
            import traceback  # only on this path; it costs set-up time

            text = traceback.format_exception_only(exc)[-1].strip()
            pipe.write(json.dumps([False, text]) + "\n")
            return 1
    return 0


class ForkedChild:
    """work() run in a forked child process, whose items the parent takes
    one at a time with receive().

    The child sends each item through a pipe, and leaves through os._exit
    on every path, so it never returns into the caller's stack and never
    flushes buffers it inherited. It writes to nothing else that the
    parent reads, stdout included. close() kills and reaps the child if it
    is still there, so that no exit path of the parent leaves it behind.
    """

    def __init__(self, what: str, work: Callable[[], Iterable]) -> None:
        self.what = what
        fds = ()
        try:
            fds = read_fd, write_fd = os.pipe()
            self.pid = os.fork()
        except OSError as e:  # EMFILE, EAGAIN or ENOMEM: too many files or processes
            for fd in fds:
                os.close(fd)
            raise ChildError(
                f"{what} could not start its child process: {e.strerror or e}"
            ) from None
        if self.pid == 0:
            status = 1
            try:
                os.close(read_fd)
                status = _send(write_fd, work)
            finally:
                os._exit(status)
        os.close(write_fd)
        self.pipe = open(read_fd, encoding="utf-8")

    def receive(self):
        """The child's next item; ChildError, once the child is reaped, if
        it failed or ended without sending one (a line cut short is one
        the child died writing)."""
        line = self.pipe.readline()
        ok, payload = json.loads(line) if line.endswith("\n") else (False, None)
        if ok:
            return payload
        os.waitpid(self.pid, 0)
        self.pid = None
        raise ChildError(
            f"{self.what} failed in its child process: {payload or 'no output'}"
        )

    def close(self) -> None:
        """Kill and reap the child unless receive() has reaped it."""
        if self.pid is not None:
            import signal  # only on this path; it costs set-up time

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        self.pipe.close()
