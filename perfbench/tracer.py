"""Spans around pibench's public entry points, installed from outside.

The tracer replaces entry-point functions (and every name that was bound to
them by ``from .x import y``) with timing wrappers for the length of one
traced run, then puts the originals back. Nothing in ``src/`` is edited.

Time is thread CPU time (``time.thread_time_ns``). ``compare`` and
``selftest`` run methods on a thread pool under the interpreter lock, so a
span's wall duration would include the time its thread waited for the lock;
its CPU time is the work it did. A span's self time is its CPU time minus
the CPU time of the spans nested inside it on the same thread.

Calls made inside a leaf span (``harness.reference_pi``) are not traced:
they count in the leaf.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time
from collections.abc import Iterator


def _method_name(args, kwargs) -> str:
    m = args[0] if args else kwargs.get("method")
    return str(getattr(m, "value", m))


class _Frame:
    __slots__ = ("self_key", "leaf", "child", "start")

    def __init__(self, name: str, leaf: bool) -> None:
        self.self_key = name + ".self_ns"
        self.leaf = leaf
        self.child = 0
        self.start = time.thread_time_ns()


class _Thread:
    """One thread's open spans and running totals."""

    __slots__ = ("stack", "totals")

    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.totals: dict[str, int] = {}

    def close(self, frame: _Frame) -> int:
        """Close the innermost span; return its inclusive CPU ns."""
        dur = time.thread_time_ns() - frame.start
        stack = self.stack
        stack.pop()
        if stack:
            stack[-1].child += dur
        totals = self.totals
        totals[frame.self_key] = totals.get(frame.self_key, 0) + dur - frame.child
        return dur


class Tracer:
    """Per-thread span stacks; totals merged when the run ends."""

    def __init__(self, capture_runs: bool = False) -> None:
        self.capture_runs = capture_runs
        self.runs: list[tuple[str, list]] = []  # (method, records) when captured
        self.reports: list = []  # what goldens.selftest returned
        self.installed: set[str] = set()  # span names that have a wrapper
        self.missing: list[str] = []
        self._local = threading.local()
        self._threads: list[_Thread] = []
        self._threads_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _thread(self) -> _Thread:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _Thread()
            with self._threads_lock:
                self._threads.append(state)
            return state

    def add(self, key: str, amount) -> None:
        totals = self._thread().totals
        totals[key] = totals.get(key, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str):
        self.installed.add(name)
        state = self._thread()
        frame = _Frame(name, False)
        state.stack.append(frame)
        try:
            yield
        finally:
            state.close(frame)

    def totals(self) -> dict:
        merged: dict = {}
        with self._threads_lock:
            for state in self._threads:
                for k, v in state.totals.items():
                    merged[k] = merged.get(k, 0) + v
        return merged

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, leaf=False, on_call=None, on_item=None, on_done=None):
        """Span around fn. A returned iterator is timed on each resumption."""
        thread = self._thread
        calls_key = name + ".calls"

        def timed_iter(it, incl, ctx):
            state = thread()
            while True:
                frame = _Frame(name, leaf)
                state.stack.append(frame)
                try:
                    item = next(it)
                except StopIteration:
                    incl += state.close(frame)
                    break
                incl += state.close(frame)
                if on_item:
                    on_item(ctx, item)
                yield item
            if on_done:
                on_done(ctx, incl)

        def wrapper(*args, **kwargs):
            state = thread()
            stack = state.stack
            if stack and stack[-1].leaf:
                return fn(*args, **kwargs)
            ctx = on_call(args, kwargs) if on_call else None
            frame = _Frame(name, leaf)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                incl = state.close(frame)
            totals = state.totals
            totals[calls_key] = totals.get(calls_key, 0) + 1
            if isinstance(result, Iterator):
                return timed_iter(result, incl, ctx)
            if on_item:
                for item in result if isinstance(result, list) else (result,):
                    on_item(ctx, item)
            if on_done:
                on_done(ctx, incl)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, original, replacement) -> None:
        """Rebind every pibench module global that names `original`."""
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("pibench"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def wrap_function(self, module, attr: str, name: str, **hooks) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._replace(original, self._wrap(original, name, **hooks))
        self.installed.add(name)

    def wrap_method(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(original, name))
        self._patches.append((cls, attr, original))
        self.installed.add(name)

    def install(self, pb) -> None:
        """Wrap the entry points of the pibench modules in namespace `pb`."""
        harness, methods, report, goldens = pb.harness, pb.methods, pb.report, pb.goldens

        def run_call(args, kwargs):
            return {"method": _method_name(args, kwargs), "last_n": 0, "records": []}

        def run_item(ctx, record):
            self.add("harness.records", 1)
            ctx["last_n"] = getattr(record, "n", ctx["last_n"])
            if self.capture_runs:
                ctx["records"].append(record)

        def run_done(ctx, incl):
            self.add("methods.steps", ctx["last_n"])
            self.add("harness.run.incl_ns." + ctx["method"], incl)
            if self.capture_runs:
                self.runs.append((ctx["method"], ctx["records"]))

        def render_item(ctx, text):
            self.add("report.bytes", len(text.encode()))

        self.wrap_function(harness, "reference_pi", "harness.reference_pi", leaf=True)
        self.wrap_function(
            harness, "run", "harness.run",
            on_call=run_call, on_item=run_item, on_done=run_done,
        )
        self.wrap_function(harness, "compare", "harness.compare")
        self.wrap_function(harness, "pct_error", "harness.metrics")
        self.wrap_function(harness, "digits_correct", "harness.metrics")
        for attr in ("render_markdown", "render_csv", "render_plot_data"):
            self.wrap_function(report, attr, "report.render", on_item=render_item)
        self.wrap_function(
            goldens, "selftest", "goldens.selftest",
            on_item=lambda ctx, report: self.reports.append(report),
        )

        base = getattr(methods, "ApproximantState", None)
        if base is None:
            self.missing.append("pibench.methods.ApproximantState")
            return
        todo, seen = list(base.__subclasses__()), set()
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if "value" in cls.__dict__:
                self.wrap_method(cls, "value", "methods.value")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
