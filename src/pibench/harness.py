"""Reference value, error metrics, sampling runs and method comparisons."""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .fixedpoint import (
    BigFixed,
    PrecisionCtx,
    _div_half_even,
    fx_parse,
    fx_round,
    fx_to_string,
    fx_truncate_string,
)
from .methods import (
    MethodId,
    ZETA_METHODS,
    NewtonArcsineState,
    make_state,
)

# 15-decimal-place integrity anchor; every computed or supplied reference
# must reproduce these digits under truncation or the run aborts.
PI_15DP = "3.141592653589793"


class ReferenceIntegrityError(Exception):
    """The reference value failed its 15-digit integrity check."""


@dataclass(frozen=True)
class ReferencePi:
    value: BigFixed
    provenance: str  # "computed" | "user-literal"
    ctx: PrecisionCtx
    _terms_by_scale: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @cached_property
    def _unit(self) -> int:
        """10**ctx.scale, a ratio of 1 at the context scale."""
        return 10 ** self.ctx.scale

    def _terms(self, scale: int) -> tuple[int, int, int, int]:
        """The powers of ten the metrics need for a sample of this scale,
        computed once per scale: (a, b) with x/value at the context scale
        equal to x.significand * a / b, and (c, d) with |x| * 10**working_dp
        truncated equal to |x.significand| * c // d."""
        terms = self._terms_by_scale.get(scale)
        if terms is None:
            e = self.ctx.scale + self.value.scale - scale
            t = scale - self.ctx.working_dp
            terms = (10 ** max(e, 0), self.value.significand * 10 ** max(-e, 0),
                     10 ** max(-t, 0), 10 ** max(t, 0))
            self._terms_by_scale[scale] = terms
        return terms

    @cached_property
    def _truncated(self) -> int:
        """The value times 10**working_dp, truncated: what digits_correct
        compares every sample with."""
        _, _, c, d = self._terms(self.value.scale)
        return self.value.significand * c // d


def _check_prefix(value: BigFixed, what: str) -> None:
    got = fx_truncate_string(value, 15)
    if got != PI_15DP:
        raise ReferenceIntegrityError(
            f"{what} fails the 15-digit integrity check: {got} != {PI_15DP}"
        )


def reference_pi(ctx: PrecisionCtx, literal: str | None = None) -> ReferencePi:
    """Reference value of pi at the context scale.

    Computed mode sums the arcsine series until two successive partial
    sums agree to max(working_dp, 13) + 2 digits, then validates the first
    15 fractional digits against the known constant and rounds to the
    context scale. Literal mode validates and wraps a caller-supplied
    decimal string.
    """
    if literal is not None:
        v = fx_parse(literal)
        if not (BigFixed(3) < v < BigFixed(4)):
            raise ReferenceIntegrityError(f"reference literal {literal!r} not in (3, 4)")
        _check_prefix(v, f"reference literal {literal!r}")
        if v.scale < ctx.scale:
            v = fx_round(v, ctx.scale)
        return ReferencePi(v, "user-literal", ctx)

    # Stationarity is judged at working + 2 digits, which needs at least
    # that many internal digits regardless of the caller's guard setting.
    # The 15-digit check needs working >= 13: a sum stationary at fewer
    # digits can still be off in the 15th.
    working = max(ctx.working_dp, 13)
    state = NewtonArcsineState(PrecisionCtx(working, max(ctx.guard_dp, 5)))
    agree_dp = working + 2
    prev = None
    for _ in range(4 * working + 64):
        state.step()
        cur = state.value()
        if prev is not None and fx_round(cur, agree_dp) == fx_round(prev, agree_dp):
            _check_prefix(cur, "computed reference")
            return ReferencePi(fx_round(cur, ctx.scale), "computed", ctx)
        prev = cur
    raise ReferenceIntegrityError("reference series failed to become stationary")


def pct_error(x: BigFixed, ref: ReferencePi) -> tuple[BigFixed, BigFixed]:
    """(signed, absolute) percentage error: signed = (1 - x/ref) * 100.

    x/ref is rounded half-even at the context scale S; the rest is exact
    there, so signed = 100 * (10**S - round(x * 10**S / ref)) * 10**-S.
    The reference is positive (reference_pi keeps it in (3, 4)).
    """
    a, b, _, _ = ref._terms(x.scale)
    signed = BigFixed(
        100 * (ref._unit - _div_half_even(x.significand * a, b)), ref.ctx.scale
    )
    return signed, signed if signed.significand >= 0 else -signed


def digits_correct(x: BigFixed, ref: ReferencePi) -> int:
    """Matching leading fractional digits, both truncated at working_dp.

    0 when the integer parts differ, which includes any negative x: the
    reference is positive.
    """
    if x.significand < 0:
        return 0
    dp = ref.ctx.working_dp
    _, _, c, d = ref._terms(x.scale)
    a, b = x.significand * c // d, ref._truncated
    if a == b:
        return dp
    # k is the fewest trailing digits whose removal makes a and b agree.
    # It is at least the digit count of |a - b|, and more when a carry runs
    # through the difference (3.199 against 3.200).
    k = len(str(abs(a - b)))
    p = 10 ** k
    while k <= dp and a // p != b // p:
        k += 1
        p *= 10
    return max(dp - k, 0)


class Schedule:
    """Sample indices: the sorted union, without repeats, of one or more
    runs. A run is a range with a positive step or a strictly increasing
    sequence, non-empty and non-negative. Ranges are kept as ranges, so a
    schedule costs the same memory at any length, and it can be iterated
    any number of times."""

    __slots__ = ("_runs",)

    def __init__(self, *runs: range | Iterable[int]) -> None:
        if not runs:
            raise ValueError("schedule must be non-empty")
        checked = []
        for points in runs:
            if isinstance(points, range):
                if points.step < 1:
                    raise ValueError("schedule must be strictly increasing")
            else:
                points = tuple(points)
                if any(b <= a for a, b in zip(points, points[1:])):
                    raise ValueError("schedule must be strictly increasing")
            if not points:  # never len(): a range may exceed sys.maxsize
                raise ValueError("schedule must be non-empty")
            if points[0] < 0:
                raise ValueError("schedule indices must be non-negative")
            checked.append(points)
        self._runs = tuple(checked)

    @property
    def first(self) -> int:
        return min(points[0] for points in self._runs)

    @property
    def max_n(self) -> int:
        return max(points[-1] for points in self._runs)

    def __iter__(self) -> Iterator[int]:
        if len(self._runs) == 1:
            return iter(self._runs[0])
        return _distinct(self._runs)

    def __repr__(self) -> str:
        return f"Schedule{self._runs!r}"


def _distinct(runs) -> Iterator[int]:
    """The sorted union of increasing runs, each point once."""
    import heapq  # not at start-up: a one-run schedule never merges

    last = None
    for n in heapq.merge(*runs):
        if n != last:
            yield n
            last = n


class RunRecord(NamedTuple):
    method: MethodId
    n: int
    value: BigFixed
    signed_err_pct: BigFixed
    abs_err_pct: BigFixed
    digits_correct: int
    elapsed_ns: int
    working_dp: int

    def value_str(self, dp: int) -> str:
        return fx_to_string(self.value, dp)


def run(
    method: MethodId,
    schedule: Schedule,
    ctx: PrecisionCtx,
    ref: ReferencePi | None = None,
) -> Iterator[RunRecord]:
    """One incremental pass, yielding a record at each scheduled n.

    The arguments are checked, and the reference built, when run is called;
    the records are computed as they are taken.
    """
    method = MethodId(method)
    if ref is None:
        ref = reference_pi(ctx)
    state = make_state(method, ctx)
    if schedule.first < state.min_index:
        raise ValueError(
            f"{method.value} is defined for n >= {state.min_index}"
        )
    return _records(method, state, schedule, ctx, ref)


def _records(
    method: MethodId,
    state,
    schedule: Schedule,
    ctx: PrecisionCtx,
    ref: ReferencePi,
) -> Iterator[RunRecord]:
    # The clock runs only while this body does, so the time a consumer
    # spends between records is not in elapsed_ns.
    advance_to, value_of, clock = state.advance_to, state.value, time.perf_counter_ns
    working_dp = ctx.working_dp
    elapsed = 0
    start = clock()
    for target in schedule:
        advance_to(target)
        value = value_of()
        sampled = elapsed + clock() - start
        signed, absolute = pct_error(value, ref)
        record = RunRecord(
            method, target, value, signed, absolute,
            digits_correct(value, ref), sampled, working_dp,
        )
        elapsed += clock() - start
        yield record
        start = clock()


# The source study's five pairwise comparisons, addressable by name.
PAIRINGS = {
    "leibniz-vs-newton": (MethodId.LEIBNIZ, MethodId.NEWTON_ARCSINE),
    "viete-vs-eulercf": (MethodId.VIETE, MethodId.EULER_CF),
    "wallis-vs-newton": (MethodId.WALLIS, MethodId.NEWTON_ARCSINE),
    "wallis-vs-zeta2": (MethodId.WALLIS, MethodId.ZETA2),
    "newton-vs-zeta8": (MethodId.NEWTON_ARCSINE, MethodId.ZETA8),
}

DEFAULT_THRESHOLDS = ("1", "0.1", "0.01")


def compare(
    methods: list[MethodId],
    schedule: Schedule,
    ctx: PrecisionCtx,
    thresholds: tuple[BigFixed, ...] | None = None,
) -> tuple[dict, dict]:
    """Runs of several methods on one schedule, and their crossovers.

    Returns (records, crossings), both keyed by method in the given order:
    each method's records, and for each threshold (threshold, smallest
    sampled n with abs error below it, or None).
    """
    methods = tuple(MethodId(m) for m in methods)
    if len(methods) < 2:
        raise ValueError("compare needs at least two methods")
    if len(set(methods)) != len(methods):
        raise ValueError("compare takes each method once")
    if thresholds is None:
        thresholds = tuple(fx_parse(t) for t in DEFAULT_THRESHOLDS)
    thresholds = tuple(thresholds)
    if not thresholds or any(
        not (b < a) for a, b in zip(thresholds, thresholds[1:])
    ):
        raise ValueError("thresholds must be strictly decreasing")
    if any(t.significand <= 0 for t in thresholds):
        raise ValueError("thresholds must be positive")

    ref = reference_pi(ctx)
    records = {m: list(run(m, schedule, ctx, ref)) for m in methods}

    crossings = {}
    for m in methods:
        per_method = []
        for t in thresholds:
            hit = next((r.n for r in records[m] if r.abs_err_pct < t), None)
            per_method.append((t, hit))
        crossings[m] = per_method
    return records, crossings


# The published tables: the one registry of their methods, schedules,
# precision and printed columns. A column is (record field, header), where
# "{method}" in the header is replaced by the method id.
ERR_DP = 5  # decimal places of every printed error percentage

_VALUE_AND_ERR = (("value", "{method}"), ("err", "Error (%)"))


@dataclass(frozen=True)
class TablePreset:
    table_id: int
    methods: tuple[MethodId, ...]
    schedule: Schedule
    working_dp: int
    guard_dp: int
    value_dp: int
    err_dp: int = ERR_DP
    columns: tuple[tuple[str, str], ...] = _VALUE_AND_ERR

    @property
    def ctx(self) -> PrecisionCtx:
        return PrecisionCtx(self.working_dp, self.guard_dp)


# One run each: a schedule of several runs merges them with heapq, whose
# import would add ≈50 kB to every selftest.
_SCHED_LARGE = Schedule(tuple(range(5, 101, 5)) + (10**3, 10**4, 10**5, 10**6, 10**7))
_SCHED_SMALL = Schedule(tuple(range(1, 11)) + tuple(range(15, 101, 5)))
_SCHED_MID = Schedule(range(5, 101, 5))

TABLE_PRESETS = {
    1: TablePreset(1, (MethodId.WALLIS,), _SCHED_LARGE, 15, 17, 15),
    2: TablePreset(2, (MethodId.LEIBNIZ,), _SCHED_LARGE, 15, 17, 15),
    3: TablePreset(3, (MethodId.NEWTON_ARCSINE,), _SCHED_LARGE, 15, 17, 15),
    4: TablePreset(4, (MethodId.EULER_CF,), _SCHED_SMALL, 15, 12, 15),
    5: TablePreset(5, (MethodId.VIETE,), _SCHED_SMALL, 15, 12, 15),
    6: TablePreset(6, ZETA_METHODS, _SCHED_MID, 14, 12, 14,
                   columns=(("value", "{method}"),)),
    7: TablePreset(7, ZETA_METHODS, _SCHED_MID, 14, 12, 14,
                   columns=(("err", "{method}"),)),
}


def run_table(table_id: int) -> list[RunRecord]:
    """Records of every method of a published table, in registry order."""
    preset = TABLE_PRESETS[table_id]
    ref = reference_pi(preset.ctx)
    return [
        r for m in preset.methods for r in run(m, preset.schedule, preset.ctx, ref)
    ]
