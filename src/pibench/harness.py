"""Reference value, error metrics, sampling runs and method comparisons."""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def _truncated(self) -> int:
        """The value times 10**working_dp, truncated: what digits_correct
        compares every sample with."""
        return _truncate(self.value, self.ctx.working_dp)


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


def _truncate(x: BigFixed, dp: int) -> int:
    """|x| * 10**dp truncated to an integer."""
    shift = x.scale - dp
    sig = abs(x.significand)
    return sig // 10 ** shift if shift >= 0 else sig * 10 ** -shift


def pct_error(x: BigFixed, ref: ReferencePi) -> tuple[BigFixed, BigFixed]:
    """(signed, absolute) percentage error: signed = (1 - x/ref) * 100.

    x/ref is rounded half-even at the context scale S; the rest is exact
    there, so signed = 100 * (10**S - round(x * 10**S / ref)) * 10**-S.
    The reference is positive (reference_pi keeps it in (3, 4)).
    """
    scale = ref.ctx.scale
    r = ref.value
    num, den = x.significand, r.significand
    e = scale + r.scale - x.scale
    if e >= 0:
        num *= 10 ** e
    else:
        den *= 10 ** -e
    signed = BigFixed(100 * (10 ** scale - _div_half_even(num, den)), scale)
    return signed, abs(signed)


def digits_correct(x: BigFixed, ref: ReferencePi) -> int:
    """Matching leading fractional digits, both truncated at working_dp.

    0 when the integer parts differ, which includes any negative x: the
    reference is positive.
    """
    if x.significand < 0:
        return 0
    dp = ref.ctx.working_dp
    a, b = _truncate(x, dp), ref._truncated
    if a == b:
        return dp
    # k is the fewest trailing digits whose removal makes a and b agree.
    # It is at least the digit count of |a - b|, and more when a carry runs
    # through the difference (3.199 against 3.200).
    k = len(str(abs(a - b)))
    while k <= dp and a // 10 ** k != b // 10 ** k:
        k += 1
    return max(dp - k, 0)


@dataclass(frozen=True)
class Schedule:
    points: tuple[int, ...]

    def __post_init__(self) -> None:
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("schedule must be non-empty")
        if any(n < 0 for n in pts):
            raise ValueError("schedule indices must be non-negative")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("schedule must be strictly increasing")

    def __iter__(self):
        return iter(self.points)

    @property
    def max_n(self) -> int:
        return self.points[-1]


@dataclass(frozen=True)
class RunRecord:
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
    if schedule.points[0] < state.min_index:
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
    elapsed = 0
    start = time.perf_counter_ns()
    for target in schedule:
        state.advance_to(target)
        value = state.value()
        sampled = elapsed + time.perf_counter_ns() - start
        signed, absolute = pct_error(value, ref)
        record = RunRecord(
            method=method,
            n=target,
            value=value,
            signed_err_pct=signed,
            abs_err_pct=absolute,
            digits_correct=digits_correct(value, ref),
            elapsed_ns=sampled,
            working_dp=ctx.working_dp,
        )
        elapsed += time.perf_counter_ns() - start
        yield record
        start = time.perf_counter_ns()


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


_SCHED_LARGE = Schedule(tuple(range(5, 101, 5)) + (10**3, 10**4, 10**5, 10**6, 10**7))
_SCHED_SMALL = Schedule(tuple(range(1, 11)) + tuple(range(15, 101, 5)))
_SCHED_MID = Schedule(tuple(range(5, 101, 5)))

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
