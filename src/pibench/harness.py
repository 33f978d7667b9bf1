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
from .methods import MethodId, ZETA_METHODS, check_index, make_state

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


def _atan_inv(x: int, one: int) -> int:
    """atan(1/x) * one in integers: the alternating series
    sum (-1)**j / (k * x**k), k = 2j + 1, with each term floored.

    power carries floor(one / x**k); as floor(floor(a / b) / c) equals
    floor(a / (b * c)), power // k is exactly floor(one / (k * x**k)). The
    sum stops when power reaches 0, after which every term is 0.
    """
    total, sign, k, power, x2 = 0, 1, 1, one // x, x * x
    while power:
        total += sign * (power // k)
        power //= x2
        sign, k = -sign, k + 2
    return total


def reference_pi(ctx: PrecisionCtx, literal: str | None = None) -> ReferencePi:
    """Reference value of pi at the context scale c, from no method under
    test.

    Computed mode sums Machin's formula, pi = 16 atan(1/5) - 4 atan(1/239),
    in integers at an inner scale s (see _atan_inv), checks the first 15
    fractional digits of that unrounded sum against the known constant, and
    rounds it half-even to c. Literal mode validates and wraps a
    caller-supplied decimal string.

    Bound in ulps u = 10^-s, after Brent & Zimmermann (2010), 4.2. Each of
    the n_x terms of atan(1/x) is floored, so off by under 1 u, and the tail
    of an alternating series is below its first dropped term, under 1 u.
    The sum is therefore within 16 (n_5 + 1) + 4 (n_239 + 1) u of pi. As
    n_x <= s / (2 log10 x) + 1/2, that is n_5 <= 0.716 s + 1/2 and
    n_239 <= 0.211 s + 1/2, the error is under 12.3 s + 30 u. With

        s = max(c, 15) + len(str(20 c)) + 1,

    10^(s - c - 1) > 20 c >= 12.3 s + 30 for every c >= 15, so the sum is
    within 0.1 ulp of pi at scale c; for c < 15, s is 18 or 19 and the
    error is under 0.003 ulp of c. The rounded reference is within 0.6 ulp
    of pi. Measured: 0.497 ulp worst over working_dp 1-30, 150, 400 and
    1000 with guard_dp 0-15. The sums at s = 18 and 19 are 13.5 u above
    and 12.6 u below pi, well inside the 15-digit check.
    """
    if literal is not None:
        v = fx_parse(literal)
        if not (BigFixed(3) < v < BigFixed(4)):
            raise ReferenceIntegrityError(f"reference literal {literal!r} not in (3, 4)")
        _check_prefix(v, f"reference literal {literal!r}")
        if v.scale < ctx.scale:
            v = fx_round(v, ctx.scale)
        return ReferencePi(v, "user-literal", ctx)

    s = max(ctx.scale, 15) + len(str(20 * ctx.scale)) + 1
    one = 10 ** s
    pi = BigFixed(16 * _atan_inv(5, one) - 4 * _atan_inv(239, one), s)
    _check_prefix(pi, "computed reference")
    return ReferencePi(fx_round(pi, ctx.scale), "computed", ctx)


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
    check_index(method, schedule.first)
    if ref is None:
        ref = reference_pi(ctx)
    return _records(method, make_state(method, ctx), schedule, ctx, ref)


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


def compare_args(
    methods: list[MethodId],
    schedule: Schedule,
    thresholds: tuple[BigFixed, ...] | None = None,
) -> tuple[tuple[MethodId, ...], tuple[BigFixed, ...]]:
    """(methods, thresholds) as tuples, the default thresholds filled in;
    ValueError unless there are two or more methods, none repeated, each
    defined at the schedule's first n, and the thresholds are positive and
    strictly decreasing."""
    methods = tuple(MethodId(m) for m in methods)
    if len(methods) < 2:
        raise ValueError("compare needs at least two methods")
    if len(set(methods)) != len(methods):
        raise ValueError("compare takes each method once")
    for m in methods:
        check_index(m, schedule.first)
    if thresholds is None:
        thresholds = tuple(fx_parse(t) for t in DEFAULT_THRESHOLDS)
    thresholds = tuple(thresholds)
    if any(t.significand <= 0 for t in thresholds):
        raise ValueError("thresholds must be positive")
    if not thresholds or any(b >= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be strictly decreasing")
    return methods, thresholds


def compare(
    methods: list[MethodId],
    schedule: Schedule,
    ctx: PrecisionCtx,
    thresholds: tuple[BigFixed, ...] | None = None,
) -> tuple[dict, dict]:
    """Runs of several methods on one schedule, and their crossovers.

    Returns (records, crossings), both keyed by method in the given order:
    each method's records, and for each threshold (threshold, smallest
    sampled n with abs error below it, or None). Every argument is checked
    (see compare_args) before any method runs.
    """
    methods, thresholds = compare_args(methods, schedule, thresholds)
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
    methods: tuple[MethodId, ...]
    schedule: Schedule
    working_dp: int  # also the printed value digits
    guard_dp: int
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
    1: TablePreset((MethodId.WALLIS,), _SCHED_LARGE, 15, 17),
    2: TablePreset((MethodId.LEIBNIZ,), _SCHED_LARGE, 15, 17),
    3: TablePreset((MethodId.NEWTON_ARCSINE,), _SCHED_LARGE, 15, 17),
    4: TablePreset((MethodId.EULER_CF,), _SCHED_SMALL, 15, 12),
    5: TablePreset((MethodId.VIETE,), _SCHED_SMALL, 15, 12),
    6: TablePreset(ZETA_METHODS, _SCHED_MID, 14, 12, columns=(("value", "{method}"),)),
    7: TablePreset(ZETA_METHODS, _SCHED_MID, 14, 12, columns=(("err", "{method}"),)),
}


def run_table(table_id: int) -> list[RunRecord]:
    """Records of every method of a published table, in registry order."""
    preset = TABLE_PRESETS[table_id]
    ref = reference_pi(preset.ctx)
    return [
        r for m in preset.methods for r in run(m, preset.schedule, preset.ctx, ref)
    ]
