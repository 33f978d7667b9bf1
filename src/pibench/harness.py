"""Reference value, error metrics, sampling runs and method comparisons."""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

from .fixedpoint import (
    BigFixed,
    PrecisionCtx,
    _div_half_even,
    _fixed,
    default_guard,
    fx_parse,
    fx_round,
    fx_to_string,
    fx_truncate_string,
)
from .methods import MethodId, ZETA_METHODS, check_index, make_state

# 15-decimal-place integrity anchor; the computed reference must reproduce
# these digits under truncation or the run aborts.
PI_15DP = "3.141592653589793"


class ReferenceIntegrityError(Exception):
    """The reference value failed its 15-digit integrity check."""


class _ScaleTerms(dict):
    """Sample scale -> the integers both metrics need for a sample of that
    scale, computed on its first use:

        (a, b, unit, scale, c, d, truncated, working_dp)

    x / value at the context scale is x.significand * a / b, and unit is
    10**scale, a ratio of 1 there; |x| * 10**working_dp truncated is
    |x.significand| * c // d, and truncated is that integer of the value
    itself. ctx.scale and working_dp are read here, once per scale.
    """

    __slots__ = ("_value", "_ctx")

    def __init__(self, value: BigFixed, ctx: PrecisionCtx) -> None:
        super().__init__()
        self._value, self._ctx = value, ctx

    def __missing__(self, scale: int) -> tuple[int, ...]:
        v, s, dp = self._value, self._ctx.scale, self._ctx.working_dp
        e = s + v.scale - scale
        a, b = 10 ** max(e, 0), v.significand * 10 ** max(-e, 0)
        t = scale - dp
        c, d = 10 ** max(-t, 0), 10 ** max(t, 0)
        t = v.scale - dp
        truncated = v.significand * 10 ** max(-t, 0) // 10 ** max(t, 0)
        terms = self[scale] = (a, b, 10 ** s, s, c, d, truncated, dp)
        return terms


@dataclass(frozen=True)
class ReferencePi:
    value: BigFixed
    ctx: PrecisionCtx
    _terms: _ScaleTerms = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_terms", _ScaleTerms(self.value, self.ctx))


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


def reference_pi(ctx: PrecisionCtx) -> ReferencePi:
    """Reference value of pi at the context scale c, from no method under
    test.

    Sums Machin's formula, pi = 16 atan(1/5) - 4 atan(1/239), in integers
    at an inner scale s (see _atan_inv), checks the first 15 fractional
    digits of that unrounded sum against the known constant, and rounds it
    half-even to c.

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
    1000 with 0-15 guard digits. The sums at s = 18 and 19 are 13.5 u above
    and 12.6 u below pi, well inside the 15-digit check.
    """
    s = max(ctx.scale, 15) + len(str(20 * ctx.scale)) + 1
    one = 10 ** s
    pi = BigFixed(16 * _atan_inv(5, one) - 4 * _atan_inv(239, one), s)
    got = fx_truncate_string(pi, 15)
    if got != PI_15DP:
        raise ReferenceIntegrityError(
            f"computed reference fails the 15-digit integrity check: {got} != {PI_15DP}"
        )
    return ReferencePi(fx_round(pi, ctx.scale), ctx)


def pct_error(x: BigFixed, ref: ReferencePi) -> tuple[BigFixed, BigFixed]:
    """(signed, absolute) percentage error: signed = (1 - x/ref) * 100.

    x/ref is rounded half-even at the context scale S; the rest is exact
    there, so signed = 100 * (10**S - round(x * 10**S / ref)) * 10**-S.
    The reference is positive (reference_pi checks that it begins 3.14).
    """
    a, b, unit, scale, _, _, _, _ = ref._terms[x.scale]
    sig = 100 * (unit - _div_half_even(x.significand * a, b))
    signed = _fixed(sig, scale)
    return signed, signed if sig >= 0 else _fixed(-sig, scale)


def digits_correct(x: BigFixed, ref: ReferencePi) -> int:
    """Matching leading fractional digits, both truncated at working_dp.

    0 when the integer parts differ, which includes any negative x: the
    reference is positive.
    """
    if x.significand < 0:
        return 0
    _, _, _, _, c, d, b, dp = ref._terms[x.scale]
    a = x.significand * c // d
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
    the records are computed as they are taken. A given reference must have
    been built for ctx: the metrics are taken at the reference's context.
    """
    method = MethodId(method)
    check_index(method, schedule.first)
    if ref is None:
        ref = reference_pi(ctx)
    elif ref.ctx != ctx:
        raise ValueError(f"reference is for {ref.ctx}, not the run's {ctx}")
    return _records(method, make_state(method, ctx), schedule, ctx, ref)


def _records(
    method: MethodId,
    state,
    schedule: Schedule,
    ctx: PrecisionCtx,
    ref: ReferencePi,
) -> Iterator[RunRecord]:
    # The clock runs only while this body does, so the time a consumer
    # spends between records is not in elapsed_ns. tuple.__new__ builds a
    # record as RunRecord.__new__ does, without its Python-level call; the
    # metrics are looked up as globals on each record, so a wrapper
    # installed around them sees every call.
    advance_to, value_of, clock = state.advance_to, state.value, time.perf_counter_ns
    new_record = tuple.__new__
    working_dp = ctx.working_dp
    elapsed = 0
    start = clock()
    for target in schedule:
        advance_to(target)
        value = value_of()
        sampled = elapsed + clock() - start
        signed, absolute = pct_error(value, ref)
        record = new_record(RunRecord, (
            method, target, value, signed, absolute,
            digits_correct(value, ref), sampled, working_dp,
        ))
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
    defined at the schedule's first n, and the thresholds are non-empty,
    positive and strictly decreasing."""
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
    if not thresholds:
        raise ValueError("thresholds must be non-empty")
    if any(t.significand <= 0 for t in thresholds):
        raise ValueError("thresholds must be positive")
    if any(b >= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be strictly decreasing")
    return methods, thresholds


def compare(
    methods: list[MethodId],
    schedule: Schedule,
    ctx: PrecisionCtx,
    thresholds: tuple[BigFixed, ...] | None = None,
) -> tuple[dict, dict]:
    """Runs of several methods on one schedule, and their crossovers.

    Returns (runs, crossings), both keyed by method in the given order:
    each method's run, an iterator of its records computed as they are
    taken (see run), and for each threshold (threshold, smallest sampled n
    with abs error below it, or None). Every argument is checked (see
    compare_args) before any method runs. A crossing is filled in as its
    run's records are taken, so the crossings are complete once every run
    is exhausted. The runs share only the reference: they can be taken in
    lockstep, one record of each per n, or one after another.
    """
    methods, thresholds = compare_args(methods, schedule, thresholds)
    ref = reference_pi(ctx)
    runs, crossings = {}, {}
    for m in methods:
        crossed = crossings[m] = [(t, None) for t in thresholds]
        runs[m] = _crossing(run(m, schedule, ctx, ref), crossed)
    return runs, crossings


def _crossing(records: Iterator[RunRecord], crossed: list) -> Iterator[RunRecord]:
    """records, passed through; crossed[i] becomes (threshold, n) at the
    first record whose abs error is below crossed[i]'s threshold. The
    thresholds decrease, so the crossed ones are always a prefix."""
    i = 0
    for r in records:
        while i < len(crossed) and r.abs_err_pct < crossed[i][0]:
            crossed[i] = (crossed[i][0], r.n)
            i += 1
        yield r


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
    columns: tuple[tuple[str, str], ...] = _VALUE_AND_ERR

    @property
    def ctx(self) -> PrecisionCtx:
        """The precision every run takes: working_dp, and the guard digits
        default_guard gives the schedule's largest n."""
        return PrecisionCtx(self.working_dp, default_guard(self.schedule.max_n))


# One run each: a schedule of several runs merges them with heapq, whose
# import would add ≈50 kB to every selftest.
_SCHED_LARGE = Schedule(tuple(range(5, 101, 5)) + (10**3, 10**4, 10**5, 10**6, 10**7))
_SCHED_SMALL = Schedule(tuple(range(1, 11)) + tuple(range(15, 101, 5)))
_SCHED_MID = Schedule(range(5, 101, 5))

TABLE_PRESETS = {
    1: TablePreset((MethodId.WALLIS,), _SCHED_LARGE, 15),
    2: TablePreset((MethodId.LEIBNIZ,), _SCHED_LARGE, 15),
    3: TablePreset((MethodId.NEWTON_ARCSINE,), _SCHED_LARGE, 15),
    4: TablePreset((MethodId.EULER_CF,), _SCHED_SMALL, 15),
    5: TablePreset((MethodId.VIETE,), _SCHED_SMALL, 15),
    6: TablePreset(ZETA_METHODS, _SCHED_MID, 14, columns=(("value", "{method}"),)),
    7: TablePreset(ZETA_METHODS, _SCHED_MID, 14, columns=(("err", "{method}"),)),
}


def run_table(table_id: int) -> list[RunRecord]:
    """Records of every method of a published table, in registry order."""
    preset = TABLE_PRESETS[table_id]
    ctx = preset.ctx
    ref = reference_pi(ctx)
    return [r for m in preset.methods for r in run(m, preset.schedule, ctx, ref)]
