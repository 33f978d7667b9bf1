"""Reference value, error metrics, sampling runs and method comparisons."""

from __future__ import annotations

import contextlib
import time
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from functools import lru_cache
from typing import NamedTuple

from .fixedpoint import (
    BigFixed,
    PrecisionCtx,
    _Frozen,
    _div_half_even,
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


class ReferencePi(_Frozen):
    """A reference value of pi (reference_pi rounds it at the context
    scale) and the context the error metrics are taken at: a frozen pair."""

    __slots__ = ("value", "ctx")

    def __init__(self, value: BigFixed, ctx: PrecisionCtx) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "ctx", ctx)


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

        s = max(c, 15) + e + 1, e the digits of 20 c (10^e > 20 c >= 10^(e-1)),

    10^(s - c - 1) > 20 c >= 12.3 s + 30 for every c >= 15, so the sum is
    within 0.1 ulp of pi at scale c; for c < 15, s is 18 or 19 and the
    error is under 0.003 ulp of c. The rounded reference is within 0.6 ulp
    of pi. Measured: 0.497 ulp worst over working_dp 1-30, 150, 400 and
    1000 with 0-15 guard digits. The sums at s = 18 and 19 are 13.5 u above
    and 12.6 u below pi, well inside the 15-digit check.
    """
    e = 1
    while 10 ** e <= 20 * ctx.scale:
        e += 1
    s = max(ctx.scale, 15) + e + 1
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
    s, r = ref.ctx.scale, ref.value
    e = s + r.scale - x.scale  # x * 10**S / ref = x.significand * 10**e / r.significand
    ratio = _div_half_even(x.significand * 10 ** max(e, 0), r.significand * 10 ** max(-e, 0))
    signed = BigFixed(100 * (10 ** s - ratio), s)
    return signed, abs(signed)


def digits_correct(x: BigFixed, ref: ReferencePi) -> int:
    """Matching leading fractional digits, both truncated at working_dp.

    0 when the integer parts differ, which includes any negative x: the
    reference is positive.
    """
    if x.significand < 0:
        return 0
    dp, r = ref.ctx.working_dp, ref.value
    one = 10 ** dp
    x_int, x_frac = divmod(x.significand * one // 10 ** x.scale, one)
    r_int, r_frac = divmod(r.significand * one // 10 ** r.scale, one)
    if x_int != r_int:
        return 0
    x_frac, r_frac = f"{x_frac:0{dp}d}", f"{r_frac:0{dp}d}"
    return next((i for i in range(dp) if x_frac[i] != r_frac[i]), dp)


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

    def halves(self, min_points: int) -> tuple[Schedule, Schedule] | None:
        """The points up to the median and the points after it, each a
        one-range schedule, if this schedule is one range of at least
        min_points points; otherwise None."""
        if len(self._runs) != 1 or not isinstance(self._runs[0], range):
            return None
        points = self._runs[0]
        count = (points[-1] - points[0]) // points.step + 1  # never len()
        if count < max(min_points, 2):
            return None
        half = (count + 1) // 2
        return Schedule(points[:half]), Schedule(points[half:])

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
    # spends between records is not in elapsed_ns. The metrics are looked
    # up as globals on each record, so a wrapper installed around them
    # sees every call.
    elapsed = 0
    start = time.perf_counter_ns()
    for target in schedule:
        state.advance_to(target)
        value = state.value()
        sampled = elapsed + time.perf_counter_ns() - start
        signed, absolute = pct_error(value, ref)
        record = RunRecord(method, target, value, signed, absolute,
                           digits_correct(value, ref), sampled, ctx.working_dp)
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


# A row is printed from its state's enclosure (WallisState and LeibnizState
# have one), when the enclosure certifies it, once the row lies k JUMP_MIN
# steps past the state's n, k - 1 being the rows jumped since the state
# last stepped; otherwise the state steps to it. A jump leaves the state
# where it was, so each row after it pays again: the k rule jumps while k
# jumps cost less than the one catch-up they put off, and so never costs
# much more than twice the cheaper choice (rent or buy). A dense schedule
# that starts far out jumps a few rows and then steps. A jump costs J, the
# closed form plus the rows of its two ends and the printed row, against c
# a step (medians, 2 vCPUs, CPython 3.11; J over n = 600 to 10^18, at the
# guard of each n): at --dp 15 Wallis J = 22-38 us, c = 0.21 us, and
# Leibniz J = 20-25 us, c = 0.16 us; at 150 dp Wallis J = 41-133 us, c =
# 0.43 us, and Leibniz J = 33-62 us, c = 0.26 us; at 1,000 dp Wallis J =
# 0.53-1.4 ms, c = 2.0 us, and Leibniz J = 0.38-0.96 ms, c = 1.2 us; at
# 4,300 dp Wallis J = 6.0-16 ms, c = 7.4 us, and Leibniz J = 4.4-12 ms,
# c = 4.3 us. The largest J are at the smallest n the series reach. Jumping
# pays from J/c: 100-180 steps at 15 dp, 100-310 at 150 dp, 270-810 at
# 1,000 dp and 800-2,900 at 4,300 dp. 512 keeps Table 1's and 2's n = 1000
# (900 steps past n = 100) a jump, and loses at most about 5.7x on a
# 4,300-digit gap of 512-2,900 steps. A jump that cannot land costs no more
# than about n steps, as each series takes at most n terms: 0.45n steps
# (Wallis) and 0.9n (Leibniz) at 1,000 dp.
JUMP_MIN = 512

# _csv_rows computes this many rows before it hands them out, so it reads
# the clock once a row (for elapsed_ns) and twice a block (to leave out
# the consumer's time): 1 + 2/B reads a row, not 3. Three reads cost about
# 0.23 us of a 2.8 us Leibniz row at --dp 15 (2 vCPUs, CPython 3.11), so
# B = 16 saves 0.14 us a row, and no larger B can save another 0.01 us. But
# each run holds up to B rows ahead of its consumer, and a compare holds
# them for every method: at 150 dp, where a row is about 250 bytes, 64
# rows a method raised the four-method hiprec-dense peak RSS by 0.074 MB,
# and 16 rows by 0.012 MB.
ROW_BLOCK = 16


@lru_cache(maxsize=1)  # the runs of a compare share one reference
def _truncation_bounds(ref_cut: int, dp: int) -> tuple[int, ...]:
    """Ascending bounds such that, for i = bisect_right(bounds, t), the
    correct digits (digits_correct) of a value truncated at dp digits to t,
    against the reference truncated there to ref_cut, are i if i <= dp and
    2 dp - i otherwise.

    t agrees with ref_cut in its integer part and first j fractional digits
    when L_j <= t < H_j = L_j + 10**(dp - j), L_j being ref_cut with its
    last dp - j digits zeroed. L_j rises with j and H_j falls, and L_dp =
    ref_cut < H_dp, so the bounds are L_1..L_dp and then H_dp..H_1. They are
    built a digit at a time, j = dp down to 1, in time quadratic in dp: 34
    ms at 4,300 digits, where a division per j takes 0.54 s (2 vCPUs,
    CPython 3.11).
    """
    lows, highs, place, tail, head = [], [], 1, 0, ref_cut  # place 10**(dp - j)
    for _ in range(dp):
        lows.append(ref_cut - tail)
        highs.append(ref_cut - tail + place)
        head, digit = divmod(head, 10)
        tail, place = tail + digit * place, place * 10
    return tuple(reversed(lows)) + tuple(highs)


def _csv_rows(state, schedule: Schedule, ref: ReferencePi,
              crossed: list | None = None) -> Iterator[str]:
    """The CSV row (report.csv_line) of each record that
    _records(state.method, state, schedule, ref.ctx, ref) would yield, with
    elapsed_ns by the same clock; crossed, when given, is filled as
    _crossing fills it. Each row is built by row_of from the integer
    state.significand() returns, with no record and no BigFixed.

    It relies on what every CLI context has: a scale of dp + guard with
    guard >= 10 (default_guard), and a positive value. So one divmod of the
    significand by 10**guard gives both the truncation digits_correct
    compares and the half-even value cell, and the error cell is one
    half-even division by 10**(scale - ERR_DP). The correct digits are one
    bisection of the truncation into the bounds of the truncations that
    share the reference's first 1..dp digits (_truncation_bounds). The
    integers read from ref are derived once per call from ref.value at its
    own scale, and those bounds once per reference, so the kernel shares no
    arithmetic with pct_error and digits_correct, the reference its rows
    are tested against. The value cell's fraction, dp digits, is the widest
    int a row converts to a string.

    A sample far enough past the state's n (JUMP_MIN), when the state has
    an enclosure (lo, hi) of the register it would hold there, is printed
    without stepping if the rows of lo and of hi are the same bytes and
    cross the same thresholds (Ziv's rule, ACM TOMS 17(3), 1991). Every
    register in [lo, hi] then prints that row. The value and error cells
    are monotone in the significand. As the value cells agree, the
    truncations sig // cut of the ends differ by at most one, so every
    register between has one of theirs, and digits_correct is a function
    of the truncation. Where the error keeps its sign, its absolute value,
    which the crossings compare, is monotone too; where the enclosure holds
    pi, every error cell is 0 and both ends must have crossed every
    threshold. Otherwise the state steps. A jumped row's elapsed_ns
    includes its certificate.

    Rows are computed ROW_BLOCK at a time and then handed out, and crossed
    is filled as they are computed. The clock stops while a block is
    handed out, so elapsed_ns still leaves out the consumer's time. Most
    consecutive rows of a dense schedule share their error cell, so the
    last one is kept and formatted again only when |q| changes.
    """
    # Every value sits at the context scale, so x / ref at that scale is
    # x.significand * mult / ref_sig and unit is 10**scale, a ratio of 1.
    # As the guard is not negative, x truncated at dp is x.significand //
    # cut, and ref_cut is the reference truncated there.
    scale, dp, r = ref.ctx.scale, ref.ctx.working_dp, ref.value
    mult, ref_sig, unit, cut = 10 ** r.scale, r.significand, 10 ** scale, 10 ** (scale - dp)
    ref_cut = ref_sig * 10 ** dp // 10 ** r.scale
    digit_bounds = _truncation_bounds(ref_cut, dp)
    # The error significand is 100 * e, for e = unit - round(x * mult /
    # ref_sig), so its cell is e rounded at 10**(scale - ERR_DP - 2) units,
    # and abs error < threshold t is |e| * a < b with these a and b.
    half_cut, err_cut = cut // 2, 10 ** (scale - ERR_DP - 2)
    half_err, err_one, err_format = err_cut // 2, 10 ** ERR_DP, f"%d.%0{ERR_DP}d"
    value_one, value_format = 10 ** dp, f"%d.%0{dp}d"
    bounds = [(100 * 10 ** max(t.scale - scale, 0),
               t.significand * 10 ** max(scale - t.scale, 0)) for t, _ in crossed or ()]
    crossing, count = 0, len(bounds)
    prefix = f"{state.method.value},"
    last_size, last_cell = -1, ""  # the last |q| and its abs error cell

    def row_of(n: int, sig: int, sampled: int) -> tuple[str, int]:
        """(the row at n of a value whose significand is sig, e)."""
        nonlocal last_size, last_cell
        truncated, rest = divmod(sig, cut)
        i = bisect_right(digit_bounds, truncated)
        digits = i if i <= dp else 2 * dp - i
        if rest > half_cut or (rest == half_cut and truncated & 1):
            truncated += 1
        value = value_format % divmod(truncated, value_one)
        ratio, rest = divmod(sig * mult, ref_sig)
        rest += rest
        if rest > ref_sig or (rest == ref_sig and ratio & 1):
            ratio += 1
        err = unit - ratio
        q, rest = divmod(err, err_cut)
        if rest > half_err or (rest == half_err and q & 1):
            q += 1
        size = -q if q < 0 else q
        if size != last_size:
            last_size, last_cell = size, err_format % divmod(size, err_one)
        return (f"{prefix}{n},{value},{'-' if q < 0 else ''}{last_cell},{last_cell},"
                f"{digits},{sampled}\n"), err

    def passed(err: int) -> int:
        """The index of the first threshold from crossing on that |err| is
        not below."""
        err, i = -err if err < 0 else err, crossing
        while i < count and err * bounds[i][0] < bounds[i][1]:
            i += 1
        return i

    def certified(n: int) -> int | None:
        """The low end of the state's enclosure at n if its row is that of
        every register in the enclosure, else None."""
        ends = enclosure(n)
        if ends is None:
            return None
        (low, low_err), (high, high_err) = row_of(n, ends[0], 0), row_of(n, ends[1], 0)
        reached = passed(low_err)
        if low != high or reached != passed(high_err):
            return None
        # An enclosure of pi holds abs errors down to 0, which cross every
        # threshold: its ends must have crossed them all.
        if high_err < 0 < low_err and reached < count:
            return None
        return ends[0]

    enclosure = getattr(state, "enclosure", None)
    jump_min = JUMP_MIN if enclosure else float("inf")
    jump_at = state.n + jump_min  # the first n far enough to jump to
    advance_to, significand, clock = state.advance_to, state.significand, time.perf_counter_ns
    block = []
    offset = -clock()  # offset + clock() is the time spent in here so far
    for n in schedule:
        sig = certified(n) if n >= jump_at else None
        if sig is None:
            advance_to(n)
            sig = significand()
            jump_at = n + jump_min
        else:
            jump_at += jump_min
        row, err = row_of(n, sig, offset + clock())
        if crossing < count:
            for i in range(crossing, crossed_to := passed(err)):
                crossed[i] = (crossed[i][0], n)
            crossing = crossed_to
        block.append(row)
        if len(block) == ROW_BLOCK:
            paused = clock()
            yield from block
            block = []
            offset += paused - clock()
    yield from block


# A one-range schedule of at least this many points gives its second half
# to a forked child (see rows). The parent then computes no row of that
# half, c = 2.5-2.7 us each for Leibniz at --dp 15, the cheapest row (2
# vCPUs, CPython 3.11), but pays F once (fork, pipe, spill files, reaping:
# 3.5-4.2 ms split against 1.2-1.8 ms serial at 2 points, minima of 41)
# and copies each spilled row, 1.0-1.5 us; the child also steps 0.3 us a
# point to catch up. So a split gains from 2F / (c - copy) points, about
# 3,000-4,000: over 101 alternating pairs of `run --format csv` in one
# process, split and serial, the split was faster in 49 at 2,048 points,
# 56 at 3,072, 64 at 4,096 (medians 12.1 against 13.1 ms) and 82 at 6,144.
SPLIT_MIN_POINTS = 4096

_SPLIT_WORK = "the second half of the schedule"  # what a split's child computes


def _second_half(spills: dict, resume_at: int, tail: Schedule, ref: ReferencePi,
                 thresholds: list) -> Iterator[list]:
    """In the child: each method's CSV rows over tail in its spill file,
    from a fresh state; then [method, the first n of tail below each
    threshold]. The state is advanced to resume_at outside the clock when
    the tail's rows would step from there (its step, the gap from
    resume_at, is below JUMP_MIN) and stepping there costs less than
    jumping every one of them (see JUMP_MIN); otherwise its rows jump from
    n = 0, as the serial run's do, and need no register."""
    gap = tail.first - resume_at  # tail is one range, with this step
    points = (tail.max_n - tail.first) // gap + 1
    for method, spill in spills.items():
        state = make_state(method, ref.ctx)
        if not hasattr(state, "enclosure") or (
                gap < JUMP_MIN and resume_at < JUMP_MIN * points):
            state.advance_to(resume_at)
        crossed = [(t, None) for t in thresholds]
        spill.writelines(_csv_rows(state, tail, ref, crossed))
        spill.flush()
        yield [method.value, [n for _, n in crossed]]


@contextlib.contextmanager
def rows(methods, schedule: Schedule, ref: ReferencePi, crossings: dict | None = None):
    """{method: an iterator of its CSV rows over schedule at ref.ctx}
    (_csv_rows), each computed as it is taken; crossings[method], if given,
    is filled as _csv_rows fills crossed. Where a forked child can run
    beside this process (forked.can_fork), a one-range schedule of
    SPLIT_MIN_POINTS points or more is split at its median, and one child
    computes the rows after it (_second_half). A method's spilled rows
    follow its own once the child reports them done, a line at a time, with
    elapsed_ns continued from its last row; its crossings fill those the
    first half did not cross. The child is killed and reaped however this
    is left; ChildError if it fails or cannot start."""
    from .forked import ChildError, ForkedChild, can_fork  # not at import: it loads json

    crossings = crossings or {}
    head, tail = (schedule.halves(SPLIT_MIN_POINTS) if can_fork() else None) or (schedule, None)
    runs = {m: _csv_rows(make_state(m, ref.ctx), head, ref, crossings.get(m)) for m in methods}
    if tail is None:
        yield runs
        return
    import tempfile  # only on this path; it costs set-up time

    with contextlib.ExitStack() as stack:
        try:
            spills = {m: stack.enter_context(tempfile.TemporaryFile("w+")) for m in runs}
        except OSError as e:  # EMFILE or ENOSPC, say: the child cannot start
            raise ChildError(f"{_SPLIT_WORK} could not start its child process:"
                             f" {e.strerror or e}") from None
        thresholds = [t for t, _ in next(iter(crossings.values()), ())]
        child = ForkedChild(
            _SPLIT_WORK, lambda: _second_half(spills, head.max_n, tail, ref, thresholds))
        stack.callback(child.close)
        done = {}

        def joined(method, lines):
            for line in lines:
                yield line
            offset = int(line.rpartition(",")[2])
            while method.value not in done:
                name, crossed = child.receive()
                done[name] = crossed
            for i, n in enumerate(done[method.value]):
                threshold, ours = crossings[method][i]
                if ours is None:
                    crossings[method][i] = (threshold, n)
            spill = spills[method]
            spill.seek(0)
            for line in spill:
                row, _, elapsed = line.rpartition(",")
                yield f"{row},{int(elapsed) + offset}\n"

        yield {m: joined(m, lines) for m, lines in runs.items()}


# The published tables: the one registry of their methods, schedules,
# precision and printed columns. A column is (record field, header), where
# "{method}" in the header is replaced by the method id.
ERR_DP = 5  # decimal places of every printed error percentage

_VALUE_AND_ERR = (("value", "{method}"), ("err", "Error (%)"))


class TablePreset(NamedTuple):
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
