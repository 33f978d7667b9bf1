import time
from functools import lru_cache
from itertools import accumulate

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import exact
from pibench import expansions, harness, methods
from pibench.fixedpoint import (
    BigFixed,
    PrecisionCtx,
    _div_half_even,
    default_guard,
    fx_parse,
    fx_to_string,
    fx_truncate_string,
)
from pibench.goldens import load as load_goldens
from pibench.harness import (
    ERR_DP,
    JUMP_MIN,
    PAIRINGS,
    ROW_BLOCK,
    TABLE_PRESETS,
    ReferenceIntegrityError,
    ReferencePi,
    RunRecord,
    Schedule,
    _crossing,
    _csv_rows,
    _records,
    compare,
    digits_correct,
    pct_error,
    reference_pi,
    run,
)
from pibench.methods import (
    ApproximantState,
    MethodId,
    NewtonArcsineState,
    approximant,
    make_state,
)
from pibench.report import csv_line


class TestReferencePi:
    def test_computed_15dp(self, ctx15, ref15):
        assert fx_to_string(ref15.value, 15) == "3.141592653589793"

    def test_computed_20dp_prefix(self):
        ref = reference_pi(PrecisionCtx(20, 10))
        assert fx_to_string(ref.value, 20).startswith("3.14159265358979")

    def test_cross_check_against_zeta8(self, ctx15, ref15):
        z = approximant(MethodId.ZETA8, 200, ctx15)
        assert fx_to_string(z, 15) == fx_to_string(ref15.value, 15)

    def test_every_small_context_passes_within_an_ulp(self):
        # reference_pi's bound: within 0.6 ulp of pi at ctx.scale.
        for working in [*range(1, 31), 150, 400, 1000]:
            for guard in range(16):
                ctx = PrecisionCtx(working, guard)
                ref = reference_pi(ctx)
                assert ref.value.scale == ctx.scale
                with mpmath.workdps(ctx.scale + 20):
                    err = abs(mpmath.mpf(ref.value.significand) - mpmath.pi * 10 ** ctx.scale)
                assert err <= 0.6, (working, guard, err)

    def test_agrees_with_the_newton_sum(self):
        # Two independent computations of pi. Newton's estimate (ROADMAP
        # item 1): 1/2 ulp per rounding up to step K, where its term rounds
        # to 0, times 6 in value(); 7 more cover its tail and the reference.
        for scale in [*range(1, 201), 300, 500, 1000]:
            state = NewtonArcsineState(PrecisionCtx(scale, 0))
            k = 0
            while state._t:
                k += 1
                state.advance_to(k)
            ref = reference_pi(PrecisionCtx(scale, 0))
            diff = abs(state.value().significand - ref.value.significand)
            assert diff <= 3 * k + 7, (scale, k, diff)

    def test_uses_no_method_state(self, monkeypatch):
        def broken(*args):
            raise AssertionError("reference_pi stepped a method")

        for cls in (ApproximantState, *ApproximantState.__subclasses__()):
            for name in ("advance_to", "step", "significand", "value"):
                monkeypatch.setattr(cls, name, broken, raising=False)
        ref = reference_pi(PrecisionCtx(15, 17))
        assert fx_to_string(ref.value, 15) == "3.141592653589793"

    def test_broken_machin_sum_raises(self, ctx15, monkeypatch):
        # One term only (the sum is 3.18...), and the whole series but with
        # atan(1/5) 10^-15 * 5/16 high, which moves pi's 15th digit alone.
        atan_inv = harness._atan_inv

        def high(x, one):
            return atan_inv(x, one) + (5 * one // (16 * 10 ** 15) if x == 5 else 0)

        for broken in (lambda x, one: one // x, high):
            monkeypatch.setattr(harness, "_atan_inv", broken)
            with pytest.raises(ReferenceIntegrityError, match="computed reference fails"):
                reference_pi(ctx15)


class TestPctError:
    def test_zero_at_reference(self, ref15):
        signed, absolute = pct_error(ref15.value, ref15)
        assert signed == BigFixed(0) and absolute == BigFixed(0)

    def test_wallis5(self, ref15):
        signed, absolute = pct_error(fx_parse("3.002175954556907"), ref15)
        assert fx_to_string(absolute, 5) == "4.43777"
        assert signed > BigFixed(0)

    def test_leibniz10_signed(self, ref15):
        signed, absolute = pct_error(fx_parse("3.232315809405593"), ref15)
        assert fx_to_string(signed, 5) == "-2.88781"
        assert fx_to_string(absolute, 5) == "2.88781"


def _pct_error_oracle(x, ref):
    """pct_error in exact rationals: (1 - x/ref) * 100 with x/ref rounded
    half-even to the context scale S, where the rest is exact."""
    s = ref.ctx.scale
    q = round(exact(x) / exact(ref.value) * 10 ** s)
    signed = BigFixed(100 * (10 ** s - q), s)
    return signed, abs(signed)


def _digits_correct_oracle(x, ref):
    """digits_correct on the truncated decimal strings of x and ref."""
    dp = ref.ctx.working_dp
    xi, _, xf = fx_truncate_string(x, dp).partition(".")
    ri, _, rf = fx_truncate_string(ref.value, dp).partition(".")
    if xi != ri:
        return 0
    count = 0
    for a, b in zip(xf, rf):
        if a != b:
            break
        count += 1
    return count


PI_50 = "3.14159265358979323846264338327950288419716939937510"


@lru_cache(maxsize=None)
def _ref(working, guard, fine):
    """The computed reference, or with fine set PI_50 at its own 50 digits,
    finer than any context here."""
    ctx = PrecisionCtx(working, guard)
    return ReferencePi(fx_parse(PI_50), ctx) if fine else reference_pi(ctx)


@st.composite
def _metric_cases(draw):
    """(x, ref): computed references and the 50-digit one; x of either
    sign at scales above and below the context's, far from pi or near it."""
    ref = _ref(draw(st.integers(1, 30)), draw(st.integers(0, 15)), draw(st.booleans()))
    # Up to beyond ctx.scale + ref.scale, where pct_error scales ref up
    # instead of x.
    scale = draw(st.integers(0, ref.ctx.scale + ref.value.scale + 20))
    if draw(st.booleans()):
        sig = draw(st.integers(-10 ** (scale + 2), 10 ** (scale + 2)))
    else:
        near = fx_parse(PI_50)
        sig = near.significand * 10 ** scale // 10 ** near.scale
        sig += draw(st.integers(-10 ** min(scale, 6), 10 ** min(scale, 6)))
        if draw(st.booleans()):
            sig = -sig
    return BigFixed(sig, scale), ref


@st.composite
def _run_cases(draw):
    """(method, schedule, ctx, ref): any method and context, with a computed
    reference or the 50-digit one, finer than the context."""
    method = draw(st.sampled_from(MethodId))
    ref = _ref(draw(st.integers(1, 30)), draw(st.integers(0, 12)), draw(st.booleans()))
    ctx = ref.ctx
    points = draw(st.lists(st.integers(1, 60), min_size=1, max_size=5, unique=True))
    return method, Schedule(sorted(points)), ctx, ref


class TestIntegerMetrics:
    """pct_error and digits_correct on integers, bit for bit against the
    exact-rational and string forms kept above as oracles."""

    @given(_metric_cases())
    @settings(max_examples=1000, deadline=None)
    def test_pct_error_matches_oracle(self, case):
        x, ref = case
        got = pct_error(x, ref)
        want = _pct_error_oracle(x, ref)
        assert [(v.significand, v.scale) for v in got] == [
            (v.significand, v.scale) for v in want
        ]

    @given(_metric_cases())
    @settings(max_examples=1000, deadline=None)
    def test_digits_correct_matches_oracle(self, case):
        x, ref = case
        assert digits_correct(x, ref) == _digits_correct_oracle(x, ref)

    def test_literal_reference_keeps_its_digits(self, ctx15):
        ref = _ref(15, 12, True)
        assert ref.value.scale == 50 > ctx15.scale
        x = fx_parse("3.002175954556907")
        assert pct_error(x, ref) == _pct_error_oracle(x, ref)

    @pytest.mark.parametrize("q_offset", [7, 8])
    @pytest.mark.parametrize("nudge", [-1, 0, 1])
    def test_half_way_quotient_rounds_half_even(self, ref15, q_offset, nudge):
        # x/ref is q + 1/2 units of the context scale S, exactly or nudged by
        # one unit of x, with x three digits finer than S + ref.scale: below
        # the tie rounds to q, above it to q + 1, on it to the even one.
        S, r, k = ref15.ctx.scale, ref15.value, 3
        q = 10 ** S - q_offset
        tie = (2 * q + 1) * r.significand * 10 ** k // 2
        x = BigFixed(tie + nudge, S + r.scale + k)
        rounded = {-1: q, 1: q + 1, 0: q + q % 2}[nudge]
        assert pct_error(x, ref15)[0] == BigFixed(100 * (10 ** S - rounded), S)
        assert pct_error(x, ref15) == _pct_error_oracle(x, ref15)

    def test_zero(self, ref15):
        assert pct_error(BigFixed(0), ref15) == (BigFixed(100), BigFixed(100))
        assert digits_correct(BigFixed(0), ref15) == 0


class TestDigitsCorrect:
    def test_reference_itself(self, ref15):
        assert digits_correct(ref15.value, ref15) == 15

    def test_partial(self, ref15):
        assert digits_correct(fx_parse("3.141576715774866"), ref15) == 4

    def test_wrong_first_digit(self, ref15):
        assert digits_correct(fx_parse("2.976046176046176"), ref15) == 0

    def test_wrong_integer_part(self, ref15):
        assert digits_correct(fx_parse("4.141592653589793"), ref15) == 0


class TestSchedule:
    def test_valid(self):
        sched = Schedule((1, 2, 10))
        assert list(sched) == [1, 2, 10]
        assert sched.max_n == 10

    def test_runs_merge(self):
        sched = Schedule(range(4, 13, 4), (1, 2, 8), range(12, 13))
        assert list(sched) == list(sched) == [1, 2, 4, 8, 12]
        assert (sched.first, sched.max_n) == (1, 12)

    def test_huge_range_is_not_expanded(self):
        sched = Schedule(range(3, 10**30))
        assert (sched.first, sched.max_n) == (3, 10**30 - 1)

    def test_empty(self):
        for runs in [(), ((),), (range(5, 5),), ((1, 2), range(0))]:
            with pytest.raises(ValueError):
                Schedule(*runs)

    def test_not_increasing(self):
        for run_ in [(5, 5, 10), (5, 3), range(10, 0, -1)]:
            with pytest.raises(ValueError):
                Schedule(run_)

    def test_negative(self):
        for run_ in [(-1, 5), range(-1, 5)]:
            with pytest.raises(ValueError):
                Schedule(run_)


class TestRun:
    def test_zeta6_single(self, ctx14, ref14):
        recs = list(run(MethodId.ZETA6, Schedule((5,)), ctx14, ref14))
        assert len(recs) == 1
        assert recs[0].value_str(14) == "3.14157300346359"

    def test_leibniz_zero(self, ctx15, ref15):
        recs = list(run(MethodId.LEIBNIZ, Schedule((0,)), ctx15, ref15))
        assert recs[0].value == BigFixed(4)
        assert recs[0].digits_correct == 0

    def test_wallis_needs_positive(self, ctx15, ref15):
        with pytest.raises(ValueError):
            run(MethodId.WALLIS, Schedule((0, 5)), ctx15, ref15)

    def test_deterministic_except_elapsed(self, ctx15, ref15):
        sched = Schedule(tuple(range(1, 20)))
        a = run(MethodId.VIETE, sched, ctx15, ref15)
        b = run(MethodId.VIETE, sched, ctx15, ref15)
        for ra, rb in zip(a, b):
            assert ra.value == rb.value
            assert ra.signed_err_pct == rb.signed_err_pct
            assert ra.digits_correct == rb.digits_correct

    def test_abs_is_abs_of_signed(self, ctx15, ref15):
        for r in run(MethodId.LEIBNIZ, Schedule(tuple(range(0, 12))), ctx15, ref15):
            assert r.abs_err_pct == abs(r.signed_err_pct)
            assert r.digits_correct >= 0

    def test_digits_monotone_for_monotone_methods(self, ctx15, ref15):
        sched = Schedule(tuple(range(1, 40)))
        for method in (MethodId.WALLIS, MethodId.NEWTON_ARCSINE, MethodId.VIETE):
            recs = run(method, sched, ctx15, ref15)
            digits = [r.digits_correct for r in recs]
            assert digits == sorted(digits)

    def test_elapsed_leaves_out_consumer_time(self, ctx15, ref15):
        elapsed = [0]
        for r in run(MethodId.LEIBNIZ, Schedule((1, 2, 3, 4, 5)), ctx15, ref15):
            elapsed.append(r.elapsed_ns)
            time.sleep(0.02)
        steps = [b - a for a, b in zip(elapsed, elapsed[1:])]
        assert all(0 <= s < 20_000_000 for s in steps), steps

    def test_reference_for_another_context_is_rejected(self):
        # The metrics are taken at the reference's context: with this
        # 5-digit reference, a 15-digit run reported 5 correct digits and a
        # 0 % error.
        ref5 = reference_pi(PrecisionCtx(5, 0))
        with pytest.raises(ValueError, match="reference is for"):
            run(MethodId.NEWTON_ARCSINE, Schedule(range(60, 61)), PrecisionCtx(15, 12), ref5)
        (record,) = run(MethodId.NEWTON_ARCSINE, Schedule(range(60, 61)), PrecisionCtx(15, 12))
        assert record.digits_correct == 15

    @given(_run_cases())
    @settings(max_examples=150, deadline=None)
    def test_records_are_the_metrics(self, case):
        # Each record equals one built from the two metric definitions, in
        # the same representations, and stays a RunRecord through _replace.
        method, schedule, ctx, ref = case
        for r in run(method, schedule, ctx, ref):
            signed, absolute = pct_error(r.value, ref)
            want = RunRecord(method, r.n, r.value, signed, absolute,
                             digits_correct(r.value, ref), r.elapsed_ns, ctx.working_dp)
            assert type(r) is RunRecord and r == want
            assert [(v.significand, v.scale) for v in r[2:5]] == [
                (v.significand, v.scale) for v in want[2:5]
            ]
            untimed = r._replace(elapsed_ns=0)
            assert type(untimed) is RunRecord and untimed == want._replace(elapsed_ns=0)

    def test_guard_sufficiency(self, ref15):
        sched = Schedule(tuple(range(5, 101, 5)))
        base = run(MethodId.WALLIS, sched, PrecisionCtx(15, 12), ref15)
        wide = run(MethodId.WALLIS, sched, PrecisionCtx(15, 30),
                   reference_pi(PrecisionCtx(15, 30)))
        assert [r.value_str(15) for r in base] == [r.value_str(15) for r in wide]


class TestCompare:
    def test_needs_two_methods(self, ctx15):
        with pytest.raises(ValueError):
            compare([MethodId.WALLIS], Schedule((5,)), ctx15)

    def test_thresholds_must_be_non_empty(self, ctx15):
        with pytest.raises(ValueError, match="thresholds must be non-empty"):
            compare([MethodId.NEWTON_ARCSINE, MethodId.ZETA8], Schedule(range(1, 3)), ctx15, ())

    def test_thresholds_must_decrease(self, ctx15):
        with pytest.raises(ValueError):
            compare(
                [MethodId.WALLIS, MethodId.VIETE],
                Schedule((5, 10)),
                ctx15,
                (fx_parse("0.1"), fx_parse("1")),
            )

    def test_repeated_method(self, ctx15):
        with pytest.raises(ValueError):
            compare([MethodId.NEWTON_ARCSINE, MethodId.NEWTON_ARCSINE], Schedule((1, 2, 3)), ctx15)

    def test_every_method_is_checked_before_any_runs(self, ctx15, monkeypatch):
        # Viete is not defined at n = 0: compare raises before Leibniz takes
        # a single step of its 10^5.
        steps = []
        real_make_state = harness.make_state

        def counted_make_state(method, ctx):
            state = real_make_state(method, ctx)
            advance_to = state.advance_to

            def counted(n):
                steps.append(n)
                advance_to(n)

            state.advance_to = counted
            return state

        monkeypatch.setattr(harness, "make_state", counted_make_state)
        with pytest.raises(ValueError, match="viete is defined for n >= 1"):
            compare([MethodId.LEIBNIZ, MethodId.VIETE], Schedule(range(0, 10**5)), ctx15)
        assert steps == []

    def test_crossover_monotone(self, ctx15):
        thresholds = (fx_parse("1"), fx_parse("0.001"), fx_parse("0.0000001"),
                      BigFixed(1, 20))
        runs, crossings = compare(
            [MethodId.NEWTON_ARCSINE, MethodId.ZETA8],
            Schedule(tuple(range(1, 31))),
            ctx15,
            thresholds,
        )
        records = {m: list(recs) for m, recs in runs.items()}
        for method, crossed in crossings.items():
            ns = [n for _, n in crossed if n is not None]
            assert ns == sorted(ns)
            # Filled in as the run was taken: the first sampled n below each
            # threshold, or None (neither reaches 10^-20 % by n = 30).
            assert crossed == [
                (t, next((r.n for r in records[method] if r.abs_err_pct < t), None))
                for t in thresholds
            ]
        assert [crossed[-1][1] for crossed in crossings.values()] == [None, None]

    def test_pairing_presets_exist(self):
        assert set(PAIRINGS) == {
            "leibniz-vs-newton",
            "viete-vs-eulercf",
            "wallis-vs-newton",
            "wallis-vs-zeta2",
            "newton-vs-zeta8",
        }
        for a, b in PAIRINGS.values():
            assert isinstance(a, MethodId) and isinstance(b, MethodId)

    @pytest.mark.parametrize("schedule", [
        Schedule(range(1, 11)),
        Schedule(range(6, 11), range(1, 8, 2), (2, 4, 10)),
    ])
    def test_range_schedule_gives_the_tuple_records(self, ctx15, schedule):
        # compare walks the schedule once per method.
        methods = [MethodId.WALLIS, MethodId.ZETA8]
        ranged = compare(methods, schedule, ctx15)
        listed = compare(methods, Schedule(tuple(range(1, 11))), ctx15)

        def untimed(records):
            return {m: [r._replace(elapsed_ns=0) for r in recs]
                    for m, recs in records.items()}

        assert untimed(ranged[0]) == untimed(listed[0])
        assert ranged[1] == listed[1]

    def test_aligned_rows(self, ctx15):
        sched = Schedule((5, 10, 15))
        records, _ = compare([MethodId.WALLIS, MethodId.VIETE], sched, ctx15)
        assert list(records) == [MethodId.WALLIS, MethodId.VIETE]
        for recs in records.values():
            assert [r.n for r in recs] == [5, 10, 15]


def _untimed(row: str) -> str:
    """A CSV row without its last field, elapsed_ns, a timing."""
    return row.rsplit(",", 1)[0]


@lru_cache(maxsize=None)
def _cli_ref(dp, max_n):
    """The reference of a CLI run at --dp dp over a schedule ending at
    max_n: its guard is default_guard's, ten digits or more."""
    return reference_pi(PrecisionCtx(dp, default_guard(max_n)))


@st.composite
def _row_cases(draw):
    """(method, schedule, ref, thresholds): any method, --dp 1-40 or 150,
    a one-range or a several-run schedule, and decreasing thresholds at
    scales above and below the context's, one of them the abs error of a
    sample at its own scale when that error is not 0."""
    method = draw(st.sampled_from(MethodId))
    dp = draw(st.one_of(st.integers(1, 40), st.just(150)))
    first = make_state(method, PrecisionCtx(1)).min_index
    top = 120 if dp == 150 else 400

    def one_range():
        start = draw(st.integers(first, top))
        step = draw(st.integers(1, 25))
        return range(start, start + step * draw(st.integers(1, 30)), step)

    if draw(st.booleans()):
        schedule = Schedule(one_range())
    else:
        listed = draw(st.lists(st.integers(first, top), min_size=1, max_size=8, unique=True))
        schedule = Schedule(one_range(), sorted(listed))
    ref = _cli_ref(dp, schedule.max_n)
    thresholds = {BigFixed(draw(st.integers(1, 10 ** 6)), draw(st.integers(0, ref.ctx.scale + 8)))
                  for _ in range(draw(st.integers(0, 4)))}
    records = list(run(method, schedule, ref.ctx, ref))
    equal = records[draw(st.integers(0, len(records) - 1))].abs_err_pct
    if equal.significand:
        thresholds.add(equal)
    if not thresholds:
        thresholds.add(BigFixed(1))
    return method, schedule, ref, tuple(sorted(thresholds, reverse=True))


class _Registers(ApproximantState):
    """A state whose value at n is the n-th of the given significands at
    the context scale."""

    method = MethodId.WALLIS

    def __init__(self, ctx, significands):
        super().__init__(ctx)
        self._significands = significands

    def advance_to(self, target):
        self.n = max(self.n, target)

    def significand(self):
        return self._significands[self.n]

    def value(self):
        return BigFixed(self._significands[self.n], self.ctx.scale)


@st.composite
def _register_cases(draw):
    """(ref, significands): a CLI context, and positive values whose value
    cell is a half-even tie, whose error cell is one, or whose truncation
    differs from the reference's by a carry through 1-6 digits, or none of
    these."""
    dp = draw(st.one_of(st.integers(1, 40), st.just(150)))
    ref = _cli_ref(dp, draw(st.integers(1, 10 ** 5)))
    scale, r = ref.ctx.scale, ref.value
    mult, ref_sig, unit, cut = 10 ** r.scale, r.significand, 10 ** scale, 10 ** ref.ctx.guard_dp
    ref_cut = ref_sig * 10 ** dp // 10 ** r.scale
    significands = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["value tie", "error tie", "carry", "near"]))
        if kind == "value tie":
            sig = (ref_cut + draw(st.integers(1 - min(ref_cut, 50), 50))) * cut + cut // 2
        elif kind == "error tie":
            # 100 (unit - ratio) is a tie at 10**(scale - ERR_DP) units,
            # and sig one of the values whose ratio to ref rounds to ratio.
            half = 10 ** (scale - ERR_DP) // 2
            err = (2 * draw(st.integers(-10 ** 4, 10 ** 4)) + 1) * half
            ratio = unit - err // 100
            guess = ratio * ref_sig // mult
            sig = next(s for s in range(guess - 3, guess + 4)
                       if (2 * s * mult + ref_sig) // (2 * ref_sig) == ratio)
        elif kind == "carry":
            p = 10 ** draw(st.integers(1, min(dp, 6)))
            top = ref_cut // p + draw(st.sampled_from([-1, 1]))
            sig = (top * p + draw(st.integers(0, p - 1))) * cut + draw(st.integers(0, cut - 1))
        else:
            sig = ref_sig * unit // mult + draw(st.integers(-10 ** 6, 10 ** 6))
        significands.append(sig)
    return ref, significands


@st.composite
def _jump_cases(draw):
    """(method, schedule, ref, threshold, pick, widen): Wallis or Leibniz at
    --dp 1-40 or 150, on increasing points to at most 2*10^5 whose gaps
    lie below, about and above JUMP_MIN; a threshold, and the index of a
    sample whose abs error is another; and widen, units added to each side
    of every enclosure: 0, or enough that the ends' rows sometimes or
    always differ, so that those rows fall back to stepping."""
    method = draw(st.sampled_from([MethodId.WALLIS, MethodId.LEIBNIZ]))
    dp = draw(st.one_of(st.integers(1, 40), st.just(150)))
    gaps = draw(st.lists(st.one_of(st.integers(1, 60),
                                   st.integers(JUMP_MIN - 100, JUMP_MIN + 400),
                                   st.integers(JUMP_MIN + 400, 60_000)),
                         min_size=1, max_size=10))
    points = [n for n in accumulate(gaps, initial=draw(st.integers(1, 1000))) if n <= 200_000]
    schedule = Schedule(points)
    ref = _cli_ref(dp, schedule.max_n)
    guard = ref.ctx.guard_dp
    widen = draw(st.sampled_from([0, 0, 10 ** (guard - 1), 10 ** (guard + 1)]))
    threshold = BigFixed(draw(st.integers(1, 10 ** 6)), draw(st.integers(0, ref.ctx.scale)))
    return method, schedule, ref, threshold, draw(st.integers(0, len(points) - 1)), widen


def _widened(state, widen):
    """state, its enclosure widened by widen units each side."""
    if widen:
        enclosure = state.enclosure

        def widened(n):
            ends = enclosure(n)
            return ends and (ends[0] - widen, ends[1] + widen)

        state.enclosure = widened
    return state


class TestCsvRows:
    """The CLI's row kernel against the library: each row is csv_line's row
    of the record _records gives for the same state, elapsed_ns aside, and
    its crossings are compare()'s."""

    @given(_row_cases())
    @settings(max_examples=120, deadline=None)
    @example((MethodId.LEIBNIZ, Schedule(range(0, 40)), _cli_ref(15, 39), (BigFixed(1),)))
    # Newton past K, Viete past r = 2, zeta8 and zeta6 past _last.
    @example((MethodId.NEWTON_ARCSINE, Schedule(range(0, 80)), _cli_ref(1, 79), (BigFixed(1),)))
    @example((MethodId.VIETE, Schedule(range(1, 80)), _cli_ref(1, 79), (BigFixed(1),)))
    @example((MethodId.ZETA8, Schedule(range(1, 80)), _cli_ref(1, 79), (BigFixed(1),)))
    @example((MethodId.ZETA6, Schedule(range(100, 200)), _cli_ref(1, 199), (BigFixed(1),)))
    # Each other method at least once.
    @example((MethodId.WALLIS, Schedule(range(1, 60)), _cli_ref(15, 59), (BigFixed(1),)))
    @example((MethodId.EULER_CF, Schedule(range(1, 60)), _cli_ref(15, 59), (BigFixed(1),)))
    @example((MethodId.ZETA2, Schedule(range(1, 60)), _cli_ref(40, 59), (BigFixed(1),)))
    @example((MethodId.ZETA4, Schedule(range(1, 60)), _cli_ref(150, 59), (BigFixed(1),)))
    # Dense and far out: the rows jump, then step, and reuse their error
    # cells (of both signs for Leibniz) once the last threshold, 0.001515 %
    # at n = 21010 and 0.00119 % at n = 21008, is crossed.
    @example((MethodId.LEIBNIZ, Schedule(range(20000, 22001)), _cli_ref(15, 22000),
              (BigFixed(1), BigFixed(1515, 6))))
    @example((MethodId.WALLIS, Schedule(range(20000, 22001)), _cli_ref(40, 22000),
              (BigFixed(1), BigFixed(119, 5))))
    def test_rows_and_crossings_are_the_library_s(self, case):
        method, schedule, ref, thresholds = case
        ctx = ref.ctx
        crossed = [(t, None) for t in thresholds]
        rows = _csv_rows(make_state(method, ctx), schedule, ref, crossed)
        records = _records(method, make_state(method, ctx), schedule, ctx, ref)
        assert list(map(_untimed, rows)) == [_untimed(csv_line(r)) for r in records]
        other = MethodId.LEIBNIZ if method != MethodId.LEIBNIZ else MethodId.NEWTON_ARCSINE
        runs, crossings = compare([method, other], schedule, ctx, thresholds)
        for _ in runs[method]:
            pass
        assert crossed == crossings[method]

    @given(_register_cases())
    @settings(max_examples=300, deadline=None)
    def test_ties_and_carries(self, case):
        ref, significands = case
        ctx, schedule = ref.ctx, Schedule(range(len(significands)))
        rows = _csv_rows(_Registers(ctx, significands), schedule, ref)
        records = _records(MethodId.WALLIS, _Registers(ctx, significands), schedule, ctx, ref)
        assert list(map(_untimed, rows)) == [_untimed(csv_line(r)) for r in records]

    @pytest.mark.parametrize("dp", [1, 2, 15, 40, 150])
    def test_digits_at_every_boundary(self, dp):
        # A truncation t shares the reference's integer part and first j
        # digits when L_j <= t < H_j = L_j + 10**(dp - j). Each t at and one
        # below every L_j and H_j, j = 0 (integer parts 2 and 4) to dp, with
        # the least and the greatest significand that truncates to it. Pi's
        # 32nd decimal is 0, so at --dp 40 L_31 = L_32.
        ref = _cli_ref(dp, 10)
        r, cut = ref.value, 10 ** ref.ctx.guard_dp
        ref_cut = r.significand * 10 ** dp // 10 ** r.scale
        truncations = {ref_cut}
        for j in range(dp + 1):
            low = ref_cut // 10 ** (dp - j) * 10 ** (dp - j)
            high = low + 10 ** (dp - j)
            truncations |= {low - 1, low, high - 1, high}
        significands = [t * cut + rest for t in sorted(truncations) for rest in (0, cut - 1)]
        schedule = Schedule(range(len(significands)))
        rows = _csv_rows(_Registers(ref.ctx, significands), schedule, ref)
        digits = [int(row.split(",")[5]) for row in rows]
        assert digits == [digits_correct(BigFixed(s, ref.ctx.scale), ref) for s in significands]
        assert set(digits) == set(range(dp + 1))

    def test_a_threshold_equal_to_an_error_is_not_crossed(self):
        # The crossing is strict, as in compare: Wallis's abs error falls
        # with n, so a threshold equal to the error at n = 5 is crossed at 6.
        ref = _cli_ref(15, 10)
        schedule = Schedule(range(1, 11))
        at_5 = [r.abs_err_pct for r in run(MethodId.WALLIS, schedule, ref.ctx, ref)][4]
        crossed = [(at_5, None)]
        list(_csv_rows(make_state(MethodId.WALLIS, ref.ctx), schedule, ref, crossed))
        assert crossed == [(at_5, 6)]

    @given(_jump_cases())
    @settings(max_examples=40, deadline=None)
    # Table 2's rows past n = 100, and Table 1's with every row falling back.
    @example((MethodId.LEIBNIZ, Schedule((100, 1000, 10 ** 4, 10 ** 5)),
              _cli_ref(15, 10 ** 5), BigFixed(1), 2, 0))
    @example((MethodId.WALLIS, Schedule((100, 1000, 10 ** 4, 10 ** 5)),
              _cli_ref(15, 10 ** 5), BigFixed(1), 2, 10 ** 16))
    def test_jumped_rows_are_the_library_s(self, case):
        # A row far enough past its state's n is printed from the state's
        # enclosure when the enclosure certifies it, and stepped otherwise;
        # either way it is the row of the stepped record. A threshold equal
        # to a jumped sample's abs error makes its ends cross differently.
        method, schedule, ref, threshold, pick, widen = case
        ctx = ref.ctx
        records = list(_records(method, make_state(method, ctx), schedule, ctx, ref))
        thresholds = {threshold, records[pick].abs_err_pct} - {BigFixed(0)}
        thresholds = sorted(thresholds, reverse=True)
        crossed = [(t, None) for t in thresholds]
        rows = _csv_rows(_widened(make_state(method, ctx), widen), schedule, ref, crossed)
        assert list(map(_untimed, rows)) == [_untimed(csv_line(r)) for r in records]
        expected = [(t, None) for t in thresholds]
        for _ in _crossing(iter(records), expected):
            pass
        assert crossed == expected

    @pytest.mark.parametrize("thresholds, jumps", [
        ((), True),
        ((BigFixed(1, 2),), True),
        ((BigFixed(1, 2), BigFixed(1, 20)), False),
    ], ids=["no-threshold", "crossed", "one-not-crossed"])
    def test_an_enclosure_of_pi_jumps_past_every_threshold(self, thresholds, jumps):
        # Ends 10^-12 either side of pi print the same row, error cells 0,
        # and both lie below 0.01 %. The errors between them reach 0, so a
        # threshold of 10^-20 %, which neither end is below, is undecided.
        ref = _cli_ref(4, 10 ** 18)
        scale = ref.ctx.scale
        pi = ref.value.significand * 10 ** scale // 10 ** ref.value.scale
        width = 10 ** (scale - 12)
        steps = []

        class Enclosed(_Registers):
            def advance_to(self, target):
                steps.append(target)
                super().advance_to(target)

            def enclosure(self, n):
                return pi - width, pi + width

        schedule, registers = Schedule((JUMP_MIN,)), [pi] * (JUMP_MIN + 1)
        crossed = [(t, None) for t in thresholds]
        rows = _csv_rows(Enclosed(ref.ctx, registers), schedule, ref, crossed)
        stepped = [(t, None) for t in thresholds]
        expected = _csv_rows(_Registers(ref.ctx, registers), schedule, ref, stepped)
        assert list(map(_untimed, rows)) == list(map(_untimed, expected))
        assert (steps == []) == jumps
        if jumps:
            assert crossed == stepped

    def test_far_rows_jump_and_dense_rows_step(self, ctx15, ref15, monkeypatch):
        # From n = 0, the k-th row jumped needs k JUMP_MIN steps: 5000 to
        # 5008 jump, 5009 steps from 0, and the rest step one at a time.
        targets = []
        state = make_state(MethodId.LEIBNIZ, ctx15)
        real_advance = state.advance_to
        monkeypatch.setattr(state, "advance_to", lambda n: targets.append(n) or real_advance(n))
        assert JUMP_MIN == 512
        schedule = Schedule(range(5000, 5020))
        rows = _csv_rows(state, schedule, ref15)
        records = _records(MethodId.LEIBNIZ, make_state(MethodId.LEIBNIZ, ctx15), schedule,
                           ctx15, ref15)
        assert list(map(_untimed, rows)) == [_untimed(csv_line(r)) for r in records]
        assert targets == list(range(5009, 5020))

    @pytest.mark.parametrize("method, k", [(MethodId.LEIBNIZ, 4), (MethodId.WALLIS, 3)],
                             ids=["leibniz", "wallis"])
    def test_a_wrong_coefficient_prints_no_wrong_cell(self, method, k, monkeypatch):
        # The ratio of term k + 1 to term k with its numerator off by one:
        # the closed form then misses the register at n = 1000, but it also
        # misses it at the anchor, so no row jumps.
        real_sum = expansions._sum

        def wrong_sum(term, ratio, n):
            return real_sum(term, lambda j: (ratio(j)[0] + (j == k), ratio(j)[1]), n)

        monkeypatch.setattr(expansions, "_sum", wrong_sum)
        methods._anchored.cache_clear()
        try:
            ref = _cli_ref(15, 10 ** 5)
            ctx = ref.ctx
            stepped = make_state(method, ctx)
            stepped.advance_to(1000)
            lo, hi = make_state(method, ctx)._enclosure(1000)
            assert not lo <= stepped._acc <= hi
            assert make_state(method, ctx).enclosure(1000) is None
            schedule = Schedule((100, 1000, 20000))
            state = make_state(method, ctx)
            rows = list(_csv_rows(state, schedule, ref))
            records = _records(method, make_state(method, ctx), schedule, ctx, ref)
            assert list(map(_untimed, rows)) == [_untimed(csv_line(r)) for r in records]
            assert state.n == 20000
        finally:
            methods._anchored.cache_clear()

    @pytest.mark.parametrize("method", [MethodId.LEIBNIZ, MethodId.WALLIS],
                             ids=["leibniz", "wallis"])
    def test_a_row_below_the_reach_steps_without_a_sum(self, method, monkeypatch):
        # At --dp 1000 the closed forms' scale is w = 1,024, and n = w lies
        # below the anchor 2w (methods._ClosedFormState.enclosure): the row
        # is far enough to jump, but it steps, and no series is summed.
        def no_sum(*args):
            pytest.fail("a series was summed below its reach")

        monkeypatch.setattr(expansions, "_sum", no_sum)
        ref = _cli_ref(1000, 1024)
        ctx, schedule = ref.ctx, Schedule((1024,))
        assert ctx.scale + 10 == 1024
        state = make_state(method, ctx)
        rows = list(_csv_rows(state, schedule, ref))
        records = _records(method, make_state(method, ctx), schedule, ctx, ref)
        assert list(map(_untimed, rows)) == [_untimed(csv_line(r)) for r in records]
        assert state.n == 1024

    def test_rows_across_the_anchor_are_the_library_s(self):
        # At --dp 1000, w = 1,024: row 1000 lies below the anchor 2w and
        # steps, and rows 2048 (the anchor) and 4000 jump from n = 1000.
        ref = _cli_ref(1000, 4000)
        ctx, schedule = ref.ctx, Schedule((1000, 2048, 4000))
        assert ctx.scale + 10 == 1024
        for method in (MethodId.WALLIS, MethodId.LEIBNIZ):
            state = make_state(method, ctx)
            rows = list(_csv_rows(state, schedule, ref))
            records = _records(method, make_state(method, ctx), schedule, ctx, ref)
            assert list(map(_untimed, rows)) == [_untimed(csv_line(r)) for r in records]
            assert state.n == 1000, method

    def test_elapsed_leaves_out_consumer_time(self, ctx15, ref15):
        # Rows are computed a block (ROW_BLOCK) at a time. The consumer
        # sleeps at the first rows, and at the last two rows of the first
        # two blocks and the first two of the next: no sleep may reach
        # elapsed_ns, which here ends far below one sleep.
        schedule = Schedule(range(1, 3 * ROW_BLOCK + 3))
        slow = {0, 1, ROW_BLOCK - 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1,
                2 * ROW_BLOCK - 1, 2 * ROW_BLOCK}
        elapsed = [0]
        for i, row in enumerate(_csv_rows(make_state(MethodId.LEIBNIZ, ctx15), schedule,
                                          ref15)):
            elapsed.append(int(row.rsplit(",", 1)[1]))
            if i in slow:
                time.sleep(0.02)
        steps = [b - a for a, b in zip(elapsed, elapsed[1:])]
        assert len(steps) == 3 * ROW_BLOCK + 2
        assert all(0 <= s < 20_000_000 for s in steps), steps
        assert elapsed[-1] < 20_000_000, elapsed

    @pytest.mark.parametrize("points", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1,
                                        3 * ROW_BLOCK + 1])
    @pytest.mark.parametrize("method", [MethodId.LEIBNIZ, MethodId.NEWTON_ARCSINE])
    def test_rows_and_crossings_across_blocks(self, method, points):
        # Rows are computed a block at a time: a schedule one short of a
        # block, a block, one over and one over three blocks each gives
        # the library's rows, and its crossings, some inside a block.
        ref = _cli_ref(15, points)
        ctx, schedule = ref.ctx, Schedule(range(1, points + 1))
        thresholds = [BigFixed(1), BigFixed(5, 1), BigFixed(1, 3), BigFixed(1, 9), BigFixed(1, 30)]
        crossed = [(t, None) for t in thresholds]
        rows = list(_csv_rows(make_state(method, ctx), schedule, ref, crossed))
        records = list(_records(method, make_state(method, ctx), schedule, ctx, ref))
        assert len(rows) == points
        assert list(map(_untimed, rows)) == [_untimed(csv_line(r)) for r in records]
        expected = [(t, None) for t in thresholds]
        for _ in _crossing(iter(records), expected):
            pass
        assert crossed == expected

    def test_error_cell_is_kept_only_while_its_size_is(self):
        # Consecutive rows whose errors round to q = 12345, -12345, -12345,
        # 12345 share their abs cell, with the sign per row; 12346, -1, 1,
        # 0 and 12345 again each change it.
        ref = _cli_ref(15, 10)
        scale, r = ref.ctx.scale, ref.value
        mult, ref_sig, unit = 10 ** r.scale, r.significand, 10 ** scale
        err_cut = 10 ** (scale - ERR_DP - 2)
        sizes = [12345, -12345, -12345, 12345, 12346, -12346, -1, 1, 0, 0, 12345]
        significands = []
        for q in sizes:
            ratio = unit - q * err_cut  # the error is exactly q cells
            guess = ratio * ref_sig // mult
            significands.append(next(s for s in range(guess - 3, guess + 4)
                                     if (2 * s * mult + ref_sig) // (2 * ref_sig) == ratio))
        schedule = Schedule(range(len(sizes)))
        rows = list(_csv_rows(_Registers(ref.ctx, significands), schedule, ref))
        records = _records(MethodId.WALLIS, _Registers(ref.ctx, significands), schedule,
                           ref.ctx, ref)
        assert list(map(_untimed, rows)) == [_untimed(csv_line(r)) for r in records]
        one = 10 ** ERR_DP
        assert [row.split(",")[3:5] for row in rows] == [
            [f"{'-' if q < 0 else ''}{abs(q) // one}.{abs(q) % one:0{ERR_DP}d}",
             f"{abs(q) // one}.{abs(q) % one:0{ERR_DP}d}"] for q in sizes]

    def test_error_cells_are_reused_only_inside_their_interval(self):
        # A computed error cell q is kept with the significands [lo, hi]
        # whose ratio sig * mult / ref_sig lies within half_err - 1 of c =
        # unit - q err_cut, the ratio of an error of exactly q cells. For
        # pairs of cells of alternating sign: each pair's centres, then
        # registers at lo and hi of both intervals, at lo - 1 and hi + 1 of
        # each while it is kept, and, with both kept again, the least and
        # the greatest register of each half-cell tie c -+ half_err and of
        # the ratio one past it, which rounds to the next cell.
        ref = _cli_ref(15, 10)
        scale, r = ref.ctx.scale, ref.value
        mult, ref_sig, unit = 10 ** r.scale, r.significand, 10 ** scale
        err_cut = 10 ** (scale - ERR_DP - 2)
        half = err_cut // 2

        def registers(ratio):
            """The least and the greatest significand whose ratio rounds
            half-even to ratio."""
            guess = ratio * ref_sig // mult
            hits = [s for s in range(guess - 4, guess + 6)
                    if _div_half_even(s * mult, ref_sig) == ratio]
            return [hits[0], hits[-1]]

        def interval(q):
            centre = unit - q * err_cut
            return (centre, -((half - 1 - centre) * ref_sig // mult),
                    (centre + half - 1) * ref_sig // mult)

        significands = []
        for qa, qb in ((12345, -12346), (-3, 2), (1, 0), (0, -1), (-99999, 100000)):
            (ca, lo_a, hi_a), (cb, lo_b, hi_b) = interval(qa), interval(qb)
            centres = registers(ca)[:1] + registers(cb)[:1]
            significands += centres + [lo_a, hi_b, hi_a, lo_b]
            significands += [lo_a - 1, hi_b + 1] + centres + [hi_a + 1, lo_b - 1]
            for c in (ca, cb):
                for ratio in (c - half - 1, c - half, c + half, c + half + 1):
                    significands += centres + registers(ratio)
        schedule = Schedule(range(len(significands)))
        rows = list(_csv_rows(_Registers(ref.ctx, significands), schedule, ref))
        records = _records(MethodId.WALLIS, _Registers(ref.ctx, significands), schedule,
                           ref.ctx, ref)
        assert list(map(_untimed, rows)) == [_untimed(csv_line(r)) for r in records]


def _first_n(method, digits, ctx, ref, budget):
    """Smallest n in 1..budget at which `digits` fractional digits are
    correct, or None."""
    records = run(method, Schedule(tuple(range(1, budget + 1))), ctx, ref)
    return next((r.n for r in records if r.digits_correct >= digits), None)


class TestTimeToDigits:
    def test_newton_15(self, ctx15, ref15):
        n = _first_n(MethodId.NEWTON_ARCSINE, 15, ctx15, ref15, 100)
        assert n is not None and n <= 25

    def test_viete_15(self, ctx15, ref15):
        # The published table prints 15 rounded places at n=25, but the
        # error there (about 2.8e-16) still flips the truncated 15th
        # digit; truncation-based digit counting crosses at n=26.
        assert _first_n(MethodId.VIETE, 15, ctx15, ref15, 100) == 26

    def test_zeta8_14(self, ctx14, ref14):
        # Same rounding-vs-truncation gap: the rounded print saturates
        # at n=70, the truncated digit count at n=78.
        assert _first_n(MethodId.ZETA8, 14, ctx14, ref14, 200) == 78

    def test_budget_exhausted(self, ctx15, ref15):
        assert _first_n(MethodId.WALLIS, 15, ctx15, ref15, 50) is None


class TestPresets:
    def test_schedules(self):
        assert len(list(TABLE_PRESETS[1].schedule)) == 25
        assert TABLE_PRESETS[1].schedule.max_n == 10 ** 7
        assert list(TABLE_PRESETS[4].schedule)[:10] == list(range(1, 11))
        assert list(TABLE_PRESETS[6].schedule) == list(range(5, 101, 5))

    def test_precisions(self):
        # working_dp is also the printed value digits; errors print ERR_DP.
        for tid in (1, 2, 3, 4, 5):
            assert TABLE_PRESETS[tid].working_dp == 15
        for tid in (6, 7):
            assert TABLE_PRESETS[tid].working_dp == 14
        assert ERR_DP == 5

    def test_contexts_derive_their_guard(self):
        # default_guard of each schedule's largest n: 10^7 for Tables 1-3,
        # 100 for Tables 4-7.
        want = {1: (15, 17), 2: (15, 17), 3: (15, 17), 4: (15, 12), 5: (15, 12),
                6: (14, 12), 7: (14, 12)}
        for tid, preset in TABLE_PRESETS.items():
            assert preset.ctx == PrecisionCtx(*want[tid]), tid
        shrunk = TABLE_PRESETS[1]._replace(schedule=Schedule(range(5, 101, 5)))
        assert shrunk.ctx == PrecisionCtx(15, 12)

    def test_goldens_agree_with_registry(self):
        # One row shape: {"n", "values"?, "errs"?, "flags"}. The preset
        # alone says which methods and columns a table has.
        tables = load_goldens()
        assert sorted(tables) == [str(t) for t in TABLE_PRESETS]
        cells = divergent = 0
        for tid, preset in TABLE_PRESETS.items():
            names = [m.value for m in preset.methods]
            printed = [c for c, _ in preset.columns]
            assert list(tables[str(tid)]) == ["rows"], tid
            for row in tables[str(tid)]["rows"]:
                where = f"table {tid} n={row['n']}"
                assert set(row) == {"n", "flags"} | {c + "s" for c in printed}, where
                for column in printed:
                    assert list(row[column + "s"]) == names, where
                    cells += len(names)
                for name, flag in row["flags"].items():
                    assert name in names, where
                    assert set(flag) - {"reason"} <= {f"recomputed_{c}" for c in printed}, where
                    assert set(flag) != {"reason"} and flag.get("reason"), where
                    divergent += len(flag) - 1
        assert (cells, divergent) == (422, 111)
