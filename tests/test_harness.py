import time
from dataclasses import replace
from functools import lru_cache

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact
from pibench import harness
from pibench.fixedpoint import (
    BigFixed,
    PrecisionCtx,
    fx_parse,
    fx_to_string,
    fx_truncate_string,
)
from pibench.goldens import load as load_goldens
from pibench.harness import (
    ERR_DP,
    PAIRINGS,
    TABLE_PRESETS,
    ReferenceIntegrityError,
    ReferencePi,
    RunRecord,
    Schedule,
    compare,
    digits_correct,
    pct_error,
    reference_pi,
    run,
)
from pibench.methods import ApproximantState, MethodId, NewtonArcsineState, approximant


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
            for name in ("advance_to", "step", "value"):
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
        # Each record, built without RunRecord's constructor, equals one
        # built through it from the two metric definitions.
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
        shrunk = replace(TABLE_PRESETS[1], schedule=Schedule(range(5, 101, 5)))
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
