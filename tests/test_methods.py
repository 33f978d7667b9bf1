import math
import operator
import random
from fractions import Fraction
from itertools import accumulate

import mpmath
import pytest

from pibench import expansions
from pibench.fixedpoint import (
    BigFixed,
    PrecisionCtx,
    _div_half_even,
    fx_to_string,
)
from pibench.methods import (
    ApproximantState,
    LeibnizState,
    MethodId,
    ZETA_PARAMS,
    approximant,
    check_index,
    euler_cf_convergent,
    make_state,
)
from conftest import exact, leibniz_mp, mp_string, viete_mp, wallis_mp

CTX = PrecisionCtx(15, 12)


def s15(x):
    return fx_to_string(x, 15)


class TestWallis:
    def test_n1(self):
        assert s15(approximant(MethodId.WALLIS, 1, CTX)) == "2.666666666666667"

    def test_n5(self):
        assert s15(approximant(MethodId.WALLIS, 5, CTX)) == "3.002175954556907"

    def test_n_zero_invalid(self):
        with pytest.raises(ValueError):
            approximant(MethodId.WALLIS, 0, CTX)

    def test_against_mpmath(self):
        def oracle(n):
            def f():
                acc = mpmath.mpf(2)
                for k in range(1, n + 1):
                    acc *= mpmath.mpf(4 * k * k) / (4 * k * k - 1)
                return acc
            return f

        for n in (1, 2, 7, 33, 100):
            assert s15(approximant(MethodId.WALLIS, n, CTX)) == mp_string(oracle(n), 15)


class TestLeibniz:
    def test_n0(self):
        assert approximant(MethodId.LEIBNIZ, 0, CTX) == BigFixed(4)

    def test_n5(self):
        assert s15(approximant(MethodId.LEIBNIZ, 5, CTX)) == "2.976046176046176"

    def test_n100(self):
        # The published table prints ...070910 here; the exact partial
        # sum is ...0709905..., which rounds to ...070991.
        assert s15(approximant(MethodId.LEIBNIZ, 100, CTX)) == "3.151493401070991"

    def test_matches_exact_rational(self):
        for n in (0, 1, 2, 3, 10, 25):
            exact = sum(Fraction(4 * (-1) ** k, 2 * k + 1) for k in range(n + 1))
            assert s15(approximant(MethodId.LEIBNIZ, n, CTX)) == mp_string(
                lambda: mpmath.mpf(exact.numerator) / exact.denominator, 15
            )


class TestNewtonArcsine:
    def test_n0(self):
        assert approximant(MethodId.NEWTON_ARCSINE, 0, CTX) == BigFixed(3)

    def test_n1_exact(self):
        # 6 * (1/2 + 1/48) = 3.125 exactly
        assert s15(approximant(MethodId.NEWTON_ARCSINE, 1, CTX)) == "3.125000000000000"

    def test_n5(self):
        assert s15(approximant(MethodId.NEWTON_ARCSINE, 5, CTX)) == "3.141576715774866"

    def test_recurrence_matches_factorials(self):
        # t_k = (2k)! / (2^{2k} (k!)^2 (2k+1)) * (1/2)^{2k+1}
        t = Fraction(1, 2)
        for k in range(11):
            literal = Fraction(
                math.factorial(2 * k),
                2 ** (2 * k) * math.factorial(k) ** 2 * (2 * k + 1),
            ) * Fraction(1, 2) ** (2 * k + 1)
            assert t == literal
            t = t * (2 * k + 1) ** 2 / (8 * (k + 1) * (2 * k + 3))

    def test_term_ratio_below_quarter(self):
        state = make_state(MethodId.NEWTON_ARCSINE, CTX)
        state.step()
        prev = state._t
        for _ in range(30):
            state.step()
            assert 4 * state._t < prev
            prev = state._t


class TestEulerCF:
    def test_d1(self):
        assert s15(approximant(MethodId.EULER_CF, 1, CTX)) == "2.666666666666667"

    def test_d2_exact(self):
        assert euler_cf_convergent(2) == Fraction(52, 15)
        assert s15(approximant(MethodId.EULER_CF, 2, CTX)) == "3.466666666666667"

    def test_equals_leibniz_exactly(self):
        for d in range(1, 21):
            series = sum(Fraction(4 * (-1) ** k, 2 * k + 1) for k in range(d + 1))
            assert euler_cf_convergent(d) == series

    def test_equals_leibniz_one_ulp(self):
        # Equal within one unit at the reported precision; the series
        # accumulates a few guard-scale units of per-term rounding drift
        # while the convergent rounds exactly once.
        one_ulp = Fraction(1, 10 ** CTX.working_dp)
        for d in range(1, 101):
            cf = approximant(MethodId.EULER_CF, d, CTX)
            diff = exact(cf) - exact(approximant(MethodId.LEIBNIZ, d, CTX))
            assert abs(diff) <= one_ulp

    def test_d0_invalid(self):
        with pytest.raises(ValueError):
            approximant(MethodId.EULER_CF, 0, CTX)
        with pytest.raises(ValueError):
            euler_cf_convergent(0)


class TestViete:
    def test_small_n(self):
        assert s15(approximant(MethodId.VIETE, 1, CTX)) == "3.061467458920718"
        assert s15(approximant(MethodId.VIETE, 2, CTX)) == "3.121445152258052"

    def test_saturates_at_25(self):
        assert s15(approximant(MethodId.VIETE, 25, CTX)) == "3.141592653589793"
        assert s15(approximant(MethodId.VIETE, 30, CTX)) == "3.141592653589793"

    def test_against_mpmath(self):
        for n in (1, 2, 3, 10, 20, 40):
            oracle = mp_string(lambda: viete_mp(n), 15, dps=60 + n)
            assert s15(approximant(MethodId.VIETE, n, CTX)) == oracle

    def test_deep_n_needs_only_ctx(self):
        # n=80 is past step 47, where r rounds to exactly 2 at scale 27 and
        # D stops moving; no step subtracts, so the context's digits suffice.
        assert s15(approximant(MethodId.VIETE, 80, CTX)) == "3.141592653589793"

    @pytest.mark.parametrize("ctx, checkpoints", [
        (CTX, (*range(1, 61), 100, 200, 1000, 5000, 20000)),
        (PrecisionCtx(150, 13), range(1, 451)),
    ])
    def test_ulp_bound(self, ctx, checkpoints):
        # The VieteState docstring's bound, (1/2 + (pi/2)(M/2 + 1/32)) ulps
        # with M = ceil(log_4(pi^2 10^scale)), against the closed form
        # approximant(VIETE, n, ctx) = 2^(n+2) sin(pi / 2^(n+2)).
        m = math.ceil(math.log(math.pi ** 2 * 10 ** ctx.scale, 4))
        bound = 0.5 + math.pi / 2 * (m / 2 + 1 / 32)
        state = make_state(MethodId.VIETE, ctx)
        with mpmath.workdps(ctx.scale + 20):
            for n in checkpoints:
                while state.n < n:
                    state.step()
                x = mpmath.mpf(2) ** (n + 2)
                exact = x * mpmath.sin(mpmath.pi / x) * 10 ** ctx.scale
                err = abs(state.value().significand - exact)
                assert err <= bound, f"n={n}: {mpmath.nstr(err, 5)} ulp > {bound:.1f}"

    def test_stationary_once_r_is_two(self):
        a, b = (approximant(MethodId.VIETE, n, CTX) for n in (200, 20000))
        assert (a.significand, a.scale) == (b.significand, b.scale)


class TestZeta:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            approximant("zeta3", 5, CTX)

    def test_pairs(self):
        assert set(ZETA_PARAMS.values()) == {
            (2, 6), (4, 90), (6, 945), (8, 9450),
        }

    def test_table_anchors(self):
        ctx = PrecisionCtx(14, 12)
        assert fx_to_string(approximant(MethodId.ZETA2, 10, ctx), 14) == "3.04936163598207"
        assert fx_to_string(approximant(MethodId.ZETA8, 5, ctx), 14) == "3.14159231269578"

    def test_zeta2_n5_direct(self):
        # 6 * (1 + 1/4 + 1/9 + 1/16 + 1/25) = 6 * 5269/3600
        ctx = PrecisionCtx(14, 12)
        assert fx_to_string(approximant(MethodId.ZETA2, 5, ctx), 6) == "2.963388"

    def test_against_mpmath(self):
        ctx = PrecisionCtx(14, 12)
        for mid, (s, constant) in ZETA_PARAMS.items():
            def oracle():
                acc = mpmath.mpf(0)
                for k in range(1, 51):
                    acc += mpmath.mpf(1) / mpmath.mpf(k) ** s
                return (constant * acc) ** (mpmath.mpf(1) / s)

            assert fx_to_string(approximant(mid, 50, ctx), 14) == mp_string(oracle, 14)

    def test_root_is_the_nearest_integer(self):
        # The exact root is 0.5007 ulp above ...428: a floor two digits
        # below the scale, rounded again, gave ...428.
        ctx = PrecisionCtx(15, 12)
        state = make_state(MethodId.ZETA2, ctx)
        state.advance_to(78)
        r = state.significand()
        assert r == 3129404466289370573505473429
        twice_squared = 4 * 6 * state._acc * 10 ** ctx.scale  # (2 root)^2
        assert (2 * r - 1) ** 2 < twice_squared < (2 * r + 1) ** 2


# Scales 1-8 and the table scales, 27 (Tables 4-7) and 32 (Tables 1-3).
BOUND_CTXS = [PrecisionCtx(s, 0) for s in range(1, 9)] + [
    PrecisionCtx(15, 12), PrecisionCtx(15, 17)]


def _errors_in_ulps(method, ctx, exact_values):
    """value - exact in ulps of the context scale, at each n from 0 (or 1)
    on, for exact_values[n] the exact approximant."""
    state, one = make_state(method, ctx), 10 ** ctx.scale
    for n, value in enumerate(exact_values):
        if n >= state.min_index:
            state.advance_to(n)
            yield n, state.value().significand - value * one


def _ceil_root(n, s):
    """The least integer c with c^s >= n, by bisection."""
    lo, hi = 0, 1
    while hi ** s < n:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if mid ** s < n else (lo, mid)
    return lo


def _newton_stop(ctx):
    """K: the first step whose rounded Newton term is 0."""
    state = make_state(MethodId.NEWTON_ARCSINE, ctx)
    while state._t:
        state.step()
    return state.n


class TestUlpBounds:
    """Each class docstring's bound, against exact Fraction sums."""

    LEIBNIZ_SUMS = list(accumulate(Fraction(4 * (-1) ** k, 2 * k + 1) for k in range(300)))

    @pytest.mark.parametrize("ctx", BOUND_CTXS, ids=lambda c: f"scale{c.scale}")
    def test_leibniz_half_ulp_a_term(self, ctx):
        prev = 0
        for n, err in _errors_in_ulps(MethodId.LEIBNIZ, ctx, self.LEIBNIZ_SUMS):
            assert abs(err - prev) <= Fraction(1, 2), f"term {n}: {float(err - prev)} ulp"
            assert abs(err) <= Fraction(n, 2), f"n={n}: {float(err)} ulp"
            prev = err

    @pytest.mark.parametrize("ctx", BOUND_CTXS, ids=lambda c: f"scale{c.scale}")
    def test_eulercf_half_ulp(self, ctx):
        convergents = [None] + [euler_cf_convergent(d) for d in range(1, 150)]
        for d, err in _errors_in_ulps(MethodId.EULER_CF, ctx, convergents):
            assert abs(err) <= Fraction(1, 2), f"d={d}: {float(err)} ulp"

    @pytest.mark.parametrize("ctx", BOUND_CTXS, ids=lambda c: f"scale{c.scale}")
    def test_newton_four_ulps_a_step_to_k(self, ctx):
        terms, t = [], Fraction(1, 2)
        for k in range(130):
            terms.append(t)
            t = t * (2 * k + 1) ** 2 / (8 * (k + 1) * (2 * k + 3))
        sums = [6 * total for total in accumulate(terms)]
        k_stop = _newton_stop(ctx)
        assert k_stop < 100  # the checks below run past K
        for n, err in _errors_in_ulps(MethodId.NEWTON_ARCSINE, ctx, sums):
            assert abs(err) <= 4 * min(n, k_stop), f"n={n}, K={k_stop}: {float(err)} ulp"

    def test_newton_stops_at_48_on_scale_32(self):
        assert _newton_stop(PrecisionCtx(15, 17)) == 48

    WALLIS_PRODUCTS = list(accumulate(
        (Fraction(4 * k * k, 4 * k * k - 1) for k in range(1, 300)), operator.mul,
        initial=Fraction(2)))

    @pytest.mark.parametrize("ctx", BOUND_CTXS, ids=lambda c: f"scale{c.scale}")
    def test_wallis_half_ulp_a_step_scaled_by_the_rest(self, ctx):
        prev = 0
        for n, err in _errors_in_ulps(MethodId.WALLIS, ctx, self.WALLIS_PRODUCTS):
            factor = Fraction(4 * n * n, 4 * n * n - 1)
            assert abs(err - factor * prev) <= Fraction(1, 2), f"step {n}"
            assert abs(err) <= Fraction(59, 100) * n, f"n={n}: {float(err)} ulp"
            prev = err

    ZETA_SUMS = {s: list(accumulate((Fraction(1, k ** s) for k in range(1, 301)),
                                    initial=Fraction(0)))
                 for s, _ in ZETA_PARAMS.values()}

    @pytest.mark.parametrize("ctx", BOUND_CTXS, ids=lambda c: f"scale{c.scale}")
    def test_zeta_half_ulp_plus_the_sum_through_the_root(self, ctx):
        # R within B = 1/2 + (C^(1/s)/s) E_n ulps of (C Z_n)^(1/s), checked
        # as (R - B)^s <= C Z_n 10^(s scale) <= (R + B)^s in rationals, with
        # C^(1/s) rounded up to 10^-6.
        one = 10 ** ctx.scale
        for method, (s, c) in ZETA_PARAMS.items():
            state, sums = make_state(method, ctx), self.ZETA_SUMS[s]
            last = state._last
            assert last ** s < 2 * one <= (last + 1) ** s
            slope = Fraction(_ceil_root(c * 10 ** (6 * s), s), 10 ** 6 * s)
            tail = Fraction(one, (s - 1) * last ** (s - 1))
            for n in range(1, len(sums)):
                state.advance_to(n)
                sum_err = Fraction(min(n, last), 2) + (tail if n > last else 0)
                assert abs(state._acc - one * sums[n]) <= sum_err, f"{method.value} n={n}"
                r, b = state.significand(), Fraction(1, 2) + slope * sum_err
                target = c * sums[n] * one ** s
                assert 0 < r - b and (r - b) ** s <= target <= (r + b) ** s, \
                    f"{method.value} n={n}"

    def test_wallis_bound_far_out(self):
        # W_n = 2 (2^n n!)^4 / ((2n)! (2n+1)!), compared in integers.
        ctx = PrecisionCtx(15, 17)
        state = make_state(MethodId.WALLIS, ctx)
        for n in (1000, 20000, 100000):
            state.advance_to(n)
            f = math.factorial
            num = 2 * (2 ** n * f(n)) ** 4 * 10 ** ctx.scale
            den = f(2 * n) * f(2 * n + 1)
            assert 100 * abs(state._acc * den - num) <= 59 * n * den, n


class TestClosedForms:
    """The closed forms a jump prints from (pibench.expansions and the
    states' enclosure) against the mpmath oracles and stepped registers."""

    NS = (600, 1001, 10 ** 4, 10 ** 6, 10 ** 9)

    @pytest.mark.parametrize("w", [20, 42, 180])
    def test_series_hold_the_oracles(self, w):
        for n in self.NS:
            with mpmath.workdps(w + 40):
                ratio = wallis_mp(n) / mpmath.pi * mpmath.mpf(10) ** w
                tail = (leibniz_mp(n) - mpmath.pi) * mpmath.mpf(10) ** w
            lo, hi = expansions.wallis_ratio(n, w)
            assert lo <= ratio <= hi and hi - lo < 1000, n
            lo, hi = expansions.leibniz_tail(n, w)
            assert lo <= tail <= hi and hi - lo < 1000, n

    def test_series_give_up_where_they_cannot_reach(self):
        # The terms grow before they reach 10^-180 at n = 30.
        assert expansions.wallis_ratio(30, 180) is None
        assert expansions.leibniz_tail(30, 180) is None

    @pytest.mark.parametrize("ctx", [PrecisionCtx(1, 19), PrecisionCtx(15, 17),
                                     PrecisionCtx(40, 19), PrecisionCtx(150, 19)],
                             ids=lambda c: f"s{c.scale}")
    @pytest.mark.parametrize("method", [MethodId.WALLIS, MethodId.LEIBNIZ],
                             ids=lambda m: m.value)
    def test_enclosure_holds_the_oracle(self, method, ctx):
        oracle = wallis_mp if method is MethodId.WALLIS else leibniz_mp
        state = make_state(method, ctx)
        for n in self.NS:
            lo, hi = state.enclosure(n)
            with mpmath.workdps(ctx.scale + 30):
                exact = oracle(n) * mpmath.mpf(10) ** ctx.scale
            assert lo <= exact <= hi, n
            # The register's bound either side, and an ulp or two.
            bound = 59 * n / 100 if method is MethodId.WALLIS else n / 2
            assert hi - lo <= 2 * bound + 4, n
        assert state.n == 0

    @pytest.mark.parametrize("ctx", [PrecisionCtx(1, 0), PrecisionCtx(15, 12),
                                     PrecisionCtx(150, 15)], ids=lambda c: f"s{c.scale}")
    @pytest.mark.parametrize("method", [MethodId.WALLIS, MethodId.LEIBNIZ],
                             ids=lambda m: m.value)
    def test_enclosure_holds_the_stepped_register(self, method, ctx):
        stepped, fresh = make_state(method, ctx), make_state(method, ctx)
        for n in (90, 91, 600, 601, 5000, 40001):
            stepped.advance_to(n)
            ends = fresh.enclosure(n)
            if ends is None:  # the series cannot reach scale 175 at n = 90
                assert (ctx.scale, n) in ((165, 90), (165, 91))
                continue
            assert ends[0] <= stepped._acc <= ends[1], n


class TestStateProtocol:
    def test_check_index_builds_no_state(self, monkeypatch):
        first = {m: make_state(m, CTX).min_index for m in MethodId}

        def no_state(*args):
            pytest.fail("a method state was built")

        monkeypatch.setattr(ApproximantState, "__init__", no_state)
        for m in MethodId:
            check_index(m, first[m])
            message = f"{m.value} is defined for n >= {first[m]}"
            with pytest.raises(ValueError, match=message):
                check_index(m, first[m] - 1)
            # Leibniz and Newton at n = -1: advance_to does nothing there,
            # so only the check stops a wrong value.
            with pytest.raises(ValueError, match=message):
                approximant(m, first[m] - 1, CTX)

    def test_direct_equals_resumed(self):
        for method, n in [
            (MethodId.WALLIS, 17),
            (MethodId.LEIBNIZ, 23),
            (MethodId.NEWTON_ARCSINE, 12),
            (MethodId.EULER_CF, 9),
            (MethodId.VIETE, 6),
            (MethodId.ZETA4, 31),
        ]:
            state = make_state(method, CTX)
            for _ in range(n):
                state.step()
            resumed = state.value()
            assert state.n == n
            expected = approximant(method, n, CTX)
            assert resumed.significand == expected.significand
            assert resumed.scale == expected.scale

    @pytest.mark.parametrize("scale", [*range(1, 9), 27, 32, 163])
    @pytest.mark.parametrize("method", MethodId, ids=lambda m: m.value)
    def test_significand_is_the_value_s(self, method, scale):
        # The row kernel reads significand(), and the library value().
        ctx = PrecisionCtx(scale, 0)
        state = make_state(method, ctx)
        first = state.min_index
        for n in sorted({first, 1, 2, 50, 1000}):
            state.advance_to(n)
            assert state.significand() == state.value().significand, n
        fresh = make_state(method, ctx)  # at n = 0, below Wallis's first n, say
        if fresh.n < first:
            for read in (fresh.value, fresh.significand):
                with pytest.raises(ValueError, match=f"{method.value} is defined for n >= 1"):
                    read()

    def test_every_state_class_owns_the_one_value(self):
        # perfbench/tracer.py wraps a class's own value() only, so each
        # class holds the base's in its __dict__; one a subclass defines
        # itself is kept, in it and in its subclasses.
        for m in MethodId:
            cls = type(make_state(m, CTX))
            assert cls.__dict__["value"] is ApproximantState.value, m

        class Own(LeibnizState):
            def value(self):
                return "own"

        class Below(Own):
            pass

        assert Own.__dict__["value"] is Below.__dict__["value"]
        assert Below(CTX).value() == "own"

    def test_step_advances_by_one(self):
        state = make_state(MethodId.WALLIS, CTX)
        for i in range(1, 6):
            state.step()
            assert state.n == i

    def test_examples(self):
        state = make_state(MethodId.WALLIS, CTX)
        for _ in range(5):
            state.step()
        assert (state.n, s15(state.value())) == (5, "3.002175954556907")

        state = make_state(MethodId.LEIBNIZ, CTX)
        assert (state.n, state.value()) == (0, BigFixed(4))

        ctx14 = PrecisionCtx(14, 12)
        state = make_state(MethodId.ZETA8, ctx14)
        for _ in range(10):
            state.step()
        assert (state.n, fx_to_string(state.value(), 14)) == (10, "3.14159264970117")


class TestMonotonicity:
    # Strict increase needs enough scale that late increments do not
    # round to zero; Newton terms shrink like 4^-k so 200 steps need
    # well over 120 fractional digits.
    CTX_HI = PrecisionCtx(140, 12)

    @pytest.mark.parametrize(
        "method",
        [
            MethodId.WALLIS,
            MethodId.NEWTON_ARCSINE,
            MethodId.VIETE,
            MethodId.ZETA2,
            MethodId.ZETA4,
            MethodId.ZETA6,
            MethodId.ZETA8,
        ],
    )
    def test_increases_below_reference(self, method):
        from pibench.harness import reference_pi

        ref = reference_pi(self.CTX_HI)
        state = make_state(method, self.CTX_HI)
        state.step()
        prev = state.value()
        for _ in range(200):
            state.step()
            cur = state.value()
            assert prev < cur < ref.value, f"{method.value} at n={state.n}"
            prev = cur

    def test_leibniz_alternation(self):
        from pibench.harness import reference_pi

        ref = reference_pi(CTX)
        state = make_state(MethodId.LEIBNIZ, CTX)
        assert state.value() > ref.value  # n = 0, sign +
        for n in range(1, 201):
            state.step()
            above = state.value() > ref.value
            assert above == (n % 2 == 0), f"n={n}"


def _reference_step(state):
    """One step as each method took it before advance_to existed: every
    division rounded by _div_half_even, no step skipped. The oracle for the
    kernels."""
    state.n += 1
    n, m = state.n, state.method
    if m is MethodId.WALLIS:
        f = 4 * n * n
        state._acc = _div_half_even(state._acc * f, f - 1)
    elif m is MethodId.LEIBNIZ:
        sign = -1 if n % 2 else 1
        state._acc += _div_half_even(sign * state._four, 2 * n + 1)
    elif m is MethodId.NEWTON_ARCSINE:
        k = n - 1
        state._t = _div_half_even(state._t * (2 * k + 1) ** 2, 8 * (k + 1) * (2 * k + 3))
        state._acc += state._t
    elif m is MethodId.EULER_CF:
        a_k = (2 * n - 1) ** 2
        state._a_prev, state._a = state._a, 2 * state._a + a_k * state._a_prev
        state._b_prev, state._b = state._b, 2 * state._b + a_k * state._b_prev
    elif m is MethodId.VIETE:
        two = 2 * state._one
        state._r = (math.isqrt(4 * (two + state._r) * state._one) + 1) // 2
        state._d = _div_half_even(4 * state._d * state._one, two + state._r)
    else:
        state._acc += _div_half_even(state._one, n ** state._s)


def _reference_state(method, ctx, n):
    state = make_state(method, ctx)
    for _ in range(n):
        _reference_step(state)
    return state


def _registers(state):
    return {k: v for k, v in vars(state).items() if k != "n"}


# Scales 27 (Tables 4 and 5), 32 (Tables 1-3) and 162 (150 digits).
KERNEL_CTXS = [PrecisionCtx(15, 12), PrecisionCtx(15, 17), PrecisionCtx(150, 12)]
# Registers of a few digits: every stopping point lies below 3000 steps
# (zeta2 and zeta4 too), and Newton's term passes through t = 1.
SMALL_CTXS = [PrecisionCtx(dp, 0) for dp in (1, 2, 3, 4, 6)]


class TestAdvanceTo:
    # N crosses every stopping point the kernels have at these scales, except
    # the zeta ones that lie beyond 10^5 steps (zeta2 and zeta4 throughout,
    # zeta6 at scale 32, zeta6 and zeta8 at scale 162).
    FAR = {
        (MethodId.ZETA6, 27): 36000,  # last nonzero term at k = 35495
        (MethodId.ZETA8, 32): 11000,  # k = 10905
        # Wallis's 4k^2 - 1 needs two 30-bit digits from k = 16384 on.
        (MethodId.WALLIS, 32): 20000,
        (MethodId.WALLIS, 162): 20000,
    }

    @pytest.mark.parametrize("ctx", KERNEL_CTXS + SMALL_CTXS, ids=lambda c: f"s{c.scale}")
    @pytest.mark.parametrize("method", list(MethodId), ids=lambda m: m.value)
    def test_three_routes_bit_identical(self, method, ctx):
        big = self.FAR.get((method, ctx.scale), 3000)
        expected = _reference_state(method, ctx, big)

        one_call = make_state(method, ctx)
        one_call.advance_to(big)

        chunked = make_state(method, ctx)
        rng = random.Random(f"{method.value}-{ctx.scale}")
        target = 0
        while target < big:
            target = min(big, target + rng.choice((1, 2, 3, 7, 40, 333)))
            chunked.advance_to(target)

        stepped = make_state(method, ctx)
        for _ in range(big):
            stepped.step()

        for state in (one_call, chunked, stepped):
            assert vars(state) == vars(expected)
            assert state.value() == expected.value()
            assert state.value().scale == expected.value().scale

    @pytest.mark.parametrize("method, ctx, last", [
        (MethodId.NEWTON_ARCSINE, PrecisionCtx(15, 12), 40),  # t rounds to 0
        (MethodId.NEWTON_ARCSINE, PrecisionCtx(15, 17), 48),
        (MethodId.NEWTON_ARCSINE, PrecisionCtx(150, 12), 262),
        (MethodId.VIETE, PrecisionCtx(15, 12), 47),  # r rounds to exactly 2
        (MethodId.ZETA8, PrecisionCtx(14, 12), 1939),  # 1940^8 >= 2 * 10^26
    ])
    def test_jump_across_stopping_point(self, method, ctx, last):
        # `last` is the last step that changes a register: the reference
        # stepping moves a register there and none in the next 5000 steps.
        before = _reference_state(method, ctx, last - 1)
        at = _reference_state(method, ctx, last)
        after = _reference_state(method, ctx, last + 5000)
        assert _registers(before) != _registers(at) == _registers(after)
        for start, stop in ((last - 1, last + 1), (last - 3, last + 5000), (0, 10**9)):
            state = make_state(method, ctx)
            state.advance_to(start)
            state.advance_to(stop)
            assert state.n == stop
            assert _registers(state) == _registers(after if stop > last else at)

    @pytest.mark.parametrize("method", [MethodId.WALLIS, MethodId.LEIBNIZ])
    def test_quotient_either_side_of_one_half(self, method):
        # For odd d, a/d comes no closer to q + 1/2 than (d -+ 1)/(2d) past q.
        # A register set to each of those must round like the reference step.
        for n in (0, 1, 6, 99, 10**6):
            k = n + 1
            d = 4 * k * k - 1 if method is MethodId.WALLIS else 2 * k + 1
            for a in (7 * d + d // 2, 7 * d + d // 2 + 1, -7 * d - d // 2):
                kernel, reference = make_state(method, CTX), make_state(method, CTX)
                for state in (kernel, reference):
                    state.n = n
                    setattr(state, "_acc" if method is MethodId.WALLIS else "_four", a)
                kernel.advance_to(k)
                _reference_step(reference)
                assert vars(kernel) == vars(reference), (n, a)

    @pytest.mark.parametrize("method", list(MethodId), ids=lambda m: m.value)
    def test_target_not_ahead_is_a_no_op(self, method):
        state = make_state(method, CTX)
        for n in (0, 5):
            state.advance_to(n)
            before = dict(vars(state))
            for target in (n, n - 1, 0, -3):
                state.advance_to(target)
                assert vars(state) == before

    def test_tie_free_rounding_for_odd_divisors(self):
        # Leibniz rounds a/d for odd d by (a + (d-1)//2) // d, and Wallis,
        # with d = a(a + 2), takes that floor by a and then by a + 2.
        rng = random.Random(20261018)
        for _ in range(20000):
            d = 2 * rng.randrange(0, 10 ** rng.randrange(1, 40)) + 1
            q = rng.randrange(-(10 ** 30), 10 ** 30) // 10 ** rng.randrange(0, 30)
            # either side of the half-way point q + 1/2, and a random a
            for a in (q * d + d // 2, q * d + d // 2 + 1, q * d + rng.randrange(d)):
                assert (a + (d - 1) // 2) // d == _div_half_even(a, d), (a, d)
        for _ in range(20000):
            # odd factors on both sides of one 30-bit CPython digit
            a = 2 * rng.randrange(0, 2 ** rng.choice((4, 29, 30, 31, 40))) + 1
            d = a * (a + 2)
            q = rng.randrange(-(10 ** 40), 10 ** 40) // 10 ** rng.randrange(0, 40)
            for x in (q * d + d // 2, q * d + d // 2 + 1, q * d + rng.randrange(d)):
                assert (x + (d - 1) // 2) // a // (a + 2) == _div_half_even(x, d), (x, a)
