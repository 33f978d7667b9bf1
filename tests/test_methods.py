import math
from fractions import Fraction

import mpmath
import pytest

from pibench.fixedpoint import BigFixed, PrecisionCtx, fx_sub, fx_to_string
from pibench.methods import (
    MethodId,
    ZETA_PARAMS,
    ZetaParams,
    current,
    euler_cf,
    euler_cf_convergent,
    leibniz,
    make_state,
    newton_arcsine,
    step,
    viete,
    wallis,
    zeta_pi,
)
from conftest import mp_string, viete_mp

CTX = PrecisionCtx(15, 12)


def s15(x):
    return fx_to_string(x, 15)


class TestWallis:
    def test_n1(self):
        assert s15(wallis(1, CTX)) == "2.666666666666667"

    def test_n5(self):
        assert s15(wallis(5, CTX)) == "3.002175954556907"

    def test_n_zero_invalid(self):
        with pytest.raises(ValueError):
            wallis(0, CTX)

    def test_against_mpmath(self):
        def oracle(n):
            def f():
                acc = mpmath.mpf(2)
                for k in range(1, n + 1):
                    acc *= mpmath.mpf(4 * k * k) / (4 * k * k - 1)
                return acc
            return f

        for n in (1, 2, 7, 33, 100):
            assert s15(wallis(n, CTX)) == mp_string(oracle(n), 15)


class TestLeibniz:
    def test_n0(self):
        assert leibniz(0, CTX) == BigFixed(4)

    def test_n5(self):
        assert s15(leibniz(5, CTX)) == "2.976046176046176"

    def test_n100(self):
        # The published table prints ...070910 here; the exact partial
        # sum is ...0709905..., which rounds to ...070991.
        assert s15(leibniz(100, CTX)) == "3.151493401070991"

    def test_matches_exact_rational(self):
        for n in (0, 1, 2, 3, 10, 25):
            exact = sum(Fraction(4 * (-1) ** k, 2 * k + 1) for k in range(n + 1))
            assert s15(leibniz(n, CTX)) == mp_string(
                lambda: mpmath.mpf(exact.numerator) / exact.denominator, 15
            )


class TestNewtonArcsine:
    def test_n0(self):
        assert newton_arcsine(0, CTX) == BigFixed(3)

    def test_n1_exact(self):
        # 6 * (1/2 + 1/48) = 3.125 exactly
        assert s15(newton_arcsine(1, CTX)) == "3.125000000000000"

    def test_n5(self):
        assert s15(newton_arcsine(5, CTX)) == "3.141576715774866"

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
        assert s15(euler_cf(1, CTX)) == "2.666666666666667"

    def test_d2_exact(self):
        assert euler_cf_convergent(2) == Fraction(52, 15)
        assert s15(euler_cf(2, CTX)) == "3.466666666666667"

    def test_equals_leibniz_exactly(self):
        for d in range(1, 21):
            series = sum(Fraction(4 * (-1) ** k, 2 * k + 1) for k in range(d + 1))
            assert euler_cf_convergent(d) == series

    def test_equals_leibniz_one_ulp(self):
        # Equal within one unit at the reported precision; the series
        # accumulates a few guard-scale units of per-term rounding drift
        # while the convergent rounds exactly once.
        one_ulp = BigFixed(1, CTX.working_dp)
        for d in range(1, 101):
            diff = fx_sub(euler_cf(d, CTX), leibniz(d, CTX), CTX)
            assert abs(diff) <= one_ulp

    def test_d0_invalid(self):
        with pytest.raises(ValueError):
            euler_cf(0, CTX)


class TestViete:
    def test_small_n(self):
        assert s15(viete(1, CTX)) == "3.061467458920718"
        assert s15(viete(2, CTX)) == "3.121445152258052"

    def test_saturates_at_25(self):
        assert s15(viete(25, CTX)) == "3.141592653589793"
        assert s15(viete(30, CTX)) == "3.141592653589793"

    def test_against_mpmath(self):
        for n in (1, 2, 3, 10, 20, 40):
            oracle = mp_string(lambda: viete_mp(n), 15, dps=60 + n)
            assert s15(viete(n, CTX)) == oracle

    def test_deep_n_needs_only_ctx(self):
        # n=80 is past step 47, where r rounds to exactly 2 at scale 27 and
        # D stops moving; no step subtracts, so the context's digits suffice.
        assert s15(viete(80, CTX)) == "3.141592653589793"

    @pytest.mark.parametrize("ctx, checkpoints", [
        (CTX, (*range(1, 61), 100, 200, 1000, 5000, 20000)),
        (PrecisionCtx(150, 13), range(1, 451)),
    ])
    def test_ulp_bound(self, ctx, checkpoints):
        # The VieteState docstring's bound, (1/2 + (pi/2)(M/2 + 1/32)) ulps
        # with M = ceil(log_4(pi^2 10^scale)), against the closed form
        # viete(n) = 2^(n+2) sin(pi / 2^(n+2)).
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
        a, b = viete(200, CTX), viete(20000, CTX)
        assert (a.significand, a.scale) == (b.significand, b.scale)


class TestZeta:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            ZetaParams(2, 90)
        with pytest.raises(ValueError):
            ZetaParams(3, 6)

    def test_pairs(self):
        assert {(p.s, p.constant) for p in ZETA_PARAMS.values()} == {
            (2, 6), (4, 90), (6, 945), (8, 9450),
        }

    def test_table_anchors(self):
        ctx = PrecisionCtx(14, 12)
        assert fx_to_string(zeta_pi(ZetaParams(2, 6), 10, ctx), 14) == "3.04936163598207"
        assert fx_to_string(zeta_pi(ZetaParams(8, 9450), 5, ctx), 14) == "3.14159231269578"

    def test_zeta2_n5_direct(self):
        # 6 * (1 + 1/4 + 1/9 + 1/16 + 1/25) = 6 * 5269/3600
        ctx = PrecisionCtx(14, 12)
        assert fx_to_string(zeta_pi(ZetaParams(2, 6), 5, ctx), 6) == "2.963388"

    def test_against_mpmath(self):
        ctx = PrecisionCtx(14, 12)
        for mid, params in ZETA_PARAMS.items():
            def oracle():
                acc = mpmath.mpf(0)
                for k in range(1, 51):
                    acc += mpmath.mpf(1) / mpmath.mpf(k) ** params.s
                return (params.constant * acc) ** (mpmath.mpf(1) / params.s)

            assert fx_to_string(zeta_pi(params, 50, ctx), 14) == mp_string(oracle, 14)


class TestStateProtocol:
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
                step(state)
            idx, resumed = current(state)
            assert idx == n
            direct = {
                MethodId.WALLIS: wallis,
                MethodId.LEIBNIZ: leibniz,
                MethodId.NEWTON_ARCSINE: newton_arcsine,
                MethodId.EULER_CF: euler_cf,
                MethodId.VIETE: viete,
            }.get(method)
            if direct is None:
                expected = zeta_pi(ZETA_PARAMS[method], n, CTX)
            else:
                expected = direct(n, CTX)
            assert resumed.significand == expected.significand
            assert resumed.scale == expected.scale

    def test_step_advances_by_one(self):
        state = make_state(MethodId.WALLIS, CTX)
        for i in range(1, 6):
            state.step()
            assert state.n == i

    def test_examples(self):
        state = make_state(MethodId.WALLIS, CTX)
        for _ in range(5):
            state.step()
        n, v = state.current()
        assert (n, s15(v)) == (5, "3.002175954556907")

        state = make_state(MethodId.LEIBNIZ, CTX)
        assert state.current() == (0, BigFixed(4))

        ctx14 = PrecisionCtx(14, 12)
        state = make_state(MethodId.ZETA8, ctx14)
        for _ in range(10):
            state.step()
        n, v = state.current()
        assert (n, fx_to_string(v, 14)) == (10, "3.14159264970117")


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
