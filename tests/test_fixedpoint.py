import dataclasses
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import pow_int
from pibench.fixedpoint import (
    BigFixed,
    PrecisionCtx,
    _div_half_even,
    _iroot,
    default_guard,
    fx_nth_root,
    fx_parse,
    fx_round,
    fx_sqrt,
    fx_to_string,
    fx_truncate_string,
)

CTX15 = PrecisionCtx(15, 0)
CTX10 = PrecisionCtx(10, 0)


def s(x, dp):
    return fx_to_string(x, dp)


class TestConstruction:
    def test_canonical_zero(self):
        z = BigFixed(0, 7)
        assert z.significand == 0 and z.scale == 0
        assert z == BigFixed(0)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            BigFixed(1, -1)

    def test_slotted_and_frozen(self):
        x = BigFixed(314, 2)
        assert not hasattr(x, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.scale = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.significand = 1
        assert (x.significand, x.scale) == (314, 2)

    def test_ctx_validation(self):
        with pytest.raises(ValueError):
            PrecisionCtx(0, 5)
        with pytest.raises(ValueError):
            PrecisionCtx(5, -1)

    def test_default_guard(self):
        assert default_guard(100) == 12
        assert default_guard(10 ** 7) == 17
        assert default_guard(150) == 13  # ceil(log10 150) = 3
        assert default_guard(1) == 10


class TestHalfEven:
    def test_ties(self):
        assert _div_half_even(5, 2) == 2
        assert _div_half_even(7, 2) == 4
        assert _div_half_even(-5, 2) == -2
        assert _div_half_even(-3, 2) == -2

    def test_round_examples(self):
        assert s(fx_round(fx_parse("2.5"), 0), 0) == "2"
        assert s(fx_round(fx_parse("3.5"), 0), 0) == "4"
        assert s(fx_round(fx_parse("-2.5"), 0), 0) == "-2"

    @given(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 15))
    def test_matches_fraction_rounding(self, num, den):
        # round-half-even of num/den via exact comparison
        q = _div_half_even(num, den)
        assert abs(2 * (num - q * den)) <= den
        if abs(2 * (num - q * den)) == den:
            assert q % 2 == 0


class TestRoots:
    # Up to 10**1400 covers the zeta8 radicands at 150 dp (8 * 164 digits).
    @given(st.integers(0, 10 ** 1400), st.sampled_from([2, 3, 4, 5, 6, 7, 8]))
    @settings(max_examples=300)
    def test_iroot_floor_property(self, n, r):
        x = _iroot(n, r)
        assert x ** r <= n < (x + 1) ** r

    def test_sqrt_examples(self):
        assert fx_sqrt(BigFixed(1), CTX15) == BigFixed(1)
        assert s(fx_sqrt(BigFixed(2), CTX15), 15) == "1.414213562373095"
        radicand = fx_parse("0.585786437626905")
        assert s(fx_sqrt(radicand, CTX15), 15) == "0.765366864730180"

    def test_sqrt_rounds_to_nearest(self):
        # Each root lies just above a half unit (sqrt(0.431) = 0.65650...),
        # where a floor two digits below the scale rounded again lands low.
        ctx = PrecisionCtx(3, 0)
        for x, root in (("0.431", "0.657"), ("0.793", "0.891"), ("0.938", "0.969")):
            assert s(fx_sqrt(fx_parse(x), ctx), 3) == root
        # A radicand finer than twice the scale is not rounded first:
        # sqrt(0.003) = 0.0548 (0.0030 rounded to 0.00 gave 0.0).
        assert s(fx_sqrt(fx_parse("0.0030"), PrecisionCtx(1, 0)), 1) == "0.1"

    def test_sqrt_ties_to_even(self):
        # Only a radicand finer than twice the scale has a root at k + 1/2.
        ctx = PrecisionCtx(1, 0)
        for x, root in (("0.0025", "0.0"), ("0.0225", "0.2"), ("0.1225", "0.4")):
            assert s(fx_sqrt(fx_parse(x), ctx), 1) == root

    def test_sqrt_negative(self):
        with pytest.raises(ValueError):
            fx_sqrt(BigFixed(-1), CTX10)

    def test_nth_root_examples(self):
        assert fx_nth_root(BigFixed(256), 8, CTX15) == BigFixed(2)
        x = fx_parse("1.2345")
        assert fx_nth_root(x, 1, CTX15) == x

    def test_nth_root_errors(self):
        with pytest.raises(ValueError):
            fx_nth_root(BigFixed(-4), 2, CTX10)
        with pytest.raises(ValueError):
            fx_nth_root(BigFixed(4), 0, CTX10)

    def test_nth_root_odd_negative(self):
        assert fx_nth_root(BigFixed(-8), 3, CTX10) == BigFixed(-2)


class TestUlpProperties:
    @given(st.integers(0, 10 * 10 ** 12))
    @settings(max_examples=500)
    def test_sqrt_ulp_bounds(self, sig):
        # r within 1 ulp of the true root: (r-ulp)^2 < x < (r+ulp)^2,
        # checked exactly on the scaled significands.
        ctx = PrecisionCtx(12, 0)
        x = BigFixed(sig, 12)  # x in [0, 10]
        r = fx_sqrt(x, ctx)
        lo = max(r.significand - 1, 0)
        hi = r.significand + 1
        scaled_x = sig * 10 ** 12  # x at scale 2*ctx.scale
        assert lo * lo <= scaled_x <= hi * hi
        if sig > 0:
            assert lo * lo < scaled_x

    @pytest.mark.parametrize("r", range(1, 9), ids=lambda r: f"r{r}")
    @given(st.integers(0, 10 ** 30), st.integers(0, 30), st.integers(1, 8))
    @example(775650465614120795780, 22, 5)  # r = 2: a floor two digits
    @example(31448, 10, 4)  # below, rounded again, lands 1 ulp off (r = 3)
    @example(125, 6, 1)  # r = 3: 0.000125^(1/3) = 0.05, a tie
    @settings(max_examples=500)
    def test_sqrt_nearest_for_any_radicand_scale(self, r, sig, x_scale, dp):
        # q is the nearest unit to y^(1/r), y = x * 10^(r dp), ties to even:
        # max(2q - 1, 0)^r <= 2^r y <= (2q + 1)^r, exactly in rationals.
        x, ctx = BigFixed(sig, x_scale), PrecisionCtx(dp, 0)
        root = fx_nth_root(x, r, ctx)
        if r == 2:
            assert fx_sqrt(x, ctx) == root
        q = root.significand * 10 ** (dp - root.scale)
        scaled_y = Fraction(2 ** r * sig * 10 ** (r * dp), 10 ** x_scale)
        lo, hi = max(2 * q - 1, 0) ** r, (2 * q + 1) ** r
        assert lo <= scaled_y <= hi
        if scaled_y in (lo, hi):
            assert q % 2 == 0

    @given(st.integers(10 ** 10, 10 * 10 ** 10), st.sampled_from([2, 4, 6, 8]))
    @settings(max_examples=300)
    def test_root_of_power_recovers(self, sig, r):
        # x in [1, 10]: below 1 the power underflows the scale and no
        # root can recover the input.
        ctx = PrecisionCtx(10, 0)
        x = BigFixed(sig, 10)
        y = fx_nth_root(pow_int(x, r, ctx), r, ctx)
        assert y.scale == x.scale and abs(y.significand - x.significand) <= 1


class TestStrings:
    def test_to_string_pads(self):
        assert s(BigFixed(3), 4) == "3.0000"
        assert s(fx_parse("-0.2"), 0) == "0"  # rounds to canonical zero

    @given(st.integers(-10 ** 25, 10 ** 25), st.integers(0, 20))
    @settings(max_examples=300)
    def test_round_trip(self, sig, scale):
        x = BigFixed(sig, scale)
        assert fx_parse(fx_to_string(x, x.scale)) == x

    @given(st.integers(-10 ** 25, 10 ** 25), st.integers(0, 20), st.integers(0, 25))
    @settings(max_examples=500)
    def test_to_string_is_fx_round_printed(self, sig, scale, dp):
        # The string of the BigFixed that fx_round gives, as it was first built.
        r = fx_round(BigFixed(sig, scale), dp).significand
        i, f = divmod(abs(r), 10 ** dp)
        body = f"{i}.{f:0{dp}d}" if dp else str(i)
        assert s(BigFixed(sig, scale), dp) == ("-" + body if r < 0 else body)

    def test_parse_rejects_junk(self):
        for bad in ("", "1e5", "1.2.3", "abc", "1,5", "."):
            with pytest.raises(ValueError):
                fx_parse(bad)

    def test_truncate(self):
        x = fx_parse("3.141592653589799")
        assert fx_truncate_string(x, 14) == "3.14159265358979"
        assert fx_truncate_string(fx_parse("-1.999"), 2) == "-1.99"


class TestOrdering:
    def test_cmp_zero_negzero(self):
        assert BigFixed(0) == -BigFixed(0)

    def test_cross_scale_equality(self):
        assert fx_parse("1.50") == fx_parse("1.5")
        assert hash(fx_parse("1.50")) == hash(fx_parse("1.5"))

    def test_total_order(self):
        xs = [fx_parse(v) for v in ("-2", "-0.5", "0", "0.25", "1.0", "3")]
        assert sorted(xs) == xs
        assert xs[0] < xs[1]
        assert xs[3] > xs[2]

    @given(st.integers(-2000, 2000), st.integers(0, 4),
           st.integers(-2000, 2000), st.integers(0, 4))
    @example(150, 2, 15, 1)
    @example(-3, 0, -2999, 3)
    @settings(max_examples=500)
    def test_comparisons_match_fractions(self, a, sa, b, sb):
        # Small significands make equal values at different scales common.
        x, y = BigFixed(a, sa), BigFixed(b, sb)
        fx, fy = Fraction(a, 10 ** sa), Fraction(b, 10 ** sb)
        for op in (operator.lt, operator.le, operator.eq,
                   operator.ne, operator.gt, operator.ge):
            assert op(x, y) == op(fx, fy), (op.__name__, x, y)
        if x == y:
            assert hash(x) == hash(y)

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_other_types_are_not_ordered(self, op):
        with pytest.raises(TypeError):
            op(BigFixed(1), 2)
        with pytest.raises(TypeError):
            op(2, BigFixed(1))
