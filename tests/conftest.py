import time
from fractions import Fraction

import mpmath
import pytest

from pibench import BigFixed, MethodId, PrecisionCtx, reference_pi, run
from pibench.fixedpoint import fx_round
from pibench.harness import TABLE_PRESETS


@pytest.fixture(scope="session")
def ctx15():
    return PrecisionCtx(15, 12)


@pytest.fixture(scope="session")
def ref15(ctx15):
    return reference_pi(ctx15)


@pytest.fixture(scope="session")
def ctx14():
    return PrecisionCtx(14, 12)


@pytest.fixture(scope="session")
def ref14(ctx14):
    return reference_pi(ctx14)


@pytest.fixture(scope="session")
def table_runs():
    """All published-table runs, shared by the acceptance criteria and the
    Table 1 and 2 digests."""
    out = {}
    p13 = TABLE_PRESETS[1]
    ref_large = reference_pi(p13.ctx)
    start = time.perf_counter()
    out[1] = list(run(MethodId.WALLIS, p13.schedule, p13.ctx, ref_large))
    out["table1_seconds"] = time.perf_counter() - start
    out[2] = list(run(MethodId.LEIBNIZ, p13.schedule, p13.ctx, ref_large))
    out[3] = list(run(MethodId.NEWTON_ARCSINE, p13.schedule, p13.ctx, ref_large))

    p45 = TABLE_PRESETS[4]
    ref_small = reference_pi(p45.ctx)
    out[4] = list(run(MethodId.EULER_CF, p45.schedule, p45.ctx, ref_small))
    out[5] = list(run(MethodId.VIETE, p45.schedule, p45.ctx, ref_small))

    p67 = TABLE_PRESETS[6]
    ref_zeta = reference_pi(p67.ctx)
    out[6] = {
        m: list(run(m, p67.schedule, p67.ctx, ref_zeta)) for m in p67.methods
    }
    return out


def mp_string(expr_fn, dp, dps=80):
    """Evaluate expr_fn() under mpmath at dps digits, print dp places half-even."""
    with mpmath.workdps(dps):
        v = expr_fn()
        # mpmath's nstr rounds half-even only sometimes; go through a
        # scaled integer to make the rounding explicit.
        scaled = mpmath.mpf(10) ** dp * v
        i = int(mpmath.floor(scaled))
        frac = scaled - i
        if frac > 0.5 or (frac == 0.5 and i % 2 == 1):
            i += 1
    whole, part = divmod(abs(i), 10 ** dp)
    body = f"{whole}.{part:0{dp}d}" if dp else str(whole)
    return "-" + body if i < 0 else body


# Exact-value oracles for the table audits; call them inside mp_string so
# they run at its precision. None shares code with pibench, and the closed
# forms for Wallis and Leibniz cost milliseconds even at n = 10**7.


def wallis_mp(n):
    """2 * prod_{k<=n} 4k^2/(4k^2-1) = pi Γ(n+1)^2 / (Γ(n+1/2) Γ(n+3/2))."""
    n = mpmath.mpf(n)
    half = mpmath.mpf(1) / 2
    return mpmath.pi * mpmath.gamma(n + 1) ** 2 / (
        mpmath.gamma(n + half) * mpmath.gamma(n + 1 + half)
    )


def leibniz_mp(n):
    """4 * sum_{k<=n} (-1)^k/(2k+1) = pi - 4*tail, the tail through digamma:
    sum_{k>n} (-1)^k/(2k+1) = (-1)^(n+1)/4 * [ψ((2n+5)/4) - ψ((2n+3)/4)]."""
    tail = (-1) ** (n + 1) * (
        mpmath.psi(0, mpmath.mpf(2 * n + 5) / 4)
        - mpmath.psi(0, mpmath.mpf(2 * n + 3) / 4)
    ) / 4
    return mpmath.pi - 4 * tail


def viete_mp(n):
    """2^(n+1) * sqrt(2 - r_n) with r_1 = sqrt 2, r_k = sqrt(2 + r_{k-1}).

    The subtraction cancels about 0.6n digits: evaluate at 60 + n dps or more.
    """
    r = mpmath.sqrt(2)
    for _ in range(n - 1):
        r = mpmath.sqrt(2 + r)
    return 2 ** (n + 1) * mpmath.sqrt(2 - r)


def pct_err_mp(value):
    """|1 - value/pi| * 100, the tables' error column."""
    return abs(1 - value / mpmath.pi) * 100


def exact(x):
    """The exact rational value of a BigFixed."""
    return Fraction(x.significand, 10 ** x.scale)


def pow_int(x, k, ctx):
    """x**k for k >= 0 as a BigFixed: the exact power rounded once to the
    context scale. Builds radicands for the root round-trip checks."""
    return fx_round(BigFixed(x.significand ** k, x.scale * k), ctx.scale)
