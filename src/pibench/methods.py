"""Resumable generators for six classical pi-approximation families.

Each generator keeps its accumulators as raw scaled integers (value =
register * 10**-scale) so that a step is a handful of integer ops with a
single half-even rounding; BigFixed objects are only materialized when a
value is read. Re-running a fresh generator to the same index reproduces
the same bits, so direct functions and resumed state are interchangeable.

Index conventions:
  wallis   n >= 1  product upper bound, 2 * prod_{k=1..n} (2k/(2k-1))(2k/(2k+1))
  leibniz  n >= 0  inclusive sum index, 4 * sum_{k=0..n} (-1)^k/(2k+1)
  newton   n >= 0  inclusive sum index, 6 * sum_{k=0..n} t_k,
                   t_0 = 1/2, t_{k+1} = t_k (2k+1)^2 / (8(k+1)(2k+3))
  eulercf  d >= 1  continued-fraction depth, 4/(1 + 1^2/(2 + 3^2/(2 + ...)))
                   with d squared-odd partial quotients and tail 0
  viete    n >= 1  2^(n+1) * sqrt(2 - r_n) over nested radicals
                   r_0 = 0, r_{m+1} = sqrt(2 + r_m), so r_1 = sqrt(2)
  zeta s   n >= 1  (C_s * sum_{k=1..n} 1/k^s)^(1/s)

Each state has one kernel, advance_to(target), bit-identical to that many
single half-even-rounded steps (step() is advance_to(n + 1); target <= n is
a no-op). Newton, zeta and Viete skip the steps that change no register:
Newton's once its term t rounds to 0 (n = 48 at scale 32), zeta's from the
first k with k^s >= 2 * 10^scale, Viete's once r is exactly 2 (D = 4D/4).
Wallis and Leibniz divide by the odd 4k^2 - 1 and 2k + 1, where half-even
rounding meets no tie, so round(a/d) = (a + (d - 1)//2) // d.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .fixedpoint import (
    BigFixed,
    PrecisionCtx,
    _div_half_even,
    _iroot,
    _isqrt_nearest,
    fx_nth_root,
)


class MethodId(str, Enum):
    WALLIS = "wallis"
    LEIBNIZ = "leibniz"
    NEWTON_ARCSINE = "newton"
    EULER_CF = "eulercf"
    VIETE = "viete"
    ZETA2 = "zeta2"
    ZETA4 = "zeta4"
    ZETA6 = "zeta6"
    ZETA8 = "zeta8"


# (s, C) of each zeta method: pi = (C * zeta(s))^(1/s).
ZETA_PARAMS = {
    MethodId.ZETA2: (2, 6),
    MethodId.ZETA4: (4, 90),
    MethodId.ZETA6: (6, 945),
    MethodId.ZETA8: (8, 9450),
}

ZETA_METHODS = tuple(ZETA_PARAMS)


class ApproximantState:
    """n plus integer registers; subclasses define advance_to(target)."""

    method: MethodId
    min_index = 1  # smallest n at which value() is defined

    def __init__(self, ctx: PrecisionCtx) -> None:
        self.ctx = ctx
        self.n = 0

    def step(self) -> None:
        self.advance_to(self.n + 1)

    def value(self) -> BigFixed:
        raise NotImplementedError


class WallisState(ApproximantState):
    method = MethodId.WALLIS

    def __init__(self, ctx: PrecisionCtx) -> None:
        super().__init__(ctx)
        self._acc = 2 * 10 ** ctx.scale

    def advance_to(self, target: int) -> None:
        # The factor is f/(f-1) with f = (2k)^2, since (2k-1)(2k+1) = f-1,
        # and round(acc f/(f-1)) = acc + round(acc/(f-1)).
        acc, k = self._acc, self.n
        for k in range(k + 1, target + 1):
            d = 4 * k * k - 1
            acc += (acc + (d >> 1)) // d
        self._acc, self.n = acc, k

    def value(self) -> BigFixed:
        check_index(self.method, self.n)
        return BigFixed(self._acc, self.ctx.scale)


class LeibnizState(ApproximantState):
    """Bound in ulps u = 10^-scale: the k = 0 term is exact and each later
    one, 4/(2k+1) rounded to nearest, is off by at most k/(2k+1) < u/2, so

        |leibniz(n) - 4 sum_{k=0..n} (-1)^k/(2k+1)| <= (n/2) u.

    Measured: at most (n/3) u at scales 1-8, 27 and 32 for n < 300.
    """

    method = MethodId.LEIBNIZ
    min_index = 0

    def __init__(self, ctx: PrecisionCtx) -> None:
        super().__init__(ctx)
        self._four = 4 * 10 ** ctx.scale
        self._acc = self._four  # k=0 term, exact

    def advance_to(self, target: int) -> None:
        acc, four, k = self._acc, self._four, self.n
        for k in range(k + 1, target + 1):
            if k & 1:
                acc -= (four + k) // (2 * k + 1)
            else:
                acc += (four + k) // (2 * k + 1)
        self._acc, self.n = acc, k

    def value(self) -> BigFixed:
        return BigFixed(self._acc, self.ctx.scale)


class NewtonArcsineState(ApproximantState):
    """Bound in ulps u = 10^-scale. t_0 = 1/2 is exact, and each t_{k+1} is
    rounded from the rounded t_k times r_k = (2k+1)^2/(8(k+1)(2k+3)) < 1/4,
    so the register's error e_k obeys e_{k+1} = r_k e_k + d_k, |d_k| <= u/2:
    |e_k| <= (2/3)(1 - 4^-k) u. From K, the first step whose rounded term
    is 0 (48 at scale 32), the register stays 0, and the exact terms after
    K sum to under t_K/3 = |e_K|/3. Summed and multiplied by 6,

        |newton(n) - 6 sum_{k=0..n} t_k| <= 4 min(n, K) u,

    not 3 min(n, K) u, as each rounding carries into the later terms.
    Measured: 24.3 u at scale 27 (K = 40) and 23.5 u at scale 32.
    """

    method = MethodId.NEWTON_ARCSINE
    min_index = 0

    def __init__(self, ctx: PrecisionCtx) -> None:
        super().__init__(ctx)
        self._t = 10 ** ctx.scale // 2  # t_0 = 1/2, exact
        self._acc = self._t

    def advance_to(self, target: int) -> None:
        t, acc, k = self._t, self._acc, self.n
        while k < target and t:  # t_k -> t_{k+1}; t = 0 stays 0
            t = _div_half_even(t * (2 * k + 1) ** 2, 8 * (k + 1) * (2 * k + 3))
            acc += t
            k += 1
        self._t, self._acc, self.n = t, acc, max(k, target)

    def value(self) -> BigFixed:
        return BigFixed(6 * self._acc, self.ctx.scale)


class EulerCFState(ApproximantState):
    """Exact integer convergents A_k, B_k of 4/(1 + 1^2/(2 + 3^2/...)).

    A_k = b_k A_{k-1} + a_k A_{k-2} (denominators), B_k likewise
    (numerators of the reciprocal tail), with b_0 = 1, b_k = 2 and
    a_k = (2k-1)^2. The value 4*B_d/A_d involves a single rounding, so
    it is within u/2 (u = 10^-scale) of euler_cf_convergent(d), which
    equals the Leibniz partial sum to k = d.
    """

    method = MethodId.EULER_CF

    def __init__(self, ctx: PrecisionCtx) -> None:
        super().__init__(ctx)
        self._a_prev, self._a = 1, 1  # A_{-1}, A_0
        self._b_prev, self._b = 0, 1  # B_{-1}, B_0

    def advance_to(self, target: int) -> None:
        k = self.n
        for k in range(k + 1, target + 1):
            a_k = (2 * k - 1) ** 2
            self._a_prev, self._a = self._a, 2 * self._a + a_k * self._a_prev
            self._b_prev, self._b = self._b, 2 * self._b + a_k * self._b_prev
        self.n = k

    def value(self) -> BigFixed:
        check_index(self.method, self.n)
        return BigFixed(
            _div_half_even(4 * self._b * 10 ** self.ctx.scale, self._a),
            self.ctx.scale,
        )


class VieteState(ApproximantState):
    """Nested-radical doubling formula without cancellation.

    D_m = 4^m (2 - r_m) obeys D_m = 4 D_{m-1} / (2 + r_m), because
    (2 - r_m)(2 + r_m) = 2 - r_{m-1}, and viete(n) = 2 sqrt(D_n): no step
    subtracts (Kreminski, Math. Magazine 81, 2008). r and D are registers
    at the context scale from r_0 = 0, D_0 = 2; roots round to nearest.

    Bound in ulps u = 10^-scale, after Brent & Zimmermann (2010). The r
    register stays within (1/2)/(1 - 1/(2 sqrt 2)) < 0.78 u of r_m, since
    sqrt(2 + x) has slope <= 1/(2 sqrt 2). As 2 <= D_m < pi^2/4, a step adds
    under 0.78 u/(2 + sqrt 2) + u/4 < u/2 to D's relative error. Once
    2 - r_{m-1} <= u, the r register rounds to exactly 2 and stays there:
    D_m = 4 D / 4 is then exact, and the exact D_m grows by a factor under
    1 + u/32 more. That happens by M = ceil(log_4(pi^2 10^scale)), about
    1.66 scale + 1.65, so with sqrt(D) < pi/2, for every n

        |viete(n) - 2^(n+2) sin(pi / 2^(n+2))| <= (1/2 + (pi/2)(M/2 + 1/32)) u,

    37.5 u at scale 27 and 215 u at scale 163. Measured: 5.0 u (scale 27,
    n <= 20000), 10.6 u (scale 163, n <= 2000). Floored roots stick r at
    2 - u and the error grows with n (12,715 u at scale 27, n = 20000).
    """

    method = MethodId.VIETE

    def __init__(self, ctx: PrecisionCtx) -> None:
        super().__init__(ctx)
        self._one = 10 ** ctx.scale
        self._r, self._d = 0, 2 * self._one  # r_0, D_0

    def advance_to(self, target: int) -> None:
        one, r, d, k = self._one, self._r, self._d, self.n
        two = 2 * one
        while k < target and r != two:  # r = 2 stays 2, and D = 4D/4
            r = _isqrt_nearest((two + r) * one)
            d = _div_half_even(4 * d * one, two + r)
            k += 1
        self._r, self._d, self.n = r, d, max(k, target)

    def value(self) -> BigFixed:
        check_index(self.method, self.n)
        return BigFixed(_isqrt_nearest(4 * self._d * self._one), self.ctx.scale)


class ZetaState(ApproximantState):
    def __init__(self, ctx: PrecisionCtx, method: MethodId) -> None:
        super().__init__(ctx)
        self.method = method
        self._s, self._constant = ZETA_PARAMS[method]
        self._one = 10 ** ctx.scale
        self._acc = 0  # sum_{k=1..n} 1/k^s
        self._last = _iroot(2 * self._one - 1, self._s)  # last nonzero term

    def advance_to(self, target: int) -> None:
        one, s, acc = self._one, self._s, self._acc
        for k in range(self.n + 1, min(target, self._last) + 1):
            acc += _div_half_even(one, k ** s)
        self._acc, self.n = acc, max(self.n, target)

    def value(self) -> BigFixed:
        check_index(self.method, self.n)
        radicand = BigFixed(self._constant * self._acc, self.ctx.scale)
        return fx_nth_root(radicand, self._s, self.ctx)


_STATE_CLASSES = {
    MethodId.WALLIS: WallisState,
    MethodId.LEIBNIZ: LeibnizState,
    MethodId.NEWTON_ARCSINE: NewtonArcsineState,
    MethodId.EULER_CF: EulerCFState,
    MethodId.VIETE: VieteState,
    **dict.fromkeys(ZETA_METHODS, ZetaState),
}


def make_state(method: MethodId, ctx: PrecisionCtx) -> ApproximantState:
    method = MethodId(method)
    cls = _STATE_CLASSES[method]
    return cls(ctx, method) if cls is ZetaState else cls(ctx)


def check_index(method: MethodId, n: int) -> None:
    """ValueError unless the method's value is defined at index n. The first
    index is read from the state class, so no state is built."""
    first = _STATE_CLASSES[method].min_index
    if n < first:
        raise ValueError(f"{method.value} is defined for n >= {first}")


def _run_to(method: MethodId, n: int, ctx: PrecisionCtx) -> BigFixed:
    check_index(method, n)
    state = make_state(method, ctx)
    state.advance_to(n)
    return state.value()


def wallis(n: int, ctx: PrecisionCtx) -> BigFixed:
    return _run_to(MethodId.WALLIS, n, ctx)


def leibniz(n: int, ctx: PrecisionCtx) -> BigFixed:
    return _run_to(MethodId.LEIBNIZ, n, ctx)


def newton_arcsine(n: int, ctx: PrecisionCtx) -> BigFixed:
    return _run_to(MethodId.NEWTON_ARCSINE, n, ctx)


def euler_cf(d: int, ctx: PrecisionCtx) -> BigFixed:
    return _run_to(MethodId.EULER_CF, d, ctx)


def euler_cf_convergent(d: int) -> Fraction:
    """Exact rational convergent at depth d. selftest and the equivalence
    tests check it against the Leibniz partial sum."""
    check_index(MethodId.EULER_CF, d)
    state = EulerCFState(PrecisionCtx(1, 0))
    state.advance_to(d)
    return Fraction(4 * state._b, state._a)


def viete(n: int, ctx: PrecisionCtx) -> BigFixed:
    return _run_to(MethodId.VIETE, n, ctx)


def zeta_pi(method: MethodId, n: int, ctx: PrecisionCtx) -> BigFixed:
    method = MethodId(method)
    if method not in ZETA_PARAMS:
        raise ValueError(f"{method.value} is not a zeta method")
    return _run_to(method, n, ctx)
