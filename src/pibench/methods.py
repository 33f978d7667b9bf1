"""Resumable generators for six classical pi-approximation families.

Each generator keeps its accumulators as raw scaled integers (value =
register * 10**-scale) so that a step is a handful of integer ops with a
single half-even rounding. significand() reads the value as an integer at
the context scale. value(), defined once on ApproximantState, wraps that
integer in a BigFixed for the library; no CLI row builds one. Re-running
a fresh generator to the same index reproduces the same bits, so
approximant(method, n, ctx) and a resumed state are interchangeable.

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
Wallis and Leibniz divide by the odd d = 4k^2 - 1 and d = 2k + 1, where
half-even rounding meets no tie, so round(x/d) = (x + (d - 1)//2) // d.
Wallis takes that floor in two divisions, by 2k - 1 and then by 2k + 1:
floor(floor(x/a)/b) = floor(x/(ab)) for every integer x and positive a and
b, so the register's bits are those of the single division.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache

from .fixedpoint import (
    BigFixed,
    PrecisionCtx,
    _div_half_even,
    _iroot,
    _root_nearest,
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
    """n plus integer registers; subclasses define advance_to(target) and
    significand(), and value() wraps the significand in a BigFixed."""

    method: MethodId
    min_index = 1  # smallest n at which value() is defined

    def __init__(self, ctx: PrecisionCtx) -> None:
        self.ctx = ctx
        self.n = 0

    def step(self) -> None:
        self.advance_to(self.n + 1)

    def significand(self) -> int:
        """The value at n as an integer at the context scale: value() is
        that integer times 10**-scale. ValueError where the method is not
        defined at n."""
        raise NotImplementedError

    def value(self) -> BigFixed:
        return BigFixed(self.significand(), self.ctx.scale)

    def __init_subclass__(cls, **kwargs) -> None:
        # perfbench/tracer.py counts the calls of a class's own value() only
        # (ROADMAP item 3), so each class gets the one it inherits as its own.
        super().__init_subclass__(**kwargs)
        if "value" not in cls.__dict__:
            cls.value = cls.value


class _ClosedFormState(ApproximantState):
    """A state whose register at any n has an enclosure without stepping:
    the method's exact value from its closed form (pibench.expansions:
    Euler's transformation of the Leibniz tail, Gauss's 2F1(1) series for
    pi/W_n), widened by the register's bound (num n / den ulps for
    _ULPS_A_STEP = (num, den), the class docstring's) and by the Machin
    reference's 0.6 ulp. The closed form is checked once per context
    against the stepped register at an anchor n (_anchored), so a wrong
    coefficient leaves no enclosure."""

    _ULPS_A_STEP = (1, 1)

    def enclosure(self, n: int) -> tuple[int, int] | None:
        """(lo, hi) with lo <= the register advance_to(n) would hold <= hi,
        at the context scale, or None where the closed form cannot reach
        that scale at n."""
        if n < self.min_index or not _anchored(type(self), self.ctx):
            return None
        return self._enclosure(n)

    def _enclosure(self, n: int) -> tuple[int, int] | None:
        w = self.ctx.scale + _CLOSED_GUARD
        exact = self._closed_form(n, w)
        if exact is None:
            return None
        lo, hi = exact
        cut = 10 ** (w - self.ctx.scale)
        num, den = self._ULPS_A_STEP
        bound = -(-num * n // den)  # ceil(num n / den)
        return lo // cut - bound, -(-hi // cut) + bound


# Digits beyond the context scale at which a closed form is evaluated.
_CLOSED_GUARD = 10


@lru_cache(maxsize=None)
def _pi_enclosure(w: int) -> tuple[int, int]:
    """Integers around pi 10**w: the Machin reference, within 0.6 ulp."""
    from .harness import reference_pi  # harness imports this module

    pi = reference_pi(PrecisionCtx(w, 0)).value.significand
    return pi - 1, pi + 1


@lru_cache(maxsize=None)
def _anchored(cls: type, ctx: PrecisionCtx) -> bool:
    """Whether cls's enclosure holds its stepped register at n = 2w and
    2w + 1, w the closed form's scale. Both series reach w there."""
    anchor, state = 2 * (ctx.scale + _CLOSED_GUARD), cls(ctx)
    for n in (anchor, anchor + 1):
        state.advance_to(n)
        ends = state._enclosure(n)
        if ends is None or not ends[0] <= state._acc <= ends[1]:
            return False
    return True


class WallisState(_ClosedFormState):
    """Bound in ulps u = 10^-scale: the register starts at 2, exact, and
    step k rounds acc f_k, f_k = 4k^2/(4k^2 - 1), to nearest, so its error
    obeys e_k = f_k e_(k-1) + d_k with |d_k| <= u/2. Unrolled, e_n =
    sum_k d_k W_n/W_k, and W_n/W_k < pi/W_1 = 3 pi/8 < 1.18, so

        |wallis(n) - 2 prod_{k=1..n} f_k| <= (3 pi/16) n u < 0.59 n u.

    Measured: at most n u/3 at scales 1-6, 27 and 32 for n < 300 (the
    first step, 8/3 rounded, is u/3 off), and 0.0068 n u at n = 1000 and
    0.00057 n u at n = 10^5 on scale 32.
    """

    method = MethodId.WALLIS
    _ULPS_A_STEP = (59, 100)

    def __init__(self, ctx: PrecisionCtx) -> None:
        super().__init__(ctx)
        self._acc = 2 * 10 ** ctx.scale

    def advance_to(self, target: int) -> None:
        # The factor is f/(f-1) with f = (2k)^2, since (2k-1)(2k+1) = f-1,
        # and round(acc f/(f-1)) = acc + round(acc/(f-1)). f-1 = ab, with
        # a = 2k-1 and b = 2k+1, outgrows one 30-bit CPython digit at
        # k = 16384, where // takes the multi-digit long division, but a and
        # b fit in one digit until k ~ 5*10^8. So the floor is taken as two,
        # by a and then by b, each on the one-digit path, with the same bits.
        acc, k = self._acc, self.n
        if target <= k:
            return
        for a in range(2 * k + 1, 2 * target, 2):
            b = a + 2
            acc += (acc + (a * b >> 1)) // a // b
        self._acc, self.n = acc, target

    def significand(self) -> int:
        check_index(self.method, self.n)
        return self._acc

    @staticmethod
    def _closed_form(n: int, w: int) -> tuple[int, int] | None:
        from .expansions import wallis_ratio  # on the first jump only

        ratio = wallis_ratio(n, w)
        if ratio is None:
            return None
        (lo, hi), one = _pi_enclosure(w), 10 ** w
        return lo * ratio[0] // one, -(-hi * ratio[1] // one)


class LeibnizState(_ClosedFormState):
    """Bound in ulps u = 10^-scale: the k = 0 term is exact and each later
    one, 4/(2k+1) rounded to nearest, is off by at most k/(2k+1) < u/2, so

        |leibniz(n) - 4 sum_{k=0..n} (-1)^k/(2k+1)| <= (n/2) u.

    Measured: at most (n/3) u at scales 1-8, 27 and 32 for n < 300.
    """

    method = MethodId.LEIBNIZ
    min_index = 0
    _ULPS_A_STEP = (1, 2)

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

    def significand(self) -> int:
        return self._acc

    @staticmethod
    def _closed_form(n: int, w: int) -> tuple[int, int] | None:
        from .expansions import leibniz_tail  # on the first jump only

        tail = leibniz_tail(n, w)
        if tail is None:
            return None
        lo, hi = _pi_enclosure(w)
        return lo + tail[0], hi + tail[1]


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

    def significand(self) -> int:
        return 6 * self._acc


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

    def significand(self) -> int:
        check_index(self.method, self.n)
        return _div_half_even(4 * self._b * 10 ** self.ctx.scale, self._a)


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
            r = _root_nearest((two + r) * one, 2)
            d = _div_half_even(4 * d * one, two + r)
            k += 1
        self._r, self._d, self.n = r, d, max(k, target)

    def significand(self) -> int:
        check_index(self.method, self.n)
        return _root_nearest(4 * self._d * self._one, 2)


class ZetaState(ApproximantState):
    """Bound in ulps u = 10^-scale. Each term 1/k^s is rounded to nearest,
    u/2 at most, up to L = _last, the last k with k^s < 2 10^scale. Every
    later term rounds to 0, and together they are under the integral of
    x^-s from L. So the sum register is within E_n ulps of
    Z_n = sum_{k=1..n} 1/k^s, where

        E_n = min(n, L)/2, plus 10^scale / ((s - 1) L^(s-1)) once n > L.

    The root (C z)^(1/s) has slope
    C^(1/s) z^(1/s - 1)/s, which falls as z grows; the register and Z_n
    are at least 1 (their n = 1 term), so the slope between them is at
    most C^(1/s)/s: 1.22, 0.77, 0.52 and 0.39 for s = 2, 4, 6 and 8, under
    pi/s. The root is rounded to nearest once, so

        |zeta_s(n) - (C Z_n)^(1/s)| <= (1/2 + (C^(1/s)/s) E_n) u.

    Measured at scales 1-8, 27 and 32 for n <= 300: at most 0.70 of the
    bound; at scale 27, 3.1 u (zeta2), 2.9 u (zeta4), 3.4 u (zeta6) and
    1.6 u (zeta8).
    """

    def __init__(self, ctx: PrecisionCtx, method: MethodId) -> None:
        super().__init__(ctx)
        self.method = method
        self._s, self._constant = ZETA_PARAMS[method]
        self._one = 10 ** ctx.scale
        self._acc = 0  # sum_{k=1..n} 1/k^s
        self._last = _iroot(2 * self._one - 1, self._s)  # last nonzero term
        # The radicand C acc 10^-scale, read at s times the scale.
        self._lift = self._constant * self._one ** (self._s - 1)

    def advance_to(self, target: int) -> None:
        one, s, acc = self._one, self._s, self._acc
        for k in range(self.n + 1, min(target, self._last) + 1):
            acc += _div_half_even(one, k ** s)
        self._acc, self.n = acc, max(self.n, target)

    def significand(self) -> int:
        check_index(self.method, self.n)
        return _root_nearest(self._lift * self._acc, self._s)


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


def approximant(method: MethodId, n: int, ctx: PrecisionCtx) -> BigFixed:
    """The n-th approximant of a method, from a fresh state."""
    method = MethodId(method)
    check_index(method, n)
    state = make_state(method, ctx)
    state.advance_to(n)
    return state.value()


def euler_cf_pair(d: int) -> tuple[int, int]:
    """(4 B_d, A_d): the exact convergent at depth d as a numerator and a
    denominator, not reduced. selftest checks it against the Leibniz
    partial sum by cross-multiplication, so it imports no fractions."""
    check_index(MethodId.EULER_CF, d)
    state = EulerCFState(PrecisionCtx(1, 0))
    state.advance_to(d)
    return 4 * state._b, state._a


def euler_cf_convergent(d: int) -> Fraction:
    """Exact rational convergent at depth d (euler_cf_pair, reduced). The
    equivalence tests check it against the Leibniz partial sum."""
    from fractions import Fraction

    return Fraction(*euler_cf_pair(d))
