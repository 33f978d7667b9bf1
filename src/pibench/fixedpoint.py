"""Decimal fixed-point arithmetic on arbitrary-size integers.

A value is a pair (significand, scale) meaning significand * 10**-scale.
The two context-aware operations, fx_sqrt and fx_nth_root, return a root
at the context's scale (working digits plus guard digits). fx_sqrt rounds
to the nearest unit, ties to even; fx_nth_root floors the exact root two
digits below the target scale (math.isqrt for even orders, integer Newton
iteration for an odd remainder) and rounds that half-even. Both stay
within one unit in the last place. fx_round and fx_to_string round
half-even to a given number of places.

Values are immutable; all functions are pure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import total_ordering

_DECIMAL_RE = re.compile(r"^[+-]?\d+(?:\.(\d+))?$")


def _div_half_even(num: int, den: int) -> int:
    """Nearest integer to num/den, ties to even. den must be positive."""
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den or (twice == den and q & 1):
        q += 1
    return q


def _isqrt_nearest(n: int) -> int:
    """Nearest integer to sqrt(n), n >= 0: floor(2 sqrt(n)) halved, rounded
    up. No integer n has sqrt(n) = k + 1/2, so there is no tie."""
    return (math.isqrt(4 * n) + 1) // 2


def _iroot(n: int, r: int) -> int:
    """Floor r-th root of a non-negative integer.

    Even orders are peeled off as square roots and an odd remainder is
    taken by Newton iteration. Nesting is exact for integers:
    floor(floor(n**(1/a))**(1/b)) == floor(n**(1/(a*b))).
    """
    if n < 0:
        raise ValueError("even/unsupported root of a negative value")
    if r < 1:
        raise ValueError("root order must be a positive integer")
    while r % 2 == 0:
        n = math.isqrt(n)
        r //= 2
    if r == 1 or n == 0:
        return n
    x = 1 << (n.bit_length() // r + 1)
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            break
        x = y
    while x ** r > n:
        x -= 1
    while (x + 1) ** r <= n:
        x += 1
    return x


@dataclass(frozen=True)
class PrecisionCtx:
    """Reporting precision (working_dp) plus internal guard digits."""

    working_dp: int
    guard_dp: int = 10

    def __post_init__(self) -> None:
        if self.working_dp < 1:
            raise ValueError("working_dp must be >= 1")
        if self.guard_dp < 0:
            raise ValueError("guard_dp must be >= 0")

    @property
    def scale(self) -> int:
        return self.working_dp + self.guard_dp


def default_guard(max_n: int) -> int:
    """Guard digits for a run whose largest sample index is max_n.

    10 + ceil(log10(max_n)) bounds the drift of up to max_n sequential
    half-even roundings well below the working digits.
    """
    d = 0  # ceil(log10(max_n)), 0 for max_n <= 1
    while 10 ** d < max_n:
        d += 1
    return 10 + d


@total_ordering
@dataclass(frozen=True, slots=True)
class BigFixed:
    """significand * 10**-scale. Zero is canonically (0, 0).

    Slotted: a value holds its two integers and no instance dict.
    """

    significand: int
    scale: int = 0

    def __post_init__(self) -> None:
        if self.scale < 0:
            raise ValueError("scale must be >= 0")
        if self.significand == 0 and self.scale != 0:
            object.__setattr__(self, "scale", 0)

    # Equality and ordering compare real values, not representations.
    def _aligned(self, other: "BigFixed") -> tuple[int, int]:
        if self.scale == other.scale:
            return self.significand, other.significand
        if self.scale < other.scale:
            return self.significand * 10 ** (other.scale - self.scale), other.significand
        return self.significand, other.significand * 10 ** (self.scale - other.scale)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BigFixed):
            return NotImplemented
        a, b = self._aligned(other)
        return a == b

    def __lt__(self, other: "BigFixed") -> bool:
        if not isinstance(other, BigFixed):
            return NotImplemented
        a, b = self._aligned(other)
        return a < b

    def __hash__(self) -> int:
        sig, sc = self.significand, self.scale
        while sc > 0 and sig % 10 == 0:
            sig //= 10
            sc -= 1
        return hash((sig, sc))

    def __neg__(self) -> "BigFixed":
        return BigFixed(-self.significand, self.scale)

    def __abs__(self) -> "BigFixed":
        return BigFixed(abs(self.significand), self.scale)

    def __repr__(self) -> str:  # debugging aid, not the wire format
        return f"BigFixed({fx_to_string(self, self.scale)})"


# The slot descriptors themselves: object.__setattr__ would look each one
# up on every call, which measured about 40 % more per value.
_new = object.__new__
_set_significand = BigFixed.significand.__set__
_set_scale = BigFixed.scale.__set__


def _fixed(significand: int, scale: int) -> BigFixed:
    """BigFixed(significand, scale) for a scale already known to be >= 0,
    without __post_init__: the private constructor of the per-sample
    value() paths. A zero significand still gets scale 0.
    """
    x = _new(BigFixed)
    _set_significand(x, significand)
    _set_scale(x, scale if significand else 0)
    return x


def _rescale(x: BigFixed, scale: int) -> BigFixed:
    if scale == x.scale:
        return x
    if scale > x.scale:
        return BigFixed(x.significand * 10 ** (scale - x.scale), scale)
    return BigFixed(_div_half_even(x.significand, 10 ** (x.scale - scale)), scale)


def fx_sqrt(x: BigFixed, ctx: PrecisionCtx) -> BigFixed:
    """sqrt(x) rounded to nearest at the context scale, ties to even (a tie
    needs x.scale > 2 * ctx.scale). isqrt(floor(4y)) = floor(2 sqrt(y)) for
    real y = x * 10^(2 scale), so the finer digits of x cost no accuracy."""
    if x.significand < 0:
        raise ValueError("square root of a negative value")
    e = 2 * ctx.scale - x.scale
    m, rem = divmod(4 * x.significand * 10 ** max(e, 0), 10 ** max(-e, 0))
    root = math.isqrt(m)
    q = (root + 1) // 2
    if root & q & 1 and not rem and root * root == m:  # sqrt(y) = q - 1/2
        q -= 1
    return BigFixed(q, ctx.scale)


def fx_nth_root(x: BigFixed, r: int, ctx: PrecisionCtx) -> BigFixed:
    """x**(1/r) at the context scale, within 1 ulp: the floor of the exact
    root two digits below the target scale, rounded half-even."""
    if r < 1:
        raise ValueError("root order must be a positive integer")
    if x.significand < 0:
        if r % 2 == 0:
            raise ValueError("even root of a negative value")
        return -fx_nth_root(abs(x), r, ctx)
    if r == 1:
        return _rescale(x, ctx.scale)
    s = ctx.scale + 2
    n = _rescale(x, r * s).significand
    return _rescale(BigFixed(_iroot(n, r), s), ctx.scale)


def fx_round(x: BigFixed, dp: int) -> BigFixed:
    if dp < 0:
        raise ValueError("dp must be >= 0")
    return _rescale(x, dp)


def fx_to_string(x: BigFixed, dp: int) -> str:
    """Plain decimal string with exactly dp fractional digits, rounded
    half-even."""
    if dp < 0:
        raise ValueError("dp must be >= 0")
    sig = x.significand
    if dp >= x.scale:
        sig *= 10 ** (dp - x.scale)
    else:
        sig = _div_half_even(sig, 10 ** (x.scale - dp))
    if not dp:
        return str(sig)
    digits = str(abs(sig)).zfill(dp + 1)
    body = f"{digits[:-dp]}.{digits[-dp:]}"
    return "-" + body if sig < 0 else body


def fx_truncate_string(x: BigFixed, dp: int) -> str:
    """Like fx_to_string but truncates toward zero instead of rounding."""
    if dp < 0:
        raise ValueError("dp must be >= 0")
    sig = abs(x.significand)
    if dp >= x.scale:
        sig *= 10 ** (dp - x.scale)
    else:
        sig //= 10 ** (x.scale - dp)
    i, f = divmod(sig, 10 ** dp) if dp else (sig, 0)
    body = f"{i}.{f:0{dp}d}" if dp else str(i)
    return "-" + body if x.significand < 0 else body


def fx_parse(s: str) -> BigFixed:
    """Parse a plain decimal string; scale is the fractional digit count."""
    m = _DECIMAL_RE.match(s.strip())
    if not m:
        raise ValueError(f"not a plain decimal literal: {s!r}")
    frac = m.group(1) or ""
    return BigFixed(int(s.replace(".", "")), len(frac))
