"""Decimal fixed-point arithmetic on arbitrary-size integers.

A value is a pair (significand, scale) meaning significand * 10**-scale.
The two context-aware operations, fx_sqrt and fx_nth_root, return a root
at the context's scale (working digits plus guard digits). Every root,
theirs and the methods' own (Viete, zeta), rounds to nearest once, ties
to even, through one primitive, _root_nearest: half an ulp at most.
fx_round and fx_to_string round half-even to a given number of places.

Values are immutable; all functions are pure. BigFixed and PrecisionCtx
are slotted, and assigning or deleting a field raises FrozenInstanceError
(see _Frozen). They are written out by hand: the stdlib module that would
generate them imports inspect, ast and dis, which took about half of
pibench's start-up.
"""

from __future__ import annotations

import math
import re
from functools import total_ordering

_DECIMAL_RE = re.compile(r"^[+-]?\d+(?:\.(\d+))?$")


def _div_half_even(num: int, den: int) -> int:
    """Nearest integer to num/den, ties to even. den must be positive."""
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den or (twice == den and q & 1):
        q += 1
    return q


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


def _root_nearest(num: int, r: int, den: int = 1) -> int:
    """Nearest integer to y = (num/den)**(1/r), ties to even; num >= 0,
    den > 0, r >= 1. Nested floors are exact, so the floor r-th root of
    floor(2^r num/den) is floor(2y), and (floor(2y) + 1) // 2 rounds y to
    nearest. A tie, y = q - 1/2, needs (2q - 1)^r den = 2^r num, which no
    integer num meets when den = 1."""
    twice = _iroot((num << r) // den, r)
    q = (twice + 1) // 2
    if den > 1 and twice & q & 1 and twice ** r * den == num << r:
        q -= 1
    return q


class _Frozen:
    """Base of the immutable value classes.

    The fields are the slots, in order; __init__ sets each once through
    object.__setattr__ (or its slot descriptor). Equality (with the same
    class only), hash and repr are those of the field tuple; copy, deepcopy
    and pickle rebuild a value through __init__ (__reduce__). Assigning or
    deleting a field raises the stdlib's FrozenInstanceError, imported on
    that error path only.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name: str, value: object) -> None:
        raise _frozen_error("assign to", name)

    def __delattr__(self, name: str) -> None:
        raise _frozen_error("delete", name)


def _frozen_error(verb: str, name: str) -> AttributeError:
    from dataclasses import FrozenInstanceError
    return FrozenInstanceError(f"cannot {verb} field {name!r}")


class PrecisionCtx(_Frozen):
    """Reporting precision (working_dp) plus internal guard digits."""

    __slots__ = ("working_dp", "guard_dp")

    def __init__(self, working_dp: int, guard_dp: int = 10) -> None:
        if working_dp < 1:
            raise ValueError("working_dp must be >= 1")
        if guard_dp < 0:
            raise ValueError("guard_dp must be >= 0")
        object.__setattr__(self, "working_dp", working_dp)
        object.__setattr__(self, "guard_dp", guard_dp)

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
class BigFixed(_Frozen):
    """significand * 10**-scale. Zero is canonically (0, 0).

    Slotted: a value holds its two integers and no instance dict.
    """

    __slots__ = ("significand", "scale")

    def __init__(self, significand: int, scale: int = 0) -> None:
        if scale < 0:
            raise ValueError("scale must be >= 0")
        _set_significand(self, significand)
        _set_scale(self, scale if significand else 0)

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
    without __init__'s check: the private constructor of the per-sample
    value() paths. A zero significand still gets scale 0.
    """
    x = _new(BigFixed)
    _set_significand(x, significand)
    _set_scale(x, scale if significand else 0)
    return x


def fx_sqrt(x: BigFixed, ctx: PrecisionCtx) -> BigFixed:
    """sqrt(x) rounded to nearest at the context scale, ties to even (a tie
    needs x.scale > 2 * ctx.scale)."""
    if x.significand < 0:
        raise ValueError("square root of a negative value")
    return fx_nth_root(x, 2, ctx)


def fx_nth_root(x: BigFixed, r: int, ctx: PrecisionCtx) -> BigFixed:
    """x**(1/r) rounded to nearest at the context scale, ties to even. The
    exact radicand x 10^(r scale) is passed whole, as num/den, so the
    finer digits of x cost no accuracy."""
    if r < 1:
        raise ValueError("root order must be a positive integer")
    if x.significand < 0:
        if r % 2 == 0:
            raise ValueError("even root of a negative value")
        return -fx_nth_root(abs(x), r, ctx)
    e = r * ctx.scale - x.scale
    q = _root_nearest(x.significand * 10 ** max(e, 0), r, 10 ** max(-e, 0))
    return BigFixed(q, ctx.scale)


def fx_round(x: BigFixed, dp: int) -> BigFixed:
    if dp < 0:
        raise ValueError("dp must be >= 0")
    if dp >= x.scale:
        return BigFixed(x.significand * 10 ** (dp - x.scale), dp)
    return BigFixed(_div_half_even(x.significand, 10 ** (x.scale - dp)), dp)


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
