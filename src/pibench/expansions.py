"""Closed forms of the Wallis product and the Leibniz sum, with bounded
remainders, for large n.

Each function returns integers (lo, hi) that enclose an exact value at
scale w (units of 10**-w), or None where its series cannot reach 10**-w at
that n. Both series are asymptotic: their terms fall while n is large
against the term's index and then grow, so a small n cannot reach every
scale. Stdlib only; nothing here knows the registers the methods round.

Leibniz. L_n = 4 sum_{k<=n} (-1)^k/(2k+1). Its tail is a Laplace
transform, sum_{k>n} (-1)^k/(2k+1) = (-1)^(n+1) (1/2) int_0^inf
e^(-ys) sech(s) ds with y = 2n + 2, and sech s = sum_j E_2j s^2j/(2j)!
gives, term by term (Borwein, Borwein & Dilcher, Amer. Math. Monthly 96,
1989),

    L_n - pi = (-1)^n (2 sum_{j<m} E_2j / y^(2j+1) + rho_m).

sech s = sum_k (-1)^k 2a_k/(s^2 + a_k^2), a_k = (k + 1/2) pi, and
1/(1 + t) = sum_{j<m} (-t)^j + (-t)^m/(1 + t) for t >= 0 bound the Taylor
remainder of sech by s^2m 2 sum_k a_k^-(2m+1) for every real s. So
|rho_m| <= 2 |E_2m| / y^(2m+1) lambda(2m+1)/beta(2m+1), where lambda and
beta are the sums of (2k+1)^-s without and with alternating signs; for
m >= 1 that ratio is below lambda(3)/beta(3) < 1.09.

Wallis. W_n = 2 prod_{k<=n} 4k^2/(4k^2 - 1) and pi/2 is the infinite
product, so ln(pi/W_n) = sum_{k>=N} f(k), N = n + 1, for
f(x) = -ln(1 - 1/(4x^2)) = sum_p x^-2p/(p 4^p). The sum equals the ratio
ln Gamma(n+1/2) + ln Gamma(n+3/2) - 2 ln Gamma(n+1) that Frenzen (SIAM J.
Math. Anal. 18(3), 1987) expands; here it is taken by Euler-Maclaurin,
whose remainder is elementary. With a = 2N,

    sum_{k>=N} f(k) = int_N^inf f + f(N)/2
                      - sum_{j=1..m} B_2j/(2j)! f^(2j-1)(N) + R_m,
    int_N^inf f + f(N)/2 = atanh(1/a) - ((a - 1)/2) sum_p 1/(p a^2p),
    f^(r)(x) = (-1)^(r-1) (r-1)! (2x^-r - (x-1/2)^-r - (x+1/2)^-r),

and, as the periodic Bernoulli function satisfies |B~_2m| <= |B_2m| and
f^(2m) >= 0 (f is completely monotone), |R_m| <= |B_2m|/(2m)! times
int_N^inf f^(2m) = |f^(2m-1)(N)|: at most the last term taken.
(Concrete Mathematics (9.67); Olver, Asymptotics and Special Functions,
ch. 8.) W_n/pi is then e^-S, summed as an alternating series.

Both take their coefficients from the zigzag numbers A_k: A_2j = |E_2j|,
and B_2j = (-1)^(j-1) 2j A_(2j-1) / (4^j (4^j - 1)).
"""

from __future__ import annotations

from functools import lru_cache

# The most series terms either function takes. Their coefficients cost
# O(MAX_TERMS^2) additions once. With them the Leibniz series reaches 126
# digits at n = 100 and 265 at n = 500, and the Wallis one 187 and 327;
# beyond that, None.
MAX_TERMS = 100


@lru_cache(maxsize=None)
def _zigzag_table(count: int) -> tuple[int, ...]:
    """The zigzag numbers A_0 .. A_(count-1), by Seidel's boustrophedon:
    1, 1, 1, 2, 5, 16, 61, 272, ..."""
    row, table = [1], [1]
    while len(table) < count:
        last = [0]
        for x in reversed(row):
            last.append(last[-1] + x)
        row = last
        table.append(row[-1])
    return tuple(table)


def _zigzag(k: int) -> int:
    """A_k, from a table of the next multiple of 64 entries."""
    return _zigzag_table(64 * (k // 64 + 1))[k]


def leibniz_tail(n: int, w: int) -> tuple[int, int] | None:
    """(lo, hi) with lo <= (L_n - pi) 10**w <= hi, for n >= 0."""
    y2, one = (2 * n + 2) ** 2, 10 ** w
    den, total, last = 2 * n + 2, 0, None
    for j in range(MAX_TERMS):
        # 2 E_2j / y^(2j+1) at scale w is (-1)^j num/den.
        num = 2 * _zigzag(2 * j) * one
        if num < den:
            # Each of the j terms taken was floored (off by under 1), and
            # the remainder is under 1.09 num/den < 2.
            lo, hi = total - j - 2, total + j + 2
            return (lo, hi) if n % 2 == 0 else (-hi, -lo)
        if last is not None and num * last[1] >= last[0] * den:
            return None  # the terms grow from here
        total += num // den if j % 2 == 0 else -(num // den)
        last, den = (num, den), den * y2
    return None


def wallis_ratio(n: int, w: int) -> tuple[int, int] | None:
    """(lo, hi) with lo <= (W_n / pi) 10**w <= hi, for n >= 1."""
    a, one = 2 * n + 2, 10 ** w
    a2 = a * a
    # S = ln(pi/W_n) at scale w, each term floored: off by under `floored`,
    # plus the two convergent tails (ratio <= 1/4, so each under 4/3).
    s, floored = 0, 0
    power, i = a, 0  # a^(2i+1)
    while term := one // ((2 * i + 1) * power):
        s, floored, power, i = s + term, floored + 1, power * a2, i + 1
    power, p = a2, 1  # a^2p
    while term := (a - 1) * one // (2 * p * power):
        s, floored, power, p = s - term, floored + 1, power * a2, p + 1
    # Euler-Maclaurin terms: -B_2j/(2j(2j-1)) (2 N^-r - (N-1/2)^-r -
    # (N+1/2)^-r), r = 2j - 1, is (-1)^j A_r num / (2 r (4^j - 1) a^r
    # (a^2 - 1)^r) with num = 2 (a^2 - 1)^r - a^r ((a+1)^r + (a-1)^r) < 0.
    last = None
    ar, br, cr, dr = a, a2 - 1, a + 1, a - 1  # a^r, (a^2-1)^r, (a+1)^r, (a-1)^r
    for j in range(1, MAX_TERMS + 1):
        r = 2 * j - 1
        num = _zigzag(r) * (ar * (cr + dr) - 2 * br) * one
        den = 2 * r * (4 ** j - 1) * ar * br
        if last is not None and num * last[1] >= last[0] * den:
            return None  # the terms grow from here
        s += num // den if j % 2 else -(num // den)
        floored += 1
        if num < den:  # the remainder is at most this last term, under 1
            break
        last = num, den
        ar, br, cr, dr = ar * a2, br * (a2 - 1) ** 2, cr * (a + 1) ** 2, dr * (a - 1) ** 2
    else:
        return None
    # S lies within `floored` + 4 units of s, and e^-x moves by at most
    # |dx| for x >= 0.
    lo, hi = _exp_neg(max(s, 0), one)
    return lo - floored - 4, hi + floored + 4


def _exp_neg(x: int, one: int) -> tuple[int, int]:
    """(lo, hi) with lo <= e^(-x/one) one <= hi, for 0 <= x < one. Each
    term is floored from the floored term before, so off by at most 2,
    and the alternating tail after the first term floored to 0 is under
    4."""
    total, term, i = one, one, 0
    while term:
        i += 1
        term = term * x // (i * one)
        total += -term if i & 1 else term
    return total - 2 * i - 4, total + 2 * i + 4
