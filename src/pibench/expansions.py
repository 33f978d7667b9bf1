"""Closed forms of the Wallis product and the Leibniz sum, with bounded
remainders, for large n.

Each function returns integers (lo, hi) that enclose an exact value at
scale w (units of 10**-w), or None where its series has not reached
10**-w within n terms. Both series converge, and their terms are positive,
each under half the one before. Stdlib only; nothing here knows the
registers the methods round.

Leibniz. L_n = 4 sum_{k<=n} (-1)^k/(2k+1) and pi is the infinite sum, so
with m = n + 1, L_n - pi = 4 (-1)^n S for S = sum_j (-1)^j/(2m+2j+1) =
int_0^1 t^2m/(1+t^2) dt. On [0, 1], 1/(1+t^2) = (1/2) sum_k ((1-t^2)/2)^k
converges uniformly, and int_0^1 t^2m (1-t^2)^k dt = 2^k k!/prod_{i<=k}
(2m+2i+1). So Euler's transformation of S is exact:

    4S = sum_k v_k,  v_0 = 2/(2m+1),  v_(k+1) = v_k (k+1)/(2m+2k+3),

whose ratio is under 1/2. (m = 0 gives Euler's pi/2 = sum 2^k k!^2/(2k+1)!.)

Wallis. W_n = 2 prod_{k<=n} 4k^2/(4k^2-1) and pi/2 is the infinite
product, so pi/W_n = prod_{k>n} 4k^2/(4k^2-1) = Gamma(n+1/2) Gamma(n+3/2)/
Gamma(n+1)^2, which is 2F1(1/2, 1/2; n+3/2; 1) by Gauss's theorem:

    pi/W_n = sum_k t_k,  t_0 = 1,  t_(k+1) = t_k (2k+1)^2/(2(k+1)(2k+2n+3)).

That ratio is at most r_k = (k+1)/(k+n+2), under 1/2 for k < n, and
sum_{p>=1} prod_{i=K..K+p-1} r_i = 2F1(K+1, 1; K+n+2; 1) - 1 = (K+1)/n, so
the terms after t_K sum to at most t_K for K < n. W_n/pi is one division,
and as pi/W_n >= 1 it moves by no more than pi/W_n does.

So in both series the terms from the K-th on sum to at most twice the K-th.
Both take at most n terms: the Wallis bound needs that cap, and it limits a
jump that cannot land to about n steps' work. At the anchor n = 2w both
reach w for any w: n terms give about 0.9n digits (Leibniz) and 0.6n
(Wallis).
"""

from __future__ import annotations


def _sum(term: int, ratio, n: int) -> tuple[int, int] | None:
    """(lo, hi) around a series at scale w whose first term, floored, is
    `term` and whose term k + 1 is term k times num/den < 1/2, (num, den) =
    ratio(k); None if none of the first n floored terms is 0.

    Each term is floored from the floored one before, so it is low by e
    with e' < e/2 + 1, under 2: the k terms summed are under 2k low. The
    first term floored to 0 is then under 2, and it and the rest sum to
    under 4."""
    total = 0
    for k in range(n):
        if not term:
            return total, total + 2 * k + 4
        total += term
        num, den = ratio(k)
        term = term * num // den
    return None


def leibniz_tail(n: int, w: int) -> tuple[int, int] | None:
    """(lo, hi) with lo <= (L_n - pi) 10**w <= hi, for n >= 0."""
    m2 = 2 * n + 2  # 2m
    ends = _sum(2 * 10 ** w // (m2 + 1), lambda k: (k + 1, m2 + 2 * k + 3), n)
    if ends is None:
        return None
    lo, hi = ends
    return (lo, hi) if n % 2 == 0 else (-hi, -lo)


def wallis_ratio(n: int, w: int) -> tuple[int, int] | None:
    """(lo, hi) with lo <= (W_n / pi) 10**w <= hi, for n >= 1."""
    one = 10 ** w
    ends = _sum(one, lambda k: ((2 * k + 1) ** 2, 2 * (k + 1) * (2 * k + 2 * n + 3)), n)
    if ends is None:
        return None
    return one * one // ends[1], -(-one * one // ends[0])
