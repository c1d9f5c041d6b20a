"""Success-probability model for random vector collection over GF(2).

Answers the question "after k uniform draws from F_2^n, how likely is a
full-rank collection?" with exact dyadic-rational arithmetic, plus the
confirmation statistics for pseudo structures: how often a structure that
fails on r points survives repeated random checking, and how many trials
are needed to push the false-confirmation rate below a target.

Two independent routes compute the excess-draw factor q(n, i): a memoized
recurrence and a brute-force sum over integer compositions.  They must
agree exactly; tests hold them to that.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .gf2 import SpanTracker, _check_dim
from .rng import as_rng

# brute-force composition enumeration blows up past these
DIRECT_N_CAP = 8
DIRECT_I_CAP = 12


def p_full_exact(n: int) -> Fraction:
    """Exact probability that n uniform vectors from F_2^n are independent.

    Equals the product of (1 - 2^-i) for i = 1..n, n within the dimension cap.
    """
    _check_dim(n)
    out = Fraction(1)
    for i in range(1, n + 1):
        out *= 1 - Fraction(1, 1 << i)
    return out


@lru_cache(maxsize=None)
def q_exact(n: int, i: int) -> Fraction:
    """Excess-draw factor by recurrence, exact.

    q(n, i) = sum over m = 0..i of 2^-m * q(n-1, m), with the closed base
    q(1, i) = 2 - 2^-i.  Memoized; the dimension cap on n bounds the recursion.
    """
    _check_dim(n)
    if i < 0:
        raise ValueError("need i >= 0")
    if n == 1:
        return 2 - Fraction(1, 1 << i)
    return sum(
        Fraction(1, 1 << m) * q_exact(n - 1, m) for m in range(i + 1)
    )


def q_direct_row(n: int, i_max: int) -> list[Fraction]:
    """Brute-force q(n, i) for every i = 0..i_max in one enumeration.

    q(n, i) sums 2^-(sum_j (n-j)*x_j) over every composition x_0 + ... +
    x_n = i of nonnegative integers, independent of the recurrence route
    and used to validate it.  The weight-zero last coordinate means a composition's summand depends
    only on x_0..x_{n-1}; each prefix with sum p contributes the same term
    to every total i >= p, the last coordinate taking the remainder.  One
    sweep over prefixes therefore yields the whole row.
    """
    if n < 1 or i_max < 0:
        raise ValueError("need n >= 1 and i >= 0")
    if n > DIRECT_N_CAP or i_max > DIRECT_I_CAP:
        raise ValueError(f"brute-force route capped at n <= {DIRECT_N_CAP}, i <= {DIRECT_I_CAP}")
    # counts[p][t]: prefixes x_0..x_{n-1} with sum p and exponent t
    counts = [[0] * (n * i_max + 1) for _ in range(i_max + 1)]

    def descend(j: int, used: int, t: int) -> None:
        if j == n:
            counts[used][t] += 1
            return
        w = n - j
        for x in range(i_max - used + 1):
            descend(j + 1, used + x, t + w * x)

    descend(0, 0, 0)
    row: list[Fraction] = []
    acc = [0] * (n * i_max + 1)
    for p in range(i_max + 1):
        for t, c in enumerate(counts[p]):
            acc[t] += c
        row.append(sum(Fraction(c, 1 << t) for t, c in enumerate(acc) if c))
    return row


def success_prob_exact(n: int, k: int) -> Fraction:
    """Exact probability that k uniform vectors from F_2^n span it."""
    if k < n:
        raise ValueError("need k >= n draws to reach full rank")
    return p_full_exact(n) * q_exact(n, k - n)


def _log2_fraction(x: Fraction) -> float:
    """log2 of a positive rational, safe far below the float range."""
    if x <= 0:
        raise ValueError("need a positive value")
    shift = x.denominator.bit_length() - x.numerator.bit_length()
    scaled = x * (1 << shift) if shift >= 0 else x / (1 << -shift)
    return math.log2(float(scaled)) - shift


def prob_table(n: int, k_max: int) -> tuple[tuple[int, float, float], ...]:
    """Rows (k, s(n, k), log2 failure h(n, k)) for k = n..k_max."""
    if k_max < n:
        raise ValueError("k_max must be at least n")
    rows = []
    for k in range(n, k_max + 1):
        s_val = success_prob_exact(n, k)
        h_val = _log2_fraction(1 - s_val)
        rows.append((k, float(s_val), h_val))
    return tuple(rows)


def pseudo_confirm_prob(n: int, r: int, l: int, p: int) -> float:
    """Chance that a structure violated on r points survives checking.

    Each of p trials tests l + 1 aligned points; all must miss the r bad
    inputs, which happens with probability (1 - r/2^n)^((l+1)*p).
    """
    size = 1 << n
    if not 0 <= r <= size:
        raise ValueError("violation count must lie in [0, 2^n]")
    if l < 1 or p < 1:
        raise ValueError("need l >= 1 and p >= 1")
    return (1.0 - r / size) ** ((l + 1) * p)


class TrialsBound(NamedTuple):
    """Trial-count bound with its two-sided closed-form sandwich."""

    bound: float
    lower: float
    upper: float


def required_trials(n: int, r: int, l: int, beta: float) -> TrialsBound:
    """Trials needed to drive false confirmation below 2^(-beta*n).

    Solves pseudo_confirm_prob(n, r, l, p) <= 2^(-beta*n) for p, giving
    beta*n / ((l+1) * -log2(1 - r/2^n)).  For r below 2^(n-1) the bound is
    sandwiched between (beta*n*ln2/(l+1)) * (2^n/r) * 1/2 and the same
    expression without the half: the trial count scales like 2^n / r.
    """
    if not 0 < r < (1 << (n - 1)):
        raise ValueError("violation count must lie in (0, 2^(n-1))")
    if l < 1 or beta <= 0:
        raise ValueError("need l >= 1 and beta > 0")
    x = r / (1 << n)
    neg_log2 = -math.log1p(-x) / math.log(2)
    bound = beta * n / ((l + 1) * neg_log2)
    upper = beta * n * math.log(2) / (l + 1) * ((1 << n) / r)
    return TrialsBound(bound=bound, lower=upper / 2, upper=upper)


def rank_success_rate(
    n: int, k: int, trials: int, seed: int | np.random.Generator | None = None
) -> float:
    """Measured fraction of k-draw batches reaching full rank.

    Monte Carlo bridge for :func:`success_prob_exact`: draws k uniform vectors
    from F_2^n per trial and checks their span.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = as_rng(seed)
    draws = rng.integers(0, 1 << n, size=(trials, k), dtype=np.int64)
    hits = 0
    for row in draws:
        if SpanTracker(n, row.tolist()).dim == n:
            hits += 1
    return hits / trials
