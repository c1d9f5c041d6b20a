"""How many sampling rounds until the collected words span the space?

The success probability of k uniform draws from GF(2)^n decomposes into
the probability that n draws are independent times a correction series
for the wasted rounds.  Both routes below are exact rationals; the Monte
Carlo column is a seeded rank experiment for comparison.
"""

import math
from fractions import Fraction

from simonstruct import (
    p_full_exact,
    prob_table,
    pseudo_confirm_prob,
    q_exact,
    rank_success_rate,
    required_trials,
    success_prob_exact,
)
from simonstruct.probmodel import q_direct_row

n = 8
print(f"probability that {n} uniform words are already independent:"
      f" {p_full_exact(n)} = {float(p_full_exact(n)):.6f}")

print("\nwasted-round correction q(n, i), recurrence vs direct sum:")
for i in range(5):
    a, b = q_exact(4, i), q_direct_row(4, i)[i]
    print(f"  i={i}:  {a}  ==  {b}  ({a == b})")

print(f"\nsuccess probability by total draws k (n = {n}):")
table = prob_table(n, n + 10)
print("  k    s(n,k)      log2(1 - s)    measured (10k trials)")
for k, s, h in table:
    if k <= n + 6:
        mc = rank_success_rate(n, k, 10_000, seed=k)
        print(f"  {k:>2}   {s:.6f}   {h:>10.3f}     {mc:.4f}")

# eight extra rounds push failure below one percent of the ceiling
s8 = float(success_prob_exact(n, n + 8))
print(f"\ns(n, n+8) = {s8:.6f} > 0.99 * (1 - 2^-8) = {0.99 * (1 - 2**-8):.6f}")

# how expensive is catching a pseudo structure by random checks alone
print("\nchance a shift violated on v inputs survives (l+1)*p aligned probes")
print("(n = 10, l = 10):")
for r in (1, 4, 16):
    row = [pseudo_confirm_prob(10, r, 10, p) for p in (2, 5, 10)]
    print(f"  v={r:>2}:  p=2 {row[0]:.4f}   p=5 {row[1]:.4f}   p=10 {row[2]:.4f}")

bound = required_trials(10, 1, 10, beta=1.0)
print(f"\ntrials needed to push a single-violation impostor below 2^-10:"
      f" {math.ceil(bound.bound)}")
print(f"closed-form sandwich: {bound.lower:.1f} <= {bound.bound:.1f}"
      f" <= {bound.upper:.1f}")
print(f"check: confirm chance at that trial count ="
      f" {pseudo_confirm_prob(10, 1, 10, math.ceil(bound.bound)):.2e}"
      f" vs target {2.0 ** -10:.2e}")
