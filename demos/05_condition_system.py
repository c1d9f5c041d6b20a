"""Structure shifts as solutions of a polynomial system in the shift bits.

Shifting the input of a polynomial re-expands every monomial; collecting
the result by input monomial gives one vanishing condition per monomial,
and a shift is a zero-constant structure exactly when it solves them all.
The top-degree coefficients alone often force the only possible nonzero
shift, which a single spectrum lookup then accepts or rejects.
"""

import numpy as np

from simonstruct import (
    BitVector,
    TruthTable,
    anf_of,
    brute_structures,
    classify_top,
    derivative_anf,
    format_anf,
    parse_anf,
    solution_mask,
    theorem2_system,
    tt_of,
)

f = parse_anf("x1*x2 + x1*x3 + x2*x3", 3)
print(f"f = {format_anf(f)}   (n = {f.n})")


# a monomial is a packed word: variable v is bit v-1, the word 0 is the constant
def mono_text(word, var):
    return "*".join(f"{var}{v + 1}" for v in range(f.n) if word >> v & 1) or "1"


print("\nvanishing conditions, one per input monomial:")
for cond in theorem2_system(f):
    key = mono_text(cond.x_monomial, "x")
    poly = " + ".join(mono_text(m, "s") for m in sorted(cond.monomials))
    print(f"  [{key:>6}]  {poly} = 0")

mask = solution_mask(theorem2_system(f), f.n)
print("\nshifts solving the whole system:",
      [f"{s:03b}" for s in np.nonzero(mask)[0]])

verdict = classify_top(f)
print(f"\ntop-coefficient verdict: {verdict.case}, forced shift {verdict.forced_s}")

s = BitVector(3, 0b111)
d = derivative_anf(f, s)
print(f"derivative in direction 111: {format_anf(d)}")
print("so 111 shifts f by the constant one: it solves every condition that")
print("has variables, but fails the constant condition, and lands in the")
print("one-constant coset instead of the zero-constant subspace:")

sets = brute_structures(tt_of(f))
print(f"  u0 members {[str(v) for v in sets.u0.members()]}")
print(f"  u1 members {[str(v) for v in sets.u1]}")

# on random functions the system's solution set is exactly the oracle's
rng = np.random.default_rng(5)
agree = 0
for _ in range(200):
    n = int(rng.integers(1, 7))
    g = TruthTable(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))
    mask = solution_mask(theorem2_system(anf_of(g)), n)
    agree += np.array_equal(np.nonzero(mask)[0], brute_structures(g).u0.member_ints())
print(f"\nsystem solutions == exhaustive structure set on {agree}/200 random functions")
