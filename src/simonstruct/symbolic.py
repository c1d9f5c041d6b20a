"""Symbolic membership conditions for structure shifts, from the ANF side.

Substituting x -> x ^ s into an ANF and cancelling f(x) leaves, for every
input monomial M, a multilinear GF(2) polynomial in the shift coordinates
s_1..s_n that must vanish for s to be a zero-constant structure.  The full
set of those coefficient conditions characterizes the structure subspace
exactly; the top-degree conditions alone already pin the shift down in a
handful of recognizable coefficient patterns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .boolfn import Anf, _evaluate_monomials, _mono_index
from .gf2 import MAX_DIMENSION, BitVector, _check_dim
from .walsh import mobius_transform

__all__ = [
    "SymbolicCondition",
    "ClassifierVerdict",
    "derivative_anf",
    "theorem2_system",
    "solution_mask",
    "classify_top",
    "lemma1_check",
]


@dataclass(frozen=True)
class SymbolicCondition:
    """One multilinear GF(2) polynomial in s_1..s_n that must equal zero.

    x_monomial records which input monomial of the shifted difference the
    condition came from; monomials are frozensets of shift coordinates.
    """

    n: int
    x_monomial: frozenset[int]
    monomials: frozenset[frozenset[int]]

    def evaluate(self, s: BitVector | int) -> int:
        return _evaluate_monomials(self.monomials, s)


@dataclass(frozen=True)
class ClassifierVerdict:
    """Necessary condition on nonzero structure shifts from top coefficients.

    case is "none" when no pattern applies, otherwise one of rule1..rule5.
    forced_s is the only vector a nonzero zero-constant structure shift
    could possibly be (the zero vector meaning: there is none); None when
    undetermined.
    """

    case: str
    forced_s: BitVector | None


def derivative_anf(f: Anf, s: BitVector) -> Anf:
    """ANF of x -> f(x ^ s) ^ f(x) for a concrete shift s."""
    if s.n != f.n:
        raise ValueError("dimension mismatch")
    acc: set[frozenset[int]] = set()
    for mono in f.monomials:
        shifted = [v for v in mono if s.bit(v)]
        fixed = frozenset(v for v in mono if not s.bit(v))
        # product over shifted vars of (x_v + 1) expands to all subsets;
        # the full subset reproduces the original monomial and cancels
        # against the unshifted copy, so only proper subsets remain
        for size in range(len(shifted)):
            for sub in combinations(shifted, size):
                acc.symmetric_difference_update({fixed | frozenset(sub)})
    return Anf(f.n, frozenset(acc))


def theorem2_system(f: Anf) -> list[SymbolicCondition]:
    """Coefficient-vanishing conditions equivalent to structure membership.

    For each monomial T of f and each proper subset M of T, the condition
    keyed by M gains the shift monomial on T minus M.  A concrete s solves
    every condition iff the derivative in direction s is the zero function.
    Conditions are returned sorted by their x-monomial packed index.
    """
    bucket: dict[frozenset[int], set[frozenset[int]]] = {}
    for mono in f.monomials:
        for size in range(len(mono)):
            for sub in combinations(sorted(mono), size):
                m = frozenset(sub)
                bucket.setdefault(m, set()).add(mono - m)
    conditions = [
        SymbolicCondition(f.n, m, frozenset(monos)) for m, monos in bucket.items()
    ]
    conditions.sort(key=lambda c: _mono_index(c.x_monomial))
    return conditions


def solution_mask(conditions: list[SymbolicCondition], n: int) -> np.ndarray:
    """Boolean mask over all 2**n shifts solving every condition.

    Each condition is a multilinear polynomial, so its value table is one
    Moebius transform of its coefficient table; the batch transform makes
    the full solve one matrix pass.
    """
    _check_dim(n)
    size = 1 << n
    if not conditions:
        return np.ones(size, dtype=bool)
    coeffs = np.zeros((len(conditions), size), dtype=np.uint8)
    for row, cond in enumerate(conditions):
        for mono in cond.monomials:
            coeffs[row, _mono_index(mono)] = 1
    values = mobius_transform(coeffs)
    return ~values.any(axis=0)


def _forced(case: str, n: int, bits: int) -> ClassifierVerdict:
    return ClassifierVerdict(case, BitVector(n, bits))


def classify_top(f: Anf) -> ClassifierVerdict:
    """Read a forced shift off the top-degree coefficient pattern.

    rule1  the full monomial is present: no nonzero shift exists.
    rule2  some degree n-1 monomial is present: the only possible nonzero
           shift has coordinate i equal to the coefficient of the monomial
           omitting x_i.
    rule3  every degree n-2 monomial present, none higher, n >= 4: none.
    rule4  every degree n-2m monomial present, none higher, n >= 2m+2: none.
    rule5  every degree n-2m+1 monomial present, none higher, n >= 2m+1:
           only the all-ones shift.

    The verdict is necessary, not sufficient: forced_s may still fail to
    be a structure, but nothing else can be one.
    """
    n = f.n
    deg = f.degree()
    if deg == n:
        return _forced("rule1", n, 0)
    if deg == n - 1:
        bits = 0
        top = {m for m in f.monomials if len(m) == n - 1}
        for i in range(1, n + 1):
            if frozenset(v for v in range(1, n + 1) if v != i) in top:
                bits |= 1 << (i - 1)
        # the pairwise conditions the top coefficients impose on s reduce
        # to a'_i*s_j = a'_j*s_i, which the vector a' satisfies identically,
        # so the pattern itself is never inconsistent
        return ClassifierVerdict("rule2", BitVector(n, bits))
    if deg < 2:
        return ClassifierVerdict("none", None)
    complete = sum(1 for m in f.monomials if len(m) == deg) == math.comb(n, deg)
    if not complete:
        return ClassifierVerdict("none", None)
    gap = n - deg
    if gap % 2 == 0:
        case = "rule3" if gap == 2 else "rule4"
        return _forced(case, n, 0)
    return _forced("rule5", n, (1 << n) - 1)


def lemma1_check(p: SymbolicCondition, k: int) -> bool:
    """Vanishing principle, checked on one instance.

    Returns True when "p evaluates to 0 on all 2**k points" and "p has no
    monomials" agree (both hold or both fail); a multilinear polynomial
    over GF(2) vanishes everywhere only by being identically zero.
    """
    if k < 0 or k > MAX_DIMENSION:
        raise ValueError(f"k must be in 0..{MAX_DIMENSION}")
    for mono in p.monomials:
        if any(v > k for v in mono):
            raise ValueError("condition uses variables beyond k")
    vanishes = all(p.evaluate(s) == 0 for s in range(1 << k))
    return vanishes == (not p.monomials)
