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

import numpy as np

from .boolfn import Anf, _evaluate_monomials
from .gf2 import BitVector, _check_dim
from .walsh import mobius_transform

__all__ = [
    "SymbolicCondition",
    "ClassifierVerdict",
    "derivative_anf",
    "theorem2_system",
    "solution_mask",
    "classify_top",
]


@dataclass(frozen=True)
class SymbolicCondition:
    """One multilinear GF(2) polynomial in s_1..s_n that must equal zero.

    x_monomial records which input monomial of the shifted difference the
    condition came from; both it and the shift monomials are packed words,
    variable v at bit v-1, as in Anf.
    """

    n: int
    x_monomial: int
    monomials: frozenset[int]

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
    acc: set[int] = set()
    for mono in f.monomials:
        shifted = mono & s.bits
        fixed = mono ^ shifted
        # product over shifted vars of (x_v + 1) expands to all submasks;
        # the full one reproduces the original monomial and cancels
        # against the unshifted copy, so only proper submasks remain
        sub = shifted
        while sub:
            sub = (sub - 1) & shifted
            acc.symmetric_difference_update({fixed | sub})
    return Anf(f.n, frozenset(acc))


def theorem2_system(f: Anf) -> list[SymbolicCondition]:
    """Coefficient-vanishing conditions equivalent to structure membership.

    For each monomial T of f and each proper submask M of T, the condition
    keyed by M gains the shift monomial T ^ M.  A concrete s solves every
    condition iff the derivative in direction s is the zero function.
    Conditions are returned sorted by their x-monomial word.
    """
    bucket: dict[int, set[int]] = {}
    for mono in f.monomials:
        sub = mono
        while sub:
            sub = (sub - 1) & mono
            bucket.setdefault(sub, set()).add(mono ^ sub)
    return [SymbolicCondition(f.n, m, frozenset(monos)) for m, monos in sorted(bucket.items())]


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
        coeffs[row, list(cond.monomials)] = 1
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
        # the degree n-1 monomial m omitting x_i has full ^ m = bit i-1
        full = (1 << n) - 1
        bits = sum(full ^ m for m in f.monomials if m.bit_count() == n - 1)
        # the pairwise conditions the top coefficients impose on s reduce
        # to a'_i*s_j = a'_j*s_i, which the vector a' satisfies identically,
        # so the pattern itself is never inconsistent
        return ClassifierVerdict("rule2", BitVector(n, bits))
    if deg < 2:
        return ClassifierVerdict("none", None)
    complete = sum(1 for m in f.monomials if m.bit_count() == deg) == math.comb(n, deg)
    if not complete:
        return ClassifierVerdict("none", None)
    gap = n - deg
    if gap % 2 == 0:
        case = "rule3" if gap == 2 else "rule4"
        return _forced(case, n, 0)
    return _forced("rule5", n, (1 << n) - 1)
