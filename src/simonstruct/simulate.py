"""Exact simulation of the measure-then-transform sampling routine.

One round prepares a uniform superposition, queries f at a set of anchor
offsets, measures the output register, and measures the input register in
the transformed basis.  Classically that is: draw a uniform witness m,
keep the set S of inputs agreeing with m on every probed offset, and draw
y with probability |sum over x in S of (-1)^(x.y)|^2 / (|S| * 2**n).

Every y drawn this way is orthogonal to each zero-constant structure of f,
because S is closed under shifting by such a structure and the paired
terms cancel exactly.

S is found by survivor filtering: one full-table compare at offset 0, then
each further anchor tests only the inputs still alive, so S is held as a
sorted index array and never as a 2**n mask.  The law of y is computed in
S's own span: with x0 in S and V = span(S ^ x0) of dimension r, the weight
of y depends on y only through the r bits b_j . y for a basis b_j of V.  So
one round draws z from an r-bit integer law and then y uniformly among the
2**(n-r) words with b_j . y = z_j.  All weights are integers summing to
|S| * 2**r <= 2**48 (checked), so the support is exact and the cumulative
table used for drawing never rounds.

An outcome caches nothing: weights() builds the law on every call, and a
caller that sees one word many times keeps its law, as `sample` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boolfn import MultiTruthTable
from .gf2 import BitMatrix, BitVector, SpanTracker, Subspace, null_space_basis
from .rng import as_rng
from .walsh import factored

__all__ = [
    "CollapseOutcome",
    "SpanLaw",
    "collapse",
    "sample_y",
    "simon_round",
    "quantum_solve",
]

# |S| * 2**r <= 2**n * 2**n for n <= 24; int64 cumulative sums stay exact
EXACT_TOTAL_CAP = 1 << 48


class SpanLaw:
    """Exact integer law of y for one surviving set S, held in S's span.

    basis lists the reduced-echelon rows b_j of V = span(S ^ x0), each with
    its pivot p_j at its lowest set bit; r = len(basis).  cumulative is the
    running sum of W'(z) over z in [0, 2**r), where W' is the squared r-bit
    transform of the indicator of the coordinates c(s)_j = bit p_j of s ^ x0.
    The full-table weight is W(y) = W'(z) with z_j = b_j . y, and each z has
    2**(n-r) such y, all of equal weight.  r = n is the identity basis.
    """

    __slots__ = ("n", "basis", "free", "cumulative")

    def __init__(self, n: int, survivors: np.ndarray):
        size = survivors.size
        offsets = survivors ^ survivors[0]
        # a proper subspace holds at most 2**(n-1) words
        if 2 * size > 1 << n:
            basis = [1 << j for j in range(n)]
        else:
            basis = SpanTracker(n).extend(offsets).basis_ints()
        r = len(basis)
        if size << r > EXACT_TOTAL_CAP:
            raise ValueError(f"law total {size} * 2**{r} exceeds the exact bound 2**48")
        if r == n:
            # identity basis: pivot j is bit j, so the coordinates are the offsets
            coords = offsets
        else:
            coords = np.zeros(size, dtype=np.int64)
            for j, b in enumerate(basis):
                coords |= ((offsets >> ((b & -b).bit_length() - 1)) & 1) << j
        # sum |x| = |S| <= 2**24, W'**2 <= |S| * 2**r <= 2**48 (checked above): float64 is exact
        indicator = np.zeros(1 << r)
        indicator[coords] = 1.0
        w = factored(indicator, np.empty_like(indicator))[0]
        w = np.square(w, out=w).astype(np.int64)
        np.cumsum(w, out=w)
        if int(w[-1]) != size << r:
            raise RuntimeError(f"Parseval: the reduced weights sum to {int(w[-1])}, not |S| * 2**r")
        w.flags.writeable = False
        self.n = n
        self.basis = tuple(basis)
        self.free = ((1 << n) - 1) & ~sum(b & -b for b in basis)
        self.cumulative = w

    @property
    def r(self) -> int:
        return len(self.basis)

    @property
    def total(self) -> int:
        """|S| * 2**r, the sum of the reduced weights."""
        return int(self.cumulative[-1])

    def draw(self, rng: np.random.Generator) -> int:
        """One y: z by inverse cumulative lookup, then y uniform over its fiber."""
        t = int(rng.integers(0, self.total))
        z = int(np.searchsorted(self.cumulative, t, side="right"))
        y = int(rng.integers(0, 1 << self.n)) & self.free
        # b_j is zero on every other pivot, so b_j & y sees only the free bits
        for j, b in enumerate(self.basis):
            if ((z >> j) ^ (b & y).bit_count()) & 1:
                y |= b & -b
        return y


@dataclass(frozen=True, eq=False)
class CollapseOutcome:
    """Post-measurement state: the observed word and the surviving inputs S.

    survivors is the sorted, read-only int64 array of inputs in S.
    """

    n: int
    observed: tuple[int, ...]
    survivors: np.ndarray

    def __post_init__(self):
        survivors = np.asarray(self.survivors, dtype=np.int64)
        survivors.flags.writeable = False
        object.__setattr__(self, "survivors", survivors)

    @property
    def size(self) -> int:
        return int(self.survivors.size)

    def weights(self) -> SpanLaw:
        """Exact integer law of y, reduced to the span of S; built anew on each call."""
        return SpanLaw(self.n, self.survivors)


def collapse(
    f: MultiTruthTable,
    anchors: Sequence[BitVector],
    seed=None,
) -> CollapseOutcome:
    """Measure the output register over offsets (0, a_1, ..., a_l).

    A TruthTable is the one-output MultiTruthTable, so one path serves
    both: the observed word holds f's output at each offset, and with no
    anchors F collapses to the inputs sharing one output value, as in
    period finding.  The zero offset is implicit and always probed first.
    Drawing the witness m uniformly reproduces the exact measurement
    statistics: an output word is seen with probability |S|/2**n and,
    given the word, the surviving set is S itself.
    """
    anchors = tuple(anchors)
    for a in anchors:
        if a.n != f.n:
            raise ValueError("dimension mismatch")
    rng = as_rng(seed)
    table = f.table
    m = int(rng.integers(0, 1 << f.n))
    value = int(table[m])
    observed = [value]
    survivors = np.flatnonzero(table == value)
    for a in anchors:
        value = int(table[m ^ a.bits])
        observed.append(value)
        # compress: several times faster than a boolean index on int64 here
        survivors = survivors.compress(table[survivors ^ a.bits] == value)
    return CollapseOutcome(f.n, tuple(observed), survivors)


def sample_y(outcome: CollapseOutcome, seed=None) -> BitVector:
    """One y draw from the exact integer-weight law of the outcome."""
    return BitVector(outcome.n, outcome.weights().draw(as_rng(seed)))


def simon_round(F: MultiTruthTable, seed=None) -> BitVector:
    """One full period-finding round against a multi-output function."""
    rng = as_rng(seed)
    return sample_y(collapse(F, (), rng), rng)


def quantum_solve(ys: BitMatrix, seed=None, samples: int | None = None) -> Subspace:
    """Span of repeated uniform draws from {z : y . z = 0 for every y}.

    Mimics solving the linear system by sampling the solution set instead
    of eliminating: each draw is uniform over the null space, and draws
    accumulate until their span can no longer grow or the sample budget is
    spent.  With rank r and d = n - r, all of the null space is spanned
    after d + t draws except with probability about 2**-t.
    """
    n = ys.n
    if samples is None:
        samples = n + 30
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = as_rng(seed)
    basis = null_space_basis(ys).basis.row_ints()
    d = len(basis)
    tracker = SpanTracker(n)
    for _ in range(samples):
        coeff = int(rng.integers(0, 1 << d)) if d else 0
        z = 0
        for j in range(d):
            if (coeff >> j) & 1:
                z ^= basis[j]
        tracker.add(z)
        if tracker.dim == d:
            break
    return Subspace(BitMatrix.from_ints(n, tracker.basis_ints()))
