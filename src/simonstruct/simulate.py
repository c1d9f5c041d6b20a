"""Exact simulation of the measure-then-transform sampling routine.

One round prepares a uniform superposition, queries f at a set of anchor
offsets, measures the output register, and measures the input register in
the transformed basis.  Classically that is: draw a uniform witness m,
keep the set S of inputs agreeing with m on every probed offset, and draw
y with probability |sum over x in S of (-1)^(x.y)|^2 / (|S| * 2**n).

Every y drawn this way is orthogonal to each zero-constant structure of f,
because S is closed under shifting by such a structure and the paired
terms cancel exactly.

S is held as a sorted index array and found on one of two paths, picked by
the caller from what it does.  A structure pass keeps one anchor set for
all its rounds, so it builds AnchorPlanes once: f packed 64 inputs to a
word at offset 0 and at each of the first n anchors.  A round then ANDs
those bit planes (complementing each one whose observed bit is 0) and
expands the set bits, with no 2**n gather.  `sample` (the user's anchors,
often 0 or 1 of them) and period finding (no anchors, a multi-output
table) call collapse, which filters survivors: one full-table compare at
offset 0, then the anchors test only the inputs still alive, in blocks of
up to 2**n // |S| anchors, so no gather exceeds 2**n entries.  There S is
wide, and expanding its bits out of planes would cost more than the
filter.  Anchors past the first n filter the plane survivors the same
way; those are few, so one gather tests every later anchor, and memory
stays bounded whatever the pass.  The law of y is computed in
S's own span: with x0 in S and V = span(S ^ x0) of dimension r, the weight
of y depends on y only through the r bits b_j . y for a basis b_j of V.  So
one round draws z from an r-bit integer law and then y uniformly among the
2**(n-r) words with b_j . y = z_j.  All weights are integers summing to
|S| * 2**r <= 2**48 (checked), so the support is exact and the cumulative
table used for drawing never rounds.  Most rounds leave a coset of V
(|S| = 2**r): then S ^ x0 = V, its transform is +-2**r at z = 0 and 0
elsewhere, and the law is exactly a point mass at z = 0 (y uniform on V's
dual), one shared array per r, drawn with no transform or search.

An outcome caches nothing: weights() builds the law on every call, and a
caller that sees one word many times keeps its law, as `sample` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boolfn import MultiTruthTable
from .gf2 import MAX_DIMENSION, BitMatrix, BitVector, SpanTracker, Subspace, null_space_basis
from .rng import as_rng
from .walsh import factored

__all__ = [
    "AnchorPlanes",
    "CollapseOutcome",
    "SpanLaw",
    "collapse",
    "sample_y",
    "simon_round",
    "quantum_solve",
]

# |S| * 2**r <= 2**n * 2**n for n <= 24; int64 cumulative sums stay exact
EXACT_TOTAL_CAP = 1 << 48

# the cumulative law of every coset of dimension r, W'(0) = 4**r and 0 elsewhere,
# shared per r as a read-only broadcast of one int64, so it holds no 2**r buffer
_POINT_MASS = tuple(np.broadcast_to(np.int64(4**r), 1 << r) for r in range(MAX_DIMENSION + 1))


class SpanLaw:
    """Exact integer law of y for one surviving set S, held in S's span.

    basis lists the reduced-echelon rows b_j of V = span(S ^ x0), each with
    its pivot p_j at its lowest set bit; r = len(basis).  cumulative is the
    running sum of W'(z) over z in [0, 2**r), where W' is the squared r-bit
    transform of the indicator of the coordinates c(s)_j = bit p_j of s ^ x0.
    The full-table weight is W(y) = W'(z) with z_j = b_j . y, and each z has
    2**(n-r) such y, all of equal weight.  r = n is the identity basis.  A
    coset (|S| = 2**r, so S ^ x0 = V) has W'(0) = 4**r and W' = 0 elsewhere,
    exactly; its cumulative is that point mass, shared per r (_POINT_MASS).
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
        if size == 1 << r:
            # S ^ x0 = V, a coset: its r-bit transform is +-2**r at z = 0 and 0 elsewhere
            w = _POINT_MASS[r]
        else:
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
        # exact for any law, and always taken by a coset's point mass
        z = 0 if t < self.cumulative[0] else int(np.searchsorted(self.cumulative, t, side="right"))
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


def _checked_offsets(f: MultiTruthTable, anchors: Sequence[BitVector]) -> tuple[int, ...]:
    offsets = []
    for a in anchors:
        if a.n != f.n:
            raise ValueError("dimension mismatch")
        offsets.append(a.bits)
    return tuple(offsets)


def _filter(
    table: np.ndarray, survivors: np.ndarray, offsets: np.ndarray, observed: np.ndarray
) -> np.ndarray:
    """The survivors x with table[x ^ a] equal to the observed value, for each offset a.

    Offsets go in blocks of up to 2**n // |S|, so no gather exceeds 2**n entries: a
    wide S takes one at a time, and the few inputs a plane round leaves take all in one.
    """
    i = 0
    while i < offsets.size:
        k = max(1, table.size // survivors.size)
        keep = (table[survivors[:, None] ^ offsets[i : i + k]] == observed[i : i + k]).all(axis=1)
        # compress: several times faster than a boolean index on int64 here
        survivors = survivors.compress(keep)
        i += k
    return survivors


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
    offsets = _checked_offsets(f, anchors)
    rng = as_rng(seed)
    table = f.table
    m = int(rng.integers(0, 1 << f.n))
    observed = (int(table[m]),)
    survivors = np.flatnonzero(table == observed[0])
    if offsets:  # period finding has none, and pays for no offset arrays
        probes = np.array(offsets, dtype=np.int64)
        values = table[m ^ probes]
        survivors = _filter(table, survivors, probes, values)
        observed += tuple(values.tolist())
    return CollapseOutcome(f.n, observed, survivors)


# _SWAP[j] keeps the bits at word positions with bit j clear; x ^ 2**j moves them up by 2**j
_SWAP = tuple(sum(1 << p for p in range(64) if not (p >> j) & 1) for j in range(6))


class AnchorPlanes:
    """collapse(f, anchors, seed) for one fixed (f, anchors), built once.

    f must have one output bit.  Plane a holds x -> f(x ^ a) packed 64
    inputs to a uint64 word, input x at bit x & 63 of word x >> 6; the
    planes are offset 0 and the first min(l, n) anchors.  So they take at
    most (n + 1) * 2**(n - 3) bytes (n >= 6; 50 MiB at n = 24) however
    many anchors a pass has.  A round ANDs the planes, each complemented
    where its observed bit is 0, and the anchors past the first n filter
    the survivors as collapse does.  The witness m is the only draw, so
    every outcome and the RNG stream equal collapse's.
    """

    __slots__ = ("n", "table", "probes", "planes", "valid")

    def __init__(self, f: MultiTruthTable, anchors: Sequence[BitVector]):
        offsets = _checked_offsets(f, anchors)
        if f.m_out != 1:
            raise ValueError(f"anchor planes need a one-output table, got {f.m_out} output bits")
        n = f.n
        words = 1 << max(0, n - 6)
        packed = np.zeros(8 * words, dtype=np.uint8)
        bits = np.packbits(f.table, bitorder="little")  # one output bit, so uint8 already
        packed[: bits.size] = bits
        base = packed.view("<u8").astype(np.uint64, copy=False)
        index = np.arange(words)
        planes = np.empty((1 + min(len(offsets), n), words), dtype=np.uint64)
        high = np.empty_like(base)
        for plane, a in zip(planes, (0, *offsets)):
            np.take(base, index ^ (a >> 6), out=plane)
            for j in range(6):
                if (a >> j) & 1:
                    s, mask = np.uint64(1 << j), np.uint64(_SWAP[j])
                    np.right_shift(plane, s, out=high)
                    high &= mask
                    plane &= mask
                    plane <<= s
                    plane |= high
        planes.flags.writeable = False
        self.n = n
        self.table = f.table
        self.probes = np.array((0, *offsets), dtype=np.int64)
        self.planes = planes
        # the bits that hold inputs: for n < 6, bits 2**n..63 of the one word are padding
        self.valid = np.uint64((1 << min(64, 1 << n)) - 1)

    def collapse(self, seed=None) -> CollapseOutcome:
        """One round: the outcome collapse(f, anchors, seed) gives."""
        rng = as_rng(seed)
        table = self.table
        m = int(rng.integers(0, 1 << self.n))
        values = table[m ^ self.probes]
        observed = tuple(values.tolist())
        # plane 0, complemented on the input bits if it reads 0; padding is clear in every plane
        hit = self.planes[0] ^ (0 if observed[0] else self.valid)
        miss = None  # OR of the later planes that read 0
        for plane, value in zip(self.planes[1:], observed[1:]):
            if value:
                hit &= plane
            else:
                miss = plane.copy() if miss is None else np.bitwise_or(miss, plane, out=miss)
        if miss is not None:
            hit &= np.invert(miss, out=miss)
        nonzero = np.flatnonzero(hit != 0)
        # little-endian bytes, bits LSB first: bit p of word w is input 64w + p
        set_bits = np.unpackbits(
            hit[nonzero].astype("<u8", copy=False).view(np.uint8), bitorder="little"
        ).reshape(-1, 64)
        word, bit = np.nonzero(set_bits)
        survivors = (nonzero[word] << 6) | bit
        k = len(self.planes)
        survivors = _filter(table, survivors, self.probes[k:], values[k:])
        return CollapseOutcome(self.n, observed, survivors)


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
