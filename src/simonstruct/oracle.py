"""Exhaustive ground truth for linear structures of a Boolean function.

A word a is a linear structure of f when f(x ^ a) ^ f(x) is the same
constant c for every x.  The c = 0 words form a subspace; the c = 1 words
are either empty or a single coset of it.  Both sets are read off the
autocorrelation spectrum, which hits +-2**n exactly on structures.  The
spectrum comes from :func:`boolfn.autocorr_values`, the one kernel for it,
whose sum over output bits also gives the period sets.  The readers of a
spectrum take the read-only int64 array that :func:`autocorrelation`
returns, indexed by shift word, and get n from its size, so a caller that
needs several of them computes it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .boolfn import MultiTruthTable, TruthTable, autocorr_values
from .gf2 import MAX_DIMENSION, BitVector, Subspace, span_of
from .rng import as_rng

__all__ = [
    "StructureSets",
    "RTypeHit",
    "VerifyResult",
    "autocorrelation",
    "brute_periods",
    "brute_structures",
    "r_type_scan",
    "violation_points",
    "sampled_verify",
    "anchored_confirm",
]


@dataclass(frozen=True)
class StructureSets:
    """Zero-constant structures as a subspace plus the one-constant coset."""

    u0: Subspace
    u1: tuple[BitVector, ...]


class RTypeHit(NamedTuple):
    alpha: BitVector
    c: int
    violations: int


@dataclass(frozen=True, eq=False)
class VerifyResult:
    """Outcome of a sampled check; truthy on acceptance, carries a witness."""

    ok: bool
    witness: tuple[BitVector, BitVector] | None = None

    def __bool__(self) -> bool:
        return self.ok


def autocorrelation(f: TruthTable) -> np.ndarray:
    """Signed autocorrelation per shift word, entry 0 = 2**n, as the read-only
    int64 array of :func:`boolfn.autocorr_values`; no copy is made."""
    spectrum = autocorr_values(f.table)
    spectrum.flags.writeable = False
    return spectrum


def _subspace_from_members(members: np.ndarray, n: int) -> Subspace:
    """Subspace given as the sorted array of all its member words.

    Order a subspace's reduced basis by leading bit: the map from
    coefficient index to member preserves order, so the sorted members at
    positions 2**j form a basis.  Re-expanding them checks that the set is
    closed under xor.
    """
    count = len(members)
    if count == 0 or members[0] != 0 or count & (count - 1):
        raise RuntimeError("structure set is not closed under xor")
    picks = [int(members[1 << j]) for j in range(count.bit_length() - 1)]
    subspace = span_of(n, picks)
    if not np.array_equal(subspace.member_ints(), members):
        raise RuntimeError("structure set is not closed under xor")
    return subspace


def _structure_sets(spectrum: np.ndarray) -> StructureSets:
    full = spectrum.size
    n = full.bit_length() - 1
    u0_members = np.nonzero(spectrum == full)[0]
    u0 = _subspace_from_members(u0_members, n)
    u1_members = np.nonzero(spectrum == -full)[0]
    if len(u1_members):
        if len(u1_members) != len(u0_members):
            raise RuntimeError("one-constant set is not a coset of the subspace")
        shifted = np.sort(u1_members ^ u1_members[0])
        if not np.array_equal(shifted, u0_members):
            raise RuntimeError("one-constant set is not a coset of the subspace")
    u1 = tuple(BitVector(n, int(m)) for m in u1_members)
    return StructureSets(u0=u0, u1=u1)


def brute_structures(f: TruthTable, cap: int = MAX_DIMENSION) -> StructureSets:
    """Exact structure sets read from the full autocorrelation spectrum.

    cap can only lower the table's own limit; the benchmark's smoke test
    still passes it positionally, so it stays until that call drops it.
    """
    if f.n > cap:
        raise ValueError(f"dimension {f.n} exceeds table cap {cap}")
    return _structure_sets(autocorrelation(f))


def brute_periods(F: MultiTruthTable) -> Subspace:
    """Exact period span of a multi-output function, from the summed spectrum.

    s is a period iff it is a zero-constant structure of every output bit,
    i.e. iff the autocorrelation summed over the bits equals its entry 0,
    the maximum: each bit's term is at most 2**n, with equality at 0.  The
    kernel skips top bits that are always 0, each of which would add the
    same 2**n to every entry, so the test is unchanged.
    """
    sums = autocorr_values(F.table)
    return _subspace_from_members(np.flatnonzero(sums == sums[0]), F.n)


def _violations(spectrum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per shift, the fewest inputs breaking a constant derivative, and that constant.

    A shift with spectrum value A has (2**n - A) / 2 inputs violating c = 0
    and (2**n + A) / 2 violating c = 1; ties (A = 0) report c = 0.
    """
    full = spectrum.size
    v0 = (full - spectrum) >> 1
    v1 = (full + spectrum) >> 1
    return np.minimum(v0, v1), (v1 < v0).astype(np.int64)


def _r_type_hits(spectrum: np.ndarray, r: int) -> list[RTypeHit]:
    if r < 0:
        raise ValueError("r must be nonnegative")
    n = spectrum.size.bit_length() - 1
    best, const = _violations(spectrum)
    return [
        RTypeHit(BitVector(n, int(i)), int(const[i]), int(best[i]))
        for i in np.nonzero(best <= r)[0]
    ]


def r_type_scan(f: TruthTable, r: int) -> list[RTypeHit]:
    """All shifts whose derivative is within r inputs of being constant.

    The violation count of a shift is minimized over the two candidate
    constants; ties (spectrum value 0) report c = 0.  r = 0 returns exactly
    the linear structures, and r = 2**(n-1) returns every shift.
    """
    return _r_type_hits(autocorrelation(f), r)


def violation_points(f: TruthTable, alpha: BitVector, c: int) -> list[BitVector]:
    """Inputs where f(x ^ alpha) ^ f(x) differs from c."""
    if alpha.n != f.n:
        raise ValueError("dimension mismatch")
    if c not in (0, 1):
        raise ValueError("c must be 0 or 1")
    der = f.table[np.arange(1 << f.n) ^ alpha.bits] ^ f.table
    return [BitVector(f.n, int(x)) for x in np.nonzero(der != c)[0]]


def sampled_verify(
    f: MultiTruthTable,
    candidates: Sequence[BitVector],
    p: int,
    seed=None,
) -> VerifyResult:
    """Check f(x) = f(x ^ b) at p uniform x per candidate b.

    Accepts only if every check passes; the first failing (x, b) pair is
    returned as a witness.  For a shift whose derivative has v nonzero
    inputs the acceptance chance is exactly (1 - v/2**n)**p.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    rng = as_rng(seed)
    size = 1 << f.n
    table = f.table
    for b in candidates:
        if b.n != f.n:
            raise ValueError("dimension mismatch")
        xs = rng.integers(0, size, size=p)
        bad = np.nonzero(table[xs] != table[xs ^ b.bits])[0]
        if len(bad):
            x = BitVector(f.n, int(xs[bad[0]]))
            return VerifyResult(False, (x, b))
    return VerifyResult(True)


def anchored_confirm(
    f: TruthTable,
    alpha: BitVector,
    l: int,
    p: int,
    seed=None,
) -> bool:
    """Confirmation experiment with l fixed offsets plus the zero offset.

    Draw l distinct nonzero anchor words once, then p uniform x; the shift
    alpha is confirmed when f(x ^ a) = f(x ^ a ^ alpha) holds at all
    (l + 1) * p probed points.  For an r-type shift with v violating inputs
    the confirmation chance is close to (1 - v/2**n)**((l+1)*p).
    """
    if alpha.n != f.n:
        raise ValueError("dimension mismatch")
    if l < 0 or p < 1:
        raise ValueError("need l >= 0 and p >= 1")
    rng = as_rng(seed)
    size = 1 << f.n
    if l > size - 1:
        raise ValueError("cannot draw that many distinct nonzero anchors")
    anchors = np.zeros(l + 1, dtype=np.int64)
    if l:
        anchors[1:] = rng.choice(size - 1, size=l, replace=False) + 1
    xs = rng.integers(0, size, size=p)
    points = xs[:, None] ^ anchors[None, :]
    return bool(np.all(f.table[points] == f.table[points ^ alpha.bits]))
