"""GF(2) vectors, matrices and subspaces on packed integer bitsets.

Coordinate convention used across the package: coordinate x_1 is the least
significant bit of the packed word, and the text form writes x_1 first, so
the string "110" is the vector with x_1 = 1, x_2 = 1, x_3 = 0 (packed 0b011).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "BitVector",
    "BitMatrix",
    "Subspace",
    "SpanTracker",
    "null_space_basis",
    "span_equal",
    "span_of",
    "linear_index",
    "MAX_DIMENSION",
]

# The package checks every answer against a full 2**n truth table, so n = 24
# is its cap for vectors, tables and polynomials alike.
MAX_DIMENSION = 24


def _check_dim(n: int) -> None:
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension {n} outside supported range 1..{MAX_DIMENSION}")


@dataclass(frozen=True)
class BitVector:
    """Immutable GF(2) vector of dimension n, packed with x_1 at bit 0."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        _check_dim(self.n)
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bits 0x{self.bits:x} out of range for dimension {self.n}")

    @classmethod
    def from_string(cls, text: str) -> "BitVector":
        """Parse a '0'/'1' string written x_1 first."""
        text = text.strip()
        if not text or any(ch not in "01" for ch in text):
            raise ValueError(f"not a bit string: {text!r}")
        bits = 0
        for i, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << i
        return cls(len(text), bits)

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return BitVector(self.n, self.bits ^ other.bits)

    def dot(self, other: "BitVector") -> int:
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return (self.bits & other.bits).bit_count() & 1

    def __int__(self) -> int:
        return self.bits

    def __str__(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.n))


@dataclass(frozen=True)
class BitMatrix:
    """Immutable list of GF(2) row vectors sharing one dimension."""

    n: int
    rows: tuple[BitVector, ...]

    def __post_init__(self) -> None:
        _check_dim(self.n)
        for row in self.rows:
            if row.n != self.n:
                raise ValueError("dimension mismatch between matrix rows")

    @classmethod
    def from_ints(cls, n: int, rows: Iterable[int]) -> "BitMatrix":
        return cls(n, tuple(BitVector(n, r) for r in rows))

    def row_ints(self) -> list[int]:
        return [r.bits for r in self.rows]

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.rows)


def _reduce(v: int, rows: Iterable[int]) -> int:
    """Clear v at each row's pivot (its lowest set bit), in row order.

    Exact for echelon rows, each zero on the pivots of the rows before it,
    and for RREF rows, each zero on every other row's pivot; v lies in
    their span iff the result is zero.
    """
    for p in rows:
        if v & (p & -p):
            v ^= p
    return v


def linear_index(n: int, images: Sequence[int]) -> np.ndarray:
    """int64 table of the GF(2)-linear map taking unit word k to images[k] < 2**63.

    Built by doubling, out[2**k : 2**(k+1)] = out[:2**k] ^ images[k]: n xors of
    int64 vectors, exact, with no per-row or per-bit pass over the full table.
    """
    if len(images) != n:
        raise ValueError(f"a linear map on {n} bits needs {n} images, got {len(images)}")
    out = np.zeros(1 << n, dtype=np.int64)
    for k, image in enumerate(images):
        np.bitwise_xor(out[: 1 << k], image, out=out[1 << k : 2 << k])
    return out


class SpanTracker:
    """Incremental GF(2) span: add vectors, query rank and membership.

    Rows are kept in echelon form in insertion order: each row is zero on
    the pivots of the rows before it.  The canonical RREF is built only
    when basis_ints() asks for it.
    """

    def __init__(self, n: int, vectors: Iterable[int] = ()):
        _check_dim(n)
        self.n = n
        self._rows: list[int] = []
        for v in vectors:
            self.add(v)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def contains(self, bits: int) -> bool:
        return _reduce(bits, self._rows) == 0

    def add(self, bits: int) -> bool:
        """Insert a vector; True when it enlarged the span."""
        red = _reduce(bits, self._rows)
        if red:
            self._rows.append(red)
        return red != 0

    def extend(self, words: np.ndarray) -> "SpanTracker":
        """Add every word of an int64 array; exact for any array, zeros and repeats included.

        A strided probe of about 4n words goes through add() and stops at rank n.  If it
        skipped words and the rank is short, the words are reduced by the rows, one vectorised
        pass per row, and the first nonzero residual becomes a row until none is left.
        """
        stride = max(1, words.size // (4 * self.n))
        for v in words[::stride].tolist():
            if self.add(v) and self.dim == self.n:
                return self
        if stride == 1 or self.dim == self.n:
            return self
        rest = words
        for p in self._rows:
            rest = np.where(rest & (p & -p), rest ^ p, rest)
        rest = rest[rest != 0]
        while rest.size:
            p = int(rest[0])
            self._rows.append(p)
            rest = np.where(rest & (p & -p), rest ^ p, rest)
            rest = rest[rest != 0]
        return self

    def basis_ints(self) -> list[int]:
        """Canonical RREF: pivots ascending, each pivot column clear in every other row."""
        rows = list(self._rows)
        # back-substitute from the last row: a row already cleared of every
        # later pivot carries no pivot bit but its own into the rows before it
        for j in range(len(rows) - 1, 0, -1):
            p = rows[j]
            low = p & -p
            for i in range(j):
                if rows[i] & low:
                    rows[i] ^= p
        return sorted(rows, key=lambda p: p & -p)


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of GF(2)^n held as a canonical RREF basis."""

    basis: BitMatrix

    def __post_init__(self) -> None:
        ints = self.basis.row_ints()
        if SpanTracker(self.basis.n, ints).basis_ints() != ints:
            raise ValueError("subspace basis must be in reduced row echelon form")

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def dim(self) -> int:
        return len(self.basis.rows)

    def contains(self, v: BitVector) -> bool:
        if v.n != self.n:
            raise ValueError("dimension mismatch")
        return _reduce(v.bits, self.basis.row_ints()) == 0

    def member_ints(self) -> np.ndarray:
        """All 2**dim member words as a sorted numpy array."""
        members = linear_index(self.dim, self.basis.row_ints())
        members.sort()
        return members

    def members(self) -> Iterator[BitVector]:
        for m in self.member_ints():
            yield BitVector(self.n, int(m))

    def __str__(self) -> str:
        return str(self.basis)


def span_of(n: int, vectors: Iterable[BitVector | int]) -> Subspace:
    """Canonical subspace spanned by the given vectors (possibly none)."""
    ints = []
    for v in vectors:
        if isinstance(v, BitVector):
            if v.n != n:
                raise ValueError("dimension mismatch")
            ints.append(v.bits)
        else:
            ints.append(int(v))
    return Subspace(BitMatrix.from_ints(n, SpanTracker(n, ints).basis_ints()))


def null_space_basis(m: BitMatrix) -> Subspace:
    """Canonical basis of {s : every row r has r . s = 0}; dim = n - rank."""
    n = m.n
    rref = SpanTracker(n, m.row_ints()).basis_ints()
    pivot_cols = [(r & -r).bit_length() - 1 for r in rref]
    pivot_set = set(pivot_cols)
    vectors = []
    for col in range(n):
        if col in pivot_set:
            continue
        v = 1 << col
        for prow, pcol in zip(rref, pivot_cols):
            if (prow >> col) & 1:
                v |= 1 << pcol
        vectors.append(v)
    return Subspace(BitMatrix.from_ints(n, SpanTracker(n, vectors).basis_ints()))


def span_equal(a: Subspace, b: Subspace) -> bool:
    """Row spans are equal; canonical RREF bases make this a plain compare."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    return a.basis.row_ints() == b.basis.row_ints()
