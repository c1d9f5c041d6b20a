"""Planted instances and the ground truth every benchmark answer is checked against.

Nothing here imports simonstruct: the instances, their planted spans and the
reference spectra come from this file alone, so a wrong answer from the
package cannot also corrupt the truth it is compared with.

A planted structure instance is f(x) = g(L x), where L is a random surjective
linear map from GF(2)^n onto GF(2)^(n-d) and g is a uniformly random function
on 2^(n-d) points.  The zero-constant structures of f are then
L^{-1}(U0(g)); the generator keeps only g whose own structure set is {0}, so
the structure span of f is exactly ker L.  Words are packed with x_1 at bit 0
and written x_1 first, the package's convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Below this many quotient points g is checked exhaustively and redrawn when it
# has a structure of its own.  Above it, a uniformly random g has a nonzero
# structure with probability below 2^q * 2^-(2^(q-1)) < 2^-2000.
EXACT_CHECK_MAX_FREE = 12


def highest_bit(v: int) -> int:
    return v.bit_length() - 1


def reduce_against(v: int, pivots: dict[int, int]) -> int:
    while v and highest_bit(v) in pivots:
        v ^= pivots[highest_bit(v)]
    return v


def gf2_rank(vectors) -> int:
    pivots: dict[int, int] = {}
    for v in vectors:
        v = reduce_against(int(v), pivots)
        if v:
            pivots[highest_bit(v)] = v
    return len(pivots)


def same_span(a, b) -> bool:
    a, b = list(a), list(b)
    r = gf2_rank(a)
    return r == gf2_rank(b) == gf2_rank(a + b)


def in_span(v: int, basis) -> bool:
    basis = list(basis)
    return gf2_rank(basis + [v]) == gf2_rank(basis)


def members(basis) -> np.ndarray:
    """All 2^dim words of the span, sorted."""
    out = np.zeros(1, dtype=np.int64)
    for b in basis:
        out = np.concatenate([out, out ^ b])
    return np.sort(out)


def parity_dot(words: np.ndarray, v: int) -> np.ndarray:
    return np.bitwise_count(np.asarray(words, dtype=np.int64) & v) & 1


def parse_bits(text: str) -> int:
    return sum(1 << i for i, ch in enumerate(text.strip()) if ch == "1")


def linear_image(columns: list[int], dtype=np.uint32) -> np.ndarray:
    """Table of M x for every x < 2^len(columns), where M e_i = columns[i]."""
    out = np.zeros(1, dtype=dtype)
    for c in columns:
        out = np.concatenate([out, out ^ dtype(c)])
    return out


def split_linear_map(columns: list[int], width: int) -> tuple[list[int], list[int]]:
    """Kernel basis and right inverse of x -> XOR of columns[i] over set bits of x.

    Returns (kernel, preimage) with L(kernel[k]) = 0 and L(preimage[j]) = e_j;
    the map must be onto GF(2)^width.
    """
    pivots: dict[int, tuple[int, int]] = {}
    kernel = []
    for i, v in enumerate(columns):
        combo = 1 << i
        while v and highest_bit(v) in pivots:
            pv, pc = pivots[highest_bit(v)]
            v, combo = v ^ pv, combo ^ pc
        if v:
            pivots[highest_bit(v)] = (v, combo)
        else:
            kernel.append(combo)
    if len(pivots) != width:
        raise ValueError("linear map is not onto")
    # back-substitute in ascending pivot order until every pivot row is e_bit
    for bit in range(width):
        v, combo = pivots[bit]
        for low in range(bit):
            if (v >> low) & 1:
                lv, lc = pivots[low]
                v, combo = v ^ lv, combo ^ lc
        pivots[bit] = (v, combo)
    return kernel, [pivots[bit][1] for bit in range(width)]


def walsh(values: np.ndarray) -> np.ndarray:
    """Reference unnormalised Walsh-Hadamard transform of a 1-D table."""
    a = np.array(values, dtype=np.int64)
    size, h = a.size, 1
    while h < size:
        v = a.reshape(-1, 2, h)
        top = v[:, 0, :] + v[:, 1, :]
        v[:, 1, :] = v[:, 0, :] - v[:, 1, :]
        v[:, 0, :] = top
        h *= 2
    return a


def autocorrelation(table: np.ndarray) -> np.ndarray:
    """A(a) = sum_x (-1)^(t(x) + t(x ^ a)), exact in int64 up to 2^24 points."""
    signs = 1 - 2 * np.asarray(table, dtype=np.int64)
    return walsh(walsh(signs) ** 2) >> (signs.size.bit_length() - 1)


@dataclass
class Planted:
    """A planted instance: f = g o L, structure (or period) span = ker L."""

    n: int
    dim: int
    basis: list[int]          # ker L, the planted span
    preimage: list[int]       # L(preimage[j]) = e_j
    columns: list[int]        # L e_i
    quotient: np.ndarray      # g, or the injective word table for periods
    table: np.ndarray         # f (uint8) or F (int64 words)
    _spectrum: np.ndarray | None = field(default=None, repr=False)

    def lmap(self) -> np.ndarray:
        return linear_image(self.columns)

    def quotient_spectrum(self) -> np.ndarray:
        """Autocorrelation of g; the spectrum of f is 2^dim * A_g(L a)."""
        if self._spectrum is None:
            self._spectrum = autocorrelation(self.quotient)
        return self._spectrum

    def coset(self, z: int) -> np.ndarray:
        """All a with L a = z."""
        rep = 0
        for j, p in enumerate(self.preimage):
            if (z >> j) & 1:
                rep ^= p
        return members(self.basis) ^ rep

    def rtype_truth(self, r: int) -> dict[int, tuple[int, int]]:
        """Every shift within r violations of constant: alpha -> (c, violations)."""
        full = 1 << self.n
        spec = self.quotient_spectrum().astype(np.int64) << self.dim
        v0, v1 = (full - spec) >> 1, (full + spec) >> 1
        best = np.minimum(v0, v1)
        out = {}
        for z in np.nonzero(best <= r)[0]:
            c = 0 if v0[z] <= v1[z] else 1
            for a in self.coset(int(z)):
                out[int(a)] = (c, int(best[z]))
        return out

    def u1_truth(self) -> set[int]:
        """Shifts with f(x ^ a) = f(x) + 1 for every x."""
        spec = self.quotient_spectrum()
        out: set[int] = set()
        for z in np.nonzero(spec == -spec.size)[0]:
            out.update(int(a) for a in self.coset(int(z)))
        return out


def _random_onto(rng: np.random.Generator, n: int, width: int) -> list[int]:
    while True:
        cols = [int(c) for c in rng.integers(0, 1 << width, size=n)] if width else [0] * n
        if gf2_rank(cols) == width:
            return cols


def plant_structure(rng: np.random.Generator, n: int, dim: int) -> Planted:
    width = n - dim
    if width < 1:
        raise ValueError("need dim < n")
    cols = _random_onto(rng, n, width)
    kernel, pre = split_linear_map(cols, width)
    lmap = linear_image(cols)
    while True:
        g = rng.integers(0, 2, size=1 << width, dtype=np.uint8)
        inst = Planted(n, dim, kernel, pre, cols, g, g[lmap])
        if width > EXACT_CHECK_MAX_FREE or np.count_nonzero(inst.quotient_spectrum() == g.size) == 1:
            return inst


def plant_periods(rng: np.random.Generator, n: int, dim: int) -> Planted:
    """(n-1)-output F, constant on cosets of ker L and injective across them."""
    width = n - dim
    if not 1 <= dim < n:
        raise ValueError("need 1 <= dim < n")
    cols = _random_onto(rng, n, width)
    kernel, pre = split_linear_map(cols, width)
    lmap = linear_image(cols)
    words = rng.choice(1 << (n - 1), size=1 << width, replace=False).astype(np.int64)
    return Planted(n, dim, kernel, pre, cols, words, words[lmap])


# -------------------------------------------------------------- text forms


def truth_table_text(table: np.ndarray, n: int) -> bytes:
    return b"n=%d\n" % n + (np.asarray(table, dtype=np.uint8) + 48).tobytes() + b"\n"


def multi_table_text(words: np.ndarray, n: int, m_out: int) -> bytes:
    rows = np.empty((words.size, m_out + 1), dtype=np.uint8)
    rows[:, :m_out] = ((words[:, None] >> np.arange(m_out)) & 1) + 48
    rows[:, m_out] = 10
    return b"n=%d\n" % n + rows.tobytes()


def read_truth_table(data: bytes) -> tuple[int, np.ndarray]:
    head, body = data.split(b"\n", 1)
    n = int(head[2:])
    bits = np.frombuffer(body.rstrip(b"\n"), dtype=np.uint8) - 48
    if head[:2] != b"n=" or bits.size != 1 << n or bits.max(initial=0) > 1:
        raise ValueError("malformed truth-table file")
    return n, bits


def read_multi_table(data: bytes) -> tuple[int, np.ndarray]:
    head, body = data.split(b"\n", 1)
    n = int(head[2:])
    width = body.index(b"\n")
    rows = np.frombuffer(body, dtype=np.uint8).reshape(1 << n, width + 1)
    bits = rows[:, :width].astype(np.int64) - 48
    if head[:2] != b"n=" or bits.min() < 0 or bits.max() > 1 or np.any(rows[:, width] != 10):
        raise ValueError("malformed multi-output table file")
    return n, (bits << np.arange(width)).sum(axis=1)
