"""Boolean functions: truth tables, algebraic normal form, planted instances.

A multi-output table stores one output word per input, entry m at the
packed input word m (x_1 at bit 0).  A truth table is the one-output case
of it, so both share one validation, evaluation and equality.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .gf2 import BitVector, Subspace, _check_dim, _reduce, linear_index
from .rng import as_rng
from .walsh import EXACT_FLOAT_BOUND, factored, mobius_transform, xor_permute

__all__ = [
    "TruthTable",
    "MultiTruthTable",
    "Anf",
    "PlantSpec",
    "anf_of",
    "tt_of",
    "derivative",
    "autocorr_values",
    "plant_structure",
    "plant_r_type",
    "plant_periods",
    "parse_truth_table",
    "format_truth_table",
    "parse_multi_truth_table",
    "format_multi_truth_table",
    "parse_anf",
    "format_anf",
    "PLANT_RETRY_CAP",
]

PLANT_RETRY_CAP = 64


class MultiTruthTable:
    """Vector-valued Boolean function: one m_out-bit word per input, read-only."""

    __slots__ = ("n", "m_out", "table")
    _dtype = np.int64

    def __init__(self, n: int, m_out: int, table):
        _check_dim(n)
        if not 1 <= m_out <= 63:
            raise ValueError("output width must be in 1..63")
        # checked before the cast, which would wrap or truncate a bad entry
        arr = np.asarray(table)
        if arr.shape != (1 << n,):
            raise ValueError(f"table must have 2**{n} entries, got shape {arr.shape}")
        if arr.dtype.kind not in "biu":
            raise ValueError(f"table entries must be integers, got dtype {arr.dtype}")
        if arr.min() < 0 or arr.max() >= (1 << m_out):
            raise ValueError(f"table entries must lie in 0..{(1 << m_out) - 1}")
        arr = arr.astype(self._dtype)
        arr.flags.writeable = False
        self.n = n
        self.m_out = m_out
        self.table = arr

    def __call__(self, x: BitVector | int) -> int:
        if isinstance(x, BitVector):
            if x.n != self.n:
                raise ValueError("dimension mismatch")
            idx = x.bits
        else:
            idx = int(x)
            if not 0 <= idx < (1 << self.n):
                raise ValueError("input index out of range")
        return int(self.table[idx])

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and (self.n, self.m_out) == (other.n, other.m_out)
            and bool(np.array_equal(self.table, other.table))
        )


class TruthTable(MultiTruthTable):
    """Single-output Boolean function: the one-output table, held as 0/1 uint8."""

    __slots__ = ()
    _dtype = np.uint8

    def __init__(self, n: int, table):
        super().__init__(n, 1, table)

    def __repr__(self) -> str:
        body = format_bit_rows(self.table[None, :], 1).strip() if self.n <= 5 else "..."
        return f"TruthTable(n={self.n}, {body})"


@dataclass(frozen=True)
class Anf:
    """Algebraic normal form as a set of monomials over variables 1..n.

    A monomial is a word below 2**n with x_v at bit v-1, like an input; the
    word 0 is the constant-one term.  No monomials means the zero function.
    """

    n: int
    monomials: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        _check_dim(self.n)
        for mono in self.monomials:
            if type(mono) is not int or not 0 <= mono < 1 << self.n:
                raise ValueError(f"monomial {mono!r} is not a word in 0..2**{self.n}-1")

    def degree(self) -> int:
        """Largest monomial size; -1 for the zero function."""
        return max((m.bit_count() for m in self.monomials), default=-1)

    def evaluate(self, x: BitVector | int) -> int:
        return _evaluate_monomials(self.monomials, x)


def _evaluate_monomials(monomials: Iterable[int], x: BitVector | int) -> int:
    """GF(2) sum of the monomials at the point x: m counts when its bits are set in x."""
    bits = x.bits if isinstance(x, BitVector) else int(x)
    return sum((m & bits) == m for m in monomials) & 1


@dataclass(frozen=True)
class PlantSpec:
    """Request for a planted instance: dimension, wanted structure, seed."""

    n: int
    structure_basis: Subspace
    seed: int | None = None

    def __post_init__(self) -> None:
        _check_dim(self.n)
        if self.structure_basis.n != self.n:
            raise ValueError("dimension mismatch between n and structure basis")


def anf_of(f: TruthTable) -> Anf:
    """Moebius transform of the truth table, returned as sparse monomials."""
    return Anf(f.n, frozenset(np.flatnonzero(mobius_transform(f.table)).tolist()))


def tt_of(a: Anf) -> TruthTable:
    """Inverse of anf_of (the transform is an involution)."""
    dense = np.zeros(1 << a.n, dtype=np.uint8)
    dense[list(a.monomials)] = 1
    return TruthTable(a.n, mobius_transform(dense))


def derivative(f: TruthTable, s: BitVector) -> TruthTable:
    """Discrete derivative x -> f(x ^ s) ^ f(x)."""
    if s.n != f.n:
        raise ValueError("dimension mismatch")
    return TruthTable(f.n, xor_permute(f.table, s.bits) ^ f.table)


def _coset_index(n: int, basis: Subspace) -> tuple[np.ndarray, int]:
    """Map every x to the index of its coset of the given subspace.

    Reducing x by the RREF rows clears the pivot coordinates, and packing
    the free ones gives an index in 0..2**(n-dim)-1.  Both steps are
    GF(2)-linear, so linear_index expands the images of the unit words.
    """
    rows = basis.basis.row_ints()
    pivots = {(r & -r).bit_length() - 1 for r in rows}
    free_cols = [c for c in range(n) if c not in pivots]
    reduced = [_reduce(1 << k, rows) for k in range(n)]
    images = [sum(((x >> c) & 1) << j for j, c in enumerate(free_cols)) for x in reduced]
    return linear_index(n, images), len(free_cols)


def autocorr_values(words: np.ndarray) -> np.ndarray:
    """Exact int64 autocorrelation along the last axis, summed over output bits.

    Entry a is sum_j sum_x (-1)^(f_j(x) ^ f_j(x ^ a)) over the bits j < m of
    the largest word (m = 1 for 0/1 tables), i.e. H(sum_j W_j**2) / 2**n.
    Each bit's +-1/2 signs transform in float64 to W_j / 2, an integer (W_j =
    2**n - 2 wt is even); square, add, transform the sum once and scale by
    4 / 2**n into the free buffer as int64.  By Parseval the sum, m * 4**(n-1),
    bounds every partial sum: exact below 2**53 (n <= 27 for one bit, every
    legal table: 63 * 2**46) and refused from there on.
    """
    words = np.asarray(words)
    size = words.shape[-1]
    m = max(1, int(words.max(initial=0)).bit_length())
    if m * size * size >= 4 * EXACT_FLOAT_BOUND:
        raise ValueError(f"{m}-bit autocorrelation of {size} entries passes the float64 exact bound")
    signs, spare = np.empty(words.shape), np.empty(words.shape)
    total = np.zeros(words.shape) if m > 1 else None  # a third buffer only for several bits
    for j in range(m):
        np.subtract(0.5, words if m == 1 else (words >> j) & 1, out=signs)
        signs, spare = factored(signs, spare)
        signs *= signs
        if total is not None:
            total += signs
    sums, spare = factored(signs if total is None else total, spare)
    out = spare.view(np.int64)
    np.multiply(sums, 4.0 / size, out=out, casting="unsafe")
    return out


def plant_structure(spec: PlantSpec) -> TruthTable:
    """Random f whose zero-constant structure set is exactly the given span.

    f is constant on each coset of the requested span with independent
    uniform coset values, retried until no accidental extra structure
    survives (hard cap on retries).
    """
    rng = as_rng(spec.seed)
    idx, free = _coset_index(spec.n, spec.structure_basis)
    want = 1 << spec.structure_basis.dim
    for _ in range(PLANT_RETRY_CAP):
        values = rng.integers(0, 2, size=1 << free, dtype=np.uint8)
        table = values[idx]
        if np.count_nonzero(autocorr_values(table) == table.size) == want:
            return TruthTable(spec.n, table)
    raise RuntimeError(
        f"no clean planted instance after {PLANT_RETRY_CAP} attempts "
        f"(n={spec.n}, dim={spec.structure_basis.dim})"
    )


def plant_r_type(f: TruthTable, r: int, seed=None) -> TruthTable:
    """Flip f on exactly r distinct uniformly chosen inputs."""
    size = 1 << f.n
    if not 0 <= r <= size:
        raise ValueError(f"r must be in 0..{size}")
    rng = as_rng(seed)
    flips = rng.choice(size, size=r, replace=False)
    table = f.table.copy()
    table[flips] ^= 1
    return TruthTable(f.n, table)


def plant_periods(n: int, basis: Subspace, seed=None) -> MultiTruthTable:
    """(n-1)-output F constant on cosets of the span and injective across them.

    The period set {s : F(x ^ s) = F(x) for all x} then equals the span
    exactly.  A zero-dimensional span is rejected: there is no nonzero
    period to find.
    """
    _check_dim(n)
    if basis.n != n:
        raise ValueError("dimension mismatch")
    k = basis.dim
    if k < 1:
        raise ValueError("period span must have dimension >= 1")
    rng = as_rng(seed)
    idx, free = _coset_index(n, basis)
    m_out = n - 1
    # distinct output words make F injective on coset representatives
    words = rng.choice(1 << m_out, size=1 << free, replace=False)
    return MultiTruthTable(n, m_out, words.astype(np.int64)[idx])


# ---------------------------------------------------------------------------
# text formats: a "n=<k>" header line, then lines of 0/1 characters


def format_bit_rows(words: np.ndarray, width: int) -> str:
    """One newline-terminated line per row of the 2-D int array `words`;
    each word gives `width` characters of 0/1, bit 0 (x_1) first."""
    rows, cols = words.shape
    text = np.full((rows, cols * width + 1), ord("\n"), dtype=np.uint8)
    for j in range(width):
        text[:, j : cols * width : width] = (words >> j) & 1 | ord("0")
    return text.tobytes().decode("ascii")


def parse_bit_rows(data: bytes, count: int) -> np.ndarray:
    """`count` equal-width lines of 0/1 characters as a (count, width) uint8 bit matrix;
    spaces, control bytes and blank lines around them are skipped."""
    buf = np.frombuffer(data, dtype=np.uint8)
    solid = buf > ord(" ")
    # line i is the run buf[edges[2i]:edges[2i+1]]; edges[1:-1] alternates gaps and runs
    edges = np.flatnonzero(np.diff(solid, prepend=False, append=False))
    widths = edges[1::2] - edges[::2]
    if len(widths) != count or np.any(widths != widths[0]):
        raise ValueError(f"need {count} data lines of one width, got {len(widths)} lines")
    breaks = (buf == ord("\n")) | (buf == ord("\r"))
    if count > 1 and not np.logical_or.reduceat(breaks, edges[1:-1])[::2].all():
        raise ValueError("a table line has a blank inside it")
    bits = buf[solid].reshape(count, -1) - ord("0")
    if bits.max() > 1:
        raise ValueError("data lines must hold only 0/1 characters")
    return bits


def _read_header(text: str) -> tuple[int, bytes]:
    """Dimension from the first non-blank line, 'n=<k>', and the text after it."""
    # non-ASCII text raises UnicodeEncodeError, a ValueError
    head, _, body = text.encode("ascii").lstrip().partition(b"\n")
    if not re.fullmatch(rb"n=\s*\d+\s*", head):
        raise ValueError(f"table text must start with a 'n=<k>' line, not {head[:32]!r}")
    n = int(head[2:])
    _check_dim(n)
    return n, body


def format_truth_table(f: TruthTable) -> str:
    """Header line "n=<k>" then one line of 2**k characters, entry m first."""
    return f"n={f.n}\n" + format_bit_rows(f.table[None, :], 1)


def parse_truth_table(text: str) -> TruthTable:
    n, body = _read_header(text)
    return TruthTable(n, parse_bit_rows(body, 1)[0])


def format_multi_truth_table(F: MultiTruthTable) -> str:
    """Header line "n=<k>" then 2**k lines of m_out-bit words, bit 1 first."""
    return f"n={F.n}\n" + format_bit_rows(F.table[:, None], F.m_out)


def parse_multi_truth_table(text: str) -> MultiTruthTable:
    n, body = _read_header(text)
    bits = parse_bit_rows(body, 1 << n)
    m_out = bits.shape[1]
    if not 1 <= m_out <= 63:
        raise ValueError("output width must be in 1..63")
    # packbits keeps 1 byte per 8 bits, where a dot product would widen every bit to int64
    packed = np.packbits(bits, axis=1, bitorder="little")
    words = np.pad(packed, ((0, 0), (0, 8 - packed.shape[1]))).view("<i8")[:, 0]
    return MultiTruthTable(n, m_out, words)


_VAR_RE = re.compile(r"^x(\d+)$")


def format_anf(a: Anf) -> str:
    """Monomials joined by ' + ', factors like 'x1*x2', constant term '1'.

    Higher degree first, then by variable list: x1*x10 before x2*x3.
    """
    if not a.monomials:
        return "0"
    ordered = sorted(a.monomials, key=lambda m: (-m.bit_count(), _variables(m)))
    return " + ".join(_mono_text(m, "x") for m in ordered)


def _variables(mono: int) -> list[int]:
    """Ascending variable indices of a monomial word (bit v-1 is x_v)."""
    return [v + 1 for v in range(mono.bit_length()) if mono >> v & 1]


def _mono_text(mono: int, var: str) -> str:
    """One monomial as 'x1*x3' (variables named by var), the constant as '1'."""
    return "*".join(f"{var}{v}" for v in _variables(mono)) if mono else "1"


def parse_anf(text: str, n: int | None = None) -> Anf:
    """Parse 'x1*x2 + x3 + 1'; n defaults to the largest variable index."""
    text = text.strip()
    monos: set[int] = set()
    max_var = 0
    if text not in ("", "0"):
        for chunk in text.split("+"):
            chunk = chunk.strip()
            if not chunk:
                raise ValueError("empty monomial between '+' signs")
            term = 0
            if chunk != "1":
                for factor in chunk.split("*"):
                    m = _VAR_RE.match(factor.strip())
                    if not m:
                        raise ValueError(f"bad monomial factor {factor.strip()!r}")
                    v = int(m.group(1))
                    if v < 1:
                        raise ValueError("variable indices start at x1")
                    # refused before the shift, which would build a huge int
                    _check_dim(v)
                    term |= 1 << (v - 1)
                    max_var = max(max_var, v)
            # repeated monomials cancel over GF(2)
            monos.symmetric_difference_update({term})
    if n is None:
        n = max(max_var, 1)
    elif max_var > n:
        raise ValueError(f"variable x{max_var} out of range 1..{n}")
    return Anf(n, frozenset(monos))
