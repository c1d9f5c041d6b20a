"""Slow reference implementations used only by the tests.

Everything here recomputes quantities straight from their definitions and
avoids the library's fast paths, so a transform bug cannot hide by sitting
on both sides of an assertion.  The exceptions keep a computation the
package replaced (brute_periods_def, coset_index_def, plant_structure_def,
filter_def), so a rewrite is checked against the code it stands in for,
or the 2**n expansion of the y-law (full_weights_def, y_distribution_def),
which the package never needs: it draws from the law in S's own span.
"""

from fractions import Fraction

import numpy as np

from simonstruct.boolfn import PLANT_RETRY_CAP, TruthTable, autocorr_values
from simonstruct.gf2 import span_of
from simonstruct.rng import as_rng


def popcount(x: int) -> int:
    return bin(x).count("1")


def slow_walsh(values) -> np.ndarray:
    """O(4^n) character sum: out[y] = sum_x (-1)^(x.y) values[x]."""
    arr = np.asarray(values, dtype=np.int64)
    size = arr.size
    out = np.zeros(size, dtype=np.int64)
    for y in range(size):
        total = 0
        for x in range(size):
            total += int(arr[x]) if popcount(x & y) % 2 == 0 else -int(arr[x])
        out[y] = total
    return out


def butterfly_def(values) -> np.ndarray:
    """Radix-2 int64 Walsh-Hadamard butterfly along the last axis, one stage
    per bit: the package's transform before the factored float64 kernel."""
    arr = np.array(values, dtype=np.int64)
    size = arr.shape[-1]
    flat = arr.reshape(-1, size)
    h = 1
    while h < size:
        flat = flat.reshape(-1, 2, h)
        top = flat[:, 0, :].copy()
        flat[:, 0, :] += flat[:, 1, :]
        flat[:, 1, :] = top - flat[:, 1, :]
        flat = flat.reshape(-1, size)
        h *= 2
    return flat.reshape(arr.shape)


def slow_mobius(values) -> np.ndarray:
    """Subset-XOR accumulation: out[m] = xor of values[x] over x subset of m."""
    arr = np.asarray(values, dtype=np.uint8)
    size = arr.size
    out = np.zeros(size, dtype=np.uint8)
    for m in range(size):
        acc = 0
        for x in range(size):
            if x & m == x:
                acc ^= int(arr[x])
        out[m] = acc
    return out


def autocorr_def(table, alpha: int) -> int:
    """Signed agreement count between f(x) and f(x ^ alpha) over all x."""
    t = np.asarray(table)
    total = 0
    for x in range(t.size):
        total += 1 if t[x] == t[x ^ alpha] else -1
    return total


def summed_autocorr_def(words) -> list[int]:
    """autocorr_def summed over the output bits j below the largest word's bit
    length (bit 0 alone for an all-zero table), one bit table at a time."""
    t = np.asarray(words, dtype=np.int64)
    bits = range(max(1, int(t.max()).bit_length()))
    return [sum(autocorr_def((t >> j) & 1, a) for j in bits) for a in range(t.size)]


def structure_sets_def(table) -> tuple[set[int], set[int]]:
    """(u0, u1) membership by scanning every shift against every input."""
    t = np.asarray(table)
    size = t.size
    u0: set[int] = set()
    u1: set[int] = set()
    for a in range(size):
        diffs = {int(t[x] ^ t[x ^ a]) for x in range(size)}
        if diffs == {0}:
            u0.add(a)
        elif diffs == {1}:
            u1.add(a)
    return u0, u1


def violations_def(table, alpha: int, c: int) -> int:
    """Number of inputs where f(x ^ alpha) ^ f(x) differs from c."""
    t = np.asarray(table)
    return sum(1 for x in range(t.size) if int(t[x] ^ t[x ^ alpha]) != c)


def derivative_def(f, s):
    """Discrete derivative x -> f(x ^ s) ^ f(x), as a TruthTable."""
    x = np.arange(1 << f.n)
    return TruthTable(f.n, f.table[x ^ s.bits] ^ f.table)


def period_set_def(table) -> set[int]:
    """{a : F(x ^ a) == F(x) for every x} for a packed multi-output table."""
    t = np.asarray(table)
    size = t.size
    return {a for a in range(size) if all(t[x] == t[x ^ a] for x in range(size))}


def brute_periods_def(F) -> np.ndarray:
    """Sorted period words as the intersection of the per-bit structure sets,
    one autocorrelation (two transforms) per output bit: the package's
    period oracle before the summed spectrum."""
    size = 1 << F.n
    mask = np.ones(size, dtype=bool)
    for j in range(F.m_out):
        mask &= autocorr_values((F.table >> j) & 1) == size
    return np.nonzero(mask)[0]


def coset_index_def(n: int, basis) -> tuple[np.ndarray, int]:
    """Coset index of every x by full-table passes: reduce x by each RREF row
    in turn, then pack the free coordinates one column at a time."""
    x = np.arange(1 << n, dtype=np.int64)
    rows = basis.basis.row_ints()
    for row in rows:
        pivot = (row & -row).bit_length() - 1
        x = np.where((x >> pivot) & 1 == 1, x ^ row, x)
    pivot_cols = {(r & -r).bit_length() - 1 for r in rows}
    free_cols = [c for c in range(n) if c not in pivot_cols]
    packed = np.zeros(1 << n, dtype=np.int64)
    for j, c in enumerate(free_cols):
        packed |= ((x >> c) & 1) << j
    return packed, len(free_cols)


def plant_structure_def(spec) -> TruthTable:
    """plant_structure's loop before it checked the quotient: expand every
    draw of coset values to the 2**n table and accept it when exactly the
    2**dim words of the span are zero-constant structures."""
    rng = as_rng(spec.seed)
    idx, free = coset_index_def(spec.n, spec.structure_basis)
    want = 1 << spec.structure_basis.dim
    for _ in range(PLANT_RETRY_CAP):
        table = rng.integers(0, 2, size=1 << free, dtype=np.uint8)[idx]
        if np.count_nonzero(autocorr_values(table) == table.size) == want:
            return TruthTable(spec.n, table)
    raise RuntimeError("no clean planted instance")


def full_weights_def(law) -> np.ndarray:
    """W(y) for every y: the reduced weight W'(z(y)), read off the law's
    cumulative table, with z(y) bit by bit from the parity of b_j & y, one
    full-table pass per basis row."""
    y = np.arange(1 << law.n, dtype=np.int64)
    z = np.zeros_like(y)
    for j, b in enumerate(law.basis):
        z |= (np.bitwise_count(y & b).astype(np.int64) & 1) << j
    return np.diff(law.cumulative, prepend=0)[z]


def y_distribution_def(outcome) -> np.ndarray:
    """Probability of every y for one collapse outcome: W(y) / (|S| * 2**n)."""
    return full_weights_def(outcome.weights()) / float(outcome.size << outcome.n)


def filter_def(table, survivors, offsets, observed) -> np.ndarray:
    """The survivors x with table[x ^ a] == v for each offset a and observed
    value v, one anchor at a time: collapse's filter before it took blocks."""
    out = np.asarray(survivors, dtype=np.int64)
    for a, v in zip(np.asarray(offsets).tolist(), np.asarray(observed).tolist()):
        out = out[table[out ^ a] == v]
    return out


def bit_rows_def(words, width: int) -> str:
    """One line per row of words; each word as width characters, bit 0 first."""
    lines = []
    for row in words:
        lines.append("".join(str((int(w) >> i) & 1) for w in row for i in range(width)))
    return "".join(line + "\n" for line in lines)


def naive_rank(rows) -> int:
    """GF(2) rank by leading-bit elimination, no library calls."""
    work = [int(r) for r in rows if int(r)]
    rank = 0
    while work:
        bit = max(r.bit_length() for r in work) - 1
        pivot = next(r for r in work if (r >> bit) & 1)
        work = [r ^ pivot if (r >> bit) & 1 else r for r in work]
        work = [r for r in work if r]
        rank += 1
    return rank


def rref_def(rows, n: int) -> list[int]:
    """Textbook Gauss-Jordan RREF: columns scanned from x_1 up, pivot rows
    ascending, every pivot column cleared in all other rows, zero rows dropped."""
    work = [int(r) for r in rows]
    row = 0
    for col in range(n):
        sel = next((r for r in range(row, len(work)) if (work[r] >> col) & 1), None)
        if sel is None:
            continue
        work[row], work[sel] = work[sel], work[row]
        for r in range(len(work)):
            if r != row and (work[r] >> col) & 1:
                work[r] ^= work[row]
        row += 1
    return work[:row]


def every_subspace(n: int) -> list:
    """Each subspace of GF(2)^n once, grown one word at a time from {0}."""
    found = {(): span_of(n, [])}
    frontier = [()]
    while frontier:
        grown = []
        for rows in frontier:
            for v in range(1, 1 << n):
                sub = span_of(n, [*rows, v])
                key = tuple(sub.basis.row_ints())
                if key not in found:
                    found[key] = sub
                    grown.append(key)
        frontier = grown
    return list(found.values())


def span_set(vectors) -> set[int]:
    """All XOR combinations of the given words, by breadth-first closure."""
    out = {0}
    for v in vectors:
        out |= {w ^ int(v) for w in out}
    return out


def spanning_prob_closed(n: int, k: int) -> Fraction:
    """Chance that k uniform vectors span GF(2)^n, as the telescoped product
    prod_{j=k-n+1}^{k} (1 - 2^(-j))."""
    if k < n:
        return Fraction(0)
    out = Fraction(1)
    for j in range(k - n + 1, k + 1):
        out *= 1 - Fraction(1, 1 << j)
    return out


def rank_prob_exhaustive(n: int, k: int) -> Fraction:
    """Full-rank chance by enumerating all 2^(nk) tuples; tiny n*k only."""
    if n * k > 18:
        raise ValueError("tuple enumeration is for tiny cases only")
    size = 1 << n
    hits = 0
    total = size**k
    for code in range(total):
        rows = []
        c = code
        for _ in range(k):
            rows.append(c % size)
            c //= size
        if naive_rank(rows) == n:
            hits += 1
    return Fraction(hits, total)


def expand_product(factors) -> set[int]:
    """Multiply out GF(2) factors (var, const), each meaning (s_var + const).

    Starts from the constant polynomial 1 and multiplies one factor at a
    time, cancelling duplicate monomials mod 2 after every step.  Monomials
    are packed words, s_v at bit v-1.
    """
    poly: set[int] = {0}
    for var, const in factors:
        shifted: set[int] = set()
        for mono in poly:
            grown = mono | 1 << (var - 1)
            if grown in shifted:
                shifted.remove(grown)
            else:
                shifted.add(grown)
        poly = shifted ^ poly if const else shifted
    return poly
