"""Bit-packed GF(2) linear algebra layer."""

import numpy as np
import pytest

from simonstruct.boolfn import Anf
from simonstruct.gf2 import (
    MAX_DIMENSION,
    BitMatrix,
    BitVector,
    SpanTracker,
    Subspace,
    linear_index,
    null_space_basis,
    span_equal,
    span_of,
)

from _oracles import naive_rank, popcount, rref_def, span_set


def test_bitvector_string_round_trip():
    v = BitVector.from_string("10110")
    assert v.n == 5
    assert str(v) == "10110"
    # leftmost character is bit 1
    assert [(v.bits >> i) & 1 for i in range(5)] == [1, 0, 1, 1, 0]
    assert int(v) == v.bits


def test_bitvector_algebra():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 16))
        a = BitVector(n, int(rng.integers(0, 1 << n)))
        b = BitVector(n, int(rng.integers(0, 1 << n)))
        assert (a ^ b).bits == a.bits ^ b.bits
        assert a.dot(b) == popcount(a.bits & b.bits) % 2
    assert str(BitVector(4, 0)) == "0000"
    assert str(BitVector(4, 2**4 - 1)) == "1111"


def test_bitvector_validation():
    with pytest.raises(ValueError):
        BitVector(3, 8)
    with pytest.raises(ValueError):
        BitVector(3, -1)
    with pytest.raises(ValueError):
        BitVector(0, 0)
    with pytest.raises(ValueError):
        BitVector(2, 1) ^ BitVector(3, 1)
    with pytest.raises(ValueError):
        BitVector.from_string("10x")


def test_dimension_cap_is_the_table_cap():
    assert MAX_DIMENSION == 24
    top = (1 << 24) - 1
    assert BitVector(24, top).bits.bit_count() == 24
    assert SpanTracker(24, [top, 1 << 23]).dim == 2
    assert Anf(24, frozenset({1 | 1 << 23})).degree() == 2
    with pytest.raises(ValueError):
        BitVector(25, 0)
    with pytest.raises(ValueError):
        SpanTracker(25)
    with pytest.raises(ValueError):
        Anf(25)


def test_bitmatrix_round_trips():
    m = BitMatrix.from_ints(4, [0b1010, 0b0001])
    assert m.row_ints() == [0b1010, 0b0001]
    m2 = BitMatrix(4, tuple(BitVector.from_string(r) for r in ["0101", "1000"]))
    assert m2.n == 4
    assert [str(r) for r in m2.rows] == ["0101", "1000"]
    with pytest.raises(ValueError):
        BitMatrix(3, (BitVector(4, 1),))


def test_rref_is_canonical_and_span_preserving():
    rng = np.random.default_rng(1)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        rows = [int(r) for r in rng.integers(0, 1 << n, size=rng.integers(0, 6))]
        rref = span_of(n, rows).basis.row_ints()
        assert span_set(rref) == span_set(rows)
        assert span_of(n, rref).basis.row_ints() == rref
        # each pivot column appears in exactly one row
        for row in rref:
            pivot = row & -row
            assert sum(1 for other in rref if other & pivot) == 1


def test_rank_matches_naive():
    rng = np.random.default_rng(2)
    for _ in range(80):
        n = int(rng.integers(1, 11))
        k = int(rng.integers(0, 8))
        ints = [int(r) for r in rng.integers(0, 1 << n, size=k)]
        assert SpanTracker(n, ints).dim == naive_rank(ints)


def test_null_space_is_the_full_orthogonal_set():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        ints = [int(r) for r in rng.integers(0, 1 << n, size=rng.integers(0, 6))]
        m = BitMatrix.from_ints(n, ints)
        ns = null_space_basis(m)
        expect = {
            z for z in range(1 << n) if all(popcount(z & r) % 2 == 0 for r in ints)
        }
        assert set(int(x) for x in ns.member_ints()) == expect
        assert ns.dim == n - SpanTracker(n, ints).dim


def test_span_of_and_membership():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        vecs = [int(r) for r in rng.integers(0, 1 << n, size=rng.integers(0, 5))]
        s = span_of(n, vecs)
        members = span_set(vecs)
        assert set(int(x) for x in s.member_ints()) == members
        assert s.member_ints().tolist() == sorted(members)
        for w in range(1 << n):
            assert s.contains(BitVector(n, w)) == (w in members)


def test_subspace_requires_rref_basis():
    Subspace(BitMatrix.from_ints(4, [0b0101, 0b0010]))
    with pytest.raises(ValueError):
        Subspace(BitMatrix.from_ints(4, [0b0111, 0b0010]))


def test_span_equal_ignores_basis_choice():
    a = span_of(5, [0b10010, 0b01000])
    b = span_of(5, [0b11010, 0b10010])
    assert span_equal(a, b)
    c = span_of(5, [0b10010])
    assert not span_equal(a, c)
    with pytest.raises(ValueError):
        span_equal(a, span_of(4, [1]))


def test_span_tracker_against_closure():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        tracker = SpanTracker(n)
        seen: set[int] = {0}
        for _ in range(10):
            v = int(rng.integers(0, 1 << n))
            grew = tracker.add(v)
            assert grew == (v not in seen)
            seen = span_set(list(seen) + [v])
            assert tracker.dim == naive_rank(list(seen))
            for w in (0, v, int(rng.integers(0, 1 << n))):
                assert tracker.contains(w) == (w in seen)
        assert span_set(tracker.basis_ints()) == seen


def test_span_tracker_basis_is_the_rref_of_its_inserts():
    # echelon rows turned into RREF on demand must give exactly the canonical RREF
    rng = np.random.default_rng(6)
    for trial in range(300):
        n = int(rng.integers(1, 25))
        tracker = SpanTracker(n)
        inserted: list[int] = []
        # sparse words make pivot collisions and clearing steps common
        sparse = trial % 2 == 0
        for _ in range(int(rng.integers(1, 2 * n + 3))):
            v = int(rng.integers(0, 1 << n))
            if sparse:
                v &= int(rng.integers(0, 1 << n)) & int(rng.integers(0, 1 << n))
            inserted.append(v)
            tracker.add(v)
            assert tracker.basis_ints() == rref_def(inserted, n)


def test_empty_span_edge_cases():
    s = span_of(6, [])
    assert s.dim == 0
    assert s.member_ints().tolist() == [0]
    assert s.contains(BitVector(6, 0))
    assert not s.contains(BitVector(6, 1))
    full = null_space_basis(BitMatrix(6, ()))
    assert full.dim == 6


def test_linear_index_is_the_xor_of_the_images_of_set_bits():
    rng = np.random.default_rng(8)
    for n in range(9):
        images = [int(v) for v in rng.integers(0, 1 << 40, size=n)]
        out = linear_index(n, images)
        assert out.dtype == np.int64 and out.size == 1 << n
        want = []
        for x in range(1 << n):
            acc = 0
            for k in range(n):
                if (x >> k) & 1:
                    acc ^= images[k]
            want.append(acc)
        assert out.tolist() == want
    with pytest.raises(ValueError, match="needs 3 images"):
        linear_index(3, [1, 2])


def _assert_extend_is_one_add_per_word(n, words, held=()):
    tracker = SpanTracker(n, held)
    assert tracker.extend(np.asarray(words, dtype=np.int64)) is tracker
    want = SpanTracker(n, [*held, *(int(w) for w in words)])
    assert tracker.basis_ints() == want.basis_ints()
    assert tracker.dim == want.dim
    probes = range(1 << n) if n <= 8 else [0, *(int(w) for w in words[:20]), (1 << n) - 1, 1 << (n - 1)]
    assert all(tracker.contains(w) == want.contains(w) for w in probes)


def test_extend_matches_one_add_per_word():
    rng = np.random.default_rng(9)
    # empty arrays, all-zero arrays, and n = 1
    for n in (1, 5, 12):
        _assert_extend_is_one_add_per_word(n, [])
        _assert_extend_is_one_add_per_word(n, [0] * (16 * n))
        _assert_extend_is_one_add_per_word(n, [], held=[1, 1 << (n - 1)])
    for size in range(12):
        _assert_extend_is_one_add_per_word(1, rng.integers(0, 2, size=size))
    for trial in range(60):
        n = int(rng.integers(2, 13))
        # words drawn with repeats from a span of low rank, below and above 8n of them
        pool = list(span_set([int(v) for v in rng.integers(0, 1 << n, size=int(rng.integers(0, n)))]))
        words = rng.choice(pool, size=int(rng.integers(0, 16 * n)))
        held = [int(v) for v in rng.integers(0, 1 << n, size=trial % 3)]
        _assert_extend_is_one_add_per_word(n, words, held)
    # a wide array of full rank
    for n in (4, 8, 12):
        _assert_extend_is_one_add_per_word(n, rng.integers(0, 1 << n, size=64 * n))


def test_extend_finds_the_directions_a_strided_probe_misses():
    # sorted members of a subspace taken at an even stride all lack the basis
    # direction with the lowest leading bit: the residual passes must add it
    rng = np.random.default_rng(10)
    missed = 0
    for dim in range(6, 11):
        sub = span_of(12, [])
        while sub.dim < dim:
            sub = span_of(12, [int(v) for v in rng.integers(1, 1 << 12, size=dim)])
        members = sub.member_ints()
        stride = max(1, members.size // (4 * 12))
        missed += SpanTracker(12, members[::stride].tolist()).dim < sub.dim
        assert SpanTracker(12).extend(members).basis_ints() == sub.basis.row_ints()
        _assert_extend_is_one_add_per_word(12, members)
    assert missed
