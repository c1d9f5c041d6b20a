"""Measurement collapse and output sampling against exact enumeration."""

import itertools

import numpy as np
import pytest

from simonstruct import gf2, simulate, walsh
from simonstruct.boolfn import MultiTruthTable, PlantSpec, TruthTable, plant_periods, plant_structure
from simonstruct.gf2 import BitMatrix, BitVector, SpanTracker, null_space_basis, span_equal, span_of
from simonstruct.rng import as_rng
from simonstruct.simulate import (
    AnchorPlanes,
    CollapseOutcome,
    collapse,
    quantum_solve,
    sample_y,
    simon_round,
)

from _oracles import (
    butterfly_def,
    every_subspace,
    full_weights_def,
    popcount,
    slow_walsh,
    span_set,
    structure_sets_def,
    y_distribution_def,
)


def random_table(n, rng):
    return TruthTable(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))


def mask_of(out):
    """0/1 indicator of S over all 2**n inputs."""
    mask = np.zeros(1 << out.n, dtype=np.uint8)
    mask[out.survivors] = 1
    return mask


def test_collapse_mask_is_the_consistent_set():
    rng = np.random.default_rng(40)
    for trial in range(20):
        n = int(rng.integers(2, 8))
        f = random_table(n, rng)
        k = int(rng.integers(0, 4))
        anchors = [BitVector(n, int(v)) for v in rng.integers(0, 1 << n, size=k)]
        out = collapse(f, anchors, seed=trial)
        assert len(out.observed) == k + 1
        offsets = [0] + [a.bits for a in anchors]
        consistent = [
            x for x in range(1 << n)
            if all(f(x ^ off) == val for off, val in zip(offsets, out.observed))
        ]
        assert out.survivors.tolist() == consistent
        assert out.size == len(consistent) >= 1
        assert out.survivors.dtype == np.int64 and not out.survivors.flags.writeable


def test_collapse_set_is_a_union_of_structure_cosets():
    rng = np.random.default_rng(41)
    for trial in range(10):
        n = int(rng.integers(3, 8))
        basis = span_of(n, [int(v) for v in rng.integers(1, 1 << n, size=2)])
        f = plant_structure(PlantSpec(n, basis, seed=trial))
        anchors = [BitVector(n, int(v)) for v in rng.integers(0, 1 << n, size=3)]
        mask = mask_of(collapse(f, anchors, seed=trial))
        for s in span_set(basis.basis.row_ints()):
            for x in range(1 << n):
                assert mask[x] == mask[x ^ s]


def test_y_distribution_matches_direct_transform():
    rng = np.random.default_rng(42)
    for trial in range(12):
        n = int(rng.integers(2, 7))
        f = random_table(n, rng)
        anchors = [BitVector(n, int(v)) for v in rng.integers(0, 1 << n, size=2)]
        out = collapse(f, anchors, seed=trial)
        dist = y_distribution_def(out)
        hat = slow_walsh(mask_of(out).astype(np.int64))
        total = out.size << n
        for y in range(1 << n):
            assert dist[y] == pytest.approx(int(hat[y]) ** 2 / total)
        assert float(np.sum(dist)) == pytest.approx(1.0)


def test_every_positive_y_is_orthogonal_to_u0():
    rng = np.random.default_rng(43)
    for trial in range(10):
        n = int(rng.integers(3, 8))
        basis = span_of(n, [int(v) for v in rng.integers(1, 1 << n, size=2)])
        f = plant_structure(PlantSpec(n, basis, seed=trial))
        u0, _ = structure_sets_def(f.table)
        anchors = [BitVector(n, int(v)) for v in rng.integers(0, 1 << n, size=2)]
        out = collapse(f, anchors, seed=trial)
        dist = y_distribution_def(out)
        for y in range(1 << n):
            if dist[y] > 0:
                assert all(popcount(y & b) % 2 == 0 for b in u0)


def test_sample_y_follows_the_exact_law():
    rng = np.random.default_rng(44)
    n = 4
    f = random_table(n, rng)
    out = collapse(f, [BitVector(n, 0b1010)], seed=3)
    dist = y_distribution_def(out)
    # sample_y builds the law on every call, so the bulk draws share one law
    law = out.weights()
    for i in range(300):
        assert sample_y(out, seed=i).bits == law.draw(as_rng(i))
    draws = 20000
    counts = np.zeros(1 << n)
    rng = np.random.default_rng(3)
    for _ in range(draws):
        counts[law.draw(rng)] += 1
    for y in range(1 << n):
        p = dist[y]
        se = (p * (1 - p) / draws) ** 0.5
        assert abs(counts[y] / draws - p) <= max(4 * se, 1e-12)


def test_sampled_y_support_never_leaves_the_dual():
    rng = np.random.default_rng(45)
    n = 6
    basis = span_of(n, [0b000111, 0b110000])
    f = plant_structure(PlantSpec(n, basis, seed=8))
    out = collapse(f, [], seed=9)
    members = span_set(basis.basis.row_ints())
    for i in range(300):
        y = sample_y(out, seed=1000 + i)
        assert all(popcount(y.bits & b) % 2 == 0 for b in members)


def test_simon_round_orthogonal_to_periods():
    rng = np.random.default_rng(46)
    n = 7
    basis = span_of(n, [0b0000011, 0b0101000])
    F = plant_periods(n, basis, seed=11)
    members = span_set(basis.basis.row_ints())
    for i in range(200):
        y = simon_round(F, seed=i)
        assert all(popcount(y.bits & s) % 2 == 0 for s in members)


def test_simon_round_y_is_uniform_over_the_dual():
    # with an injective quotient the collapse set is one coset, so the
    # output law is exactly uniform on the orthogonal complement
    n = 5
    basis = span_of(n, [0b00011, 0b01100])
    F = plant_periods(n, basis, seed=12)
    dual = null_space_basis(BitMatrix.from_ints(n, basis.basis.row_ints()))
    dual_members = [int(x) for x in dual.member_ints()]
    draws = 8000
    counts = {y: 0 for y in dual_members}
    for i in range(draws):
        counts[simon_round(F, seed=i).bits] += 1
    p = 1 / len(dual_members)
    se = (p * (1 - p) / draws) ** 0.5
    for y, c in counts.items():
        assert abs(c / draws - p) <= 4 * se


def test_quantum_solve_matches_null_space():
    rng = np.random.default_rng(47)
    for trial in range(30):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(0, n + 4))
        ys = BitMatrix.from_ints(n, [int(v) for v in rng.integers(0, 1 << n, size=k)])
        got = quantum_solve(ys, seed=trial)
        assert span_equal(got, null_space_basis(ys))


def test_quantum_solve_small_budget_stays_inside():
    rng = np.random.default_rng(49)
    ys = BitMatrix.from_ints(10, [int(v) for v in rng.integers(0, 1 << 10, size=2)])
    target = null_space_basis(ys)
    got = quantum_solve(ys, seed=5, samples=2)
    for row in got.basis.rows:
        assert target.contains(row)
    with pytest.raises(ValueError):
        quantum_solve(ys, samples=0)


def test_collapse_rejects_mismatched_anchor():
    f = TruthTable(3, np.zeros(8, dtype=np.uint8))
    with pytest.raises(ValueError):
        collapse(f, [BitVector(4, 1)])


# ------------------------------------------------------ anchor planes vs collapse


def _generators_drawing_each_m(n):
    """{m: state} for PCG64 states whose next integers(0, 2**n) draw is m."""
    starts = {}
    seed = 0
    while len(starts) < 1 << n:
        g = np.random.default_rng(seed)
        state = g.bit_generator.state
        starts.setdefault(int(g.integers(0, 1 << n)), state)
        seed += 1
    return starts


def _assert_planes_match(f, anchors, planes, state, r1, r2):
    """From one generator state, planes.collapse and collapse give one outcome and one stream."""
    r1.bit_generator.state = state
    r2.bit_generator.state = state
    want = collapse(f, anchors, r1)
    got = planes.collapse(r2)
    assert got.observed == want.observed
    assert got.survivors.dtype == np.int64 and not got.survivors.flags.writeable
    assert np.array_equal(got.survivors, want.survivors)
    assert r1.bit_generator.state == r2.bit_generator.state


def test_anchor_planes_equal_collapse_on_every_small_table():
    # every table with n <= 3, every anchor list of at most 2 words (ordered,
    # repeats allowed, for n <= 2; sets of distinct words for n = 3), every m.
    # At n = 3 a 2-word set takes the one m that cycles with the table code,
    # so every (table, pair), (pair, m) and (table, m) combination still occurs.
    r1, r2 = np.random.default_rng(), np.random.default_rng()
    checked = 0
    for n in (1, 2, 3):
        size = 1 << n
        starts = _generators_drawing_each_m(n)
        if n < 3:
            lists = [c for k in range(3) for c in itertools.product(range(size), repeat=k)]
        else:
            lists = [c for k in range(3) for c in itertools.combinations(range(size), k)]
        for code in range(1 << size):
            f = TruthTable(n, [(code >> i) & 1 for i in range(size)])
            for i, words in enumerate(lists):
                anchors = [BitVector(n, w) for w in words]
                planes = AnchorPlanes(f, anchors)
                ms = range(size) if n < 3 or len(words) < 2 else [(code + i) % size]
                for m in ms:
                    _assert_planes_match(f, anchors, planes, starts[m], r1, r2)
                    checked += 1
    assert checked == 4 * 7 * 2 + 16 * 21 * 4 + 256 * (9 * 8 + 28)


def test_anchor_planes_equal_collapse_across_word_boundaries():
    # n = 4..8 crosses the one-word (n < 6) and multi-word layouts; the
    # anchors set every low bit j < 6, high bits, repeats, and more than n
    # words, so the survivors of the first n planes go through the filter
    rng = np.random.default_rng(24)
    r1, r2 = np.random.default_rng(), np.random.default_rng()
    for n in range(4, 9):
        low = [1 << j for j in range(min(n, 6))] + [(1 << min(n, 6)) - 1]
        high = [w << 6 for w in (1, 3, 2) if w << 6 < 1 << n]
        uniform = [int(w) for w in rng.integers(0, 1 << n, size=2 * n + 3)]
        lists = [low, high + low[:2], uniform, uniform[:n] + uniform[:3], [uniform[0]] * (n + 2)]
        for t in range(4):
            # one constant table, so some round reads 0 at every offset
            bits = np.zeros(1 << n, dtype=np.uint8) if t == 0 else rng.integers(0, 2, size=1 << n)
            f = TruthTable(n, bits)
            for words in lists:
                anchors = [BitVector(n, w) for w in words]
                planes = AnchorPlanes(f, anchors)
                source = np.random.default_rng(1000 * n + t)
                for _ in range(6):
                    _assert_planes_match(f, anchors, planes, source.bit_generator.state, r1, r2)
                    source.bit_generator.state = r1.bit_generator.state
        # a one-output MultiTruthTable takes the same path as a TruthTable
        F = MultiTruthTable(n, 1, rng.integers(0, 2, size=1 << n))
        anchors = [BitVector(n, w) for w in uniform]
        _assert_planes_match(F, anchors, AnchorPlanes(F, anchors), r1.bit_generator.state, r1, r2)


@pytest.mark.parametrize("n", [16, 20])
def test_anchor_planes_equal_collapse_on_large_tables(n):
    rng = np.random.default_rng(n)
    span = span_of(n, [BitVector(n, int(v)) for v in rng.integers(1, 1 << n, size=2)])
    f = plant_structure(PlantSpec(n, span, seed=n))
    r1, r2 = np.random.default_rng(), np.random.default_rng()
    # one anchor leaves S spread over most words; n + 2 leave a small coset union
    for count in (1, n + 2):
        anchors = [BitVector(n, int(w)) for w in rng.integers(0, 1 << n, size=count)]
        planes = AnchorPlanes(f, anchors)
        assert planes.planes.nbytes <= (n + 1) << (n - 3)
        for seed in range(2):
            _assert_planes_match(f, anchors, planes, np.random.default_rng(seed).bit_generator.state, r1, r2)


def test_anchor_planes_refuse_what_collapse_refuses():
    f = TruthTable(3, np.zeros(8, dtype=np.uint8))
    with pytest.raises(ValueError, match="dimension mismatch"):
        AnchorPlanes(f, [BitVector(3, 1), BitVector(4, 1)])
    F = MultiTruthTable(3, 2, np.arange(8) % 4)
    with pytest.raises(ValueError, match="one-output"):
        AnchorPlanes(F, [BitVector(3, 1)])


def test_anchor_planes_are_right_for_every_unit_table_and_anchor():
    # The build is GF(2)-linear in f: a word gather, then shifts, constant
    # masks and ORs of disjoint halves.  So the planes of the 2**n unit tables
    # decide the planes of every table, and this sweep of every unit table
    # with every anchor covers every f with n <= 8.  Linearity is a property
    # of the code, not something this sweep checks, so the random- and
    # large-table tests above stay.
    builds = 0
    for n in range(1, 9):
        size = 1 << n
        chunks = [range(lo, min(lo + n, size)) for lo in range(0, size, n)]
        anchor_lists = [[BitVector(n, a) for a in chunk] for chunk in chunks]
        for i in range(size):
            f = TruthTable(n, np.arange(size) == i)
            for chunk, anchors in zip(chunks, anchor_lists):
                planes = AnchorPlanes(f, anchors).planes
                bits = np.unpackbits(planes.astype("<u8").view(np.uint8), axis=1, bitorder="little")
                # plane a holds f(x ^ a): one set bit, at input i ^ a, and clear padding
                want = np.zeros_like(bits)
                want[np.arange(len(planes)), [i, *(i ^ a for a in chunk)]] = 1
                assert np.array_equal(bits, want), (n, i, list(chunk))
                builds += 1
    assert builds == 11652


def test_anchor_planes_round_keeps_the_inputs_whose_column_is_the_observed_word():
    # Given right planes (the unit-table sweep above), a round's survivors
    # depend only on each input's column of plane bits and the observed word,
    # and the AND, OR and NOT act bit by bit.  f = x_0 ^ x_1 x_{k+1} ^ ... ^
    # x_k x_{2k} with anchors e_{k+1}, ..., e_{2k} has f(x ^ e_{k+j}) = f(x) ^ x_j,
    # so the k + 1 plane columns take all 2**(k+1) values, each at 2**(n-k-1)
    # inputs spread over every word; every m is drawn, so every column meets
    # every observed word.  n = 5 has one padded word; n = 8 has four.  Then
    # the first n anchors repeat those k, so two more anchors past them
    # filter the 2**(n-k-1) inputs of each column.
    rng = np.random.default_rng(12)
    for n, k in ((5, 2), (8, 3)):
        x = np.arange(1 << n)
        bit = [(x >> j) & 1 for j in range(n)]
        f = TruthTable(n, (bit[0] + sum(bit[j] & bit[k + j] for j in range(1, k + 1))) & 1)
        paired = [1 << (k + j) for j in range(1, k + 1)]
        starts = _generators_drawing_each_m(n)
        for words in (paired, paired * n + [int(w) for w in rng.integers(0, 1 << n, size=2)]):
            planes = AnchorPlanes(f, [BitVector(n, w) for w in words])
            columns = f.table[x[:, None] ^ np.array([0, *words])]
            assert len(np.unique(columns[:, : n + 1], axis=0)) == 2 << k
            seen = set()
            source = np.random.default_rng()
            for m, state in starts.items():
                source.bit_generator.state = state
                out = planes.collapse(source)
                assert out.observed == tuple(columns[m].tolist())
                assert out.survivors.tolist() == np.flatnonzero((columns == columns[m]).all(axis=1)).tolist()
                seen.add(out.observed)
            assert len(seen) == len(np.unique(columns, axis=0))


# ------------------------------------------------------ reduced law vs definition


class _Scripted:
    """Stands in for a Generator: integers() returns the given values in order."""

    def __init__(self, *values):
        self._values = iter(values)

    def integers(self, low, high):
        value = next(self._values)
        assert low <= value < high
        return value


def _reachable_outcomes(f, anchors):
    """One outcome per reachable observed word, S taken from the definition.

    The word seen for witness m is (f(m ^ o) for each offset o), and S is
    the set of witnesses that give the same word.
    """
    offsets = [0] + [a.bits for a in anchors]
    x = np.arange(1 << f.n)
    words = np.stack([f.table[x ^ o] for o in offsets], axis=1)
    groups = {}
    for m, word in enumerate(map(tuple, words.tolist())):
        groups.setdefault(word, []).append(m)
    return [CollapseOutcome(f.n, w, np.array(ms)) for w, ms in groups.items()]


def _definition_weights(mask, cache):
    key = mask.tobytes()
    if key not in cache:
        cache[key] = (slow_walsh(mask) ** 2).tolist()
    return cache[key]


def _assert_reduced_law_exact(out, cache):
    """W'(z(y)) from the reduced table equals slow_walsh(mask)**2 for every y."""
    law = out.weights()
    reduced = np.diff(law.cumulative, prepend=0).tolist()
    implied = [
        reduced[sum(((y & b).bit_count() & 1) << j for j, b in enumerate(law.basis))]
        for y in range(1 << out.n)
    ]
    assert implied == _definition_weights(mask_of(out), cache)
    assert law.total == out.size << law.r <= simulate.EXACT_TOTAL_CAP
    assert law.cumulative.dtype == np.int64


def _assert_draws_exact(out, cache):
    """Every (t, u) pair the draw can consume, counted: y appears W(y) * 2**r times."""
    law = out.weights()
    counts = [0] * (1 << out.n)
    for t in range(law.total):
        for u in range(1 << out.n):
            counts[law.draw(_Scripted(t, u))] += 1
    assert counts == [w << law.r for w in _definition_weights(mask_of(out), cache)]


def test_reduced_law_equals_the_full_table_definition():
    cache = {}
    checked = 0
    # every function at n <= 2 with every anchor list of length <= 2, draws enumerated
    for n in (1, 2):
        size = 1 << n
        for code in range(1 << size):
            f = TruthTable(n, [(code >> i) & 1 for i in range(size)])
            for k in range(3):
                for bits in itertools.product(range(size), repeat=k):
                    for out in _reachable_outcomes(f, [BitVector(n, b) for b in bits]):
                        _assert_reduced_law_exact(out, cache)
                        _assert_draws_exact(out, cache)
                        checked += 1
    # every function at n = 3 with every anchor list of length <= 1
    for code in range(1 << 8):
        f = TruthTable(3, [(code >> i) & 1 for i in range(8)])
        for bits in [()] + [(b,) for b in range(8)]:
            for out in _reachable_outcomes(f, [BitVector(3, b) for b in bits]):
                _assert_reduced_law_exact(out, cache)
                checked += 1
    # n = 4: seeded functions, the empty list and three seeded lists of length 1..3
    rng = np.random.default_rng(0x5A)
    for trial in range(2000):
        f = random_table(4, rng)
        lists = [[]] + [
            [BitVector(4, int(v)) for v in rng.integers(0, 16, size=int(rng.integers(1, 4)))]
            for _ in range(3)
        ]
        for anchors in lists:
            outcomes = _reachable_outcomes(f, anchors)
            for out in outcomes:
                _assert_reduced_law_exact(out, cache)
                checked += 1
            # collapse lands on one of these words with exactly its S
            got = collapse(f, anchors, seed=trial)
            want = next(o for o in outcomes if o.observed == got.observed)
            assert got.survivors.tolist() == want.survivors.tolist()
    assert checked > 40000


def test_coset_law_is_a_point_mass_with_no_transform(monkeypatch):
    # |S| = 2**r makes S ^ x0 = V, so S's r-bit transform is +-2**r at z = 0
    # and 0 elsewhere: y is uniform on V's dual.  Every coset of every
    # subspace for n <= 4 (372 sets: one survivor, S = everything and all
    # between) gives the definition's law, and none reaches the transform.
    def refuse(src, spare):
        raise AssertionError("a coset's law needs no transform")

    monkeypatch.setattr(simulate, "factored", refuse)
    cache = {}
    checked = 0
    for n in range(1, 5):
        for sub in every_subspace(n):
            members = sub.member_ints()
            for x0 in range(1 << n):
                coset = np.sort(members ^ x0)
                if coset[0] != x0:
                    continue
                out = CollapseOutcome(n, (), coset)
                assert out.weights().r == sub.dim
                _assert_reduced_law_exact(out, cache)
                if n <= 3:
                    _assert_draws_exact(out, cache)
                checked += 1
    assert checked == 372


def test_full_weights_equal_the_parity_expansion():
    # every law at n <= 3 with anchor lists of length <= 1, as in the test above
    for n in (1, 2, 3):
        size = 1 << n
        for code in range(1 << size):
            f = TruthTable(n, [(code >> i) & 1 for i in range(size)])
            for bits in [()] + [(b,) for b in range(size)]:
                for out in _reachable_outcomes(f, [BitVector(n, b) for b in bits]):
                    want = butterfly_def(mask_of(out)) ** 2
                    assert np.array_equal(full_weights_def(out.weights()), want)
    # planted spans up to n = 12 keep r below n, so z(y) mixes several bits of y
    rng = np.random.default_rng(0x5C)
    for trial in range(30):
        n = int(rng.integers(4, 13))
        basis = span_of(n, [int(v) for v in rng.integers(1, 1 << n, size=int(rng.integers(0, 3)))])
        f = plant_structure(PlantSpec(n, basis, seed=trial))
        anchors = [BitVector(n, int(v)) for v in rng.integers(0, 1 << n, size=int(rng.integers(0, n + 1)))]
        out = collapse(f, anchors, seed=trial)
        assert np.array_equal(full_weights_def(out.weights()), butterfly_def(mask_of(out)) ** 2)


def test_collapse_by_value_law_equals_the_definition():
    rng = np.random.default_rng(0x5B)
    cache = {}
    for trial in range(80):
        n = int(rng.integers(1, 5))
        m_out = int(rng.integers(1, 4))
        F = MultiTruthTable(n, m_out, rng.integers(0, 1 << m_out, size=1 << n))
        values = set(np.unique(F.table).tolist())
        seen = {}
        for seed in range(2000):
            out = collapse(F, (), seed)
            seen.setdefault(out.observed, out)
            if len(seen) == len(values):
                break
        assert {w[0] for w in seen} == values
        for (value,), out in seen.items():
            assert out.survivors.tolist() == np.flatnonzero(F.table == value).tolist()
            _assert_reduced_law_exact(out, cache)


def test_single_survivor_gives_uniform_y():
    # an injective function collapses to one input: r = 0 and y is uniform
    n = 4
    F = MultiTruthTable(n, n, np.random.default_rng(50).permutation(1 << n))
    out = collapse(F, (), seed=1)
    law = out.weights()
    assert out.size == 1 and law.r == 0 and law.total == 1
    assert full_weights_def(law).tolist() == [1] * (1 << n)
    assert sorted(law.draw(_Scripted(0, u)) for u in range(1 << n)) == list(range(1 << n))
    assert np.all(y_distribution_def(out) == 1 / (1 << n))


class _WatchedWhere:
    """numpy for gf2, counting the np.where calls of extend's residual passes, or refusing them."""

    def __init__(self, refuse=False):
        self.refuse = refuse
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def where(self, *args):
        if self.refuse:
            raise AssertionError("a wide S of full rank must not reach the residual passes")
        self.calls += 1
        return np.where(*args)


def test_wide_low_rank_law_is_exact(monkeypatch):
    # |S| >= 8n survivors of a proper coset: the probe skips words, so the residual passes run
    watch = _WatchedWhere()
    monkeypatch.setattr(gf2, "np", watch)
    rng = np.random.default_rng(0x5D)
    for n in range(8, 13):
        dim = int(rng.integers((8 * n - 1).bit_length(), n))
        span = span_of(n, [])
        while span.dim < dim:
            span = span_of(n, [int(v) for v in rng.integers(1, 1 << n, size=dim)])
        out = collapse(plant_periods(n, span, seed=n), (), seed=n)
        assert out.size == 1 << dim
        law = out.weights()
        offsets = out.survivors ^ out.survivors[0]
        assert law.basis == tuple(SpanTracker(n, offsets.tolist()).basis_ints()) == tuple(span.basis.row_ints())
        assert np.array_equal(full_weights_def(law), butterfly_def(mask_of(out)) ** 2)
    assert watch.calls > 0


def test_wide_anchor_free_set_has_full_span(monkeypatch):
    cache = {}
    rng = np.random.default_rng(51)
    n = 8
    balanced = np.zeros(1 << n, dtype=np.uint8)
    balanced[rng.permutation(1 << n)[: 1 << (n - 1)]] = 1
    skewed = balanced.copy()
    skewed[np.flatnonzero(balanced == 0)[:20]] = 1

    # |S| = 2**(n-1) is settled by extend's strided probe; |S| > 2**(n-1) needs no elimination
    monkeypatch.setattr(gf2, "np", _WatchedWhere(refuse=True))
    for table in (balanced, skewed):
        for out in _reachable_outcomes(TruthTable(n, table), []):
            if out.size < 1 << (n - 1):
                continue
            law = out.weights()
            assert law.r == n and law.basis == tuple(1 << j for j in range(n))
            assert law.free == 0
            assert full_weights_def(law).tolist() == _definition_weights(mask_of(out), cache)


def test_one_input_bit():
    # constant f keeps both inputs, so y = 0 always; f(x) = x keeps one, so y is uniform
    const = TruthTable(1, [1, 1])
    ident = TruthTable(1, [0, 1])
    for seed in range(20):
        assert sample_y(collapse(const, [], seed=seed), seed=seed).bits == 0
    out = collapse(ident, [], seed=0)
    assert out.size == 1 and out.weights().r == 0
    assert {sample_y(out, seed=s).bits for s in range(50)} == {0, 1}
    assert collapse(const, [], seed=0).weights().r == 1


def test_law_refuses_a_spectrum_that_breaks_parseval(monkeypatch):
    # a raise, not an assert, so the check on the law's exactness also runs under python -O
    def off_by_one(src, spare):
        out, free = walsh.factored(src, spare)
        out[0] += 1
        return out, free

    monkeypatch.setattr(simulate, "factored", off_by_one)
    with pytest.raises(RuntimeError, match="Parseval"):
        simulate.SpanLaw(3, np.array([0, 3, 5], dtype=np.int64))
