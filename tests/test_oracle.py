"""Exhaustive structure analysis against definition-level scans."""

import itertools

import numpy as np
import pytest

from simonstruct import boolfn, oracle
from simonstruct.boolfn import (
    MultiTruthTable,
    PlantSpec,
    TruthTable,
    autocorr_values,
    plant_periods,
    plant_r_type,
    plant_structure,
)
from simonstruct.gf2 import MAX_DIMENSION, BitVector, span_of
from simonstruct.oracle import (
    _subspace_from_members,
    anchored_confirm,
    autocorrelation,
    brute_periods,
    brute_structures,
    r_type_scan,
    sampled_verify,
    violation_points,
)

from _oracles import (
    autocorr_def,
    brute_periods_def,
    period_set_def,
    span_set,
    structure_sets_def,
    summed_autocorr_def,
    violations_def,
)


def random_table(n, rng):
    return TruthTable(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))


def test_autocorrelation_matches_definition():
    rng = np.random.default_rng(30)
    for _ in range(15):
        n = int(rng.integers(1, 7))
        f = random_table(n, rng)
        spec = autocorrelation(f)
        assert spec[0] == 1 << n
        for alpha in range(1 << n):
            assert spec[alpha] == autocorr_def(f.table, alpha)
        assert spec.shape == (1 << n,) and spec.dtype == np.int64


def test_autocorrelation_exhaustive_n2():
    for code in range(16):
        f = TruthTable(2, [(code >> i) & 1 for i in range(4)])
        spec = autocorrelation(f)
        for alpha in range(4):
            assert spec[alpha] == autocorr_def(f.table, alpha)


def test_brute_structures_respects_cap():
    f = TruthTable(5, np.zeros(32, dtype=np.uint8))
    with pytest.raises(ValueError, match="cap 4"):
        brute_structures(f, cap=4)
    assert brute_structures(f, 5).u0.dim == 5


def test_spectrum_is_a_read_only_view_of_its_values(monkeypatch):
    # autocorrelation hands out the kernel's own array, read-only, with no copy
    kernel = []

    def recorded(table):
        kernel.append(autocorr_values(table))
        return kernel[-1]

    monkeypatch.setattr(oracle, "autocorr_values", recorded)
    spectrum = autocorrelation(TruthTable(2, [0, 1, 1, 0]))
    assert np.shares_memory(spectrum, kernel[0])
    assert not spectrum.flags.writeable
    assert spectrum.tolist() == [4, -4, -4, 4]
    with pytest.raises(ValueError):
        spectrum[0] = 0


def test_brute_structures_matches_scan():
    rng = np.random.default_rng(31)
    for trial in range(20):
        n = int(rng.integers(2, 7))
        if trial % 2:
            f = random_table(n, rng)
        else:
            dim = int(rng.integers(1, 3))
            basis = span_of(n, [int(v) for v in rng.integers(1, 1 << n, size=dim)])
            f = plant_structure(PlantSpec(n, basis, seed=trial))
        sets = brute_structures(f)
        u0_def, u1_def = structure_sets_def(f.table)
        assert set(int(x) for x in sets.u0.member_ints()) == u0_def
        assert {v.bits for v in sets.u1} == u1_def
        if sets.u1:
            base = sets.u1[0].bits
            assert {base ^ v.bits for v in sets.u1} == u0_def


def test_one_constant_set_nonempty_case():
    # parity has every shift as a structure: odd-weight ones flip the value
    n = 4
    f = TruthTable(n, [bin(x).count("1") % 2 for x in range(1 << n)])
    sets = brute_structures(f)
    u0 = set(int(x) for x in sets.u0.member_ints())
    u1 = {v.bits for v in sets.u1}
    assert u0 == {x for x in range(16) if bin(x).count("1") % 2 == 0}
    assert u1 == {x for x in range(16) if bin(x).count("1") % 2 == 1}


def test_brute_periods_matches_scan():
    rng = np.random.default_rng(32)
    for trial in range(15):
        n = int(rng.integers(3, 8))
        dim = int(rng.integers(1, 3))
        while True:
            basis = span_of(n, [int(v) for v in rng.integers(1, 1 << n, size=dim)])
            if basis.dim >= 1:
                break
        F = plant_periods(n, basis, seed=trial)
        span = brute_periods(F)
        assert set(int(x) for x in span.member_ints()) == period_set_def(F.table)


def test_brute_periods_matches_definition_for_every_small_table():
    # every table, so period sets of dimension 0 are covered, not only planted spans
    for n, m_out in ((2, 2), (3, 1)):
        for words in itertools.product(range(1 << m_out), repeat=1 << n):
            F = MultiTruthTable(n, m_out, words)
            members = brute_periods(F).member_ints()
            assert set(members.tolist()) == period_set_def(F.table)
            assert np.array_equal(members, brute_periods_def(F))


def test_summed_spectrum_equals_the_per_bit_intersection():
    # all 65,536 (3, 2) tables would take about 9 s, so a seeded 2,000 of them
    rng = np.random.default_rng(33)
    for _ in range(2000):
        F = MultiTruthTable(3, 2, rng.integers(0, 4, size=8))
        assert np.array_equal(brute_periods(F).member_ints(), brute_periods_def(F))
    for trial in range(12):
        n = 4 + trial % 9
        basis = span_of(n, [int(v) for v in rng.integers(1, 1 << n, size=1 + trial % 3)])
        if basis.dim:
            F = plant_periods(n, basis, seed=trial)
            assert np.array_equal(brute_periods(F).member_ints(), brute_periods_def(F))
    # the widest output word, with and without periods
    for n in (6, 10):
        wide = MultiTruthTable(n, 63, rng.integers(0, 1 << 63, size=1 << n))
        assert np.array_equal(brute_periods(wide).member_ints(), brute_periods_def(wide))
        x = np.arange(1 << n)
        # bits 0..61 are constant on the cosets of span(x_1, x_2), bit 62 only on those of x_1
        low = rng.integers(0, 1 << 62, size=1 << (n - 2))[x >> 2]
        for top, want in ((0, [1, 2]), (rng.integers(0, 2, size=1 << (n - 1))[x >> 1], [1])):
            F = MultiTruthTable(n, 63, low | top << 62)
            assert brute_periods(F).basis.row_ints() == want
            assert np.array_equal(brute_periods(F).member_ints(), brute_periods_def(F))


def test_brute_periods_runs_one_transform_per_bit_and_one_inverse(monkeypatch):
    calls = []
    real = boolfn.factored

    def counted(src, spare, *args):
        calls.append(src.shape)
        return real(src, spare, *args)

    monkeypatch.setattr(boolfn, "factored", counted)
    for n, m_out in ((1, 1), (5, 3), (9, 63)):
        # the kernel reads as many bits as the largest word has, here all m_out
        words = np.zeros(1 << n, dtype=np.int64)
        words[-1] = (1 << m_out) - 1
        calls.clear()
        brute_periods(MultiTruthTable(n, m_out, words))
        assert calls == [(1 << n,)] * (m_out + 1)


def test_summed_spectrum_bound_holds_for_every_legal_table(monkeypatch):
    # n = 24 and 63 outputs is the largest legal table: its total fits float64
    assert 63 * 4 ** (MAX_DIMENSION - 1) < 2**53
    # one dimension more would not, and the check fires before any transform
    def no_transform(*args):
        raise AssertionError("the bound is checked before transforming")

    monkeypatch.setattr(boolfn, "factored", no_transform)
    too_wide = np.broadcast_to(np.int64(1 << 62), 1 << (MAX_DIMENSION + 1))
    with pytest.raises(ValueError, match="exact bound"):
        autocorr_values(too_wide)


def test_summed_kernel_matches_the_per_bit_definition():
    for n, width in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)):
        for words in itertools.product(range(1 << width), repeat=1 << n):
            assert autocorr_values(np.array(words)).tolist() == summed_autocorr_def(words)
    rng = np.random.default_rng(34)
    for _ in range(500):
        words = rng.integers(0, 4, size=8)
        assert autocorr_values(words).tolist() == summed_autocorr_def(words)
    # the widest words: n = 6, 63 output bits, the top one set
    words = rng.integers(0, 1 << 63, size=64)
    words[5] |= 1 << 62
    assert autocorr_values(words).tolist() == summed_autocorr_def(words)


def test_subspace_from_members_checks_closure():
    sub = _subspace_from_members(np.array([0, 3, 5, 6]), 3)
    assert sub.member_ints().tolist() == [0, 3, 5, 6]
    for members in ([0, 1, 2, 4], [0, 1, 2], [1, 2, 3, 4], []):
        with pytest.raises(RuntimeError):
            _subspace_from_members(np.array(members, dtype=np.int64), 3)


def test_r_type_scan_counts_and_constants():
    rng = np.random.default_rng(33)
    for _ in range(12):
        n = int(rng.integers(2, 7))
        f = random_table(n, rng)
        r = int(rng.integers(0, (1 << n) // 3 + 1))
        hits = {h.alpha.bits: h for h in r_type_scan(f, r)}
        for alpha in range(1 << n):
            v0 = violations_def(f.table, alpha, 0)
            v1 = violations_def(f.table, alpha, 1)
            best = min(v0, v1)
            if best <= r:
                h = hits[alpha]
                assert h.violations == best
                assert h.c == (0 if v0 <= v1 else 1)
            else:
                assert alpha not in hits
    with pytest.raises(ValueError):
        r_type_scan(f, -1)


def test_r_zero_scan_is_exactly_the_structure_sets():
    rng = np.random.default_rng(34)
    for trial in range(8):
        n = int(rng.integers(2, 6))
        basis = span_of(n, [int(rng.integers(1, 1 << n))])
        f = plant_structure(PlantSpec(n, basis, seed=trial))
        hits = r_type_scan(f, 0)
        u0_def, u1_def = structure_sets_def(f.table)
        assert {h.alpha.bits for h in hits} == u0_def | u1_def
        for h in hits:
            assert h.violations == 0


def test_planted_r_type_is_found_with_its_count():
    rng = np.random.default_rng(35)
    n = 8
    basis = span_of(n, [0b00010001])
    f = plant_structure(PlantSpec(n, basis, seed=9))
    g = plant_r_type(f, 3, seed=10)
    hits = {h.alpha.bits: h for h in r_type_scan(g, 6)}
    alpha = 0b00010001
    assert alpha in hits
    assert 0 < hits[alpha].violations <= 6
    assert hits[alpha].violations == min(
        violations_def(g.table, alpha, 0), violations_def(g.table, alpha, 1)
    )


def test_violation_points_definition():
    rng = np.random.default_rng(36)
    for n in range(1, 6):
        f = random_table(n, rng)
        for alpha in range(1 << n):
            for c in (0, 1):
                pts = violation_points(f, BitVector(n, alpha), c)
                expect = [x for x in range(1 << n) if f(x) ^ f(x ^ alpha) != c]
                assert [p.bits for p in pts] == expect
    with pytest.raises(ValueError):
        violation_points(f, BitVector(n, 0), 2)


def test_sampled_verify_accepts_true_structures():
    rng = np.random.default_rng(37)
    for trial in range(10):
        n = int(rng.integers(4, 9))
        basis = span_of(n, [int(v) for v in rng.integers(1, 1 << n, size=2)])
        f = plant_structure(PlantSpec(n, basis, seed=trial))
        result = sampled_verify(f, list(basis.basis.rows), p=32, seed=trial)
        assert bool(result)
        assert result.witness is None
        assert repr(result) == "VerifyResult(ok=True, witness=None)"


def test_sampled_verify_rejects_with_witness():
    rng = np.random.default_rng(38)
    rejected = 0
    for trial in range(20):
        n = 6
        f = random_table(n, rng)
        u0, _ = structure_sets_def(f.table)
        fakes = [b for b in range(1, 1 << n) if b not in u0]
        b = BitVector(n, fakes[trial % len(fakes)])
        result = sampled_verify(f, [b], p=200, seed=trial)
        if not result:
            rejected += 1
            x, bad = result.witness
            assert bad.bits == b.bits
            assert f(x.bits) != f(x.bits ^ b.bits)
    assert rejected >= 19
    with pytest.raises(ValueError):
        sampled_verify(f, [BitVector(6, 1)], p=0)


def test_anchored_confirm_always_accepts_true_structures():
    rng = np.random.default_rng(39)
    n = 7
    basis = span_of(n, [0b0000011, 0b1010000])
    f = plant_structure(PlantSpec(n, basis, seed=4))
    for alpha_bits in span_set(basis.basis.row_ints()):
        assert anchored_confirm(f, BitVector(n, alpha_bits), l=5, p=8, seed=int(rng.integers(1 << 30)))


def test_anchored_confirm_validation():
    f = TruthTable(3, np.zeros(8, dtype=np.uint8))
    with pytest.raises(ValueError):
        anchored_confirm(f, BitVector(4, 0), l=1, p=1)
    with pytest.raises(ValueError):
        anchored_confirm(f, BitVector(3, 0), l=-1, p=1)
    with pytest.raises(ValueError):
        anchored_confirm(f, BitVector(3, 0), l=1, p=0)
    with pytest.raises(ValueError):
        anchored_confirm(f, BitVector(3, 0), l=8, p=1)
