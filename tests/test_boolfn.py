"""Truth tables, ANF conversion, planted instances, text formats."""

import numpy as np
import pytest

from simonstruct.boolfn import (
    Anf,
    MultiTruthTable,
    PlantSpec,
    TruthTable,
    _coset_index,
    anf_of,
    autocorr_values,
    format_anf,
    format_bit_rows,
    format_multi_truth_table,
    format_truth_table,
    parse_anf,
    parse_bit_rows,
    parse_multi_truth_table,
    parse_truth_table,
    plant_periods,
    plant_r_type,
    plant_structure,
    tt_of,
)
from simonstruct.gf2 import BitVector, span_of
from simonstruct.oracle import brute_periods, brute_structures

from _oracles import (
    autocorr_def,
    bit_rows_def,
    coset_index_def,
    derivative_def,
    every_subspace,
    plant_structure_def,
    span_set,
    structure_sets_def,
)


def random_table(n, rng):
    return TruthTable(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))


def test_autocorr_values_matches_definition_for_every_small_table():
    for n in range(1, 4):
        size = 1 << n
        tables = np.array(
            [[(code >> x) & 1 for x in range(size)] for code in range(1 << size)],
            dtype=np.uint8,
        )
        stacked = autocorr_values(tables)
        assert stacked.dtype == np.int64 and stacked.shape == tables.shape
        for table, row in zip(tables, stacked):
            want = [autocorr_def(table, a) for a in range(size)]
            assert autocorr_values(table).tolist() == want
            assert row.tolist() == want


def test_truth_table_call_and_eq():
    f = TruthTable(2, [0, 1, 1, 0])
    assert [f(x) for x in range(4)] == [0, 1, 1, 0]
    assert f(BitVector(2, 3)) == 0
    assert f == TruthTable(2, [0, 1, 1, 0])
    assert f != TruthTable(2, [0, 0, 1, 0])


def test_truth_table_validation():
    with pytest.raises(ValueError):
        TruthTable(2, [0, 1, 1])
    with pytest.raises(ValueError):
        TruthTable(2, [0, 1, 2, 0])
    with pytest.raises(ValueError):
        TruthTable(30, np.zeros(8, dtype=np.uint8))
    # entries are checked before the cast, which would wrap 256 to 0,
    # truncate 0.5 to 0, or raise OverflowError on the list
    for table in (np.array([256, 1]), np.array([0.5, 1]), [256, 1]):
        with pytest.raises(ValueError):
            TruthTable(1, table)


def test_multi_truth_table_basics():
    F = MultiTruthTable(2, 3, [0, 5, 7, 2])
    assert F(0) == 0 and F(2) == 7
    assert F(BitVector(2, 1)) == 5
    with pytest.raises(ValueError):
        MultiTruthTable(2, 2, [0, 4, 0, 0])
    with pytest.raises(ValueError):
        MultiTruthTable(2, 2, [0, 1, 2])


def test_truth_table_is_the_one_output_multi_truth_table():
    f = TruthTable(2, [0, 1, 1, 0])
    F = MultiTruthTable(2, 1, [0, 1, 1, 0])
    assert isinstance(f, MultiTruthTable) and f.m_out == 1
    assert f.table.dtype == F.table.dtype == np.uint8
    # same words, different kinds: the types stay apart
    assert f != F and F != f
    # so the period oracle reads a one-output table as the c = 0 structures
    for n in range(1, 4):
        for code in range(1 << (1 << n)):
            g = TruthTable(n, [(code >> x) & 1 for x in range(1 << n)])
            assert np.array_equal(brute_periods(g).member_ints(), brute_structures(g).u0.member_ints())


def test_table_word_is_the_narrowest_that_holds_the_outputs():
    rng = np.random.default_rng(29)
    for m_out in range(1, 64):
        want = np.uint8 if m_out <= 8 else np.uint16 if m_out <= 16 else np.uint32 if m_out <= 32 else np.int64
        words = rng.integers(0, 1 << m_out, size=8, dtype=np.int64)
        words[-1] |= 1 << (m_out - 1)
        F = MultiTruthTable(3, m_out, words)
        assert F.table.dtype == want and not F.table.flags.writeable
        assert F.table.tolist() == words.tolist()
        again = parse_multi_truth_table(format_multi_truth_table(F))
        assert again == F and again.table.dtype == want


def test_anf_round_trip_random():
    rng = np.random.default_rng(20)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        f = random_table(n, rng)
        a = anf_of(f)
        assert tt_of(a) == f
        for x in range(1 << n):
            assert a.evaluate(x) == f(x)


def test_anf_degree_and_validation():
    assert Anf(3).degree() == -1
    assert Anf(3, frozenset({0})).degree() == 0
    assert Anf(3, frozenset({0b101})).degree() == 2
    # a monomial is a Python int below 2**n: old frozenset monomials, negative
    # words, words past n bits, bools and numpy ints are all refused
    for bad in (frozenset({1, 3}), frozenset(), -1, 1 << 3, True, np.int64(1)):
        with pytest.raises(ValueError):
            Anf(3, frozenset({bad}))
    with pytest.raises(ValueError):
        Anf(2, frozenset({0b100}))


def test_anf_text_keeps_the_variable_index_order():
    # by word x2*x3 (0b110) would come before x1*x10 (bit 0 and bit 9)
    a = parse_anf("x2*x3 + x1*x10 + x4 + 1 + x1*x2*x3")
    assert format_anf(a) == "x1*x2*x3 + x1*x10 + x2*x3 + x4 + 1"
    assert a.monomials == {0b111, 1 | 1 << 9, 0b110, 0b1000, 0}


def test_derivative_definition():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        f = random_table(n, rng)
        s = BitVector(n, int(rng.integers(0, 1 << n)))
        d = derivative_def(f, s)
        for x in range(1 << n):
            assert d(x) == f(x) ^ f(x ^ s.bits)


def test_plant_structure_sets_exact_span():
    rng = np.random.default_rng(22)
    for trial in range(25):
        n = int(rng.integers(3, 9))
        dim = int(rng.integers(0, min(3, n - 1) + 1))
        basis = span_of(n, [int(v) for v in rng.integers(1, 1 << n, size=dim)])
        f = plant_structure(PlantSpec(n, basis, seed=1000 + trial))
        u0, _ = structure_sets_def(f.table)
        assert u0 == span_set(basis.basis.row_ints())


def test_coset_index_matches_the_reduce_and_pack_reference():
    # counts are the sums of Gaussian binomials: every subspace for n <= 5
    for n, count in ((1, 2), (2, 5), (3, 16), (4, 67), (5, 374)):
        subspaces = every_subspace(n)
        assert len(subspaces) == count
        for basis in subspaces:
            idx, free = _coset_index(n, basis)
            want, want_free = coset_index_def(n, basis)
            assert free == want_free and np.array_equal(idx, want)
    rng = np.random.default_rng(26)
    for n in (12, 20):
        for dim in (0, 1, 3, n // 2):
            while True:
                basis = span_of(n, [int(v) for v in rng.integers(1, 1 << n, size=dim)])
                if basis.dim == dim:
                    break
            idx, free = _coset_index(n, basis)
            want, want_free = coset_index_def(n, basis)
            assert free == want_free == n - dim and np.array_equal(idx, want)


def _planted_or_raised(plant, spec):
    try:
        return plant(spec).table.tobytes()
    except RuntimeError:
        return "raised"


def test_plant_structure_checks_the_quotient_as_the_full_table_did():
    # n - dim <= 2 rejects about half the draws, so the retry loop runs too
    rng = np.random.default_rng(27)
    specs = [(n, dim, seed) for n in range(1, 9) for dim in range(n + 1) for seed in range(20)]
    specs += [(12, 1, 0), (13, 2, 1), (14, 3, 2), (15, 12, 3), (16, 2, 4), (16, 14, 5)]
    for n, dim, seed in specs:
        while True:
            basis = span_of(n, [int(v) for v in rng.integers(1, 1 << n, size=dim)])
            if basis.dim == dim:
                break
        spec = PlantSpec(n, basis, seed=seed)
        got = _planted_or_raised(plant_structure, spec)
        assert got == _planted_or_raised(plant_structure_def, spec), (n, dim, seed)


def test_plant_structure_reproducible():
    basis = span_of(6, [0b000011, 0b101000])
    a = plant_structure(PlantSpec(6, basis, seed=5))
    b = plant_structure(PlantSpec(6, basis, seed=5))
    assert a == b


def test_plant_r_type_flips_exactly_r():
    rng = np.random.default_rng(23)
    for trial in range(15):
        n = int(rng.integers(2, 8))
        f = random_table(n, rng)
        r = int(rng.integers(0, 1 << n))
        g = plant_r_type(f, r, seed=trial)
        assert int(np.count_nonzero(f.table != g.table)) == r
    with pytest.raises(ValueError):
        plant_r_type(random_table(3, rng), 9)


def test_plant_periods_span_is_exact():
    rng = np.random.default_rng(24)
    for trial in range(20):
        n = int(rng.integers(3, 9))
        dim = int(rng.integers(1, min(3, n - 1) + 1))
        while True:
            basis = span_of(n, [int(v) for v in rng.integers(1, 1 << n, size=dim)])
            if basis.dim == dim:
                break
        F = plant_periods(n, basis, seed=trial)
        assert F.m_out == n - 1
        got = brute_periods(F)
        assert got.basis.row_ints() == basis.basis.row_ints()
    with pytest.raises(ValueError):
        plant_periods(5, span_of(5, []), seed=0)
    # F has n - 1 output bits, so n = 1 leaves none; the message says so
    with pytest.raises(ValueError, match="n >= 2"):
        plant_periods(1, span_of(1, [1]), seed=0)


def test_plant_structure_agrees_with_oracle_module():
    basis = span_of(8, [0b00000101, 0b01100000])
    f = plant_structure(PlantSpec(8, basis, seed=77))
    sets = brute_structures(f)
    assert sets.u0.basis.row_ints() == basis.basis.row_ints()


def test_truth_table_text_round_trip():
    rng = np.random.default_rng(25)
    f = random_table(5, rng)
    assert parse_truth_table(format_truth_table(f)) == f
    with pytest.raises(ValueError):
        parse_truth_table("n=2\n011\n")
    with pytest.raises(ValueError):
        parse_truth_table("m=2\n0110\n")
    with pytest.raises(ValueError):
        parse_truth_table("n=2\n0120\n")


def test_multi_truth_table_text_round_trip():
    rng = np.random.default_rng(26)
    F = MultiTruthTable(3, 2, rng.integers(0, 4, size=8))
    again = parse_multi_truth_table(format_multi_truth_table(F))
    assert again == F
    with pytest.raises(ValueError):
        parse_multi_truth_table("n=2\n00\n01\n10\n")
    with pytest.raises(ValueError):
        parse_multi_truth_table("n=1\n00\n0x\n")


def test_bit_row_codec_matches_per_character_reference():
    rng = np.random.default_rng(28)
    for n in range(1, 7):
        f = random_table(n, rng)
        text = format_truth_table(f)
        assert text == f"n={n}\n" + bit_rows_def(f.table[None, :], 1)
        assert parse_truth_table(text) == f
        for m_out in sorted({1, 2, n, 63}):
            words = rng.integers(0, 1 << m_out, size=1 << n, dtype=np.int64)
            words[-1] |= 1 << (m_out - 1)
            F = MultiTruthTable(n, m_out, words)
            text = format_multi_truth_table(F)
            assert text == f"n={n}\n" + bit_rows_def(words[:, None], m_out)
            assert parse_multi_truth_table(text) == F
        alphas = np.arange(1 << n)[:, None]
        rows = format_bit_rows(alphas, n)
        assert rows.split() == [str(BitVector(n, int(a))) for a in alphas[:, 0]]
        assert np.array_equal(parse_bit_rows(rows.encode(), 1 << n), (alphas >> np.arange(n)) & 1)


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_truth_table, "n=2\n0/10\n"),
        (parse_truth_table, "n=2\n01\u00e90\n"),
        (parse_truth_table, "n=2\n01 10\n"),
        (parse_truth_table, "n=2\n0110\n0110\n"),
        (parse_truth_table, "n=x\n01\n"),
        (parse_multi_truth_table, "n=1\n0\u00e9\n11\n"),
        (parse_multi_truth_table, "n=1\n011\n1\n"),
        (parse_multi_truth_table, "n=1\n0 1\n"),
        (parse_multi_truth_table, "n=2\n00\n01\n10\n"),
        (parse_multi_truth_table, "n=1\n0\n1\n1\n0\n"),
        (parse_multi_truth_table, "n=1\n20\n11\n"),
        (parse_multi_truth_table, "n=1\n" + "0" * 64 + "\n" + "1" * 64 + "\n"),
        (parse_multi_truth_table, ""),
    ],
)
def test_table_text_rejects_malformed_input(parse, text):
    with pytest.raises(ValueError):
        parse(text)


def test_anf_text_round_trip():
    rng = np.random.default_rng(27)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        f = random_table(n, rng)
        a = anf_of(f)
        again = parse_anf(format_anf(a), n)
        assert again == a
    assert parse_anf("0").monomials == frozenset()
    assert parse_anf("1 + 1", 2).monomials == frozenset()
    assert parse_anf("x2*x1 + x3").n == 3
    with pytest.raises(ValueError):
        parse_anf("x1 * y2")
    with pytest.raises(ValueError):
        parse_anf("x1 + + x2")
    with pytest.raises(ValueError):
        parse_anf("x0 + x1")


def test_parse_anf_refuses_an_index_past_the_cap_before_shifting():
    # a shift by 99999999998 bits would build a 12 GB int before Anf saw it
    with pytest.raises(ValueError, match="dimension 99999999999 outside"):
        parse_anf("x1*x99999999999")
    with pytest.raises(ValueError, match="dimension 25 outside"):
        parse_anf("x1*x25")
    with pytest.raises(ValueError, match="x4 out of range 1..3"):
        parse_anf("x1*x4", 3)
    assert parse_anf("x24").monomials == {1 << 23}
