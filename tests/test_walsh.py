"""Transform layer against O(4^n) definitional implementations."""

import numpy as np
import pytest

from simonstruct.boolfn import autocorr_values
from simonstruct.walsh import _factor_bits, mobius_transform, walsh_hadamard, xor_permute

from _oracles import butterfly_def, slow_mobius, slow_walsh


def every_table(n):
    """All 2**(2**n) 0/1 tables of n inputs, one per row."""
    size = 1 << n
    codes = np.arange(1 << size)[:, None]
    return ((codes >> np.arange(size)) & 1).astype(np.uint8)


def test_walsh_matches_definition():
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        values = rng.integers(-50, 50, size=1 << n)
        assert np.array_equal(walsh_hadamard(values), slow_walsh(values))


def test_walsh_exhaustive_small():
    # all sign patterns at n = 2, the smallest size where butterflies mix
    for bits in range(16):
        values = np.array([1 - 2 * ((bits >> i) & 1) for i in range(4)])
        assert np.array_equal(walsh_hadamard(values), slow_walsh(values))


def test_kernel_matches_butterfly_on_every_small_table():
    for n in range(1, 5):
        tables = every_table(n)
        signs = 1 - 2 * tables.astype(np.int64)
        got = walsh_hadamard(signs)
        assert got.dtype == np.int64 and got.shape == tables.shape
        assert np.array_equal(got, butterfly_def(signs))
        want = butterfly_def(butterfly_def(signs) ** 2) >> n
        assert np.array_equal(autocorr_values(tables), want)
        assert np.array_equal(autocorr_values(np.asfortranarray(tables)), want)


def test_kernel_matches_butterfly_on_random_tables():
    rng = np.random.default_rng(12)
    for n in range(0, 17):
        one = rng.integers(-1000, 1000, size=1 << n)
        assert np.array_equal(walsh_hadamard(one), butterfly_def(one))
        batch = rng.integers(-1000, 1000, size=(3, 1 << n))
        assert np.array_equal(walsh_hadamard(batch), butterfly_def(batch))
        bits = rng.integers(0, 2, size=(2, 1 << n), dtype=np.uint8)
        signs = 1 - 2 * bits.astype(np.int64)
        want = butterfly_def(butterfly_def(signs) ** 2) >> n
        assert np.array_equal(autocorr_values(bits), want)
        assert np.array_equal(autocorr_values(bits[0]), want[0])
    # n = 22 with entries up to 2**30: sum |x| near 2**52, close to the bound
    big = rng.integers(-(1 << 30), 1 << 30, size=1 << 22)
    assert np.array_equal(walsh_hadamard(big), butterfly_def(big))


def test_factor_split_is_balanced_and_covers_every_bit():
    assert _factor_bits(23) == (5, 5, 5, 4, 4)
    for n in range(1, 25):
        parts = _factor_bits(n)
        assert sum(parts) == n
        assert len(parts) == -(-n // 5)
        assert all(1 <= k <= 5 for k in parts)
        assert max(parts) - min(parts) <= 1
        if n >= 2:
            assert 1 not in parts


def test_walsh_refuses_rows_past_the_float64_exact_bound():
    top = 1 << 52
    with pytest.raises(ValueError):
        walsh_hadamard(np.array([top, top]))
    with pytest.raises(ValueError):
        walsh_hadamard(np.array([-top, 0, 0, top]))
    with pytest.raises(ValueError):
        walsh_hadamard(np.array([[1, 2], [top, -top]]))
    # one below the bound is still exact
    assert walsh_hadamard(np.array([top, top - 1])).tolist() == [2 * top - 1, 1]
    # one-bit autocorrelation sums 4**(n-1) (the +-1/2 signs): refused from
    # n = 28 on, before any buffer is made
    with pytest.raises(ValueError):
        autocorr_values(np.broadcast_to(np.uint8(0), 1 << 28))
    # the bound holds per row, not over the whole batch
    assert walsh_hadamard(np.array([[top, 1 - top], [-top, top - 1]])).tolist() == [
        [1, 2 * top - 1],
        [-1, 1 - 2 * top],
    ]


def test_walsh_involution_up_to_scale():
    rng = np.random.default_rng(7)
    for n in range(1, 11):
        values = rng.integers(-100, 100, size=1 << n)
        back = walsh_hadamard(walsh_hadamard(values))
        assert np.array_equal(back, values << n)


def test_walsh_input_not_modified():
    values = np.arange(8, dtype=np.int64)
    kept = values.copy()
    walsh_hadamard(values)
    assert np.array_equal(values, kept)


def test_walsh_rejects_bad_length():
    with pytest.raises(ValueError):
        walsh_hadamard(np.zeros(6, dtype=np.int64))
    with pytest.raises(ValueError):
        walsh_hadamard(np.zeros(0, dtype=np.int64))


def test_mobius_matches_definition():
    for seed in range(12):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 8))
        values = rng.integers(0, 2, size=1 << n, dtype=np.uint8)
        assert np.array_equal(mobius_transform(values), slow_mobius(values))


def test_mobius_matches_definition_on_every_small_table():
    for n in range(1, 4):
        tables = every_table(n)
        kept = tables.copy()
        got = mobius_transform(tables)
        assert got.dtype == np.uint8 and got.shape == tables.shape
        assert np.array_equal(tables, kept)
        for table, row in zip(tables, got):
            assert np.array_equal(row, slow_mobius(table))


def test_mobius_is_an_involution():
    rng = np.random.default_rng(8)
    for n in range(1, 10):
        values = rng.integers(0, 2, size=1 << n, dtype=np.uint8)
        assert np.array_equal(mobius_transform(mobius_transform(values)), values)


def test_mobius_batched_rows_match_loop():
    rng = np.random.default_rng(9)
    block = rng.integers(0, 2, size=(5, 32), dtype=np.uint8)
    batched = mobius_transform(block)
    for i in range(block.shape[0]):
        assert np.array_equal(batched[i], mobius_transform(block[i]))


def test_xor_permute_definition():
    rng = np.random.default_rng(10)
    for n in range(1, 8):
        table = rng.integers(0, 100, size=1 << n)
        for shift in (0, 1, (1 << n) - 1, int(rng.integers(0, 1 << n))):
            out = xor_permute(table, shift)
            for x in range(1 << n):
                assert out[x] == table[x ^ shift]


def test_xor_permute_rejects_bad_shift():
    table = np.zeros(8, dtype=np.uint8)
    with pytest.raises(ValueError):
        xor_permute(table, 8)
    with pytest.raises(ValueError):
        xor_permute(table, -1)


def test_xor_permute_last_axis_of_stack():
    rng = np.random.default_rng(11)
    block = rng.integers(0, 9, size=(3, 16))
    out = xor_permute(block, 5)
    for i in range(3):
        assert np.array_equal(out[i], xor_permute(block[i], 5))

