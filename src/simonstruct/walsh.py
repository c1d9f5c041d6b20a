"""Walsh-Hadamard and Moebius transforms along the last axis of 2**n tables.

Both are Kronecker powers of a 2x2 block, applied as ceil(n/5) factors of at
most 5 bits, each one float64 matrix product over the table into the other
of two buffers.  Block entries are in {-1, 0, 1}, so every partial sum, in
whatever order BLAS adds, is an integer of size at most sum |x| over the
row: the result is exact below 2**53.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["factored", "mobius_transform"]

EXACT_FLOAT_BOUND = 1 << 53
HADAMARD = ((1.0, 1.0), (1.0, -1.0))
_ZETA = ((1.0, 0.0), (1.0, 1.0))


def _factor_bits(n: int) -> tuple[int, ...]:
    """n as ceil(n/5) parts of at most 5 bits that differ by at most 1 (23 ->
    5,5,5,4,4): a 1-bit part, a (2 x 2) by (2 x 2**(n-1)) product, stalls BLAS."""
    count = -(-n // 5)
    return tuple(n // count + (i < n % count) for i in range(count))


@functools.cache
def _block(base: tuple, k: int) -> np.ndarray:
    out = functools.reduce(np.kron, [np.array(base)] * k, np.ones((1, 1)))
    out.flags.writeable = False
    return out


def factored(src: np.ndarray, spare: np.ndarray, base: tuple = HADAMARD):
    """Apply base^(x n) to float64 rows of 2**n; the caller bounds the sums.

    A k-bit factor reads the low k index bits and writes them as the high
    ones, so after n bits the order is the input's.  Returns (result, free
    buffer): `src` and `spare` in some order.
    """
    *lead, size = src.shape
    if size < 1 or size & (size - 1):
        raise ValueError(f"table length {size} is not a power of two")
    for k in _factor_bits(size.bit_length() - 1):
        rows = src.reshape(*lead, size >> k, 1 << k).swapaxes(-1, -2)
        np.matmul(_block(base, k), rows, out=spare.reshape(*lead, 1 << k, size >> k))
        src, spare = spare, src
    return src, spare


def mobius_transform(values: np.ndarray) -> np.ndarray:
    """Binary Moebius transform of 0/1 tables along the last axis, as uint8.

    Maps a truth table to its algebraic-normal-form coefficient table and
    back (an involution).  Entry m counts the ones at subsets of m, at most
    2**n, so reducing mod 2 once at the end is exact.  Input is unmodified.
    """
    src = np.asarray(values, dtype=np.uint8).astype(np.float64)
    return (factored(src, np.empty_like(src), _ZETA)[0] % 2).astype(np.uint8)
