"""Exact Walsh-Hadamard machinery for XOR convolution counts.

All arithmetic is integer-exact in int64 for every n <= 30.  For a 0/1
indicator of length 2^n the forward transform keeps every intermediate
within |v| <= 2^n and the pointwise product of two spectra within 4^n.
Every intermediate of the inverse pass is a signed sum of a subset of the
spectrum entries F_A(xi) F_B(xi), so by Cauchy-Schwarz and Parseval
(sum of F_A(xi)^2 = 2^n |A|) it is bounded by

    sum |F_A F_B| <= 2^n sqrt(|A| |B|) <= 4^n <= 2^60,

well inside signed 64-bit range.  The final division by 2^n is exact and
is asserted, together with the sign of every count.

The transform runs as radix-4 passes: one pass applies the radix-2
stages at strides h and 2h to four lanes at once, so the array is walked
half as often.  Each radix-4 output is the same signed sum of inputs as
after the two radix-2 stages, and its intermediates are exactly the
values the radix-2 stage at h leaves, so every intermediate is still a
signed sum of entries of the input (of the spectrum, in the inverse) and
the bound above holds unchanged, <= 4^n <= 2^60.  When n is odd one
radix-2 stage is left at the end.  Each pass walks the array in chunks of
at most 2^15 elements per lane, over the groups of lanes when h is small
and along h when h is large, so the two scratch vectors stay in cache
and scratch memory is bounded by the chunk, not by 2^n.

Arrays of at most 2^10 entries skip the passes: the transform of each
row is H_p X H_q for the row viewed as a 2^p x 2^q matrix X (p + q = n,
H the Sylvester-Hadamard matrices), two small integer matrix products
whose per-call cost is a fraction of the passes' at this size.  Every
partial sum of either product is a signed sum of distinct input
entries, so the same bound holds for it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_CHUNK = 1 << 15  # elements per lane in one step of a pass
_MATMUL_MAX = 1 << 10  # largest array transformed by two matrix products


def fwht_inplace(a: np.ndarray) -> None:
    """Unnormalized Walsh-Hadamard transform along the last axis.

    ``a`` must be C-contiguous, and the length of its last axis a power
    of two; leading axes are a batch.  The transform is an involution up
    to the factor 2^n, which is what makes the exact integer inverse
    below possible.
    """
    size = a.shape[-1]
    if size & (size - 1):
        raise ValueError(f"transform length {size} is not a power of two")
    if not a.flags.c_contiguous:
        raise ValueError("the transform runs in place on a C-contiguous array")
    if a.size <= _MATMUL_MAX:
        n = size.bit_length() - 1
        x = a.reshape(-1, 1 << n // 2, 1 << (n - n // 2))
        np.matmul(_hadamard(n // 2) @ x, _hadamard(n - n // 2), out=x)
        return
    flat = a.reshape(-1)
    # two lanes of a radix-4 step, or one of a radix-2 step
    scratch = np.empty(min(2 * _CHUNK, flat.size // 2), dtype=a.dtype)
    h = 1
    while 4 * h <= size:
        _pass(flat.reshape(-1, 4, h), scratch, _radix4)
        h *= 4
    if h < size:
        _pass(flat.reshape(-1, 2, h), scratch, _radix2)


@lru_cache(maxsize=None)
def _hadamard(p: int) -> np.ndarray:
    """The 2^p x 2^p Sylvester-Hadamard matrix, entry (i, j) = (-1)^|i & j|."""
    h = np.ones((1, 1), dtype=np.int64)
    for _ in range(p):
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


def _pass(groups: np.ndarray, scratch: np.ndarray, butterfly) -> None:
    """Apply ``butterfly`` to ``groups`` (rows, lanes, h) chunk by chunk:
    whole rows when h is below the chunk, pieces of one row otherwise.
    Over 1024 rows shorter than 16 are taken one column at a time:
    numpy loops slowly over many short rows and fast along one column."""
    rows, lanes, h = groups.shape
    row_step = max(1, _CHUNK // h)
    col_step = 1 if h < 16 and rows > 1024 else min(h, _CHUNK)
    for r in range(0, rows, row_step):
        for j in range(0, h, col_step):
            block = groups[r : r + row_step, :, j : j + col_step]
            shape = (block.shape[0], block.shape[2])
            cells = shape[0] * shape[1]
            temps = [scratch[i * cells : (i + 1) * cells].reshape(shape) for i in range(lanes // 2)]
            butterfly(block, *temps)


def _radix2(block: np.ndarray, t: np.ndarray) -> None:
    x0, x1 = block[:, 0], block[:, 1]
    np.subtract(x0, x1, out=t)
    x0 += x1
    np.copyto(x1, t)


def _radix4(block: np.ndarray, t: np.ndarray, u: np.ndarray) -> None:
    # stage h pairs lanes (0, 1) and (2, 3), stage 2h pairs (0, 2) and (1, 3)
    x0, x1, x2, x3 = block[:, 0], block[:, 1], block[:, 2], block[:, 3]
    np.add(x0, x1, out=t)
    np.subtract(x0, x1, out=u)
    np.add(x2, x3, out=x0)
    np.subtract(x2, x3, out=x1)
    # now t, u, x0, x1 hold the four lanes after stage h
    np.subtract(t, x0, out=x2)
    x0 += t
    np.subtract(u, x1, out=x3)
    x1 += u


def xor_pair_counts(ind_a: np.ndarray, ind_b: np.ndarray | None = None) -> np.ndarray:
    """Exact pair counts N(x) = #{(a, b) in A x B : a XOR b = x}.

    ``ind_a`` and ``ind_b`` are 0/1 indicator vectors of equal power-of-two
    length; ``ind_b=None`` means B = A (autocorrelation).  Returns int64.
    """
    size = len(ind_a)
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValueError(f"indicator length {size} is not a power of two")
    fa = ind_a.astype(np.int64)
    fwht_inplace(fa)
    if ind_b is None:
        fa *= fa
    else:
        if len(ind_b) != size:
            raise ValueError("indicator lengths differ")
        fb = ind_b.astype(np.int64)
        fwht_inplace(fb)
        fa *= fb
        del fb
    fwht_inplace(fa)  # the inverse, up to the factor 2^n
    if (fa & (size - 1)).any() or (fa < 0).any():
        raise AssertionError("inverse transform produced a non-count vector")
    return fa >> n
