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
"""

from __future__ import annotations

import numpy as np


def fwht_inplace(a: np.ndarray) -> None:
    """Unnormalized Walsh-Hadamard transform along the last axis.

    Length of the last axis must be a power of two.  The transform is an
    involution up to the factor 2^n, which is what makes the exact
    integer inverse below possible.
    """
    size = a.shape[-1]
    h = 1
    while h < size:
        pairs = a.reshape(a.shape[:-1] + (size // (2 * h), 2, h))
        top = pairs[..., 0, :] + pairs[..., 1, :]
        pairs[..., 1, :] = pairs[..., 0, :] - pairs[..., 1, :]
        pairs[..., 0, :] = top
        h *= 2


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
