"""Exact Walsh-Hadamard machinery for XOR convolution counts.

``xor_pair_counts`` transforms in float64 for every n <= 26 and in int64
above, and both are exact.  The argument is one bound.  For a 0/1
indicator of length 2^n every value of the forward transform, final or
partial, is a signed sum of a subset of the indicator's entries, so it is
at most 2^n in absolute value.  The pointwise product of two spectra is
at most 4^n.  Every value of the inverse transform is a signed sum of a
subset of the spectrum products F_A(xi) F_B(xi), so by Cauchy-Schwarz and
Parseval (sum of F_A(xi)^2 = 2^n |A|) it is bounded by

    sum |F_A F_B| <= 2^n sqrt(|A| |B|) <= 4^n.

For n <= 26 that is at most 2^52, below 2^53, so float64 carries only
integers it represents exactly: every sum and product above is computed
without rounding, in whatever order and grouping BLAS chooses.  For
27 <= n <= 30 the bound 4^n <= 2^60 is inside signed 64-bit range, and
the transform runs in int64.  Either way the counts come out as exact
int64 integers: the final division by 2^n is exact and is asserted,
together with the sign of every count, so no threshold downstream is ever
decided in floating point.

Two kernels implement ``fwht_inplace``:

* float64 arrays are multiplied through the Kronecker factorization
  H_n = H_p1 (x) ... (x) H_pk of the Sylvester-Hadamard matrix, with
  factors of at most 2^6 rows.  Each factor is applied by BLAS matrix
  products over an (L, 2^p, R) view of the array; the partial sums of
  those at factor j are signed sums of distinct input entries (the
  other factors act on the other axes), so the bound above covers them.
  Arrays of at most 2^16 entries apply each factor as one ``np.matmul``
  over a batch of products of at most 2^18 multiply-adds each, the size
  up to which OpenBLAS runs a product on the calling thread alone, so a
  small transform never wakes BLAS threads, which the sweep's worker
  processes would oversubscribe.  Cutting a product into products over
  disjoint rows or columns leaves every output entry the same dot
  product of a row of H_p with a column of the view, so the partial
  sums are the same signed subset sums and the bound still covers them.
* Every other dtype (int64 for n >= 27, and int64 input from any caller)
  takes radix-4 passes: one pass applies the radix-2 stages at strides
  h and 2h to four lanes at once, with the intermediates the radix-2
  stage at h leaves, so they are signed sums of input entries too.  When
  n is odd one radix-2 stage is left at the end.

Both kernels walk the array block by block through one scratch buffer
of at most 512 KiB, so scratch memory does not grow with 2^n.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np

_CHUNK = 1 << 15  # elements per lane in one step of a radix-4 pass
_BLOCK = 1 << 16  # float64 entries of the matrix-product scratch buffer
_FACTOR_BITS = 6  # the Hadamard factors have at most 2^6 rows
_FLOAT_MAX_N = 26  # 4^n <= 2^52: float64 transforms of counts are exact
_PRODUCT = 1 << 18  # multiply-adds of one product OpenBLAS runs on one thread


def fwht_inplace(a: np.ndarray) -> None:
    """Unnormalized Walsh-Hadamard transform along the last axis.

    ``a`` must be C-contiguous, and the length of its last axis a power
    of two; leading axes are a batch.  The transform is an involution up
    to the factor 2^n, which is what makes the exact integer inverse
    below possible.  float64 arrays go through BLAS matrix products,
    exact while the row's entries are integers whose absolute values sum
    to less than 2^53; other dtypes go through integer radix-4 passes
    (module docstring).
    """
    size = a.shape[-1]
    if size & (size - 1):
        raise ValueError(f"transform length {size} is not a power of two")
    if not a.flags.c_contiguous:
        raise ValueError("the transform runs in place on a C-contiguous array")
    flat = a.reshape(-1)
    if a.dtype == np.float64:
        _kronecker(flat, size.bit_length() - 1)
        return
    # two lanes of a radix-4 step, or one of a radix-2 step
    scratch = np.empty(min(2 * _CHUNK, flat.size // 2), dtype=a.dtype)
    h = 1
    while 4 * h <= size:
        _pass(flat.reshape(-1, 4, h), scratch, _radix4)
        h *= 4
    if h < size:
        _pass(flat.reshape(-1, 2, h), scratch, _radix2)


def _work_dtype(n: int) -> type:
    """The dtype in which ``xor_pair_counts`` transforms at dimension n."""
    return np.float64 if n <= _FLOAT_MAX_N else np.int64


@lru_cache(maxsize=None)
def _hadamard(p: int) -> np.ndarray:
    """The 2^p x 2^p Sylvester-Hadamard matrix, entry (i, j) = (-1)^|i & j|."""
    h = np.ones((1, 1))
    for _ in range(p):
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


def _kronecker(flat: np.ndarray, n: int) -> None:
    """Transform every 2^n-entry row of the float64 vector ``flat`` by the
    factors of ``_factors(n)``."""
    if flat.size <= _BLOCK:
        # the array fits the scratch: the factors alternate between the
        # two, and only an odd number of factors needs a copy back
        src, dst = flat, np.empty_like(flat)
        for h, shape in _factors(n):
            _apply_small(h, src.reshape(shape), dst.reshape(shape))
            src, dst = dst, src
        if src is not flat:
            flat[...] = src
        return
    scratch = np.empty(_BLOCK)
    for h, shape in _factors(n):
        for block in _blocks(flat.reshape(shape)):
            out = scratch[: block.size].reshape(block.shape)
            _apply(h, block, out)
            block[...] = out


@lru_cache(maxsize=None)
def _factors(n: int) -> tuple:
    """(H_p, view shape) for each Kronecker factor of H_n, the last axis
    first: the rows are viewed as 2^p1 x ... x 2^pk arrays, with the p as
    equal as factors of at most 2^6 rows allow, and H_p acts on axis 1 of
    the view (L, 2^p) or (L, 2^p, R)."""
    k = -(-n // _FACTOR_BITS)
    factors = []
    inner = 1
    for j in range(k):
        p = n // k + (j < n % k)
        factors.append((_hadamard(p), (-1, 1 << p) if inner == 1 else (-1, 1 << p, inner)))
        inner <<= p
    return tuple(factors)


def _apply(h: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """H_p along axis 1 of x: out = x @ h for rows x (L, 2^p), one product
    in place of L matrix-vector products (h is symmetric), and
    out[l] = h @ x[l] for x (L, 2^p, R)."""
    if x.ndim == 2:
        np.matmul(x, h, out=out)
    else:
        np.matmul(h, x, out=out)


def _apply_small(h: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """``_apply`` as one batch of products of at most _PRODUCT
    multiply-adds each: runs of b rows of x (L, 2^p), or column ranges of
    width w of each x[l] (2^p, R).  b and w are powers of two that divide
    L and R, and the views keep a unit stride for BLAS."""
    rows = len(h)
    most = _PRODUCT // (rows * rows)
    if x.ndim == 2:
        b = gcd(len(x), most)  # L is 2^k times the leading batch size
        np.matmul(x.reshape(-1, b, rows), h, out=out.reshape(-1, b, rows))
    else:
        slabs, _, inner = x.shape
        w = min(inner, most)

        def columns(y):
            return y.reshape(slabs, rows, -1, w).transpose(0, 2, 1, 3)

        np.matmul(h, columns(x), out=columns(out))


def _blocks(x: np.ndarray):
    """Views of x (L, 2^p) or (L, 2^p, R) of at most _BLOCK entries that
    together cover it: runs of whole slabs x[l], or column ranges of one."""
    slab = x[0].size
    if slab <= _BLOCK:
        step = _BLOCK // slab
        for i in range(0, len(x), step):
            yield x[i : i + step]
    else:
        rows, inner = x.shape[1:]
        cols = _BLOCK // rows
        for i in range(len(x)):
            for j in range(0, inner, cols):
                yield x[i : i + 1, :, j : j + cols]


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
    length; ``ind_b=None`` means B = A (autocorrelation).  Leading axes,
    of the same shape in both, are a batch of rows.  Returns int64.
    """
    size = ind_a.shape[-1]
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValueError(f"indicator length {size} is not a power of two")
    dtype = _work_dtype(n)
    fa = ind_a.astype(dtype)
    fwht_inplace(fa)
    if ind_b is None:
        fa *= fa
    else:
        if ind_b.shape != ind_a.shape:
            raise ValueError("indicator shapes differ")
        fb = ind_b.astype(dtype)
        fwht_inplace(fb)
        fa *= fb
        del fb
    fwht_inplace(fa)  # the inverse, up to the factor 2^n
    return _scaled_counts(fa.reshape(-1), n).reshape(fa.shape)  # a batch in one pass


def _scaled_counts(f: np.ndarray, n: int) -> np.ndarray:
    """f / 2^n as int64, written over f's own buffer block by block.

    Each entry of ``f`` must be 2^n times a count: a multiple of 2^n, not
    negative.  One mask tests both, since a negative int64 has its sign
    bit set.
    """
    counts = f.view(np.int64)
    bad = -(1 << 63) | ((1 << n) - 1)
    for i in range(0, f.size, _BLOCK):
        part = f[i : i + _BLOCK].astype(np.int64)  # float64 entries are integers
        if np.count_nonzero(part & bad):
            raise AssertionError("inverse transform produced a non-count vector")
        np.right_shift(part, n, out=counts[i : i + _BLOCK])
    return counts
