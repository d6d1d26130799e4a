"""Exact Walsh-Hadamard machinery for XOR convolution counts.

``xor_pair_counts`` is exact on every route, and the argument is one
bound.  For a 0/1 indicator of length 2^n every value of the forward
transform, final or partial, is a signed sum of a subset of the
indicator's entries, so it is at most 2^n in absolute value.  The
pointwise product of two spectra is at most 4^n.  Every value of the
inverse transform is a signed sum of a subset of the spectrum products
F_A(xi) F_B(xi), so by Cauchy-Schwarz and Parseval (sum of F_A(xi)^2 =
2^n |A|) it is bounded by

    sum |F_A F_B| <= 2^n sqrt(|A| |B|) <= 4^n.

The routes, by dimension:

* n <= 24: the forward transforms run in float32, which holds every
  integer up to 2^24 exactly, so every partial sum (at most 2^n) is
  computed without rounding.  The spectrum product is formed in
  float64, where each product of two factors of at most 2^24 is exact,
  and the inverse runs in float64.
* n <= 26: float64 throughout.  4^n <= 2^52 is below 2^53, so float64
  carries only integers it represents exactly, in whatever order and
  grouping BLAS sums.
* 27 <= n <= 30: int64 throughout; 4^n <= 2^60 is inside its range.

Either way the counts come out as exact int64 integers: the final
division by 2^n is exact and is asserted, together with the sign of
every count, so no threshold downstream is ever decided in floating
point.

No 2^n array beyond the inverse's own float64 buffer holds the spectrum
of A: on the float32 route it is written into the upper half of that
buffer's bytes, and the product is widened into the buffer in ascending
blocks of B entries.  The write of float64 block i ends at byte 8(i+B),
and the float32 data not yet read starts at byte 4*2^n + 4(i+B) >=
8(i+B), so no write reaches data that is still to be read; a block's
own input, where it overlaps the block's output, is read first.

Two kernels implement ``fwht_inplace``:

* float32 and float64 arrays are multiplied through the Kronecker
  factorization H_n = H_p1 (x) ... (x) H_pk of the Sylvester-Hadamard
  matrix, with factors of at most 2^6 rows.  Each factor is applied by
  BLAS matrix products over an (L, 2^p, R) view of the array; the
  partial sums of those at factor j are signed sums of distinct input
  entries (the other factors act on the other axes), so the bound above
  covers them.  Every product has at most 2^18 multiply-adds, the size
  up to which OpenBLAS runs a product on the calling thread alone, so
  BLAS never wakes threads of its own.  Cutting a product into products
  over disjoint rows or columns leaves every output entry the same dot
  product of a row of H_p with a column of the view, so the partial
  sums are the same signed subset sums and the bound still covers them.
  The factors act on disjoint index bits, so they commute, and they are
  grouped to cross memory at most twice.  An array of at most 2B =
  2^16 entries is transformed whole.  A longer one is cut into blocks of
  B = 2^15 entries, each transformed in cache: the low pass applies the factors
  of the low min(n, 15) index bits to each contiguous block, and for
  n > 15 the high pass applies those of the other n - 15 bits to column
  blocks, the 2^(n-15) x (B >> (n-15)) submatrices of a row viewed as
  2^(n-15) x B, each gathered into one half of a scratch buffer,
  transformed against the other half and written back.
* Every other dtype (int64 for n >= 27, and int64 input from any caller)
  takes radix-4 passes: one pass applies the radix-2 stages at strides
  h and 2h to four lanes at once, with the intermediates the radix-2
  stage at h leaves, so they are signed sums of input entries too.  When
  n is odd one radix-2 stage is left at the end.

Both kernels walk the array block by block through scratch buffers of
at most 512 KiB, so scratch memory does not grow with 2^n.

Threads.  The blocks of a pass of the matrix-product kernel and of the
final division by 2^n are independent.  Over more than one block they
are split into min(usable CPUs, blocks) runs of consecutive blocks, one
run per thread, the calling thread among them, each thread with a
scratch buffer of its own, and a pass ends when every run has.
The other threads are a pool made on the first such pass, with the
``concurrent.futures`` import it needs, so importing this module starts
no thread.  A forked child (the sweep's worker processes) drops its
copy of the pool, whose threads do not exist in it, and runs every pass
on its own thread: the workers already fill the CPUs.  The product's
blocks run on the calling thread alone, in ascending order, as the
layout above requires.
"""

from __future__ import annotations

import os
import threading
from functools import lru_cache, partial
from math import gcd

import numpy as np

_CHUNK = 1 << 15  # elements per lane in one step of a radix-4 pass
_SPAN = 15  # index bits one block of the matrix-product kernel spans
_BLOCK = 1 << _SPAN  # entries of one block of any pass
_FACTOR_BITS = 6  # the Hadamard factors have at most 2^6 rows
_F32_MAX_N = 24  # 2^n <= 2^24: float32 forward transforms of indicators are exact
_FLOAT_MAX_N = 26  # 4^n <= 2^52: float64 transforms of counts are exact
_PRODUCT = 1 << 18  # multiply-adds of one product OpenBLAS runs on one thread

_threads = 0  # threads of a blocked pass, the caller's included; 0 until first used
_pool = None  # the executor of the other _threads - 1, made on first use
_pool_lock = threading.Lock()


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _after_fork_in_child() -> None:
    global _threads, _pool, _pool_lock
    _threads, _pool, _pool_lock = 1, None, threading.Lock()


os.register_at_fork(after_in_child=_after_fork_in_child)


def fwht_inplace(a: np.ndarray) -> None:
    """Unnormalized Walsh-Hadamard transform along the last axis.

    ``a`` must be C-contiguous, and the length of its last axis a power
    of two; leading axes are a batch.  The transform is an involution up
    to the factor 2^n, which is what makes the exact integer inverse
    below possible.  float32 and float64 arrays go through BLAS matrix
    products, exact while the row's entries are integers whose absolute
    values sum to at most 2^24 and below 2^53 respectively; other dtypes
    go through integer radix-4 passes (module docstring).
    """
    size = a.shape[-1]
    if size & (size - 1):
        raise ValueError(f"transform length {size} is not a power of two")
    if not a.flags.c_contiguous:
        raise ValueError("the transform runs in place on a C-contiguous array")
    flat = a.reshape(-1)
    if a.dtype in (np.float32, np.float64):
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
    """The dtype of the inverse transform of ``xor_pair_counts`` at
    dimension n, and of its spectrum product."""
    return np.float64 if n <= _FLOAT_MAX_N else np.int64


def _forward_dtype(n: int) -> type:
    """The dtype of the forward transforms of ``xor_pair_counts``."""
    inverse = _work_dtype(n)
    return np.float32 if n <= _F32_MAX_N and inverse is np.float64 else inverse


@lru_cache(maxsize=None)
def _hadamard(p: int, dtype: type) -> np.ndarray:
    """The 2^p x 2^p Sylvester-Hadamard matrix, entry (i, j) = (-1)^|i & j|."""
    h = np.ones((1, 1), dtype=dtype)
    for _ in range(p):
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


def _kronecker(flat: np.ndarray, n: int) -> None:
    """Transform every 2^n-entry row of the float vector ``flat`` by
    Kronecker factors, in one pass over memory for the low min(n, _SPAN)
    bits of the index and one for the rest (module docstring)."""
    dtype = flat.dtype.type
    if flat.size <= 2 * _BLOCK:  # as much as one high-pass scratch holds
        _in_place(flat, np.empty_like(flat), _factors(n, dtype, 1))
        return
    low = min(n, _SPAN)
    _each(_cut(flat), partial(_low_blocks, _factors(low, dtype, 1)))
    if n > low:
        high = n - low
        cols = _BLOCK >> high
        x = flat.reshape(-1, 1 << high, _BLOCK)
        blocks = [x[r, :, j : j + cols] for r in range(len(x)) for j in range(0, _BLOCK, cols)]
        _each(blocks, partial(_high_blocks, _factors(high, dtype, cols)))


def _cut(flat: np.ndarray) -> list:
    """Consecutive blocks of _BLOCK entries that cover ``flat``."""
    return [flat[i : i + _BLOCK] for i in range(0, flat.size, _BLOCK)]


@lru_cache(maxsize=None)
def _factors(n: int, dtype: type, cols: int) -> tuple:
    """(H_p, view shape) for each Kronecker factor of H_n acting on axis 0
    of a (2^n, cols) array, or on the last axis if cols is 1, the
    fastest-varying index bits first.  The 2^n rows are viewed as 2^p1 x
    ... x 2^pk, with the p as equal as factors of at most 2^6 rows allow,
    and H_p acts on axis 1 of the view (L, 2^p) or (L, 2^p, R)."""
    k = -(-n // _FACTOR_BITS)
    factors = []
    inner = cols
    for j in range(k):
        p = n // k + (j < n % k)
        shape = (-1, 1 << p) if inner == 1 else (-1, 1 << p, inner)
        factors.append((_hadamard(p, dtype), shape))
        inner <<= p
    return tuple(factors)


def _apply(h: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """H_p along axis 1 of x, as one batch of products of at most
    _PRODUCT multiply-adds each: out = x @ h on runs of b rows of x
    (L, 2^p) (h is symmetric), out[l] = h @ x[l] on column ranges of
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


def _in_place(x: np.ndarray, spare: np.ndarray, factors: tuple) -> None:
    """Apply ``factors`` to the contiguous x, alternating between x and
    ``spare`` (of x's size): only an odd number of factors copies back."""
    src, dst = x, spare
    for h, shape in factors:
        _apply(h, src.reshape(shape), dst.reshape(shape))
        src, dst = dst, src
    if src is not x:
        x[...] = src


def _low_blocks(factors: tuple, blocks: list) -> None:
    """The low pass on each contiguous block, with a scratch of its own."""
    spare = np.empty(_BLOCK, dtype=blocks[0].dtype)
    for block in blocks:
        _in_place(block, spare[: block.size], factors)


def _high_blocks(factors: tuple, blocks: list) -> None:
    """The high pass on each (2^high, cols) column block: gathered into
    one half of a scratch of its own, transformed there against the other
    half, and written back."""
    scratch = np.empty(2 * _BLOCK, dtype=blocks[0].dtype)
    gathered, spare = scratch[:_BLOCK], scratch[_BLOCK:]
    for block in blocks:
        rows = gathered.reshape(block.shape)
        rows[...] = block
        _in_place(gathered, spare, factors)
        block[...] = rows


def _each(parts: list, work) -> None:
    """``work(run)`` for ``parts`` cut into min(_threads, len(parts)) runs
    of consecutive parts, each run on its own thread, the first on the
    calling one; returns once every run is done."""
    global _threads, _pool
    with _pool_lock:
        if not _threads:
            _threads = usable_cpus()
        k = min(_threads, len(parts))
        if k > 1 and _pool is None:
            # imported here, so that importing the package starts no thread machinery
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_threads - 1, thread_name_prefix="popdiff-walsh")
    runs = [parts[i * len(parts) // k : (i + 1) * len(parts) // k] for i in range(k)]
    futures = [_pool.submit(work, run) for run in runs[1:]]
    try:
        work(runs[0])
    finally:
        errors = [future.exception() for future in futures]  # waits for every run
    for error in errors:
        if error is not None:
            raise error


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
    if ind_b is not None and ind_b.shape != ind_a.shape:
        raise ValueError("indicator shapes differ")
    forward = _forward_dtype(n)
    f = np.empty(ind_a.shape, dtype=_work_dtype(n))
    # on the float32 route A's spectrum lies in the upper half of f's bytes
    fa = f if f.dtype == forward else f.reshape(-1).view(forward)[f.size :].reshape(f.shape)
    fa[...] = ind_a
    fwht_inplace(fa)
    fb = None
    if ind_b is not None:
        fb = ind_b.astype(forward)
        fwht_inplace(fb)
    _product(f.reshape(-1), fa.reshape(-1), None if fb is None else fb.reshape(-1))
    del fa, fb
    fwht_inplace(f)  # the inverse, up to the factor 2^n
    return _scaled_counts(f.reshape(-1), n).reshape(f.shape)  # a batch in one pass


def _product(out: np.ndarray, fa: np.ndarray, fb: np.ndarray | None) -> None:
    """out = fa * fb (fa * fa if fb is None), widened to out's dtype and
    multiplied there, in ascending blocks on the calling thread, so that
    ``fa`` may lie in the upper half of out's bytes (module docstring);
    numpy reads a block's input before writing its output where the two
    overlap."""
    for i in range(0, out.size, _BLOCK):
        block = out[i : i + _BLOCK]
        np.copyto(block, fa[i : i + _BLOCK])
        np.multiply(block, block if fb is None else fb[i : i + _BLOCK], out=block)


def _scaled_counts(f: np.ndarray, n: int) -> np.ndarray:
    """f / 2^n as int64, written over f's own buffer block by block.

    Each entry of ``f`` must be 2^n times a count: a multiple of 2^n, not
    negative.  One mask tests both, since a negative int64 has its sign
    bit set, and it tests a block at once on the OR of its entries.
    """
    counts = f.view(np.int64)
    _each(list(zip(_cut(f), _cut(counts))), partial(_scale_blocks, n))
    return counts


def _scale_blocks(n: int, blocks: list) -> None:
    """``_scaled_counts`` on each (float block, int64 view of it) of
    ``blocks``, through one scratch buffer."""
    bad = -(1 << 63) | ((1 << n) - 1)
    scratch = np.empty(_BLOCK, dtype=np.int64)
    for block, counts in blocks:
        part = scratch[: block.size]
        np.copyto(part, block, casting="unsafe")  # float64 entries are integers
        if int(np.bitwise_or.reduce(part)) & bad:
            raise AssertionError("inverse transform produced a non-count vector")
        np.right_shift(part, n, out=counts)
