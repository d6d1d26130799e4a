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
* 27 <= n <= 30: the forward transforms run in float64, exact since
  2^n <= 2^30; the spectra are converted to int64 and multiplied there,
  and the inverse runs in int64, where 4^n <= 2^60 is inside the range.

Either way every value the inverse leaves is 2^n times an exact count.
The last pass converts it to int64 and asserts that it is a multiple
of 2^n and not negative before it divides or compares, so no count and
no threshold is ever decided in floating point.

The four passes.  Each transform crosses memory twice (below), and
every other step of ``xor_pair_counts`` and ``xor_pairs_above`` rides
in one of those passes, on a block that is already in cache:

1. forward, low pass: each block of the 0/1 indicator is converted
   into its block of the forward buffer, then transformed;
2. forward, high pass: the column blocks of the forward transform;
3. inverse, low pass: each block of the inverse buffer is loaded with
   the product of its spectrum blocks (A's squared, or A's times B's),
   both factors converted to the inverse dtype and multiplied there (an
   int64 multiply, since float64 would round products above 2^53), then
   transformed;
4. inverse, high pass: each column block, once transformed, is
   converted to int64 in scratch, checked, and then either shifted
   right by n into the int64 counts, which lie in the inverse buffer's
   own bytes, or compared with 2^n thr for the integer threshold thr
   into a fresh vector of bool bytes; then the buffer is never written
   back.

Where the low pass is the only one (n <= 15, or an array of at most
2^16 entries), it does the work of passes 3 and 4 on each block.

No 2^n array beyond the inverse's own buffer holds the spectrum of A:
it lies in that buffer's bytes, on the float32 route in their upper
half, so pass 3 overwrites spectrum data as it goes.  With N entries in
M blocks of B, the last one short where B does not divide N (a batch of
rows of fewer than B entries), the 8-byte output block b covers bytes
[8bB, 8(b+1)B), and the float32 spectrum entry k lies at byte 4N + 4k,
so block b overwrites spectrum entries from 2bB - N to 2(b+1)B - N: at
most the spectrum blocks 2b - M to 2b - M + 2, and none beyond M - 1.
So the blocks run in halving phases, [0, (M - 1)/2), then about half of
the rest, and so on, the phase that starts at block s ending at e =
max(floor((M + s - 1)/2), s + 1).  Where e is the first of the two, a
block b < e of the phase overwrites spectrum blocks up to 2b - M + 2 <=
2e - M <= s - 1, all read by earlier phases.  Otherwise s >= M - 2, and
the phase's one block s overwrites spectrum blocks up to min(2s - M + 2,
M - 1) = s, read by earlier phases or its own, which numpy reads before
it writes.  So the blocks of one phase are independent and run in
parallel, in any order.  On the float64 and int64 routes each block's
spectrum lies at the block's own indices, and one phase holds every
block.

``fwht_inplace`` has one driver, the Kronecker factorization H_n = H_p1
(x) ... (x) H_pk of the Sylvester-Hadamard matrix, and two ways to apply
a factor:

* float arrays take factors of at most 2^6 rows, each applied by BLAS
  matrix products over an (L, 2^p, R) view of the array.  Every product
  has at most 2^18 multiply-adds, the size up to which OpenBLAS runs a
  product on the calling thread alone, so BLAS never wakes threads of
  its own.  Cutting a product into products over disjoint rows or
  columns leaves every output entry the same dot product of a row of
  H_p with a column of the view.
* integer arrays (the int64 inverse for n >= 27, and integer input from
  any caller) take factors of one bit, each a radix-2 butterfly on an
  (L, 2, R) view: the sum and the difference of its two halves, written
  out of place.

Either way the partial sums at factor j are signed sums of distinct
input entries (the other factors act on the other axes), so the bound
above covers them.  The factors act on disjoint index bits, so they
commute, and they are grouped to cross memory at most twice.  An array
of at most 2B = 2^16 entries is transformed whole.  A longer one is cut
into blocks of B = 2^15 entries, each transformed in cache: the low pass
applies the factors of the low min(n, 15) index bits to each contiguous
block, and for n > 15 the high pass applies those of the other n - 15
bits to column blocks, the 2^(n-15) x (B >> (n-15)) submatrices of a
row viewed as 2^(n-15) x B, each gathered into one half of a scratch
buffer and transformed against the other half, which then holds the
int64 values of pass 4.  Scratch buffers are at most 512 KiB, so
scratch memory does not grow with 2^n.

Threads.  The blocks of a pass (of a phase, in pass 3 on the float32
route) are independent.  Over more than one block they are split into
min(usable CPUs, blocks) runs of consecutive blocks, one run per
thread, the calling thread among them, each thread with a scratch
buffer of its own, and a pass ends when every run has.  The other
threads are a pool made on the first such pass, with the
``concurrent.futures`` import it needs, so importing this module starts
no thread.  A forked child (the sweep's worker processes) drops its
copy of the pool, whose threads do not exist in it, and runs every pass
on its own thread: the workers already fill the CPUs.
"""

from __future__ import annotations

import os
import threading
from functools import lru_cache, partial
from math import gcd

import numpy as np

_SPAN = 15  # index bits one block of the transform spans
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
    below possible.  Every dtype goes through the same blocked, threaded
    driver: float arrays by BLAS matrix products, exact while the row's
    entries are integers whose absolute values sum to at most 2^24 in
    float32 and below 2^53 in float64; integer arrays by radix-2
    butterflies, exact while no sum leaves the dtype's range (module
    docstring).
    """
    size = a.shape[-1]
    if size & (size - 1):
        raise ValueError(f"transform length {size} is not a power of two")
    if not a.flags.c_contiguous:
        raise ValueError("the transform runs in place on a C-contiguous array")
    _kronecker(a.reshape(-1), size.bit_length() - 1)


def _work_dtype(n: int) -> type:
    """The dtype of the inverse transform of ``xor_pair_counts`` at
    dimension n, and of its spectrum product."""
    return np.float64 if n <= _FLOAT_MAX_N else np.int64


def _forward_dtype(n: int) -> type:
    """The dtype of the forward transforms of ``xor_pair_counts``."""
    return np.float32 if n <= _F32_MAX_N else np.float64


@lru_cache(maxsize=None)
def _hadamard(p: int, dtype: type) -> np.ndarray:
    """The 2^p x 2^p Sylvester-Hadamard matrix, entry (i, j) = (-1)^|i & j|."""
    h = np.ones((1, 1), dtype=dtype)
    for _ in range(p):
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


def _kronecker(
    flat: np.ndarray,
    n: int,
    load: tuple = (),
    out: np.ndarray | None = None,
    above: int | None = None,
    phased: bool = False,
) -> None:
    """Transform every 2^n-entry row of the vector ``flat`` by Kronecker
    factors, in one pass over memory for the low min(n, _SPAN) bits of
    the index and one for the rest (module docstring).

    ``load`` holds vectors of flat's size: the low pass fills each block
    with the product of their blocks, or with the one vector's block
    (``_load``), before transforming it.  With ``out`` the last pass
    writes each part there (``_finish``), as counts or, with ``above``,
    as whether they exceed it, and not back into ``flat``.  ``phased``
    runs the low pass in the halving phases that the spectrum in the
    upper half of flat's bytes requires (module docstring).
    """
    if not flat.size:
        return
    dtype = flat.dtype.type
    whole = flat.size <= 2 * _BLOCK  # as much as one high-pass scratch holds
    low = n if whole else min(n, _SPAN)
    step = flat.size if whole else _BLOCK
    starts = list(range(0, flat.size, step))
    finish = partial(_finish, n, above)
    work = partial(_low_blocks, flat, step, _factors(low, dtype, 1), load,
                   out if low == n else None, finish)
    for phase in _phases(len(starts)) if phased else [slice(None)]:
        _each(starts[phase], work)
    if low < n:
        high = n - low
        cols = _BLOCK >> high
        shape = (-1, 1 << high, _BLOCK)
        keys = [(r, slice(None), slice(j, j + cols))
                for r in range(flat.size >> n) for j in range(0, _BLOCK, cols)]
        _each(keys, partial(_high_blocks, flat.reshape(shape), _factors(high, dtype, cols),
                            None if out is None else out.reshape(shape), finish))


def _phases(blocks: int) -> list:
    """Slices of the low pass's blocks, in the halving phases [0, (M -
    1)/2), ... of M blocks (module docstring)."""
    phases, s = [], 0
    while s < blocks:
        e = max((blocks + s - 1) // 2, s + 1)
        phases.append(slice(s, e))
        s = e
    return phases


@lru_cache(maxsize=None)
def _factors(n: int, dtype: type, cols: int) -> tuple:
    """(H_p, view shape) for each Kronecker factor of H_n acting on axis 0
    of a (2^n, cols) array, or on the last axis if cols is 1, the
    fastest-varying index bits first.  The 2^n rows are viewed as 2^p1 x
    ... x 2^pk, with the p as equal as factors of at most 2^6 rows allow,
    and H_p acts on axis 1 of the view (L, 2^p) or (L, 2^p, R).  An
    integer dtype gets factors of one bit, with None for H_1: a radix-2
    butterfly, not a matrix product."""
    integer = np.issubdtype(dtype, np.integer)
    k = n if integer else -(-n // _FACTOR_BITS)
    factors = []
    inner = cols
    for j in range(k):
        p = n // k + (j < n % k)
        shape = (-1, 1 << p) if inner == 1 else (-1, 1 << p, inner)
        factors.append((None if integer else _hadamard(p, dtype), shape))
        inner <<= p
    return tuple(factors)


def _apply(h: np.ndarray | None, x: np.ndarray, out: np.ndarray) -> None:
    """H_p along axis 1 of x, as one batch of products of at most
    _PRODUCT multiply-adds each: out = x @ h on runs of b rows of x
    (L, 2^p) (h is symmetric), out[l] = h @ x[l] on column ranges of
    width w of each x[l] (2^p, R).  b and w are powers of two that divide
    L and R, and the views keep a unit stride for BLAS.  h None is H_1
    on integers, applied as sum and difference of the two halves."""
    if h is None:
        np.add(x[:, 0], x[:, 1], out=out[:, 0])
        np.subtract(x[:, 0], x[:, 1], out=out[:, 1])
        return
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


def _transform(x: np.ndarray, spare: np.ndarray, factors: tuple) -> np.ndarray:
    """Apply ``factors`` to the contiguous x, alternating between x and
    ``spare`` (of x's size); returns the one of the two that holds the
    result."""
    src, dst = x, spare
    for h, shape in factors:
        _apply(h, src.reshape(shape), dst.reshape(shape))
        src, dst = dst, src
    return src


def _load(x: np.ndarray, blocks: list) -> None:
    """x = the product of ``blocks`` (one block: its entries; a second
    block None: the first one's square), each factor converted to x's
    dtype and multiplied there.  The spectra hold integers, so the
    conversion is exact, and an int64 x multiplies in int64: a float64
    multiply would round products above 2^53.  Where the first block
    overlaps x, numpy reads it before writing x."""
    np.copyto(x, blocks[0], casting="unsafe")
    if len(blocks) > 1:
        other = x if blocks[1] is None else blocks[1]
        np.multiply(x, other, out=x, dtype=x.dtype, casting="unsafe")


def _finish(n: int, above: int | None, values: np.ndarray, scratch: np.ndarray,
            dst: np.ndarray) -> None:
    """Write ``values``, each 2^n times a count, to ``dst``: the counts
    into an int64 dst, or whether each count exceeds ``above`` into a
    bool dst, decided as value > 2^n above on the int64 values.  They are
    converted to int64 in the bytes of ``scratch``, of 8-byte entries,
    which may be dst's own.

    Each value must be a multiple of 2^n, not negative.  One mask tests
    both, since a negative int64 has its sign bit set, and it tests the
    values at once on the OR of their entries.
    """
    part = scratch.view(np.int64)[: values.size].reshape(values.shape)
    np.copyto(part, values, casting="unsafe")  # float64 entries are integers
    if int(np.bitwise_or.reduce(part, axis=None)) & (-(1 << 63) | ((1 << n) - 1)):
        raise AssertionError("inverse transform produced a non-count vector")
    if above is None:
        np.right_shift(part, n, out=dst)
    else:
        np.greater(part, above << n, out=dst)


def _low_blocks(flat: np.ndarray, step: int, factors: tuple, load: tuple,
                out: np.ndarray | None, finish, starts: list) -> None:
    """The low pass on the blocks of ``step`` entries of ``flat`` that
    begin at ``starts``, each loaded, transformed against a scratch of
    its own, and written back or, with ``out``, finished there
    (``_kronecker``)."""
    spare = np.empty(step, dtype=flat.dtype)
    for i in starts:
        x = flat[i : i + step]
        s = spare[: x.size]
        if load:
            _load(x, [None if v is None else v[i : i + step] for v in load])
        y = _transform(x, s, factors)
        if out is not None:
            finish(y, x if y is s else s, out[i : i + step])
        elif y is not x:
            x[...] = y


def _high_blocks(x: np.ndarray, factors: tuple, out: np.ndarray | None, finish,
                 keys: list) -> None:
    """The high pass on each (2^high, cols) column block x[key]: gathered
    into one half of a scratch of its own, transformed there against the
    other half, and written back or, with ``out``, finished into
    out[key] (``_kronecker``)."""
    scratch = np.empty(2 * _BLOCK, dtype=x.dtype)
    gathered, spare = scratch[:_BLOCK], scratch[_BLOCK:]
    for key in keys:
        block = x[key]
        gathered.reshape(block.shape)[...] = block
        y = _transform(gathered, spare, factors)
        rows = y.reshape(block.shape)
        if out is not None:
            finish(rows, spare if y is gathered else gathered, out[key])
        else:
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


def xor_pair_counts(ind_a: np.ndarray, ind_b: np.ndarray | None = None) -> np.ndarray:
    """Exact pair counts N(x) = #{(a, b) in A x B : a XOR b = x}.

    ``ind_a`` and ``ind_b`` are 0/1 indicator vectors of equal power-of-two
    length; ``ind_b=None`` means B = A (autocorrelation).  Leading axes,
    of the same shape in both, are a batch of rows.  Returns int64.
    """
    return _pairs(ind_a, ind_b, None)


def xor_pairs_above(ind_a: np.ndarray, threshold: int) -> np.ndarray:
    """N(x) > threshold for the integer ``threshold`` and the pair counts
    N of ``xor_pair_counts(ind_a)``, as a bool array of the same shape.
    Each comparison is made on the exact int64 count, block by block in
    the inverse's last pass; no count vector is built."""
    return _pairs(ind_a, None, threshold)


def _pairs(ind_a: np.ndarray, ind_b: np.ndarray | None, threshold: int | None) -> np.ndarray:
    """The four passes (module docstring): the int64 counts, or with
    ``threshold`` the bool vector of counts above it."""
    size = ind_a.shape[-1]
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValueError(f"indicator length {size} is not a power of two")
    if ind_b is not None and ind_b.shape != ind_a.shape:
        raise ValueError("indicator shapes differ")
    forward = _forward_dtype(n)
    f = np.empty(ind_a.size, dtype=_work_dtype(n))
    # A's spectrum lies in f's bytes, on the float32 route in their upper half
    fa = f.view(forward)[-f.size :]
    _kronecker(fa, n, load=(ind_a.reshape(-1),))
    fb = None
    if ind_b is not None:
        fb = np.empty(f.size, dtype=forward)
        _kronecker(fb, n, load=(ind_b.reshape(-1),))
    if threshold is None:
        out, above = f.view(np.int64), None
    else:
        # every count lies in [0, 2^n], so the clamp decides each one alike
        out, above = np.empty(f.size, dtype=np.bool_), max(-1, min(int(threshold), size))
    _kronecker(f, n, load=(fa, fb), out=out, above=above, phased=fa.itemsize < f.itemsize)
    return out.reshape(ind_a.shape)
