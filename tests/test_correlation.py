"""Autocorrelation (fast vs naive) and popular difference sets."""

import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from popdiff import correlation, walsh
from popdiff.correlation import (
    Autocorrelation,
    autocorrelation,
    dc_threshold_report,
    naive_autocorrelation,
    popular_difference_set,
)
from popdiff.f2n import (
    DenseSet,
    full_set,
    linear_subspace,
    make_set,
    random_set,
    sumset,
)
from popdiff.rng import SplitMix64

from conftest import brute_counts, limb_xor_pair_counts, reference_fwht, set_from_mask


def test_counts_small_example():
    # {0,1} in n=2: ordered pairs 00,01,10,11 sum to 0,1,1,0
    a = make_set(2, [0, 1])
    assert list(autocorrelation(a).counts) == [2, 2, 0, 0]
    assert list(naive_autocorrelation(a).counts) == [2, 2, 0, 0]
    assert list(brute_counts(a)) == [2, 2, 0, 0]


def test_counts_structured_cases():
    g = full_set(3)
    assert (autocorrelation(g).counts == 8).all()

    v = linear_subspace(4, [1, 2])
    counts = autocorrelation(v).counts
    for x in range(16):
        assert counts[x] == (v.card if x in v else 0)

    assert (autocorrelation(DenseSet(3)).counts == 0).all()

    single = make_set(3, [5])
    counts = autocorrelation(single).counts
    assert counts[0] == 1 and counts.sum() == 1


def test_fast_equals_naive_exhaustive_n3():
    for mask in range(1 << 8):
        a = set_from_mask(3, mask)
        fast = autocorrelation(a).counts
        assert np.array_equal(fast, naive_autocorrelation(a).counts)
        assert np.array_equal(fast, brute_counts(a))


def test_naive_oracle_is_the_double_loop(monkeypatch):
    # the blocked oracle against the definitional loop over pairs of members
    for n in range(1, 4):
        for mask in range(1 << (1 << n)):
            a = set_from_mask(n, mask)
            assert np.array_equal(naive_autocorrelation(a).counts, brute_counts(a)), (n, mask)
    # blocks of 100 lookups, so that these sets take several blocks of x
    # with a shorter last one
    monkeypatch.setattr(correlation, "_NAIVE_BLOCK", 100)
    rng = SplitMix64(56)
    for n in (5, 6):
        for _ in range(30):
            a = random_set(n, rng.below((1 << n) + 1), rng)
            assert np.array_equal(naive_autocorrelation(a).counts, brute_counts(a))


def test_count_invariants_exhaustive_n4():
    for mask in range(1 << 16):
        a = set_from_mask(4, mask)
        ac = autocorrelation(a)
        assert ac.card == a.card
        assert int(ac.counts.sum()) == a.card**2
        assert int(ac.counts.max()) <= a.card


@pytest.mark.parametrize("n", range(5, 13))
def test_fast_equals_naive_random(n):
    rng = SplitMix64(1000 + n)
    for _ in range(20):
        a = random_set(n, rng.below((1 << n) + 1), rng)
        assert np.array_equal(autocorrelation(a).counts, naive_autocorrelation(a).counts)


def test_count_invariants_random():
    rng = SplitMix64(77)
    for n in (4, 8, 12, 16, 20):
        a = random_set(n, rng.below((1 << n) + 1), rng)
        ac = autocorrelation(a)
        assert ac.card == a.card  # diagonal pairs
        assert int(ac.counts.sum()) == a.card**2
        assert int(ac.counts.max(initial=0)) <= a.card
        assert (ac.counts >= 0).all()


def test_translation_invariance():
    rng = SplitMix64(88)
    a = random_set(6, 25, rng)
    base = autocorrelation(a).counts
    for t in (1, 17, 63):
        moved = a.translate(t)
        assert np.array_equal(autocorrelation(moved).counts, base)
        assert popular_difference_set(moved, Fraction(1, 3)) == popular_difference_set(
            a, Fraction(1, 3)
        )


def _fwht(v: np.ndarray) -> np.ndarray:
    out = v.copy()
    walsh.fwht_inplace(out)
    return out


@pytest.mark.parametrize("n", range(1, 23))
def test_fwht_matches_radix2_reference(n):
    # int64 takes one radix-2 butterfly per index bit; up to n = 16 a
    # row is transformed whole, from n = 17 on the low 15 bits block by
    # block and the others on column blocks
    gen = np.random.default_rng(n)
    v = gen.integers(-3, 4, size=1 << n, dtype=np.int64)
    assert np.array_equal(_fwht(v), reference_fwht(v.copy()))


@pytest.mark.parametrize("n", [1, 2, 5, 8, 13, 16])
def test_fwht_batched_matches_radix2_reference(n):
    gen = np.random.default_rng(100 + n)
    batch = gen.integers(0, 2, size=(5, 1 << n)).astype(np.int64)
    out = _fwht(batch)
    assert np.array_equal(out, reference_fwht(batch.copy()))
    for row in range(len(batch)):
        assert np.array_equal(out[row], _fwht(batch[row]))


@pytest.mark.parametrize("n", [11, 18, 21])
def test_fwht_of_a_signed_spectrum_product(n):
    # the inverse pass of xor_pair_counts: F_A * F_B has both signs and
    # entries up to 4^n; transformed again it is 2^n times the pair counts
    gen = np.random.default_rng(200 + n)
    ind_a, ind_b = gen.integers(0, 2, size=(2, 1 << n), dtype=np.uint8)
    spectrum = _fwht(ind_a.astype(np.int64)) * _fwht(ind_b.astype(np.int64))
    assert (spectrum < 0).any() and (spectrum > 0).any()
    assert np.array_equal(_fwht(spectrum), reference_fwht(spectrum.copy()))


@pytest.mark.parametrize("n", range(1, 23))
def test_float64_fwht_matches_radix2_reference(n):
    # up to n = 16 one row fits the scratch and the factors alternate
    # between the two; from n = 17 on, factors are applied block by block
    # and those with a slab over the scratch take column ranges
    gen = np.random.default_rng(300 + n)
    v = gen.integers(-3, 4, size=1 << n, dtype=np.int64)
    assert np.array_equal(_fwht(v.astype(np.float64)), reference_fwht(v))


@pytest.mark.parametrize("n", [1, 5, 6, 7, 12, 13, 16, 17])
def test_float64_fwht_batched_matches_radix2_reference(n):
    gen = np.random.default_rng(400 + n)
    batch = gen.integers(0, 2, size=(5, 1 << n)).astype(np.int64)
    out = _fwht(batch.astype(np.float64))
    assert np.array_equal(out, reference_fwht(batch.copy()))
    for row in range(len(batch)):
        assert np.array_equal(out[row], _fwht(batch[row].astype(np.float64)))


def test_small_float64_transforms_make_single_threaded_blas_products(monkeypatch):
    # OpenBLAS runs a product of at most 2^18 multiply-adds (M * N * K)
    # on the calling thread alone; no transform, of any size or float
    # dtype, makes a larger product, so BLAS never starts threads, and an
    # int64 transform makes no product at all
    products = []
    matmul = np.matmul

    def spy(a, b, **kwargs):
        products.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    shapes = [(1 << n,) for n in range(1, 23)] + [(5, 1 << 13), (4, 1 << 14), (3, 1 << 6),
                                                  (3, 1 << 17)]
    for shape in shapes:
        v = np.arange(np.prod(shape), dtype=np.int64).reshape(shape) % 3 - 1
        products.clear()
        exact = _fwht(v)
        assert not products, shape
        assert np.array_equal(exact, reference_fwht(v.copy())), shape
        for dtype in (np.float32, np.float64):
            products.clear()
            assert np.array_equal(_fwht(v.astype(dtype)), exact), (shape, dtype)
            assert products and max(products) <= 1 << 18, (shape, dtype)


def test_signed_spectrum_product_at_n21_runs_in_float64(monkeypatch):
    n = 21
    gen = np.random.default_rng(521)
    ind_a, ind_b = gen.integers(0, 2, size=(2, 1 << n), dtype=np.uint8)
    spectrum = _fwht(ind_a.astype(np.float64)) * _fwht(ind_b.astype(np.float64))
    assert (spectrum < 0).any() and (spectrum > 0).any()
    exact = reference_fwht(spectrum.astype(np.int64))
    assert np.array_equal(_fwht(spectrum), exact)

    dtypes = []
    kronecker = walsh._kronecker
    monkeypatch.setattr(walsh, "_kronecker",
                        lambda flat, n, **passes: (dtypes.append(flat.dtype),
                                                   kronecker(flat, n, **passes)))
    assert np.array_equal(walsh.xor_pair_counts(ind_a, ind_b), exact >> n)
    assert dtypes == [np.float32, np.float32, np.float64]


def test_transform_dtype_route():
    # float32 holds the forward bound 2^n exactly up to n = 24, float64
    # up to n = 30 and the inverse bound 4^n up to n = 26; int64 holds 4^n
    # up to n = 30
    for n, forward, inverse in [(1, np.float32, np.float64), (24, np.float32, np.float64),
                                (25, np.float64, np.float64), (26, np.float64, np.float64),
                                (27, np.float64, np.int64), (30, np.float64, np.int64)]:
        assert walsh._forward_dtype(n) is forward
        assert walsh._work_dtype(n) is inverse


@pytest.mark.parametrize("n", [3, 8, 17])
def test_int64_route_of_xor_pair_counts_matches_float64(monkeypatch, n):
    gen = np.random.default_rng(600 + n)
    ind_a, ind_b = gen.integers(0, 2, size=(2, 1 << n), dtype=np.uint8)
    by_float = walsh.xor_pair_counts(ind_a), walsh.xor_pair_counts(ind_a, ind_b)
    monkeypatch.setattr(walsh, "_FLOAT_MAX_N", 0)
    assert walsh._work_dtype(n) is np.int64
    by_int = walsh.xor_pair_counts(ind_a), walsh.xor_pair_counts(ind_a, ind_b)
    for fast, slow in zip(by_float, by_int):
        assert fast.dtype == slow.dtype == np.int64
        assert np.array_equal(fast, slow)
    assert np.array_equal(by_int[0], limb_xor_pair_counts(ind_a))


@pytest.mark.parametrize("n", [3, 8, 17])
def test_float64_route_of_xor_pair_counts_matches_float32(monkeypatch, n):
    gen = np.random.default_rng(650 + n)
    ind_a, ind_b = gen.integers(0, 2, size=(2, 1 << n), dtype=np.uint8)
    assert walsh._forward_dtype(n) is np.float32
    by_f32 = walsh.xor_pair_counts(ind_a), walsh.xor_pair_counts(ind_a, ind_b)
    monkeypatch.setattr(walsh, "_F32_MAX_N", 0)
    assert walsh._forward_dtype(n) is np.float64
    by_f64 = walsh.xor_pair_counts(ind_a), walsh.xor_pair_counts(ind_a, ind_b)
    for fast, slow in zip(by_f32, by_f64):
        assert fast.dtype == slow.dtype == np.int64
        assert np.array_equal(fast, slow)
    assert np.array_equal(by_f32[0], limb_xor_pair_counts(ind_a))


@pytest.mark.parametrize("n", range(17, 23))
def test_float32_route_matches_int64_route_on_full_and_random_sets(monkeypatch, n):
    # a full set has the largest forward value, F(0) = 2^n, and every
    # count 2^n; the blocked kernel and its column pass start at n = 16.
    # The int64 route is the one from n = 27 on: float64 forward
    # transforms, an int64 product and inverse
    gen = np.random.default_rng(680 + n)
    full = np.ones(1 << n, dtype=np.uint8)
    ind_a, ind_b = gen.integers(0, 2, size=(2, 1 << n), dtype=np.uint8)
    assert walsh._forward_dtype(n) is np.float32
    by_f32 = [walsh.xor_pair_counts(full), walsh.xor_pair_counts(ind_a),
              walsh.xor_pair_counts(ind_a, ind_b), walsh.xor_pair_counts(full, ind_b)]
    assert (by_f32[0] == 1 << n).all()
    monkeypatch.setattr(walsh, "_F32_MAX_N", 0)
    monkeypatch.setattr(walsh, "_FLOAT_MAX_N", 0)
    assert walsh._forward_dtype(n) is np.float64 and walsh._work_dtype(n) is np.int64
    by_int = [walsh.xor_pair_counts(full), walsh.xor_pair_counts(ind_a),
              walsh.xor_pair_counts(ind_a, ind_b), walsh.xor_pair_counts(full, ind_b)]
    for fast, slow in zip(by_f32, by_int):
        assert np.array_equal(fast, slow)


@pytest.mark.slow
def test_float32_route_of_the_full_set_at_n24():
    # F(0) = 2^24 is the largest value the float32 route must hold
    n = 24
    assert walsh._forward_dtype(n) is np.float32
    counts = walsh.xor_pair_counts(np.ones(1 << n, dtype=np.uint8))
    assert counts.dtype == np.int64 and (counts == 1 << n).all()


def _product_set(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """The indicator of high x low, with low on the low index bits."""
    return np.outer(high, low).reshape(-1)


def _odd_random_indicator(gen, bits: int) -> np.ndarray:
    """A set of density about 0.9 in F_2^bits, of odd cardinality."""
    card = int(0.9 * (1 << bits)) | 1
    ind = np.zeros(1 << bits, dtype=np.uint8)
    ind[gen.permutation(1 << bits)[:card]] = 1
    return ind


@pytest.mark.slow
def test_product_sets_at_n27_have_product_counts():
    # the int64 route at its working size: for A = A2 x A1 the counts are
    # N_A(x2, x1) = N_A2(x2) N_A1(x1), and likewise for the cross counts.
    # |A| |B| = F_A(0) F_B(0) is odd and above 2^53, so a spectrum
    # product rounded in float64 would leave a non-count in the inverse
    gen = np.random.default_rng(27)
    a1, b1 = (_odd_random_indicator(gen, 14) for _ in range(2))
    a2, b2 = (_odd_random_indicator(gen, 13) for _ in range(2))
    assert int(a1.sum() * a2.sum()) * int(b1.sum() * b2.sum()) > 1 << 53

    def check(counts, low, high):
        rows = counts.reshape(1 << 13, 1 << 14)
        for r in range(0, len(rows), 512):
            assert np.array_equal(rows[r : r + 512], np.outer(high[r : r + 512], low)), r

    ind_a = _product_set(a1, a2)
    check(walsh.xor_pair_counts(ind_a), limb_xor_pair_counts(a1), limb_xor_pair_counts(a2))
    ind_b = _product_set(b1, b2)
    check(walsh.xor_pair_counts(ind_a, ind_b), limb_xor_pair_counts(a1, b1),
          limb_xor_pair_counts(a2, b2))


def test_concurrent_callers_on_more_kernel_threads_than_cores(monkeypatch):
    # callers share the kernel's pool, and every pass is split over more
    # threads than there are cores; a run lost or done twice would break
    # the counts.  Each caller also makes int64 transforms, whose
    # butterfly passes run on the same pool
    gen = np.random.default_rng(900)
    sets = gen.integers(0, 2, size=(6, 1 << 17), dtype=np.uint8)
    monkeypatch.setattr(walsh, "_threads", 1)
    expected = [walsh.xor_pair_counts(s) for s in sets]
    spectra = [_fwht(s.astype(np.int64)) for s in sets]
    monkeypatch.setattr(walsh, "_threads", 2 * walsh.usable_cpus() + 1)
    monkeypatch.setattr(walsh, "_pool", None)
    results = {}

    def call(i):
        results[i] = [np.array_equal(walsh.xor_pair_counts(sets[i]), expected[i])
                      and np.array_equal(_fwht(sets[i].astype(np.int64)), spectra[i])
                      for _ in range(3)]

    callers = [threading.Thread(target=call, args=(i,)) for i in range(len(sets))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        if walsh._pool is not None:
            walsh._pool.shutdown()
    assert not any(caller.is_alive() for caller in callers)
    assert results == {i: [True] * 3 for i in range(len(sets))}


@pytest.mark.parametrize("route", ["float64", "int64", "n27"])
@pytest.mark.parametrize("n", [1, 3, 8, 17])
def test_xor_pair_counts_of_a_batch_equals_its_rows(monkeypatch, route, n):
    # "n27" is the dtype pair of n >= 27: float64 forward, int64 inverse
    if route != "float64":
        monkeypatch.setattr(walsh, "_FLOAT_MAX_N", 0)
    if route == "n27":
        monkeypatch.setattr(walsh, "_F32_MAX_N", 0)
    gen = np.random.default_rng(700 + n)
    ind_a, ind_b = gen.integers(0, 2, size=(2, 2, 3, 1 << n), dtype=np.uint8)
    ind_a[0, 0] = 1  # a full row, whose counts are all 2^n
    auto, cross = walsh.xor_pair_counts(ind_a), walsh.xor_pair_counts(ind_a, ind_b)
    assert auto.shape == cross.shape == ind_a.shape
    assert auto.dtype == cross.dtype == np.int64
    assert (auto[0, 0] == 1 << n).all()
    for i in np.ndindex(ind_a.shape[:-1]):
        assert np.array_equal(auto[i], walsh.xor_pair_counts(ind_a[i]))
        assert np.array_equal(cross[i], walsh.xor_pair_counts(ind_a[i], ind_b[i]))
        if route == "n27":
            assert np.array_equal(auto[i], limb_xor_pair_counts(ind_a[i]))
            assert np.array_equal(cross[i], limb_xor_pair_counts(ind_a[i], ind_b[i]))
    with pytest.raises(ValueError, match="shapes differ"):
        walsh.xor_pair_counts(ind_a, ind_b[:1])


@pytest.mark.parametrize("above", [None, 1000])
@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_scaled_counts_rejects_non_counts(monkeypatch, dtype, above):
    # the last entry sits in the last block of the last pass, the high
    # pass at n = 17; with the transform made the identity, that pass
    # sees f itself, and writes counts (above None) or counts > above
    n = 17
    monkeypatch.setattr(walsh, "_transform", lambda x, spare, factors: x)
    good = np.arange(1 << n, dtype=np.int64) << n
    out = np.empty(1 << n, dtype=np.int64 if above is None else np.bool_)
    walsh._kronecker(good.astype(dtype), n, out=out, above=above)
    counts = np.arange(1 << n)
    assert np.array_equal(out, counts if above is None else counts > above)
    for bad in (-(1 << n), 1, 1 << (n - 1), (3 << n) + 1):
        f = good.astype(dtype)
        f[-1] = bad
        with pytest.raises(AssertionError):
            walsh._kronecker(f, n, out=out, above=above)


@pytest.mark.parametrize("shared", [False, True])
def test_product_into_int64_is_exact(shared):
    # spectra from n = 27 on reach 2^30 in absolute value; a float64
    # multiply would round their products above 2^53.  The inverse's low
    # pass squares A's spectrum (b None) or multiplies it by B's, in
    # int64, then transforms: at n = 1 the sum and difference of each
    # pair of products, at most 2^61.  With ``shared`` A's spectrum lies
    # in out's own bytes, as in xor_pair_counts
    values = [2**30 - 1, -(2**30 - 1), 2**30 - 5, -(2**30 - 5), 2**30, -(2**30), 3, 0]
    size = 2 * walsh._BLOCK + 8  # three blocks, the last one short
    fa = np.resize(np.array(values, dtype=np.float64), size)
    fb = np.roll(fa, 3)
    for b in (None, fb):
        out = np.empty(size, dtype=np.int64)
        a = out.view(np.float64) if shared else fa.copy()
        a[...] = fa
        walsh._kronecker(out, 1, load=(a, b))
        other = fa if b is None else fb
        products = [int(x) * int(y) for x, y in zip(fa.tolist(), other.tolist())]
        pairs = zip(products[0::2], products[1::2])
        assert out.tolist() == [v for p, q in pairs for v in (p + q, p - q)]


def test_fwht_rejects_bad_shapes():
    with pytest.raises(ValueError):
        walsh.fwht_inplace(np.zeros(12, dtype=np.int64))
    with pytest.raises(ValueError):
        walsh.fwht_inplace(np.zeros((8, 4), dtype=np.int64).T)  # not C-contiguous


def test_int64_inverse_matches_limb_reference_at_n21():
    # dense alpha = 1/2 sets at n = 21: the crude bound 2^n * 4^n on the
    # inverse intermediates exceeds int64 here, the Parseval bound 4^n does not
    n = 21
    size = 1 << n
    gen = np.random.default_rng(21)
    ind_a, ind_b = np.zeros((2, size), dtype=np.uint8)
    ind_a[gen.permutation(size)[: size // 2]] = 1
    ind_b[gen.permutation(size)[: size // 2]] = 1
    card = size // 2

    spectrum = ind_a.astype(np.int64)
    walsh.fwht_inplace(spectrum)
    assert int((spectrum * spectrum).sum()) == size * card  # Parseval

    counts = walsh.xor_pair_counts(ind_a)
    assert np.array_equal(counts, limb_xor_pair_counts(ind_a))
    assert counts[0] == card
    assert int(counts.sum()) == card * card

    cross = walsh.xor_pair_counts(ind_a, ind_b)
    assert np.array_equal(cross, limb_xor_pair_counts(ind_a, ind_b))
    assert cross[0] == int((ind_a & ind_b).sum())
    assert int(cross.sum()) == card * card


@pytest.mark.parametrize("n", range(17, 23))
def test_passes_do_not_depend_on_the_schedule(monkeypatch, n):
    # every pass runs its parts in reverse order on one thread, so the
    # parts that one _each call runs must not depend on each other: on
    # the float32 route pass 3 overwrites A's spectrum as it goes, and a
    # block run before an earlier phase's blocks would destroy their
    # input.  The float32, float64 and int64 inverse routes, counts and
    # D at c = 1, the cross form, and a batch of three rows (twelve
    # blocks of 2^15 at n = 17, not a power of two)
    monkeypatch.setattr(walsh, "_each", lambda parts, work: work(parts[::-1]))
    gen = np.random.default_rng(950 + n)
    ind_a, ind_b = gen.integers(0, 2, size=(2, 1 << n), dtype=np.uint8)
    auto, cross = limb_xor_pair_counts(ind_a), limb_xor_pair_counts(ind_a, ind_b)
    thr = int(ind_a.sum()) ** 2 >> n
    rows, partners = np.stack([ind_a, ind_b, ind_a]), np.stack([ind_b, ind_a, ind_a])
    batch = np.stack([cross, cross, auto])  # N_B,A = N_A,B
    for f32_max_n, float_max_n in [(walsh._F32_MAX_N, walsh._FLOAT_MAX_N),
                                   (0, walsh._FLOAT_MAX_N), (0, 0)]:
        monkeypatch.setattr(walsh, "_F32_MAX_N", f32_max_n)
        monkeypatch.setattr(walsh, "_FLOAT_MAX_N", float_max_n)
        assert np.array_equal(walsh.xor_pair_counts(ind_a), auto)
        assert np.array_equal(walsh.xor_pair_counts(ind_a, ind_b), cross)
        assert np.array_equal(walsh.xor_pairs_above(ind_a, thr), np.greater(auto, thr))
        if n <= 18:
            assert np.array_equal(walsh.xor_pair_counts(rows, partners), batch)


@pytest.mark.parametrize("rows, n", [(7, 14), (100, 10)])
def test_batches_with_a_short_last_block_do_not_depend_on_the_schedule(monkeypatch, rows, n):
    # a batch of more than 2^16 entries that 2^15 does not divide: its
    # last block is short, so A's spectrum on the float32 route starts
    # partway into a block, and an output block reaches one spectrum
    # block further than with whole blocks.  Parts run in reverse order
    # on one thread, as in the test above
    monkeypatch.setattr(walsh, "_each", lambda parts, work: work(parts[::-1]))
    gen = np.random.default_rng(960 + n)
    ind_a, ind_b = gen.integers(0, 2, size=(2, rows, 1 << n), dtype=np.uint8)
    auto = np.stack([limb_xor_pair_counts(row) for row in ind_a])
    cross = np.stack([limb_xor_pair_counts(x, y) for x, y in zip(ind_a, ind_b)])
    thr = int(ind_a[0].sum()) ** 2 >> n
    assert walsh._forward_dtype(n) == np.float32
    assert np.array_equal(walsh.xor_pair_counts(ind_a), auto)
    assert np.array_equal(walsh.xor_pair_counts(ind_a, ind_b), cross)
    assert np.array_equal(walsh.xor_pairs_above(ind_a, thr), np.greater(auto, thr))


def test_no_block_load_reads_the_bytes_it_writes(monkeypatch):
    # the spectrum of A lies in the inverse buffer's bytes, so a block
    # loaded in place would read its own destination; every block is
    # loaded into scratch instead.  Four blocks and a column pass
    # (n = 17), 32 blocks (n = 20), and a batch whose last block is
    # short, each through the counts, the cross counts and D
    loads = []
    load = walsh._load

    def spy(x, blocks):
        loads.append(any(np.shares_memory(x, b) for b in blocks if b is not None))
        load(x, blocks)

    monkeypatch.setattr(walsh, "_load", spy)
    gen = np.random.default_rng(970)
    for shape in [(1 << 17,), (1 << 20,), (7, 1 << 14)]:
        ind_a, ind_b = gen.integers(0, 2, size=(2, *shape), dtype=np.uint8)
        walsh.xor_pair_counts(ind_a)
        walsh.xor_pair_counts(ind_a, ind_b)
        walsh.xor_pairs_above(ind_a, shape[-1] >> 3)
    assert loads and not any(loads), f"{sum(loads)} of {len(loads)} loads alias"


def test_transform_scratch_does_not_grow_with_the_dimension(monkeypatch):
    # beyond its 9 * 2^n bytes of buffers (the float64 inverse and D's
    # bool bytes), xor_pairs_above holds each thread's scratch, two
    # halves of at most 2^15 float64 entries once n > 16
    monkeypatch.setattr(walsh, "_threads", 2)
    monkeypatch.setattr(walsh, "_pool", None)
    gen = np.random.default_rng(975)
    beyond = {}
    try:
        for n in (17, 21):
            ind = gen.integers(0, 2, size=1 << n, dtype=np.uint8)
            walsh.xor_pairs_above(ind, 1 << (n - 3))  # the pool exists before tracing
            tracemalloc.start()
            try:
                walsh.xor_pairs_above(ind, 1 << (n - 2))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            beyond[n] = peak - 9 * (1 << n)
    finally:
        if walsh._pool is not None:
            walsh._pool.shutdown()
    for n, extra in beyond.items():
        assert extra <= 2 * (512 << 10) + (128 << 10), (n, beyond)
    assert abs(beyond[21] - beyond[17]) < 128 << 10, beyond


@pytest.mark.parametrize("blocks", [3, 4, 5, 8, 13, 128, 512])
def test_phases_cover_the_blocks_and_never_overwrite_unread_spectrum(blocks):
    # byte by byte, for whole and short last blocks: no output block of
    # the float32 route's low pass overwrites a spectrum block that
    # another block of its phase, or of a later phase, still reads
    phases = walsh._phases(blocks)
    assert [b for p in phases for b in range(blocks)[p]] == list(range(blocks))
    phase_of = {b: i for i, p in enumerate(phases) for b in range(blocks)[p]}
    B = walsh._BLOCK
    for size in ((blocks - 1) * B + 1, (blocks - 1) * B + B // 2, blocks * B):
        for b in range(blocks):
            lo, hi = 8 * b * B, 8 * min((b + 1) * B, size)
            for j in range(blocks):
                read_lo, read_hi = 4 * size + 4 * j * B, 4 * size + 4 * min((j + 1) * B, size)
                if lo < read_hi and read_lo < hi and j != b:
                    assert phase_of[j] < phase_of[b], (size, b, j)


@pytest.mark.parametrize("n", range(1, 17))
def test_fused_popular_set_equals_thresholded_counts(n):
    # D from the transform's last pass against the limb reference counts
    # thresholded in Python integers: c = 0 (the sumset), c = 1/2, and
    # c = 10^30, whose threshold is beyond int64; the report's D is the
    # set that thresholding the count vector gives
    gen = np.random.default_rng(800 + n)
    a = DenseSet(n, gen.integers(0, 2, 1 << n))
    counts = limb_xor_pair_counts(a.bits).tolist()
    for c in (Fraction(0), Fraction(1, 2), Fraction(10**30)):
        thr = c.numerator * a.card * a.card // (c.denominator << n)
        assert popular_difference_set(a, c).points().tolist() == [
            x for x, count in enumerate(counts) if count > thr]
        assert dc_threshold_report(a, c).popular == autocorrelation(a).popular_set(c)


def test_popular_set_small_example():
    # counts [2,2,0,0], threshold c=1/2: N(x) * 2 * 4 > 1 * 4 iff N(x) >= 1
    a = make_set(2, [0, 1])
    assert popular_difference_set(a, Fraction(1, 2)).points().tolist() == [0, 1]


def test_popular_set_c_zero_is_sumset():
    rng = SplitMix64(5)
    for _ in range(10):
        a = random_set(7, rng.below(129), rng)
        assert popular_difference_set(a, 0) == sumset(a, a)


def test_popular_set_on_subspaces():
    # counts are |V| on V and 0 elsewhere, so D_c(V) = V exactly when
    # c * density < 1, and empty at the boundary c * density = 1
    for dims in ([1], [1, 2], [1, 2, 4]):
        v = linear_subspace(4, dims)
        for c in (Fraction(1, 4), Fraction(1, 2), Fraction(1, 1)):
            assert popular_difference_set(v, c) == v
    g = full_set(4)
    assert popular_difference_set(g, 1).card == 0  # strict inequality at the boundary
    assert popular_difference_set(g, Fraction(1, 2)) == g


def test_popular_set_monotone_in_c():
    rng = SplitMix64(6)
    grid = [Fraction(0), Fraction(1, 16), Fraction(1, 8), Fraction(1, 3),
            Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(9, 8)]
    for _ in range(5):
        a = random_set(8, rng.below(257), rng)
        sets = [popular_difference_set(a, c) for c in grid]
        for tighter, looser in zip(sets[1:], sets):
            assert tighter.subset_of(looser)


def test_zero_membership_iff_c_alpha_below_one():
    rng = SplitMix64(7)
    for _ in range(10):
        a = random_set(6, 1 + rng.below(64), rng)
        for c in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(64, 1), Fraction(2**70)):
            d = popular_difference_set(a, c)
            assert (0 in d) == (c * a.density < 1)
            if c * a.density >= 1:
                assert d.card == 0  # every count is at most |A| = N_A(0)


def test_negative_c_rejected():
    with pytest.raises(ValueError):
        popular_difference_set(make_set(2, [0]), Fraction(-1, 2))


def test_c_above_one_keeps_only_zero():
    # at c = 11/10 a random half-density set almost never keeps x != 0
    hits = 0
    for seed in range(5):
        a = random_set(12, 1 << 11, SplitMix64(seed))
        d = popular_difference_set(a, Fraction(11, 10))
        if d.points().tolist() == [0]:
            hits += 1
    assert hits >= 4


def test_threshold_report():
    rep = dc_threshold_report(full_set(3), Fraction(1))
    assert rep.card_d == 0  # 2^n > 2^n fails strictly
    assert rep.min_count == 9

    rep = dc_threshold_report(make_set(2, [0, 1]), Fraction(1, 2))
    assert rep.card_d == 2
    assert rep.alpha == Fraction(1, 2)
    assert rep.count_threshold == Fraction(1, 2)
    assert rep.min_count == 1
    assert "N_A(x)" in rep.describe()


def test_counts_csv_bytes(tmp_path):
    a = make_set(2, [0, 1])
    path = tmp_path / "counts.csv"
    autocorrelation(a).write_csv(path)
    assert path.read_bytes() == b"x,count\n0,2\n1,2\n2,0\n3,0\n"


def test_counts_csv_is_written_in_bounded_memory(tmp_path):
    # rows of up to seven digits at n = 16: the text of the whole file,
    # built at once, takes about 100 B/point; the file's rows must not
    # be held in memory together
    n = 16
    counts = np.random.default_rng(19).integers(0, 1 << 20, 1 << n)
    counts[0] = 1 << 20
    ac = Autocorrelation(n, counts)
    path = tmp_path / "counts.csv"
    tracemalloc.start()
    try:
        ac.write_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << n
    rows = path.read_bytes().split(b"\n")
    assert rows[0] == b"x,count" and rows[-1] == b"" and len(rows) == (1 << n) + 2
    assert rows[1 + 12345] == b"12345,%d" % counts[12345]
