"""Autocorrelation (fast vs naive) and popular difference sets."""

import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from popdiff import correlation, walsh
from popdiff.correlation import (
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
    # odd n ends in a radix-2 stage; from n = 17 on, h reaches 2^15 and
    # each pass is chunked along h instead of over the groups
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
    # dtype, makes a larger product, so BLAS never starts threads
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
        exact = _fwht(v)
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
    transform = walsh.fwht_inplace
    monkeypatch.setattr(walsh, "fwht_inplace", lambda a: (dtypes.append(a.dtype), transform(a)))
    assert np.array_equal(walsh.xor_pair_counts(ind_a, ind_b), exact >> n)
    assert dtypes == [np.float32, np.float32, np.float64]


def test_transform_dtype_route():
    # float32 holds the forward bound 2^n exactly up to n = 24, float64
    # the inverse bound 4^n up to n = 26
    for n, forward, inverse in [(1, np.float32, np.float64), (24, np.float32, np.float64),
                                (25, np.float64, np.float64), (26, np.float64, np.float64),
                                (27, np.int64, np.int64), (30, np.int64, np.int64)]:
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
    # count 2^n; the blocked kernel and its column pass start at n = 16
    gen = np.random.default_rng(680 + n)
    full = np.ones(1 << n, dtype=np.uint8)
    ind_a, ind_b = gen.integers(0, 2, size=(2, 1 << n), dtype=np.uint8)
    assert walsh._forward_dtype(n) is np.float32
    by_f32 = [walsh.xor_pair_counts(full), walsh.xor_pair_counts(ind_a),
              walsh.xor_pair_counts(ind_a, ind_b), walsh.xor_pair_counts(full, ind_b)]
    assert (by_f32[0] == 1 << n).all()
    monkeypatch.setattr(walsh, "_FLOAT_MAX_N", 0)
    assert walsh._forward_dtype(n) is np.int64
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


def test_concurrent_callers_on_more_kernel_threads_than_cores(monkeypatch):
    # callers share the kernel's pool, and every pass is split over more
    # threads than there are cores; a run lost or done twice would break
    # the counts
    gen = np.random.default_rng(900)
    sets = gen.integers(0, 2, size=(6, 1 << 17), dtype=np.uint8)
    monkeypatch.setattr(walsh, "_threads", 1)
    expected = [walsh.xor_pair_counts(s) for s in sets]
    monkeypatch.setattr(walsh, "_threads", 2 * walsh.usable_cpus() + 1)
    monkeypatch.setattr(walsh, "_pool", None)
    results = {}

    def call(i):
        results[i] = [np.array_equal(walsh.xor_pair_counts(sets[i]), expected[i]) for _ in range(3)]

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


@pytest.mark.parametrize("route", ["float64", "int64"])
@pytest.mark.parametrize("n", [1, 3, 8, 17])
def test_xor_pair_counts_of_a_batch_equals_its_rows(monkeypatch, route, n):
    if route == "int64":
        monkeypatch.setattr(walsh, "_FLOAT_MAX_N", 0)
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
    with pytest.raises(ValueError, match="shapes differ"):
        walsh.xor_pair_counts(ind_a, ind_b[:1])


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_scaled_counts_rejects_non_counts(dtype):
    # the last entry sits in the last block of the post-pass
    n = 17
    good = np.arange(1 << n, dtype=np.int64) << n
    assert np.array_equal(walsh._scaled_counts(good.astype(dtype), n), np.arange(1 << n))
    for bad in (-(1 << n), 1, 1 << (n - 1), (3 << n) + 1):
        f = good.astype(dtype)
        f[-1] = bad
        with pytest.raises(AssertionError):
            walsh._scaled_counts(f, n)


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


def test_popular_set_small_example():
    # counts [2,2,0,0], threshold c=1/2: N(x) * 2 * 4 > 1 * 4 iff N(x) >= 1
    a = make_set(2, [0, 1])
    assert popular_difference_set(a, Fraction(1, 2)).point_list() == [0, 1]


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
        if d.point_list() == [0]:
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
