"""Autocorrelation (fast vs naive) and popular difference sets."""

from fractions import Fraction

import numpy as np
import pytest

from popdiff import walsh
from popdiff.correlation import (
    autocorrelation,
    dc_threshold_report,
    naive_autocorrelation,
    popular_difference_set,
)
from popdiff.f2n import (
    empty_set,
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

    assert (autocorrelation(empty_set(3)).counts == 0).all()

    single = make_set(3, [5])
    counts = autocorrelation(single).counts
    assert counts[0] == 1 and counts.sum() == 1


def test_fast_equals_naive_exhaustive_n3():
    for mask in range(1 << 8):
        a = set_from_mask(3, mask)
        fast = autocorrelation(a).counts
        assert np.array_equal(fast, naive_autocorrelation(a).counts)
        assert np.array_equal(fast, brute_counts(a))


def test_count_invariants_exhaustive_n4():
    for mask in range(1 << 16):
        a = set_from_mask(4, mask)
        ac = autocorrelation(a)
        assert ac.card == a.card
        assert ac.mass() == a.card**2
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
        assert ac.mass() == a.card**2
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
        for c in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(64, 1)):
            d = popular_difference_set(a, c)
            assert (0 in d) == (c * a.density < 1)


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
