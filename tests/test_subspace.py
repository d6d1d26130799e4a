"""Exact maximum-subspace search against independent enumeration."""

from fractions import Fraction

import numpy as np
import pytest

from popdiff.correlation import popular_difference_set
from popdiff.f2n import DenseSet, full_set, linear_subspace, make_set, random_set
from popdiff.rng import SplitMix64
from popdiff.subspace import max_subspace_in

from conftest import all_subspaces, gaussian_binomial, reference_max_subspace, set_from_mask


def echelon_reduce(vectors):
    """Reduced echelon form with pivots at the highest set bits,
    returned sorted ascending; independent check of basis canonicality."""
    rows = []
    for v in vectors:
        for r in rows:
            if v ^ r < v:
                v ^= r
        if v:
            rows.append(v)
            rows.sort(reverse=True)
    # back-substitute so no row contains another row's pivot
    for i, r in enumerate(rows):
        pivot = 1 << (r.bit_length() - 1)
        for j in range(len(rows)):
            if j != i and rows[j] & pivot:
                rows[j] ^= r
    return tuple(sorted(rows))


def oracle_max_dim(n, mask, subspaces):
    if not mask & 1:
        return 0
    return max(
        len(s).bit_length() - 1
        for s in subspaces
        if all((mask >> p) & 1 for p in s)
    )


def test_basic_examples():
    assert max_subspace_in(full_set(4)).dim == 4
    assert max_subspace_in(make_set(4, [0])).dim == 0
    v = linear_subspace(6, [1, 2, 4])
    r = max_subspace_in(v)
    assert r.dim == 3 and r.basis.vectors == (1, 2, 4)
    assert linear_subspace(6, r.basis.vectors) == v


def test_zero_missing_flag():
    r = max_subspace_in(make_set(4, [1, 2, 3]))
    assert not r.zero_in_set
    assert r.dim == 0


def test_exhaustive_n3_against_enumeration():
    subs = all_subspaces(3)
    assert len(subs) == sum(gaussian_binomial(3, k) for k in range(4)) == 16
    for mask in range(1 << 8):
        d = set_from_mask(3, mask)
        got = max_subspace_in(d)
        assert got.dim == oracle_max_dim(3, mask, subs), mask
        if got.dim:
            assert linear_subspace(3, got.basis.vectors).subset_of(d)


def test_random_n4_against_enumeration(subspaces_n4):
    rng = SplitMix64(12)
    for _ in range(500):
        mask = rng.below(1 << 16) | 1
        d = set_from_mask(4, mask)
        got = max_subspace_in(d)
        assert got.dim == oracle_max_dim(4, mask, subspaces_n4), mask


def test_basis_is_canonical_and_lex_least(subspaces_n4):
    # oracle: among all maximum-dimension subspaces, take the one whose
    # sorted echelon basis is lexicographically least
    rng = SplitMix64(13)
    for _ in range(300):
        mask = rng.below(1 << 16) | 1
        d = set_from_mask(4, mask)
        got = max_subspace_in(d)
        best = got.dim
        candidates = []
        for s in subspaces_n4:
            if len(s) == 1 << best and all((mask >> p) & 1 for p in s):
                candidates.append(echelon_reduce([p for p in s if p]))
        assert candidates, mask
        assert got.basis.vectors == min(candidates), mask
        assert echelon_reduce(got.basis.vectors) == got.basis.vectors


def test_matches_reference_search():
    rng = SplitMix64(14)
    for n in (6, 7, 8, 9):
        for _ in range(25):
            # every cardinality up to the full group at n = 6, 7 (the dim cap
            # and the hyperplane shortcut); up to density 3/4 at n = 8, 9,
            # where denser sets take the reference minutes
            most = 1 << n if n <= 7 else 3 << (n - 2)
            d = random_set(n, 1 + rng.below(most), rng).union(make_set(n, [0]))
            got = max_subspace_in(d)
            assert got.basis.vectors == reference_max_subspace(d), (n, d.point_list())
    for seed in range(3):
        a = random_set(10, 1 << 9, SplitMix64(100 + seed))
        for c in (Fraction(1, 4), Fraction(1), Fraction(9, 8)):
            d = popular_difference_set(a, c)
            got = max_subspace_in(d)
            assert got.basis.vectors == reference_max_subspace(d), (seed, c)


def test_monotone_under_set_growth():
    rng = SplitMix64(15)
    d = make_set(7, [0])
    last = 0
    for _ in range(12):
        extra = [rng.below(128) for _ in range(10)]
        d = d.union(make_set(7, extra))
        dim = max_subspace_in(d).dim
        assert dim >= last
        last = dim
    assert max_subspace_in(full_set(7)).dim == 7


def test_full_groups_up_to_n16():
    for n in range(1, 17):
        r = max_subspace_in(full_set(n))
        assert r.dim == n
        assert r.basis.vectors == tuple(1 << i for i in range(n))


def test_near_full_sets_shortcut():
    # remove one point: some hyperplane always avoids it
    for n in (8, 10, 12):
        bits = np.ones(1 << n, dtype=np.uint8)
        bits[3] = 0
        assert max_subspace_in(DenseSet(n, bits)).dim == n - 1
    # weight >= 15 points of n=16 cannot all be avoided by one hyperplane
    from popdiff.f2n import niveau_set

    d = popular_difference_set(niveau_set(16, 9), Fraction(1, 4))
    assert d.card == (1 << 16) - 17
    assert max_subspace_in(d).dim == 14


def test_near_full_search_takes_the_missing_points_from_the_set(monkeypatch):
    # the search lists the points outside D through D's own cache, so the
    # construction's complement route on the same D lists none again
    listed = DenseSet.outside_points
    calls = []
    monkeypatch.setattr(
        DenseSet, "outside_points", lambda self: calls.append(listed(self)) or calls[-1]
    )
    bits = np.ones(1 << 10, dtype=np.uint8)
    bits[[3, 5, 6, 700]] = 0
    d = DenseSet(10, bits)
    assert max_subspace_in(d).dim == 8  # no hyperplane avoids 3, 5 and 6 = 3 + 5
    assert len(calls) == 1 and calls[0].tolist() == [3, 5, 6, 700]
    assert listed(d) is calls[0]


def test_span_subset_cases():
    v = linear_subspace(5, [1, 2])
    assert linear_subspace(5, []).subset_of(v)        # span {0}
    assert linear_subspace(5, [1, 2]).subset_of(v)
    assert linear_subspace(5, [1, 3]).subset_of(v)    # dependent spanning set, same span
    missing = make_set(5, [0, 1, 2])                  # lacks 3 = 1 ^ 2
    assert not linear_subspace(5, [1, 2]).subset_of(missing)


def test_subspace_dim_inside_popular_sets():
    # D_c(V) = V, so the search recovers V's dimension exactly
    for d in range(0, 7):
        v = linear_subspace(8, [1 << i for i in range(d)])
        dc = popular_difference_set(v, Fraction(1, 2))
        assert max_subspace_in(dc).dim == d


@pytest.mark.slow
def test_qualitative_dimension_profile_in_c():
    """Average found dimension in D_c(A) over seeds, per c; expected to be
    non-increasing as c grows.  Reported, and softly asserted on the
    averages only."""
    grids = {
        12: [Fraction(1, 4), Fraction(3, 4), Fraction(1), Fraction(9, 8)],
        14: [Fraction(1, 4), Fraction(3, 4), Fraction(9, 8)],
        16: [Fraction(1, 4), Fraction(3, 4), Fraction(9, 8)],
    }
    for n, grid in grids.items():
        averages = []
        for c in grid:
            dims = []
            for seed in range(3):
                a = random_set(n, 1 << (n - 1), SplitMix64(1000 * n + seed))
                d = popular_difference_set(a, c)
                dims.append(max_subspace_in(d).dim)
            averages.append(sum(dims) / len(dims))
        print(f"n={n}: c-grid {[str(c) for c in grid]} -> average dims {averages}")
        assert all(x >= y for x, y in zip(averages, averages[1:])), (n, averages)
