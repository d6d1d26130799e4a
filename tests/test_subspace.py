"""Exact maximum-subspace search against independent enumeration."""

from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from popdiff import subspace
from popdiff.correlation import popular_difference_set
from popdiff.f2n import DenseSet, full_set, linear_subspace, make_set, niveau_set, random_set
from popdiff.rng import SplitMix64
from popdiff.subspace import SubspaceBasis, max_subspace_in

from conftest import all_subspaces, gaussian_binomial, reference_max_subspace, set_from_mask


# each node representation through its own entry, whatever n is
by_bitsets = partial(subspace._max_subspace, root=subspace._bitset_root)
by_arrays = partial(subspace._max_subspace, root=subspace._array_root)


def assert_both_match_reference(d, context=None):
    """Both node representations return the reference search's basis."""
    want = reference_max_subspace(d)
    assert by_bitsets(d).vectors == want, ("bitsets", context, d.points().tolist())
    assert by_arrays(d).vectors == want, ("arrays", context, d.points().tolist())


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


def with_zero(s):
    """The set s with 0 added."""
    return make_set(s.n, np.append(s.points(), 0))


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
    assert r.dim == 3 and r.vectors == (1, 2, 4)
    assert linear_subspace(6, r.vectors) == v


def test_zero_missing_gives_the_empty_basis():
    assert max_subspace_in(make_set(4, [1, 2, 3])) == SubspaceBasis(4, ())


def test_exhaustive_n3_against_enumeration():
    subs = all_subspaces(3)
    assert len(subs) == sum(gaussian_binomial(3, k) for k in range(4)) == 16
    for mask in range(1 << 8):
        d = set_from_mask(3, mask)
        got = max_subspace_in(d)
        assert got.dim == oracle_max_dim(3, mask, subs), mask
        if got.dim:
            assert linear_subspace(3, got.vectors).subset_of(d)


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
        assert got.vectors == min(candidates), mask
        assert echelon_reduce(got.vectors) == got.vectors


def test_matches_reference_search():
    rng = SplitMix64(14)
    for n in (6, 7, 8, 9):
        for _ in range(25):
            # every cardinality up to the full group at n = 6, 7 (the dim cap
            # and the hyperplane shortcut); up to density 3/4 at n = 8, 9,
            # where denser sets take the reference minutes
            most = 1 << n if n <= 7 else 3 << (n - 2)
            assert_both_match_reference(with_zero(random_set(n, 1 + rng.below(most), rng)), n)
    for seed in range(3):
        a = random_set(10, 1 << 9, SplitMix64(100 + seed))
        for c in (Fraction(1, 4), Fraction(1), Fraction(9, 8)):
            assert_both_match_reference(popular_difference_set(a, c), (seed, c))


@pytest.mark.parametrize("n, alpha", [
    (n, alpha) if (n, alpha) not in {(10, Fraction(3, 4)), (11, Fraction(1, 2)), (11, Fraction(3, 4))}
    # the reference takes from 7 s to over 2 minutes per set on these
    else pytest.param(n, alpha, marks=pytest.mark.slow)
    for n in (9, 10, 11)
    for alpha in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
], ids=str)
def test_random_sets_match_reference_search(n, alpha):
    for seed in range(3):
        a = random_set(n, int(alpha * (1 << n)), SplitMix64(200 + seed))
        assert_both_match_reference(with_zero(a), seed)


@pytest.mark.parametrize("n", [*range(1, 9), pytest.param(9, marks=pytest.mark.slow)])
def test_balls_and_niveau_sets_match_reference_search(n):
    # a ball's largest subspace is span(e_1..e_r), which the weight cap
    # stops at; {0} with the niveau set of threshold r asks for the
    # largest linear code of minimum distance r
    weights = [bin(x).count("1") for x in range(1 << n)]
    for r in range(n + 1):
        ball = make_set(n, [x for x in range(1 << n) if weights[x] <= r])
        assert reference_max_subspace(ball) == tuple(1 << i for i in range(r)), r
        assert_both_match_reference(ball, r)
        assert_both_match_reference(with_zero(niveau_set(n, r)), r)


@pytest.mark.parametrize("nodes", ["bitsets", "arrays"])
def test_pivot_cap_is_sound_on_every_subset_of_f24(subspaces_n4, nodes):
    # S runs over the subsets of F_2^4 without 0; the largest subspace whose
    # nonzero points lie in S never exceeds cap(S) <= floor(log2(|S| + 1))
    spans = np.array([sum(1 << p for p in span) for span in subspaces_n4])
    dims = np.array([len(span).bit_length() - 1 for span in subspaces_n4])
    masks = np.arange(0, 1 << 16, 2)
    inside = (masks[:, None] | 1) & spans[None, :] == spans[None, :]
    best = np.where(inside, dims[None, :], 0).max(axis=1)
    points = np.arange(16, dtype=np.int64)
    if nodes == "bitsets":
        top_bit = subspace._bitset_masks(4)[1]
        caps = np.array([subspace._bitset_pivot_cap(mask, top_bit) for mask in masks.tolist()])
    else:
        caps = np.array([subspace._pivot_cap(points[(mask >> points & 1) == 1]) for mask in masks])
    count_caps = np.array([(bin(mask).count("1") + 1).bit_length() - 1 for mask in masks])
    assert (best <= caps).all() and (caps <= count_caps).all()
    assert (caps < count_caps).any()  # and it is stronger than the count cap


@pytest.mark.parametrize("search, nodes", [(by_bitsets, "_bitset_nodes"),
                                           (by_arrays, "_array_nodes")],
                         ids=["bitsets", "arrays"])
def test_random_half_density_search_visits_few_nodes(monkeypatch, search, nodes):
    # the pivot-count cap refutes dimension 6 on this set in a few thousand
    # nodes; the count cap alone took 86,119
    calls = 0
    node = getattr(subspace, nodes)

    def counted(*args):
        nonlocal calls
        calls += 1
        return node(*args)

    monkeypatch.setattr(subspace, nodes, counted)
    d = with_zero(random_set(12, 2048, SplitMix64(3)))
    assert search(d).dim == 5
    assert 0 < calls <= 5000, calls


def test_bitset_translate_is_the_xor_translate():
    rng = SplitMix64(16)
    for n in range(1, 8):
        zero_at = subspace._bitset_masks(n)[0]
        for _ in range(20):
            points = [x for x in range(1 << n) if rng.below(2)]
            t = sum(1 << x for x in points)
            for v in range(1 << n):
                assert subspace._translate(t, v, zero_at) == sum(1 << (x ^ v) for x in points)


@pytest.mark.parametrize("n, picked, other", [(12, "_bitset_root", by_arrays),
                                              (13, "_array_root", by_bitsets)])
def test_representation_is_picked_by_n_at_the_boundary(monkeypatch, n, picked, other):
    # bitset nodes up to n = 12, array nodes from 13; both give one basis
    # (``other`` holds the unpatched root)
    assert subspace.BITSET_MAX_N == 12
    roots = []
    for name in ("_bitset_root", "_array_root"):
        root = getattr(subspace, name)
        monkeypatch.setattr(subspace, name,
                            lambda *args, name=name, root=root: roots.append(name) or root(*args))
    a = random_set(n, 1 << (n - 1), SplitMix64(17))
    sparse = with_zero(random_set(n, 1 << (n - 3), SplitMix64(18)))
    for d in (popular_difference_set(a, Fraction(1)), sparse):
        roots.clear()
        got = max_subspace_in(d)
        assert roots == [picked]
        assert got == other(d) and got.dim >= 3


@pytest.mark.parametrize("search", [max_subspace_in, by_bitsets, by_arrays],
                         ids=["max_subspace_in", "bitsets", "arrays"])
def test_full_group_is_the_unit_basis_with_no_search(monkeypatch, search):
    want = {n: reference_max_subspace(full_set(n)) for n in range(1, 9)}

    def no_search(*args):
        raise AssertionError("the full group was searched")

    monkeypatch.setattr(subspace, "_bitset_nodes", no_search)
    monkeypatch.setattr(subspace, "_array_nodes", no_search)
    for n in range(1, 9):
        assert search(full_set(n)).vectors == want[n] == tuple(1 << i for i in range(n))


def test_monotone_under_set_growth():
    rng = SplitMix64(15)
    d = make_set(7, [0])
    last = 0
    for _ in range(12):
        extra = [rng.below(128) for _ in range(10)]
        d = make_set(7, [*d.points(), *extra])
        dim = max_subspace_in(d).dim
        assert dim >= last
        last = dim
    assert max_subspace_in(full_set(7)).dim == 7


def test_full_groups_up_to_n16():
    for n in range(1, 17):
        r = max_subspace_in(full_set(n))
        assert r.dim == n
        assert r.vectors == tuple(1 << i for i in range(n))


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


def _odd_parity(x):
    """1 where the int64 x has an odd number of set bits, else 0."""
    for shift in (16, 8, 4, 2, 1):
        x = x ^ (x >> shift)
    return x & 1


def _some_u_odd_on_all(n, missing):
    """Brute force: whether some u in F_2^n has <u, m> = 1 for every m."""
    u = np.arange(1 << n, dtype=np.int64)
    ok = np.ones(1 << n, dtype=bool)
    for m in missing.tolist():
        ok &= _odd_parity(u & m) == 1
    return bool(ok.any())


def test_hyperplane_solve_matches_brute_force():
    for n in range(1, 5):
        # every nonempty missing set, decided for all masks at once: the
        # missing points with <u, m> = 1 form the mask odd[u]
        points = np.arange(1 << n, dtype=np.int64)
        odd = [int((_odd_parity(u & points) << points).sum()) for u in range(1 << n)]
        masks = np.arange(1, 1 << (1 << n), dtype=np.int64)
        expected = np.zeros(len(masks), dtype=bool)
        for mask_u in odd:
            expected |= (masks & ~mask_u) == 0
        for mask, want in zip(masks.tolist(), expected.tolist()):
            missing = points[(mask >> points & 1) == 1]
            assert subspace._hyperplane_avoids_all(n, missing) is want, (n, mask)
    # random complements at n = 10 and 16; half of them lie inside a
    # linear hyperplane, so the elimination never fills the rank
    rng = SplitMix64(47)
    for n in (10, 16):
        seen = set()
        for trial in range(40):
            missing = np.sort(np.array(rng.sample(1 << n, 1 + rng.below(48)), dtype=np.int64))
            if trial % 2:
                kernel_of = 1 + rng.below((1 << n) - 1)
                missing = missing[_odd_parity(missing & kernel_of) == 0]
                if not missing.size:
                    continue
            missing.flags.writeable = False  # as outside_points gives it
            want = _some_u_odd_on_all(n, missing)
            assert subspace._hyperplane_avoids_all(n, missing) is want, (n, missing.tolist())
            seen.add((trial % 2, want))
        assert seen == {(0, True), (0, False), (1, True), (1, False)}, (n, seen)


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
