"""Core set algebra, generators, and the F2SET file format."""

import numpy as np
import pytest

from popdiff.f2n import (
    DenseSet,
    empty_set,
    f2set_dumps,
    f2set_loads,
    full_set,
    linear_subspace,
    make_set,
    niveau_set,
    random_set,
    read_set,
    set_sha256,
    sumset,
    write_set,
    xor_member_counts,
)
from popdiff.rng import SplitMix64
from popdiff.walsh import xor_pair_counts


def test_make_set_examples():
    a = make_set(2, [0, 1])
    assert a.card == 2
    assert str(a.density) == "1/2"
    assert make_set(3, []).card == 0
    assert make_set(2, [1, 1, 3]).card == 2  # duplicates collapse


def test_make_set_range_error():
    with pytest.raises(ValueError):
        make_set(2, [4])
    with pytest.raises(ValueError):
        make_set(2, [-1])


def test_dimension_validation():
    for bad in (0, 31, -3, "2"):
        with pytest.raises(ValueError):
            DenseSet(bad)
    assert DenseSet(1).size == 2


def test_random_set_contract():
    rng = SplitMix64(11)
    s = random_set(4, 8, rng)
    assert s.card == 8
    assert random_set(4, 0, SplitMix64(1)).card == 0
    assert random_set(4, 16, SplitMix64(1)) == full_set(4)
    with pytest.raises(ValueError):
        random_set(4, 17, SplitMix64(1))
    # deterministic given the seed
    assert random_set(6, 20, SplitMix64(5)) == random_set(6, 20, SplitMix64(5))
    assert random_set(6, 20, SplitMix64(5)) != random_set(6, 20, SplitMix64(6))


def test_translate_examples():
    a = make_set(2, [0, 1])
    assert a.translate(0) == a
    assert a.translate(2).point_list() == [2, 3]


def test_translate_involution_and_cardinality():
    rng = SplitMix64(3)
    for _ in range(10):
        a = random_set(4, rng.below(17), rng)
        for t in range(16):
            moved = a.translate(t)
            assert moved.card == a.card
            assert moved.translate(t) == a


def test_translate_matches_pointwise_xor():
    # n >= 13 views the bits as several rows, n = 19 as more than one
    # 64-row block; t moves the low bits, the high bits or both
    rng = SplitMix64(31)
    for n in (1, 5, 12, 13, 19):
        a = random_set(n, rng.below((1 << n) + 1), rng)
        pts = a.points()
        top = (1 << n) - 1
        for t in {0, 1, top, top >> 1, top ^ 1, 1 << (n - 1), rng.below(1 << n)}:
            assert np.array_equal(a.translate(t).points(), np.sort(pts ^ t))


def test_set_algebra():
    rng = SplitMix64(9)
    a = random_set(6, 30, rng)
    assert a.intersect(full_set(6)) == a
    assert a.intersect(a.complement()).card == 0
    assert a.union(a.complement()) == full_set(6)
    for _ in range(20):
        x = random_set(6, rng.below(65), rng)
        y = random_set(6, rng.below(65), rng)
        assert x.intersect(y).card + x.union(y).card == x.card + y.card


def test_dimension_mismatch_errors():
    a, b = empty_set(3), empty_set(4)
    for op in (a.intersect, a.union, a.subset_of):
        with pytest.raises(ValueError):
            op(b)
    with pytest.raises(ValueError):
        sumset(a, b)


def test_sumset_identities():
    rng = SplitMix64(17)
    b = random_set(5, 11, rng)
    assert sumset(empty_set(5), b).card == 0
    assert sumset(make_set(5, [0]), b) == b
    v = linear_subspace(5, [1, 6, 24])
    assert sumset(v, v) == v  # subspaces are closed under addition


def _pair_count_support(a, b):
    # the transform route to the sumset: the support of the XOR pair counts
    return DenseSet(a.n, xor_pair_counts(a.bits, b.bits) > 0)


def test_sumset_routes_agree_exhaustively_small():
    for n in (1, 2, 3):
        size = 1 << n
        sets = [make_set(n, [i for i in range(size) if (m >> i) & 1])
                for m in range(1 << size)]
        for a in sets:
            for b in sets:
                assert sumset(a, b) == _pair_count_support(a, b)


def test_sumset_routes_agree_random_n10():
    rng = SplitMix64(23)
    for _ in range(100):
        a = random_set(10, rng.below(1025), rng)
        b = random_set(10, rng.below(1025), rng)
        assert sumset(a, b) == _pair_count_support(a, b)


def test_xor_member_counts_matches_double_loop():
    rng = SplitMix64(41)
    for n in range(1, 7):
        member = random_set(n, rng.below((1 << n) + 1), rng)
        for k in (0, 1, rng.below((1 << n) + 1)):
            pts = np.asarray(rng.sample(1 << n, k), dtype=np.int64)
            expected = [sum(int(member.bits[x ^ y]) for y in pts) for x in pts]
            got = xor_member_counts(pts, member.bits)
            assert got.dtype == np.int64
            assert got.tolist() == expected


def test_xor_member_counts_matches_unblocked_gather():
    # 1100 rows: two full 512-row blocks and a partial one
    rng = SplitMix64(43)
    member = random_set(12, 2048, rng)
    pts = np.asarray(rng.sample(1 << 12, 1100), dtype=np.int64)[::-1].copy()
    expected = member.bits[pts[:, None] ^ pts[None, :]].sum(axis=1)
    assert np.array_equal(xor_member_counts(pts, member.bits), expected)


def test_linear_subspace_examples():
    assert linear_subspace(4, [1, 2]).point_list() == [0, 1, 2, 3]
    assert linear_subspace(4, []).point_list() == [0]
    assert linear_subspace(4, [1, 1]).point_list() == [0, 1]


def test_linear_subspace_closure_properties():
    rng = SplitMix64(31)
    for _ in range(20):
        basis = [rng.below(256) for _ in range(rng.below(5))]
        v = linear_subspace(8, basis)
        pts = v.point_list()
        assert 0 in v
        assert v.card & (v.card - 1) == 0  # power of two
        for x in pts[:8]:
            for y in pts[:8]:
                assert (x ^ y) in v


def test_niveau_set_examples():
    assert niveau_set(3, 0) == full_set(3)
    assert niveau_set(3, 3).point_list() == [7]
    # oracle: enumerate Hamming weights directly
    expected = [x for x in range(8) if bin(x).count("1") >= 2]
    assert niveau_set(3, 2).point_list() == expected == [3, 5, 6, 7]
    with pytest.raises(ValueError):
        niveau_set(3, 4)


def test_f2set_exact_bytes():
    # {0, 1, 7} at n=3: nibble 0 holds indices 0-3 -> 1+2=3, nibble 1 -> 8
    a = make_set(3, [0, 1, 7])
    assert f2set_dumps(a) == "F2SET v1 n=3\n38\n"
    # n=1: one character, two padding bits
    assert f2set_dumps(make_set(1, [1])) == "F2SET v1 n=1\n2\n"


def test_f2set_roundtrip_bit_exact(tmp_path):
    rng = SplitMix64(41)
    for n in (1, 2, 3, 4, 6, 10):
        for _ in range(5):
            a = random_set(n, rng.below((1 << n) + 1), rng)
            assert f2set_loads(f2set_dumps(a)) == a
            path = tmp_path / f"s{n}.set"
            write_set(a, path)
            assert read_set(path) == a
            assert set_sha256(a) == set_sha256(read_set(path))


@pytest.mark.parametrize(
    "text",
    [
        "F2SET v2 n=2\n0\n",            # bad version
        "F2SET v1 n=0\n0\n",             # dimension out of range
        "F2SET v1 n=2\n00\n",            # wrong payload length
        "F2SET v1 n=2\nzz\n",            # not hex
        "F2SET v1 n=2\nA\n",             # uppercase rejected
        "F2SET v1 n=1\n4\n",             # padding bit set
        "F2SET v1 n=2\n0\nextra\n",      # trailing junk
        "F2SET v1  n=2\n0\n",            # malformed header spacing
        "F2SET v1 n=0003\n0f\n",         # leading zeros in n
        "F2SET v1 n=3\n0f",              # no final newline
    ],
)
def test_f2set_rejections(text):
    with pytest.raises(ValueError):
        f2set_loads(text)


def test_operations_do_not_mutate_inputs():
    a = make_set(3, [1, 2])
    before = a.bits.copy()
    a.translate(5)
    a.complement()
    a.union(make_set(3, [7]))
    sumset(a, a)
    assert np.array_equal(a.bits, before)
