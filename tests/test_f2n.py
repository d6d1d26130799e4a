"""Core set algebra, generators, and the F2SET file format."""

import itertools
import tracemalloc

import numpy as np
import pytest

from popdiff.f2n import (
    DenseSet,
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


def test_random_set_is_the_sampled_points():
    # random_set marks the picks of sample() without sorting them
    shapes = SplitMix64(12)
    for _ in range(60):
        n = 1 + shapes.below(14)
        card = [0, 1 << n, shapes.below((1 << n) + 1)][shapes.below(3)]
        seed = shapes.next_u64()
        a = random_set(n, card, SplitMix64(seed))
        assert a == make_set(n, SplitMix64(seed).sample(1 << n, card)), (n, card, seed)
        assert a.card == card == int(np.count_nonzero(a.bits))
        assert a.bits.dtype == np.uint8 and a.bits.max(initial=0) <= 1


def test_random_set_peak_memory_per_point():
    n = 20
    tracemalloc.start()
    try:
        random_set(n, 1 << (n - 1), SplitMix64(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 << n


def test_translate_examples():
    a = make_set(2, [0, 1])
    assert a.translate(0) == a
    assert a.translate(2).points().tolist() == [2, 3]


def test_translate_involution_and_cardinality():
    rng = SplitMix64(3)
    for _ in range(10):
        a = random_set(4, rng.below(17), rng)
        for t in range(16):
            moved = a.translate(t)
            assert moved.card == a.card
            assert moved.translate(t) == a


def _packed(bits):
    return np.packbits(bits, bitorder="little")


def test_translate_matches_pointwise_xor():
    rng = SplitMix64(31)
    # every t for n <= 6, where for n < 3 one packed byte carries padding
    # bits that must stay zero
    for n in range(1, 7):
        a = random_set(n, rng.below((1 << n) + 1), rng)
        pts = a.points()
        for t in range(1 << n):
            moved = a.translate(t)
            assert np.array_equal(moved.points(), np.sort(pts ^ t))
            assert np.array_equal(moved.packed_bits(), _packed(moved.bits))
    # the packed bytes are rows of 512: n = 12 is one row, n = 13 two,
    # n = 19 two blocks of 64 rows; t & 7 takes every value 8 times
    for n in (12, 13, 19):
        a = random_set(n, rng.below((1 << n) + 1), rng)
        pts = a.points()
        top = (1 << n) - 1
        ts = [rng.below(1 << n) & ~7 | i % 8 for i in range(64)]
        for t in ts + [0, top, top >> 1, top ^ 1, 1 << (n - 1)]:
            assert np.array_equal(a.translate(t).points(), np.sort(pts ^ t))


def test_packed_bits_are_kept_read_only_and_never_shared():
    rng = SplitMix64(12)
    for n in (1, 2, 3, 9, 13):
        a = random_set(n, rng.below((1 << n) + 1), rng)
        packed = a.packed_bits()
        assert packed.dtype == np.uint8 and not packed.flags.writeable
        assert np.array_equal(packed, _packed(a.bits))
        assert a.packed_bits() is packed  # kept, not packed again
        for t in (0, rng.below(1 << n)):
            moved = a.translate(t)
            for arr in (moved.bits, moved.packed_bits()):
                assert not np.shares_memory(arr, packed)
                assert not np.shares_memory(arr, a.bits)
            assert not moved.packed_bits().flags.writeable


def test_f2set_dumps_packs_a_set_once(monkeypatch):
    a = random_set(10, 300, SplitMix64(8))
    calls = []
    packbits = np.packbits
    monkeypatch.setattr(np, "packbits", lambda *args, **kw: calls.append(1) or packbits(*args, **kw))
    text = f2set_dumps(a)
    assert f2set_dumps(a) == text and set_sha256(a) == set_sha256(a)
    assert len(calls) == 1
    assert f2set_loads(text) == a


def test_dimension_mismatch_errors():
    a, b = DenseSet(3), DenseSet(4)
    with pytest.raises(ValueError):
        a.subset_of(b)
    with pytest.raises(ValueError):
        sumset(a, b)


def test_sumset_identities():
    rng = SplitMix64(17)
    b = random_set(5, 11, rng)
    assert sumset(DenseSet(5), b).card == 0
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


def test_xor_member_counts_against_other_points():
    # counts[i] = #{y in others : points[i] XOR y is a member}, with the
    # rows in blocks of 512 (1100 rows: two full blocks and a partial one)
    rng = SplitMix64(42)
    for n, rows in ((6, 40), (12, 1100)):
        member = random_set(n, rng.below((1 << n) + 1), rng)
        pts = np.asarray(rng.sample(1 << n, rows), dtype=np.int64)
        for k in (0, 1, 7):
            others = np.asarray(rng.sample(1 << n, k), dtype=np.int64)
            expected = [sum(int(member.bits[x ^ y]) for y in others) for x in pts]
            assert xor_member_counts(pts, member.bits, others).tolist() == expected


def test_xor_member_counts_matches_unblocked_gather():
    # 1100 rows: two full 512-row blocks and a partial one
    rng = SplitMix64(43)
    member = random_set(12, 2048, rng)
    pts = np.asarray(rng.sample(1 << 12, 1100), dtype=np.int64)[::-1].copy()
    expected = member.bits[pts[:, None] ^ pts[None, :]].sum(axis=1)
    assert np.array_equal(xor_member_counts(pts, member.bits), expected)


def test_linear_subspace_examples():
    assert linear_subspace(4, [1, 2]).points().tolist() == [0, 1, 2, 3]
    assert linear_subspace(4, []).points().tolist() == [0]
    assert linear_subspace(4, [1, 1]).points().tolist() == [0, 1]


def test_linear_subspace_closure_properties():
    rng = SplitMix64(31)
    for _ in range(20):
        basis = [rng.below(256) for _ in range(rng.below(5))]
        v = linear_subspace(8, basis)
        pts = v.points().tolist()
        assert 0 in v
        assert v.card & (v.card - 1) == 0  # power of two
        for x in pts[:8]:
            for y in pts[:8]:
                assert (x ^ y) in v


def test_niveau_set_examples():
    assert niveau_set(3, 0) == full_set(3)
    assert niveau_set(3, 3).points().tolist() == [7]
    # oracle: enumerate Hamming weights directly
    expected = [x for x in range(8) if bin(x).count("1") >= 2]
    assert niveau_set(3, 2).points().tolist() == expected == [3, 5, 6, 7]
    with pytest.raises(ValueError):
        niveau_set(3, 4)


@pytest.mark.parametrize("n", [1, 2, 5, 15, 16, 17, 18])
def test_niveau_set_matches_hamming_weights(n):
    # from n = 17 on the weights are a sum of a high and a low 16-bit part
    idx = np.arange(1 << n)
    weights = sum((idx >> j) & 1 for j in range(n))
    for threshold in {0, 1, n // 2, n // 2 + 1, n - 1, n}:
        got = niveau_set(n, threshold)
        assert got.bits.dtype == np.uint8
        assert np.array_equal(got.bits, (weights >= threshold).astype(np.uint8)), threshold


def test_niveau_set_peak_memory_per_point():
    n = 20
    tracemalloc.start()
    try:
        niveau_set(n, n // 2 + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 << n


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
def test_f2set_rejections(text, tmp_path):
    with pytest.raises(ValueError):
        f2set_loads(text)
    path = tmp_path / "bad.set"
    path.write_bytes(text.encode("ascii"))
    with pytest.raises(ValueError):
        read_set(path)


# lowercase hex, then uppercase hex, ASCII whitespace (which bytes.fromhex
# skips), a letter beyond f and two non-ASCII look-alikes
_PAYLOAD_SYMBOLS = list("0123456789abcdef") + list("AF g\t\r\v\f") + ["é", "０"]


def _f2set_rule(n: int, payload: str) -> list[int] | None:
    """The points the format rule reads from a payload, or None when the
    rule refuses it: lowercase hex of max(1, 2^n / 4) characters, bit j of
    character i (least significant first) marking point 4i + j, with the
    bits from 2^n up zero."""
    if len(payload) != max(1, (1 << n) // 4) or not set(payload) <= set("0123456789abcdef"):
        return None
    bits = [(int(ch, 16) >> j) & 1 for ch in payload for j in range(4)]
    if any(bits[1 << n :]):
        return None
    return [p for p, bit in enumerate(bits) if bit]


def test_f2set_payload_strictness_follows_the_format_rule(tmp_path):
    # every payload of 0-3 characters at n = 1..3, and payloads of 4 at
    # n = 4 with whitespace between the byte pairs
    wide = [" 0f ", "0\t0f", "0f\r0", "\v0f0", "0f0\f", "0 f0", "0F0f", "0f0a", "ffff"]
    cases = [
        (n, "".join(chars))
        for n in (1, 2, 3)
        for k in range(4)
        for chars in itertools.product(_PAYLOAD_SYMBOLS, repeat=k)
    ] + [(4, payload) for payload in wide]
    accepted = 0
    for n, payload in cases:
        text = f"F2SET v1 n={n}\n{payload}\n"
        expected = _f2set_rule(n, payload)
        if expected is None:
            with pytest.raises(ValueError):
                f2set_loads(text)
            continue
        s = f2set_loads(text)
        assert s.n == n and s.points().tolist() == expected
        assert f2set_dumps(s) == text
        accepted += 1
    # every subset of F_2^n for n = 1..3, and the two hex-only wide payloads
    assert accepted == 4 + 16 + 256 + 2
    for payload in wide:  # files take the same path as texts
        path = tmp_path / "wide.set"
        path.write_bytes(f"F2SET v1 n=4\n{payload}\n".encode())
        if _f2set_rule(4, payload) is None:
            with pytest.raises(ValueError):
                read_set(path)
        else:
            assert read_set(path).points().tolist() == _f2set_rule(4, payload)


@pytest.mark.parametrize(
    "data",
    [
        b"F2SET v1 n=2\n\xff\n",       # not ASCII
        b"F2SET v1 n=\xff\n0\n",       # not ASCII in the header
        b"F2SET v1 n=2",               # header only, no newline
        b"",                           # empty file
        b"F2SET v1 n=2" + b" " * 40,   # header line longer than any valid one
    ],
)
def test_read_set_rejects_bytes_that_are_not_an_f2set_file(data, tmp_path):
    path = tmp_path / "bad.set"
    path.write_bytes(data)
    with pytest.raises(ValueError):
        read_set(path)


def test_read_set_refuses_a_file_of_the_wrong_size_before_its_payload(tmp_path):
    # a sparse file of 256 MB behind a valid n = 10 header
    path = tmp_path / "huge.set"
    with open(path, "wb") as f:
        f.write(b"F2SET v1 n=10\n")
        f.truncate(1 << 28)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="268435456 bytes, not the 271 of F2SET n=10"):
            read_set(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_operations_do_not_mutate_inputs():
    a = make_set(3, [1, 2])
    before = a.bits.copy()
    a.translate(5)
    sumset(a, a)
    assert np.array_equal(a.bits, before)


def test_outside_points_lists_the_complement_once():
    rng = SplitMix64(44)
    for n in (1, 5, 10):
        a = random_set(n, rng.below((1 << n) + 1), rng)
        outside = a.outside_points()
        assert outside.dtype == np.int64 and not outside.flags.writeable
        assert outside.tolist() == [x for x in range(1 << n) if x not in a]
        assert a.outside_points() is outside  # kept, not listed again
    # the whole group has nothing outside, and the empty set everything
    assert full_set(6).outside_points().tolist() == []
    assert DenseSet(6).outside_points().tolist() == list(range(64))
