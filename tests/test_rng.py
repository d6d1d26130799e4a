"""SplitMix64 against published outputs and the scalar sampling loop."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from popdiff import rng as rng_module
from popdiff.cli import main
from popdiff.rng import SplitMix64

from conftest import reference_sample


def test_known_answers_seed_zero():
    rng = SplitMix64(0)
    words = [rng.next_u64() for _ in range(3)]
    assert words == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@pytest.mark.parametrize(
    "universe, k",
    [
        (1, 0), (1, 1), (10, 0), (10, 10), (7, 3), (1001, 999), (4097, 2048),
        (3**19, 500), (2**30 + 12345, 200), (2**31 - 1, 100), (2**31, 200), (2**31, 1),
        # k near the universe gives the longest chains of V links
        (2**14, 2**14), (2**14 + 1, 2**14), (2**15 + 1, 2**15), (3 * 2**15, 2**15),
        (2**16, 2**16), (2**17, 2**16),
    ],
)
def test_sample_matches_scalar_loop_and_stream_position(universe, k):
    for seed in (0, 1, 2**64 - 1):
        fast, slow = SplitMix64(seed), SplitMix64(seed)
        got = fast.sample(universe, k)
        assert isinstance(got, np.ndarray)
        assert got.tolist() == reference_sample(slow, universe, k), seed
        # the vector draw leaves the generator where the scalar loop does
        assert fast.next_u64() == slow.next_u64(), seed


def test_sample_dtype_and_validation():
    assert SplitMix64(3).sample(1 << 20, 1000).dtype == np.int64
    top = SplitMix64(3).sample(2**31, 50)
    assert top.dtype == np.int64 and top.max() >= 2**30
    with pytest.raises(ValueError):
        SplitMix64(0).sample(5, 6)
    with pytest.raises(ValueError):
        SplitMix64(0).sample(5, -1)
    with pytest.raises(ValueError):
        SplitMix64(0).sample(2**31 + 1, 1)
    with pytest.raises(ValueError):
        SplitMix64(0).sample(2**70, 0)
    assert SplitMix64(0).sample(2**31, 0).size == 0
    for universe, k in ((5, 6), (5, -1), (2**31 + 1, 1)):
        with pytest.raises(ValueError):
            SplitMix64(0).sample_bits(universe, k)


def test_sample_random_shapes_against_scalar_loop():
    shapes = SplitMix64(21)
    for _ in range(200):
        universe = 1 + shapes.below(1 << (1 + shapes.below(31)))
        k = shapes.below(min(universe, 300) + 1)
        seed = shapes.next_u64()
        fast, slow = SplitMix64(seed), SplitMix64(seed)
        assert fast.sample(universe, k).tolist() == reference_sample(slow, universe, k)
        assert fast.next_u64() == slow.next_u64()


class _CountingSplitMix64(SplitMix64):
    __slots__ = ("words",)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.words = 0

    def next_u64(self) -> int:
        self.words += 1
        return super().next_u64()


def test_sample_mixes_few_words_beyond_those_it_consumes(monkeypatch):
    # near 2^63 about half of all words are rejected; each rejection must
    # not redraw the whole rest of the block.  sample() draws below bounds
    # of at most 2^31, which almost never reject, so its vector draw is
    # checked on its own.
    bounds = [2**63 + 12345 - i for i in range(5000)]
    mixed = []
    words = rng_module._words
    monkeypatch.setattr(rng_module, "_words", lambda state, count: mixed.append(count) or words(state, count))
    fast, slow = SplitMix64(7), _CountingSplitMix64(7)
    got = fast._below_many(np.array(bounds, dtype=np.uint64))
    assert got.tolist() == [slow.below(b) for b in bounds]
    assert fast.next_u64() == slow.next_u64()
    assert slow.words > 1.8 * len(bounds)  # the case is rejection-heavy
    assert sum(mixed) <= 4 * slow.words


def _swap_loop(targets: list[int]) -> list[int]:
    """The sorted outputs of Fisher-Yates steps with the given targets."""
    slots: dict[int, int] = {}
    out = []
    for i, j in enumerate(targets):
        out.append(slots.get(j, j))
        slots[j] = slots.get(i, i)
    return sorted(out)


def _check_resolved(targets: list[int]) -> None:
    """The resolver's picks are the loop's outputs, each once: ``sample``
    returns them sorted and ``sample_bits`` marks them, so both outputs
    follow, and the marks number exactly len(targets)."""
    got = rng_module._resolve_swaps(np.array(targets, dtype=np.uint64))
    assert got.dtype == np.uint64
    assert sorted(got.tolist()) == _swap_loop(targets), targets


def test_resolve_swaps_repeated_large_targets():
    # targets near the 2^31 bound, repeated, mixed with targets below k:
    # random draws from a 2^31 universe almost never repeat one
    draws = SplitMix64(3)
    for _ in range(400):
        k = 1 + draws.below(40)
        large = [2**31 - 1 - draws.below(3) for _ in range(3)] + [2**30 + draws.below(5)]
        targets: list[int] = []
        for i in range(k):
            kind = draws.below(4)
            if kind == 0:
                targets.append(large[draws.below(len(large))])
            elif kind == 1:
                targets.append(i + draws.below(k - i + 2))
            elif kind == 2 and targets:
                targets.append(max(i, targets[draws.below(len(targets))]))
            else:
                targets.append(i)
        _check_resolved(targets)


def test_resolve_swaps_crafted_cases():
    cases = [
        [0], [5], [2**31 - 1], [1, 1], [2**31 - 1, 2**31 - 1], [1, 2, 3, 3],
        [3, 3, 3, 3], [2**30, 2**30, 2, 2**30 + 1, 2**30], [1, 2, 2, 2**31 - 1, 2**31 - 1],
    ]
    for targets in cases:
        _check_resolved(targets)


@pytest.mark.parametrize(
    "universe, k",
    [(1, 0), (1, 1), (2, 2), (10, 0), (10, 10), (7, 3), (4097, 2048), (3**9, 500),
     (2**16, 2**16), (2**16 + 1, 2**16), (2**17, 2**16), (2**20, 3)],
)
def test_sample_bits_marks_the_scalar_loops_picks(universe, k):
    for seed in (0, 1, 2**64 - 1):
        fast, slow = SplitMix64(seed), SplitMix64(seed)
        got = fast.sample_bits(universe, k)
        want = np.zeros(universe, dtype=np.uint8)
        want[reference_sample(slow, universe, k)] = 1
        assert got.dtype == np.uint8 and np.array_equal(got, want), seed
        assert fast.next_u64() == slow.next_u64(), seed


def test_sample_bits_random_shapes_against_scalar_loop():
    shapes = SplitMix64(22)
    for _ in range(200):
        universe = 1 + shapes.below(1 << (1 + shapes.below(14)))
        k = [0, universe, shapes.below(universe + 1)][shapes.below(3)]
        seed = shapes.next_u64()
        fast, slow = SplitMix64(seed), SplitMix64(seed)
        want = np.zeros(universe, dtype=np.uint8)
        want[reference_sample(slow, universe, k)] = 1
        assert np.array_equal(fast.sample_bits(universe, k), want), (universe, k, seed)
        assert fast.next_u64() == slow.next_u64()


@pytest.mark.parametrize(
    "n, seed, digest",
    [
        (22, 1, "cc34574cd137d3558d5fc6b112b2ac746d629fdb05ba060f65a1f564ef1ae0f4"),
        (20, 2, "2f4bfa6f4df9c28c18aea51d57fe035f25668b6ec9648e1055b6516f2c6351b1"),
    ],
)
def test_gen_random_half_density_golden_digest(tmp_path, n, seed, digest):
    out = tmp_path / "A.set"
    assert main(["gen", "--n", str(n), "--family", "random", "--alpha", "1/2",
                 "--seed", str(seed), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_sample_peak_memory_is_a_few_words_per_pick():
    k = 1 << 19
    tracemalloc.start()
    try:
        SplitMix64(5).sample(1 << 20, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * 8 * k
