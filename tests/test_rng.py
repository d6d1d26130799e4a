"""SplitMix64 against published outputs and the scalar sampling loop."""

import numpy as np
import pytest

from popdiff import rng as rng_module
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
        (3**20, 500), (2**63 + 12345, 200), (2**64 - 1, 100), (2**64, 200), (2**64, 1),
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
    # picks above 2^63 need the unsigned dtype; never mixed with int64
    big = SplitMix64(3).sample(2**64, 50)
    assert big.dtype == np.uint64 and big.max() >= 2**63
    with pytest.raises(ValueError):
        SplitMix64(0).sample(5, 6)
    with pytest.raises(ValueError):
        SplitMix64(0).sample(5, -1)
    with pytest.raises(ValueError):
        SplitMix64(0).sample(2**64 + 1, 1)
    assert SplitMix64(0).sample(2**70, 0).size == 0


def test_sample_random_shapes_against_scalar_loop():
    shapes = SplitMix64(21)
    for _ in range(200):
        universe = 1 + shapes.below(1 << (1 + shapes.below(40)))
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
    # not redraw the whole rest of the block
    universe, k = 2**63 + 12345, 5000
    mixed = []
    words = rng_module._words
    monkeypatch.setattr(rng_module, "_words", lambda state, count: mixed.append(count) or words(state, count))
    fast, slow = SplitMix64(7), _CountingSplitMix64(7)
    assert fast.sample(universe, k).tolist() == reference_sample(slow, universe, k)
    assert fast.next_u64() == slow.next_u64()
    assert slow.words > 1.8 * k  # the case is rejection-heavy
    assert sum(mixed) <= 4 * slow.words
