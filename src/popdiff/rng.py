"""Deterministic randomness for reproducible experiments.

Every randomized operation in this package draws from SplitMix64 (the
finalizer of java.util.SplittableRandom), seeded with an explicit 64-bit
integer.  The generator and the two derived draw procedures below are
small enough to re-implement from the description in FORMATS.md, so a
(seed, draw order) pair pins down every artifact byte for byte.

Draw procedures:

* ``below(m)``: uniform integer in [0, m) by rejection from the top of
  the 64-bit range (never biased, never rejects when m is a power of 2).
* ``sample(u, k)``: uniform k-element subset of range(u), u <= 2^31, via
  a sparse partial Fisher-Yates pass; returned sorted.  Every caller
  samples inside F_2^n with n <= 30.  ``sample_bits(u, k)`` is the same
  draw as u membership bytes, which ``f2n.random_set`` wraps.

``sample`` draws its words as numpy uint64 vectors rather than one
``below`` call at a time, but it consumes the same stream: word t after
state s is mix(s + t * gamma) mod 2^64, and the vector rejection rule is
the scalar one, so the picks and the state afterwards are exactly those
of k scalar ``below`` calls.  The exact rule, with its modulo, runs only
on the rare words that some bound in the block could reject.  Nor does
it run the Fisher-Yates pass step by step: ``_resolve_swaps`` reads
which value every step outputs from one in-place sort of packed (target,
step) keys, in O(k log k) time and about two k-word arrays of memory.
It leaves the picks unsorted: ``sample`` sorts them, ``sample_bits``
marks them.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_DRAW_BLOCK = 1 << 16  # steps per vector pass in sample(); bounds its temporaries
_MAX_UNIVERSE = 1 << 31  # a target and a step index share one uint64


def _words(state: int, count: int) -> np.ndarray:
    """The next ``count`` outputs after ``state``, as uint64 (wrapping)."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(state)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


class SplitMix64:
    """64-bit-state PRNG with a fully documented update rule."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        if bound > 1 << 64:
            raise ValueError("bound exceeds the 64-bit draw range")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound

    def _below_many(self, bounds: np.ndarray) -> np.ndarray:
        """``below(b)`` for each positive uint64 b in ``bounds``, in order,
        as one vector draw."""
        # below() accepts u iff u <= ~(2^64 mod b); as 2^64 mod b < b, it
        # accepts every u below 2^64 - max(bounds), so only the words from
        # there up need the exact test and its modulo
        sure = np.uint64((1 << 64) - int(bounds.max()))
        words = np.empty_like(bounds)
        done, window = 0, len(bounds)
        while done < len(bounds):
            u = _words(self._state, min(window, len(bounds) - done))
            high = np.flatnonzero(u >= sure)
            b = bounds[done + high]
            rejected = high[u[high] > ~(-b % b)]
            take = int(rejected[0]) if rejected.size else len(u)
            words[done : done + take] = u[:take]
            # a rejected word is consumed; the draws after it are redrawn in
            # a window twice the run just accepted, so the words mixed stay
            # within a constant factor of those consumed however often
            # words are rejected
            used = take + 1 if rejected.size else take
            self._state = (self._state + used * _GAMMA) & _MASK64
            done += take
            window = 2 * take + 1
        words %= bounds
        return words

    def _picks(self, universe: int, k: int) -> np.ndarray:
        """The k values the partial Fisher-Yates pass outputs, distinct,
        as uint64 in ``_resolve_swaps``'s order."""
        if not 0 <= k <= universe <= _MAX_UNIVERSE:
            raise ValueError(
                f"cannot sample {k} items from {universe} (need 0 <= k <= universe <= 2^31)"
            )
        # all arithmetic stays uint64 (mixing in int64 would give float64)
        targets = np.empty(k, dtype=np.uint64)
        for start in range(0, k, _DRAW_BLOCK):
            block = targets[start : start + _DRAW_BLOCK]
            block[:] = np.arange(start, start + len(block), dtype=np.uint64)
            block += self._below_many(np.uint64(universe) - block)
        return _resolve_swaps(targets)

    def sample(self, universe: int, k: int) -> np.ndarray:
        """Uniform k-subset of range(universe), sorted ascending, as int64;
        requires 0 <= k <= universe <= 2^31.

        Partial Fisher-Yates over an implicit identity array: step i
        draws j_i = i + below(universe - i), outputs the value in slot
        j_i and moves the value of slot i there (``_resolve_swaps``).
        Cost is O(k log k) regardless of universe size.
        """
        picks = self._picks(universe, k)
        picks.sort()
        return picks.view(np.int64)

    def sample_bits(self, universe: int, k: int) -> np.ndarray:
        """The draw of ``sample(universe, k)`` as a uint8 vector of length
        universe: 1 at the k picks, 0 elsewhere.  Same requirements, same
        stream consumed; the picks are marked as the resolver leaves them,
        with no sort."""
        picks = self._picks(universe, k)
        bits = np.zeros(universe, dtype=np.uint8)
        bits[picks.view(np.int64)] = 1
        return bits


def _resolve_swaps(j: np.ndarray) -> np.ndarray:
    """The values the Fisher-Yates pass with targets ``j`` outputs, written
    over ``j``: distinct, in no particular order.

    Step i outputs the value in slot j_i: j_i itself if no earlier step
    targeted j_i, else V of the last earlier step that did, where V(s) is
    the value in slot s when step s runs (the value step s moves to its
    target).  V(s) is s unless an earlier step targeted slot s; then it is
    V of the last such step, which is earlier than s.

    Both lookups come from one in-place sort of the packed keys
    ``j_i << bit_length(k) | i``, written over ``j``: the keys are unique,
    so any sort, stable or not, orders them the same way, into runs of
    equal targets in step order.  The first step of a run outputs its
    target; every later one outputs V of the step before it in the run.
    The last step t of each run whose target s is below k links V(s) to
    V(t); V follows these links to a step no earlier step targeted, by
    pointer doubling over the linked slots only.  Only the set of outputs
    is kept, so each run's outputs may go to its keys in any order: the
    key of each step with a repeat after it takes the V that repeat
    outputs, and the run's last key is shifted down to its target.
    Beside ``j`` the peak holds a k-entry int32 array for V, k repeat
    flags and a few shorter arrays: about 2.1 k-words in all, ``j``
    included, at universe = 2k.

    Targets must be below 2^31 (``sample``'s bound on the universe), so a
    target and a step index, at most 32 bits, fit in one uint64 key, and a
    step index fits in int32.
    """
    k = len(j)
    if not k:
        return j
    shift = k.bit_length()
    low, step_mask = np.uint64(shift), np.uint64((1 << shift) - 1)
    for start in range(0, k, _DRAW_BLOCK):
        block = j[start : start + _DRAW_BLOCK]
        block <<= low
        block |= np.arange(start, start + len(block), dtype=np.uint64)
    j.sort()
    # repeat[i]: key i + 1 has the target of key i (the last flag stays off)
    repeat = np.zeros(k, dtype=bool)
    for start in range(0, k - 1, _DRAW_BLOCK):
        end = min(start + _DRAW_BLOCK, k - 1)
        np.less_equal(j[start + 1 : end + 1] ^ j[start:end], step_mask, out=repeat[start:end])
    # the keys with a target below k are a prefix; the last step of each
    # of its runs gives V(target) = V(step)
    head = np.searchsorted(j, np.uint64(k << shift))
    ends = j[np.flatnonzero(~repeat[:head])]
    slots = (ends >> low).astype(np.int32)
    ends &= step_mask
    links = ends.astype(np.int32)
    del ends
    # a run that ends in its own slot's step links that slot to itself,
    # which leaves V of it wrong but unread: no later step targets it
    values = np.arange(k, dtype=np.int32)  # V
    values[slots] = links
    while True:
        jumped = values[links]
        moving = jumped != links
        if not moving.any():
            break
        slots, links = slots[moving], jumped[moving]
        values[slots] = links
    del slots, links, jumped, moving
    before = np.flatnonzero(repeat)  # the keys with a repeat after them
    del repeat
    moved = j[before]
    moved &= step_mask
    moved = values[moved.view(np.int64)]
    del values
    j >>= low
    j[before] = moved
    return j
