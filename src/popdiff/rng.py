"""Deterministic randomness for reproducible experiments.

Every randomized operation in this package draws from SplitMix64 (the
finalizer of java.util.SplittableRandom), seeded with an explicit 64-bit
integer.  The generator and the two derived draw procedures below are
small enough to re-implement from the description in FORMATS.md, so a
(seed, draw order) pair pins down every artifact byte for byte.

Draw procedures:

* ``below(m)``: uniform integer in [0, m) by rejection from the top of
  the 64-bit range (never biased, never rejects when m is a power of 2).
* ``sample(u, k)``: uniform k-element subset of range(u) via a sparse
  partial Fisher-Yates pass; returned sorted.

``sample`` draws its words as numpy uint64 vectors rather than one
``below`` call at a time, but it consumes the same stream: word t after
state s is mix(s + t * gamma) mod 2^64, and the vector rejection rule is
the scalar one, so the picks and the state afterwards are exactly those
of k scalar ``below`` calls.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_DRAW_BLOCK = 1 << 16  # steps per vector draw in sample(); bounds its temporaries


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
        """``below(b)`` for each b in ``bounds``, in order, as one vector
        draw; a bound of 0 stands for 2^64 (never rejects)."""
        wraps = bounds == 0
        divisors = np.where(wraps, np.uint64(1), bounds)
        # below() accepts u iff u < 2^64 - (2^64 mod b), i.e. u <= ~(2^64 mod b)
        accept_max = ~(-bounds % divisors)
        words = np.empty_like(bounds)
        done, window = 0, len(bounds)
        while done < len(bounds):
            u = _words(self._state, min(window, len(bounds) - done))
            rejected = np.flatnonzero(u > accept_max[done : done + len(u)])
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
        return np.where(wraps, words, words % divisors)

    def sample(self, universe: int, k: int) -> np.ndarray:
        """Uniform k-subset of range(universe), sorted ascending.

        Partial Fisher-Yates over an implicit identity array: step i
        draws j_i = i + below(universe - i), outputs the value in slot
        j_i and moves the value of slot i there.  Cost is O(k log k)
        regardless of universe size.  Returns int64, or uint64 when
        universe exceeds 2^63.
        """
        if not 0 <= k <= universe:
            raise ValueError(f"cannot sample {k} items from {universe}")
        if k and universe > 1 << 64:
            raise ValueError("bound exceeds the 64-bit draw range")
        # all arithmetic stays uint64 (mixing in int64 would give float64);
        # a bound of 2^64 wraps to 0
        targets = np.empty(k, dtype=np.uint64)
        for start in range(0, k, _DRAW_BLOCK):
            steps = np.arange(start, min(start + _DRAW_BLOCK, k), dtype=np.uint64)
            bounds = np.uint64(universe & _MASK64) - steps
            targets[start : start + len(steps)] = steps + self._below_many(bounds)
        picked = _resolve_swaps(targets)
        picked.sort()
        return picked.view(np.int64) if universe <= 1 << 63 else picked


def _resolve_swaps(j: np.ndarray) -> np.ndarray:
    """The values the Fisher-Yates pass with targets ``j`` outputs, in
    step order; overwrites ``j``.

    Step i outputs the value in slot j_i: the value the previous step
    with the same target moved there, or j_i itself.  Step i moves the
    value of slot i, V(i): V of the last earlier step whose target was
    i, or i itself.  Both lookups come from one stable sort by target;
    V follows its chains by pointer doubling.  Each k-length intermediate
    is dropped once spent, so the peak stays at a few of them (k = 2^21
    for a half-density set at n = 22).
    """
    k = len(j)
    order = np.argsort(j, kind="stable")
    sorted_j = j[order]
    # prev[i]: the last earlier step with target j_i, or -1
    prev = np.full(k, -1, dtype=np.int64)
    dup = np.flatnonzero(sorted_j[1:] == sorted_j[:-1])
    prev[order[dup + 1]] = order[dup]
    del dup
    # origin[i]: the last step targeting i, or i itself.  That step is
    # earlier than i unless it is i; then V(i) is never read, because the
    # value it moves stays in slot i and later steps target higher slots.
    steps = np.arange(k, dtype=np.uint64)
    last = np.searchsorted(sorted_j, steps, side="right")
    last -= 1
    hit = sorted_j[last] == steps  # last = -1 reads the largest target, > i
    del sorted_j, steps
    origin = np.arange(k, dtype=np.int64)
    origin[hit] = order[last[hit]]
    del order, last, hit
    while True:
        nxt = origin[origin]
        if np.array_equal(nxt, origin):
            break
        origin = nxt
    moved = np.flatnonzero(prev >= 0)
    j[moved] = origin[prev[moved]]
    return j
