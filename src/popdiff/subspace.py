"""Exact maximum-dimension linear subspace contained in a set.

The search enumerates each candidate subspace exactly once through its
canonical generating chain: the basis b_1 < b_2 < ... where every b_i is
the minimum of its coset modulo the span of the earlier vectors.  That
chain coincides with the reduced-echelon basis (pivots at the highest set
bits), so equal subspaces always surface with equal bases.

Each node of the search holds, for the chain B built so far:

* T = {x : x + span(B) inside D}, starting from D itself.  Extending B
  by v gives T' = {x in T : x + v in T}.
* A vector is the minimum of its coset modulo span(B) exactly when it is
  0 at every pivot of B (the pivot of b_i is its top bit).  The
  candidates are those coset minima in T above the last vector, so the
  children of v are the later candidates that are 0 at v's pivot, lie at
  positions >= 2^(pivot+1), and lie in T'.

A node holds T and its candidates in one of two representations, with
one chain order and one set of caps:

* Bitsets, for n <= BITSET_MAX_N = 12: D, T and the candidates are
  Python ints of 2^n bits, bit x set for the point x.  The translate
  T + v is one swap of bit blocks of length 2^j for each bit j of v, so
  T' = T & (T + v) and the children (the later candidates masked to
  T') take a few big-int operations, and counts are ``int.bit_count``.
* Sorted point arrays, above that: one int8 array over [0, 2^n) holds
  the T of every node on the current path (x lies in the T at depth k
  iff its level is >= k), so each membership test is one gather.  The
  work at a node grows with |T| and its candidates, never with 2^n, so
  sparse sets stay cheap at large n.

The rule n <= 12 is where bitsets stop winning.  Both representations
return the same basis; best of 5 (2 vCPU Xeon, Python 3.11, numpy 2.4),
bitsets against arrays on D_1(A) of a random half-density A: 1.0 against
2.5 ms at n = 10, 30 against 44 ms at n = 12, 490 against 372 ms at
n = 13; on a random half-density set with 0 added: 6.0 against 16.5 ms
at n = 10, 43 against 77 ms at n = 12, 662 against 404 ms at n = 13; on
2^10 random points with 0 added: 20 against 7.4 ms at n = 13 and 137
against 1.6 ms at n = 18, where the bitsets' 2^n-bit operations swamp a
sparse set.

Pruning never affects correctness, because every cap below is exact:

* Global caps, set before the search.  2^dim <= |D|, and dim <= the
  largest Hamming weight in D: the sum of a subspace's echelon basis has
  a 1 at every pivot, so a k-dimensional subspace holds a point of
  weight >= k.  The weights are counted only when D's largest point
  weighs less than the first cap.  Near-full sets take the hyperplane
  shortcut, and the full group needs no search at all.
* The pivot-count cap on a subtree.  Let C be a node's candidates and
  cap(C) the length of the longest run of pivots p_1 < ... < p_e such
  that C holds at least 2^(i-1) vectors with top bit p_i.  Take any
  extension v_1 < ... < v_e in the subtree.  It spans an M whose
  nonzero points are coset minima modulo span(B) that lie in T above
  the last vector, so they all lie in C.  The v_i are M's
  reduced-echelon basis, with pivots p_1 < ... < p_e, and exactly
  2^(i-1) points of M have top bit p_i.  So e <= cap(C).  A run of
  length e asks for 1 + 2 + ... + 2^(e-1) = 2^e - 1 vectors of C, so
  cap(C) <= floor(log2(|C|+1)), the count cap.  The count cap is free
  and tried first.  The pivot-count cap counts C's vectors per top bit
  (one searchsorted against the powers of two, or one masked
  ``bit_count`` per bit) and takes a greedy pass in ascending pivot
  order, so it is taken only when the count cap does not prune and the
  best found needs a chain of length >= 1.

The children of every v with one pivot lie among the later candidates
that are 0 at that pivot, so the caps are tried at each node, on that
set once per pivot, and on the exact children of each v (found for a
block of v at a time on arrays).

The depth-first search visits chains in ascending lexicographic order,
so the first chain reaching the best dimension is the lexicographically
least basis among all maximum-dimension subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .f2n import DenseSet

SEARCH_DIM_CAP = 22  # CLI refuses exact search above this dimension
BITSET_MAX_N = 12  # bitset nodes up to here, sorted-array nodes above


@dataclass(frozen=True)
class SubspaceBasis:
    """Independent vectors in canonical (reduced echelon) order."""

    n: int
    vectors: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @property
    def cardinality(self) -> int:
        return 1 << self.dim


class _Stop(Exception):
    """Best possible dimension reached; unwind the whole search."""


_BLOCK = 1 << 16  # gathers per child-test block in _array_nodes; bounds its temporaries
_POWERS = np.int64(1) << np.arange(63, dtype=np.int64)
_BYTE_WEIGHTS = np.array([bin(b).count("1") for b in range(256)], dtype=np.int8)


def _pivot_cap(cands: np.ndarray) -> int:
    """Largest e with pivots p_1 < ... < p_e such that ``cands`` (sorted,
    nonzero) holds at least 2^(i-1) vectors with top bit p_i.

    A greedy pass in ascending pivot order finds it: taking the first
    pivot that can fill the next place never shortens the run, since the
    count needed only grows along it.
    """
    top = int(cands[-1]).bit_length() if len(cands) else 0
    ends = cands.searchsorted(_POWERS[: top + 1]).tolist()
    cap = 0
    for lo, hi in zip(ends, ends[1:]):
        if (hi - lo) >> cap:
            cap += 1
    return cap


def _bitset_pivot_cap(cands: int, top_bit: list[int]) -> int:
    """``_pivot_cap`` of ``cands``, a bitset without bit 0, by the same
    greedy pass; ``top_bit`` is the second list of ``_bitset_masks(n)``."""
    cap = 0
    for mask in top_bit[: (cands.bit_length() - 1).bit_length()]:
        if (cands & mask).bit_count() >> cap:
            cap += 1
    return cap


def _chain_cap(count: int, to_beat: int, pivot_cap, *args) -> int:
    """A cap on the length of a chain drawn from ``count`` vectors C: the
    count cap floor(log2(count + 1)), or the pivot-count cap
    ``pivot_cap(*args)`` when the count cap exceeds ``to_beat`` and the
    pivot-count cap (at least 1 for any nonempty C) could still be at
    most ``to_beat``."""
    count_cap = (count + 1).bit_length() - 1
    if count_cap <= to_beat or to_beat < 1:
        return count_cap
    return pivot_cap(*args)


def _record(basis: list[int], state: dict) -> None:
    """Keep ``basis`` if it is the longest chain so far; stop the search
    when its length reaches the global cap."""
    if len(basis) > state["best_dim"]:
        state["best_dim"] = len(basis)
        state["best_basis"] = tuple(basis)
        if len(basis) >= state["dim_cap"]:
            raise _Stop


def _array_nodes(t: np.ndarray, cands: np.ndarray, level: np.ndarray, basis: list[int],
                 state: dict) -> None:
    """Depth-first over canonical chains extending ``basis``, on sorted
    point arrays.

    ``cands`` are the vectors that may extend the chain, ascending, and
    ``t`` is the T of the parent node: most nodes are leaves, so a node
    narrows it to its own T only when it has candidates to try.
    """
    _record(basis, state)
    depth = len(basis)
    to_beat = state["best_dim"] - depth
    if not len(cands) or _chain_cap(len(cands), to_beat, _pivot_cap, cands) <= to_beat:
        return
    if depth:
        t = t[level[t ^ basis[-1]] >= depth - 1]
        level[t] = depth
    start = 0
    while start < len(cands):
        pivot = int(cands[start]).bit_length() - 1
        end = int(cands.searchsorted(2 << pivot))
        if depth + (len(cands) - end + 1).bit_length() <= state["best_dim"]:
            break  # no v from here on has enough later candidates
        group, rest = cands[start:end], cands[end:]
        start = end
        rest = rest[(rest >> pivot & 1) == 0]
        bound = 1 + _chain_cap(len(rest), state["best_dim"] - depth - 1, _pivot_cap, rest)
        step = max(1, _BLOCK // max(1, len(rest)))
        for lo in range(0, len(group), step):
            if depth + bound <= state["best_dim"]:
                break  # subtree cannot exceed the best found, for any v left in the group
            block = group[lo : lo + step]
            inside = level[rest ^ block[:, None]] >= depth  # row i: the children of block[i]
            for v, row, size in zip(block.tolist(), inside, inside.sum(axis=1).tolist()):
                if depth + (size + 1).bit_length() <= state["best_dim"]:
                    continue  # subtree cannot exceed the best found
                basis.append(v)
                _array_nodes(t, rest[row], level, basis, state)
                basis.pop()
    if depth:
        level[t] = depth - 1


def _bitset_masks(n: int) -> tuple[list[int], list[int]]:
    """Bitsets over F_2^n, entry j of each list for j < n: the x whose bit
    j is 0 (the blocks of h = 2^j ones at every other h bits, that is
    (2^(2^n) - 1) / (2^h + 1)), and the x whose top bit is j."""
    full = (1 << (1 << n)) - 1
    zero_at = [full // ((1 << (1 << j)) + 1) for j in range(n)]
    top_bit = [((1 << (1 << j)) - 1) << (1 << j) for j in range(n)]
    return zero_at, top_bit


def _translate(t: int, v: int, zero_at: list[int]) -> int:
    """The bitset ``t`` translated by ``v``: bit x moves to x + v."""
    j = 0
    while v:
        if v & 1:
            half, zero = 1 << j, zero_at[j]
            t = (t & zero) << half | (t >> half) & zero
        v >>= 1
        j += 1
    return t


def _bitset_nodes(t: int, cands: int, basis: list[int], state: dict,
                  masks: tuple[list[int], list[int]]) -> None:
    """Depth-first over canonical chains extending ``basis``, on bitsets:
    ``t`` is the node's T, ``cands`` its candidates and ``masks`` is
    ``_bitset_masks(n)``."""
    _record(basis, state)
    depth = len(basis)
    to_beat = state["best_dim"] - depth
    count = cands.bit_count()
    if not count or _chain_cap(count, to_beat, _bitset_pivot_cap, cands, masks[1]) <= to_beat:
        return
    while cands:
        pivot = ((cands & -cands).bit_length() - 1).bit_length() - 1
        group = cands & ((1 << (2 << pivot)) - 1)
        cands ^= group
        if depth + (cands.bit_count() + 1).bit_length() <= state["best_dim"]:
            break  # no v from here on has enough later candidates
        rest = cands & masks[0][pivot]
        bound = 1 + _chain_cap(rest.bit_count(), state["best_dim"] - depth - 1,
                               _bitset_pivot_cap, rest, masks[1])
        while group and depth + bound > state["best_dim"]:
            low = group & -group
            group ^= low
            v = low.bit_length() - 1
            child = t & _translate(t, v, masks[0])
            kids = rest & child  # rest lies in t, so these are the later candidates in T'
            if depth + (kids.bit_count() + 1).bit_length() <= state["best_dim"]:
                continue  # subtree cannot exceed the best found
            basis.append(v)
            _bitset_nodes(child, kids, basis, state, masks)
            basis.pop()


def _array_root(d: DenseSet, points: np.ndarray, state: dict) -> None:
    level = d.bits.astype(np.int8) - 1  # members of D at level 0, the rest at -1
    _array_nodes(points, points[1:], level, [], state)


def _bitset_root(d: DenseSet, points: np.ndarray, state: dict) -> None:
    t = int.from_bytes(d.packed_bits().tobytes(), "little")
    _bitset_nodes(t, t ^ 1, [], state, _bitset_masks(d.n))


def _hyperplane_avoids_all(n: int, missing: np.ndarray) -> bool:
    """Whether some u has <u, m> = 1 for every missing point m.

    Such a u exists exactly when a dimension n-1 subspace (its kernel)
    avoids the whole complement, so this one Gaussian solve pins the
    maximum dimension of a near-full set to n-1 or at most n-2 without
    any search.

    Each equation <u, m> = 1 is the int64 bit row m + 2^n, its right-hand
    side in bit n.  For each column the first row holding it is XORed
    into every row holding it, itself included: x_col then appears in no
    other row, so it can always satisfy that row, which drops out as 0.
    The system has no solution exactly when a row reads 0 = 1, i.e. 2^n,
    and has one as soon as every row is 0.
    """
    rows = missing | np.int64(1 << n)
    for col in range(n):
        has = np.flatnonzero(rows & (1 << col))
        if has.size:
            rows[has] ^= rows[has[0]]
            if not rows.any():
                return True
    return not (rows == 1 << n).any()


def _max_weight(points: np.ndarray) -> int:
    """Largest Hamming weight of the (sorted, nonempty) ``points``."""
    weights = _BYTE_WEIGHTS[points & 255]
    for shift in range(8, int(points[-1]).bit_length(), 8):
        weights = weights + _BYTE_WEIGHTS[points >> shift & 255]
    return int(weights.max())


def max_subspace_in(d: DenseSet) -> SubspaceBasis:
    """The basis of a maximum-cardinality linear subspace contained in
    ``d``, exactly.

    If 0 is missing from the set no subspace fits at all, and the basis
    is empty, as it is when {0} is the largest.  Otherwise the basis
    spans a maximum-dimension subspace of ``d`` and is the
    lexicographically least canonical basis among all of them.
    """
    return _max_subspace(d, _bitset_root if d.n <= BITSET_MAX_N else _array_root)


def _max_subspace(d: DenseSet, root) -> SubspaceBasis:
    """``max_subspace_in`` with its search started by ``root``, one of
    ``_bitset_root`` and ``_array_root``."""
    if not d.bits[0]:
        return SubspaceBasis(d.n, ())
    if d.card == d.size:
        return SubspaceBasis(d.n, tuple(1 << i for i in range(d.n)))
    points = d.points()
    dim_cap = d.card.bit_length() - 1  # 2^dim <= |D| always
    if int(points[-1]).bit_count() < dim_cap:  # else the weight cap cannot be lower
        dim_cap = min(dim_cap, _max_weight(points))
    if dim_cap >= d.n - 1:
        # near-full sets: one linear solve decides whether dimension n-1
        # is attainable, which is what otherwise forces a huge refutation
        # (below half density the cap is already at most n-2); some point
        # is missing, since the full group returned above
        dim_cap = min(dim_cap, d.n - 1 if _hyperplane_avoids_all(d.n, d.outside_points())
                      else d.n - 2)
    state = {
        "best_dim": 0,
        "best_basis": (),
        "dim_cap": dim_cap,
    }
    try:
        root(d, points, state)
    except _Stop:
        pass
    return SubspaceBasis(d.n, state["best_basis"])
