"""Exact maximum-dimension linear subspace contained in a set.

The search enumerates each candidate subspace exactly once through its
canonical generating chain: the basis b_1 < b_2 < ... where every b_i is
the minimum of its coset modulo the span of the earlier vectors.  That
chain coincides with the reduced-echelon basis (pivots at the highest set
bits), so equal subspaces always surface with equal bases.

Each node of the search holds, for the chain B built so far:

* T = {x : x + span(B) inside D}, as a sorted point array, starting from
  D itself.  Extending B by v gives T' = {x in T : x + v in T}.  One
  int8 array over [0, 2^n) holds the T of every node on the current
  path (x lies in the T at depth k iff its level is >= k), so each
  membership test is one gather.
* A vector is the minimum of its coset modulo span(B) exactly when it is
  0 at every pivot of B (the pivot of b_i is its top bit).  The
  candidates are those coset minima in T above the last vector, so the
  children of v are the later candidates that are 0 at v's pivot, lie at
  positions >= 2^(pivot+1), and move into T when v is added.

The work at a node grows with |T| and its candidates, never with 2^n, so
sparse sets stay cheap at large n.

Pruning never affects correctness: the global cap dim <= log2 |D| (with
the hyperplane shortcut for near-full sets), and the subtree cap
dim <= depth + floor(log2(#candidates + 1)), valid because every nonzero
coset of a subtree subspace has its minimum in the candidate set.  The
children of every v with one pivot lie among the later candidates that
are 0 at that pivot, so the cap is first tried on that set, once per
pivot, and then on the exact children, found for a block of v at a time.

The depth-first search visits chains in ascending lexicographic order,
so the first chain reaching the best dimension is the lexicographically
least basis among all maximum-dimension subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .f2n import DenseSet, linear_subspace

SEARCH_DIM_CAP = 22  # CLI refuses exact search above this dimension


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


@dataclass(frozen=True)
class MaxSubspaceResult:
    basis: SubspaceBasis
    zero_in_set: bool  # False means the search never ran: 0 was missing

    @property
    def dim(self) -> int:
        return self.basis.dim


class _Stop(Exception):
    """Best possible dimension reached; unwind the whole search."""


_BLOCK = 1 << 16  # gathers per child-test block in _search; bounds its temporaries


def _search(t: np.ndarray, cands: np.ndarray, level: np.ndarray, basis: list[int], state: dict) -> None:
    """Depth-first over canonical chains extending ``basis``.

    ``cands`` are the vectors that may extend the chain, ascending, and
    ``t`` is the T of the parent node: most nodes are leaves, so a node
    narrows it to its own T only when it has candidates to try.
    """
    depth = len(basis)
    if depth > state["best_dim"]:
        state["best_dim"] = depth
        state["best_basis"] = tuple(basis)
        if depth >= state["dim_cap"]:
            raise _Stop
    if not len(cands):
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
        bound = (len(rest) + 1).bit_length()
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
                _search(t, rest[row], level, basis, state)
                basis.pop()
    if depth:
        level[t] = depth - 1


def _hyperplane_avoids_all(n: int, missing: np.ndarray) -> bool:
    """Whether some u has <u, m> = 1 for every missing point m.

    Such a u exists exactly when a dimension n-1 subspace (its kernel)
    avoids the whole complement, so this one Gaussian solve pins the
    maximum dimension of a near-full set to n-1 or at most n-2 without
    any search.
    """
    rows = ((missing[:, None] >> np.arange(n, dtype=np.int64)[None, :]) & 1).astype(np.uint8)
    aug = np.concatenate([rows, np.ones((len(missing), 1), dtype=np.uint8)], axis=1)
    pivot_row = 0
    for col in range(n):
        hits = np.flatnonzero(aug[pivot_row:, col]) + pivot_row
        if not hits.size:
            continue
        if hits[0] != pivot_row:
            aug[[pivot_row, hits[0]]] = aug[[hits[0], pivot_row]]
        others = np.flatnonzero(aug[:, col])
        others = others[others != pivot_row]
        if others.size:
            aug[others] ^= aug[pivot_row]
        pivot_row += 1
        if pivot_row == len(aug):
            break
    # inconsistent iff some row reads 0 ... 0 | 1
    return not bool((aug[:, :n].any(axis=1) == 0)[aug[:, n] == 1].any())


def max_subspace_in(d: DenseSet) -> MaxSubspaceResult:
    """A maximum-cardinality linear subspace contained in ``d``, exactly.

    If 0 is missing from the set no subspace fits at all; the result is
    dimension 0 with ``zero_in_set=False``.  Otherwise the returned basis
    spans a maximum-dimension subspace of ``d`` and is the
    lexicographically least canonical basis among all of them.
    """
    bits = d.bits
    if not bits[0]:
        return MaxSubspaceResult(SubspaceBasis(d.n, ()), zero_in_set=False)
    dim_cap = d.card.bit_length() - 1  # 2^dim <= |D| always
    if dim_cap >= d.n - 1:
        # near-full sets: one linear solve decides whether dimension n-1
        # is attainable, which is what otherwise forces a huge refutation
        # (below half density the cap is already at most n-2)
        missing = np.flatnonzero(bits == 0).astype(np.int64)
        if missing.size:
            dim_cap = min(dim_cap, d.n - 1 if _hyperplane_avoids_all(d.n, missing) else d.n - 2)
    state = {
        "best_dim": 0,
        "best_basis": (),
        "dim_cap": dim_cap,
    }
    points = d.points()
    level = bits.astype(np.int8) - 1  # members of D at level 0, the rest at -1
    try:
        _search(points, points[1:], level, [], state)
    except _Stop:
        pass
    return MaxSubspaceResult(SubspaceBasis(d.n, state["best_basis"]), zero_in_set=True)


def is_subspace_subset(d: DenseSet, vectors) -> bool:
    """Whether the span of ``vectors`` lies entirely inside ``d``."""
    return linear_subspace(d.n, vectors).subset_of(d)
