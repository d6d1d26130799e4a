"""Exact maximum-dimension linear subspace contained in a set.

The search enumerates each candidate subspace exactly once through its
canonical generating chain: the basis b_1 < b_2 < ... where every b_i is
the minimum of its coset modulo the span of the earlier vectors.  That
chain coincides with the reduced-echelon basis (pivots at the highest set
bits), so equal subspaces always surface with equal bases.

A vector v extends the current span only if the whole coset v + span lies
in the target set, checked by scanning the 2^|B| coset sums.  Pruning is
two-fold and never affects correctness: the global cap dim <= log2 |D|,
and the subtree cap dim <= depth + floor(log2(#candidates + 1)), valid
because every nonzero coset of a subtree subspace has its minimum
representative in the candidate list.

Candidate order is a performance heuristic only (by default, vectors that
pair with many other candidates inside D go first).  The reported basis is
always the lexicographically least one among the maximum-dimension
subspaces, extracted by a second pass in ascending order when the first
pass was reordered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .f2n import DenseSet, linear_subspace, xor_member_counts

SEARCH_DIM_CAP = 22  # CLI refuses exact search above this dimension

_DEGREE_ORDER_MAX = 8192  # above this many root candidates, skip the heuristic


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

    def span_points(self) -> list[int]:
        return linear_subspace(self.n, self.vectors).point_list()


@dataclass(frozen=True)
class MaxSubspaceResult:
    basis: SubspaceBasis
    zero_in_set: bool  # False means the search never ran: 0 was missing

    @property
    def dim(self) -> int:
        return self.basis.dim


class _Stop(Exception):
    """Best possible dimension reached; unwind the whole search."""


def _filter_candidates(bits: np.ndarray, cands: np.ndarray, v: int, span: np.ndarray) -> np.ndarray:
    """Candidates that survive extending ``span`` by ``v``.

    A survivor w must exceed v, keep its new half-coset w ^ v ^ span inside
    the set, and stay the minimum of its enlarged coset.
    """
    rest = cands[cands > v]
    if not rest.size:
        return rest
    half = rest[:, None] ^ v ^ span[None, :]
    ok = bits[half].all(axis=1) & (half.min(axis=1) > rest)
    return rest[ok]


def _dfs_best(bits: np.ndarray, cands: np.ndarray, span: np.ndarray, basis: list[int], state: dict) -> None:
    depth = len(basis)
    if depth > state["best_dim"]:
        state["best_dim"] = depth
        state["best_basis"] = tuple(basis)
        if depth >= state["dim_cap"]:
            raise _Stop
    for v in cands:
        v = int(v)
        child = _filter_candidates(bits, cands, v, span)
        if depth + 1 + (len(child) + 1).bit_length() - 1 <= state["best_dim"]:
            continue  # subtree cannot exceed the best found
        basis.append(v)
        _dfs_best(bits, child, np.concatenate([span, span ^ v]), basis, state)
        basis.pop()


def _dfs_extract(bits: np.ndarray, cands: np.ndarray, span: np.ndarray, basis: list[int], target: int) -> tuple[int, ...] | None:
    """First depth-``target`` chain in ascending order: the lex-least basis."""
    depth = len(basis)
    if depth == target:
        return tuple(basis)
    for v in cands:
        v = int(v)
        child = _filter_candidates(bits, cands, v, span)
        if depth + 1 + (len(child) + 1).bit_length() - 1 < target:
            continue  # subtree cannot reach the target dimension
        basis.append(v)
        found = _dfs_extract(bits, child, np.concatenate([span, span ^ v]), basis, target)
        if found is not None:
            return found
        basis.pop()
    return None


def _degree_order(bits: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """Sort candidates by how many other candidates they pair with in D."""
    deg = xor_member_counts(cands, bits)
    return cands[np.lexsort((cands, -deg))]


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


def max_subspace_in(d: DenseSet, degree_order: bool = True) -> MaxSubspaceResult:
    """A maximum-cardinality linear subspace contained in ``d``, exactly.

    If 0 is missing from the set no subspace fits at all; the result is
    dimension 0 with ``zero_in_set=False``.  Otherwise the returned basis
    spans a maximum-dimension subspace of ``d`` and is the
    lexicographically least canonical basis among all of them.
    """
    bits = d.bits
    if not bits[0]:
        return MaxSubspaceResult(SubspaceBasis(d.n, ()), zero_in_set=False)
    cands = d.points()
    cands = cands[cands != 0]
    dim_cap = d.card.bit_length() - 1  # 2^dim <= |D| always
    missing = np.flatnonzero(bits == 0).astype(np.int64)
    if missing.size:
        # near-full sets: one linear solve decides whether dimension n-1
        # is attainable, which is what otherwise forces a huge refutation
        dim_cap = min(dim_cap, d.n - 1 if _hyperplane_avoids_all(d.n, missing) else d.n - 2)
    state = {
        "best_dim": 0,
        "best_basis": (),
        "dim_cap": dim_cap,
    }
    use_heuristic = degree_order and 0 < len(cands) <= _DEGREE_ORDER_MAX
    first_pass = _degree_order(bits, cands) if use_heuristic else cands
    root_span = np.zeros(1, dtype=np.int64)
    try:
        _dfs_best(bits, first_pass, root_span, [], state)
    except _Stop:
        pass
    best_dim = state["best_dim"]
    if use_heuristic and best_dim > 0:
        basis = _dfs_extract(bits, cands, root_span, [], best_dim)
        if basis is None:
            raise AssertionError("extraction pass lost a dimension the search proved")
    else:
        basis = state["best_basis"]
    return MaxSubspaceResult(SubspaceBasis(d.n, tuple(basis)), zero_in_set=True)


def is_subspace_subset(d: DenseSet, vectors) -> bool:
    """Whether the span of ``vectors`` lies entirely inside ``d``."""
    return linear_subspace(d.n, vectors).subset_of(d)
