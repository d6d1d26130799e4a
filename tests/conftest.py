"""Shared oracles for the test suite.

Everything here is deliberately independent of the package internals:
subspaces are enumerated from echelon-form bases, counts come from direct
pair loops, and expected values are recomputed rather than trusted.
"""

import json
from fractions import Fraction
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from popdiff.f2n import DenseSet, make_set


def all_subspaces(n: int) -> list[tuple[int, ...]]:
    """Every linear subspace of F_2^n as a sorted tuple of its points.

    Enumerates echelon-form bases: pick pivot bit positions, then fill the
    free positions (below each pivot, not at other pivots) in all ways.
    Each subspace appears exactly once.
    """
    out = [(0,)]
    for d in range(1, n + 1):
        for pivots in combinations(range(n), d):
            frees = [[q for q in range(p) if q not in pivots] for p in pivots]
            for choice in product(*(range(1 << len(f)) for f in frees)):
                basis = []
                for i, p in enumerate(pivots):
                    v = 1 << p
                    for bit_idx, q in enumerate(frees[i]):
                        if (choice[i] >> bit_idx) & 1:
                            v |= 1 << q
                    basis.append(v)
                span = [0]
                for b in basis:
                    span.extend([s ^ b for s in span])
                out.append(tuple(sorted(span)))
    return out


def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional subspaces of F_2^n."""
    num = den = 1
    for i in range(k):
        num *= (1 << n) - (1 << i)
        den *= (1 << k) - (1 << i)
    return num // den


def brute_counts(a: DenseSet) -> np.ndarray:
    """Pair counts by the definitional double loop over members."""
    counts = np.zeros(a.size, dtype=np.int64)
    pts = a.point_list()
    for x in pts:
        for y in pts:
            counts[x ^ y] += 1
    return counts


def reference_fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis, in
    place, one radix-2 butterfly stage over the whole array at a time;
    returns ``a``.  Reference for the blocked ``fwht_inplace``."""
    size = a.shape[-1]
    h = 1
    while h < size:
        pairs = a.reshape(a.shape[:-1] + (size // (2 * h), 2, h))
        top = pairs[..., 0, :] + pairs[..., 1, :]
        pairs[..., 1, :] = pairs[..., 0, :] - pairs[..., 1, :]
        pairs[..., 0, :] = top
        h *= 2
    return a


def limb_xor_pair_counts(ind_a: np.ndarray, ind_b: np.ndarray | None = None) -> np.ndarray:
    """Pair counts by a two-limb inverse transform that never leaves int64
    range by construction, recombined in Python integers.

    The spectrum is split as hi * 2^30 + lo with 0 <= lo < 2^30, so each
    limb transform stays within 2^n * 2^30 for any spectrum bounded by
    4^n; the limbs are joined with exact Python integers before the
    division by 2^n.  Reference for the plain int64 inverse.
    """
    n = len(ind_a).bit_length() - 1
    fa = reference_fwht(ind_a.astype(np.int64))
    fb = fa if ind_b is None else reference_fwht(ind_b.astype(np.int64))
    spectrum = fa * fb
    lo = reference_fwht(spectrum & ((1 << 30) - 1))
    hi = reference_fwht(spectrum >> 30)
    counts = np.empty(len(spectrum), dtype=np.int64)
    step = 1 << 16  # bounds the object-dtype temporaries
    for i in range(0, len(spectrum), step):
        scaled = hi[i : i + step].astype(object) * (1 << 30) + lo[i : i + step].astype(object)
        assert not (scaled & ((1 << n) - 1)).any() and not (scaled < 0).any()
        counts[i : i + step] = (scaled >> n).astype(np.int64)
    return counts


def set_from_mask(n: int, mask: int) -> DenseSet:
    bits = np.zeros(1 << n, dtype=np.uint8)
    for i in range(1 << n):
        if (mask >> i) & 1:
            bits[i] = 1
    return DenseSet(n, bits)


def outside(n: int, points) -> DenseSet:
    """F_2^n without the given points."""
    return make_set(n, np.setdiff1d(np.arange(1 << n), points))


def pytest_collection_modifyitems(items):
    # To explain a failing property, Hypothesis imports libcst, whose import
    # warns that mypy_extensions.TypedDict is deprecated.  Under `-W error`
    # that warning ends the session in an INTERNALERROR instead of the
    # falsifying example.  Filters from marks are applied after `-W`, so
    # this one wins for exactly that warning.
    for item in items:
        item.add_marker(pytest.mark.filterwarnings(
            "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"))


@pytest.fixture(scope="session")
def subspaces_n4() -> list[tuple[int, ...]]:
    subs = all_subspaces(4)
    # self-check the oracle against the counting formula
    assert len(subs) == sum(gaussian_binomial(4, k) for k in range(5))
    return subs


def reference_sample(rng, universe: int, k: int) -> list[int]:
    """Uniform k-subset of range(universe) by the scalar partial
    Fisher-Yates loop, one ``below`` call per step, with the touched
    slots held in a dict.  Reference for the vectorized ``sample``."""
    if not 0 <= k <= universe:
        raise ValueError(f"cannot sample {k} items from {universe}")
    swapped: dict[int, int] = {}
    picked = []
    for i in range(k):
        j = i + rng.below(universe - i)
        picked.append(swapped.get(j, j))
        swapped[j] = swapped.get(i, i)
    picked.sort()
    return picked


def _filter_candidates(bits: np.ndarray, cands: np.ndarray, v: int, span: np.ndarray) -> np.ndarray:
    """Candidates that survive extending ``span`` by ``v``: w > v whose
    half-coset w ^ v ^ span lies in the set and stays above w."""
    rest = cands[cands > v]
    if not rest.size:
        return rest
    half = rest[:, None] ^ v ^ span[None, :]
    ok = bits[half].all(axis=1) & (half.min(axis=1) > rest)
    return rest[ok]


def reference_max_subspace(d: DenseSet) -> tuple[int, ...]:
    """Lex-least basis of a maximum-dimension subspace inside ``d`` (0
    must be a member), by a depth-first search over canonical chains
    that gathers every coset explicitly from an index array of the span.
    Reference for the bitset search."""
    bits = d.bits
    assert bits[0], "0 must be in the set"
    best = {"dim": 0, "basis": ()}
    dim_cap = d.card.bit_length() - 1

    def dfs(cands, span, basis):
        depth = len(basis)
        if depth > best["dim"]:
            best["dim"], best["basis"] = depth, tuple(basis)
        if best["dim"] == dim_cap:
            return
        for v in cands:
            v = int(v)
            child = _filter_candidates(bits, cands, v, span)
            if depth + 1 + (len(child) + 1).bit_length() - 1 <= best["dim"]:
                continue  # subtree cannot exceed the best found
            basis.append(v)
            dfs(child, np.concatenate([span, span ^ v]), basis)
            basis.pop()

    cands = d.points()
    dfs(cands[cands != 0], np.zeros(1, dtype=np.int64), [])
    return best["basis"]


def canonical_json(obj) -> str:
    """The certificate layout: sorted keys, 2-space indent, final newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# Edits of a certificate's decoded JSON, each giving text that is not the
# canonical serialization of any certificate; the benchmark's certify
# workload runs the same seven cases against `verify`.
NON_CANONICAL_EDITS = {
    "seed_plus_2_64": lambda obj: canonical_json({**obj, "seed": obj["seed"] + 2**64}),
    "compact_json": lambda obj: json.dumps(obj, sort_keys=True, separators=(",", ":")),
    "c_decimal_string": lambda obj: canonical_json({**obj, "c": str(float(Fraction(obj["c"])))}),
    "c_json_float": lambda obj: canonical_json({**obj, "c": float(Fraction(obj["c"]))}),
    "c_padded": lambda obj: canonical_json({**obj, "c": f" {obj['c']} "}),
    "n_float": lambda obj: canonical_json({**obj, "n": float(obj["n"])}),
    "extra_field": lambda obj: canonical_json({**obj, "comment": "unknown field"}),
}
