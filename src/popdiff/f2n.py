"""Dense subsets of the group F_2^n.

Points are plain integer indices in [0, 2^n): coordinate j of a point is
bit j of its index, and the group operation is bitwise XOR (so every
element is its own inverse).  A set is stored as a 0/1 vector of length
2^n, which keeps all set algebra bit-parallel and makes density an exact
dyadic rational.

The dimension is capped at MAX_DIM = 30 so the 2^n-length vectors stay
addressable in memory.
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

from .rng import SplitMix64

MAX_DIM = 30

_XOR_BLOCK_ROWS = 512  # rows per pairwise-XOR gather in xor_member_counts
_TRANSLATE_COL_BITS = 12  # translate views the bits as rows of 2^12
_TRANSLATE_BLOCK_ROWS = 64  # rows per gather in translate

_F2SET_HEADER = re.compile(r"^F2SET v1 n=([1-9][0-9]*)$")
_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_HEX_VALUES = np.full(256, 255, dtype=np.uint8)
for _i, _ch in enumerate(b"0123456789abcdef"):
    _HEX_VALUES[_ch] = _i


def _check_dim(n: int) -> int:
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"dimension must be an integer, got {n!r}")
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"dimension must be in [1, {MAX_DIM}], got {n}")
    return int(n)


def _check_point(n: int, p: int) -> int:
    p = int(p)
    if not 0 <= p < (1 << n):
        raise ValueError(f"point {p} out of range for n={n}")
    return p


class DenseSet:
    """A subset of F_2^n as a 0/1 membership vector of length 2^n.

    Instances are treated as immutable values: every operation returns a
    fresh set and never mutates its inputs, so sets can be shared freely
    across concurrent readers.
    """

    __slots__ = ("n", "bits", "_card")

    def __init__(self, n: int, bits: np.ndarray | None = None) -> None:
        self.n = _check_dim(n)
        if bits is None:
            bits = np.zeros(1 << self.n, dtype=np.uint8)
        else:
            bits = (np.asarray(bits) != 0).astype(np.uint8)
            if bits.shape != (1 << self.n,):
                raise ValueError(
                    f"bit vector has length {bits.shape}, expected {1 << self.n}"
                )
        self.bits = bits
        self._card: int | None = None

    @classmethod
    def _wrap(cls, n: int, bits: np.ndarray) -> "DenseSet":
        # internal fast path: bits must already be a fresh uint8 0/1 vector
        obj = object.__new__(cls)
        obj.n = n
        obj.bits = bits
        obj._card = None
        return obj

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def card(self) -> int:
        if self._card is None:
            self._card = int(self.bits.sum())
        return self._card

    @property
    def density(self) -> Fraction:
        return Fraction(self.card, self.size)

    def __len__(self) -> int:
        return self.card

    def __contains__(self, p: int) -> bool:
        return bool(self.bits[_check_point(self.n, p)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenseSet):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.bits, other.bits))

    __hash__ = None  # value type backed by a mutable array

    def __repr__(self) -> str:
        return f"DenseSet(n={self.n}, card={self.card})"

    def points(self) -> np.ndarray:
        """Member indices, ascending, as an int64 array."""
        return np.flatnonzero(self.bits).astype(np.int64)

    def point_list(self) -> list[int]:
        return [int(p) for p in np.flatnonzero(self.bits)]

    def copy(self) -> "DenseSet":
        return DenseSet._wrap(self.n, self.bits.copy())

    def translate(self, t: int) -> "DenseSet":
        """The translate {t + a : a in A}; an involution in t.

        Viewed as a (2^(n-k), 2^k) matrix with k = min(n, 12), index
        XOR t permutes the rows by t >> k and the columns by the low k
        bits of t, so the output is gathered in blocks of 64 rows and
        the temporary never exceeds 256 KiB.
        """
        t = _check_point(self.n, t)
        k = min(self.n, _TRANSLATE_COL_BITS)
        src = self.bits.reshape(-1, 1 << k)
        out = np.empty_like(self.bits)
        dst = out.reshape(src.shape)
        row_idx = np.arange(src.shape[0]) ^ (t >> k)
        col_idx = np.arange(1 << k) ^ (t & ((1 << k) - 1))
        for r in range(0, src.shape[0], _TRANSLATE_BLOCK_ROWS):
            block = src[row_idx[r : r + _TRANSLATE_BLOCK_ROWS]]
            np.take(block, col_idx, axis=1, out=dst[r : r + _TRANSLATE_BLOCK_ROWS])
        return DenseSet._wrap(self.n, out)

    def _check_same_dim(self, other: "DenseSet") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def intersect(self, other: "DenseSet") -> "DenseSet":
        self._check_same_dim(other)
        return DenseSet._wrap(self.n, self.bits & other.bits)

    def union(self, other: "DenseSet") -> "DenseSet":
        self._check_same_dim(other)
        return DenseSet._wrap(self.n, self.bits | other.bits)

    def complement(self) -> "DenseSet":
        return DenseSet._wrap(self.n, self.bits ^ 1)

    __and__ = intersect
    __or__ = union
    __invert__ = complement

    def subset_of(self, other: "DenseSet") -> bool:
        self._check_same_dim(other)
        return bool((self.bits <= other.bits).all())


def make_set(n: int, points) -> DenseSet:
    """Set containing exactly the given points (an array or a sequence of
    indices; duplicates collapse)."""
    n = _check_dim(n)
    out = DenseSet(n)
    pts = np.asarray(points, dtype=np.int64)
    if pts.size:
        if pts.min() < 0 or pts.max() >= (1 << n):
            raise ValueError(f"point index out of range for n={n}")
        out.bits[pts] = 1
    return out


def empty_set(n: int) -> DenseSet:
    return DenseSet(n)


def full_set(n: int) -> DenseSet:
    n = _check_dim(n)
    return DenseSet._wrap(n, np.ones(1 << n, dtype=np.uint8))


def random_set(n: int, cardinality: int, rng: SplitMix64) -> DenseSet:
    """Uniformly random subset of exactly the given cardinality.

    Sampling is without replacement so the density is exactly
    cardinality / 2^n; the result is a pure function of the rng state.
    """
    n = _check_dim(n)
    size = 1 << n
    if not 0 <= cardinality <= size:
        raise ValueError(f"cardinality {cardinality} out of range for n={n}")
    return make_set(n, rng.sample(size, cardinality))


def sumset(a: DenseSet, b: DenseSet) -> DenseSet:
    """The sumset {x + y : x in A, y in B}, marked from all |A||B|
    pairwise XORs.

    A naive oracle with no transform: the support of the XOR pair counts
    of A and B (``walsh.xor_pair_counts``) is the same set.
    """
    a._check_same_dim(b)
    out = np.zeros(a.size, dtype=np.uint8)
    pa = a.points()
    pb = b.points()
    if pa.size and pb.size:
        # mark pairwise XORs in row blocks to cap peak memory
        step = max(1, (1 << 22) // max(1, pb.size))
        for i in range(0, pa.size, step):
            out[pa[i : i + step, None] ^ pb[None, :]] = 1
    return DenseSet._wrap(a.n, out)


def xor_member_counts(points: np.ndarray, member_bits: np.ndarray) -> np.ndarray:
    """counts[i] = #{y in points : points[i] XOR y is a member}, as int64.

    ``member_bits`` is a 0/1 membership vector of length 2^n.  The
    pairwise XORs are gathered in blocks of 512 rows, which caps the
    temporary at 512 * len(points) indices.
    """
    counts = np.empty(len(points), dtype=np.int64)
    for i in range(0, len(points), _XOR_BLOCK_ROWS):
        block = points[i : i + _XOR_BLOCK_ROWS, None] ^ points[None, :]
        counts[i : i + _XOR_BLOCK_ROWS] = member_bits[block].sum(axis=1)
    return counts


def linear_subspace(n: int, basis) -> DenseSet:
    """Span of the given vectors (need not be independent); card = 2^rank."""
    n = _check_dim(n)
    span = [0]
    member = {0}
    for b in basis:
        b = _check_point(n, b)
        if b not in member:
            new = [s ^ b for s in span]
            span.extend(new)
            member.update(new)
    return make_set(n, span)


def niveau_set(n: int, weight_threshold: int) -> DenseSet:
    """All points of Hamming weight >= weight_threshold."""
    n = _check_dim(n)
    if not 0 <= weight_threshold <= n:
        raise ValueError(f"weight threshold {weight_threshold} out of range for n={n}")
    idx = np.arange(1 << n, dtype=np.int64)
    weights = np.zeros(1 << n, dtype=np.int8)
    for j in range(n):
        weights += ((idx >> j) & 1).astype(np.int8)
    return DenseSet._wrap(n, (weights >= weight_threshold).astype(np.uint8))


# ---------------------------------------------------------------------------
# F2SET v1 file format
#
# line 1: "F2SET v1 n=<n>"
# line 2: 2^n bits as lowercase hex, 4 bits per character, least-significant
#         bit of the first character = membership of index 0.  For n = 1 the
#         single character carries two padding bits that must be zero.
# ---------------------------------------------------------------------------


def f2set_dumps(s: DenseSet) -> str:
    bits = s.bits
    if bits.size % 4:
        bits = np.concatenate([bits, np.zeros(4 - bits.size % 4, dtype=np.uint8)])
    nibbles = bits.reshape(-1, 4) @ np.array([1, 2, 4, 8], dtype=np.uint8)
    payload = _HEX_DIGITS[nibbles].tobytes().decode("ascii")
    return f"F2SET v1 n={s.n}\n{payload}\n"


def f2set_loads(text: str) -> DenseSet:
    """Parse F2SET text; raises ValueError unless it is exactly the
    ``f2set_dumps`` text of the set it holds."""
    lines = text.split("\n")
    if len(lines) != 3 or lines[2]:
        raise ValueError("F2SET text must be a header line and a payload line, each ending in \\n")
    m = _F2SET_HEADER.match(lines[0])
    if not m:
        raise ValueError(f"bad F2SET header: {lines[0]!r}")
    n = _check_dim(int(m.group(1)))
    size = 1 << n
    expected_chars = max(1, size // 4)
    payload = lines[1]
    if len(payload) != expected_chars:
        raise ValueError(
            f"payload has {len(payload)} characters, expected {expected_chars} for n={n}"
        )
    raw = payload.encode("ascii", errors="replace")
    values = _HEX_VALUES[np.frombuffer(raw, dtype=np.uint8)]
    if (values == 255).any():
        raise ValueError("payload contains characters outside lowercase hex")
    bits = (values[:, None] >> np.arange(4, dtype=np.uint8)[None, :]) & 1
    bits = bits.reshape(-1).astype(np.uint8)
    if bits[size:].any():
        raise ValueError("padding bits beyond 2^n must be zero")
    return DenseSet._wrap(n, np.ascontiguousarray(bits[:size]))


def write_set(s: DenseSet, path) -> None:
    Path(path).write_bytes(f2set_dumps(s).encode("ascii"))


def read_set(path) -> DenseSet:
    try:
        text = Path(path).read_bytes().decode("ascii")
    except UnicodeDecodeError as exc:
        raise ValueError(f"set file is not ASCII: {exc}") from None
    return f2set_loads(text)


def set_sha256(s: DenseSet) -> str:
    """SHA-256 of the canonical F2SET serialization."""
    return hashlib.sha256(f2set_dumps(s).encode("ascii")).hexdigest()
