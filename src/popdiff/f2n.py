"""Dense subsets of the group F_2^n.

Points are plain integer indices in [0, 2^n): coordinate j of a point is
bit j of its index, and the group operation is bitwise XOR (so every
element is its own inverse).  A set is stored as a 0/1 vector of length
2^n, which keeps all set algebra bit-parallel and makes density an exact
dyadic rational.  Beside it, a set keeps the same bits packed 8 per byte
(``DenseSet.packed_bits``), the byte layout of the F2SET payload; the
translate kernel (``translate_packed``) and the intersection trials of
the construction work on that packed view, which is 8x smaller.

This module alone knows the F2SET text.  Its payload codec, which
certificates use too, swaps the nibbles of each packed byte and writes
them with ``binascii.hexlify``; the parser takes only the text the writer
gives back byte for byte, and a parsed set keeps the bytes it was decoded
from.

The dimension is capped at MAX_DIM = 30 so the 2^n-length vectors stay
addressable in memory.
"""

from __future__ import annotations

import binascii
import hashlib
import os
import re
import stat
from fractions import Fraction
from pathlib import Path

import numpy as np

from .rng import SplitMix64

MAX_DIM = 30

_XOR_BLOCK_ROWS = 512  # rows per pairwise-XOR gather in xor_member_counts
# translate_packed views the bytes as rows of 2^9 and gathers 64 rows at a
# time; of rows of 2^6, 2^9 and 2^12 bytes and blocks of 16, 64 and 256
# rows, this was the fastest at n = 16..22 (2-vCPU Xeon, numpy 2.4)
_PACKED_COL_BITS = 9
_PACKED_BLOCK_ROWS = 64


def _bit_xor_table() -> np.ndarray:
    """table[s, v] = the byte whose bit b is bit b XOR s of the byte v."""
    v = np.arange(256)[:, None]
    b = np.arange(8)
    table = np.empty((8, 256), dtype=np.uint8)
    for s in range(8):
        table[s] = (((v >> (b ^ s)) & 1) << b).sum(axis=1)
    table.flags.writeable = False
    return table


_BIT_XOR_TABLE = _bit_xor_table()

_F2SET_HEADER = re.compile(r"^F2SET v1 n=([1-9][0-9]*)$")


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

    __slots__ = ("n", "bits", "_card", "_outside", "_packed")

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
        self._outside: np.ndarray | None = None
        self._packed: np.ndarray | None = None

    @classmethod
    def _wrap(cls, n: int, bits: np.ndarray) -> "DenseSet":
        # internal fast path: bits must already be a fresh uint8 0/1 vector
        obj = object.__new__(cls)
        obj.n = n
        obj.bits = bits
        obj._card = None
        obj._outside = None
        obj._packed = None
        return obj

    @classmethod
    def _from_packed(cls, n: int, packed: np.ndarray) -> "DenseSet":
        # internal: packed must be a fresh array that no other set holds
        obj = cls._wrap(n, np.unpackbits(packed, count=1 << n, bitorder="little"))
        packed.flags.writeable = False
        obj._packed = packed
        return obj

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def card(self) -> int:
        if self._card is None:
            self._card = int(np.count_nonzero(self.bits))
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
        # bits holds 0/1 bytes, and flatnonzero is several times faster on bools
        return np.flatnonzero(self.bits.view(np.bool_)).astype(np.int64, copy=False)

    def outside_points(self) -> np.ndarray:
        """Indices of F_2^n outside the set, ascending, as a read-only
        int64 array.

        Listed on the first call and kept, as ``card`` is, so a caller
        that asks once per trial scans the 2^n entries once; no scan when
        the set is the whole group.
        """
        if self._outside is None:
            if self.card == self.size:
                self._outside = np.empty(0, dtype=np.int64)
            else:
                self._outside = np.flatnonzero(self.bits == 0)
            self._outside.flags.writeable = False
        return self._outside

    def packed_bits(self) -> np.ndarray:
        """The membership bits packed 8 per byte as a read-only uint8
        array of max(1, 2^n / 8) bytes: point 8j + b is bit b of byte j
        (``np.packbits(bits, bitorder="little")``).  For n < 3 the one
        byte's bits from 2^n up are zero.

        Packed on the first call and kept, as ``card`` is, so a set that
        is translated or serialized many times is packed once.
        """
        if self._packed is None:
            self._packed = np.packbits(self.bits, bitorder="little")
            self._packed.flags.writeable = False
        return self._packed

    def point_list(self) -> list[int]:
        return np.flatnonzero(self.bits.view(np.bool_)).tolist()

    def translate(self, t: int) -> "DenseSet":
        """The translate {t + a : a in A}; an involution in t.

        Computed on the packed bits (``translate_packed``), which are
        packed once per set, and unpacked once.  Nothing in the package
        calls it; it stays because ``perfbench/run.py`` traces it by name
        (its ``TARGETS``), so the traced benchmark run fails without it,
        until the benchmark's target list changes.
        """
        t = _check_point(self.n, t)
        return DenseSet._from_packed(self.n, translate_packed(self.packed_bits(), t))

    def _check_same_dim(self, other: "DenseSet") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

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


def full_set(n: int) -> DenseSet:
    n = _check_dim(n)
    return DenseSet._wrap(n, np.ones(1 << n, dtype=np.uint8))


def random_set(n: int, cardinality: int, rng: SplitMix64) -> DenseSet:
    """Uniformly random subset of exactly the given cardinality.

    Sampling is without replacement so the density is exactly
    cardinality / 2^n; the result is a pure function of the rng state:
    the points of ``rng.sample(2^n, cardinality)``, drawn as membership
    bytes (``SplitMix64.sample_bits``).
    """
    n = _check_dim(n)
    size = 1 << n
    if not 0 <= cardinality <= size:
        raise ValueError(f"cardinality {cardinality} out of range for n={n}")
    out = DenseSet._wrap(n, rng.sample_bits(size, cardinality))
    out._card = cardinality
    return out


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


def translate_packed(packed: np.ndarray, t: int) -> np.ndarray:
    """The translate by t of a set given as its packed bits (the layout
    of ``DenseSet.packed_bits``), as a fresh packed array; t must be a
    point of the set's group F_2^n.

    Point i = 8j + b moves to i XOR t = 8(j XOR (t >> 3)) + (b XOR (t & 7)):
    byte j of the output is byte j XOR (t >> 3) of the input with its
    bits permuted by one lookup in a fixed (8, 256) table.  Viewed as a
    (2^(m-k), 2^k) matrix of bytes, 2^m bytes in all and k = min(m, 9),
    the byte index XOR (t >> 3) permutes the rows by (t >> 3) >> k and
    the columns by its low k bits, so the output is gathered in blocks of
    64 rows (32 KiB).  For n < 3 a bit from 2^n up stays in that range
    under XOR t, so the padding bits stay zero.
    """
    hi = t >> 3
    k = min(packed.size.bit_length() - 1, _PACKED_COL_BITS)
    src = packed.reshape(-1, 1 << k)
    out = np.empty_like(packed)
    dst = out.reshape(src.shape)
    row_idx = np.arange(src.shape[0]) ^ (hi >> k)
    col_idx = np.arange(1 << k) ^ (hi & ((1 << k) - 1))
    table = _BIT_XOR_TABLE[t & 7]
    for r in range(0, src.shape[0], _PACKED_BLOCK_ROWS):
        block = src[row_idx[r : r + _PACKED_BLOCK_ROWS]]
        np.take(table, block[:, col_idx], out=dst[r : r + _PACKED_BLOCK_ROWS])
    return out


def xor_member_counts(
    points: np.ndarray, member_bits: np.ndarray, others: np.ndarray | None = None
) -> np.ndarray:
    """counts[i] = #{y in others : points[i] XOR y is a member}, as int64;
    ``others`` defaults to ``points``.

    ``member_bits`` is a 0/1 membership vector of length 2^n.  One helper
    serves both lookup forms of the construction's stages: the pairs of
    X looked up in D (others = points), and the points of X against the
    points outside D looked up in X.  The pairwise XORs are gathered in
    blocks of 512 rows, which caps the temporary at 512 * len(others)
    indices.
    """
    if others is None:
        others = points
    counts = np.empty(len(points), dtype=np.int64)
    for i in range(0, len(points), _XOR_BLOCK_ROWS):
        block = points[i : i + _XOR_BLOCK_ROWS, None] ^ others[None, :]
        # a row sums at most len(others) <= 2^MAX_DIM ones, so int32 holds it
        counts[i : i + _XOR_BLOCK_ROWS] = member_bits[block].sum(axis=1, dtype=np.int32)
    return counts


def linear_subspace(n: int, basis) -> DenseSet:
    """Span of the given vectors (need not be independent); card = 2^rank.

    Each vector outside the span so far doubles the span's point array."""
    n = _check_dim(n)
    bits = np.zeros(1 << n, dtype=np.uint8)
    bits[0] = 1
    span = np.zeros(1, dtype=np.int64)
    for b in basis:
        b = _check_point(n, b)
        if not bits[b]:
            new = span ^ b
            bits[new] = 1
            span = np.concatenate((span, new))
    return DenseSet._wrap(n, bits)


def niveau_set(n: int, weight_threshold: int) -> DenseSet:
    """All points of Hamming weight >= weight_threshold."""
    n = _check_dim(n)
    if not 0 <= weight_threshold <= n:
        raise ValueError(f"weight threshold {weight_threshold} out of range for n={n}")
    low = min(n, 16)
    weights = np.zeros(1, dtype=np.int8)
    for _ in range(low):
        weights = np.concatenate((weights, weights + 1))  # of [0, 2^low)
    # point h * 2^low + l weighs weight(h) + weight(l), with h < 2^(n - low)
    # <= 2^low; the sums, at most 30, are compared in place, 1 byte a point
    bits = np.add.outer(weights[: 1 << (n - low)], weights).reshape(-1)
    np.greater_equal(bits, weight_threshold, out=bits.view(np.bool_))
    return DenseSet._wrap(n, bits.view(np.uint8))


# ---------------------------------------------------------------------------
# F2SET v1 file format
#
# line 1: "F2SET v1 n=<n>"
# line 2: 2^n bits as lowercase hex, 4 bits per character, least-significant
#         bit of the first character = membership of index 0.  For n = 1 the
#         single character carries two padding bits that must be zero.
# ---------------------------------------------------------------------------


def _f2set_payload_chars(n: int) -> int:
    """Hex characters on the payload line of an F2SET file of dimension n."""
    return max(1, (1 << n) // 4)


def _swap_nibbles(v: np.ndarray) -> np.ndarray:
    """The bytes of v with their two nibbles swapped; an involution.
    Byte b of the packed bits holds points 8b..8b+7 and its low nibble is
    character 2b of the payload, while hex digits put the high nibble
    first."""
    return (v >> 4) | (v << 4)


def _payload_bytes(s: DenseSet) -> bytes:
    """The payload line of the F2SET text of s as ASCII bytes, without
    its newline."""
    return binascii.hexlify(_swap_nibbles(s.packed_bits()))[: _f2set_payload_chars(s.n)]


def _payload_dumps(s: DenseSet) -> str:
    """The payload line of the F2SET text of s, without its newline."""
    return _payload_bytes(s).decode("ascii")


def _payload_loads(n: int, payload: str | bytes) -> DenseSet:
    """The set of dimension n with exactly this payload line, else ValueError."""
    n = _check_dim(n)
    expected_chars = _f2set_payload_chars(n)
    if len(payload) != expected_chars:
        raise ValueError(
            f"payload has {len(payload)} characters, expected {expected_chars} for n={n}"
        )
    # unhexlify reads a str of ASCII characters in place, with no encoded copy
    zero, upper = ("0", "ABCDEF") if isinstance(payload, str) else (b"0", b"ABCDEF")
    try:
        raw = binascii.unhexlify(payload + zero * (expected_chars % 2))  # n <= 2: a zero high nibble
    except ValueError:  # not hex, whitespace included, or a str that is not ASCII
        raw = None
    if raw is None or any(c in payload for c in upper):  # unhexlify takes uppercase too
        raise ValueError("payload contains characters outside lowercase hex")
    packed = _swap_nibbles(np.frombuffer(raw, dtype=np.uint8))
    if n < 3 and packed[0] >> (1 << n):
        raise ValueError("padding bits beyond 2^n must be zero")
    return DenseSet._from_packed(n, packed)


def _f2set_bytes(n: int, payload: bytes) -> bytes:
    """The F2SET text of dimension n with this payload line, as ASCII
    bytes, built in one buffer."""
    return b"".join((b"F2SET v1 n=%d\n" % n, payload, b"\n"))


def _f2set_sha256(n: int, payload: bytes) -> str:
    """SHA-256 of the F2SET text of dimension n with this payload line."""
    return hashlib.sha256(_f2set_bytes(n, payload)).hexdigest()


def f2set_dumps(s: DenseSet) -> str:
    return _f2set_bytes(s.n, _payload_bytes(s)).decode("ascii")


def _header_dim(line: str) -> int:
    """The n of an F2SET header line, given without its newline."""
    m = _F2SET_HEADER.match(line)
    if not m:
        raise ValueError(f"bad F2SET header: {line!r}")
    return _check_dim(int(m.group(1)))


_F2SET_LINES = "F2SET text must be a header line and a payload line, each ending in \\n"


def f2set_loads(text: str) -> DenseSet:
    """Parse F2SET text; raises ValueError unless it is exactly the
    ``f2set_dumps`` text of the set it holds."""
    lines = text.split("\n")
    if len(lines) != 3 or lines[2]:
        raise ValueError(_F2SET_LINES)
    return _payload_loads(_header_dim(lines[0]), lines[1])


def write_set(s: DenseSet, path) -> None:
    Path(path).write_bytes(_f2set_bytes(s.n, _payload_bytes(s)))


def read_set(path) -> DenseSet:
    """Read an F2SET file, refusing one whose size is not the F2SET size
    for its header's n with ValueError before the payload is read."""
    with open(path, "rb") as f:
        head = f.readline(16)  # the longest header line is "F2SET v1 n=30\n"
        n = _header_dim(head.decode("ascii", "replace").removesuffix("\n"))
        size = len(head) + _f2set_payload_chars(n) + 1
        st = os.fstat(f.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size != size:
            raise ValueError(f"set file has {st.st_size} bytes, not the {size} of F2SET n={n}")
        data = head + f.read(size - len(head) + 1)  # one byte more shows a longer stream
    if not data.isascii():
        try:
            data.decode("ascii")  # for the position of the first byte that is not
        except UnicodeDecodeError as exc:
            raise ValueError(f"set file is not ASCII: {exc}") from None
    lines = data.split(b"\n")  # the first one is head, whose n is read above
    if len(lines) != 3 or lines[2]:
        raise ValueError(_F2SET_LINES)
    return _payload_loads(n, lines[1])


def set_sha256(s: DenseSet) -> str:
    """SHA-256 of the canonical F2SET serialization."""
    return _f2set_sha256(s.n, _payload_bytes(s))
