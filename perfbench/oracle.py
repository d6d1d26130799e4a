"""The benchmark's own output checks, written without popdiff's code.

They run outside every timed region.  F2SET files are parsed and written
here from the format description, pair counts come from a plain int64
Walsh-Hadamard transform, and sumsets from chunked pairwise XORs.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

_HEX = b"0123456789abcdef"
_HEX_VALUE = np.full(256, 255, dtype=np.uint8)
_HEX_VALUE[np.frombuffer(_HEX, dtype=np.uint8)] = np.arange(16, dtype=np.uint8)


def parse_payload(n: int, payload: str) -> np.ndarray:
    """Membership bits (uint8, length 2^n) of an F2SET hex payload."""
    values = _HEX_VALUE[np.frombuffer(payload.encode("ascii"), dtype=np.uint8)]
    if (values == 255).any():
        raise ValueError("payload is not lowercase hex")
    bits = ((values[:, None] >> np.arange(4, dtype=np.uint8)) & 1).reshape(-1)
    if bits[1 << n :].any():
        raise ValueError("nonzero padding bits")
    return bits[: 1 << n].astype(np.uint8)


def parse_set(data: bytes) -> tuple[int, np.ndarray]:
    header, payload, tail = data.decode("ascii").split("\n")
    if not header.startswith("F2SET v1 n=") or tail != "":
        raise ValueError("not an F2SET v1 file")
    n = int(header[len("F2SET v1 n=") :])
    return n, parse_payload(n, payload)


def set_bytes(n: int, bits: np.ndarray) -> bytes:
    """Canonical F2SET v1 file bytes of a membership vector."""
    padded = np.zeros(max(4, 1 << n), dtype=np.uint8)
    padded[: 1 << n] = bits
    nibbles = padded.reshape(-1, 4) @ np.array([1, 2, 4, 8])
    payload = np.frombuffer(_HEX, dtype=np.uint8)[nibbles].tobytes()
    return b"F2SET v1 n=%d\n" % n + payload + b"\n"


def _wht(v: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform in wrapping int64."""
    h = 1
    while h < len(v):
        pairs = v.reshape(-1, 2, h)
        v = np.stack((pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]), axis=1).reshape(-1)
        h *= 2
    return v


def popular_bits(bits: np.ndarray, c: Fraction) -> np.ndarray:
    """Membership bits of D_c(A) = {x : N_A(x) * c.den * 2^n > c.num * |A|^2}.

    WHT(WHT(1_A)^2) is 2^n * N_A(x), computed mod 2^64.  The true value
    lies in [0, 2^(2n)], so for n <= 30 the wrapped int64 result is exact.
    """
    n = len(bits).bit_length() - 1
    card = int(bits.sum())
    if n > 30 or c.denominator << (2 * n) >= 1 << 62 or c.numerator * card * card >= 1 << 62:
        raise ValueError("threshold does not fit the int64 check")
    spectrum = _wht(bits.astype(np.int64))
    scaled = _wht(spectrum * spectrum)
    return (scaled * c.denominator > c.numerator * card * card).astype(np.uint8)


def sumset_inside(points: np.ndarray, member: np.ndarray, rows: int = 256) -> bool:
    """Whether every pairwise XOR of ``points`` is a member, in row blocks."""
    points = points.astype(np.int64)
    for i in range(0, len(points), rows):
        if not member[points[i : i + rows, None] ^ points[None, :]].all():
            return False
    return True


def span_inside(vectors: list[int], member: np.ndarray) -> bool:
    """Whether ``vectors`` are independent and their span is in the set."""
    span = np.zeros(1, dtype=np.int64)
    for v in vectors:
        span = np.concatenate([span, span ^ v])
    return len(np.unique(span)) == 1 << len(vectors) and bool(member[span].all())
