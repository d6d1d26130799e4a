"""Exact autocorrelation over F_2^n and popular difference sets.

For A inside F_2^n the autocorrelation N_A(x) = #{y : y in A, x + y in A}
counts the ordered pairs of A whose XOR equals x.  Under the normalized
counting measure the convolution of the indicator with itself evaluates to
1_A * 1_A (x) = N_A(x) / 2^n, so the popular difference set with
parameter c,

    D_c(A) = {x : 1_A * 1_A(x) > c * alpha^2},    alpha = |A| / 2^n,

is exactly {x : N_A(x) * c.den * 2^n > c.num * |A|^2}.  That strict
inequality is decided in integer arithmetic only; no floating point comes
near a threshold.  D_0(A) is the support of N_A, i.e. the sumset A + A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import walsh
from .f2n import DenseSet

_NAIVE_BLOCK = 1 << 16  # lookups per block of x in naive_autocorrelation
_CSV_BLOCK = 1 << 12  # rows per write in Autocorrelation.write_csv


@dataclass(frozen=True)
class Autocorrelation:
    """Exact pair-count vector of a set: counts[x] = N_A(x).

    Invariants: counts[0] = |A| (the diagonal pairs), the total mass is
    |A|^2, and 0 <= counts[x] <= |A| everywhere.
    """

    n: int
    counts: np.ndarray  # int64, length 2^n

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def card(self) -> int:
        """|A|, read off the diagonal count at 0."""
        return int(self.counts[0])

    def popular_set(self, c: Fraction | int) -> DenseSet:
        """The set of x with N(x) * c.den * 2^n > c.num * |A|^2 (strict).

        For integer counts the strict rational comparison collapses to
        N(x) >= floor(c.num * |A|^2 / (c.den * 2^n)) + 1, so one integer
        threshold decides every point.

        Nothing in the package calls it, since ``popular_difference_set``
        decides D without a count vector; it stays because
        ``perfbench/run.py`` traces it by name (its ``TARGETS``), so the
        traced benchmark run fails without it, until the benchmark's
        target list changes.
        """
        thr = _floor_threshold(self.n, self.card, Fraction(c))
        # the comparison's bool bytes are D's 0/1 bytes, so no second vector
        return DenseSet._wrap(self.n, np.greater(self.counts, thr).view(np.uint8))

    def write_csv(self, path) -> None:
        """Write the "x,count" header line and one line per point, 2^12
        rows at a time, so the text held in memory is bounded whatever n
        is."""
        with open(path, "wb") as f:
            f.write(b"x,count\n")
            for lo in range(0, self.size, _CSV_BLOCK):
                rows = enumerate(self.counts[lo : lo + _CSV_BLOCK].tolist(), lo)
                f.write("".join(f"{x},{v}\n" for x, v in rows).encode("ascii"))


def autocorrelation(a: DenseSet) -> Autocorrelation:
    """N_A via the fast Walsh-Hadamard transform; exact, O(n 2^n)."""
    return Autocorrelation(a.n, walsh.xor_pair_counts(a.bits))


def naive_autocorrelation(a: DenseSet) -> Autocorrelation:
    """Independent oracle: direct membership counting, O(2^n |A|).

    Intended for n small enough that the quadratic-ish cost is fine
    (roughly n <= 14); must agree with ``autocorrelation`` exactly.
    N_A(x) counts the members y with x + y in A, looked up for blocks of
    x at a time, which caps the temporary at about 2^16 lookups.
    """
    members = a.points()
    counts = np.zeros(a.size, dtype=np.int64)
    if members.size:
        rows = max(1, _NAIVE_BLOCK // members.size)
        for x in range(0, a.size, rows):
            xs = np.arange(x, min(x + rows, a.size), dtype=np.int64)
            counts[x : x + rows] = a.bits[xs[:, None] ^ members[None, :]].sum(axis=1)
    return Autocorrelation(a.n, counts)


def _floor_threshold(n: int, card: int, c: Fraction) -> int:
    """floor(c |A|^2 / 2^n): N(x) is popular exactly when above it."""
    if c < 0:
        raise ValueError(f"parameter c must be non-negative, got {c}")
    return (c.numerator * card * card) // (c.denominator << n)


def popular_difference_set(a: DenseSet, c: Fraction | int) -> DenseSet:
    """D_c(A); c may exceed 1 (the regime where only 0 tends to survive).

    The same set as ``autocorrelation(a).popular_set(c)``, decided on the
    same exact integer threshold, but inside the transform's last pass
    (``walsh.xor_pairs_above``), so the count vector is never built.
    """
    thr = _floor_threshold(a.n, a.card, Fraction(c))
    return DenseSet._wrap(a.n, walsh.xor_pairs_above(a.bits, thr).view(np.uint8))


@dataclass(frozen=True)
class DcReport:
    """Exact threshold summary for one (A, c) pair; nothing is rounded."""

    n: int
    c: Fraction
    card_a: int
    popular: DenseSet = field(repr=False)  # D_c(A) itself

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.card_a, 1 << self.n)

    @property
    def count_threshold(self) -> Fraction:
        """c * alpha^2 * 2^n = c|A|^2/2^n: counts qualify iff strictly above it."""
        return Fraction(self.c.numerator * self.card_a**2, self.c.denominator << self.n)

    @property
    def min_count(self) -> int:
        """The least integer count that qualifies."""
        return _floor_threshold(self.n, self.card_a, self.c) + 1

    @property
    def card_d(self) -> int:
        return self.popular.card

    def describe(self) -> str:
        return (
            f"n={self.n} |A|={self.card_a} alpha={self.alpha} c={self.c}: "
            f"x in D iff N_A(x) > {self.count_threshold} "
            f"(i.e. N_A(x) >= {self.min_count}); |D|={self.card_d}"
        )


def dc_threshold_report(a: DenseSet, c: Fraction | int) -> DcReport:
    """The exact report on D_c(A), with D from ``popular_difference_set``
    and the threshold from |A| and c, so no count vector is built."""
    c = Fraction(c)
    return DcReport(a.n, c, a.card, popular_difference_set(a, c))
