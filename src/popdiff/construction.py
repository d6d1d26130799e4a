"""Certified construction of a set whose sumset lies in a popular
difference set.

The pipeline intersects r random translates of A, keeps the intersection
only when a pair-mass inequality holds, subsamples it to a small A_1 with
almost all pairwise sums popular, and filters to the A_2 whose members see
every partner, which forces A_2 + A_2 inside D_c(A).  Randomness only
decides *when* a stage succeeds; every acceptance is an exact big-integer
inequality, and a successful run is re-verified by an independent naive
containment check before a certificate is issued: no pair sum of A_2 may
leave D_c(A), checked lookup by lookup with no transform and no sumset
built, on whichever side of the incidence is smaller (the pair sums of
A_2 looked up in D, or A_2 shifted by each point outside D looked up in
A_2).  The verifier repeats no work: it runs that check once, on the
stored A_2, and the intersection acceptance once, in the replay of the
run, whose unpopular-pair count it compares with the stored one.

The pairwise stages count how the sums of a set X of m points fall in D
by one of three routes, which give the same exact integers: gathering
the m^2 pairwise XORs into D; the complement route, which looks up the
m |D^c| sums x + z with z outside D in X, since #{(x, y) in X^2 :
x + y not in D} = sum over z not in D of #{x in X : x + z in X}; or
exact Walsh-Hadamard transforms.  One rule picks the route of every
stage (``_route``): the cheapest of m^2, m |D^c| and 5 t 2^n lookups for
a transform route of t full-length transforms.  When D_c(A) covers
almost all of F_2^n, as for small c, the complement route costs almost
nothing.  The intersection acceptance and the subsample count their
pairs outside D with one helper (``_pairs_out``, t = 2); the filter
needs a count per point (t = 3).

Exact forms used throughout (alpha = |A| / 2^n, sigma = sn/sd in lowest
terms, all stated over the normalized counting measure and then cleared of
denominators):

* stage parameter: r is the least positive integer with c^r <= sigma/2;
* size restriction: ceil(2^n alpha^r / sqrt(2)) >= k for k = 1/sigma,
  decided via "z > k-1", squared to |A|^(2r) > (k-1)^2 * 2^(2n(r-1)+1)
  (trivially true at k = 1 for nonempty A);
* intersection acceptance, with S the number of ordered pairs of A_0^2
  whose sum is unpopular:
  (sn*|A_0|^2 - sd*S) * 2^(2n(r-1)+1) >= sn*|A|^(2r);
* subsample acceptance: sd * #{pairs with popular sum} >= (sd-2sn)*m^2;
* filter: keep x when sd * #{y : x+y popular} >= (sd-3sn)*m, which under
  3*sigma*m < 1 forces the count to equal m exactly.

Retries are capped; an exhausted stage raises with the smallest deficit
seen rather than looping forever.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .correlation import autocorrelation, popular_difference_set
from .f2n import (
    DenseSet,
    _check_dim,
    _f2set_sha256,
    _payload_dumps,
    _payload_loads,
    make_set,
    translate_packed,
    xor_member_counts,
)
from .rng import SplitMix64
from .walsh import xor_pair_counts

DEFAULT_TRIALS = 200
MAX_TRIALS = 10**6  # the largest budget a stage, or a certificate, may state
_CONTAINMENT_BLOCK = 1 << 18  # lookups per block of the containment check

CERT_FORMAT = "POPDIFF-CERT v1"


class RetryExhausted(RuntimeError):
    """A randomized stage ran out of trials; carries the best deficit seen."""

    def __init__(self, stage: str, trials: int, best_deficit: int | None):
        self.stage = stage
        self.trials = trials
        self.best_deficit = best_deficit
        super().__init__(
            f"stage {stage!r} not accepted within {trials} trials"
            f" (best deficit {best_deficit})"
        )

    def __reduce__(self):  # pickle rebuilds it from the fields, not the message
        return type(self), (self.stage, self.trials, self.best_deficit)


class PlanInfeasible(ValueError):
    """The construction plan cannot be executed on the given inputs."""


class DegenerateInput(ValueError):
    """The input set admits no construction at all (e.g. it is empty)."""


class SoundnessError(RuntimeError):
    """An inequality the accepted stages guarantee failed to re-check.

    This never fires on correct code; it indicates an upstream bug, not a
    property of the input.
    """


class VerificationError(RuntimeError):
    """Certificate verification failed; ``check`` names the first failure."""

    def __init__(self, check: str, detail: str):
        self.check = check
        self.detail = detail
        super().__init__(f"verification check {check!r} failed: {detail}")

    def __reduce__(self):
        return type(self), (self.check, self.detail)


class BoundaryAmbiguous(ValueError):
    """A floored bound evaluated within 2^-20 of an integer."""


@dataclass(frozen=True)
class Budgets:
    """Trial caps of the two randomized stages, each an int in
    [1, MAX_TRIALS]; anything else raises ValueError."""

    lemma_trials: int = DEFAULT_TRIALS
    refine_trials: int = DEFAULT_TRIALS

    def __post_init__(self) -> None:
        for name in ("lemma_trials", "refine_trials"):
            value = getattr(self, name)
            if type(value) is not int or not 1 <= value <= MAX_TRIALS:
                raise ValueError(
                    f"{name} must be an integer in [1, {MAX_TRIALS}], got {value!r}"
                )


def _least(pred) -> int:
    """Least integer r >= 1 with pred(r), for a predicate that is false
    below some r and true from it on: doubling finds a true r, then
    bisection the first one, in at most 2 bit_length(r) calls."""
    hi = 1
    while not pred(hi):
        hi *= 2
    lo = hi // 2  # pred(lo) is false, or lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _stage_rule(sigma: Fraction | int, c: Fraction | int):
    """The predicate r -> c^r <= sigma/2, decided by exact integer powers
    (2 sd cn^r <= sn cd^r), never by floating-point logarithms.  It is
    false below some r and true from it on.  Requires 0 < c < 1 (at c = 1
    no power ever drops below sigma/2) and 0 < sigma <= 1.
    """
    sigma = Fraction(sigma)
    c = Fraction(c)
    if not 0 < c < 1:
        raise ValueError(f"c must lie strictly between 0 and 1, got {c}")
    if not 0 < sigma <= 1:
        raise ValueError(f"sigma must lie in (0, 1], got {sigma}")
    sn, sd = sigma.numerator, sigma.denominator
    cn, cd = c.numerator, c.denominator
    return lambda r: 2 * sd * cn**r <= sn * cd**r


def lemma_r(sigma: Fraction | int, c: Fraction | int) -> int:
    """Least positive integer r with c^r <= sigma/2, found by ``_least``
    on ``_stage_rule``."""
    return _least(_stage_rule(sigma, c))


def _lemma_shift(n: int, r: int) -> int:
    """The exponent 2n(r-1)+1 that clears the denominators of the size
    restriction and the intersection acceptance (module docstring)."""
    return 2 * n * (r - 1) + 1


def restrict_holds(n: int, card_a: int, r: int, inv_sigma: int) -> bool:
    """Exact test of ceil(2^n alpha^r / sqrt(2)) >= inv_sigma.

    For integer k the ceiling condition is equivalent to
    2^n alpha^r / sqrt(2) > k - 1, and squaring clears the sqrt(2):
    |A|^(2r) > (k-1)^2 * 2^(2n(r-1)+1).  The k = 1 case reduces to
    |A| >= 1 via the same formula.
    """
    if inv_sigma < 1:
        raise ValueError("inv_sigma must be a positive integer")
    return card_a ** (2 * r) > (inv_sigma - 1) ** 2 << _lemma_shift(n, r)


@dataclass(frozen=True)
class ConstructionPlan:
    """Chosen (sigma, r) for an instance (n, |A|, c); the target size, the
    guarantee and the integer threshold of every stage derive from them.

    sigma is always the reciprocal of a positive integer, which keeps
    floor(1/sigma / 4) and every cross-multiplied threshold exact and the
    optimizer a finite search.
    """

    n: int
    card_a: int
    c: Fraction
    sigma: Fraction
    r: int

    @property
    def target_a1_size(self) -> int:
        """m = floor(1/sigma / 4)."""
        return self.sigma.denominator // 4

    @property
    def guarantee(self) -> int:
        """floor(m / 2), the |A_2| the construction guarantees."""
        return self.target_a1_size // 2

    @property
    def trivial(self) -> bool:
        """No guarantee: the construction falls back to the singleton {0}."""
        return self.guarantee == 0

    @property
    def lemma_shift(self) -> int:
        return _lemma_shift(self.n, self.r)

    @property
    def lemma_rhs(self) -> int:
        return self.sigma.numerator * self.card_a ** (2 * self.r)

    @property
    def pair_rhs(self) -> int:
        sn, sd = self.sigma.numerator, self.sigma.denominator
        return (sd - 2 * sn) * self.target_a1_size**2

    @property
    def filter_rhs(self) -> int:
        sn, sd = self.sigma.numerator, self.sigma.denominator
        return (sd - 3 * sn) * self.target_a1_size

    def validate(self) -> None:
        """Re-check the plan invariants; raises on any violation.

        With sigma = 1/sd, 3 sigma m < 1 holds by itself, as
        3 floor(sd / 4) < sd."""
        if self.sigma.numerator != 1:
            raise SoundnessError("plan sigma must be the reciprocal of an integer")
        # r is the least r >= 1 the rule holds at: true at r, false before
        rule = _stage_rule(self.sigma, self.c)
        if not (self.r >= 1 and rule(self.r) and (self.r == 1 or not rule(self.r - 1))):
            raise SoundnessError("plan r does not match the stage parameter rule")
        if not restrict_holds(self.n, self.card_a, self.r, self.sigma.denominator):
            raise SoundnessError("plan violates the size restriction")

    def to_json_obj(self) -> dict:
        return {
            "sigma": str(self.sigma),
            "r": self.r,
            "target_a1_size": self.target_a1_size,
            "guarantee": self.guarantee,
            "trivial": self.trivial,
            "lemma_shift": self.lemma_shift,
            "lemma_rhs": self.lemma_rhs,
            "pair_rhs": self.pair_rhs,
            "filter_rhs": self.filter_rhs,
        }


def choose_sigma(n: int, card_a: int, c: Fraction | int) -> ConstructionPlan:
    """Best plan for the given instance: maximize floor(floor(1/sigma/4)/2).

    For each stage count r the largest admissible integer k = 1/sigma is
    the min of the stage-rule bound k_rule(r) = floor(c.den^r / (2 c.num^r)),
    which never falls as r grows, and the size restriction k_size(r) (the
    largest k passing ``restrict_holds``), which never grows.  So the min
    rises up to the least r with k_rule >= k_size and falls after it, and
    its top is k_size there or k_rule one r before; ``_least`` finds that
    crossing by doubling and bisection.  The plan takes the best guarantee
    g = floor(top / 8) at the first r that reaches it, the least r with
    k_rule(r) >= 8g, which is ``lemma_r(1/(8g), c)``; its k then belongs
    to that r, as ``validate`` re-checks.  When no candidate reaches
    guarantee 1 (the typical outcome of alpha <= c at small n, where the
    closed-form bound is 0 anyway) the plan has sigma = 1, so it is
    trivial, and the caller falls back to the singleton {0}.
    """
    n = _check_dim(n)
    c = Fraction(c)
    if not 0 < c < 1:
        raise ValueError(f"c must lie strictly between 0 and 1, got {c}")
    if not 1 <= card_a <= 1 << n:
        raise ValueError(f"cardinality {card_a} out of range for n={n}")
    cn, cd = c.numerator, c.denominator

    def k_rule(r: int) -> int:
        return cd**r // (2 * cn**r)

    def k_size(r: int) -> int:
        return math.isqrt((card_a ** (2 * r) - 1) >> _lemma_shift(n, r)) + 1

    cross = _least(lambda r: k_rule(r) >= k_size(r))
    top = k_size(cross) if cross == 1 else max(k_size(cross), k_rule(cross - 1))
    guarantee = top // 8
    if guarantee == 0:
        k, r = 1, lemma_r(1, c)
    else:
        r = lemma_r(Fraction(1, 8 * guarantee), c)
        k = min(k_rule(r), k_size(r))
    plan = ConstructionPlan(n=n, card_a=card_a, c=c, sigma=Fraction(1, k), r=r)
    plan.validate()
    return plan


def sample_intersection(a: DenseSet, r: int, rng: SplitMix64) -> tuple[DenseSet, list[int]]:
    """Intersection of r independent uniform translates of A.

    All r translates are drawn, so the rng advances alike on every trial;
    once the running intersection is empty the rest are not applied.
    The work stays on A's packed bits (``translate_packed``) through the
    exact identity

        cap_i (A + x_i) = x_1 + (A cap cap_{i>=2} (A + (x_1 + x_i))),

    so the running intersection starts from A itself with no translate,
    and is translated by x_1 and unpacked once, only if it is non-empty.
    """
    if r < 1:
        raise ValueError(f"r must be at least 1, got {r}")
    translates = [rng.below(a.size) for _ in range(r)]
    x1 = translates[0]
    packed = a.packed_bits()
    out = packed
    for x in translates[1:]:
        if not out.any():
            break
        out = out & translate_packed(packed, x1 ^ x)
    if not out.any():
        return DenseSet(a.n), translates
    return DenseSet._from_packed(a.n, translate_packed(out, x1)), translates


# One Walsh-Hadamard transform of 2^n entries costs as much as gathering
# 5 to 7 * 2^n pairwise XORs into a membership vector of length 2^n: the
# routes of refine_a1 and filter_a2 cross at m^2 = 11..15 * 2^n and
# 14..22 * 2^n (n = 16..22, 2-vCPU Xeon, numpy 2.4).  The rule takes the
# low end.
_LOOKUPS_PER_TRANSFORM = 5


def _route(card: int, d: DenseSet, transforms: int) -> str:
    """Route rule of every pairwise stage (``lemma_accept``,
    ``refine_a1``, ``filter_a2``) for ``card`` points X in F_2^n whose
    transform route runs ``transforms`` full-length transforms: the
    cheapest of

    * ``"gather"``: the card^2 pairwise XORs of X looked up in D;
    * ``"complement"``: the card * |D^c| sums x + z with z outside D
      looked up in X, since #{(x, y) in X^2 : x + y not in D} =
      sum over z not in D of #{x in X : x + z in X};
    * ``"transform"``: 5 * transforms * 2^n lookups' worth of work.

    Ties go to the earlier route.  |D^c| is read as 2^n - |D| (a count
    that D keeps), so the points outside D are listed only when a stage
    takes the complement route, once per D however many trials it runs
    (``DenseSet.outside_points``), and not at all when D is the whole
    group.  Each gather's temporary is 512 rows of card or |D^c| int64
    indices (``xor_member_counts``).
    """
    costs = {
        "gather": card * card,
        "complement": card * (d.size - d.card),
        "transform": _LOOKUPS_PER_TRANSFORM * transforms << d.n,
    }
    return min(costs, key=costs.get)


def _pairs_out(x: DenseSet, d: DenseSet) -> int:
    """Number of ordered pairs of X whose sum lies outside D, on the
    route ``_route`` picks with the two transforms of an
    autocorrelation: gathered from the |X|^2 pairwise XORs, counted as
    #{(x, z) : z not in D, x + z in X}, or the autocorrelation of X
    summed over D^c.  All three are the same exact integer."""
    route = _route(x.card, d, transforms=2)
    if route == "transform":
        return int(autocorrelation(x).counts.sum(where=d.bits == 0))
    if route == "gather":
        pts = x.points()
        return len(pts) ** 2 - int(xor_member_counts(pts, d.bits).sum())
    outside = d.outside_points()
    if not len(outside):
        return 0  # D is the whole group, so X need not even be listed
    return int(xor_member_counts(x.points(), x.bits, outside).sum())


@dataclass(frozen=True)
class LemmaOutcome:
    s_count: int  # ordered pairs of A'^2 whose sum is unpopular
    deficit: int  # rhs - lhs of the acceptance inequality

    @property
    def accepted(self) -> bool:
        return self.deficit <= 0


def lemma_accept(
    a_prime: DenseSet, a: DenseSet, plan: ConstructionPlan, d: DenseSet
) -> LemmaOutcome:
    """Exact acceptance test for one intersection trial under ``plan``.

    S counts the ordered pairs of A' whose sum lies outside d = D_c(A)
    (``_pairs_out``).  The decision inequality is evaluated in
    big-integer arithmetic with no rounding anywhere.
    """
    if (a.n, a.card) != (plan.n, plan.card_a):
        raise ValueError("the plan was made for a set of another dimension or size")
    pairs = a_prime.card**2
    s_count = _pairs_out(a_prime, d)
    sn, sd = plan.sigma.numerator, plan.sigma.denominator
    lhs = (sn * pairs - sd * s_count) << plan.lemma_shift
    return LemmaOutcome(s_count=s_count, deficit=plan.lemma_rhs - lhs)


@dataclass(frozen=True)
class LemmaStage:
    a0: DenseSet
    translates: tuple[int, ...]
    s_count: int
    trials: int


def find_lemma_set(
    a: DenseSet,
    plan: ConstructionPlan,
    d: DenseSet,
    rng: SplitMix64,
    max_trials: int = DEFAULT_TRIALS,
) -> LemmaStage:
    """Rejection-sample intersections of ``plan.r`` translates until one
    is accepted.

    Acceptance implies (and this function re-asserts) the two facts the
    rest of the pipeline relies on: the squared size bound
    2 |A_0|^2 2^(2n(r-1)) >= |A|^(2r), and that at most a sigma fraction
    of the ordered pairs of A_0^2 have unpopular sums.
    """
    if max_trials < 1:
        raise ValueError("max_trials must be at least 1")
    sn, sd = plan.sigma.numerator, plan.sigma.denominator
    best_deficit: int | None = None
    for trial in range(1, max_trials + 1):
        a0, translates = sample_intersection(a, plan.r, rng)
        out = lemma_accept(a0, a, plan, d)
        if out.accepted:
            # the size bound times sn, so that it reads off lemma_rhs
            if sn * a0.card**2 << plan.lemma_shift < plan.lemma_rhs:
                raise SoundnessError("accepted trial violates the squared size bound")
            if sn * a0.card**2 < sd * out.s_count:
                raise SoundnessError("accepted trial violates the pair-density bound")
            return LemmaStage(a0, tuple(translates), out.s_count, trial)
        if best_deficit is None or out.deficit < best_deficit:
            best_deficit = out.deficit
    raise RetryExhausted("lemma", max_trials, best_deficit)


@dataclass(frozen=True)
class RefineStage:
    a1: DenseSet
    pairs_in_d: int
    trials: int


def refine_a1(
    a0: DenseSet,
    plan: ConstructionPlan,
    d: DenseSet,
    rng: SplitMix64,
    max_trials: int = DEFAULT_TRIALS,
) -> RefineStage:
    """Uniform m-subset of A_0, resampled until almost all pair sums are
    popular: sd * pairs >= (sd - 2 sn) * m^2, checked exactly.

    The pair count is |A_1|^2 minus ``_pairs_out`` of the sample.
    """
    if max_trials < 1:
        raise ValueError("max_trials must be at least 1")
    m = plan.target_a1_size
    if m < 1:
        raise PlanInfeasible("plan has target size 0; nothing to refine")
    pts = a0.points()
    if len(pts) < m:
        raise PlanInfeasible(f"|A_0| = {len(pts)} is below the target size {m}")
    sd = plan.sigma.denominator
    best_deficit: int | None = None
    for trial in range(1, max_trials + 1):
        a1 = make_set(a0.n, pts[rng.sample(len(pts), m)])
        pairs = a1.card**2 - _pairs_out(a1, d)
        if pairs * sd >= plan.pair_rhs:
            return RefineStage(a1, pairs, trial)
        deficit = plan.pair_rhs - pairs * sd
        if best_deficit is None or deficit < best_deficit:
            best_deficit = deficit
    raise RetryExhausted("refine", max_trials, best_deficit)


def filter_a2(a1: DenseSet, plan: ConstructionPlan, d: DenseSet) -> DenseSet:
    """Keep the points of A_1 that see (1 - 3 sigma) of A_1 inside D.

    Because 3 sigma |A_1| < 1 the threshold can only be met by seeing all
    of A_1, so membership literally means x + A_1 lies inside D; that set
    inclusion and the counting bound |A_2| >= ceil(|A_1| / 2) are both
    asserted outright, since they are theorems given an accepted A_1.
    The count of x comes from the route ``_route`` picks with three
    transforms: gathered from x + A_1, m minus #{z not in D : x + z in A_1}
    (y = x + z runs over the partners of x whose sum is unpopular), or
    read off the exact XOR pair counts of A_1 and D at x.
    """
    m = plan.target_a1_size
    pts = a1.points()
    if len(pts) != m:
        raise PlanInfeasible(f"|A_1| = {len(pts)} does not match the plan size {m}")
    sn, sd = plan.sigma.numerator, plan.sigma.denominator
    if 3 * sn * m >= sd:
        raise PlanInfeasible("3 * sigma * |A_1| must stay below 1")
    route = _route(m, d, transforms=3)
    if route == "gather":
        counts = xor_member_counts(pts, d.bits)
    elif route == "complement":
        counts = m - xor_member_counts(pts, a1.bits, d.outside_points())
    else:
        counts = xor_pair_counts(a1.bits, d.bits)[pts]
    keep = counts * sd >= plan.filter_rhs
    kept = pts[keep]
    # counts[x] == m says that x + y lies in D for every y in A_1
    if not (counts[keep] == m).all():
        raise SoundnessError("a filtered point fails the literal x + A_1 inclusion")
    if len(kept) < (m + 1) // 2:
        raise SoundnessError("|A_2| fell below ceil(|A_1| / 2)")
    return make_set(a1.n, kept)


def verify_containment(a2: DenseSet, d: DenseSet) -> bool:
    """Exhaustive check that A_2 + A_2 is inside D, on whichever side of
    the incidence is smaller.

    Deliberately independent of the pipeline: no transform, no stored
    count, no sumset built, and none of the stages' lookup helpers; both
    sides are inline numpy gathers.  A_2 + A_2 lies inside D exactly
    when no x + z with x in A_2 and z outside D is in A_2 (take
    z = x + y).  So the check either forms every sum x + y with x <= y
    in A_2 and looks it up in D, about |A_2|^2 / 2 lookups, or forms
    every x + z with z outside D and looks it up in A_2, |D^c| |A_2|
    lookups; it takes the second when 2 |D^c| <= |A_2|, and so makes no
    lookup at all when D is the whole group.  Either side runs in blocks
    of about 2^18 lookups (rows of A_2 from index i on against the points
    from index i on, or rows of outside points against all of A_2), and
    the first block that finds a sum outside D ends the check.
    """
    if a2.n != d.n:
        raise ValueError(f"dimension mismatch: {a2.n} vs {d.n}")
    pts = a2.points()
    outside = np.flatnonzero(d.bits == 0)
    if 2 * len(outside) <= len(pts):
        rows = max(1, _CONTAINMENT_BLOCK // max(1, len(pts)))
        for i in range(0, len(outside), rows):
            if a2.bits[outside[i : i + rows, None] ^ pts[None, :]].any():
                return False
        return True
    i = 0
    while i < len(pts):
        rows = max(1, _CONTAINMENT_BLOCK // (len(pts) - i))
        if not d.bits[pts[i : i + rows, None] ^ pts[None, i:]].all():
            return False
        i += rows
    return True


def _bound_args(n: int, alpha: Fraction | int, c: Fraction | int) -> tuple[Fraction, Fraction]:
    """alpha and c as Fractions; raises ValueError outside the bound's domain."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    alpha, c = Fraction(alpha), Fraction(c)
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0 < c < 1:
        raise ValueError(f"c must lie strictly between 0 and 1, got {c}")
    return alpha, c


# mpmath takes tens of milliseconds to import, so the three bound functions,
# its only users, import it when called: commands that take no bound skip it
def _log_bound(n: int, alpha: Fraction, c: Fraction):
    """Natural log of the unfloored ``theorem_bound`` at the working
    precision, n (1 - log(1/alpha)/log(1/c)) log 2 - 3 log(1/alpha) - log 12,
    with log1p keeping log(1/alpha) exact near alpha = 1."""
    import mpmath

    la, lc = (mpmath.log1p(mpmath.mpf(q.denominator - q.numerator) / q.numerator)
              for q in (alpha, c))
    return n * (1 - la / lc) * mpmath.log(2) - 3 * la - mpmath.log(12)


def _bound_digits(n: int, alpha: Fraction | int, c: Fraction | int) -> int:
    """1 + floor(log10) of the unfloored ``theorem_bound``: its digit count
    off by at most one when the bound is at least 1, however large n is
    (53 + bit_length(n) bits), else at most 1."""
    import mpmath

    alpha, c = _bound_args(n, alpha, c)
    with mpmath.workprec(53 + n.bit_length()):
        return int(mpmath.floor(_log_bound(n, alpha, c) / mpmath.log(10))) + 1


# Working bits of the high-precision ``theorem_bound`` beyond the value's
# integer part and bit_length(n): 20 for the 2^-20 boundary rule, and 44
# more so that the rounding error stays far below that boundary
_BOUND_GUARD_BITS = 64


def theorem_bound(n: int, alpha: Fraction | int, c: Fraction | int) -> int:
    """floor(alpha^3 * 2^(n (1 - log(1/alpha)/log(1/c))) / 12).

    When alpha = 2^-a and c = 2^-b with b dividing n(b-a) the exponent is
    an integer and the value is computed exactly.  Otherwise it is
    evaluated at a precision sized to the value, about log2(value) +
    bit_length(n) + 64 bits: the log of the value is off by about
    n 2^-precision, and the value by that much relative to it.  It is
    floored only when it sits more than 2^-20 away from an integer;
    nearer than that to a positive integer raises BoundaryAmbiguous
    instead of guessing.  The value is positive, so one within 2^-20 of 0
    floors to 0.
    """
    import mpmath

    alpha, c = _bound_args(n, alpha, c)

    def _dyadic_exp(q: Fraction) -> int | None:
        # q = 2^-e exactly, e >= 0
        if q.numerator == 1 and (q.denominator & (q.denominator - 1)) == 0:
            return q.denominator.bit_length() - 1
        return None

    a_exp = _dyadic_exp(alpha)
    b_exp = _dyadic_exp(c)
    if a_exp is not None and b_exp is not None and (n * (b_exp - a_exp)) % b_exp == 0:
        e = n * (b_exp - a_exp) // b_exp
        value = Fraction(2) ** (e - 3 * a_exp) / 12
        return value.numerator // value.denominator

    # 3322 / 1000 > log2(10), so the integer part fits in the first term
    int_bits = max(0, _bound_digits(n, alpha, c)) * 3322 // 1000 + 1
    with mpmath.workprec(int_bits + n.bit_length() + _BOUND_GUARD_BITS):
        value = mpmath.exp(_log_bound(n, alpha, c))
        nearest = mpmath.nint(value)
        if nearest > 0 and abs(value - nearest) <= mpmath.mpf(2) ** -20:
            raise BoundaryAmbiguous(
                f"bound value {value} is within 2^-20 of an integer"
            )
        return int(mpmath.floor(value))


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertStats:
    """What the randomized stages measured; None on a trivial plan."""

    lemma_trials: int | None
    s_count: int | None
    refine_trials: int | None
    a1_pairs_in_d: int | None


# The set-valued fields, in the order that sorted keys put them in the text
_PAYLOAD_FIELDS = ("a0", "a1", "a2", "input_set")
# A payload's stand-in in the skeleton, which JSON writes as the text below;
# no other field of a certificate can hold it
_SPLICE = "\x00"
_SPLICE_TEXT = json.dumps(_SPLICE)[1:-1]


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _is_joined(text: str, parts: list[str]) -> bool:
    """Whether text equals ``"".join(parts)``, compared in place, with no
    text built."""
    at = 0
    for part in parts:
        if not text.startswith(part, at):
            return False
        at += len(part)
    return at == len(text)


def _optional_int(value) -> int | None:
    return None if value is None else int(value)


def _set_from_payload(n: int, payload: str | None) -> DenseSet | None:
    """A certificate's set parsed as strictly as an F2SET file."""
    return None if payload is None else _payload_loads(n, payload)


@dataclass(frozen=True)
class Certificate:
    """Replayable transcript of one construction run.

    Everything needed for independent verification is embedded: the input
    set itself (hex payload), the exact parameters, the seed and budgets,
    the accepted intermediate sets, and the stage statistics.  Serialization
    is canonical (sorted keys, fixed indentation), so identical runs yield
    byte-identical files.  A value that other fields determine is read off
    them, not stored: ``c`` from the plan, the set cardinalities from the
    sets, ``guarantee_met`` from A_2 and the plan.
    """

    input_set: DenseSet
    seed: int
    budgets: Budgets
    plan: ConstructionPlan
    translates: tuple[int, ...]
    a0: DenseSet | None
    a1: DenseSet | None
    a2: DenseSet
    stats: CertStats
    verified: bool

    @property
    def n(self) -> int:
        return self.input_set.n

    @property
    def c(self) -> Fraction:
        return self.plan.c

    @property
    def guarantee_met(self) -> bool:
        return self.a2.card >= self.plan.guarantee

    def _parts(self, payload_of) -> list[str]:
        """The canonical text in parts: JSON pieces alternating with the
        payloads of the sets that are not None, in text order, where
        ``payload_of(field)`` is a set field's payload string.  Only the
        small pieces go through JSON; a payload is lowercase hex, which
        JSON writes as it is, so joining the parts gives the canonical
        text byte for byte.  ``input_sha256`` is hashed from the input
        set's payload."""
        payloads = {f: payload_of(f) for f in _PAYLOAD_FIELDS if getattr(self, f) is not None}
        obj = {
            "format": CERT_FORMAT,
            "n": self.n,
            "c": str(self.c),
            "input_card": self.input_set.card,
            "input_sha256": _f2set_sha256(self.n, payloads["input_set"].encode("ascii")),
            "seed": self.seed,
            "budgets": {
                "lemma_trials": self.budgets.lemma_trials,
                "refine_trials": self.budgets.refine_trials,
            },
            "plan": self.plan.to_json_obj(),
            "translates": list(self.translates),
            "stats": {
                **vars(self.stats),
                "card_a0": None if self.a0 is None else self.a0.card,
                "card_a2": self.a2.card,
            },
            "verified": self.verified,
            "guarantee_met": self.guarantee_met,
        }
        for field in _PAYLOAD_FIELDS:
            obj[field] = _SPLICE if field in payloads else None
        pieces = _canonical_json(obj).split(_SPLICE_TEXT)
        values = list(payloads.values())
        parts = pieces + values
        parts[::2], parts[1::2] = pieces, values
        return parts

    def dumps(self) -> str:
        """The canonical text: sorted keys, two-space indentation and a
        final newline."""
        return "".join(self._parts(lambda field: _payload_dumps(getattr(self, field))))

    @classmethod
    def from_json_obj(cls, obj) -> "Certificate":
        """Parse a decoded certificate; raises ValueError on anything else.

        Derivable fields are derived, never read, and the object must have
        the canonical JSON of the certificate built from it, so an edited
        derived field, another JSON type or spelling of a number, and an
        unknown field all fail to parse.
        """
        return cls._parse(obj, None)

    @classmethod
    def _parse(cls, obj, text: str | None) -> "Certificate":
        """The certificate ``obj`` holds, built once; raises ValueError unless
        ``text`` (for None, the canonical JSON of ``obj``) is its ``dumps()``.

        No set is written as text again.  Each payload string of ``obj``
        decoded to its set, and F2SET gives every set one payload, so
        ``dumps()`` is the JSON pieces with those strings between them; the
        text is compared with these parts in place."""
        try:
            cert = cls._build(obj)
            loaded = text is not None
            if not loaded:
                text = _canonical_json(obj)
            parts = cert._parts(obj.__getitem__)
            canonical = _is_joined(text, parts)
            if not canonical and loaded and _is_joined(_canonical_json(obj), parts):
                # JSON round-trips the canonical object exactly, so a text
                # that is not dumps() has non-canonical fields or another layout
                raise ValueError("the certificate text is not in canonical layout")
        except (KeyError, TypeError, ArithmeticError) as exc:
            raise ValueError(f"malformed certificate: {type(exc).__name__}: {exc}") from None
        if not canonical:
            raise ValueError("the certificate is not the canonical form of the fields it holds")
        return cert

    @classmethod
    def _build(cls, obj) -> "Certificate":
        if obj["format"] != CERT_FORMAT:
            raise ValueError(f"unsupported certificate format: {obj['format']!r}")
        n = int(obj["n"])
        c = Fraction(obj["c"])
        if c < 0:
            raise ValueError(f"c must be non-negative, got {c}")
        input_set = _set_from_payload(n, obj["input_set"])
        if input_set is None:
            raise ValueError("certificate is missing the input set")
        plan_obj = obj["plan"]
        plan = ConstructionPlan(
            n=n,
            card_a=input_set.card,
            c=c,
            sigma=Fraction(plan_obj["sigma"]),
            r=int(plan_obj["r"]),
        )
        # lemma_rhs = sn * |A|^(2r) has at least 2r(bit_length(|A|) - 1) + 1
        # bits when sn >= 1 (every plan's sigma); refusing a shorter stored
        # value before the power keeps parsing from growing with r
        card_bits = input_set.card.bit_length() - 1
        if 2 * plan.r * card_bits + 1 > int(plan_obj["lemma_rhs"]).bit_length():
            raise ValueError("plan r is too large for the stored lemma_rhs")
        seed = int(obj["seed"])
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed must be an integer in [0, 2^64), got {seed}")
        a0 = _set_from_payload(n, obj["a0"])
        a1 = _set_from_payload(n, obj["a1"])
        a2 = _set_from_payload(n, obj["a2"])
        if a2 is None:
            raise ValueError("certificate is missing the constructed set")
        stats_obj = obj["stats"]
        return cls(
            input_set=input_set,
            seed=seed,
            budgets=Budgets(
                lemma_trials=int(obj["budgets"]["lemma_trials"]),
                refine_trials=int(obj["budgets"]["refine_trials"]),
            ),
            plan=plan,
            translates=tuple(int(t) for t in obj["translates"]),
            a0=a0,
            a1=a1,
            a2=a2,
            stats=CertStats(
                lemma_trials=_optional_int(stats_obj["lemma_trials"]),
                s_count=_optional_int(stats_obj["s_count"]),
                refine_trials=_optional_int(stats_obj["refine_trials"]),
                a1_pairs_in_d=_optional_int(stats_obj["a1_pairs_in_d"]),
            ),
            verified=bool(obj["verified"]),
        )

    @classmethod
    def loads(cls, text: str) -> "Certificate":
        """Parse certificate text; raises ValueError unless ``text`` is
        exactly ``dumps()`` of the certificate it holds."""
        try:
            obj = json.loads(text)
        except RecursionError:
            raise ValueError("certificate JSON is nested too deeply") from None
        return cls._parse(obj, text)

    def write(self, path) -> None:
        Path(path).write_bytes(self.dumps().encode("ascii"))

    @classmethod
    def read(cls, path) -> "Certificate":
        """Read a certificate file; OSError when it cannot be read, and
        ValueError, as from ``loads``, when it is not ASCII."""
        data = Path(path).read_bytes()
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ValueError(f"certificate is not ASCII: {exc}") from None
        del data  # the text is the one copy held while it is parsed
        return cls.loads(text)


def construct_popular_sumset(
    a: DenseSet,
    c: Fraction | int,
    seed: int,
    budgets: Budgets = Budgets(),
    exploratory: bool = False,
) -> Certificate:
    """Run the full pipeline and return a verified certificate.

    The guarantee-bearing regime is 0 < c <= 1/2; values up to (but not
    including) 1 are admitted with ``exploratory=True``.  On a trivial
    plan (alpha <= c, or no sigma reaches guarantee 1) the construction
    falls back to the singleton {0}, which is always valid since
    c * alpha < 1 for c < 1.  A plan whose certificate could not be
    written, because its ``lemma_rhs`` has more decimal digits than
    Python converts to text (``sys.get_int_max_str_digits()``), raises
    PlanInfeasible before any stage runs.
    """
    c = Fraction(c)
    if a.card == 0:
        raise DegenerateInput("input set is empty")
    if not 0 < c < 1:
        raise ValueError(f"construction requires 0 < c < 1, got {c}")
    if c > Fraction(1, 2) and not exploratory:
        raise ValueError(
            f"c = {c} exceeds 1/2; pass exploratory=True to run anyway"
        )
    plan = choose_sigma(a.n, a.card, c)
    _check_writable(plan)
    return _construct(a, plan, seed, budgets, popular_difference_set(a, c))


def _check_writable(plan: ConstructionPlan) -> None:
    """Raise PlanInfeasible when a certificate with this plan cannot be
    written: its ``lemma_rhs``, the only certificate integer that can
    outgrow the smallest limit Python allows (640 digits), has more
    decimal digits than Python converts to text."""
    limit = _int_str_limit()
    if limit and plan.lemma_rhs >= 10**limit:
        raise PlanInfeasible(
            f"the plan's lemma_rhs has {_decimal_digits(plan.lemma_rhs)} decimal digits, "
            f"more than the {limit} that Python converts to text, so the "
            f"certificate cannot be written (see sys.set_int_max_str_digits)"
        )


def _int_str_limit() -> int:
    """The most decimal digits Python converts an int to text with
    (``sys.get_int_max_str_digits()``), 0 for no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _decimal_digits(x: int) -> int:
    """The number of decimal digits of x >= 1, without writing x as text."""
    digits = (x.bit_length() - 1) * 1233 >> 12  # 1233 / 4096 < log10(2)
    while 10**digits <= x:
        digits += 1
    return digits


def _construct(
    a: DenseSet, plan: ConstructionPlan, seed: int, budgets: Budgets, d: DenseSet
) -> Certificate:
    """The pipeline, then the independent containment check that must
    pass before its certificate is issued; for callers that have checked
    the arguments (|A| >= 1, 0 < c < 1) and hold plan =
    choose_sigma(n, |A|, c) and d = D_c(A)."""
    cert = _run_pipeline(a, plan, seed, budgets, d)
    if not verify_containment(cert.a2, d):
        raise SoundnessError("independent containment check failed")
    return replace(cert, verified=True)


def _run_pipeline(
    a: DenseSet, plan: ConstructionPlan, seed: int, budgets: Budgets, d: DenseSet
) -> Certificate:
    """The construction stages after argument checks (|A| >= 1,
    0 < c < 1), given plan = choose_sigma(n, |A|, c) and d = D_c(A).
    The containment check is left to the caller, so the certificate
    comes back with ``verified=False``: ``_construct`` runs the check
    before it sets the flag and issues, and ``verify_certificate`` runs
    it once, on the certificate it checks, before it replays."""
    rng = SplitMix64(seed)

    if plan.trivial:
        # 0 is in D_c(A) for c < 1: N_A(0) = |A| > c|A|^2 / 2^n
        a2 = make_set(a.n, [0])
        translates, a0, a1 = (), None, None
        stats = CertStats(None, None, None, None)
    else:
        lemma = find_lemma_set(a, plan, d, rng, budgets.lemma_trials)
        refine = refine_a1(lemma.a0, plan, d, rng, budgets.refine_trials)
        a2 = filter_a2(refine.a1, plan, d)
        translates, a0, a1 = lemma.translates, lemma.a0, refine.a1
        stats = CertStats(
            lemma_trials=lemma.trials,
            s_count=lemma.s_count,
            refine_trials=refine.trials,
            a1_pairs_in_d=refine.pairs_in_d,
        )
    return Certificate(
        input_set=a,
        seed=seed,
        budgets=budgets,
        plan=plan,
        translates=translates,
        a0=a0,
        a1=a1,
        a2=a2,
        stats=stats,
        verified=False,
    )


def verify_certificate(cert: Certificate) -> None:
    """Independently re-verify a certificate; raises VerificationError.

    Stored booleans are given zero trust: the containment is re-derived
    pair by pair against a freshly computed D_c(A), the plan is
    re-derived from (n, |A|, c), the stage sets must be present and
    nested, and the whole run is replayed from the stored seed, with no
    more trials than the stats record, and compared field by field.  That
    equals a byte comparison: ``dumps`` is a function of the fields, and
    ``loads`` accepts only the ``dumps()`` text of the certificate it builds.

    No check runs twice.  The replay decides the acceptance inequality
    and counts S on the A_0 it reaches, so a stored A_0 it does not reach
    fails ``replay``, and a wrong S on the A_0 it reaches fails
    ``lemma-soundness``.  A replay equal to the certificate has its
    A_2 and D, so a second containment check could not change the verdict.
    """
    a = cert.input_set

    d = popular_difference_set(a, cert.c)
    if not verify_containment(cert.a2, d):
        raise VerificationError(
            "containment", "A' + A' is not inside the popular difference set"
        )

    try:
        expected_plan = choose_sigma(a.n, a.card, cert.c)
    except ValueError as exc:
        raise VerificationError("plan", str(exc)) from None
    if expected_plan != cert.plan:
        raise VerificationError("plan", "stored plan differs from the derived plan")

    if not cert.plan.trivial:
        if cert.a0 is None or cert.a1 is None:
            raise VerificationError("lemma-soundness", "intermediate sets missing")
        if not cert.a1.subset_of(cert.a0) or not cert.a2.subset_of(cert.a1):
            raise VerificationError("lemma-soundness", "stage sets are not nested")

    # the plan check above already enforced what construct_popular_sumset
    # checks of its arguments (|A| >= 1 and 0 < c < 1), and that the
    # stored plan is the one choose_sigma derives
    try:
        replay = _run_pipeline(a, cert.plan, cert.seed, _replay_limits(cert), d)
    except (RetryExhausted, ValueError) as exc:
        raise VerificationError("replay", f"replay did not complete: {exc}") from None
    same_a0 = replay.a0 is not None and replay.a0 == cert.a0
    if same_a0 and replay.stats.s_count != cert.stats.s_count:
        raise VerificationError("lemma-soundness", "stored unpopular-pair count is wrong")
    try:
        _check_writable(cert.plan)
    except PlanInfeasible as exc:
        raise VerificationError("replay", str(exc)) from None
    if replace(replay, budgets=cert.budgets, verified=True) != cert:
        raise VerificationError("replay", "replayed certificate differs")


def _replay_limits(cert: Certificate) -> Budgets:
    """The budgets capped at the trial counts the certificate records, so
    a replay never runs more trials than the certificate claims."""
    if cert.plan.trivial:
        return cert.budgets  # the trivial pipeline runs no trials
    used = (cert.stats.lemma_trials, cert.stats.refine_trials)
    if None in used:
        raise ValueError("the certificate records no trial counts")
    return Budgets(
        min(cert.budgets.lemma_trials, used[0]), min(cert.budgets.refine_trials, used[1])
    )
