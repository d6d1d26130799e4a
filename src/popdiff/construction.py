"""Certified construction of a set whose sumset lies in a popular
difference set.

The pipeline intersects r random translates of A, keeps the intersection
only when a pair-mass inequality holds, subsamples it to a small A_1 with
almost all pairwise sums popular, and filters to the A_2 whose members see
every partner, which forces A_2 + A_2 inside D_c(A).  Randomness only
decides *when* a stage succeeds; every acceptance is an exact big-integer
inequality, and a successful run is re-verified by an independent naive
containment check before a certificate is issued: every pairwise XOR of
A_2 is looked up in D_c(A), with no transform and no sumset built.  The
verifier runs that check once, on the stored A_2, and its replay does not
repeat it.

The pairwise stages count the sums of a set of m points in D either by
gathering the m^2 pairwise XORs or through exact Walsh-Hadamard
transforms; both routes give the same integer counts.  One rule picks the
route of every stage (``_gathers``): gather while that is the cheaper
route, m^2 <= 5 t 2^n for a transform route of t full-length transforms.
The intersection acceptance and the subsample count their pairs in D
with one helper (``_pairs_in``, t = 2); the filter needs a count per
point (t = 3).

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
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import mpmath

from .correlation import autocorrelation, popular_difference_set
from .f2n import (
    DenseSet,
    _check_dim,
    f2set_dumps,
    f2set_loads,
    make_set,
    set_sha256,
    xor_member_counts,
)
from .rng import SplitMix64
from .walsh import xor_pair_counts

DEFAULT_TRIALS = 200
MAX_TRIALS = 10**6  # the largest budget a stage, or a certificate, may state
_CONTAINMENT_BLOCK = 1 << 18  # pairs per block of the containment check

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


def lemma_r(sigma: Fraction | int, c: Fraction | int) -> int:
    """Least positive integer r with c^r <= sigma/2.

    Decided by exact integer powering (cn^r * sd * 2 <= sn * cd^r), never
    by floating-point logarithms.  Requires 0 < c < 1 (at c = 1 no power
    ever drops below sigma/2) and 0 < sigma <= 1.
    """
    sigma = Fraction(sigma)
    c = Fraction(c)
    if not 0 < c < 1:
        raise ValueError(f"c must lie strictly between 0 and 1, got {c}")
    if not 0 < sigma <= 1:
        raise ValueError(f"sigma must lie in (0, 1], got {sigma}")
    lhs = c.numerator * sigma.denominator * 2
    rhs = sigma.numerator * c.denominator
    r = 1
    while lhs > rhs:
        lhs *= c.numerator
        rhs *= c.denominator
        r += 1
    return r


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
    """Chosen (sigma, r) plus the integer thresholds of every stage.

    sigma is always the reciprocal of a positive integer, which keeps
    floor(1/sigma / 4) and every cross-multiplied threshold exact and the
    optimizer a finite search.
    """

    n: int
    card_a: int
    c: Fraction
    sigma: Fraction
    r: int
    target_a1_size: int  # m = floor(1/sigma / 4)
    guarantee: int  # floor(m / 2)
    trivial: bool

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
        """Re-check the plan invariants; raises on any violation."""
        sn, sd = self.sigma.numerator, self.sigma.denominator
        if sn != 1:
            raise SoundnessError("plan sigma must be the reciprocal of an integer")
        if self.r != lemma_r(self.sigma, self.c):
            raise SoundnessError("plan r does not match the stage parameter rule")
        if not restrict_holds(self.n, self.card_a, self.r, sd):
            raise SoundnessError("plan violates the size restriction")
        if self.target_a1_size != sd // 4:
            raise SoundnessError("plan target size is not floor(1/sigma / 4)")
        if 3 * sn * self.target_a1_size >= sd:
            raise SoundnessError("plan violates 3 * sigma * m < 1")
        if self.guarantee != self.target_a1_size // 2:
            raise SoundnessError("plan guarantee is not floor(m / 2)")

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
    min of the stage-rule bound floor(c.den^r / (2 c.num^r)) and the size
    restriction (largest k passing ``restrict_holds``); candidates whose k
    belongs to a different r are skipped, since they recur at their true r
    with at least as large a k.  When no candidate reaches guarantee 1
    (the typical outcome of alpha <= c at small n, where the closed-form
    bound is 0 anyway) the plan is flagged trivial and the caller falls
    back to the singleton {0}.
    """
    n = _check_dim(n)
    c = Fraction(c)
    if not 0 < c < 1:
        raise ValueError(f"c must lie strictly between 0 and 1, got {c}")
    if not 1 <= card_a <= 1 << n:
        raise ValueError(f"cardinality {card_a} out of range for n={n}")

    best: tuple[int, int, int] | None = None  # (guarantee, r, k)
    cn, cd = c.numerator, c.denominator
    # safe cutoff: past the least r with c^r <= 2^(-2n) the size
    # restriction admits no useful sigma
    r_max = 1
    while cn**r_max << (2 * n) > cd**r_max:
        r_max += 1
    for r in range(1, r_max + 1):
        k_rule = cd**r // (2 * cn**r)
        k_size = math.isqrt((card_a ** (2 * r) - 1) >> _lemma_shift(n, r)) + 1
        k = min(k_rule, k_size)
        if k < 8:
            continue  # guarantee floor(floor(k/4)/2) would be 0
        if lemma_r(Fraction(1, k), c) != r:
            continue
        if not restrict_holds(n, card_a, r, k):
            raise SoundnessError("size-restriction bound computed incorrectly")
        guarantee = (k // 4) // 2
        if best is None or guarantee > best[0]:
            best = (guarantee, r, k)

    if best is None:
        sigma = Fraction(1, 1)
        plan = ConstructionPlan(
            n=n,
            card_a=card_a,
            c=c,
            sigma=sigma,
            r=lemma_r(sigma, c),
            target_a1_size=0,
            guarantee=0,
            trivial=True,
        )
        return plan

    guarantee, r, k = best
    plan = ConstructionPlan(
        n=n,
        card_a=card_a,
        c=c,
        sigma=Fraction(1, k),
        r=r,
        target_a1_size=k // 4,
        guarantee=guarantee,
        trivial=False,
    )
    plan.validate()
    return plan


def sample_intersection(a: DenseSet, r: int, rng: SplitMix64) -> tuple[DenseSet, list[int]]:
    """Intersection of r independent uniform translates of A.

    All r translates are drawn, so the rng advances alike on every trial;
    once the running intersection is empty the rest are not applied.
    """
    if r < 1:
        raise ValueError(f"r must be at least 1, got {r}")
    translates = [rng.below(a.size) for _ in range(r)]
    out = a.translate(translates[0])
    for x in translates[1:]:
        if not out.bits.any():
            break
        out = out.intersect(a.translate(x))
    return out, translates


# One Walsh-Hadamard transform of 2^n entries costs as much as gathering
# 5 to 7 * 2^n pairwise XORs into a membership vector of length 2^n: the
# routes of refine_a1 and filter_a2 cross at m^2 = 11..15 * 2^n and
# 14..22 * 2^n (n = 16..22, 2-vCPU Xeon, numpy 2.4).  The rule takes the
# low end.
_LOOKUPS_PER_TRANSFORM = 5


def _gathers(card: int, n: int, transforms: int) -> bool:
    """Route rule of every pairwise stage (``lemma_accept``,
    ``refine_a1``, ``filter_a2``) for ``card`` points in F_2^n whose
    transform route runs ``transforms`` full-length transforms: gather
    the card^2 pairwise XORs when that is the cheaper route,
    card^2 <= 5 * transforms * 2^n.  The gather's temporary is
    512 * card int64 indices (``xor_member_counts``)."""
    return card * card <= _LOOKUPS_PER_TRANSFORM * transforms << n


def _pairs_in(x: DenseSet, d: DenseSet) -> int:
    """Number of ordered pairs of X whose sum lies in D: gathered from
    the |X|^2 pairwise XORs while ``_gathers`` (the two transforms of an
    autocorrelation) holds, otherwise the autocorrelation of X summed
    over D; both are the same exact integer."""
    if _gathers(x.card, x.n, transforms=2):
        return int(xor_member_counts(x.points(), d.bits).sum())
    return int(autocorrelation(x).counts.sum(where=d.bits != 0))


@dataclass(frozen=True)
class LemmaOutcome:
    accepted: bool
    s_count: int  # ordered pairs of A'^2 whose sum is unpopular
    deficit: int  # rhs - lhs of the acceptance inequality; <= 0 iff accepted


def lemma_accept(
    a_prime: DenseSet, a: DenseSet, plan: ConstructionPlan, d: DenseSet
) -> LemmaOutcome:
    """Exact acceptance test for one intersection trial under ``plan``.

    S counts the ordered pairs of A' whose sum lies outside d = D_c(A):
    |A'|^2 minus the pairs inside d (``_pairs_in``).  The decision
    inequality is evaluated in big-integer arithmetic with no rounding
    anywhere.
    """
    if (a.n, a.card) != (plan.n, plan.card_a):
        raise ValueError("the plan was made for a set of another dimension or size")
    pairs = a_prime.card**2
    s_count = pairs - _pairs_in(a_prime, d)
    sn, sd = plan.sigma.numerator, plan.sigma.denominator
    lhs = (sn * pairs - sd * s_count) << plan.lemma_shift
    return LemmaOutcome(
        accepted=lhs >= plan.lemma_rhs, s_count=s_count, deficit=plan.lemma_rhs - lhs
    )


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

    The pair count is ``_pairs_in`` of the sample.
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
        pairs = _pairs_in(a1, d)
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
    The count of x is gathered from x + A_1 or, when the transform is
    cheaper (``_gathers``), read off the exact XOR pair counts of A_1 and
    D at x.
    """
    m = plan.target_a1_size
    pts = a1.points()
    if len(pts) != m:
        raise PlanInfeasible(f"|A_1| = {len(pts)} does not match the plan size {m}")
    sn, sd = plan.sigma.numerator, plan.sigma.denominator
    if 3 * sn * m >= sd:
        raise PlanInfeasible("3 * sigma * |A_1| must stay below 1")
    if _gathers(m, a1.n, transforms=3):
        counts = xor_member_counts(pts, d.bits)
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
    """Exhaustive check that A_2 + A_2 is inside D, pair by pair.

    Deliberately independent of the pipeline bookkeeping: every sum x + y
    with x <= y in A_2 is formed as a pairwise XOR and looked up in D, with
    no transform, no stored count and no sumset built.  The rows from
    index i on are tested against the points from index i on, in blocks
    of about 2^18 pairs, and the first block with a sum outside D ends the
    check.
    """
    if a2.n != d.n:
        raise ValueError(f"dimension mismatch: {a2.n} vs {d.n}")
    pts = a2.points()
    i = 0
    while i < len(pts):
        rows = max(1, _CONTAINMENT_BLOCK // (len(pts) - i))
        if not d.bits[pts[i : i + rows, None] ^ pts[None, i:]].all():
            return False
        i += rows
    return True


def theorem_bound(n: int, alpha: Fraction | int, c: Fraction | int) -> int:
    """floor(alpha^3 * 2^(n (1 - log(1/alpha)/log(1/c))) / 12).

    When alpha = 2^-a and c = 2^-b with b dividing n(b-a) the exponent is
    an integer and the value is computed exactly.  Otherwise it is
    evaluated at high precision and floored only when it sits more than
    2^-20 away from an integer; nearer than that raises
    BoundaryAmbiguous instead of guessing.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    alpha = Fraction(alpha)
    c = Fraction(c)
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0 < c < 1:
        raise ValueError(f"c must lie strictly between 0 and 1, got {c}")

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

    with mpmath.workprec(max(160, 8 * n)):
        la = mpmath.log(mpmath.mpf(alpha.denominator) / alpha.numerator)
        lc = mpmath.log(mpmath.mpf(c.denominator) / c.numerator)
        exponent = n * (1 - la / lc)
        value = (
            mpmath.mpf(alpha.numerator) ** 3
            / mpmath.mpf(alpha.denominator) ** 3
            * mpmath.power(2, exponent)
            / 12
        )
        nearest = mpmath.nint(value)
        if abs(value - nearest) <= mpmath.mpf(2) ** -20:
            raise BoundaryAmbiguous(
                f"bound value {value} is within 2^-20 of an integer"
            )
        return int(mpmath.floor(value))


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertStats:
    lemma_trials: int | None
    card_a0: int | None
    s_count: int | None
    refine_trials: int | None
    a1_pairs_in_d: int | None
    card_a2: int

    def to_json_obj(self) -> dict:
        return {
            "lemma_trials": self.lemma_trials,
            "card_a0": self.card_a0,
            "s_count": self.s_count,
            "refine_trials": self.refine_trials,
            "a1_pairs_in_d": self.a1_pairs_in_d,
            "card_a2": self.card_a2,
        }


def _set_payload(s: DenseSet | None) -> str | None:
    if s is None:
        return None
    return f2set_dumps(s).split("\n")[1]


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _optional_int(value) -> int | None:
    return None if value is None else int(value)


def _set_from_payload(n: int, payload: str | None) -> DenseSet | None:
    if payload is None:
        return None
    return f2set_loads(f"F2SET v1 n={n}\n{payload}\n")


@dataclass(frozen=True)
class Certificate:
    """Replayable transcript of one construction run.

    Everything needed for independent verification is embedded: the input
    set itself (hex payload), the exact parameters, the seed and budgets,
    the accepted intermediate sets, and the stage statistics.  Serialization
    is canonical (sorted keys, fixed indentation), so identical runs yield
    byte-identical files.
    """

    input_set: DenseSet
    c: Fraction
    seed: int
    budgets: Budgets
    plan: ConstructionPlan
    translates: tuple[int, ...]
    a0: DenseSet | None
    a1: DenseSet | None
    a2: DenseSet
    stats: CertStats
    verified: bool
    guarantee_met: bool

    @property
    def n(self) -> int:
        return self.input_set.n

    def to_json_obj(self) -> dict:
        return {
            "format": CERT_FORMAT,
            "n": self.n,
            "c": str(self.c),
            "input_card": self.input_set.card,
            "input_set": _set_payload(self.input_set),
            "input_sha256": set_sha256(self.input_set),
            "seed": self.seed,
            "budgets": {
                "lemma_trials": self.budgets.lemma_trials,
                "refine_trials": self.budgets.refine_trials,
            },
            "plan": self.plan.to_json_obj(),
            "translates": list(self.translates),
            "a0": _set_payload(self.a0),
            "a1": _set_payload(self.a1),
            "a2": _set_payload(self.a2),
            "stats": self.stats.to_json_obj(),
            "verified": self.verified,
            "guarantee_met": self.guarantee_met,
        }

    def dumps(self) -> str:
        return _canonical_json(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj) -> "Certificate":
        """Parse a decoded certificate; raises ValueError on anything else.

        Derivable fields are derived, never read, and the object must have
        the canonical JSON of the certificate built from it, so an edited
        derived field, another JSON type or spelling of a number, and an
        unknown field all fail to parse.
        """
        try:
            cert = cls._build(obj)
            canonical = cert.dumps()
            given = _canonical_json(obj)
        except (KeyError, TypeError, ArithmeticError) as exc:
            raise ValueError(f"malformed certificate: {type(exc).__name__}: {exc}") from None
        if given != canonical:
            raise ValueError("the certificate is not the canonical form of the fields it holds")
        return cert

    @classmethod
    def _build(cls, obj) -> "Certificate":
        if obj["format"] != CERT_FORMAT:
            raise ValueError(f"unsupported certificate format: {obj['format']!r}")
        n = int(obj["n"])
        c = Fraction(obj["c"])
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
            target_a1_size=int(plan_obj["target_a1_size"]),
            guarantee=int(plan_obj["guarantee"]),
            trivial=bool(plan_obj["trivial"]),
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
            c=c,
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
                card_a0=None if a0 is None else a0.card,
                s_count=_optional_int(stats_obj["s_count"]),
                refine_trials=_optional_int(stats_obj["refine_trials"]),
                a1_pairs_in_d=_optional_int(stats_obj["a1_pairs_in_d"]),
                card_a2=a2.card,
            ),
            verified=bool(obj["verified"]),
            guarantee_met=bool(obj["guarantee_met"]),
        )

    @classmethod
    def loads(cls, text: str) -> "Certificate":
        """Parse certificate text; raises ValueError unless ``text`` is
        exactly ``dumps()`` of the certificate it holds."""
        try:
            obj = json.loads(text)
        except RecursionError:
            raise ValueError("certificate JSON is nested too deeply") from None
        cert = cls.from_json_obj(obj)
        # equal to cert.dumps(), which from_json_obj compared with it
        if text != _canonical_json(obj):
            raise ValueError("the certificate text is not in canonical layout")
        return cert

    def write(self, path) -> None:
        Path(path).write_bytes(self.dumps().encode("ascii"))

    @classmethod
    def read(cls, path) -> "Certificate":
        return cls.loads(Path(path).read_bytes().decode("ascii"))


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
    c * alpha < 1 for c < 1.
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
    return _construct(a, c, seed, budgets, popular_difference_set(a, c))


def _construct(
    a: DenseSet, c: Fraction, seed: int, budgets: Budgets, d: DenseSet
) -> Certificate:
    """The pipeline, then the independent containment check that must
    pass before its certificate is issued; for callers that have checked
    the arguments (|A| >= 1, 0 < c < 1) and hold d = D_c(A)."""
    cert = _run_pipeline(a, c, seed, budgets, d)
    if not verify_containment(cert.a2, d):
        raise SoundnessError("independent containment check failed")
    return replace(cert, verified=True)


def _run_pipeline(
    a: DenseSet,
    c: Fraction,
    seed: int,
    budgets: Budgets,
    d: DenseSet,
    limits: Budgets | None = None,
) -> Certificate:
    """The construction stages after argument checks (|A| >= 1,
    0 < c < 1), given d = D_c(A).  The stages run at most ``limits``
    trials (by default the budgets); the certificate records the budgets.
    The containment check is left to the caller, so the certificate
    comes back with ``verified=False``: ``_construct`` runs the check
    before it sets the flag and issues, and ``verify_certificate`` runs it
    once, on the certificate it checks, before it replays."""
    plan = choose_sigma(a.n, a.card, c)
    rng = SplitMix64(seed)
    limits = limits or budgets

    if plan.trivial:
        if not d.bits[0]:
            raise DegenerateInput("popular difference set is empty")
        a2 = make_set(a.n, [0])
        translates, a0, a1 = (), None, None
        stats = CertStats(None, None, None, None, None, a2.card)
    else:
        lemma = find_lemma_set(a, plan, d, rng, limits.lemma_trials)
        refine = refine_a1(lemma.a0, plan, d, rng, limits.refine_trials)
        a2 = filter_a2(refine.a1, plan, d)
        translates, a0, a1 = lemma.translates, lemma.a0, refine.a1
        stats = CertStats(
            lemma_trials=lemma.trials,
            card_a0=lemma.a0.card,
            s_count=lemma.s_count,
            refine_trials=refine.trials,
            a1_pairs_in_d=refine.pairs_in_d,
            card_a2=a2.card,
        )
    return Certificate(
        input_set=a.copy(),
        c=c,
        seed=seed,
        budgets=budgets,
        plan=plan,
        translates=translates,
        a0=a0,
        a1=a1,
        a2=a2,
        stats=stats,
        verified=False,
        guarantee_met=a2.card >= plan.guarantee,
    )


def verify_certificate(cert: Certificate) -> None:
    """Independently re-verify a certificate; raises VerificationError.

    Stored booleans are given zero trust: the containment is re-derived
    pair by pair against a freshly computed D_c(A), the plan is
    re-derived from (n, |A|, c), the lemma-stage inequalities are
    re-checked from the stored sets, and finally the whole run is
    replayed from the stored seed and compared byte for byte.  The replay
    runs no more trials than the certificate's stats record.

    The containment check runs once, on the stored A_2.  The replay does
    not repeat it: a replay whose bytes equal the certificate's has the
    same A_2 and the same D, so a second check could not change the
    verdict.
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
        outcome = lemma_accept(cert.a0, a, cert.plan, d)
        if not outcome.accepted:
            raise VerificationError(
                "lemma-soundness", "stored A_0 fails the acceptance inequality"
            )
        if outcome.s_count != cert.stats.s_count:
            raise VerificationError(
                "lemma-soundness", "stored unpopular-pair count is wrong"
            )
        if not cert.a1.subset_of(cert.a0) or not cert.a2.subset_of(cert.a1):
            raise VerificationError(
                "lemma-soundness", "stage sets are not nested"
            )

    # the plan check above already enforced what construct_popular_sumset
    # checks of its arguments (|A| >= 1 and 0 < c < 1)
    try:
        replay = _run_pipeline(a, cert.c, cert.seed, cert.budgets, d, _replay_limits(cert))
    except (RetryExhausted, DegenerateInput, ValueError) as exc:
        raise VerificationError("replay", f"replay did not complete: {exc}") from None
    # the containment check above passed on this A_2 and d, and a replay
    # with the certificate's bytes has them too
    if replace(replay, verified=True).dumps() != cert.dumps():
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
