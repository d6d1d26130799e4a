"""Plans, stage acceptance, the construction pipeline, and certificates."""

import hashlib
import json
import math
import pickle
import random
import sys
import time
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from popdiff import construction, f2n
from popdiff.construction import (
    MAX_TRIALS,
    BoundaryAmbiguous,
    Budgets,
    Certificate,
    ConstructionPlan,
    DegenerateInput,
    PlanInfeasible,
    RetryExhausted,
    SoundnessError,
    VerificationError,
    choose_sigma,
    construct_popular_sumset,
    filter_a2,
    find_lemma_set,
    lemma_accept,
    lemma_r,
    refine_a1,
    restrict_holds,
    sample_intersection,
    theorem_bound,
    verify_certificate,
    verify_containment,
)
from popdiff.correlation import popular_difference_set
from popdiff.f2n import (
    DenseSet,
    f2set_dumps,
    f2set_loads,
    full_set,
    linear_subspace,
    make_set,
    niveau_set,
    random_set,
    sumset,
)
from popdiff.rng import SplitMix64

from conftest import NON_CANONICAL_EDITS, canonical_json, outside


class FixedDraws:
    """Stand-in rng yielding a scripted sequence of below() results."""

    def __init__(self, values):
        self.values = list(values)

    def below(self, bound):
        v = self.values.pop(0)
        assert 0 <= v < bound
        return v


# ---------------------------------------------------------------------------
# stage parameter and size restriction
# ---------------------------------------------------------------------------


def test_lemma_r_examples():
    assert lemma_r(Fraction(1, 8), Fraction(1, 4)) == 2
    assert lemma_r(Fraction(1, 2), Fraction(1, 2)) == 2
    assert lemma_r(Fraction(1, 2), Fraction(1, 4)) == 1


def test_lemma_r_is_least_satisfying_power():
    cs = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(7, 9), Fraction(999, 1000)]
    sigmas = [Fraction(1, 2), Fraction(1, 7), Fraction(3, 11), Fraction(1, 100), Fraction(1, 3000)]
    for c in cs:
        for sigma in sigmas:
            r = lemma_r(sigma, c)
            assert c**r <= sigma / 2
            if r > 1:
                assert c ** (r - 1) > sigma / 2
            else:
                assert r == 1


def test_lemma_r_domain_errors():
    with pytest.raises(ValueError):
        lemma_r(Fraction(1, 8), Fraction(1))  # c = 1 never decays
    with pytest.raises(ValueError):
        lemma_r(Fraction(1, 8), Fraction(0))
    with pytest.raises(ValueError):
        lemma_r(Fraction(2), Fraction(1, 2))  # sigma above 1


def test_restrict_holds_against_high_precision_oracle():
    mpmath.mp.prec = 200
    for n in (4, 8, 12):
        for card in (1, 3, 1 << (n - 2), 1 << (n - 1), (1 << n) - 5):
            for r in (1, 2, 3):
                z = mpmath.mpf(card) ** r / (mpmath.mpf(2) ** (n * (r - 1)) * mpmath.sqrt(2))
                ceil_z = int(mpmath.ceil(z))
                for k in (1, 2, 3, ceil_z - 1, ceil_z, ceil_z + 1):
                    if k < 1:
                        continue
                    assert restrict_holds(n, card, r, k) == (ceil_z >= k), (n, card, r, k)


# ---------------------------------------------------------------------------
# plan selection
# ---------------------------------------------------------------------------


def test_choose_sigma_known_plans():
    p = choose_sigma(12, 2048, Fraction(1, 8))
    assert (p.sigma, p.r, p.target_a1_size, p.guarantee) == (Fraction(1, 256), 3, 64, 32)
    p = choose_sigma(16, 32768, Fraction(1, 16))
    assert (p.sigma, p.r, p.target_a1_size, p.guarantee) == (Fraction(1, 2897), 4, 724, 362)


def test_choose_sigma_small_positive_guarantee_at_alpha_equals_c():
    p = choose_sigma(8, 128, Fraction(1, 2))
    assert not p.trivial
    assert p.guarantee >= 1
    p.validate()


def test_choose_sigma_trivial_when_nothing_reaches_guarantee_one():
    assert choose_sigma(4, 4, Fraction(1, 4)).trivial  # alpha = c, tiny group
    assert choose_sigma(5, 2, Fraction(1, 2)).trivial  # alpha far below c


def test_choose_sigma_plan_invariants_grid():
    for n in (6, 8, 10, 12):
        for card in (1 << (n - 1), 1 << (n - 2), 3 << (n - 3)):
            for c in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 16), Fraction(2, 5)):
                plan = choose_sigma(n, card, c)
                plan.validate()
                sn, sd = plan.sigma.numerator, plan.sigma.denominator
                assert 3 * sn * plan.target_a1_size < sd
                if not plan.trivial:
                    assert lemma_r(plan.sigma, c) == plan.r
                    assert plan.guarantee >= 1


def test_validate_accepts_exactly_the_stage_rules_r():
    # the plan's r against every r near it; only lemma_r's r passes the
    # stage rule check, and a plan whose r passes may still fail the size
    # restriction
    for n, card, c in ((12, 2048, Fraction(1, 8)), (16, 32768, Fraction(1, 16)),
                       (8, 128, Fraction(1, 2)), (10, 1000, Fraction(2, 5)),
                       (16, (1 << 16) - 1, Fraction(999, 1000))):
        plan = choose_sigma(n, card, c)
        for r in {-1, 0, 1, 2, plan.r - 1, plan.r, plan.r + 1}:
            other = replace(plan, r=r)
            if r == lemma_r(plan.sigma, c):
                other.validate()
            else:
                with pytest.raises(SoundnessError, match="stage parameter rule"):
                    other.validate()
    plan = choose_sigma(12, 2048, Fraction(1, 8))
    with pytest.raises(SoundnessError, match="reciprocal"):
        replace(plan, sigma=Fraction(2, 255)).validate()
    sigma = Fraction(1, 2048)
    with pytest.raises(SoundnessError, match="size restriction"):
        replace(plan, sigma=sigma, r=lemma_r(sigma, plan.c)).validate()


def test_choose_sigma_guarantee_dominates_closed_form_on_dyadic_grid():
    for n in (8, 12, 16, 20):
        for c in (Fraction(1, 4), Fraction(1, 16)):
            plan = choose_sigma(n, 1 << (n - 1), c)
            bound = theorem_bound(n, Fraction(1, 2), c)
            assert plan.guarantee >= bound or bound <= 1, (n, c)


def _full_loop_plan(n, card, c):
    """(guarantee, r, k) of the best candidate by the plain search over
    every r up to the least r with c^r <= 2^(-2n), or None: the search
    choose_sigma made before it stopped early and kept running powers."""
    best = None
    cn, cd = c.numerator, c.denominator
    r_max = 1
    while cn**r_max << (2 * n) > cd**r_max:
        r_max += 1
    for r in range(1, r_max + 1):
        k_size = math.isqrt((card ** (2 * r) - 1) >> (2 * n * (r - 1) + 1)) + 1
        k = min(cd**r // (2 * cn**r), k_size)
        if k < 8 or lemma_r(Fraction(1, k), c) != r:
            continue
        if best is None or (k // 4) // 2 > best[0]:
            best = ((k // 4) // 2, r, k)
    return best


def test_choose_sigma_matches_the_full_search():
    grid = [Fraction(1, 16), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
            Fraction(2, 3), Fraction(3, 4), Fraction(7, 8)]
    for n in range(1, 11):
        for card in range(1, (1 << n) + 1):
            for c in grid:
                plan = choose_sigma(n, card, c)
                best = _full_loop_plan(n, card, c)
                if best is None:
                    assert plan.trivial, (n, card, c)
                else:
                    got = (plan.guarantee, plan.r, plan.sigma.denominator)
                    assert not plan.trivial and got == best, (n, card, c)


def test_choose_sigma_matches_the_full_search_when_c_is_tiny():
    # the stage rule crosses the size restriction at r = 1
    for n in range(1, 11):
        for card in range(1, (1 << n) + 1):
            for c in (Fraction(1, 1000), Fraction(1, 2**20)):
                plan = choose_sigma(n, card, c)
                best = _full_loop_plan(n, card, c)
                if best is None:
                    assert plan.trivial, (n, card, c)
                else:
                    got = (plan.guarantee, plan.r, plan.sigma.denominator)
                    assert not plan.trivial and got == best, (n, card, c)


@pytest.mark.parametrize("card, r", [((1 << 16) - 1, 11260), (1 << 16, 11432)])
def test_choose_sigma_searches_in_logarithmic_steps(monkeypatch, card, r):
    searches = []  # (predicate calls, result) per search
    least = construction._least

    def counted(pred):
        calls = 0

        def spy(x):
            nonlocal calls
            calls += 1
            return pred(x)

        found = least(spy)
        searches.append((calls, found))
        return found

    monkeypatch.setattr(construction, "_least", counted)
    plan = choose_sigma(16, card, Fraction(999, 1000))
    assert plan.r == r
    # the crossing and the plan's r; validate checks r at r and r - 1
    assert len(searches) == 2
    for calls, found in searches:
        assert calls <= 2 * found.bit_length() + 2, (calls, found)


@pytest.mark.parametrize("card", [1, 1 << 15])
def test_choose_sigma_is_fast_as_c_nears_one(card):
    # the full search runs r up to about 2n ln 2 / (1 - c), over 22,000
    # stages here, each with an |A|^(2r) of up to 700,000 bits
    start = time.perf_counter()
    plan = choose_sigma(16, card, Fraction(999, 1000))
    assert time.perf_counter() - start < 1.0
    plan.validate()


def test_choose_sigma_domain_errors():
    with pytest.raises(ValueError):
        choose_sigma(8, 128, Fraction(1))
    with pytest.raises(ValueError):
        choose_sigma(8, 0, Fraction(1, 2))


# ---------------------------------------------------------------------------
# intersection stage
# ---------------------------------------------------------------------------


def test_sample_intersection_identity_translate():
    a = make_set(4, [3, 5, 9])
    out, translates = sample_intersection(a, 1, FixedDraws([0]))
    assert translates == [0]
    assert out == a


def test_sample_intersection_full_group():
    g = full_set(5)
    out, _ = sample_intersection(g, 3, SplitMix64(2))
    assert out == g


def test_sample_intersection_draws_every_translate_after_it_empties():
    a = make_set(4, [0, 1])
    # {0, 1} + 2 is disjoint from {0, 1}; the last two translates are
    # still drawn, so the rng advances by r draws on every trial
    draws = FixedDraws([0, 2, 1, 3])
    out, translates = sample_intersection(a, 4, draws)
    assert translates == [0, 2, 1, 3]
    assert draws.values == []
    assert out.card == 0


def test_sample_intersection_subspace_invariance():
    v = linear_subspace(5, [1, 2, 4])
    # translates drawn inside V leave V fixed
    out, translates = sample_intersection(v, 3, FixedDraws([0, 5, 6]))
    assert all(t in v for t in translates)
    assert out == v


def _naive_intersection(a, translates):
    """Sorted points of the intersection of the pointwise-XOR translates."""
    out = set(range(a.size))
    for x in translates:
        out &= set((a.points() ^ x).tolist())
    return sorted(out)


def test_sample_intersection_matches_its_definition():
    rng = SplitMix64(70)
    cases = [(random_set(n, rng.below((1 << n) + 1), rng), r)
             for n in range(3, 13) for r in range(1, 7)]
    h = linear_subspace(10, [1 << i for i in range(9)])
    # a half of the hyperplane meets its translate by x_1 + x_2 only if
    # that sum lies in the hyperplane, so about half its trials empty
    # after the first pair
    half = make_set(10, [p for p in h.points() if rng.below(2)])
    cases += [(h, r) for r in range(1, 7)] + [(half, r) for r in range(2, 7) for _ in range(4)]
    emptied_after_first_pair = 0
    for seed, (a, r) in enumerate(cases):
        draws, ref = SplitMix64(seed), SplitMix64(seed)
        out, translates = sample_intersection(a, r, draws)
        assert translates == [ref.below(a.size) for _ in range(r)]
        assert draws.next_u64() == ref.next_u64()  # r draws, no more
        assert out.points().tolist() == _naive_intersection(a, translates)
        assert np.array_equal(out.packed_bits(), np.packbits(out.bits, bitorder="little"))
        if not out.bits.any():  # its card is recorded, so no stage scans its 2^n bytes
            assert out._card == 0
        emptied_after_first_pair += a.card > 0 and not _naive_intersection(a, translates[:2])
    assert emptied_after_first_pair >= 5


def _stage_plan(a, c, sigma, r=None):
    """A plan with the given (c, sigma, r) for stage tests on A; r
    defaults to the stage parameter rule."""
    c, sigma = Fraction(c), Fraction(sigma)
    return ConstructionPlan(
        n=a.n, card_a=a.card, c=c, sigma=sigma,
        r=lemma_r(sigma, c) if r is None else r,
    )


def test_lemma_accept_full_group_saturates():
    g = full_set(6)
    d = popular_difference_set(g, Fraction(1, 2))
    for r in (1, 2, 3):
        out = lemma_accept(g, g, _stage_plan(g, Fraction(1, 2), Fraction(1, 4), r), d)
        assert out.accepted and out.s_count == 0


def test_lemma_accept_empty_never():
    a = random_set(6, 32, SplitMix64(1))
    d = popular_difference_set(a, Fraction(1, 4))
    out = lemma_accept(DenseSet(6), a, _stage_plan(a, Fraction(1, 4), Fraction(1, 8), 2), d)
    assert not out.accepted
    assert out.deficit > 0


def test_lemma_accept_s_count_matches_brute_force(monkeypatch):
    rng = SplitMix64(4)
    a = random_set(8, 128, rng)
    d = popular_difference_set(a, Fraction(1, 4))
    a_prime, _ = sample_intersection(a, 2, rng)
    out = lemma_accept(a_prime, a, _stage_plan(a, Fraction(1, 4), Fraction(1, 8), 2), d)
    pts = a_prime.points().tolist()
    brute = sum(1 for x in pts for y in pts if (x ^ y) not in d)
    assert out.s_count == brute

    # every route on either side of each switch of the route rule, for a
    # D_c(A), a D with a few unpopular points and a random half as D
    calls = _spy_routes(monkeypatch)
    seen = set()
    for n in (8, 9):
        a = random_set(n, 1 << (n - 1), rng)
        plan = _stage_plan(a, Fraction(1, 4), Fraction(1, 8), 2)
        for d in _route_test_sets(a, rng):
            k = d.size - d.card
            member = d.bits.tolist()
            for size in (0, 1, *_route_sizes(n, k, 2)):
                a_prime = make_set(n, rng.sample(1 << n, size))
                pts = a_prime.points().tolist()
                brute = sum(1 for x in pts for y in pts if not member[x ^ y])
                calls.clear()
                out = lemma_accept(a_prime, a, plan, d)
                assert out.s_count == brute
                lhs = (size**2 - plan.sigma.denominator * brute) << plan.lemma_shift
                assert out.deficit == plan.lemma_rhs - lhs
                # an empty A' has no pairs, so no route runs for it
                routes = [_expected_route(size, k, n, 2)] if size else []
                assert [r for r, _ in calls] == routes, (n, k, size)
                seen.update(routes)
    assert seen == {"gather", "complement", "transform"}


def test_find_lemma_set_full_group_first_trial():
    g = full_set(6)
    plan = _stage_plan(g, Fraction(1, 2), Fraction(1, 8))
    stage = find_lemma_set(g, plan, popular_difference_set(g, Fraction(1, 2)), SplitMix64(0))
    assert stage.trials == 1
    assert stage.a0 == g
    assert stage.s_count == 0


def test_find_lemma_set_on_hyperplane():
    v = linear_subspace(8, [1 << i for i in range(7)])
    plan = _stage_plan(v, Fraction(1, 2), Fraction(1, 8))
    stage = find_lemma_set(v, plan, popular_difference_set(v, Fraction(1, 2)), SplitMix64(0))
    # the accepted intersection is a coset of V, where pair sums stay in V
    assert stage.a0.card == v.card
    assert stage.s_count == 0


def test_empty_intersection_trials_hold_no_full_length_buffer():
    # the hyperplane construct of CI (n = 18, c = 1/4, seed 7) runs 61
    # empty trials before it accepts.  All 61 held at once, with their
    # lemma tests, hold under 64 KB, where one 2^18-byte vector each came
    # to 15.6 MB; their peak is one trial's own, the translate kernel's
    # temporaries (about 0.43 MB), not a sum over the trials
    h = linear_subspace(18, [1 << i for i in range(17)])
    c = Fraction(1, 4)
    plan, d = choose_sigma(18, h.card, c), popular_difference_set(h, c)
    rng = SplitMix64(7)
    h.packed_bits()  # packed once, before the trials, as construct does
    held = []
    tracemalloc.start()
    try:
        for _ in range(61):
            a0, _ = sample_intersection(h, plan.r, rng)
            assert not lemma_accept(a0, h, plan, d).accepted
            held.append(a0)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 64 << 10, kept
    assert peak < 1 << 20, peak
    for a0 in held:
        assert a0.card == 0 and a0.size == 1 << 18 and not a0.bits.any()
        assert not a0.bits.flags.writeable and a0.bits.strides == (0,)
    assert find_lemma_set(h, plan, d, SplitMix64(7)).trials == 62


def test_find_lemma_set_random_runs_within_fifty_trials():
    for seed in range(5):
        a = random_set(12, 2048, SplitMix64(seed))
        plan = _stage_plan(a, Fraction(1, 8), Fraction(1, 16))
        d = popular_difference_set(a, Fraction(1, 8))
        stage = find_lemma_set(a, plan, d, SplitMix64(seed), max_trials=50)
        assert stage.trials <= 50


def test_find_lemma_set_retry_exhausted_reports_deficit():
    # a 2-point set: intersections are almost always too small to accept
    a = make_set(4, [0, 1])
    plan = _stage_plan(a, Fraction(1, 2), Fraction(1, 8))
    d = popular_difference_set(a, Fraction(1, 2))
    with pytest.raises(RetryExhausted) as exc:
        find_lemma_set(a, plan, d, SplitMix64(0), max_trials=5)
    assert exc.value.stage == "lemma"
    assert exc.value.trials == 5
    assert exc.value.best_deficit > 0


# ---------------------------------------------------------------------------
# refinement and filtering
# ---------------------------------------------------------------------------


def _plan_for(n, card, c):
    plan = choose_sigma(n, card, c)
    assert not plan.trivial
    return plan


def test_refine_accepts_first_sample_when_all_sums_popular():
    v = linear_subspace(10, [1 << i for i in range(9)])
    plan = _plan_for(10, v.card, Fraction(1, 2))
    d = popular_difference_set(v, Fraction(1, 2))
    stage = refine_a1(v, plan, d, SplitMix64(3))
    assert stage.trials == 1
    assert stage.a1.card == plan.target_a1_size
    assert stage.pairs_in_d == plan.target_a1_size**2
    assert stage.a1.subset_of(v)


def test_refine_single_point_diagonal_case():
    # m = 1: the only ordered pair is (x, x), whose sum 0 is popular
    a = random_set(6, 48, SplitMix64(9))
    d = popular_difference_set(a, Fraction(1, 4))
    assert 0 in d
    plan = ConstructionPlan(
        n=6, card_a=48, c=Fraction(1, 4), sigma=Fraction(1, 4),
        r=lemma_r(Fraction(1, 4), Fraction(1, 4)),
    )
    assert plan.target_a1_size == 1
    stage = refine_a1(a, plan, d, SplitMix64(0))
    assert stage.trials == 1 and stage.a1.card == 1


def test_refine_plan_infeasible_when_a0_too_small():
    plan = _plan_for(12, 2048, Fraction(1, 8))
    small = make_set(12, list(range(plan.target_a1_size - 1)))
    d = full_set(12)
    with pytest.raises(PlanInfeasible):
        refine_a1(small, plan, d, SplitMix64(0))


def test_filter_keeps_everything_when_all_sums_popular():
    v = linear_subspace(10, [1 << i for i in range(9)])
    plan = _plan_for(10, v.card, Fraction(1, 2))
    d = popular_difference_set(v, Fraction(1, 2))
    stage = refine_a1(v, plan, d, SplitMix64(3))
    a2 = filter_a2(stage.a1, plan, d)
    assert a2 == stage.a1
    assert a2.card >= (plan.target_a1_size + 1) // 2


def test_filter_rejects_wrong_input_size():
    plan = _plan_for(12, 2048, Fraction(1, 8))
    with pytest.raises(PlanInfeasible):
        filter_a2(make_set(12, [1, 2, 3]), plan, full_set(12))


def _gather_limit(n, transforms):
    """The cost of the transform route of a stage with the given number
    of transforms, in lookups: 5 * transforms * 2^n."""
    return 5 * transforms << n


def _expected_route(card, k, n, transforms):
    """The route rule of every pairwise stage for card points and a D
    with k points outside it: the cheapest of card^2 lookups (gather),
    card * k (complement) and the transform, ties to the earlier one."""
    costs = {
        "gather": card * card,
        "complement": card * k,
        "transform": _gather_limit(n, transforms),
    }
    return min(costs, key=costs.get)


def _route_sizes(n, k, transforms):
    """The sizes on either side of each switch of the route rule for a D
    with k points outside it, up to 2^n: gather to complement at k,
    complement to transform at t / k, gather to transform at sqrt(t)."""
    t = _gather_limit(n, transforms)
    edges = {k, math.isqrt(t)} | ({t // k} if k else set())
    return sorted({size for e in edges for size in (e, e + 1) if size <= 1 << n})


def _route_test_sets(a, rng):
    """D_c(A) at c = 1/4, the group without a few (2^(n-3)) points and a
    random half of the group: together they put every route of the rule
    on either side of each switch."""
    n = a.n
    return (
        popular_difference_set(a, Fraction(1, 4)),
        outside(n, rng.sample(1 << n, 1 << (n - 3))),
        random_set(n, 1 << (n - 1), rng),
    )


def _spy_routes(monkeypatch):
    """Record (route, result) of every pairwise count of the
    construction.  The complement route lists the points outside D
    (``DenseSet.outside_points``; with none, a pair count looks nothing
    up) and passes them to ``xor_member_counts`` as ``others``; the pair
    gather calls it without them; the transform is ``autocorrelation``
    or ``xor_pair_counts``."""
    calls = []
    listing, lookup = DenseSet.outside_points, construction.xor_member_counts

    def outside(d):
        calls.append(("complement", None))
        return listing(d)

    def member_counts(points, member_bits, others=None):
        result = lookup(points, member_bits, others)
        if others is None:
            calls.append(("gather", result))
        else:
            assert calls[-1] == ("complement", None)
            calls[-1] = ("complement", result)
        return result

    monkeypatch.setattr(DenseSet, "outside_points", outside)
    monkeypatch.setattr(construction, "xor_member_counts", member_counts)
    for name in ("autocorrelation", "xor_pair_counts"):
        kernel = getattr(construction, name)
        monkeypatch.setattr(
            construction, name,
            lambda *args, kernel=kernel: calls.append(("transform", kernel(*args)))
            or calls[-1][1],
        )
    return calls


def test_niveau_construction_counts_on_the_complement_route(monkeypatch):
    # Wolf's niveau set, the golden niveau_n12.json run: D_c(A) is a
    # Hamming ball whose complement holds the 13 points of weight 11 and
    # 12, so every stage counts its pairs on the complement route with
    # work to do, and all of them share one listing of the outside points
    a = niveau_set(12, 7)
    d = popular_difference_set(a, Fraction(1, 4))
    assert d.size - d.card == 13
    calls = _spy_routes(monkeypatch)
    listed, spied = [], DenseSet.outside_points
    monkeypatch.setattr(
        DenseSet, "outside_points", lambda d: listed.append(spied(d)) or listed[-1]
    )
    cert = construct_popular_sumset(a, Fraction(1, 4), 7)
    stages = cert.stats.lemma_trials + cert.stats.refine_trials + 1
    assert [r for r, _ in calls] == ["complement"] * stages
    assert all(result is not None for _, result in calls)  # lookups were made
    assert len(listed) == stages and len(listed[0]) == 13
    assert all(outside is listed[0] for outside in listed)


@pytest.mark.parametrize("n", [8, 9])
def test_refine_pair_count_matches_brute_force_on_both_routes(monkeypatch, n):
    calls = _spy_routes(monkeypatch)
    rng = SplitMix64(n)
    a0 = random_set(n, 1 << (n - 1), rng)
    pts = a0.points()
    seen = set()
    # a random half of the group rejects the samples, the group without
    # one point or without a few points accepts them
    for d in (
        random_set(n, 1 << (n - 1), rng),
        outside(n, [3]),
        outside(n, rng.sample(1 << n, 1 << (n - 3))),
    ):
        k = d.size - d.card
        for m in _route_sizes(n, k, 2):
            if not 2 <= m <= len(pts):
                continue
            plan = _stage_plan(a0, Fraction(1, 4), Fraction(1, 4 * m))
            assert plan.target_a1_size == m
            sd = plan.sigma.denominator
            for seed in range(3):
                chosen = pts[SplitMix64(seed).sample(len(pts), m)]
                brute = sum(1 for x in chosen for y in chosen if int(x ^ y) in d)
                calls.clear()
                if brute * sd >= plan.pair_rhs:
                    stage = refine_a1(a0, plan, d, SplitMix64(seed), max_trials=1)
                    assert stage.a1 == make_set(n, chosen)
                    assert stage.pairs_in_d == brute
                else:
                    with pytest.raises(RetryExhausted) as exc:
                        refine_a1(a0, plan, d, SplitMix64(seed), max_trials=1)
                    assert exc.value.best_deficit == plan.pair_rhs - brute * sd
                route = _expected_route(m, k, n, 2)
                assert [r for r, _ in calls] == [route], (k, m)
                seen.add(route)
    assert seen == {"gather", "complement", "transform"}


@pytest.mark.parametrize("n", [8, 9])
def test_filter_counts_match_brute_force_on_both_routes(monkeypatch, n):
    calls = _spy_routes(monkeypatch)
    rng = SplitMix64(n + 10)
    seen = set()
    # every sum popular, one sum x + y of A_1 left out of D, a few
    # unpopular points and a random half of the group
    for kind, k in (("full", 0), ("one sum", 1), ("few", 1 << (n - 3)), ("half", 1 << (n - 1))):
        for m in _route_sizes(n, k, 3):
            if m < 2:
                continue
            a1 = make_set(n, rng.sample(1 << n, m))
            pts = a1.points().tolist()
            plan = _stage_plan(a1, Fraction(1, 4), Fraction(1, 4 * m))
            d = {
                "full": lambda: full_set(n),
                "one sum": lambda: outside(n, [pts[1] ^ pts[-2]]),
                "few": lambda: outside(n, rng.sample(1 << n, k)),
                "half": lambda: random_set(n, 1 << (n - 1), rng),
            }[kind]()
            brute = [sum(1 for y in pts if (x ^ y) in d) for x in pts]
            kept = [x for x, count in zip(pts, brute) if count == m]
            calls.clear()
            if len(kept) >= (m + 1) // 2:
                assert filter_a2(a1, plan, d) == make_set(n, kept)
            else:  # no accepted A_1 meets such a D, and the filter says so
                with pytest.raises(SoundnessError):
                    filter_a2(a1, plan, d)
            assert len(calls) == 1
            route, counts = calls[0]
            assert route == _expected_route(m, k, n, 3), (kind, m)
            seen.add(route)
            if route == "transform":
                counts = counts[pts]
            elif route == "complement":
                counts = m - counts
            assert counts.tolist() == brute
    assert seen == {"gather", "complement", "transform"}


# ---------------------------------------------------------------------------
# containment and the closed-form bound
# ---------------------------------------------------------------------------


def test_verify_containment_point_subspace_pair_and_mismatch():
    d = make_set(4, [0, 3])
    assert verify_containment(make_set(4, [0]), d)
    v = linear_subspace(4, [1, 2])
    assert verify_containment(v, v)
    # {0, x} needs x itself popular, since 0 + x = x
    assert not verify_containment(make_set(4, [0, 5]), d)
    with pytest.raises(ValueError):
        verify_containment(make_set(3, [0]), d)


def _spy_containment(a2, d):
    """A_2 and D again, as sets whose membership vectors record every
    lookup block the containment check gathers from them: ("pairs", None)
    for pair sums of A_2 looked up in D, ("outside", rows) for the rows
    of points outside D shifted by A_2 and looked up in A_2."""
    blocks = []
    first = int(a2.points()[0]) if a2.card else 0

    def logged(s, record):
        class Logged(np.ndarray):
            def __getitem__(self, index):
                if isinstance(index, np.ndarray) and index.ndim == 2:
                    blocks.append(record(index))
                return np.asarray(super().__getitem__(index))

        return DenseSet._wrap(s.n, s.bits.view(Logged))

    # a block of outside rows z is z + A_2, whose first column is z + min A_2
    a2 = logged(a2, lambda index: ("outside", (index[:, 0] ^ first).tolist()))
    return a2, logged(d, lambda index: ("pairs", None)), blocks


def test_verify_containment_rejects_a_single_missing_pair_sum():
    # A_2 = V + {w} with V = span(e_0..e_9) and w = e_10: the pair sums
    # are V (pairs inside V), 0 (the diagonal) and each point of w + V
    # exactly once, as w + v.  At n = 11 they fill the group, so a D
    # without one of them has one point outside and the check takes the
    # outside side; at n = 12 half the group is outside D, and the check
    # looks up the pair sums
    k = 10
    for n, side in ((11, "outside"), (12, "pairs")):
        v = linear_subspace(n, [1 << i for i in range(k)])
        w = 1 << k
        a2 = make_set(n, v.points().tolist() + [w])
        pts = a2.points().tolist()
        assert pts[-1] == w
        sums = make_set(n, np.concatenate((v.points(), v.points() ^ w)))
        assert verify_containment(a2, sums)
        # the rows take more than one block, so the first and the last
        # point lie in different blocks
        assert construction._CONTAINMENT_BLOCK // len(pts) < len(pts) - 1
        for missing, case in (
            (0, "diagonal"),
            (w ^ pts[-2], "pair inside the last row block"),
            (w ^ pts[0], "pair straddling the first and the last block"),
        ):
            assert missing in sums
            without = make_set(n, np.setdiff1d(sums.points(), [missing]))
            spy_a2, d, blocks = _spy_containment(a2, without)
            assert not verify_containment(spy_a2, d), case
            assert {b[0] for b in blocks} == {side}, case
        # a single point needs 0 in D and nothing else
        assert not verify_containment(make_set(n, [w]), outside(n, [0]))
        assert verify_containment(make_set(n, [w]), make_set(n, [0]))


def test_verify_containment_outside_side_blocks():
    # A_2 = 1200 even points of F_2^12, so A_2 + A_2 holds only even
    # points, and D misses 300 odd points from the middle of the group:
    # the check shifts A_2 by each of them, in blocks of 2^18 // 1200 rows
    n = 12
    rng = SplitMix64(12)
    a2 = make_set(n, [2 * x for x in rng.sample(1 << (n - 1), 1200)])
    sums = sumset(a2, a2)
    odd = [2 * x + 1 for x in range(500, 800)]
    d = outside(n, odd)
    rows = construction._CONTAINMENT_BLOCK // a2.card
    assert rows < len(odd) and 2 * len(odd) <= a2.card
    spy_a2, spy_d, blocks = _spy_containment(a2, d)
    assert verify_containment(spy_a2, spy_d)
    assert [side for side, _ in blocks] == ["outside"] * -(-len(odd) // rows)
    assert sum((block for _, block in blocks), []) == odd
    # a missing sum is found in the block that holds it, which ends the
    # check: the diagonal and the least sum sort first, the greatest last
    low, high = min(sums.points().tolist()[1:]), max(sums.points().tolist())
    assert low < odd[0] and high > odd[-1]
    for missing, first in ((0, True), (low, True), (high, False)):
        without = make_set(n, np.setdiff1d(d.points(), [missing]))
        spy_a2, missed, blocks = _spy_containment(a2, without)
        assert not verify_containment(spy_a2, missed)
        expected = 1 if first else -(-(len(odd) + 1) // rows)
        assert len(blocks) == expected, missing
        assert missing in blocks[-1][1]
    # D = F_2^n: nothing lies outside, and the check makes no lookup
    for a2, n in ((a2, n), (random_set(16, 1 << 15, rng), 16)):
        spy_a2, d, blocks = _spy_containment(a2, full_set(n))
        assert verify_containment(spy_a2, d)
        assert blocks == []


def test_verify_containment_side_switch():
    # the outside side runs while 2 |D^c| <= |A_2|; D^c holds odd points,
    # A_2 even ones, and a second D also misses one sum of A_2
    n = 8
    rng = SplitMix64(8)
    for card in (41, 42):
        a2 = make_set(n, [2 * x for x in rng.sample(1 << (n - 1), card)])
        sums = sumset(a2, a2).points().tolist()
        for twice in (card - 1, card, card + 1):
            if twice % 2:
                continue
            odd = [2 * x + 1 for x in rng.sample(1 << (n - 1), twice // 2)]
            side = "outside" if twice <= card else "pairs"
            for missing, expected in (([], True), ([sums[-1]], False)):
                spy_a2, d, blocks = _spy_containment(
                    a2, outside(n, odd[len(missing):] + missing)
                )
                assert 2 * (d.size - d.card) == twice
                assert verify_containment(spy_a2, d) is expected
                assert {b[0] for b in blocks} == {side}, (card, twice)


def test_verify_containment_matches_the_sumset_oracle():
    rng = SplitMix64(2024)
    outcomes = set()
    for _ in range(300):
        n = 1 + rng.below(8)
        a2 = random_set(n, rng.below((1 << n) + 1), rng)
        sums = sumset(a2, a2)
        d = {
            0: lambda: random_set(n, rng.below((1 << n) + 1), rng),
            1: lambda: make_set(n, np.union1d(
                sums.points(), random_set(n, rng.below((1 << n) + 1), rng).points())),
            2: lambda: outside(n, rng.sample(1 << n, rng.below(min(4, 1 << n)))),
            3: lambda: make_set(n, np.setdiff1d(sums.points(), rng.sample(1 << n, 1))),
        }[rng.below(4)]()
        expected = sums.subset_of(d)
        assert verify_containment(a2, d) is expected
        outcomes.add((expected, 2 * (d.size - d.card) <= a2.card))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_theorem_bound_dyadic_values():
    assert theorem_bound(16, Fraction(1, 2), Fraction(1, 16)) == 42
    assert theorem_bound(20, Fraction(1, 2), Fraction(1, 4)) == 10
    assert theorem_bound(12, Fraction(1, 2), Fraction(1, 8)) == 2
    assert theorem_bound(9, Fraction(1, 4), Fraction(1, 4)) == 0  # exponent vanishes


def test_theorem_bound_high_precision_path():
    # 2^(11/3)/12 = 1.058..., floored to 1 (dyadic but fractional exponent,
    # decided on an integer cube root)
    assert theorem_bound(10, Fraction(1, 2), Fraction(1, 8)) == 1
    # 2^(19/3)/12 = 6.71...
    assert theorem_bound(14, Fraction(1, 2), Fraction(1, 8)) == 6
    # non-dyadic alpha: (1/27) * 2^(8 * (1 - ln3/ln4)) / 12 = 0.0097...
    assert theorem_bound(8, Fraction(1, 3), Fraction(1, 4)) == 0


def test_theorem_bound_domain_errors():
    for bound in (theorem_bound, construction._bound_digits):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            bound(8, Fraction(1, 2), Fraction(1))
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            bound(8, Fraction(1, 2), Fraction(3, 2))
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
            bound(8, Fraction(0), Fraction(1, 2))
        with pytest.raises(ValueError, match="n must be positive"):
            bound(0, Fraction(1, 2), Fraction(1, 4))


def test_bound_digits_is_the_digit_count():
    for n, alpha, c in ((16, Fraction(1, 2), Fraction(1, 16)),
                        (8000, Fraction(1, 2), Fraction(1, 16)),
                        (3000, Fraction(1, 3), Fraction(1, 16)),
                        (2000, Fraction(999, 1000), Fraction(1, 3)),
                        (500, Fraction(1, 5), Fraction(1, 7)),
                        (40, Fraction(1), Fraction(2, 3))):
        digits = len(str(theorem_bound(n, alpha, c)))
        assert digits > 1
        assert construction._bound_digits(n, alpha, c) == digits


# theorem_bound as once evaluated in floating point at a fixed precision
# of max(160, 8n) bits; the three 0s at (3, 1/3, 7/8), (13, 1001/4000, 1/2)
# and (97, 1/3, 1/2) are values within 2^-20 of 0.  The dyadic rows (13
# and 97, 1/2, 1/16) pin the integer root bracket to them, and the rest
# the atanh and exp brackets
_BOUND_GRID = [
    (1, Fraction(1, 3), Fraction(1, 16), 0),
    (3, Fraction(1, 3), Fraction(7, 8), 0),
    (13, Fraction(1, 2), Fraction(1, 16), 8),
    (13, Fraction(1001, 4000), Fraction(1, 2), 0),
    (13, Fraction(999, 1000), Fraction(7, 8), 636),
    (40, Fraction(1, 3), Fraction(1, 16), 57470),
    (40, Fraction(1, 2), Fraction(1, 3), 289),
    (40, Fraction(1001, 4000), Fraction(1, 16), 1383),
    (40, Fraction(1), Fraction(7, 8), 91625968981),
    (97, Fraction(1, 2), Fraction(1, 16), 82729605144987013057),
    (97, Fraction(999, 1000), Fraction(1, 3), 12383191713218902842604615566),
    (97, Fraction(1, 3), Fraction(1, 2), 0),
    (160, Fraction(1, 3), Fraction(1, 3), 0),
    (160, Fraction(1, 2), Fraction(1, 3), 6221901280212807),
    (160, Fraction(1001, 4000), Fraction(1, 16), 1643250468217922358663),
    (20000, Fraction(1001, 4000), Fraction(1, 4), 28),
]


def test_theorem_bound_keeps_its_values():
    for n, alpha, c, expected in _BOUND_GRID:
        assert theorem_bound(n, alpha, c) == expected, (n, alpha, c)
    # alpha = 1/3, c = 1/16 at n = 1000 and 5000: digit count and SHA-256
    # of the decimal text
    for n, digits, sha in (
        (1000, 180, "dbae7c0c1257fcb6e4043ec9a14f28c07a898fdb9f016ad7c8feb9cf60b6039b"),
        (5000, 907, "64b7f4801094892cb99f4945975dfc97f3df5b7590525959f8c0308c257bbb5b"),
    ):
        text = str(theorem_bound(n, Fraction(1, 3), Fraction(1, 16)))
        assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == (digits, sha)
    # the dyadic exact branch: 2^-29 / 12, which no evaluation could tell
    # from 0 at the 2^-20 boundary rule
    assert theorem_bound(11, Fraction(1, 2**10), Fraction(1, 2**11)) == 0


def test_decide_refuses_only_near_a_positive_integer():
    decide = construction._decide
    for bits in (20, 64, 200):
        one, margin = 1 << bits, 1 << (bits - 20)
        for k in (1, 5, 10**6):
            # brackets of k +- 2^-20, k +- 2^-30 and k alone lie inside k's margin
            for lo, hi in ((k * one - margin, k * one + margin), (k * one, k * one),
                           (k * one - (margin >> 10), k * one + (margin >> 10))):
                with pytest.raises(BoundaryAmbiguous, match=f"integer of {k.bit_length()} bits"):
                    decide(lo, hi, bits)
            # just outside the margin on either side the floor is decided
            assert decide(k * one + margin + 1, k * one + 2 * margin, bits) == k
            assert decide(k * one - 2 * margin, k * one - margin - 1, bits) == k - 1
            # a bracket across the margin's edge, or across two floors, is too wide
            assert decide(k * one + margin, k * one + 2 * margin, bits) is None
            assert decide(k * one - 2 * margin, k * one - margin, bits) is None
            assert decide(k * one + 2 * margin, (k + 1) * one + 2 * margin, bits) is None
        # a positive value within 2^-20 of 0 floors to 0
        assert decide(1, margin, bits) == 0
        assert decide(0, one - margin - 1, bits) == 0


def test_theorem_bound_refuses_only_near_a_positive_integer():
    # c = alpha^2 makes V^2 = alpha^6 2^n / 144 rational, so floor(V) is the
    # integer square root of floor(V^2), and V is exact when V^2 is a square:
    # 9 2^((n - 16) / 2) at alpha = 3/4, 9 2^((n - 22) / 2) at 3/8, never at 5/8
    outcomes = set()
    for alpha in (Fraction(3, 4), Fraction(3, 8), Fraction(5, 8)):
        for n in (*range(1, 60), 255, 256, 1000, 1001):
            square = alpha**6 * 2**n / 144
            m = math.isqrt(square.numerator)
            if square.denominator == 1 and m * m == square.numerator:
                with pytest.raises(BoundaryAmbiguous, match=f"integer of {m.bit_length()} bits"):
                    theorem_bound(n, alpha, alpha**2)
                outcomes.add("refused")
            else:
                assert theorem_bound(n, alpha, alpha**2) == math.isqrt(math.floor(square)), (n, alpha)
                outcomes.add("decided")
    assert outcomes == {"refused", "decided"}


def _bound_at(n, alpha, c, prec):
    """The bound's floor and fractional part, evaluated as
    alpha^3 2^exponent / 12 at ``prec`` bits."""
    with mpmath.workprec(prec):
        la = mpmath.log(mpmath.mpf(alpha.denominator) / alpha.numerator)
        lc = mpmath.log(mpmath.mpf(c.denominator) / c.numerator)
        value = (mpmath.mpf(alpha.numerator) / alpha.denominator) ** 3 * mpmath.power(
            2, n * (1 - la / lc)) / 12
        floor = mpmath.floor(value)
        return int(floor), float(value - floor)


def test_theorem_bound_works_at_a_precision_sized_to_the_value(monkeypatch):
    precisions = []
    log2_bound = construction._log2_bound

    def spy(n, alpha, c, bits):
        precisions.append(bits)
        return log2_bound(n, alpha, c, bits)

    monkeypatch.setattr(construction, "_log2_bound", spy)
    for n, alpha, c, digits in ((20000, Fraction(1001, 4000), Fraction(1, 4), 2),
                                (5000, Fraction(1, 3), Fraction(1, 16), 907),
                                (10**6, Fraction(1001, 4000), Fraction(1, 4), 215)):
        precisions.clear()
        value = theorem_bound(n, alpha, c)
        assert len(str(value)) == digits
        # log2 of the value to the bits of its integer part, then one
        # bracket with room for the 2^-20 boundary rule, and no more than 80
        # bits beside it
        sized = value.bit_length()
        assert precisions[0] == 0 and len(precisions) == 2
        assert sized + 20 <= precisions[-1] <= sized + 80
        floor, fraction = _bound_at(n, alpha, c, 4000)
        assert value == floor and 2**-20 < fraction < 1 - 2**-20


_4000_BIT_NS = (1, 2, 3, 5, 8, 13, 31, 64, 97, 255, 1000, 2001, 3401)


def _check_against_4000_bits(n, alpha, c):
    # every value is below 2^3401 here, so 4000 bits hold its fraction
    value = theorem_bound(n, alpha, c)
    floor, fraction = _bound_at(n, alpha, c, 4000)
    assert value == floor, (n, alpha, c)
    if value:
        assert 2**-20 < fraction < 1 - 2**-20
        # exact: the digit count of a value >= 1 is that of its floor
        assert construction._bound_digits(n, alpha, c) == len(str(value))
    return value


def test_dyadic_bound_matches_a_4000_bit_evaluation():
    # alpha = 2^-a, c = 2^-b: the value is 2^(p/b) / 12 with p = n(b - a) - 3ab
    shortcut = set()
    for a in range(7):
        for b in range(1, 9):
            for n in _4000_BIT_NS:
                p = n * (b - a) - 3 * a * b
                shortcut.add(p >= 0 and p % b == 0)
                _check_against_4000_bits(n, Fraction(1, 2**a), Fraction(1, 2**b))
    assert shortcut == {True, False}


def test_non_dyadic_bound_matches_a_4000_bit_evaluation():
    # alpha = 1 makes the value 2^n / 12, and alpha = 1/4000 a value that is
    # 0 until c is small
    ns = _4000_BIT_NS
    rng = random.Random(29)
    cases = [(n, Fraction(1), Fraction(999, 1000)) for n in ns]
    cases += [(n, Fraction(1, 4000), Fraction(1, d)) for n in ns for d in (3, 5000, 10**6)]
    for _ in range(200):
        den = rng.randint(1, 5000)
        cden = rng.randint(2, 5000)
        cases.append((rng.choice(ns), Fraction(rng.randint(1, den), den),
                      Fraction(rng.randint(1, cden - 1), cden)))
    values = [_check_against_4000_bits(*case) for case in cases]
    assert sum(v > 1 for v in values) > 50


def test_integer_root_is_the_floor_of_the_real_root():
    rng = random.Random(17)
    for b in range(1, 9):
        for bits in (1, 2, 7, 64, 65, 200, 1000, 3001):
            r = rng.getrandbits(bits) + 1
            for x in (r**b - 1, r**b, r**b + 1, (r + 1) ** b - 1, rng.getrandbits(bits * b)):
                root = construction._iroot(x, b)
                assert root**b <= x < (root + 1) ** b, (x, b)
    assert construction._iroot(0, 3) == 0 and construction._iroot(1, 5) == 1


def test_root_brackets_refuse_only_within_2_to_the_minus_20_of_a_positive_integer():
    def root_over_12(x, b):
        # floor(x^(1/b) / 12) by _decide on the brackets theorem_bound takes
        # for 2^(p/b) / 12, with x in place of 2^p
        for bits in construction._BOUND_BITS:
            lo = construction._iroot(x << (b * bits), b) // 12
            if (floor := construction._decide(lo, lo + 1, bits)) is not None:
                return floor
        raise AssertionError(f"undecided at {bits} bits")

    for b in range(1, 9):
        for m in (1, 7, 12**5 + 1, 3**40):
            # (12 (2^20 m +- 1))^b / 2^(20b) puts x^(1/b) / 12 at m +- 2^-20
            # exactly; it is never an integer, so these radicands land just
            # inside and just outside of the boundary on each side
            above, below = ((12 * ((m << 20) + sign)) ** b for sign in (1, -1))
            inside_above = above >> (20 * b)
            inside_below = -(-below >> (20 * b))
            for x in (inside_above, inside_below, (12 * m) ** b):
                with pytest.raises(BoundaryAmbiguous):
                    root_over_12(x, b)
            assert root_over_12(inside_above + 1, b) == m
            assert root_over_12(inside_below - 1, b) == m - 1
        # (12m)^b + 1 puts the value about 12^-b m^(1-b) / b above m
        if b == 1:
            assert root_over_12(12 * 3**40 + 1, b) == 3**40
        else:
            with pytest.raises(BoundaryAmbiguous):
                root_over_12((12 * 3**40) ** b + 1, b)
    # near 0 no integer counts
    assert root_over_12(0, 1) == root_over_12(1, 3) == root_over_12(11, 1) == 0


# ---------------------------------------------------------------------------
# end-to-end pipeline and certificates
# ---------------------------------------------------------------------------


def test_construct_end_to_end_n12():
    a = random_set(12, 2048, SplitMix64(0))
    cert = construct_popular_sumset(a, Fraction(1, 8), seed=0)
    assert cert.verified and cert.guarantee_met
    assert cert.a2.card >= cert.plan.guarantee
    assert cert.a2.card >= theorem_bound(12, Fraction(1, 2), Fraction(1, 8))
    assert cert.a2.subset_of(cert.a1) and cert.a1.subset_of(cert.a0)
    d = popular_difference_set(a, Fraction(1, 8))
    assert verify_containment(cert.a2, d)
    verify_certificate(cert)


def test_construct_deterministic_bytes():
    a = random_set(12, 2048, SplitMix64(1))
    one = construct_popular_sumset(a, Fraction(1, 8), seed=5)
    two = construct_popular_sumset(a, Fraction(1, 8), seed=5)
    assert one.dumps() == two.dumps()
    assert one.dumps() != construct_popular_sumset(a, Fraction(1, 8), seed=6).dumps()


def test_construct_trivial_fallback():
    a = random_set(5, 2, SplitMix64(2))  # alpha far below c: search is empty
    cert = construct_popular_sumset(a, Fraction(1, 2), seed=0)
    assert cert.plan.trivial
    assert cert.a2.points().tolist() == [0]
    assert cert.verified and cert.guarantee_met
    verify_certificate(cert)


def test_construct_subspace_input():
    v = linear_subspace(10, [1 << i for i in range(9)])
    cert = construct_popular_sumset(v, Fraction(1, 2), seed=0)
    assert cert.verified
    # pair sums from either coset of V land back inside V = D
    assert verify_containment(cert.a2, v)


def test_construct_with_non_dyadic_c():
    a = random_set(10, 512, SplitMix64(8))
    cert = construct_popular_sumset(a, Fraction(2, 5), seed=1)
    assert cert.verified and not cert.plan.trivial
    assert cert.plan.sigma.numerator == 1
    assert lemma_r(cert.plan.sigma, Fraction(2, 5)) == cert.plan.r
    verify_certificate(cert)


def test_construct_domain_checks():
    with pytest.raises(DegenerateInput):
        construct_popular_sumset(DenseSet(6), Fraction(1, 4), seed=0)
    a = random_set(6, 32, SplitMix64(0))
    with pytest.raises(ValueError):
        construct_popular_sumset(a, Fraction(0), seed=0)
    with pytest.raises(ValueError):
        construct_popular_sumset(a, Fraction(1), seed=0)
    with pytest.raises(ValueError):
        construct_popular_sumset(a, Fraction(3, 4), seed=0)  # needs exploratory
    cert = construct_popular_sumset(a, Fraction(3, 4), seed=0, exploratory=True)
    assert cert.verified


def test_construct_retry_exhausted_propagates_stage():
    # on a hyperplane the intersection stage only accepts when every
    # translate lands in the same coset; seed 3 needs 20 trials, so a
    # budget of 2 is deterministically exhausted
    v = linear_subspace(10, [1 << i for i in range(9)])
    with pytest.raises(RetryExhausted) as exc:
        construct_popular_sumset(v, Fraction(1, 2), seed=3, budgets=Budgets(2, 2))
    assert exc.value.stage == "lemma"
    assert exc.value.best_deficit > 0


def test_certificate_roundtrip(tmp_path):
    a = random_set(12, 2048, SplitMix64(3))
    cert = construct_popular_sumset(a, Fraction(1, 8), seed=9)
    again = Certificate.loads(cert.dumps())
    assert again.dumps() == cert.dumps()
    path = tmp_path / "c.json"
    cert.write(path)
    assert Certificate.read(path).dumps() == cert.dumps()


def _tampered_obj(cert, mutate):
    obj = json.loads(cert.dumps())
    mutate(obj)
    return obj


def test_certificate_schema_rejects_inconsistent_fields():
    a = random_set(12, 2048, SplitMix64(4))
    cert = construct_popular_sumset(a, Fraction(1, 8), seed=1)

    def edit_threshold(obj):
        obj["plan"]["pair_rhs"] += 1

    def edit_card(obj):
        obj["input_card"] += 1

    def edit_hash(obj):
        obj["input_sha256"] = "0" * 64

    for mutate in (edit_threshold, edit_card, edit_hash):
        with pytest.raises(ValueError):
            Certificate.from_json_obj(_tampered_obj(cert, mutate))


@pytest.fixture(scope="module")
def cert_text():
    a = random_set(12, 2048, SplitMix64(4))
    return construct_popular_sumset(a, Fraction(1, 8), seed=1).dumps()


@pytest.mark.parametrize("edit", NON_CANONICAL_EDITS.values(), ids=NON_CANONICAL_EDITS.keys())
def test_loads_rejects_non_canonical_text(cert_text, edit):
    with pytest.raises(ValueError):
        Certificate.loads(edit(json.loads(cert_text)))


_INTEGER_FIELDS = [("budgets", "lemma_trials"), ("budgets", "refine_trials")] + [
    ("stats", f) for f in
    ("lemma_trials", "card_a0", "s_count", "refine_trials", "a1_pairs_in_d", "card_a2")
]


@pytest.mark.parametrize("section,field", _INTEGER_FIELDS, ids=[".".join(p) for p in _INTEGER_FIELDS])
@pytest.mark.parametrize("retype", [float, str, lambda v: True], ids=["float", "str", "bool"])
def test_loads_rejects_integer_fields_of_another_json_type(cert_text, section, field, retype):
    obj = json.loads(cert_text)
    obj[section][field] = retype(obj[section][field])
    with pytest.raises(ValueError):
        Certificate.loads(canonical_json(obj))


def test_budgets_are_integers_within_the_trial_cap():
    assert Budgets(1, MAX_TRIALS).refine_trials == MAX_TRIALS
    for bad in (0, -1, MAX_TRIALS + 1, 10**9, True, 2.0, "5", None):
        with pytest.raises(ValueError):
            Budgets(bad, 1)
        with pytest.raises(ValueError):
            Budgets(1, bad)


@pytest.mark.parametrize("field", ["lemma_trials", "refine_trials"])
def test_loads_rejects_budgets_outside_the_trial_cap(cert_text, field):
    obj = json.loads(cert_text)
    for value in (0, -1, MAX_TRIALS + 1, 10**9):
        obj["budgets"][field] = value
        with pytest.raises(ValueError):
            Certificate.loads(canonical_json(obj))
    obj["budgets"][field] = MAX_TRIALS
    assert getattr(Certificate.loads(canonical_json(obj)).budgets, field) == MAX_TRIALS


def test_verify_replay_runs_no_more_trials_than_recorded(monkeypatch):
    # on this hyperplane seed 3 needs 20 lemma trials; the budget allows
    # MAX_TRIALS, so only the recorded count can bound the replay
    v = linear_subspace(10, [1 << i for i in range(9)])
    cert = construct_popular_sumset(
        v, Fraction(1, 2), seed=3, budgets=Budgets(MAX_TRIALS, MAX_TRIALS)
    )
    assert cert.stats.lemma_trials == 20
    verify_certificate(cert)
    calls = []
    accept = construction.lemma_accept
    monkeypatch.setattr(
        construction, "lemma_accept", lambda *args: calls.append(1) or accept(*args)
    )
    # each replayed trial makes one call; lemma-soundness makes none
    for recorded, expected_calls in ((None, 0), (0, 0), (1, 1), (19, 19)):
        bad = Certificate.from_json_obj(
            _tampered_obj(cert, lambda o: o["stats"].update(lemma_trials=recorded))
        )
        calls.clear()
        with pytest.raises(VerificationError) as exc:
            verify_certificate(bad)
        assert exc.value.check == "replay"
        assert len(calls) == expected_calls


def test_verify_runs_the_containment_check_once(monkeypatch):
    calls = []
    check = construction.verify_containment
    monkeypatch.setattr(
        construction, "verify_containment", lambda *args: calls.append(1) or check(*args)
    )
    for a, c in (
        (random_set(12, 2048, SplitMix64(3)), Fraction(1, 8)),
        (random_set(5, 2, SplitMix64(2)), Fraction(1, 2)),  # trivial plan
    ):
        cert = construct_popular_sumset(a, c, seed=1)
        calls.clear()
        verify_certificate(cert)
        assert len(calls) == 1


def test_choose_sigma_runs_once_per_construction_and_per_verify(monkeypatch):
    calls = []
    choose = construction.choose_sigma
    monkeypatch.setattr(
        construction, "choose_sigma", lambda *args: calls.append(1) or choose(*args)
    )
    for a, c in (
        (random_set(12, 2048, SplitMix64(3)), Fraction(1, 8)),
        (random_set(5, 2, SplitMix64(2)), Fraction(1, 2)),  # trivial plan
    ):
        calls.clear()
        cert = construct_popular_sumset(a, c, seed=1)
        assert len(calls) == 1
        calls.clear()
        verify_certificate(cert)
        assert len(calls) == 1


def test_decimal_digits_matches_the_text_length():
    values = [1, 9, 10, 11, 99, 100, 2**64 - 1, 2**64, 3**2000]
    values += [10**e + d for e in (1, 17, 300, 1500) for d in (-1, 0, 1)]
    for x in values:
        assert construction._decimal_digits(x) == len(str(x)), x


def test_construct_refuses_a_plan_too_long_to_write(monkeypatch):
    # near-full sets with c close to 1 need r in the hundreds, and
    # lemma_rhs = |A|^(2r) then has thousands of digits
    a = random_set(8, 255, SplitMix64(1))
    c = Fraction(99, 100)
    digits = len(str(choose_sigma(8, 255, c).lemma_rhs))
    assert digits == 1993
    monkeypatch.setattr(construction, "find_lemma_set", None)  # no stage may run
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        with pytest.raises(PlanInfeasible, match=f"{digits} decimal digits, more than the 1000"):
            construct_popular_sumset(a, c, seed=0, exploratory=True)
    finally:
        sys.set_int_max_str_digits(limit)


def test_verify_reports_a_certificate_too_long_to_write_as_a_replay_failure():
    # _construct (the sweep's route) builds the certificate that
    # construct_popular_sumset refuses; its lemma_rhs has 1993 digits
    a = random_set(8, 255, SplitMix64(1))
    c = Fraction(99, 100)
    plan = choose_sigma(8, 255, c)
    cert = construction._construct(a, plan, 0, Budgets(), popular_difference_set(a, c))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        with pytest.raises(VerificationError, match="cannot be written") as info:
            verify_certificate(cert)
    finally:
        sys.set_int_max_str_digits(limit)
    assert info.value.check == "replay"
    verify_certificate(cert)


@pytest.mark.parametrize(
    "exc",
    [RetryExhausted("lemma", 200, 17), RetryExhausted("refine", 5, None),
     VerificationError("replay", "replayed certificate differs")],
)
def test_pipeline_errors_survive_a_pickle_round_trip(exc):
    # sweep cells run in worker processes, which send their errors back pickled
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert back.__dict__ == exc.__dict__
    assert str(back) == str(exc)


def test_certificate_seed_must_be_a_64_bit_integer():
    a = random_set(12, 2048, SplitMix64(4))
    cert = construct_popular_sumset(a, Fraction(1, 8), seed=1)
    for seed in (-1, 2**64, 1.0, "1", True, None):
        with pytest.raises(ValueError):
            Certificate.from_json_obj(_tampered_obj(cert, lambda o: o.update(seed=seed)))
    top = Certificate.from_json_obj(_tampered_obj(cert, lambda o: o.update(seed=2**64 - 1)))
    assert top.seed == 2**64 - 1


def test_verify_catches_containment_break():
    v = linear_subspace(10, [1 << i for i in range(9)])
    cert = construct_popular_sumset(v, Fraction(1, 2), seed=0)

    def add_outside_point(obj):
        a2 = f2set_loads(f"F2SET v1 n=10\n{obj['a2']}\n")
        outside = next(x for x in range(1 << 10) if x not in v)
        pts = a2.points().tolist() + [outside]
        obj["a2"] = f2set_dumps(make_set(10, pts)).split("\n")[1]
        obj["stats"]["card_a2"] = len(set(pts))

    bad = Certificate.from_json_obj(_tampered_obj(cert, add_outside_point))
    with pytest.raises(VerificationError) as exc:
        verify_certificate(bad)
    assert exc.value.check == "containment"


def test_verify_catches_seed_edit_via_replay():
    a = random_set(12, 2048, SplitMix64(5))
    cert = construct_popular_sumset(a, Fraction(1, 8), seed=2)
    bad = Certificate.from_json_obj(_tampered_obj(cert, lambda o: o.update(seed=3)))
    with pytest.raises(VerificationError) as exc:
        verify_certificate(bad)
    assert exc.value.check == "replay"


def test_verify_catches_a_cleared_verified_flag_via_replay():
    # the replay is marked verified once the containment check has passed,
    # so a stored False differs from it
    a = random_set(12, 2048, SplitMix64(5))
    cert = construct_popular_sumset(a, Fraction(1, 8), seed=2)
    bad = Certificate.from_json_obj(_tampered_obj(cert, lambda o: o.update(verified=False)))
    with pytest.raises(VerificationError) as exc:
        verify_certificate(bad)
    assert exc.value.check == "replay"


def test_verify_catches_consistently_forged_plan():
    a = random_set(12, 2048, SplitMix64(6))
    cert = construct_popular_sumset(a, Fraction(1, 8), seed=3)
    forged = ConstructionPlan(
        n=cert.plan.n, card_a=cert.plan.card_a, c=cert.plan.c,
        sigma=Fraction(1, 128), r=lemma_r(Fraction(1, 128), cert.plan.c),
    )
    assert (forged.target_a1_size, forged.guarantee, forged.trivial) == (32, 16, False)
    bad = Certificate.from_json_obj(
        _tampered_obj(cert, lambda o: o.update(plan=forged.to_json_obj()))
    )
    with pytest.raises(VerificationError) as exc:
        verify_certificate(bad)
    assert exc.value.check == "plan"


def test_verify_catches_stats_edit():
    a = random_set(12, 2048, SplitMix64(7))
    cert = construct_popular_sumset(a, Fraction(1, 8), seed=4)
    bad = Certificate.from_json_obj(
        _tampered_obj(cert, lambda o: o["stats"].update(s_count=o["stats"]["s_count"] + 1))
    )
    with pytest.raises(VerificationError) as exc:
        verify_certificate(bad)
    assert exc.value.check == "lemma-soundness"


def test_verify_attributes_stage_edits_to_lemma_soundness_or_replay():
    # the acceptance inequality is decided by the replay alone, so a stored
    # A_0 that fails it under an unchanged seed is a replay failure, while
    # a wrong unpopular-pair count on the replayed A_0 stays lemma-soundness
    a = random_set(12, 2048, SplitMix64(7))
    cert = construct_popular_sumset(a, Fraction(1, 8), seed=4)
    d = popular_difference_set(a, cert.c)
    assert not lemma_accept(cert.a1, a, cert.plan, d).accepted

    def a0_is_a1(obj):
        obj["a0"] = obj["a1"]
        obj["stats"]["card_a0"] = cert.a1.card

    def a0_is_a1_with_another_count(obj):
        a0_is_a1(obj)
        obj["stats"]["s_count"] += 1

    def translate_edit(obj):
        obj["translates"][0] ^= 1

    def a1_leaves_a0(obj):
        outside = next(x for x in range(1 << 12) if x not in cert.a0)
        obj["a1"] = f2set_dumps(make_set(12, cert.a1.points().tolist() + [outside])).split("\n")[1]

    trivial = construct_popular_sumset(random_set(5, 2, SplitMix64(2)), Fraction(1, 2), seed=1)
    assert trivial.plan.trivial
    for base, mutate, check in (
        (cert, a0_is_a1, "replay"),
        (cert, a0_is_a1_with_another_count, "replay"),
        (cert, lambda o: o["stats"].update(s_count=o["stats"]["s_count"] + 1), "lemma-soundness"),
        (cert, a1_leaves_a0, "lemma-soundness"),
        (cert, lambda o: o.update(seed=o["seed"] + 1), "replay"),
        (cert, translate_edit, "replay"),
        (trivial, lambda o: o["stats"].update(s_count=0), "replay"),
    ):
        bad = Certificate.from_json_obj(_tampered_obj(base, mutate))
        with pytest.raises(VerificationError) as exc:
            verify_certificate(bad)
        assert exc.value.check == check


def test_replay_runs_under_the_replay_limits_as_its_budgets(monkeypatch):
    v = linear_subspace(10, [1 << i for i in range(9)])
    cert = construct_popular_sumset(
        v, Fraction(1, 2), seed=3, budgets=Budgets(MAX_TRIALS, MAX_TRIALS)
    )
    seen = []
    run = construction._run_pipeline
    monkeypatch.setattr(
        construction, "_run_pipeline", lambda *args: seen.append(args[3]) or run(*args)
    )
    verify_certificate(cert)
    assert seen == [Budgets(cert.stats.lemma_trials, cert.stats.refine_trials)]


def test_verify_compares_every_certificate_field_with_the_replay():
    # one in-memory edit per field, each a value of the field's type; the
    # checks are those the byte comparison of the written certificates gave
    v = linear_subspace(10, [1 << i for i in range(9)])
    cert = construct_popular_sumset(
        v, Fraction(1, 2), seed=3, budgets=Budgets(MAX_TRIALS, MAX_TRIALS)
    )
    assert (cert.stats.lemma_trials, cert.stats.refine_trials) == (20, 1)
    edits = {
        "input_set": (outside(10, v.points()), "replay"),  # a coset: the same |A| and D_c(A)
        "seed": (cert.seed + 1, "replay"),
        "budgets": (Budgets(1, 1), "replay"),
        "plan": (replace(cert.plan, c=Fraction(1, 4)), "plan"),
        "translates": ((cert.translates[0] ^ 1,) + cert.translates[1:], "replay"),
        "a0": (full_set(10), "replay"),
        "a1": (cert.a0, "replay"),
        "a2": (make_set(10, cert.a2.points().tolist()[:1]), "replay"),
        "stats": (replace(cert.stats, refine_trials=2), "replay"),
        "verified": (False, "replay"),
    }
    assert list(edits) == [f.name for f in fields(Certificate)]
    verify_certificate(cert)
    for name, (value, check) in edits.items():
        with pytest.raises(VerificationError) as exc:
            verify_certificate(replace(cert, **{name: value}))
        assert exc.value.check == check, name
    # a sigma of another plan changes every value derived from it
    with pytest.raises(VerificationError) as exc:
        verify_certificate(replace(cert, plan=replace(cert.plan, sigma=Fraction(1, 128))))
    assert exc.value.check == "plan"


_NON_CANONICAL_MESSAGES = {
    "seed_plus_2_64": r"^seed must be an integer in \[0, 2\^64\), got 18446744073709551617$",
    "compact_json": "^the certificate text is not in canonical layout$",
    **{case: "^the certificate is not the canonical form of the fields it holds$" for case in
       ("c_decimal_string", "c_json_float", "c_padded", "n_float", "extra_field")},
}


def test_loads_serializes_once_and_keeps_its_messages(monkeypatch, cert_text):
    calls = []
    dump = construction._canonical_json
    monkeypatch.setattr(
        construction, "_canonical_json", lambda obj: calls.append(1) or dump(obj)
    )
    # loads hexes no set, valid text or not: it compares the text with
    # the payloads it decoded
    hexed = []
    hex_payload = f2n._payload_bytes
    monkeypatch.setattr(f2n, "_payload_bytes", lambda s: hexed.append(1) or hex_payload(s))
    cert = Certificate.loads(cert_text)
    assert len(calls) == 1
    # the verifier compares the replay with the certificate as values, so
    # it writes neither of them as text
    def never(self):
        raise AssertionError("verify_certificate wrote a certificate")

    with monkeypatch.context() as patch:
        patch.setattr(Certificate, "dumps", never)
        verify_certificate(cert)
    assert len(calls) == 1
    obj = json.loads(cert_text)
    assert list(_NON_CANONICAL_MESSAGES) == list(NON_CANONICAL_EDITS)
    for case, message in _NON_CANONICAL_MESSAGES.items():
        with pytest.raises(ValueError, match=message):
            Certificate.loads(NON_CANONICAL_EDITS[case](obj))
    assert not hexed


def test_every_certificate_parse_builds_once(monkeypatch, cert_text):
    builds = []
    build = Certificate.__dict__["_build"].__func__
    monkeypatch.setattr(
        Certificate, "_build", classmethod(lambda cls, obj: builds.append(1) or build(cls, obj))
    )
    obj = json.loads(cert_text)
    extra = json.loads(NON_CANONICAL_EDITS["extra_field"](obj))
    for parse, arg, accepted in (
        (Certificate.loads, cert_text, True),
        (Certificate.from_json_obj, obj, True),
        (Certificate.loads, NON_CANONICAL_EDITS["compact_json"](obj), False),
        (Certificate.loads, NON_CANONICAL_EDITS["extra_field"](obj), False),
        (Certificate.from_json_obj, extra, False),
    ):
        builds.clear()
        if accepted:
            assert parse(arg).dumps() == cert_text
        else:
            with pytest.raises(ValueError):
                parse(arg)
        assert len(builds) == 1


def test_from_json_obj_maps_objects_json_cannot_encode_to_value_error(cert_text):
    for key, value in (("c", Fraction(1, 8)), ("comment", Fraction(1, 2)), (1, "int key")):
        obj = json.loads(cert_text)
        obj[key] = value
        with pytest.raises(ValueError, match="malformed certificate: TypeError"):
            Certificate.from_json_obj(obj)


def test_loads_refuses_a_dimension_out_of_range_before_allocating(cert_text):
    # the dimension is checked before the payload, whose length is 2^n / 4
    for n in (0, -1, 31, 10**12):
        text = canonical_json({**json.loads(cert_text), "n": n})
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"^dimension must be in \[1, 30\], got {n}$"):
                Certificate.loads(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _payload_spans(text: str) -> list[tuple[int, int]]:
    """Where each set payload of a certificate text starts and ends."""
    obj = json.loads(text)
    spans = []
    for field in ("a0", "a1", "a2", "input_set"):
        start = text.index(f'\n  "{field}": "') + len(f'\n  "{field}": "')
        spans.append((start, start + len(obj[field])))
    return spans


def test_loads_checks_every_character_of_a_small_certificate():
    cert = construct_popular_sumset(random_set(6, 40, SplitMix64(4)), Fraction(1, 4), seed=1)
    assert cert.a0 is not None  # all four payloads are present
    text = cert.dumps()
    assert Certificate.loads(text) == cert
    spans = _payload_spans(text)
    skeleton = [i for i in range(len(text)) if not any(a <= i < b for a, b in spans)]

    def refused_or_canonical(edited: str) -> bool:
        # loads takes no text but the dumps() of what it holds; an edited
        # digit of a stored integer, the seed say, is another certificate,
        # which the verifier's replay refutes
        try:
            return Certificate.loads(edited).dumps() == edited
        except ValueError:
            return True

    for i in skeleton:
        for ch in '07aF ",:}\n\\':
            if ch != text[i]:
                assert refused_or_canonical(text[:i] + ch + text[i + 1:]), (i, ch)
        assert refused_or_canonical(text[:i] + text[i + 1:]), i
    for i in skeleton + [len(text)]:  # the end-of-text check refuses text after the last "\n"
        for ch in '07aF ",:}\n\\':
            assert refused_or_canonical(text[:i] + ch + text[i:]), (i, ch)
    for a, b in spans:
        for i in range(a, b):
            ch = text[i]
            for edited in (
                text[:i] + (ch.upper() if ch.isalpha() else "A") + text[i + 1:],
                text[:i] + "\\u%04x" % ord(ch) + text[i + 1:],  # the same JSON value
                text[:i] + ch + text[i:],
            ):
                with pytest.raises(ValueError):
                    Certificate.loads(edited)
    # the text is compared with the payloads its object holds: an a0 of
    # the same cardinality leaves the skeleton as it is
    obj = json.loads(text)
    a0 = obj["a0"]
    obj["a0"] = a0[1] + a0[0] + a0[2:]  # two digits swapped
    assert obj["a0"] != a0 and Certificate.from_json_obj(obj).a0.card == cert.a0.card
    with pytest.raises(ValueError):
        Certificate._parse(obj, text)


def test_certificate_codec_peak_memory_per_point():
    n = 18
    cert = construct_popular_sumset(random_set(n, 1 << (n - 1), SplitMix64(7)), Fraction(1, 16), seed=7)
    assert cert.a0 is not None  # four payloads of 2^n / 4 characters each
    text = cert.dumps()
    peaks = {}
    for name, call in (("loads", lambda: Certificate.loads(text)),
                       ("dumps", Certificate.loads(text).dumps)):
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] / (1 << n)
        finally:
            tracemalloc.stop()
    assert peaks["loads"] <= 7, peaks
    assert peaks["dumps"] <= 2.5, peaks
