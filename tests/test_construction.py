"""Plans, stage acceptance, the construction pipeline, and certificates."""

import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from popdiff import construction
from popdiff.construction import (
    MAX_TRIALS,
    BoundaryAmbiguous,
    Budgets,
    Certificate,
    ConstructionPlan,
    DegenerateInput,
    PlanInfeasible,
    RetryExhausted,
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
from popdiff.correlation import autocorrelation, popular_difference_set
from popdiff.f2n import (
    empty_set,
    f2set_dumps,
    f2set_loads,
    full_set,
    linear_subspace,
    make_set,
    random_set,
)
from popdiff.rng import SplitMix64

from conftest import NON_CANONICAL_EDITS, canonical_json


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
    cs = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(7, 9)]
    sigmas = [Fraction(1, 2), Fraction(1, 7), Fraction(3, 11), Fraction(1, 100)]
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


def test_choose_sigma_guarantee_dominates_closed_form_on_dyadic_grid():
    for n in (8, 12, 16, 20):
        for c in (Fraction(1, 4), Fraction(1, 16)):
            plan = choose_sigma(n, 1 << (n - 1), c)
            bound = theorem_bound(n, Fraction(1, 2), c)
            assert plan.guarantee >= bound or bound <= 1, (n, c)


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


def _stage_plan(a, c, sigma, r=None):
    """A plan with the given (c, sigma, r) for stage tests on A; r
    defaults to the stage parameter rule."""
    c, sigma = Fraction(c), Fraction(sigma)
    k = sigma.denominator
    return ConstructionPlan(
        n=a.n, card_a=a.card, c=c, sigma=sigma,
        r=lemma_r(sigma, c) if r is None else r,
        target_a1_size=k // 4, guarantee=k // 4 // 2, trivial=False,
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
    out = lemma_accept(empty_set(6), a, _stage_plan(a, Fraction(1, 4), Fraction(1, 8), 2), d)
    assert not out.accepted
    assert out.deficit > 0


def test_lemma_accept_s_count_matches_brute_force(monkeypatch):
    rng = SplitMix64(4)
    a = random_set(8, 128, rng)
    d = popular_difference_set(a, Fraction(1, 4))
    a_prime, _ = sample_intersection(a, 2, rng)
    out = lemma_accept(a_prime, a, _stage_plan(a, Fraction(1, 4), Fraction(1, 8), 2), d)
    pts = a_prime.point_list()
    brute = sum(1 for x in pts for y in pts if (x ^ y) not in d)
    assert out.s_count == brute

    # both routes, on either side of the one route threshold: the pair
    # gather up to it, the autocorrelation above it
    transformed = []
    monkeypatch.setattr(
        construction, "autocorrelation",
        lambda s: transformed.append(s.card) or autocorrelation(s),
    )
    for n in (8, 9):
        a = random_set(n, 1 << (n - 1), rng)
        d = popular_difference_set(a, Fraction(1, 4))
        plan = _stage_plan(a, Fraction(1, 4), Fraction(1, 8), 2)
        for size in (0, 1, *_route_sizes(n, 2)):
            a_prime = make_set(n, rng.sample(1 << n, size))
            pts = a_prime.point_list()
            brute = sum(1 for x in pts for y in pts if (x ^ y) not in d)
            transformed.clear()
            out = lemma_accept(a_prime, a, plan, d)
            assert out.s_count == brute
            lhs = (size**2 - plan.sigma.denominator * brute) << plan.lemma_shift
            assert out.deficit == plan.lemma_rhs - lhs
            assert transformed == ([size] if size**2 > _gather_limit(n, 2) else [])


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
        r=lemma_r(Fraction(1, 4), Fraction(1, 4)), target_a1_size=1,
        guarantee=0, trivial=False,
    )
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
    """The route threshold of every pairwise stage: it gathers while
    m^2 <= 5 * transforms * 2^n."""
    return 5 * transforms << n


def _route_sizes(n, transforms):
    """The sizes m and m + 1 on either side of the route threshold."""
    edge = math.isqrt(_gather_limit(n, transforms))
    return edge, edge + 1


@pytest.mark.parametrize("n", [8, 9])
def test_refine_pair_count_matches_brute_force_on_both_routes(monkeypatch, n):
    transformed = []
    monkeypatch.setattr(
        construction, "autocorrelation",
        lambda s: transformed.append(s.card) or autocorrelation(s),
    )
    rng = SplitMix64(n)
    a0 = random_set(n, 1 << (n - 1), rng)
    pts = a0.points()
    # a random half of the group rejects the samples, the group without
    # one point accepts them
    for d in (random_set(n, 1 << (n - 1), rng), ~make_set(n, [3])):
        for m in _route_sizes(n, 2):
            plan = _stage_plan(a0, Fraction(1, 4), Fraction(1, 4 * m))
            assert plan.target_a1_size == m
            sd = plan.sigma.denominator
            for seed in range(3):
                chosen = pts[SplitMix64(seed).sample(len(pts), m)]
                brute = sum(1 for x in chosen for y in chosen if int(x ^ y) in d)
                transformed.clear()
                if brute * sd >= plan.pair_rhs:
                    stage = refine_a1(a0, plan, d, SplitMix64(seed), max_trials=1)
                    assert stage.a1 == make_set(n, chosen)
                    assert stage.pairs_in_d == brute
                else:
                    with pytest.raises(RetryExhausted) as exc:
                        refine_a1(a0, plan, d, SplitMix64(seed), max_trials=1)
                    assert exc.value.best_deficit == plan.pair_rhs - brute * sd
                assert transformed == ([m] if m * m > _gather_limit(n, 2) else [])


@pytest.mark.parametrize("n", [8, 9])
def test_filter_counts_match_brute_force_on_both_routes(monkeypatch, n):
    seen = []  # (route, counts) of every call
    gather, transform = construction.xor_member_counts, construction.xor_pair_counts
    monkeypatch.setattr(
        construction, "xor_member_counts",
        lambda *args: seen.append(("gather", gather(*args))) or seen[-1][1],
    )
    monkeypatch.setattr(
        construction, "xor_pair_counts",
        lambda *args: seen.append(("transform", transform(*args))) or seen[-1][1],
    )
    rng = SplitMix64(n + 10)
    for m in _route_sizes(n, 3):
        a1 = make_set(n, rng.sample(1 << n, m))
        pts = a1.point_list()
        plan = _stage_plan(a1, Fraction(1, 4), Fraction(1, 4 * m))
        # every sum popular, then one sum x + y of A_1 left out of D
        for d in (full_set(n), ~make_set(n, [pts[1] ^ pts[-2]])):
            brute = [sum(1 for y in pts if (x ^ y) in d) for x in pts]
            seen.clear()
            a2 = filter_a2(a1, plan, d)
            assert a2 == make_set(n, [x for x, k in zip(pts, brute) if k == m])
            assert len(seen) == 1
            route, counts = seen[0]
            if m * m > _gather_limit(n, 3):
                assert route == "transform"
                counts = counts[pts]
            else:
                assert route == "gather"
            assert counts.tolist() == brute


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


def test_verify_containment_rejects_a_single_missing_pair_sum():
    # A_2 = V + {w} with V = span(e_0..e_9) and w = e_10: the pair sums
    # are V (pairs inside V), 0 (the diagonal) and each point of w + V
    # exactly once, as w + v
    n, k = 11, 10
    v = linear_subspace(n, [1 << i for i in range(k)])
    w = 1 << k
    a2 = make_set(n, v.point_list() + [w])
    pts = a2.point_list()
    assert pts[-1] == w
    sums = v | v.translate(w)
    assert verify_containment(a2, sums)
    # the rows take more than one block, so the first and the last point
    # lie in different blocks
    assert construction._CONTAINMENT_BLOCK // len(pts) < len(pts) - 1
    for missing, case in (
        (0, "diagonal"),
        (w ^ pts[-2], "pair inside the last row block"),
        (w ^ pts[0], "pair straddling the first and the last block"),
    ):
        assert missing in sums
        assert not verify_containment(a2, sums & ~make_set(n, [missing])), case
    # a single point needs 0 in D and nothing else
    assert not verify_containment(make_set(n, [w]), ~make_set(n, [0]))
    assert verify_containment(make_set(n, [w]), make_set(n, [0]))


def test_theorem_bound_dyadic_values():
    assert theorem_bound(16, Fraction(1, 2), Fraction(1, 16)) == 42
    assert theorem_bound(20, Fraction(1, 2), Fraction(1, 4)) == 10
    assert theorem_bound(12, Fraction(1, 2), Fraction(1, 8)) == 2
    assert theorem_bound(9, Fraction(1, 4), Fraction(1, 4)) == 0  # exponent vanishes


def test_theorem_bound_high_precision_path():
    # 2^(11/3)/12 = 1.058..., floored to 1 (dyadic but fractional exponent)
    assert theorem_bound(10, Fraction(1, 2), Fraction(1, 8)) == 1
    # 2^(19/3)/12 = 6.71...
    assert theorem_bound(14, Fraction(1, 2), Fraction(1, 8)) == 6
    # non-dyadic alpha: (1/27) * 2^(8 * (1 - ln3/ln4)) / 12 = 0.0097...
    assert theorem_bound(8, Fraction(1, 3), Fraction(1, 4)) == 0


def test_theorem_bound_domain_errors():
    with pytest.raises(ValueError):
        theorem_bound(8, Fraction(1, 2), Fraction(1))
    with pytest.raises(ValueError):
        theorem_bound(8, Fraction(1, 2), Fraction(3, 2))
    with pytest.raises(ValueError):
        theorem_bound(8, Fraction(0), Fraction(1, 2))
    with pytest.raises(ValueError):
        theorem_bound(0, Fraction(1, 2), Fraction(1, 4))


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
    assert cert.a2.point_list() == [0]
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
        construct_popular_sumset(empty_set(6), Fraction(1, 4), seed=0)
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
    # the lemma-soundness check makes one call, each replayed trial one more
    for recorded, expected_calls in ((None, 1), (0, 1), (1, 2), (19, 20)):
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
        pts = a2.point_list() + [outside]
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
        target_a1_size=32, guarantee=16, trivial=False,
    )
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
