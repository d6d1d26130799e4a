"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line once its assertions hold, so a
``pytest tests/test_acceptance.py -v -s`` run reads as a checklist.
The certified-construction runs are shared module-wide and exercised
through the command line exactly as a user would drive them.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from popdiff import walsh
from popdiff.cli import main
from popdiff.correlation import (
    Autocorrelation,
    autocorrelation,
    naive_autocorrelation,
    popular_difference_set,
)
from popdiff.f2n import f2set_dumps, f2set_loads, full_set, make_set, random_set, sumset
from popdiff.construction import Certificate, theorem_bound
from popdiff.rng import SplitMix64
from popdiff.subspace import max_subspace_in

from conftest import all_subspaces, gaussian_binomial, set_from_mask

GRID = [(12, Fraction(1, 8)), (16, Fraction(1, 16))]
SEEDS = range(5)


def run(*args):
    return main(list(args))


@pytest.fixture(scope="module")
def cert_runs(tmp_path_factory):
    """The ten reference construction runs, driven through the CLI."""
    tmp = tmp_path_factory.mktemp("acceptance")
    runs = []
    for n, c in GRID:
        for seed in SEEDS:
            a_path = tmp / f"A_{n}_{seed}.set"
            cert_path = tmp / f"cert_{n}_{seed}.json"
            assert run("gen", "--n", str(n), "--family", "random", "--alpha", "1/2",
                       "--seed", str(seed), "--out", str(a_path)) == 0
            assert run("construct", str(a_path), "--c", str(c), "--seed", str(seed),
                       "--out", str(cert_path)) == 0
            runs.append({
                "n": n, "c": c, "seed": seed,
                "a_path": a_path, "cert_path": cert_path,
                "cert": Certificate.read(cert_path),
            })
    return {"tmp": tmp, "runs": runs}


def _chunked_pairs_outside(points, d_bits, chunk=512):
    total = 0
    for i in range(0, len(points), chunk):
        block = points[i : i + chunk, None] ^ points[None, :]
        total += int((d_bits[block] == 0).sum())
    return total


def test_criterion_1_oracle_equivalence():
    started = time.time()
    for mask in range(1 << 16):
        a = set_from_mask(4, mask)
        assert np.array_equal(autocorrelation(a).counts, naive_autocorrelation(a).counts), mask
    exhaustive_elapsed = time.time() - started
    assert exhaustive_elapsed < 60.0

    for n in range(5, 13):
        rng = SplitMix64(7000 + n)
        for _ in range(200):
            a = random_set(n, rng.below((1 << n) + 1), rng)
            assert np.array_equal(autocorrelation(a).counts, naive_autocorrelation(a).counts)
    print(f"\nACCEPTANCE 1 (oracle equivalence, exhaustive n=4 in {exhaustive_elapsed:.1f}s "
          f"+ 200 random sets for n=5..12): PASS")


def test_criterion_2_definition_identities():
    # D_0(A) = A + A on 100 random sets at n = 10
    rng = SplitMix64(42)
    for _ in range(100):
        a = random_set(10, rng.below(1025), rng)
        assert popular_difference_set(a, 0) == sumset(a, a)

    # monotonicity across a rational grid
    grid = [Fraction(0), Fraction(1, 16), Fraction(1, 8), Fraction(1, 4), Fraction(1, 3),
            Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(9, 8)]
    for _ in range(10):
        a = random_set(10, rng.below(1025), rng)
        ac = autocorrelation(a)
        sets = [ac.popular_set(c) for c in grid]
        for tighter, looser in zip(sets[1:], sets):
            assert tighter.subset_of(looser)

    # D_c(V) = V for every subspace of F_2^8 whenever c * density < 1;
    # the single boundary point (V = G, c = 1) gives the empty set instead.
    # N_V is computed for blocks of rows at once; D_c(V) is popular_set's
    # on every row
    subs = all_subspaces(8)
    assert len(subs) == sum(gaussian_binomial(8, k) for k in range(9)) == 417199
    cs = [Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    checked = boundary = 0
    for start in range(0, len(subs), 8192):
        block = subs[start : start + 8192]
        v = np.zeros((len(block), 256), dtype=np.uint8)
        for row, span in zip(v, block):
            row[list(span)] = 1
        acs = [Autocorrelation(8, counts) for counts in walsh.xor_pair_counts(v)]
        card = np.array([ac.card for ac in acs])
        assert np.array_equal(card, v.sum(axis=1))
        for c in cs:
            d = np.array([ac.popular_set(c).bits for ac in acs])
            sparse = c.numerator * card < c.denominator * 256  # c * density < 1
            assert np.array_equal(d[sparse], v[sparse])
            assert not d[~sparse].any()
            checked += len(block)
            boundary += int((~sparse).sum())
    assert boundary == 1
    print(f"ACCEPTANCE 2 (definition identities; {checked} subspace/threshold pairs): PASS")


def test_criterion_3_footnote_replication():
    started = time.time()
    hits = 0
    for seed in range(20):
        a = random_set(16, 1 << 15, SplitMix64(seed))
        d = popular_difference_set(a, Fraction(11, 10))
        if d.point_list() == [0]:
            hits += 1
    elapsed = time.time() - started
    assert hits >= 19, hits
    print(f"ACCEPTANCE 3 (c=11/10 keeps only 0 in {hits}/20 seeds, {elapsed:.1f}s): PASS")


def test_criterion_4_certified_construction(cert_runs):
    for entry in cert_runs["runs"]:
        assert run("verify", str(entry["cert_path"])) == 0
        cert = entry["cert"]
        bound = theorem_bound(entry["n"], Fraction(1, 2), entry["c"])
        assert cert.a2.card >= bound, (entry["n"], entry["seed"])
        assert cert.verified and cert.guarantee_met
    bounds = {n: theorem_bound(n, Fraction(1, 2), c) for n, c in GRID}
    assert bounds == {12: 2, 16: 42}
    print(f"ACCEPTANCE 4 (10 certified runs, all verified, |A'| >= {bounds}): PASS")


def test_criterion_5_lemma_soundness_audit(cert_runs):
    audited = 0
    for entry in cert_runs["runs"]:
        cert = entry["cert"]
        n, r = cert.n, cert.plan.r
        sn, sd = cert.plan.sigma.numerator, cert.plan.sigma.denominator
        card_a = cert.input_set.card
        card_a0 = cert.a0.card
        # squared size bound, exact integers
        assert 2 * card_a0**2 << (2 * n * (r - 1)) >= card_a ** (2 * r)
        # pair-density bound with the unpopular-pair count recomputed
        d = popular_difference_set(cert.input_set, cert.c)
        s_count = _chunked_pairs_outside(cert.a0.points(), d.bits)
        assert s_count == cert.stats.s_count
        assert sn * card_a0**2 >= sd * s_count
        audited += 1
    assert audited == 10
    print("ACCEPTANCE 5 (lemma soundness audit, 0 violations in 10 runs): PASS")


def test_criterion_6_filter_soundness(cert_runs):
    for entry in cert_runs["runs"]:
        cert = entry["cert"]
        d = popular_difference_set(cert.input_set, cert.c)
        a1 = cert.a1.points()
        a2 = cert.a2.points()
        # literal set inclusion x + A_1 inside D for every kept x
        assert d.bits[a2[:, None] ^ a1[None, :]].all()
        assert len(a2) >= (len(a1) + 1) // 2
    print("ACCEPTANCE 6 (filter soundness, 0 violations in 10 runs): PASS")


def test_criterion_7_subspace_search_exactness(subspaces_n4):
    masks = [np.array(span, dtype=np.int64) for span in subspaces_n4]
    dims = [len(span).bit_length() - 1 for span in subspaces_n4]
    started = time.time()
    for mask in range(1 << 16):
        d = set_from_mask(4, mask)
        expected = 0
        if mask & 1:
            expected = max(
                (dim for pts, dim in zip(masks, dims) if all((mask >> int(p)) & 1 for p in pts)),
                default=0,
            )
        assert max_subspace_in(d).dim == expected, mask
    elapsed = time.time() - started

    for n in range(1, 17):
        assert max_subspace_in(full_set(n)).dim == n
    print(f"ACCEPTANCE 7 (subspace search exact on 65536 sets in {elapsed:.1f}s; "
          f"full groups to n=16): PASS")


def _mutants(cert_text: str, n: int):
    """Yield tampered certificate texts: point additions, seed edits,
    threshold edits."""
    base = json.loads(cert_text)

    obj = json.loads(cert_text)
    a2 = f2set_loads(f"F2SET v1 n={n}\n{obj['a2']}\n")
    extra = next(x for x in range(1 << n) if x not in a2)
    bumped = make_set(n, a2.point_list() + [extra])
    obj["a2"] = f2set_dumps(bumped).split("\n")[1]
    obj["stats"]["card_a2"] = bumped.card
    yield obj  # point added to A'

    obj = json.loads(cert_text)
    obj["seed"] = base["seed"] + 1
    yield obj  # seed edit

    obj = json.loads(cert_text)
    obj["plan"]["lemma_rhs"] += 1
    yield obj  # threshold edit

    obj = json.loads(cert_text)
    obj["translates"] = list(reversed(obj["translates"]))
    yield obj  # recorded randomness edit

    obj = json.loads(cert_text)
    obj["stats"]["s_count"] += 1
    yield obj  # stage statistic edit


def test_criterion_8_tamper_suite(cert_runs, tmp_path):
    rejected = 0
    produced = 0
    for idx, entry in enumerate(cert_runs["runs"]):
        text = entry["cert_path"].read_text()
        for kind, obj in enumerate(_mutants(text, entry["n"])):
            if produced == 20:
                break
            bad = tmp_path / f"mutant_{idx}_{kind}.json"
            bad.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
            produced += 1
            if run("verify", str(bad)) == 3:
                rejected += 1
    assert produced == 20
    assert rejected == 20
    print("ACCEPTANCE 8 (tamper suite, 20/20 mutants rejected with exit 3): PASS")


def test_criterion_9_determinism(cert_runs, tmp_path):
    # repeating the construction grid yields byte-identical certificates
    for entry in cert_runs["runs"]:
        again = tmp_path / f"again_{entry['n']}_{entry['seed']}.json"
        assert run("construct", str(entry["a_path"]), "--c", str(entry["c"]),
                   "--seed", str(entry["seed"]), "--out", str(again)) == 0
        assert again.read_bytes() == entry["cert_path"].read_bytes()

    # and sweep rows are reproducible byte for byte
    args = ["sweep", "--n", "8,10", "--alpha", "1/2", "--c", "1/8,1/4",
            "--seeds", "2", "--family", "random"]
    one, two = tmp_path / "sweep1.csv", tmp_path / "sweep2.csv"
    assert run(*args, "--out", str(one)) == 0
    assert run(*args, "--out", str(two)) == 0
    assert one.read_bytes() == two.read_bytes()
    print("ACCEPTANCE 9 (byte-identical certificates and sweep rows): PASS")
