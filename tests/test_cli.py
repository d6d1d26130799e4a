"""Command line behavior: formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import textwrap
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import popdiff
from popdiff import cli, construction, subspace, walsh
from popdiff.cli import main
from popdiff.construction import MAX_TRIALS
from popdiff.correlation import Autocorrelation, autocorrelation
from popdiff.f2n import f2set_dumps, f2set_loads, linear_subspace, make_set, read_set, sumset, write_set

from conftest import NON_CANONICAL_EDITS, canonical_json


def run(*args):
    return main(list(args))


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_gen_random(tmp_path, capsys):
    out = tmp_path / "A.set"
    assert run("gen", "--n", "4", "--family", "random", "--card", "8",
               "--seed", "7", "--out", str(out)) == 0
    assert read_set(out).card == 8
    assert "card=8" in capsys.readouterr().out


def test_gen_subspace_and_niveau(tmp_path):
    v = tmp_path / "V.set"
    assert run("gen", "--n", "4", "--family", "subspace", "--dim", "2", "--out", str(v)) == 0
    assert read_set(v).card == 4
    w = tmp_path / "N.set"
    assert run("gen", "--n", "3", "--family", "niveau", "--wmin", "2", "--out", str(w)) == 0
    assert read_set(w).points().tolist() == [3, 5, 6, 7]


def test_gen_alpha_must_give_integer_cardinality(tmp_path):
    assert run("gen", "--n", "4", "--family", "random", "--alpha", "1/3",
               "--out", str(tmp_path / "x.set")) == 1


def test_gen_usage_errors(tmp_path):
    out = str(tmp_path / "x.set")
    assert run("gen", "--n", "4", "--family", "random", "--out", out) == 1
    assert run("gen", "--n", "4", "--family", "subspace", "--out", out) == 1
    assert run("gen", "--n", "4", "--family", "subspace", "--dim", "9", "--out", out) == 1


def test_dcset_c_zero_matches_sumset(tmp_path, capsys):
    a_path = tmp_path / "A.set"
    run("gen", "--n", "6", "--family", "random", "--card", "20", "--seed", "3",
        "--out", str(a_path))
    d_path = tmp_path / "D.set"
    assert run("dcset", str(a_path), "--c", "0", "--out", str(d_path)) == 0
    a = read_set(a_path)
    assert read_set(d_path) == sumset(a, a)
    assert "|D|=" in capsys.readouterr().out


def test_dcset_subspace_closed_form(tmp_path):
    v_path = tmp_path / "V.set"
    run("gen", "--n", "6", "--family", "subspace", "--dim", "4", "--out", str(v_path))
    d_path = tmp_path / "D.set"
    assert run("dcset", str(v_path), "--c", "1/2", "--out", str(d_path)) == 0
    assert read_set(d_path) == read_set(v_path)


def test_dcset_thresholds_once(tmp_path, capsys, monkeypatch):
    # D comes from one threshold decided in the transform's last pass,
    # with or without --counts-csv, and popular_set is never called; the
    # count vector is built only to write the CSV
    a_path = tmp_path / "A.set"
    run("gen", "--n", "8", "--family", "random", "--card", "100", "--seed", "5",
        "--out", str(a_path))
    thresholds, counted = [], []
    above, pair_counts = walsh.xor_pairs_above, walsh.xor_pair_counts
    monkeypatch.setattr(walsh, "xor_pairs_above",
                        lambda ind, thr: thresholds.append(thr) or above(ind, thr))
    monkeypatch.setattr(walsh, "xor_pair_counts",
                        lambda ind: counted.append(ind.size) or pair_counts(ind))

    def never(*args):
        raise AssertionError("dcset thresholded a count vector")

    monkeypatch.setattr(Autocorrelation, "popular_set", never)
    thr = 100 * 100 // (4 * 256)
    d_path, d_csv_path, csv_path = tmp_path / "D.set", tmp_path / "D2.set", tmp_path / "N.csv"
    assert run("dcset", str(a_path), "--c", "1/4", "--out", str(d_path)) == 0
    assert thresholds == [thr] and counted == []
    assert run("dcset", str(a_path), "--c", "1/4", "--out", str(d_csv_path),
               "--counts-csv", str(csv_path)) == 0
    assert thresholds == [thr, thr] and counted == [256]
    monkeypatch.undo()
    assert d_csv_path.read_bytes() == d_path.read_bytes()
    d = read_set(d_path)
    assert d == autocorrelation(read_set(a_path)).popular_set(Fraction(1, 4))
    assert capsys.readouterr().out.count(f"|D|={d.card}\n") == 2


def _memory_error(*args):
    raise MemoryError


@pytest.mark.parametrize("exhausted", [
    _memory_error,
    lambda *args: np.empty(1 << 62, dtype=np.uint8),  # more than any address space
])
def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, exhausted):
    # numpy's failed allocations are MemoryErrors too; either kind ends
    # the command with exit code 1 and one line on stderr, no traceback
    a_path = tmp_path / "A.set"
    run("gen", "--n", "6", "--family", "random", "--card", "20", "--seed", "3",
        "--out", str(a_path))
    capsys.readouterr()
    monkeypatch.setattr(walsh, "xor_pairs_above", exhausted)
    assert run("dcset", str(a_path), "--c", "1/4") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: not enough memory")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_dcset_rejects_floats(tmp_path):
    a_path = tmp_path / "A.set"
    run("gen", "--n", "4", "--family", "random", "--card", "4", "--seed", "0",
        "--out", str(a_path))
    assert run("dcset", str(a_path), "--c", "0.5") == 1


def test_dcset_parse_error_exit_one(tmp_path):
    bad = tmp_path / "bad.set"
    bad.write_text("F2SET v1 n=2\nzz\n")
    assert run("dcset", str(bad), "--c", "1/2") == 1
    assert run("dcset", str(tmp_path / "missing.set"), "--c", "1/2") == 1


@pytest.fixture(scope="module")
def small_cert(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cert")
    a_path = tmp / "A.set"
    cert_path = tmp / "cert.json"
    assert run("gen", "--n", "12", "--family", "random", "--alpha", "1/2",
               "--seed", "0", "--out", str(a_path)) == 0
    assert run("construct", str(a_path), "--c", "1/8", "--seed", "0",
               "--out", str(cert_path)) == 0
    return cert_path


def test_construct_and_verify_roundtrip(small_cert):
    assert run("verify", str(small_cert)) == 0


def test_construct_retry_exhausted_exit_two(tmp_path):
    v_path = tmp_path / "V.set"
    write_set(linear_subspace(10, [1 << i for i in range(9)]), v_path)
    code = run("construct", str(v_path), "--c", "1/2", "--seed", "3",
               "--out", str(tmp_path / "c.json"), "--lemma-trials", "2")
    assert code == 2
    assert not (tmp_path / "c.json").exists()


def test_construct_exploratory_gate(tmp_path):
    a_path = tmp_path / "A.set"
    run("gen", "--n", "8", "--family", "random", "--card", "128", "--seed", "1",
        "--out", str(a_path))
    out = tmp_path / "c.json"
    assert run("construct", str(a_path), "--c", "3/4", "--seed", "0",
               "--out", str(out)) == 1
    assert run("construct", str(a_path), "--c", "3/4", "--seed", "0",
               "--out", str(out), "--exploratory") == 0


def test_construct_exits_one_before_any_stage_when_the_certificate_cannot_be_written(
        tmp_path, capsys, monkeypatch):
    a_path = tmp_path / "A.set"
    run("gen", "--n", "8", "--family", "random", "--card", "255", "--seed", "7",
        "--out", str(a_path))
    monkeypatch.setattr(construction, "find_lemma_set", None)  # no stage may run
    out = tmp_path / "c.json"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        assert run("construct", str(a_path), "--c", "99/100", "--exploratory", "--seed", "1",
                   "--out", str(out)) == 1
    finally:
        sys.set_int_max_str_digits(limit)
    err = capsys.readouterr().err
    assert "lemma_rhs has 1993 decimal digits, more than the 1000" in err
    assert not out.exists()


def test_verify_tampered_exit_three(small_cert, tmp_path, capsys):
    obj = json.loads(small_cert.read_text())
    obj["seed"] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    assert run("verify", str(bad)) == 3
    assert "replay" in capsys.readouterr().err

    obj = json.loads(small_cert.read_text())
    obj["plan"]["lemma_rhs"] += 1
    bad.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    assert run("verify", str(bad)) == 3
    assert "schema" in capsys.readouterr().err


@pytest.mark.parametrize("edit", NON_CANONICAL_EDITS.values(), ids=NON_CANONICAL_EDITS.keys())
def test_verify_rejects_non_canonical_certificates(small_cert, tmp_path, capsys, edit):
    bad = tmp_path / "bad.json"
    bad.write_text(edit(json.loads(small_cert.read_text())))
    assert bad.read_text() != small_cert.read_text()
    assert run("verify", str(bad)) == 3
    assert "schema" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        lambda obj: canonical_json([obj]),
        lambda obj: canonical_json(obj["c"]),
        lambda obj: canonical_json({**obj, "c": "1/0"}),
        lambda obj: canonical_json({**obj, "plan": {**obj["plan"], "sigma": "1/0"}}),
    ],
    ids=["json_list", "json_string", "c_zero_denominator", "sigma_zero_denominator"],
)
def test_verify_malformed_certificate_is_a_schema_failure(small_cert, tmp_path, capsys, edit):
    bad = tmp_path / "bad.json"
    bad.write_text(edit(json.loads(small_cert.read_text())))
    assert run("verify", str(bad)) == 3
    assert "schema" in capsys.readouterr().err


_DERIVED_EDITS = {
    "plan.target_a1_size":
        lambda obj: obj["plan"].update(target_a1_size=obj["plan"]["target_a1_size"] + 1),
    "plan.guarantee": lambda obj: obj["plan"].update(guarantee=obj["plan"]["guarantee"] + 1),
    "plan.trivial": lambda obj: obj["plan"].update(trivial=not obj["plan"]["trivial"]),
    "guarantee_met": lambda obj: obj.update(guarantee_met=not obj["guarantee_met"]),
    "plan.guarantee_missing": lambda obj: obj["plan"].pop("guarantee"),
    "guarantee_met_missing": lambda obj: obj.pop("guarantee_met"),
}


@pytest.mark.parametrize("edit", _DERIVED_EDITS.values(), ids=_DERIVED_EDITS.keys())
def test_an_edited_derived_field_is_a_schema_failure(small_cert, tmp_path, capsys, edit):
    # the plan's m, guarantee and trivial flag and the guarantee_met flag
    # derive from sigma and A_2, so the parser refuses any other stored value
    obj = json.loads(small_cert.read_text())
    edit(obj)
    text = canonical_json(obj)
    with pytest.raises(ValueError, match="not the canonical form of the fields it holds"):
        construction.Certificate.loads(text)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run("verify", str(bad)) == 3
    assert "verification check 'schema' failed" in capsys.readouterr().err


def test_verify_refuses_a_negative_c_at_schema(small_cert, tmp_path, capsys):
    obj = json.loads(small_cert.read_text())
    bad = tmp_path / "bad.json"
    for c, code, message in (
        ("-1/4", 3, "verification check 'schema' failed: c must be non-negative, got -1/4"),
        ("0", 3, "verification check 'plan' failed"),
        ("1", 3, "verification check 'containment' failed"),
    ):
        bad.write_text(canonical_json({**obj, "c": c}))
        capsys.readouterr()
        assert run("verify", str(bad)) == code, c
        assert message in capsys.readouterr().err, c


def test_seed_outside_64_bits_is_a_usage_error(small_cert, tmp_path):
    a_path = tmp_path / "A.set"
    for seed in ("-1", str(2**64)):
        assert run("gen", "--n", "4", "--family", "random", "--card", "8",
                   "--seed", seed, "--out", str(a_path)) == 1
    assert run("gen", "--n", "4", "--family", "random", "--card", "8",
               "--seed", str(2**64 - 1), "--out", str(a_path)) == 0
    for seed in ("-1", str(2**64)):
        assert run("construct", str(a_path), "--c", "1/4", "--seed", seed,
                   "--out", str(tmp_path / "c.json")) == 1
    assert not (tmp_path / "c.json").exists()


def test_trial_budgets_outside_the_cap_are_usage_errors(tmp_path):
    a_path = tmp_path / "A.set"
    write_set(linear_subspace(6, [1, 2, 4]), a_path)
    out = tmp_path / "out"
    for flag in ("--lemma-trials", "--refine-trials"):
        for value in ("0", "-1", str(MAX_TRIALS + 1), "1.5"):
            assert run("construct", str(a_path), "--c", "1/4", "--seed", "0",
                       "--out", str(out), flag, value) == 1
            assert run("sweep", "--n", "6", "--alpha", "1/2", "--c", "1/4",
                       "--out", str(out), flag, value) == 1
    assert not out.exists()
    assert run("construct", str(a_path), "--c", "1/4", "--seed", "0",
               "--out", str(out), "--lemma-trials", str(MAX_TRIALS)) == 0


def test_verify_budget_outside_the_cap_is_a_schema_failure(small_cert, tmp_path, capsys):
    obj = json.loads(small_cert.read_text())
    obj["budgets"]["lemma_trials"] = 10**9
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_json(obj))
    assert run("verify", str(bad)) == 3
    assert "schema" in capsys.readouterr().err


def test_verify_point_addition_exit_three(small_cert, tmp_path):
    obj = json.loads(small_cert.read_text())
    a2 = f2set_loads(f"F2SET v1 n={obj['n']}\n{obj['a2']}\n")
    extra = next(x for x in range(1 << obj["n"]) if x not in a2)
    bumped = make_set(obj["n"], a2.points().tolist() + [extra])
    obj["a2"] = f2set_dumps(bumped).split("\n")[1]
    obj["stats"]["card_a2"] = bumped.card
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    assert run("verify", str(bad)) == 3


def test_verify_unreadable_and_malformed(tmp_path):
    assert run("verify", str(tmp_path / "missing.json")) == 1
    garbage = tmp_path / "g.json"
    garbage.write_text("{not json")
    assert run("verify", str(garbage)) == 3


def test_verify_non_ascii_certificate_is_a_schema_failure(small_cert, tmp_path, capsys):
    # a malformed certificate fails 'schema' with exit 3; only a file that
    # cannot be read exits 1
    text = small_cert.read_text()
    bad = tmp_path / "bad.json"
    bad.write_bytes(text.replace('"format"', '"förmat"').encode("utf-8"))
    assert run("verify", str(bad)) == 3
    assert capsys.readouterr().err == (
        "verification check 'schema' failed: certificate is not ASCII: 'ascii' codec can't "
        f"decode byte 0xc3 in position {text.index('format') + 1}: ordinal not in range(128)\n"
    )
    assert run("verify", str(tmp_path)) == 1
    assert capsys.readouterr().err.startswith("cannot read certificate: ")


def test_bound_values(capsys):
    assert run("bound", "16", "1/2", "1/16") == 0
    assert capsys.readouterr().out.strip() == "42"
    assert run("bound", "20", "1/2", "1/4") == 0
    assert capsys.readouterr().out.strip() == "10"
    assert run("bound", "9", "1/4", "1/4") == 0
    assert capsys.readouterr().out.strip() == "0"
    assert run("bound", "8", "1/2", "2") == 1  # c outside (0, 1)


def test_bound_refuses_a_value_within_2_to_the_minus_20_of_an_integer(capsys):
    # c = alpha^2 makes the value 9 * 2^((n - 16) / 2) exactly
    for n, m in ((16, 9), (18, 18), (20, 36)):
        assert run("bound", str(n), "3/4", "9/16") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: bound value is within 2^-20 of an integer of {m.bit_length()} bits\n")
    assert run("bound", "17", "3/4", "9/16") == 0
    assert capsys.readouterr().out == "12\n"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python converts integers of any length to text")
def test_bound_refuses_a_value_too_long_to_print_before_computing_it(monkeypatch, capsys):
    limit = sys.get_int_max_str_digits()
    # alpha = 1/2, c = 1/16 is exact at n = 4k: floor(2^(3k - 3) / 12).  The
    # largest such bound that still prints is computed and printed in full
    n = max(n for n in range(4, 8 * limit, 4)
            if construction._decimal_digits((1 << (3 * n // 4 - 3)) // 12) <= limit)
    assert run("bound", str(n), "1/2", "1/16") == 0
    assert capsys.readouterr().out == f"{(1 << (3 * n // 4 - 3)) // 12}\n"

    def never(*args):
        raise AssertionError(f"theorem_bound{args} was computed")

    # the digit count is exact, so one step further the bound is refused
    # unevaluated, as is one that would be the integer 2^(7.5 * 10^8)
    with monkeypatch.context() as patch:
        patch.setattr(construction, "theorem_bound", never)
        for argv, digits in (((str(n + 4), "1/2", "1/16"), limit + 1),
                             (("100000", "1/3", "1/16"), 18173),
                             (("1000000000", "1/2", "1/16"), 225772495)):
            assert run("bound", *argv) == 1
            err = capsys.readouterr().err
            assert f"the bound has {digits} decimal digits, more than the {limit}" in err


def test_maxsub(tmp_path, capsys):
    v_path = tmp_path / "V.set"
    run("gen", "--n", "5", "--family", "subspace", "--dim", "3", "--out", str(v_path))
    assert run("maxsub", str(v_path)) == 0
    assert "dimension=3" in capsys.readouterr().out


def test_maxsub_missing_zero(tmp_path, capsys):
    p = tmp_path / "x.set"
    write_set(make_set(4, [1, 2]), p)
    assert run("maxsub", str(p)) == 0
    assert "dimension 0" in capsys.readouterr().out


def test_sweep_deterministic_and_blank_columns(tmp_path):
    args = ["sweep", "--n", "8", "--alpha", "1/2,1/3", "--c", "0,1/4",
            "--family", "random", "--seeds", "2"]
    one, two = tmp_path / "1.csv", tmp_path / "2.csv"
    assert run(*args, "--out", str(one)) == 0
    assert run(*args, "--out", str(two)) == 0
    assert one.read_bytes() == two.read_bytes()

    rows = one.read_text().splitlines()
    header = rows[0].split(",")
    parsed = [dict(zip(header, line.split(","))) for line in rows[1:]]
    assert len(parsed) == 8
    for row in parsed:
        if row["alpha"] == "1/3":
            assert row["reason"] == "alpha*2^n is not an integer"
            assert row["card_a"] == ""
        elif row["c"] == "0":
            assert row["theorem_bound"] == "" and row["achieved"] == ""
            assert row["card_d"] != ""
        else:
            assert row["success"] == "true"
            assert row["bound_ok"] == "true"
            assert int(row["achieved"]) >= int(row["guarantee"])


def test_sweep_families(tmp_path):
    out = tmp_path / "fam.csv"
    assert run("sweep", "--n", "8", "--alpha", "1/2,3/8", "--c", "1/4",
               "--family", "subspace", "--out", str(out)) == 0
    rows = out.read_text().splitlines()
    assert "power-of-two" in rows[2]  # 3/8 density is not a subspace size

    assert run("sweep", "--n", "8", "--alpha", "1/2", "--c", "1/4",
               "--family", "niveau", "--out", str(out)) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[5] != ""  # card_a recorded (actual niveau size, at most the budget)


def test_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    monkeypatch.setattr(walsh, "usable_cpus", lambda: 4)  # 2, 3 and 4 workers on any machine
    base = ["sweep", "--n", "6,8,14,16", "--alpha", "1/2", "--c", "1/16,1", "--seeds", "2",
            "--subspace-cap", "8"]
    serial = tmp_path / "s.csv"
    assert run(*base, "--out", str(serial)) == 0
    for jobs in ("2", "3", "4"):
        parallel = tmp_path / f"p{jobs}.csv"
        assert run(*base, "--jobs", jobs, "--out", str(parallel)) == 0
        assert serial.read_bytes() == parallel.read_bytes()
        assert_no_child_left()


@pytest.mark.parametrize(
    "jobs, seeds, cpus, workers",
    [("1000000", "5", 3, 3), ("1000000", "1", 8, 2), ("2", "5", 3, 2), ("4", "5", 1, None),
     ("2", "6", 2, 2)],
    ids=["cpus", "cells", "jobs", "serial_on_one_cpu", "two_workers_for_twelve_cells"],
)
def test_sweep_starts_at_most_one_worker_per_cell_and_cpu(
        tmp_path, monkeypatch, jobs, seeds, cpus, workers):
    # the worker count and the order are checked and the cells then run
    # here, so no process starts
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    started = []

    def in_process(cells, count):
        started.append((cells, count, cli._sweep_order(cells)))
        return [cli._sweep_cell(*cell) for cell in cells]

    monkeypatch.setattr(cli, "_sweep_in_workers", in_process)
    base = ["sweep", "--n", "6,8", "--alpha", "1/2", "--c", "1/4", "--seeds", seeds]
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    assert run(*base, "--out", str(serial)) == 0
    assert started == []
    assert run(*base, "--jobs", jobs, "--out", str(parallel)) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    if workers is None:
        assert started == []
        return
    (cells, count, order), = started
    assert count == workers == min(int(jobs), len(cells), cpus)
    # every cell once, the n = 8 cells (the second half) first, each n in cell order
    assert order == [i for i in range(len(cells)) if cells[i][0] == 8] + \
        [i for i in range(len(cells)) if cells[i][0] == 6]


@pytest.mark.filterwarnings("ignore:.*fork\\(\\) may lead to deadlocks:DeprecationWarning")
def test_sweep_workers_transform_on_one_thread_after_a_threaded_parent(tmp_path, monkeypatch):
    # the parent's kernel holds a pool of threads when the workers fork;
    # a worker drops it and transforms on its own thread alone
    monkeypatch.setattr(walsh, "_pool", None)
    monkeypatch.setattr(walsh, "_threads", 2)
    monkeypatch.setattr(walsh, "usable_cpus", lambda: 2)  # two workers on any machine
    try:
        n = 17
        assert (walsh.xor_pair_counts(np.ones(1 << n, dtype=np.uint8)) == 1 << n).all()
        assert walsh._pool is not None
        log = tmp_path / "threads.log"
        each, parent = walsh._each, os.getpid()

        def spy(parts, work):
            # a worker that kept the parent's pool would wait on it forever
            if os.getpid() != parent and walsh._pool is not None:
                raise AssertionError("a sweep worker kept the parent's thread pool")
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()} {walsh._threads} {threading.active_count()}\n")
            each(parts, work)

        monkeypatch.setattr(walsh, "_each", spy)
        base = ["sweep", "--n", "8,17", "--alpha", "1/2", "--c", "1/4", "--subspace-cap", "8"]
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        assert run(*base, "--out", str(serial)) == 0
        assert run(*base, "--jobs", "2", "--out", str(parallel)) == 0
        assert serial.read_bytes() == parallel.read_bytes()
        assert_no_child_left()
        records = [line.split() for line in log.read_text().splitlines()]
        in_workers = [r for r in records if int(r[0]) != parent]
        assert in_workers and all(r[1:] == ["1", "1"] for r in in_workers)
        assert any(r[1] == "2" for r in records if int(r[0]) == parent)
    finally:
        if walsh._pool is not None:
            walsh._pool.shutdown()


def _run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports this popdiff."""
    env = dict(os.environ)
    src = str(Path(popdiff.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_no_command_imports_mpmath(tmp_path):
    # bounds are decided in integers, so neither the parent nor a sweep
    # worker loads mpmath, whatever alpha and c are.  The random grid has
    # non-dyadic and dyadic cells, and a niveau set's density is |A| / 2^n
    result = _run_python("""
        import os, sys
        from popdiff import cli, walsh
        walsh.usable_cpus = lambda: 2  # two workers on any machine
        cell = cli._sweep_cell

        def checked_cell(*args):
            row = cell(*args)
            assert row["theorem_bound"] != "", args
            assert "mpmath" not in sys.modules, f"mpmath loaded in {os.getpid()}"
            return row

        cli._sweep_cell = checked_cell
        out = sys.argv[1]
        assert cli.main(["gen", "--n", "8", "--family", "random", "--card", "9",
                         "--seed", "1", "--out", out]) == 0
        assert cli.main(["dcset", out, "--c", "1/4"]) == 0
        assert cli.main(["bound", "12", "1/3", "1/4"]) == 0
        for jobs in ("1", "2"):
            for grid in (["--n", "8,10", "--alpha", "3/8,1/2", "--c", "1/3,1/16"],
                         ["--n", "9,10", "--alpha", "1/4", "--c", "1/5,1/16",
                          "--family", "niveau"]):
                assert cli.main(["sweep", *grid, "--subspace-cap", "8", "--jobs", jobs,
                                 "--out", out]) == 0
        assert "mpmath" not in sys.modules, "the parent loaded mpmath"
    """, str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr


def test_sweep_cell_error_is_the_same_under_jobs_one_and_two(tmp_path, monkeypatch, capsys):
    def broken(*args):
        raise ValueError("no set for this cell")

    monkeypatch.setattr(cli.f2n, "random_set", broken)  # forked workers inherit it
    results = []
    for jobs in ("1", "2"):
        out = tmp_path / f"{jobs}.csv"
        code = run("sweep", "--n", "6,8", "--alpha", "1/2", "--c", "1/4", "--seeds", "2",
                   "--jobs", jobs, "--out", str(out))
        results.append((code, capsys.readouterr().err, out.exists()))
    assert results[0] == results[1] == (1, "error: no set for this cell\n", False)
    assert_no_child_left()


def test_sweep_reports_the_lowest_failing_cell_under_every_jobs(tmp_path, monkeypatch, capsys):
    # cells 0-2 have n = 6 and cells 3-5 n = 8, so the workers take cells
    # 3 and 4 first; on two workers both fail before cell 1 is taken, so a
    # worker that failed must still run a lower cell, and the error is
    # cell 1's, as in a serial run
    monkeypatch.setattr(walsh, "usable_cpus", lambda: 3)
    cell = cli._sweep_cell
    ran = tmp_path / "ran.log"

    def failing(*args):
        index = args[4] + 3 * (args[0] == 8)  # seed index, plus 3 at n = 8
        with open(ran, "a") as handle:
            handle.write(f"{index}\n")
        if index in (1, 3, 4):
            raise ValueError(f"cell {index} failed")
        return cell(*args)

    monkeypatch.setattr(cli, "_sweep_cell", failing)
    cells = [(6,)] * 3 + [(8,)] * 3
    assert cli._sweep_order(cells) == [3, 4, 5, 0, 1, 2]
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"{jobs}.csv"
        code = run("sweep", "--n", "6,8", "--alpha", "1/2", "--c", "1/4", "--seeds", "3",
                   "--jobs", jobs, "--out", str(out))
        assert (code, capsys.readouterr().err, out.exists()) == (1, "error: cell 1 failed\n", False)
        assert_no_child_left()
        ran_cells = sorted(int(line) for line in ran.read_text().split())
        ran.unlink()
        # a serial run stops at cell 1; workers run every cell below 1 and
        # nothing twice
        if jobs == "1":
            assert ran_cells == [0, 1]
        else:
            assert ran_cells[:2] == [0, 1] and len(set(ran_cells)) == len(ran_cells)


def test_sweep_worker_that_exits_without_its_rows_is_one_error_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(walsh, "usable_cpus", lambda: 2)
    parent = os.getpid()

    def dies(*args):
        if os.getpid() != parent:
            os._exit(3)
        raise AssertionError("a cell ran in the parent")

    monkeypatch.setattr(cli, "_sweep_cell", dies)
    out = tmp_path / "s.csv"
    assert run("sweep", "--n", "6", "--alpha", "1/2", "--c", "1/4", "--seeds", "2",
               "--jobs", "2", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sweep worker ") and err.count("\n") == 1, err
    assert "exited with code 3 before sending its rows" in err
    assert not out.exists()
    assert_no_child_left()


class _Unpicklable(ValueError):
    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None  # no pickle for a lambda


def test_sweep_cell_error_that_cannot_be_pickled_keeps_its_type_and_message(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(walsh, "usable_cpus", lambda: 2)

    def raises(*args):
        raise _Unpicklable(f"cell {args[4]} has a hook")

    monkeypatch.setattr(cli, "_sweep_cell", raises)
    base = ["sweep", "--n", "6", "--alpha", "1/2", "--c", "1/4", "--seeds", "2"]
    assert run(*base, "--out", str(tmp_path / "1.csv")) == 1
    assert capsys.readouterr().err == "error: cell 0 has a hook\n"
    assert run(*base, "--jobs", "2", "--out", str(tmp_path / "2.csv")) == 1
    assert capsys.readouterr().err == "error: sweep cell 0 raised _Unpicklable: cell 0 has a hook\n"
    assert_no_child_left()


def test_sweep_waits_for_every_worker_when_collecting_is_interrupted(tmp_path, monkeypatch):
    monkeypatch.setattr(walsh, "usable_cpus", lambda: 2)

    def interrupted(status):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "waitstatus_to_exitcode", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run("sweep", "--n", "6", "--alpha", "1/2", "--c", "1/4", "--seeds", "2",
            "--jobs", "2", "--out", str(tmp_path / "s.csv"))
    assert_no_child_left()


@pytest.mark.parametrize(
    "grid",
    [
        ["--n", "8", "--alpha", "3/2", "--family", "niveau"],
        ["--n", "6,31", "--alpha", "1/2"],
        ["--n", "0", "--alpha", "1/2"],
        ["--n", "6", "--alpha", "1/2", "--seeds", "0"],
        ["--n", "6", "--alpha", "1/2", "--jobs", "0"],
        ["--n", "6", "--alpha", "1/2", "--jobs", "-3"],
    ],
    ids=["alpha_above_one", "n_above_30", "n_zero", "no_seeds", "no_jobs", "negative_jobs"],
)
def test_sweep_rejects_grids_it_cannot_run(tmp_path, monkeypatch, grid):
    monkeypatch.setattr(cli, "_sweep_cell", None)  # no cell may run
    out = tmp_path / "s.csv"
    assert run("sweep", *grid, "--c", "1/4", "--out", str(out)) == 1
    assert not out.exists()


def test_sweep_refuses_the_subspace_search_above_its_cap(tmp_path, monkeypatch, capsys):
    # as maxsub does, and before any cell runs or the CSV is opened
    monkeypatch.setattr(cli, "_sweep_cell", None)
    cap = subspace.SEARCH_DIM_CAP
    out = tmp_path / "s.csv"
    assert run("sweep", "--n", f"6,{cap + 1}", "--alpha", "1/2", "--c", "1",
               "--subspace-cap", str(cap + 1), "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        f"error: exact subspace search is capped at n={cap}, "
        f"but --subspace-cap {cap + 1} asks for it at n={cap + 1}\n")
    assert not out.exists()
    # a grid whose large n lie above --subspace-cap, or at most at the
    # search's cap, runs
    monkeypatch.setattr(cli, "_sweep_cell", lambda n, *rest: {"n": n})
    for grid in ((f"{cap},{cap + 1}", str(cap)), (str(cap), str(cli.f2n.MAX_DIM))):
        assert run("sweep", "--n", grid[0], "--alpha", "1/2", "--c", "1",
                   "--subspace-cap", grid[1], "--out", str(out)) == 0


def test_sweep_keeps_reason_rows_at_alpha_zero_and_c_one(tmp_path):
    out = tmp_path / "s.csv"
    assert run("sweep", "--n", "4", "--alpha", "0,1", "--c", "1/4,1", "--out", str(out)) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(r[1], r[2], r[-1]) for r in rows] == [
        ("0", "1/4", "empty set"),
        ("0", "1", "empty set"),
        ("1", "1/4", ""),
        ("1", "1", "construction requires 0 < c < 1"),
    ]


def test_usage_error_exit_one():
    assert run("bound", "16", "0.5", "1/16") == 1
    assert run("nonsense") == 1


# each integer argument, with a command that runs when it holds a valid value
_INTEGER_ARGS = {
    "gen --n": ("gen", "--family", "random", "--card", "2", "--n", "{v}"),
    "gen --card": ("gen", "--n", "4", "--family", "random", "--card", "{v}"),
    "gen --seed": ("gen", "--n", "4", "--family", "random", "--card", "2", "--seed", "{v}"),
    "gen --dim": ("gen", "--n", "4", "--family", "subspace", "--dim", "{v}"),
    "gen --wmin": ("gen", "--n", "4", "--family", "niveau", "--wmin", "{v}"),
    "construct --seed": ("construct", "{set}", "--c", "1/4", "--seed", "{v}"),
    "construct --lemma-trials": ("construct", "{set}", "--c", "1/4", "--seed", "0",
                                 "--lemma-trials", "{v}"),
    "construct --refine-trials": ("construct", "{set}", "--c", "1/4", "--seed", "0",
                                  "--refine-trials", "{v}"),
    "bound n": ("bound", "{v}", "1/2", "1/4"),
    "sweep --n": ("sweep", "--alpha", "1/2", "--c", "1/4", "--n", "4,{v}"),
    "sweep --seeds": ("sweep", "--n", "4", "--alpha", "1/2", "--c", "1/4", "--seeds", "{v}"),
    "sweep --lemma-trials": ("sweep", "--n", "4", "--alpha", "1/2", "--c", "1/4",
                             "--lemma-trials", "{v}"),
    "sweep --refine-trials": ("sweep", "--n", "4", "--alpha", "1/2", "--c", "1/4",
                              "--refine-trials", "{v}"),
    "sweep --subspace-cap": ("sweep", "--n", "4", "--alpha", "1/2", "--c", "1/4",
                             "--subspace-cap", "{v}"),
    "sweep --jobs": ("sweep", "--n", "4", "--alpha", "1/2", "--c", "1/4", "--jobs", "{v}"),
}


@pytest.mark.parametrize("value", ["1_0", "١٠", " +7 ", "+3", "07", "2\n", "-1", ""],
                         ids=["underscore", "arabic_indic", "spaces_and_sign", "plus",
                              "leading_zero", "final_newline", "negative", "empty"])
@pytest.mark.parametrize("arg", _INTEGER_ARGS.values(), ids=_INTEGER_ARGS.keys())
def test_integer_arguments_are_ascii_decimals_without_leading_zeros(tmp_path, capsys, arg, value):
    out = tmp_path / "out"
    assert run(*_integer_argv(arg, value, tmp_path, out)) == 1
    assert "expected a non-negative decimal integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("arg", _INTEGER_ARGS.values(), ids=_INTEGER_ARGS.keys())
def test_integer_argument_probes_run_with_a_plain_decimal(tmp_path, arg):
    assert run(*_integer_argv(arg, "2", tmp_path, tmp_path / "out")) == 0


def _integer_argv(arg, value, tmp_path, out):
    a_path = tmp_path / "A.set"
    write_set(linear_subspace(4, [1, 2, 4]), a_path)
    argv = [part.format(v=value, set=a_path) for part in arg]
    return argv if argv[0] == "bound" else argv + ["--out", str(out)]


@pytest.mark.parametrize("value", ["1/16\n", "007/8", "01", "1/016", " 1/2", "1/2 ", "+1/2", "½"])
def test_rationals_are_ascii_decimals_without_leading_zeros(tmp_path, capsys, value):
    a_path = tmp_path / "A.set"
    write_set(linear_subspace(4, [1, 2, 4]), a_path)
    assert run("dcset", str(a_path), "--c", value) == 1
    assert "expected a rational" in capsys.readouterr().err
    for good in ("0", "0/3", "1/16", "7/8", "10/100"):
        assert run("dcset", str(a_path), "--c", good) == 0


def test_one_parser_serves_every_call_alike(small_cert, tmp_path, capsys):
    a_path = tmp_path / "A.set"
    assert run("gen", "--n", "10", "--family", "random", "--alpha", "1/2",
               "--seed", "4", "--out", str(a_path)) == 0
    capsys.readouterr()
    calls = [
        ("construct", str(a_path), "--c", "0.25", "--seed", "1", "--out", "{out}"),
        ("verify", str(small_cert)),
        ("construct", str(a_path), "--c", "1/8", "--seed", "1", "--out", "{out}"),
    ]

    def outcomes(fresh, tag):
        got = []
        for i, call in enumerate(calls):
            out = tmp_path / f"{tag}{i}.json"
            if fresh:
                cli._build_parser.cache_clear()
            code = run(*(arg.format(out=out) for arg in call))
            text = capsys.readouterr()
            got.append((code, text.out.replace(str(out), "OUT"), text.err,
                        out.read_bytes() if out.exists() else None))
        return got

    shared = outcomes(fresh=False, tag="shared")
    assert cli._build_parser() is cli._build_parser()
    assert [g[0] for g in shared] == [1, 0, 0]
    assert outcomes(fresh=True, tag="fresh") == shared
