"""The three benchmark workloads: ``certify``, ``transform`` and ``explore``.

Each workload generates its inputs from the workload seed with the
``popdiff gen``/``construct`` commands (``setup``), runs one pass of timed
CLI calls (``run_pass``) and checks the outputs of that pass with the
benchmark's own code (``check``).  Calls go through ``Session.call``, which
times ``popdiff.cli.main`` in-process and records the exit code.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from fractions import Fraction
from functools import partial
from itertools import count

import numpy as np

import oracle


def derive_seed(seed: int, label: str) -> int:
    """64-bit seed for one generated input, from the workload seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


class Certify:
    """The paper's pipeline at scale: construct, verify, a construct that
    needs many lemma trials, and a tamper mix of verify calls."""

    name = "certify"
    # The hyperplane's lemma stage accepts a trial with probability 2^(1-r),
    # so its trial count is geometric in the construct seed.  A fixed seed
    # pins the work to 62 trials; the set itself is not random anyway.
    HYPERPLANE_SEED = 7

    def setup(self, session) -> None:
        w, seed = session.work, session.seed
        session.setup_call(["gen", "--n", 20, "--family", "random", "--alpha", "1/2",
                            "--seed", derive_seed(seed, "A20"), "--out", w / "A20.set"])
        session.setup_call(["gen", "--n", 18, "--family", "subspace", "--dim", 17,
                            "--out", w / "H18.set"])
        session.setup_call(["gen", "--n", 16, "--family", "random", "--alpha", "1/2",
                            "--seed", derive_seed(seed, "A16"), "--out", w / "A16.set"])
        session.setup_call(["construct", w / "A16.set", "--c", "1/16",
                            "--seed", derive_seed(seed, "C16"), "--out", w / "base16.json"])
        base = (w / "base16.json").read_text()
        for case, text in tamper_cases(base).items():
            (w / f"tamper-{case}.json").write_text(text)
        session.inputs = [w / name for name in ("A20.set", "H18.set", "A16.set", "base16.json")]
        session.inputs += [w / f"tamper-{case}.json" for case in TAMPER_CASES]

    def run_pass(self, session) -> None:
        w, seed = session.work, session.seed
        session.call("construct", ["construct", w / "A20.set", "--c", "1/16",
                                   "--seed", derive_seed(seed, "C20"), "--out", w / "C20.json"])
        session.call("verify", ["verify", w / "C20.json"])
        session.call("construct_retry", ["construct", w / "H18.set", "--c", "1/4",
                                         "--seed", self.HYPERPLANE_SEED, "--out", w / "CH18.json"])
        for case in TAMPER_CASES:
            session.call(f"tamper:{case}", ["verify", w / f"tamper-{case}.json"], expect=3)

    def check(self, session) -> list[str]:
        w = session.work
        problems = []
        for cert, given, c in (("C20.json", "A20.set", Fraction(1, 16)),
                               ("CH18.json", "H18.set", Fraction(1, 4))):
            problems += session.checked(w / cert, partial(
                _check_certificate, input_data=(w / given).read_bytes(), c=c))
        return problems


def _check_certificate(data: bytes, input_data: bytes, c: Fraction) -> list[str]:
    """A' + A' inside D_c(A), by pairwise XORs against an own transform."""
    cert = json.loads(data)
    n, bits = oracle.parse_set(input_data)
    problems = []
    if cert["n"] != n or cert["c"] != str(c):
        problems.append("certificate parameters differ from the command")
    if cert["input_sha256"] != hashlib.sha256(input_data).hexdigest():
        problems.append("certificate input digest differs from the input file")
    if cert["verified"] is not True:
        problems.append("certificate is not marked verified")
    a2 = np.flatnonzero(oracle.parse_payload(n, cert["a2"]))
    if len(a2) < cert["plan"]["guarantee"]:
        problems.append(f"|A'| = {len(a2)} is below the guarantee")
    if not oracle.sumset_inside(a2, oracle.popular_bits(bits, c)):
        problems.append("A' + A' is not inside D_c(A)")
    return problems


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _edit(**fields):
    return lambda obj: _canonical({**obj, **fields})


# Edits of a valid certificate that a strict verifier must reject (exit 3).
TAMPERS = {
    "seed_plus_1": lambda obj: _canonical({**obj, "seed": obj["seed"] + 1}),
    "verified_false": _edit(verified=False),
    "seed_plus_2_64": lambda obj: _canonical({**obj, "seed": obj["seed"] + 2**64}),
    "compact_json": lambda obj: json.dumps(obj, sort_keys=True, separators=(",", ":")),
    "c_decimal_string": _edit(c="0.0625"),
    "c_json_float": _edit(c=0.0625),
    "c_padded": _edit(c=" 1/16 "),
    "n_float": lambda obj: _canonical({**obj, "n": float(obj["n"])}),
    "extra_field": _edit(comment="unknown field"),
    "lemma_budget_1e9": lambda obj: _canonical(
        {**obj, "budgets": {**obj["budgets"], "lemma_trials": 10**9}}),
}
TAMPER_CASES = list(TAMPERS)


def tamper_cases(text: str) -> dict[str, str]:
    obj = json.loads(text)
    if obj["c"] != "1/16":
        raise ValueError("tamper cases are written for a c = 1/16 certificate")
    out = {case: edit(obj) for case, edit in TAMPERS.items()}
    for case, tampered in out.items():
        if tampered == text:
            raise ValueError(f"tamper case {case} leaves the certificate unchanged")
    return out


class Transform:
    """D_c(A) of a large random set: the Walsh-Hadamard layer and F2SET I/O."""

    name = "transform"

    def setup(self, session) -> None:
        w = session.work
        session.setup_call(["gen", "--n", 22, "--family", "random", "--alpha", "1/2",
                            "--seed", derive_seed(session.seed, "A22"), "--out", w / "A22.set"])
        session.inputs = [w / "A22.set"]

    def run_pass(self, session) -> None:
        w = session.work
        session.call("dcset", ["dcset", w / "A22.set", "--c", "1", "--out", w / "D22.set"])

    def check(self, session) -> list[str]:
        def own_threshold(data: bytes) -> list[str]:
            n, bits = oracle.parse_set((session.work / "A22.set").read_bytes())
            if data != oracle.set_bytes(n, oracle.popular_bits(bits, Fraction(1))):
                return ["D.set differs from the support threshold of an own int64 transform"]
            return []

        return session.checked(session.work / "D22.set", own_threshold)


SWEEP = ["sweep", "--n", "8,10,12,14,16", "--alpha", "1/2,1/4", "--c", "1/16,1/4,1",
         "--seeds", "4", "--subspace-cap", "10", "--jobs", "2"]
SWEEP_CELLS = 5 * 2 * 3 * 4
_MAXSUB = re.compile(r"^dimension=(\d+) cardinality=(\d+) basis=\[([0-9a-f ]*)\]$", re.M)


class Explore:
    """Many small calls: a 120-cell sweep and an exact subspace search."""

    name = "explore"

    def setup(self, session) -> None:
        w = session.work
        # condition on 0 in A: otherwise maxsub answers without searching
        for k in count():
            session.setup_call(["gen", "--n", 10, "--family", "random", "--alpha", "1/2",
                                "--seed", derive_seed(session.seed, f"M10/{k}"),
                                "--out", w / "M10.set"])
            if oracle.parse_set((w / "M10.set").read_bytes())[1][0]:
                break
        session.inputs = [w / "M10.set"]

    def run_pass(self, session) -> None:
        w = session.work
        session.call("sweep", SWEEP + ["--out", w / "sweep.csv"])
        session.call("maxsub", ["maxsub", w / "M10.set"])

    def check(self, session) -> list[str]:
        problems = session.checked(session.work / "sweep.csv", _check_sweep)
        match = _MAXSUB.search(session.last_stdout["maxsub"])
        _, bits = oracle.parse_set((session.work / "M10.set").read_bytes())
        if match is None:
            problems.append("maxsub printed no basis")
        else:
            vectors = [int(v, 16) for v in match.group(3).split()]
            if int(match.group(1)) != len(vectors) or not vectors:
                problems.append("maxsub dimension does not match its basis")
            elif not oracle.span_inside(vectors, bits):
                problems.append("maxsub basis does not span a subspace inside the set")
        return problems


def _check_sweep(data: bytes) -> list[str]:
    rows = list(csv.DictReader(data.decode("ascii").splitlines()))
    problems = [] if len(rows) == SWEEP_CELLS else [f"sweep wrote {len(rows)} rows"]
    done = [r for r in rows if r["success"] == "true"]
    if not done:
        problems.append("no sweep cell succeeded")
    for r in done:
        if int(r["achieved"]) < int(r["guarantee"]) or r["bound_ok"] != "true":
            problems.append(f"sweep row n={r['n']} alpha={r['alpha']} c={r['c']} "
                            f"seed={r['seed']} misses its guarantee or bound")
    return problems


WORKLOADS = {w.name: w for w in (Certify(), Transform(), Explore())}
