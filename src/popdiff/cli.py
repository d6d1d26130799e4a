"""Command line harness: generators, threshold reports, certified
constructions, certificate verification, parameter sweeps.

Exit codes: 0 success, 1 usage or parse error, 2 retry budget exhausted,
3 certificate verification failure.  Rationals are given as ``p`` or
``p/q``; floats are rejected so the strict threshold semantics survive
the command line.  Every integer, and each of p and q, is written in
ASCII decimal digits with no sign, space, ``_`` or leading zero.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import itertools
import json
import re
import sys
from fractions import Fraction

from . import construction, correlation, f2n, subspace, walsh
from .construction import (
    BoundaryAmbiguous,
    Budgets,
    Certificate,
    RetryExhausted,
    VerificationError,
)
from .rng import SplitMix64

# ASCII decimals with no sign, no spaces, no "_" and no leading zero
_NATURAL = re.compile(r"0|[1-9][0-9]*")
_RATIONAL = re.compile(rf"({_NATURAL.pattern})(?:/([1-9][0-9]*))?")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


def rational(text: str) -> Fraction:
    m = _RATIONAL.fullmatch(text)
    if not m:
        raise argparse.ArgumentTypeError(
            f"expected a rational like 3/4 (floats are rejected), got {text!r}"
        )
    return Fraction(int(m.group(1)), int(m.group(2)) if m.group(2) else 1)


def natural(text: str) -> int:
    if not _NATURAL.fullmatch(text):
        raise argparse.ArgumentTypeError(
            f"expected a non-negative decimal integer like 12, got {text!r}"
        )
    return int(text)


def seed64(text: str) -> int:
    seed = natural(text)
    if seed >= 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2^64), got {seed}")
    return seed


def _rational_list(text: str) -> list[Fraction]:
    return [rational(part) for part in text.split(",")]


def _int_list(text: str) -> list[int]:
    return [natural(part) for part in text.split(",")]


# Parsing neither changes the parser nor keeps state in it (``error``
# raises, and every call gets a fresh Namespace), so one tree serves
# every call of ``main`` in a process.
@functools.cache
def _build_parser() -> _Parser:
    p = _Parser(prog="popdiff", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a set and write it as an F2SET file")
    g.add_argument("--n", type=natural, required=True)
    g.add_argument("--family", choices=["random", "subspace", "niveau"], required=True)
    g.add_argument("--card", type=natural, help="cardinality (random family)")
    g.add_argument("--alpha", type=rational, help="density, alternative to --card")
    g.add_argument("--seed", type=seed64, default=0, help="seed (random family)")
    g.add_argument("--dim", type=natural, help="dimension (subspace family)")
    g.add_argument("--wmin", type=natural, help="weight threshold (niveau family)")
    g.add_argument("--out", required=True)

    d = sub.add_parser("dcset", help="compute the popular difference set")
    d.add_argument("input", help="F2SET file holding A")
    d.add_argument("--c", type=rational, required=True)
    d.add_argument("--out", help="write D_c(A) as F2SET")
    d.add_argument("--counts-csv", help="dump the autocorrelation as x,count rows")

    c = sub.add_parser("construct", help="build a certified A' with A'+A' inside D_c(A)")
    c.add_argument("input", help="F2SET file holding A")
    c.add_argument("--c", type=rational, required=True)
    c.add_argument("--seed", type=seed64, required=True)
    c.add_argument("--out", required=True, help="certificate path (JSON)")
    c.add_argument("--lemma-trials", type=natural, default=construction.DEFAULT_TRIALS)
    c.add_argument("--refine-trials", type=natural, default=construction.DEFAULT_TRIALS)
    c.add_argument("--exploratory", action="store_true", help="allow 1/2 < c < 1")

    v = sub.add_parser("verify", help="independently re-verify a certificate")
    v.add_argument("certificate")

    b = sub.add_parser("bound", help="closed-form size bound")
    b.add_argument("n", type=natural)
    b.add_argument("alpha", type=rational)
    b.add_argument("c", type=rational)

    s = sub.add_parser("sweep", help="run a parameter grid and write a CSV")
    s.add_argument("--n", type=_int_list, required=True, help="comma separated")
    s.add_argument("--alpha", type=_rational_list, required=True)
    s.add_argument("--c", type=_rational_list, required=True)
    s.add_argument("--family", choices=["random", "subspace", "niveau"], default="random")
    s.add_argument("--seeds", type=natural, default=1, help="seeds per cell")
    s.add_argument("--lemma-trials", type=natural, default=construction.DEFAULT_TRIALS)
    s.add_argument("--refine-trials", type=natural, default=construction.DEFAULT_TRIALS)
    s.add_argument("--subspace-cap", type=natural, default=14,
                   help="max n for the exact subspace-dimension column")
    s.add_argument("--jobs", type=natural, default=1)
    s.add_argument("--out", required=True)

    m = sub.add_parser("maxsub", help="largest linear subspace inside a set")
    m.add_argument("input", help="F2SET file")

    return p


def cmd_gen(args) -> int:
    if args.family == "random":
        if (args.card is None) == (args.alpha is None):
            raise _UsageError("random family needs exactly one of --card / --alpha")
        if args.card is not None:
            card = args.card
        else:
            card = args.alpha * (1 << args.n)
            if card.denominator != 1:
                raise _UsageError(f"alpha * 2^n = {card} is not an integer")
            card = int(card)
        out = f2n.random_set(args.n, card, SplitMix64(args.seed))
    elif args.family == "subspace":
        if args.dim is None:
            raise _UsageError("subspace family needs --dim")
        if not 0 <= args.dim <= args.n:
            raise _UsageError(f"subspace dimension {args.dim} out of range")
        out = f2n.linear_subspace(args.n, [1 << i for i in range(args.dim)])
    else:
        if args.wmin is None:
            raise _UsageError("niveau family needs --wmin")
        out = f2n.niveau_set(args.n, args.wmin)
    f2n.write_set(out, args.out)
    print(f"wrote {args.out}: n={out.n} card={out.card} density={out.density}")
    return 0


def cmd_dcset(args) -> int:
    a = f2n.read_set(args.input)
    if args.counts_csv:
        ac = correlation.autocorrelation(a)
        report = ac.threshold_report(args.c)
    else:  # D straight from the transform, with no count vector
        report = correlation.dc_threshold_report(a, args.c)
    print(report.describe())
    if args.out:
        f2n.write_set(report.popular, args.out)
        print(f"wrote {args.out}")
    if args.counts_csv:
        ac.write_csv(args.counts_csv)
        print(f"wrote {args.counts_csv}")
    return 0


def cmd_construct(args) -> int:
    budgets = Budgets(args.lemma_trials, args.refine_trials)
    a = f2n.read_set(args.input)
    cert = construction.construct_popular_sumset(
        a, args.c, args.seed, budgets, exploratory=args.exploratory
    )
    cert.write(args.out)
    plan = cert.plan
    print(
        f"wrote {args.out}: |A'|={cert.a2.card} guarantee={plan.guarantee} "
        f"sigma={plan.sigma} r={plan.r} trivial={plan.trivial} verified={cert.verified}"
    )
    return 0


def cmd_verify(args) -> int:
    try:
        cert = Certificate.read(args.certificate)
    except OSError as exc:
        print(f"cannot read certificate: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"verification check 'schema' failed: {exc}", file=sys.stderr)
        return 3
    try:
        construction.verify_certificate(cert)
    except VerificationError as exc:
        print(f"verification check {exc.check!r} failed: {exc.detail}", file=sys.stderr)
        return 3
    print(
        f"certificate ok: n={cert.n} c={cert.c} |A'|={cert.a2.card} "
        f"guarantee={cert.plan.guarantee}"
    )
    return 0


def cmd_bound(args) -> int:
    limit = construction._int_str_limit()
    digits = construction._bound_digits(args.n, args.alpha, args.c)
    # the estimate is off by at most one, so a bound refused here is too long
    # to print, and the exact branch's n-bit powers are never computed
    if limit and digits > limit + 1:
        raise ValueError(f"the bound has about {digits} decimal digits, more than the "
                         f"{limit} that Python converts to text (see sys.set_int_max_str_digits)")
    print(construction.theorem_bound(args.n, args.alpha, args.c))
    return 0


def cmd_maxsub(args) -> int:
    a = f2n.read_set(args.input)
    if a.n > subspace.SEARCH_DIM_CAP:
        raise _UsageError(
            f"exact subspace search is capped at n={subspace.SEARCH_DIM_CAP}"
        )
    result = subspace.max_subspace_in(a)
    if not result.zero_in_set:
        print("0 is not in the set; no subspace fits (dimension 0)")
        return 0
    basis = result.basis
    hex_basis = " ".join(f"{v:x}" for v in basis.vectors)
    print(f"dimension={basis.dim} cardinality={basis.cardinality} basis=[{hex_basis}]")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = [
    "n", "alpha", "c", "family", "seed", "card_a", "card_d", "subspace_dim",
    "guarantee", "achieved", "theorem_bound", "bound_ok", "success", "reason",
]


def _cell_seed(config_key: str, index: int) -> int:
    digest = hashlib.sha256(
        config_key.encode("ascii") + b"\x00" + index.to_bytes(8, "big")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def _niveau_threshold(n: int, budget: int) -> int | None:
    """Smallest weight threshold whose niveau set has at most ``budget``
    points; None when even the all-ones singleton overshoots (budget 0)."""
    from math import comb

    for w in range(n + 2):
        size = sum(comb(n, j) for j in range(w, n + 1))
        if size <= budget:
            return w if size > 0 else None
    return None


def _sweep_cell(n: int, alpha: Fraction, c: Fraction, family: str, seed_idx: int,
                cell_seed: int, budgets: Budgets, sub_cap: int) -> dict:
    row = {col: "" for col in SWEEP_COLUMNS}
    row.update(n=n, alpha=str(alpha), c=str(c), family=family, seed=seed_idx)

    card_exact = alpha * (1 << n)
    if card_exact.denominator != 1:
        row["reason"] = "alpha*2^n is not an integer"
        return row
    card = int(card_exact)

    if family == "random":
        a = f2n.random_set(n, card, SplitMix64(cell_seed))
    elif family == "subspace":
        if card.bit_count() != 1:
            row["reason"] = "subspace family needs a power-of-two cardinality"
            return row
        a = f2n.linear_subspace(n, [1 << i for i in range(card.bit_length() - 1)])
    else:
        wmin = _niveau_threshold(n, card)
        if wmin is None:
            row["reason"] = "niveau family cannot fit the density budget"
            return row
        a = f2n.niveau_set(n, wmin)
    if a.card == 0:
        row["reason"] = "empty set"
        return row
    row["card_a"] = a.card

    d = correlation.popular_difference_set(a, c)
    row["card_d"] = d.card
    if n <= sub_cap:
        row["subspace_dim"] = subspace.max_subspace_in(d).dim

    if 0 < c < 1:
        try:
            row["theorem_bound"] = construction.theorem_bound(n, a.density, c)
        except BoundaryAmbiguous:
            row["theorem_bound"] = ""
        try:
            # |A| >= 1 and 0 < c < 1 hold here; the construction reuses d
            plan = construction.choose_sigma(n, a.card, c)
            cert = construction._construct(a, plan, cell_seed, budgets, d)
            row["guarantee"] = plan.guarantee
            row["achieved"] = cert.a2.card
            row["success"] = "true"
        except RetryExhausted as exc:
            row["success"] = "false"
            row["reason"] = f"retry exhausted at stage {exc.stage}"
        if row["guarantee"] != "" and row["theorem_bound"] != "":
            row["bound_ok"] = "true" if row["guarantee"] >= row["theorem_bound"] else "false"
    else:
        row["reason"] = "construction requires 0 < c < 1"
    return row


def _sweep_in_workers(cells: list[tuple], workers: int) -> list[dict]:
    """The rows of ``_sweep_cell(*cell)``, in cell order, from forked
    worker processes; the first error a cell raises is raised here, after
    the cells not yet started are cancelled and every worker has exited.
    Cells go out in chunks of ceil(cells / (4 workers)), the rule of
    ``multiprocessing.Pool.map``: fewer round trips, and the last chunks
    still small enough to balance the workers."""
    # imported here, so that commands which fork nothing do not pay for it
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # the cells' bounds need mpmath: imported once here, the workers inherit
    # it instead of each importing it again
    import mpmath  # noqa: F401

    with ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork")
    ) as pool:
        try:
            chunk = -(-len(cells) // (4 * workers))
            return list(pool.map(_sweep_cell, *zip(*cells), chunksize=chunk))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def cmd_sweep(args) -> int:
    # a grid is checked whole before any cell runs or the CSV is opened
    for n in args.n:
        if not 1 <= n <= f2n.MAX_DIM:
            raise _UsageError(f"sweep dimension n={n} is outside [1, {f2n.MAX_DIM}]")
        if subspace.SEARCH_DIM_CAP < n <= args.subspace_cap:
            raise _UsageError(
                f"exact subspace search is capped at n={subspace.SEARCH_DIM_CAP}, "
                f"but --subspace-cap {args.subspace_cap} asks for it at n={n}"
            )
    for alpha in args.alpha:
        if not 0 <= alpha <= 1:
            raise _UsageError(f"sweep density alpha={alpha} is outside [0, 1]")
    if args.seeds < 1:
        raise _UsageError(f"--seeds must be at least 1, got {args.seeds}")
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
    budgets = Budgets(args.lemma_trials, args.refine_trials)
    config_key = json.dumps(
        {
            "n": args.n,
            "alpha": [str(x) for x in args.alpha],
            "c": [str(x) for x in args.c],
            "family": args.family,
            "seeds": args.seeds,
            "budgets": [budgets.lemma_trials, budgets.refine_trials],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    grid = itertools.product(args.n, args.alpha, args.c, range(args.seeds))
    cells = [
        (n, alpha, c, args.family, seed_idx, _cell_seed(config_key, index),
         budgets, args.subspace_cap)
        for index, (n, alpha, c, seed_idx) in enumerate(grid)
    ]
    workers = min(args.jobs, len(cells), walsh.usable_cpus())
    if workers > 1:
        rows = _sweep_in_workers(cells, workers)
    else:
        rows = [_sweep_cell(*cell) for cell in cells]

    with open(args.out, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "dcset": cmd_dcset,
    "construct": cmd_construct,
    "verify": cmd_verify,
    "bound": cmd_bound,
    "sweep": cmd_sweep,
    "maxsub": cmd_maxsub,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RetryExhausted as exc:
        print(
            f"stage {exc.stage!r} exhausted {exc.trials} trials "
            f"(best deficit {exc.best_deficit})",
            file=sys.stderr,
        )
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
