"""Benchmark for popdiff: ``certify``, ``transform`` and ``explore`` workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py            # all three workloads, one process each

The package is imported from ``src/`` of the checkout and driven through
``popdiff.cli.main(argv)`` in-process.  A run sets up its inputs several
times from the seed, then repeats passes of the workload's CLI calls for
``--seconds`` and reports medians.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the JSON object
carries the per-layer metrics, per-path call times and the tracing
overhead.  Every output is checked by the benchmark's own code outside the
timed regions.  A record of each run (machine, input digests, all figures)
is written to ``perfbench/results/``; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
from workloads import SWEEP_CELLS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
PATHS = ["construct", "construct_retry", "verify", "dcset", "sweep", "maxsub"]
END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Call:
    label: str
    seconds: float
    ok: bool


@dataclass
class Session:
    """Work directory, seed and the record of CLI calls for one run."""

    work: Path
    seed: int
    cli: object
    tracer: spans.Tracer
    run: str = "setup"
    calls: list[Call] = field(default_factory=list)
    inputs: list[Path] = field(default_factory=list)
    last_stdout: dict[str, str] = field(default_factory=dict)
    _checked: set[str] = field(default_factory=set)

    def _invoke(self, label: str, argv) -> tuple[int, str, float]:
        self.tracer.run_id = f"{self.run}/{label}"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = self.cli.main([str(a) for a in argv])
            seconds = time.perf_counter() - start
        return code, out.getvalue() + err.getvalue(), seconds

    def setup_call(self, argv) -> None:
        code, output, _ = self._invoke(argv[0], argv)
        if code != 0:
            raise RuntimeError(f"set-up call {argv[0]} exited {code}: {output.strip()}")

    def call(self, label: str, argv, expect: int = 0) -> None:
        code, output, seconds = self._invoke(label, argv)
        self.calls.append(Call(label, seconds, code == expect))
        self.last_stdout[label] = output

    def checked(self, path: Path, check) -> list[str]:
        """Run ``check`` on the file's bytes, once per distinct content."""
        if not path.is_file():
            return [f"{path.name} was not written"]
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest in self._checked:
            return []
        problems = check(data)
        if not problems:
            self._checked.add(digest)
        return problems


def _attrs_fwht(args, result):
    a = args[0]
    return {"bytes": 2 * a.nbytes * (a.shape[-1].bit_length() - 1)}


def _attrs_lemma(args, result):
    return {"accepted": int(result.accepted)}


def _attrs_refine(args, result):
    return {"trials": result.trials, "size": result.a1.card}


def _attrs_filter(args, result):
    return {"size": result.card}


# (module, attribute path, attrs) of each wrapped public function; the span
# name is "<module>.<attribute path>", except for Autocorrelation.popular_set.
TARGETS = [
    ("walsh", "fwht_inplace", _attrs_fwht),
    ("walsh", "xor_pair_counts", None),
    ("correlation", "autocorrelation", None),
    ("correlation", "Autocorrelation.popular_set", None),
    ("correlation", "popular_difference_set", None),
    ("correlation", "dc_threshold_report", None),
    ("f2n", "read_set", None),
    ("f2n", "write_set", None),
    ("f2n", "sumset", None),
    ("f2n", "random_set", None),
    ("f2n", "DenseSet.translate", None),
    ("rng", "SplitMix64.sample", None),
    ("construction", "construct_popular_sumset", None),
    ("construction", "choose_sigma", None),
    ("construction", "find_lemma_set", None),
    ("construction", "sample_intersection", None),
    ("construction", "lemma_accept", _attrs_lemma),
    ("construction", "refine_a1", _attrs_refine),
    ("construction", "filter_a2", _attrs_filter),
    ("construction", "verify_containment", None),
    ("construction", "verify_certificate", None),
    ("construction", "Certificate.from_json_obj", None),
    ("construction", "Certificate.dumps", None),
    ("subspace", "max_subspace_in", None),
    ("cli", "main", None),
]

SPAN_METRICS = """
walsh.xor_pair_counts.calls walsh.xor_pair_counts.self_s
walsh.fwht_inplace.calls walsh.fwht_inplace.self_s
correlation.autocorrelation.calls correlation.autocorrelation.self_s
correlation.popular_set.self_s correlation.dc_threshold_report.self_s
f2n.read_set.self_s f2n.write_set.self_s f2n.sumset.calls f2n.sumset.self_s
f2n.DenseSet.translate.calls f2n.DenseSet.translate.self_s f2n.random_set.self_s
rng.SplitMix64.sample.calls rng.SplitMix64.sample.self_s
construction.construct_popular_sumset.self_s construction.find_lemma_set.self_s
construction.sample_intersection.calls
construction.lemma_accept.calls construction.lemma_accept.self_s
construction.refine_a1.self_s construction.filter_a2.self_s
construction.verify_containment.calls construction.verify_containment.self_s
construction.choose_sigma.self_s construction.verify_certificate.self_s
construction.Certificate.from_json_obj.self_s construction.Certificate.dumps.self_s
subspace.max_subspace_in.calls subspace.max_subspace_in.self_s
subspace.max_subspace_in.max_call_s
cli.main.self_s
""".split()


def install_targets(tracer: spans.Tracer) -> None:
    modules = [m for name, m in sys.modules.items()
               if name == "popdiff" or name.startswith("popdiff.")]
    targets = []
    for module_name, path, attrs in TARGETS:
        owner = sys.modules[f"popdiff.{module_name}"]
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        span = "correlation.popular_set" if attr == "popular_set" else f"{module_name}.{path}"
        targets.append((owner, attr, span, attrs))
    tracer.install(targets, modules)


def median_call(passes: list[list[Call]], label: str) -> float:
    """Median over passes of one call's seconds; 0.0 if the pass lacks it."""
    times = [c.seconds for p in passes for c in p if c.label == label]
    return statistics.median(times) if times else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def import_seconds() -> float:
    """Time to import popdiff's CLI in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import popdiff.cli; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def machine() -> dict:
    import numpy

    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": platform.processor() or platform.machine()}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                info["ram_gb"] = round(int(line.split()[1]) / 2**20, 2)
    return info


class Runner:
    def __init__(self, workload, session: Session, seconds: float) -> None:
        self.workload = workload
        self.session = session
        self.seconds = seconds
        self.passes: list[list[Call]] = []
        self.problems: list[str] = []
        self.digests: dict[str, str] | None = None

    def setup(self) -> float:
        """One set-up: a fresh-interpreter import plus generating the inputs."""
        import_s = import_seconds()
        self.session.run = "setup"
        start = time.perf_counter()
        self.workload.setup(self.session)
        seconds = import_s + time.perf_counter() - start
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in self.session.inputs}
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            self.problems.append("the same seed generated different inputs")
        return seconds

    def one_pass(self) -> list[Call]:
        self.session.run = f"pass{len(self.passes) + 1}"
        self.session.calls = []
        self.workload.run_pass(self.session)
        calls = self.session.calls
        self.problems += self.workload.check(self.session)
        self.passes.append(calls)
        return calls

    def ops(self) -> tuple[int, int]:
        calls = [c for p in self.passes for c in p]
        return len(calls), sum(not c.ok for c in calls)


def _loop(runner: Runner, one_round) -> None:
    """Run ``one_round`` at least once, and again while another round of
    the same length would still end within the run's seconds.  Seconds
    that ``one_round`` returns (set-ups) are not counted."""
    spent = 0.0
    while True:
        began = time.monotonic()
        excluded = one_round()
        took = time.monotonic() - began - excluded
        spent += took
        if spent + took > runner.seconds:
            return


def measure(runner: Runner) -> dict:
    """Set-ups are spread between the first passes, so that their median
    samples the same stretch of time as the passes do."""
    setups = [runner.setup()]
    pass_times = []

    def one_round() -> float:
        pass_times.append(sum(c.seconds for c in runner.one_pass()))
        if len(setups) == SETUP_REPEATS:
            return 0.0
        began = time.monotonic()
        setups.append(runner.setup())
        return time.monotonic() - began

    _loop(runner, one_round)
    while len(setups) < SETUP_REPEATS:
        setups.append(runner.setup())
    return {"setup_s": statistics.median(setups), "pass_s": statistics.median(pass_times),
            "peak_rss_mb": peak_rss_mb()}


@contextlib.contextmanager
def tracing(tracer: spans.Tracer):
    install_targets(tracer)
    try:
        yield
    finally:
        tracer.uninstall()


def measure_traced(runner: Runner, tracer: spans.Tracer) -> dict:
    """Alternate untraced and traced passes after one untraced and one
    traced set-up.  Per-layer figures count the traced set-up plus the
    mean traced pass."""
    untraced = {"setup_s": [runner.setup()], "pass_s": []}
    with tracing(tracer):
        traced = {"setup_s": [runner.setup()], "pass_s": []}
    untraced_passes: list[list[Call]] = []
    traced_passes: list[list[Call]] = []
    rss_base: list[float] = []

    def one_pair() -> float:
        untraced_passes.append(runner.one_pass())
        rss_base.append(peak_rss_mb())
        with tracing(tracer):
            traced_passes.append(runner.one_pass())
        return 0.0

    _loop(runner, one_pair)
    untraced["pass_s"] = [sum(c.seconds for c in p) for p in untraced_passes]
    traced["pass_s"] = [sum(c.seconds for c in p) for p in traced_passes]

    metrics = layer_metrics(tracer, len(traced_passes))
    metrics["cli.sweep.cells"] = (SWEEP_CELLS if any(c.label == "sweep" for c in traced_passes[0])
                                  else 0)
    rejects = [c.seconds for p in untraced_passes for c in p
               if c.label.startswith("tamper:") and c.ok]
    metrics["construction.verify_reject_s"] = statistics.median(rejects) if rejects else 0.0
    metrics["construction.verify_wrong_verdicts"] = sum(
        not c.ok for c in traced_passes[0] if c.label.startswith("tamper:"))
    for path in PATHS:
        metrics[f"{path}_s"] = median_call(untraced_passes, path)
        metrics[f"overhead.{path}_s"] = (median_call(traced_passes, path)
                                         - median_call(untraced_passes, path))
    attempted, failed = runner.ops()
    metrics["ops_failed_frac"] = failed / attempted
    for name in ("setup_s", "pass_s"):
        metrics[f"overhead.{name}"] = (statistics.median(traced[name])
                                       - statistics.median(untraced[name]))
    metrics["overhead.peak_rss_mb"] = peak_rss_mb() - rss_base[0]
    return metrics


def layer_metrics(tracer: spans.Tracer, traced_passes: int) -> dict:
    in_setup = [s.run.startswith("setup/") for s in tracer.spans]
    setup = spans.summarize([s for s, flag in zip(tracer.spans, in_setup) if flag])
    passes = spans.summarize([s for s, flag in zip(tracer.spans, in_setup) if not flag])

    def per_run(name: str, get) -> float:
        return get(setup.get(name, spans.LayerStats())) + get(
            passes.get(name, spans.LayerStats())) / traced_passes

    def attr(name: str, key: str) -> float:
        return per_run(name, lambda st: st.attrs.get(key, 0))

    metrics = {}
    for metric in SPAN_METRICS:
        name, stat = metric.rsplit(".", 1)
        if stat == "max_call_s":
            metrics[metric] = max(setup.get(name, spans.LayerStats()).max_call_s,
                                  passes.get(name, spans.LayerStats()).max_call_s)
        else:
            metrics[metric] = per_run(name, lambda st: getattr(st, stat))
    metrics["walsh.computed_bytes"] = attr("walsh.fwht_inplace", "bytes")
    lemma_calls = per_run("construction.lemma_accept", lambda st: st.calls)
    metrics["construction.lemma_accept_rate"] = (
        attr("construction.lemma_accept", "accepted") / lemma_calls if lemma_calls else 0.0)
    refine_trials = attr("construction.refine_a1", "trials")
    metrics["construction.refine_accept_rate"] = (
        per_run("construction.refine_a1", lambda st: st.calls) / refine_trials
        if refine_trials else 0.0)
    sizes = {"construction.a1_size": "construction.refine_a1",
             "construction.a2_size": "construction.filter_a2"}
    for metric, name in sizes.items():
        metrics[metric] = max((s.attrs["size"] for s in tracer.spans
                               if s.name == name and "size" in s.attrs), default=0)
    return metrics


def print_report(args, info: dict, metrics: dict, runner: Runner) -> None:
    print(f"# popdiff benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} passes={len(runner.passes)}")
    print("# machine: " + json.dumps(info, sort_keys=True))
    for file, digest in sorted(runner.digests.items()):
        print(f"# input {file} sha256={digest}")
    for problem in runner.problems:
        print(f"# CHECK FAILED: {problem}")
    attempted, failed = runner.ops()
    rows = dict(metrics)
    if not args.trace:
        for path in PATHS:
            if any(c.label == path for c in runner.passes[0]):
                rows[f"{path}_s"] = median_call(runner.passes, path)
        rows["ops_failed_frac"] = failed / attempted
    for metric, value in rows.items():
        print(f"{metric:48s} {value:14.6f} {unit_of(metric)}")


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith(("_rate", "_frac")):
        return "ratio"
    return "count"


def run_one(args) -> int:
    if not (SRC / "popdiff" / "cli.py").is_file():
        print(f"error: no popdiff sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import popdiff.cli

    if not Path(popdiff.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: popdiff was imported from outside {SRC}", file=sys.stderr)
        return 2
    results = BENCH_DIR / "results"
    work = BENCH_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    results.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    tracer = spans.Tracer()
    session = Session(work=work, seed=args.seed, cli=popdiff.cli, tracer=tracer)
    runner = Runner(workload, session, args.seconds)
    try:
        if args.trace:
            metrics = measure_traced(runner, tracer)
        else:
            metrics = measure(runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info = machine()
    attempted, failed = runner.ops()
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": info, "inputs_sha256": runner.digests,
              "problems": runner.problems, "attempted": attempted, "failed": failed,
              "metrics": metrics,
              "passes": [[c.__dict__ for c in p] for p in runner.passes]}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    print_report(args, info, metrics, runner)
    result = {"correct": not runner.problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    combined = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        combined[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="one workload; all of them, each in its own process, if omitted")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
