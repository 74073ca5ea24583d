#!/usr/bin/env python3
"""End-to-end benchmark of the ``conclab`` command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {search,clt,lemmas} --seed N --seconds S --trace {0,1}

One closed-loop client in one process runs each job as
``conclab.cli.run(argv)`` with stdout captured.  The seed generates a fixed
job list (bench/workloads.py); after a warm-up the list is run as whole
passes until S seconds have gone by.  Every output is then checked
(bench/reference.py) and every pass must repeat the first byte for byte.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it is a record of the
environment, problem sizes, stdout digest and failures.  ``correct`` means
that every valid-input job passed its check and output was deterministic;
``failed`` also counts malformed-input jobs that miss the README's exit-2
contract.  Inputs and span dumps go to ``.bench_work/`` in the checkout.
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
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
HASHSEED = "0"
SETUP_SAMPLES = 5
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import conclab.cli; print(time.perf_counter() - t)"
)

# Public functions that no CLI command reaches, so no workload measures them.
UNMEASURED = ["q_interval", "hlp_check", "mww_check", "cor3_check", "nested_medians", "rademacher_q", "max_span_vec"]

# name -> unit, for the traced run.  ".calls", ".self_s" and ".total_s" come
# from the spans of the name without that suffix; the rest are counted in
# the wrappers (bench/tracer.py).
LAYER_METRICS = {
    "cli.build_parser.calls": "count",
    "cli.build_parser.self_s": "s",
    "cli.load.self_s": "s",
    "cli.emit.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "dist.convolve.calls": "count",
    "dist.convolve.self_s": "s",
    "dist.convolve.atoms_out_max": "atoms",
    "dist.convolve.den_bits_max": "bits",
    "dist.convolve_power.total_s": "s",
    "dist.IntDist.init.calls": "count",
    "dist.IntDist.init.self_s": "s",
    "dist.q_max.calls": "count",
    "dist.q_max.self_s": "s",
    "dist.IntDist.mass.calls": "count",
    "dist.IntDist.mass.self_s": "s",
    "extremal.tse.calls": "count",
    "extremal.tse.total_s": "s",
    "extremal.tse.leaves": "count",
    "extremal.tse.convolve_calls": "count",
    "extremal.tse.tied_share": "ratio",
    "extremal.t_oracle.calls": "count",
    "extremal.t_oracle.total_s": "s",
    "extremal.t_oracle.leaves": "count",
    "extremal.t_oracle.convolve_calls": "count",
    "extremal.tsebal.total_s": "s",
    "verify.conjecture_scan.records": "count",
    "verify.conjecture_scan.total_s": "s",
    "verify.scan.tse_hit_ratio": "ratio",
    "verify.quantized_extremal_measures.calls": "count",
    "verify.quantized_extremal_measures.total_s": "s",
    **{f"verify.{lemma}.total_s": "s" for lemma in (
        "thm_tse", "logconcmode", "logconcdomination", "few_dropped", "balanced_continuous",
        "midsize_alpha_continuity", "balanced_continuity_large", "peakednessl1", "peakednessl2",
        "odlyzko_richmond")},
    "verify.instance_digest.self_s": "s",
    "verify.outcome.pass": "count",
    "verify.outcome.fail": "count",
    "verify.outcome.not-applicable": "count",
    "verify.outcome.indeterminate": "count",
    "rearrange.dominating_coupling.calls": "count",
    "rearrange.dominating_coupling.total_s": "s",
    "rearrange.dominating_coupling.cells": "count",
    "rearrange.plus_rearrange.self_s": "s",
    "domination.dominates.calls": "count",
    "domination.dominates.self_s": "s",
    "domination.q_profile.self_s": "s",
    "gaps.connected_decomposition.total_s": "s",
    "gaps.integer_span_basis.total_s": "s",
    "roots.power_interval.calls": "count",
    "roots.power_interval.self_s": "s",
    "gauss.lconv.calls": "count",
    "gauss.lconv.self_s": "s",
    "gauss.lconv.atoms_out_max": "atoms",
    "gauss.lconv.den_bits_max": "bits",
    "gauss.pow_conv.total_s": "s",
    "gauss.LatticeDist.init.calls": "count",
    "gauss.LatticeDist.init.self_s": "s",
    "gauss.LatticeDist.mass.calls": "count",
    "gauss.LatticeDist.mass.self_s": "s",
    "gauss.tv_exact.calls": "count",
    "gauss.tv_exact.self_s": "s",
    "gauss.llt_terms.total_s": "s",
    "gauss.discretized_gaussian.d1.total_s": "s",
    "gauss.discretized_gaussian.d2.total_s": "s",
    "gauss.discretized_gaussian.d3.total_s": "s",
    "gauss.discretized_gaussian.cells": "count",
    "gauss.berry_esseen_gap.total_s": "s",
    "trace.overhead_frac": "ratio",
}


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("search", "clt", "lemmas"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def measure_setup() -> list[float]:
    """Seconds a fresh interpreter spends in `import conclab.cli`."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(proc.stdout))
    return samples


class Result:
    __slots__ = ("seconds", "code", "stdout", "error")

    def __init__(self, seconds, code, stdout, error):
        self.seconds, self.code, self.stdout, self.error = seconds, code, stdout, error

    def digest(self) -> str:
        return hashlib.sha256(f"{self.code}\n{self.error}\n{self.stdout}".encode()).hexdigest()


def execute(cli, argv) -> Result:
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.run(argv)
        except Exception as exc:  # a traceback breaks the exit-code contract; the run goes on
            code, error = None, type(exc).__name__
        seconds = time.perf_counter() - t0
    return Result(seconds, code, out.getvalue(), error)


def run_pass(cli, jobs, tracer=None) -> tuple[float, list[Result]]:
    results = []
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = i
        results.append(execute(cli, job.argv))
    return time.perf_counter() - t0, results


def check_job(job, result: Result) -> str | None:
    if result.error is not None:
        return f"raised {result.error}"
    try:
        return job.check(result.stdout, result.code)
    except Exception as exc:  # unparseable output is a failed check, not a benchmark crash
        return f"output check raised {type(exc).__name__}: {exc}"


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer, stdout_bytes: int, overhead: float) -> dict:
    spans = tracer.summary()
    counts = tracer.counts
    tse_calls = spans.get("extremal.tse", {}).get("calls", 0)
    records = counts["verify.conjecture_scan.records"]
    special = {
        "cli.stdout_bytes": stdout_bytes,
        "dist.convolve.atoms_out_max": tracer.maxima.get("dist.convolve.atoms_out", 0),
        "dist.convolve.den_bits_max": tracer.maxima.get("dist.convolve.den_bits", 0),
        "gauss.lconv.atoms_out_max": tracer.maxima.get("gauss.lconv.atoms_out", 0),
        "gauss.lconv.den_bits_max": tracer.maxima.get("gauss.lconv.den_bits", 0),
        "extremal.tse.tied_share": counts["extremal.tse.tied"] / tse_calls if tse_calls else 0.0,
        "verify.scan.tse_hit_ratio": 1 - counts["verify.scan.tse_calls"] / records if records else 0.0,
        "trace.overhead_frac": overhead,
    }
    out = {}
    for name, unit in LAYER_METRICS.items():
        span, field = name.rsplit(".", 1)
        if name in special:
            value = special[name]
        elif field in ("calls", "self_s", "total_s"):
            value = spans.get(span, {}).get(field, 0)
        else:
            value = counts[name]
        out[name] = {"value": value, "unit": unit}
    return out


def versions() -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "platform": platform.platform(),
    }


def main() -> int:
    args = parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASHSEED:
        env = {**os.environ, "PYTHONHASHSEED": HASHSEED}
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)
    if not (SRC / "conclab" / "cli.py").is_file():
        sys.stderr.write(f"bench: no conclab sources at {SRC}; run from the root of a conclab checkout\n")
        return 1
    sys.path.insert(0, str(SRC))
    from conclab import cli

    import workloads

    setup_samples = measure_setup()

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    jobs = workloads.build(args.workload, args.seed, work)

    # Warm-up: one job per command family runs its lazy imports once.
    warmed = set()
    for job in jobs:
        family = job.kind.split(".")[0]
        if family not in warmed:
            warmed.add(family)
            execute(cli, job.argv)

    deadline = time.perf_counter() + args.seconds
    walls, latencies, digests = [], [], []
    first: list[Result] = []
    while True:
        wall, results = run_pass(cli, jobs)
        walls.append(wall)
        latencies += [r.seconds * 1000 for r in results]
        digests.append([r.digest() for r in results])
        first = first or results
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, results = run_pass(cli, jobs, tracer)
        finally:
            tracer.uninstall()
        digests.append([r.digest() for r in results])
        tracer.write_spans(work / "spans.tsv")

    # Checks run after timing.  Every pass must repeat the first pass's bytes.
    reasons = [check_job(job, r) for job, r in zip(jobs, first)]
    failed = 0
    failures: Counter = Counter()
    for pass_digests in digests:
        for job, reason, digest, base in zip(jobs, reasons, pass_digests, digests[0]):
            if reason is None and digest != base:
                reason = "output differs from the first pass"
            if reason is not None:
                failed += 1
                failures[f"{job.kind}: {reason}"] += 1
    correct = not any(job.valid and reason is not None for job, reason in zip(jobs, reasons)) and all(
        d == digests[0] for d in digests)
    attempted = len(jobs) * len(digests)

    stdout_digest = hashlib.sha256("".join(r.stdout for r in first).encode()).hexdigest()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs_per_pass": len(jobs),
        "job_kinds": dict(sorted(Counter(job.kind for job in jobs).items())),
        "passes": len(walls),
        "pass_wall_s": walls,
        "setup_samples_s": setup_samples,
        "stdout_sha256": stdout_digest,
        "failures": dict(sorted(failures.items())),
        "environment": versions(),
        "unmeasured_functions": UNMEASURED,
    }
    wall_s = statistics.median(walls)
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "job_p50_ms": {"value": percentile(latencies, 50), "unit": "ms"},
            "job_p90_ms": {"value": percentile(latencies, 90), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
        record["jobs_timed"] = len(latencies)
    else:
        stdout_bytes = sum(len(r.stdout.encode()) for r in first)
        metrics = layer_metrics(tracer, stdout_bytes, (traced_wall - wall_s) / wall_s)
        record["traced_wall_s"] = traced_wall
        record["untraced_wall_s"] = wall_s
        record["sizes"] = {key: [tracer.minima[key], tracer.maxima[key]] for key in sorted(tracer.maxima)}
        record["spans"] = len(tracer.start)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
