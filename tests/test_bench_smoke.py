"""Smoke test of the benchmark in bench/: every seed-1 job of each workload
passes the check the benchmark applies to it (its ``ok_frac``), run in
process as ``bench/run.py`` runs it, and the tracer of ``--trace 1`` finds
every name it patches."""

import contextlib
import importlib
import io
from pathlib import Path

import pytest

from conclab import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture()
def bench_module(monkeypatch):
    """Import a module of bench/, which imports its siblings as top-level
    modules."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module


def run_job(argv) -> tuple[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return out.getvalue(), code


@pytest.mark.parametrize("workload", ["search", "clt", "lemmas"])
def test_every_seed_1_job_passes_its_check(bench_module, tmp_path, workload):
    jobs = bench_module("workloads").build(workload, 1, tmp_path)
    assert jobs
    failures = []
    for job in jobs:
        reason = job.check(*run_job(job.argv))
        if reason is not None:
            failures.append((job.kind, job.argv, reason))
    assert failures == []


def test_tracer_patches_names_that_exist(bench_module):
    """install() looks up every function it wraps, so a renamed or moved
    name raises here; uninstall() puts the originals back.  It sets an
    inherited method back as the class's own attribute, which would shadow
    later patches of the base class in this process, so those are dropped.
    The scan is wrapped where ``scan-conjecture`` looks it up, in
    ``conclab.conjecture``, although the tracer finds it on ``verify``."""
    from conclab import conjecture, dist, extremal, gauss, verify

    classes = (dist.IntDist, gauss.LatticeDist)
    own = [set(vars(cls)) for cls in classes]
    originals = (verify.quantized_extremal_measures, conjecture.conjecture_scan, extremal.t_oracle, cli.run)
    tracer = bench_module("tracer").Tracer()
    try:
        tracer.install()
        assert verify.quantized_extremal_measures is not originals[0]
        assert conjecture.conjecture_scan is verify.conjecture_scan is not originals[1]
    finally:
        tracer.uninstall()
        for cls, names in zip(classes, own):
            for name in set(vars(cls)) - names:
                delattr(cls, name)
    assert (verify.quantized_extremal_measures, conjecture.conjecture_scan, extremal.t_oracle, cli.run) == originals
