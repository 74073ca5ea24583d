"""CLI surface: round-trips, exit codes, seeded reproducibility."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conclab import conjecture, verify
from conclab.cli import _FIELD_PARSERS, _LEMMAS, build_parser, run
from conclab.dist import IntDist, uniform


@pytest.fixture()
def files(tmp_path):
    paths = {}

    def put(name, content):
        p = tmp_path / name
        p.write_text(content)
        paths[name] = str(p)
        return str(p)

    put("u01.json", uniform([0, 1]).to_json())
    put("mu.json", IntDist([(0, F(3, 4)), (1, F(1, 4))]).to_json())
    put(
        "mup.json",
        IntDist([(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))]).to_json(),
    )
    put("u0123.json", uniform([0, 1, 2, 3]).to_json())
    put("g2.json", json.dumps({"rank": 1, "dims": [1], "generators": ["2"]}))
    put("g3.json", json.dumps({"rank": 1, "dims": [1], "generators": ["3"]}))
    put(
        "base.json",
        json.dumps(
            {"atoms": [[[0, 0], "1/4"], [[1, 0], "1/4"], [[0, 1], "1/4"], [[1, 1], "1/4"]]}
        ),
    )
    put("cov1.json", json.dumps([[1.0]]))
    put(
        "inst.json",
        json.dumps({"alphas": ["1/2"] * 40, "k": 0, "K": 2, "delta": "1/2"}),
    )
    put("bad.json", '{"atoms": [[0, "1/2"],\n [0, "1/2"]]}')
    put("malformed.json", '{"atoms": [[0, "1/2"]')
    paths["dir"] = str(tmp_path)
    return paths


def test_dist_conv_and_round_trip(files, capsys):
    assert run(["dist", "conv", files["u01.json"], files["u01.json"]]) == 0
    out = capsys.readouterr().out
    assert IntDist.from_json(out) == IntDist([(0, F(1, 4)), (1, F(1, 2)), (2, F(1, 4))])


def test_dist_stats(files, capsys):
    assert run(["dist", "stats", files["mu.json"]]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["q_max"] == "3/4"
    assert obj["variance"] == "3/16"
    assert obj["max_span"] == 1


def test_extremal_tse(capsys):
    assert run(["extremal", "tse", "--alphas", "3/5,3/5"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["tse"] == "13/25"
    assert sorted(obj["signs"]) == [-1, 1]
    assert obj["tsebal"] == "13/25"


def test_extremal_oracle(capsys):
    assert run(["extremal", "oracle", "--alphas", "1/2,1/2", "--window", "0..1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["value"] == "1/2"


def test_dominate_exit_codes(files):
    assert run(["dominate", files["u01.json"], files["u01.json"], "--eps", "0"]) == 0
    assert run(["dominate", files["mu.json"], files["u01.json"], "--eps", "0"]) == 1


def test_couple(files, capsys):
    assert run(["couple", files["mu.json"], files["mup.json"], "--eps", "1/2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["prob_A"] == "2/3"
    assert obj["audit"]["N"] == "12"


def test_decompose(files, capsys):
    assert run(["decompose", files["u0123.json"]]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["connected"] is True
    assert len(obj["parts"]) == 4


def test_gap_commands(files, capsys):
    assert run(["gap", "sumset", files["g2.json"], files["g3.json"]]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["rank"] == 2
    assert run(["gap", "proper", files["g2.json"]]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["proper"] is True
    assert run(["gap", "fit", "--values=-4,-2,0,2,4", "--eps", "0"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["dims"] == [2]
    assert run(["gap", "cover", files["g2.json"], files["u01.json"]]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["cover"] == "0/1"


def test_lattice_basis(capsys):
    assert run(["lattice-basis", "--vectors", "0,0;2,0;0,2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["matrix"] == [[2, 0], [0, 2]]
    assert obj["coord_bound_ok"] is True


def test_gauss_tv_and_terms(files, capsys):
    assert run(["gauss", "tv", files["base.json"], "--tol", "1e-6"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["tv"] > 0 and obj["err"] < 1e-6
    assert run(["gauss", "terms", files["base.json"], files["base.json"]]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["applicable"] is True


def test_gauss_tv_curve_csv(files, capsys):
    assert (
        run(["gauss", "tv", files["base.json"], "--pow", "4,8", "--format", "csv"]) == 0
    )
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "m,tv,tv_err,L,chi,s_tilde"
    assert len(lines) == 3


def test_gauss_tail(files, capsys):
    code = run(
        ["gauss", "tail", "--cov", files["cov1.json"], "--t", "32", "--samples", "20000", "--seed", "3"]
    )
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["holds"] is True


def test_gauss_outputs_label_their_errors(files, tmp_path, capsys):
    def labels(argv):
        assert run(argv) == 0
        return json.loads(capsys.readouterr().out)["err_kind"]

    spec2, spec3 = tmp_path / "spec2.json", tmp_path / "spec3.json"
    spec2.write_text(json.dumps({"mean": [0, 0], "cov": [[1, 0.2], [0.2, 1]]}))
    spec3.write_text(json.dumps({"mean": [0, 0, 0], "cov": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    assert labels(["gauss", "cells", "--spec", str(spec2), "--box=-1..1,-1..1"]) == "certified"
    assert labels(["gauss", "cells", "--spec", str(spec3), "--box=-1..1,-1..1,-1..1", "--tol", "0.05"]) == "3-sigma"
    assert labels(["gauss", "tv", files["base.json"]]) == "certified"
    assert labels(["gauss", "tail", "--cov", files["cov1.json"], "--t", "32"]) == "certified"
    assert labels(["gauss", "tail", "--cov", files["cov1.json"], "--t", "32", "--samples", "2000"]) == "3-sigma"


def test_be_gap(files):
    assert run(["be-gap", files["u01.json"], "--repeat", "64"]) == 0


def test_gauss_commands_print_the_library_dict(files, tmp_path, capsys):
    """gauss tv, terms and tail --samples print the dict their library call
    returns, as returned; be-gap prints berry_esseen_gap's dict with its two
    exact fields formatted and c_be and holds added."""
    from conclab import gauss
    from conclab.dist import format_fraction

    def printed(argv):
        code = run(argv)
        return code, capsys.readouterr().out

    def rendered(payload):
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    base = gauss.LatticeDist.from_json_obj(json.loads(Path(files["base.json"]).read_text()))
    assert printed(["gauss", "tv", files["base.json"]]) == (0, rendered(gauss.tv_to_discretized_gaussian(base)))
    terms = gauss.llt_terms([base, base])
    assert printed(["gauss", "terms", files["base.json"], files["base.json"]]) == (0, rendered(terms))
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps([[1.0, 0.3], [0.3, 0.5]]))
    report = gauss.gaussian_tail_check([[1.0, 0.3], [0.3, 0.5]], 40.0, 5000, seed=3)
    # every seeded command echoes its --seed
    assert printed(["gauss", "tail", "--cov", str(cov), "--t", "40", "--samples", "5000", "--seed", "3"]) == (
        0 if report["holds"] else 1,
        rendered({**report, "seed": 3}),
    )
    report = gauss.berry_esseen_gap([uniform([0, 1])] * 64)
    for c_be, code in ((0.56, 0), (0.0001, 1)):
        expected = {
            **report,
            "third_moment": format_fraction(report["third_moment"]),
            "variance": format_fraction(report["variance"]),
            "c_be": c_be,
            "holds": report["max_cdf_gap"] <= c_be * report["bound"],
        }
        argv = ["be-gap", files["u01.json"], "--repeat", "64", "--c-be", str(c_be)]
        assert printed(argv) == (code, rendered(expected))


def test_check_command(files, capsys):
    assert run(["check", "few_dropped", "--instance", files["inst.json"]]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["outcome"] == "pass"


def test_check_unknown_lemma(files):
    assert run(["check", "no_such", "--instance", files["inst.json"]]) == 2


def test_scan_conjecture_and_report(files, tmp_path, capsys):
    out_path = str(tmp_path / "scan.jsonl")
    code = run(
        [
            "scan-conjecture",
            "--denominator",
            "4",
            "--window",
            "0..3",
            "--n",
            "2",
            "--out",
            out_path,
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    lines = captured.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["violations"] == 0
    assert summary["instances"] == 55
    assert summary["mode"] == "exhaustive"


def test_scan_violation_exits_1_with_one_stderr_line_per_record(monkeypatch, capsys):
    monkeypatch.setattr(conjecture, "tse", lambda alphas: (F(0), None))  # every right-hand side 0
    argv = ["scan-conjecture", "--denominator", "3", "--window", "0..2", "--n", "2"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    *records, summary = captured.out.splitlines()
    assert len(records) == json.loads(summary)["instances"] == json.loads(summary)["violations"] > 1
    assert all(json.loads(line)["violation"] for line in records)
    assert captured.err.splitlines() == [f"VIOLATION: {line}" for line in records]
    assert run([*argv, "--violations-only"]) == 1
    assert capsys.readouterr() == captured


def scan_reference_lines(argv: list[str]) -> list[str]:
    """The record lines of a scan-conjecture command as the reference
    serializer writes them: json.dumps of each record's to_json_obj."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    lo, hi = map(int, flags["--window"].split(".."))
    cfg = conjecture.ScanConfig(
        denominator=int(flags["--denominator"]),
        window=(lo, hi),
        n=int(flags["--n"]),
        seed=int(flags.get("--seed", 0)),
        budget=int(flags.get("--budget", 200_000)),
    )
    only = "--violations-only" in argv
    records = conjecture.conjecture_scan(cfg)
    return [json.dumps(r.to_json_obj(), sort_keys=True) for r in records if r.violation or not only]


SCAN_SERIALIZER_CASES = {
    "exhaustive": ["scan-conjecture", "--denominator", "5", "--window", "0..4", "--n", "3"],
    "sampled": ["scan-conjecture", "--denominator", "7", "--window", "2..7", "--n", "4", "--budget", "60", "--seed", "3"],
}


@pytest.mark.parametrize("argv", SCAN_SERIALIZER_CASES.values(), ids=SCAN_SERIALIZER_CASES.keys())
def test_scan_lines_match_reference_serializer(argv, capsys):
    assert run(argv) == 0
    *lines, summary = capsys.readouterr().out.splitlines()
    assert lines == scan_reference_lines(argv)
    assert json.loads(summary)["instances"] == len(lines) > 0


@pytest.mark.parametrize("only", [[], ["--violations-only"]], ids=["all", "violations-only"])
def test_scan_lines_match_reference_serializer_with_violations(monkeypatch, capsys, only):
    """A constant right-hand side of 1/3: records with lhs > 1/3 violate,
    with a negative margin, and the others do not."""
    monkeypatch.setattr(conjecture, "tse", lambda alphas: (F(1, 3), None))
    argv = ["scan-conjecture", "--denominator", "6", "--window", "0..4", "--n", "2", *only]
    assert run(argv) == 1
    *lines, summary = capsys.readouterr().out.splitlines()
    assert lines == scan_reference_lines(argv)
    margins = [F(json.loads(line)["margin"]) for line in lines]
    assert min(margins) < 0
    assert (max(margins) > 0) == (not only)
    assert json.loads(summary)["violations"] == sum(m < 0 for m in margins)


@pytest.mark.parametrize("window", ["0..0", "-3..-3"])
def test_scan_one_site_window_exits_2(window, capsys):
    """A one-site window holds only point masses, which the scan excludes:
    a scan of nothing is bad input, not a pass."""
    assert run(["scan-conjecture", "--denominator", "4", f"--window={window}", "--n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert window in captured.err and "denominator 4" in captured.err


class _ByteCounter(io.TextIOBase):
    """A stdout that keeps only the number of bytes written to it."""

    def __init__(self):
        self.written = 0

    def writable(self):
        return True

    def write(self, text):
        self.written += len(text.encode())
        return len(text)


def test_scan_streams_its_records():
    """scan-conjecture writes each record as the walk finds it, so the
    traced peak of a run stays far below what it writes."""
    sink = _ByteCounter()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = run(["scan-conjecture", "--denominator", "5", "--window", "0..4", "--n", "3"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.written > 10**6
    assert peak < sink.written / 4


def test_scan_out_file_equals_stdout(tmp_path, capsys):
    out = tmp_path / "scan.jsonl"
    assert run(["scan-conjecture", "--denominator", "5", "--window", "0..4", "--n", "3", "--out", str(out)]) == 0
    assert out.read_bytes() == capsys.readouterr().out.encode()


def test_closed_stdout_exits_141_silently():
    """A reader that takes one line and closes the pipe, as `head -n 1`
    does, ends the scan with exit 141, as a shell reports SIGPIPE, and an
    empty stderr: no error line, no traceback, no "Exception ignored" at
    interpreter exit.  The scan writes about 2 MB, far more than a pipe
    buffers, so it is still writing when the pipe closes."""
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["scan-conjecture", "--denominator", "5", "--window", "0..4", "--n", "3"]
    with subprocess.Popen(
        [sys.executable, "-m", "conclab.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    ) as proc:
        assert json.loads(proc.stdout.readline())["index"] == 0
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    assert err == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["gap", "fit", "--values", "99999999999999999999999999999999999999"],
        ["scan-conjecture", "--denominator", "40", "--window", "0..30", "--n", "2", "--budget", "5"],
        ["extremal", "oracle", "--alphas", "1/2", "--window", "0..3000"],
    ],
    ids=["gap_fit_huge_value", "scan_84M_layouts", "oracle_4.5M_laws"],
)
def test_enumeration_over_budget_exits_2_promptly(argv):
    """Each input once ran for minutes; it now stops at the enumeration
    budget before any work.  The timeout turns a regression into a failure
    instead of a hung suite."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "conclab.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=20,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
    assert "enumeration budget" in proc.stderr


def test_laws_over_the_enumeration_budget_exit_2_promptly(tmp_path):
    """One number of the input sets the size of the laws built: nu(1/4,000,000)
    took 15 s and 2.1 GB, and uniforms on 3,000,001 and 3,000,003 points
    23 s and 1.3 GB.  Each input below now stops at the enumeration budget
    before any law is built; the address-space cap and the timeout turn a
    regression into a prompt failure instead of a full memory."""
    y = {"atoms": [[-1, "1/4"], [0, "1/2"], [1, "1/4"]]}
    large = tmp_path / "large.json"
    large.write_text(json.dumps({"K": 3, "ks": [3000001], "y": y}))
    dropped = tmp_path / "dropped.json"
    dropped.write_text(json.dumps({"alphas": ["1/999999", "1/999999"], "k": 0, "K": 1, "delta": "1/2"}))
    for argv in (
        ["extremal", "nu", "--alpha", "1/4000000"],
        ["extremal", "tse", "--alphas", "1/2000000"],
        ["extremal", "tsebal", "--alphas", "1/999999,1/999999"],
        ["check", "balanced_continuity_large", "--instance", str(large)],
        ["check", "few_dropped", "--instance", str(dropped)],
    ):
        proc = run_cli(argv, timeout=20, capped=True)
        assert proc.returncode == 2, argv
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: laws of "), proc.stderr
        assert "enumeration budget" in proc.stderr


def test_check_prints_integers_of_any_length(tmp_path, capsys):
    """The 2000th power of three atoms over 13: the reported lhs is 7,715
    characters long, more than the 4,300 digits Python 3.11 converts by
    default."""
    inst = tmp_path / "inst.json"
    p = {"atoms": [[0, "4/13"], [1, "5/13"], [3, "4/13"]]}
    inst.write_text(json.dumps({"p": p, "n": 2000, "delta": "3/10"}))
    assert run(["check", "odlyzko_richmond", "--instance", str(inst)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["outcome"] == "pass"
    assert len(report["lhs"]) == 7715


def test_dist_stats_reads_a_denominator_of_5001_digits(tmp_path, capsys):
    """Built as strings, so the test itself converts no large integer."""
    den = "1" + "0" * 5000
    law = tmp_path / "law.json"
    law.write_text(json.dumps({"atoms": [[0, "1/" + den], [1, "9" * 5000 + "/" + den]]}))
    assert run(["dist", "stats", str(law)]) == 0
    assert json.loads(capsys.readouterr().out)["q_max"] == "9" * 5000 + "/" + den


def test_power_over_the_budget_exits_2_promptly(tmp_path):
    """n = 10**30 once ran until killed, computing 13**n before anything
    else.  The square law's 10,000th power has about 10**8 atoms, which a
    bound linear in n let through.  `be-gap --repeat 10**9` once listed a
    billion summands before the power budget saw them.  Each now stops at
    the power budget before any power is computed.  The address-space cap
    and the timeout turn a regression into a prompt failure instead of a
    full memory."""
    inst = tmp_path / "inst.json"
    p = {"atoms": [[0, "4/13"], [1, "5/13"], [3, "4/13"]]}
    inst.write_text(json.dumps({"p": p, "n": 10**30, "delta": "3/10"}))
    square = tmp_path / "square.json"
    square.write_text(json.dumps({"atoms": [[[x, y], "1/4"] for x in (0, 1) for y in (0, 1)]}))
    coin = tmp_path / "coin.json"
    coin.write_text(json.dumps({"atoms": [[0, "1/2"], [1, "1/2"]]}))
    for argv in (
        ["check", "odlyzko_richmond", "--instance", str(inst)],
        ["gauss", "tv", str(square), "--pow", "10000"],
        ["be-gap", str(coin), "--repeat", str(10**9)],
    ):
        proc = run_cli(argv, timeout=20, capped=True)
        assert proc.returncode == 2, argv
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), proc.stderr
        assert "power budget" in proc.stderr


def test_oracle_on_a_wide_window_runs_promptly():
    """The oracle walks one law per translation class: 60 laws of cap 1/2
    on 0..60 instead of 1,830, so three tied caps take well under a second
    where walking every translate took several.  The stdout is the one the
    full walk printed, witness included."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "conclab.cli", "extremal", "oracle", "--alphas", "1/2,1/2,1/2", "--window", "0..60"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=20,
    )
    assert proc.returncode == 0
    half = {"atoms": [[0, "1/2"], [1, "1/2"]]}
    expected = {"alphas": ["1/2"] * 3, "value": "3/8", "window": [0, 60], "witness": [half] * 3}
    assert json.loads(proc.stdout) == expected
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "854d4ea5c860729b1c999d96f3af86c6fe64a1e94ea972737305f63ca94430d0"
    )


def test_sampled_scan_over_many_measures_runs_promptly():
    """The scan indexes its cap classes with a dict, so a sampled scan over
    48,324 measures of 7,500 classes (D = 10,000 on 0..3) is quick where
    one list search per measure took over a minute."""
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["scan-conjecture", "--denominator", "10000", "--window", "0..3", "--n", "2", "--budget", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "conclab.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=20,
    )
    assert proc.returncode == 0
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert (summary["instances"], summary["violations"]) == (1, 0)
    assert summary["mode"].startswith("sampled(1 of ")


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (600 * 2**20, 600 * 2**20))


def run_cli(argv: list[str], timeout: float, capped: bool = False) -> subprocess.CompletedProcess:
    """The command in a fresh interpreter; ``capped`` limits its address
    space to 600 MB, so a regression that builds a huge object fails
    promptly instead of filling the memory."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "conclab.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=timeout,
        preexec_fn=_cap_memory if capped else None,
    )


TSE_OVER_BUDGET = {
    "20_distinct_caps": ["extremal", "tse", "--alphas", ",".join(f"{j}/{2 * j + 1}" for j in range(2, 22))],
    "1000_caps_of_3/4": ["extremal", "tse", "--alphas", ",".join(["3/4"] * 1000)],
}


@pytest.mark.parametrize("argv", TSE_OVER_BUDGET.values(), ids=TSE_OVER_BUDGET.keys())
def test_tse_over_budget_exits_2_promptly(argv):
    """20 distinct caps ran 38 s and 1,000 equal caps past a minute before
    the tse budget; both now stop at it before any law is built."""
    proc = run_cli(argv, timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "tse budget" in proc.stderr


def test_scan_of_300_caps_runs_promptly():
    """Each sampled class holds a run of about 100 caps of 3/4, which took
    58 s in all as tied levels; as one level per run it takes a few
    seconds, with the stdout the tied walk printed."""
    argv = ["scan-conjecture", "--denominator", "4", "--window", "0..3", "--n", "300", "--budget", "20"]
    proc = run_cli(argv, timeout=30)
    assert proc.returncode == 0
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert (summary["instances"], summary["violations"]) == (20, 0)
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "6c8377912a1078f71fc872c8b3429dbabc0c06a9184066791975ddab687847f2"
    )


def test_check_and_scan_share_the_tse_refusal(tmp_path, capsys):
    """check thm_tse refuses the caps that extremal tse refuses, before the
    window oracle runs.  A scan whose classes could reach the budget is
    refused before its first record: n = 1000 caps of 3/4 is one class."""
    inst = tmp_path / "inst.json"
    caps = [f"{j}/{2 * j + 1}" for j in range(2, 22)]
    inst.write_text(json.dumps({"alphas": caps, "delta": "0", "window": [0, 3]}))
    scan = ["scan-conjecture", "--denominator", "4", "--window", "0..3", "--n", "1000", "--budget", "5"]
    for argv in (["check", "thm_tse", "--instance", str(inst)], scan):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "tse budget" in err


HUGE_SCANS = {
    "n_1e11": (["--denominator", "4", "--window", "0..3", "--n", str(10**11), "--budget", "5"], "tse budget"),
    "denominator_3e7": (["--denominator", str(3 * 10**7), "--window", "0..3", "--n", "2"], "enumeration budget"),
}


@pytest.mark.parametrize("flags, budget", HUGE_SCANS.values(), ids=HUGE_SCANS.keys())
def test_huge_scans_exit_2_promptly(flags, budget):
    """The tse bound of n = 10**11 caps once built 4**n, a 25 GB integer, to
    read its bit length, and D = 3*10**7 built all D - 1 caps before
    counting their laws: under the cap, a MemoryError traceback after 4
    to 7 s.  Both are now refused from their first numbers.  Never run
    them uncapped."""
    proc = run_cli(["scan-conjecture", *flags], timeout=20, capped=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), proc.stderr
    assert budget in proc.stderr and "Traceback" not in proc.stderr


def test_scan_builds_its_measures_once(monkeypatch, capsys):
    """The config builds the measures for the scan and both reads of its
    mode, in the records and in the summary."""
    calls = []
    real = conjecture.quantized_extremal_measures
    monkeypatch.setattr(conjecture, "quantized_extremal_measures", lambda *args: calls.append(args) or real(*args))
    assert run(["scan-conjecture", "--denominator", "4", "--window", "0..3", "--n", "3", "--budget", "5"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["mode"] == "sampled(5 of 220)"
    assert calls == [(4, (0, 3))]


@pytest.mark.parametrize(
    "argv",
    [["dist", "stats", "{u}"], ["scan-conjecture", "--denominator", "4", "--window", "0..2", "--n", "2"]],
    ids=["dist_stats", "scan"],
)
def test_unwritable_out_fails_before_anything_is_written(argv, files, tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    assert run([arg.format(u=files["u01.json"]) for arg in argv] + ["--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(target) in captured.err
    assert not target.parent.exists()


def test_report_summarizes(tmp_path, capsys):
    rows = [
        {"name": "few_dropped", "outcome": "pass"},
        {"name": "few_dropped", "outcome": "not-applicable"},
        {"name": "odlyzko_richmond", "outcome": "pass"},
    ]
    path = tmp_path / "rows.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert run(["report", str(path)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["few_dropped"]["pass"] == 1
    assert obj["few_dropped"]["not-applicable"] == 1


def test_malformed_inputs_exit_2(files, capsys):
    assert run(["dist", "stats", files["bad.json"]]) == 2
    assert run(["dist", "stats", files["malformed.json"]]) == 2
    err = capsys.readouterr().err
    assert "malformed.json:" in err  # carries line/column
    assert run(["nonsense"]) == 2


def test_emitted_dists_reparse(files, capsys, tmp_path):
    out = str(tmp_path / "conv.json")
    assert run(["dist", "conv", files["u01.json"], files["u01.json"], "--out", out]) == 0
    capsys.readouterr()
    reparsed = IntDist.from_json((tmp_path / "conv.json").read_text())
    assert reparsed == IntDist([(0, F(1, 4)), (1, F(1, 2)), (2, F(1, 4))])


def test_seeded_scan_byte_identical(tmp_path):
    args = [
        "scan-conjecture",
        "--denominator",
        "4",
        "--window",
        "0..2",
        "--n",
        "3",
        "--budget",
        "30",
        "--seed",
        "11",
    ]
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "content",
    ['{"atoms": [[0, 0.5], [1, 0.5]]}', '{"atoms": [[0, "1/0"], [1, "1/2"]]}'],
    ids=["float_mass", "zero_denominator"],
)
def test_bad_mass_exits_2(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    assert run(["dist", "stats", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_report_unknown_outcome_exits_2(tmp_path, capsys):
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps({"name": "thm_tse", "outcome": "maybe"}) + "\n")
    assert run(["report", str(path)]) == 2
    assert "unknown outcome 'maybe'" in capsys.readouterr().err


def test_check_zero_denominator_exits_2(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"alphas": ["1/2"], "delta": "1/0", "window": [0, 1]}))
    assert run(["check", "thm_tse", "--instance", str(path)]) == 2


@pytest.mark.parametrize("field, value", [("delta", 0.5), ("alphas", [0.5])])
def test_check_float_scalar_exits_2(tmp_path, field, value):
    instance = {"alphas": ["1/2"], "delta": "0", "window": [0, 1]}
    instance[field] = value
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance))
    assert run(["check", "thm_tse", "--instance", str(path)]) == 2


@pytest.mark.parametrize(
    "content",
    [
        '{"atoms": [[[0], 0.5], [[1], 0.5]]}',
        '{"atoms": [[[0], "1/0"], [[1], "1/2"]]}',
        '{"atoms": [[0, "1/2"], [[1], "1/2"]]}',
        '{"atoms": 3}',
        '[[[0], "1/2"], [[1], "1/2"]]',
    ],
    ids=["float_mass", "zero_denominator", "integer_site", "atoms_not_a_list", "top_level_list"],
)
@pytest.mark.parametrize("action", ["terms", "tv"])
def test_bad_lattice_exits_2(tmp_path, capsys, content, action):
    path = tmp_path / "lattice.json"
    path.write_text(content)
    assert run(["gauss", action, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "line",
    ["5", json.dumps({"name": ["x"], "outcome": "pass"})],
    ids=["not_an_object", "name_not_a_string"],
)
def test_report_bad_record_exits_2(tmp_path, capsys, line):
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps({"name": "thm_tse", "outcome": "pass"}) + "\n" + line + "\n")
    assert run(["report", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# -- the bad-input contract: exit 2, "error: ..." on stderr, never a traceback --


LATTICE = json.dumps({"atoms": [[[0, 0], "1/4"], [[1, 0], "1/4"], [[0, 1], "1/4"], [[1, 1], "1/4"]]})


@pytest.mark.parametrize(
    "argv",
    [
        ["gauss", "tail", "--cov", "{f}", "--t", "nan"],
        ["gauss", "tail", "--cov", "{f}", "--t", "inf"],
        ["gauss", "cells", "--spec", "{f}", "--box", "0..1", "--tol", "nan"],
        ["gauss", "tv", "{f}", "--tol=-inf"],
        ["be-gap", "{f}", "--c-be", "nan"],
        ["be-gap", "{f}", "--c-be=-Infinity"],
    ],
    ids=["tail_t_nan", "tail_t_inf", "cells_tol_nan", "tv_tol_minus_inf", "be_gap_c_be_nan", "be_gap_c_be_minus_inf"],
)
def test_non_finite_float_flag_exits_2(tmp_path, capsys, argv):
    """argparse rejects the flag, so the message is its usage error."""
    path = tmp_path / "input.json"
    path.write_text("[[1.0]]")
    assert run([arg.replace("{f}", str(path)) for arg in argv]) == 2
    err = capsys.readouterr().err
    flag = argv[-1].split("=")[0] if "=" in argv[-1] else argv[-2]
    assert f"error: argument {flag}: invalid finite_float value" in err


@pytest.mark.parametrize(
    "argv, content",
    [
        (["be-gap", "{f}", "--repeat", "0"], '{"atoms": [[0, "1/2"], [1, "1/2"]]}'),
        (["be-gap", "{f}", "--repeat=-3"], '{"atoms": [[0, "1/2"], [1, "1/2"]]}'),
        (["gauss", "tail", "--cov", "{f}", "--t", "100", "--samples", "0"], "[[1.0]]"),
        (["gauss", "tail", "--cov", "{f}", "--t", "100", "--samples", "-5"], "[[1.0]]"),
    ],
    ids=["be_gap_repeat_zero", "be_gap_repeat_negative", "tail_samples_zero", "tail_samples_negative"],
)
def test_non_positive_count_flag_exits_2(tmp_path, capsys, argv, content):
    """A zero or negative count is a usage error, not a run with one repeat
    or with the Monte Carlo check skipped."""
    path = tmp_path / "input.json"
    path.write_text(content)
    assert run([arg.replace("{f}", str(path)) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    flag = argv[-1].split("=")[0] if "=" in argv[-1] else argv[-2]
    assert f"error: argument {flag}: invalid positive_int value" in captured.err


@pytest.mark.parametrize(
    "argv, content",
    [
        (["gauss", "tv", "{f}", "--pow", "0"], LATTICE),
        (["gauss", "tv", "{f}", "--pow", "x"], LATTICE),
        (["gauss", "tv", "{f}", "--pow", ""], LATTICE),
        (["gap", "fit", "--values", "1,x"], None),
        (["gap", "proper", "{f}"], "[1, 2]"),
        (["gap", "sumset", "{f}", "{f}"], "[1, 2]"),
        (["gap", "cover", "{f}", "{f}"], "[1, 2]"),
        (["gauss", "cells", "--spec", "{f}", "--box", "0..1"], "[1, 2]"),
        (["gauss", "tail", "--cov", "{f}", "--t", "32"], '{"atoms": []}'),
        (["gauss", "tail", "--cov", "{f}", "--t", "32"], "NaN"),
        (["gauss", "tail", "--cov", "{f}", "--t", "32"], "[[NaN]]"),
        (["lattice-basis", "--vectors", "1,x"], None),
        (["lattice-basis", "--vectors-file", "{f}"], "[-6, 1, -6]"),
        (["lattice-basis", "--vectors-file", "{f}"], "null"),
        (["scan-conjecture", "--denominator", "1", "--window", "0..2", "--n", "2"], None),
        (["scan-conjecture", "--denominator", "4", "--window", "2..0", "--n", "2"], None),
        (["extremal", "nu", "--alpha", "2"], None),
        (["extremal", "nu", "--alpha", "0"], None),
        (["extremal", "tse", "--alphas", "0"], None),
        (["gauss", "cells", "--spec", "{f}", "--box", "5..1"], '{"mean": [0], "cov": [[1]]}'),
        (["gauss", "cells", "--spec", "{f}", "--box", "0..1,3..2"], '{"mean": [0, 0], "cov": [[1, 0], [0, 1]]}'),
        (["check", "thm_tse", "--instance", "{f}"], '{"alphas": ["1/2"], "delta": "0", "window": [0, 3000]}'),
        (["check", "thm_tse", "--instance", "{f}"], '{"alphas": "11", "delta": "0", "window": [0, 2]}'),
        (["check", "thm_tse", "--instance", "{f}"], '{"alphas": {"1/2": 1}, "delta": "0", "window": [0, 2]}'),
        (
            ["check", "midsize_alpha_continuity", "--instance", "{f}"],
            '{"K": 1, "alphas": ["1/2"], "alphas_prime": "11", "y": {"atoms": [[0, "1"]]}}',
        ),
        (
            ["check", "peakednessl1", "--instance", "{f}"],
            '{"x": {"atoms": [[0, "1"]]}, "ys": {}, "z": {"atoms": [[0, "1"]]}, "eps": "0"}',
        ),
        (["gauss", "tv", "{f}", "--tol", "0"], LATTICE),
        (["gauss", "tv", "{f}", "--tol", "-5"], LATTICE),
        (["gauss", "tv", "{f}", "--pow", "2", "--tol", "0"], LATTICE),
    ],
    ids=[
        "tv_pow_zero",
        "tv_pow_not_an_int",
        "tv_pow_empty",
        "gap_fit_values_not_ints",
        "gap_proper_list",
        "gap_sumset_list",
        "gap_cover_list",
        "gauss_cells_spec_list",
        "gauss_tail_cov_object",
        "gauss_tail_cov_nan",
        "gauss_tail_cov_nan_entry",
        "lattice_basis_vectors_not_ints",
        "lattice_basis_flat_list",
        "lattice_basis_null",
        "scan_denominator_1",
        "scan_empty_window",
        "extremal_nu_alpha_2",
        "extremal_nu_alpha_0",
        "extremal_tse_alpha_0",
        "gauss_cells_reversed_box",
        "gauss_cells_reversed_second_axis",
        "check_thm_tse_over_enumeration_budget",
        "check_alphas_string",
        "check_alphas_object",
        "check_alphas_prime_string",
        "check_ys_object",
        "tv_tol_zero",
        "tv_tol_negative",
        "tv_pow_tol_zero",
    ],
)
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, argv, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    assert run([arg.replace("{f}", str(path)) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, content",
    [
        (["dist", "stats"], '{"atoms": [[0.5, "1/2"], [1.7, "1/2"]]}'),
        (["dist", "stats"], '{"atoms": [["0", "1/2"], [1, "1/2"]]}'),
        (["gauss", "tv"], '{"atoms": [[[0.5, 1], "1/2"], [[1, 1], "1/2"], [[0, 0], "0"]]}'),
        (["gauss", "tv"], '{"atoms": [[["0", 1], "1/2"], [[1, 1], "1/2"]]}'),
    ],
    ids=["dist_float_site", "dist_string_site", "lattice_float_site", "lattice_string_site"],
)
def test_non_integer_site_exits_2(tmp_path, capsys, argv, content):
    path = tmp_path / "input.json"
    path.write_text(content)
    assert run(argv + [str(path)]) == 2
    assert "input.json: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [
        {"dims": [2.5], "generators": ["1/2"]},
        {"dims": [2], "generators": [0.5]},
        {"dims": [1], "generators": [[1, 0.5]]},
        {"dims": [1]},
        {"dims": 1, "generators": ["1/2"]},
    ],
    ids=["float_dim", "float_generator", "float_vector_entry", "no_generators", "dims_not_a_list"],
)
def test_bad_progression_exits_2(tmp_path, capsys, content):
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(content))
    assert run(["gap", "proper", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize(
    "content",
    [
        {"mean": [0]},
        {"mean": ["0"], "cov": [[1]]},
        {"mean": [0], "cov": [[1, 0]]},
        {"mean": [0], "cov": [[True]]},
        {"mean": [0, 0], "cov": [[1.0, 0.5], [0.5000000049, 1.0]]},
    ],
    ids=["no_cov", "string_mean", "non_square_cov", "boolean_cov", "nearly_symmetric_cov"],
)
def test_bad_gaussian_spec_exits_2(tmp_path, capsys, content):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(content))
    assert run(["gauss", "cells", "--spec", str(path), "--box", "0..1"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("samples", [[], ["--samples", "50"]], ids=["bound", "check"])
@pytest.mark.parametrize(
    "cov, reason",
    [
        ([[1, 5], [0, 1]], "symmetric"),
        ([[1.0, 0.5], [0.5000000049, 1.0]], "symmetric"),  # within np.allclose of symmetric
        ([[1, 0], [0, -1]], "positive definite"),
    ],
    ids=["not_symmetric", "nearly_symmetric", "indefinite"],
)
def test_bad_tail_covariance_exits_2(tmp_path, capsys, cov, reason, samples):
    """The tail commands hold the covariance to the contract of a Gaussian
    spec: eigvalsh alone would read only the lower triangle."""
    path = tmp_path / "cov.json"
    path.write_text(json.dumps(cov))
    assert run(["gauss", "tail", "--cov", str(path), "--t", "32", *samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: covariance must be {reason}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["extremal", "nu", "--alpha", "1/0"],
        ["extremal", "tse", "--alphas", "1/2,1/0"],
        ["dominate", "{u01}", "{u01}", "--eps", "1/0"],
        ["couple", "{u01}", "{mup}", "--eps", "1/0"],
        ["gap", "fit", "--values", "1,2", "--eps", "1/0"],
    ],
    ids=["nu", "tse", "dominate", "couple", "gap_fit"],
)
def test_zero_denominator_flag_exits_2(files, capsys, argv):
    argv = [files["u01.json"] if a == "{u01}" else files["mup.json"] if a == "{mup}" else a for a in argv]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: zero denominator in '1/0'\n"


@pytest.mark.parametrize("content", ["[1, 2]", '"alphas"', "5"], ids=["list", "string", "number"])
def test_instance_not_an_object_exits_2(tmp_path, capsys, content):
    path = tmp_path / "inst.json"
    path.write_text(content)
    assert run(["check", "thm_tse", "--instance", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: bad instance: ")


def test_checker_fault_is_a_traceback(files, monkeypatch):
    def broken(*args):
        raise TypeError("a fault inside the checker")

    monkeypatch.setattr(verify, "few_dropped_check", broken)
    with pytest.raises(TypeError, match="a fault inside the checker"):
        run(["check", "few_dropped", "--instance", files["inst.json"]])


# Every command that reads a file, with {f} standing for that file.
FILE_COMMANDS = [
    ["dist", "conv", "{f}", "{f}"],
    ["dist", "stats", "{f}"],
    ["dist", "rearrange", "{f}", "--kind", "sym"],
    ["dist", "squeeze", "{f}"],
    ["dist", "span", "{f}"],
    ["dominate", "{f}", "{f}", "--eps", "1/2"],
    ["couple", "{f}", "{f}", "--eps", "1/2"],
    ["decompose", "{f}"],
    ["gap", "sumset", "{f}", "{f}"],
    ["gap", "proper", "{f}"],
    ["gap", "cover", "{f}", "{f}"],
    ["lattice-basis", "--vectors-file", "{f}"],
    ["gauss", "cells", "--spec", "{f}", "--box", "0..1"],
    ["gauss", "tv", "{f}"],
    ["gauss", "tv", "{f}", "--pow", "2"],
    ["gauss", "terms", "{f}"],
    ["gauss", "tail", "--cov", "{f}", "--t", "32"],
    ["gauss", "tail", "--cov", "{f}", "--t", "32", "--samples", "50"],
    ["be-gap", "{f}"],
    ["report", "{f}"],
    *(["check", lemma, "--instance", "{f}"] for lemma in sorted(_LEMMAS)),
]

# Keys the loaders and the instance parsers look up, so random objects get past them.
FUZZ_KEYS = sorted({"atoms", "dims", "generators", "mean", "cov", "name", "outcome", *_FIELD_PARSERS})

# Small values only, so that no example can start a long computation.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-6, 6) | st.sampled_from([0.5, math.nan, "1/2", "1/0", "x"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(FUZZ_KEYS), inner, max_size=3),
    max_leaves=8,
)
FILE_CONTENTS = st.one_of(
    JSON_VALUES.map(lambda value: json.dumps(value).encode()),
    st.text(alphabet="0123456789:/-# \n", max_size=20).map(str.encode),
    st.binary(max_size=20),
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@pytest.mark.parametrize("argv", FILE_COMMANDS, ids=[" ".join(a for a in argv if a != "{f}") for argv in FILE_COMMANDS])
@settings(derandomize=True, max_examples=30, deadline=None)
@given(content=FILE_CONTENTS)
def test_any_file_content_exits_0_1_or_2(fuzz_path, argv, content):
    fuzz_path.write_bytes(content)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert run([arg.replace("{f}", str(fuzz_path)) for arg in argv]) in (0, 1, 2)


# -- one parser per process ---------------------------------------------------------


def _capture(call, argv):
    """(exit code, stdout, stderr) of call(argv); a SystemExit is its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_build_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "stats", "{mu.json}"],
        ["dist", "conv", "{u01.json}", "{u01.json}"],
        ["extremal", "tse", "--alphas", "3/5,3/5"],
        ["dominate", "{mu.json}", "{mup.json}"],
        ["dist", "stats", "{malformed.json}"],
        ["dist", "stats"],
        ["nonsense"],
        ["scan-conjecture", "--denominator", "4", "--window", "0..2", "--n", "3", "--budget", "5", "--seed", "3"],
    ],
)
def test_same_argv_twice_same_result(files, argv):
    argv = [files[arg[1:-1]] if arg.startswith("{") else arg for arg in argv]
    assert _capture(run, argv) == _capture(run, argv)


def test_parse_carries_nothing_over(files, tmp_path):
    out = tmp_path / "scan.jsonl"
    first = ["scan-conjecture", "--denominator", "4", "--window", "0..2", "--n", "2", "--seed", "7", "--out", str(out)]
    assert _capture(run, first)[0] == 0
    out.unlink()

    stats = ["dist", "stats", files["u01.json"]]
    args = build_parser().parse_args(stats)
    assert (args.input, args.out) == (files["u01.json"], None)
    assert "seed" not in vars(args)
    code, stdout, _ = _capture(run, stats)
    assert code == 0
    assert "seed" not in json.loads(stdout)
    assert not out.exists()
    fresh = build_parser.__wrapped__().parse_args(stats)
    assert stdout == _capture(fresh.func, fresh)[1]


def test_usage_errors_and_parses_interleave(files):
    good = ["dist", "stats", files["mu.json"]]
    expected = _capture(run, good)
    assert expected[0] == 0
    for bad in (["dist", "stats"], ["dist", "nope", files["mu.json"]], ["check", "thm_tse"], ["--no-such-flag"]):
        code, stdout, stderr = _capture(run, bad)
        assert (code, stdout) == (2, "")
        assert "usage: conclab" in stderr
        assert _capture(run, good) == expected


def _subcommands() -> list[str]:
    (sub,) = [a for a in build_parser.__wrapped__()._actions if isinstance(a, argparse._SubParsersAction)]
    return sorted(sub.choices)


@pytest.mark.parametrize("argv", [["--help"]] + [[name, "--help"] for name in _subcommands()])
def test_help_matches_a_fresh_parser(argv):
    cached = _capture(run, argv)
    fresh = _capture(build_parser.__wrapped__().parse_args, argv)
    assert cached[1:] == fresh[1:]
    assert cached[0] == 0 and fresh[0] == 0
    assert cached[1].startswith("usage: conclab")


# -- each action declares exactly the arguments it reads ------------------------------

# (command, action) -> the flags its parser declares; every command has --out
FLAGS = {
    ("dist", "conv"): {"--format"},
    ("dist", "stats"): set(),
    ("dist", "rearrange"): {"--kind", "--format"},
    ("dist", "squeeze"): {"--format"},
    ("dist", "span"): set(),
    ("extremal", "nu"): {"--alpha", "--format"},
    ("extremal", "tse"): {"--alphas"},
    ("extremal", "tsebal"): {"--alphas"},
    ("extremal", "oracle"): {"--alphas", "--window", "--windows"},
    ("dominate", None): {"--eps"},
    ("couple", None): {"--eps"},
    ("decompose", None): set(),
    ("gap", "sumset"): set(),
    ("gap", "proper"): set(),
    ("gap", "fit"): {"--values", "--eps"},
    ("gap", "cover"): set(),
    ("lattice-basis", None): {"--vectors", "--vectors-file"},
    ("gauss", "cells"): {"--spec", "--box", "--tol", "--seed"},
    ("gauss", "tv"): {"--pow", "--tol", "--format"},
    ("gauss", "terms"): set(),
    ("gauss", "tail"): {"--cov", "--t", "--samples", "--seed"},
    ("be-gap", None): {"--repeat", "--c-be"},
    ("check", None): {"--instance"},
    ("scan-conjecture", None): {"--denominator", "--window", "--n", "--budget", "--violations-only", "--seed"},
    ("report", None): set(),
}


def _choices(parser: argparse.ArgumentParser) -> dict:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_each_action_declares_exactly_the_flags_it_reads():
    declared = {}
    for command, parser in _choices(build_parser.__wrapped__()).items():
        leaves = _choices(parser) if command in ("dist", "extremal", "gap", "gauss") else {None: parser}
        for action, leaf in leaves.items():
            declared[command, action] = {
                flag for a in leaf._actions for flag in a.option_strings if flag.startswith("--") and flag != "--help"
            }
    assert declared == {key: flags | {"--out"} for key, flags in FLAGS.items()}
    assert sum(map(len, declared.values())) == 62


# id -> an argv with an argument its action does not read, or without one it needs;
# {u} is a law, {g} a progression
UNREAD_ARGUMENTS = {
    "stats_second_file": ["dist", "stats", "{u}", "{u}"],
    "conv_seed": ["dist", "conv", "{u}", "{u}", "--seed", "3"],
    "stats_format_csv": ["dist", "stats", "{u}", "--format", "csv"],
    "stats_no_file": ["dist", "stats"],
    "oracle_window_and_windows": ["extremal", "oracle", "--alphas", "1/2,1/2", "--window", "0..1", "--windows", "0..2"],
    "oracle_no_window": ["extremal", "oracle", "--alphas", "1/2,1/2"],
    "nu_alphas": ["extremal", "nu", "--alpha", "2/5", "--alphas", "1/3"],
    "tse_no_alphas": ["extremal", "tse"],
    "vectors_and_vectors_file": ["lattice-basis", "--vectors", "0,0;3,0", "--vectors-file", "{u}"],
    "no_vectors": ["lattice-basis"],
    "scan_format_text": ["scan-conjecture", "--denominator", "4", "--window", "0..2", "--n", "2", "--format", "text"],
    "gap_fit_budget": ["gap", "fit", "--values", "0,2", "--budget", "5"],
    "gap_sumset_one_file": ["gap", "sumset", "{g}"],
    "gap_sumset_three_files": ["gap", "sumset", "{g}", "{g}", "{g}"],
    "gap_proper_no_file": ["gap", "proper"],
    "gap_cover_no_law": ["gap", "cover", "{g}"],
    "terms_tol": ["gauss", "terms", "{u}", "--tol", "1e-3"],
    "terms_no_file": ["gauss", "terms"],
    "tv_no_file": ["gauss", "tv"],
    "tv_seed": ["gauss", "tv", "{u}", "--seed", "1"],
    "check_format": ["check", "thm_tse", "--instance", "{u}", "--format", "text"],
    "report_seed": ["report", "{u}", "--seed", "1"],
}


@pytest.mark.parametrize("argv", UNREAD_ARGUMENTS.values(), ids=UNREAD_ARGUMENTS.keys())
def test_unread_or_missing_argument_prints_the_usage(files, argv):
    """argparse is the one place that checks the command line: an argument
    the action does not read, or one it needs and lacks, is a usage error of
    that action, before any file is read."""
    argv = [files["u01.json"] if a == "{u}" else files["g2.json"] if a == "{g}" else a for a in argv]
    code, stdout, stderr = _capture(run, argv)
    assert (code, stdout) == (2, "")
    command = " ".join(argv[:2] if argv[0] in ("dist", "extremal", "gap", "gauss") else argv[:1])
    assert stderr.startswith(f"usage: conclab {command} ")
    assert f"conclab {command}: error: " in stderr


def test_tv_csv_needs_pow(files, capsys):
    """The one cross-flag rule argparse cannot express."""
    assert run(["gauss", "tv", files["base.json"], "--format", "csv"]) == 2
    assert capsys.readouterr() == ("", "error: --format csv needs --pow\n")


@pytest.mark.parametrize("powers, bad", [("320,0", "0"), ("2,4,-3", "-3")])
def test_tv_bad_power_exits_2_before_any_power(files, capsys, monkeypatch, powers, bad):
    """A power below 1 anywhere in --pow is refused before the first row is
    computed, and the message names it."""
    from conclab import gauss

    def unreachable(base, m):
        raise AssertionError("pow_conv ran")

    monkeypatch.setattr(gauss, "pow_conv", unreachable)
    assert run(["gauss", "tv", files["base.json"], "--pow", powers]) == 2
    assert capsys.readouterr() == ("", f"error: every power m must be >= 1, got {bad}\n")


def _readme_cli_lines() -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("conclab ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_examples_parse(line):
    argv = shlex.split(line, comments=True)[1:]
    assert build_parser().parse_args(argv).command == argv[0]


# -- input contracts: each of these exits 2 with "error: ..." on stderr --------


@pytest.mark.parametrize(
    "argv, content, message",
    [
        (["dist", "stats"], '{"atoms": [[true, "1/2"], [0, "1/2"]]}', "boolean sites"),
        (["gauss", "terms"], '{"atoms": [[[0, true], "1/2"], [[0, 0], "1/2"]]}', "boolean sites"),
        (["gauss", "terms"], '{"atoms": [[[], "1"]]}', "dimension 0"),
        (["gauss", "tv"], '{"atoms": [[[], "1"]]}', "dimension 0"),
        (["gauss", "tv"], '{"atoms": [[0, "1/2"], [1, "1/2"]]}', "a lattice site must be a list of integers, got 0"),
    ],
    ids=["bool_site", "bool_lattice_coordinate", "empty_site_terms", "empty_site_tv", "integer_site_tv"],
)
def test_bad_site_exits_2(tmp_path, capsys, argv, content, message):
    path = tmp_path / "law.json"
    path.write_text(content)
    assert run([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err


def test_gap_cover_kind_mismatch_exits_2(files, tmp_path, capsys):
    from conclab.gaps import SymGAP, gap_contains

    vector = tmp_path / "vec.json"
    vector.write_text(json.dumps({"dims": [2], "generators": [[1, 0]]}))
    assert run(["gap", "cover", str(vector), files["u01.json"]]) == 2
    assert "2-vector progression cannot hold scalar elements" in capsys.readouterr().err
    gap = SymGAP((2,), ((1, 0),))
    with pytest.raises(ValueError):
        gap_contains(gap, 1)
    with pytest.raises(ValueError):
        gap_contains(gap, (1, 0, 0))
    with pytest.raises(ValueError):
        gap_contains(SymGAP((2,), (F(1),)), (1, 0))
    assert gap_contains(gap, (2, 0)) and not gap_contains(gap, (3, 0))
    assert gap_contains(SymGAP((), ()), 0)  # rank 0: no generators, no kind
    assert run(["gap", "cover", files["g2.json"], files["u01.json"]]) == 0
    assert json.loads(capsys.readouterr().out) == {"cover": "0/1"}


@pytest.mark.parametrize(
    "mean, box",
    [([0, 0, 0], "0..9999,0..9999,0..9999"), ([0], "0..999999999")],
    ids=["d3_10e12_cells", "d1_10e9_cells"],
)
def test_gauss_cells_box_too_large_exits_2(tmp_path, capsys, mean, box):
    """The cell count is checked before any cell is computed or allocated."""
    path = tmp_path / "spec.json"
    identity = [[int(i == j) for j in range(len(mean))] for i in range(len(mean))]
    path.write_text(json.dumps({"mean": mean, "cov": identity}))
    assert run(["gauss", "cells", "--spec", str(path), "--box", box, "--tol", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "more than" in captured.err and "cells" in captured.err


def test_gap_zero_dimensional_generator_exits_2(tmp_path, capsys):
    path = tmp_path / "gap.json"
    path.write_text(json.dumps({"dims": [1], "generators": [[]]}))
    assert run(["gap", "proper", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and "dimension 0" in captured.err


@pytest.mark.parametrize("c_be", ["0", "-0.5"])
def test_be_gap_nonpositive_constant_exits_2(files, capsys, c_be):
    assert run(["be-gap", files["u01.json"], "--c-be", c_be]) == 2
    assert "--c-be must be positive" in capsys.readouterr().err


def test_report_syntax_error_names_path_and_line(tmp_path, capsys):
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps({"name": "thm_tse", "outcome": "pass"}) + "\n{'name': 1}\n")
    assert run(["report", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:2:2: Expecting property name enclosed in double quotes\n"
