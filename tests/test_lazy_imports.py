"""Import cost: `import conclab` and `import conclab.cli` load no layer, a
command loads only the layers it uses, numpy loads only where the Gaussian
layer needs it, and no command loads scipy.

The import tests run a fresh interpreter, since this test process has loaded
every layer, numpy and scipy.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conclab
from conclab.cli import run
from conclab.dist import uniform

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True, timeout=120
    )


# prints which of numpy and scipy are in sys.modules, as the last line of stdout
PROBE = "\nimport json, sys; print(json.dumps(sorted({'numpy', 'scipy'} & set(sys.modules))))"

# prints the conclab modules in sys.modules, as the last line of stdout
LAYER_PROBE = (
    "\nimport json, sys; print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'conclab')))"
)


def _loaded_after(code: str) -> list[str]:
    return json.loads(_python(code + PROBE).stdout)


def _layers_after(code: str, *args: str) -> list[str]:
    return json.loads(_python(code + LAYER_PROBE, *args).stdout)


# runs the command in sys.argv[1:] with its stdout discarded; a nonzero exit
# code ends the interpreter with it, before the probe
RUN_ARGV = (
    "import contextlib, io, sys\n"
    "from conclab.cli import run\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = run(sys.argv[1:])\n"
    "if code:\n"
    "    sys.exit(code)"
)


@pytest.mark.parametrize(
    "code, loaded", [("import conclab", ["conclab"]), ("import conclab.cli", ["conclab", "conclab.cli"])]
)
def test_package_and_cli_imports_load_no_layer(code, loaded):
    assert _layers_after(code) == loaded


def test_extremal_tse_loads_only_dist_and_extremal():
    loaded = _layers_after(RUN_ARGV, "extremal", "tse", "--alphas", "1/2,1/3,2/5")
    assert loaded == ["conclab", "conclab.cli", "conclab.dist", "conclab.extremal"]


def test_scan_loads_only_the_conjecture_layer():
    """The scan needs no checker, so it loads neither verify nor the
    domination, rearrange and roots layers that only the checkers use."""
    loaded = _layers_after(RUN_ARGV, "scan-conjecture", "--denominator", "4", "--window", "0..3", "--n", "3")
    assert loaded == ["conclab", "conclab.cli", "conclab.conjecture", "conclab.dist", "conclab.extremal"]


def test_dist_stats_loads_no_checker_gap_or_gaussian_layer(tmp_path):
    law = tmp_path / "law.json"
    law.write_text(uniform([0, 1, 3]).to_json())
    loaded = set(_layers_after(RUN_ARGV, "dist", "stats", str(law)))
    assert "conclab.dist" in loaded
    assert loaded.isdisjoint({"conclab.conjecture", "conclab.verify", "conclab.gaps", "conclab.gauss"})


def test_cli_import_loads_neither_numpy_nor_scipy():
    assert _loaded_after("import conclab.cli") == []


def test_gauss_import_leaves_scipy_out():
    assert _loaded_after("import conclab.gauss") == ["numpy"]


def test_exact_commands_never_load_numpy(tmp_path):
    law = tmp_path / "law.json"
    law.write_text(uniform([0, 1, 3]).to_json())
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"alphas": ["1/2", "1/3", "2/5"], "delta": "1/2", "window": [0, 2]}))
    code = (
        "import contextlib, io, sys\n"
        "from conclab.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [run(['dist', 'stats', sys.argv[1]]), run(['check', 'thm_tse', '--instance', sys.argv[2]])]\n"
        "print(codes)"
    )
    assert _python(code + PROBE, str(law), str(inst)).stdout == "[0, 0]\n[]\n"


def test_2d_cells_in_a_fresh_interpreter_match_in_process(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"mean": [0.5, 0.25], "cov": [[1.0, 0.3], [0.3, 0.8]]}))
    argv = ["gauss", "cells", "--spec", str(spec), "--box=-1..1,0..2"]
    fresh = _python("import sys; from conclab.cli import run; sys.exit(run(sys.argv[1:]))", *argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0
    assert fresh.stdout == out.getvalue()
    assert len(json.loads(fresh.stdout)["cells"]) == 9


def test_gauss_commands_never_load_scipy(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"mean": [0.5, 0.25], "cov": [[1.0, 0.3], [0.3, 0.8]]}))
    law = tmp_path / "square.json"
    law.write_text(json.dumps({"atoms": [[[0, 0], "1/4"], [[1, 0], "1/4"], [[0, 1], "1/4"], [[1, 1], "1/4"]]}))
    code = (
        "import contextlib, io, sys\n"
        "from conclab.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [run(['gauss', 'cells', '--spec', sys.argv[1], '--box=-2..2,-2..2']),\n"
        "             run(['gauss', 'tv', sys.argv[2]]), run(['gauss', 'tv', sys.argv[2], '--pow', '2,3'])]\n"
        "print(codes)"
    )
    assert _python(code + PROBE, str(spec), str(law)).stdout == '[0, 0, 0]\n["numpy"]\n'


# the package's exports, each defined in one of dist, domination, extremal and rearrange
EXPORTS = [
    "IntDist", "convolve", "convolve_all", "convolve_power", "delta", "is_log_concave", "is_sharp_log_concave",
    "is_unimodal", "max_span", "mean", "modes", "negate", "q_interval", "q_k", "q_max", "shift", "squeeze",
    "uniform", "uniform_interval", "variance",
    "DominationReport", "cor3_check", "dominates", "hlp_check", "mww_check", "q_profile",
    "AlphaSeq", "extremal_enumerate", "is_balanced", "is_extremal", "is_standard_extremal", "is_strongly_balanced",
    "nu", "t_oracle", "tse", "tsebal", "variance_nu",
    "BallFunction", "IntMeasure", "JointCoupling", "MedianChain", "ball_function", "dominating_coupling",
    "minus_rearrange", "nested_medians", "plus_rearrange", "sym_rearrange",
]  # fmt: skip


def test_each_export_is_its_submodules_object():
    assert len(EXPORTS) == len(set(EXPORTS)) == 47
    assert sorted(conclab.__all__) == sorted(EXPORTS)
    for name in EXPORTS:
        exec(f"from conclab import {name} as value", namespace := {})
        value = namespace["value"]
        assert value.__module__ in ("conclab.dist", "conclab.domination", "conclab.extremal", "conclab.rearrange")
        assert value is getattr(sys.modules[value.__module__], name), name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        conclab.no_such_name
    with pytest.raises(ImportError):
        exec("from conclab import no_such_name", {})


def test_a_fresh_package_lists_every_export_and_still_imports_submodules():
    """Before any export is used, dir() lists them all; the first use of one
    loads its submodule (extremal, which imports dist), and `from conclab
    import cli, dist, gauss` imports those submodules."""
    code = (
        "import json, conclab\n"
        "print(json.dumps(dir(conclab)))\n"
        "conclab.AlphaSeq\n"
        "from conclab import cli, dist, gauss\n"
        "print(cli.__name__, dist.__name__, gauss.__name__)"
    )
    fresh = _python(code + LAYER_PROBE).stdout.splitlines()
    assert set(EXPORTS) <= set(json.loads(fresh[0]))
    assert fresh[1] == "conclab.cli conclab.dist conclab.gauss"
    assert json.loads(fresh[-1]) == ["conclab", "conclab.cli", "conclab.dist", "conclab.extremal", "conclab.gauss"]
