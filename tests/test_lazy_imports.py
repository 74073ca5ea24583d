"""Import cost: numpy loads only where the Gaussian layer needs it, and no
command loads scipy.

Each test runs a fresh interpreter, since this test process has loaded both.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

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


def _loaded_after(code: str) -> list[str]:
    return json.loads(_python(code + PROBE).stdout)


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
