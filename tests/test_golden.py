"""Byte identity of the exact commands: fixed argvs, their exit codes and the
sha256 of their stdout.

Each argv runs in process over input files written here.  A digest changes
only when an exact command's output bytes change, which a refactor must not
do; a deliberate format change re-records the table and says so.  The
Gaussian commands (`gauss`, `be-gap`) are left out: their floats depend on
the platform's libm.  To print the table for the current code, run
``python tests/test_golden.py`` with ``src`` on the path.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from conclab.cli import run


def _atoms(pairs):
    return {"atoms": [[s, m] for s, m in pairs]}


def _uniform(sites):
    sites = list(sites)
    return _atoms((s, f"1/{len(sites)}") for s in sites)


FILES = {
    "u01.json": _uniform([0, 1]),
    "mu.json": _atoms([(-2, "1/6"), (0, "1/3"), (3, "1/2")]),
    "nu.json": _atoms([(-1, "1/10"), (0, "2/5"), (1, "3/10"), (4, "1/5")]),
    "mup.json": _atoms([(-1, "1/4"), (0, "1/2"), (1, "1/4")]),
    "u0123.json": _uniform([0, 1, 2, 3]),
    "skew.txt": "# a text law\n-3: 1/12\n-1: 1/4\n2: 1/3\n5: 1/3\n",
}

INSTANCES = {
    "thm_tse": {"alphas": ["1/2", "2/5", "1/3"], "delta": "0", "window": [0, 2]},
    "logconcmode": {"mu": _uniform(range(100)), "i": 3, "gamma": "1/2"},
    "logconcdomination": {"x": _uniform(range(9)), "y": _atoms([(0, "1")]), "eps": "1/100"},
    "few_dropped": {"alphas": ["1/2"] * 12, "k": 0, "K": 2, "delta": "1/2"},
    "balanced_continuous": {"alphas": ["1/2", "1/2"], "alpha": "1/2", "alpha_prime": "3/5"},
    "midsize_alpha_continuity": {
        "K": 3,
        "alphas": ["4/9", "4/9"],
        "alphas_prime": ["7/18", "7/18"],
        "y": _atoms([(-1, "1/4"), (0, "1/2"), (1, "1/4")]),
    },
    "balanced_continuity_large": {"K": 3, "ks": [3, 5], "y": _atoms([(-1, "1/4"), (0, "1/2"), (1, "1/4")])},
    "peakednessl1": {
        "x": _uniform(range(0, 1401)),
        "ys": [_uniform(range(-700, 701))],
        "z": _uniform(range(-700, 701)),
        "eps": "9/10",
    },
    "peakednessl2": {
        "x": _uniform(range(0, 175)),
        "y": _uniform(range(0, 175)),
        "x_prime": _uniform(range(-87, 88)),
        "y_prime": _uniform(range(-87, 88)),
        "eps": "2/5",
    },
    "odlyzko_richmond": {"p": _uniform([0, 1, 3]), "n": 30, "delta": "3/10"},
}
for _lemma, _instance in INSTANCES.items():
    FILES[f"{_lemma}.json"] = _instance

ARGVS = [
    ["dist", "conv", "{u01.json}", "{mu.json}", "{nu.json}"],
    ["dist", "conv", "{mu.json}", "{skew.txt}", "--format", "text"],
    ["dist", "stats", "{nu.json}"],
    ["dist", "stats", "{skew.txt}"],
    ["dist", "rearrange", "{nu.json}", "--kind", "plus"],
    ["dist", "rearrange", "{nu.json}", "--kind", "minus"],
    ["dist", "rearrange", "{mup.json}", "--kind", "sym"],
    ["dist", "squeeze", "{skew.txt}"],
    ["extremal", "nu", "--alpha", "2/7"],
    ["extremal", "tse", "--alphas", "3/5,2/5,1/3,1/3"],
    ["extremal", "tsebal", "--alphas", "2/5,2/5,1/3,1/5"],
    ["extremal", "oracle", "--alphas", "1/2,2/5,1/3", "--window", "0..2"],
    ["dominate", "{mup.json}", "{nu.json}", "--eps", "1/10"],
    ["couple", "{mu.json}", "{mup.json}", "--eps", "1/2"],
    ["decompose", "{nu.json}"],
    ["scan-conjecture", "--denominator", "4", "--window", "0..3", "--n", "2"],
    ["scan-conjecture", "--denominator", "5", "--window", "0..2", "--n", "3", "--budget", "40", "--seed", "9"],
    *(["check", lemma, "--instance", f"{{{lemma}.json}}"] for lemma in sorted(INSTANCES)),
]

# exit code and stdout sha256 of each argv, recorded before the integer
# storage of FiniteMeasure replaced the (site, Fraction) pairs
GOLDEN = {
    "dist conv {u01.json} {mu.json} {nu.json}":
        (0, "dc3170f82a121d0d971e3644cb351f370079f9705c3ca50c6595f770e2fb9427"),
    "dist conv {mu.json} {skew.txt} --format text":
        (0, "8ee284375b3607179de74a63fb99013477ae72d50d89ee80fc669102edc47152"),
    "dist stats {nu.json}":
        (0, "0b0e0d9c6e9f88d6fb175a0b617b6d78f8e869f66d53b253649121909f1f7d24"),
    "dist stats {skew.txt}":
        (0, "92414c35a72014acdc608d4a65105addd5857d58676017f64041110331942bf1"),
    "dist rearrange {nu.json} --kind plus":
        (0, "2dd298be34e896dfbc6766f7ef5d47fd2ffc256e7b23cc68ac7f5ad04ee8ae55"),
    "dist rearrange {nu.json} --kind minus":
        (0, "6a99c152f1160afcb3539f57335ee9697bfd82873f0280277f5f2132576aa073"),
    "dist rearrange {mup.json} --kind sym":
        (0, "07325017cbf5f43334904661cb0d21db8af9e48cf6e9391dfd43f2d040bc1cc9"),
    "dist squeeze {skew.txt}":
        (0, "06170ceecfb25f9554e99bea3598c7fbdc481c91176e4d17d79db436843c0513"),
    "extremal nu --alpha 2/7":
        (0, "a7b4745ddfa33f01abf0edb24d921cbf832729205721f9e016ec9f5aa61ce17c"),
    "extremal tse --alphas 3/5,2/5,1/3,1/3":
        (0, "dc398e4f8f55e5de6a69ab54855ef5484a2fb0d8744ba51f81321529a9ba3d4f"),
    "extremal tsebal --alphas 2/5,2/5,1/3,1/5":
        (0, "3bfc4f6a8bc721ecd502ff14dbdeea3f72f8c3fb97f4fad3d9a9299eb2ed5420"),
    "extremal oracle --alphas 1/2,2/5,1/3 --window 0..2":
        (0, "d25cfc0a95f11c944093d2c380148896573fe513c32499543268f1c09f5a0e8a"),
    "dominate {mup.json} {nu.json} --eps 1/10":
        (1, "8616c8b2795c381d979d9e442ce77122e834a9a0cddf1aed708f5b6c5395a25a"),
    "couple {mu.json} {mup.json} --eps 1/2":
        (0, "8ba78e06454a6177c035e86cfed3fe5036db3bac0cb7f61fa3917e9c14e0b21b"),
    "decompose {nu.json}":
        (0, "f18b4d422f5accaebd49508b86d00e664993a18573440acc552f48b09b37952b"),
    "scan-conjecture --denominator 4 --window 0..3 --n 2":
        (0, "45496ca5342d582fd75b631a4e62b72bcf7e8a716612083f7b1c4f329f7788b5"),
    "scan-conjecture --denominator 5 --window 0..2 --n 3 --budget 40 --seed 9":
        (0, "e99f4cc6acda2cdb6729f5a3a1010df4e4329a378de25ab1d9e3cfd827f161f3"),
    "check balanced_continuity_large --instance {balanced_continuity_large.json}":
        (0, "7a5760901d836c1e9aaa0e743b0017b291710f59e82328dcaa499781ef093302"),
    "check balanced_continuous --instance {balanced_continuous.json}":
        (0, "b09b434316377343ae172ed96d702aa6bf8a357ae6acdc4e8eb8ad437a3ee29c"),
    "check few_dropped --instance {few_dropped.json}":
        (0, "aa265c37a901bc942f67cfa2e52e2d4cb7cd6eb14b49691fbe211a88851cd7ef"),
    "check logconcdomination --instance {logconcdomination.json}":
        (0, "a86920e50350bf4a3bf1df1829832b114dd7e6c6c8b206450a1642259190a182"),
    "check logconcmode --instance {logconcmode.json}":
        (0, "c888c79bf06ad02dac214f0215f4e3352992ece68c1744813fa6df0b42160d1c"),
    "check midsize_alpha_continuity --instance {midsize_alpha_continuity.json}":
        (0, "dc094bdfc6bc402f2c9d71239f9fd90c721f96dad5b52d91f4d27a3bbcdfbd32"),
    "check odlyzko_richmond --instance {odlyzko_richmond.json}":
        (0, "75634ddfb678342926c84fff90172b6ed41370dc53941b8a69c6ddaecd0d5054"),
    "check peakednessl1 --instance {peakednessl1.json}":
        (0, "d252504c36921fea30f8d7bdae60a8a7a71af77bca532ebb93b0f4f641b9d11a"),
    "check peakednessl2 --instance {peakednessl2.json}":
        (0, "eefa4a12cfd8cfcd47614213a47f99f3dce683d01288d0dae6b3038619d7c4ac"),
    "check thm_tse --instance {thm_tse.json}":
        (0, "1ff681f6fdd3552e7b5bbdaa55a3c3ee7477133babbcac5d1329ba3b6d787f0b"),
}


def _run(argv, directory: Path) -> tuple[int, str]:
    resolved = []
    for arg in argv:
        if arg.startswith("{") and arg.endswith("}"):
            arg = str(directory / arg[1:-1])
        resolved.append(arg)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(resolved)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def _write_files(directory: Path) -> None:
    for name, content in FILES.items():
        (directory / name).write_text(content if isinstance(content, str) else json.dumps(content))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    _write_files(directory)
    return directory


@pytest.mark.parametrize("argv", ARGVS, ids=[" ".join(argv) for argv in ARGVS])
def test_stdout_is_byte_identical(argv, inputs):
    assert _run(argv, inputs) == GOLDEN[" ".join(argv)]


def test_every_argv_has_a_digest():
    assert set(GOLDEN) == {" ".join(argv) for argv in ARGVS}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _write_files(Path(tmp))
        for argv in ARGVS:
            code, digest = _run(argv, Path(tmp))
            sys.__stdout__.write(f'    "{" ".join(argv)}":\n        ({code}, "{digest}"),\n')
