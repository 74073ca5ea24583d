"""CLI `check` dispatch: one instance file per lemma."""

import json
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from conclab.cli import run
from conclab.dist import IntDist, uniform


def atoms(mu):
    return mu.to_json_obj()


SYM3 = atoms(IntDist([(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))]))
WIDE175 = atoms(uniform(range(-87, 88)))
RAMP175 = atoms(uniform(range(0, 175)))
WIDE1401 = atoms(uniform(range(-700, 701)))
RAMP1401 = atoms(uniform(range(0, 1401)))

INSTANCES = {
    "thm_tse": ({"alphas": ["1/2", "1/2"], "delta": "0", "window": [0, 1]}, "pass"),
    "logconcmode": (
        {"mu": atoms(uniform(range(100))), "i": 3, "gamma": "1/2"},
        "pass",
    ),
    "logconcdomination": (
        {"x": atoms(uniform(range(50))), "y": atoms(IntDist([(0, F(1))])), "eps": "1/100"},
        "pass",
    ),
    "few_dropped": ({"alphas": ["1/2"] * 40, "k": 0, "K": 2, "delta": "1/2"}, "pass"),
    "balanced_continuous": (
        {"alphas": ["1/2", "1/2"], "alpha": "1/2", "alpha_prime": "3/5"},
        "pass",
    ),
    "midsize_alpha_continuity": (
        {"K": 3, "alphas": ["4/9", "4/9"], "alphas_prime": ["7/18", "7/18"], "y": SYM3},
        "pass",
    ),
    "balanced_continuity_large": ({"K": 3, "ks": [3, 5], "y": SYM3}, "pass"),
    "peakednessl1": (
        {"x": RAMP1401, "ys": [WIDE1401], "z": WIDE1401, "eps": "9/10"},
        "pass",
    ),
    "peakednessl2": (
        {"x": RAMP175, "y": RAMP175, "x_prime": WIDE175, "y_prime": WIDE175, "eps": "2/5"},
        "pass",
    ),
    "odlyzko_richmond": ({"p": atoms(uniform([0, 1, 3])), "n": 60, "delta": "3/10"}, "pass"),
}


@pytest.mark.parametrize("lemma", sorted(INSTANCES))
def test_check_dispatch(lemma, tmp_path, capsys):
    instance, expected = INSTANCES[lemma]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance))
    code = run(["check", lemma, "--instance", str(path)])
    obj = json.loads(capsys.readouterr().out)
    assert obj["name"] == lemma
    assert obj["outcome"] == expected
    assert code == 0


def test_check_not_applicable_still_exit_zero(tmp_path, capsys):
    instance = {"alphas": ["1/2"] * 4, "k": 1, "K": 2, "delta": "1/2"}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance))
    assert run(["check", "few_dropped", "--instance", str(path)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["outcome"] == "not-applicable"


def test_check_failure_exits_one(tmp_path, capsys):
    instance = {"p": atoms(uniform([0, 1, 3])), "n": 20, "delta": "3/10"}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance))
    assert run(["check", "odlyzko_richmond", "--instance", str(path)]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["outcome"] == "fail"


def test_check_few_dropped_sign_other_than_plus_minus_one_exits_2(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"alphas": ["1/2"] * 4, "k": 0, "K": 3, "delta": "1/2", "signs": [0, 7, 1, -1]}))
    assert run(["check", "few_dropped", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: signs must hold one -1 or 1 per cap, got [0, 7, 1, -1]\n"


def test_check_bad_instance_exits_two(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"alphas": ["1/2"]}))
    assert run(["check", "few_dropped", "--instance", str(path)]) == 2


@pytest.mark.parametrize(
    "lemma, changes",
    [
        ("odlyzko_richmond", {"n": 20.7}),
        ("few_dropped", {"k": True, "K": 3.9}),
        ("logconcmode", {"i": "3"}),
        ("balanced_continuity_large", {"ks": [3, 5.0]}),
        ("thm_tse", {"window": "ab"}),
        ("thm_tse", {"window": [0, 1, 2]}),
        ("thm_tse", {"window": [0, 1.5]}),
        ("few_dropped", {"signs": "ab"}),
        ("few_dropped", {"signs": [1, 0.5]}),
    ],
    ids=[
        "float_n",
        "bool_k_float_K",
        "string_i",
        "float_in_ks",
        "string_window",
        "three_int_window",
        "float_in_window",
        "string_signs",
        "float_in_signs",
    ],
)
def test_check_integer_fields_must_be_json_integers(lemma, changes, tmp_path, capsys):
    instance = {**INSTANCES[lemma][0], **changes}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance))
    assert run(["check", lemma, "--instance", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: bad instance")


@pytest.mark.parametrize(
    "lemma, instance, message",
    [
        (
            "few_dropped",
            {"alphas": ["1/2", "1/2", "2/5", "2/5"], "k": 0, "K": 3, "delta": "1/2", "sing": [-1, 1, -1, 1]},
            "unknown field 'sing'",
        ),
        ("thm_tse", {**INSTANCES["thm_tse"][0], "windows": [0, 2]}, "unknown field 'windows'"),
        ("thm_tse", [1, 2], "an instance must be a JSON object"),
    ],
    ids=["misspelled_optional_field", "extra_field", "array"],
)
def test_check_rejects_what_it_does_not_read(lemma, instance, message, tmp_path, capsys):
    """A misspelled optional field would otherwise run the check without it."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance))
    assert run(["check", lemma, "--instance", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: bad instance: {message}\n")


def test_readme_instance_table_matches_the_parsers():
    from conclab.cli import _FIELD_PARSERS, _LEMMAS, _OPTIONAL_FIELDS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Checker instance files", 1)[1]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, flags=re.MULTILINE)
    documented = {lemma: re.findall(r"`([A-Za-z_]\w*)`", fields) for lemma, fields in rows}
    assert documented == {lemma: list(fields) for lemma, (_, fields) in _LEMMAS.items()}
    optional = {name for _, fields in rows for name in re.findall(r"optional `(\w+)`", fields)}
    assert optional == _OPTIONAL_FIELDS
    assert {name for _, fields in _LEMMAS.values() for name in fields} == set(_FIELD_PARSERS)
