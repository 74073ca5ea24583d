"""tools/ab.py: the paired summary on canned metric dicts; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

SPEC = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "ok_frac", "better": "higher", "bound": 0.01},
]


def _pairs(parent_wall, change_wall, parent_ok=None, change_ok=None):
    parent_ok = parent_ok or [1.0] * len(parent_wall)
    change_ok = change_ok or [1.0] * len(change_wall)
    return [
        ({"wall_s": pw, "ok_frac": po}, {"wall_s": cw, "ok_frac": co})
        for pw, cw, po, co in zip(parent_wall, change_wall, parent_ok, change_ok)
    ]


def test_wins_ties_and_iqr():
    pairs = _pairs([1.0, 2.0, 3.0, 4.0, 5.0], [0.9, 2.0, 3.5, 3.0, 5.0])
    wall, ok = ab.summarize(pairs, SPEC)
    assert (wall["parent"], wall["change"]) == (3.0, 3.0)
    assert wall["rel"] == 0.0
    # lower is better: two pairs fall, one rises, two tie
    assert (wall["change_wins"], wall["parent_wins"]) == (2, 1)
    assert wall["parent_iqr"] == 2.0  # quartiles 2 and 4 of 1..5
    assert wall["change_iqr"] == 1.5  # quartiles 2 and 3.5 of 0.9, 2, 3, 3.5, 5
    assert not wall["worse"] and not wall["gain"]
    assert (ok["change_wins"], ok["parent_wins"], ok["parent_iqr"], ok["worse"]) == (0, 0, 0.0, False)
    assert (ok["change_iqr"], ok["gain"]) == (0.0, False)


def test_the_gain_rule_needs_nine_tenths_of_the_pairs_and_a_gap_over_the_parent_iqr():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # median 1.45, IQR 0.45
    nine = [p - 0.5 for p in parent[:9]] + [2.0]
    assert ab.summarize(_pairs(parent, nine), SPEC)[0]["gain"]
    eight = [p - 0.5 for p in parent[:8]] + [2.0, 2.0]
    row = ab.summarize(_pairs(parent, eight), SPEC)[0]
    assert row["change_wins"] == 8 and not row["gain"]
    # every pair won, but the medians differ by 0.4, inside the parent's IQR of 0.45
    close = [p - 0.4 for p in parent]
    row = ab.summarize(_pairs(parent, close), SPEC)[0]
    assert row["change_wins"] == 10 and row["parent_iqr"] == pytest.approx(0.45) and not row["gain"]
    # higher is better: the rule follows the direction
    flat = [1.0] * 10
    assert ab.summarize(_pairs(flat, flat, [0.9] * 10, [1.0] * 10), SPEC)[1]["gain"]
    assert not ab.summarize(_pairs(flat, flat, [1.0] * 10, [0.9] * 10), SPEC)[1]["gain"]


def test_the_bound_flag_follows_the_direction_of_better():
    slower = ab.summarize(_pairs([1.0, 1.0, 1.0], [1.3, 1.3, 1.3]), SPEC)[0]
    assert slower["rel"] == pytest.approx(0.3) and slower["worse"]
    assert (slower["change_wins"], slower["parent_wins"]) == (0, 3)
    at_bound = ab.summarize(_pairs([1.0, 1.0], [1.25, 1.25]), SPEC)[0]
    assert not at_bound["worse"]
    faster = ab.summarize(_pairs([1.0, 1.0, 1.0], [0.5, 0.5, 0.5]), SPEC)[0]
    assert not faster["worse"] and faster["change_wins"] == 3
    # higher is better: a drop of 2% in ok_frac is over its 1% bound
    ok = ab.summarize(_pairs([1.0] * 3, [1.0] * 3, [1.0] * 3, [0.98] * 3), SPEC)[1]
    assert ok["worse"] and (ok["change_wins"], ok["parent_wins"]) == (0, 3)


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    parent = [1.0, 1.2, 1.4, 1.6, 1.8]  # median 1.4, IQR 0.4 over 0.25 * 1.4
    row = ab.summarize(_pairs(parent, [p + 0.1 for p in parent]), SPEC)[0]
    assert row["unresolved"] and not row["worse"]
    row = ab.summarize(_pairs(parent, [p + 0.5 for p in parent]), SPEC)[0]
    assert row["unresolved"] and row["worse"]
    row = ab.summarize(_pairs(parent, [0.9, 0.8, 0.7, 0.6, 0.5]), SPEC)[0]
    assert not row["unresolved"] and not row["worse"]
    # the same shift over a narrow parent spread is resolved
    narrow = [1.40, 1.41, 1.42, 1.43, 1.44]
    assert not ab.summarize(_pairs(narrow, [p + 0.1 for p in narrow]), SPEC)[0]["unresolved"]


def test_one_pair_has_no_spread():
    (wall, _) = ab.summarize(_pairs([2.0], [1.0]), SPEC)
    assert wall["parent_iqr"] == 0 and wall["rel"] == -0.5


def test_seed_lists():
    assert ab.parse_seeds("1-10") == list(range(1, 11))
    assert ab.parse_seeds("4") == [4]


def test_metrics_and_bounds_come_from_the_benchmark_file():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert ab.SPEC.resolve() == (ROOT / "BENCHMARK.json").resolve()
    canned = {m["name"]: 1.0 for m in declared}
    rows = ab.summarize([(canned, canned)], declared)
    assert [row["name"] for row in rows] == [m["name"] for m in declared]
    assert not any(row["worse"] for row in rows)


def test_runs_alternate_and_keep_their_side_when_both_trees_are_one(monkeypatch, tmp_path, capsys):
    # an A/A run: both sides are the same checkout, so a pair must still hold two runs
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    calls, seen = [], []

    def fake_run(tree, workload, seed, seconds):
        calls.append((tree, workload, seed, seconds))
        value = float(len(calls))
        return {"correct": True, "stdout_sha256": "d", "metrics": {m["name"]: {"value": value} for m in declared["end_to_end"]}}

    summarize = ab.summarize

    def recording_summarize(pairs, spec):
        seen.extend(pairs)
        return summarize(pairs, spec)

    monkeypatch.setattr(ab, "run_once", fake_run)
    monkeypatch.setattr(ab, "summarize", recording_summarize)
    monkeypatch.setattr("sys.argv", ["ab.py", str(tmp_path), str(tmp_path), "--workload", "clt", "--seeds", "1-2"])
    assert ab.main() == 0
    assert [(seed, seconds) for _, _, seed, seconds in calls] == [(1, declared["run_seconds"])] * 2 + [
        (2, declared["run_seconds"])
    ] * 2
    # seed 1: parent ran first (run 1), change second (run 2); seed 2: change first (run 3)
    assert [(p["wall_s"], c["wall_s"]) for p, c in seen] == [(1.0, 2.0), (4.0, 3.0)]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "clt, 2 pairs"
    wall = next(line for line in lines if line.startswith("wall_s"))
    # parent runs 1.0 and 4.0: an IQR of 1.5 over 0.25 times the median of 2.5
    assert "parent IQR 1.5  change IQR 0.5  no gain  unresolved" in wall
    assert lines[-2:] == ["stdout_sha256 equal in every pair: yes", "every run correct: yes"]
