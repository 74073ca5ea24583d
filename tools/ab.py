"""Paired A/B runs of the end-to-end benchmark between two source trees.

    python3 tools/ab.py PARENT CHANGE --workload clt --seeds 1-10

For each seed, runs each tree's own ``bench/run.py`` once for the
``run_seconds`` of ``BENCHMARK.json``, and alternates which side runs first
(on a shared machine the side that runs first tends to read faster).  For
each end-to-end metric of ``BENCHMARK.json`` it prints
both medians, the change's relative change, the paired wins (a tie counts
for neither side), the parent's and the change's interquartile ranges,
whether the row meets the gain rule (the change wins at least nine tenths of
the pairs, and its median is better than the parent's by more than the
parent's interquartile range), and whether the change's median is worse
than the parent's by more than the metric's bound.  Where the parent's
interquartile range is wider than the bound times the parent's median, the
runs cannot tell a change within the bound from one beyond it, so the row
reads ``unresolved`` instead, unless every change run is better than every
parent run.
Then it says whether every pair printed equal ``stdout_sha256`` and whether
every run was ``correct``, and exits 1 if either is not so.

The run length, metric names, ``better`` and ``bound`` are read from the
``BENCHMARK.json`` of the checkout that holds this script.  Passing one
checkout as both trees gives an A/A run, the noise floor of the machine.

This script parses the output of ``bench/run.py``: the record on the
second-to-last stdout line (its ``stdout_sha256``) and the result on the
last (``correct`` and ``metrics[name]["value"]``).  A change to that
output must change this script too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def parse_seeds(text: str) -> list[int]:
    """'1-10' to the seeds 1 to 10; '4' to the seed 4."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of tree's bench/run.py: its result line with the
    record's stdout digest added."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True).stdout.splitlines()
    record, result = json.loads(out[-2])["record"], json.loads(out[-1])
    return {**result, "stdout_sha256": record["stdout_sha256"]}


def summarize(pairs: list[tuple[dict, dict]], spec: list[dict]) -> list[dict]:
    """One row per metric of spec over (parent, change) pairs of
    ``{metric: value}``: medians, relative change, wins, both IQRs, whether
    the gain rule is met, whether the change is worse than the parent by
    more than the bound, and whether the parent's spread leaves that
    unresolved."""
    rows = []
    for metric in spec:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        rel = (c_med - p_med) / p_med if p_med else (0.0 if c_med == p_med else float("inf"))
        change_wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        parent_iqr = iqr(parent)
        rows.append(
            {
                "name": name,
                "parent": p_med,
                "change": c_med,
                "rel": rel,
                "change_wins": change_wins,
                "parent_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                "parent_iqr": parent_iqr,
                "change_iqr": iqr(change),
                "gain": 10 * change_wins >= 9 * len(pairs) and sign * (p_med - c_med) > parent_iqr,
                "worse": sign * rel > metric["bound"],
                "unresolved": parent_iqr > metric["bound"] * p_med
                and max(sign * c for c in change) >= min(sign * p for p in parent),
            }
        )
    return rows


def iqr(values: list[float]) -> float:
    """Distance between the quartiles; 0 for a single value."""
    if len(values) < 2:
        return 0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    args = parser.parse_args()
    bench = json.loads(SPEC.read_text())
    spec, seconds = bench["end_to_end"], bench["run_seconds"]

    runs = []
    for i, seed in enumerate(args.seeds):
        order = (args.parent, args.change) if i % 2 == 0 else (args.change, args.parent)
        first, second = (run_once(tree, args.workload, seed, seconds) for tree in order)
        runs.append((first, second) if i % 2 == 0 else (second, first))
        print(f"seed {seed}: {'parent' if i % 2 == 0 else 'change'} ran first", file=sys.stderr)

    values = [tuple({k: v["value"] for k, v in run["metrics"].items()} for run in pair) for pair in runs]
    print(f"{args.workload}, {len(runs)} pairs")
    for row in summarize(values, spec):
        print(
            f"{row['name']:<12} parent {row['parent']:.4g}  change {row['change']:.4g}  {row['rel']:+.1%}  "
            f"wins {row['change_wins']}-{row['parent_wins']}  parent IQR {row['parent_iqr']:.3g}  "
            f"change IQR {row['change_iqr']:.3g}  {'gain rule met' if row['gain'] else 'no gain'}  "
            f"{'unresolved' if row['unresolved'] else 'WORSE than bound' if row['worse'] else 'within bound'}"
        )
    same = all(p["stdout_sha256"] == c["stdout_sha256"] for p, c in runs)
    correct = all(run["correct"] for pair in runs for run in pair)
    print(f"stdout_sha256 equal in every pair: {'yes' if same else 'NO'}")
    print(f"every run correct: {'yes' if correct else 'NO'}")
    return 0 if same and correct else 1


if __name__ == "__main__":
    sys.exit(main())
