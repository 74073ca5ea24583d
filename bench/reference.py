"""Naive exact references and output checks for the benchmark.

Everything here is written against the README's documented behaviour, not
against conclab's code, so a refactor of the program cannot change what the
benchmark accepts.  Distributions are plain ``{site: Fraction}`` dicts.

Each ``check_*`` function takes a job's stdout (and the job's own inputs) and
returns ``None`` when the output is acceptable, otherwise a short reason.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE = 0, 1, 2
OUTCOMES = ("pass", "fail", "not-applicable", "indeterminate")


def frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def fmt(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def dist_from_json(obj) -> dict:
    return {int(site): frac(mass) for site, mass in obj["atoms"]}


def dist_to_json(d: dict) -> dict:
    return {"atoms": [[site, fmt(mass)] for site, mass in sorted(d.items())]}


# -- exact references ---------------------------------------------------------


def convolve(a: dict, b: dict) -> dict:
    out: dict = {}
    for sa, ma in a.items():
        for sb, mb in b.items():
            out[sa + sb] = out.get(sa + sb, 0) + ma * mb
    return {s: m for s, m in out.items() if m}


def convolve_all(dists) -> dict:
    acc = {0: Fraction(1)}
    for d in dists:
        acc = convolve(acc, d)
    return acc


def q_max(d: dict) -> Fraction:
    return max(d.values())


def nu(alpha: Fraction) -> dict:
    """Mass alpha on 0..k-1 and the residue at k, k = floor(1/alpha)."""
    k = math.floor(1 / alpha)
    out = {i: alpha for i in range(k)}
    if 1 - k * alpha > 0:
        out[k] = 1 - k * alpha
    return out


def negate(d: dict) -> dict:
    return {-s: m for s, m in d.items()}


def tse_at_signs(alphas, signs) -> Fraction:
    return q_max(convolve_all(negate(nu(a)) if s < 0 else nu(a) for a, s in zip(alphas, signs)))


def tse_brute(alphas) -> Fraction:
    return max(tse_at_signs(alphas, signs) for signs in itertools.product((-1, 1), repeat=len(alphas)))


def extremal_in_window(alpha: Fraction, lo: int, hi: int) -> list[dict]:
    """Every law with floor(1/alpha) atoms of mass alpha plus the residue
    atom (when positive), supported in lo..hi."""
    k = math.floor(1 / alpha)
    residue = 1 - k * alpha
    sites = range(lo, hi + 1)
    out = []
    for support in itertools.combinations(sites, k):
        base = {s: alpha for s in support}
        if residue == 0:
            out.append(base)
        else:
            out.extend({**base, b: residue} for b in sites if b not in base)
    return out


def t_oracle_brute(alphas, window) -> Fraction:
    best = Fraction(0)
    for combo in itertools.product(*(extremal_in_window(a, *window) for a in alphas)):
        best = max(best, q_max(convolve_all(combo)))
    return best


def is_extremal_for(d: dict, alpha: Fraction, window) -> bool:
    return d in extremal_in_window(alpha, *window)


def variance(d: dict) -> Fraction:
    mean = sum(s * m for s, m in d.items())
    return sum(m * (s - mean) ** 2 for s, m in d.items())


def third_abs_moment(d: dict) -> Fraction:
    mean = sum(s * m for s, m in d.items())
    return sum(m * abs(s - mean) ** 3 for s, m in d.items())


def profile(d: dict) -> list[Fraction]:
    acc, out = Fraction(0), []
    for m in sorted(d.values(), reverse=True):
        acc += m
        out.append(acc)
    return out


def dominates(d1: dict, d2: dict, eps: Fraction) -> bool:
    p1, p2 = profile(d1), profile(d2)
    n = max(len(p1), len(p2))
    p1 += [Fraction(1)] * (n - len(p1))
    p2 += [Fraction(1)] * (n - len(p2))
    return all(a <= (1 + eps) * b for a, b in zip(p1, p2))


# -- output checks ------------------------------------------------------------


def check_report_obj(obj: dict, code: int, name: str | None = None) -> str | None:
    """A lemma report: outcome agrees with its margin and the exit code."""
    if name is not None and obj["name"] != name:
        return f"report for {obj['name']}, expected {name}"
    outcome = obj["outcome"]
    if outcome not in OUTCOMES:
        return f"unknown outcome {outcome!r}"
    if (code == EXIT_CHECK_FAILED) != (outcome == "fail") or code not in (EXIT_OK, EXIT_CHECK_FAILED):
        return f"exit {code} with outcome {outcome}"
    if outcome == "not-applicable":
        if obj["margin"] is not None or not obj["details"].get("reason"):
            return "not-applicable report without a reason or with a margin"
        return None
    lhs, rhs, margin = frac(obj["lhs"]), frac(obj["rhs"]), frac(obj["margin"])
    if margin != rhs - lhs:
        return "margin differs from rhs - lhs"
    if outcome == "pass" and margin < 0:
        return "pass with a negative margin"
    if outcome == "indeterminate" and margin >= 0:
        return "indeterminate with a nonnegative margin"
    if outcome == "fail" and margin >= 0 and not obj["details"].get("reason"):
        return "fail with a nonnegative margin and no reason"
    if len(obj["instance_digest"]) != 16:
        return "malformed instance digest"
    return None


def check_lemma(out: str, code: int, name: str) -> str | None:
    return check_report_obj(json.loads(out), code, name)


def check_scan(out: str, code: int, budget: int, sample) -> str | None:
    """Scan stream: one record per sampled tuple, then a summary line.

    `sample` picks the record indices whose lhs (q_max of the instance's
    convolution) and rhs (the sign-search optimum) are recomputed exactly.
    """
    lines = out.splitlines()
    summary = json.loads(lines[-1])
    records = [json.loads(line) for line in lines[:-1]]
    if summary["instances"] != budget or len(records) != budget:
        return f"scan produced {len(records)} records, expected {budget}"
    if not summary["mode"].startswith("sampled"):
        return f"scan ran in mode {summary['mode']}, expected sampled"
    violations = sum(r["violation"] for r in records)
    if violations != summary["violations"] or code != (EXIT_CHECK_FAILED if violations else EXIT_OK):
        return "violation count disagrees with the records or the exit code"
    for i, rec in enumerate(records):
        lhs, rhs = frac(rec["lhs"]), frac(rec["rhs"])
        if rec["index"] != i or frac(rec["margin"]) != rhs - lhs or rec["violation"] != (lhs > rhs):
            return f"record {i} is inconsistent"
    for i in sample(len(records)):
        rec = records[i]
        inst = [dist_from_json(d) for d in rec["instance"]]
        alphas = sorted((q_max(d) for d in inst), reverse=True)
        if [fmt(a) for a in alphas] != rec["alphas"]:
            return f"record {i}: alphas differ from the instance caps"
        if frac(rec["lhs"]) != q_max(convolve_all(inst)):
            return f"record {i}: lhs differs from the reference convolution"
        if frac(rec["rhs"]) != tse_brute(alphas):
            return f"record {i}: rhs differs from the reference sign search"
    return None


def check_tse(out: str, code: int, alphas: list[Fraction]) -> str | None:
    obj = json.loads(out)
    canon = sorted(alphas, reverse=True)
    if code != EXIT_OK or obj["alphas"] != [fmt(a) for a in canon] or len(obj["signs"]) != len(canon):
        return "tse report does not match its input"
    if frac(obj["tse"]) != tse_at_signs(canon, obj["signs"]):
        return "tse value differs from q_max at the reported signs"
    return None


def check_oracle(out: str, code: int, alphas: list[Fraction], window, exact: bool) -> str | None:
    obj = json.loads(out)
    canon = sorted(alphas, reverse=True)
    if code != EXIT_OK or obj["window"] != list(window):
        return "oracle report does not match its input"
    witness = [dist_from_json(d) for d in obj["witness"]]
    if not all(is_extremal_for(w, a, window) for w, a in zip(witness, canon)) or len(witness) != len(canon):
        return "witness is not a tuple of window-supported extremal laws"
    value = frac(obj["value"])
    if q_max(convolve_all(witness)) != value:
        return "witness does not attain the reported value"
    if exact and value != t_oracle_brute(canon, window):
        return "oracle value differs from the reference enumeration"
    return None


def check_tsebal(out: str, code: int, alphas: list[Fraction]) -> str | None:
    obj = json.loads(out)
    if code != EXIT_OK or obj["alphas"] != [fmt(a) for a in sorted(alphas, reverse=True)]:
        return "tsebal report does not match its input"
    value = frac(obj["tsebal"])
    return None if 0 < value <= 1 else "tsebal outside (0, 1]"


def check_conv(out: str, code: int, inputs: list[dict]) -> str | None:
    if code != EXIT_OK or dist_from_json(json.loads(out)) != convolve_all(inputs):
        return "convolution differs from the reference"
    return None


def check_stats(out: str, code: int, d: dict) -> str | None:
    obj = json.loads(out)
    mean = sum(s * m for s, m in d.items())
    want = {"mean": fmt(mean), "variance": fmt(variance(d)), "q_max": fmt(q_max(d)), "atoms": len(d)}
    if code != EXIT_OK or any(obj[k] != v for k, v in want.items()):
        return "stats differ from the reference"
    return None


def check_rearrange(out: str, code: int, d: dict, kind: str) -> str | None:
    """Masses sorted descending at 0, 1, -1, 2, -2, ... (mirrored for minus)."""
    obj = json.loads(out)
    ranked = sorted(d.values(), reverse=True)
    sign = -1 if kind == "minus" else 1
    want = {sign * ((r + 1) // 2 if r % 2 else -(r // 2)): m for r, m in enumerate(ranked)}
    if kind == "sym" and "exists" in obj:
        return None if code == EXIT_OK and obj["exists"] is False else "bad sym report"
    if code != EXIT_OK or dist_from_json(obj) != want:
        return "rearrangement differs from the reference layout"
    return None


def check_dominate(out: str, code: int, d1: dict, d2: dict, eps: Fraction) -> str | None:
    obj = json.loads(out)
    holds = dominates(d1, d2, eps)
    if obj["holds"] != holds or code != (EXIT_OK if holds else EXIT_CHECK_FAILED):
        return "domination verdict differs from the reference"
    return None


def check_couple(out: str, code: int, mu: dict, mu_prime: dict, eps: Fraction) -> str | None:
    """Marginals are plus_rearrange(mu) and mu_prime; P(A) >= 1/(1+eps); on A
    every cell has 0 <= x' <= z or z-1 <= x' <= 0."""
    obj = json.loads(out)
    cells = [(z, x, flag, frac(m)) for z, x, flag, m in obj["cells"]]
    if code != EXIT_OK or sum(m for *_, m in cells) != 1:
        return "coupling masses do not sum to 1"
    prob_a = sum(m for _, _, flag, m in cells if flag)
    if frac(obj["prob_A"]) != prob_a or prob_a < 1 / (1 + eps):
        return "P(A) wrong or below 1/(1+eps)"
    if any(flag and not (0 <= x <= z or z - 1 <= x <= 0) for z, x, flag, _ in cells):
        return "a cell of A breaks the ordering contract"
    marg_x: dict = {}
    for _, x, _, m in cells:
        marg_x[x] = marg_x.get(x, 0) + m
    if marg_x != mu_prime:
        return "x' marginal differs from mu_prime"
    if sorted(mu.values()) != sorted(_marginal_z(cells).values()):
        return "z marginal is not a rearrangement of mu"
    return None


def _marginal_z(cells) -> dict:
    out: dict = {}
    for z, _, _, m in cells:
        out[z] = out.get(z, 0) + m
    return out


def check_decompose(out: str, code: int, d: dict) -> str | None:
    obj = json.loads(out)
    rebuilt: dict = {}
    edges = []
    for w, (a, b) in obj["parts"]:
        w = frac(w)
        rebuilt[a] = rebuilt.get(a, 0) + w / 2
        rebuilt[b] = rebuilt.get(b, 0) + w / 2
        edges.append((a, b))
    if code != EXIT_OK or rebuilt != d or obj["connected"] is not True or not _connected(set(d), edges):
        return "decomposition does not rebuild a connected graph on the support"
    return None


def _connected(vertices: set, edges) -> bool:
    seen, stack = set(), [min(vertices)]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(b for a, b in edges if a == v)
            stack.extend(a for a, b in edges if b == v)
    return seen == vertices


def check_gap_fit(out: str, code: int, values: list[int], eps: Fraction) -> str | None:
    """A rank-1 symmetric progression {j*g : |j| <= M} (or {0}) covering at
    least a (1 - eps) share of the values."""
    obj = json.loads(out)
    if code != EXIT_OK or obj is None:
        return "no progression returned"
    if obj["rank"] == 0:
        covered = sum(v == 0 for v in values)
    else:
        g, m = frac(obj["generators"][0]), obj["dims"][0]
        covered = sum(1 for v in values if (v / g).denominator == 1 and abs(v / g) <= m)
    return None if covered >= (1 - eps) * len(values) else "progression covers too few values"


def check_gap_proper(out: str, code: int, dims: list[int], gens: list[int]) -> str | None:
    obj = json.loads(out)
    elems = {sum(j * g for j, g in zip(js, gens)) for js in itertools.product(*(range(-m, m + 1) for m in dims))}
    volume = math.prod(2 * m + 1 for m in dims)
    if code != EXIT_OK or obj["volume"] != volume or obj["distinct"] != len(elems):
        return "volume or distinct count differs from the reference"
    return None if obj["proper"] == (len(elems) == volume) else "properness verdict differs"


def check_lattice_basis(out: str, code: int, vectors: list[list[int]]) -> str | None:
    obj = json.loads(out)
    matrix = obj["matrix"]
    for v in vectors:
        c = obj["coords"][",".join(map(str, v))]
        if [sum(row[j] * c[j] for j in range(obj["rank"])) for row in matrix] != v:
            return f"basis does not reproduce {v}"
    return None if code == EXIT_OK else f"exit {code}"


def check_report_stream(out: str, code: int, outcomes: list[tuple[str, str]]) -> str | None:
    want: dict = {}
    for name, outcome in outcomes:
        want.setdefault(name, dict.fromkeys(OUTCOMES, 0))[outcome] += 1
    failed = any(b["fail"] for b in want.values())
    if json.loads(out) != want or code != (EXIT_CHECK_FAILED if failed else EXIT_OK):
        return "report tallies differ from the reference"
    return None


def check_tv(out: str, code: int, ms: list[int]) -> str | None:
    rows = json.loads(out)["curve"]
    if code != EXIT_OK or [r["m"] for r in rows] != ms:
        return "tv curve rows do not match the requested powers"
    for r in rows:
        if not (0 <= r["tv"] <= 1 and r["tv_err"] > 0 and r["L"] > 0 and r["chi"] > 0):
            return f"tv row for m={r['m']} outside its ranges"
    return None


def check_be_gap(out: str, code: int, base: dict, repeat: int) -> str | None:
    obj = json.loads(out)
    holds = obj["max_cdf_gap"] <= obj["c_be"] * obj["bound"]
    if obj["holds"] != holds or code != (EXIT_OK if holds else EXIT_CHECK_FAILED):
        return "be-gap verdict disagrees with its numbers or exit code"
    if not (0 <= obj["max_cdf_gap"] <= 1 and obj["bound"] > 0):
        return "be-gap numbers outside their ranges"
    if frac(obj["variance"]) != repeat * variance(base) or frac(obj["third_moment"]) != repeat * third_abs_moment(base):
        return "be-gap moments differ from the reference"
    return None


def check_cells(out: str, code: int, box) -> str | None:
    obj = json.loads(out)
    cells = obj["cells"]
    if code != EXIT_OK or len(cells) != math.prod(hi - lo + 1 for lo, hi in box):
        return "cell table does not cover the box"
    if not all(0 <= p <= 1 and err > 0 for _, p, err in cells) or not 0 <= obj["tail_bound"] <= 1:
        return "cell probabilities or errors outside their ranges"
    if sum(p for _, p, _ in cells) > 1 + sum(err for *_, err in cells):
        return "cell probabilities exceed 1 beyond their errors"
    return None
