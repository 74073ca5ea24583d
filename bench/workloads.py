"""Seeded job lists for the three workloads.

A job is one ``conclab`` command line plus the check its output must pass.
Inputs come from this file's own ``random.Random`` streams, never from
``conclab.verify.random_instance``, so a refactor of the program cannot change
a workload.  Every list has a fixed composition: the seed picks values, while
the number of jobs of each kind and their sizes (cap counts, powers, atom
counts) stay the same, so seeds differ in data but not in cost class.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

import reference as ref



@dataclass
class Job:
    kind: str
    argv: list[str]
    check: Callable[[str, int], str | None]
    valid: bool = True  # False: malformed input whose contract answer is exit 2


class Inputs:
    """Writes input files under the workload's scratch directory."""

    def __init__(self, root: Path):
        self.root = root
        self.count = 0

    def write(self, content) -> str:
        self.count += 1
        path = self.root / f"in{self.count:05d}.json"
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        return str(path)


def fmt_list(values) -> str:
    return ",".join(ref.fmt(v) for v in values)


def weights_to_dist(sites, weights) -> dict:
    total = sum(weights)
    return {s: F(w, total) for s, w in zip(sites, weights)}


def random_dist(rng, atoms: int, lo: int = -8, hi: int = 8, max_weight: int = 9) -> dict:
    return weights_to_dist(sorted(rng.sample(range(lo, hi + 1), atoms)),
                           [rng.randint(1, max_weight) for _ in range(atoms)])


def symmetric_unimodal(rng, radius: int, max_weight: int = 9) -> dict:
    levels = [rng.randint(radius + 1, max_weight + radius)]
    for _ in range(radius):
        levels.append(rng.randint(1, levels[-1]))
    total = levels[0] + 2 * sum(levels[1:])
    out = {0: F(levels[0], total)}
    for i in range(1, radius + 1):
        out[i] = out[-i] = F(levels[i], total)
    return out


def concave_weights(rng, length: int) -> list[int]:
    """Positive concave integer sequence (a trapezoid): log-concave."""
    up, down, top = rng.randint(1, 4), rng.randint(1, 4), rng.randint(length, 3 * length)
    return [min(up * (i + 1), down * (length - i), top) for i in range(length)]


def lemma_job(inputs, lemma, instance, kind=None) -> Job:
    return Job(kind or f"check.{lemma}", ["check", lemma, "--instance", inputs.write(instance)],
               lambda out, code: ref.check_lemma(out, code, lemma))


def not_applicable_job(inputs, lemma, instance) -> Job:
    def check(out, code):
        problem = ref.check_lemma(out, code, lemma)
        if problem is None and json.loads(out)["outcome"] != "not-applicable":
            return "a broken precondition was not reported as not-applicable"
        return problem

    return Job(f"check.{lemma}.na", ["check", lemma, "--instance", inputs.write(instance)], check)


def usage_job(kind, argv) -> Job:
    return Job(kind, argv, lambda out, code: None if code == ref.EXIT_USAGE else f"exit {code}, expected 2",
               valid=False)


# -- search -------------------------------------------------------------------


def mid_caps(denominator: int) -> list[F]:
    """Caps j/denominator strictly between 1/3 and 1/2: nu(alpha) has three
    atoms, and one denominator per job keeps the cost of exact arithmetic
    about the same from seed to seed."""
    return [F(j, denominator) for j in range(denominator // 3 + 1, (denominator + 1) // 2)
            if F(1, 3) < F(j, denominator) < F(1, 2)]


def tse_caps(rng, n: int, integer_inverse: int, tied: bool) -> list[F]:
    """n caps over 60ths, `integer_inverse` of them pruned from the sign
    search.  Tied caps take at most three distinct values."""
    pool = mid_caps(60)
    free = n - integer_inverse
    if tied:
        values = rng.sample(pool, 2 if integer_inverse else 3)
        caps = values + [rng.choice(values) for _ in range(free - len(values))]
        caps += [F(1, 2)] * integer_inverse
    else:
        caps = rng.sample(pool, free) + [F(1, 2), F(1, 3), F(1, 4)][:integer_inverse]
    rng.shuffle(caps)
    return caps


def search(rng, inputs) -> list[Job]:
    """Ranks 1-8 of a pass are light jobs, 9-22 sampled scans (the median
    falls among them), then ten window oracles and sign searches of similar
    cost (the 90th percentile falls among them)."""
    jobs = []
    for denominator, n in [(6, 3)] * 4 + [(7, 3)] * 4 + [(6, 4)] * 3 + [(8, 3), (8, 3), (8, 4)]:
        budget = 150
        picked = sorted(rng.sample(range(budget), 3))
        argv = ["scan-conjecture", "--denominator", str(denominator), "--window", "0..5", "--n", str(n),
                "--budget", str(budget), "--seed", str(rng.randrange(10**6))]
        jobs.append(Job(f"scan.d{denominator}n{n}", argv,
                        lambda out, code, b=budget, p=picked: ref.check_scan(out, code, b, lambda _: p)))
    # (caps, of which integer-inverse): every search has 2**8 sign leaves.
    for n, fixed in [(8, 0), (9, 1), (10, 2)]:
        for tied in (True, False):
            caps = tse_caps(rng, n, fixed, tied)
            jobs.append(Job(f"tse.n{n}.{'tied' if tied else 'distinct'}", ["extremal", "tse", "--alphas", fmt_list(caps)],
                            lambda out, code, c=caps: ref.check_tse(out, code, c)))
    for high in (0, 0, 1, 1):
        caps = rng.sample(mid_caps(60), 3 - high) + [F(rng.randint(31, 59), 60)] * high
        exact = rng.random() < 0.5
        jobs.append(Job("oracle", ["extremal", "oracle", "--alphas", fmt_list(caps), "--window", "0..3"],
                        lambda out, code, c=caps, e=exact: ref.check_oracle(out, code, c, (0, 3), e)))
    for pairs in (2, 3, 4, 5):
        caps = [c for c in rng.sample(mid_caps(60), pairs) for _ in range(2)] + rng.choice([[], [F(1, 3)], [F(1, 5)]])
        jobs.append(Job("tsebal", ["extremal", "tsebal", "--alphas", fmt_list(caps)],
                        lambda out, code, c=caps: ref.check_tsebal(out, code, c)))
    for caps, hi in [(2, 3), (3, 2)]:
        alphas = rng.sample(mid_caps(60), caps)
        inst = {"alphas": [ref.fmt(a) for a in alphas], "delta": rng.choice(["0", "1/10"]), "window": [0, hi]}
        jobs.append(lemma_job(inputs, "thm_tse", inst))
    for n in (24, 32):
        inst = {"alphas": [ref.fmt(rng.choice(mid_caps(60))) for _ in range(n)], "k": 0, "K": 3,
                "delta": "1/2", "signs": [rng.choice((-1, 1)) for _ in range(n)]}
        jobs.append(lemma_job(inputs, "few_dropped", inst))
    return jobs


# -- clt ----------------------------------------------------------------------


def lattice_json(d: dict) -> dict:
    return {"atoms": [[list(site), ref.fmt(m)] for site, m in sorted(d.items())]}


def random_spec(rng, dim: int) -> dict:
    mean = [round(rng.uniform(-0.5, 0.5), 3) for _ in range(dim)]
    diag = [round(rng.uniform(0.8, 1.6), 3) for _ in range(dim)]
    cov = [[diag[i] if i == j else 0.0 for j in range(dim)] for i in range(dim)]
    for i in range(dim - 1):
        cov[i][i + 1] = cov[i + 1][i] = round(rng.uniform(-0.3, 0.3), 3)
    return {"mean": mean, "cov": cov}


def composition(rng, total: int, parts: int) -> list[int]:
    """Random positive integers summing to `total`.  With a prime total no
    mass reduces, so every seed gives convolution powers denominators of the
    same bit length."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


def clt(rng, inputs) -> list[Job]:
    """Ranks 1-12 of a pass are cell tables and a small power, 13-22 jobs
    of about a tenth of a second (the median falls among them), 23-26
    larger powers, and 27-32 the six heaviest jobs of similar cost (the
    90th percentile falls among them)."""
    jobs = []

    def tv(sites, total, m):
        base = weights_to_dist(sites, composition(rng, total, len(sites)))
        kind = f"tv.d{len(sites[0])}.m{m}"
        jobs.append(Job(kind, ["gauss", "tv", inputs.write(lattice_json(base)), "--pow", str(m)],
                        lambda out, code, ms=[m]: ref.check_tv(out, code, ms)))

    # Support and window stay fixed: the seed moves only the weights.
    def odlyzko(n):
        p = weights_to_dist([0, 1, 3], composition(rng, 13, 3))
        inst = {"p": ref.dist_to_json(p), "n": n, "delta": "3/10"}
        jobs.append(lemma_job(inputs, "odlyzko_richmond", inst, kind=f"check.odlyzko_richmond.n{n}"))

    def be_gap(repeat):
        base = weights_to_dist([0, 1, 3], composition(rng, 13, 3))
        argv = ["be-gap", inputs.write(ref.dist_to_json(base)), "--repeat", str(repeat)]
        jobs.append(Job(f"be-gap.r{repeat}", argv, lambda out, code, b=base, r=repeat: ref.check_be_gap(out, code, b, r)))

    def cells(dim, radius, tol):
        box = [(-radius, radius)] * dim
        argv = ["gauss", "cells", "--spec", inputs.write(random_spec(rng, dim)),
                "--box=" + ",".join(f"{lo}..{hi}" for lo, hi in box), "--tol", tol, "--seed", str(rng.randrange(10**6))]
        jobs.append(Job(f"cells.d{dim}.r{radius}", argv, lambda out, code, b=box: ref.check_cells(out, code, b)))

    line = [(i,) for i in range(5)]
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    for _ in range(8):
        cells(2, 2, "1e-9")
    for _ in range(2):
        cells(3, 1, "1e-2")
        tv(square, 17, 8)
    for _ in range(2):
        tv(square, 17, 16)
        tv(line[:3], 13, 128)
        be_gap(64)
        odlyzko(192)
        cells(3, 2, "1e-2")
    tv(line[:3], 13, 192)
    tv(square, 17, 24)
    tv(line[:3], 13, 256)
    odlyzko(256)
    tv(line[:4], 17, 192)
    tv(line[:5], 19, 160)
    tv(square, 17, 32)
    tv(line[:3], 13, 320)
    odlyzko(320)
    be_gap(128)
    return jobs


# -- lemmas -------------------------------------------------------------------

SYM3 = {-1: F(1, 4), 0: F(1, 2), 1: F(1, 4)}


def uniform(lo: int, hi: int) -> dict:
    return {s: F(1, hi - lo + 1) for s in range(lo, hi + 1)}


def lemma_instances(rng, inputs) -> list[Job]:
    """Each lemma with instances meant to pass and with one broken
    precondition (odlyzko_richmond also fails at small n)."""
    J = ref.dist_to_json
    jobs = []
    caps = lambda k: [ref.fmt(c) for c in rng.sample(mid_caps(60), k)]
    for _ in range(2):
        jobs.append(lemma_job(inputs, "thm_tse", {"alphas": caps(2), "delta": "0", "window": [0, 2]}))
        jobs.append(not_applicable_job(inputs, "thm_tse", {"alphas": caps(2), "delta": "-1/10", "window": [0, 2]}))

        length = rng.randint(60, 100)
        mu = weights_to_dist(range(length), concave_weights(rng, length))
        jobs.append(lemma_job(inputs, "logconcmode", {"mu": J(mu), "i": rng.randint(1, 3), "gamma": "1/2"}))
        jobs.append(not_applicable_job(inputs, "logconcmode", {"mu": J(mu), "i": 2, "gamma": "1"}))

        length = rng.randint(30, 60)
        x = weights_to_dist(range(length), concave_weights(rng, length))
        jobs.append(lemma_job(inputs, "logconcdomination", {"x": J(x), "y": J(SYM3), "eps": "1/50"}))
        jobs.append(not_applicable_job(inputs, "logconcdomination", {"x": J(x), "y": J(SYM3), "eps": "0"}))

        n = rng.randint(10, 16)
        jobs.append(lemma_job(inputs, "few_dropped", {"alphas": caps(1) * n, "k": 0, "K": 3, "delta": "1/2"}))
        jobs.append(not_applicable_job(inputs, "few_dropped", {"alphas": caps(1) * n, "k": 1, "K": 3, "delta": "1/2"}))

        prefix = [c for c in caps(2) for _ in range(2)]
        jobs.append(lemma_job(inputs, "balanced_continuous",
                              {"alphas": prefix, "alpha": rng.choice(["1/2", "4/7", "3/5"]), "alpha_prime": "2/3"}))
        jobs.append(not_applicable_job(inputs, "balanced_continuous",
                                       {"alphas": prefix, "alpha": "2/3", "alpha_prime": "3/5"}))

        step = rng.choice([4, 5])
        alphas = [f"{step}/9"] * 2
        primes = [f"{2 * step - 1}/18"] * 2
        y = symmetric_unimodal(rng, 1)
        jobs.append(lemma_job(inputs, "midsize_alpha_continuity",
                              {"K": 3, "alphas": alphas, "alphas_prime": primes, "y": J(SYM3)}))
        jobs.append(not_applicable_job(inputs, "midsize_alpha_continuity",
                                       {"K": 1, "alphas": alphas, "alphas_prime": primes, "y": J(y)}))

        ks = sorted(rng.sample([3, 5, 7, 9], 2))
        jobs.append(lemma_job(inputs, "balanced_continuity_large", {"K": 3, "ks": ks, "y": J(SYM3)}))
        jobs.append(not_applicable_job(inputs, "balanced_continuity_large", {"K": 3, "ks": [4, *ks], "y": J(SYM3)}))

        # A passing peakednessl1 instance needs ~1400-atom laws (about a
        # second each), so only its precondition checks are exercised here.
        x = random_dist(rng, 4)
        jobs.append(not_applicable_job(inputs, "peakednessl1",
                                       {"x": J(x), "ys": [J(SYM3)], "z": J(SYM3), "eps": "1"}))
        jobs.append(not_applicable_job(inputs, "peakednessl1",
                                       {"x": J(x), "ys": [J(random_dist(rng, 3))], "z": J(SYM3), "eps": "1/2"}))

        half = rng.randint(86, 92)
        ramp, wide = J(uniform(0, 2 * half)), J(uniform(-half, half))
        jobs.append(lemma_job(inputs, "peakednessl2",
                              {"x": ramp, "y": ramp, "x_prime": wide, "y_prime": wide, "eps": "2/5"}))
        jobs.append(not_applicable_job(inputs, "peakednessl2",
                                       {"x": ramp, "y": ramp, "x_prime": wide, "y_prime": wide, "eps": "1/2"}))

        p = weights_to_dist([0, 1, 3], [rng.randint(1, 9) for _ in range(3)])
        for n in (20, rng.randint(40, 80)):
            jobs.append(lemma_job(inputs, "odlyzko_richmond", {"p": J(p), "n": n, "delta": "3/10"}))
        jobs.append(not_applicable_job(inputs, "odlyzko_richmond", {"p": J(p), "n": 40, "delta": "0"}))
    return jobs


def coupling_pair(rng, wide: bool):
    """(mu, mu_prime, eps): mu_prime symmetric unimodal and eps the smallest
    slack for which mu's profile is dominated."""
    if wide:
        mu, mu_prime = random_dist(rng, 16, -20, 20, 99), symmetric_unimodal(rng, 10, 30)
    else:
        mu, mu_prime = random_dist(rng, rng.randint(2, 6)), symmetric_unimodal(rng, rng.randint(1, 3))
    p1, p2 = ref.profile(mu), ref.profile(mu_prime)
    n = max(len(p1), len(p2))
    p1, p2 = p1 + [F(1)] * (n - len(p1)), p2 + [F(1)] * (n - len(p2))
    eps = max(F(0), *(a / b - 1 for a, b in zip(p1, p2)))
    return mu, mu_prime, eps


def split_admissible(rng) -> dict:
    """At least two atoms, none above 1/2."""
    while True:
        d = random_dist(rng, rng.randint(2, 6))
        if ref.q_max(d) <= F(1, 2):
            return d


def lemmas(rng, inputs) -> list[Job]:
    """About four fifths of a pass are light one-shot calls.  The other
    fifth, at about three times their latency, holds the 90th percentile:
    wide couplings, rank-3 progressions and two lemma checks with real
    arithmetic, sixteen of each."""
    J = ref.dist_to_json
    jobs = lemma_instances(rng, inputs)
    for _ in range(16):
        p = weights_to_dist([0, 1, 3], composition(rng, 13, 3))
        jobs.append(lemma_job(inputs, "odlyzko_richmond", {"p": J(p), "n": 40, "delta": "3/10"},
                              kind="check.odlyzko_richmond.n40"))
        caps = [ref.fmt(rng.choice(mid_caps(60))) for _ in range(14)]
        jobs.append(lemma_job(inputs, "few_dropped", {"alphas": caps, "k": 0, "K": 3, "delta": "1/2"},
                              kind="check.few_dropped.n14"))
    for wide in (False,) * 12 + (True,) * 16:
        mu, mu_prime, eps = coupling_pair(rng, wide)
        argv = ["couple", inputs.write(J(mu)), inputs.write(J(mu_prime)), "--eps", ref.fmt(eps)]
        jobs.append(Job("couple.wide" if wide else "couple", argv,
                        lambda out, code, a=mu, b=mu_prime, e=eps: ref.check_couple(out, code, a, b, e)))
    for _ in range(20):
        d1, d2 = random_dist(rng, rng.randint(1, 6)), random_dist(rng, rng.randint(1, 6))
        eps = rng.choice([F(0), F(1, 10), F(1, 2)])
        argv = ["dominate", inputs.write(J(d1)), inputs.write(J(d2)), "--eps", ref.fmt(eps)]
        jobs.append(Job("dominate", argv, lambda out, code, a=d1, b=d2, e=eps: ref.check_dominate(out, code, a, b, e)))
    for _ in range(20):
        d = split_admissible(rng)
        jobs.append(Job("decompose", ["decompose", inputs.write(J(d))],
                        lambda out, code, d=d: ref.check_decompose(out, code, d)))
    for _ in range(20):
        d = random_dist(rng, rng.randint(1, 8))
        jobs.append(Job("dist.stats", ["dist", "stats", inputs.write(J(d))],
                        lambda out, code, d=d: ref.check_stats(out, code, d)))
    for i in range(24):
        d = random_dist(rng, rng.randint(1, 8), max_weight=3)
        kind = ("plus", "minus", "sym")[i % 3]
        jobs.append(Job(f"dist.rearrange.{kind}", ["dist", "rearrange", inputs.write(J(d)), "--kind", kind],
                        lambda out, code, d=d, k=kind: ref.check_rearrange(out, code, d, k)))
    for _ in range(20):
        ds = [random_dist(rng, rng.randint(1, 5)) for _ in range(rng.randint(2, 3))]
        jobs.append(Job("dist.conv", ["dist", "conv", *(inputs.write(J(d)) for d in ds)],
                        lambda out, code, ds=ds: ref.check_conv(out, code, ds)))
    for _ in range(16):
        g = rng.randint(1, 4)
        values = [g * rng.randint(-6, 6) for _ in range(rng.randint(4, 9))] + [rng.randint(-20, 20)]
        eps = rng.choice([F(0), F(1, 5)])
        argv = ["gap", "fit", "--values=" + ",".join(map(str, values)), "--eps", ref.fmt(eps)]
        jobs.append(Job("gap.fit", argv, lambda out, code, v=values, e=eps: ref.check_gap_fit(out, code, v, e)))
    for rank in (1, 2) * 8 + (3,) * 16:
        dims = [rng.randint(1, 4) for _ in range(rank)] if rank < 3 else rng.sample([2, 2, 3], 3)
        gens = [rng.randint(1, 12) for _ in dims]
        path = inputs.write({"rank": len(dims), "dims": dims, "generators": [str(g) for g in gens]})
        jobs.append(Job(f"gap.proper.r{rank}", ["gap", "proper", path],
                        lambda out, code, d=dims, g=gens: ref.check_gap_proper(out, code, d, g)))
    for _ in range(16):
        dim = rng.randint(2, 3)
        vectors = [[0] * dim] + [[rng.randint(-6, 6) for _ in range(dim)] for _ in range(rng.randint(2, 4))]
        argv = ["lattice-basis", "--vectors", ";".join(",".join(map(str, v)) for v in vectors)]
        jobs.append(Job("lattice-basis", argv, lambda out, code, v=vectors: ref.check_lattice_basis(out, code, v)))
    names = ["thm_tse", "few_dropped", "odlyzko_richmond", "logconcmode"]
    pool = ("pass",) * 6 + ("not-applicable",) * 3 + ("indeterminate", "fail")
    for _ in range(16):
        outcomes = [(rng.choice(names), rng.choice(pool)) for _ in range(rng.randint(3, 12))]
        lines = [json.dumps({"name": n, "outcome": o, "margin": None}) for n, o in outcomes]
        lines.insert(rng.randrange(len(lines)), json.dumps({"note": "no outcome field"}))
        jobs.append(Job("report", ["report", inputs.write("\n".join(lines) + "\n")],
                        lambda out, code, o=outcomes: ref.check_report_stream(out, code, o)))
    jobs += malformed(rng, inputs)
    return jobs


def malformed(rng, inputs) -> list[Job]:
    """Inputs whose README contract answer is exit 2.  The first three are
    mishandled at the time of writing (traceback, traceback, exit 0) and
    stay in the stream so that failed counts them."""
    jobs = []
    for _ in range(3):
        s = rng.randint(-5, 5)
        jobs.append(usage_job("bad.zero_denominator", ["dist", "stats", inputs.write({"atoms": [[s, "1/0"], [s + 1, "1/2"]]})]))
        jobs.append(usage_job("bad.float_mass", ["dist", "stats", inputs.write('{"atoms": [[%d, 0.5], [%d, 0.5]]}' % (s, s + 1))]))
        stream = json.dumps({"name": "thm_tse", "outcome": rng.choice(["maybe", "passed", "unknown"])}) + "\n"
        jobs.append(usage_job("bad.report_outcome", ["report", inputs.write(stream)]))
        jobs.append(usage_job("bad.mass_sum", ["dist", "stats", inputs.write({"atoms": [[s, "1/2"], [s + 2, "1/4"]]})]))
        jobs.append(usage_job("bad.json", ["dist", "conv", inputs.write('{"atoms": [[0, "1/2"], [1, "1/2"]'), inputs.write(ref.dist_to_json(SYM3))]))
        jobs.append(usage_job("bad.alphas", ["extremal", "tse", "--alphas", f"1/0,{ref.fmt(rng.choice(mid_caps(60)))}"]))
        jobs.append(usage_job("bad.window", ["extremal", "oracle", "--alphas", "1/2", "--window", f"0-{rng.randint(2, 4)}"]))
        jobs.append(usage_job("bad.instance", ["check", "few_dropped", "--instance", inputs.write({"alphas": ["1/2"]})]))
        jobs.append(usage_job("bad.lemma", ["check", "no_such_lemma", "--instance", inputs.write({})]))
    return jobs


WORKLOADS = {"search": search, "clt": clt, "lemmas": lemmas}


def build(workload: str, seed: int, root: Path) -> list[Job]:
    rng = random.Random(f"{workload}#{seed}")
    jobs = WORKLOADS[workload](rng, Inputs(root))
    # Shuffle once so that job kinds interleave the way a user's calls would.
    rng.shuffle(jobs)
    return jobs
