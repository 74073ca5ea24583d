"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one line (visible with `pytest -s`); a failed assertion
fails the corresponding test, so `pytest tests/test_acceptance.py` going green
is the acceptance gate.  Exact quantities are compared as rationals; real
quantities carry certified errors and all comparisons are error-aware.
"""

import itertools
import json
import time
from fractions import Fraction as F

from conclab.dist import (
    IntDist,
    convolve,
    is_log_concave,
    q_max,
    uniform,
    variance,
)
from conclab.domination import cor3_check, hlp_check, mww_check
from conclab.extremal import (
    AlphaSeq,
    nu,
    t_oracle,
    tse,
    tsebal,
    variance_nu,
    variance_slope_bracket,
)
from conclab.gauss import (
    LatticeDist,
    berry_esseen_gap,
    gaussian_tail_check,
    pow_conv,
    singular_lower_bound,
    tv_to_discretized_gaussian,
)
from conclab.gaps import connected_decomposition
from conclab.rearrange import (
    ball_function,
    dominating_coupling,
    nested_medians,
    plus_rearrange,
)
from conclab.verify import (
    ScanConfig,
    conjecture_scan,
    odlyzko_richmond_check,
)

from instances import random_instance


def announce(num: int, name: str, started: float) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({time.time() - started:.2f}s)")


def test_criterion_01_variance_closed_form():
    started = time.time()
    for j in range(1, 61):
        alpha = F(j, 60)
        assert variance_nu(alpha) == variance(nu(alpha))
    assert variance_nu(F(1, 3)) == F(2, 3)
    for j in range(30, 61):
        alpha = F(j, 60)
        assert variance_nu(alpha) == alpha * (1 - alpha)
    assert time.time() - started < 1.0
    announce(1, "variance closed form on the 1/60 grid", started)


def test_criterion_02_variance_slopes():
    started = time.time()
    grid = [F(j, 210) for j in range(1, 211)]
    checked = 0
    for a, b in zip(grid, grid[1:]):
        assert variance_nu(a) >= variance_nu(b)
        k = int(1 / b)
        if a < F(1, k + 1):
            continue  # segment straddles a breakpoint; no single bracket applies
        lo, hi = variance_slope_bracket(k)
        quotient = (variance_nu(b) - variance_nu(a)) / (b - a)
        assert lo <= quotient <= hi, (a, b, k)
        checked += 1
    assert checked > 150
    assert time.time() - started < 5.0
    announce(2, "difference quotients inside per-interval brackets", started)


def test_criterion_03_log_concave_sandwich():
    started = time.time()
    for seed in range(500):
        mu = random_instance(seed, "log-concave")
        q = q_max(mu)
        v = variance(mu)
        assert q**2 * (1 + 12 * v) >= 1, mu
        assert q**2 * (1 + v) <= 1, mu
    assert time.time() - started < 10.0
    announce(3, "log-concave variance sandwich, 500 seeded", started)


def test_criterion_04_keilson_gerber_closure():
    started = time.time()
    for seed in range(500):
        a = random_instance(2 * seed, "log-concave")
        b = random_instance(2 * seed + 1, "log-concave")
        assert is_log_concave(convolve(a, b)), (a, b)
    assert time.time() - started < 10.0
    announce(4, "log-concavity closed under convolution, 500 seeded pairs", started)


def _quarter_dists():
    out = []
    for natoms in (1, 2, 3):
        for support in itertools.combinations((0, 1, 2, 3), natoms):
            for weights in itertools.product(range(1, 5), repeat=natoms):
                if sum(weights) == 4:
                    out.append(IntDist(zip(support, (F(w, 4) for w in weights))))
    return out


def test_criterion_05_hlp_exhaustive():
    started = time.time()
    dists = _quarter_dists()
    assert len(dists) == 34
    z_fixed = IntDist([(0, F(1, 2)), (1, F(1, 4)), (2, F(1, 4))])
    violations = 0
    for x in dists:
        for y in dists:
            for zs in ([], [z_fixed]):
                lhs, rhs, holds = hlp_check(x, y, zs)
                if not holds:
                    violations += 1
    assert violations == 0
    assert time.time() - started < 120.0
    announce(5, "rearrangement bound exhaustive over 34x34x2 instances", started)


def test_criterion_06_cor3_and_mww():
    started = time.time()
    for seed in range(300):
        pairs = random_instance(seed, "symmetric-unimodal-chain", n=1 + seed % 4)
        assert cor3_check(pairs).holds, pairs
    for seed in range(300):
        xs = [random_instance(10_000 + 5 * seed + i, "sharp-log-concave") for i in range(1 + seed % 3)]
        assert mww_check(xs).holds, xs
    assert time.time() - started < 120.0
    announce(6, "symmetric-chain and squeeze dominations, 300 seeded each", started)


def test_criterion_07_exact_optima():
    started = time.time()
    assert tsebal(AlphaSeq([F(3, 5), F(3, 5)])) == F(13, 25)
    assert tsebal(AlphaSeq([F(1, 2)] * 4)) == F(3, 8)
    value, selection = tse(AlphaSeq([F(3, 5), F(3, 5)]))
    assert value == F(13, 25)
    assert sorted(selection) == [-1, 1]
    alphas = AlphaSeq([F(1, 2), F(1, 2)])
    assert t_oracle(alphas, (0, 1))[0] == tsebal(alphas)
    assert time.time() - started < 1.0
    announce(7, "exact optimum values and the strongly balanced identity", started)


def test_criterion_08_conjecture_scan():
    started = time.time()
    for n in (2, 3):
        cfg = ScanConfig(denominator=4, window=(0, 3), n=n)
        records = list(conjecture_scan(cfg))
        violations = [r for r in records if r.violation]
        assert not violations, f"CONJECTURE VIOLATION: {[v.to_json_obj() for v in violations]}"
        assert len(records) == (55 if n == 2 else 220)
    assert time.time() - started < 600.0
    announce(8, "conjecture scan exhaustive at D=4, n=2 and n=3", started)


def test_criterion_09_coupling():
    started = time.time()
    for seed in range(200):
        mu, mu_prime, eps = random_instance(seed, "coupling-pair")
        coupling = dominating_coupling(mu, mu_prime, eps)
        plus = dict(plus_rearrange(mu).atoms)
        assert coupling.prob_a() >= 1 / (1 + eps)
        assert coupling.marginal_z() == plus
        assert coupling.marginal_z(True) == plus
        assert coupling.marginal_x_prime() == dict(mu_prime.atoms)
        off_total = sum((m for _, _, in_a, m in coupling.cells if not in_a), F(0))
        if off_total > 0:
            assert coupling.marginal_z(False) == plus
            cond_x: dict[int, F] = {}
            for _, x, in_a, m in coupling.cells:
                if not in_a:
                    cond_x[x] = cond_x.get(x, F(0)) + m / off_total
            for z, x, in_a, m in coupling.cells:
                if not in_a:
                    assert m / off_total == plus[z] * cond_x[x]
        for z, x, in_a, _ in coupling.cells:
            if in_a:
                assert (0 <= x <= z) or (z - 1 <= x <= 0), (z, x)
    assert time.time() - started < 60.0
    announce(9, "coupling marginals, event mass, sandwich, factorization", started)


def test_criterion_10_nested_medians():
    started = time.time()
    for seed in range(1000):
        measure = random_instance(seed, "integer-measure")
        chain = nested_medians(measure)
        bf = ball_function(measure)
        meds = chain.level_medians
        odd, even = meds[0::2], meds[1::2]
        assert all(odd[i] <= odd[i + 1] for i in range(len(odd) - 1))
        assert all(even[i] >= even[i + 1] for i in range(len(even) - 1))
        assert all(x <= chain.m for x in odd)
        assert all(x >= chain.m for x in even)
        assert bf.value_at(int(chain.m)) == 0
        for j in range(1, len(meds) + 1):
            assert bf.value_at(int(chain.median(j))) == 0
    assert time.time() - started < 10.0
    announce(10, "median chain and zero level sets, 1000 seeded measures", started)


def test_criterion_11_connected_decomposition():
    started = time.time()
    square = uniform([0, 1, 2, 3])
    d = connected_decomposition(square)
    assert d.reconstruct() == square and d.is_connected()
    assert len(d.parts) == 4  # the two-component case rejoined by the cycle
    for seed in range(1000):
        mu = random_instance(seed, "split-admissible")
        d = connected_decomposition(mu)
        assert d.reconstruct() == mu
        assert d.is_connected()
    assert time.time() - started < 30.0
    announce(11, "two-point decomposition rebuilt and connected, 1000 seeded", started)


def test_criterion_12_central_window_log_concavity():
    started = time.time()
    report = odlyzko_richmond_check(uniform([0, 1, 3]), 60, F(3, 10))
    assert report.outcome == "pass", report.to_json_obj()
    assert time.time() - started < 5.0
    announce(12, "60-fold convolution log-concave across the central window", started)


# Frozen regression constants: first computed with tol=1e-7 and re-verified
# on every run (value, certified error).
TV_FROZEN = {
    4: (0.030690917837651977, 1.144843737780074e-12),
    8: (0.015551390031925913, 1.277121374255882e-12),
    16: (0.0078609769472054, 8.756808987164141e-12),
    32: (0.003918135135261613, 4.467223734036159e-12),
}


def test_criterion_13_tv_convergence():
    started = time.time()
    base = LatticeDist(
        [((0, 0), F(1, 4)), ((1, 0), F(1, 4)), ((0, 1), F(1, 4)), ((1, 1), F(1, 4))]
    )
    results = {}
    for m in (4, 8, 16, 32):
        res = tv_to_discretized_gaussian(pow_conv(base, m), tol=1e-7)
        results[m] = res
        frozen_value, frozen_err = TV_FROZEN[m]
        assert abs(res.value - frozen_value) <= res.err + frozen_err + 1e-9, (m, res)
    ordered = [results[m] for m in (4, 8, 16, 32)]
    for a, b in zip(ordered, ordered[1:]):
        assert b.value + b.err < a.value - a.err  # strictly decreasing, error-aware
    assert results[32].value + results[32].err < (results[4].value - results[4].err) / 2
    assert time.time() - started < 300.0
    announce(13, "TV to the rounded Gaussian halves from m=4 to m=32", started)


def test_criterion_14_appendix_utilities():
    started = time.time()
    for seed in range(100):
        matrix = random_instance(seed, "integer-matrix")
        assert singular_lower_bound(matrix).holds, matrix
    tail = gaussian_tail_check([[1.0]], 32.0, 100_000, seed=2024)
    assert tail.holds
    assert tail.empirical <= tail.bound + 3 * tail.std_err
    coins = berry_esseen_gap([uniform([0, 1])] * 64)
    assert coins.max_cdf_gap <= 0.56 * coins.bound
    assert time.time() - started < 120.0
    announce(14, "singular bound, tail exceedance, CDF gap for 64 coins", started)


def test_criterion_15_determinism():
    started = time.time()
    cfg = ScanConfig(denominator=4, window=(0, 2), n=3, budget=40, seed=77)
    stream_a = "\n".join(json.dumps(r.to_json_obj(), sort_keys=True) for r in conjecture_scan(cfg))
    stream_b = "\n".join(json.dumps(r.to_json_obj(), sort_keys=True) for r in conjecture_scan(cfg))
    assert stream_a.encode() == stream_b.encode()

    for kind in ("log-concave", "coupling-pair", "integer-measure", "split-admissible"):
        a = [str(random_instance(seed, kind)) for seed in range(50)]
        b = [str(random_instance(seed, kind)) for seed in range(50)]
        assert a == b

    report_a = odlyzko_richmond_check(uniform([0, 1, 3]), 30, F(3, 10)).to_json()
    report_b = odlyzko_richmond_check(uniform([0, 1, 3]), 30, F(3, 10)).to_json()
    assert report_a.encode() == report_b.encode()

    tail_a = gaussian_tail_check([[1.0]], 32.0, 50_000, seed=5)
    tail_b = gaussian_tail_check([[1.0]], 32.0, 50_000, seed=5)
    assert tail_a == tail_b
    announce(15, "seeded reruns byte-identical", started)
