"""Independent-oracle cross-checks: each fast path is compared against a
slower, structurally different computation."""

import math
from fractions import Fraction as F

from conclab.dist import convolve_all, negate, q_interval, q_max, shift, uniform
from conclab.extremal import AlphaSeq, nu, tse
from conclab.gauss import GaussSpec, discretized_gaussian
from conclab.verify import ScanConfig, conjecture_scan

from instances import random_instance


def brute_q_interval(mu, t):
    sites = mu.sites
    best = F(0)
    for anchor in range(sites[0] - t, sites[-1] + 1):
        window = sum((m for s, m in mu.atoms if anchor <= s < anchor + t), F(0))
        best = max(best, window)
    return best


def test_q_interval_matches_window_enumeration():
    for seed in range(40):
        mu = random_instance(seed, "distribution")
        for t in (1, 2, 3, 5):
            assert q_interval(mu, t) == brute_q_interval(mu, t)


def test_tse_invariant_under_representative_shifts():
    alphas = AlphaSeq([F(3, 5), F(2, 5), F(1, 2)])
    value, selection = tse(alphas)
    # the same sign pattern with arbitrary translations of each factor
    # reproduces the optimum as a concentration value
    factors = []
    for a, sign, offset in zip(alphas, selection, (7, -4, 11)):
        base = nu(a) if sign > 0 else negate(nu(a))
        factors.append(shift(base, offset))
    assert q_max(convolve_all(factors)) == value


def test_scan_records_translation_invariant():
    base = [r.to_json_obj() for r in conjecture_scan(ScanConfig(denominator=4, window=(0, 3), n=2))]
    moved = [
        r.to_json_obj() for r in conjecture_scan(ScanConfig(denominator=4, window=(5, 8), n=2))
    ]
    assert len(base) == len(moved)
    for a, b in zip(base, moved):
        assert a["alphas"] == b["alphas"]
        assert a["lhs"] == b["lhs"]
        assert a["rhs"] == b["rhs"]
        assert a["violation"] == b["violation"]


def test_scan_d5_window_0_4_no_violation():
    cfg = ScanConfig(denominator=5, window=(0, 4), n=2)
    records = list(conjecture_scan(cfg))
    assert records, "expected a nonempty scan"
    assert not any(r.violation for r in records)


def test_gaussian_cells_2d_against_scipy_cdf():
    from scipy.stats import multivariate_normal

    spec = GaussSpec((0.3, -0.2), ((1.0, 0.4), (0.4, 2.0)))
    table = discretized_gaussian(spec, [(-4, 4), (-5, 5)], tol=1e-8)
    mvn = multivariate_normal(mean=list(spec.mean), cov=[list(r) for r in spec.cov])

    def rect(x, y):
        a1, b1 = x - 0.5, x + 0.5
        a2, b2 = y - 0.5, y + 0.5
        return (
            mvn.cdf([b1, b2]) - mvn.cdf([a1, b2]) - mvn.cdf([b1, a2]) + mvn.cdf([a1, a2])
        )

    for x in (-2, 0, 1, 3):
        for y in (-3, 0, 2):
            p, err = table.prob((x, y))
            assert abs(p - rect(x, y)) <= err + 5e-6  # scipy's own cdf tolerance


def test_gaussian_cells_1d_against_erf_sum():
    spec = GaussSpec((1.25,), ((2.25,),))
    table = discretized_gaussian(spec, [(-10, 12)], tol=1e-10)
    sigma = math.sqrt(2.25)
    for x in range(-10, 13):
        expected = 0.5 * (
            math.erf((x + 0.5 - 1.25) / (sigma * math.sqrt(2)))
            - math.erf((x - 0.5 - 1.25) / (sigma * math.sqrt(2)))
        )
        p, err = table.prob((x,))
        assert abs(p - expected) <= err + 1e-12


def test_uniform_square_binomial_product():
    # m-fold sum of the uniform 2x2 square has independent binomial marginals
    from conclab.gauss import LatticeDist, pow_conv

    square = LatticeDist(
        [((0, 0), F(1, 4)), ((1, 0), F(1, 4)), ((0, 1), F(1, 4)), ((1, 1), F(1, 4))]
    )
    m = 6
    s = pow_conv(square, m)
    for x in range(m + 1):
        for y in range(m + 1):
            expected = F(math.comb(m, x) * math.comb(m, y), 4**m)
            assert s.mass((x, y)) == expected


def test_balanced_value_equals_self_convolution_symmetry():
    # for a balanced pair (a, a) the optimum at zero is the mass the
    # difference of two independent copies puts at zero: sum of squared masses
    for a in (F(3, 5), F(4, 7), F(2, 5), F(5, 9)):
        from conclab.extremal import tsebal

        direct = sum((m**2 for m in nu(a).masses), F(0))
        assert tsebal(AlphaSeq([a, a])) == direct


def brute_convolve(a, b):
    """Naive Fraction-accumulation convolution (reference for the
    integer-numerator fast path)."""
    from conclab.dist import IntDist

    out = {}
    for sa, ma in a.atoms:
        for sb, mb in b.atoms:
            out[sa + sb] = out.get(sa + sb, F(0)) + ma * mb
    return IntDist(out.items())


def test_convolve_matches_naive_accumulation():
    from conclab.dist import convolve

    for seed in range(30):
        a = random_instance(800 + 2 * seed, "distribution")
        b = random_instance(801 + 2 * seed, "distribution")
        assert convolve(a, b) == brute_convolve(a, b)


def brute_coupling_cells(mu, mu_prime, eps, big_n, big_k):
    """Per-index coupling construction (reference for the run-merging one),
    at the same normalization (N, K)."""
    from conclab.rearrange import _layout, plus_rearrange

    c = 1 / (1 + F(eps))
    plus = plus_rearrange(mu)
    f = _layout([(s, int(m * c * big_n)) for s, m in plus.atoms], -(big_k // 2) + 1)
    f_prime = _layout([(s, int(m * big_n)) for s, m in mu_prime.atoms], -(big_n // 2) + 1)
    cells = {}
    for u in range(-(big_n // 2) + 1, big_n // 2 + 1):
        x = f_prime.value_at(u)
        if -(big_k // 2) + 1 <= u <= big_k // 2:
            key = (f.value_at(u), x, True)
            cells[key] = cells.get(key, F(0)) + F(1, big_n)
        else:
            for z, w in plus.atoms:
                key = (z, x, False)
                cells[key] = cells.get(key, F(0)) + F(w, big_n)
    return cells


def test_coupling_matches_per_index_construction():
    from conclab.rearrange import dominating_coupling

    checked = 0
    for seed in range(40):
        mu, mu_prime, eps = random_instance(seed, "coupling-pair")
        coupling = dominating_coupling(mu, mu_prime, eps)
        if coupling.audit["N"] > 20000:
            continue  # keep the per-index reference affordable
        reference = brute_coupling_cells(mu, mu_prime, eps, coupling.audit["N"], coupling.audit["K"])
        assert dict(((z, x, a), m) for z, x, a, m in coupling.cells) == reference
        checked += 1
    assert checked >= 10


def test_rearranged_mass_is_sliding_window_optimum():
    # plus-rearranged mass on the centered j-interval equals both q_k and the
    # best sum of j masses, tying the three definitions together
    from conclab.dist import q_k
    from conclab.rearrange import centered_interval, plus_rearrange

    for seed in range(25):
        mu = random_instance(700 + seed, "distribution")
        plus = plus_rearrange(mu)
        ranked = sorted(mu.masses, reverse=True)
        for j in range(1, len(mu) + 1):
            lo, hi = centered_interval(j)
            on_interval = sum((m for s, m in plus.atoms if lo <= s <= hi), F(0))
            assert on_interval == q_k(mu, j) == sum(ranked[:j], F(0))
