"""Lattice distributions, discretized Gaussian, TV distances, CLT terms."""

import itertools
import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conclab import gauss
from conclab.dist import IntDist, convolve, convolve_all, convolve_power, shift, uniform
from conclab.gauss import (
    BEGapReport,
    GaussSpec,
    LatticeDist,
    LLTTerms,
    TVResult,
    berry_esseen_gap,
    discretized_gaussian,
    fit_gauss_spec,
    gaussian_tail_bound,
    gaussian_tail_check,
    lconv,
    llt_terms,
    norm_cdf,
    pow_conv,
    singular_lower_bound,
    tv_exact,
    tv_to_discretized_gaussian,
)
from conclab.rearrange import IntMeasure


def lattice_delta(site):
    return LatticeDist([(tuple(site), F(1))])


SQUARE = LatticeDist(
    [((0, 0), F(1, 4)), ((1, 0), F(1, 4)), ((0, 1), F(1, 4)), ((1, 1), F(1, 4))]
)


def test_lattice_dist_validation():
    with pytest.raises(ValueError):
        LatticeDist([])
    with pytest.raises(ValueError):
        LatticeDist([((0, 0), F(1, 2)), ((1,), F(1, 2))])
    with pytest.raises(ValueError):
        LatticeDist([((0,), F(1, 2))])


def test_lconv_identity_and_power():
    assert lconv(lattice_delta((0, 0)), SQUARE) == SQUARE
    assert pow_conv(SQUARE, 1) == SQUARE
    two = pow_conv(SQUARE, 2)
    # independent coordinates: product of two binomial(2, 1/2) marginals
    for x in range(3):
        for y in range(3):
            expected = F(math.comb(2, x) * math.comb(2, y), 16)
            assert two.mass((x, y)) == expected
    assert pow_conv(SQUARE, 5) == lconv(lconv(two, two), SQUARE)


def test_lconv_moment_additivity():
    a = LatticeDist([((0, 0), F(1, 2)), ((2, 1), F(1, 2))])
    s = lconv(a, SQUARE)
    ma, mb = a.mean(), SQUARE.mean()
    assert s.mean() == tuple(x + y for x, y in zip(ma, mb))
    ca, cb, cs = a.cov(), SQUARE.cov(), s.cov()
    for i in range(2):
        for j in range(2):
            assert cs[i][j] == ca[i][j] + cb[i][j]


def test_tv_exact_examples():
    assert tv_exact(SQUARE, SQUARE) == 0
    assert tv_exact(lattice_delta((0,)), lattice_delta((1,))) == 1
    u = LatticeDist([((0,), F(1, 2)), ((1,), F(1, 2))])
    assert tv_exact(u, lattice_delta((0,))) == F(1, 2)


def test_tv_exact_metric_properties():
    import random

    rng = random.Random(3)
    def rand_dist():
        n = rng.randint(1, 5)
        sites = rng.sample(range(-4, 5), n)
        weights = [rng.randint(1, 5) for _ in range(n)]
        t = sum(weights)
        return LatticeDist((((s,), F(w, t)) for s, w in zip(sites, weights)))

    for _ in range(30):
        a, b, c = rand_dist(), rand_dist(), rand_dist()
        assert tv_exact(a, b) == tv_exact(b, a)
        assert (tv_exact(a, b) == 0) == (a == b)
        assert tv_exact(a, c) <= tv_exact(a, b) + tv_exact(b, c)


def test_discretized_gaussian_1d():
    spec = GaussSpec((0.0,), ((1.0,),))
    table = discretized_gaussian(spec, [(-8, 8)], tol=1e-9)
    p0, err = table.prob((0,))
    expected = norm_cdf(0.5) - norm_cdf(-0.5)
    assert abs(p0 - expected) <= err + 1e-13
    total = sum(p for p, _ in table.cells.values())
    assert total + table.tail_bound >= 1 - 2e-9 * len(table.cells)
    # symmetric spec: opposite cells agree
    for x in range(1, 8):
        assert abs(table.prob((x,))[0] - table.prob((-x,))[0]) <= 2e-9


def test_discretized_gaussian_tiny_variance_concentrates():
    spec = GaussSpec((0.0,), ((1e-6,),))
    table = discretized_gaussian(spec, [(-2, 2)], tol=1e-9)
    assert table.prob((0,))[0] > 1 - 1e-9


def test_discretized_gaussian_2d_symmetry_and_mass():
    spec = GaussSpec((0.0, 0.0), ((1.0, 0.3), (0.3, 1.0)))
    table = discretized_gaussian(spec, [(-6, 6), (-6, 6)], tol=1e-8)
    assert abs(table.prob((1, 1))[0] - table.prob((-1, -1))[0]) <= 2e-8
    total = sum(p for p, _ in table.cells.values())
    assert total + table.tail_bound >= 1 - 2e-8 * len(table.cells)


def test_discretized_gaussian_3d_seeded():
    spec = GaussSpec((0.0, 0.0, 0.0), ((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)))
    table = discretized_gaussian(spec, [(-1, 1)] * 3, tol=0.02, seed=5)
    p, half = table.prob((0, 0, 0))
    assert half <= 0.02
    exact_1d = norm_cdf(0.5) - norm_cdf(-0.5)
    assert abs(p - exact_1d**3) <= 3 * half + 0.01
    again = discretized_gaussian(spec, [(-1, 1)] * 3, tol=0.02, seed=5)
    assert again.cells == table.cells
    assert table.err_kind == "3-sigma"


def test_fit_gauss_spec_degenerate():
    line = LatticeDist([((0, 0), F(1, 2)), ((1, 1), F(1, 2))])
    with pytest.raises(ValueError):
        fit_gauss_spec(line)
    with pytest.raises(ValueError):
        fit_gauss_spec(lattice_delta((0,)))


def test_tv_to_gaussian_self_consistency():
    # binomial(48, 1/2): the fitted rounded Gaussian is close, certified
    coin = LatticeDist([((0,), F(1, 2)), ((1,), F(1, 2))])
    res_small = tv_to_discretized_gaussian(pow_conv(coin, 8))
    res_large = tv_to_discretized_gaussian(pow_conv(coin, 48))
    assert res_large.value + res_large.err < res_small.value - res_small.err
    assert res_large.value < 0.02


def test_tv_to_gaussian_2d_decreasing():
    res4 = tv_to_discretized_gaussian(pow_conv(SQUARE, 4))
    res8 = tv_to_discretized_gaussian(pow_conv(SQUARE, 8))
    assert res8.value + res8.err < res4.value - res4.err


def test_llt_terms_examples():
    y = LatticeDist([((0,), F(1, 2)), ((1,), F(1, 2))])
    terms = llt_terms([y, y])
    assert terms.u == (0.5, 0.5)
    assert terms.s_tilde == 0.5
    assert terms.applicable
    # chi: E|Y' - Y|^3 = 1/2 for a fair coin difference
    assert abs(terms.chi - 0.5) < 1e-12

    degenerate = llt_terms([lattice_delta((0,))] * 3)
    assert degenerate.s_tilde == 0.0
    assert not degenerate.applicable


def test_llt_u_shift_invariant():
    y = LatticeDist([((0, 0), F(1, 3)), ((1, 0), F(1, 3)), ((0, 1), F(1, 3))])
    terms = llt_terms([y])
    shifted = llt_terms([shift(y, (5, -7))])
    assert terms.u == shifted.u


def _shifted_reference(y, v):
    """The removed LatticeDist.shifted: every site moved by v, masses kept."""
    return LatticeDist((tuple(a + b for a, b in zip(s, v)), m) for s, m in y.atoms)


def test_lattice_shift_matches_the_site_by_site_body():
    coin = LatticeDist([((0,), F(1, 2)), ((1,), F(1, 2))])
    triangle = LatticeDist([((0, 0), F(1, 3)), ((1, 0), F(1, 3)), ((0, 1), F(1, 3))])
    base = LatticeDist([((0,), F(5, 13)), ((1,), F(6, 13)), ((3,), F(2, 13))])
    for y in (coin, lattice_delta((0,)), triangle, base, SQUARE):
        units = [tuple(int(i == j) for i in range(y.dim)) for j in range(y.dim)]
        for v in (*units, tuple(5 - 12 * j for j in range(y.dim))):
            assert shift(y, v) == _shifted_reference(y, v)
    with pytest.raises(ValueError):
        shift(triangle, (1,))
    with pytest.raises(ValueError):
        shift(coin, (1, 0))


def test_singular_lower_bound_examples():
    rep = singular_lower_bound([[1, 0], [0, 1]])
    assert rep.holds and abs(rep.bound - 1 / math.sqrt(2)) < 1e-12 and rep.sigma_min == 1.0
    rep = singular_lower_bound([[1, 0], [0, 3]])
    assert rep.holds and rep.sigma_min >= 1 / (math.sqrt(2) * 3)
    rep = singular_lower_bound([[5]])
    assert rep.holds and rep.bound == 1.0 and rep.sigma_min == 5.0
    with pytest.raises(ValueError):
        singular_lower_bound([[1, 2], [2, 4]])
    for matrix in ([[True, 0], [0, 1]], [[0.5, 0], [0, 1]]):  # entries are integers
        with pytest.raises(TypeError):
            singular_lower_bound(matrix)


# symmetric to within np.allclose, but the cell tables read the upper entry
# and eigvalsh the lower one
NEAR_SYMMETRIC = ((1.0, 0.5), (0.5000000049, 1.0))


def test_gauss_spec_requires_exact_symmetry():
    with pytest.raises(ValueError, match="symmetric"):
        GaussSpec((0.0, 0.0), NEAR_SYMMETRIC)
    with pytest.raises(ValueError, match="symmetric"):
        gaussian_tail_bound([list(row) for row in NEAR_SYMMETRIC], 100.0)
    assert GaussSpec((0.0, 0.0), ((1.0, 0.5), (0.5, 1.0))).dim == 2


def test_gaussian_tail_bound():
    assert gaussian_tail_bound([[1.0]], 32.0) == pytest.approx(math.exp(-8.0))
    with pytest.raises(ValueError):
        gaussian_tail_bound([[1.0]], 1.0)  # d > t / (16 sigma1)


def test_gaussian_tail_check():
    report = gaussian_tail_check([[1.0]], 32.0, 100_000, seed=7)
    assert report.holds
    assert report.empirical <= report.bound + 3 * report.std_err
    again = gaussian_tail_check([[1.0]], 32.0, 100_000, seed=7)
    assert again == report


def test_berry_esseen_gap_coins():
    report = berry_esseen_gap([uniform([0, 1])] * 64)
    assert report.max_cdf_gap <= 0.56 * report.bound
    # single extreme summand: computed, large relative bound
    single = berry_esseen_gap([uniform([5, 6])])
    assert single.bound >= single.max_cdf_gap


def test_berry_esseen_pm_one_ratio():
    # fair +-1 summands: third absolute moment equals the variance exactly,
    # so the ratio bound collapses to 1/sqrt(V)
    pm = uniform([-1, 1])
    for n in (4, 9, 25):
        report = berry_esseen_gap([pm] * n)
        assert report.third_moment == report.variance
        assert report.bound == pytest.approx(1 / math.sqrt(float(report.variance)))


def test_berry_esseen_zero_variance():
    from conclab.dist import delta

    with pytest.raises(ValueError):
        berry_esseen_gap([delta(3)])


def test_one_dimensional_lattice_convolution_matches_int_dist():
    mu = IntDist([(-1, F(1, 3)), (0, F(1, 6)), (2, F(1, 2))])
    other = IntDist([(0, F(1, 4)), (5, F(3, 4))])

    def lift(d):
        return LatticeDist(((s,), m) for s, m in d.atoms)

    def lifted_atoms(d):
        return tuple(((s,), m) for s, m in d.atoms)

    assert lconv(lift(mu), lift(other)).atoms == lifted_atoms(convolve(mu, other))
    for n in (1, 2, 5, 8):
        assert pow_conv(lift(mu), n).atoms == lifted_atoms(convolve_power(mu, n))


def test_convolution_rejects_mixed_site_types_and_dimensions():
    with pytest.raises(ValueError):
        convolve(uniform([0, 1]), lattice_delta((0,)))
    with pytest.raises(ValueError):
        lconv(lattice_delta((0,)), uniform([0, 1]))
    with pytest.raises(ValueError):
        convolve(uniform([0, 1]), IntMeasure([(0, 2)]))
    with pytest.raises(ValueError):
        lconv(SQUARE, lattice_delta((0,)))


# -- mean and covariance as integer sums ----------------------------------------


def _mean_reference(s):
    """LatticeDist.mean as a loop over the atoms in Fractions."""
    d = s.dim
    out = [F(0)] * d
    for site, m in s.atoms:
        for i in range(d):
            out[i] += m * site[i]
    return tuple(out)


def _cov_reference(s):
    """LatticeDist.cov as a loop over the atoms in Fractions."""
    d = s.dim
    mu = _mean_reference(s)
    out = [[F(0)] * d for _ in range(d)]
    for site, m in s.atoms:
        c = [F(site[i]) - mu[i] for i in range(d)]
        for i in range(d):
            for j in range(d):
                out[i][j] += m * c[i] * c[j]
    return tuple(tuple(row) for row in out)


@st.composite
def _lattice_law(draw):
    """A law in d = 1, 2 or 3 with negative and gapped sites and masses whose
    denominators differ once reduced."""
    dim = draw(st.integers(1, 3))
    coord = st.one_of(st.integers(-3, 3), st.integers(-(10**9), 10**9))
    sites = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=12, unique=True))
    weights = draw(st.lists(st.integers(1, 60), min_size=len(sites), max_size=len(sites)))
    return LatticeDist((site, F(w, sum(weights))) for site, w in zip(sites, weights))


@settings(max_examples=200, deadline=None)
@given(_lattice_law())
def test_mean_and_cov_match_fraction_loops(s):
    assert s.mean() == _mean_reference(s)
    assert s.cov() == _cov_reference(s)


def test_mean_and_cov_of_powers_match_fraction_loops():
    skew = LatticeDist([((0, 0, 0), F(1, 7)), ((2, 0, -1), F(2, 7)), ((0, -3, 5), F(4, 7))])
    for s in (pow_conv(SQUARE, 32), pow_conv(skew, 6)):
        assert s.mean() == _mean_reference(s)
        assert s.cov() == _cov_reference(s)


# -- llt_terms once per distinct summand ---------------------------------------


def _llt_terms_reference(ys):
    """llt_terms as it was before summands were deduplicated: every summand
    worked out in full."""
    d = ys[0].dim
    m = len(ys)
    u_exact = []
    for y in ys:
        shifts = []
        for j in range(d):
            e = [0] * d
            e[j] = 1
            shifts.append(1 - tv_exact(y, shift(y, e)))
        u_exact.append(min(shifts))
    s_tilde_exact = sum(u_exact, F(0)) - max(u_exact)
    chi = 0.0
    for y in ys:
        for sa, ma in y.atoms:
            for sb, mb in y.atoms:
                dist_sq = sum((a - b) ** 2 for a, b in zip(sa, sb))
                chi += float(ma * mb) * dist_sq**1.5
    chi /= m
    trace = F(0)
    for y in ys:
        c = y.cov()
        trace += sum(c[i][i] for i in range(d))
    denom = (2.0 * float(trace) / m) ** 1.5
    big_l = (chi / math.sqrt(m)) / denom if denom > 0 else math.inf
    return LLTTerms(
        L=big_l,
        chi=chi,
        s_tilde=float(s_tilde_exact),
        u=tuple(float(x) for x in u_exact),
        applicable=s_tilde_exact > 0,
    )


@st.composite
def _summand_mix(draw):
    dim = draw(st.integers(1, 2))
    site = st.tuples(*[st.integers(-2, 2)] * dim)
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        sites = draw(st.lists(site, min_size=1, max_size=5, unique=True))
        weights = draw(st.lists(st.integers(1, 9), min_size=len(sites), max_size=len(sites)))
        pool.append(LatticeDist((s, F(w, sum(weights))) for s, w in zip(sites, weights)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    return [pool[i] for i in picks]


@settings(max_examples=100, deadline=None)
@given(_summand_mix())
def test_llt_terms_matches_per_summand_reference(ys):
    assert llt_terms(ys) == _llt_terms_reference(ys)


def test_llt_terms_repeated_base_matches_reference():
    base = LatticeDist([((0,), F(5, 13)), ((1,), F(6, 13)), ((3,), F(2, 13))])
    for m in (1, 2, 7, 64, 128, 320):
        assert llt_terms([base] * m) == _llt_terms_reference([base] * m)
    for m in (16, 128, 320):
        assert llt_terms([SQUARE] * m) == _llt_terms_reference([SQUARE] * m)


def test_llt_terms_interleaved_laws_match_reference():
    # three laws in a fixed order of 101 summands with runs, returns and
    # equal-but-distinct objects, so that a count or an order slip shows
    a = LatticeDist([((0,), F(5, 13)), ((1,), F(6, 13)), ((3,), F(2, 13))])
    b = LatticeDist([((-2,), F(1, 7)), ((0,), F(2, 7)), ((5,), F(4, 7))])
    c = LatticeDist([((1,), F(1, 3)), ((2,), F(1, 3)), ((4,), F(1, 3))])
    laws = [a, b, c, LatticeDist(b.atoms)]
    ys = [laws[(i * i + i // 3) % 5 % 4] for i in range(101)]
    assert len(set(map(id, ys))) == 4 and len(set(ys)) == 3
    terms = llt_terms(ys)
    assert terms == _llt_terms_reference(ys)
    assert len(terms.u) == 101


# -- d = 3 Monte Carlo cells binned in one pass --------------------------------


def _cells_by_scan(spec, box, n, seed):
    """The d = 3 cell table as it was computed before binning: one scan of
    all samples per cell."""
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(np.asarray(spec.cov))
    draws = rng.standard_normal((n, 3)) @ chol.T + np.asarray(spec.mean)
    rounded = np.floor(draws + 0.5).astype(int)
    cells = {}
    for x0 in range(box[0][0], box[0][1] + 1):
        for x1 in range(box[1][0], box[1][1] + 1):
            for x2 in range(box[2][0], box[2][1] + 1):
                hits = np.all(rounded == (x0, x1, x2), axis=1).sum()
                p = hits / n
                half = 3 * math.sqrt(max(p * (1 - p), 1.0 / n) / n)
                cells[(x0, x1, x2)] = (p, half)
    return cells


@pytest.mark.parametrize("seed", [0, 3, 17])
@pytest.mark.parametrize(
    "box",
    [
        [(-2, 2), (-2, 2), (-2, 2)],
        [(-1, 1), (0, 2), (-3, 0)],
        [(4, 5), (0, 0), (-1, 1)],  # mostly outside the mass
        [(0, 0), (1, 1), (-1, -1)],  # one cell
    ],
)
def test_monte_carlo_binning_matches_per_cell_scan(seed, box):
    spec = GaussSpec((0.1, -0.2, 0.3), ((1.2, 0.1, 0.0), (0.1, 1.0, -0.2), (0.0, -0.2, 1.4)))
    table = discretized_gaussian(spec, box, tol=1e-2, seed=seed, samples=20000)
    expected = _cells_by_scan(spec, box, 20000, seed)
    assert list(table.cells.items()) == list(expected.items())


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_reversed_box_axis_is_rejected(dim):
    """An axis with hi < lo is an input error, not an empty table."""
    spec = GaussSpec((0.0,) * dim, tuple(tuple(float(i == j) for j in range(dim)) for i in range(dim)))
    box = [(0, 1)] * (dim - 1) + [(1, 0)]
    with pytest.raises(ValueError, match="hi < lo"):
        discretized_gaussian(spec, box, tol=1e-2, samples=100)


# -- functions on the integer view against their Fraction bodies -------------


def _tv_exact_reference(a, b):
    keys = {s for s, _ in a.atoms} | {s for s, _ in b.atoms}
    return sum((abs(a.mass(s) - b.mass(s)) for s in keys), F(0)) / 2


def _tv_to_gaussian_reference(s, tol=1e-6):
    """tv_to_discretized_gaussian's body with the exact side read through
    float(mass)."""
    spec = fit_gauss_spec(s)
    box = []
    for j in range(s.dim):
        sd = math.sqrt(spec.cov[j][j])
        lo = min(min(x[j] for x in s.sites), math.floor(spec.mean[j] - 6.5 * sd))
        hi = max(max(x[j] for x in s.sites), math.ceil(spec.mean[j] + 6.5 * sd))
        box.append((lo, hi))
    ncells = math.prod(hi - lo + 1 for lo, hi in box)
    table = discretized_gaussian(spec, box, tol=max(tol / ncells, 1e-13))
    half_l1 = err_sum = 0.0
    for site, (p, err) in table.cells.items():
        half_l1 += abs(float(s.mass(site)) - p)
        err_sum += err
    tail = table.tail_bound
    err = 0.5 * err_sum + 0.25 * tail + gauss._tv_rounding(ncells, err_sum)
    return TVResult(0.5 * half_l1 + 0.25 * tail, err, ncells, tail)


def _berry_esseen_reference(mus):
    """berry_esseen_gap's body in Fractions, the CDF accumulated as one."""

    def central(mu, k):
        mu1 = sum((F(s) * m for s, m in mu.atoms), F(0))
        return mu1, sum((m * abs(F(s) - mu1) ** k for s, m in mu.atoms), F(0))

    total = convolve_all(list(mus))
    mu1, var = central(total, 2)
    m3 = sum((central(mu, 3)[1] for mu in mus), F(0))
    sd = math.sqrt(float(var))
    acc, gap = F(0), 0.0
    for site, mass in total.atoms:
        phi = norm_cdf((site - float(mu1)) / sd)
        gap = max(gap, abs(float(acc) - phi))
        acc += mass
        gap = max(gap, abs(float(acc) - phi))
    return BEGapReport(gap, float(m3) / float(var) ** 1.5, m3, var)


@st.composite
def _lattice_pair(draw):
    """Two laws of one dimension, on overlapping small boxes."""
    dim = draw(st.integers(1, 3))
    site = st.tuples(*[st.integers(-2, 2)] * dim)

    def law():
        sites = draw(st.lists(site, min_size=1, max_size=8, unique=True))
        weights = draw(st.lists(st.integers(1, 30), min_size=len(sites), max_size=len(sites)))
        return LatticeDist((s, F(w, sum(weights))) for s, w in zip(sites, weights))

    return law(), law()


@settings(max_examples=200, deadline=None)
@given(_lattice_pair(), st.integers(-3, 3))
def test_tv_exact_and_shifted_match_fraction_bodies(pair, step):
    a, b = pair
    assert tv_exact(a, b) == _tv_exact_reference(a, b)
    v = tuple(step * (j + 1) for j in range(a.dim))
    moved = shift(a, v)
    assert moved == LatticeDist((tuple(x + y for x, y in zip(s, v)), m) for s, m in a.atoms)
    assert tv_exact(a, moved) == _tv_exact_reference(a, moved)


@pytest.mark.parametrize(
    "law",
    [
        pow_conv(LatticeDist([((0,), F(1, 2)), ((1,), F(1, 2))]), 8),
        pow_conv(LatticeDist([((-1,), F(1, 6)), ((0,), F(1, 3)), ((2,), F(1, 2))]), 5),
        LatticeDist([((-3,), F(1, 7)), ((0,), F(2, 7)), ((1,), F(4, 7))]),
        pow_conv(SQUARE, 3),
    ],
    ids=["coin_8", "skew_5", "gapped", "square_3"],
)
def test_tv_to_gaussian_matches_fraction_body(law):
    assert tv_to_discretized_gaussian(law) == _tv_to_gaussian_reference(law)


def test_berry_esseen_gap_matches_fraction_body():
    skew = IntDist([(-1, F(1, 6)), (0, F(1, 3)), (2, F(1, 2))])
    for mus in ([uniform([0, 1])] * 64, [skew] * 7, [skew, uniform([0, 3]), uniform([-2, 5, 9])], [uniform([5, 6])]):
        assert berry_esseen_gap(mus) == _berry_esseen_reference(mus)


# -- certified cells ----------------------------------------------------------


_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459230781640628620899862803")


def _erf_decimal(x: Decimal) -> Decimal:
    """erf to about 60 digits: the Maclaurin series, and +-1 beyond 7, where
    erfc < 1e-22."""
    if abs(x) > 7:
        return Decimal(1).copy_sign(x)
    with localcontext() as ctx:
        ctx.prec = 90
        term = total = x
        x2, n = x * x, 0
        while abs(term) > Decimal("1e-70"):
            n += 1
            term = -term * x2 / n
            total += term / (2 * n + 1)
        return total * 2 / _PI.sqrt()


def _cell_exact_1d(mean: float, var: float, x: int) -> Decimal:
    """P(x - 1/2 < N(mean, var) < x + 1/2) to about 60 digits, for the spec's
    floats taken as exact."""
    with localcontext() as ctx:
        ctx.prec = 90
        scale = (2 * Decimal(var)).sqrt()
        return (_erf_decimal((x + Decimal("0.5") - Decimal(mean)) / scale)
                - _erf_decimal((x - Decimal("0.5") - Decimal(mean)) / scale)) / 2


def _cell_2d_by_nodes(spec, box, tol):
    """The d = 2 cell values as a plain per-cell loop over the plan's nodes:
    every node recomputed for every cell, and erf called for both edges."""
    m1, m2 = spec.mean
    s11, s12, s22 = spec.cov[0][0], spec.cov[0][1], spec.cov[1][1]
    sd1 = math.sqrt(s11)
    cond_sd = math.sqrt(s22 - s12 * s12 / s11)
    slope = s12 / s11
    scale = sd1 * math.sqrt(2 * math.pi)
    u = 2.0**-53
    sigma = 1.01 * ((2.01 * u * (s12 * s12 / s11) / (s22 - s12 * s12 / s11) + 1.01 * u) / 2 + u)
    plan = gauss._gl_plan(sd1 * (1 - 2 * u), abs(slope) / cond_sd * (1 + 2 * sigma + 4 * u), min(tol / 10, 1e-11))
    out = {}
    for x0 in range(box[0][0], box[0][1] + 1):
        for x1 in range(box[1][0], box[1][1] + 1):
            acc = 0.0
            for off, hw in zip(plan.offsets.tolist(), plan.weights.tolist()):
                d = (x0 + off) - m1
                v = d / sd1
                a = hw * (math.exp(-0.5 * (v * v)) / scale)
                c = m2 + slope * d
                upper = math.erf(((x1 + 0.5) - c) / cond_sd / math.sqrt(2.0))
                lower = math.erf(((x1 - 0.5) - c) / cond_sd / math.sqrt(2.0))
                acc += (0.5 * a) * (upper - lower)
            out[(x0, x1)] = max(acc, 0.0)
    return out


@pytest.mark.parametrize(
    "mean, cov, box, tol",
    [
        ((0.0, 0.0), ((1.0, 0.3), (0.3, 1.0)), [(-4, 4), (-4, 4)], 1e-8),
        ((0.25, -0.4), ((2.5, -0.7), (-0.7, 1.2)), [(-5, 5), (-3, 4)], 1e-9),
        ((-1.3, 2.2), ((8.0, 5.5), (5.5, 9.0)), [(-8, 6), (-4, 9)], 1e-6),
        ((0.0, 0.0), ((0.05, 0.0), (0.0, 30.0)), [(-2, 2), (-12, 12)], 1e-7),
        ((0.0, 0.0), ((1.0, 0.999), (0.999, 1.0)), [(-2, 2), (-2, 2)], 1e-9),
        ((16.0, 16.0), ((8.0, 0.0), (0.0, 8.0)), [(-3, 35), (-3, 35)], 1e-13),
    ],
)
def test_cell_table_2d_matches_per_cell_body(mean, cov, box, tol):
    spec = GaussSpec(mean, cov)
    table = discretized_gaussian(spec, box, tol=tol)
    expected = _cell_2d_by_nodes(spec, box, tol)
    assert {site: p for site, (p, _) in table.cells.items()} == expected  # float for float
    assert list(table.cells) == list(expected)  # row-major order
    assert all(0 < err <= tol for _, err in table.cells.values())
    assert table.err_kind == "certified"


@pytest.mark.parametrize(
    "mean, var, box, tol",
    [
        ((0.0, 0.0), (1.0, 1.0), [(-6, 6), (-6, 6)], 1e-12),
        ((0.3, -1.7), (0.05, 30.0), [(-2, 2), (-18, 14)], 1e-9),
        ((16.25, 3.5), (8.0, 2.0), [(0, 33), (-4, 11)], 1e-13),
        ((0.0, 0.4), (1e-3, 1e2), [(-1, 1), (-3, 3)], 1e-9),
        ((-0.5, 0.0), (1e2, 1e-3), [(-3, 3), (-1, 1)], 1e-9),
    ],
)
def test_cell_table_2d_diagonal_within_err_of_closed_form(mean, var, box, tol):
    # independent coordinates: a cell is a product of two 1-D cells
    spec = GaussSpec(mean, ((var[0], 0.0), (0.0, var[1])))
    table = discretized_gaussian(spec, box, tol=tol).cells
    # with a remainder of 1e-20 the rounding terms carry the bound alone
    p, err = gauss._cell_table_2d(spec, box, epsabs=1e-20)
    sites = [(x0, x1) for x0 in range(box[0][0], box[0][1] + 1) for x1 in range(box[1][0], box[1][1] + 1)]
    fine = dict(zip(sites, zip(p.ravel().tolist(), err.ravel().tolist())))
    for (x0, x1), (p, err) in [*table.items(), *fine.items()]:
        exact = _cell_exact_1d(mean[0], var[0], x0) * _cell_exact_1d(mean[1], var[1], x1)
        assert abs(Decimal(p) - exact) <= Decimal(err), ((x0, x1), p, err, exact)


def _cell_prob_1d(mu, sigma, x):
    """One d = 1 cell as it was computed before the edges were shared: both
    of its edges evaluated for it alone."""
    p = norm_cdf((x + 0.5 - mu) / sigma) - norm_cdf((x - 0.5 - mu) / sigma)
    return max(p, 0.0), gauss._D1_CELL_ERR


_NEAR_LIMIT = 2**52 - 100  # the box's coordinates stay below 2**52 in magnitude


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(-300, 300),
        st.integers(-(2**51) - 50, -(2**51) + 50),
        st.integers(2**51 - 50, 2**51 + 50),
        st.integers(-_NEAR_LIMIT, -_NEAR_LIMIT + 30),
        st.integers(_NEAR_LIMIT - 30, _NEAR_LIMIT),
    ),
    st.integers(0, 60),
    st.floats(-20.0, 80.0),
    st.floats(1e-4, 1e6),
)
def test_cell_table_1d_matches_per_cell_body(lo, width, offset, var):
    """Shared edges give every cell bit for bit, with the mean placed near
    the box wherever the box lies."""
    mean = lo + offset
    spec = GaussSpec((mean,), ((var,),))
    table = discretized_gaussian(spec, [(lo, lo + width)], tol=1e-9)
    sigma = math.sqrt(var)
    expected = {(x,): _cell_prob_1d(mean, sigma, x) for x in range(lo, lo + width + 1)}
    assert table.cells == expected  # float for float
    assert list(table.cells) == list(expected)


def test_cell_table_1d_within_err_of_closed_form():
    for mean, var in [(0.0, 1.0), (1.25, 2.25), (-3.7, 1e-3), (40.5, 900.0)]:
        spec = GaussSpec((mean,), ((var,),))
        sd = math.sqrt(var)
        box = [(math.floor(mean - 9 * sd) - 1, math.ceil(mean + 9 * sd) + 1)]
        table = discretized_gaussian(spec, box, tol=1e-12)
        assert table.err_kind == "certified"
        for (x,), (p, err) in table.cells.items():
            assert abs(Decimal(p) - _cell_exact_1d(mean, var, x)) <= Decimal(err)


def _quad_cell(spec, x):
    """A d = 2 cell by scipy's quad, the column split where the density
    peaks and where the conditional mean crosses the row's edges, so that a
    narrow ridge is not missed; (value, quad's error estimate)."""
    from scipy.integrate import quad

    m1, m2 = spec.mean
    s11, s12, s22 = spec.cov[0][0], spec.cov[0][1], spec.cov[1][1]
    sd1, cond_sd, slope = math.sqrt(s11), math.sqrt(s22 - s12 * s12 / s11), s12 / s11

    def f(t):
        c = m2 + slope * (t - m1)
        upper = norm_cdf((x[1] + 0.5 - c) / cond_sd)
        lower = norm_cdf((x[1] - 0.5 - c) / cond_sd)
        return math.exp(-0.5 * ((t - m1) / sd1) ** 2) / (sd1 * math.sqrt(2 * math.pi)) * (upper - lower)

    a, b = x[0] - 0.5, x[0] + 0.5
    points = [m1] + ([m1 + (x[1] + h - m2) / slope for h in (-0.5, 0.5)] if slope else [])
    points = sorted(p for p in points if a < p < b)
    return quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=400, points=points or None)


@st.composite
def _spd_spec(draw):
    var = [10 ** draw(st.floats(-3, 2)) for _ in range(2)]
    rho = draw(st.floats(-0.999, 0.999))
    mean = (draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))
    s12 = rho * math.sqrt(var[0] * var[1])
    return GaussSpec(mean, ((var[0], s12), (s12, var[1])))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_spd_spec())
def test_cell_table_2d_plan_and_quad_agree(spec):
    tol = 1e-9
    epsabs = min(tol / 10, 1e-11)
    m1, m2 = spec.mean
    s11, s12, s22 = spec.cov[0][0], spec.cov[0][1], spec.cov[1][1]
    cond_sd = math.sqrt(s22 - s12 * s12 / s11)
    plan = gauss._gl_plan(math.sqrt(s11), abs(s12 / s11) / cond_sd, epsabs)
    assert plan.remainder <= epsabs
    assert len(plan.offsets) == plan.pieces * plan.nodes
    box = [(round(m1) - 1, round(m1) + 1), (round(m2) - 1, round(m2) + 1)]
    table = discretized_gaussian(spec, box, tol=tol)
    for site, (p, err) in table.cells.items():
        value, quad_err = _quad_cell(spec, site)
        assert abs(p - value) <= err + quad_err, (site, p, err, value, quad_err)


def test_cell_table_2d_moderate_spec_meets_tol_1e_13():
    spec = GaussSpec((0.3, -0.2), ((1.5, 0.4), (0.4, 2.0)))
    table = discretized_gaussian(spec, [(-9, 9), (-10, 10)], tol=1e-13)
    assert max(err for _, err in table.cells.values()) <= 1e-13
    total = sum(p for p, _ in table.cells.values())
    assert abs(total + table.tail_bound - 1) <= table.tail_bound + 1e-13 * len(table.cells)


def test_gauss_legendre_nodes_integrate_polynomials_exactly():
    # the n-point rule is exact for degree 2n - 1: sum w x^k = 2 / (k + 1) for even k
    for n in (1, 2, 3, 7, 16, 33, 64):
        x, w = gauss._gauss_legendre(n)
        assert len(x) == len(w) == n and list(x) == sorted(x)
        assert all(a == -b for a, b in zip(x, reversed(x)))
        for k in range(0, 2 * n, 2):
            assert math.fsum(wi * xi**k for xi, wi in zip(x, w)) == pytest.approx(2 / (k + 1), rel=1e-13)


def test_cell_table_prob_rejects_float_sites():
    table = discretized_gaussian(GaussSpec((0.0, 0.0), ((1.0, 0.0), (0.0, 1.0))), [(-1, 1), (-1, 1)], tol=1e-8)
    assert table.prob((0, 1)) == table.cells[(0, 1)]
    assert table.prob([np.int64(0), 1]) == table.cells[(0, 1)]
    assert table.prob((5, 5)) == (0.0, 0.0)
    for site in [(0.5, 1), (0.0, 1), (1, 1.0)]:
        with pytest.raises(TypeError):
            table.prob(site)


# -- whole-box tables against the loops they replace ---------------------------
#
# The references below are the per-column, per-edge and per-cell loops that
# built each table before the tables became whole-box arrays.  Floats are
# compared by float.hex, which tells -0.0 from 0.0.


def _cells_2d_by_columns(spec, box, epsabs):
    """The d = 2 table as it was built before the column blocks: one numpy
    pass per column, and err worked out per column in Python floats."""
    exp, erf, u = math.exp, math.erf, gauss._U
    (lo0, hi0), (lo1, hi1) = box
    m1, m2 = spec.mean
    s11, s12, s22 = spec.cov[0][0], spec.cov[0][1], spec.cov[1][1]
    sd1 = math.sqrt(s11)
    q = s12 * s12 / s11
    cond_sd = math.sqrt(s22 - q)
    slope = s12 / s11
    scale = sd1 * math.sqrt(2 * math.pi)
    sqrt2 = math.sqrt(2.0)
    sigma = 1.01 * ((2.01 * u * q / (s22 - q) + 1.01 * u) / 2 + u)
    if sigma > 1e-6:
        raise ValueError("covariance too close to singular for certified cells")
    plan = gauss._gl_plan(sd1 * (1 - 2 * u), abs(slope) / cond_sd * (1 + 2 * sigma + 4 * u), epsabs)
    nodes = len(plan.offsets)
    gamma = nodes * u / (1 - nodes * u)
    underflow = 1.02 * exp(-700.0) / scale
    edges = np.arange(lo1, hi1 + 2) - 0.5
    cells = {}
    for x0 in range(lo0, hi0 + 1):
        t = x0 + plan.offsets
        d = t - m1
        v = d / sd1
        a = plan.weights * (np.array(list(map(exp, (-0.5 * (v * v)).tolist()))) / scale)
        z = (edges - (m2 + slope * d)[:, None]) / cond_sd / sqrt2
        e = np.array(list(map(erf, z.ravel().tolist()))).reshape(z.shape)
        terms = (0.5 * a)[:, None] * (e[:, 1:] - e[:, :-1])
        probs = np.add.accumulate(terms, axis=0)[-1]
        slack = 4 * u * (abs(x0) + abs(m1) + 2)
        near = max(abs(x0 - m1) - 0.5 - slack, 0.0) / sd1 * (1 - 4 * u)
        far = abs(x0 - m1) + 0.5 + slack
        factor = min(1.0, exp(-near * near / 4) * (1 + gauss._LIBM + u * (near * near + 4)))
        misplaced = plan.deriv * factor * u * (abs(x0) + 6)
        rho = gauss._LIBM + 6.1 * u + 3.6 * u * min((far / sd1) ** 2 * (1 + 4 * u), 1400.0)
        c_err = 1.01 * u * (abs(m2) + 4.1 * abs(slope) * far)
        edge = gauss._ERF_SLOPE * 1.02 * c_err / (cond_sd * sqrt2) + gauss._ERF_REL * (4.1 * u + 1.01 * sigma) + gauss._LIBM
        diff = 2 * edge + 2.1 * u
        mass = 1.01 * float(a.sum()) + underflow
        err = plan.remainder * factor + misplaced + 1.02 * mass * (3.1 * u + 2 * u + rho + diff / 2 + gamma) + underflow
        for x1, p in zip(range(lo1, hi1 + 1), probs.tolist()):
            cells[(x0, x1)] = (max(p, 0.0), err)
    return cells


def _cells_by_loops(spec, box, tol, seed=0, samples=None):
    """discretized_gaussian's cells as its loops built them: d = 1 by one
    norm_cdf per edge, d = 2 by columns with the per-cell tol check, d = 3
    by binning and one Python step per cell."""
    d = spec.dim
    shape = tuple(hi - lo + 1 for lo, hi in box)
    cells = {}
    if d == 1:
        mu, sigma = spec.mean[0], math.sqrt(spec.cov[0][0])
        lo, hi = box[0]
        edges = [norm_cdf((x - 0.5 - mu) / sigma) for x in range(lo, hi + 2)]
        for x, below, above in zip(range(lo, hi + 1), edges, edges[1:]):
            cells[(x,)] = (max(above - below, 0.0), gauss._D1_CELL_ERR)
    elif d == 2:
        cells = _cells_2d_by_columns(spec, box, epsabs=min(tol / 10, 1e-11))
        for site, (_, err) in cells.items():
            if err > tol:
                raise ValueError(f"quadrature error {err} exceeds tol {tol} at {site}")
    else:
        n = samples if samples is not None else int(math.ceil((1.5 / tol) ** 2))
        draws = gauss._normal_draws(spec.cov, n, seed) + np.asarray(spec.mean)
        rounded = np.floor(draws + 0.5).astype(int)
        rounded -= [lo for lo, _ in box]
        inside = np.all((rounded >= 0) & (rounded < shape), axis=1)
        counts = np.bincount(np.ravel_multi_index(rounded[inside].T, shape), minlength=math.prod(shape))
        for cell, hits in zip(itertools.product(*(range(lo, hi + 1) for lo, hi in box)), counts):
            p = hits / n
            half = 3 * math.sqrt(max(p * (1 - p), 1.0 / n) / n)
            cells[cell] = (p, half)
    return cells


def _hex_cells(cells):
    """The table as (site, p.hex(), err.hex()) in its own order."""
    return [(site, float(p).hex(), float(err).hex()) for site, (p, err) in cells.items()]


def _table_or_error(build):
    try:
        return _hex_cells(build())
    except ValueError as exc:
        return str(exc)


_BLOCKS = st.sampled_from([1, 7, 500, 2**16])  # _BLOCK_VALUES: one column a block, a few, all


def _assert_table_matches_loops(spec, box, tol, block, seed=0, samples=None):
    expected = _table_or_error(lambda: _cells_by_loops(spec, box, tol, seed, samples))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gauss, "_BLOCK_VALUES", block)
        table = _table_or_error(lambda: discretized_gaussian(spec, box, tol, seed, samples).cells)
    assert table == expected


@st.composite
def _box_near(draw, centre, dims):
    """A box of 1-12 cells an axis whose corner is near centre, a float
    vector; coordinates stay below 2**52 in magnitude."""
    box = []
    for c in centre:
        lo = max(min(math.floor(c) + draw(st.integers(-8, 2)), 2**52 - 13), -(2**52) + 1)
        box.append((lo, lo + draw(st.integers(0, 11))))
    return box[:dims]


_ORIGINS = st.one_of(
    st.just(0.0),
    st.floats(-40.0, -5.0),  # a negative box
    st.sampled_from([-(2.0**51), 2.0**51, -(2.0**51) - 7.0, 2.0**51 + 7.0]),
)


@settings(max_examples=150, deadline=None)
@given(_spd_spec(), _ORIGINS, st.data(), st.sampled_from([1e-6, 1e-9, 1e-13]), _BLOCKS)
def test_cell_table_2d_matches_the_column_loop(spec, origin, data, tol, block):
    """Bit for bit, or the same error: every block size, negative boxes and
    boxes near +-2**51 (where the err of a far column can exceed tol)."""
    mean = (spec.mean[0] + origin, spec.mean[1] - origin)
    spec = GaussSpec(mean, spec.cov)
    box = data.draw(_box_near(mean, 2))
    _assert_table_matches_loops(spec, box, tol, block)
    # the table itself, before any cell's err is held against tol
    expected = _table_or_error(lambda: _cells_2d_by_columns(spec, box, 1e-11))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gauss, "_BLOCK_VALUES", block)
        table = _table_or_error(lambda: gauss.CellTable(box, *gauss._cell_table_2d(spec, box, 1e-11), 0.0, "").cells)
    assert table == expected


@settings(max_examples=150, deadline=None)
@given(st.floats(-1e3, 1e3), st.floats(1e-4, 1e6), _ORIGINS, st.data())
def test_cell_table_1d_matches_the_edge_loop(mean, var, origin, data):
    spec = GaussSpec((mean + origin,), ((var,),))
    box = data.draw(_box_near((mean + origin,), 1))
    _assert_table_matches_loops(spec, box, 1e-9, 2**16)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1000), st.data())
def test_cell_table_3d_matches_the_binning_loop(seed, data):
    spec = GaussSpec((0.1, -0.2, 0.3), ((1.2, 0.1, 0.0), (0.1, 1.0, -0.2), (0.0, -0.2, 1.4)))
    box = data.draw(_box_near((-2.5, -1.0, -3.0), 3))
    _assert_table_matches_loops(spec, box, 1e-2, 2**16, seed=seed, samples=data.draw(st.integers(1, 3000)))


@pytest.mark.parametrize("block", [1, 100, 2**16])
def test_cell_table_2d_blocks_hold_at_most_the_block_values(block):
    """Every exp and erf map covers at most _BLOCK_VALUES values, or one
    column when a column alone holds more, and the table is the same."""
    spec = GaussSpec((0.3, -0.2), ((1.5, 0.4), (0.4, 2.0)))
    box = [(-9, 9), (-10, 10)]
    expected = _hex_cells(_cells_2d_by_columns(spec, box, 1e-11))
    sizes = []
    real = gauss._map_floats

    def spy(fn, arr):
        sizes.append((fn, arr.shape))
        return real(fn, arr)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gauss, "_BLOCK_VALUES", block)
        mp.setattr(gauss, "_map_floats", spy)
        table = discretized_gaussian(spec, box, tol=1e-10)
    assert _hex_cells(table.cells) == expected
    blocks = [shape for fn, shape in sizes if fn is math.erf]
    column = blocks[0][1] * blocks[0][2]  # nodes times row edges
    assert sum(shape[0] for shape in blocks) == 19
    for shape in blocks:
        assert shape[0] == max(1, block // column) or shape is blocks[-1]
        assert math.prod(shape) <= max(block, column)


def test_cell_table_keeps_arrays_and_builds_cells_on_first_use():
    spec = GaussSpec((0.0, 0.5), ((1.0, 0.2), (0.2, 2.0)))
    table = discretized_gaussian(spec, [(-2, 3), (-1, 1)], tol=1e-8)
    assert table.box == ((-2, 3), (-1, 1)) and table.p.shape == table.err.shape == (6, 3)
    assert "cells" not in vars(table)
    cells = table.cells
    assert table.cells is cells and list(cells) == [(x0, x1) for x0 in range(-2, 4) for x1 in range(-1, 2)]
    for site, (p, err) in cells.items():
        assert table.prob(site) == (p, err)
    assert table.prob((4, 0)) == table.prob((0, 2)) == table.prob((0,)) == (0.0, 0.0)


@st.composite
def _tv_law(draw):
    """A law of dimension 1 or 2 on a few sites whose affine hull is full."""
    dim = draw(st.integers(1, 2))
    site = st.tuples(*[st.integers(-6, 6)] * dim)
    sites = draw(st.lists(site, min_size=dim + 1, max_size=7, unique=True))
    if gauss._affine_dim(sites) < dim:
        sites += [tuple(int(i == j) for j in range(dim)) for i in range(dim)] + [(0,) * dim]
        sites = list(dict.fromkeys(sites))
    weights = draw(st.lists(st.integers(1, 40), min_size=len(sites), max_size=len(sites)))
    law = LatticeDist((s, F(w, sum(weights))) for s, w in zip(sites, weights))
    return pow_conv(law, draw(st.integers(1, 3)))


@settings(max_examples=60, deadline=None)
@given(_tv_law(), st.sampled_from([1e-6, 1e-4]))
def test_tv_to_gaussian_matches_the_cell_loop(law, tol):
    """The array sums are the loop's left-to-right float sums, bit for bit."""
    try:
        expected = _tv_to_gaussian_reference(law, tol)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            tv_to_discretized_gaussian(law, tol)
        return
    got = tv_to_discretized_gaussian(law, tol)
    assert (got.value.hex(), got.err.hex()) == (expected.value.hex(), expected.err.hex())
    assert got == expected


def _moments_by_fractions(s):
    """Mean and covariance of s summed atom by atom in Fractions."""
    mean = [sum((m * x[i] for x, m in s.atoms), F(0)) for i in range(s.dim)]
    cov = [[sum((m * x[i] * x[j] for x, m in s.atoms), F(0)) - mean[i] * mean[j] for j in range(s.dim)] for i in range(s.dim)]
    return tuple(mean), tuple(map(tuple, cov))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.lists(st.tuples(*[st.integers(-9, 9)] * d), min_size=1, max_size=9, unique=True)), st.data())
def test_moments_and_fit_match_fraction_bodies(sites, data):
    weights = data.draw(st.lists(st.integers(1, 2**40), min_size=len(sites), max_size=len(sites)))
    s = LatticeDist((x, F(w, sum(weights))) for x, w in zip(sites, weights))
    mean, cov = _moments_by_fractions(s)
    assert s.mean() == mean and s.cov() == cov
    if gauss._affine_dim(s.sites) < s.dim:
        with pytest.raises(ValueError, match="degenerate"):
            fit_gauss_spec(s)
    else:
        spec = fit_gauss_spec(s)
        assert spec == GaussSpec(tuple(map(float, mean)), tuple(tuple(map(float, row)) for row in cov))
