"""Core distribution type and concentration functionals."""

import itertools
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conclab.dist import (
    IntDist,
    convolve,
    convolve_all,
    convolve_power,
    delta,
    is_log_concave,
    is_sharp_log_concave,
    is_unimodal,
    max_span,
    mean,
    modes,
    negate,
    q_interval,
    q_k,
    q_max,
    shift,
    squeeze,
    uniform,
    variance,
)
from conclab.extremal import nu
from conclab.gauss import LatticeDist
from conclab.verify import random_instance


def test_constructor_validates():
    with pytest.raises(ValueError):
        IntDist([])
    with pytest.raises(ValueError):
        IntDist([(0, F(1, 2))])
    with pytest.raises(ValueError):
        IntDist([(0, F(1, 2)), (0, F(1, 2))])
    with pytest.raises(ValueError):
        IntDist([(0, F(3, 2)), (1, F(-1, 2))])
    with pytest.raises(TypeError):
        IntDist([(0, 0.5), (1, 0.5)])


def test_atoms_sorted_and_merged():
    mu = IntDist([(5, F(1, 4)), (-1, F(1, 2)), (2, F(1, 4))])
    assert mu.sites == (-1, 2, 5)
    assert sum(mu.masses) == 1


def test_convolve_examples():
    mu = IntDist([(3, F(1, 3)), (7, F(2, 3))])
    assert convolve(delta(0), mu) == mu
    assert convolve(uniform([0, 1]), uniform([0, 1])) == IntDist(
        [(0, F(1, 4)), (1, F(1, 2)), (2, F(1, 4))]
    )
    assert convolve(nu(F(2, 5)), delta(3)) == IntDist([(3, F(2, 5)), (4, F(2, 5)), (5, F(1, 5))])


def test_q_max_examples():
    assert q_max(nu(F(2, 5))) == F(2, 5)
    assert q_max(delta(7)) == 1
    assert q_max(uniform([0, 1, 2])) == F(1, 3)


def test_q_k_examples():
    assert q_k(nu(F(2, 5)), 2) == F(4, 5)
    assert q_k(nu(F(2, 5)), 3) == 1
    assert q_k(nu(F(2, 5)), 9) == 1
    assert q_k(uniform([0, 2, 4, 6]), 2) == F(1, 2)


def test_q_interval_examples():
    assert q_interval(nu(F(2, 5)), 1) == F(2, 5)
    assert q_interval(nu(F(2, 5)), 2) == F(4, 5)
    assert q_interval(IntDist([(0, F(1, 2)), (5, F(1, 2))]), 2) == F(1, 2)


def test_q_interval_equals_q_max_at_one():
    for seed in range(30):
        mu = random_instance(seed, "distribution")
        assert q_interval(mu, 1) == q_max(mu)


def test_moments_shift_negate():
    assert variance(uniform([0, 1, 2])) == F(2, 3)
    assert variance(nu(F(2, 5))) == F(14, 25)
    mu = IntDist([(1, F(1, 3)), (4, F(2, 3))])
    assert mean(negate(mu)) == -mean(mu)
    assert variance(shift(mu, 9)) == variance(mu)
    assert mean(shift(mu, 9)) == mean(mu) + 9


def test_is_log_concave():
    assert is_log_concave(uniform(range(5)))
    assert not is_log_concave(IntDist([(0, F(1, 2)), (2, F(1, 2))]))
    assert is_log_concave(IntDist([(0, F(1, 4)), (1, F(1, 2)), (2, F(1, 4))]))
    assert not is_log_concave(IntDist([(0, F(1, 2)), (1, F(1, 8)), (2, F(3, 8))]))


def test_is_unimodal_and_modes():
    assert is_unimodal(nu(F(2, 5)))
    assert modes(nu(F(2, 5))) == [0, 1]
    assert not is_unimodal(IntDist([(0, F(1, 3)), (1, F(1, 6)), (2, F(1, 2))]))
    assert is_unimodal(delta(4))
    assert modes(delta(4)) == [4]


def test_max_span():
    assert max_span(IntDist([(0, F(1, 2)), (4, F(1, 4)), (6, F(1, 4))])).value == 2
    assert max_span(uniform([0, 1])).value == 1
    assert max_span(delta(3)).is_infinite


def test_squeeze():
    assert squeeze(IntDist([(0, F(1, 2)), (10, F(1, 2))])) == uniform([0, 1])
    assert squeeze(nu(F(1, 3))) == uniform([-1, 0, 1])
    assert squeeze(delta(5)) == delta(0)
    # mass multiset and site order are preserved
    mu = IntDist([(0, F(1, 10)), (5, F(8, 10)), (9, F(1, 10))])
    assert squeeze(mu) == IntDist([(-1, F(1, 10)), (0, F(8, 10)), (1, F(1, 10))])


def test_is_sharp_log_concave():
    assert is_sharp_log_concave(IntDist([(0, F(1, 3)), (11, F(2, 3))]))
    assert is_sharp_log_concave(IntDist([(0, F(1, 10)), (5, F(8, 10)), (9, F(1, 10))]))
    # end-heavy masses: the squeezed middle fails the squared-mass inequality
    assert not is_sharp_log_concave(IntDist([(0, F(9, 20)), (5, F(1, 10)), (9, F(9, 20))]))


def test_convolve_commutative_associative():
    for seed in range(25):
        a = random_instance(3 * seed, "distribution")
        b = random_instance(3 * seed + 1, "distribution")
        c = random_instance(3 * seed + 2, "distribution")
        assert convolve(a, b) == convolve(b, a)
        assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))


def test_convolve_moment_additivity_and_qmax():
    for seed in range(25):
        a = random_instance(100 + 2 * seed, "distribution")
        b = random_instance(101 + 2 * seed, "distribution")
        s = convolve(a, b)
        assert variance(s) == variance(a) + variance(b)
        assert mean(s) == mean(a) + mean(b)
        assert q_max(s) <= min(q_max(a), q_max(b))


def test_log_concave_closed_under_convolution():
    for seed in range(50):
        a = random_instance(200 + 2 * seed, "log-concave")
        b = random_instance(201 + 2 * seed, "log-concave")
        assert is_log_concave(convolve(a, b))


def test_log_concave_variance_sandwich():
    for seed in range(50):
        mu = random_instance(300 + seed, "log-concave")
        q = q_max(mu)
        v = variance(mu)
        assert q**2 * (1 + 12 * v) >= 1
        assert q**2 * (1 + v) <= 1


def test_q_k_concave_in_k():
    for seed in range(30):
        mu = random_instance(400 + seed, "distribution")
        diffs = [q_k(mu, k + 1) - q_k(mu, k) for k in range(1, len(mu) + 1)]
        assert all(diffs[i] >= diffs[i + 1] for i in range(len(diffs) - 1))


def test_span_gcd_under_convolution():
    for seed in range(40):
        a = random_instance(500 + 2 * seed, "distribution")
        b = random_instance(501 + 2 * seed, "distribution")
        if len(a) < 2 or len(b) < 2:
            continue
        sa, sb = max_span(a).value, max_span(b).value
        assert max_span(convolve(a, b)).value == gcd(sa, sb)


def test_convolve_power_matches_iteration():
    mu = uniform([0, 1, 3])
    assert convolve_power(mu, 5) == convolve_all([mu] * 5)


def test_json_round_trip():
    for seed in range(20):
        mu = random_instance(600 + seed, "distribution")
        assert IntDist.from_json(mu.to_json()) == mu
        assert IntDist.from_text(mu.to_text()) == mu


def test_json_rejects_bad_input():
    with pytest.raises(ValueError):
        IntDist.from_json('{"atoms": [[0, "1/2"], [0, "1/2"]]}')
    with pytest.raises(ValueError):
        IntDist.from_json('{"atoms": [[0, "1/2"], [1, "1/3"]]}')
    with pytest.raises(ValueError):
        IntDist.from_text("0: 1/2\n0: 1/2\n")
    with pytest.raises(ValueError):
        IntDist.from_text("0, 1/2\n")


def test_json_masses_are_exact_rationals():
    with pytest.raises(ValueError):
        IntDist.from_json_obj({"atoms": [[0, 0.5], [1, 0.5]]})
    with pytest.raises(ValueError):
        IntDist.from_json_obj({"atoms": [[0, "1/0"], [1, "1/2"]]})
    with pytest.raises(ValueError):
        IntDist.from_json_obj({"atoms": [[0, True]]})
    assert IntDist.from_json_obj({"atoms": [[0, 1]]}) == IntDist([(0, F(1))])


@st.composite
def _weighted_sites(draw):
    sites = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=7, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(sites), max_size=len(sites)))
    return [(s, F(w, sum(weights))) for s, w in zip(sites, weights)]


def _scan_mass(container, site):
    for s, m in container.atoms:
        if s == site:
            return m
    return F(0)


@settings(max_examples=200, deadline=None)
@given(_weighted_sites())
def test_mass_agrees_with_linear_scan(atoms):
    mu = IntDist(atoms)
    lo, hi = mu.sites[0], mu.sites[-1]
    for site in range(lo - 2, hi + 3):
        assert mu.mass(site) == _scan_mass(mu, site)
    lattice = LatticeDist(((s, s * s % 5), m) for s, m in atoms)
    for site in itertools.product(range(lo - 2, hi + 3), range(-1, 6)):
        assert lattice.mass(site) == _scan_mass(lattice, site)
