"""Rearrangements, ball functions, nested medians, dominating coupling."""

from fractions import Fraction as F
from math import ceil, gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conclab.dist import IntDist, convolve, delta, is_unimodal, q_k, uniform
from conclab.domination import profile_rows
from conclab.extremal import nu
from conclab.rearrange import (
    IntMeasure,
    JointCoupling,
    _layout,
    _plus_position,
    ball_function,
    centered_interval,
    dominating_coupling,
    is_symmetric_unimodal,
    minus_rearrange,
    nested_medians,
    plus_rearrange,
    sym_rearrange,
)

from instances import random_instance


def test_plus_rearrange_examples():
    mu = IntDist([(5, F(1, 2)), (6, F(3, 10)), (7, F(1, 5))])
    assert plus_rearrange(mu) == IntDist([(0, F(1, 2)), (1, F(3, 10)), (-1, F(1, 5))])
    assert plus_rearrange(delta(9)) == delta(0)
    assert plus_rearrange(uniform([2, 4, 6])) == uniform([-1, 0, 1])


def test_minus_rearrange_examples():
    mu = IntDist([(5, F(1, 2)), (6, F(3, 10)), (7, F(1, 5))])
    assert minus_rearrange(mu) == IntDist([(0, F(1, 2)), (-1, F(3, 10)), (1, F(1, 5))])
    sym = IntDist([(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))])
    assert minus_rearrange(sym) == sym
    assert minus_rearrange(delta(9)) == delta(0)


def test_minus_is_reflection_of_plus():
    for seed in range(40):
        mu = random_instance(seed, "distribution")
        plus = plus_rearrange(mu)
        minus = minus_rearrange(mu)
        assert all(minus.mass(-s) == m for s, m in plus.atoms)


def test_sym_rearrange_examples():
    assert sym_rearrange(uniform([3, 4, 5])) == uniform([-1, 0, 1])
    assert sym_rearrange(nu(F(2, 5))) is None
    mu = IntDist([(0, F(1, 2)), (1, F(1, 4)), (2, F(1, 4))])
    assert sym_rearrange(mu) == IntDist([(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))])


def test_plus_rearrange_preserves_profile():
    for seed in range(40):
        mu = random_instance(100 + seed, "distribution")
        plus = plus_rearrange(mu)
        for k in range(1, len(mu) + 1):
            assert q_k(plus, k) == q_k(mu, k)
            lo, hi = centered_interval(k)
            on_interval = sum(
                (m for s, m in plus.atoms if lo <= s <= hi), F(0)
            )
            assert on_interval == q_k(mu, k)


def test_ball_function_examples():
    bf = ball_function(IntMeasure([(-1, 2), (0, 3), (1, 2)]))
    assert bf.domain == (1, 7)
    assert bf.groups == ((-1, (1, 2)), (0, (3, 5)), (1, (6, 7)))
    bf = ball_function(IntMeasure([(4, 7)]))
    assert bf.groups == ((0, (1, 7)),)
    bf = ball_function(IntMeasure([(0, 1), (1, 1)]))
    assert bf.groups == ((0, (1, 1)), (1, (2, 2)))


def test_ball_function_scales_rational_masses():
    bf = ball_function(IntMeasure([(0, F(1, 2)), (3, F(1, 4)), (9, F(1, 4))]))
    # scaled masses 2, 1, 1; plus-rearranged sites 0, 1, -1
    assert bf.domain == (1, 4)
    assert bf.groups == ((-1, (1, 1)), (0, (2, 3)), (1, (4, 4)))


def test_nested_medians_examples():
    chain = nested_medians(IntMeasure([(-1, 2), (0, 3), (1, 2)]))
    assert chain.median(1) == 4
    assert chain.median(2) == 5
    assert chain.median(3) == 4
    assert chain.m == 4
    chain = nested_medians(IntMeasure([(5, 9)]))
    assert chain.m == chain.median(1) == 5
    chain = nested_medians(IntMeasure([(0, 1), (1, 1)]))
    assert chain.median(1) == 1
    assert chain.median(2) == F(3, 2)
    assert chain.m == F(3, 2)


def test_nested_medians_chain_and_zero_level():
    for seed in range(200):
        measure = random_instance(seed, "integer-measure")
        bf = ball_function(measure)
        chain = nested_medians(measure)
        meds = chain.level_medians
        odd = meds[0::2]
        even = meds[1::2]
        assert all(odd[i] <= odd[i + 1] for i in range(len(odd) - 1))
        assert all(even[i] >= even[i + 1] for i in range(len(even) - 1))
        assert all(x <= chain.m for x in odd)
        assert all(x >= chain.m for x in even)
        assert bf.value_at(int(chain.m)) == 0
        for j in range(1, len(meds) + 1):
            assert bf.value_at(int(chain.median(j))) == 0


def test_coupling_identity_uniform():
    mu = uniform([-1, 0, 1])
    coupling = dominating_coupling(mu, mu, 0)
    assert coupling.prob_a() == 1
    for z, x, in_a, _ in coupling.cells:
        assert in_a
        assert z == x or z in (x, x + 1)


def test_coupling_point_masses():
    coupling = dominating_coupling(delta(0), delta(0), 0)
    assert coupling.cells == ((0, 0, True, F(1)),)


def test_coupling_worked_example():
    mu = IntDist([(0, F(3, 4)), (1, F(1, 4))])
    mu_prime = IntDist([(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))])
    coupling = dominating_coupling(mu, mu_prime, F(1, 2))
    assert coupling.prob_a() == F(2, 3)
    assert coupling.audit["N"] == 12 and coupling.audit["K"] == 8
    for z, x, in_a, _ in coupling.cells:
        if in_a:
            assert (0 <= x <= z) or (z - 1 <= x <= 0)


def test_coupling_rejects_bad_inputs():
    with pytest.raises(ValueError):
        dominating_coupling(delta(0), uniform([0, 1]), 0)  # mu_prime not symmetric
    with pytest.raises(ValueError):
        dominating_coupling(delta(0), uniform([-1, 0, 1]), F(1, 2))  # domination fails
    with pytest.raises(ValueError):
        dominating_coupling(delta(0), delta(0), -1)


def test_coupling_rejects_measures():
    """Both laws must be probability laws: on the measure of total 2/3 below
    the cells would sum to 2/3 and P(A) = 4/9 would miss its bound of 2/3."""
    mu_prime = IntDist([(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))])
    for mu, prime in [
        (IntMeasure([(0, F(1, 3)), (1, F(1, 3))]), mu_prime),
        (IntMeasure(mu_prime.atoms), mu_prime),
        (mu_prime, IntMeasure(mu_prime.atoms)),
    ]:
        with pytest.raises(ValueError, match="probability laws"):
            dominating_coupling(mu, prime, F(1, 2))


def _check_coupling(mu, mu_prime, eps):
    coupling = dominating_coupling(mu, mu_prime, eps)
    plus = dict(plus_rearrange(mu).atoms)
    assert coupling.prob_a() >= 1 / (1 + eps)
    assert coupling.marginal_z() == plus
    assert coupling.marginal_z(True) == plus
    assert coupling.marginal_x_prime() == dict(mu_prime.atoms)
    off_total = sum((m for _, _, in_a, m in coupling.cells if not in_a), F(0))
    if off_total > 0:
        assert coupling.marginal_z(False) == plus
        cond_x = {}
        for _, x, in_a, m in coupling.cells:
            if not in_a:
                cond_x[x] = cond_x.get(x, F(0)) + m / off_total
        for z, x, in_a, m in coupling.cells:
            if not in_a:
                assert m / off_total == plus[z] * cond_x[x]
    for z, x, in_a, _ in coupling.cells:
        if in_a:
            if x > 0:
                assert 0 < x <= z
            elif x < 0:
                assert z - 1 <= x <= 0
            else:
                assert (0 <= z) or (z <= 1)


def test_coupling_seeded_triples():
    for seed in range(120):
        mu, mu_prime, eps = random_instance(seed, "coupling-pair")
        _check_coupling(mu, mu_prime, eps)


def test_coupling_json_rows():
    mu, mu_prime, eps = random_instance(7, "coupling-pair")
    coupling = dominating_coupling(mu, mu_prime, eps)
    rows = coupling.to_json_rows()
    assert all(len(row) == 4 for row in rows)
    assert coupling.to_json() == dominating_coupling(mu, mu_prime, eps).to_json()


def test_measure_validation():
    with pytest.raises(ValueError):
        IntMeasure([])
    with pytest.raises(ValueError):
        IntMeasure([(0, F(-1, 2))])
    measure = IntMeasure([(0, F(1, 3)), (2, F(1, 6))])
    assert measure.denominator() == 6 and measure.numerators == (2, 1)


def test_measure_keeps_total_other_than_one():
    measure = IntMeasure([(0, 2), (3, F(1, 2))])
    assert sum(measure.masses) == F(5, 2)
    assert measure.mass(3) == F(1, 2) and measure.mass(1) == 0
    assert measure.denominator() == 2
    assert IntMeasure.from_json_obj(measure.to_json_obj()) == measure
    square = convolve(measure, measure)
    assert type(square) is IntMeasure and sum(square.masses) == F(25, 4)
    assert IntMeasure([(0, 1)]) != delta(0)
    with pytest.raises(ValueError):
        IntDist(measure.atoms)


# -- functions on the integer view against their Fraction bodies -------------


def _ranked_masses(mu):
    """Masses by decreasing mass, ties by ascending site."""
    return [m for _, m in sorted(mu.atoms, key=lambda a: (-a[1], a[0]))]


def _plus_reference(mu):
    return type(mu)((_plus_position(r), m) for r, m in enumerate(_ranked_masses(mu)))


def _minus_reference(mu):
    return type(mu)((-_plus_position(r), m) for r, m in enumerate(_ranked_masses(mu)))


def _ball_function_reference(nu_):
    plus = _plus_reference(nu_)
    scale = plus.denominator()
    return _layout([(s, int(m * scale)) for s, m in plus.atoms], 1)


def _is_symmetric_unimodal_reference(mu):
    return all(mu.mass(-s) == m for s, m in mu.atoms) and is_unimodal(mu)


def _coupling_reference(mu, mu_prime, eps):
    """dominating_coupling's Fraction body, for inputs it accepts."""
    c = 1 / (1 + eps)
    plus = _plus_reference(mu)
    n_den = lcm(plus.denominator(), mu_prime.denominator(), *((c * m).denominator for _, m in plus.atoms))
    doublings = 0
    big_n = n_den
    if big_n % 2 == 1:
        big_n *= 2
        doublings += 1
    big_k = big_n * c
    if int(big_k) % 2 == 1:
        big_n *= 2
        doublings += 1
        big_k = big_n * c
    big_k = int(big_k)
    f = _layout([(s, int(m * c * big_n)) for s, m in plus.atoms], -(big_k // 2) + 1)
    f_prime = _layout([(s, int(m * big_n)) for s, m in mu_prime.atoms], -(big_n // 2) + 1)
    cells = {}
    for z, (zlo, zhi) in f.groups:
        for x, (xlo, xhi) in f_prime.groups:
            lo, hi = max(zlo, xlo), min(zhi, xhi)
            if lo <= hi:
                cells[(z, x, True)] = cells.get((z, x, True), F(0)) + F(hi - lo + 1, big_n)
    for clo, chi in [(-(big_n // 2) + 1, -(big_k // 2)), (big_k // 2 + 1, big_n // 2)]:
        if chi < clo:
            continue
        for x, (xlo, xhi) in f_prime.groups:
            lo, hi = max(clo, xlo), min(chi, xhi)
            if lo <= hi:
                for z, w in plus.atoms:
                    cells[(z, x, False)] = cells.get((z, x, False), F(0)) + F(hi - lo + 1, big_n) * w
    ordered = tuple(
        (z, x, flag, m) for (z, x, flag), m in sorted(cells.items(), key=lambda kv: (not kv[0][2], kv[0][0], kv[0][1]))
    )
    return JointCoupling(ordered, {"N": big_n, "K": big_k, "epsilon": eps, "doublings": doublings})


def test_rearrangements_match_fraction_bodies():
    for seed in range(80):
        for kind in ("distribution", "log-concave", "symmetric-unimodal"):
            mu = random_instance(seed, kind)
            assert plus_rearrange(mu) == _plus_reference(mu)
            assert minus_rearrange(mu) == _minus_reference(mu)
            assert is_symmetric_unimodal(mu) == _is_symmetric_unimodal_reference(mu)
        measure = random_instance(seed, "integer-measure")
        assert ball_function(measure) == _ball_function_reference(measure)
        thirds = IntMeasure((s, m / 3) for s, m in measure.atoms)
        assert ball_function(thirds) == _ball_function_reference(thirds)


def test_coupling_matches_fraction_body():
    for seed in range(120):
        mu, mu_prime, eps = random_instance(seed, "coupling-pair")
        assert dominating_coupling(mu, mu_prime, eps).to_json() == _coupling_reference(mu, mu_prime, eps).to_json()


@st.composite
def _laws(draw):
    """A law of up to 6 atoms with weights up to 30."""
    sites = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=6, unique=True))
    weights = draw(st.lists(st.integers(1, 30), min_size=len(sites), max_size=len(sites)))
    return IntDist((s, F(w, sum(weights))) for s, w in zip(sites, weights))


@st.composite
def _symmetric_unimodal_laws(draw):
    """Weights w_0 >= w_1 >= ... >= w_k at 0, +-1, ..., +-k."""
    half = sorted(draw(st.lists(st.integers(1, 12), min_size=1, max_size=4)), reverse=True)
    weights = half[:0:-1] + half
    k = len(half) - 1
    return IntDist((s, F(w, sum(weights))) for s, w in zip(range(-k, k + 1), weights))


def _assert_coupling_matches_reference(mu, mu_prime, eps):
    coupling, reference = dominating_coupling(mu, mu_prime, eps), _coupling_reference(mu, mu_prime, eps)
    assert coupling.audit == reference.audit  # N, K, epsilon and doublings
    assert coupling.cells == reference.cells


@settings(max_examples=150, deadline=None)
@given(_laws(), _symmetric_unimodal_laws(), st.integers(1, 6), st.integers(0, 40))
@example(IntDist([(0, F(3, 4)), (1, F(1, 4))]), IntDist([(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))]), 1, 0)
def test_coupling_matches_fraction_body_when_p_shares_factors_with_d(mu, mu_prime, r, extra):
    """c = 1/(1+eps) = p/q with p, the denominator of eps, sharing a factor
    with d, the denominator of plus(mu): the case where the closed form of N
    divides q*d by gcd(p, d) > 1.  eps is at least the smallest slack that
    makes the domination hold."""
    d = plus_rearrange(mu).denominator()
    slack = max(F(0), *(lhs / rhs - 1 for _, lhs, rhs in profile_rows(mu, mu_prime, 0)))
    eps = F(ceil(slack * d * r) + extra, d * r)
    assume(gcd(eps.denominator, d) > 1)
    _assert_coupling_matches_reference(mu, mu_prime, eps)


@settings(max_examples=100, deadline=None)
@given(_symmetric_unimodal_laws(), st.data())
def test_coupling_matches_fraction_body_at_eps_zero(mu_prime, data):
    """mu carries the masses of mu' on other sites, so its profile is that of
    mu' and the domination holds with eps = 0, where c = 1 and K = N."""
    n = len(mu_prime)
    sites = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n, unique=True))
    mu = IntDist(zip(sites, data.draw(st.permutations(mu_prime.masses))))
    _assert_coupling_matches_reference(mu, mu_prime, F(0))
