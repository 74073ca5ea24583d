"""Core distribution type and concentration functionals."""

import builtins
import functools
import itertools
import operator
import subprocess
import sys
from fractions import Fraction as F
from math import comb, gcd, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conclab import dist
from conclab.dist import (
    IntDist,
    _convolve_numerators,
    _convolve_packed,
    _convolve_pairwise,
    convolve,
    convolve_all,
    convolve_power,
    delta,
    format_fraction,
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
    third_abs_moment,
    uniform,
    variance,
)
from conclab.extremal import nu
from conclab.gauss import LatticeDist
from conclab.rearrange import IntMeasure

from instances import random_instance


def q_max_convolve(a, b):
    """q_max(convolve(a, b)) as a Fraction, from the kernel's unreduced
    numerators."""
    out, den = _convolve_numerators((a, b))
    return F(max(out.values()), den)


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
    assert max_span(IntDist([(0, F(1, 2)), (4, F(1, 4)), (6, F(1, 4))])) == 2
    assert max_span(uniform([0, 1])) == 1
    assert max_span(delta(3)) is None


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
        sa, sb = max_span(a), max_span(b)
        assert max_span(convolve(a, b)) == gcd(sa, sb)


def test_convolve_power_matches_iteration():
    mu = uniform([0, 1, 3])
    assert convolve_power(mu, 5) == convolve_all([mu] * 5)


def test_convolve_power_refuses_a_power_over_the_budget_before_computing_it(monkeypatch):
    """Three atoms over 13 to the 10th power: at least 2 * 10 + 1 atoms over
    13**10, of 10 * 4 bits, so a size bound of 21 * 40 = 840.  The square
    law spans two dimensions, so its 20th power has at least C(22, 2) = 231
    atoms, not 20 * 3 + 1 = 61: a size bound of 231 * 60 = 13,860."""
    mu = IntDist([(0, F(4, 13)), (1, F(5, 13)), (3, F(4, 13))])
    monkeypatch.setattr(dist, "POWER_BUDGET", 840)
    assert convolve_power(mu, 10) == convolve_all([mu] * 10)

    def kernel(*args, **kwargs):
        raise AssertionError("the power was computed")

    monkeypatch.setattr(dist, "POWER_BUDGET", 839)
    monkeypatch.setattr(dist, "_convolve_numerators", kernel)
    with pytest.raises(ValueError, match="size bound 840, over the power budget 839"):
        convolve_power(mu, 10)
    square = LatticeDist([((0, 0), F(1, 4)), ((1, 0), F(1, 4)), ((0, 1), F(1, 4)), ((1, 1), F(1, 4))])
    with pytest.raises(ValueError, match="power budget"):
        convolve_power(square, 20)
    monkeypatch.setattr(dist, "POWER_BUDGET", 3660)  # the bound through 61 atoms
    with pytest.raises(ValueError, match="size bound 13860, over the power budget 3660"):
        convolve_power(square, 20)
    assert convolve_power(mu, 1) is mu


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


# -- the packed (Kronecker) and pairwise branches of the convolution kernel ----


def _parts(laws):
    """(site, numerator) pairs of each law over its common denominator: the
    kernel's input form."""
    out = []
    for mu in laws:
        d = mu.denominator()
        out.append([(s, m.numerator * (d // m.denominator)) for s, m in mu.atoms])
    return out


def _kernel_form(laws, n):
    """(parts, dim, frame): the operands of laws, raised to the n-th power,
    as the kernel's product proper sees them, numbered by dist._encode."""
    return dist._encode(_parts(laws), n)


def _pick(laws, n):
    """The branch that dist._branch picks for the laws raised to the n-th
    power, on the integer operands and dimension the kernel passes it."""
    parts, dim, _ = _kernel_form(laws, n)
    return dist._branch(parts, n, dim)


def _add_sites(a, b):
    """Sum of two sites: + for integers, coordinate by coordinate for
    lattice sites."""
    return tuple(map(operator.add, a, b)) if isinstance(a, tuple) else a + b


def _reference_convolve(a, b):
    """Two-law convolution in plain Fraction arithmetic, independent of the
    kernel: the sites are added here, not by it."""
    out = {}
    for sa, ma in a.atoms:
        for sb, mb in b.atoms:
            key = _add_sites(sa, sb)
            out[key] = out.get(key, F(0)) + ma * mb
    return type(a)(out.items())


_KINDS = ("int", "measure", "lattice1", "lattice2", "lattice3")


def _site(kind):
    if kind in ("int", "measure"):
        return st.integers(-9, 9)
    dim = int(kind[-1])
    reach = {1: 6, 2: 2, 3: 1}[dim]
    return st.tuples(*[st.integers(-reach, reach)] * dim)


@st.composite
def _law(draw, kind, max_atoms=6):
    """A law of the given container kind: negative and gapped sites, single
    atoms, uneven denominators; a measure's total is rarely 1."""
    sites = draw(st.lists(_site(kind), min_size=1, max_size=max_atoms, unique=True))
    weights = draw(st.lists(st.integers(1, 40), min_size=len(sites), max_size=len(sites)))
    if kind == "measure":
        den = draw(st.integers(1, 7))
        return IntMeasure((s, F(w, den)) for s, w in zip(sites, weights))
    atoms = [(s, F(w, sum(weights))) for s, w in zip(sites, weights)]
    return IntDist(atoms) if kind == "int" else LatticeDist(atoms)


@st.composite
def _laws(draw, max_laws=4):
    kind = draw(st.sampled_from(_KINDS))
    return draw(st.lists(_law(kind), min_size=1, max_size=max_laws))


@settings(max_examples=150, deadline=None)
@given(_laws(max_laws=3), st.integers(1, 3))
def test_packed_branch_matches_pairwise_branch(laws, n):
    parts, _, _ = _kernel_form(laws, n)
    packed = _convolve_packed(parts, n)
    pairwise = _convolve_pairwise(parts, n)
    assert packed == pairwise
    assert list(packed) == sorted(packed)  # unpacked in site order
    assert all(c > 0 for c in packed.values())


@settings(max_examples=60, deadline=None)
@given(_laws(max_laws=5))
def test_convolve_all_matches_left_fold(laws):
    expected = laws[0]
    for mu in laws[1:]:
        expected = _reference_convolve(expected, mu)
    assert convolve_all(laws) == expected


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_KINDS).flatmap(_law), st.integers(1, 9))
def test_convolve_power_matches_repeated_convolution(mu, n):
    expected = mu
    for _ in range(n - 1):
        expected = _reference_convolve(expected, mu)
    assert convolve_power(mu, n) == expected


@settings(max_examples=60, deadline=None)
@given(_law("int", max_atoms=30), _law("int", max_atoms=30))
def test_q_max_convolve_matches_q_max_of_convolve(a, b):
    assert q_max_convolve(a, b) == q_max(_reference_convolve(a, b))


def test_large_dense_laws_take_the_packed_branch():
    mu = IntDist((s, F(s + 1, 5050)) for s in range(100))
    assert _pick([mu, mu], 1) != "pairwise"
    assert _pick([uniform([0, 1, 3])], 128) != "pairwise"
    assert convolve(mu, mu) == _reference_convolve(mu, mu)
    square = LatticeDist(((x, y), F(1, 4)) for x in (0, 1) for y in (0, 1))
    assert _pick([square], 16) != "pairwise"
    assert convolve_power(square, 16) == convolve_all([square] * 16)


def test_small_laws_stay_pairwise():
    laws = [uniform(range(k)) for k in range(1, 11)]
    assert all(_pick([a, b], 1) == "pairwise" for a in laws for b in laws)


def test_sparse_power_stays_pairwise():
    mu = IntDist([(0, F(1, 2)), (10**12, F(1, 2))])
    assert _pick([mu], 64) == "pairwise"
    assert _pick([mu] * 64, 1) == "pairwise"
    expected = IntDist((k * 10**12, F(comb(64, k), 2**64)) for k in range(65))
    assert convolve_power(mu, 64) == expected
    assert convolve_all([mu] * 64) == expected


def test_kernel_keeps_measure_totals():
    a = IntMeasure([(0, F(3, 2)), (2, F(5, 3))])
    b = IntMeasure([(-1, 4), (1, F(1, 7))])
    c = convolve(a, b)
    assert sum(c.masses) == sum(a.masses) * sum(b.masses)
    assert convolve_power(a, 40) == convolve_all([a] * 40)


# -- the recurrence branch (Miller's recurrence for the power of one law) ------


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_KINDS).flatmap(_law), st.integers(1, 9))
@example(LatticeDist([((0, 1), F(2, 5)), ((1, 0), F(3, 5))]), 7)  # no atom at the box corner
@example(LatticeDist([((1, 0, 0), F(1, 3)), ((0, 1, 1), F(2, 3))]), 4)
@example(IntMeasure([(-3, F(7, 2)), (4, F(1, 3))]), 5)  # negative, gapped, total other than 1
@example(IntDist([(-2, F(1))]), 9)  # single atom
def test_recurrence_branch_matches_pairwise_branch(mu, n):
    (p,), _, _ = _kernel_form([mu], n)
    recurrence = dist._convolve_recurrence(p, n)
    assert recurrence == _convolve_pairwise([p], n)
    assert list(recurrence) == sorted(recurrence)  # built in site order
    assert all(c > 0 for c in recurrence.values())


def test_large_dense_powers_take_the_recurrence_branch():
    assert _pick([uniform([0, 1, 3])], 320) == "recurrence"
    assert _pick([uniform([0, 1, 2])], 128) == "recurrence"
    line5 = IntDist((s, F(w, 19)) for s, w in enumerate([3, 5, 4, 2, 5]))
    assert _pick([line5], 160) == "recurrence"
    assert _pick([IntDist([(0, F(1, 2)), (10**12, F(1, 2))])], 64) == "pairwise"
    # a product of laws has no recurrence, however dense
    mu = IntDist((s, F(s + 1, 5050)) for s in range(100))
    assert _pick([mu, mu], 1) == "packed"
    mu = IntMeasure([(0, 2), (1, F(1, 3)), (3, 5)])
    assert convolve_power(mu, 200) == convolve_all([mu] * 200)


def test_lattice_branch_rule():
    square = LatticeDist(((x, y), F(1, 4)) for x in (0, 1) for y in (0, 1))
    # dense lattice powers leave pairwise; on integer numbers a pairwise step
    # of the square costs what one of integer laws does, so by the crossover
    # table (tools/kernel_crossover.py) the 4th power stays and the 8th packs
    assert _pick([square], 2) == _pick([square], 4) == "pairwise"
    assert _pick([square], 8) == "packed"
    # the lower bound from the affine dimension: 32 copies of the cube have at
    # least C(35, 3) atoms, so the pairwise loop cannot be cheap
    cube = LatticeDist((s, F(1, 8)) for s in itertools.product((0, 1), repeat=3))
    assert _pick([cube], 32) != "pairwise"
    # a diagonal law is 1-dimensional: its power has few atoms in a large box
    diagonal = LatticeDist([((0, 0), F(1, 2)), ((1000, 1000), F(1, 2))])
    assert _pick([diagonal], 64) == "pairwise"
    assert convolve_power(diagonal, 64) == LatticeDist(
        ((1000 * k, 1000 * k), F(comb(64, k), 2**64)) for k in range(65)
    )


def _reference_branch(parts, n, dim):
    """dist._branch with only the two-law early exit for single products:
    the loop that the early exit for any number of laws must agree with."""
    if n == 1 and len(parts) == 2:
        na, nb = len(parts[0]), len(parts[1])
        if na * nb <= dist._PACK_FIXED + dist._PACK_PER_ATOM * (na + nb):
            return "pairwise"
    packed, recurrence = dist._dense_costs(parts, n)
    cost = min(packed, recurrence)
    span = parts[0][-1][0] - parts[0][0][0]
    size_hi = size_lo = len(parts[0])
    work_hi = work_lo = 0
    for i in range(1, len(parts) * n):
        p = parts[i % len(parts)]
        work_hi += size_hi * len(p)
        work_lo += size_lo * len(p)
        if work_hi > cost and dist._GUARD * work_lo >= cost:
            return "recurrence" if recurrence < packed else "packed"
        span += p[-1][0] - p[0][0]
        size_hi = min(size_hi * len(p), span + 1)
        size_lo = max(size_lo + len(p) - 1, comb(i + 1 + dim, dim))
    return "pairwise"


@st.composite
def _operands(draw):
    """Kernel operands: (site, numerator) pairs in site order, 1-8 atoms,
    dense or spread sites and numerators of 1-60 bits."""
    width = draw(st.sampled_from([8, 20, 200, 10**6]))
    sites = sorted(draw(st.lists(st.integers(0, width), min_size=1, max_size=8, unique=True)))
    bits = draw(st.integers(1, 60))
    return [(s, draw(st.integers(1, 2**bits))) for s in sites]


@settings(max_examples=300, deadline=None)
@given(st.lists(_operands(), min_size=1, max_size=6), st.integers(0, 3))
def test_single_product_branch_matches_the_loop(parts, dim):
    assert dist._branch(parts, 1, dim) == _reference_branch(parts, 1, dim)


def test_affine_dim():
    assert dist._affine_dim([(3, 4)]) == 0
    assert dist._affine_dim([(k, 2 * k, -k) for k in range(5)]) == 1
    assert dist._affine_dim([(0, 0), (1, 1), (2, 2), (5, 5)]) == 1
    assert dist._affine_dim([(0, 0), (1, 1), (1, 0)]) == 2
    assert dist._affine_dim([(0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 1, 0)]) == 2
    assert dist._affine_dim([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]) == 3
    assert dist._affine_dim(list(itertools.product((0, 1), repeat=3))) == 3


class _BadPower(int):
    """A numerator whose powers are off by one: a corrupted p_0."""

    def __pow__(self, n):
        return int(self) ** n + 1


class _BadStep(int):
    """An exponent whose successor is off by one: a corrupted step (n + 1) j."""

    def __add__(self, other):
        return int(self) + other + 1


def test_recurrence_remainder_raises():
    with pytest.raises(RuntimeError, match="remainder"):
        dist._convolve_recurrence([(0, _BadPower(2)), (1, 3)], 5)
    with pytest.raises(RuntimeError, match="remainder"):
        dist._convolve_recurrence([(0, 2), (1, 3), (2, 5)], _BadStep(5))
    assert dist._convolve_recurrence([(0, 2), (1, 3), (2, 5)], 5) == _convolve_pairwise([[(0, 2), (1, 3), (2, 5)]], 5)


def test_kernel_crossover_script_runs():
    script = Path(__file__).resolve().parent.parent / "tools" / "kernel_crossover.py"
    run = subprocess.run(
        [sys.executable, str(script), "--repeat", "1", "3x3", "sq^2"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    rows = run.stdout.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["3x3", "sq^2"]
    assert all(row.split()[-2] in ("pairwise", "packed", "recurrence") for row in rows)
    assert rows[1].split()[-4] != "-"  # a power of one law times the recurrence too


# -- the integer storage: kernel results against the validating constructor ---


@pytest.mark.parametrize("packed", [True, False], ids=["packed", "pairwise"])
@settings(max_examples=80, deadline=None)
@given(laws=_laws(max_laws=3), n=st.integers(2, 3))
def test_kernel_results_equal_validated_laws(packed, laws, n):
    """A law built from kernel numerators is the law the validating
    constructor builds from the same atoms, on either kernel branch: the same
    reduced integers, so the same ==, hash, denominator, atoms and JSON."""
    def forced(parts, n, dim):
        """'pairwise', or else the cheaper Kronecker branch by the cost model."""
        if not packed:
            return "pairwise"
        costs = dist._dense_costs(parts, n)
        return "recurrence" if costs[1] < costs[0] else "packed"

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dist, "_branch", forced)
        built = [(convolve_power(laws[0], n), [laws[0]] * n)]
        if len(laws) > 1:
            built.append((convolve_all(laws), laws))
    for mu, factors in built:
        validated = functools.reduce(_reference_convolve, factors)
        assert type(mu) is type(laws[0])
        assert mu == validated and hash(mu) == hash(validated)
        assert mu.denominator() == validated.denominator() == lcm(*(m.denominator for m in mu.masses))
        assert mu.atoms == validated.atoms
        assert mu.sites == validated.sites and mu.numerators == validated.numerators
        assert mu.to_json_obj() == validated.to_json_obj()
        assert repr(mu) == repr(validated)


# -- lattice laws enter the kernel numbered: dist._encode and dist._decode ----


@st.composite
def _far_lattice_laws(draw):
    """1-3 lattice laws of one dimension 1..3, each in a box of unequal
    extents translated far from the origin: every coordinate at least 10**6,
    or every coordinate at most -10**6."""
    dim = draw(st.integers(1, 3))
    sign = draw(st.sampled_from((1, -1)))
    laws = []
    for _ in range(draw(st.integers(1, 3))):
        ext = draw(st.permutations((0, 1, 2, 4)))[:dim]
        corner = [10**6 + draw(st.integers(0, 50)) for _ in range(dim)]
        local = st.tuples(*(st.integers(0, e) for e in ext))
        points = draw(st.lists(local, min_size=1, max_size=5, unique=True))
        weights = draw(st.lists(st.integers(1, 9), min_size=len(points), max_size=len(points)))
        sites = [tuple(sign * (c + x) for c, x in zip(corner, pt)) for pt in points]
        laws.append(LatticeDist((s, F(w, sum(weights))) for s, w in zip(sites, weights)))
    return laws


@pytest.mark.parametrize("branch", ["pairwise", "packed", "recurrence"])
@settings(max_examples=40, deadline=None)
@given(laws=_far_lattice_laws(), n=st.integers(2, 4))
def test_numbered_lattice_laws_match_the_reference_on_every_branch(branch, laws, n):
    """Every branch, forced, runs on the numbered sites and gives back the
    Fraction reference's lattice law: the power of one law on all three, the
    product of several laws on the two that take products."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dist, "_branch", lambda parts, n, dim: branch)
        built = [(convolve_power(laws[0], n), [laws[0]] * n)]
        if branch != "recurrence" and len(laws) > 1:
            built.append((convolve_all(laws), laws))
    for mu, factors in built:
        assert mu == functools.reduce(_reference_convolve, factors)


def test_the_product_proper_sees_integer_sites_only(monkeypatch):
    seen = []
    real_product = dist._product

    def spy(parts, n, total, dim, *ordered):
        seen.extend(s for p in parts for s, _ in p)
        return real_product(parts, n, total, dim, *ordered)

    monkeypatch.setattr(dist, "_product", spy)
    square = LatticeDist(((x, y), F(1, 4)) for x in (0, 1) for y in (0, 1))
    cube = LatticeDist((s, F(1, 8)) for s in itertools.product((0, 1), repeat=3))
    far = LatticeDist([((10**6, -(10**6)), F(1, 3)), ((10**6 + 2, -(10**6) + 1), F(2, 3))])
    shifted = shift(far, (-3, 4))
    results = [
        (convolve(square, square), [square, square]),
        (convolve_all([far, far, far]), [far, far, far]),
        (convolve_power(cube, 5), [cube] * 5),
        (convolve_power(square, 16), [square] * 16),
        (shifted, [far, LatticeDist([((-3, 4), 1)])]),
    ]
    assert len(seen) > 0 and all(type(s) is int for s in seen)
    for mu, factors in results:
        assert mu == functools.reduce(_reference_convolve, factors)


def test_integer_view():
    mu = IntDist([(4, F(1, 6)), (-2, F(1, 2)), (0, F(1, 3))])
    assert (mu.sites, mu.numerators, mu.denominator()) == ((-2, 0, 4), (3, 2, 1), 6)
    assert mu.numerator(0) == 2 and mu.numerator(1) == 0
    assert mu.mass(4) == F(1, 6) and mu.mass(1) == 0
    assert mu.atoms == ((-2, F(1, 2)), (0, F(1, 3)), (4, F(1, 6)))
    with pytest.raises(AttributeError):
        mu.numerators = (1,)


def test_shift_takes_integer_offsets_only():
    with pytest.raises(TypeError):
        shift(uniform([0, 1]), F(1, 2))
    with pytest.raises(TypeError):
        shift(uniform([0, 1]), 1.0)
    with pytest.raises(TypeError):
        shift(uniform([0, 1]), True)  # a site, so a boolean is not the integer 1


def test_exact_results_are_reduced_once_and_sign_checked():
    halves = IntDist._from_integers({1: 6, 0: 6}, 12)
    assert halves == uniform([0, 1]) and halves.denominator() == 2 and halves.sites == (0, 1)
    with pytest.raises(RuntimeError):
        IntDist._from_integers({0: 2, 1: 0}, 2)
    with pytest.raises(RuntimeError):
        IntDist._from_integers({0: 3, 1: -1}, 2)
    with pytest.raises(RuntimeError):
        IntDist._from_integers({0: -1}, -1)


# -- functionals on the integer view against their Fraction bodies ----------


def _q_max_reference(mu):
    return max(mu.masses)


def _q_k_reference(mu, k):
    return sum(sorted(mu.masses, reverse=True)[:k], F(0))


def _q_interval_reference(mu, t):
    sites, masses = mu.sites, mu.masses
    best = window = F(0)
    j = 0
    for i in range(len(sites)):
        window += masses[i]
        while sites[i] - sites[j] >= t:
            window -= masses[j]
            j += 1
        if window > best:
            best = window
    return best


def _mean_reference(mu):
    return sum((F(s) * m for s, m in mu.atoms), F(0))


def _variance_reference(mu):
    mu1 = _mean_reference(mu)
    return sum((m * (F(s) - mu1) ** 2 for s, m in mu.atoms), F(0))


def _third_abs_moment_reference(mu):
    mu1 = _mean_reference(mu)
    return sum((m * abs(F(s) - mu1) ** 3 for s, m in mu.atoms), F(0))


def _is_log_concave_reference(mu):
    sites, ms = mu.sites, mu.masses
    if sites[-1] - sites[0] + 1 != len(sites):
        return False
    return all(ms[i] ** 2 >= ms[i - 1] * ms[i + 1] for i in range(1, len(ms) - 1))


def _is_unimodal_reference(mu):
    sites, ms = mu.sites, mu.masses
    if len(ms) == 1:
        return True
    if sites[-1] - sites[0] + 1 != len(sites):
        return False
    i = 0
    while i + 1 < len(ms) and ms[i + 1] >= ms[i]:
        i += 1
    while i + 1 < len(ms) and ms[i + 1] <= ms[i]:
        i += 1
    return i == len(ms) - 1


def _modes_reference(mu):
    peak = _q_max_reference(mu)
    return [s for s, m in mu.atoms if m == peak]


def _squeeze_reference(mu):
    start = -((len(mu) - 1) // 2)
    return IntDist((start + j, m) for j, (_, m) in enumerate(mu.atoms))


@st.composite
def _int_law(draw):
    """A law on a run of integers or on scattered ones, with weights that
    make log-concave and unimodal laws common."""
    if draw(st.booleans()):
        start = draw(st.integers(-9, 9))
        sites = list(range(start, start + draw(st.integers(1, 8))))
    else:
        sites = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=8, unique=True))
    weights = draw(st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 12]), min_size=len(sites), max_size=len(sites)))
    if draw(st.booleans()):
        weights.sort()
        weights = weights[: len(weights) // 2] + sorted(weights[len(weights) // 2 :], reverse=True)
    return IntDist((s, F(w, sum(weights))) for s, w in zip(sites, weights))


@settings(max_examples=300, deadline=None)
@given(_int_law(), st.integers(1, 9), st.integers(-20, 20))
def test_functionals_match_fraction_bodies(mu, k, c):
    assert q_max(mu) == _q_max_reference(mu)
    assert q_k(mu, k) == _q_k_reference(mu, k)
    assert q_interval(mu, k) == _q_interval_reference(mu, k)
    assert mean(mu) == _mean_reference(mu)
    assert variance(mu) == _variance_reference(mu)
    assert third_abs_moment(mu) == _third_abs_moment_reference(mu)
    assert is_log_concave(mu) == _is_log_concave_reference(mu)
    assert is_unimodal(mu) == _is_unimodal_reference(mu)
    assert modes(mu) == _modes_reference(mu)
    assert shift(mu, c) == IntDist((s + c, m) for s, m in mu.atoms)
    assert negate(mu) == IntDist((-s, m) for s, m in mu.atoms)
    assert squeeze(mu) == _squeeze_reference(mu)


def test_functionals_match_fraction_bodies_on_seeded_laws():
    for seed in range(40):
        for kind in ("log-concave", "sharp-log-concave", "symmetric-unimodal", "distribution"):
            mu = random_instance(seed, kind)
            assert is_log_concave(mu) == _is_log_concave_reference(mu)
            assert is_unimodal(mu) == _is_unimodal_reference(mu)
            assert is_sharp_log_concave(mu) == _is_log_concave_reference(_squeeze_reference(mu))
            assert variance(mu) == _variance_reference(mu)
            assert third_abs_moment(mu) == _third_abs_moment_reference(mu)


# -- JSON, text and repr from the integers against the Fraction formatting ----


def _formatting_reference(mu):
    """(to_json_obj, repr) as they were built from the Fraction atoms."""
    json_obj = {"atoms": [[s, format_fraction(m)] for s, m in mu.atoms]}
    inner = ", ".join(f"{s}: {format_fraction(m)}" for s, m in mu.atoms)
    return json_obj, f"{type(mu).__name__}({{{inner}}})"


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(("int", "measure", "lattice2")).flatmap(_law))
@example(IntMeasure([(-3, F(3, 2)), (0, F(5, 6)), (4, 2)]))
@example(IntDist([(0, F(1, 6)), (1, F(1, 3)), (2, F(1, 2))]))
@example(LatticeDist([((0, -1), F(1, 4)), ((1, 2), F(3, 4))]))
def test_integer_formatting_matches_fraction_formatting(mu):
    """Each mass printed from its numerator and the common denominator over
    their gcd is the reduced Fraction's text, for the three container types
    and measures whose total is not 1."""
    json_obj, text = _formatting_reference(mu)
    assert mu.to_json_obj() == json_obj
    assert repr(mu) == text
    if isinstance(mu, IntDist):
        assert mu.to_text() == "".join(f"{s}: {format_fraction(m)}\n" for s, m in mu.atoms)


# -- stored site order and the cached hash ------------------------------------

_ORDER_PAIRS = {
    "int": (IntDist([(5, F(1, 6)), (-3, F(1, 2)), (0, F(1, 3))]), IntDist([(4, F(1, 4)), (-9, F(3, 4))])),
    "measure": (IntMeasure([(2, F(3)), (-1, F(1, 2))]), IntMeasure([(7, F(2)), (0, F(5))])),
    "lattice2": (
        LatticeDist([((1, 0), F(1, 4)), ((0, 2), F(1, 4)), ((-1, 1), F(1, 2))]),
        LatticeDist([((3, -1), F(2, 3)), ((0, 0), F(1, 3))]),
    ),
    "lattice3": (
        LatticeDist([((0, 0, 1), F(1, 3)), ((1, 0, 0), F(1, 3)), ((0, 1, -2), F(1, 3))]),
        LatticeDist([((2, 2, 2), F(1, 2)), ((-1, 0, 0), F(1, 2))]),
    ),
}


@pytest.mark.parametrize("branch", ["pairwise", "packed", "recurrence"])
@pytest.mark.parametrize("kind", list(_ORDER_PAIRS))
def test_kernel_results_are_stored_in_site_order(kind, branch, monkeypatch):
    """Every branch stores its result in site order, and only the pairwise
    loop's output is sorted on the way in: the Kronecker branches and
    ``_decode`` already give sites in order."""
    law, other = _ORDER_PAIRS[kind]
    sorts = []

    def counting_sorted(items):
        sorts.append(len(items))
        return builtins.sorted(items)

    monkeypatch.setattr(dist, "_branch", lambda parts, n, dim: branch)
    monkeypatch.setattr(dist, "sorted", counting_sorted, raising=False)
    built = [(convolve_power(law, 4), [law] * 4)]
    if branch != "recurrence":
        built += [(convolve(law, other), [law, other]), (convolve_all([other, law, other]), [other, law, other])]
    assert sorts == ([len(mu) for mu, _ in built] if branch == "pairwise" else [])
    monkeypatch.undo()
    for mu, factors in built:
        assert list(mu.sites) == builtins.sorted(mu.sites)
        assert mu == functools.reduce(_reference_convolve, factors)
    if kind in ("int", "measure"):  # negate hands its sites in reversed, so they are sorted
        assert list(negate(law).sites) == builtins.sorted(negate(law).sites)


def test_hash_is_worked_out_once_and_matches_equal_laws():
    mu = IntDist([(2, F(2, 3)), (0, F(1, 3))])
    assert not hasattr(mu, "_hash")
    h = hash(mu)
    assert h == hash((3, (0, 1), (2, 2))) and mu._hash == h
    object.__setattr__(mu, "_hash", h + 1)  # a second hash reads the kept value
    assert hash(mu) == h + 1
    square = convolve(uniform([0, 1]), uniform([0, 1]))
    assert hash(square) == hash(IntDist([(1, F(1, 2)), (2, F(1, 4)), (0, F(1, 4))]))
    lattice = LatticeDist([((1, 0), F(1, 2)), ((0, 1), F(1, 2))])
    assert hash(lattice) == hash(LatticeDist([((0, 1), F(1, 2)), ((1, 0), F(1, 2))]))
