"""Decisions that have one owner in the package, against the plain bodies
they replaced.

The profile order (``domination.profile_rows``) decides the coupling's
precondition, the peakedness slack and the coupling-pair slack; connectivity
(``gaps._components``) decides ``Decomposition.is_connected``; the affine
dimension of the support (``dist._affine_dim``) decides whether
``fit_gauss_spec`` accepts a law; ``gauss._norm_tail_bound`` and
``gauss._normal_draws`` carry the Gaussian tail bound and the seeded draws.
Each reference below is the loop that one of those call sites used to run.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from conclab.dist import q_k
from conclab.extremal import extremal_enumerate, inverse_floor, is_extremal, nu
from conclab.gaps import Decomposition, connected_decomposition
from conclab.gauss import (
    GaussSpec,
    LatticeDist,
    _normal_draws,
    _tail_bound_outside_box,
    fit_gauss_spec,
    gaussian_tail_bound,
    gaussian_tail_check,
    norm_sf,
)
from conclab.rearrange import dominating_coupling
from conclab.verify import _min_profile_slack

from instances import random_instance

SRC = Path(__file__).resolve().parents[1] / "src"


# -- the profile order ---------------------------------------------------------


def _rows_reference(mu1, mu2, eps):
    """(j, Q_j(mu1), (1+eps) Q_j(mu2)) by one q_k call per side and j."""
    return [(j, q_k(mu1, j), (1 + eps) * q_k(mu2, j)) for j in range(1, max(len(mu1), len(mu2)) + 1)]


def _first_failing_j_reference(mu, mu_prime, eps):
    for j, lhs, rhs in _rows_reference(mu, mu_prime, eps):
        if lhs > rhs:
            return j
    return None


def _pairs(count):
    for seed in range(count):
        mu = random_instance(seed, "distribution")
        mu_prime = random_instance(seed, "symmetric-unimodal")
        yield seed, mu, mu_prime


def test_coupling_reports_the_first_failing_j():
    failures = 0
    for seed, mu, mu_prime in _pairs(300):
        for eps in (F(0), F(1, 7), F(1, 2), F(2)):
            j = _first_failing_j_reference(mu, mu_prime, eps)
            if j is None:
                coupling = dominating_coupling(mu, mu_prime, eps)
                assert sum(m for *_, m in coupling.cells) == 1
                continue
            failures += 1
            with pytest.raises(ValueError) as exc:
                dominating_coupling(mu, mu_prime, eps)
            assert str(exc.value) == f"domination fails at j={j}", (seed, eps)
    assert failures > 100  # both branches are exercised


def test_min_profile_slack_matches_q_k_loop():
    for seed, mu, mu_prime in _pairs(200):
        for eps in (F(0), F(1, 3), F(4, 5)):
            want = min(_rows_reference(mu, mu_prime, eps), key=lambda row: row[2] - row[1])
            assert _min_profile_slack(mu, mu_prime, eps) == want, (seed, eps)


def test_coupling_pair_epsilon_matches_q_k_ratio_loop():
    for seed in range(200):
        mu, mu_prime, eps = random_instance(seed, "coupling-pair")
        want = F(0)
        for j in range(1, max(len(mu), len(mu_prime)) + 1):
            want = max(want, q_k(mu, j) / q_k(mu_prime, j) - 1)
        assert eps == want, seed
        dominating_coupling(mu, mu_prime, eps)  # tight, so it holds


def test_coupling_after_importing_rearrange_first():
    """rearrange reaches domination, which imports rearrange, only inside
    dominating_coupling; a fresh interpreter that loads rearrange first must
    still build a coupling and reject a failing pair."""
    code = (
        "import conclab.rearrange as r\n"
        "from fractions import Fraction as F\n"
        "from conclab.dist import IntDist\n"
        "mu = IntDist([(0, F(3, 4)), (1, F(1, 4))])\n"
        "mu_prime = IntDist([(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))])\n"
        "print(r.dominating_coupling(mu, mu_prime, F(1, 2)).prob_a())\n"
        "try:\n"
        "    r.dominating_coupling(mu, mu_prime, 0)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    ).stdout.splitlines()
    assert out == ["2/3", "domination fails at j=1"]


# -- extremal layouts ------------------------------------------------------------


def _is_extremal_reference(mu, alpha):
    alpha = F(alpha)
    if not (0 < alpha <= 1):
        return False
    k = inverse_floor(alpha)
    residue = 1 - k * alpha
    big = [m for m in mu.masses if m == alpha]
    small = [m for m in mu.masses if m == residue]
    if residue > 0:
        return len(big) == k and len(small) == 1 and len(mu) == k + 1
    return len(big) == k and len(mu) == k


def test_is_extremal_matches_counting_body():
    caps = sorted({F(j, d) for d in range(1, 7) for j in range(1, d + 1)})
    laws = [law for a in caps for law in extremal_enumerate(a, (-1, 4))]
    laws += [random_instance(seed, "distribution") for seed in range(200)]
    for law in laws:
        for a in (*caps, F(0), F(3, 2), F(-1, 2)):
            assert is_extremal(law, a) == _is_extremal_reference(law, a), (law, a)
    assert all(is_extremal(nu(a), a) for a in caps)


# -- connectivity --------------------------------------------------------------------


def _connected_reference(parts):
    vertices = {v for _, pair in parts for v in pair}
    if not vertices:
        return False
    adjacency = {v: set() for v in vertices}
    for _, (a, b) in parts:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = set()
    stack = [next(iter(vertices))]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(adjacency[v] - seen)
    return seen == vertices


def test_is_connected_matches_reference_dfs():
    rng = random.Random(7)
    verdicts = set()
    for _ in range(400):
        sites = rng.sample(range(-6, 7), rng.randint(2, 8))
        parts = []
        for _ in range(rng.randint(1, 7)):
            a, b = rng.sample(sites, 2)
            parts.append((F(1, 7), (min(a, b), max(a, b))))
        d = Decomposition(tuple(parts))
        assert d.is_connected() == _connected_reference(parts), parts
        verdicts.add(d.is_connected())
    assert verdicts == {True, False}
    assert Decomposition(()).is_connected() is False
    two_parts = Decomposition(((F(1, 2), (0, 1)), (F(1, 2), (5, 6))))
    assert not two_parts.is_connected()
    for seed in range(50):
        mu = random_instance(seed, "split-admissible")
        assert connected_decomposition(mu).is_connected()


# -- covariance rank ------------------------------------------------------------------


def _exact_rank(rows):
    """Rank of a Fraction matrix by Gaussian elimination."""
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col] / mat[rank][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


@pytest.fixture()
def no_matrix_rank(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fit_gauss_spec must not call numpy.linalg.matrix_rank")

    monkeypatch.setattr(np.linalg, "matrix_rank", refuse)


def test_fit_gauss_spec_rejects_a_planar_3d_law(no_matrix_rank):
    planar = LatticeDist([((0, 0, 0), F(1, 4)), ((1, 0, 1), F(1, 4)), ((0, 1, 1), F(1, 4)), ((1, 1, 2), F(1, 4))])
    with pytest.raises(ValueError, match="degenerate covariance"):
        fit_gauss_spec(planar)


@pytest.mark.parametrize(
    "atoms",
    [
        [((0,), F(1, 2)), ((3,), F(1, 2))],
        [((0, 0), F(1, 3)), ((1, 0), F(1, 3)), ((0, 2), F(1, 3))],
        [((0, 0, 0), F(1, 4)), ((1, 0, 0), F(1, 4)), ((0, 1, 0), F(1, 4)), ((0, 0, 1), F(1, 4))],
    ],
    ids=["d1", "d2", "d3"],
)
def test_fit_gauss_spec_accepts_full_rank_laws(no_matrix_rank, atoms):
    law = LatticeDist(atoms)
    spec = fit_gauss_spec(law)
    assert spec.mean == tuple(float(x) for x in law.mean())
    assert spec.cov == tuple(tuple(float(v) for v in row) for row in law.cov())


def test_fit_gauss_spec_decides_the_exact_covariance_rank(no_matrix_rank):
    rng = random.Random(3)
    seen = set()
    for _ in range(600):
        d = rng.randint(1, 3)
        # sites on a random affine sublattice of dimension r <= d, so every rank occurs
        r = rng.randint(0, d)
        basis = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(r)]
        origin = [rng.randint(-2, 2) for _ in range(d)]
        sites = set()
        for _ in range(rng.randint(1, 6)):
            c = [rng.randint(-2, 2) for _ in range(r)]
            sites.add(tuple(o + sum(ci * b[i] for ci, b in zip(c, basis)) for i, o in enumerate(origin)))
        weights = [rng.randint(1, 4) for _ in sites]
        law = LatticeDist((s, F(w, sum(weights))) for s, w in zip(sorted(sites), weights))
        full = _exact_rank(law.cov()) == d
        seen.add((d, full))
        if full:
            fit_gauss_spec(law)
        else:
            with pytest.raises(ValueError, match="degenerate covariance"):
                fit_gauss_spec(law)
    assert seen == {(d, full) for d in (1, 2, 3) for full in (True, False)}


# -- Gaussian tail bound and seeded draws ---------------------------------------------


def _tail_outside_box_reference(spec, box):
    union, radius = 0.0, math.inf
    for j, (lo, hi) in enumerate(box):
        sd = math.sqrt(spec.cov[j][j])
        union += norm_sf((hi + 0.5 - spec.mean[j]) / sd) + norm_sf((spec.mean[j] - (lo - 0.5)) / sd)
    bound = min(union * (1 + 1e-12), 1.0)
    for j, (lo, hi) in enumerate(box):
        radius = min(radius, hi + 0.5 - spec.mean[j], spec.mean[j] - (lo - 0.5))
    if radius > 0:
        t = radius * radius
        sigma1 = float(np.linalg.eigvalsh(np.asarray(spec.cov)).max())
        if spec.dim <= t / (16 * sigma1):
            bound = min(bound, math.exp(-t / (4 * sigma1)))
    return bound


@pytest.mark.parametrize(
    "spec, box",
    [
        (GaussSpec((0.3,), ((2.0,),)), [(-2, 3)]),
        (GaussSpec((0.3,), ((0.01,),)), [(-20, 20)]),
        (GaussSpec((0.0, 1.0), ((1.0, 0.4), (0.4, 2.0))), [(-1, 1), (0, 3)]),
        (GaussSpec((0.0, 0.0), ((0.05, 0.0), (0.0, 0.05))), [(-30, 30), (-30, 30)]),
        (GaussSpec((0.0, 0.0, 0.5), ((1.0, 0, 0), (0, 1.0, 0.2), (0, 0.2, 1.0))), [(-2, 2)] * 3),
        (GaussSpec((5.0,), ((1.0,),)), [(-1, 1)]),
    ],
)
def test_tail_bound_outside_box_matches_inline_body(spec, box):
    assert _tail_bound_outside_box(spec, box) == _tail_outside_box_reference(spec, box)


@pytest.mark.parametrize("seed", [0, 9])
@pytest.mark.parametrize("cov", [[[1.0]], [[1.0, 0.3], [0.3, 0.5]], [[0.2, 0, 0], [0, 0.3, 0], [0, 0, 0.1]]])
def test_tail_check_matches_inline_body(cov, seed):
    t, samples = 40.0, 5000
    mat = np.asarray(cov, dtype=float)
    sigma1 = float(np.linalg.eigvalsh(mat).max())
    bound = math.exp(-t / (4 * sigma1))
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((samples, mat.shape[0])) @ np.linalg.cholesky(mat).T
    exceed = float((np.sum(draws**2, axis=1) >= t).mean())
    report = gaussian_tail_check(cov, t, samples, seed=seed)
    assert (report["bound"], report["empirical"]) == (bound, exceed)
    assert gaussian_tail_bound(cov, t) == bound


@pytest.mark.parametrize("seed", [0, 9])
@pytest.mark.parametrize("cov", [[[2.0]], [[1.0, 0.3], [0.3, 0.5]], [[1.0, 0.5, 0.2], [0.5, 2.0, -0.3], [0.2, -0.3, 0.7]]])
def test_normal_draws_match_inline_body(cov, seed):
    mat = np.asarray(cov, dtype=float)
    rng = np.random.default_rng(seed)
    want = rng.standard_normal((64, mat.shape[0])) @ np.linalg.cholesky(mat).T
    assert np.array_equal(_normal_draws(cov, 64, seed), want)
    assert np.array_equal(_normal_draws(tuple(map(tuple, cov)), 64, seed), want)


def test_tail_bound_preconditions():
    with pytest.raises(ValueError, match="precondition fails: d=2"):
        gaussian_tail_bound([[1.0, 0.0], [0.0, 1.0]], 16.0)
    with pytest.raises(ValueError, match="positive definite"):
        gaussian_tail_bound([[0.0]], 16.0)
