"""Seeded instance generators for the tests.

``random_instance(seed, kind, **params)`` draws one instance from
``random.Random(f"{kind}#{seed}")``, so identical (seed, kind, params) give
identical instances.
"""

from __future__ import annotations

import random
from fractions import Fraction

from conclab.dist import IntDist, _affine_dim, convolve, q_max
from conclab.domination import profile_rows
from conclab.extremal import AlphaSeq
from conclab.rearrange import IntMeasure


def random_instance(seed: int, kind: str, **params):
    """Deterministic instance generator.

    Kinds: log-concave, sharp-log-concave, symmetric-unimodal,
    symmetric-unimodal-chain, alpha-grid, coupling-pair, integer-measure,
    split-admissible, distribution, integer-matrix.
    """
    rng = random.Random(f"{kind}#{seed}")
    gen = _GENERATORS.get(kind)
    if gen is None:
        raise ValueError(f"unknown instance kind {kind!r}")
    return gen(rng, **params)


def _gen_log_concave(rng: random.Random, max_len: int = 8, spread: int = 2, offset: int = 20):
    """Masses 2**l_i for a random concave integer sequence l: rejection-free
    log-concavity."""
    n = rng.randint(1, max_len)
    diffs = sorted((rng.randint(-spread, spread) for _ in range(n - 1)), reverse=True)
    levels = [0]
    for d in diffs:
        levels.append(levels[-1] + d)
    lo = min(levels)
    weights = [2 ** (l - lo) for l in levels]
    total = sum(weights)
    start = rng.randint(-offset, offset)
    return IntDist((start + i, Fraction(w, total)) for i, w in enumerate(weights))


def _gen_sharp_log_concave(rng: random.Random, max_len: int = 6, offset: int = 10):
    base = _gen_log_concave(rng, max_len=max_len, offset=0)
    site = rng.randint(-offset, offset)
    sites = []
    for _ in base.atoms:
        sites.append(site)
        site += rng.randint(1, 4)
    return IntDist((s, m) for s, (_, m) in zip(sites, base.atoms))


def _gen_symmetric_unimodal(rng: random.Random, max_radius: int = 4, max_weight: int = 6):
    radius = rng.randint(0, max_radius)
    levels = []
    current = rng.randint(1, max_weight)
    for _ in range(radius + 1):
        levels.append(current)
        current = rng.randint(1, current)
    total = levels[0] + 2 * sum(levels[1:])
    atoms = [(0, Fraction(levels[0], total))]
    for i in range(1, radius + 1):
        atoms.append((i, Fraction(levels[i], total)))
        atoms.append((-i, Fraction(levels[i], total)))
    return IntDist(atoms)


def _gen_symmetric_unimodal_chain(rng: random.Random, n: int = 3, **kw):
    """Pairs (mu_prime, mu), each symmetric unimodal with mu_prime exactly
    dominated: mu_prime = mu * (an independent symmetric unimodal spreader)."""
    pairs = []
    for _ in range(n):
        mu = _gen_symmetric_unimodal(rng, **kw)
        spreader = _gen_symmetric_unimodal(rng, **kw)
        pairs.append((convolve(mu, spreader), mu))
    return pairs


def _gen_alpha_grid(rng: random.Random, denominator: int = 6, n: int = 3):
    return AlphaSeq(Fraction(rng.randint(1, denominator), denominator) for _ in range(n))


def _gen_distribution(rng: random.Random, max_len: int = 6, offset: int = 10, max_weight: int = 9):
    n = rng.randint(1, max_len)
    sites = rng.sample(range(-offset, offset + 1), n)
    weights = [rng.randint(1, max_weight) for _ in range(n)]
    total = sum(weights)
    return IntDist((s, Fraction(w, total)) for s, w in zip(sorted(sites), weights))


def _gen_coupling_pair(rng: random.Random, **kw):
    """(mu, mu_prime, eps) with mu_prime symmetric unimodal and eps the
    smallest rational slack making the profile domination hold (tight)."""
    mu = _gen_distribution(rng)
    mu_prime = _gen_symmetric_unimodal(rng, **kw)
    eps = max(Fraction(0), *(lhs / rhs - 1 for _, lhs, rhs in profile_rows(mu, mu_prime, 0)))
    return mu, mu_prime, eps


def _gen_integer_measure(rng: random.Random, max_len: int = 6, offset: int = 8, max_weight: int = 5):
    n = rng.randint(1, max_len)
    sites = rng.sample(range(-offset, offset + 1), n)
    return IntMeasure((s, Fraction(rng.randint(1, max_weight))) for s in sorted(sites))


def _gen_split_admissible(rng: random.Random, max_len: int = 6, offset: int = 10, max_weight: int = 9):
    """Random distribution with at least two atoms and largest atom <= 1/2."""
    while True:
        candidate = _gen_distribution(rng, max_len=max_len, offset=offset, max_weight=max_weight)
        if len(candidate) >= 2 and q_max(candidate) <= Fraction(1, 2):
            return candidate


def _gen_integer_matrix(rng: random.Random, max_rows: int = 4, max_cols: int = 3, entry: int = 9):
    """Random integer matrix of full column rank, decided exactly: the rank of
    its columns is the affine dimension of the columns and the origin."""
    while True:
        n = rng.randint(1, max_cols)
        m = rng.randint(n, max_rows)
        mat = [[rng.randint(-entry, entry) for _ in range(n)] for _ in range(m)]
        if _affine_dim([(0,) * m, *zip(*mat)]) == n:
            return mat


_GENERATORS = {
    "log-concave": _gen_log_concave,
    "sharp-log-concave": _gen_sharp_log_concave,
    "symmetric-unimodal": _gen_symmetric_unimodal,
    "symmetric-unimodal-chain": _gen_symmetric_unimodal_chain,
    "alpha-grid": _gen_alpha_grid,
    "coupling-pair": _gen_coupling_pair,
    "integer-measure": _gen_integer_measure,
    "split-admissible": _gen_split_admissible,
    "distribution": _gen_distribution,
    "integer-matrix": _gen_integer_matrix,
}
