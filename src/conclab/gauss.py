"""Multivariate lattice distributions, the discretized Gaussian, total
variation distances, and the computable terms of the local-CLT bound.

Lattice distributions carry exact rational masses; only the Gaussian side of
the bridge uses floating point, and every float it produces travels with an
explicit error term.  Assertions on real-valued quantities always compare
error-aware: (value + err) against (other - err).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .dist import (
    FiniteMeasure,
    IntDist,
    _affine_dim,
    convolve,
    convolve_all,
    convolve_power,
    int_site,
    mean,
    shift,
    third_abs_moment,
    variance,
)


def norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def norm_sf(z: float) -> float:
    """Upper tail 1 - cdf(z) via erfc: no cancellation for large z."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _int_vector(site: Sequence[int]) -> tuple[int, ...]:
    if not hasattr(site, "__iter__"):
        raise TypeError(f"a lattice site must be a list of integers, got {site!r}")
    return tuple(map(int_site, site))


class LatticeDist(FiniteMeasure):
    """Finite probability distribution on integer vectors of one dimension
    with exact rational masses."""

    __slots__ = ()

    _site = staticmethod(_int_vector)

    def __init__(self, atoms: Iterable[tuple[Sequence[int], object]]):
        super().__init__(atoms)
        if len(set(map(len, self.sites))) != 1:
            raise ValueError("mixed dimensions")
        if not self.dim:
            raise ValueError("lattice sites need dimension >= 1, got dimension 0")

    @property
    def dim(self) -> int:
        return len(next(iter(self._nums)))

    def _compatible(self, other) -> bool:
        return super()._compatible(other) and other.dim == self.dim

    def _moment_sums(self) -> tuple[int, list[int], list[list[int]]]:
        """(den, first, second): the denominator, the weighted coordinate sums
        first[i] = sum n x_i, and second[i][j] = den sum n x_i x_j - first[i]
        first[j], each pair of axes worked out once.  The mean is first / den
        and the covariance second / den**2, one pass for both."""
        den, nums = self._den, self.numerators
        axes = list(zip(*self.sites))
        weighted = [list(map(operator.mul, nums, axis)) for axis in axes]
        first = [sum(w) for w in weighted]
        second = [[0] * len(axes) for _ in axes]
        for i, (w, f) in enumerate(zip(weighted, first)):
            for j in range(i, len(axes)):
                second[i][j] = second[j][i] = den * sum(map(operator.mul, w, axes[j])) - f * first[j]
        return den, first, second

    def mean(self) -> tuple[Fraction, ...]:
        den, first, _ = self._moment_sums()
        return tuple(Fraction(f, den) for f in first)

    def cov(self) -> tuple[tuple[Fraction, ...], ...]:
        den, _, second = self._moment_sums()
        return tuple(tuple(Fraction(c, den * den) for c in row) for row in second)


def lconv(a: LatticeDist, b: LatticeDist) -> LatticeDist:
    """Convolution of two lattice distributions.

    A function of its own rather than an alias of ``dist.convolve``, so that
    a profiler or tracer can tell lattice convolutions from integer ones.
    """
    return convolve(a, b)


def pow_conv(a: LatticeDist, m: int) -> LatticeDist:
    """m-fold self-convolution (``dist.convolve_power``)."""
    return convolve_power(a, m)


def tv_exact(a: LatticeDist, b: LatticeDist) -> Fraction:
    """Half the L1 distance between the mass functions, exact."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    # sum |na db - nb da| / (2 da db) over the union of the supports
    da, db = a.denominator(), b.denominator()
    keys = set(a.sites) | set(b.sites)
    return Fraction(sum(abs(a.numerator(s) * db - b.numerator(s) * da) for s in keys), 2 * da * db)


# -- discretized Gaussian ------------------------------------------------------


def _float_array(value, ndim: int) -> np.ndarray:
    """value as a float array of shape (d,) * ndim; a ragged or non-square
    array, a string, a boolean or a non-finite number is a ValueError."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf" or arr.ndim != ndim or len(set(arr.shape)) != 1 or not np.isfinite(arr).all():
        raise ValueError(f"expected a {'square matrix' if ndim == 2 else 'list'} of finite numbers")
    return arr.astype(float)


def _check_cov(c: np.ndarray) -> None:
    """ValueError unless the square matrix c is symmetric positive definite.
    Symmetry is exact equality with the transpose: the cell tables read only
    the upper entries and eigvalsh only the lower ones, so both must be the
    same floats."""
    if not np.array_equal(c, c.T):
        raise ValueError("covariance must be symmetric")
    if np.linalg.eigvalsh(c).min() <= 0:
        raise ValueError("covariance must be positive definite")


@dataclass(frozen=True)
class GaussSpec:
    """Mean vector and symmetric positive-definite covariance."""

    mean: tuple[float, ...]
    cov: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        c = np.asarray(self.cov, dtype=float)
        if c.shape != (len(self.mean), len(self.mean)):
            raise ValueError("covariance shape mismatch")
        _check_cov(c)

    @property
    def dim(self) -> int:
        return len(self.mean)

    @staticmethod
    def from_json_obj(obj) -> "GaussSpec":
        if not isinstance(obj, dict) or "mean" not in obj or "cov" not in obj:
            raise ValueError("a Gaussian spec must be an object with 'mean' and 'cov'")
        mean, cov = _float_array(obj["mean"], 1), _float_array(obj["cov"], 2)
        return GaussSpec(tuple(mean.tolist()), tuple(map(tuple, cov.tolist())))


# -- certified cells ---------------------------------------------------------------
#
# The d <= 2 cell errors are proven under this float model:
#   - IEEE 754 binary64 arithmetic rounding to nearest: +, -, *, / and sqrt
#     carry a relative error of at most _U = 2**-53 (densities below
#     exp(-700), where results may leave the normal range, are charged whole);
#   - math.exp and math.erf are within 4 ulp: |computed - exact| <= _LIBM |exact|;
#   - box coordinates are integers below 2**52 in magnitude, so x +- 1/2 is exact.
# Each first-order error term below carries at least 1% of slack, which also
# covers the roundings made while the bound itself is evaluated.

_U = 2.0**-53
_LIBM = 2.0**-50
_ERF_SLOPE = 1.1284  # max |erf'| = 2 / sqrt(pi) = 1.12838, rounded up
_ERF_REL = 0.49  # |erf(w (1 + e)) - erf(w)| <= _ERF_REL |e|: 2 / sqrt(2 pi e) = 0.48394, plus slack
_COORD_LIMIT = 2**52
# the most cells a table holds; a larger box is a ValueError before any work
_MAX_CELLS = 10**7
# the most nodes times row edges that one block of 2-D columns holds (8 bytes
# each, in each of a few arrays); a block has at least one column
_BLOCK_VALUES = 2**16

# One norm_cdf value: five roundings of its argument, erf's own error and
# 1 + erf; a 1-D cell is the difference of two values, rounded once more.
_PHI_ERR = (_ERF_REL * 5.1 * _U + _LIBM + 2.1 * _U) / 2
_D1_CELL_ERR = 2 * _PHI_ERR + 1.1 * _U

_CRAMER = 1.086435  # |He_k(x)| exp(-x^2/4) <= _CRAMER sqrt(k!)  (A&S 22.14.17)
_MAX_NODES = 64
_MAX_COLUMN_NODES = 100_000
_LOG_FACT = [math.lgamma(k + 1) for k in range(2 * _MAX_NODES + 1)]
_SAFE = 1 + 1e-8  # covers the log-space evaluation of the remainder bound


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    numpy's ``leggauss`` nodes start Newton's iteration on P_n in 40-digit
    decimal arithmetic, which runs until a step is below 1e-35; the weight is
    2 / ((1 - x^2) P_n'(x)^2).  Each float is then the nearest one to a value
    good to far more than 53 bits, so a node is within _U and a weight within
    _U relative of the exact one.  (``leggauss``'s own weights are off by up
    to 4e-12 relative for n <= 80.)
    """
    with localcontext() as ctx:
        ctx.prec = 40
        one, tiny = Decimal(1), Decimal("1e-35")

        def legendre(x: Decimal) -> tuple[Decimal, Decimal]:
            p0, p1 = one, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            return p1, n * (x * p1 - p0) / (x * x - one)

        nodes, weights = [], []
        start, _ = np.polynomial.legendre.leggauss(n)
        for guess in start[: (n + 1) // 2]:  # the nodes up to 0; the rest mirror them
            x = Decimal(0) if 2 * len(nodes) + 1 == n else Decimal(float(guess))
            for _ in range(8):
                p, dp = legendre(x)
                step = p / dp
                x -= step
                if abs(step) < tiny:
                    break
            else:
                raise RuntimeError(f"Gauss-Legendre node {len(nodes)} of {n} did not converge")
            dp = legendre(x)[1]
            nodes.append(float(x))
            weights.append(float(2 / ((one - x * x) * dp * dp)))
    half = n // 2
    return tuple(nodes + [-x for x in reversed(nodes[:half])]), tuple(weights + weights[:half][::-1])


@dataclass(frozen=True)
class _GLPlan:
    """How every column of a 2-D table is integrated: `pieces` equal pieces of
    `nodes`-point Gauss-Legendre.  `offsets` are the node positions relative
    to the column's centre, piece by piece, and `weights` the rule's weights
    times half a piece.  `remainder` bounds the quadrature error of any cell
    and `deriv` bounds |f'|, both before the column factor exp(-v^2/4)."""

    pieces: int
    nodes: int
    remainder: float
    deriv: float
    offsets: np.ndarray
    weights: np.ndarray


def _log_deriv_bound(order: int, sd1: float, r: float) -> float:
    """log of a bound on |f^(order)(t)| exp((t - m1)^2 / (4 sd1^2)) for
    f(t) = phi1(t) [Phi(beta(t)) - Phi(alpha(t))], with phi1 the N(m1, sd1^2)
    density and alpha, beta of slope r in absolute value.

    Leibniz's rule splits f^(N) into C(N, j) phi1^(N-j) g^(j), g the bracket.
    Cramer's inequality gives |phi1^(k)| <= K sqrt(k!) e^(-v^2/4) /
    (sqrt(2 pi) sd1^(k+1)), with v = (t - m1) / sd1; |g| <= 1; and for
    j >= 1, |g^(j)| <= 2 r^j K sqrt((j-1)!) / sqrt(2 pi).
    """
    lf, n = _LOG_FACT, order
    log_k = math.log(_CRAMER / math.sqrt(2 * math.pi))
    log_sd = math.log(sd1)
    logs = [0.5 * lf[n] - n * log_sd]
    if r > 0:
        log_r, log_2k = math.log(r), math.log(2.0) + log_k
        logs += [
            log_2k + lf[n] - lf[j] - 0.5 * lf[n - j] + 0.5 * lf[j - 1] + j * log_r - (n - j) * log_sd
            for j in range(1, n + 1)
        ]
    top = max(logs)
    return log_k - log_sd + top + math.log(sum(math.exp(x - top) for x in logs))


def _gl_plan(sd1: float, r: float, epsabs: float) -> _GLPlan:
    """The cheapest split of a unit column (pieces x nodes, fewest
    evaluations) whose proven Gauss-Legendre remainder is at most epsabs.

    On a piece of length h the n-point rule errs by
    h^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^3) max|f^(2n)|  (A&S 25.4.30), so P
    pieces of a unit column err by c_n max|f^(2n)| / P^(2n) in all.
    """
    lf = _LOG_FACT
    log_eps = math.log(epsabs)
    best = None  # (evaluations, pieces, nodes, log remainder)
    for n in range(1, _MAX_NODES + 1):
        if best is not None and n >= best[0]:
            break  # even one piece would cost more
        log_bound = 4 * lf[n] - math.log(2 * n + 1) - 3 * lf[2 * n] + _log_deriv_bound(2 * n, sd1, r)
        log_pieces = max((log_bound - log_eps) / (2 * n), 0.0)
        if log_pieces > math.log(_MAX_COLUMN_NODES):
            continue
        pieces = max(1, math.ceil(math.exp(log_pieces)))
        while log_bound - 2 * n * math.log(pieces) + math.log(_SAFE) > log_eps:
            pieces += 1
        if best is None or pieces * n < best[0]:
            best = (pieces * n, pieces, n, log_bound - 2 * n * math.log(pieces))
    if best is None or best[0] > _MAX_COLUMN_NODES:
        raise ValueError(f"no Gauss-Legendre plan reaches {epsabs} within {_MAX_COLUMN_NODES} nodes a column")
    _, pieces, n, log_rem = best
    x, w = _gauss_legendre(n)
    half = 0.5 / pieces
    centres = (np.arange(pieces) + 0.5) / pieces - 0.5
    offsets = (centres[:, None] + half * np.asarray(x)).ravel()
    weights = np.tile(half * np.asarray(w), pieces)
    deriv = math.exp(_log_deriv_bound(1, sd1, r)) * _SAFE
    return _GLPlan(pieces, n, math.exp(log_rem) * _SAFE, deriv, offsets, weights)


def _map_floats(fn, arr: np.ndarray) -> np.ndarray:
    """fn applied to every element of the float array arr, one Python call
    each (math.exp and math.erf are the functions of the float model).  A
    memoryview hands fn each element as a Python float, without a list of
    them all."""
    return np.fromiter(map(fn, memoryview(arr.ravel())), float, arr.size).reshape(arr.shape)


def _cell_table_2d(spec: GaussSpec, box: Sequence[tuple[int, int]], epsabs: float) -> tuple[np.ndarray, np.ndarray]:
    """The 2-D cell table as two arrays of the box's shape, row-major: the
    cell probabilities p and their error bounds err.

    A cell is the integral over its column t in [x0 - 1/2, x0 + 1/2] of
    f(t) = phi1(t) [Phi(beta(t)) - Phi(alpha(t))]: the first coordinate's
    density times the conditional probability of the cell's row.  Every
    column is integrated by the one Gauss-Legendre plan of the spec
    (``_gl_plan``).  The columns are evaluated a block at a time, as many as
    keep the block's nodes times row edges within _BLOCK_VALUES (at least
    one column): exp once per node and erf once per node and row edge, each
    one map over the block's flattened array, and the cells of a column take
    differences of adjacent edges.  Each cell's terms are added node by node
    (np.add.accumulate along the node axis), as a loop over the nodes would
    add them, so the block size changes no bit of the table.

    err, one value per column repeated along its rows and worked out for all
    columns at once, is the plan's proven remainder, plus the error from
    evaluating at rounded nodes (|f'| times the node offset), plus the
    rounding of the evaluation itself under the float model above, which
    scales with the column's mass.
    """
    exp, u = math.exp, _U
    (lo0, hi0), (lo1, hi1) = box
    m1, m2 = spec.mean
    s11, s12, s22 = spec.cov[0][0], spec.cov[0][1], spec.cov[1][1]
    sd1 = math.sqrt(s11)
    q = s12 * s12 / s11
    cond_sd = math.sqrt(s22 - q)
    slope = s12 / s11
    scale = sd1 * math.sqrt(2 * math.pi)
    sqrt2 = math.sqrt(2.0)
    # relative error of cond_sd: s22 - q cancels as the correlation nears +-1
    sigma = 1.01 * ((2.01 * u * q / (s22 - q) + 1.01 * u) / 2 + u)
    if sigma > 1e-6:
        raise ValueError("covariance too close to singular for certified cells")
    plan = _gl_plan(sd1 * (1 - 2 * u), abs(slope) / cond_sd * (1 + 2 * sigma + 4 * u), epsabs)
    nodes = len(plan.offsets)
    gamma = nodes * u / (1 - nodes * u)  # a sum of `nodes` terms, added one by one
    underflow = 1.02 * exp(-700.0) / scale  # covers every density below exp(-700)
    edges = np.arange(lo1, hi1 + 2) - 0.5
    x0 = np.arange(lo0, hi0 + 1)
    p = np.empty((len(x0), len(edges) - 1))
    mass = np.empty(len(x0))  # sum of each column's node weights times densities
    block = max(1, _BLOCK_VALUES // (nodes * len(edges)))
    for start in range(0, len(x0), block):
        cols = slice(start, start + block)
        d = (x0[cols, None] + plan.offsets) - m1  # column x node
        v = d / sd1
        a = plan.weights * (_map_floats(exp, -0.5 * (v * v)) / scale)
        z = (edges - (m2 + slope * d)[:, :, None]) / cond_sd / sqrt2  # column x node x row edge
        e = _map_floats(math.erf, z)
        terms = (0.5 * a)[:, :, None] * (e[:, :, 1:] - e[:, :, :-1])
        p[cols] = np.add.accumulate(terms, axis=1)[:, -1]
        mass[cols] = a.sum(axis=1)

    # the column's distance from m1, in sd1, less what node rounding can move
    slack = 4 * u * (np.abs(x0) + abs(m1) + 2)
    near = np.maximum(np.abs(x0 - m1) - 0.5 - slack, 0.0) / sd1 * (1 - 4 * u)
    far = np.abs(x0 - m1) + 0.5 + slack
    factor = np.minimum(1.0, _map_floats(exp, -near * near / 4) * (1 + _LIBM + u * (near * near + 4)))
    # a node is within 4 U of its exact offset, and t = x0 + offset rounds once
    misplaced = plan.deriv * factor * u * (np.abs(x0) + 6)
    # the density: exp's error, five roundings, and the argument's (3.6 U v^2);
    # the square is Python's float ** (libm's pow), which numpy's square
    # need not match in the last bit
    rho = _LIBM + 6.1 * u + 3.6 * u * np.array([min(r**2 * (1 + 4 * u), 1400.0) for r in (far / sd1).tolist()])
    # a row edge: the rounded conditional mean, then four roundings and cond_sd
    c_err = 1.01 * u * (abs(m2) + 4.1 * abs(slope) * far)
    edge = _ERF_SLOPE * 1.02 * c_err / (cond_sd * sqrt2) + _ERF_REL * (4.1 * u + 1.01 * sigma) + _LIBM
    diff = 2 * edge + 2.1 * u
    mass = 1.01 * mass + underflow
    err = plan.remainder * factor + misplaced + 1.02 * mass * (3.1 * u + 2 * u + rho + diff / 2 + gamma) + underflow
    return np.where(p < 0, 0.0, p), np.broadcast_to(err[:, None], p.shape)


def _tail_bound_outside_box(spec: GaussSpec, box: Sequence[tuple[int, int]]) -> float:
    """Upper bound on the Gaussian mass outside the union of box cells.

    Uses the better of the quadratic-norm tail bound (when its dimension
    precondition holds) and the exact per-coordinate union bound.
    """
    union = 0.0
    radius = math.inf
    for j, (lo, hi) in enumerate(box):
        sd = math.sqrt(spec.cov[j][j])
        upper = (hi + 0.5 - spec.mean[j]) / sd
        lower = (spec.mean[j] - (lo - 0.5)) / sd
        union += norm_sf(upper) + norm_sf(lower)
        radius = min(radius, hi + 0.5 - spec.mean[j], spec.mean[j] - (lo - 0.5))
    # a hair of inflation keeps the union a valid bound despite erfc rounding
    bound = min(union * (1 + 1e-12), 1.0)
    if radius > 0:
        norm_bound = _norm_tail_bound(np.asarray(spec.cov), radius * radius)[1]
        if norm_bound is not None:
            bound = min(bound, norm_bound)
    return bound


def _norm_tail_bound(cov: np.ndarray, t: float) -> tuple[float, Optional[float]]:
    """(sigma_1, bound): the largest eigenvalue of the positive-definite cov
    and the bound exp(-t / (4 sigma_1)) on P(|X|^2 >= t), X ~ N(0, cov); the
    bound is None unless d <= t / (16 sigma_1)."""
    sigma1 = float(np.linalg.eigvalsh(cov).max())
    if cov.shape[0] > t / (16 * sigma1):
        return sigma1, None
    return sigma1, math.exp(-t / (4 * sigma1))


def _normal_draws(cov, n: int, seed: int) -> np.ndarray:
    """n seeded draws of N(0, cov), one per row; a caller adds its mean to
    the product."""
    mat = np.asarray(cov, dtype=float)
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, mat.shape[0])) @ np.linalg.cholesky(mat).T


@dataclass(frozen=True, eq=False)
class CellTable:
    """Rounded-Gaussian cell probabilities, each with an error bound, and a
    bound on the mass outside the box.

    p and err are float arrays of the box's shape, row-major (the first
    coordinate varies slowest): the whole box at once.  ``cells`` is the
    same table as a dict {site: (p, err)} in row-major order, built on first
    use; ``prob`` reads the arrays.

    err_kind says what the errors are.  "certified": proven bounds under the
    float model of this module (IEEE binary64 rounding to nearest, math.exp
    and math.erf within 4 ulp), for the closed form of d = 1 and the
    Gauss-Legendre rule of d = 2.  "3-sigma": three standard errors of the
    d = 3 Monte Carlo estimate, a statistical half-width.
    """

    box: tuple[tuple[int, int], ...]
    p: np.ndarray
    err: np.ndarray
    tail_bound: float
    err_kind: str

    @functools.cached_property
    def cells(self) -> dict:
        sites = itertools.product(*(range(lo, hi + 1) for lo, hi in self.box))
        return dict(zip(sites, zip(self.p.ravel().tolist(), self.err.ravel().tolist())))

    def prob(self, site: Sequence[int]) -> tuple[float, float]:
        site = _int_vector(site)
        if len(site) != len(self.box) or not all(lo <= x <= hi for x, (lo, hi) in zip(site, self.box)):
            return 0.0, 0.0
        at = tuple(x - lo for x, (lo, _) in zip(site, self.box))
        return float(self.p[at]), float(self.err[at])


def discretized_gaussian(
    spec: GaussSpec,
    box: Sequence[tuple[int, int]],
    tol: float,
    seed: int = 0,
    samples: Optional[int] = None,
) -> CellTable:
    """Cell probabilities P(rounded Gaussian = x) for x in the box, as
    arrays over the whole box (``CellTable``; its ``cells`` dict is built
    only when read).

    d = 1 is the closed form, a difference of two erf values, one erf per
    cell edge.  d = 2 integrates the first coordinate's density times the
    conditional probability of the row by Gauss-Legendre, a block of columns
    at a time (``_cell_table_2d``), on a plan of pieces and nodes whose
    remainder (A&S 25.4.30, with derivatives bounded by Leibniz's rule and
    Cramer's inequality) is at most min(tol / 10, 1e-11).  Each d <= 2 error
    adds the rounding of the evaluation to the remainder, and is a proven
    bound if +, -, *, /, sqrt round to nearest in IEEE binary64 and math.exp
    and math.erf are within 4 ulp; a cell whose bound exceeds tol is a
    ValueError.  The box has lo <= hi on each axis and at most _MAX_CELLS
    cells, and its coordinates must be below 2**52 in magnitude for d <= 2.
    d = 3 uses seeded Monte Carlo and reports three standard errors, which
    must be at most tol.  Larger d is unsupported by design.
    """
    d = spec.dim
    if len(box) != d:
        raise ValueError("box dimension mismatch")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if any(hi < lo for lo, hi in box):
        raise ValueError("empty box: an axis has hi < lo")
    shape = tuple(hi - lo + 1 for lo, hi in box)
    if math.prod(shape) > _MAX_CELLS:
        raise ValueError(f"the box has more than {_MAX_CELLS} cells")
    if d <= 2 and any(abs(v) >= _COORD_LIMIT for lo_hi in box for v in lo_hi):
        raise ValueError("box coordinates must be below 2**52 in magnitude")
    if d == 1:
        # one norm_cdf per cell edge x - 1/2; below 2**52, x + 1/2 and
        # (x + 1) - 1/2 are the same float, so a cell is the difference of
        # its two edges as if each were evaluated for that cell alone
        mu, sigma = spec.mean[0], math.sqrt(spec.cov[0][0])
        lo, hi = box[0]
        edges = 0.5 * (1.0 + _map_floats(math.erf, (np.arange(lo, hi + 2) - 0.5 - mu) / sigma / math.sqrt(2.0)))
        p = edges[1:] - edges[:-1]
        p, err = np.where(p < 0, 0.0, p), np.broadcast_to(_D1_CELL_ERR, shape)
    elif d == 2:
        p, err = _cell_table_2d(spec, box, epsabs=min(tol / 10, 1e-11))
        over = np.flatnonzero(err > tol)
        if over.size:
            site = tuple(lo + int(k) for (lo, _), k in zip(box, np.unravel_index(over[0], shape)))
            raise ValueError(f"quadrature error {float(err.flat[over[0]])} exceeds tol {tol} at {site}")
    elif d == 3:
        n = samples if samples is not None else int(math.ceil((1.5 / tol) ** 2))
        if n > 5 * 10**7:
            raise ValueError("tol too small for the Monte Carlo budget")
        draws = _normal_draws(spec.cov, n, seed) + np.asarray(spec.mean)
        rounded = np.floor(draws + 0.5).astype(int)
        del draws  # so the binning below needs less memory than the rounding
        rounded -= [lo for lo, _ in box]  # offsets into the box
        inside = np.all((rounded >= 0) & (rounded < shape), axis=1)
        counts = np.bincount(np.ravel_multi_index(rounded[inside].T, shape), minlength=math.prod(shape))
        p = (counts / n).reshape(shape)
        err = 3 * np.sqrt(np.maximum(p * (1 - p), 1.0 / n) / n)
    else:
        raise ValueError("dimension above 3 unsupported")
    box = tuple((lo, hi) for lo, hi in box)
    return CellTable(box, p, err, _tail_bound_outside_box(spec, box), "certified" if d <= 2 else "3-sigma")


@dataclass(frozen=True)
class TVResult:
    """TV to the rounded Gaussian; err_kind labels err as CellTable does."""

    value: float
    err: float
    cells: int
    tail_bound: float
    err_kind: str = "certified"


def fit_gauss_spec(s: LatticeDist) -> GaussSpec:
    """The Gaussian with the mean and covariance of s, as floats: each the
    correctly rounded quotient of two integers of one ``_moment_sums`` pass,
    the float of the exact Fraction.  The masses are positive, so the
    covariance has the rank of the support's affine hull, which
    ``_affine_dim`` decides exactly."""
    if _affine_dim(s.sites) < s.dim:
        raise ValueError("degenerate covariance: rank below dimension")
    den, first, second = s._moment_sums()
    den2 = den * den
    return GaussSpec(tuple(f / den for f in first), tuple(tuple(c / den2 for c in row) for row in second))


def tv_to_discretized_gaussian(s: LatticeDist, tol: float = 1e-6) -> TVResult:
    """Total variation between an exact lattice distribution and the rounded
    Gaussian with matching mean and covariance, with a certified error.

    The sum runs over the support plus a 6.5-sigma box; outside that set the
    exact side is zero, so the remainder is at most half the Gaussian tail
    bound and is folded into the reported error interval, as are half the
    cell errors and the rounding of the float sums (``_tv_rounding``).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = s.dim
    if d > 2:
        raise ValueError("exact side supported only for d <= 2")
    spec = fit_gauss_spec(s)
    axes = list(zip(*s.sites))
    box = []
    for j, axis in enumerate(axes):
        sd = math.sqrt(spec.cov[j][j])
        box.append((min(min(axis), math.floor(spec.mean[j] - 6.5 * sd)), max(max(axis), math.ceil(spec.mean[j] + 6.5 * sd))))
    ncells = math.prod(hi - lo + 1 for lo, hi in box)
    table = discretized_gaussian(spec, box, tol=max(tol / ncells, 1e-13))
    # the exact side on the box: n / den, Python's correctly rounded int
    # division, at each site of the support, and 0.0 elsewhere
    den = s.denominator()
    exact = np.zeros(table.p.shape)
    exact[tuple(np.subtract(axis, lo) for axis, (lo, _) in zip(axes, box))] = [n / den for n in s.numerators]
    # accumulate adds left to right in row-major order, as a loop over the cells would
    half_l1 = float(np.add.accumulate(np.abs(exact - table.p).ravel())[-1])
    err_sum = float(np.add.accumulate(table.err.ravel())[-1])
    tail = table.tail_bound
    value = 0.5 * half_l1 + 0.25 * tail
    err = 0.5 * err_sum + 0.25 * tail + _tv_rounding(ncells, err_sum)
    return TVResult(value, err, ncells, tail, table.err_kind)


def _tv_rounding(ncells: int, err_sum: float) -> float:
    """Bound on the rounding in tv_to_discretized_gaussian's sums over ncells
    cells, under the float model of the cell tables.

    Each |n / den - p| rounds twice (2.1 U of a + p), and a sum of ncells
    terms added one by one errs by at most gamma = ncells U / (1 - ncells U)
    of the sum of their sizes.  The terms of half_l1 add up to at most
    1 + sum(p) <= 2 + err_sum, and err_sum is rounded the same way; the last
    three operations on value and err add 4 U.
    """
    gamma = ncells * _U / (1 - ncells * _U)
    return 0.5 * (2.1 * _U + 1.01 * gamma) * (2 + err_sum) + 0.51 * gamma * err_sum + 4 * _U


# -- local-CLT terms -----------------------------------------------------------


@dataclass(frozen=True)
class LLTTerms:
    """Computable ingredients of the lattice local-CLT total-variation bound.

    u[i] is one minus the smallest-shift total variation of the i-th summand;
    s_tilde is their sum less the largest one; chi is the third absolute
    moment of a uniformly mixed independent difference; L normalizes chi by
    the trace of twice the average covariance, to the 3/2 power.  applicable
    is False when s_tilde vanishes (the bound then says nothing).
    """

    L: float
    chi: float
    s_tilde: float
    u: tuple[float, ...]
    applicable: bool


def llt_terms(ys: Sequence[LatticeDist]) -> LLTTerms:
    """The local-CLT terms of the summands ys.

    Every exact step depends on the summand alone, so it is worked out once
    per distinct summand: u, the covariance trace and the chi pair terms.
    s_tilde and the trace are sums weighted by how often each law occurs,
    and u repeats each law's float in summand order.  chi still adds every
    summand's pair terms in input order, so it is the same float as a sum
    over all summands.
    """
    if not ys:
        raise ValueError("empty summand list")
    m = len(ys)
    slot: dict = {}
    which = [slot.setdefault(y, len(slot)) for y in ys]  # one hash per summand
    laws = list(slot)
    d = laws[0].dim
    if any(y.dim != d for y in laws):
        raise ValueError("dimension mismatch")
    counts = Counter(which)

    u_exact, pair_terms, traces = [], [], []
    for y in laws:
        shifts = []
        for j in range(d):
            e = [0] * d
            e[j] = 1
            shifts.append(1 - tv_exact(y, shift(y, e)))
        u_exact.append(min(shifts))
        den_sq = y.denominator() ** 2
        atoms = list(zip(y.sites, y.numerators))
        pair_terms.append(
            [na * nb / den_sq * sum((a - b) ** 2 for a, b in zip(sa, sb)) ** 1.5 for sa, na in atoms for sb, nb in atoms]
        )
        c = y.cov()
        traces.append(sum(c[i][i] for i in range(d)))

    s_tilde_exact = sum((counts[i] * u for i, u in enumerate(u_exact)), Fraction(0)) - max(u_exact)
    trace = sum((counts[i] * t for i, t in enumerate(traces)), Fraction(0))

    # The float terms are added one by one in the original summand order, so
    # chi is the same float as a sum over every summand's atom pairs (a
    # per-summand sum() or a multiple of it would round differently).
    chi = 0.0
    for i in which:
        for term in pair_terms[i]:
            chi += term
    chi /= m

    denom = (2.0 * float(trace) / m) ** 1.5
    big_l = (chi / math.sqrt(m)) / denom if denom > 0 else math.inf
    u_float = [float(x) for x in u_exact]

    return LLTTerms(
        L=big_l,
        chi=chi,
        s_tilde=float(s_tilde_exact),
        u=tuple(u_float[i] for i in which),
        applicable=s_tilde_exact > 0,
    )


def tv_convergence_curve(base: LatticeDist, ms: Sequence[int], tol: float = 1e-6) -> list[dict]:
    """TV-to-rounded-Gaussian and local-CLT terms for m-fold self sums."""
    for m in ms:
        if m < 1:
            raise ValueError(f"every power m must be >= 1, got {m}")
    rows = []
    for m in ms:
        s = pow_conv(base, m)
        tv = tv_to_discretized_gaussian(s, tol)
        terms = llt_terms([base] * m)
        rows.append(
            {
                "m": m,
                "tv": tv.value,
                "tv_err": tv.err,
                "L": terms.L,
                "chi": terms.chi,
                "s_tilde": terms.s_tilde,
            }
        )
    return rows


# -- appendix utilities ---------------------------------------------------------


@dataclass(frozen=True)
class SingularBoundReport:
    bound: float
    sigma_min: float
    holds: bool


def singular_lower_bound(a) -> SingularBoundReport:
    """Check the determinant-based lower bound for the smallest singular
    value of an integer matrix of full column rank: (sqrt(n) R)**-(n-1) with
    R the largest column norm.  The entries must be integers (int_site)."""
    mat = np.array([[int_site(x) for x in row] for row in a], dtype=float)
    if mat.ndim != 2:
        raise ValueError("need a matrix")
    m, n = mat.shape
    if n > m or np.linalg.matrix_rank(mat) < n:
        raise ValueError("matrix must have full column rank")
    r = float(np.linalg.norm(mat, axis=0).max())
    bound = (math.sqrt(n) * r) ** (-(n - 1)) if n > 1 else 1.0
    sigma_min = float(np.linalg.svd(mat, compute_uv=False).min())
    slack = 1e-9 * max(1.0, sigma_min)
    return SingularBoundReport(bound, sigma_min, sigma_min >= bound - slack)


def gaussian_tail_bound(sigma, t: float) -> float:
    """exp(-t / (4 sigma_1)) bound for P(|X|^2 >= t), valid when the
    dimension is at most t / (16 sigma_1); sigma must be symmetric positive
    definite."""
    mat = _float_array(sigma, 2)
    _check_cov(mat)
    sigma1, bound = _norm_tail_bound(mat, t)
    if bound is None:
        raise ValueError(f"precondition fails: d={mat.shape[0]} > t/(16 sigma_1)={t / (16 * sigma1)}")
    return bound


@dataclass(frozen=True)
class TailCheckReport:
    bound: float
    empirical: float
    std_err: float
    holds: bool
    samples: int


def gaussian_tail_check(sigma, t: float, samples: int, seed: int = 0) -> TailCheckReport:
    """Empirical exceedance of the squared-norm tail versus its bound.

    Verifies empirical <= bound + 3 binomial standard errors (computed at the
    bound, the null rate)."""
    if samples < 1:
        raise ValueError("samples must be positive")
    bound = gaussian_tail_bound(sigma, t)
    draws = _normal_draws(sigma, samples, seed)
    exceed = float((np.sum(draws**2, axis=1) >= t).mean())
    se = math.sqrt(bound * (1 - bound) / samples)
    return TailCheckReport(bound, exceed, se, exceed <= bound + 3 * se, samples)


@dataclass(frozen=True)
class BEGapReport:
    """Exact CDF-versus-normal gap for a sum, with the third-moment ratio
    bound (the proportionality constant is configured by the caller)."""

    max_cdf_gap: float
    bound: float
    third_moment: Fraction
    variance: Fraction


def berry_esseen_gap(mus: Sequence[IntDist] | Mapping[IntDist, int]) -> BEGapReport:
    """Exact CDF gap of the sum of mus against the normal of its mean and
    variance.  Equal summands are grouped, so that each distinct law costs
    one convolution power and one third moment; a mapping of laws to counts
    passes through the grouping unchanged."""
    if not mus:
        raise ValueError("empty summand list")
    groups = Counter(mus)
    total = convolve_all([convolve_power(mu, count) for mu, count in groups.items()])
    var = variance(total)
    if var == 0:
        raise ValueError("zero variance")
    m3 = sum((count * third_abs_moment(mu) for mu, count in groups.items()), Fraction(0))
    bound = float(m3) / float(var) ** 1.5
    mu1 = float(mean(total))
    sd = math.sqrt(float(var))
    den = total.denominator()
    acc = 0
    gap = 0.0
    for site, n in zip(total.sites, total.numerators):
        phi = norm_cdf((site - mu1) / sd)
        gap = max(gap, abs(acc / den - phi))
        acc += n
        gap = max(gap, abs(acc / den - phi))
    return BEGapReport(gap, bound, m3, var)
