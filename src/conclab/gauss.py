"""Multivariate lattice distributions, the discretized Gaussian, total
variation distances, and the computable terms of the local-CLT bound.

Lattice distributions carry exact rational masses; only the Gaussian side of
the bridge uses floating point, and every float it produces travels with an
explicit error term.  Assertions on real-valued quantities always compare
error-aware: (value + err) against (other - err).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .dist import FiniteMeasure, IntDist, convolve, convolve_power


def norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def norm_sf(z: float) -> float:
    """Upper tail 1 - cdf(z) via erfc: no cancellation for large z."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _int_vector(site: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(operator.index, site))


def _add_vectors(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(operator.add, a, b))


class LatticeDist(FiniteMeasure):
    """Finite probability distribution on integer vectors of one dimension
    with exact rational masses."""

    __slots__ = ()

    _site = staticmethod(_int_vector)
    _add_sites = staticmethod(_add_vectors)

    def __init__(self, atoms: Iterable[tuple[Sequence[int], object]]):
        super().__init__(atoms)
        if len(set(map(len, self.sites))) != 1:
            raise ValueError("mixed dimensions")

    @property
    def dim(self) -> int:
        return len(self.sites[0])

    def _compatible(self, other) -> bool:
        return super()._compatible(other) and other.dim == self.dim

    def _moment_sums(self) -> tuple[int, list[tuple[int, ...]], list[list[int]]]:
        """(den, axes, weighted): the denominator, the site coordinates axis by
        axis, and each axis times the numerators: mean and cov as integer sums."""
        axes = list(zip(*self.sites))
        return self.denominator(), axes, [list(map(operator.mul, self.numerators, axis)) for axis in axes]

    def mean(self) -> tuple[Fraction, ...]:
        den, _, weighted = self._moment_sums()
        return tuple(Fraction(sum(w), den) for w in weighted)

    def cov(self) -> tuple[tuple[Fraction, ...], ...]:
        # (den * sum n x_i x_j - sum n x_i * sum n x_j) / den**2: one Fraction per entry
        den, axes, weighted = self._moment_sums()
        first = [sum(w) for w in weighted]
        return tuple(
            tuple(
                Fraction(den * sum(map(operator.mul, w, axis)) - f * g, den * den)
                for axis, g in zip(axes, first)
            )
            for w, f in zip(weighted, first)
        )

    def shifted(self, vector: Sequence[int]) -> "LatticeDist":
        v = _int_vector(vector)
        moved = {_add_vectors(s, v): n for s, n in zip(self.sites, self.numerators)}
        return LatticeDist._from_integers(moved, self.denominator())


def lattice_delta(site: Sequence[int]) -> LatticeDist:
    return LatticeDist([(tuple(site), Fraction(1))])


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


@dataclass(frozen=True)
class GaussSpec:
    """Mean vector and symmetric positive-definite covariance."""

    mean: tuple[float, ...]
    cov: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        c = np.asarray(self.cov, dtype=float)
        if c.shape != (len(self.mean), len(self.mean)):
            raise ValueError("covariance shape mismatch")
        if not np.allclose(c, c.T):
            raise ValueError("covariance must be symmetric")
        if np.linalg.eigvalsh(c).min() <= 0:
            raise ValueError("covariance must be positive definite")

    @property
    def dim(self) -> int:
        return len(self.mean)

    @staticmethod
    def from_json_obj(obj) -> "GaussSpec":
        if not isinstance(obj, dict) or "mean" not in obj or "cov" not in obj:
            raise ValueError("a Gaussian spec must be an object with 'mean' and 'cov'")
        mean, cov = _float_array(obj["mean"], 1), _float_array(obj["cov"], 2)
        return GaussSpec(tuple(mean.tolist()), tuple(map(tuple, cov.tolist())))


def _cell_prob_1d(mu: float, sigma: float, x: int) -> tuple[float, float]:
    p = norm_cdf((x + 0.5 - mu) / sigma) - norm_cdf((x - 0.5 - mu) / sigma)
    return max(p, 0.0), 1e-14


def _cell_integrator_2d(spec: GaussSpec, epsabs: float) -> Callable[[tuple[int, int]], tuple[float, float]]:
    """The 2-D cell probability x -> (p, err): the Gaussian density of the
    first coordinate times the conditional probability of the second cell,
    integrated over the first by ``quad``.

    What depends only on the spec is computed once per table.  The integrand
    inlines ``norm_cdf`` with the same operations in the same order, so every
    value, and so ``quad``'s result, is the float that a per-cell evaluation
    gives.
    """
    # imported here, its only use, so that importing this module leaves scipy out
    from scipy.integrate import quad

    exp, erf = math.exp, math.erf
    m1, m2 = spec.mean
    s11 = spec.cov[0][0]
    s12 = spec.cov[0][1]
    s22 = spec.cov[1][1]
    sd1 = math.sqrt(s11)
    cond_sd = math.sqrt(s22 - s12 * s12 / s11)
    scale = sd1 * math.sqrt(2 * math.pi)
    slope = s12 / s11
    sqrt2 = math.sqrt(2.0)

    def cell(x: tuple[int, int]) -> tuple[float, float]:
        a2, b2 = x[1] - 0.5, x[1] + 0.5

        def integrand(t: float) -> float:
            c = m2 + slope * (t - m1)
            upper = 0.5 * (1.0 + erf((b2 - c) / cond_sd / sqrt2))
            lower = 0.5 * (1.0 + erf((a2 - c) / cond_sd / sqrt2))
            return exp(-0.5 * ((t - m1) / sd1) ** 2) / scale * (upper - lower)

        value, err = quad(integrand, x[0] - 0.5, x[0] + 0.5, epsabs=epsabs, limit=200)
        return max(value, 0.0), max(err, 1e-15)

    return cell


def _tail_bound_outside_box(spec: GaussSpec, box: Sequence[tuple[int, int]]) -> float:
    """Upper bound on the Gaussian mass outside the union of box cells.

    Uses the better of the quadratic-norm tail bound (when its dimension
    precondition holds) and the exact per-coordinate union bound.
    """
    d = spec.dim
    union = 0.0
    radius = math.inf
    for j, (lo, hi) in enumerate(box):
        sd = math.sqrt(spec.cov[j][j])
        upper = (hi + 0.5 - spec.mean[j]) / sd
        lower = (spec.mean[j] - (lo - 0.5)) / sd
        union += norm_sf(upper) + norm_sf(lower)
    # a hair of inflation keeps the union a valid bound despite erfc rounding
    bound = min(union * (1 + 1e-12), 1.0)
    for j, (lo, hi) in enumerate(box):
        radius = min(radius, hi + 0.5 - spec.mean[j], spec.mean[j] - (lo - 0.5))
    if radius > 0:
        t = radius * radius
        sigma1 = float(np.linalg.eigvalsh(np.asarray(spec.cov)).max())
        if d <= t / (16 * sigma1):
            bound = min(bound, math.exp(-t / (4 * sigma1)))
    return bound


@dataclass(frozen=True)
class CellTable:
    """Rounded-Gaussian cell probabilities with per-cell certified errors and
    a bound on the mass outside the box."""

    cells: dict
    tail_bound: float
    spec: GaussSpec

    def prob(self, site: Sequence[int]) -> tuple[float, float]:
        return self.cells.get(_int_vector(site), (0.0, 0.0))


def discretized_gaussian(
    spec: GaussSpec,
    box: Sequence[tuple[int, int]],
    tol: float,
    seed: int = 0,
    samples: Optional[int] = None,
) -> CellTable:
    """Cell probabilities P(rounded Gaussian = x) for x in the box.

    d <= 2 uses quadrature (closed form in d = 1) with certified absolute
    error at most tol per cell; d = 3 uses seeded Monte Carlo, reporting a
    three-standard-error confidence half-width and requiring it to be at most
    tol.  Larger d is unsupported by design.
    """
    d = spec.dim
    if len(box) != d:
        raise ValueError("box dimension mismatch")
    if tol <= 0:
        raise ValueError("tol must be positive")
    cells: dict[tuple[int, ...], tuple[float, float]] = {}
    if d == 1:
        mu, sigma = spec.mean[0], math.sqrt(spec.cov[0][0])
        for x in range(box[0][0], box[0][1] + 1):
            cells[(x,)] = _cell_prob_1d(mu, sigma, x)
    elif d == 2:
        cell = _cell_integrator_2d(spec, epsabs=min(tol / 10, 1e-11))
        for x0 in range(box[0][0], box[0][1] + 1):
            for x1 in range(box[1][0], box[1][1] + 1):
                p, err = cell((x0, x1))
                if err > tol:
                    raise ValueError(f"quadrature error {err} exceeds tol {tol} at {(x0, x1)}")
                cells[(x0, x1)] = (p, err)
    elif d == 3:
        n = samples if samples is not None else int(math.ceil((1.5 / tol) ** 2))
        if n > 5 * 10**7:
            raise ValueError("tol too small for the Monte Carlo budget")
        rng = np.random.default_rng(seed)
        chol = np.linalg.cholesky(np.asarray(spec.cov))
        draws = rng.standard_normal((n, 3)) @ chol.T + np.asarray(spec.mean)
        rounded = np.floor(draws + 0.5).astype(int)
        del draws  # so the binning below needs less memory than the rounding
        rounded -= [lo for lo, _ in box]  # offsets into the box
        shape = tuple(max(hi - lo + 1, 0) for lo, hi in box)
        inside = np.all((rounded >= 0) & (rounded < shape), axis=1)
        counts = np.bincount(np.ravel_multi_index(rounded[inside].T, shape), minlength=math.prod(shape))
        # itertools.product walks the box in row-major order, the order of
        # the flat counts
        for cell, hits in zip(itertools.product(*(range(lo, hi + 1) for lo, hi in box)), counts):
            p = hits / n
            half = 3 * math.sqrt(max(p * (1 - p), 1.0 / n) / n)
            cells[cell] = (p, half)
    else:
        raise ValueError("dimension above 3 unsupported")
    return CellTable(cells, _tail_bound_outside_box(spec, box), spec)


@dataclass(frozen=True)
class TVResult:
    value: float
    err: float
    cells: int
    tail_bound: float
    spec: GaussSpec


def fit_gauss_spec(s: LatticeDist) -> GaussSpec:
    mean = tuple(float(x) for x in s.mean())
    cov_exact = s.cov()
    d = s.dim
    if d == 1:
        degenerate = cov_exact[0][0] == 0
    elif d == 2:
        degenerate = cov_exact[0][0] * cov_exact[1][1] - cov_exact[0][1] ** 2 <= 0
    else:
        degenerate = np.linalg.matrix_rank(np.asarray(cov_exact, dtype=float)) < d
    if degenerate:
        raise ValueError("degenerate covariance: rank below dimension")
    return GaussSpec(mean, tuple(tuple(float(v) for v in row) for row in cov_exact))


def tv_to_discretized_gaussian(s: LatticeDist, tol: float = 1e-6) -> TVResult:
    """Total variation between an exact lattice distribution and the rounded
    Gaussian with matching mean and covariance, with a certified error.

    The sum runs over the support plus a 6.5-sigma box; outside that set the
    exact side is zero, so the remainder is at most half the Gaussian tail
    bound and is folded into the reported error interval.
    """
    d = s.dim
    if d > 2:
        raise ValueError("exact side supported only for d <= 2")
    spec = fit_gauss_spec(s)
    sites = s.sites
    box = []
    for j in range(d):
        sd = math.sqrt(spec.cov[j][j])
        lo = min(min(x[j] for x in sites), math.floor(spec.mean[j] - 6.5 * sd))
        hi = max(max(x[j] for x in sites), math.ceil(spec.mean[j] + 6.5 * sd))
        box.append((lo, hi))
    ncells = 1
    for lo, hi in box:
        ncells *= hi - lo + 1
    table = discretized_gaussian(spec, box, tol=max(tol / ncells, 1e-13))
    den = s.denominator()
    half_l1 = 0.0
    err_sum = 0.0
    for site, (p, err) in table.cells.items():
        half_l1 += abs(s.numerator(site) / den - p)
        err_sum += err
    tail = table.tail_bound
    value = 0.5 * half_l1 + 0.25 * tail
    err = 0.5 * err_sum + 0.25 * tail + 1e-12
    return TVResult(value, err, ncells, tail, spec)


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
    if not ys:
        raise ValueError("empty summand list")
    d = ys[0].dim
    if any(y.dim != d for y in ys):
        raise ValueError("dimension mismatch")
    m = len(ys)

    # u, the chi terms and the covariance trace depend on the summand alone,
    # so each distinct summand is worked out once.
    per: dict = {}
    for y in ys:
        if y in per:
            continue
        shifts = []
        for j in range(d):
            e = [0] * d
            e[j] = 1
            shifts.append(1 - tv_exact(y, y.shifted(e)))
        terms = []
        den_sq = y.denominator() ** 2
        for sa, na in zip(y.sites, y.numerators):
            for sb, nb in zip(y.sites, y.numerators):
                dist_sq = sum((a - b) ** 2 for a, b in zip(sa, sb))
                terms.append(na * nb / den_sq * dist_sq**1.5)
        c = y.cov()
        per[y] = (min(shifts), terms, sum(c[i][i] for i in range(d)))

    u_exact = [per[y][0] for y in ys]
    s_tilde_exact = sum(u_exact, Fraction(0)) - max(u_exact)

    # The float terms are added one by one in the original summand order, so
    # chi is the same float as a sum over every summand's atom pairs (a
    # per-summand sum() or a multiple of it would round differently).
    chi = 0.0
    for y in ys:
        for term in per[y][1]:
            chi += term
    chi /= m

    trace = sum((per[y][2] for y in ys), Fraction(0))
    denom = (2.0 * float(trace) / m) ** 1.5
    big_l = (chi / math.sqrt(m)) / denom if denom > 0 else math.inf

    return LLTTerms(
        L=big_l,
        chi=chi,
        s_tilde=float(s_tilde_exact),
        u=tuple(float(x) for x in u_exact),
        applicable=s_tilde_exact > 0,
    )


def tv_convergence_curve(base: LatticeDist, ms: Sequence[int], tol: float = 1e-6) -> list[dict]:
    """TV-to-rounded-Gaussian and local-CLT terms for m-fold self sums."""
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
    column_norm_max: float


def singular_lower_bound(a) -> SingularBoundReport:
    """Check the determinant-based lower bound for the smallest singular
    value of an integer matrix of full column rank: (sqrt(n) R)**-(n-1) with
    R the largest column norm."""
    mat = np.asarray(a, dtype=float)
    if mat.ndim != 2:
        raise ValueError("need a matrix")
    m, n = mat.shape
    if n > m or np.linalg.matrix_rank(mat) < n:
        raise ValueError("matrix must have full column rank")
    r = float(np.linalg.norm(mat, axis=0).max())
    bound = (math.sqrt(n) * r) ** (-(n - 1)) if n > 1 else 1.0
    sigma_min = float(np.linalg.svd(mat, compute_uv=False).min())
    slack = 1e-9 * max(1.0, sigma_min)
    return SingularBoundReport(bound, sigma_min, sigma_min >= bound - slack, r)


def gaussian_tail_bound(sigma, t: float) -> float:
    """exp(-t / (4 sigma_1)) bound for P(|X|^2 >= t), valid when the
    dimension is at most t / (16 sigma_1)."""
    mat = _float_array(sigma, 2)
    d = mat.shape[0]
    sigma1 = float(np.linalg.eigvalsh(mat).max())
    if sigma1 <= 0:
        raise ValueError("covariance must be positive definite")
    if d > t / (16 * sigma1):
        raise ValueError(f"precondition fails: d={d} > t/(16 sigma_1)={t / (16 * sigma1)}")
    return math.exp(-t / (4 * sigma1))


@dataclass(frozen=True)
class TailCheckReport:
    bound: float
    empirical: float
    std_err: float
    holds: bool
    samples: int
    seed: int


def gaussian_tail_check(sigma, t: float, samples: int, seed: int = 0) -> TailCheckReport:
    """Empirical exceedance of the squared-norm tail versus its bound.

    Verifies empirical <= bound + 3 binomial standard errors (computed at the
    bound, the null rate)."""
    if samples < 1:
        raise ValueError("samples must be positive")
    bound = gaussian_tail_bound(sigma, t)
    mat = np.asarray(sigma, dtype=float)
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(mat)
    draws = rng.standard_normal((samples, mat.shape[0])) @ chol.T
    exceed = float((np.sum(draws**2, axis=1) >= t).mean())
    se = math.sqrt(bound * (1 - bound) / samples)
    return TailCheckReport(bound, exceed, se, exceed <= bound + 3 * se, samples, seed)


@dataclass(frozen=True)
class BEGapReport:
    """Exact CDF-versus-normal gap for a sum, with the third-moment ratio
    bound (the proportionality constant is configured by the caller)."""

    max_cdf_gap: float
    bound: float
    third_moment: Fraction
    variance: Fraction


def berry_esseen_gap(mus: Sequence[IntDist]) -> BEGapReport:
    from .dist import convolve_all, mean, third_abs_moment, variance

    if not mus:
        raise ValueError("empty summand list")
    total = convolve_all(list(mus))
    var = variance(total)
    if var == 0:
        raise ValueError("zero variance")
    m3 = sum((third_abs_moment(mu) for mu in mus), Fraction(0))
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
