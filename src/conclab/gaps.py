"""Symmetric generalized arithmetic progressions, two-point decompositions,
integer lattice bases, and exact Rademacher-sum concentration.

GAP membership and properness are decided by bounded enumeration over the
coefficient box rather than by lattice algebra: the use cases only involve
small constant-volume GAPs, and a fixed budget of ENUM_BUDGET elements keeps
every operation total.  Budget overflow raises; it is never silently
approximated.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, isqrt
from typing import Optional, Sequence

from .dist import ENUM_BUDGET, IntDist, as_fraction, convolve_all, format_fraction, int_site, q_max


@dataclass(frozen=True)
class SymGAP:
    """Symmetric generalized arithmetic progression.

    The underlying set is {sum_i j_i * g_i : |j_i| <= M_i, j_i integer}.
    Generators are either rational scalars or integer vectors (tuples)
    sharing one dimension, at least 1; dims are positive integers so the
    volume prod(2*M_i + 1) is exact.  The constructor coerces each field once, dims
    and vector coordinates by ``int_site`` and scalars by ``as_fraction``, so
    a float or a boolean is a TypeError and the stored fields are tuples of
    ints and Fractions.
    """

    dims: tuple[int, ...]
    generators: tuple

    def __post_init__(self):
        if len(self.dims) != len(self.generators):
            raise ValueError("dims and generators must have equal length")
        dims = tuple(map(int_site, self.dims))
        if any(m <= 0 for m in dims):
            raise ValueError("dims must be positive integers")
        gens = tuple(tuple(map(int_site, g)) if isinstance(g, tuple) else as_fraction(g) for g in self.generators)
        if () in gens:
            raise ValueError("vector generators need dimension >= 1, got dimension 0")
        if len({self._kind_of(g) for g in gens}) > 1:
            raise ValueError("generators must all be scalars or all vectors of one dimension")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "generators", gens)

    @staticmethod
    def _kind_of(g):
        if isinstance(g, tuple):
            return ("vec", len(g))
        return ("scalar",)

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def kind(self):
        return self._kind_of(self.generators[0]) if self.generators else None

    def volume(self) -> int:
        v = 1
        for m in self.dims:
            v *= 2 * m + 1
        return v

    def elements(self) -> set:
        """The underlying set, by exhaustive enumeration of the coefficient
        box."""
        if self.volume() > ENUM_BUDGET:
            raise ValueError(f"volume {self.volume()} exceeds enumeration budget {ENUM_BUDGET}")
        if self.rank == 0:  # no generators, so no kind: the scalar zero
            return {Fraction(0)}
        out = set()
        ranges = [range(-m, m + 1) for m in self.dims]
        vector = self.kind[0] == "vec"
        for js in itertools.product(*ranges):
            if vector:
                d = self.kind[1]
                out.add(tuple(sum(j * g[i] for j, g in zip(js, self.generators)) for i in range(d)))
            else:
                out.add(sum((j * g for j, g in zip(js, self.generators)), Fraction(0)))
        return out

    def to_json_obj(self) -> dict:
        gens = [list(g) if isinstance(g, tuple) else format_fraction(g) for g in self.generators]
        return {"rank": self.rank, "dims": list(self.dims), "generators": gens}

    @staticmethod
    def from_json_obj(obj) -> "SymGAP":
        """Generators are "num/den" strings or integers (scalars) or lists of
        integers (vectors); dims are integers.  Anything else is a ValueError."""
        if not isinstance(obj, dict) or not all(isinstance(obj.get(k), list) for k in ("dims", "generators")):
            raise ValueError("a progression must be an object with 'dims' and 'generators' lists")
        try:
            gens = tuple(tuple(g) if isinstance(g, list) else g for g in obj["generators"])
            return SymGAP(tuple(obj["dims"]), gens)
        except TypeError as exc:
            raise ValueError(str(exc)) from exc


def gap_dilate(a: SymGAP, t: int) -> SymGAP:
    """Scale all dims by the positive integer t; generators unchanged."""
    if int_site(t) < 1:
        raise ValueError("dilation factor must be a positive integer")
    return SymGAP(tuple(m * t for m in a.dims), a.generators)


def gap_sumset(a: SymGAP, b: SymGAP) -> SymGAP:
    """Concatenate generators and dims; represents the elementwise sumset."""
    if a.generators and b.generators and a.kind != b.kind:
        raise ValueError("incompatible generator kinds")
    return SymGAP(a.dims + b.dims, a.generators + b.generators)


def gap_is_proper(a: SymGAP) -> bool:
    """All coefficient combinations give distinct elements."""
    return len(a.elements()) == a.volume()


def _require_kind(a: SymGAP, kind) -> None:
    """ValueError when the GAP's generators are of a kind other than kind; a
    rank-0 GAP has no generators and so no kind."""
    if a.kind is not None and a.kind != kind:
        name = {k: "scalar" if k == ("scalar",) else f"{k[1]}-vector" for k in (a.kind, kind)}
        raise ValueError(f"a {name[a.kind]} progression cannot hold {name[kind]} elements")


def gap_contains(a: SymGAP, x) -> bool:
    if isinstance(x, (list, tuple)):
        x = tuple(map(int_site, x))
        if not x:
            raise ValueError("a vector element needs dimension >= 1, got dimension 0")
    else:
        x = as_fraction(x)
    _require_kind(a, SymGAP._kind_of(x))
    if a.rank == 0:  # {0}, with the zero of the queried element's kind
        return not any(x) if isinstance(x, tuple) else x == 0
    return x in a.elements()


def gap_cover(a: SymGAP, dists: Sequence[IntDist]) -> Fraction:
    """Fraction of distributions whose whole support lies inside the GAP,
    which must have scalar generators (or none)."""
    if not dists:
        raise ValueError("empty distribution list")
    _require_kind(a, ("scalar",))
    elems = a.elements()
    covered = sum(1 for d in dists if all(s in elems for s in d.sites))
    return Fraction(covered, len(dists))


def gap_fit_rank1(values: Sequence[int], eps=0) -> Optional[SymGAP]:
    """Smallest-volume rank-1 symmetric GAP covering at least a (1 - eps)
    fraction of the values (with multiplicity).

    Candidate steps are the divisors of the nonzero values: a symmetric
    rank-1 GAP with step g contains exactly the multiples of g up to M*g, so
    only divisors can cover anything.  Ties resolve to the smallest step.
    When the needed quorum consists of zeros alone the rank-0 GAP {0} is
    returned.  Trial division up to isqrt(|v|) per distinct nonzero value
    finds the divisors; more than ENUM_BUDGET divisions is a ValueError.
    """
    values = [int_site(v) for v in values]
    if not values:
        return None
    eps = as_fraction(eps)
    if not (0 <= eps <= 1):
        raise ValueError("eps must be in [0, 1]")
    need = max(ceil((1 - eps) * len(values)), 1)

    nonzero = {abs(v) for v in values if v}
    if sum(map(isqrt, nonzero)) > ENUM_BUDGET:
        raise ValueError(f"trial division of the values exceeds the enumeration budget {ENUM_BUDGET}")
    candidates: set[int] = {1}
    for v in nonzero:
        for d in range(1, isqrt(v) + 1):
            if v % d == 0:
                candidates.update((d, v // d))

    best: Optional[tuple[int, int, int]] = None  # (volume, g, M)
    for g in sorted(candidates):
        scaled = sorted(abs(v) // g for v in values if v % g == 0)
        if len(scaled) < need:
            continue
        m = scaled[need - 1]
        vol = 2 * m + 1
        if best is None or (vol, g) < (best[0], best[1]):
            best = (vol, g, m)
    if best is None:
        return None
    _, g, m = best
    if m == 0:
        return SymGAP((), ())
    return SymGAP((m,), (g,))


# -- connected two-point decomposition ---------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """Weighted two-point uniform parts reconstructing a distribution, whose
    edge multiset forms a connected graph on the support."""

    parts: tuple[tuple[Fraction, tuple[int, int]], ...]

    def reconstruct(self) -> IntDist:
        masses: dict[int, Fraction] = {}
        for w, (a, b) in self.parts:
            masses[a] = masses.get(a, Fraction(0)) + w / 2
            masses[b] = masses.get(b, Fraction(0)) + w / 2
        return IntDist(masses.items())

    def is_connected(self) -> bool:
        vertices = {v for _, pair in self.parts for v in pair}
        return bool(vertices) and len(_components(vertices, [pair for _, pair in self.parts])) == 1

    def to_json_obj(self) -> dict:
        return {"parts": [[format_fraction(w), list(pair)] for w, pair in self.parts]}


def _components(vertices: set[int], edges: Sequence[tuple[int, int]]) -> list[set[int]]:
    adjacency: dict[int, set[int]] = {v: set() for v in vertices}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    out = []
    seen: set[int] = set()
    for start in sorted(vertices):
        if start in seen:
            continue
        comp = set()
        stack = [start]
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(adjacency[v] - comp)
        seen |= comp
        out.append(comp)
    return out


def connected_decomposition(mu: IntDist) -> Decomposition:
    """Decompose into weighted two-point uniforms with a connected edge graph.

    Requires at least two atoms and largest atom at most 1/2.  The common
    denominator is doubled first when odd, so the unit count is always even.
    Mass units are listed left to right and unit i is paired with unit
    i + N/2; equal pairs are collected, and when the resulting graph is
    disconnected one 1/N unit of weight per component is rerouted along a
    cycle through all components (smallest vertex orders the components, the
    lexicographically smallest edge represents each).  The units are never
    listed one by one: the runs of units of each site in the first half are
    merged with those of the second half, so the work is linear in the atom
    count, not in the denominator.
    """
    if len(mu) < 2:
        raise ValueError("need at least two atoms")
    if 2 * max(mu.numerators) > mu.denominator():
        raise ValueError("largest atom exceeds 1/2")
    n = mu.denominator()
    scale = 2 if n % 2 == 1 else 1
    n *= scale
    half = n // 2
    sites = mu.sites
    ends = list(itertools.accumulate(count * scale for count in mu.numerators))  # of each site's run
    pair_counts: dict[tuple[int, int], int] = {}
    # unit i lies in the run of site a, and unit i + half in that of site b
    i, a, b = 0, 0, bisect.bisect_right(ends, half)
    while i < half:
        if a == b:
            raise RuntimeError("largest atom at most 1/2 forbids equal pairs")
        step = min(ends[a], ends[b] - half) - i
        key = (sites[a], sites[b]) if sites[a] < sites[b] else (sites[b], sites[a])
        pair_counts[key] = pair_counts.get(key, 0) + step
        i += step
        a += ends[a] == i
        b += ends[b] == i + half

    units = {pair: 2 * count for pair, count in pair_counts.items()}  # weights in units of 1/n
    comps = _components(set(sites), list(units))
    if len(comps) > 1:
        reps = [min(pair for pair in units if pair[0] in comp) for comp in comps]
        for rep, following in zip(reps, reps[1:] + reps[:1]):
            units[rep] -= 1
            key = tuple(sorted((rep[0], following[1])))
            units[key] = units.get(key, 0) + 1
    ordered = sorted((u, pair) for pair, u in units.items() if u)
    return Decomposition(tuple((Fraction(u, n), pair) for u, pair in ordered))


# -- integer span bases -------------------------------------------------------


@dataclass(frozen=True)
class LatticeBasis:
    """Hermite-style basis of the integer span of a vector set.

    matrix rows are ambient coordinates; columns are the basis vectors, so
    matrix @ coords(x) == x for every input vector.  coord_bound_ok reports
    whether every coordinate vector satisfies the Korkin-Zolotarev-style
    length bound d**(d-1) * R**(2d-1); the bound is asserted softly because
    this basis is Hermite-reduced, not KZ-reduced.
    """

    matrix: tuple[tuple[int, ...], ...]
    coords: dict
    rank: int
    coord_bound_sq: int
    coord_bound_ok: bool

    def apply(self, coord: tuple[int, ...]) -> tuple[int, ...]:
        d = len(self.matrix)
        return tuple(sum(self.matrix[i][j] * coord[j] for j in range(self.rank)) for i in range(d))


def _row_hermite(rows: list[list[int]]) -> list[list[int]]:
    """Integer row reduction to a Hermite-style echelon basis of the row
    lattice."""
    mat = [row[:] for row in rows if any(row)]
    if not mat:
        return []
    ncols = len(mat[0])
    top = 0
    for col in range(ncols):
        while True:
            live = [i for i in range(top, len(mat)) if mat[i][col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(mat[i][col]))
            pivot = live[0]
            for i in live[1:]:
                q = mat[i][col] // mat[pivot][col]
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[pivot])]
        if not live:
            continue
        pivot = live[0]
        mat[top], mat[pivot] = mat[pivot], mat[top]
        if mat[top][col] < 0:
            mat[top] = [-a for a in mat[top]]
        for i in range(top):
            q = mat[i][col] // mat[top][col]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
        top += 1
    return [row for row in mat[:top] if any(row)]


def integer_span_basis(vectors: Sequence[Sequence[int]]) -> LatticeBasis:
    """Basis of the lattice generated by the input vectors, with exact
    coordinates.

    The input must contain the zero vector (the natural base point).  The
    basis is obtained by integer row reduction; coordinates are recovered by
    exact back-substitution, and matrix @ coords(x) == x is checked for every
    input vector.
    """
    vecs = [tuple(map(int_site, x)) for x in vectors]
    if not vecs:
        raise ValueError("empty vector set")
    d = len(vecs[0])
    if any(len(v) != d for v in vecs):
        raise ValueError("vectors must share one dimension")
    if tuple([0] * d) not in vecs:
        raise ValueError("vector set must contain the zero vector")

    basis_rows = _row_hermite([list(v) for v in vecs])
    rank = len(basis_rows)
    pivots = []
    for row in basis_rows:
        pivots.append(next(j for j, a in enumerate(row) if a != 0))

    def solve(x: tuple[int, ...]) -> tuple[int, ...]:
        residue = list(x)
        out = []
        for row, p in zip(basis_rows, pivots):
            if residue[p] % row[p] != 0:
                raise ValueError(f"{x} is not in the generated lattice")
            c = residue[p] // row[p]
            residue = [a - c * b for a, b in zip(residue, row)]
            out.append(c)
        if any(residue):
            raise ValueError(f"{x} is not in the generated lattice")
        return tuple(out)

    coords = {v: solve(v) for v in vecs}
    matrix = tuple(tuple(basis_rows[j][i] for j in range(rank)) for i in range(d))

    r_sq = max(sum(a * a for a in v) for v in vecs)
    bound_sq = (d ** (2 * (d - 1))) * (r_sq ** (2 * d - 1)) if r_sq > 0 else 0
    ok = all(sum(c * c for c in coord) <= bound_sq for coord in coords.values())
    basis = LatticeBasis(matrix, coords, rank, bound_sq, ok)
    for v, c in coords.items():
        if basis.apply(c) != v:
            raise RuntimeError(f"basis coordinates {c} do not reproduce {v}")
    return basis


# -- Rademacher sums ----------------------------------------------------------


def rademacher_q(multipliers: Sequence[int]) -> Fraction:
    """Exact largest atom of sum(v_i * xi_i) for independent signs xi_i.

    Computed by convolving the two-point laws; the classical central-binomial
    bound C(n, floor(n/2)) / 2**n is checked on the result (RuntimeError if
    it fails).
    """
    vs = [int_site(v) for v in multipliers]
    if not vs:
        raise ValueError("empty multiplier list")
    if any(v == 0 for v in vs):
        raise ValueError("multipliers must be nonzero")
    half = Fraction(1, 2)
    dists = [IntDist([(-abs(v), half), (abs(v), half)]) for v in vs]
    value = q_max(convolve_all(dists))
    n = len(vs)
    bound = Fraction(comb(n, n // 2), 2**n)
    if value > bound:
        raise RuntimeError(f"largest atom {value} exceeds the central-binomial bound {bound}")
    return value
