"""Exact finite probability distributions on the integers.

:class:`FiniteMeasure` is the one atom container of the package: validation,
storage, lookup, serialization and the convolution kernel live here, and
``rearrange.IntMeasure`` and ``gauss.LatticeDist`` are thin subclasses of it.
The central type is :class:`IntDist`: an immutable list of (site, mass) atoms
with strictly increasing integer sites and positive rational masses summing to
exactly one.  Every probabilistic quantity in this package (concentration
functionals, moments, rearrangements, structural predicates) is computed in
exact rational arithmetic on these values; floating point never enters.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'num/den' strings to Fraction."""
    if isinstance(value, float):
        raise TypeError("floating-point masses are not accepted; use exact rationals")
    if isinstance(value, bool):
        raise TypeError("boolean masses are not accepted; use exact rationals")
    try:
        return Fraction(value)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {value!r}") from exc


def json_int(value) -> int:
    """An integer field of a JSON input; a float or a boolean is a TypeError."""
    if type(value) is not int:
        raise TypeError(f"expected a JSON integer, got {value!r}")
    return value


def format_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class SpanResult:
    """Maximum span of a distribution: a positive integer, or infinite for a
    single atom."""

    value: int | None

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def __repr__(self) -> str:
        return "SpanResult(INFINITE)" if self.is_infinite else f"SpanResult({self.value})"


INFINITE_SPAN = SpanResult(None)


_ZERO = Fraction(0)


class FiniteMeasure:
    """Finite measure with exact positive rational masses: the one atom
    container of the package.

    Immutable value type.  Atoms are stored as a tuple of (site, mass) pairs
    with sites strictly increasing and every mass positive, next to a
    site -> mass dict, so ``mass()`` is a dict lookup.  A subclass sets what
    differs: ``_site`` converts one input site, rejecting floats, ``_add_sites``
    adds two sites in the convolution kernel, and ``_normalized`` requires the
    masses to sum to exactly 1.  The integer site type is the default.
    """

    __slots__ = ("_atoms", "_index")

    _site = operator.index
    _add_sites = operator.add
    _normalized = True

    def __init__(self, atoms: Iterable[tuple[object, object]]):
        site_of = self._site
        merged: dict = {}
        for site, mass in atoms:
            site = site_of(site)
            mass = as_fraction(mass)
            if mass < 0:
                raise ValueError(f"negative mass {mass} at site {site}")
            if site in merged:
                raise ValueError(f"duplicate site {site}")
            if mass > 0:
                merged[site] = mass
        if not merged:
            raise ValueError("empty distribution")
        if self._normalized:
            total = sum(merged.values())
            if total != 1:
                raise ValueError(f"masses sum to {total}, expected 1")
        object.__setattr__(self, "_atoms", tuple(sorted(merged.items())))
        object.__setattr__(self, "_index", merged)

    # -- basic accessors -------------------------------------------------

    @property
    def atoms(self) -> tuple[tuple[object, Fraction], ...]:
        return self._atoms

    @property
    def sites(self) -> tuple:
        return tuple(s for s, _ in self._atoms)

    @property
    def masses(self) -> tuple[Fraction, ...]:
        return tuple(m for _, m in self._atoms)

    def mass(self, site) -> Fraction:
        return self._index.get(site, _ZERO)

    def __len__(self) -> int:
        return len(self._atoms)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._atoms == other._atoms

    def __hash__(self) -> int:
        return hash(self._atoms)

    def __repr__(self) -> str:
        inner = ", ".join(f"{s}: {format_fraction(m)}" for s, m in self._atoms)
        return f"{type(self).__name__}({{{inner}}})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def denominator(self) -> int:
        """Least common denominator of all masses."""
        return lcm(*(m.denominator for _, m in self._atoms))

    def _compatible(self, other) -> bool:
        """Whether the sites of self and other can be added."""
        return type(other) is type(self)

    # -- serialization ---------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"atoms": [[s, format_fraction(m)] for s, m in self._atoms]}

    @classmethod
    def from_json_obj(cls, obj):
        if not isinstance(obj, dict) or "atoms" not in obj:
            raise ValueError("distribution JSON must be an object with an 'atoms' key")
        try:
            return cls(obj["atoms"])
        except TypeError as exc:
            raise ValueError(str(exc)) from exc


class IntDist(FiniteMeasure):
    """Finite probability distribution on Z with exact rational masses
    summing to exactly 1."""

    __slots__ = ()

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    def to_text(self) -> str:
        return "\n".join(f"{s}: {format_fraction(m)}" for s, m in self._atoms) + "\n"

    @staticmethod
    def from_json(text: str) -> "IntDist":
        return IntDist.from_json_obj(json.loads(text))

    @staticmethod
    def from_text(text: str) -> "IntDist":
        atoms = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                site_s, mass_s = line.split(":")
                atoms.append((int(site_s.strip()), Fraction(mass_s.strip())))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"line {lineno}: cannot parse {line!r}") from exc
        return IntDist(atoms)


# -- constructors ---------------------------------------------------------


def delta(site: int) -> IntDist:
    return IntDist([(site, Fraction(1))])


def uniform(sites: Sequence[int]) -> IntDist:
    sites = list(sites)
    if not sites:
        raise ValueError("uniform distribution needs at least one site")
    p = Fraction(1, len(sites))
    return IntDist((s, p) for s in sites)


def uniform_interval(lo: int, hi: int) -> IntDist:
    if hi < lo:
        raise ValueError("empty interval")
    return uniform(range(lo, hi + 1))


# -- operations ------------------------------------------------------------


def _convolve_numerators(a: FiniteMeasure, b: FiniteMeasure) -> tuple[dict, int]:
    """Integer numerators of the convolution of a and b over the product of
    their common denominators: the one convolution kernel of the package,
    for integer and lattice sites alike."""
    if not a._compatible(b):
        raise ValueError(f"cannot convolve {type(a).__name__} and {type(b).__name__}: site types or dimensions differ")
    da, db = a.denominator(), b.denominator()
    na = [(s, m.numerator * (da // m.denominator)) for s, m in a.atoms]
    nb = [(s, m.numerator * (db // m.denominator)) for s, m in b.atoms]
    add = a._add_sites
    out: dict = {}
    for sa, wa in na:
        for sb, wb in nb:
            key = add(sa, sb)
            out[key] = out.get(key, 0) + wa * wb
    return out, da * db


def convolve(a: FiniteMeasure, b: FiniteMeasure) -> FiniteMeasure:
    """Exact law of the sum of independent draws from a and b, of the same
    container type as a.

    Masses are accumulated as integer numerators over the product of the two
    common denominators, so only one gcd normalization happens per output
    atom instead of one per term.
    """
    out, den = _convolve_numerators(a, b)
    return type(a)((s, Fraction(w, den)) for s, w in out.items())


def q_max_convolve(a: IntDist, b: IntDist) -> Fraction:
    """q_max(convolve(a, b)) without building the convolution's IntDist.

    The mass check stays exact: the numerators must sum to the denominator.
    """
    out, den = _convolve_numerators(a, b)
    total = sum(out.values())
    if total != den:
        raise RuntimeError(f"masses sum to {Fraction(total, den)}, expected 1")
    return Fraction(max(out.values()), den)


def convolve_all(dists: Sequence[IntDist]) -> IntDist:
    if not dists:
        raise ValueError("empty convolution")
    acc = dists[0]
    for d in dists[1:]:
        acc = convolve(acc, d)
    return acc


def convolve_power(mu: FiniteMeasure, n: int) -> FiniteMeasure:
    """n-fold self-convolution by binary exponentiation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    result: FiniteMeasure | None = None
    base = mu
    while n:
        if n & 1:
            result = base if result is None else convolve(result, base)
        n >>= 1
        if n:
            base = convolve(base, base)
    return result


def q_max(mu: IntDist) -> Fraction:
    """Largest single atom mass."""
    return max(mu.masses)


def q_k(mu: IntDist, k: int) -> Fraction:
    """Sum of the k largest masses (1 once k reaches the atom count)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = sorted(mu.masses, reverse=True)
    return sum(ranked[:k], Fraction(0))


def q_interval(mu: IntDist, t: int) -> Fraction:
    """Maximum total mass on any window of t consecutive integers.

    An open real interval of length t contains at most t integers and that
    count is attained, so the sliding-window maximum realizes the open-interval
    concentration at scale t; q_interval(mu, 1) == q_max(mu).
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    sites = mu.sites
    masses = mu.masses
    best = Fraction(0)
    j = 0
    window = Fraction(0)
    for i in range(len(sites)):
        window += masses[i]
        while sites[i] - sites[j] >= t:
            window -= masses[j]
            j += 1
        if window > best:
            best = window
    return best


def mean(mu: IntDist) -> Fraction:
    return sum((Fraction(s) * m for s, m in mu.atoms), Fraction(0))


def variance(mu: IntDist) -> Fraction:
    mu1 = mean(mu)
    return sum((m * (Fraction(s) - mu1) ** 2 for s, m in mu.atoms), Fraction(0))


def third_abs_moment(mu: IntDist) -> Fraction:
    """E|X - EX|**3, exact (used by the normal-approximation bound)."""
    mu1 = mean(mu)
    return sum((m * abs(Fraction(s) - mu1) ** 3 for s, m in mu.atoms), Fraction(0))


def shift(mu: IntDist, c: int) -> IntDist:
    return IntDist((s + c, m) for s, m in mu.atoms)


def negate(mu: IntDist) -> IntDist:
    return IntDist((-s, m) for s, m in mu.atoms)


def has_contiguous_support(mu: IntDist) -> bool:
    sites = mu.sites
    return sites[-1] - sites[0] + 1 == len(sites)


def is_log_concave(mu: IntDist) -> bool:
    """Squared-mass inequality on a contiguous support.

    The inequality m(i)**2 >= m(i-1)*m(i+1) is required at every integer i, so
    a zero between two positive masses fails it; hence contiguous support is
    part of the predicate.
    """
    if not has_contiguous_support(mu):
        return False
    ms = mu.masses
    return all(ms[i] ** 2 >= ms[i - 1] * ms[i + 1] for i in range(1, len(ms) - 1))


def is_unimodal(mu: IntDist) -> bool:
    """Masses nondecreasing up to some site, nonincreasing after."""
    if len(mu) == 1:
        return True
    if not has_contiguous_support(mu):
        return False
    ms = mu.masses
    i = 0
    while i + 1 < len(ms) and ms[i + 1] >= ms[i]:
        i += 1
    while i + 1 < len(ms) and ms[i + 1] <= ms[i]:
        i += 1
    return i == len(ms) - 1


def modes(mu: IntDist) -> list[int]:
    """All sites carrying the maximal mass."""
    peak = q_max(mu)
    return [s for s, m in mu.atoms if m == peak]


def max_span(mu: IntDist) -> SpanResult:
    """gcd of pairwise site differences; infinite for a single atom."""
    sites = mu.sites
    if len(sites) == 1:
        return INFINITE_SPAN
    base = sites[0]
    g = 0
    for s in sites[1:]:
        g = gcd(g, s - base)
    return SpanResult(g)


def squeeze(mu: IntDist) -> IntDist:
    """Remap the sites, in order, onto the maximally centered interval.

    The mass multiset is preserved: the j-th smallest site keeps its mass and
    moves to position j - 1 - floor((N-1)/2), so an N-atom distribution lands
    on {-floor((N-1)/2), ..., ceil((N-1)/2)}.
    """
    n = len(mu)
    start = -((n - 1) // 2)
    return IntDist((start + j, m) for j, (_, m) in enumerate(mu.atoms))


def is_sharp_log_concave(mu: IntDist) -> bool:
    return is_log_concave(squeeze(mu))
