"""Mass rearrangements, ball functions, nested medians, and the dominating
coupling.

The plus-rearrangement of a measure places its masses, sorted in decreasing
order, at 0, 1, -1, 2, -2, ...; the minus-rearrangement mirrors that layout.
A measure with integer-scaled masses can be laid out as "balls" on an index
interval (the ball function), whose group medians form a nested chain; that
chain is what makes the explicit dominating coupling construction work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional

from .dist import FiniteMeasure, IntDist, as_fraction, format_fraction, is_unimodal, negate


class IntMeasure(FiniteMeasure):
    """Finite nonnegative measure on Z with exact rational masses.

    Unlike :class:`IntDist` the total mass may be any positive rational.
    """

    __slots__ = ()

    _normalized = False


# -- rearrangements --------------------------------------------------------


def _plus_position(rank: int) -> int:
    """Position of the rank-th largest mass in the plus layout 0,1,-1,2,-2,..."""
    return (rank + 1) // 2 if rank % 2 == 1 else -(rank // 2)


def plus_rearrange(mu: IntDist) -> IntDist:
    """Masses sorted descending, placed at 0, 1, -1, 2, -2, ...; equal masses
    are interchangeable, so no tie-break is needed.  An IntMeasure stays one."""
    ranked = sorted(mu.numerators, reverse=True)
    return type(mu)._from_integers({_plus_position(r): n for r, n in enumerate(ranked)}, mu.denominator())


def minus_rearrange(mu: IntDist) -> IntDist:
    """Mirror layout 0, -1, 1, -2, 2, ...; pointwise the reflection of
    plus_rearrange."""
    return negate(plus_rearrange(mu))


def sym_rearrange(mu: IntDist) -> Optional[IntDist]:
    """The symmetric decreasing rearrangement, when it exists.

    Exists exactly when the plus and minus rearrangements agree as
    distributions; returns None otherwise.
    """
    plus = plus_rearrange(mu)
    return plus if plus == negate(plus) else None


# -- ball functions and medians ---------------------------------------------


@dataclass(frozen=True)
class BallFunction:
    """Nondecreasing layout of integer-scaled masses over an index interval.

    groups[i] = (value, (lo, hi)): the balls with indices lo..hi sit at the
    plus-rearranged site `value`; the index intervals partition the domain.
    """

    groups: tuple[tuple[int, tuple[int, int]], ...]
    domain: tuple[int, int]

    def value_at(self, index: int) -> int:
        for value, (lo, hi) in self.groups:
            if lo <= index <= hi:
                return value
        raise KeyError(f"index {index} outside domain {self.domain}")

    def group_for_value(self, value: int) -> tuple[int, int]:
        for v, span in self.groups:
            if v == value:
                return span
        raise KeyError(f"value {value} not in range")


def _layout(scaled_atoms: list[tuple[int, int]], start: int) -> BallFunction:
    """Lay out (site, count) atoms, ascending by site, from index `start`."""
    groups = []
    idx = start
    for site, count in scaled_atoms:
        groups.append((site, (idx, idx + count - 1)))
        idx += count
    total = idx - start
    return BallFunction(tuple(groups), (start, start + total - 1))


def ball_function(nu: IntMeasure) -> BallFunction:
    """Ball layout of the plus-rearranged measure on the canonical domain.

    Masses are scaled by their common denominator to integer counts N*mass;
    the domain is {1, ..., N}.  The layout is the unique nondecreasing
    function whose level-set sizes match the scaled plus-rearranged masses.
    """
    plus = plus_rearrange(nu)
    return _layout(list(zip(plus.sites, plus.numerators)), 1)


def centered_interval(j: int) -> tuple[int, int]:
    """The maximally centered interval of j integers: {-floor((j-1)/2), ...,
    ceil((j-1)/2)}."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return (-((j - 1) // 2), (j - 1) - (j - 1) // 2)


@dataclass(frozen=True)
class MedianChain:
    """Medians of the nested centered level sets of a ball function.

    m is the median of the whole domain; level_medians[j-1] is the median of
    the ball indices whose value lies in the centered interval of j sites.
    All medians are half-integers stored exactly.
    """

    m: Fraction
    level_medians: tuple[Fraction, ...]

    def median(self, j: int) -> Fraction:
        if j < 1:
            raise ValueError("j must be >= 1")
        if j <= len(self.level_medians):
            return self.level_medians[j - 1]
        return self.m


def _interval_median(lo: int, hi: int) -> Fraction:
    return Fraction(lo + hi, 2)


def nested_medians(nu: IntMeasure) -> MedianChain:
    bf = ball_function(nu)
    lo, hi = bf.domain
    m = _interval_median(lo, hi)
    values = sorted(v for v, _ in bf.groups)
    meds = []
    for j in range(1, len(values) + 1):
        ilo, ihi = centered_interval(j)
        spans = [bf.group_for_value(v) for v in values if ilo <= v <= ihi]
        meds.append(_interval_median(min(s[0] for s in spans), max(s[1] for s in spans)))
    return MedianChain(m, tuple(meds))


# -- the dominating coupling -------------------------------------------------


@dataclass(frozen=True)
class JointCoupling:
    """Joint law of (Z, X', event flag) realizing the dominating coupling.

    cells hold (z, x_prime, in_A, mass) with exact masses summing to 1; the
    audit dict records the even denominator N, the event size K, epsilon, and
    how many times N had to be doubled to make both N and K even.
    """

    cells: tuple[tuple[int, int, bool, Fraction], ...]
    audit: dict = field(default_factory=dict, compare=False)

    def prob_a(self) -> Fraction:
        return sum((m for _, _, flag, m in self.cells if flag), Fraction(0))

    def marginal_z(self, in_a: bool | None = None) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        total = Fraction(0)
        for z, _, flag, m in self.cells:
            if in_a is not None and flag is not in_a:
                continue
            out[z] = out.get(z, Fraction(0)) + m
            total += m
        if in_a is not None:  # a side without cells stays {}, so total 0 is never a divisor
            out = {z: m / total for z, m in out.items()}
        return out

    def marginal_x_prime(self) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for _, x, _, m in self.cells:
            out[x] = out.get(x, Fraction(0)) + m
        return out

    def to_json_rows(self) -> list:
        return [[z, x, flag, format_fraction(m)] for z, x, flag, m in self.cells]

    def to_json_obj(self) -> dict:
        return {"cells": self.to_json_rows(), "audit": {k: str(v) for k, v in self.audit.items()}}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def is_symmetric_unimodal(mu: IntDist) -> bool:
    """Symmetric about 0 and unimodal."""
    return negate(mu) == mu and is_unimodal(mu)


def dominating_coupling(mu: IntDist, mu_prime: IntDist, eps) -> JointCoupling:
    """Couple Z ~ plus_rearrange(mu) with X' ~ mu_prime on a shared uniform
    index.

    Requires two probability laws (IntDist), mu_prime symmetric and unimodal
    and the concentration profile of mu bounded by (1+eps) times that of
    mu_prime.  The returned coupling has an event A with P(A) >= 1/(1+eps) on
    which every cell satisfies 0 <= x' <= z or z-1 <= x' <= 0, and on the
    complement Z and X' are independent with Z still distributed as
    plus_rearrange(mu).

    The balls on the index line number N = lcm(q*d, d'), with c = 1/(1+eps)
    = p/q in lowest terms and d, d' the denominators of plus(mu) and mu':
    the least common denominator of the masses of mu', plus(mu) and c times
    plus(mu), since c*n/d has denominator q*d / gcd(p*n, q*d), the
    numerators n of plus(mu) have gcd 1, and lcm(d, q*d / gcd(p, d)) = q*d
    as p is prime to q.  N is doubled at most twice to make N and K = N*c
    even, and every cell is an integer over N*d until the returned tuple.
    """
    if not (isinstance(mu, IntDist) and isinstance(mu_prime, IntDist)):
        raise ValueError("the dominating coupling needs two probability laws (IntDist)")
    eps = as_fraction(eps)
    if eps < 0:
        raise ValueError("epsilon must be nonnegative")
    if not is_symmetric_unimodal(mu_prime):
        raise ValueError("mu_prime must be symmetric about 0 and unimodal")
    from .domination import dominates  # domination imports this module

    violation = dominates(mu, mu_prime, eps).first_violation
    if violation is not None:
        raise ValueError(f"domination fails at j={violation[0]}")

    p, q = eps.denominator, eps.numerator + eps.denominator  # c = p/q, already in lowest terms
    plus = plus_rearrange(mu)
    d = plus.denominator()
    big_n = lcm(q * d, mu_prime.denominator())
    doublings = 0
    while big_n % 2 or big_n * p // q % 2:  # at most twice: once for N, once for K
        big_n, doublings = 2 * big_n, doublings + 1
    big_k, rest = divmod(big_n * p, q)
    if rest:
        raise RuntimeError(f"K = {Fraction(big_n * p, q)} is not an integer")

    # K mass and N mass balls per atom: q*d divides N, so d divides K
    kz, kx = big_k // d, big_n // mu_prime.denominator()
    f = _layout([(s, n * kz) for s, n in zip(plus.sites, plus.numerators)], -(big_k // 2) + 1)
    f_prime = _layout([(s, n * kx) for s, n in zip(mu_prime.sites, mu_prime.numerators)], -(big_n // 2) + 1)

    # Merge the run partitions instead of walking every index, so the work is
    # quadratic in the atom counts.  f covers exactly the A indices: an x's
    # off-A count is its run length less its overlap with f's domain.  Over
    # N*d an A cell is its overlap times d, an off-A cell its off-A count
    # times the numerator of z.
    a_lo, a_hi = f.domain
    in_a = []
    for z, (zlo, zhi) in f.groups:
        for x, (xlo, xhi) in f_prime.groups:
            overlap = min(zhi, xhi) - max(zlo, xlo) + 1
            if overlap > 0:
                in_a.append((z, x, overlap))
    off_a = [(x, xhi - xlo + 1 - max(min(xhi, a_hi) - max(xlo, a_lo) + 1, 0)) for x, (xlo, xhi) in f_prime.groups]
    den = big_n * d
    cells = [(z, x, True, Fraction(overlap * d, den)) for z, x, overlap in in_a]
    cells += [
        (z, x, False, Fraction(off * n, den)) for z, n in zip(plus.sites, plus.numerators) for x, off in off_a if off
    ]
    audit = {"N": big_n, "K": big_k, "epsilon": eps, "doublings": doublings}
    return JointCoupling(tuple(cells), audit)
