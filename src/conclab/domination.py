"""Concentration profiles, the epsilon-domination order, and the exact
rearrangement-inequality checkers.

The profile of a distribution lists the partial sums of its masses in
decreasing order; profile j equals the mass the plus-rearrangement puts on
the centered interval of j sites.  One distribution epsilon-dominates
another when each profile entry of the first is at most (1+eps) times the
corresponding entry of the second.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .dist import IntDist, as_fraction, convolve_all, format_fraction, is_sharp_log_concave, q_max, squeeze
from .rearrange import is_symmetric_unimodal, minus_rearrange, plus_rearrange, sym_rearrange


@dataclass(frozen=True)
class QProfile:
    """Partial sums q_1 <= q_2 <= ... <= q_J = 1 of the sorted masses."""

    values: tuple[Fraction, ...]

    def entry(self, j: int) -> Fraction:
        """Profile entry for any j >= 1; constant 1 beyond the atom count."""
        if j < 1:
            raise ValueError("j must be >= 1")
        return self.values[j - 1] if j <= len(self.values) else Fraction(1)


def q_profile(mu: IntDist) -> QProfile:
    den = mu.denominator()
    return QProfile(tuple(Fraction(acc, den) for acc in itertools.accumulate(sorted(mu.numerators, reverse=True))))


def profile_rows(mu1: IntDist, mu2: IntDist, eps) -> Iterator[tuple[int, Fraction, Fraction]]:
    """(j, Q_j(mu1), (1+eps) * Q_j(mu2)) for j = 1 .. max(atom counts).
    Beyond that j both sides are constant (1 and 1+eps), so these rows
    decide eps-domination for every j >= 1."""
    p1, p2 = q_profile(mu1), q_profile(mu2)
    for j in range(1, max(len(mu1), len(mu2)) + 1):
        yield j, p1.entry(j), (1 + eps) * p2.entry(j)


@dataclass(frozen=True)
class DominationReport:
    holds: bool
    epsilon: Fraction
    first_violation: Optional[tuple[int, Fraction, Fraction]]

    def to_json_obj(self) -> dict:
        violation = None
        if self.first_violation is not None:
            j, lhs, rhs = self.first_violation
            violation = [j, format_fraction(lhs), format_fraction(rhs)]
        return {
            "holds": self.holds,
            "epsilon": format_fraction(self.epsilon),
            "violation": violation,
        }


def dominates(mu1: IntDist, mu2: IntDist, eps=0) -> DominationReport:
    """Check profile(mu1) <= (1+eps) * profile(mu2) entrywise, on the rows of
    ``profile_rows``; the first failing row is the violation."""
    eps = as_fraction(eps)
    if eps < 0:
        raise ValueError("epsilon must be nonnegative")
    for j, lhs, rhs in profile_rows(mu1, mu2, eps):
        if lhs > rhs:
            return DominationReport(False, eps, (j, lhs, rhs))
    return DominationReport(True, eps, None)


def hlp_check(x: IntDist, y: IntDist, zs: Sequence[IntDist]) -> tuple[Fraction, Fraction, bool]:
    """Compare q_max of a sum against the mass at 0 of the rearranged sum.

    lhs = q_max(x + y + sum(zs)); rhs = P(x_plus + y_minus + sum(z_sym) = 0)
    where each z must admit a symmetric decreasing rearrangement.
    """
    z_stars = []
    for i, z in enumerate(zs):
        star = sym_rearrange(z)
        if star is None:
            raise ValueError(f"z[{i}] has no symmetric decreasing rearrangement")
        z_stars.append(star)
    lhs = q_max(convolve_all([x, y, *zs]))
    rhs = convolve_all([plus_rearrange(x), minus_rearrange(y), *z_stars]).mass(0)
    return lhs, rhs, lhs <= rhs


def mww_check(xs: Sequence[IntDist]) -> DominationReport:
    """Exact domination of a sum by the sum of squeezed versions.

    Every input must be sharp-log-concave (its squeezed version log-concave).
    """
    if not xs:
        raise ValueError("empty input")
    for i, x in enumerate(xs):
        if not is_sharp_log_concave(x):
            raise ValueError(f"x[{i}] is not sharp-log-concave")
    total = convolve_all(list(xs))
    squeezed = convolve_all([squeeze(x) for x in xs])
    return dominates(total, squeezed, 0)


def cor3_check(pairs: Sequence[tuple[IntDist, IntDist]]) -> DominationReport:
    """Exact domination of convolutions along symmetric unimodal dominated
    pairs.

    Each pair (mu_prime, mu) must be symmetric about 0, unimodal, and satisfy
    mu_prime exactly dominated by mu; the conclusion compares the two
    convolutions.  Preconditions are validated here because the statement is
    vacuous without them.
    """
    if not pairs:
        raise ValueError("empty input")
    for i, (mu_prime, mu) in enumerate(pairs):
        if not is_symmetric_unimodal(mu_prime):
            raise ValueError(f"pair {i}: left measure not symmetric unimodal")
        if not is_symmetric_unimodal(mu):
            raise ValueError(f"pair {i}: right measure not symmetric unimodal")
        if not dominates(mu_prime, mu, 0).holds:
            raise ValueError(f"pair {i}: exact domination hypothesis fails")
    left = convolve_all([p for p, _ in pairs])
    right = convolve_all([m for _, m in pairs])
    return dominates(left, right, 0)
