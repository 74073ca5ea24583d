"""One exact checker per inequality lemma.

Every checker takes a fully concrete instance, validates the lemma's stated
hypotheses exactly, and reports pass/fail with exact margins.  Hypotheses are
never weakened to force applicability: a failed precondition yields a
"not-applicable" report.  Inequalities involving irrational constants are
decided against directed-rounding rational enclosures; when the enclosure
straddles the comparison the outcome is "indeterminate", which never counts
as a failure but is tallied separately.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import ceil, floor
from typing import Iterable, Optional, Sequence

from .conjecture import conjecture_scan, quantized_extremal_measures  # looked up here by bench/tracer.py
from .dist import (
    IntDist,
    as_fraction,
    convolve,
    convolve_all,
    convolve_power,
    delta,
    format_fraction,
    is_log_concave,
    max_span,
    modes,
    negate,
    q_max,
    shift,
    uniform_interval,
    variance,
)
from .domination import dominates, profile_rows
from .extremal import (
    AlphaSeq,
    _check_law_atoms,
    _nu_atoms,
    balanced_sequence,
    is_balanced,
    is_strongly_balanced,
    nu,
    t_oracle,
    tse,
    tsebal,
    variance_nu,
)
from .rearrange import is_symmetric_unimodal, sym_rearrange
from .roots import Interval, power_interval

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"
INDETERMINATE = "indeterminate"


def canonical(obj):
    """Recursively convert an instance to JSON-able canonical form."""
    if isinstance(obj, Fraction):
        return format_fraction(obj)
    if isinstance(obj, AlphaSeq):
        return [format_fraction(a) for a in obj]
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if hasattr(obj, "to_json_obj"):
        return obj.to_json_obj()
    raise TypeError(f"cannot canonicalize {type(obj)}")


def instance_digest(instance) -> str:
    blob = json.dumps(canonical(instance), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one lemma check on one concrete instance.

    Inequalities are normalized to the form lhs <= rhs, so margin = rhs - lhs
    is nonnegative exactly when the check passes.  For interval-decided
    checks, lhs and rhs hold the adverse enclosure endpoints actually
    compared.
    """

    name: str
    outcome: str
    lhs: Optional[Fraction]
    rhs: Optional[Fraction]
    margin: Optional[Fraction]
    preconditions_ok: bool
    instance_digest: str
    details: dict = field(default_factory=dict, compare=False)

    def to_json_obj(self) -> dict:
        def fr(x):
            return None if x is None else format_fraction(x)

        return {
            "name": self.name,
            "outcome": self.outcome,
            "lhs": fr(self.lhs),
            "rhs": fr(self.rhs),
            "margin": fr(self.margin),
            "preconditions_ok": self.preconditions_ok,
            "instance_digest": self.instance_digest,
            "details": canonical(self.details),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


def _na(name: str, instance, reason: str) -> CheckReport:
    return CheckReport(
        name, NOT_APPLICABLE, None, None, None, False, instance_digest(instance), {"reason": reason}
    )


def _exact(name: str, instance, lhs: Fraction, rhs: Fraction, details=None) -> CheckReport:
    margin = rhs - lhs
    outcome = PASS if margin >= 0 else FAIL
    return CheckReport(
        name, outcome, lhs, rhs, margin, True, instance_digest(instance), details or {}
    )


def _interval(name: str, instance, lhs: Interval, rhs: Interval, details=None) -> CheckReport:
    """Decide lhs <= rhs with enclosure endpoints; straddle is
    indeterminate."""
    details = dict(details or {})
    details["mode"] = "interval"
    if rhs.lo >= lhs.hi:
        outcome = PASS
    elif rhs.hi < lhs.lo:
        outcome = FAIL
    else:
        outcome = INDETERMINATE
    return CheckReport(
        name,
        outcome,
        lhs.hi,
        rhs.lo,
        rhs.lo - lhs.hi,
        True,
        instance_digest(instance),
        details,
    )


def summarize(results: Iterable[tuple[str, str]]) -> dict:
    """Counts per lemma name over the four outcomes, from (name, outcome)
    pairs; an unknown outcome raises ValueError."""
    outcomes = (PASS, FAIL, NOT_APPLICABLE, INDETERMINATE)
    out: dict[str, dict[str, int]] = {}
    for name, outcome in results:
        if outcome not in outcomes:
            raise ValueError(f"unknown outcome {outcome!r}")
        bucket = out.setdefault(name, dict.fromkeys(outcomes, 0))
        bucket[outcome] += 1
    return out


# -- domination-style conclusions ----------------------------------------------


def _min_profile_slack(mu1: IntDist, mu2: IntDist, eps: Fraction) -> tuple[int, Fraction, Fraction]:
    """The j minimizing (1+eps)*Q_j(mu2) - Q_j(mu1), with both sides."""
    return min(profile_rows(mu1, mu2, eps), key=lambda row: row[2] - row[1])


# -- lemma checkers ---------------------------------------------------------------


def thm_tse_check(alphas: AlphaSeq, delta, window: tuple[int, int]) -> CheckReport:
    """Windowed optimum against (1 + delta) times the sign-search optimum."""
    delta = as_fraction(delta)
    instance = {"alphas": alphas, "delta": delta, "window": list(window)}
    if delta < 0:
        return _na("thm_tse", instance, "delta must be nonnegative")
    rhs = (1 + delta) * tse(alphas)[0]  # first, so a search over the tse budget is refused before the oracle runs
    lhs = t_oracle(alphas, window)[0]
    return _exact("thm_tse", instance, lhs, rhs, {"window": list(window)})


def logconcmode_check(mu: IntDist, i: int, gamma) -> CheckReport:
    """Near-flatness at distance i from a mode of a log-concave distribution."""
    gamma = as_fraction(gamma)
    instance = {"mu": mu, "i": i, "gamma": gamma}
    if i < 1:
        return _na("logconcmode", instance, "i must be a positive integer")
    if not (0 <= gamma < 1):
        return _na("logconcmode", instance, "gamma outside [0, 1)")
    if not is_log_concave(mu):
        return _na("logconcmode", instance, "distribution not log-concave")
    p0 = q_max(mu)
    threshold = Fraction(2) * (gamma + 1) * i**3 * p0 / (1 - gamma) ** 3
    if variance(mu) < threshold:
        return _na("logconcmode", instance, "variance below the lemma threshold")
    worst = min(max(mu.mass(x0 - i), mu.mass(x0 + i)) for x0 in modes(mu))
    return _exact("logconcmode", instance, p0 * gamma, worst)


def logconcdomination_check(x: IntDist, y: IntDist, eps) -> CheckReport:
    """Adding a low-variance independent term barely dents the concentration."""
    eps = as_fraction(eps)
    instance = {"x": x, "y": y, "eps": eps}
    if eps <= 0:
        return _na("logconcdomination", instance, "eps must be positive")
    if not is_log_concave(x):
        return _na("logconcdomination", instance, "x not log-concave")
    if variance(y) > eps * variance(x):
        return _na("logconcdomination", instance, "Var y exceeds eps * Var x")
    factor = Interval.exact(1) - Interval.exact(3) * power_interval(2, 4, 9) * power_interval(
        eps, 1, 3
    )
    lhs = factor.scale(q_max(x))
    rhs = Interval.exact(q_max(convolve(x, y)))
    return _interval("logconcdomination", instance, lhs, rhs)


def few_dropped_check(alphas: AlphaSeq, k: int, big_k: int, delta, signs=None) -> CheckReport:
    """Dropping the first k high-cap terms costs at most a (1 - delta)
    factor, given enough total variance.  ``signs``, when given, holds one
    sign per cap in the order the caps were given; the instance keeps them
    in the order of ``alphas``, so the listing order changes no report.
    Laws of more than ENUM_BUDGET atoms in all, the sum of ceil(1/alpha),
    are a ValueError."""
    delta = as_fraction(delta)
    if signs is not None:
        if len(signs) != len(alphas) or any(s not in (-1, 1) for s in signs):
            raise ValueError(f"signs must hold one -1 or 1 per cap, got {signs}")
        signs = [signs[i] for i in alphas.permutation]
    instance = {"alphas": alphas, "k": k, "K": big_k, "delta": delta, "signs": signs}
    n = len(alphas)
    if not (0 <= k <= n) or big_k < 1:
        return _na("few_dropped", instance, "bad k or K")
    if not (0 < delta < 1):
        return _na("few_dropped", instance, "delta outside (0, 1)")
    caps = list(alphas)
    if any(caps[i] < Fraction(1, big_k) for i in range(k)):
        return _na("few_dropped", instance, "a dropped cap is below 1/K")
    total_var = sum((variance_nu(a) for a in caps), Fraction(0))
    if total_var < Fraction(70) / delta**3 * k * big_k**2:
        return _na("few_dropped", instance, "variance below the lemma threshold")
    _check_law_atoms(sum(map(_nu_atoms, caps)))
    seq = [negate(nu(a)) if s < 0 else nu(a) for a, s in zip(caps, signs or [1] * n)]
    rhs = q_max(convolve_all(seq))
    # k < n here: a cap of at least 1/K gives nu a variance below K**2, so with
    # k = n the total variance is below n * K**2 and fails the threshold above
    lhs = (1 - delta) * q_max(convolve_all(seq[k:]))
    return _exact("few_dropped", instance, lhs, rhs)


def balanced_continuous_check(alphas: AlphaSeq, alpha, alpha_prime) -> CheckReport:
    """Continuity of the balanced optimum in a duplicated high cap."""
    alpha = as_fraction(alpha)
    alpha_prime = as_fraction(alpha_prime)
    instance = {"alphas": alphas, "alpha": alpha, "alpha_prime": alpha_prime}
    if not (Fraction(1, 2) <= alpha <= 1 and Fraction(1, 2) <= alpha_prime <= 1):
        return _na("balanced_continuous", instance, "caps outside [1/2, 1]")
    if alpha_prime <= alpha:
        return _na("balanced_continuous", instance, "alpha_prime must exceed alpha")
    if not is_balanced(alphas):
        return _na("balanced_continuous", instance, "prefix sequence not balanced")
    eps = alpha_prime / alpha - 1
    lhs = tsebal(AlphaSeq([*alphas, alpha_prime, alpha_prime]))
    rhs = (1 + 8 * alpha * eps) * tsebal(AlphaSeq([*alphas, alpha, alpha]))
    return _exact("balanced_continuous", instance, lhs, rhs, {"eps": eps})


def _balanced_sum_with(extra: IntDist, alphas: AlphaSeq) -> Fraction:
    """Mass at 0 of (balanced standard extremal sum for alphas) + extra."""
    seq = balanced_sequence(alphas)
    return convolve_all([*seq, extra]).mass(0)


def midsize_continuity_check(
    big_k: int, alphas: AlphaSeq, alphas_prime: AlphaSeq, y: IntDist
) -> CheckReport:
    """Grid rounding of mid-sized caps moves the balanced optimum by at most
    a 39 K^(-1/6) fraction."""
    instance = {"K": big_k, "alphas": alphas, "alphas_prime": alphas_prime, "y": y}
    if big_k < 2:
        return _na("midsize_alpha_continuity", instance, "K must be >= 2")
    if len(alphas) != len(alphas_prime):
        return _na("midsize_alpha_continuity", instance, "length mismatch")
    if not (is_strongly_balanced(alphas) and is_strongly_balanced(alphas_prime)):
        return _na("midsize_alpha_continuity", instance, "sequences not strongly balanced")
    if not (is_symmetric_unimodal(y) and is_log_concave(y)):
        return _na("midsize_alpha_continuity", instance, "y not symmetric log-concave")
    grid = Fraction(1, big_k**2)
    for a, ap in zip(alphas, alphas_prime):
        t = a / grid
        if t.denominator != 1:
            return _na("midsize_alpha_continuity", instance, "a cap is off the 1/K^2 grid")
        if not (Fraction(1, big_k) <= ap <= a <= 1 - Fraction(1, big_k)):
            return _na("midsize_alpha_continuity", instance, "cap outside [1/K, 1 - 1/K]")
        if ap < a - grid:
            return _na("midsize_alpha_continuity", instance, "a cap moved more than one grid step")
    p = _balanced_sum_with(y, alphas)
    p_prime = _balanced_sum_with(y, alphas_prime)
    factor = Interval.exact(1) - Interval.exact(39) * power_interval(big_k, -1, 6)
    return _interval("midsize_alpha_continuity", instance, factor.scale(p), Interval.exact(p_prime))


def large_continuity_check(big_k: int, ks: Sequence[int], y: IntDist) -> CheckReport:
    """Replacing centered uniforms on k_i points by ones on k_i + 2 points
    costs at most a 14 K^(-1/5) fraction (and never gains).  Uniforms of
    more than ENUM_BUDGET atoms in all, the sum of 2k + 2, are a
    ValueError."""
    instance = {"K": big_k, "ks": list(ks), "y": y}
    if big_k < 1:
        return _na("balanced_continuity_large", instance, "K must be positive")
    if not ks:
        return _na("balanced_continuity_large", instance, "empty k list")
    if any(k < big_k or k % 2 == 0 for k in ks):
        return _na("balanced_continuity_large", instance, "each k must be an odd integer >= K")
    if not (is_symmetric_unimodal(y) and is_log_concave(y)):
        return _na("balanced_continuity_large", instance, "y not symmetric log-concave")
    _check_law_atoms(sum(2 * k + 2 for k in ks))
    xs = [uniform_interval(-(k - 1) // 2, (k - 1) // 2) for k in ks]
    xs_prime = [uniform_interval(-(k + 1) // 2, (k + 1) // 2) for k in ks]
    p = convolve_all([*xs, y]).mass(0)
    p_prime = convolve_all([*xs_prime, y]).mass(0)
    upper_ok = p >= p_prime
    factor = Interval.exact(1) - Interval.exact(14) * power_interval(big_k, -1, 5)
    report = _interval(
        "balanced_continuity_large",
        instance,
        factor.scale(p),
        Interval.exact(p_prime),
        {"upper_ok": upper_ok},
    )
    if report.outcome == PASS and not upper_ok:
        return replace(
            report, outcome=FAIL, details={**report.details, "reason": "wider uniforms increased the mass at 0"}
        )
    return report


def peakedness1_check(x: IntDist, ys: Sequence[IntDist], z: IntDist, eps) -> CheckReport:
    """Swapping a dominated term and rearranging companions keeps the profile
    within a (1 + 4 eps) factor."""
    eps = as_fraction(eps)
    instance = {"x": x, "ys": list(ys), "z": z, "eps": eps}
    if not (0 < eps < 1):
        return _na("peakednessl1", instance, "eps outside (0, 1)")
    y_stars = []
    for i, yi in enumerate(ys):
        star = sym_rearrange(yi)
        if star is None:
            return _na("peakednessl1", instance, f"ys[{i}] has no symmetric rearrangement")
        if not is_log_concave(star):
            return _na("peakednessl1", instance, f"rearranged ys[{i}] not log-concave")
        y_stars.append(star)
    if not (is_symmetric_unimodal(z) and is_log_concave(z)):
        return _na("peakednessl1", instance, "z not symmetric log-concave")
    if not dominates(x, z, eps).holds:
        return _na("peakednessl1", instance, "x not eps-dominated by z")
    star_sum = convolve_all(y_stars) if y_stars else delta(0)
    min_var = min(variance(z), variance(star_sum))
    threshold = Interval.exact(Fraction(65536)) * power_interval(2, 2, 3) * Interval.exact(
        1 / eps**4
    )
    if min_var < threshold.hi:
        return _na("peakednessl1", instance, "variance below the lemma threshold")
    left = convolve_all([x, *ys]) if ys else x
    right = convolve_all([z, *y_stars]) if y_stars else z
    j, lhs, rhs = _min_profile_slack(left, right, 4 * eps)
    return _exact("peakednessl1", instance, lhs, rhs, {"j": j})


def peakedness2_check(x: IntDist, y: IntDist, x_prime: IntDist, y_prime: IntDist, eps) -> CheckReport:
    """Replacing both summands by dominating symmetric log-concave ones keeps
    q_max within a (1 + 20 eps) factor."""
    eps = as_fraction(eps)
    instance = {"x": x, "y": y, "x_prime": x_prime, "y_prime": y_prime, "eps": eps}
    if not (0 < eps < Fraction(1, 2)):
        return _na("peakednessl2", instance, "eps outside (0, 1/2)")
    for label, d in (("x_prime", x_prime), ("y_prime", y_prime)):
        if not (is_symmetric_unimodal(d) and is_log_concave(d)):
            return _na("peakednessl2", instance, f"{label} not symmetric log-concave")
    if not dominates(x, x_prime, eps).holds:
        return _na("peakednessl2", instance, "x not eps-dominated by x_prime")
    if not dominates(y, y_prime, eps).holds:
        return _na("peakednessl2", instance, "y not eps-dominated by y_prime")
    v0 = Interval.exact(Fraction(320)) * power_interval(2, 1, 3) * Interval.exact(1 / eps**2)
    if variance(x_prime) < v0.hi or variance(y_prime) < v0.hi:
        return _na("peakednessl2", instance, "a variance is below the lemma threshold")
    lhs = q_max(convolve(x, y))
    rhs = (1 + 20 * eps) * q_max(convolve(x_prime, y_prime))
    return _exact("peakednessl2", instance, lhs, rhs)


def odlyzko_richmond_check(p: IntDist, n: int, delta) -> CheckReport:
    """Log-concavity of the central window of an n-fold convolution."""
    delta = as_fraction(delta)
    instance = {"p": p, "n": n, "delta": delta}
    if n < 1:
        return _na("odlyzko_richmond", instance, "n must be positive")
    if delta <= 0:
        return _na("odlyzko_richmond", instance, "delta must be positive")
    if max_span(p) != 1:
        return _na("odlyzko_richmond", instance, "maximum span is not 1")
    base = shift(p, -p.sites[0])
    d = base.sites[-1]
    conv = convolve_power(base, n)
    k_lo, k_hi = ceil(delta * n), floor((d - delta) * n)
    if k_hi < k_lo:
        return _na("odlyzko_richmond", instance, "empty window")
    # compared as numerators over den**2, each read once; index(min) is the
    # first k of least slack
    num = list(map(conv.numerator, range(k_lo - 1, k_hi + 2)))
    slack = [b * b - a * c for a, b, c in zip(num, num[1:], num[2:])]
    i = slack.index(min(slack))
    k = k_lo + i
    den_sq = conv.denominator() ** 2
    lhs, rhs = Fraction(num[i] * num[i + 2], den_sq), Fraction(num[i + 1] ** 2, den_sq)
    return _exact("odlyzko_richmond", instance, lhs, rhs, {"k": k, "window": [k_lo, k_hi]})

