"""Lemma checkers, the conjecture scan, and instance generators."""

import hashlib
import json
import math
from collections import defaultdict
from fractions import Fraction as F

import pytest

from conclab import extremal, verify
from conclab.conjecture import ScanConfig, conjecture_scan, quantized_extremal_measures, scan_mode
from conclab.dist import (
    IntDist,
    convolve,
    convolve_all,
    convolve_power,
    delta,
    is_log_concave,
    negate,
    q_max,
    uniform,
    variance,
)
from conclab.extremal import AlphaSeq, balanced_sequence, nu, t_oracle, tse, tsebal
from conclab.roots import Interval
from conclab.verify import (
    FAIL,
    INDETERMINATE,
    NOT_APPLICABLE,
    PASS,
    balanced_continuous_check,
    few_dropped_check,
    instance_digest,
    large_continuity_check,
    logconcdomination_check,
    logconcmode_check,
    midsize_continuity_check,
    odlyzko_richmond_check,
    peakedness1_check,
    peakedness2_check,
    summarize,
    thm_tse_check,
)

from instances import random_instance


def test_scan_d2_single_instance():
    cfg = ScanConfig(denominator=2, window=(0, 1), n=2)
    records = list(conjecture_scan(cfg))
    assert len(records) == 1
    assert records[0].lhs == records[0].rhs == F(1, 2)
    assert not records[0].violation
    assert scan_mode(cfg) == "exhaustive"


@pytest.mark.parametrize("denominator", [2, 3, 4, 9])
def test_scan_config_rejects_one_site_window(denominator):
    """A one-site window holds only point masses, which the scan excludes;
    any two sites hold a law of cap (D-1)/D."""
    with pytest.raises(ValueError, match=f"window 0..0 with denominator {denominator}"):
        ScanConfig(denominator, (0, 0), 2)
    with pytest.raises(ValueError, match=f"window 3..3 with denominator {denominator}"):
        ScanConfig(denominator, (3, 3), 2)
    assert quantized_extremal_measures(denominator, (3, 3)) == []
    assert quantized_extremal_measures(denominator, (3, 4))


def test_quantized_measures_stop_at_the_enumeration_budget():
    """Cap 1/20 alone has C(31, 20) = 84,672,315 layouts on 31 sites; the
    scan's budget bounds tuples, not laws, so the count is checked first."""
    with pytest.raises(ValueError, match="enumeration budget"):
        quantized_extremal_measures(40, (0, 30))
    with pytest.raises(ValueError, match="enumeration budget"):
        next(conjecture_scan(ScanConfig(40, (0, 30), 2, budget=5)))


def test_scan_single_term_equality():
    cfg = ScanConfig(denominator=4, window=(0, 3), n=1)
    for record in conjecture_scan(cfg):
        assert record.lhs == record.rhs
        assert not record.violation


def test_scan_d4_exhaustive_no_violation():
    cfg = ScanConfig(denominator=4, window=(0, 3), n=2)
    records = list(conjecture_scan(cfg))
    assert len(records) == 55
    assert not any(r.violation for r in records)


@pytest.mark.parametrize("cfg", [ScanConfig(denominator=5, window=(0, 3), n=3), ScanConfig(denominator=4, window=(0, 3), n=3, budget=40, seed=2)])
def test_scan_json_built_once_per_measure(cfg, monkeypatch):
    """A scan formats each measure's JSON once, and each record's line,
    joined from those texts, is the bytes of the per-record formatting."""
    measures = cfg.measures
    formatted = []
    real = IntDist.to_json_obj
    monkeypatch.setattr(IntDist, "to_json_obj", lambda mu: formatted.append(mu) or real(mu))
    records = list(conjecture_scan(cfg))
    assert formatted == measures
    monkeypatch.undo()
    for r in records:
        assert r.to_json_line() == json.dumps(r.to_json_obj(), sort_keys=True)


@pytest.mark.parametrize(
    "denominator, window, n",
    [(4, (0, 3), 2), (4, (0, 3), 3), (5, (0, 4), 2), (5, (0, 4), 3), (6, (0, 3), 3), (5, (-2, 2), 3)],
)
def test_exhaustive_scan_matches_the_oracle_per_cap_class(denominator, window, n):
    """Per cap class, the per-tuple scan's largest lhs is the oracle's value
    on the scan's window, and its smallest margin is tse less that value."""
    cfg = ScanConfig(denominator, window, n)
    assert scan_mode(cfg) == "exhaustive"
    by_class = defaultdict(list)
    for record in conjecture_scan(cfg):
        by_class[record.alphas].append(record)
    for alphas, records in by_class.items():
        value = t_oracle(AlphaSeq(alphas), window)[0]
        assert max(r.lhs for r in records) == value, alphas
        assert min(r.rhs - r.lhs for r in records) == tse(AlphaSeq(alphas))[0] - value, alphas


def test_scan_budget_sampling_deterministic():
    cfg = ScanConfig(denominator=4, window=(0, 3), n=3, budget=50, seed=9)
    first = [r.to_json_obj() for r in conjecture_scan(cfg)]
    second = [r.to_json_obj() for r in conjecture_scan(cfg)]
    assert first == second
    assert len(first) == 50
    assert "sampled" in scan_mode(cfg)


def test_quantized_measures_exclude_point_masses():
    measures = quantized_extremal_measures(4, (0, 3))
    assert len(measures) == 10
    assert all(q_max(m) < 1 for m in measures)
    assert all(m.sites[0] == 0 for m in measures)


def test_thm_tse_check():
    report = thm_tse_check(AlphaSeq([F(1, 2), F(1, 2)]), 0, (0, 1))
    assert report.outcome == PASS and report.margin == 0
    report = thm_tse_check(AlphaSeq([F(2, 5)]), 0, (0, 3))
    assert report.outcome == PASS and report.margin == 0
    report = thm_tse_check(AlphaSeq([F(2, 3), F(2, 3)]), 1, (0, 2))
    assert report.outcome == PASS


def test_logconcmode_check():
    report = logconcmode_check(uniform(range(100)), 3, F(1, 2))
    assert report.outcome == PASS
    report = logconcmode_check(uniform(range(100)), 3, F(0))
    assert report.outcome == PASS  # conclusion reduces to nonnegativity
    report = logconcmode_check(uniform([0, 2]), 1, F(1, 2))
    assert report.outcome == NOT_APPLICABLE  # not log-concave
    report = logconcmode_check(uniform([0, 1]), 5, F(9, 10))
    assert report.outcome == NOT_APPLICABLE  # variance precondition fails


def test_logconcmode_binomial_with_formula_gamma():
    # binomial(60, 1/2) and the lemma's explicit gamma, rounded down to stay
    # on the conservative side of the cube root
    mu = uniform([0, 1])
    binom = mu
    for _ in range(59):
        binom = convolve(binom, mu)
    i = 2
    p0 = q_max(binom)
    v = variance(binom)
    from conclab.roots import power_interval, Interval

    gamma_iv = Interval.exact(1) - power_interval(4 * p0 / v, 1, 3).scale(i)
    gamma = gamma_iv.lo
    assert 0 <= gamma < 1
    report = logconcmode_check(binom, i, gamma)
    assert report.outcome == PASS


def test_logconcdomination_check():
    report = logconcdomination_check(uniform(range(50)), delta(0), F(1, 100))
    assert report.outcome == PASS
    report = logconcdomination_check(uniform(range(50)), uniform(range(30)), F(1, 100))
    assert report.outcome == NOT_APPLICABLE  # Var y too large
    report = logconcdomination_check(uniform([0, 2]), delta(0), F(1, 4))
    assert report.outcome == NOT_APPLICABLE  # x not log-concave


def test_logconcdomination_seeded():
    for seed in range(40):
        x = random_instance(seed, "log-concave", max_len=9)
        y = random_instance(1000 + seed, "log-concave", max_len=3)
        vx, vy = variance(x), variance(y)
        if vx == 0:
            continue
        eps = vy / vx if vy > 0 else F(1, 10)
        report = logconcdomination_check(x, y, eps if eps > 0 else F(1, 10))
        assert report.outcome in (PASS, INDETERMINATE, NOT_APPLICABLE)
        assert report.outcome != FAIL


def test_few_dropped_check():
    report = few_dropped_check(AlphaSeq([F(1, 2)] * 40), 0, 2, F(1, 2))
    assert report.outcome == PASS
    report = few_dropped_check(AlphaSeq([F(1, 2)] * 4), 1, 2, F(1, 2))
    assert report.outcome == NOT_APPLICABLE  # variance threshold
    # threshold 70/delta^3 * k * K^2 = 2240; eight caps of 1/60 carry
    # variance (60^2 - 1)/12 = 299.92 each, so the total clears it
    alphas = AlphaSeq([F(1, 2)] + [F(1, 60)] * 8)
    report = few_dropped_check(alphas, 1, 2, F(1, 2))
    assert report.outcome == PASS


def test_few_dropped_signs_follow_their_caps():
    """Each sign belongs to the cap listed beside it: the same (cap, sign)
    pairs in any listing order give one report, digest included, and a
    different signed tuple of the same caps gives another."""
    listings = [
        (["2/5", "1/2", "2/7"], [-1, 1, 1]),
        (["1/2", "2/5", "2/7"], [1, -1, 1]),
        (["2/7", "2/5", "1/2"], [1, -1, 1]),
    ]
    reports = [few_dropped_check(AlphaSeq(caps), 0, 3, F(1, 2), signs) for caps, signs in listings]
    assert reports[1:] == reports[:1] * 2
    assert reports[0].rhs == q_max(convolve_all([nu(F(1, 2)), negate(nu(F(2, 5))), nu(F(2, 7))])) == F(19, 70)
    other = few_dropped_check(AlphaSeq(["1/2", "2/5", "2/7"]), 0, 3, F(1, 2), [-1, 1, 1])
    assert other.rhs == F(9, 35)
    assert other.instance_digest != reports[0].instance_digest


@pytest.mark.parametrize("signs", [[0, 7, 1, -1], [1, 1, 1, 2], [1, -1, 1]])
def test_few_dropped_rejects_bad_signs(signs):
    with pytest.raises(ValueError):
        few_dropped_check(AlphaSeq([F(1, 2)] * 4), 0, 2, F(1, 2), signs)


def test_few_dropped_all_terms_is_not_applicable():
    """Dropping every term (k = n) never meets the preconditions: caps of at
    least 1/K give each nu a variance below K**2."""
    grid = [F(j, d) for d in range(1, 7) for j in range(1, d + 1)]
    for big_k in (1, 2, 3, 5):
        for n in (1, 2, 4):
            for cap in grid:
                for delta in (F(1, 100), F(1, 2), F(99, 100)):
                    report = few_dropped_check(AlphaSeq([cap] * n), n, big_k, delta)
                    assert report.outcome == NOT_APPLICABLE, (cap, n, big_k, delta)


def test_balanced_continuous_check():
    report = balanced_continuous_check(AlphaSeq([F(1, 2), F(1, 2)]), F(1, 2), F(3, 5))
    assert report.outcome == PASS
    assert report.lhs == tsebal(AlphaSeq([F(1, 2), F(1, 2), F(3, 5), F(3, 5)]))
    rhs_expected = (1 + 8 * F(1, 2) * F(1, 5)) * tsebal(AlphaSeq([F(1, 2)] * 4))
    assert report.rhs == rhs_expected
    report = balanced_continuous_check(AlphaSeq([F(2, 5)]), F(1, 2), F(3, 5))
    assert report.outcome == NOT_APPLICABLE  # prefix not balanced
    report = balanced_continuous_check(AlphaSeq([F(1, 2), F(1, 2)]), F(1, 3), F(2, 5))
    assert report.outcome == NOT_APPLICABLE  # caps below 1/2


def test_balanced_continuous_seeded():
    import random

    rng = random.Random(21)
    for _ in range(30):
        pairs = rng.randint(1, 3)
        prefix = AlphaSeq(
            [a for a in (F(rng.randint(1, 6), 6) for _ in range(pairs)) for _ in (0, 1)]
        )
        num = rng.randint(10, 19)
        alpha = F(num, 20)
        alpha_prime = F(rng.randint(num + 1, 20), 20)
        report = balanced_continuous_check(prefix, alpha, alpha_prime)
        assert report.outcome == PASS


def test_midsize_continuity_check():
    # K = 3, grid 1/9: caps on the grid inside [1/3, 2/3]
    alphas = AlphaSeq([F(4, 9), F(4, 9)])
    alphas_prime = AlphaSeq([F(7, 18), F(7, 18)])
    y = IntDist([(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))])
    report = midsize_continuity_check(3, alphas, alphas_prime, y)
    assert report.outcome == PASS
    report = midsize_continuity_check(3, alphas, AlphaSeq([F(2, 9), F(2, 9)]), y)
    assert report.outcome == NOT_APPLICABLE  # moved more than one grid step
    report = midsize_continuity_check(3, AlphaSeq([F(4, 9)]), AlphaSeq([F(4, 9)]), y)
    assert report.outcome == NOT_APPLICABLE  # not strongly balanced


def test_large_continuity_check():
    y = IntDist([(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))])
    report = large_continuity_check(3, [3, 5], y)
    assert report.outcome == PASS
    assert report.details["upper_ok"] is True
    report = large_continuity_check(3, [4], y)
    assert report.outcome == NOT_APPLICABLE  # even k
    report = large_continuity_check(3, [3], uniform([0, 1]))
    assert report.outcome == NOT_APPLICABLE  # y not symmetric


SYMMETRIC_Y = IntDist([(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))])
ATOM_BUDGET_CASES = {
    # name: (call, atoms of the laws it builds, builders that must not run past the budget)
    "nu": (lambda: nu(F(2, 5)), 3, [(extremal.IntDist, "_from_integers")]),
    "balanced_sequence": (lambda: balanced_sequence(AlphaSeq([F(2, 5), F(2, 5), F(1, 3)])), 9, [(extremal, "nu")]),
    "few_dropped": (
        lambda: few_dropped_check(AlphaSeq([F(3, 7), F(1, 4), F(2, 5)]), 0, 1, F(1, 2)),
        3 + 4 + 3,
        [(verify, "_run_options")],
    ),
    "balanced_continuity_large": (
        lambda: large_continuity_check(3, [3, 5], SYMMETRIC_Y),
        (2 * 3 + 2) + (2 * 5 + 2),
        [(verify, "uniform_interval")],
    ),
}


@pytest.mark.parametrize("call,atoms,builders", ATOM_BUDGET_CASES.values(), ids=ATOM_BUDGET_CASES.keys())
def test_laws_stop_at_the_enumeration_budget(call, atoms, builders, monkeypatch):
    """The laws' atoms in all, ceil(1/alpha) per nu and k and k + 2 per pair
    of uniforms, may reach ENUM_BUDGET; one more is a ValueError raised
    before any law is built."""
    monkeypatch.setattr(extremal, "ENUM_BUDGET", atoms)
    call()
    monkeypatch.setattr(extremal, "ENUM_BUDGET", atoms - 1)
    for owner, name in builders:
        monkeypatch.setattr(owner, name, None)
    with pytest.raises(ValueError, match=f"laws of {atoms} atoms in all: over the enumeration budget {atoms - 1}"):
        call()


def test_large_continuity_check_fails_when_wider_uniforms_gain(monkeypatch):
    """The enclosure alone passes (14 * 3**(-1/5) > 1 makes its factor
    negative), so only the upper_ok override can report the gain."""
    real = verify.uniform_interval

    def narrowed(lo, hi):
        return delta(0) if hi - lo == 4 else real(lo, hi)  # the k + 2 = 5 point uniform

    monkeypatch.setattr(verify, "uniform_interval", narrowed)
    report = large_continuity_check(3, [3], delta(0))
    assert report.outcome == FAIL
    assert report.details["upper_ok"] is False
    assert report.details["reason"] == "wider uniforms increased the mass at 0"
    assert report.margin > 0  # what the enclosure decided


@pytest.mark.parametrize(
    "lhs, rhs, outcome, margin",
    [
        ((1, 2), (2, 3), PASS, 0),
        ((2, 3), (0, 1), FAIL, -3),
        ((1, 3), (2, 4), INDETERMINATE, -1),
        ((1, 2), (0, 1), INDETERMINATE, -2),
    ],
    ids=["pass", "fail", "straddle", "touching"],
)
def test_interval_decision_outcomes(lhs, rhs, outcome, margin):
    report = verify._interval("demo", {"x": 1}, Interval(*map(F, lhs)), Interval(*map(F, rhs)), {"k": 2})
    assert report.outcome == outcome
    assert (report.lhs, report.rhs, report.margin) == (F(lhs[1]), F(rhs[0]), margin)
    assert report.details == {"k": 2, "mode": "interval"} and report.preconditions_ok


def test_interval_arithmetic():
    a, b = Interval(F(1), F(2)), Interval(F(-1), F(3))
    assert a - b == Interval(F(-2), F(3))
    assert a * b == Interval(F(-2), F(6))
    assert a.scale(-2) == Interval(F(-4), F(-2))


UNDEFINED_INTERVAL_OPERATIONS = {
    "interval + interval": lambda a: a + a,
    "interval + int": lambda a: a + 1,
    "int + interval": lambda a: 1 + a,
    "tuple + interval": lambda a: (1, 2) + a,
    "interval + tuple": lambda a: a + (1, 2),
    "sum": lambda a: sum([a, a]),
    "int * interval": lambda a: 2 * a,
    "interval * int": lambda a: a * 2,
    "tuple * interval": lambda a: (1, 2) * a,
    "interval * fraction": lambda a: a * F(1, 2),
    "interval - int": lambda a: a - 1,
    "int - interval": lambda a: 1 - a,
    "interval - tuple": lambda a: a - (1, 2),
    "interval / interval": lambda a: a / a,
    "interval // interval": lambda a: a // a,
    "interval % interval": lambda a: a % a,
    "interval ** int": lambda a: a**2,
    "interval @ interval": lambda a: a @ a,
    "-interval": lambda a: -a,
    "+interval": lambda a: +a,
    "abs": lambda a: abs(a),
}


@pytest.mark.parametrize("op", UNDEFINED_INTERVAL_OPERATIONS.values(), ids=UNDEFINED_INTERVAL_OPERATIONS.keys())
def test_interval_undefined_arithmetic_raises(op):
    """Arithmetic that Interval does not define raises TypeError."""
    with pytest.raises(TypeError):
        op(Interval(F(1), F(2)))


def test_interval_in_place_arithmetic_raises():
    acc = Interval(F(1), F(2))
    with pytest.raises(TypeError):
        acc += acc
    with pytest.raises(TypeError):
        acc *= 2
    assert acc == Interval(F(1), F(2))


def test_peakedness1_check():
    z = uniform(range(-60, 61))
    x = uniform(range(0, 121))
    ys = [uniform([5, 6, 7])]
    report = peakedness1_check(x, ys, z, F(1, 2))
    # Var(Y*) = 2/3 is far below the 65536 * 2^(2/3) / eps^4 threshold
    assert report.outcome == NOT_APPLICABLE
    # eps = 9/10 puts the threshold near 158561; width-1401 uniforms clear it
    wide = uniform(range(-700, 701))
    report = peakedness1_check(uniform(range(0, 1401)), [wide], wide, F(9, 10))
    assert report.outcome == PASS


def test_peakedness2_check():
    # V0 = 320 * 2^(1/3) / eps^2 ~ 2520 at eps = 2/5: width-175 uniforms
    # carry variance 2552
    wide = uniform(range(-87, 88))
    x = uniform(range(0, 175))
    report = peakedness2_check(x, x, wide, wide, F(2, 5))
    assert report.outcome == PASS
    report = peakedness2_check(x, x, wide, wide, F(3, 5))
    assert report.outcome == NOT_APPLICABLE  # eps outside (0, 1/2)
    narrow = uniform(range(-3, 4))
    report = peakedness2_check(x, x, narrow, narrow, F(2, 5))
    assert report.outcome == NOT_APPLICABLE  # variance below threshold


def test_odlyzko_richmond_check():
    report = odlyzko_richmond_check(uniform([0, 1, 2]), 20, F(1, 10))
    assert report.outcome == PASS
    report = odlyzko_richmond_check(uniform([0, 1]), 10, F(1, 5))
    assert report.outcome == PASS
    report = odlyzko_richmond_check(uniform([0, 2]), 10, F(1, 5))
    assert report.outcome == NOT_APPLICABLE  # span 2
    report = odlyzko_richmond_check(uniform([0, 1, 3]), 60, F(3, 10))
    assert report.outcome == PASS


def test_odlyzko_richmond_below_threshold_is_observational():
    # n = 20 sits below the (non-explicit) threshold for this law: the window
    # inequality genuinely fails near the right edge, and the checker reports
    # it rather than masking it
    report = odlyzko_richmond_check(uniform([0, 1, 3]), 20, F(3, 10))
    assert report.outcome == FAIL
    assert report.preconditions_ok


def _odlyzko_richmond_reference(p, n, delta):
    """odlyzko_richmond_check's Fraction body, for an instance whose
    preconditions hold."""
    base = IntDist((s - p.sites[0], m) for s, m in p.atoms)
    conv = convolve_power(base, n)
    k_lo = -((-(delta * n).numerator) // (delta * n).denominator)
    k_hi = math.floor((base.sites[-1] - delta) * n)
    rows = ((k, conv.mass(k - 1) * conv.mass(k + 1), conv.mass(k) ** 2) for k in range(k_lo, k_hi + 1))
    k, lhs, rhs = min(rows, key=lambda row: row[2] - row[1])
    return k, [k_lo, k_hi], lhs, rhs


@pytest.mark.parametrize(
    "p, n, delta",
    [
        (uniform([0, 1, 2]), 20, F(1, 10)),
        (uniform([0, 1, 3]), 60, F(3, 10)),
        (uniform([0, 1, 3]), 20, F(3, 10)),
        (uniform([-2, -1, 4]), 3, F(1, 10)),
        (IntDist([(0, F(1, 6)), (1, F(1, 2)), (5, F(1, 3))]), 4, F(1, 7)),
        (IntDist([(3, F(2, 5)), (4, F(3, 5))]), 30, F(1, 4)),
    ],
)
def test_odlyzko_richmond_matches_fraction_body(p, n, delta):
    report = odlyzko_richmond_check(p, n, delta)
    k, window, lhs, rhs = _odlyzko_richmond_reference(p, n, delta)
    assert (report.details, report.lhs, report.rhs) == ({"k": k, "window": window}, lhs, rhs)
    assert report.outcome == (PASS if rhs >= lhs else FAIL)


def test_report_serialization_deterministic():
    report = few_dropped_check(AlphaSeq([F(1, 2)] * 40), 0, 2, F(1, 2))
    again = few_dropped_check(AlphaSeq([F(1, 2)] * 40), 0, 2, F(1, 2))
    assert report.to_json() == again.to_json()
    assert report.instance_digest == again.instance_digest


def test_digest_distinguishes_instances():
    a = instance_digest({"mu": nu(F(2, 5))})
    b = instance_digest({"mu": nu(F(1, 2))})
    assert a != b and len(a) == 16


def test_summarize_counts():
    reports = [
        few_dropped_check(AlphaSeq([F(1, 2)] * 40), 0, 2, F(1, 2)),
        few_dropped_check(AlphaSeq([F(1, 2)] * 4), 1, 2, F(1, 2)),
    ]
    counts = summarize((r.name, r.outcome) for r in reports)
    assert counts["few_dropped"][PASS] == 1
    assert counts["few_dropped"][NOT_APPLICABLE] == 1
    with pytest.raises(ValueError, match="unknown outcome 'maybe'"):
        summarize([("few_dropped", "maybe")])


def test_random_instance_determinism_and_kinds():
    for kind in (
        "log-concave",
        "sharp-log-concave",
        "symmetric-unimodal",
        "alpha-grid",
        "coupling-pair",
        "integer-measure",
        "split-admissible",
        "distribution",
    ):
        assert str(random_instance(5, kind)) == str(random_instance(5, kind))
    with pytest.raises(ValueError):
        random_instance(0, "no-such-kind")


# sha256 of str(random_instance(seed, kind)) for seeds 0..999, one line each:
# the instances every seeded test draws, fixed
_INSTANCE_DIGESTS = {
    "log-concave": "263130b17deb064e38c02f6ebeecbb9c56980695eb7ec39bca943f14368e1c4b",
    "sharp-log-concave": "15c25c135d181d8e9fdd688bf7cb3dd5be4d41ca85dee39804831ee0ef501e4f",
    "symmetric-unimodal": "fd5711d9630b6db36ec45a6056caaaeb4641b8c952f95924c0405ff1727ad402",
    "symmetric-unimodal-chain": "8b1aa6d6cced817144361746e8286e5cc305af3ca91f8623b30c26837b3bb4ea",
    "alpha-grid": "26a626a7dee1e23b3df71a324a45e1491ff7cdef04c942e641f3c4fa76a91e3b",
    "coupling-pair": "90bb130cc2948ff70415b60fe3184c73c00dd167362fc38463e12adb0a54bac2",
    "integer-measure": "6f540bac09a146eea096b2a3077867c269b320309dd06b1a9fbeec07a1d3f0d6",
    "split-admissible": "84720a01d15c6f995a1b6306b1cf40018e89418b0fc7da5b0a5ac49794685ee5",
    "distribution": "74768952c487852c7fbd6197c4c137d1b6546dbfb5467385d8235e686bde0951",
    "integer-matrix": "ec84736d02355d93ee6c5ecf3afdf9734e4a884b0a1f27c32a94ef519e206158",
}


def test_random_instance_digests_are_fixed():
    for kind, expected in _INSTANCE_DIGESTS.items():
        digest = hashlib.sha256()
        for seed in range(1000):
            digest.update(str(random_instance(seed, kind)).encode() + b"\n")
        assert digest.hexdigest() == expected, kind


def test_random_instance_log_concave_always():
    for seed in range(100):
        assert is_log_concave(random_instance(seed, "log-concave"))


def test_random_instance_alpha_grid():
    seq = random_instance(3, "alpha-grid", denominator=8, n=5)
    assert len(seq) == 5
    assert all(a.denominator <= 8 for a in seq)


def _integer_matrix_float_rank(rng, max_rows=4, max_cols=3, entry=9):
    """The integer-matrix generator as it was, deciding full column rank in
    floats; also returns how many draws it rejected."""
    import numpy as np

    rejected = 0
    while True:
        n = rng.randint(1, max_cols)
        m = rng.randint(n, max_rows)
        mat = [[rng.randint(-entry, entry) for _ in range(n)] for _ in range(m)]
        if np.linalg.matrix_rank(np.asarray(mat, dtype=float)) == n:
            return mat, rejected
        rejected += 1


@pytest.mark.parametrize("entry", [9, 1])
def test_integer_matrix_exact_rank_matches_float_rank(entry):
    import random

    rejected = 0
    for seed in range(200):
        expected, r = _integer_matrix_float_rank(random.Random(f"integer-matrix#{seed}"), entry=entry)
        rejected += r
        assert random_instance(seed, "integer-matrix", entry=entry) == expected
    assert rejected > 0  # the rank test decided something
