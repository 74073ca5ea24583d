"""Extremal measures, closed-form variance, and the optimum functionals."""

import itertools
from fractions import Fraction as F

import pytest

from conclab import extremal
from conclab.dist import IntDist, delta, negate, q_max, shift, uniform, variance
from conclab.extremal import (
    AlphaSeq,
    _check_layout_count,
    _layouts,
    _signed_nu,
    extremal_enumerate,
    is_balanced,
    is_extremal,
    is_standard_extremal,
    is_strongly_balanced,
    nu,
    t_oracle,
    tse,
    tsebal,
    variance_nu,
    variance_slope_bracket,
)


def test_nu_examples():
    assert nu(F(2, 5)) == IntDist([(0, F(2, 5)), (1, F(2, 5)), (2, F(1, 5))])
    assert nu(F(1, 3)) == uniform([0, 1, 2])
    assert nu(1) == delta(0)
    with pytest.raises(ValueError):
        nu(F(3, 2))
    with pytest.raises(ValueError):
        nu(0)


def test_variance_nu_examples():
    assert variance_nu(F(1, 3)) == F(2, 3)
    assert variance_nu(F(3, 5)) == F(6, 25)
    assert variance_nu(F(2, 5)) == F(14, 25)


def test_variance_nu_matches_moments_on_grid():
    for j in range(1, 61):
        alpha = F(j, 60)
        assert variance_nu(alpha) == variance(nu(alpha))


def test_variance_nu_bernoulli_regime():
    for j in range(30, 61):
        alpha = F(j, 60)
        assert variance_nu(alpha) == alpha * (1 - alpha)


def test_variance_slope_brackets_on_grid():
    grid = [F(j, 210) for j in range(1, 211)]
    for a, b in zip(grid, grid[1:]):
        assert variance_nu(a) >= variance_nu(b)  # nonincreasing
        k = int(1 / b)
        if a < F(1, k + 1):
            continue  # segment straddles the breakpoint 1/(k+1)
        lo, hi = variance_slope_bracket(k)
        quotient = (variance_nu(b) - variance_nu(a)) / (b - a)
        assert lo <= quotient <= hi


def test_is_extremal():
    assert is_extremal(nu(F(2, 5)), F(2, 5))
    assert is_extremal(IntDist([(0, F(2, 5)), (7, F(2, 5)), (100, F(1, 5))]), F(2, 5))
    assert not is_extremal(uniform([0, 1]), F(1, 3))
    assert not is_extremal(uniform([0, 1]), F(2, 5))


def test_is_standard_extremal():
    assert is_standard_extremal(shift(nu(F(2, 5)), -4), F(2, 5))
    assert is_standard_extremal(negate(nu(F(2, 5))), F(2, 5))
    assert not is_standard_extremal(
        IntDist([(0, F(2, 5)), (1, F(1, 5)), (2, F(2, 5))]), F(2, 5)
    )


def test_balanced_predicates():
    assert is_balanced(AlphaSeq([F(1, 3)]))
    assert not is_strongly_balanced(AlphaSeq([F(1, 3)]))
    assert is_balanced(AlphaSeq([F(2, 5), F(2, 5)]))
    assert is_strongly_balanced(AlphaSeq([F(2, 5), F(2, 5)]))
    assert not is_balanced(AlphaSeq([F(2, 5)]))
    assert not is_strongly_balanced(AlphaSeq([F(2, 5)]))


def test_alpha_seq_sorts_and_records_permutation():
    seq = AlphaSeq([F(1, 3), F(1, 2), F(1, 3)])
    assert seq.alphas == (F(1, 2), F(1, 3), F(1, 3))
    assert seq.permutation == (1, 0, 2)
    with pytest.raises(ValueError):
        AlphaSeq([F(0)])
    with pytest.raises(ValueError):
        AlphaSeq([])


def test_alpha_seq_keeps_input_order_among_tied_caps():
    seq = AlphaSeq([F(1, 3), F(1, 2), F(1, 4), F(1, 3), F(1, 2), F(1, 3)])
    assert seq.alphas == (F(1, 2), F(1, 2), F(1, 3), F(1, 3), F(1, 3), F(1, 4))
    assert seq.permutation == (1, 4, 0, 3, 5, 2)


@pytest.mark.parametrize("alpha", [F(0), F(-1, 2), F(-1), F(3, 2), F(5, 4), 2, -1])
def test_alpha_outside_unit_interval_rejected(alpha):
    with pytest.raises(ValueError):
        AlphaSeq([alpha])
    with pytest.raises(ValueError):
        nu(alpha)


def test_alpha_edges_accepted():
    assert AlphaSeq([1, F(1, 10**9)]).alphas == (F(1), F(1, 10**9))


MEMO_CASES = [
    [F(2, 5), F(3, 7), F(1, 3), F(3, 4)],
    [F(2, 3)] * 3 + [F(1, 5)],
    [F(5, 8), F(5, 8), F(3, 8), F(1, 2), F(1, 2)],
    [F(1, 2), F(1, 4)],
    [F(7, 9)] * 4,
]


def test_tse_same_with_cold_and_warm_memo():
    """The memo of signed laws only saves work: values and signs are equal
    with the memo cleared before every call and with it warm."""
    cold = []
    for caps in MEMO_CASES:
        _signed_nu.cache_clear()
        cold.append(tse(AlphaSeq(caps)))
    warm = [tse(AlphaSeq(caps)) for caps in MEMO_CASES]
    assert cold == warm
    assert _signed_nu.cache_info().hits > 0


def test_signed_nu_memo_matches_fresh_laws():
    _signed_nu.cache_clear()
    caps = {a for case in MEMO_CASES for a in case}
    for a in sorted(caps):
        for _ in range(2):  # the miss, then the hit
            minus, plus = _signed_nu(a)
            assert plus == nu(a) and minus == negate(nu(a))
    assert _signed_nu.cache_info().maxsize is not None  # bounded


def test_tse_examples():
    value, sel = tse(AlphaSeq([F(1, 2), F(1, 2)]))
    assert value == F(1, 2)
    value, _ = tse(AlphaSeq([F(3, 5)]))
    assert value == F(3, 5)
    value, sel = tse(AlphaSeq([F(3, 5), F(3, 5)]))
    assert value == F(13, 25)
    assert sorted(sel) == [-1, 1]


def test_tsebal_examples():
    assert tsebal(AlphaSeq([F(3, 5), F(3, 5)])) == F(13, 25)
    assert tsebal(AlphaSeq([F(1, 2)] * 4)) == F(3, 8)
    assert tsebal(AlphaSeq([F(1, 3)])) == F(1, 3)
    with pytest.raises(ValueError):
        tsebal(AlphaSeq([F(2, 5)]))


def test_extremal_enumerate_examples():
    assert len(extremal_enumerate(F(1, 2), (0, 2))) == 3
    dists = extremal_enumerate(F(2, 3), (0, 1))
    assert IntDist([(0, F(2, 3)), (1, F(1, 3))]) in dists
    assert IntDist([(0, F(1, 3)), (1, F(2, 3))]) in dists
    assert len(dists) == 2
    assert extremal_enumerate(F(1), (0, 0)) == [delta(0)]
    with pytest.raises(ValueError):
        extremal_enumerate(F(1, 3), (0, 1))


def test_layout_count_is_the_closed_form(monkeypatch):
    """The count behind the enumeration budget is the number of layouts
    _layouts yields, C(w, k) * (w - k) with a residue and C(w, k) without,
    summed over the caps: a budget one below it raises and the count itself
    passes."""

    def assert_budget_edge(alphas, width):
        count = sum(1 for alpha in alphas for _ in _layouts(alpha, range(width)))
        monkeypatch.setattr(extremal, "ENUM_BUDGET", count)
        _check_layout_count(alphas, width)
        monkeypatch.setattr(extremal, "ENUM_BUDGET", count - 1)
        with pytest.raises(ValueError, match="enumeration budget"):
            _check_layout_count(alphas, width)

    for alpha, width in itertools.product([F(1), F(1, 2), F(2, 3), F(2, 5), F(1, 3), F(3, 10)], range(1, 8)):
        assert_budget_edge([alpha], width)
    assert_budget_edge([F(j, 7) for j in range(1, 7)], 6)


def test_extremal_enumerate_stops_at_the_enumeration_budget():
    """C(1415, 2) = 1,000,405 laws of cap 1/2 are over the budget of 10**6,
    and C(3001, 2) of the oracle's window far over it; no law is built."""
    with pytest.raises(ValueError, match="enumeration budget"):
        extremal_enumerate(F(1, 2), (0, 1414))
    with pytest.raises(ValueError, match="enumeration budget"):
        t_oracle(AlphaSeq([F(1, 2)]), (0, 3000))


def test_extremal_enumerate_all_extremal():
    for alpha in (F(1, 2), F(2, 3), F(1, 3), F(3, 4)):
        for mu in extremal_enumerate(alpha, (0, 3)):
            assert is_extremal(mu, alpha)
            assert q_max(mu) == alpha


def test_nu_minimizes_variance_among_extremal():
    for alpha in (F(1, 2), F(2, 3), F(2, 5), F(3, 4)):
        best = min(variance(mu) for mu in extremal_enumerate(alpha, (0, 4)))
        assert best == variance_nu(alpha)


def test_t_oracle_examples():
    value, witness = t_oracle(AlphaSeq([F(1, 2), F(1, 2)]), (0, 1))
    assert value == F(1, 2)
    assert len(witness) == 2
    value, _ = t_oracle(AlphaSeq([F(1), F(1)]), (0, 2))
    assert value == 1
    value, _ = t_oracle(AlphaSeq([F(2, 3)]), (0, 1))
    assert value == F(2, 3)


def test_tse_monotone_in_each_cap():
    grid = [F(j, 6) for j in range(1, 7)]
    for a in grid:
        for b in grid:
            va = tse(AlphaSeq([a, F(1, 2)]))[0]
            vb = tse(AlphaSeq([b, F(1, 2)]))[0]
            if a <= b:
                assert va <= vb


def test_t_oracle_monotone_in_each_cap():
    window = (0, 3)
    grid = [F(j, 4) for j in range(1, 5)]
    values = {a: t_oracle(AlphaSeq([a, F(1, 2)]), window)[0] for a in grid}
    for a in grid:
        for b in grid:
            if a <= b:
                assert values[a] <= values[b]


def _rearrangement_sum(a, b):
    """Sum of p_(i) q_(i) over the masses of nu(a) and nu(b), each sorted in
    decreasing order; the shorter list ends with zeros."""
    p, q = (sorted(nu(c).masses, reverse=True) for c in (a, b))
    return sum((x * y for x, y in zip(p, q)), F(0))


# every reduced cap j/D in (0, 1) with D <= 12
CAPS_TO_12 = sorted({F(j, d) for d in range(2, 13) for j in range(1, d)})


def test_tse_of_two_caps_is_the_rearrangement_sum():
    """P(X + Y = x) pairs the masses of X and Y, so by the rearrangement
    inequality it is at most the sum of products of the sorted masses; the
    reflected nu of one cap against the plain nu of the other attains it,
    as both put their masses in decreasing order away from 0.  Exact, with
    no window, on all 1,035 pairs."""
    pairs = list(itertools.combinations_with_replacement(CAPS_TO_12, 2))
    assert (len(CAPS_TO_12), len(pairs)) == (45, 1035)
    for a, b in pairs:
        assert tse(AlphaSeq([a, b]))[0] == _rearrangement_sum(a, b), (a, b)


@pytest.mark.parametrize("a, b", [(F(2, 5), F(3, 7)), (F(1, 3), F(2, 5)), (F(3, 5), F(2, 7)), (F(1, 2), F(1, 3))])
def test_t_oracle_of_two_caps_is_the_rearrangement_sum(a, b):
    """Every extremal law of a cap has the masses of its nu, so the same
    bound holds over the window, and the window holds nu's arrangement."""
    assert t_oracle(AlphaSeq([a, b]), (0, 14))[0] == _rearrangement_sum(a, b)


def test_ordering_tsebal_tse_oracle():
    cases = [
        (AlphaSeq([F(1, 2), F(1, 2)]), (0, 2)),
        (AlphaSeq([F(2, 5), F(2, 5)]), (0, 3)),
        (AlphaSeq([F(1, 3), F(3, 4), F(3, 4)]), (0, 3)),
    ]
    for alphas, window in cases:
        low = tsebal(alphas)
        mid = tse(alphas)[0]
        high = t_oracle(alphas, window)[0]
        assert low <= mid <= high


def test_t_oracle_curve_reports_windows():
    from conclab.extremal import t_oracle_curve

    rows = t_oracle_curve(AlphaSeq([F(2, 5), F(2, 5)]), [(0, 3), (0, 4), (0, 5)])
    assert [r["window"] for r in rows] == [[0, 3], [0, 4], [0, 5]]
    assert all(r["value"] == "9/25" for r in rows)


def test_strongly_balanced_oracle_matches_tsebal():
    cases = [
        (AlphaSeq([F(1, 2), F(1, 2)]), (0, 1)),
        (AlphaSeq([F(1, 2), F(1, 2)]), (0, 2)),
        (AlphaSeq([F(2, 3), F(2, 3)]), (0, 2)),
        (AlphaSeq([F(1, 2), F(1, 2), F(2, 3), F(2, 3)]), (0, 2)),
    ]
    for alphas, window in cases:
        assert is_strongly_balanced(alphas)
        assert t_oracle(alphas, window)[0] == tsebal(alphas)
