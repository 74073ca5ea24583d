"""The prefix-shared, symmetry-reduced searches against brute force.

`brute.tse` and `brute.t_oracle` are the plain enumerations over
itertools.product that `tse` and `t_oracle` replace, and `brute.scan`
recomputes every record of `conjecture_scan`.  The fast paths must return
the same value and the same tie-broken witness on every case.  The brute-force searches compute on
`{site: Fraction}` dicts with the benchmark's references in
`bench/reference.py` and import nothing from `conclab`, so a fault in its
kernel or builders shows as a mismatch here; laws cross over as
`dict(law.atoms)`.
"""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conclab import dist, extremal
from conclab.dist import (
    FiniteMeasure,
    IntDist,
    _convolve_numerators,
    convolve,
    convolve_all,
    delta,
    q_max,
    uniform,
)
from conclab.extremal import AlphaSeq, _extremal_law, _max_q_search, _walk, extremal_enumerate, nu, t_oracle, tse
from conclab.gauss import LatticeDist
from conclab.rearrange import IntMeasure
from conclab.conjecture import ScanConfig, conjecture_scan, quantized_extremal_measures

import brute
from brute import reference


def as_dicts(laws) -> list[dict]:
    return [dict(law.atoms) for law in laws]


def reference_tse(alphas: AlphaSeq) -> tuple[F, tuple[int, ...]]:
    """tse as it was before runs were merged: one level of the signed pair
    per free cap, equal caps tied by the walker, and no reflection halving.
    The same value and signs as ``tse`` on every input."""
    caps = alphas.alphas
    uniforms = [extremal._run_options(a, 1, False)[1] for a in caps if a.numerator == 1]
    free = [i for i, a in enumerate(caps) if a.numerator != 1]
    levels = ([[convolve_all(uniforms)]] if uniforms else []) + [extremal._run_options(caps[i], 1, False) for i in free]
    best, path = _max_q_search(levels)
    signs = [1] * len(caps)
    for i, j in zip(free, path[len(levels) - len(free) :]):
        signs[i] = -1 if j == 0 else 1
    return best, tuple(signs)


def q_max_pair(a: IntDist, b: IntDist) -> tuple[int, int]:
    """q_max(convolve(a, b)) as (numerator, denominator), not reduced: the
    kernel's largest numerator over the product of the input denominators."""
    out, den = _convolve_numerators((a, b))
    return max(out.values()), den


def q_max_convolve(a: IntDist, b: IntDist) -> F:
    """q_max(convolve(a, b)) as a Fraction, from the kernel's unreduced pair."""
    return F(*q_max_pair(a, b))


def caps(denominator: int) -> list[F]:
    return [F(j, denominator) for j in range(1, denominator + 1)]


# -- the integer builders against the dict references ---------------------------


BUILDER_WINDOWS = [(offset, offset + width) for width in range(7) for offset in (0, -3)]


def test_nu_matches_reference():
    for d in range(1, 13):
        for a in caps(d):
            assert dict(nu(a).atoms) == reference.nu(a), a


def test_extremal_enumerate_matches_reference():
    for d in range(1, 13):
        for a in caps(d):
            for window in BUILDER_WINDOWS:
                expected = reference.extremal_in_window(a, *window)
                if not expected:  # the window is too small for a law of a
                    with pytest.raises(ValueError):
                        extremal_enumerate(a, window)
                    continue
                assert as_dicts(extremal_enumerate(a, window)) == expected, (a, window)


def test_extremal_law_checks_its_numerators():
    assert _extremal_law(F(2, 5), (3, 4), 6) == IntDist([(3, F(2, 5)), (4, F(2, 5)), (6, F(1, 5))])
    for support, residue_site in [((0, 0), 1), ((0, 1), 0), ((0, 1, 2), None), ((0, 1), None)]:
        with pytest.raises(RuntimeError):
            _extremal_law(F(2, 5), support, residue_site)


def test_quantized_extremal_measures_match_reference():
    for d in range(2, 13):
        for window in BUILDER_WINDOWS:
            assert as_dicts(quantized_extremal_measures(d, window)) == brute.anchored_laws(d, window), (d, window)


def translation_shape(law: IntDist) -> tuple:
    """The atoms of law moved so that its first site is 0: equal for two
    laws exactly when one is a translate of the other."""
    return tuple((site - law.sites[0], mass) for site, mass in law.atoms)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 9).flatmap(lambda d: st.sampled_from(caps(d))), st.integers(-3, 3), st.integers(0, 6))
def test_anchored_laws_are_one_per_translation_class(alpha, lo, width):
    """The laws whose first site is the window start, in the order of
    extremal_enumerate, and every window law is a translate of exactly one."""
    window, sites = (lo, lo + width), range(lo, lo + width + 1)
    anchored = extremal._anchored_laws(alpha, sites)
    if len(sites) < math.ceil(1 / alpha):
        assert anchored == []
        return
    every = extremal_enumerate(alpha, window)
    assert anchored == [law for law in every if law.sites[0] == lo]
    shapes = [translation_shape(law) for law in anchored]
    assert all(shapes.count(translation_shape(law)) == 1 for law in every)


def assert_tse_matches(alphas: AlphaSeq) -> None:
    value, sel = tse(alphas)
    assert (value, sel) == brute.tse(alphas.alphas), alphas


def assert_oracle_matches(alphas: AlphaSeq, window: tuple[int, int]) -> None:
    value, witness = t_oracle(alphas, window)
    assert (value, as_dicts(witness)) == brute.t_oracle(alphas.alphas, window), (alphas, window)


# -- tse -----------------------------------------------------------------------


def test_tse_matches_brute_force_up_to_three_caps():
    for d in range(2, 9):
        for n in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(caps(d), n):
                assert_tse_matches(AlphaSeq(combo))


def test_tse_matches_brute_force_four_caps():
    for d in range(2, 7):
        for combo in itertools.combinations_with_replacement(caps(d), 4):
            assert_tse_matches(AlphaSeq(combo))


@pytest.mark.parametrize("d", range(2, 9))
def test_tse_matches_brute_force_four_to_six_tied_caps(d):
    """Every multiset of 4 to 6 caps drawn from at most three caps j/d: the
    smallest and largest with a non-integer inverse, and 1/d."""
    free = [a for a in caps(d) if (1 / a).denominator != 1]
    pool = [*free[:1], *free[-1:], F(1, d)] if free else [F(1, d), F(1)]
    for n in (4, 5, 6):
        for combo in itertools.combinations_with_replacement(sorted(set(pool)), n):
            assert_tse_matches(AlphaSeq(combo))


def test_tse_matches_brute_force_six_distinct_caps():
    cases = [
        [F(j, 8) for j in (1, 3, 5, 6, 7, 8)],
        [F(j, 7) for j in range(2, 8)],
        [F(2, 5), F(3, 7), F(5, 8), F(2, 3), F(3, 4), F(5, 6)],
    ]
    for combo in cases:
        assert_tse_matches(AlphaSeq(combo))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 8), st.integers(1, 8)), min_size=1, max_size=6))
def test_tse_matches_brute_force_property(pairs):
    assert_tse_matches(AlphaSeq(F(min(j, d), d) for j, d in pairs))


def test_brute_tse_does_not_move_with_conclab_negate(monkeypatch):
    """With conclab's negate the identity, tse stops reflecting and reads
    the q_max of nu + nu; the brute force keeps the README's value.  The
    memo is cleared on the way in and out, so no law built with either
    negate crosses over."""
    extremal._run_memo.cache_clear()
    monkeypatch.setattr(dist, "negate", lambda mu: mu)
    monkeypatch.setattr(extremal, "negate", lambda mu: mu)  # bound by name at import
    try:
        assert tse(AlphaSeq([F(3, 5), F(3, 5)])) == (F(12, 25), (-1, -1))
        assert brute.tse((F(3, 5), F(3, 5))) == (F(13, 25), (-1, 1))
    finally:
        extremal._run_memo.cache_clear()


# caps j/D with D <= 13: integer inverses, runs and distinct caps mixed
CAPS_TO_13 = st.integers(2, 13).flatmap(lambda d: st.integers(1, d - 1).map(lambda j: F(j, d)))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(CAPS_TO_13, st.integers(1, 12)),  # a run of up to 12 equal caps
            st.tuples(st.integers(2, 13).map(lambda k: F(1, k)), st.integers(1, 3)),  # integer inverses
            st.tuples(CAPS_TO_13, st.just(1)),  # a lone cap
        ),
        min_size=1,
        max_size=4,
    )
)
def test_tse_matches_the_per_cap_search(groups):
    """Runs merged into one level and the first run halved give the value
    and signs of the search with one level per cap."""
    assume(sum(c for _, c in groups) <= 16)
    alphas = AlphaSeq(a for a, c in groups for _ in range(c))
    assert tse(alphas) == reference_tse(alphas), alphas


@pytest.mark.parametrize("alpha", [F(3, 4), F(2, 5), F(5, 7), F(3, 13)])
@pytest.mark.parametrize("c", [1, 2, 3, 4, 7])
def test_run_options_are_the_signed_sums(alpha, c):
    """Option i of a run is the law of c - i reflected and i plain copies of
    nu, from the reference builder; the first run keeps r >= c/2."""
    plain = reference.nu(alpha)
    sums = [reference.convolve_all([reference.negate(plain)] * r + [plain] * (c - r)) for r in range(c, -1, -1)]
    assert as_dicts(extremal._run_options(alpha, c, first=False)) == sums
    assert as_dicts(extremal._run_options(alpha, c, first=True)) == sums[: c // 2 + 1]


@pytest.mark.parametrize(
    "alphas",
    [
        [F(3, 5), F(3, 5)],  # one run of two: one level, not two tied
        [F(2, 3), F(2, 3), F(4, 9)],  # nu(2/3) + nu(2/3) is nu(4/9)
        [F(1, 2), F(3, 7), F(2, 5), F(2, 5), F(1, 3), F(3, 10)],
        [F(1), F(3, 4)] + [F(5, 8)] * 4,
        [F(1, 4)] * 3,  # the root alone
    ],
)
def test_tse_searches_one_level_per_run(alphas, monkeypatch):
    """tse hands ``_max_q_search`` the uniforms' root and then one level per
    run of equal free caps, the run's memoised options, and no level is
    tied to the one before it."""
    seen = []
    search = extremal._max_q_search

    def recording(levels):
        seen.append(levels)
        return search(levels)

    monkeypatch.setattr(extremal, "_max_q_search", recording)
    assert tse(AlphaSeq(alphas)) == reference_tse(AlphaSeq(alphas))
    [levels] = seen
    ordered = AlphaSeq(alphas).alphas
    uniforms = [nu(a) for a in ordered if a.numerator == 1]
    root = [[convolve_all(uniforms)]] if uniforms else []
    runs = [(a, len(list(g))) for a, g in itertools.groupby(ordered) if a.numerator != 1]
    assert len(levels) == len(root) + len(runs)
    assert [list(options) for options in levels[: len(root)]] == root
    assert all(
        options is extremal._run_options(a, c, k == 0) for k, (options, (a, c)) in enumerate(zip(levels[len(root) :], runs))
    )
    assert not any(list(levels[k]) == list(levels[k - 1]) for k in range(1, len(levels)))


def test_max_q_search_tie_keeps_first_maximiser():
    """Leaves of equal value, one as the reduced pair 1/2 and one as the
    kernel's unreduced 2/4, tie: the first in visiting order wins either way,
    and only a strictly larger leaf replaces it."""
    coin = uniform([0, 1])
    reduced, unreduced = delta(0), coin  # coin + delta(0): 1/2; coin + coin: 2/4
    assert q_max_convolve(coin, reduced) == q_max_convolve(coin, unreduced) == F(1, 2)
    for options in ([reduced, unreduced], [unreduced, reduced]):
        assert _max_q_search([[coin], options]) == (F(1, 2), (0, 0))
        assert _max_q_search([options, [coin]]) == (F(1, 2), (0, 0))
    wider = IntDist([(0, F(1, 4)), (1, F(1, 4)), (2, F(1, 2))])  # 2/4 alone, 1/2 reduced
    assert _max_q_search([[wider, coin]]) == (F(1, 2), (0,))
    assert _max_q_search([[coin, wider, delta(3)]]) == (F(1), (2,))


# -- t_oracle --------------------------------------------------------------------


def window_caps(window: tuple[int, int], denominators=range(1, 7)) -> list[F]:
    """Caps j/d whose extremal measures fit in the window."""
    width = window[1] - window[0] + 1
    out = set()
    for d in denominators:
        for a in caps(d):
            k = int(1 / a)
            if k + (1 if a * k != 1 else 0) <= width:
                out.add(a)
    return sorted(out)


def test_t_oracle_matches_brute_force_window_0_2():
    pool = window_caps((0, 2), range(1, 5))
    for n in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(pool, n):
            assert_oracle_matches(AlphaSeq(combo), (0, 2))


def test_t_oracle_matches_brute_force_window_0_3():
    pool = window_caps((0, 3))
    for n in (1, 2):
        for combo in itertools.combinations_with_replacement(pool, n):
            assert_oracle_matches(AlphaSeq(combo), (0, 3))
    tied = [[F(1, 2)] * 3, [F(2, 3), F(2, 3), F(1, 4)], [F(3, 4), F(1, 3), F(1, 3)], [F(5, 6), F(1, 2), F(2, 5)]]
    for combo in tied:
        assert_oracle_matches(AlphaSeq(combo), (0, 3))


ORACLE_WIDE_CASES = [
    # (caps, window): brute force walks every translate, t_oracle one per class
    ([F(1, 2)] * 3, (0, 4)),
    ([F(2, 3), F(2, 3), F(1, 2)], (0, 4)),
    ([F(2, 3)] * 3, (0, 4)),
    ([F(3, 5), F(3, 5)], (0, 4)),
    ([F(3, 4), F(3, 5), F(3, 5)], (0, 4)),
    ([F(3, 5), F(3, 5), F(1, 3)], (0, 4)),
    ([F(2, 5), F(2, 5)], (0, 4)),
    ([F(1, 2), F(1, 2)], (0, 5)),
    ([F(3, 7), F(3, 7)], (0, 5)),
    ([F(5, 12), F(5, 12)], (0, 5)),
    ([F(2, 5), F(3, 7)], (0, 5)),
    ([F(2, 3), F(2, 5)], (0, 5)),
    ([F(2, 3), F(2, 3), F(2, 5)], (-2, 2)),
    ([F(3, 5)] * 3, (-1, 3)),
    ([F(3, 5), F(2, 7)], (-1, 4)),
]


@pytest.mark.parametrize("alphas,window", ORACLE_WIDE_CASES)
def test_t_oracle_matches_brute_force_wide_windows(alphas, window):
    assert_oracle_matches(AlphaSeq(alphas), window)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(window_caps((0, 2))), min_size=1, max_size=3), st.integers(-2, 2))
def test_t_oracle_matches_brute_force_property(alphas, lo):
    assert_oracle_matches(AlphaSeq(alphas), (lo, lo + 2))


# -- the kernel's unreduced pair and the scan ------------------------------------


def small_laws() -> list[IntDist]:
    laws = [delta(0), delta(-3)]
    for d in range(2, 6):
        laws += [law for a in caps(d) for law in extremal_enumerate(a, (-1, 3))]
    return laws


def test_q_max_convolve_checks_mass():
    broken = object.__new__(IntDist)
    broken._store({0: 3, 1: 2}, 6)  # masses 1/2 and 1/3, summing to 5/6
    with pytest.raises(RuntimeError):
        q_max_convolve(broken, delta(0))


SCAN_CONFIGS = [
    ScanConfig(4, (0, 3), 3),
    ScanConfig(5, (0, 3), 2),
    ScanConfig(6, (0, 4), 3, seed=5, budget=60),
    ScanConfig(7, (0, 5), 4, seed=2, budget=40),
    ScanConfig(6, (0, 4), 1),
    ScanConfig(7, (0, 5), 1, seed=3, budget=5),
    ScanConfig(5, (0, 4), 3),
]


def test_exhaustive_walk_visits_combinations_with_replacement_order():
    """n copies of one option list, every level after the first tied: the
    walker visits the nondecreasing index tuples in the order of
    itertools.combinations_with_replacement, each with its sum's q_max."""
    laws = small_laws()[::5]
    for n in (1, 2, 3, 4):
        leaves = list(_walk([laws] * n))
        assert [path for path, _, _ in leaves] == list(itertools.combinations_with_replacement(range(len(laws)), n))
        for path, num, den in leaves[::7]:
            assert F(num, den) == q_max(convolve_all([laws[i] for i in path])), path


@pytest.mark.parametrize("cfg", SCAN_CONFIGS)
def test_conjecture_scan_matches_brute_force(cfg):
    records = [(r.index, r.alphas, r.lhs, r.rhs, r.violation, as_dicts(r.instance)) for r in conjecture_scan(cfg)]
    assert records == brute.scan(cfg.denominator, cfg.window, cfg.n, cfg.seed, cfg.budget)


def test_searches_bypass_the_validating_constructor(monkeypatch):
    """tse, t_oracle and the scan build every law from integers: with
    FiniteMeasure.__init__ raising they return what they returned before."""
    tse_cases = [AlphaSeq([F(2, 5), F(3, 7), F(1, 3), F(3, 4)]), AlphaSeq([F(2, 3)] * 3 + [F(1, 5)])]
    oracle_case = AlphaSeq([F(1, 2), F(2, 3), F(2, 3)])

    def run():
        return (
            [tse(a) for a in tse_cases],
            t_oracle(oracle_case, (-1, 2)),
            [list(conjecture_scan(cfg)) for cfg in SCAN_CONFIGS[1:3]],
        )

    expected = run()

    def refuse(self, atoms):
        raise RuntimeError("FiniteMeasure.__init__ called")

    monkeypatch.setattr(FiniteMeasure, "__init__", refuse)
    with pytest.raises(RuntimeError):
        IntDist([(0, 1)])
    assert run() == expected


# -- the walker against the per-leaf kernel pair -------------------------------


def reference_walk(levels, tied):
    """(path, num, den) of every sum the walker visits, each leaf from its
    own q_max_pair of the prefix, folded with convolve as the walker folds
    it, and the last option.  tied[k] says whether level k is tied to level
    k - 1, given here rather than worked out from the option lists."""
    out = []
    for path in itertools.product(*(range(len(options)) for options in levels)):
        if any(tied[k] and path[k] < path[k - 1] for k in range(1, len(path))):
            continue
        prefix = None
        for options, j in zip(levels[:-1], path):
            prefix = options[j] if prefix is None else convolve(prefix, options[j])
        law = levels[-1][path[-1]]
        num, den = (max(law.numerators), law.denominator()) if prefix is None else q_max_pair(prefix, law)
        out.append((path, num, den))
    return out


def random_law(rng: random.Random, atoms: int, spread: int) -> IntDist:
    sites = sorted(rng.sample(range(-spread, spread + 1), atoms))
    weights = [rng.randint(1, 9) for _ in sites]
    return IntDist((s, F(w, sum(weights))) for s, w in zip(sites, weights))


def random_walk_case(seed: int, atoms: int, spread: int):
    """(levels, tied): 1-4 levels of 1-3 random options, the levels of a
    tied run sharing one option list as in tse and the scan, after a
    one-option first level (a fixed summand, as tse's root) half the time."""
    rng = random.Random(seed)
    levels, tied = [], []
    if rng.random() < 0.5:
        levels.append([random_law(rng, rng.randint(1, atoms), spread)])
        tied.append(False)
    for k in range(rng.randint(1, 4)):
        if k and rng.random() < 0.5:
            levels.append(levels[-1])
            tied.append(True)
        else:
            levels.append([random_law(rng, rng.randint(1, atoms), spread) for _ in range(rng.randint(1, 3))])
            tied.append(False)
    return levels, tied


WALK_SEEDS = range(60)


@pytest.mark.parametrize("seed", WALK_SEEDS)
def test_walk_matches_per_leaf_q_max_pair(seed):
    levels, tied = random_walk_case(seed, atoms=5, spread=6)
    assert list(_walk(levels)) == reference_walk(levels, tied)


def test_walk_ties_equal_option_lists():
    """Equal but distinct option lists tie, as t_oracle's per-cap lists of
    equal caps do; unequal neighbours never tie, even when one list holds
    the other's laws."""
    rng = random.Random(3)
    laws = [random_law(rng, 3, 4) for _ in range(3)]
    for levels, tied in [
        ([laws, list(laws), list(laws)], [False, True, True]),
        ([laws[:2], laws, laws[:2]], [False, False, False]),
        ([laws, laws[::-1]], [False, False]),
    ]:
        assert list(_walk(levels)) == reference_walk(levels, tied)
    pairs = list(itertools.combinations_with_replacement(range(3), 2))
    assert [path for path, _, _ in _walk([laws, list(laws)])] == pairs
    assert len(list(_walk([laws, laws[::-1]]))) == 9


def test_walk_matches_per_leaf_q_max_pair_on_packed_leaves(monkeypatch):
    """Laws large enough that _branch picks the packed product for the
    leaves; the walker and the reference go through the same _branch."""
    chosen = []

    def spy(parts, n, dim):
        branch = real_branch(parts, n, dim)
        chosen.append(branch)
        return branch

    real_branch = dist._branch
    monkeypatch.setattr(dist, "_branch", spy)
    rng = random.Random(7)
    levels = [[random_law(rng, 40, 25)], [random_law(rng, 40, 25) for _ in range(3)]]
    walk = list(_walk(levels))  # one level below a fixed summand: every product is a leaf
    assert chosen == ["packed"] * 3
    assert walk == reference_walk(levels, [False, False])
    for seed in range(6):
        levels, tied = random_walk_case(seed, atoms=40, spread=25)
        assert list(_walk(levels)) == reference_walk(levels, tied)
    assert "pairwise" in chosen


@pytest.mark.parametrize("branch", ["pairwise", "packed"])
def test_walk_matches_per_leaf_q_max_pair_with_forced_branch(monkeypatch, branch):
    """Every product forced onto one branch.  The recurrence is the power of
    one law, never a product of two, so it has no leaf to take."""
    monkeypatch.setattr(dist, "_branch", lambda parts, n, dim: branch)
    for seed in WALK_SEEDS[::4]:
        levels, tied = random_walk_case(seed, atoms=5, spread=6)
        assert list(_walk(levels)) == reference_walk(levels, tied)


def test_walk_leaves_check_the_mass(monkeypatch):
    """A leaf still runs the exact sum check of the product proper."""
    monkeypatch.setattr(dist, "_convolve_pairwise", lambda parts, n: {0: 1})
    monkeypatch.setattr(dist, "_branch", lambda parts, n, dim: "pairwise")
    laws = [uniform([0, 1]), uniform([0, 2])]
    with pytest.raises(RuntimeError):
        list(_walk([[uniform([0, 1])], laws]))


def test_walk_rejects_mixed_containers():
    measure = IntMeasure([(0, 1), (1, 2)])
    laws = [uniform([0, 1]), uniform([0, 2])]
    for levels in [
        [laws, laws + [measure]],
        [[measure], laws, laws],
        [[measure], laws],
        [[uniform([0, 1])], [measure]],
    ]:
        with pytest.raises(ValueError):
            list(_walk(levels))


def test_walk_rejects_lattice_laws():
    """The walker hands its operands to the product proper unnumbered, so a
    law with tuple sites is an error, not a concatenation of tuples."""
    square = LatticeDist(((x, y), F(1, 4)) for x in (0, 1) for y in (0, 1))
    for levels in [[[square], [square]], [[square], [square, square]], [[square]]]:
        with pytest.raises(ValueError, match="integer sites"):
            list(_walk(levels))


# -- the fill bound and the pruned search ----------------------------------------


def fill(masses: list[F], rho: F) -> F:
    """rho q_m(P) + (1 - m rho) p_(m+1), m = floor(1/rho), from the masses of P."""
    m = int(1 / rho)
    top = sorted(masses, reverse=True) + [F(0)] * (m + 1)
    return rho * sum(top[:m]) + (1 - m * rho) * top[m]


def compositions(total: int, parts: int, cap: int):
    """Every tuple of parts nonnegative integers at most cap summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for c in range(min(total, cap) + 1):
        for rest in compositions(total - c, parts - 1, cap):
            yield (c, *rest)


R_GRID = range(-3, 3)  # holds -s for every site s of P, and room for the rest of R's mass


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(1, 9)), min_size=1, max_size=4, unique_by=lambda t: t[0]),
    st.integers(2, 5).flatmap(lambda g: st.tuples(st.just(g), st.integers(1, g))),
)
def test_fill_bounds_every_sum_and_is_reached(atoms, grid):
    """Every law R on the grid with masses in multiples of 1/g, each at most
    rho = a/g: q_max(P + R) <= fill(P, rho), with equality for some R, the
    one that puts rho on the m largest atoms of P and the rest on the next."""
    g, a = grid
    total = sum(w for _, w in atoms)
    p = {s: F(w, total) for s, w in atoms}
    bound = fill(list(p.values()), F(a, g))
    best = F(0)
    for counts in compositions(g, len(R_GRID), a):
        out: dict = {}
        for y, c in zip(R_GRID, counts):
            for s, ps in p.items():
                out[s + y] = out.get(s + y, 0) + ps * F(c, g)
        assert max(out.values()) <= bound, counts
        best = max(best, max(out.values()))
    assert best == bound


def unpruned_max(levels) -> tuple[F, tuple[int, ...]]:
    """First strict maximum of q_max over every leaf of the walk, with no
    prefix skipped."""
    best, best_path = None, ()
    for path, num, den in _walk(levels):
        if best is None or F(num, den) > best:
            best, best_path = F(num, den), path
    return best, best_path


def tse_levels(alphas: list[F]) -> list[list[IntDist]]:
    """The levels tse searches: the integer-inverse caps' uniforms as one
    fixed summand, then, in canonical order, one level per run of equal
    other caps, the first run halved."""
    ordered = AlphaSeq(alphas).alphas
    uniforms = [nu(a) for a in ordered if a.numerator == 1]
    levels = [[convolve_all(uniforms)]] if uniforms else []
    runs = [(a, len(list(g))) for a, g in itertools.groupby(ordered) if a.numerator != 1]
    return levels + [extremal._run_options(a, c, k == 0) for k, (a, c) in enumerate(runs)]


def oracle_levels(alphas: list[F], window: tuple[int, int]) -> list[list[IntDist]]:
    """The levels t_oracle searches: the window's extremal laws per cap, in
    canonical order."""
    return [extremal_enumerate(a, window) for a in AlphaSeq(alphas)]


PRUNE_ORACLE_CASES = [
    # (caps, window): tied levels, caps above 1/2, windows 0..3 to 0..5
    ([F(2, 5)] * 3, (0, 3)),
    ([F(3, 5), F(2, 5), F(5, 12)], (0, 3)),
    ([F(1, 2), F(2, 3), F(2, 3)], (0, 4)),
    ([F(3, 7), F(2, 5)], (0, 4)),
    ([F(5, 12), F(3, 5)], (0, 5)),
    ([F(1), F(2, 5)], (0, 3)),
    ([F(1, 4), F(2, 5)], (0, 3)),  # 1/4 has one law on 0..3: a one-option last level
]
PRUNE_TSE_CASES = [
    [F(2, 5)] * 4 + [F(3, 7)] * 2,
    [F(3, 7)] * 2 + [F(2, 5)] * 3 + [F(1, 3)],  # a halved run of two, then a run of three
    [F(1, 2), F(1, 3), F(2, 5), F(3, 7), F(5, 12)],  # a one-option root, then free caps
    [F(3, 4), F(2, 3), F(5, 8), F(2, 5)],
    [F(7, 12), F(5, 12), F(5, 12), F(1, 4)],
    [F(1, 2), F(1, 2)],  # the root alone
]


@pytest.fixture()
def products(monkeypatch):
    """The list of the walker's calls of the kernel's product proper."""
    calls = []
    real = extremal._product

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(extremal, "_product", counting)
    return calls


def pruned_and_full_calls(levels, products) -> tuple[int, int]:
    """Products run by the pruned search and by the full walk, after
    checking that both find the same value and path."""
    products.clear()
    pruned = _max_q_search(levels)
    pruned_calls = len(products)
    products.clear()
    assert pruned == unpruned_max(levels), levels
    return pruned_calls, len(products)


@pytest.mark.parametrize("alphas,window", PRUNE_ORACLE_CASES)
def test_pruned_oracle_search_matches_the_full_walk(alphas, window, products):
    """The pruned search returns the first strict maximum of the full walk
    and runs less than half its kernel products, so the prune does work."""
    pruned_calls, full_calls = pruned_and_full_calls(oracle_levels(alphas, window), products)
    assert 2 * pruned_calls < full_calls


@pytest.mark.parametrize("alphas", PRUNE_TSE_CASES)
def test_pruned_tse_search_matches_the_full_walk(alphas, products):
    pruned_calls, full_calls = pruned_and_full_calls(tse_levels(alphas), products)
    assert pruned_calls <= full_calls


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(window_caps((0, 3), range(1, 7))), min_size=1, max_size=3))
def test_pruned_oracle_search_matches_the_full_walk_property(alphas):
    levels = oracle_levels(alphas, (0, 3))
    assert _max_q_search(levels) == unpruned_max(levels)


@pytest.mark.parametrize("seed", WALK_SEEDS)
def test_pruned_search_matches_the_full_walk_on_random_levels(seed):
    """Options of one level with different q_max, so rho must take the
    largest of a level, and the smallest over the levels left."""
    levels, _ = random_walk_case(seed, atoms=5, spread=6)
    assert _max_q_search(levels) == unpruned_max(levels)


def test_pruned_search_takes_probability_laws():
    measure = IntMeasure([(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="probability laws"):
        _max_q_search([[measure], [measure]])


# -- the tse budget ---------------------------------------------------------------


def record_tse_sizes(monkeypatch) -> list[tuple[int, int, int]]:
    """The (count, atoms, bits) of every budget check, which then passes."""
    sizes = []
    monkeypatch.setattr(extremal, "_check_tse_size", lambda *size: sizes.append(size))
    return sizes


TSE_BUDGET_CASES = [
    [F(2, 5)] * 4 + [F(3, 7)] * 2,
    [F(3, 7)] * 2 + [F(2, 5)] * 3,
    [F(1, 2), F(1, 3), F(2, 5), F(3, 7), F(5, 12)],
    [F(3, 4)] * 5,
    [F(3, 4)] * 6 + [F(1, 4)] * 2 + [F(5, 7)],
    [F(1, 2), F(1, 2)],
    [F(j, 2 * j + 1) for j in range(2, 8)],
]


@pytest.mark.parametrize("alphas", TSE_BUDGET_CASES)
def test_tse_budget_counts_the_walk_and_the_whole_sum(alphas, monkeypatch):
    """The pattern count is the number of sums the unpruned walk over tse's
    levels visits, the atoms those of the whole sum, and the bits at least
    its denominator's; a budget one below the size raises before any law is
    built, and the size itself passes."""
    sizes = record_tse_sizes(monkeypatch)
    tse(AlphaSeq(alphas))
    monkeypatch.undo()
    [(count, atoms, bits)] = sizes
    assert count == len(list(_walk(tse_levels(alphas))))
    whole = convolve_all([nu(a) for a in alphas])
    assert atoms == len(whole) and bits >= whole.denominator().bit_length()
    monkeypatch.setattr(extremal, "TSE_BUDGET", count * atoms * bits)
    tse(AlphaSeq(alphas))
    monkeypatch.setattr(extremal, "TSE_BUDGET", count * atoms * bits - 1)
    for builder in ("_run_options", "convolve_all", "_run_memo"):  # no law is built before the refusal
        monkeypatch.setattr(extremal, builder, None)
    with pytest.raises(ValueError, match=f"search {count} sign patterns.*tse budget"):
        tse(AlphaSeq(alphas))


def test_tse_budget_refuses_20_distinct_caps_and_1000_equal_ones(monkeypatch):
    """20 distinct caps j/(2j+1) and 1,000 caps of 3/4 ran for half a
    minute or more; 16 distinct caps and a run of 300 equal ones, under a
    second each, stay under the budget."""
    for alphas in ([F(j, 2 * j + 1) for j in range(2, 22)], [F(3, 4)] * 1000):
        with pytest.raises(ValueError, match="tse budget"):
            tse(AlphaSeq(alphas))
    check, sizes = extremal._check_tse_size, []

    def record_and_stop(*size):
        sizes.append(size)
        raise LookupError  # stop before the search

    monkeypatch.setattr(extremal, "_check_tse_size", record_and_stop)
    for alphas in ([F(j, 2 * j + 1) for j in range(2, 18)], [F(3, 4)] * 300):
        with pytest.raises(LookupError):
            tse(AlphaSeq(alphas))
    assert sizes == [(2**15, 33, 67), (151, 301, 601)]
    for size in sizes:
        check(*size)


@pytest.mark.parametrize("denominator, n", [(4, 3), (5, 3), (6, 2), (7, 2), (3, 5)])
def test_tse_class_bound_covers_every_class(denominator, n, monkeypatch):
    """check_tse_classes bounds the size of tse on every class of n caps
    j/D, free, uniform and mixed, so a scan that passes it never meets a
    class that tse refuses."""
    caps_d = [F(j, denominator) for j in range(1, denominator)]
    sizes = record_tse_sizes(monkeypatch)
    extremal.check_tse_classes(caps_d, n)
    bound = max(c * a * b for c, a, b in sizes)
    sizes.clear()
    for combo in itertools.combinations_with_replacement(caps_d, n):
        tse(AlphaSeq(combo))
    assert max(c * a * b for c, a, b in sizes) <= bound
