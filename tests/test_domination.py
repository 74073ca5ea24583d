"""Profiles, the epsilon-domination order, and rearrangement-inequality
checkers."""

import itertools
from fractions import Fraction as F

import pytest

from conclab.dist import IntDist, convolve_all, delta, uniform
from conclab.domination import cor3_check, dominates, hlp_check, mww_check, q_profile
from conclab.extremal import nu

from brute import reference
from instances import random_instance


def test_q_profile_examples():
    assert q_profile(nu(F(2, 5))) == (F(2, 5), F(4, 5), F(1))
    assert q_profile(delta(0)) == (F(1),)
    assert q_profile(uniform([0, 1, 2, 3])) == (F(1, 4), F(1, 2), F(3, 4), F(1))


def test_q_profile_matches_fraction_body():
    for seed in range(60):
        for kind in ("distribution", "log-concave", "symmetric-unimodal"):
            mu = random_instance(seed, kind)
            assert q_profile(mu) == tuple(reference.profile(dict(mu.atoms)))


def test_q_profile_concave_differences():
    for seed in range(30):
        mu = random_instance(seed, "distribution")
        values = q_profile(mu)
        diffs = [values[0]] + [b - a for a, b in zip(values, values[1:])]
        assert all(diffs[i] >= diffs[i + 1] for i in range(len(diffs) - 1))


def test_dominates_examples():
    mu = nu(F(2, 5))
    assert dominates(mu, mu, 0).holds
    assert dominates(delta(0), uniform([0, 1]), 1).holds
    report = dominates(delta(0), uniform([0, 1]), F(1, 2))
    assert not report.holds
    assert report.first_violation == (1, F(1), F(3, 4))


def test_dominates_reflexive_transitive_monotone():
    for seed in range(25):
        a = random_instance(900 + 3 * seed, "distribution")
        assert dominates(a, a, 0).holds
        b = random_instance(901 + 3 * seed, "symmetric-unimodal")
        c = random_instance(902 + 3 * seed, "symmetric-unimodal")
        from conclab.dist import convolve

        ab = convolve(a, b)
        abc = convolve(ab, c)
        # convolving can only flatten profiles: chains at eps = 0
        assert dominates(abc, ab, 0).holds
        assert dominates(ab, a, 0).holds
        assert dominates(abc, a, 0).holds
        if not dominates(a, b, F(1, 3)).holds:
            continue
        assert dominates(a, b, F(1, 2)).holds


def test_dominates_json():
    report = dominates(delta(0), uniform([0, 1]), F(1, 2))
    obj = report.to_json_obj()
    assert obj["holds"] is False
    assert obj["epsilon"] == "1/2"
    assert obj["violation"] == [1, "1/1", "3/4"]


def test_hlp_examples():
    lhs, rhs, holds = hlp_check(uniform([0, 1]), uniform([0, 1]), [])
    assert (lhs, rhs, holds) == (F(1, 2), F(1, 2), True)
    lhs, rhs, holds = hlp_check(delta(5), delta(5), [])
    assert (lhs, rhs, holds) == (F(1), F(1), True)
    lhs, rhs, holds = hlp_check(nu(F(2, 5)), nu(F(2, 5)), [uniform([0, 1, 2])])
    assert holds


def test_hlp_rejects_unrearrangeable_z():
    with pytest.raises(ValueError):
        hlp_check(delta(0), delta(0), [nu(F(2, 5))])


def quarter_mass_dists(max_atoms=3, sites=(0, 1, 2, 3)):
    """All distributions on the given sites with at most max_atoms atoms and
    masses that are positive multiples of 1/4."""
    out = []
    for natoms in range(1, max_atoms + 1):
        for support in itertools.combinations(sites, natoms):
            for weights in itertools.product(range(1, 5), repeat=natoms):
                if sum(weights) == 4:
                    out.append(IntDist(zip(support, (F(w, 4) for w in weights))))
    return out


def test_hlp_exhaustive_small():
    z_fixed = IntDist([(0, F(1, 2)), (1, F(1, 4)), (2, F(1, 4))])
    dists = quarter_mass_dists(max_atoms=2, sites=(0, 1, 2))
    for x in dists:
        for y in dists:
            for zs in ([], [z_fixed]):
                lhs, rhs, holds = hlp_check(x, y, zs)
                assert holds, (x, y, zs, lhs, rhs)


def test_mww_examples():
    two_pt = [IntDist([(0, F(1, 3)), (4, F(2, 3))]), IntDist([(0, F(1, 2)), (7, F(1, 2))])]
    assert mww_check(two_pt).holds
    contiguous = [nu(F(2, 5)), uniform([3, 4])]
    report = mww_check(contiguous)
    assert report.holds
    # already-contiguous inputs squeeze to shifts: profiles agree exactly
    total = convolve_all(contiguous)
    from conclab.dist import squeeze

    squeezed = convolve_all([squeeze(d) for d in contiguous])
    assert q_profile(total) == q_profile(squeezed)
    assert mww_check([IntDist([(0, F(1, 10)), (5, F(8, 10)), (9, F(1, 10))])] * 2).holds


def test_mww_rejects_non_sharp():
    with pytest.raises(ValueError):
        mww_check([IntDist([(0, F(9, 20)), (5, F(1, 10)), (9, F(9, 20))])])


def test_mww_seeded_tuples():
    for seed in range(100):
        xs = [
            random_instance(1000 + 7 * seed + i, "sharp-log-concave") for i in range(1 + seed % 3)
        ]
        assert mww_check(xs).holds


def test_cor3_examples():
    mu = IntDist([(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))])
    pair = (uniform([-1, 0, 1]), mu)
    assert dominates(*pair, 0).holds
    assert cor3_check([pair, pair]).holds
    assert cor3_check([(mu, mu)]).holds


def test_cor3_rejects_bad_pairs():
    mu = IntDist([(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))])
    with pytest.raises(ValueError):
        cor3_check([(mu, uniform([-1, 0, 1]))])  # domination reversed
    with pytest.raises(ValueError):
        cor3_check([(uniform([0, 1]), mu)])  # not symmetric
    with pytest.raises(ValueError):
        cor3_check([])


def test_cor3_seeded_chains():
    for seed in range(100):
        pairs = random_instance(seed, "symmetric-unimodal-chain", n=1 + seed % 4)
        assert cor3_check(pairs).holds
