"""GAP algebra, two-point decompositions, lattice bases, Rademacher sums."""

import itertools
import random
from fractions import Fraction as F
from math import comb

import pytest

from conclab.dist import IntDist, uniform
from conclab.gaps import (
    Decomposition,
    SymGAP,
    _components,
    connected_decomposition,
    gap_contains,
    gap_cover,
    gap_dilate,
    gap_fit_rank1,
    gap_is_proper,
    gap_sumset,
    integer_span_basis,
    rademacher_q,
)

from instances import random_instance


def rank1(g, m):
    return SymGAP((m,), (F(g),))


def test_dilate():
    a = rank1(1, 2)
    assert gap_dilate(a, 2).elements() == {F(v) for v in range(-4, 5)}
    assert gap_dilate(a, 1) == a
    with pytest.raises(ValueError):
        gap_dilate(a, 0)


def test_dilate_matches_iterated_sumset():
    for g, m, t in ((2, 1, 3), (3, 2, 2), (1, 1, 4)):
        a = rank1(g, m)
        dilated = gap_dilate(a, t).elements()
        iterated = {F(0)}
        base = a.elements()
        for _ in range(t):
            iterated = {x + y for x in iterated for y in base}
        assert dilated == iterated


def test_sumset():
    a, b = rank1(2, 1), rank1(3, 1)
    s = gap_sumset(a, b)
    assert s.rank == 2 and s.volume() == 9
    assert s.elements() == {x + y for x in a.elements() for y in b.elements()}
    zero_rank = SymGAP((), ())
    assert gap_sumset(a, zero_rank).elements() == a.elements()
    assert {int(v) for v in s.elements()} == {-5, -3, -2, -1, 0, 1, 2, 3, 5}


def test_sumset_enumeration_property():
    gaps = [rank1(1, 2), rank1(2, 1), SymGAP((1, 1), (F(2), F(3)))]
    for a, b in itertools.product(gaps, repeat=2):
        s = gap_sumset(a, b)
        assert s.elements() == {x + y for x in a.elements() for y in b.elements()}
        assert s.volume() == a.volume() * b.volume()


def test_proper_and_contains():
    assert gap_is_proper(SymGAP((1, 1), (F(2), F(3))))
    assert len(SymGAP((1, 1), (F(2), F(3))).elements()) == 9
    assert not gap_is_proper(SymGAP((1, 1), (F(1), F(1))))
    assert len(SymGAP((1, 1), (F(1), F(1))).elements()) == 5
    assert not gap_contains(rank1(1, 2), 3)
    assert gap_contains(rank1(1, 2), -2)


def test_budget_overflow_errors():
    big = SymGAP((10**4, 10**4), (F(1), F(10**5)))
    with pytest.raises(ValueError, match="exceeds enumeration budget 1000000"):
        big.elements()


def test_cover():
    a = rank1(2, 2)
    inside = uniform([-4, 0, 2])
    outside = uniform([0, 3])
    assert gap_cover(a, [inside, outside]) == F(1, 2)
    assert gap_cover(a, [inside]) == 1


def test_fit_rank1_examples():
    g = gap_fit_rank1([-4, -2, 0, 2, 4], 0)
    assert g is not None and g.dims == (2,) and g.generators == (F(2),)
    g = gap_fit_rank1([0], 0)
    assert g is not None and g.rank == 0 and g.elements() == {F(0)}
    g = gap_fit_rank1([0, 1, 100], F(1, 3))
    assert g is not None and g.dims == (1,) and g.generators == (F(1),)


def test_fit_rank1_stops_at_the_enumeration_budget():
    """Trial division takes isqrt(|v|) steps per distinct nonzero value: 10**12
    takes exactly ENUM_BUDGET, also twice over with its negative, and
    (10**6 + 1)**2 one more."""
    g = gap_fit_rank1([10**12, -(10**12), 0])
    assert g is not None and g.dims == (1,) and g.generators == (F(10**12),)
    for values in ([(10**6 + 1) ** 2], [10**16], [10**12, 2 * 10**12], [10**38 - 1]):
        with pytest.raises(ValueError, match="enumeration budget"):
            gap_fit_rank1(values)


def test_fit_rank1_always_covers_quorum():
    import random

    rng = random.Random(11)
    for _ in range(40):
        values = [rng.randint(-30, 30) for _ in range(rng.randint(1, 8))]
        eps = F(rng.randint(0, 3), 10)
        g = gap_fit_rank1(values, eps)
        assert g is not None
        elems = g.elements()
        covered = sum(1 for v in values if F(v) in elems)
        assert covered >= (1 - eps) * len(values)


def test_decomposition_examples():
    d = connected_decomposition(IntDist([(0, F(1, 4)), (1, F(1, 2)), (2, F(1, 4))]))
    assert d.parts == ((F(1, 2), (0, 1)), (F(1, 2), (1, 2)))
    d = connected_decomposition(uniform([0, 2]))
    assert d.parts == ((F(1), (0, 2)),)
    d = connected_decomposition(uniform([0, 1, 2, 3]))
    assert d.parts == (
        (F(1, 4), (0, 2)),
        (F(1, 4), (0, 3)),
        (F(1, 4), (1, 2)),
        (F(1, 4), (1, 3)),
    )
    assert d.is_connected()


def test_decomposition_rejects():
    with pytest.raises(ValueError):
        connected_decomposition(IntDist([(0, F(3, 4)), (1, F(1, 4))]))
    with pytest.raises(ValueError):
        connected_decomposition(IntDist([(0, F(1))]))


def test_decomposition_seeded():
    for seed in range(300):
        mu = random_instance(seed, "split-admissible")
        d = connected_decomposition(mu)
        assert d.reconstruct() == mu
        assert d.is_connected()
        assert all(w > 0 and a != b for w, (a, b) in d.parts)


def _decomposition_reference(mu):
    """connected_decomposition's Fraction body: unit counts mass * N."""
    n = mu.denominator()
    if n % 2 == 1:
        n *= 2
    unit_sites = []
    for site, mass in mu.atoms:
        unit_sites.extend([site] * int(mass * n))
    half = n // 2
    pair_counts = {}
    for i in range(half):
        a, b = unit_sites[i], unit_sites[i + half]
        key = (a, b) if a < b else (b, a)
        pair_counts[key] = pair_counts.get(key, 0) + 1
    weights = {pair: F(2 * count, n) for pair, count in pair_counts.items()}
    comps = _components({s for s, _ in mu.atoms}, list(weights))
    if len(comps) > 1:
        reps = [sorted(pair for pair in weights if pair[0] in comp)[0] for comp in comps]
        for l in range(len(reps)):
            weights[reps[l]] -= F(1, n)
            y, z = reps[l][0], reps[(l + 1) % len(reps)][1]
            key = (y, z) if y < z else (z, y)
            weights[key] = weights.get(key, F(0)) + F(1, n)
    return Decomposition(tuple(sorted((w, pair) for pair, w in weights.items() if w > 0)))


def test_decomposition_matches_fraction_body():
    laws = [random_instance(seed, "split-admissible") for seed in range(200)]
    laws.append(IntDist([(0, F(1, 3)), (1, F(1, 3)), (5, F(1, 3))]))
    laws.append(IntDist([(-4, F(1, 6)), (0, F(1, 6)), (3, F(1, 3)), (9, F(1, 3))]))
    rng = random.Random(5)  # up to 9 atoms, denominators up to a few hundred
    while len(laws) < 500:
        weights = [rng.randint(1, 40) for _ in range(rng.randint(2, 9))]
        if 2 * max(weights) <= sum(weights):
            sites = sorted(rng.sample(range(-20, 21), len(weights)))
            laws.append(IntDist((s, F(w, sum(weights))) for s, w in zip(sites, weights)))
    for mu in laws:
        assert connected_decomposition(mu) == _decomposition_reference(mu)


def test_decomposition_huge_denominator():
    """The work does not grow with the denominator: 10**12 mass units, where
    a unit list would need terabytes."""
    big = 10**12
    mu = IntDist([(0, F(big // 4 + 1, big)), (3, F(big // 4 - 1, big)), (7, F(1, 2))])
    d = connected_decomposition(mu)
    assert d.parts == ((F(big // 2 - 2, big), (3, 7)), (F(big // 2 + 2, big), (0, 7)))
    assert d.reconstruct() == mu
    assert d.is_connected()


def test_decomposition_odd_denominator_doubles():
    mu = IntDist([(0, F(1, 3)), (1, F(1, 3)), (5, F(1, 3))])
    d = connected_decomposition(mu)
    assert d.reconstruct() == mu
    assert d.is_connected()


def test_integer_span_basis_examples():
    b = integer_span_basis([(0, 0), (2, 0), (0, 2)])
    assert b.rank == 2
    assert b.matrix == ((2, 0), (0, 2))
    assert b.coords[(2, 0)] == (1, 0)
    b = integer_span_basis([(0, 0), (1, 1)])
    assert b.rank == 1
    assert b.matrix == ((1,), (1,))
    b = integer_span_basis([(0, 0), (1, 0), (0, 1)])
    assert b.rank == 2 and b.matrix == ((1, 0), (0, 1))



@pytest.mark.parametrize("vectors", [[[0, 0], [0.5, 1]], [(0, 0), (1, 2.0)], [[0, 0], ["1", 0]]])
def test_integer_span_basis_rejects_non_integer_entries(vectors):
    with pytest.raises(TypeError):
        integer_span_basis(vectors)


def test_vector_entries_reject_booleans():
    """Entries are coerced like sites: True is not the integer 1."""
    with pytest.raises(TypeError):
        integer_span_basis([[0, 0], [True, 0]])
    with pytest.raises(TypeError):
        gap_contains(SymGAP((1,), ((1, 0),)), [True, 0])
    with pytest.raises(TypeError):
        gap_fit_rank1([True, 0, 2])
    with pytest.raises(TypeError):
        rademacher_q([True, 1])
    with pytest.raises(TypeError):
        gap_dilate(rank1(1, 2), True)


def test_rank_0_progression_holds_the_zero_of_each_kind():
    empty = SymGAP((), ())
    assert gap_contains(empty, 0) and gap_contains(empty, F(0))
    assert gap_contains(empty, (0, 0)) and gap_contains(empty, [0, 0, 0])
    assert not gap_contains(empty, F(1, 2))
    assert not gap_contains(empty, (0, 1))


def test_gap_contains_rejects_non_integer_vectors():
    plane = SymGAP((1, 1), ((1, 0), (0, 1)))
    assert gap_contains(plane, [1, -1])
    assert not gap_contains(plane, (2, 0))
    with pytest.raises(TypeError):
        gap_contains(plane, [0.5, 0])
    with pytest.raises(TypeError):
        gap_contains(plane, (1, 1.0))


def test_zero_dimensional_vectors_are_rejected():
    with pytest.raises(ValueError, match="dimension 0"):
        SymGAP((1,), ((),))
    with pytest.raises(ValueError, match="dimension 0"):
        SymGAP((1, 2), ((), ()))
    with pytest.raises(ValueError, match="dimension 0"):
        SymGAP.from_json_obj({"dims": [1], "generators": [[]]})
    for gap in (SymGAP((), ()), SymGAP((1,), ((1, 0),)), SymGAP((1,), (F(1),))):
        with pytest.raises(ValueError, match="dimension 0"):
            gap_contains(gap, ())
        with pytest.raises(ValueError, match="dimension 0"):
            gap_contains(gap, [])


def test_integer_inputs_are_not_truncated():
    with pytest.raises(TypeError):
        gap_fit_rank1([0, 1.5])
    with pytest.raises(TypeError):
        rademacher_q([1, 2.5])
    with pytest.raises(TypeError):
        SymGAP((2.5,), (F(1),))


@pytest.mark.parametrize(
    "dims, generators",
    [((True,), ((True, 0),)), ((1,), ((1.5, 0),)), ((1,), (0.5,)), ((1,), (True,))],
    ids=["boolean_dim_and_coordinate", "float_coordinate", "float_scalar", "boolean_scalar"],
)
def test_progression_fields_are_coerced_at_construction(dims, generators):
    with pytest.raises(TypeError):
        SymGAP(dims, generators)


def test_progression_stores_exact_fields():
    scalar = SymGAP([2], [1])
    assert scalar.dims == (2,) and scalar.generators == (F(1),)
    assert all(type(x) is F for x in scalar.generators + tuple(scalar.elements()))
    assert SymGAP((1,), ("1/2",)).to_json_obj() == {"rank": 1, "dims": [1], "generators": ["1/2"]}
    vector = SymGAP((1, 1), ((1, 0), (0, 2)))
    assert vector.generators == ((1, 0), (0, 2)) and (1, -2) in vector.elements()
    assert SymGAP((1,), (F(1),)) == SymGAP((1,), (1,))


def _pivot_product(basis):
    rows = [tuple(basis.matrix[i][j] for i in range(len(basis.matrix))) for j in range(basis.rank)]
    product = 1
    for row in rows:
        product *= next(a for a in row if a != 0)
    return abs(product)


def test_integer_span_basis_round_trip_and_lattice_equality():
    import random

    for seed in range(60):
        rng = random.Random(seed)
        d = rng.randint(1, 3)
        vecs = [tuple([0] * d)]
        for _ in range(rng.randint(1, 4)):
            vecs.append(tuple(rng.randint(-6, 6) for _ in range(d)))
        basis = integer_span_basis(vecs)
        for v in vecs:
            assert basis.apply(basis.coords[v]) == v
        # adding the basis columns to the generators must not refine the
        # lattice: rank and pivot product (the lattice determinant) agree
        columns = [tuple(basis.matrix[i][j] for i in range(d)) for j in range(basis.rank)]
        again = integer_span_basis(vecs + columns)
        assert again.rank == basis.rank
        assert _pivot_product(again) == _pivot_product(basis)


def test_integer_span_basis_requires_zero():
    with pytest.raises(ValueError):
        integer_span_basis([(1, 0)])


def test_coord_bound_reported():
    basis = integer_span_basis([(0, 0), (2, 0), (0, 2)])
    assert basis.coord_bound_ok
    assert basis.coord_bound_sq > 0


def test_rademacher_q():
    assert rademacher_q([1, 1]) == F(1, 2)
    assert rademacher_q([1]) == F(1, 2)
    assert rademacher_q([1, 2, 4]) == F(1, 8)
    with pytest.raises(ValueError):
        rademacher_q([0, 1])


def test_rademacher_invariances():
    assert rademacher_q([1, 2, 3]) == rademacher_q([3, -2, 1])
    assert rademacher_q([1, 2, 3]) == rademacher_q([5, 10, 15])


def test_rademacher_erdos_equality_iff_equal_moduli():
    for n in range(1, 7):
        central = F(comb(n, n // 2), 2**n)
        assert rademacher_q([3] * n) == central
        if n >= 2:
            lop = [1] * (n - 1) + [2]
            assert rademacher_q(lop) < central or n == 2
    # n = 2 special case: (1, 2) gives four distinct sums, strictly below 1/2
    assert rademacher_q([1, 2]) == F(1, 4) < F(1, 2)
