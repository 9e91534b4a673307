"""Dimension, Hilbert series, Koszul homology, Betti tables, reports."""

import itertools
import random

import pytest

import gbdepth.invariants as inv
from gbdepth.errors import (BudgetExceededError, InternalInvariantError,
                            NotCohenMacaulayError, RingMismatchError)
from gbdepth.invariants import (BettiTable, SimplicialComplex, betti_table,
                                h_from_numerator, h_polynomial,
                                hilbert_numerator,
                                hilbert_series_coeffs, invariant_report,
                                krull_dimension, kunneth_convolution,
                                lcm_lattice, poly_format,
                                reduced_homology_dims, reg_via_h_polynomial,
                                support_components, upper_koszul_complex)
from gbdepth.rings import GF, MonomialIdeal, mono_degree, mono_support

# initial ideals of the one-block binomial ideal under its two weight orders
INIT_R0 = MonomialIdeal(3, [(1, 0, 1), (1, 1, 0), (2, 0, 0), (0, 3, 0)])
INIT_R1 = MonomialIdeal(3, [(0, 1, 1), (0, 2, 0), (0, 0, 2)])


def _random_ideal(rng, n=3, max_gens=4, max_exp=3):
    gens = [tuple(rng.randint(0, max_exp) for _ in range(n))
            for _ in range(rng.randint(1, max_gens))]
    gens = [g for g in gens if any(g)]
    return MonomialIdeal(n, gens or [(1,) * n])


def test_krull_dimension_frozen():
    assert krull_dimension(INIT_R0) == 1
    assert krull_dimension(INIT_R1) == 1
    assert krull_dimension(MonomialIdeal(3, [])) == 3
    assert krull_dimension(MonomialIdeal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])) == 0
    assert krull_dimension(MonomialIdeal(2, [(1, 1)])) == 1
    with pytest.raises(ValueError):
        krull_dimension(MonomialIdeal(2, [(0, 0)]))


def test_krull_dimension_vs_face_oracle():
    """dim S/J is the largest coordinate subspace avoiding every generator:
    independent brute force over all variable subsets."""
    rng = random.Random(5)
    for _ in range(30):
        J = _random_ideal(rng)
        best = 0
        for size in range(J.n, -1, -1):
            for combo in itertools.combinations(range(J.n), size):
                inside = set(combo)
                if all(not set(mono_support(g)) <= inside for g in J.gens):
                    best = size
                    break
            else:
                continue
            break
        assert krull_dimension(J) == best


def test_hilbert_numerator_frozen():
    assert hilbert_numerator(INIT_R0) == (1, 0, -3, 2)
    assert hilbert_numerator(INIT_R1) == (1, 0, -3, 2)
    assert hilbert_numerator(MonomialIdeal(3, [])) == (1,)
    # coprime generators factor: (1 - t^2)(1 - t^3)
    assert hilbert_numerator(MonomialIdeal(2, [(2, 0), (0, 3)])) == \
        (1, 0, -1, -1, 0, 1)


def test_hilbert_series_counts_standard_monomials():
    """Series coefficients against direct enumeration of monomials outside J."""
    rng = random.Random(17)
    for _ in range(20):
        J = _random_ideal(rng)
        got = hilbert_series_coeffs(J, 6)
        for deg in range(7):
            count = 0
            for mono in itertools.product(range(deg + 1), repeat=J.n):
                if sum(mono) == deg and not J.contains_mono(mono):
                    count += 1
            assert got[deg] == count


def test_h_polynomial_and_poly_format():
    assert h_polynomial(INIT_R0) == (1, 2)
    assert h_polynomial(INIT_R1) == (1, 2)
    assert h_from_numerator((1, 0, -3, 2), 3, 1) == (1, 2)
    with pytest.raises(InternalInvariantError, match="vanishes to order"):
        h_from_numerator((1, 0, -3, 2), 3, 0)
    assert poly_format((1, 0, -3, 2)) == "1 - 3*t^2 + 2*t^3"
    assert poly_format(()) == "0"
    assert poly_format((0, -1)) == "-t"
    assert poly_format((2, 1)) == "2 + t"


def test_reg_via_h_polynomial_guard():
    # depth 1 == dim 1: Cohen-Macaulay, so deg h is the regularity
    assert reg_via_h_polynomial(INIT_R1) == 1
    # depth 0 < dim 1: not Cohen-Macaulay, the route must refuse
    with pytest.raises(NotCohenMacaulayError):
        reg_via_h_polynomial(INIT_R0)
    # with an (externally supplied) certificate it still returns deg h, which
    # here differs from the true regularity 2: the guard exists for a reason
    assert reg_via_h_polynomial(INIT_R0, cm_certified=True) == 1
    assert betti_table(INIT_R0).reg == 2


def test_homology_small_complexes():
    void = SimplicialComplex((), frozenset())
    assert void.is_void
    assert reduced_homology_dims(void) == []

    empty_only = SimplicialComplex.from_faces((), [()])
    assert reduced_homology_dims(empty_only) == [1]

    point = SimplicialComplex.from_faces((0,), [(0,)])
    assert reduced_homology_dims(point) == [0, 0]

    two_points = SimplicialComplex.from_faces((0, 1), [(0,), (1,)])
    assert reduced_homology_dims(two_points) == [0, 1]

    hollow = SimplicialComplex.from_faces((0, 1, 2), [(0, 1), (0, 2), (1, 2)])
    assert reduced_homology_dims(hollow) == [0, 0, 1]
    assert reduced_homology_dims(hollow, GF(2)) == [0, 0, 1]

    filled = SimplicialComplex.from_faces((0, 1, 2), [(0, 1, 2)])
    assert reduced_homology_dims(filled) == [0, 0, 0, 0]


def test_homology_depends_on_field():
    """Six-vertex projective plane: no rational homology, but one dimension
    of H_1 and H_2 each in characteristic 2."""
    triangles = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
                 (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]
    C = SimplicialComplex.from_faces(tuple(range(1, 7)), triangles)
    assert reduced_homology_dims(C) == [0, 0, 0, 0]
    assert reduced_homology_dims(C, GF(2)) == [0, 0, 1, 1]


def test_upper_koszul_basics():
    J = MonomialIdeal(2, [(1, 1)])
    C = upper_koszul_complex(J, (1, 1))
    assert C.faces == frozenset({frozenset()})
    assert reduced_homology_dims(C) == [1]

    principal = MonomialIdeal(2, [(1, 0)])
    assert reduced_homology_dims(upper_koszul_complex(principal, (1, 0))) == [1]

    # degree outside the lattice: x1^2 for J = (x1) gives a cone, no homology
    cone = upper_koszul_complex(principal, (2, 0))
    assert reduced_homology_dims(cone) == [0, 0]

    zero = MonomialIdeal(2, [])
    assert upper_koszul_complex(zero, (1, 1)).is_void

    with pytest.raises(RingMismatchError):
        upper_koszul_complex(J, (1, 1, 1))


def test_upper_koszul_facets_match_definition():
    """Faces built from facets against the definition: the subsets sigma of
    supp(a) with x^(a - sigma) in J, at every lcm-lattice degree and at a
    few degrees outside the lattice."""
    rng = random.Random(23)
    for trial in range(40):
        J = _random_ideal(rng, n=4, max_gens=5, max_exp=1 if trial % 2 else 3)
        outside = [tuple(rng.randint(0, 3) for _ in range(J.n)) for _ in range(4)]
        for a in lcm_lattice(J) + outside:
            supp = mono_support(a)
            expected = set()
            for k in range(len(supp) + 1):
                for sigma in itertools.combinations(supp, k):
                    reduced = tuple(e - (v in sigma) for v, e in enumerate(a))
                    if J.contains_mono(reduced):
                        expected.add(frozenset(sigma))
            C = upper_koszul_complex(J, a)
            assert C.faces == expected, (J.gens, a)
            assert C.is_void == (not expected)


def test_from_faces_void_and_empty_face():
    assert SimplicialComplex.from_faces((0, 1), []).is_void
    only_empty = SimplicialComplex.from_faces((0, 1), [()])
    assert not only_empty.is_void
    assert only_empty.faces == frozenset({frozenset()})
    closed = SimplicialComplex.from_faces((5, 7), [(5,), (7, 5)])
    assert closed.faces == {frozenset(), frozenset({5}), frozenset({7}),
                            frozenset({5, 7})}


def test_koszul_faces_count_against_lattice_budget():
    # (x1^2, x1*x2*...*x6): a lattice of 4 degrees, but 33 faces at the top
    J = MonomialIdeal(6, [(2, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1)])
    assert len(lcm_lattice(J, budget=10)) == 4
    with pytest.raises(BudgetExceededError) as e:
        betti_table(J, lattice_budget=10)
    assert e.value.kind == "lattice"
    assert betti_table(J, lattice_budget=33) == betti_table(J)


def test_lcm_lattice_frozen_and_budget():
    J = MonomialIdeal(3, [(0, 2, 0), (0, 1, 1), (0, 0, 2)])
    lat = lcm_lattice(J)
    assert lat == [(0, 0, 0), (0, 0, 2), (0, 1, 1), (0, 2, 0),
                   (0, 1, 2), (0, 2, 1), (0, 2, 2)]
    with pytest.raises(BudgetExceededError) as e:
        lcm_lattice(J, budget=3)
    assert e.value.kind == "lattice"


def test_betti_table_frozen_small():
    J = MonomialIdeal(3, [(0, 2, 0), (0, 1, 1), (0, 0, 2)])
    t = betti_table(J)
    assert [t.total(i) for i in range(t.pd + 1)] == [1, 3, 2]
    assert (t.pd, t.reg, t.depth) == (2, 1, 1)
    assert t.graded_rows() == [
        (0, (0, 0, 0), 1),
        (1, (0, 0, 2), 1), (1, (0, 1, 1), 1), (1, (0, 2, 0), 1),
        (2, (0, 1, 2), 1), (2, (0, 2, 1), 1),
    ]
    assert t.render().splitlines() == [
        "       0  1  2",
        "total: 1  3  2",
        "    0: 1  .  .",
        "    1: .  3  2",
    ]


def test_betti_table_frozen_family_initial():
    t = betti_table(INIT_R0)
    assert [t.total(i) for i in range(4)] == [1, 4, 4, 1]
    assert (t.pd, t.reg, t.depth) == (3, 2, 0)
    t1 = betti_table(INIT_R1)
    assert [t1.total(i) for i in range(3)] == [1, 3, 2]
    assert (t1.pd, t1.reg, t1.depth) == (2, 1, 1)


def test_betti_split_matches_direct():
    rng = random.Random(40)
    for _ in range(15):
        left = [tuple(rng.randint(0, 2) for _ in range(2)) + (0, 0)
                for _ in range(2)]
        right = [(0, 0) + tuple(rng.randint(0, 2) for _ in range(2))
                 for _ in range(2)]
        gens = [g for g in left + right if any(g)]
        if not gens:
            continue
        J = MonomialIdeal(4, gens)
        assert invariant_report(J).betti == betti_table(J)


def test_invariant_report_combines_pieces_without_kunneth(monkeypatch):
    """dim, pd, reg and the K-polynomial come from the pieces alone; the
    Kunneth product is built only when the full Betti table is read."""
    def refuse(a, b):
        raise AssertionError("Kunneth product built")
    monkeypatch.setattr(inv, "kunneth_convolution", refuse)
    disconnected = MonomialIdeal(7, [(2, 0, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0),
                                     (1, 0, 1, 0, 0, 0, 0), (0, 3, 0, 0, 0, 0, 0),
                                     (0, 0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 0, 2, 0)])
    for J in (disconnected, MonomialIdeal(3, [])):
        rep = invariant_report(J)
        direct = betti_table(J)
        assert (rep.dim, rep.pd, rep.reg, rep.hilbert_numerator) == \
            (krull_dimension(J), direct.pd, direct.reg, hilbert_numerator(J))
    assert len(invariant_report(disconnected).pieces) == 3
    assert invariant_report(MonomialIdeal(3, [])).betti == \
        betti_table(MonomialIdeal(3, []))


def test_kunneth_rejections():
    a = betti_table(MonomialIdeal(2, [(2, 0)]))
    b = betti_table(MonomialIdeal(2, [(1, 1)]))
    with pytest.raises(ValueError, match="overlap"):
        kunneth_convolution(a, b)
    c = betti_table(MonomialIdeal(3, [(0, 0, 2)]))
    with pytest.raises(RingMismatchError):
        kunneth_convolution(a, c)


def test_support_components():
    J = MonomialIdeal(5, [(2, 0, 0, 0, 0), (1, 1, 0, 0, 0),
                          (0, 0, 1, 1, 0), (0, 0, 0, 0, 1)])
    comps = support_components(J)
    assert [c.gens for c in comps] == [
        ((1, 1, 0, 0, 0), (2, 0, 0, 0, 0)),
        ((0, 0, 1, 1, 0),),
        ((0, 0, 0, 0, 1),),
    ]


def test_invariant_report_frozen():
    rep = invariant_report(INIT_R0)
    assert (rep.n, rep.dim, rep.depth, rep.pd, rep.reg) == (3, 1, 0, 3, 2)
    assert not rep.cohen_macaulay
    assert rep.hilbert_numerator == (1, 0, -3, 2)

    rep1 = invariant_report(INIT_R1)
    assert (rep1.dim, rep1.depth, rep1.pd, rep1.reg) == (1, 1, 2, 1)
    assert rep1.cohen_macaulay


def test_invariant_report_self_check_trips(monkeypatch):
    monkeypatch.setattr(inv, "krull_dimension", lambda J: 0)
    with pytest.raises(InternalInvariantError, match="vanishes to order"):
        invariant_report(INIT_R0)


def test_betti_alternating_sum_is_numerator():
    """The Euler characteristic identity, checked here explicitly on random
    inputs (the report enforces it internally)."""
    rng = random.Random(77)
    for _ in range(15):
        J = _random_ideal(rng)
        t = betti_table(J)
        K = hilbert_numerator(J)
        acc = [0] * 16
        for (i, a), v in t.entries.items():
            acc[mono_degree(a)] += v if i % 2 == 0 else -v
        while acc and acc[-1] == 0:
            acc.pop()
        assert tuple(acc) == K


def test_prime_field_betti_agrees_here():
    for J in (INIT_R0, INIT_R1):
        assert betti_table(J, field=GF(32003)).entries == betti_table(J).entries
