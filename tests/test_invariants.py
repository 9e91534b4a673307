"""Dimension, Hilbert series, Koszul homology, Betti tables, reports."""

import itertools
import math
import random
from collections import defaultdict
from fractions import Fraction

import pytest

import gbdepth.invariants as inv
from gbdepth.errors import (BudgetExceededError, InternalInvariantError,
                            NotCohenMacaulayError, RingMismatchError)
from gbdepth.invariants import (BettiTable, SimplicialComplex, betti_table,
                                h_from_numerator, h_polynomial,
                                hilbert_numerator, invariant_report,
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
        K = hilbert_numerator(J)
        # K(t) / (1-t)^n, with 1/(1-t)^n = sum_j C(n-1+j, n-1) t^j
        got = [sum(c * math.comb(J.n - 1 + deg - k, J.n - 1)
                   for k, c in enumerate(K[:deg + 1])) for deg in range(7)]
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


def _oracle_rank(rows, p=None):
    """Rank by plain Gaussian elimination, over Q with Fractions or mod p."""
    rows = [[Fraction(x) if p is None else x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col] if p is None else pow(rows[rank][col], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] * inv
                rows[r] = [x - f * y if p is None else (x - f * y) % p
                           for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _oracle_homology(C, p=None):
    """Reduced homology ranks of C by face cardinality, from every face of
    C and its full boundary matrices, with no collapse."""
    if C.is_void:
        return []
    by_card = defaultdict(list)
    for face in C.faces:
        by_card[len(face)].append(tuple(sorted(face)))
    top = max(by_card)

    def rank(k):  # boundary from faces of cardinality k to k - 1
        if not 1 <= k <= top:
            return 0
        index = {f: i for i, f in enumerate(by_card[k - 1])}
        rows = [[0] * len(by_card[k]) for _ in index]
        for c, face in enumerate(by_card[k]):
            for i in range(len(face)):
                rows[index[face[:i] + face[i + 1:]]][c] = (-1) ** i
        return _oracle_rank(rows, p)

    return [len(by_card[k]) - rank(k) - rank(k + 1) for k in range(top + 1)]


def _assert_homology_matches_oracle(C):
    for field, p in ((None, None), (GF(2), 2), (GF(3), 3)):
        got = reduced_homology_dims(C) if field is None else reduced_homology_dims(C, field)
        assert got == _oracle_homology(C, p), (C, p)


def test_homology_matches_oracle_on_random_complexes():
    """The collapsed route against full boundary ranks, on random facet
    sets of up to 7 vertices over QQ, GF(2) and GF(3)."""
    rng = random.Random(41)
    shapes = set()
    for _ in range(300):
        nv = rng.randint(0, 7)
        density = rng.choice((0.3, 0.5, 0.7))
        facets = [[v for v in range(nv) if rng.random() < density]
                  for _ in range(rng.randint(1, 6))]
        C = SimplicialComplex.from_faces(range(nv), facets)
        _assert_homology_matches_oracle(C)
        shapes.add(len(inv._strong_core(C.facets)))
    # both the simplex shortcut and cores of several facets were exercised
    assert 1 in shapes and max(shapes) >= 3


def test_homology_matches_oracle_on_koszul_complexes():
    rng = random.Random(43)
    for trial in range(40):
        J = _random_ideal(rng, n=5, max_gens=6, max_exp=1 if trial % 2 else 3)
        for a in lcm_lattice(J):
            _assert_homology_matches_oracle(upper_koszul_complex(J, a))


def test_collapsible_complexes_need_no_rank(monkeypatch):
    """A path and a filled triangle collapse to a simplex, so no boundary
    matrix is ranked. The hollow triangle and the six-vertex RP^2 have no
    dominated vertex: their cores are the complexes themselves. A hollow
    triangle with a tail 3-0-4 collapses to the triangle, although vertex
    0 is dominated only once vertex 4 is gone."""
    hollow = SimplicialComplex.from_faces((0, 1, 2), [(0, 1), (0, 2), (1, 2)])
    tailed = SimplicialComplex.from_faces(range(5), [(1, 2), (1, 3), (2, 3),
                                                     (0, 3), (0, 4)])
    assert inv._strong_core(tailed.facets) == SimplicialComplex.from_faces(
        range(5), [(1, 2), (1, 3), (2, 3)]).facets
    rp2 = SimplicialComplex.from_faces(tuple(range(1, 7)), [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)])
    assert inv._strong_core(hollow.facets) == hollow.facets
    assert inv._strong_core(rp2.facets) == rp2.facets

    def refuse(rows, field):
        raise AssertionError("a collapsible complex reached matrix_rank")

    monkeypatch.setattr(inv, "matrix_rank", refuse)
    path = SimplicialComplex.from_faces((0, 1, 2, 3), [(0, 1), (1, 2), (2, 3)])
    assert reduced_homology_dims(path) == [0, 0, 0]
    assert reduced_homology_dims(path, GF(2)) == [0, 0, 0]
    filled = SimplicialComplex.from_faces((0, 1, 2), [(0, 1, 2)])
    assert reduced_homology_dims(filled) == [0, 0, 0, 0]


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


def test_koszul_faces_count_over_all_degrees():
    """The faces listed count against the lattice budget summed over all
    degrees of one betti_table call. Each K^a of (x1, .., x4) is the
    boundary of the simplex on supp(a), which has no dominated vertex: the
    15 complexes list 4*1 + 6*3 + 4*7 + 15 = 65 faces, although the lattice
    has 16 degrees and no facet spans more than 8 faces."""
    J = MonomialIdeal(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert len(lcm_lattice(J, budget=64)) == 16
    with pytest.raises(BudgetExceededError) as e:
        betti_table(J, lattice_budget=64)
    assert e.value.kind == "lattice" and e.value.limit == 64
    assert betti_table(J, lattice_budget=65) == betti_table(J)
    # only the faces of the core are listed: the top complex of
    # (x1^2, x1*x2*...*x6) has 33 faces, its core (two points) 3
    J6 = MonomialIdeal(6, [(2, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1)])
    top = upper_koszul_complex(J6, (2, 1, 1, 1, 1, 1))
    assert len(top.face_masks()) == 33
    spent = [0]
    assert reduced_homology_dims(top, budget=33, spent=spent) == [0, 1, 0, 0, 0, 0]
    assert spent == [3]
