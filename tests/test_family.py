"""Block family construction, depth-range verification, exploration,
distributive lattices and their join-meet ideals."""

from itertools import combinations

import pytest

import gbdepth.family as family
import gbdepth.groebner as groebner
import gbdepth.invariants as invariants
from gbdepth.errors import BudgetExceededError, LatticeError
from gbdepth.family import (CORRECTION_NOTES, DistributiveLattice,
                            build_family, chain_lattice, claimed_basis,
                            divisor_lattice, expected_initial, explore_orders,
                            grid_lattice, join_meet_ideal, verify_depth_range,
                            verify_one)
from gbdepth.groebner import buchberger, initial_ideal
from gbdepth.invariants import invariant_report
from gbdepth.orders import LexOrder, WeightOrder
from gbdepth.parsing import parse_ideal_text, parse_polynomial
from gbdepth.rings import Ideal, MonomialIdeal, PolyRing, mono_support


def test_build_family_shapes():
    fam = build_family(1)
    assert fam.ring.n == 3
    assert len(fam.ideal.generators) == 3
    fam3 = build_family(3)
    assert fam3.ring.n == 9
    assert len(fam3.ideal.generators) == 9
    # generator supports stay inside their own block
    for i, g in enumerate(fam3.ideal.generators):
        block = i // 3
        for mono in g.coeffs:
            assert set(mono_support(mono)) <= {3 * block, 3 * block + 1, 3 * block + 2}
    with pytest.raises(ValueError):
        build_family(0)


def test_claimed_basis_shapes():
    assert len(claimed_basis(1, 0)) == 4
    assert len(claimed_basis(1, 1)) == 3
    assert len(claimed_basis(3, 1)) == 3 + 2 * 4
    good = claimed_basis(2, 0)
    bad = claimed_basis(2, 0, misprinted=True)
    assert len(good) == len(bad) == 8
    diffs = [i for i, (g, b) in enumerate(zip(good, bad)) if g != b]
    assert diffs == [2, 6]  # only the third element of each trailing block
    with pytest.raises(ValueError):
        claimed_basis(1, 2)


def test_expected_initial_frozen():
    assert expected_initial(1, 0).gens == ((1, 0, 1), (1, 1, 0), (2, 0, 0), (0, 3, 0))
    assert expected_initial(1, 1).gens == ((0, 0, 2), (0, 1, 1), (0, 2, 0))


def test_verify_one_first_block():
    rep0 = verify_one(1, 0)
    assert rep0.passed
    assert (rep0.gb_size, rep0.dim, rep0.depth, rep0.reg, rep0.pd) == (4, 1, 0, 2, 3)
    assert rep0.order_text == "weight:1,1,1;tie=lex"
    assert rep0.basis_equals_claimed and rep0.initial_matches
    assert rep0.direct_agrees is True

    rep1 = verify_one(1, 1)
    assert rep1.passed
    assert (rep1.gb_size, rep1.depth, rep1.reg) == (3, 1, 1)
    assert rep1.order_text == "weight:1,2,2;tie=lex"
    assert rep1.direct_agrees is True


def test_verify_one_runs_buchberger_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return buchberger(*args, **kwargs)
    monkeypatch.setattr(family, "buchberger", counted)
    monkeypatch.setattr(groebner, "buchberger", counted)
    assert verify_one(3, 1).passed
    assert len(calls) == 1


def test_verify_one_rejects_misprint():
    rep = verify_one(2, 0, misprinted=True)
    assert not rep.passed
    assert not rep.claimed_confirmed
    kinds = {f.kind for f in rep.claimed_failures}
    assert "membership" in kinds
    witnesses = [f.detail for f in rep.claimed_failures if f.kind == "membership"]
    assert any("x2*x3 - x3^2" in w for w in witnesses)
    # the corrected basis at the same level is fine
    assert verify_one(2, 0).passed


def test_verify_depth_range_small():
    res = verify_depth_range(1)
    assert res.all_pass
    assert [rep.depth for rep in res.reports] == [0, 1]
    assert [rep.reg for rep in res.reports] == [2, 1]
    assert res.cm_certificate_ok
    assert res.reg_original == 1
    assert res.notes == CORRECTION_NOTES

    bad = verify_depth_range(1, misprinted=True)
    assert not bad.all_pass
    assert len(bad.notes) == 3


def test_reg_original_reads_the_report(monkeypatch):
    # the regularity certificate comes from the r = d report's K-polynomial,
    # not from a Hilbert numerator of the whole, unsplit initial ideal
    pieces = []
    numerator = invariants.hilbert_numerator

    def recorded(J):
        pieces.append(len(invariants.support_components(J)))
        return numerator(J)
    monkeypatch.setattr(invariants, "hilbert_numerator", recorded)
    res = verify_depth_range(3)
    assert res.reg_original == 3
    assert pieces and max(pieces) == 1


def test_verify_depth_range_parallel_determinism():
    assert verify_depth_range(2, jobs=3) == verify_depth_range(2)


def test_verify_depth_range_d4():
    # block splitting keeps this sub-second despite 12 variables
    res = verify_depth_range(4)
    assert res.all_pass
    assert [rep.depth for rep in res.reports] == [0, 1, 2, 3, 4]
    assert [rep.reg for rep in res.reports] == [8, 7, 6, 5, 4]
    assert res.reg_original == 4


def test_explore_orders_deterministic():
    fam = build_family(1)
    a = explore_orders(fam.ideal, samples=30, seed=1)
    b = explore_orders(fam.ideal, samples=30, seed=1, jobs=2)
    assert a == b
    assert a.samples == 30
    assert set(a.depth_values) <= {0, 1}
    assert len(a.depth_values) == 2  # both depths show up quickly
    assert len(a.records) >= 2
    # dedup keeps the first occurrence of each initial ideal
    idxs = [rec.sample_index for rec in a.records]
    assert idxs == sorted(idxs)
    # a different seed gives a different weight sequence
    c = explore_orders(fam.ideal, samples=30, seed=2)
    assert [r.weights for r in a.records] != [r.weights for r in c.records]


def test_explore_orders_clamps_workers(monkeypatch):
    """No more workers than CPUs or samples; the pool is a stub, so no
    process starts."""
    created = []

    class StubPool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(family, "ProcessPoolExecutor", StubPool)
    monkeypatch.setattr(family.os, "cpu_count", lambda: 4)
    ideal = build_family(1).ideal
    serial = explore_orders(ideal, samples=3, seed=1)
    assert explore_orders(ideal, samples=3, seed=1, jobs=64) == serial
    assert explore_orders(ideal, samples=3, seed=1, jobs=0) == serial
    explore_orders(ideal, samples=10, seed=1, jobs=64)
    explore_orders(ideal, samples=10, seed=1, jobs=2)
    assert created == [3, 4, 2]
    monkeypatch.setattr(family.os, "cpu_count", lambda: None)
    explore_orders(ideal, samples=10, seed=1, jobs=64)
    explore_orders(ideal, samples=1, seed=1, jobs=64)
    assert created == [3, 4, 2]


def test_explore_orders_budget_skips():
    fam = build_family(1)
    res = explore_orders(fam.ideal, samples=5, pair_budget=1)
    assert not res.records
    assert len(res.skipped) == 5
    assert all(kind == "pairs" for _, _, kind in res.skipped)


def _grid_minors():
    # the nine 2-minors of a generic 3x3 matrix, entry (i, j) is x(3i + j + 1)
    R = PolyRing(9)
    x = lambda i, j: R.var(3 * i + j)
    pairs = list(combinations(range(3), 2))
    return Ideal(R, [x(a, c) * x(b, d) - x(a, d) * x(b, c)
                     for a, b in pairs for c, d in pairs])


# not homogeneous; orders in one Groebner cone can need different numbers of
# S-pair reductions: (2,3,1) needs 5, (5,2,2) in the same cone needs 13
MIXED = "vars: 3\nx1^2 - x2*x3\nx2^2 - x1*x3 + x3\nx1*x2 - x3^2\n"


def _record_walk(monkeypatch):
    """Wrap family._cone_walk and family.buchberger; returns the list of
    (weights, answers) walks and the list of buchberger calls."""
    walks, calls = [], []
    walk = family._cone_walk

    def recorded(ideal, weight_list, pair_budget, workers):
        out = walk(ideal, weight_list, pair_budget, workers)
        walks.append((weight_list, out))
        return out

    def counted(*args, **kwargs):
        calls.append(args)
        return buchberger(*args, **kwargs)
    monkeypatch.setattr(family, "_cone_walk", recorded)
    monkeypatch.setattr(family, "buchberger", counted)
    return walks, calls


@pytest.mark.parametrize("ideal, samples", [(build_family(2).ideal, 200),
                                            (_grid_minors(), 40)])
def test_explore_orders_cone_cache_matches_buchberger(monkeypatch, ideal, samples):
    walks, calls = _record_walk(monkeypatch)
    res = explore_orders(ideal, samples=samples, seed=3)
    [(weight_list, answers)] = walks
    assert len(answers) == samples
    lex = LexOrder(tuple(range(ideal.ring.n)))
    for w, (kind, init, gb_size) in zip(weight_list, answers):
        gb = buchberger(ideal, WeightOrder(w, lex))
        assert kind is None
        assert (init, gb_size) == (initial_ideal(gb), len(gb))
    assert len(res.records) <= len(calls) < samples


def test_explore_orders_budget_determinism():
    ideal = parse_ideal_text(MIXED)
    serial = explore_orders(ideal, samples=12, seed=4, pair_budget=8)
    assert serial.records and serial.skipped
    assert explore_orders(ideal, samples=12, seed=4, pair_budget=8, jobs=2) == serial


def test_explore_orders_cached_sample_spends_no_budget(monkeypatch):
    ideal = parse_ideal_text(MIXED)
    walks, _ = _record_walk(monkeypatch)
    res = explore_orders(ideal, samples=12, seed=4, pair_budget=8)
    [(weight_list, answers)] = walks
    over = set()
    for i, w in enumerate(weight_list):
        try:
            buchberger(ideal, WeightOrder(w, LexOrder((0, 1, 2))), 8)
        except BudgetExceededError:
            over.add(i)
    ran_out = [i for i, (kind, _, _) in enumerate(answers) if kind is not None]
    assert [i for i, _, _ in res.skipped] == ran_out
    # every skipped sample runs out on its own, and some that would run
    # out were answered from the cache
    assert set(ran_out) < over


def test_cone_cache_keys_polynomial_with_its_mark():
    # x1 + x2 is the reduced basis under every order, marked x1 or x2
    R = PolyRing(2)
    ideal = Ideal(R, [R.var(0) + R.var(1)])
    cache = family._ConeCache()
    for w in ((2, 1), (1, 2)):
        cache.add(buchberger(ideal, WeightOrder(w, LexOrder((0, 1)))))
    assert len(cache.tests) == 2
    x1, x2 = MonomialIdeal(2, [(1, 0)]), MonomialIdeal(2, [(0, 1)])
    assert cache.lookup((1, 3))[1] == x2
    assert cache.lookup((3, 1))[1] == x1
    assert cache.lookup((2, 2))[1] == x1  # a weight tie goes to lex


def test_cone_walk_wave_rechecks_members(monkeypatch):
    """Two orders in one cone sent in one wave: the second runs out of
    budget, but the re-check answers it from the first one's basis, as the
    serial walk does. The pool is a stub, so no process starts."""
    class StubPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(family, "ProcessPoolExecutor", StubPool)
    ideal = parse_ideal_text(MIXED)
    with pytest.raises(BudgetExceededError):
        buchberger(ideal, WeightOrder((5, 2, 2), LexOrder((0, 1, 2))), 5)
    weights = [(2, 3, 1), (5, 2, 2)]
    serial = family._cone_walk(ideal, weights, 5, 1)
    assert family._cone_walk(ideal, weights, 5, 2) == serial
    assert serial[0] == serial[1] and serial[1][0] is None


def test_explore_orders_rejects_bad_bound():
    fam = build_family(1)
    with pytest.raises(ValueError):
        explore_orders(fam.ideal, samples=1, weight_bound=0)


def test_chain_lattice_trivial_ideal():
    D = chain_lattice(3)
    assert D.incomparable_pairs() == []
    I = join_meet_ideal(D)
    assert I.generators == ()


def test_grid_lattice_diamond():
    D = grid_lattice(2, 2)
    assert D.elements == ("n0_0", "n0_1", "n1_0", "n1_1")
    assert D.incomparable_pairs() == [(1, 2)]
    I = join_meet_ideal(D)
    assert len(I.generators) == 1
    assert I.generators[0] == parse_polynomial("x2*x3 - x1*x4", I.ring)


def test_divisor_lattice_12():
    D = divisor_lattice(12)
    assert D.elements == ("1", "2", "3", "4", "6", "12")
    pairs = D.incomparable_pairs()
    # oracle: incomparability under divisibility, computed directly
    vals = [int(s) for s in D.elements]
    expected = [(i, j) for i in range(6) for j in range(i + 1, 6)
                if vals[i] % vals[j] and vals[j] % vals[i]]
    assert pairs == expected
    assert len(pairs) == 3
    assert len(join_meet_ideal(D).generators) == 3
    # leq agrees with divisibility everywhere
    for i in range(6):
        for j in range(6):
            assert D.leq[i][j] == (vals[j] % vals[i] == 0)


def test_lattice_rejects_pentagon():
    labels = ["bot", "a", "b", "c", "top"]
    covers = [("bot", "a"), ("a", "b"), ("b", "top"), ("bot", "c"), ("c", "top")]
    with pytest.raises(LatticeError, match="not distributive"):
        DistributiveLattice.from_covers(labels, covers)


def test_lattice_rejects_non_lattices():
    with pytest.raises(LatticeError, match="no meet"):
        DistributiveLattice.from_covers(["a", "b", "top"],
                                        [("a", "top"), ("b", "top")])
    with pytest.raises(LatticeError, match="not a partial order"):
        DistributiveLattice.from_covers(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(LatticeError, match="unknown element"):
        DistributiveLattice.from_covers(["a"], [("a", "z")])
    with pytest.raises(LatticeError, match="duplicate"):
        DistributiveLattice.from_covers(["a", "a"], [])
    with pytest.raises(LatticeError, match="limited"):
        chain_lattice(21)


def test_grid_join_meet_quotient_is_cohen_macaulay():
    """Degenerating a join-meet ideal by weights and measuring the initial
    monomial quotient: depth equals dimension here."""
    D = grid_lattice(2, 3)
    I = join_meet_ideal(D)
    n = I.ring.n
    order = WeightOrder((1,) * n, LexOrder(tuple(range(n))))
    init = initial_ideal(buchberger(I, order))
    rep = invariant_report(init)
    assert rep.dim == 4
    assert rep.depth == rep.dim
    assert rep.cohen_macaulay
