"""Acceptance gate: eight end-to-end criteria, one printed verdict line each.

Every test computes its verdict first, prints a single
"ACCEPTANCE <k> PASS/FAIL: <detail>" line on the real terminal, then
asserts. Frozen numbers here were cross-checked against independent
routes (Taylor strands, direct enumeration, hand expansion) before being
written down.
"""

import json
import math
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache

from gbdepth.cli import main
from gbdepth.family import build_family, explore_orders, verify_depth_range, verify_one
from gbdepth.groebner import buchberger, verify_gb
from gbdepth.invariants import (betti_table, h_polynomial, hilbert_numerator,
                                invariant_report, krull_dimension,
                                reg_via_h_polynomial)
from gbdepth.orders import LexOrder, WeightOrder, block_weight_order
from gbdepth.parsing import parse_polynomial
from gbdepth.rings import Ideal, MonomialIdeal, mono_degree
from gbdepth.taylor import taylor_betti_table


def _cli_argv(*tail):
    exe = shutil.which("gbdepth")
    head = [exe] if exe else [sys.executable, "-m", "gbdepth.cli"]
    return head + list(tail)


def _verdict(capsys, k, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {k} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {k}: {detail}"


@lru_cache(maxsize=None)
def _depth_range(d):
    return verify_depth_range(d)


def test_criterion_1_first_block(capsys):
    """d=1: both reduced bases exactly, depths 0 and 1, CLI under a second."""
    fam = build_family(1)
    gb0 = set(buchberger(fam.ideal, block_weight_order(1, 0)).elements)
    gb1 = set(buchberger(fam.ideal, block_weight_order(1, 1)).elements)
    want0 = {parse_polynomial(s, fam.ring) for s in
             ("x1^2 - x2*x3", "x1*x2 - x3^2", "x1*x3 - x2^2", "x2^3 - x3^3")}
    want1 = {parse_polynomial(s, fam.ring) for s in
             ("x2*x3 - x1^2", "x2^2 - x1*x3", "x3^2 - x1*x2")}
    res = _depth_range(1)
    depths = [rep.depth for rep in res.reports]

    start = time.perf_counter()
    proc = subprocess.run(_cli_argv("verify", "--d", "1"),
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - start

    ok = (gb0 == want0 and gb1 == want1 and depths == [0, 1]
          and proc.returncode == 0 and elapsed < 1.0)
    _verdict(capsys, 1, ok,
             f"gb sizes {len(gb0)}/{len(gb1)}, depths {depths}, "
             f"cli exit {proc.returncode} in {elapsed:.2f}s")


def test_criterion_2_depth_sweep_d2_d3(capsys):
    """Every r at d=2,3: depth=r, dim=d, claimed basis confirmed, initial
    ideal as expected; d=3 under ten seconds; direct route agrees at d=2."""
    res2 = _depth_range(2)
    start = time.perf_counter()
    res3 = verify_depth_range(3)
    elapsed3 = time.perf_counter() - start
    problems = []
    for res in (res2, res3):
        for rep in res.reports:
            if not (rep.depth == rep.r and rep.dim == res.d):
                problems.append(f"d={res.d} r={rep.r} depth={rep.depth} dim={rep.dim}")
            if not (rep.claimed_confirmed and rep.basis_equals_claimed):
                problems.append(f"d={res.d} r={rep.r} claimed basis rejected")
            if not rep.initial_matches:
                problems.append(f"d={res.d} r={rep.r} unexpected initial ideal")
    direct_ok = all(rep.direct_agrees is True for rep in res2.reports)
    ok = not problems and direct_ok and elapsed3 < 10.0
    _verdict(capsys, 2, ok,
             f"d=2 and d=3 sweeps clean, direct route agrees at d=2, "
             f"d=3 in {elapsed3:.2f}s" if ok else
             f"problems: {problems}, direct_ok={direct_ok}, d=3 {elapsed3:.2f}s")


def test_criterion_3_regularity(capsys):
    """reg = 2d - r everywhere at d=1,2,3; reg of the undegenerated quotient
    is d, through the depth=dim certificate and h(t) = (1+2t)^d exactly."""
    bad = []
    for d in (1, 2, 3):
        res = _depth_range(d)
        for rep in res.reports:
            if rep.reg != 2 * d - rep.r:
                bad.append(f"d={d} r={rep.r} reg={rep.reg}")
        top = res.reports[-1]
        binomial = tuple(math.comb(d, j) * 2 ** j for j in range(d + 1))
        if not (top.depth == top.dim == d):
            bad.append(f"d={d} certificate depth={top.depth} dim={top.dim}")
        if h_polynomial(top.initial) != binomial:
            bad.append(f"d={d} h={h_polynomial(top.initial)} != {binomial}")
        if reg_via_h_polynomial(top.initial, cm_certified=True) != d:
            bad.append(f"d={d} certified reg != {d}")
        if res.reg_original != d:
            bad.append(f"d={d} reg_original={res.reg_original}")
    _verdict(capsys, 3, not bad,
             "reg = 2d - r at d=1,2,3 and reg(S/I) = d with h = (1+2t)^d"
             if not bad else f"failures: {bad}")


def test_criterion_4_hilbert_invariance(capsys):
    """The Hilbert numerator is the same for every r (d=1,2) and equals the
    hand expansion of (1+2t)^d (1-t)^(2d)."""
    bad = []
    for d in (1, 2):
        expect = [0] * (3 * d + 1)
        for j in range(d + 1):
            for k in range(2 * d + 1):
                expect[j + k] += math.comb(d, j) * 2 ** j \
                    * math.comb(2 * d, k) * (-1) ** k
        expect = tuple(expect)
        numerators = {rep.hilbert_numerator for rep in _depth_range(d).reports}
        if len(numerators) != 1:
            bad.append(f"d={d}: numerator varies with r: {sorted(numerators)}")
        elif next(iter(numerators)) != expect:
            bad.append(f"d={d}: {next(iter(numerators))} != {expect}")
    _verdict(capsys, 4, not bad,
             "one numerator per d, equal to (1+2t)^d(1-t)^(2d)"
             if not bad else "; ".join(bad))


def test_criterion_5_betti_cross_oracle(capsys):
    """Koszul vs Taylor tables entry-for-entry on 50+ random monomial
    ideals, with the depth+pd and alternating-sum identities on each."""
    rng = random.Random(2024)
    checked = 0
    bad = []
    while checked < 50:
        n = rng.randint(2, 4)
        gens = [tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(1, 5))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        J = MonomialIdeal(n, gens)
        checked += 1
        rep = invariant_report(J)
        if rep.betti != taylor_betti_table(J):
            bad.append(f"table mismatch on {J!r}")
        if rep.depth + rep.pd != n or not 0 <= rep.depth <= rep.dim <= n:
            bad.append(f"depth/pd identity broken on {J!r}")
        alt = [0] * 20
        for (i, a), v in rep.betti.entries.items():
            alt[mono_degree(a)] += v if i % 2 == 0 else -v
        while alt and alt[-1] == 0:
            alt.pop()
        if tuple(alt) != hilbert_numerator(J):
            bad.append(f"alternating sum mismatch on {J!r}")
    _verdict(capsys, 5, not bad,
             f"{checked} random monomial ideals, both Betti routes and both "
             "identities agree" if not bad else f"failures: {bad[:3]}")


def test_criterion_6_groebner_self_consistency(capsys):
    """50+ random binomial ideals: output passes the three-part basis check
    and is invariant under generator permutation and rescaling."""
    rng = random.Random(99)

    def random_mono(n):
        while True:
            m = tuple(rng.randint(0, 3) for _ in range(n))
            if 0 < sum(m) <= 3:
                return m

    checked = 0
    bad = []
    while checked < 50:
        n = rng.randint(2, 4)
        from gbdepth.rings import PolyRing
        ring = PolyRing(n)
        gens = []
        for _ in range(rng.randint(2, 3)):
            m1, m2 = random_mono(n), random_mono(n)
            if m1 == m2:
                continue
            c = Fraction(rng.choice((1, -1, 2, -2)))
            gens.append(ring.poly([(m1, Fraction(1)), (m2, c)]))
        if not gens:
            continue
        checked += 1
        ideal = Ideal(ring, gens)
        order = WeightOrder(tuple(rng.randint(1, 4) for _ in range(n)),
                            LexOrder(tuple(range(n))))
        gb = buchberger(ideal, order)
        if not verify_gb(gb.elements, ideal, gb).confirmed:
            bad.append(f"self-check failed at instance {checked}")
            continue
        shuffled = list(gens)
        rng.shuffle(shuffled)
        scaled = [g * Fraction(rng.randint(1, 5), rng.randint(1, 5))
                  for g in shuffled]
        gb2 = buchberger(Ideal(ring, scaled), order)
        if set(gb2.elements) != set(gb.elements):
            bad.append(f"presentation dependence at instance {checked}")
    _verdict(capsys, 6, not bad,
             f"{checked} random binomial ideals verified and "
             "presentation-independent" if not bad else f"failures: {bad[:3]}")


def test_criterion_7_misprint_refutation(capsys):
    """The uncorrected claimed set at (d=2, r=0) is refuted with a concrete
    witness element; the corrected set is confirmed. The CLI flag agrees."""
    literal = verify_one(2, 0, misprinted=True)
    witnesses = [f.detail for f in literal.claimed_failures
                 if f.kind == "membership"]
    named = any("x2*x3 - x3^2" in w for w in witnesses)
    corrected = verify_one(2, 0)

    cli_literal = main(["verify", "--d", "2", "--r", "0", "--paper-literal"])
    cli_corrected = main(["verify", "--d", "2", "--r", "0"])
    out = capsys.readouterr().out

    ok = (not literal.claimed_confirmed and named and corrected.passed
          and cli_literal == 1 and cli_corrected == 0
          and "x2*x3 - x3^2" in out)
    _verdict(capsys, 7, ok,
             "uncorrected set refuted (witness x2*x3 - x3^2 outside the "
             "ideal), corrected set confirmed, CLI exits 1/0"
             if ok else f"confirmed={literal.claimed_confirmed} "
             f"named={named} corrected={corrected.passed} "
             f"cli={cli_literal}/{cli_corrected}")


def test_criterion_8_exploration_semicontinuity(capsys):
    """200 seeded weight samples on the d=1 family: depths stay in {0, 1},
    regularity never drops below 1, and the run is fully deterministic."""
    fam = build_family(1)
    res = explore_orders(fam.ideal, samples=200, seed=0)
    res_again = explore_orders(fam.ideal, samples=200, seed=0)
    depths_ok = set(res.depth_values) <= {0, 1} and len(res.records) > 0
    regs_ok = all(rec.reg >= 1 for rec in res.records)

    argv = _cli_argv("explore", "--d", "1", "--samples", "200",
                     "--format", "structured")
    out1 = subprocess.run(argv, capture_output=True, text=True)
    out2 = subprocess.run(argv, capture_output=True, text=True)
    cli_ok = (out1.returncode == 0 and out1.stdout == out2.stdout
              and json.loads(out1.stdout)["depth_values"] == list(res.depth_values))

    ok = depths_ok and regs_ok and res == res_again and cli_ok
    _verdict(capsys, 8, ok,
             f"depth spectrum {list(res.depth_values)} over "
             f"{len(res.records)} distinct initial ideals, reg >= 1 "
             "everywhere, byte-identical reruns" if ok else
             f"depths_ok={depths_ok} regs_ok={regs_ok} "
             f"deterministic={res == res_again} cli_ok={cli_ok}")
