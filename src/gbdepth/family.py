"""The d-block binomial family and everything built on top of it:
claimed reduced bases per weight order, machine verification that the
depth of the degenerated quotient sweeps 0..d, random weight-order
exploration, and join-meet ideals of distributive lattices.

Block i (0-based) lives on variables x(3i+1), x(3i+2), x(3i+3) and is
generated by a^2 - b*c, a*b - c^2, a*c - b^2 in those variables. The order
that selects depth r puts weights (1,2,2) on the first r blocks and
(1,1,1) on the rest, with a lex tie-break.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

from .errors import BudgetExceededError, InternalInvariantError, LatticeError
from .groebner import (DEFAULT_PAIR_BUDGET, buchberger, initial_ideal,
                       verify_gb)
from .invariants import (DEFAULT_LATTICE_BUDGET, betti_table,
                         h_from_numerator, invariant_report)
from .orders import LexOrder, WeightOrder, block_weight_order
from .parsing import format_order
from .rings import Ideal, MonomialIdeal, PolyRing, QQ, _is_prime

CORRECTION_NOTES = (
    "third trailing-block generator taken as a*c - b^2 in block variables "
    "(a, b, c); the b*c - c^2 variant (selected by --paper-literal) is refutable",
    "each weighted block spans exactly the three variables of its own block",
)


@dataclass(frozen=True)
class FamilyInstance:
    d: int
    ring: PolyRing
    ideal: Ideal


def build_family(d: int, field=QQ) -> FamilyInstance:
    """The defining ideal: d disjoint blocks of three binomials each."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    ring = PolyRing(3 * d, field)
    x = ring.var
    gens = []
    for i in range(d):
        a, b, c = x(3 * i), x(3 * i + 1), x(3 * i + 2)
        gens += [a * a - b * c, a * b - c * c, a * c - b * b]
    return FamilyInstance(d, ring, Ideal(ring, gens))


def claimed_basis(d: int, r: int, field=QQ, misprinted: bool = False) -> tuple:
    """The asserted reduced Groebner basis under the depth-r weight order:
    weighted blocks contribute their three reversed binomials, trailing
    blocks the original three plus one cubic. misprinted=True swaps in the
    defective third trailing-block element for refutation runs."""
    if not 0 <= r <= d:
        raise ValueError(f"r must be in 0..{d}, got {r}")
    ring = PolyRing(3 * d, field)
    x = ring.var
    out = []
    for i in range(r):
        a, b, c = x(3 * i), x(3 * i + 1), x(3 * i + 2)
        out += [b * c - a * a, b * b - a * c, c * c - a * b]
    for i in range(r, d):
        a, b, c = x(3 * i), x(3 * i + 1), x(3 * i + 2)
        third = (b * c - c * c) if misprinted else (a * c - b * b)
        out += [a * a - b * c, a * b - c * c, third, b * b * b - c * c * c]
    return tuple(out)


def expected_initial(d: int, r: int) -> MonomialIdeal:
    """Leading monomials the claimed basis should produce."""
    if not 0 <= r <= d:
        raise ValueError(f"r must be in 0..{d}, got {r}")
    n = 3 * d

    def mono(*pairs):
        e = [0] * n
        for var, power in pairs:
            e[var] = power
        return tuple(e)

    monos = []
    for i in range(d):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        if i < r:
            monos += [mono((b, 1), (c, 1)), mono((b, 2)), mono((c, 2))]
        else:
            monos += [mono((a, 2)), mono((a, 1), (b, 1)),
                      mono((a, 1), (c, 1)), mono((b, 3))]
    return MonomialIdeal(n, monos)


@dataclass(frozen=True)
class VerificationReport:
    """Everything checked for one (d, r) pair."""

    d: int
    r: int
    order_text: str
    gb_size: int
    claimed_confirmed: bool
    claimed_failures: tuple
    basis_equals_claimed: bool
    initial: MonomialIdeal
    initial_matches: bool
    dim: int
    depth: int
    reg: int
    pd: int
    hilbert_numerator: tuple
    direct_agrees: object  # bool, or None when the direct route was not run

    @property
    def passed(self) -> bool:
        ok = (self.claimed_confirmed and self.basis_equals_claimed
              and self.initial_matches and self.dim == self.d
              and self.depth == self.r and self.reg == 2 * self.d - self.r)
        if self.direct_agrees is not None:
            ok = ok and self.direct_agrees
        return ok


def verify_one(d: int, r: int, *, misprinted: bool = False,
               pair_budget: int = DEFAULT_PAIR_BUDGET,
               lattice_budget: int = DEFAULT_LATTICE_BUDGET,
               field=QQ) -> VerificationReport:
    """Compute and check a single depth level r for the d-block family.
    At d <= 2 the Betti table is also computed by the direct route, on the
    whole initial ideal, and compared with the blockwise one."""
    fam = build_family(d, field)
    order = block_weight_order(d, r)
    gb = buchberger(fam.ideal, order, pair_budget)
    init = initial_ideal(gb)
    claimed = claimed_basis(d, r, field, misprinted)
    verification = verify_gb(claimed, fam.ideal, gb)
    rep = invariant_report(init, field=field, lattice_budget=lattice_budget)
    direct = (betti_table(init, field=field, lattice_budget=lattice_budget)
              == rep.betti) if d <= 2 else None
    return VerificationReport(
        d=d, r=r,
        order_text=format_order(order),
        gb_size=len(gb),
        claimed_confirmed=verification.confirmed,
        claimed_failures=verification.failures,
        basis_equals_claimed=frozenset(gb.elements) == frozenset(claimed),
        initial=init,
        initial_matches=init == expected_initial(d, r),
        dim=rep.dim,
        depth=rep.depth,
        reg=rep.reg,
        pd=rep.pd,
        hilbert_numerator=rep.hilbert_numerator,
        direct_agrees=direct,
    )


@dataclass(frozen=True)
class DepthRangeResult:
    """Reports for r = 0..d plus the Cohen-Macaulay certificate for the
    undegenerated quotient (taken from the r = d run, where depth = dim)."""

    d: int
    reports: tuple
    cm_certificate_ok: bool
    reg_original: int
    misprinted: bool
    notes: tuple

    @property
    def all_pass(self) -> bool:
        return (all(rep.passed for rep in self.reports)
                and self.cm_certificate_ok and self.reg_original == self.d)


def verify_depth_range(d: int, *, misprinted: bool = False,
                       pair_budget: int = DEFAULT_PAIR_BUDGET,
                       lattice_budget: int = DEFAULT_LATTICE_BUDGET,
                       field=QQ, jobs: int = 1) -> DepthRangeResult:
    """Run every r in 0..d and certify the regularity of the original
    quotient: the r = d degeneration has depth = dim, so the quotient is
    Cohen-Macaulay and its regularity is the h-polynomial degree."""
    worker = partial(verify_one, d, misprinted=misprinted,
                     pair_budget=pair_budget, lattice_budget=lattice_budget,
                     field=field)
    levels = list(range(d + 1))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(levels))) as pool:
            reports = list(pool.map(worker, levels))
    else:
        reports = [worker(r) for r in levels]
    cert = reports[-1]
    cm_ok = cert.depth == d and cert.dim == d
    # deg h of the r = d report's K-polynomial; h_from_numerator checks the
    # pole order against the codimension
    reg_original = len(h_from_numerator(cert.hilbert_numerator, cert.initial.n,
                                        cert.dim)) - 1
    notes = CORRECTION_NOTES
    if misprinted:
        notes = notes + (
            "running with the defective trailing-block generator on purpose; "
            "verification is expected to fail with witnesses",)
    return DepthRangeResult(d=d, reports=tuple(reports), cm_certificate_ok=cm_ok,
                            reg_original=reg_original, misprinted=misprinted,
                            notes=notes)


# ---------------------------------------------------------------------------
# random weight-order exploration


@dataclass(frozen=True)
class ExplorationRecord:
    sample_index: int
    weights: tuple
    order_text: str
    gb_size: int
    initial: MonomialIdeal
    depth: int
    reg: int
    dim: int


@dataclass(frozen=True)
class ExplorationResult:
    n: int
    samples: int
    records: tuple  # one per distinct initial ideal, first occurrence wins
    skipped: tuple  # (sample_index, weights, budget kind)

    @property
    def depth_values(self) -> tuple:
        return tuple(sorted({rec.depth for rec in self.records}))


def _explore_gb(ideal, pair_budget, weights):
    order = WeightOrder(weights, LexOrder(tuple(range(ideal.ring.n))))
    try:
        return None, buchberger(ideal, order, pair_budget)
    except BudgetExceededError as exc:
        return exc.kind, None


class _ConeCache:
    """Reduced bases already computed under orders WeightOrder(w, lex), each
    marked with the leading monomial of every element. An order that keeps
    every mark of a basis leading lies in that basis's Groebner cone, and
    the basis is then the reduced basis for that order too (Sturmfels,
    Groebner Bases and Convex Polytopes, ch. 1-2), so the test is exact.
    Marked polynomials are stored once, keyed by (polynomial, mark); a basis
    holds ids into that table."""

    def __init__(self):
        self.ids = {}      # (polynomial, mark) -> id
        self.tests = []    # id -> (sparse mark - t, mark >lex t) per other term t
        self.bases = []    # (ids, (None, initial ideal, basis size))

    def add(self, gb):
        ids = []
        for g, mark in zip(gb.elements, gb.leading_monos()):
            if (g, mark) not in self.ids:
                self.ids[g, mark] = len(self.tests)
                self.tests.append(tuple(
                    ([(v, a - b) for v, (a, b) in enumerate(zip(mark, t)) if a != b],
                     mark > t)
                    for t in g.coeffs if t != mark))
            ids.append(self.ids[g, mark])
        answer = (None, initial_ideal(gb), len(gb))
        self.bases.append((ids, answer))
        return answer

    def lookup(self, weights):
        """The answer of the first basis whose cone holds WeightOrder(weights,
        lex), or None. Each mark is tested at most once per call."""
        leading = {}
        for ids, answer in self.bases:
            for i in ids:
                ok = leading.get(i)
                if ok is None:
                    ok = leading[i] = _mark_leads(self.tests[i], weights)
                if not ok:
                    break
            else:
                return answer
        return None


def _mark_leads(tests, weights):
    # the mark beats each other term on weight, or ties on weight and wins on lex
    for diff, lex_wins in tests:
        w = sum(weights[v] * e for v, e in diff)
        if w < 0 or (w == 0 and not lex_wins):
            return False
    return True


def _cone_walk(ideal, weight_list, pair_budget, workers):
    """(budget kind or None, initial ideal, basis size) per weight vector.
    Sample i is answered from the cone cache exactly when its order lies in
    the cone of a basis computed for some sample j < i; only the others run
    buchberger, in waves of at most one per worker. Members of a wave are
    checked again, in order, against the bases of the members before them,
    so the answers do not depend on the number of workers."""
    runner = partial(_explore_gb, ideal, pair_budget)
    cache = _ConeCache()
    out = [None] * len(weight_list)
    pos = 0
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else nullcontext()) as pool:
        mapper = pool.map if pool is not None else map
        while pos < len(weight_list):
            wave = []
            while pos < len(weight_list) and len(wave) < workers:
                out[pos] = cache.lookup(weight_list[pos])
                if out[pos] is None:
                    wave.append(pos)
                pos += 1
            results = list(mapper(runner, [weight_list[i] for i in wave]))
            for k, (i, (kind, gb)) in enumerate(zip(wave, results)):
                # the first member saw the cache as it still is
                out[i] = cache.lookup(weight_list[i]) if k else None
                if out[i] is None:
                    out[i] = (kind, None, 0) if kind else cache.add(gb)
    return out


def _check_theorems(ideal, reports):
    """Cross-check the reports of distinct initial ideals of one homogeneous
    ideal: they share the Hilbert numerator, and the squarefree ones share
    depth and regularity (Conca & Varbaro, Invent. Math. 2020). Both need
    the standard grading: x1 - x2*x3 has the squarefree initial ideals (x1)
    and (x2*x3), of regularity 0 and 1."""
    if not reports or not ideal.is_homogeneous():
        return
    first = reports[0][1]
    squarefree = [rep for init, rep in reports
                  if all(e <= 1 for m in init.gens for e in m)]
    for init, rep in reports:
        if rep.hilbert_numerator != first.hilbert_numerator:
            raise InternalInvariantError(
                f"initial ideals {reports[0][0]!r} and {init!r} of a homogeneous "
                "ideal have different Hilbert numerators")
    for rep in squarefree[1:]:
        if (rep.depth, rep.reg) != (squarefree[0].depth, squarefree[0].reg):
            raise InternalInvariantError(
                "two squarefree initial ideals differ in depth or regularity: "
                f"{(squarefree[0].depth, squarefree[0].reg)} vs {(rep.depth, rep.reg)}")


def explore_orders(ideal: Ideal, samples: int = 200, weight_bound: int = 5,
                   seed: int = 0, *, pair_budget: int = DEFAULT_PAIR_BUDGET,
                   lattice_budget: int = DEFAULT_LATTICE_BUDGET,
                   field=QQ, jobs: int = 1) -> ExplorationResult:
    """Sample uniform weight vectors in [1, weight_bound]^n (fixed seed,
    lex tie-break), compute each initial ideal and its invariants, and
    deduplicate by initial ideal. A sample whose order lies in the Groebner
    cone of a basis already computed reuses it without a completion, so it
    spends no pair budget. Budget blowups are recorded as skipped, never
    silently dropped. Output is a pure function of the arguments,
    regardless of jobs."""
    if weight_bound < 1:
        raise ValueError(f"weight bound must be >= 1, got {weight_bound}")
    n = ideal.ring.n
    rng = random.Random(seed)
    weight_list = [tuple(rng.randint(1, weight_bound) for _ in range(n))
                   for _ in range(samples)]
    workers = max(1, min(jobs, os.cpu_count() or 1, samples))
    raw = _cone_walk(ideal, weight_list, pair_budget, workers)
    records = []
    reports = []
    skipped = []
    seen = set()
    for idx, (weights, (kind, init, gb_size)) in enumerate(zip(weight_list, raw)):
        if kind is not None:
            skipped.append((idx, weights, kind))
            continue
        if init in seen:
            continue
        seen.add(init)
        try:
            rep = invariant_report(init, field=field, lattice_budget=lattice_budget)
        except BudgetExceededError as exc:
            skipped.append((idx, weights, exc.kind))
            continue
        reports.append((init, rep))
        order_text = format_order(WeightOrder(weights, LexOrder(tuple(range(n)))))
        records.append(ExplorationRecord(idx, weights, order_text, gb_size,
                                         init, rep.depth, rep.reg, rep.dim))
    _check_theorems(ideal, reports)
    return ExplorationResult(n=n, samples=samples, records=tuple(records),
                             skipped=tuple(skipped))


# ---------------------------------------------------------------------------
# distributive lattices and join-meet ideals


@dataclass(frozen=True)
class DistributiveLattice:
    """Finite distributive lattice given by cover relations; meet and join
    tables are precomputed and the axioms (including distributivity) are
    verified exhaustively on construction."""

    elements: tuple
    leq: tuple   # leq[i][j] is True when element i <= element j
    meet: tuple  # index tables
    join: tuple

    @classmethod
    def from_covers(cls, elements, covers, max_size: int = 20) -> "DistributiveLattice":
        elements = tuple(elements)
        ne = len(elements)
        if ne == 0:
            raise LatticeError("lattice needs at least one element")
        if ne > max_size:
            raise LatticeError(
                f"lattice has {ne} elements; exhaustive checking is limited to {max_size}")
        index = {}
        for i, lab in enumerate(elements):
            if lab in index:
                raise LatticeError(f"duplicate element {lab!r}")
            index[lab] = i
        leq = [[i == j for j in range(ne)] for i in range(ne)]
        for lo, hi in covers:
            if lo not in index or hi not in index:
                missing = lo if lo not in index else hi
                raise LatticeError(f"cover relation mentions unknown element {missing!r}")
            leq[index[lo]][index[hi]] = True
        for k in range(ne):
            for i in range(ne):
                if leq[i][k]:
                    row_i, row_k = leq[i], leq[k]
                    for j in range(ne):
                        if row_k[j]:
                            row_i[j] = True
        for i in range(ne):
            for j in range(i + 1, ne):
                if leq[i][j] and leq[j][i]:
                    raise LatticeError(
                        f"not a partial order: cycle through {elements[i]!r} "
                        f"and {elements[j]!r}")

        def bound(i, j, downward):
            if downward:
                cands = [k for k in range(ne) if leq[k][i] and leq[k][j]]
                best = [m for m in cands if all(leq[k][m] for k in cands)]
            else:
                cands = [k for k in range(ne) if leq[i][k] and leq[j][k]]
                best = [m for m in cands if all(leq[m][k] for k in cands)]
            if len(best) != 1:
                kind = "meet" if downward else "join"
                raise LatticeError(
                    f"elements {elements[i]!r} and {elements[j]!r} have no {kind}")
            return best[0]

        meet = [[bound(i, j, True) for j in range(ne)] for i in range(ne)]
        join = [[bound(i, j, False) for j in range(ne)] for i in range(ne)]
        for a in range(ne):
            for b in range(ne):
                for c in range(ne):
                    left = meet[a][join[b][c]]
                    right = join[meet[a][b]][meet[a][c]]
                    if left != right:
                        raise LatticeError(
                            "not distributive: at "
                            f"({elements[a]!r}, {elements[b]!r}, {elements[c]!r}) "
                            f"a^(bvc) = {elements[left]!r} but "
                            f"(a^b)v(a^c) = {elements[right]!r}")
        return cls(elements,
                   tuple(tuple(row) for row in leq),
                   tuple(tuple(row) for row in meet),
                   tuple(tuple(row) for row in join))

    def incomparable_pairs(self) -> list:
        ne = len(self.elements)
        return [(i, j) for i in range(ne) for j in range(i + 1, ne)
                if not self.leq[i][j] and not self.leq[j][i]]


def join_meet_ideal(D: DistributiveLattice, field=QQ) -> Ideal:
    """One variable per lattice element; one binomial
    x_a*x_b - x_(a^b)*x_(avb) per incomparable pair."""
    n = len(D.elements)
    ring = PolyRing(n, field)
    x = ring.var
    gens = [x(i) * x(j) - x(D.meet[i][j]) * x(D.join[i][j])
            for i, j in D.incomparable_pairs()]
    return Ideal(ring, gens)


def chain_lattice(k: int) -> DistributiveLattice:
    labels = [f"a{i}" for i in range(1, k + 1)]
    covers = [(labels[i], labels[i + 1]) for i in range(k - 1)]
    return DistributiveLattice.from_covers(labels, covers)


def grid_lattice(p: int, q: int) -> DistributiveLattice:
    """Product of two chains; always distributive."""
    labels = [f"n{i}_{j}" for i in range(p) for j in range(q)]
    covers = []
    for i in range(p):
        for j in range(q):
            if i + 1 < p:
                covers.append((f"n{i}_{j}", f"n{i + 1}_{j}"))
            if j + 1 < q:
                covers.append((f"n{i}_{j}", f"n{i}_{j + 1}"))
    return DistributiveLattice.from_covers(labels, covers)


def divisor_lattice(m: int) -> DistributiveLattice:
    """Divisors of m ordered by divisibility."""
    if m < 1:
        raise ValueError(f"need a positive integer, got {m}")
    divs = [k for k in range(1, m + 1) if m % k == 0]
    labels = [str(k) for k in divs]
    covers = [(str(a), str(b))
              for a in divs for b in divs
              if b != a and b % a == 0 and _is_prime(b // a)]
    return DistributiveLattice.from_covers(labels, covers)
