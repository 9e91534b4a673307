"""Buchberger completion, normal forms, initial ideals, basis verification.

Pair selection uses the normal strategy (smallest lcm under the active
order). Each pair is keyed once, when it is formed, into a heap; a pair
whose leading monomials are coprime is never queued (Buchberger's first
criterion), and the chain criterion discards queued pairs as they come
out. `verify_gb` likewise checks only the claimed pairs whose leading
monomials are not coprime. The returned basis is always the reduced one:
minimal, monic, fully tail-reduced, sorted by ascending leading monomial,
hence unique for the ideal and order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import BudgetExceededError
from .orders import MonomialOrder, validate_order
from .rings import (Ideal, MonomialIdeal, Polynomial, PolyRing, coprime,
                    mono_div, mono_divides, mono_lcm)

DEFAULT_PAIR_BUDGET = 10**6


def divmod_poly(p: Polynomial, divisors, order: MonomialOrder):
    """Divide p by an ordered list of divisors: returns (quotients, remainder)
    with p == sum(q*d) + remainder and no remainder term divisible by any
    divisor's leading monomial. Divisors are tried in list order at every
    step, so the output is deterministic."""
    ring = p.ring
    if any(d.is_zero for d in divisors):
        raise ValueError("zero polynomial among divisors")
    lead = [d.leading_term(order) for d in divisors]
    quotients = [ring.zero()] * len(divisors)
    rem_terms = []
    work = p
    while not work.is_zero:
        lm, lc = work.leading_term(order)
        for idx, (glm, glc) in enumerate(lead):
            if mono_divides(glm, lm):
                cm = mono_div(lm, glm)
                cc = lc / glc
                quotients[idx] = quotients[idx] + ring.monomial(cm, cc)
                work = work - divisors[idx].mul_term(cc, cm)
                break
        else:
            rem_terms.append((lm, lc))
            work = work - ring.monomial(lm, lc)
    return quotients, ring.poly(rem_terms)


def normal_form(p: Polynomial, divisors, order: MonomialOrder) -> Polynomial:
    """Remainder of p on division by the divisors (full tail reduction)."""
    if not divisors:
        return p
    return divmod_poly(p, list(divisors), order)[1]


def _top_reduce(p: Polynomial, lead, basis, order: MonomialOrder) -> Polynomial:
    # reduce only the leading term; used inside the completion loop
    work = p
    while not work.is_zero:
        lm, lc = work.leading_term(order)
        for idx, (glm, glc) in enumerate(lead):
            if mono_divides(glm, lm):
                work = work - basis[idx].mul_term(lc / glc, mono_div(lm, glm))
                break
        else:
            return work
    return work


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """S(f, g): both leading terms scaled to the lcm and cancelled."""
    lf, cf = f.leading_term(order)
    lg, cg = g.leading_term(order)
    lcm = mono_lcm(lf, lg)
    one = f.ring.field.one
    return f.mul_term(one / cf, mono_div(lcm, lf)) - g.mul_term(one / cg, mono_div(lcm, lg))


@dataclass(frozen=True)
class GroebnerBasis:
    ring: PolyRing
    order: MonomialOrder
    elements: tuple

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def leading_monos(self):
        return tuple(g.leading_mono(self.order) for g in self.elements)


def _reduce_basis(G, order):
    # keep only elements whose leading monomial no other element's divides;
    # ascending leading monomials make one pass complete, because a proper
    # divisor is strictly smaller in any monomial order
    ranked = sorted(
        ((g.leading_mono(order), i, g) for i, g in enumerate(G)),
        key=lambda t: (order.key(t[0]), t[1]))
    minimal = []
    for lm, _, g in ranked:
        if any(mono_divides(h.leading_mono(order), lm) for h in minimal):
            continue
        minimal.append(g)
    # tail-reduce each against the others; leading monomials are untouched
    # since they are minimal, so one pass over fixed leading terms suffices
    out = list(minimal)
    for i in range(len(out)):
        others = out[:i] + out[i + 1:]
        r = normal_form(out[i], others, order) if others else out[i]
        assert not r.is_zero
        out[i] = r.monic(order)
    out.sort(key=lambda g: order.key(g.leading_mono(order)))
    return tuple(out)


def buchberger(ideal, order: MonomialOrder,
               pair_budget: int = DEFAULT_PAIR_BUDGET) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the order.

    Raises BudgetExceededError after pair_budget S-polynomial reductions.
    """
    if not isinstance(ideal, Ideal):
        gens = list(ideal)
        if not gens:
            raise ValueError("cannot infer the ring of an empty generator list")
        ideal = Ideal(gens[0].ring, gens)
    ring = ideal.ring
    order = validate_order(order, ring.n)
    G = list(ideal.generators)
    if not G:
        return GroebnerBasis(ring, order, ())
    lead = [g.leading_term(order) for g in G]
    # the queue holds (order key of the lcm, i, j), built once per pair, so
    # pairs come out by ascending lcm with ties broken by (i, j); pending
    # holds the same pairs for the chain criterion, which counts a pair that
    # is not pending (a coprime one included) as treated
    queue = []
    pending = set()

    def add_pairs(t):
        lmt = lead[t][0]
        for k in range(t):
            # first criterion: coprime leading monomials reduce to zero
            if not coprime(lead[k][0], lmt):
                heapq.heappush(queue, (order.key(mono_lcm(lead[k][0], lmt)), k, t))
                pending.add((k, t))

    for t in range(len(G)):
        add_pairs(t)
    reductions = 0
    while queue:
        _, i, j = heapq.heappop(queue)
        pending.discard((i, j))
        lcm = mono_lcm(lead[i][0], lead[j][0])
        chain = False
        for k in range(len(G)):
            if k == i or k == j:
                continue
            if (mono_divides(lead[k][0], lcm)
                    and (min(i, k), max(i, k)) not in pending
                    and (min(j, k), max(j, k)) not in pending):
                chain = True
                break
        if chain:
            continue
        reductions += 1
        if reductions > pair_budget:
            raise BudgetExceededError("pairs", pair_budget)
        h = _top_reduce(s_polynomial(G[i], G[j], order), lead, G, order)
        if not h.is_zero:
            G.append(h)
            lead.append(h.leading_term(order))
            add_pairs(len(G) - 1)
    return GroebnerBasis(ring, order, _reduce_basis(G, order))


def initial_ideal(G: GroebnerBasis) -> MonomialIdeal:
    """Ideal of leading monomials of a (confirmed) Groebner basis."""
    return MonomialIdeal(G.ring.n, G.leading_monos())


def ideal_member(p: Polynomial, G: GroebnerBasis) -> bool:
    """Membership test: the normal form against a Groebner basis vanishes
    exactly for ideal elements."""
    return normal_form(p, list(G.elements), G.order).is_zero


@dataclass(frozen=True)
class GBFailure:
    """One reason a claimed basis is not a Groebner basis of the ideal."""

    kind: str  # "zero-element" | "spair" | "generator" | "membership"
    detail: str


@dataclass(frozen=True)
class GBVerification:
    confirmed: bool
    failures: tuple


def verify_gb(claimed, ideal: Ideal, reference: GroebnerBasis) -> GBVerification:
    """Check that the claimed set is a Groebner basis of the ideal under the
    reference basis's order.

    The reference must be a Groebner basis of the same ideal, such as the
    one buchberger returns. Three independent checks, all run even after a
    failure so every defect is reported: (a) the S-polynomial of each pair
    of claimed elements whose leading monomials are not coprime reduces to
    zero against the claimed set, (b) each ideal generator reduces to zero
    against it, and (c) each claimed element really lies in the ideal
    (normal form against the reference basis). Pairs with coprime leading
    monomials are skipped: their S-polynomials always have a standard
    representation (Buchberger's first criterion), so the verdict is exact.
    """
    from .parsing import format_polynomial

    order = reference.order
    claimed = list(claimed)
    failures = []
    live = []
    for p in claimed:
        if p.is_zero:
            failures.append(GBFailure("zero-element", "claimed set contains 0"))
        else:
            live.append(p)
    lms = [p.leading_mono(order) for p in live]
    for j in range(len(live)):
        for i in range(j):
            if coprime(lms[i], lms[j]):
                continue
            rem = normal_form(s_polynomial(live[i], live[j], order), live, order)
            if not rem.is_zero:
                failures.append(GBFailure(
                    "spair",
                    f"S({format_polynomial(live[i], order)}, "
                    f"{format_polynomial(live[j], order)}) leaves remainder "
                    f"{format_polynomial(rem, order)}"))
    for g in ideal.generators:
        rem = normal_form(g, live, order) if live else g
        if not rem.is_zero:
            failures.append(GBFailure(
                "generator",
                f"ideal generator {format_polynomial(g, order)} leaves remainder "
                f"{format_polynomial(rem, order)}"))
    for p in live:
        if not ideal_member(p, reference):
            failures.append(GBFailure(
                "membership",
                f"claimed element {format_polynomial(p, order)} is not in the ideal"))
    return GBVerification(not failures, tuple(failures))
