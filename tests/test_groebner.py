"""Division, S-polynomials, Buchberger completion, verification."""

import random
from fractions import Fraction

import pytest

import gbdepth.groebner as groebner
from gbdepth.errors import BudgetExceededError, OrderError
from gbdepth.family import build_family, claimed_basis, verify_one
from gbdepth.groebner import (buchberger, divmod_poly, ideal_member,
                              initial_ideal, normal_form, s_polynomial,
                              verify_gb)
from gbdepth.orders import LexOrder, WeightOrder, block_weight_order
from gbdepth.parsing import (format_polynomial, parse_inline_ideal,
                             parse_polynomial)
from gbdepth.rings import GF, Ideal, PolyRing, coprime

R3 = PolyRing(3)
W0 = block_weight_order(1, 0)
W1 = block_weight_order(1, 1)


def _poly(text, ring=R3):
    return parse_polynomial(text, ring)


def test_division_hand_example():
    # x1^2*x2 = x2*(x1^2 - x2*x3) + x2^2*x3
    p = _poly("x1^2*x2")
    d = _poly("x1^2 - x2*x3")
    quots, rem = divmod_poly(p, [d], W0)
    assert rem == _poly("x2^2*x3")
    assert quots[0] == _poly("x2")
    assert quots[0] * d + rem == p


def test_division_remainder_property():
    rng = random.Random(21)
    order = WeightOrder((1, 2, 2), LexOrder((0, 1, 2)))
    divisors = [_poly("x1^2 - x2*x3"), _poly("x1*x2 - x3^2")]
    lead = [g.leading_mono(order) for g in divisors]
    from gbdepth.rings import mono_divides
    for _ in range(25):
        p = R3.poly([(tuple(rng.randint(0, 3) for _ in range(3)),
                      Fraction(rng.randint(-4, 4))) for _ in range(4)])
        quots, rem = divmod_poly(p, divisors, order)
        assert sum((q * d for q, d in zip(quots, divisors)), rem) == p
        for mono in rem.coeffs:
            assert not any(mono_divides(lm, mono) for lm in lead)


def test_s_polynomial_hand_example():
    f = _poly("x1^2 - x2*x3")
    g = _poly("x1*x2 - x3^2")
    assert s_polynomial(f, g, W0) == _poly("x1*x3^2 - x2^2*x3")


def test_buchberger_first_block_both_orders():
    fam = build_family(1)
    gb0 = buchberger(fam.ideal, W0)
    expected0 = {_poly("x1^2 - x2*x3"), _poly("x1*x2 - x3^2"),
                 _poly("x1*x3 - x2^2"), _poly("x2^3 - x3^3")}
    assert set(gb0.elements) == expected0
    assert initial_ideal(gb0).gens == ((1, 0, 1), (1, 1, 0), (2, 0, 0), (0, 3, 0))

    gb1 = buchberger(fam.ideal, W1)
    expected1 = {_poly("x2*x3 - x1^2"), _poly("x3^2 - x1*x2"),
                 _poly("x2^2 - x1*x3")}
    assert set(gb1.elements) == expected1
    assert initial_ideal(gb1).gens == ((0, 0, 2), (0, 1, 1), (0, 2, 0))


def test_reduced_basis_properties():
    """Reduced: monic, no term of any element divisible by another leading
    monomial, sorted by ascending leading monomial."""
    from gbdepth.rings import mono_divides
    fam = build_family(2)
    for r in (0, 1, 2):
        order = block_weight_order(2, r)
        gb = buchberger(fam.ideal, order)
        lms = [g.leading_mono(order) for g in gb.elements]
        keys = [order.key(m) for m in lms]
        assert keys == sorted(keys)
        for i, g in enumerate(gb.elements):
            assert g.leading_coeff(order) == 1
            for mono in g.coeffs:
                assert not any(mono_divides(lms[j], mono)
                               for j in range(len(lms)) if j != i)


def test_reduced_basis_invariance():
    """The reduced basis is a function of the ideal, not its presentation."""
    rng = random.Random(31)
    fam = build_family(1)
    base = buchberger(fam.ideal, W0).elements
    for _ in range(5):
        gens = list(fam.ideal.generators)
        rng.shuffle(gens)
        scaled = [g * Fraction(rng.randint(1, 9), rng.randint(1, 9)) for g in gens]
        # adding a redundant combination must not change the output either
        scaled.append(scaled[0] * scaled[1].leading_coeff(W0) + scaled[1])
        gb = buchberger(Ideal(fam.ring, scaled), W0)
        assert set(gb.elements) == set(base)


def test_normal_form_and_membership():
    fam = build_family(1)
    gb = buchberger(fam.ideal, W0)
    init = initial_ideal(gb)
    f = fam.ideal.generators[0] * _poly("x2^2 - x3") + fam.ideal.generators[2]
    assert ideal_member(f, gb)
    assert not ideal_member(_poly("x1"), gb)
    # a nonzero normal form has no term in the initial ideal (so it is the
    # canonical representative of its coset)
    rng = random.Random(8)
    for _ in range(20):
        p = R3.poly([(tuple(rng.randint(0, 3) for _ in range(3)),
                      Fraction(rng.randint(-3, 3))) for _ in range(4)])
        nf = normal_form(p, list(gb.elements), W0)
        for mono in nf.coeffs:
            assert not init.contains_mono(mono)
        assert normal_form(nf, list(gb.elements), W0) == nf


def test_zero_ideal_and_empty_divisors():
    I = Ideal(R3, [])
    gb = buchberger(I, W0)
    assert gb.elements == ()
    p = _poly("x1 + x2")
    assert normal_form(p, [], W0) == p
    assert initial_ideal(gb).is_zero


def test_verify_gb_confirms_and_refutes():
    fam = build_family(1)
    gb = buchberger(fam.ideal, W0)
    good = verify_gb(gb.elements, fam.ideal, gb)
    assert good.confirmed and not good.failures

    # dropping the completion element leaves S-pairs that do not reduce
    partial = [g for g in gb.elements if g != _poly("x2^3 - x3^3")]
    bad = verify_gb(partial, fam.ideal, gb)
    assert not bad.confirmed
    assert any(f.kind == "spair" for f in bad.failures)

    # an element outside the ideal is flagged by the membership check
    alien = list(gb.elements) + [_poly("x1 + x2")]
    bad2 = verify_gb(alien, fam.ideal, gb)
    assert any(f.kind == "membership" for f in bad2.failures)
    assert any("x1 + x2" in f.detail for f in bad2.failures)

    with_zero = list(gb.elements) + [R3.zero()]
    bad3 = verify_gb(with_zero, fam.ideal, gb)
    assert any(f.kind == "zero-element" for f in bad3.failures)


def test_buchberger_keys_each_pair_once(monkeypatch):
    # coprime cross-block pairs are never queued and each queued pair is
    # keyed once; a scan over all pending pairs on every step made 69,923
    # lcm calls at r = 0
    calls = []
    lcm = groebner.mono_lcm

    def counted(u, v):
        calls.append(None)
        return lcm(u, v)
    monkeypatch.setattr(groebner, "mono_lcm", counted)
    for r in (0, 3, 7):
        calls.clear()
        gb = buchberger(build_family(7).ideal, block_weight_order(7, r))
        assert frozenset(gb.elements) == frozenset(claimed_basis(7, r))
        assert len(calls) < 500, (r, len(calls))


def test_no_s_polynomial_of_coprime_pair(monkeypatch):
    seen = []

    def checked(f, g, order):
        seen.append(coprime(f.leading_mono(order), g.leading_mono(order)))
        return s_polynomial(f, g, order)
    monkeypatch.setattr(groebner, "s_polynomial", checked)
    for d, r in ((2, 0), (3, 1)):
        fam = build_family(d)
        gb = buchberger(fam.ideal, block_weight_order(d, r))
        verify_gb(claimed_basis(d, r, misprinted=True), fam.ideal, gb)
    assert seen and not any(seen)


def test_verify_gb_spairs_match_all_pairs_oracle():
    """Skipping coprime claimed pairs reports the same S-pair failures, in
    the same order, as reducing every pair."""
    for d, r in ((2, 0), (3, 1)):
        fam = build_family(d)
        order = block_weight_order(d, r)
        gb = buchberger(fam.ideal, order)
        claimed = list(claimed_basis(d, r, misprinted=True))
        lms = [p.leading_mono(order) for p in claimed]
        assert any(coprime(lms[i], lms[j])
                   for j in range(len(claimed)) for i in range(j))
        expected = []
        for j in range(len(claimed)):
            for i in range(j):
                rem = normal_form(s_polynomial(claimed[i], claimed[j], order),
                                  claimed, order)
                if not rem.is_zero:
                    expected.append(
                        f"S({format_polynomial(claimed[i], order)}, "
                        f"{format_polynomial(claimed[j], order)}) leaves "
                        f"remainder {format_polynomial(rem, order)}")
        got = [f.detail for f in verify_gb(claimed, fam.ideal, gb).failures
               if f.kind == "spair"]
        assert expected and got == expected
    assert verify_one(3, 1).claimed_confirmed is True
    assert verify_one(3, 1, misprinted=True).claimed_confirmed is False


def test_pair_budget():
    fam = build_family(2)
    with pytest.raises(BudgetExceededError) as e:
        buchberger(fam.ideal, block_weight_order(2, 0), pair_budget=2)
    assert e.value.kind == "pairs"


def test_invalid_order_rejected():
    fam = build_family(1)
    with pytest.raises(OrderError):
        buchberger(fam.ideal, WeightOrder((0, 1, 1)))
    with pytest.raises(OrderError):
        buchberger(fam.ideal, WeightOrder((1, 1)))


def test_prime_field_buchberger():
    fam = build_family(1, field=GF(32003))
    gb = buchberger(fam.ideal, W0)
    assert initial_ideal(gb).gens == ((1, 0, 1), (1, 1, 0), (2, 0, 0), (0, 3, 0))
    ver = verify_gb(gb.elements, fam.ideal, gb)
    assert ver.confirmed


def test_lex_elimination_shape():
    # under pure lex with x1 largest, the basis contains an x1-free element
    I = parse_inline_ideal("x1^2 - x2*x3; x1*x2 - x3^2; x1*x3 - x2^2", 3)
    gb = buchberger(I, LexOrder((0, 1, 2)))
    assert any(all(m[0] == 0 for m in g.coeffs) for g in gb.elements)
