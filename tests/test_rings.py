"""Arithmetic foundations: monomials, fields, polynomials, monomial ideals."""

import random
from fractions import Fraction

import pytest

from gbdepth.errors import RingMismatchError
from gbdepth.rings import (GF, Ideal, MonomialIdeal, PolyRing, QQ, coprime,
                           format_mono, mono_degree, mono_div, mono_divides,
                           mono_gcd, mono_lcm, mono_mul, mono_support,
                           unit_mono)


def test_mono_helpers():
    assert mono_mul((1, 2), (0, 3)) == (1, 5)
    assert mono_divides((1, 0), (2, 1))
    assert not mono_divides((1, 2), (2, 1))
    assert mono_div((2, 3), (1, 1)) == (1, 2)
    with pytest.raises(ValueError):
        mono_div((1, 0), (0, 1))
    assert mono_lcm((2, 0), (1, 3)) == (2, 3)
    assert mono_gcd((2, 1), (1, 3)) == (1, 1)
    assert mono_degree((2, 3)) == 5
    assert mono_support((0, 2, 0, 1)) == (1, 3)
    assert unit_mono(3) == (0, 0, 0)
    assert coprime((1, 0), (0, 2))
    assert not coprime((1, 1), (0, 2))


def test_format_mono():
    assert format_mono((0, 0)) == "1"
    assert format_mono((1, 0)) == "x1"
    assert format_mono((2, 0, 1)) == "x1^2*x3"


def test_prime_field():
    F = GF(32003)
    a = F(5)
    b = F(32000)
    assert a + b == F(2)
    assert a * b == F(5 * 32000)
    assert (a / b) * b == a
    assert -a == F(-5)
    assert bool(F(0)) is False and bool(a) is True
    assert F(Fraction(1, 2)) * F(2) == F(1)
    with pytest.raises(ValueError):
        GF(32004)
    with pytest.raises(ZeroDivisionError):
        a / F(0)


def test_polynomial_ops():
    R = PolyRing(2)
    x1, x2 = R.var(0), R.var(1)
    p = x1 * x1 - x2
    q = x1 * x1 + x2
    assert p + q == 2 * x1 * x1
    assert p - p == R.zero()
    assert (p * q).coeff_of((4, 0)) == 1
    assert (p * q).coeff_of((0, 2)) == -1
    assert p.mul_term(Fraction(1, 2), (0, 1)).coeff_of((2, 1)) == Fraction(1, 2)
    assert p.total_degree() == 2
    assert R.zero().total_degree() == -1
    assert (x1 * x1 - x2 * x2).is_homogeneous()
    assert not p.is_homogeneous()


def test_polynomial_repr():
    # repr is format_polynomial in canonical term order; these strings are
    # the output of the printer repr used to carry itself
    expected = {
        QQ: ["0", "1", "3", "-1", "x1", "-x1", "x1*x2 - x3^2 + 7",
             "2*x1^2 - 3*x2 - 1", "-x1 + 4*x2 + x3 - 2",
             "3/2*x1 - 1/2*x2 - 5/3"],
        GF(5): ["0", "1", "3", "4", "x1", "4*x1", "x1*x2 + 4*x3^2 + 2",
                "2*x1^2 + 2*x2 + 4", "4*x1 + 4*x2 + x3 + 3", "4*x1 + 2*x2"],
    }
    for field, texts in expected.items():
        R = PolyRing(3, field)
        x = R.var
        one = R.monomial((0, 0, 0), 1)
        polys = [R.zero(), one, one * 3, -one, x(0), -x(0),
                 x(0) * x(1) - x(2) * x(2) + 7,
                 x(0) * x(0) * 2 - x(1) * 3 - 1,
                 x(2) - x(0) + x(1) * 4 - 2,
                 x(0) * Fraction(3, 2) - x(1) * Fraction(1, 2) + Fraction(-5, 3)]
        assert [repr(p) for p in polys] == texts


def test_polynomial_merges_and_drops_zeros():
    R = PolyRing(2)
    p = R.poly([((1, 0), 2), ((1, 0), -2), ((0, 1), 1)])
    assert p == R.var(1)
    assert R.poly([]).is_zero


def test_ring_mismatch():
    a = PolyRing(2).var(0)
    b = PolyRing(3).var(0)
    with pytest.raises(RingMismatchError):
        a + b
    with pytest.raises(RingMismatchError):
        PolyRing(2).poly([((1, 0, 0), 1)])


def test_coefficients_stay_exact():
    # rational arithmetic never leaves Fraction; equality is exact
    R = PolyRing(1)
    x = R.var(0)
    p = x * Fraction(1, 3)
    assert (p + p + p) == x
    F = GF(7)
    S = PolyRing(1, F)
    y = S.var(0)
    assert y * 7 == S.zero()


def test_monomial_ideal_minimalization():
    J = MonomialIdeal(2, [(2, 0), (2, 1), (0, 1), (3, 3)])
    assert J.gens == ((0, 1), (2, 0))
    assert J.contains_mono((5, 0))
    assert not J.contains_mono((1, 0))
    assert MonomialIdeal(2, []).is_zero
    assert MonomialIdeal(2, [(0, 0), (1, 0)]).is_unit
    assert MonomialIdeal(2, [(1, 0)]) == MonomialIdeal(2, [(1, 0), (1, 1)])
    assert hash(MonomialIdeal(2, [(1, 0)])) == hash(MonomialIdeal(2, [(1, 0), (2, 0)]))


def test_monomial_ideal_gens_canonical_order():
    rng = random.Random(5)
    for _ in range(20):
        monos = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(6)]
        monos = [m for m in monos if any(m)]
        a = MonomialIdeal(3, monos)
        rng.shuffle(monos)
        assert MonomialIdeal(3, monos).gens == a.gens


def test_ideal_drops_zero_generators():
    R = PolyRing(2)
    I = Ideal(R, [R.zero(), R.var(0)])
    assert len(I) == 1
    assert Ideal(R, []).is_homogeneous()


def test_leading_data_requires_order():
    from gbdepth.orders import LexOrder
    R = PolyRing(2)
    p = R.var(0) + R.var(1)
    assert p.leading_mono(LexOrder((0, 1))) == (1, 0)
    assert p.leading_mono(LexOrder((1, 0))) == (0, 1)
    with pytest.raises(ValueError):
        R.zero().leading_mono(LexOrder((0, 1)))
