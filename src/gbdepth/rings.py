"""Polynomial arithmetic with exact coefficients.

Monomials are dense exponent tuples, polynomials are mappings from monomial
to coefficient. Coefficients live in QQ (python Fractions) or in a prime
field GF(p). Polynomials carry no monomial order; anything order-dependent
takes the order as an argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import RingMismatchError

MAX_VARS = 64

Mono = tuple  # exponent vector, one entry per ring variable


# ---------------------------------------------------------------------------
# coefficient fields


class RationalField:
    """The rationals, realized as fractions.Fraction."""

    name = "QQ"

    def __call__(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into QQ")

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class FpElement:
    """Element of GF(p); supports +, -, *, / and truthiness."""

    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def _check(self, other):
        if not isinstance(other, FpElement):
            if isinstance(other, int):
                return FpElement(self.p, other)
            return NotImplemented
        if other.p != self.p:
            raise RingMismatchError(f"GF({self.p}) vs GF({other.p})")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.p, self.v + other.v)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.p, self.v - other.v)

    def __rsub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.p, other.v - self.v)

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.p, self.v * other.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        if other.v == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return FpElement(self.p, self.v * pow(other.v, -1, self.p))

    def __neg__(self):
        return FpElement(self.p, -self.v)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __repr__(self):
        return f"{self.v}"


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """GF(p) as a coercion context: PrimeField(32003)(5) is an FpElement."""

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"

    def __call__(self, value):
        if isinstance(value, FpElement):
            if value.p != self.p:
                raise RingMismatchError(f"GF({value.p}) element in GF({self.p})")
            return value
        if isinstance(value, int):
            return FpElement(self.p, value)
        if isinstance(value, Fraction):
            # map a/b to a * b^-1 mod p; b must be a unit
            return FpElement(self.p, value.numerator) / FpElement(self.p, value.denominator)
        raise TypeError(f"cannot coerce {value!r} into GF({self.p})")

    @property
    def zero(self):
        return FpElement(self.p, 0)

    @property
    def one(self):
        return FpElement(self.p, 1)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name


GF = PrimeField


# ---------------------------------------------------------------------------
# monomial helpers


def mono_mul(u: Mono, v: Mono) -> Mono:
    return tuple(a + b for a, b in zip(u, v))


def mono_divides(u: Mono, v: Mono) -> bool:
    """True when u divides v componentwise."""
    return all(a <= b for a, b in zip(u, v))


def mono_div(u: Mono, v: Mono) -> Mono:
    """u / v; raises when v does not divide u."""
    if not mono_divides(v, u):
        raise ValueError(f"{v} does not divide {u}")
    return tuple(a - b for a, b in zip(u, v))


def mono_lcm(u: Mono, v: Mono) -> Mono:
    return tuple(max(a, b) for a, b in zip(u, v))


def mono_gcd(u: Mono, v: Mono) -> Mono:
    return tuple(min(a, b) for a, b in zip(u, v))


def mono_degree(u: Mono) -> int:
    return sum(u)


def mono_support(u: Mono) -> tuple:
    """Indices of variables actually present."""
    return tuple(i for i, e in enumerate(u) if e)


def unit_mono(n: int) -> Mono:
    return (0,) * n


def mono_is_unit(u: Mono) -> bool:
    return not any(u)


def coprime(u: Mono, v: Mono) -> bool:
    return all(a == 0 or b == 0 for a, b in zip(u, v))


def format_mono(u: Mono) -> str:
    """Render x1^2*x3 style; the unit monomial renders as 1."""
    parts = []
    for i, e in enumerate(u):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# rings and polynomials


@dataclass(frozen=True)
class PolyRing:
    """K[x1..xn] for an exact coefficient field K."""

    n: int
    field: object = QQ

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VARS:
            raise ValueError(f"number of variables must be in 1..{MAX_VARS}, got {self.n}")

    def var_name(self, i: int) -> str:
        return f"x{i + 1}"

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.monomial(unit_mono(self.n))

    def monomial(self, m: Mono, coeff=1) -> "Polynomial":
        return Polynomial.from_terms(self, [(m, coeff)])

    def var(self, i: int) -> "Polynomial":
        if not 0 <= i < self.n:
            raise ValueError(f"variable index {i} outside ring with {self.n} variables")
        e = [0] * self.n
        e[i] = 1
        return self.monomial(tuple(e))

    def poly(self, terms: Iterable) -> "Polynomial":
        return Polynomial.from_terms(self, terms)

    def __repr__(self):
        return f"{self.field.name}[x1..x{self.n}]"


class Polynomial:
    """Immutable polynomial: dict from exponent tuple to nonzero coefficient.

    Equality and hashing use a canonical term tuple sorted by plain exponent
    tuple, so they are independent of any monomial order.
    """

    __slots__ = ("ring", "coeffs", "_terms", "_hash")

    def __init__(self, ring: PolyRing, coeffs: dict):
        self.ring = ring
        self.coeffs = coeffs
        self._terms = tuple(sorted(coeffs.items(), reverse=True))
        self._hash = None

    @classmethod
    def from_terms(cls, ring: PolyRing, terms: Iterable) -> "Polynomial":
        """Build from (mono, coeff) pairs; merges duplicates, drops zeros."""
        field = ring.field
        acc = {}
        for mono, c in terms:
            mono = tuple(mono)
            if len(mono) != ring.n:
                raise RingMismatchError(
                    f"exponent vector {mono} has length {len(mono)}, ring has {ring.n} variables")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            c = field(c)
            if mono in acc:
                c = acc[mono] + c
            if c:
                acc[mono] = c
            else:
                acc.pop(mono, None)
        return cls(ring, acc)

    @property
    def terms(self) -> tuple:
        """(mono, coeff) pairs in canonical (order-free) descending mono order."""
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff_of(self, mono: Mono):
        return self.coeffs.get(tuple(mono), self.ring.field.zero)

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, FpElement)):
            other = self.ring.monomial(unit_mono(self.ring.n), other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        acc = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            s = acc.get(mono, None)
            s = c if s is None else s + c
            if s:
                acc[mono] = s
            else:
                acc.pop(mono, None)
        return Polynomial(self.ring, acc)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, FpElement)):
            other = self.ring.monomial(unit_mono(self.ring.n), other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FpElement)):
            c = self.ring.field(other)
            if not c:
                return self.ring.zero()
            return Polynomial(self.ring, {m: cc * c for m, cc in self.coeffs.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        acc = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = mono_mul(m1, m2)
                s = acc.get(m, None)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    acc[m] = s
                else:
                    acc.pop(m, None)
        return Polynomial(self.ring, acc)

    __rmul__ = __mul__

    def mul_term(self, coeff, mono: Mono) -> "Polynomial":
        """Multiply by the single term coeff * x^mono."""
        coeff = self.ring.field(coeff)
        if not coeff:
            return self.ring.zero()
        mono = tuple(mono)
        return Polynomial(self.ring, {mono_mul(m, mono): c * coeff for m, c in self.coeffs.items()})

    def leading_mono(self, order) -> Mono:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.coeffs, key=order.key)

    def leading_coeff(self, order):
        return self.coeffs[self.leading_mono(order)]

    def leading_term(self, order):
        m = self.leading_mono(order)
        return m, self.coeffs[m]

    def monic(self, order) -> "Polynomial":
        if self.is_zero:
            return self
        lc = self.leading_coeff(order)
        one = self.ring.field.one
        if lc == one:
            return self
        return self * (one / lc)

    def terms_desc(self, order) -> list:
        """(mono, coeff) pairs, largest first under the given order."""
        return sorted(self.coeffs.items(), key=lambda t: order.key(t[0]), reverse=True)

    def total_degree(self) -> int:
        """Max term degree; -1 for the zero polynomial."""
        if self.is_zero:
            return -1
        return max(mono_degree(m) for m in self.coeffs)

    def is_homogeneous(self) -> bool:
        degs = {mono_degree(m) for m in self.coeffs}
        return len(degs) <= 1

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self._terms))
        return self._hash

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        from .parsing import format_polynomial
        return format_polynomial(self)


class MonomialIdeal:
    """A monomial ideal, stored as its unique minimal generating set.

    Generators are exponent tuples over a fixed number of variables, sorted
    by (degree, exponents) so equal ideals compare equal.
    """

    __slots__ = ("n", "gens")

    def __init__(self, n: int, gens: Iterable):
        monos = []
        for m in gens:
            m = tuple(m)
            if len(m) != n:
                raise RingMismatchError(
                    f"monomial {m} has {len(m)} exponents, expected {n}")
            if any(e < 0 for e in m):
                raise ValueError(f"negative exponent in {m}")
            monos.append(m)
        monos = sorted(set(monos), key=lambda m: (mono_degree(m), m))
        minimal = []
        for m in monos:
            if not any(mono_divides(g, m) for g in minimal):
                minimal.append(m)
        self.n = n
        self.gens = tuple(minimal)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and mono_is_unit(self.gens[0])

    def contains_mono(self, m: Mono) -> bool:
        m = tuple(m)
        if len(m) != self.n:
            raise RingMismatchError(f"monomial {m} has {len(m)} exponents, expected {self.n}")
        return any(mono_divides(g, m) for g in self.gens)

    def __iter__(self):
        return iter(self.gens)

    def __len__(self):
        return len(self.gens)

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.n == other.n and self.gens == other.gens

    def __hash__(self):
        return hash((self.n, self.gens))

    def __repr__(self):
        if not self.gens:
            return "(0)"
        return "(" + ", ".join(format_mono(m) for m in self.gens) + ")"


@dataclass(frozen=True)
class Ideal:
    """A finite generating set in a fixed ring; zero generators are dropped."""

    ring: PolyRing
    generators: tuple

    def __init__(self, ring, generators):
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                raise TypeError(f"ideal generator {g!r} is not a Polynomial")
            if g.ring != ring:
                raise RingMismatchError(f"generator ring {g.ring} does not match {ring}")
            if not g.is_zero:
                gens.append(g)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", tuple(gens))

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)
