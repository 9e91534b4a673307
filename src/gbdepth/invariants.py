"""Homological invariants of monomial quotients S/J.

Betti numbers come from simplicial homology of upper Koszul complexes at
the multidegrees of the lcm lattice. Each complex is built from its
facets, one bitmask per generator dividing x^a, and cut down to its
strong core before any face is listed: deleting dominated vertices keeps
the homotopy type, so reduced homology over every field is unchanged.
The core's boundary ranks come from elimination on +-1 pivots with a
Bareiss fallback for whatever is left (linalg.matrix_rank). Depth via the
Auslander-Buchsbaum formula (depth = n - pd), regularity as max(|a| - i)
over nonzero beta_{i,a}, Krull dimension from minimal vertex covers of
the generator supports, Hilbert series by the pivot-colon recursion. A
report splits the ideal into variable-disjoint pieces and combines them.

Every report runs structural cross-checks on each piece (Euler
characteristic of the Betti table against the Hilbert numerator, pole
order against codimension) and raises InternalInvariantError when two
routes disagree.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, reduce

from .errors import (BudgetExceededError, InternalInvariantError,
                     NotCohenMacaulayError, RingMismatchError)
from .linalg import matrix_rank
from .rings import (MonomialIdeal, QQ, format_mono, mono_degree, mono_div,
                    mono_gcd, mono_lcm, mono_mul, mono_support, coprime,
                    unit_mono, mono_is_unit)

DEFAULT_LATTICE_BUDGET = 200_000


# ---------------------------------------------------------------------------
# Krull dimension


def krull_dimension(J: MonomialIdeal) -> int:
    """dim S/J = n minus the size of a smallest variable set meeting every
    generator's support (brute force over subsets of the used variables)."""
    if J.is_unit:
        raise ValueError("unit ideal: the quotient is the zero ring")
    if J.is_zero:
        return J.n
    supports = [set(mono_support(g)) for g in J.gens]
    universe = sorted(set().union(*supports))
    for size in range(len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            chosen = set(combo)
            if all(chosen & s for s in supports):
                return J.n - size
    raise AssertionError("no vertex cover found")  # unreachable: universe covers


# ---------------------------------------------------------------------------
# univariate integer polynomials (tuples of coefficients, ascending degree)


def _ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return _ptrim(out)


def _psub(a, b):
    return _padd(a, tuple(-x for x in b))


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _ptrim(out)


def _pshift(a, k):
    return _ptrim((0,) * k + tuple(a)) if a else ()


def poly_format(c) -> str:
    """Human form of an integer polynomial in t, e.g. '1 - 3*t^2 + 2*t^3'."""
    if not c:
        return "0"
    parts = []
    for i, x in enumerate(c):
        if x == 0:
            continue
        mag = abs(x)
        if i == 0:
            body = str(mag)
        elif i == 1:
            body = "t" if mag == 1 else f"{mag}*t"
        else:
            body = f"t^{i}" if mag == 1 else f"{mag}*t^{i}"
        parts.append((x < 0, body))
    out = ("-" if parts[0][0] else "") + parts[0][1]
    for neg, body in parts[1:]:
        out += (" - " if neg else " + ") + body
    return out


# ---------------------------------------------------------------------------
# Hilbert series


def hilbert_numerator(J: MonomialIdeal) -> tuple:
    """K-polynomial of S/J: Hilbert series times (1-t)^n, as integer
    coefficients ascending in degree. Pivot recursion
    K(J' + (m)) = K(J') - t^deg(m) * K(J' : m), with the pairwise-coprime
    product K = prod(1 - t^deg(g)) as the base shortcut."""
    if J.is_unit:
        raise ValueError("unit ideal: the quotient is the zero ring")
    n = J.n
    memo = {}

    def walk(gens):
        if gens in memo:
            return memo[gens]
        if not gens:
            res = (1,)
        elif all(coprime(g, h) for g, h in itertools.combinations(gens, 2)):
            res = (1,)
            for g in gens:
                res = _pmul(res, _psub((1,), _pshift((1,), mono_degree(g))))
        else:
            m = gens[-1]
            rest = gens[:-1]
            colon = MonomialIdeal(n, [mono_div(g, mono_gcd(g, m)) for g in rest])
            res = _psub(walk(rest), _pshift(walk(colon.gens), mono_degree(m)))
        memo[gens] = res
        return res

    return walk(J.gens)


def _strip_unit_root(K):
    """Divide K by (1-t) as often as it divides exactly; returns (h, multiplicity)."""
    cur = list(K)
    mult = 0
    while cur and sum(cur) == 0:
        partial = []
        s = 0
        for x in cur[:-1]:
            s += x
            partial.append(s)
        cur = list(_ptrim(partial))
        mult += 1
    return _ptrim(cur), mult


def h_from_numerator(K, n: int, dim: int) -> tuple:
    """h-vector K(t)/(1-t)^(n-dim) from the K-polynomial of S/J in n
    variables. The division is always exact because the Hilbert series has
    pole order exactly dim at t=1; checked here."""
    h, mult = _strip_unit_root(K)
    if mult != n - dim:
        raise InternalInvariantError(
            f"K-polynomial vanishes to order {mult} at t=1, but n - dim = {n - dim}")
    return h


def h_polynomial(J: MonomialIdeal) -> tuple:
    """h-vector of S/J: K(t)/(1-t)^(n-dim)."""
    d = krull_dimension(J)
    return h_from_numerator(hilbert_numerator(J), J.n, d)


def reg_via_h_polynomial(J: MonomialIdeal, cm_certified: bool = False, field=QQ) -> int:
    """deg h(t); equals the regularity exactly when S/J is Cohen-Macaulay.
    Without cm_certified, Cohen-Macaulayness is checked (depth == dim) and
    NotCohenMacaulayError is raised if it fails."""
    if not cm_certified:
        table = betti_table(J, field=field)
        if J.n - table.pd != krull_dimension(J):
            raise NotCohenMacaulayError(
                "h-polynomial degree equals regularity only for Cohen-Macaulay "
                f"quotients; depth {J.n - table.pd} != dim {krull_dimension(J)}")
    h = h_polynomial(J)
    return len(h) - 1


# ---------------------------------------------------------------------------
# simplicial complexes and upper Koszul homology


def _maximal(masks):
    """The inclusion-maximal masks among masks."""
    kept = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if all(m & f != m for f in kept):
            kept.append(m)
    return frozenset(kept)


@dataclass(frozen=True)
class SimplicialComplex:
    """Abstract complex on integer vertex labels, stored by its facets as
    bitmasks over `vertices` (bit i is vertices[i]). Faces include the empty
    face when nonvoid. The void complex (no facets at all) is allowed and
    is distinct from the complex whose only face is empty (facet mask 0)."""

    vertices: tuple
    facets: frozenset

    @classmethod
    def from_faces(cls, vertices, faces):
        """The complex generated by faces, each an iterable of vertices."""
        vertices = tuple(vertices)
        bit = {v: 1 << i for i, v in enumerate(vertices)}
        return cls(vertices, _maximal(sum(bit[v] for v in f) for f in faces))

    @property
    def is_void(self) -> bool:
        return not self.facets

    def face_masks(self, budget=None, spent=0) -> set:
        """Every face as a bitmask: the submasks of the facets. Raises
        BudgetExceededError("lattice", budget) once spent plus the faces
        listed exceed budget."""
        faces = set()
        for f in self.facets:
            sub = f
            while True:
                faces.add(sub)
                if not sub:
                    break
                sub = (sub - 1) & f
            if budget is not None and spent + len(faces) > budget:
                raise BudgetExceededError("lattice", budget)
        return faces

    @cached_property
    def faces(self) -> frozenset:
        """Every face as a frozenset of vertices."""
        vs = self.vertices
        return frozenset(frozenset(v for i, v in enumerate(vs) if m >> i & 1)
                         for m in self.face_masks())


def upper_koszul_complex(J: MonomialIdeal, a) -> SimplicialComplex:
    """K^a: the squarefree sigma inside supp(a) with x^a / x^sigma in J.
    It is the union of one full simplex per generator g dividing x^a, on
    the variables v with a_v > g_v (Miller-Sturmfels, Thm 1.34), so its
    facets are the inclusion-maximal such sets. Degrees outside the lcm
    lattice are legal input but carry no Betti numbers."""
    a = tuple(a)
    if len(a) != J.n:
        raise RingMismatchError(f"degree {a} has {len(a)} exponents, expected {J.n}")
    supp = mono_support(a)
    masks = []
    for g in J.gens:
        if all(x <= y for x, y in zip(g, a)):
            masks.append(sum(1 << i for i, v in enumerate(supp) if a[v] > g[v]))
    return SimplicialComplex(supp, _maximal(masks))


def _strong_core(facets) -> set:
    """Facets of the strong core: while some vertex v is dominated (the
    facets that contain v all share another vertex w), delete v. The link
    of v is then a cone with apex w, so deleting v is a strong collapse
    (Barmak-Minian 2012) and the core has the homotopy type of the
    complex. Stops early at a single facet, a simplex."""
    facets = set(facets)
    vertices = reduce(int.__or__, facets, 0)
    while len(facets) > 1 and vertices:
        v = vertices & -vertices
        vertices ^= v
        if reduce(int.__and__, (f for f in facets if f & v)) != v:
            facets = _maximal(f & ~v for f in facets)
            vertices = reduce(int.__or__, facets, 0)
    return facets


def reduced_homology_dims(C: SimplicialComplex, field=QQ, budget=None,
                          spent=None) -> list:
    """Reduced homology ranks, indexed by face cardinality from 0 to the
    largest facet of C: entry k is dim of reduced H_(k-1); [] if C is void.
    Only the faces of C's strong core are listed and ranked. It has C's
    homotopy type, so the same homology over every field, and a core that
    is one simplex is acyclic. A facet of C with more than budget faces
    raises BudgetExceededError("lattice", budget), as do more than budget
    faces listed over the calls that share the one-item list spent."""
    if C.is_void:
        return []
    top = max(f.bit_count() for f in C.facets)
    if budget is not None and 1 << top > budget:
        raise BudgetExceededError("lattice", budget)
    core = _strong_core(C.facets)
    if len(core) == 1 and 0 not in core:
        return [0] * (top + 1)
    spent = spent or [0]
    faces = SimplicialComplex(C.vertices, core).face_masks(budget, spent[0])
    spent[0] += len(faces)
    by_card = defaultdict(list)
    for f in faces:
        by_card[f.bit_count()].append(f)
    ranks = {}
    for k in range(1, max(by_card) + 1):
        lower = {f: i for i, f in enumerate(by_card[k - 1])}
        cols = by_card[k]
        rows = [[0] * len(cols) for _ in lower]
        for c, face in enumerate(cols):
            sign = 1
            rest = face
            while rest:
                low = rest & -rest
                rows[lower[face ^ low]][c] = sign
                sign = -sign
                rest ^= low
        ranks[k] = matrix_rank(rows, field)
    return [len(by_card.get(k, ())) - ranks.get(k, 0) - ranks.get(k + 1, 0)
            for k in range(top + 1)]


# ---------------------------------------------------------------------------
# lcm lattice and Betti tables


def lcm_lattice(J: MonomialIdeal, budget: int = DEFAULT_LATTICE_BUDGET) -> list:
    """All lcms of generator subsets (unit monomial for the empty subset),
    sorted by (degree, exponents). Nonzero Betti numbers live only here."""
    seen = {unit_mono(J.n)}
    for g in J.gens:
        extra = {mono_lcm(s, g) for s in seen}
        seen |= extra
        if len(seen) > budget:
            raise BudgetExceededError("lattice", budget)
    return sorted(seen, key=lambda m: (mono_degree(m), m))


class BettiTable:
    """Sparse multigraded Betti numbers beta_{i,a}(S/J) over a fixed n."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: dict):
        self.n = n
        self.entries = {k: v for k, v in entries.items() if v}

    @property
    def pd(self) -> int:
        return max((i for i, _ in self.entries), default=0)

    @property
    def reg(self) -> int:
        return max((mono_degree(a) - i for i, a in self.entries), default=0)

    @property
    def depth(self) -> int:
        # Auslander-Buchsbaum: depth + pd = n
        return self.n - self.pd

    def total(self, i: int) -> int:
        return sum(v for (j, _), v in self.entries.items() if j == i)

    def graded_rows(self) -> list:
        """(i, multidegree, multiplicity) triples in a stable order."""
        return sorted(((i, a, v) for (i, a), v in self.entries.items()),
                      key=lambda t: (t[0], mono_degree(t[1]), t[1]))

    def render(self) -> str:
        """Conventional grid: column i, row j = |a| - i, totals on top."""
        p = self.pd
        r = self.reg
        grid = [[0] * (p + 1) for _ in range(r + 1)]
        for (i, a), v in self.entries.items():
            grid[mono_degree(a) - i][i] += v
        width = max(2, *(len(str(v)) for row in grid for v in row),
                    *(len(str(self.total(i))) for i in range(p + 1)))
        head = "      " + " ".join(f"{i:>{width}}" for i in range(p + 1))
        tot = "total:" + " ".join(f"{self.total(i):>{width}}" for i in range(p + 1))
        lines = [head, tot]
        for j in range(r + 1):
            cells = " ".join(f"{v if v else '.':>{width}}" for v in grid[j])
            lines.append(f"{j:>5}:" + cells)
        return "\n".join(lines)

    def __eq__(self, other):
        if not isinstance(other, BettiTable):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.entries.items()))))

    def __repr__(self):
        return f"BettiTable(n={self.n}, pd={self.pd}, reg={self.reg})"


def kunneth_convolution(a: BettiTable, b: BettiTable) -> BettiTable:
    """Betti table of a variable-disjoint union: graded tensor product.
    Rejects tables whose multidegrees share a variable."""
    if a.n != b.n:
        raise RingMismatchError(f"tables over {a.n} and {b.n} variables")
    used_a = set()
    for _, m in a.entries:
        used_a.update(mono_support(m))
    for _, m in b.entries:
        if used_a & set(mono_support(m)):
            raise ValueError("variable supports overlap; Kunneth needs disjoint blocks")
    entries = defaultdict(int)
    for (i1, m1), c1 in a.entries.items():
        for (i2, m2), c2 in b.entries.items():
            entries[(i1 + i2, mono_mul(m1, m2))] += c1 * c2
    return BettiTable(a.n, dict(entries))


def support_components(J: MonomialIdeal) -> list:
    """Generator groups connected through shared variables, each as a
    MonomialIdeal in the same ambient ring; ordered by smallest variable."""
    gens = list(J.gens)
    supports = [set(mono_support(g)) for g in gens]
    unassigned = set(range(len(gens)))
    comps = []
    while unassigned:
        seed = min(unassigned)
        group = {seed}
        frontier = [seed]
        while frontier:
            cur = frontier.pop()
            for other in list(unassigned - group):
                if supports[cur] & supports[other]:
                    group.add(other)
                    frontier.append(other)
        unassigned -= group
        comps.append(sorted(group))
    comps.sort(key=lambda idxs: min((v for i in idxs for v in supports[i]), default=0))
    return [MonomialIdeal(J.n, [gens[i] for i in idxs]) for idxs in comps]


def betti_table(J: MonomialIdeal, field=QQ,
                lattice_budget: int = DEFAULT_LATTICE_BUDGET) -> BettiTable:
    """Multigraded Betti numbers of S/J via upper Koszul homology at lcm
    lattice degrees, on the whole ideal at once (the direct route). The
    lattice budget bounds the lattice and the Koszul faces of all degrees."""
    if J.is_unit:
        raise ValueError("unit ideal: the quotient is the zero ring")
    unit = unit_mono(J.n)
    entries = {(0, unit): 1}
    spent = [0]
    for a in lcm_lattice(J, lattice_budget):
        if mono_is_unit(a):
            continue
        h = reduced_homology_dims(upper_koszul_complex(J, a), field,
                                  lattice_budget, spent)
        for k, val in enumerate(h):
            if val:
                entries[(k + 1, a)] = val
    return BettiTable(J.n, entries)


# ---------------------------------------------------------------------------
# combined report with self-checks


@dataclass(frozen=True)
class InvariantReport:
    n: int
    dim: int
    depth: int
    pd: int
    reg: int
    cohen_macaulay: bool
    hilbert_numerator: tuple
    pieces: tuple  # Betti tables of the variable-disjoint pieces

    @cached_property
    def betti(self) -> BettiTable:
        """Betti table of S/J: the Kunneth product of the pieces' tables,
        built on first use."""
        if not self.pieces:
            return BettiTable(self.n, {(0, unit_mono(self.n)): 1})
        return reduce(kunneth_convolution, self.pieces)


def invariant_report(J: MonomialIdeal, field=QQ,
                     lattice_budget: int = DEFAULT_LATTICE_BUDGET) -> InvariantReport:
    """All invariants of S/J at once. Each variable-disjoint piece is
    computed directly and checked across the Betti and Hilbert routes
    before the pieces are combined."""
    tables = []
    K = (1,)
    codim = pd = reg = 0
    for piece in support_components(J):
        table = betti_table(piece, field=field, lattice_budget=lattice_budget)
        piece_K = hilbert_numerator(piece)
        piece_dim = krull_dimension(piece)
        # Euler characteristic of the Betti table must reproduce the K-polynomial
        alt = defaultdict(int)
        for (i, a), v in table.entries.items():
            alt[mono_degree(a)] += v if i % 2 == 0 else -v
        alt_poly = _ptrim([alt[j] for j in range(max(alt, default=0) + 1)])
        if alt_poly != piece_K:
            raise InternalInvariantError(
                f"Betti alternating sum {poly_format(alt_poly)} != K-polynomial "
                f"{poly_format(piece_K)}")
        # pole order at t=1 must equal the codimension
        h_from_numerator(piece_K, J.n, piece_dim)
        tables.append(table)
        K = _pmul(K, piece_K)
        codim += J.n - piece_dim
        pd += table.pd
        reg += table.reg
    dim = J.n - codim
    depth = J.n - pd
    if not 0 <= depth <= dim <= J.n:
        raise InternalInvariantError(
            f"impossible invariants: depth {depth}, dim {dim}, n {J.n}")
    return InvariantReport(J.n, dim, depth, pd, reg, depth == dim, K, tuple(tables))
