"""Exact rank against Gaussian elimination over fractions.Fraction."""

import random
from fractions import Fraction

import gbdepth.linalg as linalg
from gbdepth.linalg import matrix_rank
from gbdepth.rings import GF


def _oracle_rank(rows, p=None):
    """Plain Gaussian elimination over Q, or over GF(p) on residues."""
    if p is None:
        m = [[Fraction(x) for x in r] for r in rows]
    else:
        m = [[x % p for x in r] for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c] if p is None else pow(m[rank][c], -1, p)
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
                if p is not None:
                    m[i] = [x % p for x in m[i]]
        rank += 1
    return rank


def _random_matrices(seed, count):
    """Integer matrices with entries in -3..3: full-rank-ish, products of
    thin factors (rank deficient), and copies with zeroed rows and columns."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        dense = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        out.append(dense)
        k = rng.randint(1, min(nr, nc))
        left = [[rng.randint(-1, 1) for _ in range(k)] for _ in range(nr)]
        right = [[rng.randint(-1, 1) for _ in range(nc)] for _ in range(k)]
        out.append([[sum(left[i][t] * right[t][j] for t in range(k))
                     for j in range(nc)] for i in range(nr)])
        holed = [list(r) for r in dense]
        holed[rng.randrange(nr)] = [0] * nc
        zc = rng.randrange(nc)
        for r in holed:
            r[zc] = 0
        out.append(holed)
    return out


def test_rank_matches_fraction_oracle(monkeypatch):
    fallbacks = []
    bareiss = linalg._rank_bareiss
    monkeypatch.setattr(linalg, "_rank_bareiss",
                        lambda rows: fallbacks.append(rows) or bareiss(rows))
    mats = _random_matrices(11, 80)
    # non-unit pivots only, so the Bareiss fallback does all the work
    mats.append([[2, 3], [3, -2]])
    mats.append([[2, 2], [3, 3]])
    for rows in mats:
        assert matrix_rank(rows) == _oracle_rank(rows), rows
    assert len(fallbacks) > 10


def test_rank_over_prime_fields():
    for rows in _random_matrices(12, 40):
        for p in (2, 3):
            reduced = [[x % p for x in r] for r in rows]
            assert matrix_rank(reduced, GF(p)) == _oracle_rank(rows, p), (p, rows)


def test_rank_of_empty_shapes():
    for field in (None, GF(2), GF(3)):
        args = () if field is None else (field,)
        assert matrix_rank([], *args) == 0
        assert matrix_rank([[], [], []], *args) == 0
        assert matrix_rank([[0, 0, 0]], *args) == 0
        assert matrix_rank([[0], [0]], *args) == 0
