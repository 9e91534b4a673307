"""Exact matrix rank.

Integer matrices are first eliminated on +-1 pivots, which keeps every
entry an integer, and whatever rows remain go through fraction-free
(Bareiss) elimination, so no rational arithmetic and no tolerances.
Simplicial boundary matrices are sparse +-1 matrices, where the unit
pivots do almost all of the work. Prime-field matrices go through
ordinary Gaussian elimination, which is exact there.
"""

from __future__ import annotations

from .rings import QQ


def _eliminate_unit_pivots(rows):
    """Gaussian elimination over Z restricted to +-1 pivots, which keeps
    every entry an integer. Returns the number of pivots taken and the
    remaining nonzero rows as dicts {column: entry}, none of which holds a
    +-1 entry."""
    rest = [r for r in ({j: x for j, x in enumerate(row) if x} for row in rows) if r]
    rank = 0
    while True:
        for i, r in enumerate(rest):
            j = next((j for j, x in r.items() if x == 1 or x == -1), None)
            if j is not None:
                break
        else:
            return rank, rest
        del rest[i]
        p = r[j]
        for rk in rest:
            f = rk.get(j)
            if f:
                f *= p  # rk - (rk[j] / p) * r, and 1/p == p
                for c, x in r.items():
                    y = rk.get(c, 0) - f * x
                    if y:
                        rk[c] = y
                    else:
                        del rk[c]
        rest = [rk for rk in rest if rk]
        rank += 1


def _rank_bareiss(rows):
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    prev = 1
    for c in range(nc):
        if rank >= nr:
            break
        piv = next((i for i in range(rank, nr) if m[i][c]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank][c]
        for i in range(rank + 1, nr):
            fi = m[i][c]
            for j in range(c + 1, nc):
                # Sylvester identity guarantees exact divisibility
                m[i][j] = (pivot * m[i][j] - fi * m[rank][j]) // prev
            m[i][c] = 0
        prev = pivot
        rank += 1
    return rank


def _rank_field(rows, field):
    m = [[field(x) for x in r] for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    for c in range(nc):
        if rank >= nr:
            break
        piv = next((i for i in range(rank, nr) if m[i][c]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank][c]
        for i in range(rank + 1, nr):
            if m[i][c]:
                f = m[i][c] / pivot
                for j in range(c, nc):
                    m[i][j] = m[i][j] - f * m[rank][j]
        rank += 1
    return rank


def matrix_rank(rows, field=QQ) -> int:
    """Rank of an integer matrix over the given coefficient field."""
    if not rows or not rows[0]:
        return 0
    if field != QQ:
        return _rank_field(rows, field)
    rank, rest = _eliminate_unit_pivots(rows)
    if not rest:
        return rank
    cols = sorted(set().union(*rest))
    return rank + _rank_bareiss([[r.get(c, 0) for c in cols] for r in rest])
