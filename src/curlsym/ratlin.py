"""Exact linear algebra over the rationals.

One elimination core on sparse rows, dicts {column: Fraction} of the
nonzero entries, so the work follows the nonzeros and not the width.
First-nonzero pivoting and full back-substitution give the unique reduced
row echelon form, so nullspace bases come out in a reproducible order.
Public functions take and return lists of Fractions; no floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _sparse(matrix):
    return [{j: Fraction(e) for j, e in enumerate(row) if e} for row in matrix]


def _subtract(row, f, other):
    """row -= f * other in place, dropping entries that cancel."""
    for j, e in other.items():
        v = row.get(j, 0) - f * e
        if v:
            row[j] = v
        else:
            del row[j]


def _reduce(rows, ncols):
    """Reduced row echelon form of sparse rows, reduced in place:
    (nonzero rows, pivots).  Pivots as in `rref`, below column `ncols`."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        prow = rows[r] = {j: e / pv for j, e in rows[r].items()}
        for row in rows[r + 1:]:
            if c in row:
                _subtract(row, row[c], prow)
        pivots.append(c)
    # later pivot rows are zero in every other pivot column: one pass each
    where = {c: k for k, c in enumerate(pivots)}
    for k in range(len(pivots) - 2, -1, -1):
        row = rows[k]
        for c in [c for c in row if c in where and c != pivots[k]]:
            _subtract(row, row[c], rows[where[c]])
    return rows[: len(pivots)], pivots


def rref(matrix, cols: int | None = None):
    """Reduced row echelon form.  Returns (rows, pivot_columns).

    Pivot search walks columns left to right and takes the first row with a
    nonzero entry; `cols` limits pivoting to a left block (used when rows
    carry bookkeeping columns on the right)."""
    if not matrix:
        return [], []
    width = len(matrix[0])
    rows, pivots = _reduce(_sparse(matrix), width if cols is None else cols)
    zero = Fraction(0)
    return [[row.get(j, zero) for j in range(width)] for row in rows], pivots


def rank(matrix) -> int:
    return len(rref(matrix)[1])


def primitive(vec):
    """Scale a rational vector to coprime integers, first nonzero positive."""
    den = 1
    for e in vec:
        den = den * e.denominator // gcd(den, e.denominator)
    ints = [int(e * den) for e in vec]
    g = 0
    for e in ints:
        g = gcd(g, abs(e))
    if g > 1:
        ints = [e // g for e in ints]
    for e in ints:
        if e != 0:
            if e < 0:
                ints = [-x for x in ints]
            break
    return [Fraction(e) for e in ints]


def nullspace(matrix):
    """Basis of {x : Ax = 0}, one primitive vector per free column."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows, pivots = rref(matrix)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc]
        basis.append(primitive(vec))
    return basis


def span_equal(a, b) -> bool:
    """Row spans coincide: rank A = rank B = rank of the stack."""
    ra, rb = rank(a), rank(b)
    return ra == rb == rank(list(a) + list(b))


def coordinates_in_rowspan(rows, target):
    """Express target as a combination of the given rows, or None.

    Returns coefficients c with sum_i c_i rows[i] = target."""
    return rowspan_coordinates(rows, [target])[0]


def rowspan_coordinates(rows, targets):
    """`coordinates_in_rowspan` for each target, reducing the rows once."""
    if not rows:
        return [None if any(e != 0 for e in t) else [] for t in targets]
    n = len(rows[0])
    red, pivots = _reduce(
        [{**row, n + i: Fraction(1)} for i, row in enumerate(_sparse(rows))], n
    )
    out = []
    for t in _sparse(targets):
        for row, pc in zip(red, pivots):
            if pc in t:
                _subtract(t, t[pc], row)
        inside = all(j >= n for j in t)
        out.append([-t.get(n + i, Fraction(0)) for i in range(len(rows))]
                   if inside else None)
    return out
