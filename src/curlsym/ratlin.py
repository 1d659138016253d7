"""Exact linear algebra over the rationals.

One fraction-free elimination core.  Rows come in as dense lists or sparse
dicts {column: value} of ints or Fractions, and each becomes a primitive
integer dict once: times the lcm of its denominators, over the gcd of its
entries.  Rows are inserted one at a time into the reduced row echelon
form of those before them.  Every pivot row is zero in every other pivot
column, so one pass over the pivots a new row meets reduces it; a row left
nonzero adds a pivot at its first column and clears that column from the
other pivot rows.  A combination a*row - b*prow takes a and b as the two
entries over their gcd, and its content is removed (fraction-free
elimination, Bareiss, Math. Comp. 22 (1968) 565-578).

A matrix has exactly one RREF, whose pivot columns are the leading columns
of the row space whatever the row order, so `rref`, `rank` and the
primitive `nullspace` vectors (coprime integers, first nonzero positive)
do not depend on the order the rows arrive in.  Fractions appear only on
output; no floats anywhere.  The width is taken from the rows, except that
`nullspace` of sparse rows needs `ncols`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm


def _items(row):
    """(column, value) pairs of a dense list or a dict {column: value}."""
    return row.items() if isinstance(row, dict) else enumerate(row)


def _content_free(row):
    """An integer dict divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {j: e // g for j, e in row.items()} if g > 1 else row


def _integer(row):
    """A positive multiple of the row as a primitive integer dict."""
    items = [(j, e) for j, e in _items(row) if e]
    den = lcm(*(e.denominator for _, e in items))
    return _content_free({j: e.numerator * (den // e.denominator) for j, e in items})


def _combine(row, prow, c):
    """a*row - b*prow with column c cancelled, a > 0, content removed."""
    x, p = row[c], prow[c]
    g = gcd(x, p)
    a, b = p // g, x // g
    out = {j: a * e for j, e in row.items()} if a != 1 else dict(row)
    for j, e in prow.items():
        v = out.get(j, 0) - b * e
        if v:
            out[j] = v
        else:
            del out[j]
    return _content_free(out)


def _reduce(rows, ncols=inf):
    """The RREF of the rows as {pivot column: primitive integer row}, each
    pivot entry positive.  Pivots lie below column `ncols`; a row that has
    no entry there after reduction is dropped."""
    pivots = {}
    for row in rows:
        row = _integer(row)
        for c in [c for c in row if c in pivots]:
            row = _combine(row, pivots[c], c)
        lead = min((j for j in row if j < ncols), default=None)
        if lead is None:
            continue
        if row[lead] < 0:
            row = {j: -e for j, e in row.items()}
        for c, prow in pivots.items():
            if lead in prow:
                pivots[c] = _combine(prow, row, lead)
        pivots[lead] = row
    return pivots


def rref(matrix, cols: int | None = None):
    """Reduced row echelon form.  Returns (rows, pivot_columns).

    Pivot columns ascend; `cols` limits pivoting to a left block (used when
    rows carry bookkeeping columns on the right)."""
    if not matrix:
        return [], []
    width = len(matrix[0])
    pivots = _reduce(matrix, inf if cols is None else cols)
    order = sorted(pivots)
    return [[Fraction(pivots[c].get(j, 0), pivots[c][c]) for j in range(width)]
            for c in order], order


def rank(matrix) -> int:
    return len(_reduce(matrix))


def nullspace(matrix, ncols: int | None = None):
    """Basis of {x : Ax = 0}, one primitive vector per free column.

    Rows are dense lists, or sparse dicts {column: value} of width `ncols`."""
    if ncols is None:
        if not matrix:
            return []
        ncols = len(matrix[0])
    pivots = _reduce(matrix, ncols)
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        hits = [(c, row) for c, row in pivots.items() if fc in row]
        scale = lcm(*(row[c] for c, row in hits))
        vec = [0] * ncols
        vec[fc] = scale
        for c, row in hits:
            vec[c] = -row[fc] * (scale // row[c])
        g = gcd(*vec)
        if next(e for e in vec if e) < 0:
            g = -g
        basis.append([Fraction(e // g) for e in vec])
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
    # bookkeeping columns n + i, right of every column of rows and targets;
    # column n + len(rows) of a target holds the factor it was scaled by
    n = 1 + max((j for r in [*rows, *targets] for j, e in _items(r) if e), default=-1)
    scale = n + len(rows)
    pivots = _reduce([{**dict(_items(r)), n + i: 1} for i, r in enumerate(rows)], n)
    out = []
    for t in targets:
        t = _integer({**dict(_items(t)), scale: 1})
        for c in [c for c in t if c in pivots]:
            t = _combine(t, pivots[c], c)
        inside = all(j >= n for j in t)
        out.append([Fraction(-t.get(n + i, 0), t[scale]) for i in range(len(rows))]
                   if inside else None)
    return out
