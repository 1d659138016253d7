"""Exact linear algebra over the rationals.

One fraction-free elimination core.  Rows arrive as a one-shot iterable,
each a dense list or a sparse dict {column: value} of ints or Fractions,
and each becomes a primitive integer dict once: times the lcm of its
denominators, over the gcd of its entries.  Rows are inserted one at a
time into the reduced row echelon form of those before them, and none is
kept but the pivot rows.  Every pivot row is zero in every other pivot
column, so one pass over the pivots a new row meets reduces it; a row
left zero (a repeat, or a combination of earlier rows) is dropped, and a
row left nonzero adds a pivot at its first column and clears that column
from the other pivot rows.  A combination a*row - b*prow takes a and b as
the two entries over their gcd, and its content is removed (fraction-free
elimination, Bareiss, Math. Comp. 22 (1968) 565-578).

A column index {non-pivot column: pivot columns whose row holds it},
updated whenever a pivot row changes, names the rows a new pivot clears,
so each step costs what the rows it touches hold, not the pivot count;
`nullspace` reads each free column's entries off the same index.

A pivot row that holds one entry (a unit pivot) is a unit vector, so a
row reduces against it just by losing its entry in that column; the
ansatz rows make many of them.  So no combination is spent on one: an
arriving row drops its entries in the unit-pivot columns before it is
made integer (a row left empty is skipped), a new unit pivot clears its
column from the other pivot rows by deleting the entry and removing the
content, and a pivot row that shrinks to one entry becomes a unit pivot
itself.  This gives the RREF the combinations would give.

A matrix has exactly one RREF, whose pivot columns are the leading columns
of the row space whatever the row order, so `rref`, `rank` and the
primitive `nullspace` vectors (coprime integers, first nonzero positive)
do not depend on the order the rows arrive in.  What comes out follows
the kernel's coefficient rule: the `nullspace` vectors are ints, and an
entry of `rref` or a coordinate is an int when it is integral, else a
Fraction, whose denominator then exceeds 1; no floats anywhere.
Every function reads its rows once, from any iterable: `rank`, and
`nullspace` given `ncols`, hold none once it is reduced, and the others
keep them as a list.
The width is taken from the rows, except that `nullspace` of sparse rows
needs `ncols`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm


def _ratio(a: int, b: int):
    """a/b as an int when b divides a, else as a Fraction."""
    return a // b if a % b == 0 else Fraction(a, b)


def _items(row):
    """(column, value) pairs of a dense list or a dict {column: value}."""
    return row.items() if isinstance(row, dict) else enumerate(row)


def _content_free(row):
    """An integer dict divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {j: e // g for j, e in row.items()} if g > 1 else row


def _integer(row, drop=frozenset()):
    """A positive multiple of the row, its entries in the columns `drop`
    left out, as a primitive integer dict; a row of ints, as every ansatz
    row is, needs no common denominator."""
    out = {j: e for j, e in _items(row) if e and j not in drop}
    try:
        return _content_free(out)
    except TypeError:  # gcd of a Fraction
        den = lcm(*(e.denominator for e in out.values()))
        return _content_free({j: e.numerator * (den // e.denominator)
                              for j, e in out.items()})


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


def _reduce(rows, ncols=inf, units=None):
    """The RREF of the rows as {pivot column: primitive integer row}, each
    pivot entry positive, and the column index {column: set of pivot
    columns whose row holds it} of the columns below `ncols` that hold no
    pivot.  Pivots lie below column `ncols`; a row that has no entry there
    after reduction is dropped.  `units`, if given, gathers the unit pivots."""
    pivots, index, units = {}, {}, set() if units is None else units
    for row in rows:
        row = _integer(row, units)
        if not row:
            continue
        for c in [c for c in row if c in pivots]:
            row = _combine(row, pivots[c], c)
        lead = min(row, default=ncols)
        if lead >= ncols:
            continue
        if row[lead] < 0:
            row = {j: -e for j, e in row.items()}
        unit = len(row) == 1
        for c in index.pop(lead, ()):
            old = pivots[c]
            if unit:  # the entry is a multiple of the new row: delete it
                new = _content_free({j: e for j, e in old.items() if j != lead})
            else:
                new = _combine(old, row, lead)
                for j in old.keys() - new.keys():
                    if j != lead and j < ncols:
                        index[j].discard(c)
                for j in new.keys() - old.keys():
                    if j < ncols:
                        index.setdefault(j, set()).add(c)
            pivots[c] = new
            if len(new) == 1:
                units.add(c)
        for j in row:
            if j != lead and j < ncols:
                index.setdefault(j, set()).add(lead)
        pivots[lead] = row
        if unit:
            units.add(lead)
    return pivots, index


def rref(matrix):
    """Reduced row echelon form.  Returns (rows, pivot_columns), the pivot
    columns ascending."""
    matrix = list(matrix)
    if not matrix:
        return [], []
    width = len(matrix[0])
    pivots = _reduce(matrix)[0]
    order = sorted(pivots)
    return [[_ratio(pivots[c].get(j, 0), pivots[c][c]) for j in range(width)]
            for c in order], order


def rank(matrix) -> int:
    return len(_reduce(matrix)[0])


def nullspace(matrix, ncols: int | None = None, zero: set | None = None):
    """Basis of {x : Ax = 0}, one primitive vector per free column.

    Rows are dense lists, or sparse dicts {column: value} of width `ncols`,
    and may come as a one-shot iterator: with `ncols` given, no row is
    held once it is reduced.  A caller's empty set `zero` collects the
    columns proved zero (the unit pivots) as they are found."""
    if ncols is None:
        matrix = list(matrix)
        if not matrix:
            return []
        ncols = len(matrix[0])
    pivots, index = _reduce(matrix, ncols, zero)
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        hits = index.get(fc, ())
        scale = lcm(*(pivots[c][c] for c in hits))
        vec = [0] * ncols
        vec[fc] = scale
        for c in hits:
            row = pivots[c]
            vec[c] = -row[fc] * (scale // row[c])
        g = gcd(*vec)
        if next(e for e in vec if e) < 0:
            g = -g
        basis.append([e // g for e in vec])
    return basis


def span_equal(a, b) -> bool:
    """Row spans coincide: rank A = rank B = rank of the stack."""
    a, b = list(a), list(b)
    return rank(a) == rank(b) == rank(a + b)


def coordinates_in_rowspan(rows, target):
    """Express target as a combination of the given rows, or None.

    Returns coefficients c with sum_i c_i rows[i] = target."""
    return rowspan_coordinates(rows, [target])[0]


def rowspan_coordinates(rows, targets):
    """`coordinates_in_rowspan` for each target, reducing the rows once."""
    rows, targets = list(rows), list(targets)
    # bookkeeping columns n + i, right of every column of rows and targets;
    # column n + len(rows) of a target holds the factor it was scaled by
    n = 1 + max((j for r in [*rows, *targets] for j, e in _items(r) if e), default=-1)
    scale = n + len(rows)
    pivots = _reduce([{**dict(_items(r)), n + i: 1} for i, r in enumerate(rows)], n)[0]
    out = []
    for t in targets:
        t = _integer({**dict(_items(t)), scale: 1})
        for c in [c for c in t if c in pivots]:
            t = _combine(t, pivots[c], c)
        inside = all(j >= n for j in t)
        out.append([_ratio(-t.get(n + i, 0), t[scale]) for i in range(len(rows))]
                   if inside else None)
    return out
