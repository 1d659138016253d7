"""Exact linear algebra sanity checks."""

from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curlsym import ratlin
from curlsym import symmetry as sy
from curlsym.expr import S
from curlsym.ratlin import (
    coordinates_in_rowspan,
    nullspace,
    rank,
    rowspan_coordinates,
    rref,
    span_equal,
)


def F(*vals):
    return [Fraction(v) for v in vals]


def test_rank_and_rref():
    m = [F(1, 2, 3), F(2, 4, 6), F(0, 1, 1)]
    assert rank(m) == 2
    rows, pivots = rref(m)
    assert pivots == [0, 1]
    assert rows[0] == F(1, 0, 1)
    assert rows[1] == F(0, 1, 1)


def test_nullspace_simple():
    m = [F(1, 1, 0), F(0, 0, 1)]
    ns = nullspace(m)
    assert len(ns) == 1
    assert ns[0] == F(-1, 1, 0) or ns[0] == F(1, -1, 0)
    for row in m:
        assert sum(a * b for a, b in zip(row, ns[0])) == 0
    # no rows of a given width: every column is free
    assert nullspace([], 2) == [F(1, 0), F(0, 1)]


def test_span_equal():
    a = [F(1, 0), F(0, 1)]
    b = [F(1, 1), F(1, -1)]
    assert span_equal(a, b)
    assert not span_equal(a, [F(1, 0)])


def test_coordinates_in_rowspan():
    rows = [F(1, 0, 1), F(0, 1, 1)]
    got = coordinates_in_rowspan(rows, F(2, 3, 5))
    assert got == [Fraction(2), Fraction(3)]
    assert coordinates_in_rowspan(rows, F(0, 0, 1)) is None


@st.composite
def sparse_matrices(draw):
    """Mostly-zero integer matrices, up to twice as many rows as columns,
    with zero rows and repeated rows mixed in."""
    ncols = draw(st.integers(min_value=1, max_value=6))
    entry = st.integers(min_value=-5, max_value=5).filter(bool)
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=2 * ncols))):
        support = draw(st.sets(st.integers(0, ncols - 1), max_size=3))
        rows.append([draw(entry) if j in support else 0 for j in range(ncols)])
    rows.append([0] * ncols)
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return draw(st.permutations(rows))


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def as_sparse(matrix):
    """The rows as sparse dicts {column: value} of their nonzero entries."""
    return [{j: e for j, e in enumerate(row) if e} for row in matrix]


dense_matrices = st.lists(
    st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
    min_size=1,
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(dense_matrices, sparse_matrices()))
def test_nullspace_vectors_annihilate(matrix):
    m = [[Fraction(e) for e in row] for row in matrix]
    ns = nullspace(m)
    for vec in ns:
        for row in m:
            assert dot(row, vec) == 0
    # rank-nullity
    assert rank(m) + len(ns) == len(m[0])
    # the same rows as sparse dicts {column: value} give the same answers
    sparse = as_sparse(m)
    assert nullspace(sparse, len(m[0])) == ns
    assert rank(sparse) == rank(m)
    assert span_equal(sparse, sparse[1:]) == span_equal(m, m[1:])


@settings(max_examples=80, deadline=None)
@given(sparse_matrices())
def test_rref_is_reduced_echelon_form_of_the_input(matrix):
    ncols = len(matrix[0])
    rows, pivots = rref(matrix)
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    assert len(rows) == len(pivots) == rank(matrix)
    assert len(pivots) == np.linalg.matrix_rank(np.array(matrix, dtype=float))
    for k, (row, pc) in enumerate(zip(rows, pivots)):
        assert len(row) == ncols
        assert row[pc] == 1 and not any(row[:pc])
        assert all(other[pc] == 0 for i, other in enumerate(rows) if i != k)
    for row in matrix:
        assert coordinates_in_rowspan(rows, F(*row)) is not None
    assert span_equal(rows, matrix)


@settings(max_examples=80, deadline=None)
@given(sparse_matrices())
def test_rref_bookkeeping_block_records_the_combinations(matrix):
    n, m = len(matrix[0]), len(matrix)
    aug = [row + [int(i == k) for k in range(m)] for i, row in enumerate(matrix)]
    rows, pivots = rref(aug, cols=n)
    assert pivots == rref(matrix)[1]
    for row in rows:
        combo = [dot(row[n:], col) for col in zip(*matrix)]
        assert combo == row[:n]


@settings(max_examples=80, deadline=None)
@given(sparse_matrices(), st.data())
def test_coordinates_in_dependent_rows_reproduce_the_target(matrix, data):
    rows = [F(*row) for row in matrix]
    weights = data.draw(
        st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows))
    )
    target = [dot(weights, col) for col in zip(*rows)]
    coeffs = coordinates_in_rowspan(rows, target)
    assert [dot(coeffs, col) for col in zip(*rows)] == target
    unit = data.draw(st.integers(0, len(rows[0]) - 1))
    e = [Fraction(j == unit) for j in range(len(rows[0]))]
    inside = rank(rows + [e]) == rank(rows)
    assert (coordinates_in_rowspan(rows, e) is not None) == inside
    # sparse rows and targets, whose width is taken from the rows and targets
    assert rowspan_coordinates(as_sparse(rows), as_sparse([target, e])) == [
        coeffs, coordinates_in_rowspan(rows, e)]
    assert rank(as_sparse(rows + [e])) == rank(rows + [e])


def reference_rref(matrix):
    """Textbook dense Gauss-Jordan over Fractions, the reference for the
    fraction-free core: columns left to right, the first remaining row with
    a nonzero entry becomes the pivot row, is scaled to 1 and is cleared
    from every other row."""
    rows = [[Fraction(e) for e in row] for row in matrix]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [e / rows[r][c] for e in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [a - row[c] * b for a, b in zip(row, rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def reference_nullspace(matrix):
    """One vector per free column from the reference RREF, scaled to
    coprime integers with the first nonzero entry positive."""
    rows, pivots = reference_rref(matrix)
    basis = []
    for fc in range(len(matrix[0])):
        if fc in pivots:
            continue
        vec = [Fraction(fc == c) for c in range(len(matrix[0]))]
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc]
        den = lcm(*(e.denominator for e in vec))
        ints = [int(e * den) for e in vec]
        g = gcd(*ints) * (1 if next(e for e in ints if e) > 0 else -1)
        basis.append([Fraction(e, g) for e in ints])
    return basis


@st.composite
def rational_matrices(draw):
    """Matrices with fractional entries (denominators up to 6), with a zero
    row and repeated and proportional rows mixed in."""
    ncols = draw(st.integers(min_value=1, max_value=6))
    entry = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=2 * ncols))):
        support = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
        rows.append([draw(entry) if j in support else Fraction(0)
                     for j in range(ncols)])
    rows.append([Fraction(0)] * ncols)
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    for row, f in draw(st.lists(st.tuples(st.sampled_from(rows), entry), max_size=3)):
        rows.append([f * e for e in row])
    return rows


@settings(max_examples=150, deadline=None)
@given(rational_matrices(), st.data())
def test_core_matches_the_reference_elimination_in_any_row_order(matrix, data):
    want_rows, want_pivots = reference_rref(matrix)
    want_ns = reference_nullspace(matrix)
    for m in (matrix, data.draw(st.permutations(matrix))):
        assert rref(m) == (want_rows, want_pivots)
        assert rank(m) == len(want_pivots)
        assert nullspace(m) == want_ns
        assert nullspace(as_sparse(m), len(m[0])) == want_ns
    for vec in want_ns:
        assert all(e.denominator == 1 for e in vec)
        assert gcd(*(e.numerator for e in vec)) == 1
        assert next(e for e in vec if e) > 0


@pytest.mark.parametrize("make_system", [sy.curl_system, sy.blair_system])
def test_ansatz_basis_order_is_the_reference_elimination(make_system, monkeypatch):
    # the rows `_slot_nullspace` hands to the core, in the order it builds them
    seen = []
    real = ratlin.nullspace

    def spy(matrix, ncols=None):
        seen.append((matrix, ncols))
        return real(matrix, ncols)

    monkeypatch.setattr(ratlin, "nullspace", spy)
    res = sy._ansatz_from_polys(sy.determining_polys(make_system(S.R)), 2)
    [(matrix, ncols)] = seen
    dense = [[row.get(j, 0) for j in range(ncols)] for row in matrix]
    assert res.vectors == reference_nullspace(dense)
