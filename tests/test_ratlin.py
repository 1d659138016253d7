"""Exact linear algebra sanity checks."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from curlsym.ratlin import (
    coordinates_in_rowspan,
    nullspace,
    primitive,
    rank,
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


def test_primitive_scaling():
    v = [Fraction(1, 2), Fraction(-3, 4), Fraction(0)]
    assert primitive(v) == F(2, -3, 0) or primitive(v) == F(-2, 3, 0)
    # leading nonzero is positive
    assert primitive(v)[0] > 0


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
