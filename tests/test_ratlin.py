"""Exact linear algebra sanity checks."""

from fractions import Fraction
from math import gcd, inf, lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curlsym import ratlin
from curlsym import symmetry as sy
from curlsym.expr import S, to_string
from curlsym.ratlin import (
    coordinates_in_rowspan,
    nullspace,
    rank,
    rowspan_coordinates,
    rref,
    span_equal,
)
from test_symmetry import _resolved_reference


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


@st.composite
def unit_pivot_matrices(draw):
    """Integer matrices up to 12 wide whose rows mostly hold one entry.  The
    others are short rows, and rows that hold one entry plus a combination
    of other rows, so that they reduce to one entry only after clearing; in
    any order, some pivot rows shrink to one entry only when a later row
    clears them."""
    ncols = draw(st.integers(min_value=1, max_value=12))
    column = st.integers(0, ncols - 1)
    entry = st.integers(-4, 4).filter(bool)
    rows = []
    # "1": one entry, "2": one to three entries, "+": one entry plus a
    # combination of earlier rows
    for kind in draw(st.lists(st.sampled_from("1112+"), min_size=1, max_size=2 * ncols)):
        row = [0] * ncols
        for j in draw(st.sets(column, min_size=1, max_size=3 if kind == "2" else 1)):
            row[j] = draw(entry)
        if kind == "+" and rows:
            for other, f in draw(st.lists(st.tuples(st.sampled_from(rows), entry),
                                          min_size=1, max_size=2)):
                row = [a + f * b for a, b in zip(row, other)]
        rows.append(row)
    rows.append([0] * ncols)
    return draw(st.permutations(rows))


@settings(max_examples=150, deadline=None)
@given(st.one_of(rational_matrices(), unit_pivot_matrices()), st.data())
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
    # the rows the ansatz hands to the core, in the order it builds them
    seen = []
    real = ratlin.nullspace

    def spy(matrix, ncols=None, zero=None):
        # the rows come as a one-shot iterator: read them once, pass them on
        matrix = list(matrix)
        seen.append((matrix, ncols))
        return real(matrix, ncols, zero)

    monkeypatch.setattr(ratlin, "nullspace", spy)
    reference = _resolved_reference(make_system(S.R))
    res = sy._ansatz_from_polys(sy.determining_polys(reference), 2)
    [(matrix, ncols)] = seen
    dense = [[row.get(j, 0) for j in range(ncols)] for row in matrix]
    assert res.vectors == reference_nullspace(dense)


@settings(max_examples=150, deadline=None)
@given(rational_matrices(), st.data())
def test_one_shot_rows_give_what_the_list_gives(matrix, data):
    # repeated, proportional and zero rows, read once from an iterator
    ncols = len(matrix[0])
    sparse = as_sparse(matrix)
    assert nullspace(iter(matrix)) == nullspace(matrix)
    assert nullspace(iter(sparse), ncols) == nullspace(sparse, ncols) == nullspace(matrix)
    assert rank(iter(matrix)) == rank(iter(sparse)) == rank(matrix)
    targets = data.draw(st.lists(st.sampled_from(matrix), max_size=2)) + [
        [Fraction(j == 0) for j in range(ncols)]]
    assert (rowspan_coordinates(iter(matrix), iter(targets))
            == rowspan_coordinates(matrix, targets))
    assert rref(iter(matrix)) == rref(matrix)
    assert span_equal(iter(matrix), iter(matrix[::-1]))


def scan_reduce(rows, ncols=inf):
    """The core's elimination before it kept a column index: a new pivot
    scans every pivot row for its column.  The reference for `_reduce`."""
    pivots = {}
    for row in rows:
        row = ratlin._integer(row)
        for c in [c for c in row if c in pivots]:
            row = ratlin._combine(row, pivots[c], c)
        lead = min((j for j in row if j < ncols), default=None)
        if lead is None:
            continue
        if row[lead] < 0:
            row = {j: -e for j, e in row.items()}
        for c, prow in pivots.items():
            if lead in prow:
                pivots[c] = ratlin._combine(prow, row, lead)
        pivots[lead] = row
    return pivots


@settings(max_examples=150, deadline=None)
@given(st.one_of(rational_matrices(), sparse_matrices(), unit_pivot_matrices()),
       st.data())
def test_indexed_reduce_matches_the_scan_and_indexes_its_rows(matrix, data):
    ncols = data.draw(st.integers(1, len(matrix[0])))
    pivots, index = ratlin._reduce(matrix, ncols)
    assert pivots == scan_reduce(matrix, ncols)
    # the index names, for each column below ncols that holds no pivot,
    # exactly the pivot rows that hold it
    want = {}
    for c, row in pivots.items():
        for j in row:
            if j != c and j < ncols:
                want.setdefault(j, set()).add(c)
    assert {j: cs for j, cs in index.items() if cs} == want


def test_the_row_builders_hand_the_core_an_iterator(monkeypatch):
    seen = []
    real = ratlin.nullspace

    def spy(matrix, ncols=None, zero=None):
        seen.append(matrix)
        return real(matrix, ncols, zero)

    monkeypatch.setattr(ratlin, "nullspace", spy)
    assert len(sy.solve_polynomial_ansatz(sy.blair_system(S.R), 1).vectors) == 7
    # f_u = f_v = f_w = 0 leaves the constants of p + q R, deg p <= 1
    assert [to_string(e) for e in sy.solve_f_family([S.f_u, S.f_v, S.f_w], 1)] == ["1"]
    assert len(seen) == 2
    for matrix in seen:
        assert not isinstance(matrix, (list, tuple)) and iter(matrix) is matrix


def _combine_pivot_sizes(run):
    """The entry count of the pivot row of each `_combine` call in run()."""
    sizes = []
    real = ratlin._combine

    def spy(row, prow, c):
        sizes.append(len(prow))
        return real(row, prow, c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ratlin, "_combine", spy)
        run()
    return sizes


@settings(max_examples=100, deadline=None)
@given(st.one_of(rational_matrices(), unit_pivot_matrices()))
def test_no_combination_meets_a_one_entry_pivot_row(matrix):
    ncols = len(matrix[0])
    sizes = _combine_pivot_sizes(lambda: (
        rref(matrix), rank(iter(matrix)), nullspace(as_sparse(matrix), ncols)))
    assert 1 not in sizes


@pytest.mark.parametrize("make_system", [sy.curl_system, sy.blair_system])
def test_degree_3_ansatz_combines_no_one_entry_pivot_row(make_system):
    sizes = _combine_pivot_sizes(
        lambda: sy.solve_polynomial_ansatz(make_system(S.R), 3))
    assert 1 not in sizes
    # combining against one-entry rows took 4,633 (curl-absB) and 7,011
    # (blair) calls; deleting their entries leaves 826 and 613
    assert len(sizes) < 1000
