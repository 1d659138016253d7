"""Bracket tables, the adjoint representation, and subalgebra closure,
compared cell-by-cell against the shipped reference fixtures."""

import random
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from curlsym import fixtures as fx
from curlsym import liealg as la
from curlsym.expr import (
    Num, S, compile_numeric, cos, equal_exprs, exp, normal_expression, normalize,
    parse, sin, _poly_key,
)
from curlsym.jet import GeneratorField
from curlsym.ratlin import rref

from reference import (
    add_fields, field_is_zero, fields_equal, scale_field, tree_bracket,
)


B10 = fx.load_basis(10)
B7 = fx.load_basis(7)
T10 = la.structure_constants(B10)
T7 = la.structure_constants(B7)


def _coords(**kv):
    vec = [Fraction(0)] * 10
    for name, c in kv.items():
        vec[int(name[1:]) - 1] = Fraction(c)
    return tuple(vec)


# --- brackets and structure constants -----------------------------------------


def test_bracket_hand_picked_entries():
    assert T10.coordinates(1, 2) == _coords(k3=1)
    assert T10.coordinates(4, 7) == _coords(k4=1)
    assert T10.coordinates(1, 4) == _coords(k5=-1)
    assert T10.coordinates(6, 8) == _coords(k7=2)


@pytest.mark.parametrize("basis, table", [(B10, T10), (B7, T7)], ids=["b10", "b7"])
def test_brackets_and_constants_match_the_expression_tree_route(
        basis, table, monkeypatch):
    for a in basis:
        for b in basis:
            assert ([_poly_key(normalize(c)) for c in la.bracket(a, b)]
                    == [_poly_key(normalize(c)) for c in tree_bracket(a, b)])
    monkeypatch.setattr(la, "bracket", tree_bracket)
    assert table.constants == la.structure_constants(basis).constants


def test_bracket_of_field_with_itself_vanishes():
    for g in B10:
        assert field_is_zero(la.bracket(g, g))


def test_bracket_antisymmetry_and_bilinearity():
    rng = random.Random(7)
    for _ in range(4):
        a, b, c = (B10[rng.randrange(10)] for _ in range(3))
        s = parse(str(rng.randrange(-3, 4)))
        assert fields_equal(la.bracket(a, b), scale_field(la.bracket(b, a), parse("-1")))
        left = la.bracket(add_fields(scale_field(a, s), b), c)
        right = add_fields(scale_field(la.bracket(a, c), s), la.bracket(b, c))
        assert fields_equal(left, right)


def test_seven_basis_table_is_the_leading_subblock():
    for i in range(1, 8):
        for j in range(1, 8):
            assert T7.coordinates(i, j) == T10.coordinates(i, j)[:7]


def test_structure_constants_single_field_is_abelian():
    t = la.structure_constants([B10[3]])
    assert t.constants == (((Fraction(0),),),)


def test_structure_constants_raises_when_not_closed():
    with pytest.raises(la.NotClosed) as err:
        la.structure_constants([B10[3], B10[9]])  # bracket gives the dilation
    assert err.value.pair == (1, 2)


def test_jacobi_holds_for_both_bases():
    assert la.jacobi_check(T10)
    assert la.jacobi_check(T7)


def test_jacobi_fails_on_a_tampered_tensor():
    doubled = list(list(row) for row in T10.constants)
    doubled[0][1] = tuple(2 * c for c in doubled[0][1])
    doubled[1][0] = tuple(-c for c in doubled[0][1])
    bad = la.LieAlgebraTable(T10.basis, T10.names, tuple(map(tuple, doubled)))
    assert not la.jacobi_check(bad)


def _dense_jacobi(table):
    """The reference: every index combination, zero constants included."""
    c, n = table.constants, table.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(n):
                    acc = Fraction(0)
                    for m in range(n):
                        acc += (c[i][j][m] * c[m][k][l]
                                + c[j][k][m] * c[m][i][l]
                                + c[k][i][m] * c[m][j][l])
                    if acc:
                        return False
    return True


def test_jacobi_over_nonzero_constants_matches_the_dense_loop():
    perturbed = [list(row) for row in T7.constants]
    vec = list(perturbed[0][1])  # [X1, X2] = X3 gains 1/3 X1
    vec[0] += Fraction(1, 3)
    perturbed[0][1] = tuple(vec)
    perturbed[1][0] = tuple(-c for c in vec)
    bad = la.LieAlgebraTable(T7.basis, T7.names, tuple(map(tuple, perturbed)))
    for table, verdict in ((T7, True), (T10, True), (bad, False)):
        assert _dense_jacobi(table) is verdict
        assert la.jacobi_check(table) is verdict


def test_bracket_table_matches_reference_except_documented_cells():
    mismatches = la.table_mismatches(T10, fx.load_bracket_table())
    corrections = fx.load_bracket_corrections()
    assert {m.pair for m in mismatches} == set(corrections)
    for m in mismatches:
        assert m.computed == corrections[m.pair]


def test_documented_bracket_cells():
    assert T10.coordinates(5, 9) == _coords(k7=1)
    assert T10.coordinates(9, 5) == _coords(k7=-1)
    assert T10.coordinates(9, 2) == _coords(k8=Fraction(1, 2))


# --- adjoint representation ---------------------------------------------------


# the dictionary of eps-functions a closed-form entry may be built from: the
# solutions of y^(7) = y^(3), characteristic polynomial t^3 (t^2+1) (t^2-1)
_DICTIONARY = (
    Num(Fraction(1)), S.eps, S.eps**2,
    cos(S.eps), sin(S.eps), exp(S.eps), exp(-S.eps),
)


def _taylor_row(k):
    """eps^k Taylor coefficient at eps = 0 of each dictionary function."""
    f = Fraction(1, factorial(k))
    sign = (-1) ** (k // 2)
    return [Fraction(k == 0), Fraction(k == 1), Fraction(k == 2),
            sign * f * (k % 2 == 0), sign * f * (k % 2), f, (-1) ** k * f]


def _closed_form_entry(table, i, j):
    """Reference: the closed form of the single entry Ad(exp(eps*Xi)) Xj,
    with its own dense powers of ad_i and its own Wronskian solve: the
    dictionary coefficients match the Taylor coefficients k = 0..6."""
    c = table.constants[i - 1]
    n = table.dim
    powers = [[Fraction(l == j - 1) for l in range(n)]]
    for _ in range(7):
        v = powers[-1]
        powers.append([-sum(c[l][k] * v[l] for l in range(n)) for k in range(n)])
    if powers[7] != powers[3]:
        raise la.NoClosedForm(f"entry ({i},{j}) is not in the dictionary span")
    # the Wronskian block is invertible, so its 7 columns are the pivots
    rows, pivots = rref(
        [_taylor_row(k) + [e / factorial(k) for e in powers[k]] for k in range(7)]
    )
    assert pivots == list(range(7))
    coeffs = []
    for m in range(n):
        expr = Num(Fraction(0))
        for row, basis_expr in zip(rows, _DICTIONARY):
            if row[7 + m]:
                expr = expr + Num(row[7 + m]) * basis_expr
        coeffs.append(normal_expression(expr))
    return tuple(coeffs)


def _ad_matrix(table, i):
    """Float matrix of ad(Xi) on coordinates, as rows: column l holds
    [Xi, Xl]; 1-based i."""
    c = table.constants[i - 1]
    n = table.dim
    return [[float(c[l][k]) for l in range(n)] for k in range(n)]


def _numeric_entry(table, i, j, eps):
    """Reference: Ad(exp(eps*Xi)) Xj from the matrix exponential of
    -eps*ad_i."""
    m = la.expm([[-eps * v for v in row] for row in _ad_matrix(table, i)])
    return [row[j - 1] for row in m]


@pytest.mark.parametrize("table", [T7, T10], ids=["b7", "b10"])
def test_adjoint_per_generator_equals_the_per_entry_reference(table):
    """All 49 + 100 entries: the same coefficient strings as the Wronskian
    solve of each entry on its own, and floats within 1e-13 relative of its
    matrix exponential, also at eps = 30 where the e^eps parts of the
    rotation entries cancel."""
    n = table.dim
    for i in range(1, n + 1):
        closed = la.adjoint_closed_form(table, i)
        assert len(closed) == n
        for j in range(1, n + 1):
            assert la.format_combination(closed[j - 1], table.names) == (
                la.format_combination(_closed_form_entry(table, i, j), table.names)
            ), (i, j)
        for eps in (0.0, 0.7, -3.0, 2.6, 10.0, 30.0):
            numeric = la.adjoint_numeric(table, i, eps)
            for j in range(1, n + 1):
                for got, want in zip(numeric[j - 1], _numeric_entry(table, i, j, eps)):
                    assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (i, j, eps)


def test_adjoint_numeric_identity_at_zero():
    for i in range(1, 8):
        assert np.allclose(la.adjoint_numeric(T7, i, 0.0), np.eye(7), atol=1e-12)


def test_adjoint_numeric_fixed_point_on_own_generator():
    for i in range(1, 8):
        vec = la.adjoint_numeric(T7, i, 0.83)[i - 1]
        assert np.allclose(vec, np.eye(7)[i - 1], atol=1e-12)


def test_adjoint_numeric_group_property():
    for i in (1, 4, 7):
        for e1 in (0.1, 0.3):
            for e2 in (0.1, 0.3):
                a = np.array(_ad_matrix(T7, i))
                lhs = la.adjoint_numeric(T7, i, e1 + e2)[1]
                from scipy.linalg import expm

                rhs = expm(-e1 * a) @ la.adjoint_numeric(T7, i, e2)[1]
                assert np.allclose(lhs, rhs, atol=1e-10)


@pytest.mark.parametrize("i", range(1, 8))
def test_expm_matches_scipy(i):
    """eps = 0 gives the zero matrix."""
    from scipy.linalg import expm

    a = np.array(_ad_matrix(T7, i))
    for eps in (0, 0.5, -3, 2.6, 30):
        got = np.array(la.expm((-eps * a).tolist()))
        want = expm(-eps * a)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _entry_string(table, i, j):
    return la.format_combination(la.adjoint_closed_form(table, i)[j - 1], table.names)


def test_adjoint_closed_form_samples():
    assert _entry_string(T7, 1, 2) == "cos(eps)*X2 - sin(eps)*X3"
    assert _entry_string(T7, 7, 4) == "exp(eps)*X4"
    assert _entry_string(T7, 1, 4) == "cos(eps)*X4 + sin(eps)*X5"
    assert _entry_string(T7, 7, 1) == "X1"


def _same_coordinates(coeffs, reference) -> bool:
    """Equal length and exactly equal coefficient functions."""
    return len(coeffs) == len(reference) and all(map(equal_exprs, coeffs, reference))


def test_adjoint_closed_form_matches_reference_everywhere():
    ref = fx.load_adjoint_table()
    rows = {i: la.adjoint_closed_form(T7, i) for i in range(1, 8)}
    for (i, j), coords in sorted(ref.items()):
        coeffs = rows[i][j - 1]
        assert _same_coordinates(coeffs, coords), (
            i,
            j,
            la.format_combination(coeffs, T7.names),
        )


def test_adjoint_closed_form_agrees_with_numeric_on_fresh_samples():
    rng = np.random.default_rng(3)
    pairs = [(1, 2), (4, 7), (7, 5), (3, 6), (2, 2)]
    for i, j in pairs:
        coeffs = la.adjoint_closed_form(T7, i)[j - 1]
        fns = [compile_numeric(c, [S.eps]) for c in coeffs]
        for t in rng.uniform(0.05, 2.6, size=20):
            numeric = _numeric_entry(T7, i, j, float(t))
            for fn, want in zip(fns, numeric):
                assert abs(fn(float(t)) - want) < 1e-9


def _table_from_brackets(dim, brackets):
    """Table built straight from constants {(i, j): {k: c}}, 1-based, i < j."""
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), combo in brackets.items():
        for k, v in combo.items():
            c[i - 1][j - 1][k - 1] = Fraction(v)
            c[j - 1][i - 1][k - 1] = -Fraction(v)
    names = tuple(f"X{k}" for k in range(1, dim + 1))
    constants = tuple(tuple(map(tuple, row)) for row in c)
    return la.LieAlgebraTable((None,) * dim, names, constants)


def test_adjoint_closed_form_keeps_exact_rational_constants():
    heisenberg = _table_from_brackets(3, {(1, 2): {3: Fraction(1, 1000003)}})
    assert _entry_string(heisenberg, 1, 2) == "X2 - eps/1000003*X3"


def test_adjoint_rejects_entries_outside_the_dictionary():
    scaled = [B7[3], scale_field(B7[6], parse("2"))]
    t = la.structure_constants(scaled)  # bracket gives -2 * first element
    with pytest.raises(la.NoClosedForm, match=r"\(2,1\)"):
        la.adjoint_closed_form(t, 2)  # entry would be exp(2*eps)
    filiform = _table_from_brackets(
        5, {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}}
    )
    with pytest.raises(la.NoClosedForm, match=r"\(1,2\)"):
        la.adjoint_closed_form(filiform, 1)  # entry would need eps^3


def test_adjoint_names_the_first_entry_outside_the_dictionary():
    """[X1, X2] = 2*X2 makes Ad(exp(eps*X1)) X2 = exp(-2*eps)*X2, while
    Ad(exp(eps*X1)) X1 = X1 is fine: both routes refuse entry (1,2)."""
    table = _table_from_brackets(2, {(1, 2): {2: 2}})
    with pytest.raises(la.NoClosedForm, match=r"\(1,2\)") as ref:
        _closed_form_entry(table, 1, 2)
    with pytest.raises(la.NoClosedForm) as got:
        la.adjoint_closed_form(table, 1)
    assert str(got.value) == str(ref.value)
    assert la.format_combination(_closed_form_entry(table, 1, 1), table.names) == "X1"


# --- subalgebras ---------------------------------------------------------------


def test_subalgebra_closure_of_reference_pairs():
    verdicts = [la.is_subalgebra(T7, p) for p in fx.load_subalgebra_pairs()]
    # translation pairs close; of the mixed pairs only the aligned one does:
    # the other two bracket onto a translation outside the pair
    assert verdicts == [True, True, True, True, False, False]


def test_subalgebra_aligned_rotation_translation_pairs():
    assert la.is_subalgebra(T7, (2, 4))
    assert la.is_subalgebra(T7, (3, 5))
    assert not la.is_subalgebra(T7, (1, 4))


def test_whole_basis_is_a_subalgebra():
    assert la.is_subalgebra(T10, range(1, 11))


# --- formatting and serialization ----------------------------------------------


def test_format_combination_roundtrips_through_fixture_parser():
    for (i, j) in ((1, 2), (2, 9), (9, 2), (4, 10), (7, 8)):
        s = T10.entry_string(i, j)
        got = fx.parse_combination(s, 10)
        assert got == tuple(Num(c) for c in T10.coordinates(i, j))


def test_adjoint_entry_roundtrips_through_fixture_parser():
    """A sum coefficient prints in parentheses: for [X1, X2] = X2 - X1 the
    entry Ad(exp(eps*X1)) X2 is (1 - exp(-eps))*X1 + exp(-eps)*X2."""
    table = _table_from_brackets(2, {(1, 2): {1: -1, 2: 1}})
    assert table.entry_string(1, 2) == "-X1 + X2"
    coeffs = la.adjoint_closed_form(table, 1)[1]
    text = la.format_combination(coeffs, table.names)
    back = fx.parse_combination(text, 2, S.eps)
    assert _same_coordinates(coeffs, back), text
    for i, j in ((1, 2), (2, 4), (4, 1), (7, 3)):
        back = fx.parse_combination(_entry_string(T7, i, j), 7, S.eps)
        coeffs = la.adjoint_closed_form(T7, i)[j - 1]
        assert _same_coordinates(coeffs, back)


def test_grids_and_json_are_well_formed():
    grid = la.table_grid(T7)
    assert len(grid.splitlines()) == 8
    data = la.table_to_json(T7)
    assert data["entries"]["X4,X7"] == "X4"
    rows = [la.adjoint_closed_form(T7, i) for i in range(1, 8)]
    agrid = la.adjoint_grid(rows, T7.names)
    assert "exp(eps)*X4" in agrid
    assert agrid.splitlines()[0].split() == ["Ad", *T7.names]
