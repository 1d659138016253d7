"""Bracket tables, the adjoint representation, and subalgebra closure,
compared cell-by-cell against the shipped reference fixtures."""

import random
from fractions import Fraction

import numpy as np
import pytest

from curlsym import fixtures as fx
from curlsym import liealg as la
from curlsym.expr import S, eval_numeric, parse
from curlsym.jet import GeneratorField


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


def test_bracket_of_field_with_itself_vanishes():
    for g in B10:
        assert la.bracket(g, g).is_zero()


def test_bracket_antisymmetry_and_bilinearity():
    rng = random.Random(7)
    for _ in range(4):
        a, b, c = (B10[rng.randrange(10)] for _ in range(3))
        s = parse(str(rng.randrange(-3, 4)))
        assert la.bracket(a, b).equals(la.bracket(b, a).scale(parse("-1")))
        left = la.bracket(a.scale(s) + b, c)
        right = la.bracket(a, c).scale(s) + la.bracket(b, c)
        assert left.equals(right)


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


def test_bracket_table_matches_reference_except_documented_cells():
    mismatches = la.table_mismatches(T10, fx.load_bracket_table())
    corrections = fx.load_bracket_corrections()
    assert {m.pair for m in mismatches} == set(corrections)
    for m in mismatches:
        assert m.computed == corrections[m.pair].constant_coordinates(10)


def test_documented_bracket_cells():
    assert T10.coordinates(5, 9) == _coords(k7=1)
    assert T10.coordinates(9, 5) == _coords(k7=-1)
    assert T10.coordinates(9, 2) == _coords(k8=Fraction(1, 2))


# --- adjoint representation ---------------------------------------------------


def test_adjoint_numeric_identity_at_zero():
    for i in range(1, 8):
        for j in range(1, 8):
            vec = la.adjoint_numeric(T7, i, j, 0.0)
            want = np.eye(7)[j - 1]
            assert np.allclose(vec, want, atol=1e-12)


def test_adjoint_numeric_fixed_point_on_own_generator():
    for i in range(1, 8):
        vec = la.adjoint_numeric(T7, i, i, 0.83)
        assert np.allclose(vec, np.eye(7)[i - 1], atol=1e-12)


def test_adjoint_numeric_group_property():
    for i in (1, 4, 7):
        for e1 in (0.1, 0.3):
            for e2 in (0.1, 0.3):
                a = la.ad_matrix(T7, i)
                lhs = la.adjoint_numeric(T7, i, 2, e1 + e2)
                from scipy.linalg import expm

                rhs = expm(-e1 * a) @ la.adjoint_numeric(T7, i, 2, e2)
                assert np.allclose(lhs, rhs, atol=1e-10)


def test_adjoint_closed_form_samples():
    names = T7.names
    assert la.adjoint_closed_form(T7, 1, 2).to_string(names) == (
        "cos(eps)*X2 - sin(eps)*X3"
    )
    assert la.adjoint_closed_form(T7, 7, 4).to_string(names) == "exp(eps)*X4"
    assert la.adjoint_closed_form(T7, 1, 4).to_string(names) == (
        "cos(eps)*X4 + sin(eps)*X5"
    )
    assert la.adjoint_closed_form(T7, 7, 1).to_string(names) == "X1"


def test_adjoint_closed_form_matches_reference_everywhere():
    ref = fx.load_adjoint_table()
    for (i, j), combo in sorted(ref.items()):
        entry = la.adjoint_closed_form(T7, i, j)
        assert la.adjoint_entry_matches(entry, combo.coordinate_functions(7)), (
            i,
            j,
            entry.to_string(T7.names),
        )


def test_adjoint_closed_form_agrees_with_numeric_on_fresh_samples():
    rng = np.random.default_rng(3)
    pairs = [(1, 2), (4, 7), (7, 5), (3, 6), (2, 2)]
    for i, j in pairs:
        entry = la.adjoint_closed_form(T7, i, j)
        for t in rng.uniform(0.05, 2.6, size=20):
            numeric = la.adjoint_numeric(T7, i, j, float(t))
            for k, c in enumerate(entry.coefficients):
                assert abs(eval_numeric(c, {S.eps: float(t)}) - numeric[k]) < 1e-9


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
    entry = la.adjoint_closed_form(heisenberg, 1, 2)
    assert entry.to_string(heisenberg.names) == "X2 - eps/1000003*X3"


def test_adjoint_rejects_entries_outside_the_dictionary():
    scaled = [B7[3], B7[6].scale(parse("2"))]
    t = la.structure_constants(scaled)  # bracket gives -2 * first element
    with pytest.raises(la.NoClosedForm):
        la.adjoint_closed_form(t, 2, 1)  # entry would be exp(2*eps)
    filiform = _table_from_brackets(
        5, {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}}
    )
    with pytest.raises(la.NoClosedForm):
        la.adjoint_closed_form(filiform, 1, 2)  # entry would need eps^3


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
        got = fx.parse_combination(s).constant_coordinates(10)
        assert got == T10.coordinates(i, j)


def test_grids_and_json_are_well_formed():
    grid = la.table_grid(T7)
    assert len(grid.splitlines()) == 8
    data = la.table_to_json(T7)
    assert data["entries"]["X4,X7"] == "X4"
    entries = {
        (i, j): la.adjoint_closed_form(T7, i, j)
        for i in range(1, 8)
        for j in range(1, 8)
    }
    agrid = la.adjoint_grid(entries, T7.names)
    assert "exp(eps)*X4" in agrid
