"""An independent oracle for the reference generators, the bracket tables,
the adjoint tables and the two solutions.

The sympy side reads the reference bases and tables from the fixture text
itself and computes with sympy alone; nothing of curlsym takes part in it.
Only the values it checks come from curlsym: the structure constants, the
closed-form adjoint entries and the built-in fields, the latter two as
printed expressions.  Each basis costs one exact solve: the polynomial
coefficients of all its brackets against those of its elements.  That the
reference generators are symmetries at all is checked from the fixture
text too, by the first prolongation on the solved equations."""

from pathlib import Path

import pytest
import sympy as sp
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

import curlsym
from curlsym import fixtures as fx
from curlsym import liealg as la
from curlsym import solutions
from curlsym.expr import to_string

FIXTURES = Path(curlsym.__file__).parent / "fixtures"
COORDS = sp.symbols("x y z u v w", real=True)
x, y, z, u, v, w = COORDS
EPS = sp.Symbol("eps", real=True)
GENS = sp.symbols("X1:11")
_NAMES = {str(s): s for s in (*COORDS, EPS, *GENS)}
_TRANSFORMS = standard_transformations + (convert_xor,)


def _sym(text: str) -> sp.Expr:
    return parse_expr(text, local_dict=_NAMES, transformations=_TRANSFORMS)


def _content(name: str) -> list:
    lines = (FIXTURES / name).read_text(encoding="utf-8").splitlines()
    return [ln.strip() for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]


def _basis(name: str) -> list:
    """[(zeta, ..., psi)] in file order; each line is `Xk: c1 | ... | c6`."""
    out = []
    for k, line in enumerate(_content(name), start=1):
        label, coeffs = line.split(":", 1)
        assert label.strip() == f"X{k}"
        out.append(tuple(_sym(c) for c in coeffs.split("|")))
    return out


def _coordinates(text: str, dim: int) -> tuple:
    """The coefficients of X1..Xdim in a printed combination."""
    combo = sp.expand(_sym(text))
    coords = tuple(combo.coeff(g) for g in GENS[:dim])
    assert sp.expand(combo - sum(c * g for c, g in zip(coords, GENS))) == 0
    return coords


def _combinations(name: str, dim: int) -> dict:
    """{(i, j): coordinates} of the lines `Xi,Xj -> combination`."""
    out = {}
    for line in _content(name):
        key, rhs = line.split("->")
        i, j = (int(t.strip()[1:]) for t in key.split(","))
        out[(i, j)] = _coordinates(rhs, dim)
    return out


def _bracket(a: tuple, b: tuple) -> tuple:
    """[A, B]: A applied to B's coefficients minus B applied to A's."""
    return tuple(
        sp.expand(sum(ca * sp.diff(cb_k, s) - cb * sp.diff(ca_k, s)
                      for ca, cb, s in zip(a, b, COORDS)))
        for ca_k, cb_k in zip(a, b)
    )


def _coefficient_matrix(fields: list) -> sp.Matrix:
    """One column per field: its polynomial coefficients, one row per
    (slot, monomial) that any of the fields uses."""
    dicts = [[sp.Poly(c, *COORDS).as_dict() for c in f] for f in fields]
    keys = sorted({(k, m) for d in dicts for k, dk in enumerate(d) for m in dk})
    return sp.Matrix([[d[k].get(m, 0) for d in dicts] for k, m in keys])


def _table(basis: list) -> dict:
    """{(i, j): coordinates of [Xi, Xj] in the basis}, 1-based, by one exact
    solve of the basis columns against every bracket column at once."""
    n = len(basis)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    brackets = [_bracket(basis[i - 1], basis[j - 1]) for i, j in pairs]
    stacked = _coefficient_matrix(basis + brackets)
    a, b = stacked[:, :n], stacked[:, n:]
    assert a.rank() == n, "the basis is linearly dependent"
    coords = (a.T * a).solve(a.T * b)
    assert a * coords == b, "a bracket leaves the span of the basis"
    return {p: tuple(coords[:, col]) for col, p in enumerate(pairs)}


@pytest.fixture(scope="module")
def oracle():
    return {10: _table(_basis("basis_10.txt")), 7: _table(_basis("basis_7.txt"))}


@pytest.mark.parametrize("dim", [10, 7])
def test_structure_constants_match_sympy_cell_by_cell(oracle, dim):
    table = la.structure_constants(fx.load_basis(dim))
    for (i, j), want in oracle[dim].items():
        got = tuple(sp.Rational(c.numerator, c.denominator)
                    for c in table.coordinates(i, j))
        assert got == want, f"[X{i}, X{j}]"


def test_reference_table_differs_from_sympy_exactly_at_the_corrections(oracle):
    reference = _combinations("brackets_10.txt", 10)
    corrections = _combinations("bracket_corrections.txt", 10)
    assert set(reference) == set(oracle[10])
    for cell, coords in corrections.items():
        assert coords == oracle[10][cell], f"correction {cell}"
    wrong = {cell for cell, coords in reference.items() if coords != oracle[10][cell]}
    assert wrong == set(corrections)


@pytest.mark.parametrize("dim", [10, 7])
def test_candidate_pairs_bracket_to_minus_x6(oracle, dim):
    minus_x6 = tuple(-1 if k == 6 else 0 for k in range(1, dim + 1))
    assert oracle[dim][(2, 5)] == minus_x6
    assert oracle[dim][(3, 4)] == minus_x6


@pytest.mark.parametrize("dim", [10, 7])
def test_adjoint_closed_forms_solve_the_adjoint_flow(oracle, dim):
    """Each printed y(eps) = Ad(exp(eps*Xi)) Xj starts at e_j and solves
    y' = -ad_i y, with ad_i from the oracle's own bracket table, exactly:
    the unique solution of that initial value problem."""
    table = la.structure_constants(fx.load_basis(dim))
    for i in range(1, dim + 1):
        for j, coeffs in enumerate(la.adjoint_closed_form(table, i), start=1):
            ys = _coordinates(la.format_combination(coeffs, table.names), dim)
            assert [c.subs(EPS, 0) for c in ys] == [int(k == j) for k in range(1, dim + 1)]
            for k in range(dim):
                ad_y = sum(oracle[dim][(i, l)][k] * c for l, c in enumerate(ys, start=1))
                assert sp.expand(sp.diff(ys[k], EPS) + ad_y) == 0, (i, j, k + 1)


def _curl(b: tuple) -> tuple:
    bu, bv, bw = b
    return (sp.diff(bw, y) - sp.diff(bv, z), sp.diff(bu, z) - sp.diff(bw, x),
            sp.diff(bv, x) - sp.diff(bu, y))


def _div(b: tuple) -> sp.Expr:
    return sum(sp.diff(c, s) for c, s in zip(b, (x, y, z)))


R2 = x**2 + y**2 + z**2
B1 = (sp.sin(z), sp.cos(z), sp.Integer(0))
B2 = (8 * (x*z - y) / (1 + R2)**2, 8 * (x + y*z) / (1 + R2)**2,
      4 * (1 + z**2 - x**2 - y**2) / (1 + R2)**2)


@pytest.mark.parametrize("field, builtin", [(B1, solutions.B1), (B2, solutions.B2)],
                         ids=["B1", "B2"])
def test_builtin_solutions_are_the_oracle_fields(field, builtin):
    for ours, theirs in zip(field, (builtin.u, builtin.v, builtin.w)):
        assert sp.simplify(ours - _sym(to_string(theirs))) == 0


def _solves_curl_with_magnitude(b: tuple, magnitude: sp.Expr) -> bool:
    """curl B = |B| B, given a magnitude that is positive and whose square
    is |B|^2."""
    if sp.simplify(sum(c**2 for c in b) - magnitude**2) != 0:
        return False
    return all(sp.simplify(c - magnitude * bc) == 0 for c, bc in zip(_curl(b), b))


def test_b1_solves_the_blair_system():
    assert _solves_curl_with_magnitude(B1, sp.Integer(1))
    assert sp.simplify(_div(B1)) == 0


def test_b2_solves_the_curl_system_but_not_div_free():
    assert _solves_curl_with_magnitude(B2, 4 / (1 + R2))
    assert sp.simplify(_div(B2) - 8 * z / (1 + R2)**2) == 0


# --- the generators are symmetries ------------------------------------------

BASE, FIELD = COORDS[:3], COORDS[3:]
JETS = {(c, s): sp.Symbol(f"{c}_{s}", real=True) for c in FIELD for s in BASE}
MAGNITUDE = sp.sqrt(u**2 + v**2 + w**2)


def _jet(c, s):
    return JETS[(c, s)]


# curl B = |B| B, and div B = 0 for the Blair system, each solved for one
# first jet that no right-hand side holds
CURL = {_jet(w, y): _jet(v, z) + MAGNITUDE * u,
        _jet(u, z): _jet(w, x) + MAGNITUDE * v,
        _jet(v, x): _jet(u, y) + MAGNITUDE * w}
DIV = {_jet(u, x): -_jet(v, y) - _jet(w, z)}


def _total(c: sp.Expr, s: sp.Symbol) -> sp.Expr:
    """D_s of a function of (x, y, z, u, v, w)."""
    return sp.diff(c, s) + sum(sp.diff(c, a) * _jet(a, s) for a in FIELD)


def _prolonged(gen: tuple, eq: sp.Expr) -> sp.Expr:
    """pr X applied to a first-order equation, X = (zeta, ..., psi).  The
    first jet coefficient of u^a in s is D_s Q^a + xi^t u^a_st, Q^a = phi^a -
    xi^t u^a_t the characteristic; the second jets cancel, which leaves
    D_s phi^a - u^a_t D_s xi^t."""
    xi, phi = gen[:3], gen[3:]
    out = sum(g * sp.diff(eq, s) for g, s in zip(gen, COORDS))
    for a, pa in zip(FIELD, phi):
        for s in BASE:
            coeff = _total(pa, s) - sum(_jet(a, t) * _total(xt, s)
                                        for t, xt in zip(BASE, xi))
            out += coeff * sp.diff(eq, _jet(a, s))
    return out


def _is_symmetry(gen: tuple, solved: dict) -> bool:
    """pr X of each equation `jet - value` vanishes where the equations
    hold.  Times |B|, no term keeps 1/|B|, and |B|^2 evaluates to
    u^2 + v^2 + w^2: the expansion is p + q*|B| with p and q polynomials,
    zero exactly when both are, as |B| is irrational."""
    return all(sp.expand(MAGNITUDE * _prolonged(gen, jet - value).subs(solved)) == 0
               for jet, value in solved.items())


def _flipped(gen: tuple) -> tuple:
    """gen with the sign of its last nonzero coefficient flipped; None when
    that is its only one, as -X is a symmetry whenever X is."""
    nonzero = [k for k, c in enumerate(gen) if c != 0]
    if len(nonzero) < 2:
        return None
    return tuple(-c if k == nonzero[-1] else c for k, c in enumerate(gen))


_SYSTEMS = [("basis_10.txt", CURL), ("basis_7.txt", {**CURL, **DIV})]


@pytest.mark.parametrize("name, solved", _SYSTEMS, ids=["b10-curl", "b7-blair"])
def test_each_reference_generator_is_a_symmetry(name, solved):
    for k, gen in enumerate(_basis(name), start=1):
        assert _is_symmetry(gen, solved), f"X{k}"
        flipped = _flipped(gen)
        assert flipped is None or not _is_symmetry(flipped, solved), \
            f"X{k}, one sign flipped"


def test_the_conformal_generators_break_div_b_zero():
    # X8..X10 of b10 keep curl B = |B| B but not div B = 0: b7 leaves them out
    for k, gen in enumerate(_basis("basis_10.txt")[7:], start=8):
        assert not _is_symmetry(gen, {**CURL, **DIV}), f"X{k}"
