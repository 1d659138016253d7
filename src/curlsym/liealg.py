"""Lie-algebra structure of generator bases: brackets, structure constants,
the adjoint representation, and subalgebra closure.

Brackets are computed exactly on the generator coefficients; a basis is
closed when every bracket decomposes over the basis with rational
coordinates, and the resulting constants tensor is the single source for
everything else here.  The adjoint representation Ad(exp(eps*Xi)) acts on
coordinates as exp(-eps * ad_i) (Olver, Applications of Lie Groups to
Differential Equations, 3.3), so the entry for Xj is sum_k eps^k/k! v_k
with v_k = (-ad_i)^k e_j, exact rational vectors.  When v_7 = v_3, every
v_{k+4} = v_k for k >= 3, and the terms k >= 3 group by k mod 4 into
v_0 + eps v_1 + eps^2/2 v_2 + c_0 v_3 + c_1 v_4 + c_2 v_5 + c_3 v_6 with
c_0, c_2 = sinh(eps)/2 -+ sin(eps)/2 - (0, eps) and
c_1, c_3 = cosh(eps)/2 +- cos(eps)/2 - (1, eps^2/2).  The numeric route
evaluates that closed form at a float eps.
"""

from __future__ import annotations

from collections import namedtuple
from math import frexp, isfinite

from .expr import (
    ZERO, Add, Expr, Num, S, add, compile_numeric, cos, exp, normal_expression,
    rat_combination, sin, to_string, _rat_to_expression,
)
from .jet import GeneratorField, derivation
from .symmetry import basis_coordinates


class NotClosed(ValueError):
    """A bracket of basis elements falls outside the basis span."""

    def __init__(self, i: int, j: int, field: GeneratorField):
        super().__init__(f"bracket ({i},{j}) is not in the span of the basis")
        self.pair = (i, j)
        self.field = field


class NoClosedForm(ValueError):
    """An adjoint entry is not a combination of the dictionary functions:
    the certificate (-ad_i)^7 e_j = (-ad_i)^3 e_j fails."""


def bracket(a: GeneratorField, b: GeneratorField) -> GeneratorField:
    """Commutator of vector fields on (x,y,z,u,v,w)-space, componentwise
    a(b's coefficients) minus b(a's coefficients)."""
    fa, fb = a.field(), b.field()
    coeffs = [
        _rat_to_expression(rat_combination(((1, (), derivation(fa, cb)),
                                            (-1, (), derivation(fb, ca)))))
        for (_, ca), (_, cb) in zip(fa, fb)
    ]
    return GeneratorField(*coeffs)


class LieAlgebraTable(namedtuple("LieAlgebraTable", "basis names constants")):
    """Closed basis with the constants tensor of all pairwise brackets.

    `constants[i][j][k]` is the coefficient of basis element k in the
    bracket of elements i and j (all 0-based internally; the public lookup
    helpers below speak 1-based indices to match the X1..Xn names)."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, i: int, j: int) -> tuple:
        """Coordinates of [Xi, Xj]; i, j are 1-based."""
        return self.constants[i - 1][j - 1]

    def entry_string(self, i: int, j: int) -> str:
        return format_combination(self.coordinates(i, j), self.names)


def structure_constants(basis) -> LieAlgebraTable:
    """The closed table of basis, its elements named X1..Xn."""
    basis = tuple(basis)
    n = len(basis)
    names = tuple(f"X{k}" for k in range(1, n + 1))
    zero = (0,) * n
    table = [[zero] * n for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    brackets = [bracket(basis[i], basis[j]) for i, j in pairs]
    coords_of = basis_coordinates(basis, brackets)
    for (i, j), br, coords in zip(pairs, brackets, coords_of):
        if coords is None:
            raise NotClosed(i + 1, j + 1, br)
        vec = tuple(coords)
        table[i][j] = vec
        table[j][i] = tuple(-c for c in vec)
    return LieAlgebraTable(
        basis=basis,
        names=names,
        constants=tuple(tuple(row) for row in table),
    )


def jacobi_check(table: LieAlgebraTable) -> bool:
    """Exact Jacobi identity over all triples of the constants tensor:
    for i < j < k and every l, the sum over m of c[i][j][m] c[m][k][l] and
    its two cyclic shifts vanishes.  Only nonzero constants enter a sum."""
    nonzero = [[[(m, v) for m, v in enumerate(vec) if v] for vec in row]
               for row in table.constants]
    n = table.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = {}
                for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, x in nonzero[a][b]:
                        for l, y in nonzero[m][d]:
                            acc[l] = acc.get(l, 0) + x * y
                if any(acc.values()):
                    return False
    return True


def format_combination(coeffs, names) -> str:
    """Human form of sum_k coeffs[k]*names[k], with rational or Expr
    coefficients: '0', 'X3', '-1/2*X8 + X1', '(-exp(-eps) + 1)*X1', ...;
    a sum coefficient is parenthesized, so `parse` reads it back."""
    parts = []
    for c, name in zip(coeffs, names):
        if not isinstance(c, Expr):
            c = Num(c)
        if isinstance(c, Num) and abs(c.val) in (0, 1):
            if c.val:
                parts.append(("-" if c.val < 0 else "+", name))
            continue
        text = to_string(c)
        if isinstance(c, Add):
            parts.append(("+", f"({text})*{name}"))
        elif text.startswith("-"):
            parts.append(("-", f"{text[1:]}*{name}"))
        else:
            parts.append(("+", f"{text}*{name}"))
    if not parts:
        return "0"
    head = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return " ".join([head] + [f"{sign} {body}" for sign, body in parts[1:]])


# --- adjoint representation ---------------------------------------------------


def _matmul(a: list, b: list) -> list:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def expm(a: list) -> list:
    """Matrix exponential of a square float matrix given as rows, by
    scaling and squaring (Moler and Van Loan, SIAM Review 45 (2003)).

    a is scaled by an exact power of two 2^-s, s >= 0, so that its 1-norm
    is at most 1/2.  The degree-15 Taylor polynomial of the scaled
    exponential, evaluated by Horner's rule, is then within
    sum_{k>15} 2^-k/k! <= 2^-16/16! * 17/16.5 < 7.6e-19 of it in the
    1-norm; squaring it s times gives exp(a).  Non-finite entries give
    non-finite output."""
    n = len(a)
    norm = max((sum(abs(row[l]) for row in a) for l in range(n)), default=0.0)
    s = max(0, frexp(norm)[1] + 1) if isfinite(norm) else 0
    scale = 2.0 ** -s
    x = [[v * scale for v in row] for row in a]
    eye = [[float(k == l) for l in range(n)] for k in range(n)]
    p = eye
    for k in range(15, 0, -1):
        p = [[e + v / k for e, v in zip(erow, row)]
             for erow, row in zip(eye, _matmul(x, p))]
    for _ in range(s):
        p = _matmul(p, p)
    return p


# the coefficient functions 1, eps, eps^2/2, c_0 .. c_3 of v_0 .. v_6
_PHI = (
    Num(1), S.eps, S.eps**2 / 2,
    (exp(S.eps) - exp(-S.eps)) / 4 - sin(S.eps) / 2,
    (exp(S.eps) + exp(-S.eps)) / 4 + cos(S.eps) / 2 - 1,
    (exp(S.eps) - exp(-S.eps)) / 4 + sin(S.eps) / 2 - S.eps,
    (exp(S.eps) + exp(-S.eps)) / 4 - cos(S.eps) / 2 - S.eps**2 / 2,
)


def adjoint_closed_form(table: LieAlgebraTable, i: int) -> tuple:
    """Exact closed forms of Ad(exp(eps*Xi)) Xj, one tuple of coefficient
    functions of eps per j.  With v_k = (-ad_i)^k e_j, from the nonzero
    constants of Xi, the entry sum_k eps^k/k! v_k lies in the span of
    1, eps, eps^2, cos, sin, exp(+-eps), the solutions of y^(7) = y^(3),
    iff v_7 = v_3; then v_{k+4} = v_k for k >= 3, so it is
    sum_{k<7} phi_k v_k."""
    n, c = table.dim, table.constants[i - 1]
    # (-ad_i v)_k = -sum_l c[l][k] v_l, over the nonzero constants only
    into = [[(l, c[l][k]) for l in range(n) if c[l][k]] for k in range(n)]
    out = []
    for j in range(n):
        powers = [[int(l == j) for l in range(n)]]
        for _ in range(7):
            powers.append([-sum(x * powers[-1][l] for l, x in into[k]) for k in range(n)])
        if powers[7] != powers[3]:
            raise NoClosedForm(f"entry ({i},{j + 1}) is not in the dictionary span")
        terms = [[f * v[m] for f, v in zip(_PHI, powers) if v[m]] for m in range(n)]
        out.append(tuple(normal_expression(add(*t)) for t in terms))
    return tuple(out)


def adjoint_numeric(table: LieAlgebraTable, i: int, eps: float) -> list:
    """Coordinates of Ad(exp(eps*Xi)) applied to each Xj, as float lists in
    the order of j: the exact closed forms evaluated at eps.  Raises
    ArithmeticError or ValueError on an overflow or a domain error."""
    n = table.dim
    coeffs = tuple(c for entry in adjoint_closed_form(table, i) for c in entry)
    values = compile_numeric(coeffs, [S.eps])(eps)
    return [list(values[j * n:(j + 1) * n]) for j in range(n)]


# --- subalgebras and fixture diffs --------------------------------------------


def is_subalgebra(table: LieAlgebraTable, subset) -> bool:
    """True iff brackets of subset members stay in the subset's span.

    `subset` holds 1-based basis indices; because the basis is independent,
    membership in the span is support containment of the coordinates."""
    chosen = sorted(set(subset))
    inside = {k - 1 for k in chosen}
    for i in chosen:
        for j in chosen:
            vec = table.coordinates(i, j)
            if any(c for k, c in enumerate(vec) if k not in inside):
                return False
    return True


class TableMismatch(namedtuple("TableMismatch", "pair computed reference")):
    """A cell whose coordinates over the reference's X1..Xn disagree."""

    __slots__ = ()

    def describe(self) -> str:
        i, j = self.pair
        names = [f"X{k}" for k in range(1, len(self.reference) + 1)]
        return (
            f"[X{i},X{j}]: computed "
            f"{format_combination(self.computed, names)}, reference "
            f"{format_combination(self.reference, names)}"
        )


def table_mismatches(table: LieAlgebraTable, reference) -> list:
    """Cells where the computed table disagrees with a reference mapping
    {(i, j): coordinates as Num}; sorted by (i, j).  The reference may span
    more generators than the table: a cell of the table matches only if its
    reference coordinates past the table's dimension are 0."""
    out = []
    for (i, j), ref in sorted(reference.items()):
        got = tuple(Num(c) for c in table.coordinates(i, j))
        got += (ZERO,) * (len(ref) - len(got))
        if got != ref:
            out.append(TableMismatch((i, j), got, ref))
    return out


# --- serialization ------------------------------------------------------------


def table_to_json(table: LieAlgebraTable) -> dict:
    return {
        "names": list(table.names),
        "entries": {
            f"{table.names[i]},{table.names[j]}": table.entry_string(i + 1, j + 1)
            for i in range(table.dim)
            for j in range(table.dim)
        },
    }


def _grid(corner, names, cell) -> str:
    """Aligned text grid with the names along both edges and cell(i, j) at
    0-based row i, column j; each column padded to its widest cell."""
    n = len(names)
    cells = [[corner, *names]] + [
        [names[i], *(cell(i, j) for j in range(n))] for i in range(n)
    ]
    widths = [max(len(r[c]) for r in cells) for c in range(n + 1)]
    return "\n".join(
        "  ".join(text.ljust(w) for text, w in zip(row, widths)).rstrip()
        for row in cells
    )


def table_grid(table: LieAlgebraTable) -> str:
    """Aligned text grid of the full bracket table."""
    return _grid("", table.names, lambda i, j: table.entry_string(i + 1, j + 1))


def adjoint_grid(entries, names) -> str:
    """Aligned text grid of the adjoint table; entries[i][j] holds the
    coefficients of Ad(exp(eps*X(i+1))) X(j+1)."""
    return _grid("Ad", names, lambda i, j: format_combination(entries[i][j], names))
