"""Lie-algebra structure of generator bases: brackets, structure constants,
the adjoint representation, and subalgebra closure.

Brackets are computed exactly on the generator coefficients; a basis is
closed when every bracket decomposes over the basis with rational
coordinates, and the resulting constants tensor is the single source for
everything else here.  The adjoint representation Ad(exp(eps*Xi)) acts on
coordinates as exp(-eps * ad_i) (so the eps-linear term of Ad applied to
Xj is -eps*[Xi, Xj]).  The numeric route evaluates the matrix exponential.
The closed-form route is exact: the Taylor coefficients of
exp(-eps * ad_i) e_j are rational powers of ad_i, the entry lies in the
span of the dictionary {1, eps, eps^2, cos eps, sin eps, e^eps, e^-eps}
exactly when those powers satisfy the dictionary's equation y^(7) = y^(3),
and the dictionary coefficients then follow from one rational 7x7 solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, frexp, isfinite

from .expr import (
    ZERO, Add, Expr, Num, S, cos, exp, normal_expression, sin, to_string,
)
from .jet import GeneratorField, derivation
from .ratlin import rref
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
        normal_expression(derivation(fa, cb) - derivation(fb, ca))
        for ca, cb in zip(a.as_tuple(), b.as_tuple())
    ]
    return GeneratorField(*coeffs)


@dataclass(frozen=True)
class LieAlgebraTable:
    """Closed basis with the constants tensor of all pairwise brackets.

    `constants[i][j][k]` is the coefficient of basis element k in the
    bracket of elements i and j (all 0-based internally; the public lookup
    helpers below speak 1-based indices to match the X1..Xn names)."""

    basis: tuple
    names: tuple
    constants: tuple

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
    zero = tuple(Fraction(0) for _ in range(n))
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
            c = Num(Fraction(c))
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


def ad_matrix(table: LieAlgebraTable, i: int) -> list:
    """Float matrix of ad(Xi) on coordinates, as rows: column l holds
    [Xi, Xl]; 1-based i."""
    c = table.constants[i - 1]
    n = table.dim
    return [[float(c[l][k]) for l in range(n)] for k in range(n)]


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


def adjoint_numeric(table: LieAlgebraTable, i: int, eps: float) -> list:
    """Coordinates of Ad(exp(eps*Xi)) applied to each Xj, as float lists in
    the order of j: the columns of exp(-eps*ad_i)."""
    m = expm([[-eps * v for v in row] for row in ad_matrix(table, i)])
    return [list(col) for col in zip(*m)]


# dictionary of eps-functions an adjoint entry may be built from: the
# solutions of y^(7) = y^(3), characteristic polynomial t^3 (t^2+1) (t^2-1)
_DICTIONARY = (
    Num(Fraction(1)), S.eps, S.eps**2,
    cos(S.eps), sin(S.eps), exp(S.eps), exp(-S.eps),
)


def _taylor_row(k: int) -> list:
    """eps^k Taylor coefficient at eps = 0 of each dictionary function."""
    f = Fraction(1, factorial(k))
    sign = (-1) ** (k // 2)
    return [Fraction(k == 0), Fraction(k == 1), Fraction(k == 2),
            sign * f * (k % 2 == 0), sign * f * (k % 2), f, (-1) ** k * f]


def adjoint_closed_form(table: LieAlgebraTable, i: int) -> tuple:
    """Exact closed forms of Ad(exp(eps*Xi)) Xj over the dictionary, one
    tuple of coefficient functions of eps per j.

    With v_k = (-ad_i)^k e_j the entry is sum_k v_k eps^k / k!.  It solves
    y^(7) = y^(3), and so lies in the dictionary's span, iff v_7 = v_3; its
    dictionary coefficients then match the Taylor coefficients k = 0..6,
    whose table over the dictionary (the Wronskian at 0) is invertible, so
    one solve serves every j."""
    c = table.constants[i - 1]
    n = table.dim
    powers = [[[Fraction(l == j) for l in range(n)] for j in range(n)]]
    for _ in range(7):
        powers.append([[-sum(c[l][k] * v[l] for l in range(n)) for k in range(n)]
                       for v in powers[-1]])
    for j in range(n):
        if powers[7][j] != powers[3][j]:
            raise NoClosedForm(f"entry ({i},{j + 1}) is not in the dictionary span")
    rows, _ = rref(
        [_taylor_row(k) + [e / factorial(k) for v in powers[k] for e in v]
         for k in range(7)],
        cols=7,
    )

    def combine(col):
        expr: Expr = Num(Fraction(0))
        for row, basis_expr in zip(rows, _DICTIONARY):
            if row[col]:
                expr = expr + Num(row[col]) * basis_expr
        return normal_expression(expr)

    return tuple(tuple(combine(7 + j * n + m) for m in range(n)) for j in range(n))


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


@dataclass(frozen=True)
class TableMismatch:
    """A cell whose coordinates over the reference's X1..Xn disagree."""

    pair: tuple
    computed: tuple
    reference: tuple

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
