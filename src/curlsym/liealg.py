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
from math import factorial

import numpy as np
from scipy.linalg import expm

from .expr import Expr, Num, S, cos, equal_exprs, exp, sin, normal_expression
from .jet import GeneratorField
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
    coeffs = [
        normal_expression(a.apply(cb) - b.apply(ca))
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


def structure_constants(basis, names=None) -> LieAlgebraTable:
    basis = tuple(basis)
    n = len(basis)
    names = tuple(names) if names else tuple(f"X{k}" for k in range(1, n + 1))
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
    """Exact Jacobi identity over all triples of the constants tensor."""
    c = table.constants
    n = table.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(n):
                    acc = Fraction(0)
                    for m in range(n):
                        acc += (
                            c[i][j][m] * c[m][k][l]
                            + c[j][k][m] * c[m][i][l]
                            + c[k][i][m] * c[m][j][l]
                        )
                    if acc:
                        return False
    return True


def format_combination(coords, names) -> str:
    """Human form of a coordinate vector: '0', 'X3', '-1/2*X8 + X1', ..."""
    parts = []
    for c, name in zip(coords, names):
        if not c:
            continue
        mag = abs(c)
        body = name if mag == 1 else f"{mag}*{name}"
        parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    head = parts[0].replace("- ", "-", 1).replace("+ ", "", 1)
    return " ".join([head] + parts[1:])


# --- adjoint representation ---------------------------------------------------


def ad_matrix(table: LieAlgebraTable, i: int) -> np.ndarray:
    """Matrix of ad(Xi) on coordinates: column l holds [Xi, Xl]; 1-based i."""
    n = table.dim
    a = np.zeros((n, n))
    for l in range(n):
        for k in range(n):
            a[k, l] = float(table.constants[i - 1][l][k])
    return a


def adjoint_numeric(table: LieAlgebraTable, i: int, j: int, eps: float) -> np.ndarray:
    """Coordinates of Ad(exp(eps*Xi)) applied to Xj: exp(-eps*ad_i) e_j."""
    m = expm(-eps * ad_matrix(table, i))
    return m[:, j - 1]


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


@dataclass(frozen=True)
class AdjointEntry:
    source: int  # 1-based basis indices
    target: int
    coefficients: tuple  # Expr per basis element, functions of eps

    def to_string(self, names) -> str:
        from .expr import to_string

        parts = []
        for c, name in zip(self.coefficients, names):
            if isinstance(c, Num) and c.val == 0:
                continue
            if isinstance(c, Num) and c.val == 1:
                parts.append(("+", name))
            else:
                s = to_string(c)
                if s.startswith("-"):
                    parts.append(("-", f"{s[1:]}*{name}"))
                else:
                    parts.append(("+", f"{s}*{name}"))
        if not parts:
            return "0"
        head = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        rest = [f"{sign} {body}" for sign, body in parts[1:]]
        return " ".join([head] + rest)


def adjoint_closed_form(table: LieAlgebraTable, i: int, j: int) -> AdjointEntry:
    """Exact closed form of Ad(exp(eps*Xi)) Xj over the dictionary.

    With v_k = (-ad_i)^k e_j the entry is sum_k v_k eps^k / k!.  It solves
    y^(7) = y^(3), and so lies in the dictionary's span, iff v_7 = v_3; its
    dictionary coefficients then match the Taylor coefficients k = 0..6,
    whose table over the dictionary (the Wronskian at 0) is invertible."""
    c = table.constants[i - 1]
    n = table.dim
    powers = [[Fraction(l == j - 1) for l in range(n)]]
    for _ in range(7):
        v = powers[-1]
        powers.append([-sum(c[l][k] * v[l] for l in range(n)) for k in range(n)])
    if powers[7] != powers[3]:
        raise NoClosedForm(f"entry ({i},{j}) is not in the dictionary span")
    rows, _ = rref(
        [_taylor_row(k) + [e / factorial(k) for e in powers[k]] for k in range(7)],
        cols=7,
    )
    coeffs = []
    for m in range(n):
        expr: Expr = Num(Fraction(0))
        for row, basis_expr in zip(rows, _DICTIONARY):
            if row[7 + m]:
                expr = expr + Num(row[7 + m]) * basis_expr
        coeffs.append(normal_expression(expr))
    return AdjointEntry(source=i, target=j, coefficients=tuple(coeffs))


def adjoint_entry_matches(entry: AdjointEntry, reference_coeffs) -> bool:
    """Exact comparison of an entry against reference coefficient functions."""
    if len(entry.coefficients) != len(reference_coeffs):
        return False
    return all(
        equal_exprs(a, b) for a, b in zip(entry.coefficients, reference_coeffs)
    )


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
    pair: tuple
    computed: tuple
    reference: tuple

    def describe(self, names) -> str:
        i, j = self.pair
        return (
            f"[{names[i - 1]},{names[j - 1]}]: computed "
            f"{format_combination(self.computed, names)}, reference "
            f"{format_combination(self.reference, names)}"
        )


def table_mismatches(table: LieAlgebraTable, reference) -> list:
    """Cells where the computed table disagrees with a reference mapping
    {(i, j): Combination}; sorted by (i, j)."""
    out = []
    for (i, j), combo in sorted(reference.items()):
        ref_vec = combo.constant_coordinates(table.dim)
        got = table.coordinates(i, j)
        if tuple(got) != tuple(ref_vec):
            out.append(TableMismatch((i, j), tuple(got), tuple(ref_vec)))
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


def _grid(cells) -> str:
    """Aligned text grid: each column padded to its widest cell."""
    widths = [max(len(r[c]) for r in cells) for c in range(len(cells[0]))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in cells
    ]
    return "\n".join(lines)


def table_grid(table: LieAlgebraTable) -> str:
    """Aligned text grid of the full bracket table."""
    cells = [[""] + list(table.names)]
    for i in range(table.dim):
        row = [table.names[i]]
        for j in range(table.dim):
            row.append(table.entry_string(i + 1, j + 1))
        cells.append(row)
    return _grid(cells)


def adjoint_grid(entries, names) -> str:
    """Aligned text grid for a full set of adjoint entries {(i,j): entry}."""
    n = len(names)
    cells = [["Ad"] + list(names)]
    for i in range(1, n + 1):
        row = [names[i - 1]]
        for j in range(1, n + 1):
            row.append(entries[(i, j)].to_string(names))
        cells.append(row)
    return _grid(cells)
