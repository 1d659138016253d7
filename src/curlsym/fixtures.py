"""Reference tables shipped as auditable text files.

Every table a command compares against (generator bases, the commutator
table, the adjoint table, the determining system, the subalgebra
candidates) lives under ``fixtures/`` in a one-entry-per-line format, so
any disagreement between a recomputation and the reference is a
reviewable diff.  Known defects of the reference
tables are shipped alongside as ``*_corrections.txt`` and loaded
separately; comparison code treats them as the documented exception list.
"""

from __future__ import annotations

import os
from functools import lru_cache

from .expr import (
    ZERO, Expr, ExprError, Num, S, collect_poly, free_symbols, monomial_expr, mul,
    normalize, parse, to_string,
)
from .jet import GeneratorField, generator_from_strings


class FixtureError(ValueError):
    """A fixture file is malformed or an entry has the wrong shape."""


def _data_dir():
    return os.path.join(os.path.dirname(__file__), "fixtures")


def content_lines(text: str) -> list[str]:
    """The stripped lines of a table file, without blanks and # comments."""
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def _lines(name: str) -> list[str]:
    with open(os.path.join(_data_dir(), name), encoding="utf-8") as fh:
        return content_lines(fh.read())


# --- linear combinations of named generators --------------------------------

_GENERATORS = tuple(getattr(S, f"X{k}") for k in range(1, 11))


def parse_combination(text: str, dim: int, param=None) -> tuple[Expr, ...]:
    """Coordinates over X1..Xdim of a linear combination such as
    `cos(eps)*X2 - sin(eps)*X3`, read by the expression parser: one
    normal-form coefficient per generator, each a function of the symbol
    `param`, or with no `param` a rational number."""
    coords = [ZERO] * dim
    for key, coeff in collect_poly(normalize(parse(text)), _GENERATORS).items():
        coeff = coeff.to_expression()
        gen = key[0][0] if len(key) == 1 and key[0][1] == 1 else None
        ok = isinstance(coeff, Num) if param is None else free_symbols(coeff) <= {param}
        if gen not in _GENERATORS[:dim] or not ok:
            term = to_string(mul(coeff, monomial_expr(key)))
            raise ExprError(f"term {term} is not one of X1..X{dim} times a " + (
                "rational" if param is None else f"function of {to_string(param)}"))
        coords[_GENERATORS.index(gen)] = coeff
    return tuple(coords)


# --- loaders -----------------------------------------------------------------


@lru_cache(maxsize=None)
def load_basis(n: int) -> tuple[GeneratorField, ...]:
    """The reference generator basis of size n (7 or 10), in X1..Xn order."""
    if n not in (7, 10):
        raise FixtureError(f"no reference basis of size {n}")
    gens: list[GeneratorField] = []
    for k, line in enumerate(_lines(f"basis_{n}.txt"), start=1):
        name, _, rest = line.partition(":")
        if name.strip() != f"X{k}":
            raise FixtureError(f"basis_{n}.txt out of order at line {line!r}")
        parts = [p.strip() for p in rest.split("|")]
        if len(parts) != 6:
            raise FixtureError(f"generator {name!r} needs 6 coefficients")
        gens.append(generator_from_strings(parts))
    if len(gens) != n:
        raise FixtureError(f"basis_{n}.txt holds {len(gens)} generators, wanted {n}")
    return tuple(gens)


def _load_table(name: str, read) -> dict[tuple[int, int], tuple]:
    """The entries of a `Xi,Xj -> value` file keyed by index pair, each
    value read by `read`."""
    table: dict[tuple[int, int], tuple] = {}
    for line in _lines(name):
        head, arrow, rhs = line.partition("->")
        if not arrow:
            raise FixtureError(f"{name}: missing '->' in {line!r}")
        key = _parse_pair(head, name)
        if key in table:
            raise FixtureError(f"{name}: duplicate entry {key}")
        try:
            table[key] = read(rhs)
        except ExprError as e:
            raise FixtureError(f"{name}: {e} in {line!r}") from None
    return table


def _load_combinations(name: str, dim: int, full: bool, param=None) -> dict:
    """Combinations over X1..Xdim keyed by pairs of X1..Xdim, all if full."""
    table = _load_table(name, lambda rhs: parse_combination(rhs, dim, param))
    cells = {(i, j) for i in range(1, dim + 1) for j in range(1, dim + 1)}
    if not (table.keys() == cells if full else table.keys() <= cells):
        raise FixtureError(f"{name}: the keys do not fit the pairs of X1..X{dim}")
    return table


@lru_cache(maxsize=None)
def load_bracket_table() -> dict[tuple[int, int], tuple[Expr, ...]]:
    """Reference commutator table over basis_10; (i,j) -> [Xi,Xj]."""
    return _load_combinations("brackets_10.txt", 10, True)


@lru_cache(maxsize=None)
def load_bracket_corrections() -> dict[tuple[int, int], tuple[Expr, ...]]:
    """Recomputed values for the reference-table entries known to be wrong."""
    return _load_combinations("bracket_corrections.txt", 10, False)


@lru_cache(maxsize=None)
def load_adjoint_table() -> dict[tuple[int, int], tuple[Expr, ...]]:
    """Reference adjoint table over basis_7; (i,j) -> Ad(exp(eps Xi)) Xj."""
    return _load_combinations("adjoint_7.txt", 7, True, S.eps)


def _load_indexed_expressions(name: str) -> dict[int, Expr]:
    out: dict[int, Expr] = {}
    for line in _lines(name):
        head, colon, rest = line.partition(":")
        if not colon:
            raise FixtureError(f"{name}: missing ':' in {line!r}")
        if not head.strip().isdecimal():
            raise FixtureError(f"{name}: bad index in {line!r}")
        k = int(head)
        if k in out:
            raise FixtureError(f"{name}: duplicate index {k}")
        out[k] = parse(rest.strip())
    return out


@lru_cache(maxsize=None)
def load_determining_fixture() -> tuple[Expr, ...]:
    """The fourteen reference determining equations (expressions = 0)."""
    eqs = _load_indexed_expressions("determining_system.txt")
    if sorted(eqs) != list(range(1, 15)):
        raise FixtureError("determining_system.txt must hold equations 1..14")
    return tuple(eqs[k] for k in range(1, 15))


def _parse_pair(text: str, name: str) -> tuple[int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2 or not all(p[:1] == "X" and p[1:].isdecimal() for p in parts):
        raise FixtureError(f"{name}: bad pair {text.strip()!r}")
    return (int(parts[0][1:]), int(parts[1][1:]))


@lru_cache(maxsize=None)
def load_subalgebra_pairs() -> tuple[tuple[int, int], ...]:
    """Two-generator subalgebra candidates, as 1-based index pairs."""
    return tuple(
        _parse_pair(line, "subalgebra_pairs.txt")
        for line in _lines("subalgebra_pairs.txt")
    )


@lru_cache(maxsize=None)
def load_subalgebra_corrections() -> dict[tuple[int, int], tuple[int, int]]:
    """Candidate pairs known not to close, mapped to the aligned pair
    (same translation, commuting rotation) that does."""
    name = "subalgebra_corrections.txt"
    return _load_table(name, lambda rhs: _parse_pair(rhs, name))
