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

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib.resources import files

from .expr import Expr, normalize, parse
from .jet import GeneratorField, generator_from_strings


class FixtureError(ValueError):
    """A fixture file is malformed or an entry has the wrong shape."""


def _data_dir():
    return files("curlsym") / "fixtures"


def content_lines(text: str) -> list[str]:
    """The stripped lines of a table file, without blanks and # comments."""
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def _lines(name: str) -> list[str]:
    return content_lines((_data_dir() / name).read_text(encoding="utf-8"))


# --- linear combinations of named generators --------------------------------

_TERM_RE = re.compile(r"^(?:(?P<coeff>.+)\*)?X(?P<idx>\d+)$")


def _split_terms(text: str) -> list[tuple[int, str]]:
    """Split on top-level + and - (parenthesis aware), keeping signs."""
    terms: list[tuple[int, str]] = []
    depth = 0
    sign = 1
    buf: list[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in "+-" and buf and any(c.strip() for c in buf):
            terms.append((sign, "".join(buf).strip()))
            sign = 1 if ch == "+" else -1
            buf = []
            continue
        if depth == 0 and ch in "+-" and not any(c.strip() for c in buf):
            # leading sign of the first term
            sign = sign * (1 if ch == "+" else -1)
            continue
        buf.append(ch)
    last = "".join(buf).strip()
    if last:
        terms.append((sign, last))
    return terms


@dataclass(frozen=True)
class Combination:
    """A finite linear combination of basis generators X1..Xn.

    Coefficients are expressions; for commutator-table entries they are
    rational constants, for adjoint entries they may involve eps."""

    coeffs: tuple[tuple[int, Expr], ...]

    @staticmethod
    def from_pairs(pairs) -> "Combination":
        return Combination(tuple(sorted(pairs, key=lambda kv: kv[0])))

    def coordinate_functions(self, dim: int) -> tuple[Expr, ...]:
        from .expr import Num

        out: list[Expr] = [Num(Fraction(0))] * dim
        for k, c in self.coeffs:
            if not 1 <= k <= dim:
                raise FixtureError(f"generator index X{k} outside basis of size {dim}")
            out[k - 1] = c
        return tuple(out)

    def constant_coordinates(self, dim: int) -> tuple[Fraction, ...]:
        vec: list[Fraction] = [Fraction(0)] * dim
        for k, c in self.coeffs:
            if not 1 <= k <= dim:
                raise FixtureError(f"generator index X{k} outside basis of size {dim}")
            p = normalize(c)
            if not p.is_constant():
                raise FixtureError(f"coefficient of X{k} is not a constant: {c!r}")
            vec[k - 1] = p.constant_value()
        return tuple(vec)


def parse_combination(text: str) -> Combination:
    text = text.strip()
    if text == "0":
        return Combination(())
    acc: dict[int, Expr] = {}
    for sign, term in _split_terms(text):
        m = _TERM_RE.match(term)
        if m is None:
            raise FixtureError(f"cannot read combination term {term!r}")
        idx = int(m.group("idx"))
        coeff_src = m.group("coeff") or "1"
        coeff = parse(coeff_src)
        if sign < 0:
            coeff = -coeff
        acc[idx] = acc[idx] + coeff if idx in acc else coeff
    return Combination.from_pairs(acc.items())


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


def _load_table(name: str, size: int | None) -> dict[tuple[int, int], Combination]:
    table: dict[tuple[int, int], Combination] = {}
    for line in _lines(name):
        head, arrow, rhs = line.partition("->")
        if not arrow:
            raise FixtureError(f"{name}: missing '->' in {line!r}")
        pair = [p.strip() for p in head.split(",")]
        if len(pair) != 2 or not all(p.startswith("X") for p in pair):
            raise FixtureError(f"{name}: bad entry key {head!r}")
        key = (int(pair[0][1:]), int(pair[1][1:]))
        if key in table:
            raise FixtureError(f"{name}: duplicate entry {key}")
        table[key] = parse_combination(rhs)
    if size is not None and len(table) != size * size:
        raise FixtureError(f"{name}: expected {size * size} entries, got {len(table)}")
    return table


@lru_cache(maxsize=None)
def load_bracket_table() -> dict[tuple[int, int], Combination]:
    """Reference commutator table over basis_10; (i,j) -> [Xi,Xj]."""
    return _load_table("brackets_10.txt", 10)


@lru_cache(maxsize=None)
def load_bracket_corrections() -> dict[tuple[int, int], Combination]:
    """Recomputed values for the reference-table entries known to be wrong."""
    return _load_table("bracket_corrections.txt", None)


@lru_cache(maxsize=None)
def load_adjoint_table() -> dict[tuple[int, int], Combination]:
    """Reference adjoint table over basis_7; (i,j) -> Ad(exp(eps Xi)) Xj."""
    return _load_table("adjoint_7.txt", 7)


def _load_indexed_expressions(name: str) -> dict[int, Expr]:
    out: dict[int, Expr] = {}
    for line in _lines(name):
        head, colon, rest = line.partition(":")
        if not colon:
            raise FixtureError(f"{name}: missing ':' in {line!r}")
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
    if len(parts) != 2 or not all(p.startswith("X") for p in parts):
        raise FixtureError(f"{name}: bad pair {text!r}")
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
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for line in _lines("subalgebra_corrections.txt"):
        head, arrow, rhs = line.partition("->")
        if not arrow:
            raise FixtureError(f"subalgebra_corrections.txt: missing '->' in {line!r}")
        key = _parse_pair(head, "subalgebra_corrections.txt")
        if key in out:
            raise FixtureError(f"subalgebra_corrections.txt: duplicate {key}")
        out[key] = _parse_pair(rhs, "subalgebra_corrections.txt")
    return out
