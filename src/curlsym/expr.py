"""Exact symbolic kernel.

Immutable expression trees over exact rationals, built for first-order jet
calculus on three base coordinates (x, y, z) and three field components
(u, v, w).  Nodes are interned (hash-consing): equal values are one
object, so equality and hashing are identity, and a node keeps its normal
form once taken.  A symbol is unique per registry.  The kernel knows a
fixed symbol universe:

* independent coordinates x, y, z
* dependent components     u, v, w
* the nine first jets      u_x ... w_z
* the field-magnitude radical R, with R^2 -> u^2 + v^2 + w^2 rewritten at
  insertion time and d R / d u = u / R etc.
* parameters (group parameter eps, the unit circle pair a, b with
  a^2 + b^2 -> 1, integration constants C1..C10, the formal function symbols
  f, f_u, f_v, f_w, the formal generator coefficients zeta ... psi with
  their first partials zeta_x ... psi_w, and the generator names X1..X10
  that the reference tables combine; a rotation at a symbolic eps takes
  the first registered pair that the field does not name, and registers
  a new pair a2, b2, ... only when the field names every pair; a numeric
  eps is an exact rational, never a symbol)

Everything downstream (prolongation, determining systems, brackets) runs on
normal forms, which `rat_combination` sums per denominator, `substitution`
puts values into term by term and `jet.derivation` differentiates.
`normalize` maps an expression to a polynomial normal form: a map from
monomials to rational coefficients under graded lexicographic order with
x < y < z < u < v < w < jets < R < parameters.  A coefficient, a
`Poly.terms` value or a `Num.val`, is an int whenever it is integral and
a Fraction only when its denominator exceeds 1 (`_coeff`); a division or
a negative power of one goes through Fraction, as int / int is a float.
sin/cos/exp stay opaque: each enters the normal form as an atom, the one
`Func` node of its canonical argument, ordered by the canonical rational
form of that argument.  `_emit` applies three quadratic rewrites at
insertion time, which keep the form canonical without doing general trig
simplification:

* R^2        -> u^2 + v^2 + w^2
* b^2        -> 1 - a^2           (for every registered unit pair)
* sin(A)^2   -> 1 - cos(A)^2      (same canonical argument A)

Their leading monomials are pairwise coprime, so the rewrite system is
confluent and terminating.  An exp atom of a polynomial argument is a unit
of the monomial product `_mono_mul`: exp(p) * exp(q) = exp(p + q), and
exp(0) drops.  No floats ever enter a tree; numeric work goes through
`compile_numeric`, which `decide_zero` samples through as well.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class NotPolynomial(ExprError):
    """Raised when normalization meets something with no polynomial form."""

    def __init__(self, message: str, subtree: "Expr"):
        # the printer recurses once per level, and a subtree that normalized
        # near the recursion limit cannot be printed from inside it
        try:
            text = to_string(subtree)
        except RecursionError:
            text = "expression nested too deeply to print"
        super().__init__(f"{message}: {text}")
        self.subtree = subtree


class EvalError(ExprError):
    pass


# --- expression trees -------------------------------------------------------


def _coeff(c):
    """The stored form of a rational coefficient: an int when it is
    integral, else the Fraction, whose denominator then exceeds 1."""
    return c.numerator if c.denominator == 1 else c


def _inverse(c):
    """1/c for a nonzero rational, with no Fraction when c is +-1."""
    return c if c in (1, -1) else _coeff(Fraction(1, c))


def _as_expr(v) -> "Expr":
    if isinstance(v, Expr):
        return v
    if isinstance(v, bool):
        raise TypeError("bool is not a symbolic value")
    if isinstance(v, (int, Fraction)):
        return Num(v)
    if isinstance(v, float):
        raise TypeError("floats are not allowed in symbolic expressions")
    raise TypeError(f"cannot coerce {type(v).__name__} to an expression")


# (class, *slots) -> the one Num, Add, Mul, Pow or Func with those slots; a
# Func is keyed by (fn, arg) alone, so the sin, cos and exp atoms of the
# normal form are table entries too.  It lives for the process: a node must
# never be rebuilt while an equal one lives, and a weak-valued table would
# need a `__weakref__` slot on every node and a Python-level lookup on every
# build.
_NODES: dict = {}


def _intern(cls, *slots, atom=None):
    """The one object of class `cls` whose leading slots are `slots`, built
    on the first call and then taken from `_NODES`.  Children are interned
    already, so the key compares them by identity and a lookup costs
    O(arity), never a walk of the tree.  `atom`, a pair (key, arg_poly),
    makes a Func node a normal-form atom: it fills the node's `key` and
    `arg_poly` the first time the node is used as one, so a node built
    before, by the parser say, becomes the atom too."""
    key = (cls, *slots)
    node = _NODES.get(key)
    if node is None:
        node = _NODES[key] = object.__new__(cls)
        for name, value in zip(cls.__slots__, slots):
            setattr(node, name, value)
    if atom is not None and not hasattr(node, "key"):
        node.key, node.arg_poly = atom
    return node


class Expr:
    """An expression node.  Every Num, Add, Mul, Pow and Func is built by
    `_intern`, so equal values are one object and compare and hash by
    identity, the object defaults; a Symbol is unique per registry.  `_rf`
    holds the node's normal form once `as_ratform` has taken it."""

    __slots__ = ("_rf",)

    def __add__(self, other):
        return add(self, _as_expr(other))

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, neg(_as_expr(other)))

    def __rsub__(self, other):
        return add(_as_expr(other), neg(self))

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return mul(self, pow_(_as_expr(other), -1))

    def __rtruediv__(self, other):
        return mul(_as_expr(other), pow_(self, -1))

    def __neg__(self):
        return neg(self)

    def __pow__(self, n):
        return pow_(self, n)

    def __repr__(self):
        return f"<{type(self).__name__} {to_string(self)}>"


class Num(Expr):
    __slots__ = ("val",)

    def __new__(cls, val):
        return _intern(cls, _coeff(val))


class Symbol(Expr):
    """A named atom.  Instances are unique per registry; kind drives
    differentiation (jets, R and the formal function symbols carry rules)."""

    __slots__ = ("name", "kind", "order")

    def __init__(self, name: str, kind: str, order: int):
        self.name = name
        self.kind = kind
        self.order = order


class Add(Expr):
    __slots__ = ("terms",)

    def __new__(cls, terms: tuple):
        return _intern(cls, terms)


class Mul(Expr):
    __slots__ = ("factors",)

    def __new__(cls, factors: tuple):
        return _intern(cls, factors)


class Pow(Expr):
    __slots__ = ("base", "n")

    def __new__(cls, base: Expr, n: int):
        return _intern(cls, base, n)


FUNCTIONS = ("sin", "cos", "exp", "sqrt")


class Func(Expr):
    """fn(arg).  sin, cos or exp of its canonical argument, the expression
    `_rat_to_expression` gives, is an atom of the normal form: `key` is the
    canonical rational form of the argument, which orders atoms, and
    `arg_poly` the argument of a mergeable exp atom, None for every other
    atom.  Both are unset until the node is first used as an atom."""

    __slots__ = ("fn", "arg", "key", "arg_poly")

    def __new__(cls, fn: str, arg: Expr):
        return _intern(cls, fn, arg)


ZERO = Num(0)
ONE = Num(1)


def add(*terms) -> Expr:
    kept = []
    const = 0
    for arg in map(_as_expr, terms):
        for t in arg.terms if isinstance(arg, Add) else (arg,):
            if isinstance(t, Num):
                const += t.val
            else:
                kept.append(t)
    if const != 0:
        kept.append(Num(const))
    if not kept:
        return ZERO
    if len(kept) == 1:
        return kept[0]
    return Add(tuple(kept))


def mul(*factors) -> Expr:
    kept = []
    const = 1
    for arg in map(_as_expr, factors):
        for f in arg.factors if isinstance(arg, Mul) else (arg,):
            if isinstance(f, Num):
                const *= f.val
            else:
                kept.append(f)
    if const == 0:
        return ZERO
    if not kept:
        return Num(const)
    if const != 1:
        kept.insert(0, Num(const))
    if len(kept) == 1:
        return kept[0]
    return Mul(tuple(kept))


def neg(e: Expr) -> Expr:
    return mul(Num(-1), e)


def pow_(base: Expr, n) -> Expr:
    if isinstance(n, Num):
        if n.val.denominator != 1:
            raise ExprError("only integer powers are representable")
        n = int(n.val)
    if not isinstance(n, int):
        raise ExprError("only integer powers are representable")
    base = _as_expr(base)
    if n == 0:
        return ONE
    if n == 1:
        return base
    if isinstance(base, Num):
        if base.val == 0 and n < 0:
            raise ExprError("division by zero")
        return Num(Fraction(base.val) ** n)
    if isinstance(base, Pow):
        return pow_(base.base, base.n * n)
    return Pow(base, n)


def func(fn: str, arg: Expr) -> Expr:
    if fn not in FUNCTIONS:
        raise ExprError(f"unknown function '{fn}'")
    arg = _as_expr(arg)
    if isinstance(arg, Num):
        if arg.val == 0:
            return {"sin": ZERO, "cos": ONE, "exp": ONE, "sqrt": ZERO}[fn]
        if fn == "sqrt":
            r = _term_sqrt((), arg.val)
            if r is not None:
                return Num(r[1])
    return Func(fn, arg)


def sin(a):
    return func("sin", a)


def cos(a):
    return func("cos", a)


def exp(a):
    return func("exp", a)


def sqrt(a):
    return func("sqrt", a)


# --- symbol registry --------------------------------------------------------

KINDS = ("independent", "dependent", "jet", "radical", "parameter")
# the slots of a point generator, also the formal coefficients' names
FORMAL_COEFFS = ("zeta", "eta", "theta", "phi", "lam", "psi")


class SymbolRegistry:
    """Owns the symbol universe, per-symbol derivative rules and the
    unit-pair rewrites."""

    def __init__(self):
        self.by_name: dict[str, Symbol] = {}
        self._order = 0
        self.derivative_rules: dict[tuple[Symbol, Symbol], Expr] = {}
        self.unit_pairs: dict[Symbol, Symbol] = {}  # b -> a for b^2 -> 1-a^2

    def register(self, name: str, kind: str) -> Symbol:
        if kind not in KINDS:
            raise ValueError(f"bad symbol kind {kind}")
        if name in self.by_name:
            raise ValueError(f"symbol '{name}' already registered")
        s = Symbol(name, kind, self._order)
        self._order += 1
        self.by_name[name] = s
        return s

    def add_rule(self, s: Symbol, wrt: Symbol, value: Expr):
        self.derivative_rules[(s, wrt)] = value

    def register_unit_pair(self, a_name: str, b_name: str) -> tuple[Symbol, Symbol]:
        a = self.register(a_name, "parameter")
        b = self.register(b_name, "parameter")
        self.unit_pairs[b] = a
        return a, b

    def unit_pair_avoiding(self, used) -> tuple[Symbol, Symbol]:
        """The first registered unit pair (a, b) of which `used` holds
        neither symbol; a new pair a{k}, b{k}, k the pair count plus one,
        only when `used` names every pair."""
        for b, a in self.unit_pairs.items():
            if a not in used and b not in used:
                return a, b
        k = len(self.unit_pairs) + 1
        return self.register_unit_pair(f"a{k}", f"b{k}")


def _build_registry() -> SymbolRegistry:
    reg = SymbolRegistry()
    for n in ("x", "y", "z"):
        reg.register(n, "independent")
    for n in ("u", "v", "w"):
        reg.register(n, "dependent")
    for dep in ("u", "v", "w"):
        for ax in ("x", "y", "z"):
            reg.register(f"{dep}_{ax}", "jet")
    R = reg.register("R", "radical")
    # d R / d(u,v,w) = (u,v,w)/R; all other derivatives of R vanish
    for n in ("u", "v", "w"):
        s = reg.by_name[n]
        reg.add_rule(R, s, mul(s, pow_(R, -1)))
    reg.register("eps", "parameter")
    reg.register_unit_pair("a", "b")
    for i in range(1, 11):
        reg.register(f"C{i}", "parameter")
    f = reg.register("f", "parameter")
    for n in ("u", "v", "w"):
        fd = reg.register(f"f_{n}", "parameter")
        reg.add_rule(f, reg.by_name[n], fd)
    # formal generator coefficients and their first partials; the first
    # prolongation differentiates a coefficient at most once, so no rules
    # are needed on the partials themselves
    for g in FORMAL_COEFFS:
        gs = reg.register(g, "parameter")
        for n in ("x", "y", "z", "u", "v", "w"):
            gd = reg.register(f"{g}_{n}", "parameter")
            reg.add_rule(gs, reg.by_name[n], gd)
    # reduced-profile symbols for the group-invariant reductions
    for n in ("g", "h", "beta", "gamma", "r"):
        reg.register(n, "parameter")
    # the generator names of the reference tables, read as coordinates
    for i in range(1, 11):
        reg.register(f"X{i}", "parameter")
    return reg


REGISTRY = _build_registry()
# the parse namespace: the registry as the kernel built it, so a unit pair
# that a rotation registers later is never an input name, and what a text
# means does not depend on what ran earlier in the process
_INPUT_NAMES = dict(REGISTRY.by_name)


class _Namespace:
    def __getattr__(self, name: str) -> Symbol:
        s = REGISTRY.by_name.get(name)
        if s is None:
            raise AttributeError(name)
        return s


S = _Namespace()

BASE_SYMBOLS = tuple(REGISTRY.by_name[n] for n in ("x", "y", "z", "u", "v", "w"))


# --- polynomial normal form -------------------------------------------------

_FN_RANK = {"sin": 0, "cos": 1, "exp": 2, "sqrt": 3}


def _atom_sort_key(atom):
    if isinstance(atom, Symbol):
        return (0, atom.order, ())
    return (1, _FN_RANK[atom.fn], atom.key)


_MONO_KEYS: dict = {}


def _mono_sort_key(mono: tuple):
    # graded lex, descending: higher total degree first, then earlier
    # symbols with higher exponents first; memoized per monomial for the
    # process, as nodes are
    key = _MONO_KEYS.get(mono)
    if key is None:
        deg = sum(e for _, e in mono)
        key = (-deg, tuple((_atom_sort_key(a), -e) for a, e in mono))
        _MONO_KEYS[mono] = key
    return key


def _freeze(d: dict) -> tuple:
    return tuple(sorted(d.items(), key=lambda kv: _atom_sort_key(kv[0])))


class Poly:
    """Polynomial normal form: monomial -> coefficient, monomials reduced;
    a coefficient is an int when integral, else a Fraction (`_coeff`)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_value(self):
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise ExprError("not a constant polynomial")
        return self.terms[()]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _mono_sort_key(kv[0]))

    def leading(self):
        """The first term in graded order, found without a sort: distinct
        monomials have distinct keys, so this is `sorted_terms()[0]`."""
        m = min(self.terms, key=_mono_sort_key)
        return m, self.terms[m]

    def atoms(self):
        out = set()
        for m in self.terms:
            for a, _ in m:
                out.add(a)
        return out

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = out.get(m, 0) + c
            if nc:
                out[m] = _coeff(nc)
            else:
                out.pop(m, None)
        return Poly(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "Poly":
        if c == 0:
            return Poly({})
        return Poly({m: _coeff(c * v) for m, v in self.terms.items()})

    def __mul__(self, other):
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _emit(out, _mono_mul(m1, m2), c1 * c2)
        return Poly(out)

    def power(self, n: int) -> "Poly":
        if n < 0:
            raise ExprError("negative power on a polynomial")
        if n < 2:
            return poly_const(1) * self if n else poly_const(1)
        half = self.power(n // 2)  # repeated squaring: O(log n) products
        return half * half * self if n % 2 else half * half

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        _, lc = self.leading()
        return self.scale(_inverse(lc))

    def content_monomial(self) -> tuple:
        """The atoms every term carries, each at its least exponent."""
        if self.is_zero():
            return ()
        common: dict | None = None
        for m in self.terms:
            md = dict(m)
            if common is None:
                common = md
            else:
                common = {
                    a: min(e, md[a]) for a, e in common.items() if a in md and md[a] > 0
                }
            if not common:
                return ()
        return _freeze({a: e for a, e in common.items() if e > 0})

    def divide_monomial(self, mono: tuple) -> "Poly":
        out = {}
        for m, c in self.terms.items():
            q = _mono_div(m, mono)
            if q is None:
                raise ExprError("monomial does not divide polynomial")
            out[q] = c
        return Poly(out)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __repr__(self):
        return f"<Poly {to_string(self.to_expression())}>"

    def to_expression(self) -> Expr:
        return add(*(mul(Num(c), monomial_expr(m)) for m, c in self.sorted_terms()))


def poly_const(c) -> Poly:
    return Poly({(): c}) if c else Poly({})


def poly_atom(atom) -> Poly:
    out: dict = {}
    _emit(out, {atom: 1}, 1)
    return Poly(out)


def _poly_key(p: Poly) -> tuple:
    return tuple(
        (tuple((_atom_sort_key(a), e) for a, e in m), (c.numerator, c.denominator))
        for m, c in p.sorted_terms()
    )


# R^2 = u^2 + v^2 + w^2, the replacement of the radical's square
_RSQ = Poly({_freeze({S.u: 2}): 1, _freeze({S.v: 2}): 1, _freeze({S.w: 2}): 1})


def _reducible(atom, e: int):
    """Return the replacement Poly for atom^2, or None."""
    if e < 2:
        return None
    if isinstance(atom, Symbol):
        if atom.kind == "radical":
            return _RSQ
        partner = REGISTRY.unit_pairs.get(atom)
        if partner is not None:
            return Poly({(): 1, _freeze({partner: 2}): -1})
        return None
    if atom.fn == "sin":
        cos_atom = _intern(Func, "cos", atom.arg, atom=(atom.key, None))
        return Poly({(): 1, _freeze({cos_atom: 2}): -1})
    return None


def _is_mergeable_exp(a) -> bool:
    return isinstance(a, Func) and a.fn == "exp" and a.arg_poly is not None


def _mono_mul(a, b: tuple, k: int = 1) -> dict | None:
    """a * b^k for k = 1 or -1 as a dict, or None when k = -1 and b does
    not divide a.  a and b are monomials, as tuples or dicts of (atom,
    exponent).  An exp atom of a polynomial argument is a unit, exponent 1
    in every normal-form monomial: k times its argument adds to the one a
    carries, and exp(0) drops."""
    out = dict(a)
    for atom, e in b:
        if not _is_mergeable_exp(atom):
            n = out.get(atom, 0) + k * e
            if n > 0:
                out[atom] = n
            elif n == 0:
                del out[atom]
            else:
                return None
            continue
        have = next((x for x in out if _is_mergeable_exp(x)), None)
        if have is None and k == 1:
            out[atom] = 1  # reused: a new atom rebuilds its key and argument
            continue
        arg = atom.arg_poly.scale(k)
        if have is not None:
            del out[have]
            arg = have.arg_poly + arg
        if not arg.is_zero():
            out[_exp_atom(arg)] = 1
    return out


def _emit(acc: dict, mono: dict, coeff):
    """Insert coeff * mono into acc, applying the quadratic rewrites."""
    if coeff == 0:
        return
    for a, e in mono.items():
        rep = _reducible(a, e)
        if rep is not None:
            rest = _mono_mul(mono, ((a, 2),), -1)
            for rm, rc in rep.terms.items():
                _emit(acc, _mono_mul(rest, rm), coeff * rc)
            return
    frozen = _freeze(mono)
    nc = acc.get(frozen, 0) + coeff
    if nc:
        acc[frozen] = _coeff(nc)
    else:
        acc.pop(frozen, None)


# the key of the constant denominator 1: an exp atom is keyed as its argument
# over 1, the key shape of every other opaque atom, so that atoms of both
# kinds in one monomial compare
_ONE_KEY = (((), (1, 1)),)


def _exp_atom(arg_poly: Poly) -> Func:
    return _intern(Func, "exp", arg_poly.to_expression(),
                   atom=((_poly_key(arg_poly), _ONE_KEY), arg_poly))


class RatForm:
    """num/den pair of polynomial normal forms; den monic, den cleared of
    R / unit-pair / sin atoms by conjugation."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        self.num = num
        self.den = den

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def __repr__(self):
        return f"<RatForm ({self.num!r}) / ({self.den!r})>"


def _rat_key(rf: RatForm) -> tuple:
    return (_poly_key(rf.num), _poly_key(rf.den))


def ratform(num: Poly, den: Poly) -> RatForm:
    if den.is_zero():
        raise ExprError("division by zero in rational normal form")
    if num.is_zero():
        return RatForm(Poly({}), poly_const(1))
    # conjugate away algebraic atoms (degree <= 1 per monomial by reduction)
    while True:
        target = None
        for a in sorted(den.atoms(), key=_atom_sort_key):
            if _reducible(a, 2) is not None:
                target = a
                break
        if target is None:
            break
        # den = p + A q; (p + A q)(p - A q) = p^2 - A^2 q^2, A^2 rewriting away
        conj = Poly({m: -c if target in dict(m) else c for m, c in den.terms.items()})
        num = num * conj
        den = den * conj
    # cancel a common monomial factor (cheap gcd; no full polynomial gcd):
    # the denominator's shared exp unit always, any other atom of its
    # content as far as the numerator's content holds it
    c_den = den.content_monomial()
    if c_den:
        dn = dict(num.content_monomial())
        common = {a: min(e, dn.get(a, e)) for a, e in c_den
                  if a in dn or _is_mergeable_exp(a)}
        if common:
            frozen = _freeze(common)
            num = num.divide_monomial(frozen)
            den = den.divide_monomial(frozen)
    if not den.is_constant():
        q = poly_div_exact(num, den)
        if q is not None:
            return RatForm(q, poly_const(1))
    _, lc = den.leading()
    if lc != 1:
        inv = _inverse(lc)
        num = num.scale(inv)
        den = den.scale(inv)
    return RatForm(num, den)


_ONE_RF = RatForm(poly_const(1), poly_const(1))


def _rat_add(a: RatForm, b: RatForm) -> RatForm:
    if a.den.terms == b.den.terms:
        return ratform(a.num + b.num, a.den)
    # when one denominator divides the other (powers of one base, as in a
    # translated field), the longer is already a common denominator
    if len(a.den.terms) > 1 and len(b.den.terms) > 1:
        big, small = (a, b) if len(a.den.terms) >= len(b.den.terms) else (b, a)
        k = poly_div_exact(big.den, small.den)
        if k is not None:
            return ratform(big.num + small.num * k, big.den)
    return ratform(a.num * b.den + b.num * a.den, a.den * b.den)


def _rat_mul(a: RatForm, b: RatForm) -> RatForm:
    return ratform(a.num * b.num, a.den * b.den)


def _rat_pow(a: RatForm, n: int) -> RatForm:
    if n < 0:
        if a.num.is_zero():
            raise ExprError("division by zero in rational normal form")
        return _rat_pow(RatForm(a.den, a.num), -n)
    return ratform(a.num.power(n), a.den.power(n))


def rat_combination(terms) -> RatForm:
    """sum c*m*rf over (rational c, monomial m, RatForm rf) triples, m a
    reduced monomial as a tuple of (atom, exponent) pairs.  The numerators
    over one denominator add as polynomials, and the few sums then combine
    by `_rat_add`, in the order their denominators first appear.  A sum is
    reduced only where nothing joins it: `_rat_add` reduces what it joins,
    so an exact division is tried once."""
    groups: dict = {}
    for c, m, rf in terms:
        key = None if rf.is_polynomial() else frozenset(rf.den.terms.items())
        group = groups.get(key)
        if group is None:
            group = groups[key] = (rf.den, {})
        acc = group[1]
        for vm, vc in rf.num.terms.items():
            _emit(acc, _mono_mul(m, vm), c * vc)
    parts = [RatForm(Poly(acc), den) for den, acc in groups.values()]
    if not parts:
        return RatForm(Poly({}), poly_const(1))
    out = parts[0]
    if len(parts) == 1 and not out.is_polynomial():
        return ratform(out.num, out.den)
    for part in parts[1:]:
        out = _rat_add(out, part)
    return out


def substitution(values: dict):
    """The map rf -> rf with each symbol of `values` replaced by its RatForm
    value, on normal-form terms: the value of a monomial's substituted part
    is taken once per map, and the rest multiplies it as in
    `rat_combination`."""
    parts = {(): _ONE_RF}

    def poly(p: Poly) -> RatForm:
        terms = []
        for m, c in p.terms.items():
            hit = tuple(ae for ae in m if ae[0] in values)
            if hit not in parts:
                val = _ONE_RF
                for a, e in hit:
                    val = _rat_mul(val, _rat_pow(values[a], e))
                parts[hit] = val
            terms.append((c, tuple(ae for ae in m if ae[0] not in values), parts[hit]))
        return rat_combination(terms)

    def apply(rf: RatForm) -> RatForm:
        num = poly(rf.num)
        if rf.is_polynomial():
            return num
        return _rat_mul(num, _rat_pow(poly(rf.den), -1))

    return apply


# --- square roots of polynomial forms ---------------------------------------


def _term_sqrt(m: tuple, c):
    """sqrt(c*m) as (monomial, positive coefficient), or None: exp
    arguments halve, other exponents must be even, c a rational square."""
    rn, rd = math.isqrt(max(c.numerator, 0)), math.isqrt(c.denominator)
    if rn * rn != c.numerator or rd * rd != c.denominator:
        return None
    out = {}
    for a, e in m:
        if _is_mergeable_exp(a):
            out[_exp_atom(a.arg_poly.scale(Fraction(1, 2)))] = 1
        elif e % 2 == 0:
            out[a] = e // 2
        else:
            return None
    return _freeze(out), _coeff(Fraction(rn, rd))


def _mono_div(a: tuple, b: tuple):
    q = _mono_mul(a, b, -1)
    return None if q is None else _freeze(q)


def _exp_arg(mono: tuple) -> dict:
    """The argument of the monomial's exp atom as {monomial: coefficient}."""
    return next((a.arg_poly.terms for a, _ in mono if _is_mergeable_exp(a)), {})


def _exp_range(p: Poly) -> dict:
    """{exp-argument monomial: (min, max) of its coefficient over p's terms}.

    exp atoms grade a product by their arguments, so in these coordinates
    the Newton polytope of a product is the sum of its factors' polytopes."""
    args = [_exp_arg(m) for m in p.terms]
    return {
        k: (min(a.get(k, 0) for a in args), max(a.get(k, 0) for a in args))
        for k in set().union(*args)
    }


def _in_range(mono: tuple, box: dict) -> bool:
    arg = _exp_arg(mono)
    return arg.keys() <= box.keys() and all(
        lo <= arg.get(k, 0) <= hi for k, (lo, hi) in box.items()
    )


def poly_sqrt(p: Poly) -> Poly | None:
    """Exact square root of a polynomial normal form, or None; its
    `leading()` coefficient is positive.

    `_lead_reduce` starts from the root of p's leading term and subtracts
    t*(2q + t) = (q + t)^2 - q^2 over the divisor 2*lead(q); as Newt(q^2) =
    2 Newt(q), the box is half of p's exp range.  Case A, p has no R,
    unit-pair partner or sin atom: nor has q, so q*q meets no rewrite,
    lead(q^2) = lead(q)^2, a step cancels the leading term t*lead(q) and
    adds only smaller ones, and for p = s^2 the loop takes the terms of s in
    turn.  Case B, p has such an atom: the rewrite images (u, v, w; a; cos)
    rewrite no further and raise no degree, so a root term has a degree, exp
    units left out, at most half that of lead(p), atoms among p's and their
    images, and an exp argument in the box on the lattice of half p's
    arguments.  That set is finite and no term repeats, so the loop ends; a
    root may be missed, never wrong."""
    if p.is_zero():
        return Poly({})
    box = {k: (Fraction(lo, 2), Fraction(hi, 2))
           for k, (lo, hi) in _exp_range(p).items()}
    key = _div_key(box)
    root = _term_sqrt(*min(p.terms.items(), key=lambda kv: key(kv[0])))
    if root is None:
        return None
    ms, cs = root
    q0 = Poly({ms: cs})
    q = _lead_reduce((p - q0 * q0).terms, dict(q0.terms), (ms, 2 * cs),
                     lambda t, q: t * (q.scale(2) + t), box, key)
    return q if q is None or q.leading()[1] > 0 else q.scale(-1)


def _sqrt_in_r(p: Poly) -> Poly | None:
    """Square root a + b*R of p = A + B*R, all four free of R, or None; its
    `leading()` coefficient is positive.  With rho = u^2 + v^2 + w^2,
    p = a^2 + b^2*rho + 2ab*R, so s = +-(a^2 - b^2*rho) is a root of
    A^2 - B^2*rho (it is +-A if B = 0), a^2 = (A + s)/2, b^2 = (A - s)/(2*rho)
    and the sign of b makes 2ab = B.  A root is kept only if it squares to p."""
    rho = _RSQ
    with_r = Poly({m: c for m, c in p.terms.items() if any(a is S.R for a, _ in m)})
    big_a, big_b = p - with_r, with_r.divide_monomial(_freeze({S.R: 1}))
    s = big_a if big_b.is_zero() else poly_sqrt(big_a * big_a - big_b * big_b * rho)
    for s in [] if s is None else [s, s.scale(-1)]:
        a = poly_sqrt((big_a + s).scale(Fraction(1, 2)))
        quot = poly_div_exact((big_a - s).scale(Fraction(1, 2)), rho)
        b = None if quot is None else poly_sqrt(quot)
        if a is None or b is None:
            continue
        if (a * b).scale(2) != big_b:
            b = b.scale(-1)
        root = a + b * poly_atom(S.R)
        if root * root == p:
            return root if root.leading()[1] > 0 else root.scale(-1)
    return None


def rat_sqrt(rf: RatForm, origin: Expr) -> RatForm:
    num = poly_sqrt(rf.num)
    if num is None:
        num = _sqrt_in_r(rf.num)
    den = poly_sqrt(rf.den)
    if num is None or den is None:
        raise NotPolynomial("square root has no exact polynomial form", origin)
    return ratform(num, den)


def _div_key(box: dict):
    """Key of `_lead_reduce`'s monomial order: graded lex on the atoms but
    mergeable exp atoms, then lex, larger first, on the exp argument's
    coefficients over the monomials of `box`, which products add."""
    if not box:
        return _mono_sort_key
    args = sorted(box, key=_mono_sort_key)

    def key(mono):
        rest = tuple(ae for ae in mono if not _is_mergeable_exp(ae[0]))
        arg = _exp_arg(mono)
        return _mono_sort_key(rest), tuple(-arg.get(k, 0) for k in args)

    return key


def _lead_reduce(r: dict, q: dict, lead: tuple, times, box: dict, key) -> Poly | None:
    """Leading-term reduction (Cox, Little and O'Shea, Ideals, Varieties,
    and Algorithms, 2.3), the loop of `poly_div_exact` and `poly_sqrt`: a
    step divides the remainder r's leading term in the order `key`, kept by
    a heap, by `lead` = (monomial, coefficient) to the next term t of q and
    subtracts times(t, q) from r, a dict updated in place.  None when t
    does not exist, leaves the exp-argument box or was taken before."""
    lm, lc = lead
    heap = [(key(m), m) for m in r]
    heapq.heapify(heap)
    while r:
        while heap[0][1] not in r:
            heapq.heappop(heap)
        rm = heap[0][1]
        t_mono = _mono_div(rm, lm)
        if t_mono is None or t_mono in q or not _in_range(t_mono, box):
            return None
        t = Poly({t_mono: r[rm] if lc == 1 else _coeff(Fraction(r[rm], lc))})
        for m, v in times(t, Poly(q)).terms.items():
            nc = r.get(m, 0) - v
            if nc:
                if m not in r:
                    heapq.heappush(heap, (key(m), m))
                r[m] = _coeff(nc)
            else:
                del r[m]
        q[t_mono] = t.terms[t_mono]
    return Poly(q)


def poly_div_exact(p: Poly, d: Poly) -> Poly | None:
    """Exact quotient p / d, or None when d does not divide p.

    Precondition, checked: d has no R, unit-pair partner or sin atom, as
    holds for every `ratform` denominator and for u^2 + v^2 + w^2.  Then
    t*d meets no rewrite, lead(t*d) = t*lead(d), and `_lead_reduce`,
    subtracting t*d, takes the terms of q in turn for p = q*d.  By
    Ostrowski, Newt(p) = Newt(q) + Newt(d), so the box is [min_p - min_d,
    max_p - max_d]: 1 / (1 + exp(x)) stops at exp(-x).  The loop ends: the
    leading monomials strictly decrease, so none repeats, the quotient's
    exp arguments lie in the box among p's plus integer combinations of
    d's, and its other atoms are p's and d's, where graded lex is a
    well-order."""
    if any(_reducible(a, 2) is not None for a in d.atoms()):
        raise ExprError("divisor carries an R, unit-pair or sin atom")
    if d.is_zero():
        return None
    rp, rd = _exp_range(p), _exp_range(d)
    box = {}
    for k in rp.keys() | rd.keys():
        (p_lo, p_hi), (d_lo, d_hi) = rp.get(k, (0, 0)), rd.get(k, (0, 0))
        box[k] = (p_lo - d_lo, p_hi - d_hi)
    key = _div_key(box)
    lead = min(d.terms.items(), key=lambda kv: key(kv[0]))
    return _lead_reduce(dict(p.terms), {}, lead, lambda t, q: t * d, box, key)


# --- normalization ----------------------------------------------------------

def as_ratform(e: Expr) -> RatForm:
    """Canonical rational form num/den, kept on the node once taken.
    Raises NotPolynomial only for square roots with no exact form."""
    try:
        return e._rf
    except AttributeError:  # the slot is unset until the first call
        rf = e._rf = _as_ratform(e)
        return rf


def _as_ratform(e: Expr) -> RatForm:
    one = poly_const(1)
    if isinstance(e, Num):
        return RatForm(poly_const(e.val), one)
    if isinstance(e, Symbol):
        return RatForm(poly_atom(e), one)
    if isinstance(e, Add):
        acc = as_ratform(e.terms[0])
        for t in e.terms[1:]:
            acc = _rat_add(acc, as_ratform(t))
        return acc
    if isinstance(e, Mul):
        acc = as_ratform(e.factors[0])
        for f in e.factors[1:]:
            acc = _rat_mul(acc, as_ratform(f))
        return acc
    if isinstance(e, Pow):
        return _rat_pow(as_ratform(e.base), e.n)
    if isinstance(e, Func):
        arg = as_ratform(e.arg)
        if e.fn == "sqrt":
            return rat_sqrt(arg, e)
        sign = 1
        if e.fn in ("sin", "cos"):
            if arg.num.is_zero():
                return RatForm(poly_const(int(e.fn == "cos")), one)
            # parity: canonicalize the argument's leading sign
            _, lc = arg.num.leading()
            if lc < 0:
                arg = RatForm(arg.num.scale(-1), arg.den)
                if e.fn == "sin":
                    sign = -1
        if e.fn == "exp" and arg.is_polynomial():
            c = arg.den.constant_value()
            arg_poly = arg.num.scale(_inverse(c))
            if arg_poly.is_zero():
                return RatForm(one, one)
            return RatForm(poly_atom(_exp_atom(arg_poly)), one)
        atom = _intern(Func, e.fn, _rat_to_expression(arg),
                       atom=(_rat_key(arg), None))
        return RatForm(poly_atom(atom).scale(sign), one)
    raise ExprError(f"unhandled node {type(e).__name__}")


def _rat_to_expression(rf: RatForm) -> Expr:
    if rf.is_polynomial():
        c = rf.den.constant_value()
        return rf.num.scale(_inverse(c)).to_expression()
    return mul(rf.num.to_expression(), pow_(rf.den.to_expression(), -1))


def normalize(e: Expr) -> Poly:
    """Polynomial normal form.  Raises NotPolynomial if a denominator
    survives (R-denominators are cleared by conjugation first)."""
    return _polynomial(as_ratform(e))


def _polynomial(rf: RatForm) -> Poly:
    """A normal form with a constant denominator as its polynomial, or
    NotPolynomial."""
    if not rf.is_polynomial():
        raise NotPolynomial(
            "denominator survives normalization", rf.den.to_expression()
        )
    c = rf.den.constant_value()
    return rf.num.scale(_inverse(c))


def normal_expression(e: Expr) -> Expr:
    """Expression rebuilt from the rational normal form (canonical layout)."""
    return _rat_to_expression(as_ratform(e))


def is_zero_expr(e: Expr) -> bool:
    return as_ratform(e).num.is_zero()


def equal_exprs(e1: Expr, e2: Expr) -> bool:
    return is_zero_expr(add(e1, neg(e2)))


def _exact_atom(a) -> bool:
    """A symbol, or an exp unit whose argument holds no opaque atom."""
    return not isinstance(a, Func) or (
        _is_mergeable_exp(a)
        and not any(isinstance(b, Func) for b in a.arg_poly.atoms()))


def decide_zero(e: Expr, samples: int = 20, tol: float = 1e-9):
    """(is_zero, mode, worst): exact normal form when possible, else numeric
    sampling at random points in [-2, 2], drawn with seed 0, where each
    registered unit pair met takes (cos t, sin t) at a random angle t in
    its place.  mode is 'symbolic' or 'numeric'; worst is the largest |e|
    sampled, None when decided symbolically.

    The normal form decides when its numerator is zero, or when each atom
    of the numerator is a symbol or an exp unit whose argument holds no
    opaque atom.  Such a numerator is a sum of terms c*m*exp(p), m a
    monomial in the symbols reduced by the quadratic rewrites, and it is a
    nonzero function unless it is the zero polynomial: units whose
    arguments differ by a rational constant are independent by
    Lindemann-Weierstrass, and exponentials of polynomials that differ by a
    non-constant are independent over the algebraic functions (Risch, Amer.
    J. Math. 101 (1979)).  Any other opaque atom, a sin, a cos or an exp of
    a fraction or of an argument that holds an opaque atom, is sampled:
    exp(sin(2*x)) - exp(2*sin(x)*cos(x)) is zero, but its normal form is
    not.

    Sampling compiles e once.  A point where it raises or gives NaN is
    skipped; EvalError when fewer than `samples` of 12 * samples are valid."""
    try:
        rf = as_ratform(e)
        if rf.num.is_zero():
            return True, "symbolic", None
        if all(_exact_atom(a) for a in rf.num.atoms()):
            return False, "symbolic", None
    except NotPolynomial:
        pass
    import random

    rng = random.Random(0)
    # R is never sampled: compile_numeric ties it to (u, v, w)
    sampled = sorted((s for s in free_symbols(e) if s.kind != "radical"),
                     key=lambda s: s.order)
    fn = compile_numeric(e, sampled)
    slot = {s: i for i, s in enumerate(sampled)}
    pairs = [(slot.get(a), slot.get(b)) for b, a in REGISTRY.unit_pairs.items()
             if a in slot or b in slot]
    worst = 0.0
    done = 0
    attempts = 0
    while done < samples:
        attempts += 1
        if attempts > samples * 12:
            raise EvalError("could not find enough valid sample points")
        point = [rng.uniform(-2.0, 2.0) for _ in sampled]
        for i, j in pairs:  # a pair sampled apart would leave its circle
            t = rng.uniform(-math.pi, math.pi)
            for k, v in ((i, math.cos(t)), (j, math.sin(t))):
                if k is not None:
                    point[k] = v
        try:
            val = abs(fn(*point))
        except (ArithmeticError, ValueError):
            continue  # a pole, a negative square root or an overflow
        if math.isnan(val):  # max() below would drop it silently
            continue
        worst = max(worst, val)
        done += 1
    return worst <= tol, "numeric", worst


def collect_poly(p: Poly, variables) -> dict:
    """Coefficients of p grouped by monomials in `variables`, as normal
    forms free of those variables."""
    vars_set = set(variables)
    grouped: dict[tuple, dict] = {}
    for m, c in p.terms.items():
        var_part: dict = {}
        rest: dict = {}
        for a, ex in m:
            if a in vars_set:
                var_part[a] = ex
            else:
                rest[a] = ex
        key = _freeze(var_part)
        grouped.setdefault(key, {})
        frozen_rest = _freeze(rest)
        acc = grouped[key]
        acc[frozen_rest] = _coeff(acc.get(frozen_rest, 0) + c)
    return {
        k: Poly({m: c for m, c in terms.items() if c})
        for k, terms in sorted(grouped.items(), key=lambda kv: _mono_sort_key(kv[0]))
    }


def monomial_expr(mono: tuple) -> Expr:
    return mul(*(pow_(a, e) for a, e in mono))


# --- calculus ----------------------------------------------------------------


def differentiate(e: Expr, s: Symbol) -> Expr:
    if isinstance(e, Num):
        return ZERO
    if isinstance(e, Symbol):
        if e is s:
            return ONE
        rule = REGISTRY.derivative_rules.get((e, s))
        return rule if rule is not None else ZERO
    if isinstance(e, Add):
        return add(*[differentiate(t, s) for t in e.terms])
    if isinstance(e, Mul):
        out = []
        for i, f in enumerate(e.factors):
            df = differentiate(f, s)
            if df is ZERO:
                continue
            rest = e.factors[:i] + e.factors[i + 1 :]
            out.append(mul(df, *rest))
        return add(*out) if out else ZERO
    if isinstance(e, Pow):
        db = differentiate(e.base, s)
        return mul(Num(e.n), pow_(e.base, e.n - 1), db)
    if isinstance(e, Func):
        da = differentiate(e.arg, s)
        if da is ZERO:
            return ZERO
        if e.fn == "sin":
            return mul(func("cos", e.arg), da)
        if e.fn == "cos":
            return neg(mul(func("sin", e.arg), da))
        if e.fn == "exp":
            return mul(e, da)
        if e.fn == "sqrt":
            return mul(Num(Fraction(1, 2)), da, pow_(e, -1))
    raise ExprError(f"cannot differentiate {type(e).__name__}")


def substitute(e: Expr, bindings: dict) -> Expr:
    """Simultaneous substitution of symbols by expressions."""
    clean = {}
    for k, val in bindings.items():
        if not isinstance(k, Symbol):
            raise TypeError("substitution keys must be symbols")
        clean[k] = _as_expr(val)
    return _subst(e, clean)


def _subst(e: Expr, b: dict) -> Expr:
    if isinstance(e, Num):
        return e
    if isinstance(e, Symbol):
        return b.get(e, e)
    if isinstance(e, Add):
        return add(*[_subst(t, b) for t in e.terms])
    if isinstance(e, Mul):
        return mul(*[_subst(f, b) for f in e.factors])
    if isinstance(e, Pow):
        return pow_(_subst(e.base, b), e.n)
    if isinstance(e, Func):
        return func(e.fn, _subst(e.arg, b))
    raise ExprError(f"cannot substitute in {type(e).__name__}")


def free_symbols(e: Expr) -> set:
    out: set = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Symbol):
            out.add(node)
        else:
            stack.extend(_children(node))
    return out


# --- numeric evaluation ------------------------------------------------------


def compile_numeric(e: Expr | tuple, args: list) -> "callable":
    """Compile to a Python function of the given symbols: the one way an
    expression becomes a float.  For a tuple of expressions the function
    returns the tuple of their values.  The body is straight-line code, one
    local per distinct compound subexpression, so depth sets no limit and a
    subtree shared within or across components is computed once; each node
    keeps its operands' left-to-right order, so every component gives the
    same float as its own compile.  Components are computed in order.  An R
    that is not an argument is sqrt(u^2 + v^2 + w^2).  Raises EvalError for
    a free symbol that is not an argument, or a free R without u, v and w;
    calls raise ArithmeticError or ValueError at a pole, an overflow or a
    negative square root."""
    roots = e if isinstance(e, tuple) else (e,)
    operand: dict = {}  # node -> literal, argument name or local
    body = []
    free = set()
    stack = [(r, False) for r in reversed(roots)]
    while stack:
        node, ready = stack.pop()
        if node in operand:
            continue
        if isinstance(node, Num):
            v = node.val
            operand[node] = (f"({v.numerator})" if v.denominator == 1
                             else f"({v.numerator}/{v.denominator})")
        elif isinstance(node, Symbol):
            free.add(node)
            operand[node] = node.name
        elif not ready:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(_children(node)))
        else:
            local = f"_{len(body)}"
            body.append(f"    {local} = {_pysrc(node, operand)}\n")
            operand[node] = local
    missing = sorted(s.name for s in free if s not in args and s is not S.R)
    if missing:
        raise EvalError("unbound symbols in compile: " + ", ".join(missing))
    if S.R in free and S.R not in args:
        if not all(s in args for s in (S.u, S.v, S.w)):
            raise EvalError("R is unbound and u, v, w are not all arguments")
        body.insert(0, "    R = _math.sqrt(u*u + v*v + w*w)\n")
    names = ", ".join(s.name for s in args)
    result = (f"({''.join(operand[r] + ', ' for r in roots)})"
              if isinstance(e, tuple) else operand[e])
    src = f"def _fn({names}):\n{''.join(body)}    return {result}\n"
    ns = {"_math": math}
    exec(src, ns)
    return ns["_fn"]


def _children(e: Expr) -> tuple:
    """The operands of a node, () for a leaf."""
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, Func):
        return (e.arg,)
    return ()


def _pysrc(e: Expr, operand: dict) -> str:
    """One compound node over the operands of its children."""
    if isinstance(e, Add):
        return " + ".join(operand[t] for t in e.terms)
    if isinstance(e, Mul):
        return " * ".join(operand[f] for f in e.factors)
    if isinstance(e, Pow):
        return f"{operand[e.base]} ** {e.n}"
    return f"_math.{e.fn}({operand[e.arg]})"


# --- parser ------------------------------------------------------------------

_TOKEN_OPS = set("+-*/^()")
# how deep `_Parser.parse_unary` may nest: every group, function argument,
# unary minus and exponent passes through it.  One fixed bound refuses an
# input at the same offset whoever calls `parse`, short of the interpreter's
# recursion limit under pytest (about 190 levels); it admits
# sin(y*(1 + x*(...))) with 180 nested factors, 183 levels.
MAX_NESTING = 185


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_OPS:
            toks.append((ch, ch, i))
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", "", n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def parse(self) -> Expr:
        e = self.parse_sum()
        t = self.peek()
        if t[0] != "end":
            raise ParseError(f"unexpected trailing {t[1]!r}", t[2])
        return e

    def parse_sum(self) -> Expr:
        left = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            right = self.parse_term()
            left = add(left, right if op == "+" else neg(right))
        return left

    def parse_term(self) -> Expr:
        left = self.parse_unary()
        while self.peek()[0] in ("*", "/"):
            op, _, off = self.next()
            right = self.parse_unary()
            if op == "*":
                left = mul(left, right)
            else:
                try:
                    left = mul(left, pow_(right, -1))
                except ExprError:
                    raise ParseError("division by zero", off)
        return left

    def parse_unary(self) -> Expr:
        # a refused input ends the parse, so only a return needs to unwind
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("expression nested too deeply", self.peek()[2])
        if self.peek()[0] == "-":
            self.next()
            e = neg(self.parse_unary())
        else:
            e = self.parse_power()
        self.depth -= 1
        return e

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.next()
            off = self.peek()[2]
            exponent = self.parse_unary()
            if not isinstance(exponent, Num) or exponent.val.denominator != 1:
                raise ParseError("exponent must be an integer", off)
            try:
                return pow_(base, int(exponent.val))
            except ExprError as err:
                raise ParseError(str(err), off)
        return base

    def parse_atom(self) -> Expr:
        kind, text, off = self.next()
        if kind == "num":
            try:
                return Num(int(text))
            except ValueError:  # more than sys.get_int_max_str_digits()
                raise ParseError(f"{len(text)}-digit literal is too long", off) from None
        if kind == "(":
            e = self.parse_sum()
            t = self.next()
            if t[0] != ")":
                raise ParseError("expected ')'", t[2])
            return e
        if kind == "ident":
            if self.peek()[0] == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function '{text}'", off)
                self.next()
                arg = self.parse_sum()
                t = self.next()
                if t[0] != ")":
                    raise ParseError("expected ')'", t[2])
                return func(text, arg)
            sym = _INPUT_NAMES.get(text)
            if sym is None:
                raise ParseError(f"unknown identifier '{text}'", off)
            return sym
        raise ParseError(f"unexpected token {text!r}", off)


def parse(text: str) -> Expr:
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:  # a caller whose own stack is deep
        offset = parser.toks[min(parser.pos, len(parser.toks) - 1)][2]
        raise ParseError("expression nested too deeply", offset) from None


# --- printer -----------------------------------------------------------------


def _print_frac(c) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _without_minus(e: Expr) -> Expr | None:
    """A negative Num, or a Mul led by one, without its minus sign; else
    None.  A Num has no children, so it comes back as its negation."""
    lead = e.factors[0] if isinstance(e, Mul) else e
    if not (isinstance(lead, Num) and lead.val < 0):
        return None
    return mul(Num(-lead.val), *_children(e)[1:])


def to_string(e: Expr) -> str:
    if isinstance(e, Add):
        parts = []
        for i, t in enumerate(e.terms):
            if i == 0:
                parts.append(to_string(t))
            elif (rest := _without_minus(t)) is not None:
                text = to_string(rest)
                parts.append(f" - ({text})" if isinstance(rest, Add) else " - " + text)
            else:
                parts.append(" + " + to_string(t))
        return "".join(parts)
    if isinstance(e, Mul):
        return _print_product(1, list(e.factors))
    if isinstance(e, Pow):
        return _print_product(1, [e])
    if isinstance(e, Num):
        if e.val < 0:
            return "-" + _print_frac(-e.val)
        return _print_frac(e.val)
    if isinstance(e, Symbol):
        return e.name
    if isinstance(e, Func):
        return f"{e.fn}({to_string(e.arg)})"
    raise ExprError(f"cannot print {type(e).__name__}")


def _print_product(coeff, factors: list) -> str:
    numer, denom = [], []
    for f in factors:
        if isinstance(f, Num):
            coeff *= f.val
        elif isinstance(f, Pow) and f.n < 0:
            denom.append(pow_(f.base, -f.n))
        else:
            numer.append(f)
    # "a*b/c" parses back to the same factors only when the one divisor
    # comes last; otherwise keep the factor order, negative powers as x^-n
    last = factors[-1]
    if denom and (len(denom) + (coeff.denominator != 1) > 1
                  or not (isinstance(last, Pow) and last.n < 0)):
        numer = [f for f in factors if not isinstance(f, Num)]
        denom = []
    sign = "-" if coeff < 0 else ""
    coeff = abs(coeff)
    num_parts = []
    if coeff.numerator != 1 or not numer:
        num_parts.append(str(coeff.numerator))
    num_parts.extend(_print_factor(f) for f in numer)
    den_parts = []
    if coeff.denominator != 1:
        den_parts.append(str(coeff.denominator))
    den_parts.extend(_print_factor(f) for f in denom)
    out = sign + "*".join(num_parts)
    if den_parts:
        if len(den_parts) == 1:
            out += "/" + den_parts[0]
        else:
            out += "/(" + "*".join(den_parts) + ")"
    return out


def _print_factor(f: Expr) -> str:
    if isinstance(f, Pow):
        base = f.base
        bs = to_string(base)
        if isinstance(base, (Add, Mul, Num)):
            bs = f"({bs})"
        return f"{bs}^{f.n}"
    if isinstance(f, (Add, Mul)):
        return f"({to_string(f)})"
    return to_string(f)
