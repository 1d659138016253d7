"""Exact symbolic kernel.

Immutable expression trees over exact rationals, built for first-order jet
calculus on three base coordinates (x, y, z) and three field components
(u, v, w).  The kernel knows a fixed symbol universe:

* independent coordinates x, y, z
* dependent components     u, v, w
* the nine first jets      u_x ... w_z
* the field-magnitude radical R, with R^2 -> u^2 + v^2 + w^2 rewritten at
  insertion time and d R / d u = u / R etc.
* parameters (group parameter eps, the unit circle pair a, b with
  a^2 + b^2 -> 1, integration constants C1..C10, the formal function symbols
  f, f_u, f_v, f_w, and the formal generator coefficients zeta ... psi with
  their first partials zeta_x ... psi_w)

Everything downstream (prolongation, determining systems, brackets) runs on
`normalize`, which maps an expression to a polynomial normal form: a map
from monomials to rationals under graded lexicographic order with
x < y < z < u < v < w < jets < R < parameters.  sin/cos/exp of compound
arguments stay opaque; they enter the normal form as atoms keyed by the
canonical form of their argument, with three insertion-time reductions that
keep the form canonical without doing general trig simplification:

* R^2        -> u^2 + v^2 + w^2
* b^2        -> 1 - a^2           (for every registered unit pair)
* sin(A)^2   -> 1 - cos(A)^2      (same canonical argument A)
* exp(p) * exp(q) -> exp(p + q)   (exp arguments add; exp(0) drops)

The leading monomials of the three quadratic rules are pairwise coprime, so
the rewrite system is confluent and terminating.  No floats ever enter a
tree; numeric work goes through `compile_numeric`, which `decide_zero`
samples through as well.
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


def _as_expr(v) -> "Expr":
    if isinstance(v, Expr):
        return v
    if isinstance(v, bool):
        raise TypeError("bool is not a symbolic value")
    if isinstance(v, int):
        return Num(Fraction(v))
    if isinstance(v, Fraction):
        return Num(v)
    if isinstance(v, float):
        raise TypeError("floats are not allowed in symbolic expressions")
    raise TypeError(f"cannot coerce {type(v).__name__} to an expression")


class Expr:
    __slots__ = ("_h",)

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

    def __init__(self, val: Fraction):
        self.val = val
        self._h = None

    def __eq__(self, other):
        return isinstance(other, Num) and self.val == other.val

    def __hash__(self):
        if self._h is None:
            self._h = hash(("Num", self.val))
        return self._h


class Symbol(Expr):
    """A named atom.  Instances are unique per registry; kind drives
    differentiation (jets, R and the formal function symbols carry rules)."""

    __slots__ = ("name", "kind", "order")

    def __init__(self, name: str, kind: str, order: int):
        self.name = name
        self.kind = kind
        self.order = order
        self._h = None

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        if self._h is None:
            self._h = hash(("Sym", self.name, self.order))
        return self._h


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        self.terms = terms
        self._h = None

    def __eq__(self, other):
        return isinstance(other, Add) and self.terms == other.terms

    def __hash__(self):
        if self._h is None:
            self._h = hash(("Add", self.terms))
        return self._h


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        self.factors = factors
        self._h = None

    def __eq__(self, other):
        return isinstance(other, Mul) and self.factors == other.factors

    def __hash__(self):
        if self._h is None:
            self._h = hash(("Mul", self.factors))
        return self._h


class Pow(Expr):
    __slots__ = ("base", "n")

    def __init__(self, base: Expr, n: int):
        self.base = base
        self.n = n
        self._h = None

    def __eq__(self, other):
        return isinstance(other, Pow) and self.n == other.n and self.base == other.base

    def __hash__(self):
        if self._h is None:
            self._h = hash(("Pow", self.base, self.n))
        return self._h


FUNCTIONS = ("sin", "cos", "exp", "sqrt")


class Func(Expr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: str, arg: Expr):
        self.fn = fn
        self.arg = arg
        self._h = None

    def __eq__(self, other):
        return isinstance(other, Func) and self.fn == other.fn and self.arg == other.arg

    def __hash__(self):
        if self._h is None:
            self._h = hash(("Func", self.fn, self.arg))
        return self._h


ZERO = Num(Fraction(0))
ONE = Num(Fraction(1))


def add(*terms) -> Expr:
    flat = []
    const = Fraction(0)
    for t in terms:
        t = _as_expr(t)
        if isinstance(t, Add):
            flat.extend(t.terms)
        elif isinstance(t, Num):
            const += t.val
        else:
            flat.append(t)
    # re-fold constants swallowed from nested Adds
    kept = []
    for t in flat:
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
    flat = []
    const = Fraction(1)
    for f in factors:
        f = _as_expr(f)
        if isinstance(f, Mul):
            flat.extend(f.factors)
        elif isinstance(f, Num):
            const *= f.val
        else:
            flat.append(f)
    kept = []
    for f in flat:
        if isinstance(f, Num):
            const *= f.val
        else:
            kept.append(f)
    if const == 0:
        return ZERO
    if not kept:
        return Num(const)
    if const != 1:
        kept = [Num(const)] + kept
    if len(kept) == 1:
        return kept[0]
    return Mul(tuple(kept))


def neg(e: Expr) -> Expr:
    return mul(Num(Fraction(-1)), e)


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
        return Num(base.val ** n)
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
            r = _frac_sqrt(arg.val)
            if r is not None:
                return Num(r)
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


class SymbolRegistry:
    """Owns the symbol universe, the parse namespace, per-symbol derivative
    rules and the unit-pair rewrites."""

    def __init__(self):
        self.by_name: dict[str, Symbol] = {}
        self._order = 0
        self.derivative_rules: dict[tuple[Symbol, Symbol], Expr] = {}
        self.unit_pairs: dict[Symbol, Symbol] = {}  # b -> a for b^2 -> 1-a^2
        self._pair_count = 1
        self._eps_count = 1

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

    def fresh_unit_pair(self) -> tuple[Symbol, Symbol]:
        self._pair_count += 1
        return self.register_unit_pair(f"a{self._pair_count}", f"b{self._pair_count}")

    def fresh_parameter(self) -> Symbol:
        self._eps_count += 1
        return self.register(f"eps{self._eps_count}", "parameter")


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
    for g in ("zeta", "eta", "theta", "phi", "lam", "psi"):
        gs = reg.register(g, "parameter")
        for n in ("x", "y", "z", "u", "v", "w"):
            gd = reg.register(f"{g}_{n}", "parameter")
            reg.add_rule(gs, reg.by_name[n], gd)
    # reduced-profile symbols for the group-invariant reductions
    for n in ("g", "h", "beta", "gamma", "r"):
        reg.register(n, "parameter")
    return reg


REGISTRY = _build_registry()


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


class OpaqueAtom:
    """sin/cos/exp applied to a compound argument, as a monomial atom.

    Identity is the canonical rational form of the argument, so arguments
    that normalize equal collapse to the same atom.  `arg` keeps an
    expression view for printing and evaluation."""

    __slots__ = ("fn", "key", "arg", "arg_poly", "_h")

    def __init__(self, fn: str, key: tuple, arg: Expr):
        self.fn = fn
        self.key = key
        self.arg = arg
        self.arg_poly = None  # set for mergeable exp atoms only
        self._h = None

    def __eq__(self, other):
        return (
            isinstance(other, OpaqueAtom)
            and self.fn == other.fn
            and self.key == other.key
        )

    def __hash__(self):
        if self._h is None:
            self._h = hash((self.fn, self.key))
        return self._h

    def __repr__(self):
        return f"<atom {self.fn}({to_string(self.arg)})>"


def _atom_sort_key(atom):
    if isinstance(atom, Symbol):
        return (0, atom.order, ())
    return (1, _FN_RANK[atom.fn], atom.key)


_MONO_KEYS: dict = {}


def _mono_sort_key(mono: tuple):
    # graded lex, descending: higher total degree first, then earlier
    # symbols with higher exponents first; memoized per monomial and
    # emptied together with the normalization cache (`_clear_caches`)
    key = _MONO_KEYS.get(mono)
    if key is None:
        deg = sum(e for _, e in mono)
        key = (-deg, tuple((_atom_sort_key(a), -e) for a, e in mono))
        _MONO_KEYS[mono] = key
    return key


def _freeze(d: dict) -> tuple:
    return tuple(sorted(d.items(), key=lambda kv: _atom_sort_key(kv[0])))


class Poly:
    """Polynomial normal form: monomial -> rational, monomials reduced."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
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
            nc = out.get(m, Fraction(0)) + c
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
        return Poly(out)

    def __sub__(self, other):
        return self + other.scale(Fraction(-1))

    def scale(self, c: Fraction) -> "Poly":
        if c == 0:
            return Poly({})
        return Poly({m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                merged = dict(m1)
                for a, e in m2:
                    merged[a] = merged.get(a, 0) + e
                _emit(out, merged, c1 * c2)
        return Poly(out)

    def power(self, n: int) -> "Poly":
        if n < 0:
            raise ExprError("negative power on a polynomial")
        acc = poly_const(Fraction(1))
        for _ in range(n):
            acc = acc * self
        return acc

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        _, lc = self.leading()
        return self.scale(Fraction(1) / lc)

    def content_monomial(self) -> tuple:
        """Largest monomial dividing every term (exp atoms excluded)."""
        if self.is_zero():
            return ()
        common: dict | None = None
        for m in self.terms:
            md = {a: e for a, e in m if not isinstance(a, OpaqueAtom) or a.fn != "exp"}
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
            md = dict(m)
            for a, e in mono:
                md[a] = md.get(a, 0) - e
                if md[a] < 0:
                    raise ExprError("monomial does not divide polynomial")
                if md[a] == 0:
                    del md[a]
            out[_freeze(md)] = c
        return Poly(out)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(_poly_key(self))

    def __repr__(self):
        return f"<Poly {to_string(self.to_expression())}>"

    def to_expression(self) -> Expr:
        return add(*(mul(Num(c), monomial_expr(m)) for m, c in self.sorted_terms()))


def poly_const(c: Fraction) -> Poly:
    return Poly({(): c}) if c else Poly({})


def poly_atom(atom) -> Poly:
    out: dict = {}
    _emit(out, {atom: 1}, Fraction(1))
    return Poly(out)


def _poly_key(p: Poly) -> tuple:
    return tuple(
        (tuple((_atom_sort_key(a), e) for a, e in m), (c.numerator, c.denominator))
        for m, c in p.sorted_terms()
    )


# replacement polynomials for the quadratic rewrites, built lazily because
# they need the registry
_RSQ: Poly | None = None


def _rsq_poly() -> Poly:
    global _RSQ
    if _RSQ is None:
        u, v, w = S.u, S.v, S.w
        _RSQ = Poly(
            {
                _freeze({u: 2}): Fraction(1),
                _freeze({v: 2}): Fraction(1),
                _freeze({w: 2}): Fraction(1),
            }
        )
    return _RSQ


def _reducible(atom, e: int):
    """Return the replacement Poly for atom^2, or None."""
    if e < 2:
        return None
    if isinstance(atom, Symbol):
        if atom.kind == "radical":
            return _rsq_poly()
        partner = REGISTRY.unit_pairs.get(atom)
        if partner is not None:
            return Poly({(): Fraction(1), _freeze({partner: 2}): Fraction(-1)})
        return None
    if atom.fn == "sin":
        cos_atom = OpaqueAtom("cos", atom.key, atom.arg)
        return Poly({(): Fraction(1), _freeze({cos_atom: 2}): Fraction(-1)})
    return None


def _is_mergeable_exp(a) -> bool:
    return isinstance(a, OpaqueAtom) and a.fn == "exp" and a.arg_poly is not None


def _emit(acc: dict, mono: dict, coeff: Fraction):
    """Insert coeff * mono into acc, applying the insertion-time rewrites."""
    if coeff == 0:
        return
    # fold exp atoms: arguments add, exponents fold into the argument
    exps = [a for a in mono if _is_mergeable_exp(a)]
    if len(exps) == 1 and mono[exps[0]] == 1:
        exps = []
    if exps:
        total: Poly | None = None
        for a in exps:
            contrib = a.arg_poly.scale(Fraction(mono[a]))
            total = contrib if total is None else total + contrib
            del mono[a]
        if total is not None and not total.is_zero():
            mono[_exp_atom(total)] = 1
    for a, e in mono.items():
        if e == 0:
            continue
        rep = _reducible(a, e)
        if rep is not None:
            rest = dict(mono)
            rest[a] = e - 2
            if rest[a] == 0:
                del rest[a]
            for rm, rc in rep.terms.items():
                merged = dict(rest)
                for ra, re in rm:
                    merged[ra] = merged.get(ra, 0) + re
                _emit(acc, merged, coeff * rc)
            return
    frozen = _freeze({a: e for a, e in mono.items() if e != 0})
    nc = acc.get(frozen, Fraction(0)) + coeff
    if nc:
        acc[frozen] = nc
    else:
        acc.pop(frozen, None)


def _exp_atom(arg_poly: Poly) -> OpaqueAtom:
    atom = OpaqueAtom("exp", _poly_key(arg_poly), arg_poly.to_expression())
    atom.arg_poly = arg_poly
    return atom


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
        return RatForm(Poly({}), poly_const(Fraction(1)))
    # conjugate away algebraic atoms (degree <= 1 per monomial by reduction)
    while True:
        target = None
        for a in sorted(den.atoms(), key=_atom_sort_key):
            if _reducible(a, 2) is not None:
                target = a
                break
        if target is None:
            break
        p_terms, q_terms = {}, {}
        for m, c in den.terms.items():
            md = dict(m)
            if target in md:
                del md[target]
                q_terms[_freeze(md)] = c
            else:
                p_terms[m] = c
        p, q = Poly(p_terms), Poly(q_terms)
        # (p + A q)(p - A q) = p^2 - A^2 q^2, A^2 rewriting away
        conj_terms: dict = {}
        for m, c in p.terms.items():
            conj_terms[m] = c
        for m, c in q.terms.items():
            md = dict(m)
            md[target] = md.get(target, 0) + 1
            _emit(conj_terms, md, -c)
        conj = Poly(conj_terms)
        num = num * conj
        den = den * conj
    # cancel a common monomial factor (cheap gcd; no full polynomial gcd);
    # the numerator's content matters only if the denominator has one
    c_den = den.content_monomial()
    if c_den:
        dn = dict(num.content_monomial())
        common = {a: min(e, dn[a]) for a, e in c_den if a in dn}
        if common:
            frozen = _freeze(common)
            num = num.divide_monomial(frozen)
            den = den.divide_monomial(frozen)
    # clear a pure exp factor of the denominator if every monomial shares it
    args = set()
    for m in den.terms:
        found = None
        for a, _ in m:
            if _is_mergeable_exp(a):
                found = a
        args.add(None if found is None else found.key)
    if len(args) == 1 and None not in args:
        some = next(iter(den.terms))
        for a, _ in some:
            if _is_mergeable_exp(a):
                shift = poly_atom(_exp_atom(a.arg_poly.scale(Fraction(-1))))
                num = num * shift
                den = den * shift
                break
    if not den.is_constant():
        q = poly_div_exact(num, den)
        if q is not None:
            return RatForm(q, poly_const(Fraction(1)))
    _, lc = den.leading()
    if lc != 1:
        inv = Fraction(1) / lc
        num = num.scale(inv)
        den = den.scale(inv)
    return RatForm(num, den)


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


# --- square roots of polynomial forms ---------------------------------------


def _frac_sqrt(c: Fraction) -> Fraction | None:
    if c < 0:
        return None
    rn, rd = math.isqrt(c.numerator), math.isqrt(c.denominator)
    if rn * rn == c.numerator and rd * rd == c.denominator:
        return Fraction(rn, rd)
    return None


def _mono_sqrt(m: tuple):
    out = {}
    for a, e in m:
        if _is_mergeable_exp(a):
            out[_exp_atom(a.arg_poly.scale(Fraction(1, 2)))] = 1
        elif e % 2 == 0:
            out[a] = e // 2
        else:
            return None
    return _freeze(out)


def _mono_div(a: tuple, b: tuple):
    out = dict(a)
    for atom, e in b:
        if _is_mergeable_exp(atom):
            # exp atoms always divide: arguments subtract
            have = None
            for oa in list(out):
                if _is_mergeable_exp(oa):
                    have = oa
            arg = atom.arg_poly.scale(Fraction(-1))
            if have is not None:
                arg = arg + have.arg_poly
                del out[have]
            if not arg.is_zero():
                out[_exp_atom(arg)] = 1
            continue
        out[atom] = out.get(atom, 0) - e
        if out[atom] < 0:
            return None
        if out[atom] == 0:
            del out[atom]
    return _freeze(out)


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
    """Exact square root of a polynomial normal form, or None.

    Positive branch: the leading coefficient of the root is positive.

    exp atoms grade the product by their arguments, and Newt(q^2) =
    2 Newt(q), so each exp-argument coefficient of a root term lies within
    half the range of that coefficient over p's terms.  A term outside it
    means p has no root; without the check 1 + exp(u) would loop on
    exp(-u/2), exp(-3u/2), ... up to the guard.  That guard stays, as q^2
    meets the R, unit-pair and sin rewrites and `poly_div_exact`'s proof
    does not carry over; it took at most 9 steps on the README commands
    and 19 on `verify-solution --sol B2 --transform 4|5|6 --eps eps`."""
    if p.is_zero():
        return Poly({})
    box = {
        k: (Fraction(lo, 2), Fraction(hi, 2)) for k, (lo, hi) in _exp_range(p).items()
    }
    lm, lc = p.leading()
    ms, cs = _mono_sqrt(lm), _frac_sqrt(lc)
    if ms is None or cs is None:
        return None
    q = Poly({ms: cs})
    r = p - q * q
    guard = 0
    while not r.is_zero():
        guard += 1
        if guard > 4000:
            return None
        rm, rc = r.leading()
        t_mono = _mono_div(rm, ms)
        if t_mono is None:
            return None
        if not _in_range(t_mono, box):
            return None
        t = Poly({t_mono: rc / (2 * cs)})
        q = q + t
        r = p - q * q
    return q


def rat_sqrt(rf: RatForm, origin: Expr) -> RatForm:
    num = poly_sqrt(rf.num)
    if num is None:
        # try factoring out u^2+v^2+w^2 = R^2
        quot = poly_div_exact(rf.num, _rsq_poly())
        if quot is not None:
            part = poly_sqrt(quot)
            if part is not None:
                num = part * poly_atom(S.R)
    den = poly_sqrt(rf.den)
    if num is None or den is None:
        raise NotPolynomial("square root has no exact polynomial form", origin)
    return ratform(num, den)


def _div_key(args: list):
    """Key of `poly_div_exact`'s monomial order: graded lex on the atoms
    other than mergeable exp atoms, then lex, larger first, on the exp
    argument's coefficients over `args`, which products add."""
    if not args:
        return _mono_sort_key

    def key(mono):
        rest = tuple(ae for ae in mono if not _is_mergeable_exp(ae[0]))
        arg = _exp_arg(mono)
        return _mono_sort_key(rest), tuple(-arg.get(k, 0) for k in args)

    return key


def poly_div_exact(p: Poly, d: Poly) -> Poly | None:
    """Exact quotient p / d, or None when d does not divide p.

    Precondition, checked: d has no R, unit-pair partner or sin atom, as
    holds for every `ratform` denominator and for u^2 + v^2 + w^2.  Then
    t*d meets no rewrite for a normal-form monomial t, and lead(t*d) =
    t*lead(d) in the order of `_div_key`.  A step cancels the remainder's
    leading term and adds only smaller ones; for p = q*d, it takes the
    next term of q.  By Ostrowski, Newt(p) = Newt(q) + Newt(d), so a
    quotient term's exp-argument coefficients lie in [min_p - min_d,
    max_p - max_d]; the first term outside returns None, so 1 / (1 +
    exp(x)) stops at exp(-x).  The loop ends: the leading monomials
    strictly decrease, the exp arguments of the quotient terms lie in
    that box among p's plus integer combinations of d's (finitely many),
    and the other atoms are p's and d's, where graded lex is a well-order.

    A heap of order keys yields the leading term of the remainder, a dict
    updated in place; entries of cancelled monomials are popped at the top."""
    if any(_reducible(a, 2) is not None for a in d.atoms()):
        raise ExprError("divisor carries an R, unit-pair or sin atom")
    if d.is_zero():
        return None
    rp, rd = _exp_range(p), _exp_range(d)
    box = {}
    for k in rp.keys() | rd.keys():
        (p_lo, p_hi), (d_lo, d_hi) = rp.get(k, (0, 0)), rd.get(k, (0, 0))
        box[k] = (p_lo - d_lo, p_hi - d_hi)
    key = _div_key(sorted(box, key=_mono_sort_key))
    dm, dc = min(d.terms.items(), key=lambda kv: key(kv[0]))
    q: dict = {}
    r = dict(p.terms)
    heap = [(key(m), m) for m in r]
    heapq.heapify(heap)
    while r:
        while heap[0][1] not in r:
            heapq.heappop(heap)
        rm = heap[0][1]
        t_mono = _mono_div(rm, dm)
        if t_mono is None or not _in_range(t_mono, box):
            return None
        c = q[t_mono] = r[rm] / dc
        for m, v in (Poly({t_mono: c}) * d).terms.items():
            nc = r.get(m, Fraction(0)) - v
            if nc:
                if m not in r:
                    heapq.heappush(heap, (key(m), m))
                r[m] = nc
            else:
                del r[m]
    return Poly(q)


# --- normalization ----------------------------------------------------------

_RAT_CACHE: dict = {}


def _clear_caches():
    """Empty the normalization cache and the monomial-key memo it feeds."""
    _RAT_CACHE.clear()
    _MONO_KEYS.clear()


def as_ratform(e: Expr) -> RatForm:
    """Canonical rational form num/den.  Raises NotPolynomial only for
    square roots with no exact form."""
    hit = _RAT_CACHE.get(e)
    if hit is not None:
        return hit
    rf = _as_ratform(e)
    if len(_RAT_CACHE) > 400_000:
        _clear_caches()
    _RAT_CACHE[e] = rf
    return rf


def _as_ratform(e: Expr) -> RatForm:
    one = poly_const(Fraction(1))
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
        sign = Fraction(1)
        if e.fn in ("sin", "cos"):
            if arg.num.is_zero():
                return RatForm(poly_const(Fraction(e.fn == "cos")), one)
            # parity: canonicalize the argument's leading sign
            _, lc = arg.num.leading()
            if lc < 0:
                arg = RatForm(arg.num.scale(Fraction(-1)), arg.den)
                if e.fn == "sin":
                    sign = Fraction(-1)
        if e.fn == "exp" and arg.is_polynomial():
            c = arg.den.constant_value()
            arg_poly = arg.num.scale(Fraction(1) / c)
            if arg_poly.is_zero():
                return RatForm(one, one)
            return RatForm(poly_atom(_exp_atom(arg_poly)), one)
        arg_expr = _rat_to_expression(arg)
        atom = OpaqueAtom(e.fn, _rat_key(arg), arg_expr)
        return RatForm(poly_atom(atom).scale(sign), one)
    raise ExprError(f"unhandled node {type(e).__name__}")


def _rat_to_expression(rf: RatForm) -> Expr:
    if rf.is_polynomial():
        c = rf.den.constant_value()
        return rf.num.scale(Fraction(1) / c).to_expression()
    return mul(rf.num.to_expression(), pow_(rf.den.to_expression(), -1))


def normalize(e: Expr) -> Poly:
    """Polynomial normal form.  Raises NotPolynomial if a denominator
    survives (R-denominators are cleared by conjugation first)."""
    rf = as_ratform(e)
    if not rf.is_polynomial():
        raise NotPolynomial(
            "denominator survives normalization", rf.den.to_expression()
        )
    c = rf.den.constant_value()
    return rf.num.scale(Fraction(1) / c)


def normal_expression(e: Expr) -> Expr:
    """Expression rebuilt from the rational normal form (canonical layout)."""
    return _rat_to_expression(as_ratform(e))


def is_zero_expr(e: Expr) -> bool:
    return as_ratform(e).num.is_zero()


def equal_exprs(e1: Expr, e2: Expr) -> bool:
    return is_zero_expr(add(e1, neg(e2)))


def decide_zero(e: Expr, samples: int = 20, tol: float = 1e-9,
                bindings: dict | None = None):
    """(is_zero, mode, worst): exact normal form when possible, else numeric
    sampling at random points in [-2, 2], drawn with seed 0.  mode is 'symbolic' or 'numeric';
    worst is the largest |e| sampled, None when decided symbolically.

    Sampling compiles e once.  A point where it raises or gives NaN is
    skipped; EvalError when fewer than `samples` of 12 * samples are valid."""
    try:
        rf = as_ratform(e)
        if rf.num.is_zero():
            return True, "symbolic", None
        opaque = any(isinstance(a, OpaqueAtom) for a in rf.num.atoms())
        if not opaque:
            return False, "symbolic", None
    except NotPolynomial:
        pass
    import random

    rng = random.Random(0)
    bound = bindings or {}
    # R is never sampled: compile_numeric ties it to (u, v, w)
    sampled = sorted(
        (s for s in free_symbols(e) if s.kind != "radical" and s not in bound),
        key=lambda s: s.order,
    )
    fn = compile_numeric(e, sampled + list(bound))
    fixed = [float(v) for v in bound.values()]
    worst = 0.0
    done = 0
    attempts = 0
    while done < samples:
        attempts += 1
        if attempts > samples * 12:
            raise EvalError("could not find enough valid sample points")
        point = [rng.uniform(-2.0, 2.0) for _ in sampled]
        try:
            val = abs(fn(*point, *fixed))
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
        acc[frozen_rest] = acc.get(frozen_rest, Fraction(0)) + c
    return {
        k: Poly({m: c for m, c in terms.items() if c})
        for k, terms in sorted(grouped.items(), key=lambda kv: _mono_sort_key(kv[0]))
    }


def monomial_expr(mono: tuple) -> Expr:
    factors = []
    for a, e in mono:
        base = a if isinstance(a, Symbol) else func(a.fn, a.arg)
        factors.append(pow_(base, e))
    return mul(*factors) if factors else ONE


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
            if df is ZERO or (isinstance(df, Num) and df.val == 0):
                continue
            rest = e.factors[:i] + e.factors[i + 1 :]
            out.append(mul(df, *rest))
        return add(*out) if out else ZERO
    if isinstance(e, Pow):
        db = differentiate(e.base, s)
        return mul(Num(Fraction(e.n)), pow_(e.base, e.n - 1), db)
    if isinstance(e, Func):
        da = differentiate(e.arg, s)
        if isinstance(da, Num) and da.val == 0:
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
    _free(e, out)
    return out


def _free(e: Expr, out: set):
    if isinstance(e, Symbol):
        out.add(e)
    elif isinstance(e, Add):
        for t in e.terms:
            _free(t, out)
    elif isinstance(e, Mul):
        for f in e.factors:
            _free(f, out)
    elif isinstance(e, Pow):
        _free(e.base, out)
    elif isinstance(e, Func):
        _free(e.arg, out)


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
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, Func):
        return (e.arg,)
    raise ExprError(f"cannot compile {type(e).__name__}")


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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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
        if self.peek()[0] == "-":
            self.next()
            return neg(self.parse_unary())
        return self.parse_power()

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
            return Num(Fraction(int(text)))
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
            sym = REGISTRY.by_name.get(text)
            if sym is None:
                raise ParseError(f"unknown identifier '{text}'", off)
            return sym
        raise ParseError(f"unexpected token {text!r}", off)


def parse(text: str) -> Expr:
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        offset = parser.toks[min(parser.pos, len(parser.toks) - 1)][2]
        raise ParseError("expression nested too deeply", offset) from None


# --- printer -----------------------------------------------------------------


def _print_frac(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _is_negative_term(e: Expr) -> bool:
    if isinstance(e, Num):
        return e.val < 0
    if isinstance(e, Mul) and isinstance(e.factors[0], Num):
        return e.factors[0].val < 0
    return False


def _strip_sign(e: Expr) -> Expr:
    if isinstance(e, Num):
        return Num(-e.val)
    if isinstance(e, Mul) and isinstance(e.factors[0], Num):
        return mul(Num(-e.factors[0].val), *e.factors[1:])
    return e


def to_string(e: Expr) -> str:
    if isinstance(e, Add):
        parts = []
        for i, t in enumerate(e.terms):
            if i == 0:
                parts.append(to_string(t))
            elif _is_negative_term(t):
                rest = _strip_sign(t)
                text = to_string(rest)
                parts.append(f" - ({text})" if isinstance(rest, Add) else " - " + text)
            else:
                parts.append(" + " + to_string(t))
        return "".join(parts)
    if isinstance(e, Mul):
        return _print_product(Fraction(1), list(e.factors))
    if isinstance(e, Pow):
        return _print_product(Fraction(1), [e])
    if isinstance(e, Num):
        if e.val < 0:
            return "-" + _print_frac(-e.val)
        return _print_frac(e.val)
    if isinstance(e, Symbol):
        return e.name
    if isinstance(e, Func):
        return f"{e.fn}({to_string(e.arg)})"
    raise ExprError(f"cannot print {type(e).__name__}")


def _print_product(coeff: Fraction, factors: list) -> str:
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
    if isinstance(f, (Add,)):
        return f"({to_string(f)})"
    if isinstance(f, Mul):
        return f"({to_string(f)})"
    return to_string(f)
