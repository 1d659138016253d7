"""Point generators on (x, y, z; u, v, w) and their first prolongation.

A point generator is

    X = zeta d/dx + eta d/dy + theta d/dz + phi d/du + lam d/dv + psi d/dw

with coefficients depending on base coordinates and components only (never
on jets).  The first prolongation extends X to the nine first jets by the
characteristic formula for first order,

    phi^u_i = D_i phi - u_x D_i zeta - u_y D_i eta - u_z D_i theta,

and likewise for v and w (Olver, Applications of Lie Groups to
Differential Equations, Sec. 2.3, Thm. 2.36).  It is D_i(Q) + zeta u_xi +
eta u_yi + theta u_zi for the characteristic Q = phi - zeta u_x - eta u_y -
theta u_z with the second-order jets cancelled by hand, so only total
derivatives of point functions are taken.  The tests compare it with the
nine expanded coefficient formulas, quadratic in jets.

X, pr X and the total derivatives D_i are derivations sum c d/ds, given as
(symbol s, coefficient c) pairs with c a rational normal form (`RatForm`);
`derivation` applies one to a normal form and gives a normal form.  It
takes each atom's derivative d a/ds from `differentiate`, an interned
node, which keeps its normal form once taken.  On a monomial a derivation
is the sum over its atoms a^e of e a^(e-1) X(a), so it multiplies
normal-form terms and builds no tree but the atoms' derivatives.  The
brackets of `liealg` and the invariance conditions of `symmetry` go
through it too.
"""

from __future__ import annotations

from collections import namedtuple

from .expr import (
    BASE_SYMBOLS,
    Expr,
    ExprError,
    FORMAL_COEFFS,
    REGISTRY,
    RatForm,
    Symbol,
    _ONE_RF,
    _as_expr,
    _rat_mul,
    as_ratform,
    differentiate,
    free_symbols,
    parse,
    poly_atom,
    poly_const,
    rat_combination,
    ratform,
)


AXES = ("x", "y", "z")
DEPS = ("u", "v", "w")


def jet_symbol(dep: str, ax: str) -> Symbol:
    return REGISTRY.by_name[f"{dep}_{ax}"]


def _no_jets(e: Expr, what: str):
    for s in free_symbols(e):
        if s.kind == "jet":
            raise ExprError(f"{what} may not depend on jet symbol '{s.name}'")


def derivation(field, rf: RatForm) -> RatForm:
    """X rf for X = sum c d/ds over the (symbol s, RatForm c) pairs of
    `field`: X(num)/den - num X(den)/den^2, X(p) summed term by term from
    the images X(a) of p's atoms, each taken once per call."""
    images: dict = {}

    def image(atom) -> RatForm:
        xa = images.get(atom)
        if xa is None:
            xa = images[atom] = rat_combination(
                (1, (), _rat_mul(c, d)) for s, c in field
                if not (d := as_ratform(differentiate(atom, s))).num.is_zero())
        return xa

    def of(p):
        # the term c*m gives c*e*(m/a)*X(a) for each atom a^e of m
        return rat_combination(
            (c * e, m[:i] + ((a, e - 1),) * (e > 1) + m[i + 1:], image(a))
            for m, c in p.terms.items() for i, (a, e) in enumerate(m))

    num = of(rf.num)
    if rf.is_polynomial():
        return num
    den = of(rf.den)
    return rat_combination(((1, (), ratform(num.num, num.den * rf.den)),
                            (-1, (), ratform(rf.num * den.num,
                                             den.den * rf.den * rf.den))))


class GeneratorField(namedtuple("GeneratorField", FORMAL_COEFFS)):
    """Coefficients of a point generator, in the fixed slot order
    (d/dx, d/dy, d/dz, d/du, d/dv, d/dw), each an expression free of jets."""

    __slots__ = ()

    def __new__(cls, *coeffs):
        coeffs = [_as_expr(c) for c in coeffs]
        for name, val in zip(FORMAL_COEFFS, coeffs):
            _no_jets(val, f"generator coefficient {name}")
        return super().__new__(cls, *coeffs)

    def field(self) -> tuple:
        """X as (symbol, coefficient normal form) pairs over x, y, z, u, v, w."""
        return tuple(zip(BASE_SYMBOLS, map(as_ratform, self)))


def total_derivative(rf: RatForm, axis: Symbol) -> RatForm:
    """D_axis on a function of base coordinates and components: the
    derivation d/d(axis) + u_axis d/du + v_axis d/dv + w_axis d/dw."""
    jets = (RatForm(poly_atom(jet_symbol(dep, axis.name)), poly_const(1))
            for dep in DEPS)
    field = ((axis, _ONE_RF),) + tuple(zip(BASE_SYMBOLS[3:], jets))
    return derivation(field, rf)


def first_prolongation(gen: GeneratorField) -> tuple:
    """pr X as (symbol, RatForm coefficient) pairs: X's six, then the nine
    first jets u_x, u_y, ..., w_z."""
    field = gen.field()
    base, comps = [c for _, c in field[:3]], [c for _, c in field[3:]]
    # axis -> (D_axis zeta, D_axis eta, D_axis theta)
    d_base = {
        ax: [total_derivative(c, REGISTRY.by_name[ax]) for c in base]
        for ax in AXES
    }
    jets = []
    for dep, comp in zip(DEPS, comps):
        for ax in AXES:
            terms = [(1, (), total_derivative(comp, REGISTRY.by_name[ax]))]
            for ax2, d in zip(AXES, d_base[ax]):
                terms.append((-1, ((jet_symbol(dep, ax2), 1),), d))
            jets.append((jet_symbol(dep, ax), rat_combination(terms)))
    return field + tuple(jets)


def generator_from_strings(parts) -> GeneratorField:
    """Six expression strings in slot order.

    Each coefficient must have a rational normal form: a division by zero
    raises ExprError and a square root with no exact form NotPolynomial.
    This is checked here, as the coefficients are read, so that a bad
    coefficient is reported before any other check on the generator."""
    vals = [parse(p) if isinstance(p, str) else _as_expr(p) for p in parts]
    if len(vals) != 6:
        raise ExprError("a generator needs exactly six coefficients")
    for v in vals:
        as_ratform(v)
    return GeneratorField(*vals)
