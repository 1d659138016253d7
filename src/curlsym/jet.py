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
(symbol s, coefficient c) pairs; `derivation` applies each of them.
"""

from __future__ import annotations

from collections import namedtuple

from .expr import (
    BASE_SYMBOLS,
    Expr,
    ExprError,
    FORMAL_COEFFS,
    REGISTRY,
    Symbol,
    _as_expr,
    add,
    as_ratform,
    differentiate,
    free_symbols,
    mul,
    neg,
    normal_expression,
)


AXES = ("x", "y", "z")
DEPS = ("u", "v", "w")


def jet_symbol(dep: str, ax: str) -> Symbol:
    return REGISTRY.by_name[f"{dep}_{ax}"]


def _no_jets(e: Expr, what: str):
    for s in free_symbols(e):
        if s.kind == "jet":
            raise ExprError(f"{what} may not depend on jet symbol '{s.name}'")


def derivation(field, e: Expr) -> Expr:
    """sum c de/ds over the (symbol s, coefficient c) pairs of `field`."""
    return add(*(mul(c, differentiate(e, s)) for s, c in field))


class GeneratorField(namedtuple("GeneratorField", FORMAL_COEFFS)):
    """Coefficients of a point generator, in the fixed slot order
    (d/dx, d/dy, d/dz, d/du, d/dv, d/dw), each an expression free of jets."""

    __slots__ = ()

    def __new__(cls, *coeffs):
        coeffs = [_as_expr(c) for c in coeffs]
        for name, val in zip(FORMAL_COEFFS, coeffs):
            _no_jets(val, f"generator coefficient {name}")
        return super().__new__(cls, *coeffs)

    def as_tuple(self) -> tuple:
        return tuple(self)

    def field(self) -> tuple:
        """X as (symbol, coefficient) pairs over x, y, z, u, v, w."""
        return tuple(zip(BASE_SYMBOLS, self.as_tuple()))


def total_derivative(e: Expr, axis: Symbol) -> Expr:
    """D_axis on a function of base coordinates and components: the
    derivation d/d(axis) + u_axis d/du + v_axis d/dv + w_axis d/dw."""
    field = ((axis, 1),) + tuple(
        (REGISTRY.by_name[dep], jet_symbol(dep, axis.name)) for dep in DEPS)
    return derivation(field, e)


def first_prolongation(gen: GeneratorField) -> tuple:
    """pr X as (symbol, coefficient) pairs: X's six, then the nine first
    jets u_x, u_y, ..., w_z."""
    base = (gen.zeta, gen.eta, gen.theta)
    comps = {"u": gen.phi, "v": gen.lam, "w": gen.psi}
    # axis -> (D_axis zeta, D_axis eta, D_axis theta)
    d_base = {
        ax: [total_derivative(c, REGISTRY.by_name[ax]) for c in base]
        for ax in AXES
    }
    jets = []
    for dep in DEPS:
        for ax in AXES:
            axis = REGISTRY.by_name[ax]
            terms = [total_derivative(comps[dep], axis)]
            for ax2, d in zip(AXES, d_base[ax]):
                terms.append(neg(mul(jet_symbol(dep, ax2), d)))
            jets.append((jet_symbol(dep, ax), normal_expression(add(*terms))))
    return gen.field() + tuple(jets)


def generator_from_strings(parts) -> GeneratorField:
    """Six expression strings in slot order.

    Each coefficient must have a rational normal form: a division by zero
    raises ExprError and a square root with no exact form NotPolynomial.
    This is checked here because the prolongation normalizes only the
    coefficients' derivatives, which for 1/(x - x) all vanish."""
    from .expr import parse

    vals = [parse(p) if isinstance(p, str) else _as_expr(p) for p in parts]
    if len(vals) != 6:
        raise ExprError("a generator needs exactly six coefficients")
    for v in vals:
        as_ratform(v)
    return GeneratorField(*vals)
