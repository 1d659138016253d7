"""Point generators on (x, y, z; u, v, w) and their first prolongation.

A point generator is

    X = zeta d/dx + eta d/dy + theta d/dz + phi d/du + lam d/dv + psi d/dw

with coefficients depending on base coordinates and components only (never
on jets).  The first prolongation extends X to the nine first jets.  Two
independent constructions are implemented and cross-checked:

* `dform` (the default route): the characteristic formula for first order,

      phi^u_i = D_i phi - u_x D_i zeta - u_y D_i eta - u_z D_i theta,

  and likewise for v and w (Olver, Applications of Lie Groups to
  Differential Equations, Sec. 2.3, Thm. 2.36).  It is D_i(Q) + zeta u_xi
  + eta u_yi + theta u_zi for the characteristic Q = phi - zeta u_x -
  eta u_y - theta u_z with the second-order jets cancelled by hand, so
  only total derivatives of point functions are taken;
* `explicit`: the nine expanded coefficient formulas, quadratic in jets,
  kept as the reference the tests compare `dform` against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import (
    Expr,
    ExprError,
    REGISTRY,
    S,
    Symbol,
    _as_expr,
    add,
    as_ratform,
    differentiate,
    free_symbols,
    is_zero_expr,
    mul,
    neg,
    normal_expression,
)


class OrderOverflow(ExprError):
    """Total derivative would need jets beyond first order."""


AXES = ("x", "y", "z")
DEPS = ("u", "v", "w")


def jet_symbol(dep: str, ax: str) -> Symbol:
    return REGISTRY.by_name[f"{dep}_{ax}"]


def _no_jets(e: Expr, what: str):
    for s in free_symbols(e):
        if s.kind == "jet":
            raise ExprError(f"{what} may not depend on jet symbol '{s.name}'")


@dataclass(frozen=True)
class GeneratorField:
    """Coefficients of a point generator, in the fixed slot order
    (d/dx, d/dy, d/dz, d/du, d/dv, d/dw)."""

    zeta: Expr
    eta: Expr
    theta: Expr
    phi: Expr
    lam: Expr
    psi: Expr

    def __post_init__(self):
        for name in ("zeta", "eta", "theta", "phi", "lam", "psi"):
            val = _as_expr(getattr(self, name))
            _no_jets(val, f"generator coefficient {name}")
            object.__setattr__(self, name, val)

    def as_tuple(self) -> tuple:
        return (self.zeta, self.eta, self.theta, self.phi, self.lam, self.psi)

    def apply(self, e: Expr) -> Expr:
        """X acting as a derivation on a point function."""
        out = []
        for c, s in zip(self.as_tuple(), (S.x, S.y, S.z, S.u, S.v, S.w)):
            out.append(mul(c, differentiate(e, s)))
        return add(*out)

    def __add__(self, other: "GeneratorField") -> "GeneratorField":
        return GeneratorField(
            *[add(a, b) for a, b in zip(self.as_tuple(), other.as_tuple())]
        )

    def scale(self, c) -> "GeneratorField":
        c = _as_expr(c)
        return GeneratorField(*[mul(c, t) for t in self.as_tuple()])

    def __sub__(self, other: "GeneratorField") -> "GeneratorField":
        return self + other.scale(-1)

    def is_zero(self) -> bool:
        return all(is_zero_expr(c) for c in self.as_tuple())

    def equals(self, other: "GeneratorField") -> bool:
        return (self - other).is_zero()


def total_derivative(e: Expr, axis: Symbol) -> Expr:
    """D_axis on a function of base coordinates and components.

    First jets in `e` would require second-order jets, which the symbol
    universe does not carry: OrderOverflow."""
    for s in free_symbols(e):
        if s.kind == "jet":
            raise OrderOverflow(
                f"total derivative of '{s.name}' needs second-order jets"
            )
    out = [differentiate(e, axis)]
    for dep in DEPS:
        d = differentiate(e, REGISTRY.by_name[dep])
        out.append(mul(jet_symbol(dep, axis.name), d))
    return add(*out)


@dataclass(frozen=True)
class ProlongedGenerator:
    base: GeneratorField
    jet_coefficients: dict  # jet Symbol -> Expr

    def apply(self, e: Expr) -> Expr:
        out = [self.base.apply(e)]
        for j, c in self.jet_coefficients.items():
            d = differentiate(e, j)
            out.append(mul(c, d))
        return add(*out)


def first_prolongation(gen: GeneratorField, route: str = "dform") -> ProlongedGenerator:
    if route == "dform":
        coefs = _prolong_dform(gen)
    elif route == "explicit":
        coefs = _prolong_explicit(gen)
    else:
        raise ValueError(f"unknown prolongation route '{route}'")
    return ProlongedGenerator(base=gen, jet_coefficients=coefs)


def _prolong_dform(gen: GeneratorField) -> dict:
    base = (gen.zeta, gen.eta, gen.theta)
    comps = {"u": gen.phi, "v": gen.lam, "w": gen.psi}
    # axis -> (D_axis zeta, D_axis eta, D_axis theta)
    d_base = {
        ax: [total_derivative(c, REGISTRY.by_name[ax]) for c in base]
        for ax in AXES
    }
    coefs = {}
    for dep in DEPS:
        for ax in AXES:
            axis = REGISTRY.by_name[ax]
            terms = [total_derivative(comps[dep], axis)]
            for ax2, d in zip(AXES, d_base[ax]):
                terms.append(neg(mul(jet_symbol(dep, ax2), d)))
            coefs[jet_symbol(dep, ax)] = normal_expression(add(*terms))
    return coefs


def _prolong_explicit(gen: GeneratorField) -> dict:
    d = differentiate
    Z, H, T = gen.zeta, gen.eta, gen.theta
    P, L, Q = gen.phi, gen.lam, gen.psi
    x, y, z, u, v, w = S.x, S.y, S.z, S.u, S.v, S.w
    u_x, u_y, u_z = S.u_x, S.u_y, S.u_z
    v_x, v_y, v_z = S.v_x, S.v_y, S.v_z
    w_x, w_y, w_z = S.w_x, S.w_y, S.w_z

    coefs = {}
    coefs[u_x] = (
        d(P, x) + u_x * (d(P, u) - d(Z, x)) - u_y * d(H, x) - u_z * d(T, x)
        + d(P, v) * v_x + d(P, w) * w_x
        - u_x ** 2 * d(Z, u) - u_x * u_y * d(H, u) - u_x * u_z * d(T, u)
        - u_x * v_x * d(Z, v) - u_y * v_x * d(H, v) - u_z * v_x * d(T, v)
        - u_x * w_x * d(Z, w) - u_y * w_x * d(H, w) - u_z * w_x * d(T, w)
    )
    coefs[u_y] = (
        d(P, y) + u_y * (d(P, u) - d(H, y)) - u_x * d(Z, y) - u_z * d(T, y)
        + d(P, v) * v_y + d(P, w) * w_y
        - u_y ** 2 * d(H, u) - u_x * u_y * d(Z, u) - u_y * u_z * d(T, u)
        - u_y * v_y * d(H, v) - u_x * v_y * d(Z, v) - u_z * v_y * d(T, v)
        - u_y * w_y * d(H, w) - u_x * w_y * d(Z, w) - u_z * w_y * d(T, w)
    )
    coefs[u_z] = (
        d(P, z) + u_z * (d(P, u) - d(T, z)) - u_x * d(Z, z) - u_y * d(H, z)
        + d(P, v) * v_z + d(P, w) * w_z
        - u_z ** 2 * d(T, u) - u_x * u_z * d(Z, u) - u_y * u_z * d(H, u)
        - u_z * v_z * d(T, v) - u_x * v_z * d(Z, v) - u_y * v_z * d(H, v)
        - u_z * w_z * d(T, w) - u_x * w_z * d(Z, w) - u_y * w_z * d(H, w)
    )
    coefs[v_x] = (
        d(L, x) + v_x * (d(L, v) - d(Z, x)) - v_y * d(H, x) - v_z * d(T, x)
        + d(L, u) * u_x + d(L, w) * w_x
        - v_x ** 2 * d(Z, v) - v_x * v_y * d(H, v) - v_x * v_z * d(T, v)
        - u_x * v_x * d(Z, u) - u_x * v_y * d(H, u) - u_x * v_z * d(T, u)
        - v_x * w_x * d(Z, w) - v_y * w_x * d(H, w) - v_z * w_x * d(T, w)
    )
    coefs[v_y] = (
        d(L, y) + v_y * (d(L, v) - d(H, y)) - v_x * d(Z, y) - v_z * d(T, y)
        + d(L, u) * u_y + d(L, w) * w_y
        - v_y ** 2 * d(H, v) - v_x * v_y * d(Z, v) - v_y * v_z * d(T, v)
        - u_y * v_y * d(H, u) - u_y * v_x * d(Z, u) - u_y * v_z * d(T, u)
        - v_y * w_y * d(H, w) - v_x * w_y * d(Z, w) - v_z * w_y * d(T, w)
    )
    coefs[v_z] = (
        d(L, z) + v_z * (d(L, v) - d(T, z)) - v_x * d(Z, z) - v_y * d(H, z)
        + d(L, u) * u_z + d(L, w) * w_z
        - v_z ** 2 * d(T, v) - v_x * v_z * d(Z, v) - v_y * v_z * d(H, v)
        - u_z * v_z * d(T, u) - u_z * v_x * d(Z, u) - u_z * v_y * d(H, u)
        - v_z * w_z * d(T, w) - v_x * w_z * d(Z, w) - v_y * w_z * d(H, w)
    )
    coefs[w_x] = (
        d(Q, x) + w_x * (d(Q, w) - d(Z, x)) - w_y * d(H, x) - w_z * d(T, x)
        + d(Q, u) * u_x + d(Q, v) * v_x
        - w_x ** 2 * d(Z, w) - w_x * w_y * d(H, w) - w_x * w_z * d(T, w)
        - u_x * w_x * d(Z, u) - u_x * w_y * d(H, u) - u_x * w_z * d(T, u)
        - v_x * w_x * d(Z, v) - v_x * w_y * d(H, v) - v_x * w_z * d(T, v)
    )
    coefs[w_y] = (
        d(Q, y) + w_y * (d(Q, w) - d(H, y)) - w_x * d(Z, y) - w_z * d(T, y)
        + d(Q, u) * u_y + d(Q, v) * v_y
        - w_y ** 2 * d(H, w) - w_x * w_y * d(Z, w) - w_y * w_z * d(T, w)
        - u_y * w_y * d(H, u) - u_y * w_x * d(Z, u) - u_y * w_z * d(T, u)
        - v_y * w_y * d(H, v) - v_y * w_x * d(Z, v) - v_y * w_z * d(T, v)
    )
    coefs[w_z] = (
        d(Q, z) + w_z * (d(Q, w) - d(T, z)) - w_x * d(Z, z) - w_y * d(H, z)
        + d(Q, u) * u_z + d(Q, v) * v_z
        - w_z ** 2 * d(T, w) - w_x * w_z * d(Z, w) - w_y * w_z * d(H, w)
        - u_z * w_z * d(T, u) - u_z * w_x * d(Z, u) - u_z * w_y * d(H, u)
        - v_z * w_z * d(T, v) - v_z * w_x * d(Z, v) - v_z * w_y * d(H, v)
    )
    return coefs


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
