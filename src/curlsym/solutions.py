"""Exact field solutions, the seven one-parameter symmetry transforms,
residual verification, and the two group-invariant reductions.

A field solution is a triple of expressions in (x, y, z).  Residuals of the
curl equations use the field's own magnitude as the eigenvalue profile, so
checking a concrete field never involves the formal profile symbol.  The
transform families act by rotating a coordinate pair together with the
matching component pair (families 1-3, parametrised by a unit pair a, b),
by translating one coordinate (families 4-6) or by the simultaneous
scaling field * e^-eps at argument e^-eps x (family 7).

The invariant reductions collapse the PDE system onto a two-dimensional
profile ODE: translation invariance in (x, y) leaves profiles of z alone,
rotation invariance about the z axis leaves radial profiles.  The rotation
reduction carries the 1/r geometric term, so its integration must start at
a strictly positive radius.  Reconstruction lifts an integrated radial
table back to a vector field on the annulus covered by the table.
"""

from __future__ import annotations

import csv
import math
import numbers
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .expr import (
    Expr,
    NotPolynomial,
    Num,
    REGISTRY,
    S,
    Symbol,
    add,
    compile_numeric,
    decide_zero,
    differentiate,
    equal_exprs,
    exp,
    free_symbols,
    neg,
    normal_expression,
    parse,
    sqrt,
    substitute,
    to_string,
)
from .symmetry import blair_system, curl_system


@dataclass(frozen=True)
class FieldSolution:
    """A concrete vector field (u, v, w) on R^3.

    Components may contain parameter symbols; `bindings` carries numeric
    values for those that arose from a transform at a numeric group
    parameter, keyed by symbol, so numeric evaluation stays well-defined
    while the symbolic form keeps its exact unit-pair structure.
    """

    u: Expr
    v: Expr
    w: Expr
    bindings: tuple = ()
    label: str = ""

    def components(self) -> tuple:
        return (self.u, self.v, self.w)

    def binding_map(self) -> dict:
        return dict(self.bindings)

    def magnitude_squared(self) -> Expr:
        m2 = self.u**2 + self.v**2 + self.w**2
        try:
            return normal_expression(m2)
        except NotPolynomial:
            return m2

    def divergence(self) -> Expr:
        d = (
            differentiate(self.u, S.x)
            + differentiate(self.v, S.y)
            + differentiate(self.w, S.z)
        )
        try:
            return normal_expression(d)
        except NotPolynomial:
            return d


def _field(u: str, v: str, w: str, label: str) -> FieldSolution:
    return FieldSolution(parse(u), parse(v), parse(w), label=label)


# transverse unit field; all streamlines are horizontal lines
B1 = _field("sin(z)", "cos(z)", "0", "B1")

# rational field of magnitude 4/(1+x^2+y^2+z^2); satisfies the curl
# equations but is not divergence free
B2 = _field(
    "8*(x*z - y)/(1 + x^2 + y^2 + z^2)^2",
    "8*(x + y*z)/(1 + x^2 + y^2 + z^2)^2",
    "4*(1 + z^2 - x^2 - y^2)/(1 + x^2 + y^2 + z^2)^2",
    "B2",
)

ZERO_FIELD = _field("0", "0", "0", "zero")

BUILTIN_SOLUTIONS = {"B1": B1, "B2": B2, "zero": ZERO_FIELD}

_SYSTEM_ALIASES = {
    "curl": "curl",
    "curl-f": "curl",
    "curl-absB": "curl",
    "blair": "blair",
}


def _system_kind(system: str) -> str:
    kind = _SYSTEM_ALIASES.get(system)
    if kind is None:
        raise ValueError(
            f"unknown system '{system}'; expected one of "
            f"{sorted(set(_SYSTEM_ALIASES))}"
        )
    return kind


def _jet_substitution(sol: FieldSolution) -> dict:
    subs = {}
    for name, comp in zip("uvw", sol.components()):
        subs[REGISTRY.by_name[name]] = comp
        for ax in "xyz":
            subs[REGISTRY.by_name[f"{name}_{ax}"]] = differentiate(
                comp, REGISTRY.by_name[ax]
            )
    return subs


def residual_expressions(sol: FieldSolution, system: str = "blair") -> list:
    """Substitute the field into each equation of the chosen system.

    The eigenvalue profile is the field magnitude sqrt(u^2+v^2+w^2),
    written as an explicit square root so substitution reaches inside it.
    """
    kind = _system_kind(system)
    magnitude = sqrt(S.u**2 + S.v**2 + S.w**2)
    base = curl_system(magnitude) if kind == "curl" else blair_system(magnitude)
    subs = _jet_substitution(sol)
    return [substitute(r, subs) for r in base.residuals]


@dataclass(frozen=True)
class ResidualCheck:
    system: str
    ok: bool
    modes: tuple
    displays: tuple

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return f"{verdict} [{self.system}] residuals: " + " ".join(self.displays)


def verify_solution_residuals(
    sol: FieldSolution,
    system: str = "blair",
    samples: int = 50,
    tol: float = 1e-10,
    seed: int = 0,
) -> ResidualCheck:
    """Zero-test each residual, symbolically when normalization succeeds,
    otherwise by sampling `samples` points at tolerance `tol`."""
    kind = _system_kind(system)
    bindings = sol.binding_map()
    modes = []
    displays = []
    all_ok = True
    for e in residual_expressions(sol, kind):
        ok, mode, worst = decide_zero(
            e, samples=samples, tol=tol, seed=seed, bindings=bindings or None
        )
        modes.append(mode)
        if mode == "symbolic":
            if ok:
                displays.append("0")
            else:
                text = to_string(normal_expression(e))
                displays.append(text if len(text) <= 60 else text[:57] + "...")
        else:
            displays.append(f"{worst:.3e}" if not ok else f"<{tol:g}")
        all_ok = all_ok and ok
    return ResidualCheck(kind, all_ok, tuple(modes), tuple(displays))


# --- one-parameter transform families ------------------------------------

_ROTATION_PLANES = {1: ("x", "y"), 2: ("y", "z"), 3: ("x", "z")}
_TRANSLATION_AXES = {4: "x", 5: "y", 6: "z"}


def _is_exact_zero(eps) -> bool:
    if isinstance(eps, Num):
        return eps.val == 0
    if isinstance(eps, numbers.Real):
        return float(eps) == 0.0
    return False


def _unit_pair_for(sol: FieldSolution):
    used = set()
    for c in sol.components():
        used |= free_symbols(c)
    used |= {s for s, _ in sol.bindings}
    if S.a not in used and S.b not in used:
        return S.a, S.b
    return REGISTRY.fresh_unit_pair()


def _normalized(e: Expr) -> Expr:
    try:
        return normal_expression(e)
    except NotPolynomial:
        return e


def transform(sol: FieldSolution, family: int, eps) -> FieldSolution:
    """Apply one of the seven one-parameter families at group parameter eps.

    eps may be an expression (fully symbolic transform) or a number.  For
    the rotation families a numeric eps binds a fresh unit pair to
    (cos eps, sin eps); eps = 0 short-circuits to the exact identity.
    """
    if family not in range(1, 8):
        raise ValueError(f"family index must be 1..7, got {family}")
    comps = sol.components()
    new_bindings = list(sol.bindings)
    suffix = f"{sol.label or 'field'}~{family}"

    if family in _ROTATION_PLANES:
        ax1, ax2 = (REGISTRY.by_name[n] for n in _ROTATION_PLANES[family])
        i1 = ("x", "y", "z").index(ax1.name)
        i2 = ("x", "y", "z").index(ax2.name)
        num_val = None
        if isinstance(eps, Num):
            num_val = float(eps.val)
        elif isinstance(eps, numbers.Real) and not isinstance(eps, Expr):
            num_val = float(eps)
        if _is_exact_zero(eps):
            ca, sb = Num(Fraction(1)), Num(Fraction(0))
        elif num_val is not None:
            ca, sb = _unit_pair_for(sol)
            new_bindings += [(ca, math.cos(num_val)), (sb, math.sin(num_val))]
        else:
            ca, sb = _unit_pair_for(sol)
        sigma = {ax1: ca * ax1 + sb * ax2, ax2: -sb * ax1 + ca * ax2}
        rotated = [substitute(c, sigma) for c in comps]
        out = list(rotated)
        out[i1] = ca * rotated[i1] - sb * rotated[i2]
        out[i2] = sb * rotated[i1] + ca * rotated[i2]
    elif family in _TRANSLATION_AXES:
        axis = REGISTRY.by_name[_TRANSLATION_AXES[family]]
        if _is_exact_zero(eps):
            shift = Num(Fraction(0))
        elif isinstance(eps, numbers.Real) and not isinstance(eps, Expr):
            shift = REGISTRY.fresh_parameter()
            new_bindings.append((shift, float(eps)))
        else:
            shift = eps
        out = [substitute(c, {axis: axis - shift}) for c in comps]
    else:
        if _is_exact_zero(eps):
            k = Num(Fraction(1))
        else:
            if isinstance(eps, numbers.Real) and not isinstance(eps, Expr):
                par = REGISTRY.fresh_parameter()
                new_bindings.append((par, float(eps)))
            else:
                par = eps
            k = exp(neg(par))
        sigma = {S.x: k * S.x, S.y: k * S.y, S.z: k * S.z}
        out = [k * substitute(c, sigma) for c in comps]

    out = [_normalized(c) for c in out]
    return FieldSolution(out[0], out[1], out[2], tuple(new_bindings), suffix)


def solutions_equal(a: FieldSolution, b: FieldSolution) -> bool:
    """Componentwise normalized identity (parameters left symbolic)."""
    return all(equal_exprs(ca, cb) for ca, cb in zip(a.components(), b.components()))


def solutions_close(
    a: FieldSolution,
    b: FieldSolution,
    samples: int = 40,
    tol: float = 1e-9,
    seed: int = 0,
) -> bool:
    """Numeric comparison on random points, each field evaluated under its
    own bindings (transform chains bind distinct unit pairs)."""
    fa = numeric_field_from_solution(a)
    fb = numeric_field_from_solution(b)
    rng = random.Random(seed)
    for _ in range(samples):
        p = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        va, vb = fa(*p), fb(*p)
        if max(abs(x - y) for x, y in zip(va, vb)) > tol:
            return False
    return True


# --- invariant reductions -------------------------------------------------


@dataclass(frozen=True)
class ReducedOde:
    """A two-state profile ODE produced by an invariant ansatz."""

    kind: str
    independent: Symbol
    state: tuple
    rhs: tuple
    constraint: str
    ansatz: str

    def state_names(self) -> tuple:
        return tuple(s.name for s in self.state)


def reduce_system(kind: str) -> ReducedOde:
    """Reduce the divergence-free curl system under a two-parameter
    invariance group.

    translation: profiles of z alone.  The third component is forced to
    vanish and the in-plane profile rotates at unit magnitude rate.
    rotation: axisymmetric fields with zero radial moment x u + y v; the
    states are the tangential profile beta = (x v - y u)/r and the axial
    profile gamma, both functions of r = sqrt(x^2 + y^2).
    """
    if kind == "translation":
        speed = parse("sqrt(g^2 + h^2)")
        return ReducedOde(
            kind="translation",
            independent=S.z,
            state=(S.g, S.h),
            rhs=(S.h * speed, -(S.g * speed)),
            constraint="third component vanishes identically",
            ansatz="u = g(z), v = h(z), w = 0",
        )
    if kind == "rotation":
        speed = parse("sqrt(beta^2 + gamma^2)")
        return ReducedOde(
            kind="rotation",
            independent=S.r,
            state=(S.beta, S.gamma),
            rhs=(S.gamma * speed - S.beta / S.r, -(S.beta * speed)),
            constraint="radial moment x*u + y*v vanishes identically",
            ansatz="u = -(y/r)*beta(r), v = (x/r)*beta(r), w = gamma(r)",
        )
    raise ValueError(f"unknown reduction kind '{kind}'")


def exact_translation_profile() -> dict:
    return {S.g: parse("sin(z)"), S.h: parse("cos(z)")}


def ode_residuals(ode: ReducedOde, profile: dict) -> list:
    """profile maps each state symbol to an expression in the independent
    variable; returns d(state)/d(indep) - rhs, normalized."""
    out = []
    for s, rhs in zip(ode.state, ode.rhs):
        lhs = differentiate(profile[s], ode.independent)
        out.append(_normalized(lhs - substitute(rhs, profile)))
    return out


@dataclass(frozen=True)
class SolutionTable:
    kind: str
    indep_name: str
    state_names: tuple
    points: object  # numpy arrays: node values, states and RHS slopes
    states: object
    slopes: object
    blown_up: bool

    def final_state(self) -> tuple:
        return tuple(float(c) for c in self.states[-1])


_BLOWUP_NORM = 1e6
_MAX_STEPS = 1_000_000


def integrate_ode(
    ode: ReducedOde,
    initial,
    span,
    step: float = 1e-3,
) -> SolutionTable:
    """Classical fixed-step RK4 over span = (t0, t1).

    Stores the RHS slope at every node for reconstruction.  A state norm
    above 1e6, a NaN state, or an arithmetic error (overflow) in a step
    truncates the table and raises the blow-up flag.  Raises ValueError for
    a non-finite initial state, span or step, for more than 1,000,000
    steps, and for an arithmetic error at the initial state.
    """
    import numpy as np

    t0, t1 = float(span[0]), float(span[1])
    y0 = tuple(float(c) for c in initial)
    for name, values in (("initial state", y0), ("span", (t0, t1)), ("step", (step,))):
        if not all(math.isfinite(c) for c in values):
            raise ValueError(f"{name} must be finite")
    if step <= 0:
        raise ValueError("step must be positive")
    if t1 <= t0:
        raise ValueError("empty integration span")
    if ode.kind == "rotation" and t0 <= 0:
        raise ValueError("rotation profile is singular at r = 0; start at r > 0")
    # counted before anything is allocated; the ratio may be inf
    if (t1 - t0) / step > _MAX_STEPS:
        raise ValueError(f"span / step needs more than {_MAX_STEPS} RK4 steps")

    args = list(ode.state) + [ode.independent]
    fns = [compile_numeric(e, args) for e in ode.rhs]

    def rhs(t, s):
        return tuple(fn(*s, t) for fn in fns)

    try:
        slope = rhs(t0, y0)
    except ArithmeticError as e:
        raise ValueError(
            f"right-hand side fails at the initial state ({type(e).__name__})"
        ) from None
    ts = [t0]
    ys = [y0]
    ss = [slope]
    blown = False

    # full steps, then one short step onto t1 unless the last lands on it
    n_full = int(math.floor((t1 - t0) / step + 1e-12))
    n_steps = n_full + (not n_full or t0 + n_full * step < t1 - 1e-12)

    t, y = t0, y0
    for i in range(n_steps):
        tn = t0 + (i + 1) * step if i < n_full else t1
        h = tn - t
        try:
            k1 = ss[-1]  # the slope stored for (t, y)
            k2 = rhs(t + h / 2, tuple(yi + h / 2 * ki for yi, ki in zip(y, k1)))
            k3 = rhs(t + h / 2, tuple(yi + h / 2 * ki for yi, ki in zip(y, k2)))
            k4 = rhs(t + h, tuple(yi + h * ki for yi, ki in zip(y, k3)))
            y = tuple(
                yi + h / 6 * (a + 2 * b + 2 * c + d)
                for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
            )
            slope = rhs(tn, y)
        except ArithmeticError:
            blown = True
            break
        t = tn
        ts.append(t)
        ys.append(y)
        ss.append(slope)
        # written so that a NaN component also counts as blown up
        if not all(abs(c) <= _BLOWUP_NORM for c in y):
            blown = True
            break

    return SolutionTable(
        kind=ode.kind,
        indep_name=ode.independent.name,
        state_names=ode.state_names(),
        points=np.asarray(ts),
        states=np.asarray(ys),
        slopes=np.asarray(ss),
        blown_up=blown,
    )


def translation_convergence_ratio(step: float = 2e-3, z_end: float = 1.0) -> float:
    """Global-error ratio between steps h and h/2 against the exact
    profile (sin z, cos z); a 4th-order scheme gives about 16."""
    ode = reduce_system("translation")

    def err(h):
        table = integrate_ode(ode, (0.0, 1.0), (0.0, z_end), h)
        g, hh = table.final_state()
        return max(abs(g - math.sin(z_end)), abs(hh - math.cos(z_end)))

    return err(step) / err(step / 2)


# --- reconstruction and numeric verification -------------------------------


@dataclass(frozen=True)
class NumericField:
    """Float evaluator (x, y, z) -> (u, v, w) with provenance."""

    evaluator: object
    provenance: str
    r_range: tuple | None = None
    table: SolutionTable | None = None

    def __call__(self, x: float, y: float, z: float) -> tuple:
        return self.evaluator(x, y, z)


def numeric_field_from_solution(sol: FieldSolution) -> NumericField:
    """Float evaluator of the exact field; compile_numeric raises EvalError
    for a free symbol other than x, y, z and the bound parameters."""
    bindings = sol.binding_map()
    params = sorted(bindings, key=lambda s: s.order)
    args = [S.x, S.y, S.z] + params
    fns = [compile_numeric(c, args) for c in sol.components()]
    vals = [bindings[p] for p in params]

    def evaluator(x, y, z):
        return tuple(fn(x, y, z, *vals) for fn in fns)

    return NumericField(evaluator, f"exact formula ({sol.label or 'field'})")


def _quintic_hermite(ts, ys, d1, d2):
    """Piecewise quintic Hermite interpolant through the nodes ts with
    values ys, first derivatives d1 and second derivatives d2."""

    def value(t):
        i = min(max(bisect_right(ts, t) - 1, 0), len(ts) - 2)
        h = ts[i + 1] - ts[i]
        s = (t - ts[i]) / h
        s3 = s * s * s
        h0 = 1 - s3 * (10 - 15 * s + 6 * s * s)
        h1 = s - s3 * (6 - 8 * s + 3 * s * s)
        h2 = s * s * (1 - 3 * s + 3 * s * s - s3) / 2
        h4 = -s3 * (4 - 7 * s + 3 * s * s)
        h5 = s3 * (1 - 2 * s + s * s) / 2
        return (ys[i] * h0 + ys[i + 1] * (1 - h0)
                + h * (d1[i] * h1 + d1[i + 1] * h4)
                + h * h * (d2[i] * h2 + d2[i + 1] * h5))

    return value


def reconstruct_field(table: SolutionTable) -> NumericField:
    """Lift a rotation-reduction table to the field
    u = -(y/r) beta(r), v = (x/r) beta(r), w = gamma(r).

    beta and gamma are quintic Hermite interpolants of the nodes; the
    second derivatives come from the ODE itself, y'' = dF/dr + (dF/dy) F,
    so the interpolant's derivative keeps the order of RK4 at the nodes."""
    if table.kind != "rotation":
        raise ValueError("reconstruction applies to rotation-reduction tables")
    ode = reduce_system("rotation")
    args = list(ode.state) + [ode.independent]
    second = [
        compile_numeric(
            add(differentiate(f, ode.independent),
                *(differentiate(f, s) * g for s, g in zip(ode.state, ode.rhs))),
            args,
        )
        for f in ode.rhs
    ]
    ts = [float(t) for t in table.points]
    states = [tuple(float(c) for c in row) for row in table.states]
    slopes = [tuple(float(c) for c in row) for row in table.slopes]
    curvatures = [tuple(fn(*y, t) for fn in second) for t, y in zip(ts, states)]
    beta, gamma = (
        _quintic_hermite(ts, [y[k] for y in states], [d[k] for d in slopes],
                         [c[k] for c in curvatures])
        for k in range(2)
    )
    r_lo, r_hi = ts[0], ts[-1]

    def evaluator(x, y, z):
        r = math.hypot(x, y)
        if not r_lo <= r <= r_hi:
            raise ValueError(
                f"radius {r:.6g} outside reconstruction range [{r_lo:.6g}, {r_hi:.6g}]"
            )
        b = beta(r)
        return (-y / r * b, x / r * b, gamma(r))

    return NumericField(evaluator, "ode-reconstruction", (r_lo, r_hi), table)


def annulus_sample_points(
    n: int,
    r_range,
    z_range=(-1.0, 1.0),
    seed: int = 0,
    margin: float = 1e-3,
):
    """Random points whose cylindrical radius stays inside r_range with a
    margin wide enough for finite-difference stencils."""
    rng = random.Random(seed)
    lo = r_range[0] + margin
    hi = r_range[1] - margin
    pts = []
    for _ in range(n):
        r = rng.uniform(lo, hi)
        t = rng.uniform(0.0, 2.0 * math.pi)
        pts.append((r * math.cos(t), r * math.sin(t), rng.uniform(*z_range)))
    return pts


def numeric_residuals(field: NumericField, points, h: float = 1e-5) -> dict:
    """Max curl and divergence residuals by central differences."""
    worst_curl = 0.0
    worst_div = 0.0
    for x, y, z in points:
        jac = []
        for k, delta in enumerate(((h, 0, 0), (0, h, 0), (0, 0, h))):
            plus = field(x + delta[0], y + delta[1], z + delta[2])
            minus = field(x - delta[0], y - delta[1], z - delta[2])
            jac.append([(p - m) / (2 * h) for p, m in zip(plus, minus)])
        # jac[axis][component] = d component / d axis
        u, v, w = field(x, y, z)
        mag = math.sqrt(u * u + v * v + w * w)
        curl = (
            jac[1][2] - jac[2][1] - u * mag,
            jac[2][0] - jac[0][2] - v * mag,
            jac[0][1] - jac[1][0] - w * mag,
        )
        div = jac[0][0] + jac[1][1] + jac[2][2]
        worst_curl = max(worst_curl, max(abs(c) for c in curl))
        worst_div = max(worst_div, abs(div))
    return {"max_curl": worst_curl, "max_div": worst_div, "count": len(points)}


# --- export helpers ---------------------------------------------------------


def solution_table_rows(table: SolutionTable):
    """The header, then one row of strings (12 significant digits) per node."""
    yield [table.indep_name, *table.state_names]
    for t, row in zip(table.points, table.states):
        yield [f"{t:.12g}", *(f"{c:.12g}" for c in row)]


def solution_table_csv(table: SolutionTable, path: str) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(solution_table_rows(table))


def solution_table_json(table: SolutionTable) -> dict:
    return {
        "kind": table.kind,
        "independent": table.indep_name,
        "state": list(table.state_names),
        "points": [float(t) for t in table.points],
        "states": [[float(c) for c in row] for row in table.states],
        "blown_up": table.blown_up,
    }
