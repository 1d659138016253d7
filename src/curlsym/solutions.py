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
import random
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction

from .expr import (
    EvalError,
    Expr,
    NotPolynomial,
    Num,
    REGISTRY,
    S,
    add,
    compile_numeric,
    decide_zero,
    differentiate,
    exp,
    free_symbols,
    normal_expression,
    parse,
    sqrt,
    substitute,
    to_string,
)
from .symmetry import SYSTEMS, blair_system


class FieldSolution(namedtuple("FieldSolution", "u v w bindings label",
                               defaults=((), ""))):
    """A concrete vector field (u, v, w) on R^3.

    Components may contain constant parameters, such as a symbolic group
    parameter or the unit pair (a, b) of a rotation at one.  A numeric
    parameter enters a transform as an exact rational, so no symbol stands
    for a float.  `bindings` is always (): it stays for the one caller
    that still reads it, `perfbench/sweep.py`, and the benchmark change
    that stops reading it deletes the field.
    """

    __slots__ = ()

    def components(self) -> tuple:
        return (self.u, self.v, self.w)


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

def _jet_substitution(sol: FieldSolution) -> dict:
    """The components and their first partials for u, v, w and the jets,
    and the field's magnitude for the profile f."""
    subs = {}
    for name, comp in zip("uvw", sol.components()):
        subs[REGISTRY.by_name[name]] = comp
        for ax in "xyz":
            subs[REGISTRY.by_name[f"{name}_{ax}"]] = differentiate(
                comp, REGISTRY.by_name[ax]
            )
    subs[S.f] = sqrt(add(*(c**2 for c in sol.components())))
    return subs


def residual_expressions(sol: FieldSolution) -> list:
    """Substitute the field into the four equations of the blair system:
    the three curl equations, then the divergence u_x + v_y + w_z.

    The formal residuals carry the profile f and none of its partials, and
    f is put in with the jets: the field magnitude sqrt(u^2+v^2+w^2) of the
    components, written as an explicit square root."""
    subs = _jet_substitution(sol)
    return [substitute(r, subs) for r in blair_system().residuals]


ResidualCheck = namedtuple("ResidualCheck", "system ok modes displays divergence")


def _display(e: Expr, ok, mode: str, worst, tol: float) -> str:
    if ok is None:
        return "undecided"
    if mode == "numeric":
        return f"<{tol:g}" if ok else f"{worst:.3e}"
    if ok:
        return "0"
    text = to_string(normal_expression(e))
    return text if len(text) <= 60 else text[:57] + "..."


def verify_solution_residuals(
    sol: FieldSolution,
    system: str = "blair",
    samples: int = 50,
    tol: float = 1e-10,
) -> ResidualCheck:
    """Zero-test each blair residual, symbolically when normalization
    succeeds, otherwise by sampling `samples` points at tolerance `tol`.  A
    residual with too few finite samples, as when every float overflows, is
    undecided: displayed as "undecided", its verdict None, and it fails.

    Under a curl system the fourth residual, the divergence, does not count
    toward `ok` and has no display: `divergence` holds its (verdict, mode),
    and is None under blair.  `system` is "curl" or a name of `SYSTEMS`."""
    names = ["curl", *SYSTEMS]
    if system not in names:
        raise ValueError(f"unknown system '{system}'; expected one of "
                         f"{sorted(names)}")
    kind = "blair" if system == "blair" else "curl"
    decided = []
    for e in residual_expressions(sol):
        try:
            decided.append((e, *decide_zero(e, samples=samples, tol=tol)))
        except EvalError:
            decided.append((e, None, "numeric", None))
    divergence = decided.pop()[1:3] if kind == "curl" else None
    return ResidualCheck(
        kind,
        all(ok for _, ok, _, _ in decided),
        tuple(mode for _, _, mode, _ in decided),
        tuple(_display(*d, tol) for d in decided),
        divergence,
    )


# --- one-parameter transform families ------------------------------------

# coordinate positions (0, 1, 2 for x, y, z) of the rotation planes
_ROTATION_PLANES = {1: (0, 1), 2: (1, 2), 3: (0, 2)}


def _normalized(e: Expr) -> Expr:
    try:
        return normal_expression(e)
    except NotPolynomial:
        return e


def _simplest_between(lo: Fraction, hi) -> Fraction:
    """The rational with the smallest denominator strictly between lo and
    hi, for 0 <= lo < hi or lo < 0 < hi, hi None for infinity: the
    continued-fraction descent of the Stern-Brocot tree."""
    n = math.floor(lo) + 1
    if hi is None or n < hi:
        return Fraction(n)
    n -= 1  # n <= lo < hi <= n + 1, so the answer is n + 1/r, r > 1
    return n + 1 / _simplest_between(1 / (hi - n),
                                     None if lo == n else 1 / (lo - n))


def _simplest_rounding_to(x: float) -> Fraction:
    """The simplest rational strictly inside the interval of the reals that
    round to x, so that float() of it is x again."""
    if x < 0:
        return -_simplest_rounding_to(-x)
    lo, hi = ((Fraction(x) + Fraction(math.nextafter(x, to))) / 2
              for to in (-math.inf, math.inf))
    return _simplest_between(lo, hi)


def transform(sol: FieldSolution, family: int, eps) -> FieldSolution:
    """Apply one of the seven one-parameter families at group parameter eps.

    eps is a number (int, float, Fraction or `Num`), which enters as the
    exact rational Fraction(eps), or an expression, which stays as it is.
    Each family is one coordinate substitution plus one map of the
    components: families 1-3 rotate a coordinate plane and the matching
    component pair by a unit pair (a, b) standing for (cos eps, sin eps),
    families 4-6 translate axis family - 4 by eps, and family 7 scales by
    e^-eps.  For a symbolic eps the rotation keeps a unit pair free: the
    first registered pair the field does not name
    (`SymbolRegistry.unit_pair_avoiding`).  For a number it takes the
    rational point ((1 - t^2)/(1 + t^2), 2t/(1 + t^2)), t the simplest
    rational that rounds to the float tan(eps/2) (at eps = 0.3, 0.4, 1
    and 2.5 its denominator has 11, 9, 9 and 9 digits, the float's own
    17, 16, 16 and 15): the point lies exactly on the unit circle, so the
    rotation is exactly orthogonal, and its angle is eps up to the
    rounding of one float; a numeric eps beyond float range is a
    ValueError there.
    """
    if family not in range(1, 8):
        raise ValueError(f"family index must be 1..7, got {family}")
    label = f"{sol.label or 'field'}~{family}"
    if isinstance(eps, Num) or not isinstance(eps, Expr):
        eps = Fraction(eps.val if isinstance(eps, Num) else eps)
    xyz = (S.x, S.y, S.z)
    comps = sol.components()
    if family <= 3:
        if isinstance(eps, Fraction):
            try:
                half = float(eps / 2)
            except OverflowError:
                digits = len(str(abs(eps.numerator) // eps.denominator))
                raise ValueError("a rotation needs eps within float range, "
                                 f"not |eps| >= 10^{digits - 1}") from None
            t = _simplest_rounding_to(math.tan(half))
            ca, sb = Num((1 - t * t) / (1 + t * t)), Num(2 * t / (1 + t * t))
        else:
            ca, sb = REGISTRY.unit_pair_avoiding(
                set().union(*map(free_symbols, comps)))
        i, j = _ROTATION_PLANES[family]
        xi, xj = xyz[i], xyz[j]
        sigma = {xi: ca * xi + sb * xj, xj: -sb * xi + ca * xj}
        out = [substitute(c, sigma) for c in comps]
        out[i], out[j] = ca * out[i] - sb * out[j], sb * out[i] + ca * out[j]
    elif family <= 6:
        axis = xyz[family - 4]
        out = [substitute(c, {axis: axis - eps}) for c in comps]
    else:
        k = exp(-eps)
        out = [k * substitute(c, {a: k * a for a in xyz}) for c in comps]
    return FieldSolution(*map(_normalized, out), label=label)


# --- invariant reductions -------------------------------------------------


class ReducedOde(namedtuple("ReducedOde",
                            "kind independent state rhs constraint ansatz")):
    """A two-state profile ODE produced by an invariant ansatz."""

    __slots__ = ()

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


class _Rows(tuple):
    """A tuple with numpy's `tolist()`, for the one caller that still
    reads the table as arrays: `perfbench/sweep.py`.  The benchmark change
    that makes it iterate the tuples deletes this class."""

    def tolist(self) -> list:
        return list(self)


class SolutionTable(namedtuple("SolutionTable", "kind indep_name state_names "
                               "points states slopes blown_up")):
    """The RK4 table in plain tuples: `points` holds the node values,
    `states` the state tuple at each node and `slopes` the right-hand
    side's tuple there."""

    __slots__ = ()

    def final_state(self) -> tuple:
        return self.states[-1]


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
    above 1e6 ends the table after that node; a non-finite state or an
    arithmetic error (overflow) in a step ends it before, at the last
    finite node.  Either raises the blow-up flag.  Raises ValueError for
    a non-finite initial state, span or step, for more than 1,000,000
    steps, and for an arithmetic error at the initial state.
    """
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

    fn = compile_numeric(ode.rhs, list(ode.state) + [ode.independent])

    def rhs(t, s):
        return fn(*s, t)

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
        if not all(math.isfinite(c) for c in y):
            blown = True
            break
        t = tn
        ts.append(t)
        ys.append(y)
        ss.append(slope)
        if not all(abs(c) <= _BLOWUP_NORM for c in y):
            blown = True
            break

    return SolutionTable(
        kind=ode.kind,
        indep_name=ode.independent.name,
        state_names=ode.state_names(),
        points=_Rows(ts),
        states=_Rows(ys),
        slopes=_Rows(ss),
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


class NumericField(namedtuple("NumericField", "evaluator r_range")):
    """Float evaluator (x, y, z) -> (u, v, w) on the radial range r_range
    of a reconstruction."""

    __slots__ = ()

    def __call__(self, x: float, y: float, z: float) -> tuple:
        return self.evaluator(x, y, z)


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
    second = compile_numeric(
        tuple(add(differentiate(f, ode.independent),
                  *(differentiate(f, s) * g for s, g in zip(ode.state, ode.rhs)))
              for f in ode.rhs),
        list(ode.state) + [ode.independent],
    )
    ts, states, slopes = table.points, table.states, table.slopes
    curvatures = []
    for t, y in zip(ts, states):
        try:  # terms like beta^3/(r*s), s = |(beta, gamma)|, are 0/0 at s = 0
            curvatures.append(second(*y, t))
        except ArithmeticError as e:
            if not any(y):
                # the origin is an equilibrium: the solution through it,
                # and so its curvature, is identically zero
                curvatures.append((0.0, 0.0))
                continue
            raise ValueError(f"reconstruction fails at radius {t:g} "
                             f"({type(e).__name__})") from None
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

    return NumericField(evaluator, (r_lo, r_hi))


# distance of every sampled radius from both ends of a reconstruction,
# far wider than the 1e-5 central-difference step of `numeric_residuals`
_SAMPLE_MARGIN = 1e-3


def annulus_radii(r_range) -> tuple:
    """The radii `annulus_sample_points` draws from: r_range shrunk by
    _SAMPLE_MARGIN at both ends.  ValueError for a range narrower than
    2 * _SAMPLE_MARGIN, where no radius keeps that margin; a range typed
    as exactly that wide may round a few ulps narrower, and passes."""
    lo, hi = r_range[0] + _SAMPLE_MARGIN, r_range[1] - _SAMPLE_MARGIN
    if lo > hi and not math.isclose(lo, hi):
        raise ValueError(
            f"radial range [{r_range[0]:g}, {r_range[1]:g}] is narrower than "
            f"{2 * _SAMPLE_MARGIN:g}, twice the margin kept by the residual samples"
        )
    return lo, hi


def annulus_sample_points(n: int, r_range, seed: int = 0):
    """Random points with |z| <= 1 whose cylindrical radius lies in
    `annulus_radii(r_range)`, so a finite-difference stencil around each
    stays inside r_range."""
    rng = random.Random(seed)
    lo, hi = annulus_radii(r_range)
    pts = []
    for _ in range(n):
        r = rng.uniform(lo, hi)
        t = rng.uniform(0.0, 2.0 * math.pi)
        pts.append((r * math.cos(t), r * math.sin(t), rng.uniform(-1.0, 1.0)))
    return pts


def numeric_residuals(field: NumericField, points) -> dict:
    """Max curl and divergence residuals by central differences."""
    h = 1e-5
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
    """The table for a JSON envelope.  The tuples go in as they are: the
    encoder writes a tuple exactly as a list, so the table is not copied."""
    return {
        "kind": table.kind,
        "independent": table.indep_name,
        "state": table.state_names,
        "points": table.points,
        "states": table.states,
        "blown_up": table.blown_up,
    }
