"""Invariance conditions and determining systems for curl-eigenfield PDEs.

The systems under study say that the curl of the field (u, v, w) equals a
scalar profile f times the field itself, written as three first-order
residuals

    w_y - v_z - u f,    u_z - w_x - v f,    v_x - u_y - w f,

optionally joined by the divergence residual u_x + v_y + w_z.  The profile
f is either the formal symbol f (with formal partials f_u, f_v, f_w) or a
concrete expression such as the field magnitude R.

A generator X is a symmetry when the first prolongation of X annihilates
every residual on the solution manifold.  The manifold is coded as an
elimination map picking one jet per residual; restriction substitutes the
map once (the right-hand sides only contain free jets).  Collecting the
restricted conditions by free-jet monomials yields the determining system,
linear and homogeneous in the generator coefficients and their first
partials.  `solve_polynomial_ansatz` turns that linear system into an exact
rational nullspace problem over a polynomial coefficient ansatz.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import ratlin
from .expr import (
    Expr,
    ExprError,
    JET_SYMBOLS,
    Num,
    Poly,
    REGISTRY,
    S,
    as_ratform,
    collect_poly,
    differentiate,
    is_zero_expr,
    monomial_expr,
    mul,
    normalize,
    poly_const,
    substitute,
    _atom_sort_key,
    _freeze,
    _poly_key,
)
from .jet import GeneratorField, first_prolongation


FORMAL_COEFFS = ("zeta", "eta", "theta", "phi", "lam", "psi")
F_SYMBOLS = (S.f, S.f_u, S.f_v, S.f_w)


@dataclass(frozen=True)
class PdeSystem:
    name: str
    residuals: tuple
    eliminate: dict  # jet Symbol -> Expr in free jets only
    free_jets: tuple
    f_value: Expr | None  # None: formal profile symbol


def curl_system(f_value: Expr | None = None) -> PdeSystem:
    f = S.f if f_value is None else f_value
    residuals = (
        S.w_y - S.v_z - S.u * f,
        S.u_z - S.w_x - S.v * f,
        S.v_x - S.u_y - S.w * f,
    )
    eliminate = {
        S.w_y: S.v_z + S.u * f,
        S.u_z: S.w_x + S.v * f,
        S.v_x: S.u_y + S.w * f,
    }
    free = (S.u_x, S.u_y, S.v_y, S.v_z, S.w_x, S.w_z)
    tag = "curl-eigenfield" + ("" if f_value is None else "/resolved")
    return PdeSystem(tag, residuals, eliminate, free, f_value)


def blair_system(f_value: Expr | None = None) -> PdeSystem:
    base = curl_system(f_value)
    residuals = base.residuals + (S.u_x + S.v_y + S.w_z,)
    eliminate = dict(base.eliminate)
    eliminate[S.u_x] = -S.v_y - S.w_z
    free = (S.u_y, S.v_y, S.v_z, S.w_x, S.w_z)
    tag = "curl-eigenfield+div" + ("" if f_value is None else "/resolved")
    return PdeSystem(tag, residuals, eliminate, free, f_value)


def generic_generator() -> GeneratorField:
    return GeneratorField(S.zeta, S.eta, S.theta, S.phi, S.lam, S.psi)


def resolve_f(e: Expr, f_value: Expr) -> Expr:
    """Replace the formal profile and its partials by a concrete profile."""
    return substitute(
        e,
        {
            S.f: f_value,
            S.f_u: differentiate(f_value, S.u),
            S.f_v: differentiate(f_value, S.v),
            S.f_w: differentiate(f_value, S.w),
        },
    )


def restrict_to_solutions(system: PdeSystem, e: Expr) -> Expr:
    return substitute(e, system.eliminate)


def invariance_residuals(system: PdeSystem, gen: GeneratorField) -> list:
    """pr X applied to each residual, restricted to the solution manifold."""
    pr = first_prolongation(gen)
    return [restrict_to_solutions(system, pr.apply(d)) for d in system.residuals]


def _pythagorean_point(rng):
    """Rational (u, v, w) with rational R = |(u, v, w)|: a scaled
    Pythagorean quadruple (m^2+n^2-p^2-q^2, 2(mq+np), 2(nq-mp)) of length
    m^2+n^2+p^2+q^2."""
    while True:
        m, n, p, q = (rng.randint(-3, 3) for _ in range(4))
        s = m * m + n * n + p * p + q * q
        if s:
            break
    t = Fraction(rng.randint(1, 4), s)
    comps = (m * m + n * n - p * p - q * q, 2 * (m * q + n * p), 2 * (n * q - m * p))
    return [t * c for c in comps], t * s


def maximal_rank_check(system: PdeSystem, samples: int = 1) -> int:
    """Minimum exact rank, over random rational on-manifold points, of the
    residual Jacobian with respect to all base and jet symbols.

    (u, v, w) is a scaled Pythagorean quadruple, so R = |(u, v, w)| is
    rational; the free jets, x, y, z and, when the system keeps f
    symbolic, the formal profile symbols are small random fractions.  The
    eliminated jets are solved from the residuals, so every sample point
    satisfies the system exactly, and `ratlin.rank` takes the rank."""
    variables = (S.x, S.y, S.z, S.u, S.v, S.w) + JET_SYMBOLS
    jacobian = [
        [differentiate(d, v) for v in variables] for d in system.residuals
    ]
    rng = random.Random(1234)
    randomized = [S.x, S.y, S.z] + list(system.free_jets)
    if system.f_value is None:
        randomized += list(F_SYMBOLS)
    best = None
    for _ in range(max(1, samples)):
        env = {s: Fraction(rng.randint(-12, 12), rng.randint(1, 6))
               for s in randomized}
        (env[S.u], env[S.v], env[S.w]), env[S.R] = _pythagorean_point(rng)
        env = {s: Num(c) for s, c in env.items()}
        for jet, rhs in system.eliminate.items():
            env[jet] = Num(normalize(substitute(rhs, env)).constant_value())
        rows = [[normalize(substitute(e, env)).constant_value() for e in row]
                for row in jacobian]
        rank = ratlin.rank(rows)
        best = rank if best is None else min(best, rank)
    return best


def _numerator(e: Expr) -> Poly:
    return as_ratform(e).num


def determining_polys(system: PdeSystem, gen: GeneratorField | None = None):
    """Monic, deduplicated coefficient equations as normal forms."""
    gen = generic_generator() if gen is None else gen
    seen = {}
    for resid in invariance_residuals(system, gen):
        num = _numerator(resid)
        for _, coef in collect_poly(num, system.free_jets).items():
            if coef.is_zero():
                continue
            eq = coef.monic()
            seen.setdefault(_poly_key(eq), eq)
    return [seen[k] for k in sorted(seen)]


def determining_system(system: PdeSystem, gen: GeneratorField | None = None):
    return [p.to_expression() for p in determining_polys(system, gen)]


@dataclass
class VerificationReport:
    ok: bool
    per_residual: list  # (index, bool)

    def failures(self):
        return [i for i, good in self.per_residual if not good]


# --- comparison against a reference determining system ------------------------

# The three bare gradient identities shared by every variant of the system.
GRADIENT_IDENTITIES = (
    S.eta_u - S.zeta_v,
    S.theta_v - S.eta_w,
    S.zeta_w - S.theta_u,
)
_GRADIENT_SUBS = {S.eta_u: S.zeta_v, S.theta_v: S.eta_w, S.zeta_w: S.theta_u}


def formal_substitution(gen: GeneratorField, f_value: Expr | None = None) -> dict:
    """Map the formal coefficient symbols (and their partials, and the
    formal profile if `f_value` is given) to a concrete generator."""
    out: dict = {}
    for name, c in zip(FORMAL_COEFFS, gen.as_tuple()):
        out[REGISTRY.by_name[name]] = c
        for ax in ("x", "y", "z", "u", "v", "w"):
            out[REGISTRY.by_name[f"{name}_{ax}"]] = differentiate(
                c, REGISTRY.by_name[ax]
            )
    if f_value is not None:
        out[S.f] = f_value
        for ax in ("u", "v", "w"):
            out[REGISTRY.by_name[f"f_{ax}"]] = differentiate(
                f_value, REGISTRY.by_name[ax]
            )
    return out


def annihilates(equations, gen: GeneratorField, f_value: Expr | None = None) -> bool:
    """Whether every equation vanishes identically under the substitution of
    a concrete generator (and optionally a concrete profile)."""
    sub = formal_substitution(gen, f_value)
    return all(is_zero_expr(substitute(e, sub)) for e in equations)


def _is_bare_identity(p: Poly) -> bool:
    """True for constant-coefficient linear forms in the formal partials."""
    if p.is_zero():
        return False
    for mono, _ in p.terms.items():
        if len(mono) != 1:
            return False
        atom, e = mono[0]
        if e != 1 or atom not in _SLOT_MAP:
            return False
    return True


def _mono_key(m: tuple) -> tuple:
    # the monomial part of its one-term _poly_key, so the same order
    return tuple((_atom_sort_key(a), e) for a, e in m)


def _mono_sort_index(polys):
    monos = sorted({m for p in polys for m in p.terms}, key=_mono_key)
    return {m: i for i, m in enumerate(monos)}


def _vectorize(polys, index):
    rows = []
    for p in polys:
        row = [Fraction(0)] * len(index)
        for m, c in p.terms.items():
            row[index[m]] = c
        rows.append(row)
    return rows


@dataclass
class EquivalenceReport:
    ok: bool
    identity_spans_match: bool
    reduced_spans_match: bool
    sizes: tuple  # (len a, len b)


def determining_systems_equivalent(a, b) -> EquivalenceReport:
    """Equivalence of two determining systems modulo the gradient identities.

    Reference equations may differ from recomputed ones by polynomial
    multiples of the bare identities (for example by u*f*(eta_u - zeta_v)),
    which a plain rational span comparison cannot absorb.  Both systems are
    therefore compared in two stages: the bare-identity parts must span the
    same space, and after substituting those identities into everything the
    remaining equations must span the same space.  Together the two stages
    certify that each system rewrites to the other."""
    pa = [as_ratform(e).num.monic() for e in a]
    pb = [as_ratform(e).num.monic() for e in b]
    bare_a = [p for p in pa if _is_bare_identity(p)]
    bare_b = [p for p in pb if _is_bare_identity(p)]
    index = _mono_sort_index(bare_a + bare_b)
    identity_ok = ratlin.span_equal(
        _vectorize(bare_a, index), _vectorize(bare_b, index)
    )

    def _reduced(exprs):
        out = []
        for e in exprs:
            p = as_ratform(substitute(e, _GRADIENT_SUBS)).num
            if not p.is_zero():
                out.append(p.monic())
        return out

    ra, rb = _reduced(a), _reduced(b)
    rindex = _mono_sort_index(ra + rb)
    reduced_ok = ratlin.span_equal(_vectorize(ra, rindex), _vectorize(rb, rindex))
    return EquivalenceReport(
        ok=identity_ok and reduced_ok,
        identity_spans_match=identity_ok,
        reduced_spans_match=reduced_ok,
        sizes=(len(pa), len(pb)),
    )


def verify_generator(system: PdeSystem, gen: GeneratorField) -> VerificationReport:
    per = []
    for i, resid in enumerate(invariance_residuals(system, gen)):
        per.append((i, _numerator(resid).is_zero()))
    return VerificationReport(ok=all(g for _, g in per), per_residual=per)


# --- exact polynomial ansatz -------------------------------------------------


def _formal_slot_map() -> dict:
    """formal symbol -> (coefficient index, differentiation variable)."""
    out = {}
    axes = {"x": S.x, "y": S.y, "z": S.z, "u": S.u, "v": S.v, "w": S.w}
    for idx, name in enumerate(FORMAL_COEFFS):
        out[REGISTRY.by_name[name]] = (idx, None)
        for ax, sym in axes.items():
            out[REGISTRY.by_name[f"{name}_{ax}"]] = (idx, sym)
    return out


_SLOT_MAP = _formal_slot_map()


def decompose_linear(p: Poly, formal_syms) -> dict:
    """Split a polynomial that is linear homogeneous in `formal_syms` into
    {formal symbol: coefficient polynomial}."""
    formal_set = set(formal_syms)
    out: dict = {}
    for mono, c in p.terms.items():
        hits = [(a, e) for a, e in mono if a in formal_set]
        if len(hits) != 1 or hits[0][1] != 1:
            raise ExprError(
                "expression is not linear homogeneous in the formal symbols"
            )
        sym = hits[0][0]
        rest = tuple((a, e) for a, e in mono if a is not sym)
        acc = out.setdefault(sym, {})
        acc[rest] = acc.get(rest, Fraction(0)) + c
    return {s: Poly(t) for s, t in out.items()}


def monomials_up_to(degree: int, variables) -> list:
    """All monomials in `variables` with total degree <= degree, sorted."""
    frontier = [({}, 0)]
    for var in variables:
        new = []
        for expo, deg in frontier:
            for k in range(1, degree - deg + 1):
                e2 = dict(expo)
                e2[var] = k
                new.append((e2, deg + k))
        frontier.extend(new)
    out = [_freeze(e) for e, _ in frontier]
    out.sort(key=lambda m: (sum(e for _, e in m), _mono_key(m)))
    return out


@dataclass
class AnsatzResult:
    generators: list  # GeneratorField
    slots: list  # (coefficient index, monomial)
    vectors: list  # primitive rational vectors over the slots


def solve_polynomial_ansatz(system: PdeSystem, degree: int) -> AnsatzResult:
    """All symmetry generators with polynomial coefficients of total degree
    <= degree, as an exact rational nullspace."""
    return _ansatz_from_polys(determining_polys(system), degree)


def solve_ansatz_from_equations(
    equations, degree: int, f_value: Expr | None = None
) -> AnsatzResult:
    """The same nullspace construction over an explicit determining-equation
    list (e.g. the reference fixture), optionally resolving the formal
    profile to a concrete one first."""
    polys = []
    for e in equations:
        if f_value is not None:
            e = resolve_f(e, f_value)
        num = as_ratform(e).num
        if not num.is_zero():
            polys.append(num.monic())
    return _ansatz_from_polys(polys, degree)


def _append_distinct(rows, seen, cells):
    """Append each nonzero row of `cells` (monomial -> {column: coefficient})
    not seen before, as a sparse dict in column order."""
    for cols in cells.values():
        key = tuple(sorted((col, c) for col, c in cols.items() if c))
        if key and key not in seen:
            seen.add(key)
            rows.append(dict(key))


def _ansatz_from_polys(eqs, degree: int) -> AnsatzResult:
    base_vars = (S.x, S.y, S.z, S.u, S.v, S.w)
    monos = monomials_up_to(degree, base_vars)
    slots = [(ci, m) for ci in range(6) for m in monos]
    slot_index = {sm: i for i, sm in enumerate(slots)}

    # per-monomial values of the formal symbols: the function itself and
    # its six first partials
    mono_vals: dict = {}
    for m in monos:
        me = monomial_expr(m)
        vals = {None: normalize(me)}
        for var in base_vars:
            vals[var] = normalize(differentiate(me, var))
        mono_vals[m] = vals

    formals = list(_SLOT_MAP)
    rows_seen = set()
    rows = []
    for eq in eqs:
        dec = decompose_linear(eq, formals)
        # accumulate: result monomial -> slot -> coefficient
        cells: dict = {}
        for sym, coefpoly in dec.items():
            ci, var = _SLOT_MAP[sym]
            for m in monos:
                val = mono_vals[m][var]
                if val.is_zero():
                    continue
                prod = coefpoly * val
                col = slot_index[(ci, m)]
                for rm, rc in prod.terms.items():
                    cells.setdefault(rm, {})
                    cells[rm][col] = cells[rm].get(col, Fraction(0)) + rc
        _append_distinct(rows, rows_seen, cells)

    vectors = ratlin.nullspace(rows, len(slots))
    gens = []
    for vec in vectors:
        coeffs = [poly_const(Fraction(0)) for _ in range(6)]
        for (ci, m), val in zip(slots, vec):
            if val:
                coeffs[ci] = coeffs[ci] + Poly({m: val})
        gens.append(GeneratorField(*[p.to_expression() for p in coeffs]))
    return AnsatzResult(generators=gens, slots=slots, vectors=vectors)


def generator_span_matrix(gens, degree: int | None = None):
    """Vectorize polynomial generators over a shared slot basis, for exact
    span comparisons."""
    polys = []
    deg = 0
    for g in gens:
        row = [normalize(c) for c in g.as_tuple()]
        polys.append(row)
        for p in row:
            deg = max(deg, p.degree())
    if degree is not None:
        deg = max(deg, degree)
    monos = monomials_up_to(deg, (S.x, S.y, S.z, S.u, S.v, S.w))
    index = {m: i for i, m in enumerate(monos)}
    out = []
    for row in polys:
        vec = [Fraction(0)] * (6 * len(monos))
        for ci, p in enumerate(row):
            for m, c in p.terms.items():
                if m not in index:
                    raise ExprError("generator coefficient is not polynomial "
                                    "in the base variables at this degree")
                vec[ci * len(monos) + index[m]] = c
        out.append(vec)
    return out


def generator_spans_equal(a, b) -> bool:
    a = list(a)
    mat = generator_span_matrix(a + list(b))
    return ratlin.span_equal(mat[: len(a)], mat[len(a):])


def coordinates_in_basis(basis, gen: GeneratorField):
    """Exact coordinates of gen in the span of basis, or None."""
    return basis_coordinates(basis, [gen])[0]


def basis_coordinates(basis, gens):
    """`coordinates_in_basis` for each of gens, reducing the basis once."""
    basis = list(basis)
    mat = generator_span_matrix(basis + list(gens))
    return ratlin.rowspan_coordinates(mat[: len(basis)], mat[len(basis):])


# --- constraints on the scalar profile ---------------------------------------


def f_constraints_from_group(gens, include_div: bool = True):
    """Run the basis through the formal-profile systems and collect the
    surviving conditions on (f, f_u, f_v, f_w).

    Coefficients are split by free-jet monomials, then by base-coordinate
    monomials; common monomial content is dropped and each condition made
    monic, so the family conditions come out in a canonical shape."""
    system = blair_system(None) if include_div else curl_system(None)
    seen = {}
    for gen in gens:
        for resid in invariance_residuals(system, gen):
            num = _numerator(resid)
            for _, coef in collect_poly(num, system.free_jets).items():
                for _, sub in collect_poly(coef, (S.x, S.y, S.z)).items():
                    if sub.is_zero():
                        continue
                    content = sub.content_monomial()
                    if content:
                        sub = sub.divide_monomial(content)
                    eq = sub.monic()
                    seen.setdefault(_poly_key(eq), eq)
    return [seen[k].to_expression() for k in sorted(seen)]


def verify_f(constraints, f_value: Expr) -> bool:
    return all(is_zero_expr(resolve_f(c, f_value)) for c in constraints)


def solve_f_family(constraints, degree: int = 2):
    """Profiles f = p(u, v, w) + q(u, v, w) R with deg p <= degree and
    deg q <= degree - 1 satisfying every constraint; exact nullspace basis."""
    comps = (S.u, S.v, S.w)
    p_monos = monomials_up_to(degree, comps)
    q_monos = monomials_up_to(max(degree - 1, 0), comps)
    slots = [("p", m) for m in p_monos] + [("q", m) for m in q_monos]

    def slot_values(kind, m):
        me = monomial_expr(m)
        fval = me if kind == "p" else mul(me, S.R)
        return {
            S.f: fval,
            S.f_u: differentiate(fval, S.u),
            S.f_v: differentiate(fval, S.v),
            S.f_w: differentiate(fval, S.w),
        }

    rows = []
    rows_seen = set()
    for c in constraints:
        cpoly = normalize(c)
        # guard: conditions must be linear homogeneous in the f symbols
        decompose_linear(cpoly, F_SYMBOLS)
        cells: dict = {}
        for col, (kind, m) in enumerate(slots):
            # multiply by R so every slot's contribution is polynomial and
            # all slots of one condition share the same overall scale
            contrib = normalize(mul(S.R, substitute(c, slot_values(kind, m))))
            for rm, rc in contrib.terms.items():
                cells.setdefault(rm, {})
                cells[rm][col] = cells[rm].get(col, Fraction(0)) + rc
        _append_distinct(rows, rows_seen, cells)

    family = []
    for vec in ratlin.nullspace(rows, len(slots)):
        p_poly = poly_const(Fraction(0))
        q_poly = poly_const(Fraction(0))
        for (kind, m), val in zip(slots, vec):
            if not val:
                continue
            if kind == "p":
                p_poly = p_poly + Poly({m: val})
            else:
                q_poly = q_poly + Poly({m: val})
        family.append(
            (p_poly.to_expression() + mul(q_poly.to_expression(), S.R))
        )
    return family
