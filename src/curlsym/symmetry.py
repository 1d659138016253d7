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

The ansatz follows the order of the derivation (Olver, Applications of Lie
Groups to Differential Equations, Sec. 2.3): the determining system is
derived once with f formal, and only its equations are resolved to the
concrete profile.  Resolving first would make every sum in the prolonged
residuals carry the denominator u^2 + v^2 + w^2 that conjugating u/R
brings in.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from . import ratlin
from .expr import (
    BASE_SYMBOLS,
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
    free_symbols,
    is_zero_expr,
    monomial_expr,
    mul,
    normal_expression,
    normalize,
    substitute,
    _atom_sort_key,
    _freeze,
    _poly_key,
)
from .jet import GeneratorField, first_prolongation


FORMAL_COEFFS = ("zeta", "eta", "theta", "phi", "lam", "psi")
F_SYMBOLS = (S.f, S.f_u, S.f_v, S.f_w)
_PROFILE_SYMBOLS = frozenset((S.u, S.v, S.w, S.R))


@dataclass(frozen=True)
class PdeSystem:
    name: str
    residuals: tuple
    eliminate: dict  # jet Symbol -> Expr in free jets only
    free_jets: tuple
    f_value: Expr | None  # None: formal profile symbol
    formal: PdeSystem | None = None  # the twin with f symbolic; None: this one


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
    formal = None if f_value is None else curl_system(None)
    return PdeSystem(tag, residuals, eliminate, free, f_value, formal)


def blair_system(f_value: Expr | None = None) -> PdeSystem:
    base = curl_system(f_value)
    residuals = base.residuals + (S.u_x + S.v_y + S.w_z,)
    eliminate = dict(base.eliminate)
    eliminate[S.u_x] = -S.v_y - S.w_z
    free = (S.u_y, S.v_y, S.v_z, S.w_x, S.w_z)
    tag = "curl-eigenfield+div" + ("" if f_value is None else "/resolved")
    formal = None if f_value is None else blair_system(None)
    return PdeSystem(tag, residuals, eliminate, free, f_value, formal)


def generic_generator() -> GeneratorField:
    return GeneratorField(S.zeta, S.eta, S.theta, S.phi, S.lam, S.psi)


def resolve_f(e: Expr, f_value: Expr) -> Expr:
    """Replace the formal profile and its partials by a concrete profile.

    The formal profile has partials in u, v and w only, so a profile whose
    normal form names any symbol but u, v, w and R is an ExprError."""
    other = free_symbols(normal_expression(f_value)) - _PROFILE_SYMBOLS
    if other:
        names = ", ".join(sorted(s.name for s in other))
        raise ExprError(f"a profile may name only u, v, w and R, not {names}")
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


def sparse_rows(*groups):
    """Each group of rows of Polys as sparse rows {column: coefficient},
    with one column per (position in the row, monomial) met in any group.

    Column order is the order of meeting, so the rows serve only questions
    that do not depend on it: rank, span equality and coordinates."""
    cols: dict = {}
    return [[{cols.setdefault((i, m), len(cols)): c
              for i, p in enumerate(row) for m, c in p.terms.items()}
             for row in rows] for rows in groups]


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
    identity_ok = ratlin.span_equal(*sparse_rows(
        [[p] for p in pa if _is_bare_identity(p)],
        [[p] for p in pb if _is_bare_identity(p)],
    ))

    def _reduced(exprs):
        out = []
        for e in exprs:
            p = as_ratform(substitute(e, _GRADIENT_SUBS)).num
            if not p.is_zero():
                out.append([p.monic()])
        return out

    reduced_ok = ratlin.span_equal(*sparse_rows(_reduced(a), _reduced(b)))
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
# the unknowns of a determining system, which a concrete generator never names
FORMAL_SYMBOLS = frozenset(_SLOT_MAP) | frozenset(F_SYMBOLS)


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
    """All monomials in `variables` with total degree <= degree, by degree
    and then by their (atom, exponent) pairs."""
    return [m for k in range(degree + 1) for m in sorted(
        (_freeze(Counter(c)) for c in combinations_with_replacement(variables, k)),
        key=lambda m: [(_atom_sort_key(a), e) for a, e in m])]


@dataclass
class AnsatzResult:
    generators: list  # GeneratorField
    slots: list  # (coefficient index, monomial)
    vectors: list  # primitive rational vectors over the slots


def solve_polynomial_ansatz(system: PdeSystem, degree: int) -> AnsatzResult:
    """All symmetry generators with polynomial coefficients of total degree
    <= degree, as an exact rational nullspace.

    The determining equations E_J(f, f_u, f_v, f_w) of the formal-profile
    twin are resolved to the system's profile afterwards.  Resolving the
    residual first gives, for the same free-jet monomial J, the numerator
    D E_J(f_value) with D a nonzero polynomial (a power of u^2 + v^2 + w^2
    for f = R).  The normal form, with R of degree <= 1, is canonical over
    a ring without zero divisors, so D E vanishes identically exactly when
    E does: both routes cut out the same slot space, and its unique RREF
    gives the same basis vectors in the same order."""
    formal = system.formal or system
    return solve_ansatz_from_equations(determining_system(formal), degree,
                                       system.f_value)


def solve_ansatz_from_equations(
    equations, degree: int, f_value: Expr | None = None
) -> AnsatzResult:
    """The nullspace construction over an explicit determining-equation
    list (the formal-profile system of `solve_polynomial_ansatz`, or the
    reference fixture).  Each equation is resolved to `f_value` if one is
    given, and the nonzero numerators, made monic, are the conditions."""
    polys = []
    for e in equations:
        if f_value is not None:
            e = resolve_f(e, f_value)
        num = as_ratform(e).num
        if not num.is_zero():
            polys.append(num.monic())
    return _ansatz_from_polys(polys, degree)


def _slot_nullspace(conditions, nslots: int):
    """Exact nullspace of linear conditions on `nslots` unknown slots.

    Each condition is an iterable of (slot, terms) pairs, terms a map
    {monomial key: coefficient} such as `Poly.terms`, and says that the
    sum of slot value times terms vanishes identically: every key of it
    gives one row over the slots, and a row met before is kept once."""
    rows = {}
    for condition in conditions:
        cells: dict = {}
        for slot, terms in condition:
            for m, c in terms.items():
                cell = cells.setdefault(m, {})
                cell[slot] = cell.get(slot, 0) + c
        for cell in cells.values():
            key = tuple(sorted((slot, c) for slot, c in cell.items() if c))
            if key:
                rows.setdefault(key, None)
    return ratlin.nullspace([dict(key) for key in rows], nslots)


def _slot_polys(slots, vec, nparts: int) -> list:
    """A nullspace vector as one polynomial per part: the slot (part, m)
    with value c adds the term c*m to that part."""
    parts = [{} for _ in range(nparts)]
    for (part, m), c in zip(slots, vec):
        if c:
            parts[part][m] = c
    return [Poly(terms) for terms in parts]


# 6 C(d+6, 6) slots at degree d.  As a fresh process on 2 shared vCPUs,
# degree 6 (5,544 slots) takes 1.6-2.3 s and up to 44 MB; degree 7
# (10,296) takes 5.6-6.8 s and 68 MB, three times as long
MAX_ANSATZ_SLOTS = 6_000


def _ansatz_from_polys(eqs, degree: int) -> AnsatzResult:
    # counted before any monomial is built
    nslots = 6 * math.comb(degree + 6, 6)
    if nslots > MAX_ANSATZ_SLOTS:
        raise ValueError(f"ansatz degree {degree} needs {nslots} coefficient "
                         f"slots, more than {MAX_ANSATZ_SLOTS}")
    monos = monomials_up_to(degree, BASE_SYMBOLS)
    slots = [(ci, m) for ci in range(6) for m in monos]

    # On the slot monomial m the formal symbol of (ci, var) takes the value
    # m[var] m / var, or m itself for var None.  Times a normal-form term
    # this meets no rewrite, as no base variable is a radical, a unit-pair
    # partner or an exp atom: base exponents just add.  They are packed into
    # one int, a digit per variable, wider than any sum; the other atoms
    # ride along as a tuple.
    radix = 1 + degree + max((e for eq in eqs for m in eq.terms for _, e in m),
                             default=0)
    place = {None: 0} | {a: radix ** i for i, a in enumerate(BASE_SYMBOLS)}
    powers = [(k, {None: 1, **dict(m)}, sum(e * place[a] for a, e in m))
              for k, m in enumerate(monos)]

    def condition(eq):
        # scaled to integers, which leaves the span of its rows alone
        den = math.lcm(*(c.denominator for c in eq.terms.values()))
        for sym, coefpoly in decompose_linear(eq, _SLOT_MAP).items():
            ci, var = _SLOT_MAP[sym]
            split = [(tuple(ae for ae in m if ae[0] not in place),
                      sum(e * place.get(a, 0) for a, e in m) - place[var],
                      c.numerator * (den // c.denominator))
                     for m, c in coefpoly.terms.items()]
            for k, expo, p in powers:
                if var in expo:
                    yield ci * len(monos) + k, {(rest, b + p): c * expo[var]
                                                for rest, b, c in split}

    vectors = _slot_nullspace(map(condition, eqs), len(slots))
    gens = [GeneratorField(*[p.to_expression() for p in _slot_polys(slots, vec, 6)])
            for vec in vectors]
    return AnsatzResult(generators=gens, slots=slots, vectors=vectors)


def _coefficient_polys(gens):
    return [[normalize(c) for c in g.as_tuple()] for g in gens]


def generator_spans_equal(a, b) -> bool:
    return ratlin.span_equal(*sparse_rows(_coefficient_polys(a),
                                          _coefficient_polys(b)))


def coordinates_in_basis(basis, gen: GeneratorField):
    """Exact coordinates of gen in the span of basis, or None."""
    return basis_coordinates(basis, [gen])[0]


def basis_coordinates(basis, gens):
    """`coordinates_in_basis` for each of gens, reducing the basis once."""
    return ratlin.rowspan_coordinates(*sparse_rows(_coefficient_polys(basis),
                                                   _coefficient_polys(gens)))


# --- constraints on the scalar profile ---------------------------------------


def f_constraints_from_group(gens, include_div: bool = True):
    """Run the basis through the formal-profile systems and collect the
    surviving conditions on (f, f_u, f_v, f_w).

    The determining conditions of each generator are split further by
    base-coordinate monomials; common monomial content is dropped and each
    condition made monic, so the family conditions come out in a canonical
    shape."""
    system = blair_system(None) if include_div else curl_system(None)
    seen = {}
    for gen in gens:
        for cond in determining_polys(system, gen):
            for sub in collect_poly(cond, (S.x, S.y, S.z)).values():
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
    slots = ([(0, m) for m in monomials_up_to(degree, comps)]
             + [(1, m) for m in monomials_up_to(max(degree - 1, 0), comps)])

    def slot_values(part, m):
        me = monomial_expr(m)
        fval = me if part == 0 else mul(me, S.R)
        return {
            S.f: fval,
            S.f_u: differentiate(fval, S.u),
            S.f_v: differentiate(fval, S.v),
            S.f_w: differentiate(fval, S.w),
        }

    def condition(c):
        # guard: conditions must be linear homogeneous in the f symbols
        decompose_linear(normalize(c), F_SYMBOLS)
        # multiply by R so every slot's contribution is polynomial and
        # all slots of one condition share the same overall scale
        return [(col, normalize(mul(S.R, substitute(c, slot_values(*slot)))).terms)
                for col, slot in enumerate(slots)]

    family = []
    for vec in _slot_nullspace(map(condition, constraints), len(slots)):
        p, q = _slot_polys(slots, vec, 2)
        family.append(p.to_expression() + mul(q.to_expression(), S.R))
    return family
