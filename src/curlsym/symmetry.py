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
map once (the right-hand sides only contain free jets).  Prolongation,
restriction and the profile all act on rational normal forms, through
`jet.derivation` and `expr.substitution`; no step rebuilds an expression
tree to normalize it again.  Collecting the
restricted conditions by free-jet monomials yields the determining system,
linear and homogeneous in the generator coefficients and their first
partials.  `solve_polynomial_ansatz` turns that linear system into an exact
rational nullspace problem over a polynomial coefficient ansatz.

Every route follows the order of the derivation (Olver, Applications of
Lie Groups to Differential Equations, Sec. 2.3): a `PdeSystem` is the
formal system, with f symbolic in its residuals and elimination map, and
it is prolonged and restricted with f formal.  A concrete profile goes in
only afterwards, into the determining equations or the invariance
residuals.  Putting it in first would make every sum in the prolonged
residuals carry the denominator u^2 + v^2 + w^2 that conjugating u/R
brings in.  It goes in on normal-form terms: f, f_u, f_v and f_w are taken
once as normal forms (for f = R, R and u R/(u^2 + v^2 + w^2) and its
likes), each condition's terms are summed per denominator of the value
they take, and the few sums are then added as rational forms.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from itertools import combinations_with_replacement

from . import ratlin
from .expr import (
    BASE_SYMBOLS,
    Expr,
    ExprError,
    FORMAL_COEFFS,
    Poly,
    REGISTRY,
    RatForm,
    S,
    as_ratform,
    collect_poly,
    free_symbols,
    mul,
    normal_expression,
    normalize,
    poly_atom,
    poly_const,
    substitution,
    _ONE_RF,
    _atom_sort_key,
    _coeff,
    _freeze,
    _poly_key,
    _polynomial,
    _rat_mul,
    _rat_to_expression,
)
from .jet import GeneratorField, derivation, first_prolongation


F_SYMBOLS = (S.f, S.f_u, S.f_v, S.f_w)
_PROFILE_SYMBOLS = frozenset((S.u, S.v, S.w, S.R))


class PdeSystem(namedtuple("PdeSystem", "residuals eliminate free_jets f_value",
                           defaults=(None,))):
    """A formal system, f symbolic throughout, and the profile put in after
    prolongation (None keeps f formal); `eliminate` maps a jet Symbol to an
    expression in free jets only."""
    __slots__ = ()


def curl_system(f_value: Expr | None = None) -> PdeSystem:
    residuals = (
        S.w_y - S.v_z - S.u * S.f,
        S.u_z - S.w_x - S.v * S.f,
        S.v_x - S.u_y - S.w * S.f,
    )
    eliminate = {
        S.w_y: S.v_z + S.u * S.f,
        S.u_z: S.w_x + S.v * S.f,
        S.v_x: S.u_y + S.w * S.f,
    }
    free = (S.u_x, S.u_y, S.v_y, S.v_z, S.w_x, S.w_z)
    return PdeSystem(residuals, eliminate, free, f_value)


def blair_system(f_value: Expr | None = None) -> PdeSystem:
    base = curl_system(f_value)
    return PdeSystem(base.residuals + (S.u_x + S.v_y + S.w_z,),
                     base.eliminate | {S.u_x: -S.v_y - S.w_z},
                     (S.u_y, S.v_y, S.v_z, S.w_x, S.w_z), f_value)


# name -> (builder, profile) of each PDE system the paper studies: (8) with
# the formal profile f, curl B = |B| B, and the blair system, which adds
# the divergence.  A system is built on use; the names, in this order, are
# the CLI's `--system` choices
SYSTEMS = {
    "curl-f": (curl_system, None),
    "curl-absB": (curl_system, S.R),
    "blair": (blair_system, S.R),
}


def generic_generator() -> GeneratorField:
    return GeneratorField(S.zeta, S.eta, S.theta, S.phi, S.lam, S.psi)


def _check_profile(f_value: Expr):
    """The formal profile has partials in u, v and w only, so a profile whose
    normal form names any symbol but u, v, w and R is an ExprError."""
    other = free_symbols(normal_expression(f_value)) - _PROFILE_SYMBOLS
    if other:
        names = ", ".join(sorted(s.name for s in other))
        raise ExprError(f"a profile may name only u, v, w and R, not {names}")


def _profile_forms(profile: RatForm, scale: RatForm = _ONE_RF) -> dict:
    """The formal profile and its partials -> scale times the profile and
    the images of the profile under scale d/du, scale d/dv and scale d/dw,
    as normal forms."""
    return {S.f: _rat_mul(scale, profile)} | {
        fd: derivation(((s, scale),), profile)
        for fd, s in zip(F_SYMBOLS[1:], (S.u, S.v, S.w))}


def _put_profile(f_value: Expr):
    """The `substitution` of a concrete profile's `_profile_forms`, the
    profile checked as `_check_profile`."""
    _check_profile(f_value)
    return substitution(_profile_forms(as_ratform(f_value)))


def invariance_residuals(system: PdeSystem, gen: GeneratorField) -> list:
    """pr X applied to each residual, restricted to the solution manifold,
    with f formal, as normal forms."""
    pr = first_prolongation(gen)
    restrict = substitution({j: as_ratform(e) for j, e in system.eliminate.items()})
    return [restrict(derivation(pr, as_ratform(d))) for d in system.residuals]


def _conditions(polys, f_value: Expr | None = None) -> list:
    """The polynomials with f_value put in, if given: the nonzero
    numerators, monic, deduplicated and in canonical order.  The profile
    and its partials are taken once as normal forms, and each polynomial's
    terms are summed per denominator of the value they take."""
    put = None if f_value is None else _put_profile(f_value)
    seen = {}
    for p in polys:
        if put is not None:
            p = put(RatForm(p, poly_const(1))).num
        if not p.is_zero():
            eq = p.monic()
            seen.setdefault(_poly_key(eq), eq)
    return [seen[k] for k in sorted(seen)]


def determining_polys(system: PdeSystem, gen: GeneratorField | None = None):
    """The coefficients of the formal invariance conditions by free-jet
    monomials, resolved to the system's profile as `_conditions`."""
    gen = generic_generator() if gen is None else gen
    coefs = [coef for resid in invariance_residuals(system, gen)
             for coef in collect_poly(resid.num, system.free_jets).values()]
    # deduplicated with f formal first, so each equation is resolved once
    return _conditions(_conditions(coefs), system.f_value)


def determining_system(system: PdeSystem, gen: GeneratorField | None = None):
    return [p.to_expression() for p in determining_polys(system, gen)]


class VerificationReport(namedtuple("VerificationReport", "ok per_residual residuals")):
    """per_residual holds (index, bool) pairs; residuals are the invariance
    residuals tested, profile put in, as normal-form expressions."""
    __slots__ = ()

    def failures(self):
        return [i for i, good in self.per_residual if not good]


# --- comparison against a reference determining system ------------------------

_GRADIENT_SUBS = {S.eta_u: S.zeta_v, S.theta_v: S.eta_w, S.zeta_w: S.theta_u}


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


# sizes is (len a, len b)
EquivalenceReport = namedtuple(
    "EquivalenceReport", "ok identity_spans_match reduced_spans_match sizes")


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

    gradient = substitution({s: as_ratform(v) for s, v in _GRADIENT_SUBS.items()})

    def _reduced(exprs):
        out = []
        for e in exprs:
            p = gradient(as_ratform(e)).num
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
    residuals = invariance_residuals(system, gen)
    if system.f_value is not None:
        residuals = list(map(_put_profile(system.f_value), residuals))
    per = [(i, r.num.is_zero()) for i, r in enumerate(residuals)]
    return VerificationReport(ok=all(g for _, g in per), per_residual=per,
                              residuals=[_rat_to_expression(r) for r in residuals])


# --- exact polynomial ansatz -------------------------------------------------


def _formal_slot_map() -> dict:
    """formal symbol -> (coefficient index, differentiation variable)."""
    out = {}
    for idx, name in enumerate(FORMAL_COEFFS):
        out[REGISTRY.by_name[name]] = (idx, None)
        for sym in BASE_SYMBOLS:
            out[REGISTRY.by_name[f"{name}_{sym.name}"]] = (idx, sym)
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
        acc[rest] = _coeff(acc.get(rest, 0) + c)
    return {s: Poly(t) for s, t in out.items()}


def monomials_up_to(degree: int, variables) -> list:
    """All monomials in `variables` with total degree <= degree, by degree
    and then by their (atom, exponent) pairs."""
    return [m for k in range(degree + 1) for m in sorted(
        (_freeze(Counter(c)) for c in combinations_with_replacement(variables, k)),
        key=lambda m: [(_atom_sort_key(a), e) for a, e in m])]


# GeneratorFields, the (coefficient index, monomial) slots, and the
# primitive integer vectors over the slots
AnsatzResult = namedtuple("AnsatzResult", "generators slots vectors")


def solve_polynomial_ansatz(system: PdeSystem, degree: int) -> AnsatzResult:
    """All symmetry generators with polynomial coefficients of total degree
    <= degree, as an exact rational nullspace of `determining_polys`.

    The determining equations E_J(f, f_u, f_v, f_w) come from the formal
    system and are resolved to the profile afterwards.  Resolving the
    residual first gives, for the same free-jet monomial J, the numerator
    D E_J(f_value) with D a nonzero polynomial (a power of u^2 + v^2 + w^2
    for f = R).  The normal form, with R of degree <= 1, is canonical over
    a ring without zero divisors, so D E vanishes identically exactly when
    E does: both routes cut out the same slot space, and its unique RREF
    gives the same basis vectors in the same order."""
    return _ansatz_from_polys(determining_polys(system), degree)


def _slot_polys(slots, vec, nparts: int) -> list:
    """A nullspace vector as one polynomial per part: the slot (part, m)
    with value c adds the term c*m to that part."""
    parts = [{} for _ in range(nparts)]
    for (part, m), c in zip(slots, vec):
        if c:
            parts[part][m] = c
    return [Poly(terms) for terms in parts]


# 6 C(d+6, 6) slots at degree d.  As a fresh process on 2 shared vCPUs,
# degree 7 (10,296 slots) takes 0.17-0.21 s and 23 MB; degree 8 (18,018),
# with the bound lifted, takes 0.23-0.36 s and 27-29 MB.  Raising the
# bound changes which degrees run, an output change of its own.
MAX_ANSATZ_SLOTS = 12_000


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
    # var -> (k, exponent of var in monomial k, monomial k packed) for each
    # monomial that holds var; every monomial, exponent 1, for var None
    packed = [sum(e * place[a] for a, e in m) for m in monos]
    powers = {var: [(k, e, packed[k]) for k, m in enumerate(monos)
                    for a, e in ((None, 1), *m) if a is var] for var in place}

    def rows():
        # one row {slot: value} per monomial of each condition's sum over the
        # slots; the shortest first, so their one-entry rows are unit pivots
        # before the long rows arrive
        for eq in sorted(eqs, key=lambda eq: len(eq.terms)):
            # scaled to integers, which leaves the span of its rows alone
            den = math.lcm(*(c.denominator for c in eq.terms.values()))
            cells: dict = {}
            for sym, coefpoly in decompose_linear(eq, _SLOT_MAP).items():
                ci, var = _SLOT_MAP[sym]
                split = [(tuple(ae for ae in m if ae[0] not in place),
                          sum(e * place.get(a, 0) for a, e in m) - place[var],
                          c.numerator * (den // c.denominator))
                         for m, c in coefpoly.terms.items()]
                for k, e, p in powers[var]:
                    slot = ci * len(monos) + k
                    if slot in zero:
                        continue
                    for rest, b, c in split:
                        cell = cells.setdefault((rest, b + p), {})
                        cell[slot] = cell.get(slot, 0) + c * e
            yield from cells.values()

    zero: set = set()  # the slots proved zero so far, whose terms no row needs
    vectors = ratlin.nullspace(rows(), len(slots), zero)
    gens = [GeneratorField(*[p.to_expression() for p in _slot_polys(slots, vec, 6)])
            for vec in vectors]
    return AnsatzResult(generators=gens, slots=slots, vectors=vectors)


def _coefficient_polys(gens):
    return [[normalize(c) for c in g] for g in gens]


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


def f_constraints_from_group(gens):
    """Run the basis through the formal-profile blair system and collect the
    surviving conditions on (f, f_u, f_v, f_w).

    The determining conditions of each generator are split further by
    base-coordinate monomials; common monomial content is dropped and each
    condition made monic, so the family conditions come out in a canonical
    shape."""
    system = blair_system(None)
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
    put = _put_profile(f_value)
    return all(put(as_ratform(c)).num.is_zero() for c in constraints)


# C(d+3, 3) + C(d+2, 3) slots at degree d >= 0.  As a fresh `check-f
# --solve-family` process on 2 shared vCPUs, degree 9 (385 slots) takes
# 0.22-0.25 s and 19 MB; degree 10 (506) takes 0.2-0.3 s and 19.5 MB, and
# degree 11 (650) 0.25-0.37 s and 20 MB.  The bound was set when degree 9
# took 0.8 s
MAX_FAMILY_SLOTS = 400


def solve_f_family(constraints, degree: int = 2):
    """Profiles f = p(u, v, w) + q(u, v, w) R with deg p <= degree and
    deg q <= degree - 1 satisfying every constraint; exact nullspace basis.
    ValueError for more than MAX_FAMILY_SLOTS coefficient slots."""
    # counted before any monomial is built
    nslots = math.comb(degree + 3, 3) + math.comb(degree + 2, 3)
    if nslots > MAX_FAMILY_SLOTS:
        raise ValueError(f"profile family degree {degree} needs {nslots} "
                         f"coefficient slots, more than {MAX_FAMILY_SLOTS}")
    comps = (S.u, S.v, S.w)
    slots = ([(0, m) for m in monomials_up_to(degree, comps)]
             + [(1, m) for m in monomials_up_to(degree - 1, comps)])
    r = RatForm(poly_atom(S.R), poly_const(1))

    def slot_values(part, m):
        # times R, so every slot's contribution is polynomial and all slots
        # of one condition share the same overall scale
        g = Poly({m: 1}) if part == 0 else poly_atom(S.R) * Poly({m: 1})
        return {sym: _polynomial(v) for sym, v in
                _profile_forms(RatForm(g, poly_const(1)), r).items()}

    values = [slot_values(*slot) for slot in slots]

    def rows():
        # one row {slot: value} per monomial of each constraint's sum over
        # the slots; constraints must be linear homogeneous in the f symbols
        for c in constraints:
            coefs = decompose_linear(normalize(c), F_SYMBOLS).items()
            cells: dict = {}
            for col, vals in enumerate(values):
                if col in zero:
                    continue
                total = sum((coef * vals[sym] for sym, coef in coefs), Poly({}))
                for m, v in total.terms.items():
                    cells.setdefault(m, {})[col] = v
            yield from cells.values()

    zero: set = set()  # the slots proved zero so far, as in the ansatz
    family = []
    for vec in ratlin.nullspace(rows(), len(slots), zero):
        p, q = _slot_polys(slots, vec, 2)
        family.append(p.to_expression() + mul(q.to_expression(), S.R))
    return family
