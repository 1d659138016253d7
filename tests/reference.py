"""Reference helpers that several test files share and no command needs:
the jet symbols in order, generator arithmetic, the profile put into an
expression tree, the expression-tree route of the derivation (the oracle
of the normal-form one), annihilation of
determining equations by a concrete generator, and comparisons of field
solutions.

The test files import this module by name, as pytest puts `tests/` on
the path.
"""

import random

from curlsym import solutions
from curlsym import symmetry as sy
from curlsym.expr import (
    BASE_SYMBOLS,
    REGISTRY,
    S,
    _as_expr,
    add,
    as_ratform,
    collect_poly,
    compile_numeric,
    differentiate,
    equal_exprs,
    is_zero_expr,
    mul,
    neg,
    normal_expression,
    parse,
    substitute,
    _poly_key,
)
from curlsym.jet import AXES, DEPS, GeneratorField, jet_symbol

# the nine first jets u_x, u_y, u_z, v_x, ..., w_z
JET_SYMBOLS = tuple(jet_symbol(d, a) for d in "uvw" for a in "xyz")


# --- generator arithmetic -----------------------------------------------------


def add_fields(a: GeneratorField, b: GeneratorField) -> GeneratorField:
    return GeneratorField(*[add(x, y) for x, y in zip(a, b)])


def scale_field(g: GeneratorField, c) -> GeneratorField:
    c = _as_expr(c)
    return GeneratorField(*[mul(c, t) for t in g])


def sub_fields(a: GeneratorField, b: GeneratorField) -> GeneratorField:
    return add_fields(a, scale_field(b, -1))


def field_is_zero(g: GeneratorField) -> bool:
    return all(is_zero_expr(c) for c in g)


def fields_equal(a: GeneratorField, b: GeneratorField) -> bool:
    return field_is_zero(sub_fields(a, b))


# --- the profile put in on expression trees -----------------------------------


def profile_values(f_value) -> dict:
    """The formal profile and its partials -> f_value and its partials."""
    return {S.f: f_value, S.f_u: differentiate(f_value, S.u),
            S.f_v: differentiate(f_value, S.v), S.f_w: differentiate(f_value, S.w)}


def resolve_f(e, f_value):
    """Replace the formal profile and its partials by a concrete profile
    in an expression tree, the profile checked as the program checks it."""
    sy._check_profile(f_value)
    return substitute(e, profile_values(f_value))


# --- the expression-tree derivation -------------------------------------------
#
# X, pr X and D_i as (symbol, expression) pairs applied to expression trees,
# each result normalized as a whole: the route the program took before its
# derivation moved to normal forms, kept as the oracle of that one.


def tree_derivation(field, e):
    return add(*(mul(c, differentiate(e, s)) for s, c in field))


def tree_field(gen: GeneratorField) -> tuple:
    return tuple(zip(BASE_SYMBOLS, gen))


def tree_total_derivative(e, axis):
    field = ((axis, 1),) + tuple(
        (REGISTRY.by_name[dep], jet_symbol(dep, axis.name)) for dep in DEPS)
    return tree_derivation(field, e)


def tree_prolongation(gen: GeneratorField) -> tuple:
    base = (gen.zeta, gen.eta, gen.theta)
    comps = {"u": gen.phi, "v": gen.lam, "w": gen.psi}
    d_base = {ax: [tree_total_derivative(c, REGISTRY.by_name[ax]) for c in base]
              for ax in AXES}
    jets = []
    for dep in DEPS:
        for ax in AXES:
            axis = REGISTRY.by_name[ax]
            terms = [tree_total_derivative(comps[dep], axis)]
            for ax2, d in zip(AXES, d_base[ax]):
                terms.append(neg(mul(jet_symbol(dep, ax2), d)))
            jets.append((jet_symbol(dep, ax), normal_expression(add(*terms))))
    return tree_field(gen) + tuple(jets)


def tree_invariance_residuals(system, gen: GeneratorField) -> list:
    pr = tree_prolongation(gen)
    return [substitute(tree_derivation(pr, d), system.eliminate)
            for d in system.residuals]


def _tree_conditions(polys, f_value=None) -> list:
    seen = {}
    for p in polys:
        if f_value is not None:
            p = as_ratform(resolve_f(p.to_expression(), f_value)).num
        if not p.is_zero():
            eq = p.monic()
            seen.setdefault(_poly_key(eq), eq)
    return [seen[k] for k in sorted(seen)]


def tree_determining_polys(system, gen: GeneratorField | None = None) -> list:
    gen = sy.generic_generator() if gen is None else gen
    coefs = [coef for resid in tree_invariance_residuals(system, gen)
             for coef in collect_poly(as_ratform(resid).num, system.free_jets).values()]
    return _tree_conditions(_tree_conditions(coefs), system.f_value)


def tree_bracket(a: GeneratorField, b: GeneratorField) -> GeneratorField:
    fa, fb = tree_field(a), tree_field(b)
    return GeneratorField(*(
        normal_expression(tree_derivation(fa, cb) - tree_derivation(fb, ca))
        for ca, cb in zip(a, b)))


# --- determining equations against a concrete generator -------------------------


def formal_substitution(gen: GeneratorField, f_value=None) -> dict:
    """Map the formal coefficient symbols (and their partials, and the
    formal profile if `f_value` is given) to a concrete generator."""
    out = {sym: gen[idx] if var is None else differentiate(gen[idx], var)
           for sym, (idx, var) in sy._SLOT_MAP.items()}
    if f_value is not None:
        out |= profile_values(f_value)
    return out


def annihilates(equations, gen: GeneratorField, f_value=None) -> bool:
    """Whether every equation vanishes identically under the substitution of
    a concrete generator (and optionally a concrete profile)."""
    sub = formal_substitution(gen, f_value)
    return all(is_zero_expr(substitute(e, sub)) for e in equations)


# --- field solutions and reductions --------------------------------------------


def magnitude_squared(sol):
    return solutions._normalized(sol.u**2 + sol.v**2 + sol.w**2)


def solutions_equal(a, b) -> bool:
    """Componentwise normalized identity (parameters left symbolic)."""
    return all(equal_exprs(ca, cb) for ca, cb in zip(a.components(), b.components()))


def numeric_field_from_solution(sol):
    """Float evaluator (x, y, z) -> (u, v, w) of the exact field;
    compile_numeric raises EvalError for a free symbol other than x, y, z."""
    fns = [compile_numeric(c, [S.x, S.y, S.z]) for c in sol.components()]

    def evaluator(x, y, z):
        return tuple(fn(x, y, z) for fn in fns)

    return evaluator


def solutions_close(a, b, samples: int = 40, tol: float = 1e-9, seed: int = 0) -> bool:
    """Numeric comparison of two fields free of parameters on random
    points."""
    fa = numeric_field_from_solution(a)
    fb = numeric_field_from_solution(b)
    rng = random.Random(seed)
    for _ in range(samples):
        p = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        va, vb = fa(*p), fb(*p)
        if max(abs(x - y) for x, y in zip(va, vb)) > tol:
            return False
    return True


def exact_translation_profile() -> dict:
    return {S.g: parse("sin(z)"), S.h: parse("cos(z)")}


def ode_residuals(ode, profile: dict) -> list:
    """profile maps each state symbol to an expression in the independent
    variable; returns d(state)/d(indep) - rhs, normalized."""
    out = []
    for s, rhs in zip(ode.state, ode.rhs):
        lhs = differentiate(profile[s], ode.independent)
        out.append(solutions._normalized(lhs - substitute(rhs, profile)))
    return out
