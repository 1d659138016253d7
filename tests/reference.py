"""Reference helpers that several test files share and no command needs:
the jet symbols in order, generator arithmetic, annihilation of determining equations by a concrete
generator, and comparisons of field solutions.

The test files import this module by name, as pytest puts `tests/` on
the path.
"""

import random

from curlsym import solutions
from curlsym import symmetry as sy
from curlsym.expr import (
    S,
    _as_expr,
    add,
    compile_numeric,
    differentiate,
    equal_exprs,
    is_zero_expr,
    mul,
    parse,
    substitute,
)
from curlsym.jet import GeneratorField, jet_symbol

# the nine first jets u_x, u_y, u_z, v_x, ..., w_z
JET_SYMBOLS = tuple(jet_symbol(d, a) for d in "uvw" for a in "xyz")


# --- generator arithmetic -----------------------------------------------------


def add_fields(a: GeneratorField, b: GeneratorField) -> GeneratorField:
    return GeneratorField(*[add(x, y) for x, y in zip(a.as_tuple(), b.as_tuple())])


def scale_field(g: GeneratorField, c) -> GeneratorField:
    c = _as_expr(c)
    return GeneratorField(*[mul(c, t) for t in g.as_tuple()])


def sub_fields(a: GeneratorField, b: GeneratorField) -> GeneratorField:
    return add_fields(a, scale_field(b, -1))


def field_is_zero(g: GeneratorField) -> bool:
    return all(is_zero_expr(c) for c in g.as_tuple())


def fields_equal(a: GeneratorField, b: GeneratorField) -> bool:
    return field_is_zero(sub_fields(a, b))


# --- determining equations against a concrete generator -------------------------


def formal_substitution(gen: GeneratorField, f_value=None) -> dict:
    """Map the formal coefficient symbols (and their partials, and the
    formal profile if `f_value` is given) to a concrete generator."""
    coeffs = gen.as_tuple()
    out = {sym: coeffs[idx] if var is None else differentiate(coeffs[idx], var)
           for sym, (idx, var) in sy._SLOT_MAP.items()}
    if f_value is not None:
        out |= sy._profile_values(f_value)
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
    compile_numeric raises EvalError for a free symbol other than x, y, z
    and the bound parameters."""
    bindings = sol.binding_map()
    params = sorted(bindings, key=lambda s: s.order)
    args = [S.x, S.y, S.z] + params
    fns = [compile_numeric(c, args) for c in sol.components()]
    vals = [bindings[p] for p in params]

    def evaluator(x, y, z):
        return tuple(fn(x, y, z, *vals) for fn in fns)

    return evaluator


def solutions_close(a, b, samples: int = 40, tol: float = 1e-9, seed: int = 0) -> bool:
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
