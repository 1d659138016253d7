"""Prolongation tests: the characteristic formula must agree exactly with
the nine expanded coefficient formulas kept here as the reference, and the
derivation on normal forms with the expression-tree route of
`reference.py`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import curlsym
from curlsym.expr import (
    BASE_SYMBOLS,
    ExprError,
    Num,
    S,
    _ONE_RF,
    _rat_key,
    _rat_to_expression,
    add,
    as_ratform,
    cos,
    differentiate,
    exp,
    is_zero_expr,
    mul,
    parse,
    pow_,
    sin,
)
from curlsym.jet import (
    GeneratorField,
    derivation,
    first_prolongation,
    generator_from_strings,
    jet_symbol,
    total_derivative,
)

from reference import (
    add_fields,
    field_is_zero,
    scale_field,
    sub_fields,
    tree_prolongation,
)


def _prolong_explicit(gen: GeneratorField) -> dict:
    """The nine first-jet coefficients written out, quadratic in jets."""
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


def _jet_coefficients(gen: GeneratorField) -> dict:
    pr = dict(first_prolongation(gen))
    return {j: _rat_to_expression(c) for j, c in pr.items() if j.kind == "jet"}


def _routes_agree(gen: GeneratorField):
    a = _jet_coefficients(gen)
    b = _prolong_explicit(gen)
    assert set(a) == set(b)
    for j in a:
        assert is_zero_expr(a[j] - b[j]), f"routes disagree on {j.name}"


def test_generator_rejects_jet_coefficients():
    with pytest.raises(ExprError):
        GeneratorField(S.u_x, 0, 0, 0, 0, 0)


def test_total_derivative_point_function():
    e = S.x * S.u
    d = _rat_to_expression(total_derivative(as_ratform(e), S.x))
    assert is_zero_expr(d - (S.u + S.x * S.u_x))
    d2 = _rat_to_expression(total_derivative(as_ratform(S.v), S.z))
    assert is_zero_expr(d2 - S.v_z)


def test_prolongation_of_translation_is_trivial():
    gen = GeneratorField(1, 0, 0, 0, 0, 0)
    assert all(is_zero_expr(c) for c in _jet_coefficients(gen).values())


def test_prolongation_of_dilation_scales_jets():
    # (x, y, z, -u, -v, -w): each first jet picks up factor -2
    gen = generator_from_strings(["x", "y", "z", "-u", "-v", "-w"])
    for j, c in _jet_coefficients(gen).items():
        assert is_zero_expr(c + 2 * j)


def test_prolongation_of_axis_rotation():
    # (-y, x, 0, -v, u, 0)
    gen = generator_from_strings(["-y", "x", "0", "-v", "u", "0"])
    c = _jet_coefficients(gen)
    assert is_zero_expr(c[S.u_x] - (-S.u_y - S.v_x))
    assert is_zero_expr(c[S.v_y] - (S.u_y + S.v_x))
    assert is_zero_expr(c[S.w_z])


def test_routes_agree_on_formal_generator():
    gen = GeneratorField(S.zeta, S.eta, S.theta, S.phi, S.lam, S.psi)
    _routes_agree(gen)


@pytest.mark.parametrize(
    "parts",
    [
        ["x*u", "y + z^2", "v*w", "u^2", "x*v", "w"],
        ["y*w", "u*v", "x^2 - z", "w^2 + x", "z*u", "v^2"],
        ["2*x*z", "2*y*z", "z^2 - x^2 - y^2",
         "2*(x*w - z*u)", "2*(y*w - z*v)", "-2*(x*u + y*v + z*w)"],
        ["x/(1+y^2)", "0", "0", "u*y", "0", "0"],
    ],
)
def test_routes_agree_on_concrete_generators(parts):
    _routes_agree(generator_from_strings(parts))


@pytest.mark.parametrize(
    "parts",
    [
        ["zeta", "eta", "theta", "phi", "lam", "psi"],
        ["x*u", "y + z^2", "v*w", "u^2", "x*v", "w"],
        ["-y", "x", "0", "-v", "u", "0"],
        ["x/(1+y^2)", "0", "0", "u*y", "0", "0"],
        ["R", "u/R", "exp(x - u)", "sin(y*w)", "a*x + b*y", "1/(u^2 + 1)"],
    ],
)
def test_prolongation_matches_the_expression_tree_route(parts):
    gen = GeneratorField(*map(parse, parts))
    got = first_prolongation(gen)
    want = tree_prolongation(gen)
    assert [s for s, _ in got] == [s for s, _ in want]
    assert ([_rat_key(c) for _, c in got]
            == [_rat_key(as_ratform(c)) for _, c in want])


_DIFF_LEAVES = [*BASE_SYMBOLS, S.R, S.a, S.b, S.eps]


def _random_expressions():
    """Sums, products and integer powers, negative ones too, of the base
    symbols, R, the unit pair a, b, eps and sin, cos or exp of such."""
    leaf = st.one_of(st.sampled_from(_DIFF_LEAVES), st.integers(-3, 3).map(Num))

    def arithmetic(parts, leaves):
        return st.recursive(parts, lambda children: st.one_of(
            st.tuples(children, children).map(lambda ab: add(*ab)),
            st.tuples(children, children).map(lambda ab: mul(*ab)),
            st.tuples(children, st.integers(-2, 3)).map(
                lambda bn: bn[0] if bn[0] == Num(0) else pow_(*bn)),
        ), max_leaves=leaves)

    atom = st.tuples(st.sampled_from((sin, cos, exp)), arithmetic(leaf, 3)).map(
        lambda fa: fa[0](fa[1]))
    return arithmetic(st.one_of(leaf, leaf, atom), 8)


@settings(max_examples=80, deadline=None)
@given(_random_expressions())
def test_normal_form_derivative_matches_the_tree_derivative(e):
    try:
        rf = as_ratform(e)
    except ExprError:
        assume(False)
    # along the independent symbols: R, a and b are tied to others by the
    # rewrites R^2 = u^2 + v^2 + w^2 and b^2 = 1 - a^2
    for s in (*BASE_SYMBOLS, S.eps):
        got = derivation(((s, _ONE_RF),), rf)
        want = as_ratform(differentiate(e, s))
        # equal as rational functions
        assert got.num * want.den == want.num * got.den, s.name


def test_prolongation_registers_no_symbols():
    """Prolongation leaves the symbol registry as it found it.  Checked in a
    fresh interpreter, so no earlier test has registered anything yet."""
    src = str(Path(curlsym.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "from curlsym.expr import REGISTRY\n"
        "from curlsym.jet import first_prolongation\n"
        "from curlsym.symmetry import generic_generator\n"
        "before = len(REGISTRY.by_name)\n"
        "first_prolongation(generic_generator())\n"
        "print(before, len(REGISTRY.by_name))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert after == before


def test_apply_is_a_derivation():
    gen = generator_from_strings(["-y", "x", "0", "-v", "u", "0"])
    e1, e2 = parse("x*u"), parse("y + w")
    X = gen.field()

    def apply(e):
        return _rat_to_expression(derivation(X, as_ratform(e)))

    assert is_zero_expr(apply(e1 * e2) - (apply(e1) * e2 + e1 * apply(e2)))


def test_generator_linear_algebra():
    g1 = generator_from_strings(["1", "0", "0", "0", "0", "0"])
    g2 = generator_from_strings(["0", "1", "0", "0", "0", "0"])
    combo = add_fields(scale_field(g1, 3), scale_field(g2, -2))
    assert is_zero_expr(combo.zeta - 3)
    assert is_zero_expr(combo.eta + 2)
    assert field_is_zero(sub_fields(combo, combo))


def test_prolonged_apply_matches_manual():
    gen = generator_from_strings(["0", "0", "1", "0", "0", "0"])  # d/dz
    pr = first_prolongation(gen)
    # residual-shaped expression: w_y - v_z - u*f has no explicit z
    e = S.w_y - S.v_z - S.u * S.f
    assert derivation(pr, as_ratform(e)).num.is_zero()
    e2 = S.z * S.u_x
    assert is_zero_expr(_rat_to_expression(derivation(pr, as_ratform(e2))) - S.u_x)
