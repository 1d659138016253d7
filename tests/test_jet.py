"""Prolongation tests: the two construction routes must agree exactly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import curlsym
from curlsym.expr import ExprError, S, is_zero_expr, parse
from curlsym.jet import (
    GeneratorField,
    OrderOverflow,
    first_prolongation,
    generator_from_strings,
    jet_symbol,
    total_derivative,
)


def _routes_agree(gen: GeneratorField):
    a = first_prolongation(gen, route="dform").jet_coefficients
    b = first_prolongation(gen, route="explicit").jet_coefficients
    assert set(a) == set(b)
    for j in a:
        assert is_zero_expr(a[j] - b[j]), f"routes disagree on {j.name}"


def test_generator_rejects_jet_coefficients():
    with pytest.raises(ExprError):
        GeneratorField(S.u_x, 0, 0, 0, 0, 0)


def test_total_derivative_point_function():
    e = S.x * S.u
    d = total_derivative(e, S.x)
    assert is_zero_expr(d - (S.u + S.x * S.u_x))
    d2 = total_derivative(S.v, S.z)
    assert is_zero_expr(d2 - S.v_z)


def test_total_derivative_order_overflow():
    with pytest.raises(OrderOverflow):
        total_derivative(S.u_x, S.x)


def test_prolongation_of_translation_is_trivial():
    gen = GeneratorField(1, 0, 0, 0, 0, 0)
    pr = first_prolongation(gen)
    assert all(is_zero_expr(c) for c in pr.jet_coefficients.values())


def test_prolongation_of_dilation_scales_jets():
    # (x, y, z, -u, -v, -w): each first jet picks up factor -2
    gen = generator_from_strings(["x", "y", "z", "-u", "-v", "-w"])
    pr = first_prolongation(gen)
    for j, c in pr.jet_coefficients.items():
        assert is_zero_expr(c + 2 * j)


def test_prolongation_of_axis_rotation():
    # (-y, x, 0, -v, u, 0)
    gen = generator_from_strings(["-y", "x", "0", "-v", "u", "0"])
    pr = first_prolongation(gen)
    c = pr.jet_coefficients
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
    lhs = gen.apply(e1 * e2)
    rhs = gen.apply(e1) * e2 + e1 * gen.apply(e2)
    assert is_zero_expr(lhs - rhs)


def test_generator_linear_algebra():
    g1 = generator_from_strings(["1", "0", "0", "0", "0", "0"])
    g2 = generator_from_strings(["0", "1", "0", "0", "0", "0"])
    combo = g1.scale(3) + g2.scale(-2)
    assert is_zero_expr(combo.zeta - 3)
    assert is_zero_expr(combo.eta + 2)
    assert (combo - combo).is_zero()


def test_prolonged_apply_matches_manual():
    gen = generator_from_strings(["0", "0", "1", "0", "0", "0"])  # d/dz
    pr = first_prolongation(gen)
    # residual-shaped expression: w_y - v_z - u*f has no explicit z
    e = S.w_y - S.v_z - S.u * S.f
    assert is_zero_expr(pr.apply(e))
    e2 = S.z * S.u_x
    assert is_zero_expr(pr.apply(e2) - S.u_x)
