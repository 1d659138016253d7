"""Field solutions: residuals, transform families, reductions, numerics."""

import json
import math

import pytest

from curlsym import solutions
from curlsym.expr import (
    EvalError,
    S,
    compile_numeric,
    decide_zero,
    equal_exprs,
    parse,
    sqrt,
    to_string,
)
from curlsym.solutions import (
    B1,
    B2,
    BUILTIN_SOLUTIONS,
    FieldSolution,
    ReducedOde,
    ZERO_FIELD,
    annulus_sample_points,
    exact_translation_profile,
    integrate_ode,
    numeric_field_from_solution,
    numeric_residuals,
    ode_residuals,
    reconstruct_field,
    reduce_system,
    residual_expressions,
    solution_table_csv,
    solution_table_json,
    solutions_close,
    solutions_equal,
    transform,
    translation_convergence_ratio,
    verify_solution_residuals,
)


# --- built-in solutions -----------------------------------------------------


def test_builtin_residuals_symbolic_zero():
    for sol, system, count in ((B1, "blair", 4), (B2, "curl", 3), (ZERO_FIELD, "blair", 4)):
        check = verify_solution_residuals(sol, system)
        assert check.ok, (sol.label, check.displays)
        assert check.modes == ("symbolic",) * count
        assert check.displays == ("0",) * count


def test_second_field_fails_divergence():
    check = verify_solution_residuals(B2, "blair")
    assert not check.ok
    # the three curl residuals vanish; only the divergence survives
    assert check.displays[:3] == ("0", "0", "0")
    assert check.displays[3] != "0"


def test_second_field_magnitude_and_divergence():
    mag = sqrt(B2.magnitude_squared())
    assert equal_exprs(mag, parse("4/(1 + x^2 + y^2 + z^2)"))
    assert equal_exprs(B2.divergence(), parse("8*z/(1 + x^2 + y^2 + z^2)^2"))
    assert equal_exprs(B1.divergence(), parse("0"))


def test_residual_expression_count_and_alias():
    assert len(residual_expressions(B1, "curl")) == 3
    assert len(residual_expressions(B1, "curl-absB")) == 3
    assert len(residual_expressions(B1, "blair")) == 4
    with pytest.raises(ValueError):
        residual_expressions(B1, "torsion")


def test_builtin_registry():
    assert set(BUILTIN_SOLUTIONS) == {"B1", "B2", "zero"}


# --- transform families -----------------------------------------------------


def test_family2_matches_reference_form():
    t = transform(B1, 2, S.eps)
    assert equal_exprs(t.u, parse("sin(a*z - b*y)"))
    assert equal_exprs(t.v, parse("a*cos(a*z - b*y)"))
    assert equal_exprs(t.w, parse("b*cos(a*z - b*y)"))
    assert equal_exprs(t.magnitude_squared(), parse("1"))


def test_family3_output_is_unit_solution():
    # the in-plane rotation of the transverse field: components
    # (a sin(az-bx), cos(az-bx), b sin(az-bx)); note the third component
    # carries sin, which is what the construction itself produces
    t = transform(B1, 3, S.eps)
    assert equal_exprs(t.u, parse("a*sin(a*z - b*x)"))
    assert equal_exprs(t.v, parse("cos(a*z - b*x)"))
    assert equal_exprs(t.w, parse("b*sin(a*z - b*x)"))
    assert equal_exprs(t.magnitude_squared(), parse("1"))
    assert verify_solution_residuals(t, "blair").ok


def test_family7_scaling_form():
    t = transform(B1, 7, S.eps)
    assert equal_exprs(t.u, parse("exp(-eps)*sin(exp(-eps)*z)"))
    assert equal_exprs(t.v, parse("exp(-eps)*cos(exp(-eps)*z)"))
    assert equal_exprs(t.w, parse("0"))
    assert equal_exprs(t.magnitude_squared(), parse("exp(-eps)^2"))


def test_translation_families_fix_first_field():
    assert solutions_equal(transform(B1, 4, S.eps), B1)
    assert solutions_equal(transform(B1, 5, S.eps), B1)
    assert not solutions_equal(transform(B1, 6, S.eps), B1)


def test_rotation_family1_fixes_second_field():
    assert solutions_equal(transform(B2, 1, S.eps), B2)


@pytest.mark.parametrize("family", range(1, 8))
def test_identity_at_zero(family):
    assert solutions_equal(transform(B1, family, 0), B1)
    assert solutions_equal(transform(B2, family, 0), B2)


@pytest.mark.parametrize("family", range(1, 8))
@pytest.mark.parametrize("eps", [0.2, 1.0])
def test_closure_under_every_family(family, eps):
    tb1 = transform(B1, family, eps)
    assert verify_solution_residuals(tb1, "blair").ok
    tb2 = transform(B2, family, eps)
    assert verify_solution_residuals(tb2, "curl").ok


def test_symbolic_transforms_stay_symbolic():
    for family in (2, 3, 7):
        check = verify_solution_residuals(transform(B1, family, S.eps), "blair")
        assert check.ok
        assert set(check.modes) == {"symbolic"}


def test_group_law_translation_and_scaling():
    for family in (4, 5, 6, 7):
        twice = transform(transform(B1, family, S.C1), family, S.C2)
        once = transform(B1, family, S.C1 + S.C2)
        assert solutions_equal(twice, once), family


def test_group_law_rotation_numeric():
    twice = transform(transform(B1, 2, 0.2), 2, 0.3)
    once = transform(B1, 2, 0.5)
    assert solutions_close(twice, once)
    # and for the rational field under the z-axis rotation
    twice2 = transform(transform(B2, 1, 0.7), 1, 0.4)
    once2 = transform(B2, 1, 1.1)
    assert solutions_close(twice2, once2)


def test_numeric_eps_binds_unit_pair():
    t = transform(B1, 2, 0.3)
    binds = t.binding_map()
    assert len(binds) == 2
    vals = sorted(binds.values())
    assert vals == sorted((math.cos(0.3), math.sin(0.3)))


def test_exact_rational_eps_stays_exact_for_translation():
    from fractions import Fraction
    from curlsym.expr import Num

    t = transform(B1, 6, Num(Fraction(1, 2)))
    assert t.bindings == ()
    assert equal_exprs(t.u, parse("sin(z - 1/2)"))


def test_unbound_symbolic_field_rejected_numerically():
    with pytest.raises(EvalError):
        numeric_field_from_solution(transform(B1, 2, S.eps))


def test_field_with_unbound_radical_rejected_numerically():
    # R is sqrt(u^2 + v^2 + w^2), and a field in x, y, z has no u, v, w
    with pytest.raises(EvalError, match="R"):
        numeric_field_from_solution(FieldSolution(S.R * S.x, S.y, S.z))


def test_bad_family_index():
    with pytest.raises(ValueError):
        transform(B1, 0, 0.1)
    with pytest.raises(ValueError):
        transform(B1, 8, 0.1)


# --- reductions -------------------------------------------------------------


def test_translation_reduction_profile_is_exact():
    ode = reduce_system("translation")
    assert ode.independent is S.z
    assert ode.state == (S.g, S.h)
    res = ode_residuals(ode, exact_translation_profile())
    assert all(to_string(r) == "0" for r in res)


def test_translation_reduction_stationary_origin():
    ode = reduce_system("translation")
    zero = {S.g: parse("0"), S.h: parse("0")}
    res = ode_residuals(ode, zero)
    assert all(to_string(r) == "0" for r in res)


def test_rotation_reduction_rhs():
    ode = reduce_system("rotation")
    assert ode.independent is S.r
    assert ode.state == (S.beta, S.gamma)
    expected = (
        parse("gamma*sqrt(beta^2 + gamma^2) - beta/r"),
        parse("-beta*sqrt(beta^2 + gamma^2)"),
    )
    for got, want in zip(ode.rhs, expected):
        ok, _, _ = decide_zero(got - want, samples=30, tol=1e-9)
        assert ok


def test_unknown_reduction_kind():
    with pytest.raises(ValueError):
        reduce_system("helical")


# --- numeric integration ----------------------------------------------------


def test_rk4_translation_tracks_exact_solution():
    ode = reduce_system("translation")
    table = integrate_ode(ode, (0.0, 1.0), (0.0, 2 * math.pi), 1e-3)
    assert not table.blown_up
    worst = 0.0
    for t, (g, h) in zip(table.points, table.states):
        worst = max(worst, abs(g - math.sin(t)), abs(h - math.cos(t)))
    assert worst < 1e-8


def test_rk4_takes_k1_from_the_stored_slope(monkeypatch):
    # the initial slope plus four evaluations per step: 100 steps of the
    # two-component translation ODE make 802 evaluations, not 1,002
    calls = [0]

    def counting(e, args):
        fn = compile_numeric(e, args)

        def counted(*a):
            calls[0] += 1
            return fn(*a)
        return counted

    monkeypatch.setattr(solutions, "compile_numeric", counting)
    ode = reduce_system("translation")
    table = integrate_ode(ode, (0.0, 1.0), (0.0, 1.0), 1e-2)
    assert calls[0] == 802

    # the reference loop evaluates k1 afresh: five evaluations per step
    fns = [compile_numeric(e, list(ode.state) + [ode.independent]) for e in ode.rhs]

    def rhs(t, s):
        return tuple(fn(*s, t) for fn in fns)

    t, y = 0.0, (0.0, 1.0)
    ts, ys, ss = [t], [y], [rhs(t, y)]
    for i in range(100):
        tn = (i + 1) * 1e-2
        h = tn - t
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, tuple(yi + h / 2 * ki for yi, ki in zip(y, k1)))
        k3 = rhs(t + h / 2, tuple(yi + h / 2 * ki for yi, ki in zip(y, k2)))
        k4 = rhs(t + h, tuple(yi + h * ki for yi, ki in zip(y, k3)))
        y = tuple(yi + h / 6 * (a + 2 * b + 2 * c + d)
                  for yi, a, b, c, d in zip(y, k1, k2, k3, k4))
        t = tn
        ts.append(t)
        ys.append(y)
        ss.append(rhs(t, y))
    assert table.points.tolist() == ts
    assert [tuple(s) for s in table.states.tolist()] == ys
    assert [tuple(s) for s in table.slopes.tolist()] == ss


def test_rk4_convergence_order():
    ratio = translation_convergence_ratio()
    assert 12.0 <= ratio <= 20.0


def test_integration_argument_checks():
    ode = reduce_system("rotation")
    with pytest.raises(ValueError):
        integrate_ode(ode, (0.0, 1.0), (0.0, 1.0), 1e-3)  # r0 = 0 singular
    with pytest.raises(ValueError):
        integrate_ode(ode, (0.0, 1.0), (0.5, 0.5), 1e-3)  # empty span
    with pytest.raises(ValueError):
        integrate_ode(ode, (0.0, 1.0), (0.5, 1.0), 0.0)  # bad step
    for initial, span, step, name in [
        ((math.nan, 1.0), (0.5, 1.0), 1e-3, "initial"),
        ((0.0, 1.0), (0.5, math.inf), 1e-3, "span"),
        ((0.0, 1.0), (0.5, math.nan), 1e-3, "span"),
        ((0.0, 1.0), (0.5, 1.0), math.nan, "step"),
        ((0.0, 1.0), (0.5, 1.0), math.inf, "step"),
        # too many steps, refused before the targets are laid out
        ((0.0, 1.0), (0.5, 1.5), 5e-324, "steps"),
        ((0.0, 1.0), (1e-290, 2e-290), 1e-300, "steps"),
    ]:
        with pytest.raises(ValueError, match=name):
            integrate_ode(ode, initial, span, step)


def test_blowup_flag_truncates():
    quad = ReducedOde(
        kind="translation",
        independent=S.z,
        state=(S.g, S.h),
        rhs=(parse("g^2"), parse("0")),
        constraint="",
        ansatz="",
    )
    table = integrate_ode(quad, (2.0, 0.0), (0.0, 1.0), 1e-3)
    assert table.blown_up
    assert table.points[-1] < 1.0


def test_blowup_flag_catches_nan_state():
    # at g = 1 the slope of h is inf - inf, so h turns NaN in the first step
    # while g stays 1: a NaN in the second component, which max() would skip
    fast = ReducedOde(
        kind="translation",
        independent=S.z,
        state=(S.g, S.h),
        rhs=(parse("0"), parse("10^305*h - 10^305*g*h")),
        constraint="",
        ansatz="",
    )
    table = integrate_ode(fast, (1.0, 1e5), (0.0, 1.0), 0.5)
    assert table.blown_up
    assert len(table.points) == 2


def test_final_step_lands_on_endpoint():
    ode = reduce_system("translation")
    table = integrate_ode(ode, (0.0, 1.0), (0.0, 0.0105), 1e-3)
    assert abs(table.points[-1] - 0.0105) < 1e-12


# --- reconstruction ---------------------------------------------------------


@pytest.fixture(scope="module")
def rotation_field():
    ode = reduce_system("rotation")
    table = integrate_ode(ode, (0.0, 1.0), (0.01, 3.0), 1e-3)
    return reconstruct_field(table)


def test_reconstructed_field_residuals(rotation_field):
    pts = annulus_sample_points(40, rotation_field.r_range, seed=3)
    report = numeric_residuals(rotation_field, pts)
    assert report["max_curl"] < 1e-6
    assert report["max_div"] < 1e-8


def test_reconstructed_field_geometry(rotation_field):
    pts = annulus_sample_points(20, rotation_field.r_range, seed=5)
    for x, y, z in pts:
        u, v, w = rotation_field(x, y, z)
        assert abs(x * u + y * v) < 1e-12


def test_reconstruction_range_guard(rotation_field):
    with pytest.raises(ValueError):
        rotation_field(5.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        rotation_field(1e-4, 0.0, 0.0)


def test_reconstruction_requires_rotation_table():
    ode = reduce_system("translation")
    table = integrate_ode(ode, (0.0, 1.0), (0.0, 1.0), 1e-2)
    with pytest.raises(ValueError):
        reconstruct_field(table)


def test_profile_norm_decays_outward(rotation_field):
    # d/dr (beta^2 + gamma^2)/2 = -beta^2/r <= 0 along the profile
    table = rotation_field.table
    norms = (table.states**2).sum(axis=1)
    assert norms[0] >= norms[-1]
    assert all(norms[i] + 1e-12 >= norms[i + 1] for i in range(0, len(norms) - 1, 50))


def test_exact_field_evaluator_matches_expressions():
    f = numeric_field_from_solution(B2)
    u, v, w = f(0.3, -0.4, 0.8)
    s = 1 + 0.3**2 + 0.4**2 + 0.8**2
    assert abs(u - 8 * (0.3 * 0.8 + 0.4) / s**2) < 1e-14
    assert abs(v - 8 * (0.3 - 0.4 * 0.8) / s**2) < 1e-14
    assert abs(w - 4 * (1 + 0.8**2 - 0.3**2 - 0.4**2) / s**2) < 1e-14


def test_exact_field_numeric_residuals():
    f = numeric_field_from_solution(B2)
    pts = [(0.2, 0.1, -0.3), (1.0, -0.5, 0.7), (-0.8, 0.9, 0.4)]
    report = numeric_residuals(f, pts)
    assert report["max_curl"] < 1e-8


# --- exports ----------------------------------------------------------------


def test_table_csv_and_json_roundtrip(tmp_path):
    ode = reduce_system("translation")
    table = integrate_ode(ode, (0.0, 1.0), (0.0, 0.1), 1e-2)
    path = tmp_path / "profile.csv"
    solution_table_csv(table, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "z,g,h"
    assert len(lines) == len(table.points) + 1

    blob = json.dumps(solution_table_json(table), sort_keys=True)
    data = json.loads(blob)
    assert data["kind"] == "translation"
    assert data["state"] == ["g", "h"]
    assert len(data["points"]) == len(table.points)
    assert data["blown_up"] is False
