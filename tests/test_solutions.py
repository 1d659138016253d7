"""Field solutions: residuals, transform families, reductions, numerics."""

import json
import math
import numbers
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from curlsym import solutions
from curlsym.expr import (
    REGISTRY,
    EvalError,
    Expr,
    Num,
    ParseError,
    S,
    compile_numeric,
    decide_zero,
    equal_exprs,
    exp,
    free_symbols,
    neg,
    parse,
    sqrt,
    substitute,
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
    integrate_ode,
    numeric_residuals,
    reconstruct_field,
    reduce_system,
    residual_expressions,
    solution_table_csv,
    solution_table_json,
    transform,
    translation_convergence_ratio,
    verify_solution_residuals,
)

from reference import (
    exact_translation_profile,
    magnitude_squared,
    numeric_field_from_solution,
    ode_residuals,
    solutions_close,
    solutions_equal,
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
    mag = sqrt(magnitude_squared(B2))
    assert equal_exprs(mag, parse("4/(1 + x^2 + y^2 + z^2)"))
    # the fourth residual is the divergence u_x + v_y + w_z
    assert equal_exprs(residual_expressions(B2)[3],
                       parse("8*z/(1 + x^2 + y^2 + z^2)^2"))
    assert equal_exprs(residual_expressions(B1)[3], parse("0"))


def test_residual_expression_count_and_alias():
    assert len(residual_expressions(B1)) == 4
    for system in ("curl", "curl-f", "curl-absB"):
        check = verify_solution_residuals(B1, system)
        assert (check.system, len(check.displays), check.divergence) == (
            "curl", 3, (True, "symbolic"))
    assert verify_solution_residuals(B1, "blair").divergence is None
    with pytest.raises(ValueError) as exc:
        verify_solution_residuals(B1, "torsion")
    assert str(exc.value) == ("unknown system 'torsion'; expected one of "
                              "['blair', 'curl', 'curl-absB', 'curl-f']")


@pytest.mark.parametrize("name, family, eps", [
    *((name, None, None) for name in ("B1", "B2", "zero")),
    *(("B2", family, eps) for family in range(1, 8) for eps in ("0.4", "eps")),
])
def test_curl_divergence_is_the_fourth_blair_residual(name, family, eps, monkeypatch):
    """The curl check decides the divergence in its one residual loop, with
    the verdict and mode that the blair check gives its fourth residual."""
    sol = BUILTIN_SOLUTIONS[name]
    if family is not None:
        sol = transform(sol, family, S.eps if eps == "eps" else Fraction(eps))
    calls = []

    def spy(e, **kw):
        try:
            got = decide_zero(e, **kw)
        except EvalError:
            calls.append((None, "numeric"))
            raise
        calls.append(got[:2])
        return got

    monkeypatch.setattr(solutions, "decide_zero", spy)
    blair = verify_solution_residuals(sol, "blair")
    blair_calls, calls[:] = calls[:], []
    curl = verify_solution_residuals(sol, "curl-absB")
    assert len(blair_calls) == len(calls) == 4
    assert curl.divergence == blair_calls[3] and curl.divergence[1] == blair.modes[3]
    assert (curl.ok, curl.modes, curl.displays) == (
        all(ok for ok, _ in blair_calls[:3]), blair.modes[:3], blair.displays[:3])


def test_builtin_registry():
    assert set(BUILTIN_SOLUTIONS) == {"B1", "B2", "zero"}


# --- transform families -----------------------------------------------------


def test_family2_matches_reference_form():
    t = transform(B1, 2, S.eps)
    assert equal_exprs(t.u, parse("sin(a*z - b*y)"))
    assert equal_exprs(t.v, parse("a*cos(a*z - b*y)"))
    assert equal_exprs(t.w, parse("b*cos(a*z - b*y)"))
    assert equal_exprs(magnitude_squared(t), parse("1"))


def test_family3_output_is_unit_solution():
    # the in-plane rotation of the transverse field: components
    # (a sin(az-bx), cos(az-bx), b sin(az-bx)); note the third component
    # carries sin, which is what the construction itself produces
    t = transform(B1, 3, S.eps)
    assert equal_exprs(t.u, parse("a*sin(a*z - b*x)"))
    assert equal_exprs(t.v, parse("cos(a*z - b*x)"))
    assert equal_exprs(t.w, parse("b*sin(a*z - b*x)"))
    assert equal_exprs(magnitude_squared(t), parse("1"))
    assert verify_solution_residuals(t, "blair").ok


def test_family7_scaling_form():
    t = transform(B1, 7, S.eps)
    assert equal_exprs(t.u, parse("exp(-eps)*sin(exp(-eps)*z)"))
    assert equal_exprs(t.v, parse("exp(-eps)*cos(exp(-eps)*z)"))
    assert equal_exprs(t.w, parse("0"))
    assert equal_exprs(magnitude_squared(t), parse("exp(-eps)^2"))


@pytest.mark.parametrize("eps", [0.4, S.eps], ids=["0.4", "eps"])
def test_family7_divergence_of_b2_is_decided_exactly(eps):
    # its numerator's only opaque atoms are exp units of constant or eps
    # arguments, such as exp(-14/5), exp(-2) and exp(-6/5) at 0.4
    div = residual_expressions(transform(B2, 7, eps))[3]
    assert decide_zero(div) == (False, "symbolic", None)


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


def test_numeric_eps_rotates_by_an_exact_point_on_the_unit_circle():
    t = transform(B1, 2, 0.3)
    assert t.bindings == ()
    # the point is rational, exactly on the circle, at the angle 0.3
    tan = _simplest_rounding_to(math.tan(0.15))
    assert float(tan) == math.tan(0.15)
    a, b = (1 - tan**2) / (1 + tan**2), 2 * tan / (1 + tan**2)
    assert a**2 + b**2 == 1
    assert math.isclose(math.atan2(b, a), 0.3, rel_tol=0, abs_tol=1e-15)
    symbolic = transform(B1, 2, S.eps)
    at = {S.a: Num(a), S.b: Num(b)}
    assert solutions_equal(t, FieldSolution(*(substitute(c, at)
                                              for c in symbolic.components())))


def test_numeric_transforms_leave_no_parameter_to_parse():
    # `test_transform_matches_the_reference` checks that a number adds no
    # symbol; eps2 was the first one a numeric translation once added
    for family in range(1, 8):
        transform(B1, family, 0.4)
    with pytest.raises(ParseError):
        parse("eps2")


def test_rotated_field_at_a_number_has_exactly_unit_magnitude():
    t = transform(B1, 2, 0.4)
    assert magnitude_squared(t) == Num(1)
    assert verify_solution_residuals(t, "blair").modes == ("symbolic",) * 4


def test_unit_pair_is_sampled_on_its_circle():
    # sqrt(1+x^2)/sqrt(1+x^2) keeps the residuals opaque, so they are
    # sampled; a and b drawn apart, off their circle, once read 4.4
    f = parse("sin(z)*sqrt(1+x^2)/sqrt(1+x^2)")
    sol = FieldSolution(f, parse("cos(z)"), parse("0"), label="F")
    for family in (1, 2, 3):
        check = verify_solution_residuals(transform(sol, family, S.eps), "blair")
        assert check.ok, (family, check.displays)
        assert "numeric" in check.modes


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


def test_rotation_past_float_range_is_a_value_error():
    # tan(eps/2) needs eps as a float; a translation or scaling does not
    for family in (1, 2, 3):
        for eps, power in ((Fraction(10**400), 400), (Fraction(-3 * 10**400, 7), 399)):
            with pytest.raises(ValueError, match=rf"not \|eps\| >= 10\^{power}$"):
                transform(B1, family, eps)
    assert transform(B1, 4, Fraction(10**400)).label == "B1~4"


def _simplest_inside(lo, hi):
    """The Stern-Brocot walk from 0/1 and 1/0 to the first mediant strictly
    between lo and hi, 0 <= lo < hi, each run of steps to one side taken at
    once: the reference for the program's continued-fraction descent."""
    (p0, q0), (p1, q1) = (0, 1), (1, 0)
    while True:
        p, q = p0 + p1, q0 + q1
        if p <= lo * q:  # the left end moves right while it stays <= lo
            k = math.floor((lo * q0 - p0) / (p1 - lo * q1))
            p0, q0 = p0 + k * p1, q0 + k * q1
        elif p >= hi * q:  # the right end moves left while it stays >= hi
            k = math.floor((p1 - hi * q1) / (hi * q0 - p0))
            p1, q1 = p1 + k * p0, q1 + k * q0
        else:
            return Fraction(p, q)


def _simplest_rounding_to(x):
    """The simplest rational strictly inside the interval of the reals that
    round to the float x."""
    lo, hi = ((Fraction(x) + Fraction(math.nextafter(x, to))) / 2
              for to in (-math.inf, math.inf))
    if lo < 0 < hi:
        return Fraction(0)
    return _simplest_inside(lo, hi) if lo >= 0 else -_simplest_inside(-hi, -lo)


def _brute_simplest(lo, hi):
    """The first p/q strictly between lo and hi, q counting up from 1."""
    q = 1
    while (p := math.floor(lo * q) + 1) >= hi * q:
        q += 1
    return Fraction(p, q)


_small_fractions = st.builds(Fraction, st.integers(0, 60), st.integers(1, 12))


@settings(max_examples=200, deadline=None)
@given(_small_fractions, _small_fractions)
def test_simplest_rational_between_two_bounds(lo, hi):
    lo, hi = sorted((lo, hi))
    if lo == hi:
        hi += Fraction(1, 13)
    want = _brute_simplest(lo, hi)
    assert solutions._simplest_between(lo, hi) == _simplest_inside(lo, hi) == want
    assert lo < want < hi


@pytest.mark.parametrize("eps, digits", [(0.3, 11), (0.4, 9), (1.0, 9), (2.5, 9),
                                         (-0.4, 9), (0.0, 1), (6.0, 10)])
def test_rotation_point_is_the_simplest_rational_of_the_float(eps, digits):
    # Fraction(tan(eps/2)) has denominators of 17, 16, 16 and 15 digits
    # at the first four
    x = math.tan(eps / 2)
    t = solutions._simplest_rounding_to(x)
    assert t == _simplest_rounding_to(x)
    assert float(t) == x
    assert len(str(t.denominator)) == digits


def test_chained_rotations_print_short_integers():
    # with t = Fraction(tan(eps/2)) the longest integer had 66 digits
    field = transform(transform(B1, 2, 0.3), 2, 0.4)
    text = " ".join(to_string(c) for c in field.components())
    assert max(len(d) for d in re.findall(r"\d+", text)) <= 40


def _reference_transform(sol, family, eps):
    """The reference transform, written out per family kind with its axes
    looked up by name, and with a shortcut at eps = 0 that the program does
    not take.  A number is the exact rational Fraction(eps); a rotation by
    one takes (cos, sin) of it as the rational point of t, the simplest
    rational that rounds to the float tan(eps/2)."""
    comps = sol.components()
    suffix = f"{sol.label or 'field'}~{family}"
    value = None
    if isinstance(eps, Num):
        value = Fraction(eps.val)
    elif isinstance(eps, numbers.Real) and not isinstance(eps, Expr):
        value = Fraction(eps)

    if family in (1, 2, 3):
        names = {1: ("x", "y"), 2: ("y", "z"), 3: ("x", "z")}[family]
        ax1, ax2 = (REGISTRY.by_name[n] for n in names)
        i1 = ("x", "y", "z").index(ax1.name)
        i2 = ("x", "y", "z").index(ax2.name)
        if value == 0:
            ca, sb = Num(Fraction(1)), Num(Fraction(0))
        elif value is not None:
            t = _simplest_rounding_to(math.tan(float(value) / 2))
            ca, sb = Num((1 - t * t) / (1 + t * t)), Num(2 * t / (1 + t * t))
        else:
            ca, sb = REGISTRY.unit_pair_avoiding(
                set().union(*map(free_symbols, comps)))
        sigma = {ax1: ca * ax1 + sb * ax2, ax2: -sb * ax1 + ca * ax2}
        rotated = [substitute(c, sigma) for c in comps]
        out = list(rotated)
        out[i1] = ca * rotated[i1] - sb * rotated[i2]
        out[i2] = sb * rotated[i1] + ca * rotated[i2]
    elif family in (4, 5, 6):
        axis = REGISTRY.by_name[{4: "x", 5: "y", 6: "z"}[family]]
        shift = eps if value is None else Num(value)
        out = [substitute(c, {axis: axis - shift}) for c in comps]
    else:
        k = Num(1) if value == 0 else exp(neg(eps if value is None else Num(value)))
        sigma = {S.x: k * S.x, S.y: k * S.y, S.z: k * S.z}
        out = [k * substitute(c, sigma) for c in comps]

    out = [solutions._normalized(c) for c in out]
    return FieldSolution(out[0], out[1], out[2], label=suffix)


def _added_symbols(fn, *args):
    """fn(*args) and the symbols it added to the registry, in order."""
    before = set(REGISTRY.by_name)
    out = fn(*args)
    return out, [s for n, s in REGISTRY.by_name.items() if n not in before]


# the numbers include a `Num`, which enters as an exact rational like the rest
_DIFF_EPS = {
    "0": 0, "0.0": 0.0, "Fraction(0)": Fraction(0), "Num(0)": Num(Fraction(0)),
    "0.4": 0.4, "Num(1/2)": Num(Fraction(1, 2)),
    "eps": S.eps, "eps+1": S.eps + 1,
}


@pytest.mark.parametrize("source", ["B1", "B2", "B1~2", "B1~2(eps)"])
@pytest.mark.parametrize("eps_id", list(_DIFF_EPS))
@pytest.mark.parametrize("family", range(1, 8))
def test_transform_matches_the_reference(family, eps_id, source):
    # B1~2 at 0.3 holds rationals only; B1~2 at eps holds a and b, so a
    # rotation at a symbolic eps takes a fresh pair
    sol = {"B1~2": lambda: transform(B1, 2, 0.3),
           "B1~2(eps)": lambda: transform(B1, 2, S.eps)}.get(
               source, lambda: BUILTIN_SOLUTIONS[source])()
    eps = _DIFF_EPS[eps_id]
    want, want_new = _added_symbols(_reference_transform, sol, family, eps)
    got, got_new = _added_symbols(transform, sol, family, eps)
    assert got.label == want.label
    assert got.bindings == ()
    assert len(got_new) == len(want_new)
    if not isinstance(eps, Expr) or isinstance(eps, Num):
        assert got_new == []
    # each call allocates its own fresh unit pair; compare under one name
    rename = dict(zip(got_new, want_new))
    got = FieldSolution(*(substitute(c, rename) for c in got.components()))
    assert solutions_equal(got, want)


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
    # the initial slope plus four evaluations per step: 100 steps make 401
    # calls of the one compiled right-hand side, not 501
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
    assert calls[0] == 401

    # the reference loop compiles each component on its own and evaluates
    # k1 afresh: five evaluations per step
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
    assert list(table.points) == ts
    assert list(table.states) == ys
    assert list(table.slopes) == ss


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
    # while g stays 1: a NaN in the second component, which max() would skip.
    # The NaN node is not stored; the table ends at the last finite one
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
    assert len(table.points) == 1
    assert table.final_state() == (1.0, 1e5)


def test_final_step_lands_on_endpoint():
    ode = reduce_system("translation")
    table = integrate_ode(ode, (0.0, 1.0), (0.0, 0.0105), 1e-3)
    assert abs(table.points[-1] - 0.0105) < 1e-12


# --- reconstruction ---------------------------------------------------------


@pytest.fixture(scope="module")
def rotation_table():
    ode = reduce_system("rotation")
    return integrate_ode(ode, (0.0, 1.0), (0.01, 3.0), 1e-3)


@pytest.fixture(scope="module")
def rotation_field(rotation_table):
    return reconstruct_field(rotation_table)


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


def test_profile_norm_decays_outward(rotation_table):
    # d/dr (beta^2 + gamma^2)/2 = -beta^2/r <= 0 along the profile
    norms = [b * b + g * g for b, g in rotation_table.states]
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
