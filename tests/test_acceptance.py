"""Acceptance suite: one test per criterion, each printing a verdict line.

Run `pytest -v tests/test_acceptance.py` to get a pass/fail line per
criterion from pytest itself; every test also prints
`[criterion N] PASS/FAIL - detail`, which pytest shows for failures.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from curlsym import fixtures, liealg, ratlin, solutions, symmetry
from curlsym.expr import (
    Num,
    S,
    compile_numeric,
    differentiate,
    equal_exprs,
    is_zero_expr,
    normal_expression,
    normalize,
    parse,
    substitute,
    to_string,
)
from curlsym.solutions import B1, B2

from reference import (
    JET_SYMBOLS,
    annihilates,
    exact_translation_profile,
    ode_residuals,
    resolve_f,
    solutions_equal,
)


def _check(n, ok, detail):
    print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def b10():
    return fixtures.load_basis(10)


@pytest.fixture(scope="module")
def b7():
    return fixtures.load_basis(7)


@pytest.fixture(scope="module")
def table10(b10):
    return liealg.structure_constants(b10)


@pytest.fixture(scope="module")
def table7(b7):
    return liealg.structure_constants(b7)


def test_criterion_01_determining_system_reproduction(b10):
    eqs = symmetry.determining_system(symmetry.curl_system(None))
    computed_ok = all(annihilates(eqs, g, f_value=S.R) for g in b10)
    dim = len(
        symmetry.solve_polynomial_ansatz(symmetry.curl_system(S.R), 2).generators
    )
    ref = fixtures.load_determining_fixture()
    reference_ok = all(annihilates(ref, g, f_value=S.R) for g in b10)
    _check(
        1,
        computed_ok and dim == 10 and reference_ok,
        f"all 10 generators annihilate the computed system: {computed_ok}; "
        f"degree-2 solution space dimension: {dim}; "
        f"all 10 annihilate the {len(ref)} reference equations: {reference_ok}",
    )


def test_criterion_02_symmetry_algebra_span(b10):
    res = symmetry.solve_polynomial_ansatz(symmetry.curl_system(S.R), 2)
    rows_c, rows_r = symmetry.sparse_rows(
        *([[normalize(c) for c in g] for g in gens]
          for gens in (res.generators, b10))
    )
    rank_c, rank_r = ratlin.rank(rows_c), ratlin.rank(rows_r)
    same = symmetry.generator_spans_equal(res.generators, b10)
    _check(
        2,
        len(res.generators) == 10 and rank_c == rank_r == 10 and same,
        f"stacked coefficient ranks computed/reference: {rank_c}/{rank_r}; "
        f"spans equal: {same}",
    )


def test_criterion_03_restricted_algebra(b7):
    system = symmetry.blair_system(S.R)
    res = symmetry.solve_polynomial_ansatz(system, 2)
    same = symmetry.generator_spans_equal(res.generators, b7)
    rejected = [
        not symmetry.verify_generator(system, g).ok
        for g in fixtures.load_basis(10)[7:]
    ]
    _check(
        3,
        len(res.generators) == 7 and same and all(rejected),
        f"dimension {len(res.generators)}; span equals reference: {same}; "
        f"X8,X9,X10 rejected: {rejected}",
    )


def test_criterion_04_structure_constants(table10, table7):
    jac = liealg.jacobi_check(table10) and liealg.jacobi_check(table7)
    spot = {
        "[X1,X2]": table10.entry_string(1, 2),
        "[X4,X7]": table10.entry_string(4, 7),
        "[X6,X8]": table10.entry_string(6, 8),
        "[X1,X4]": table10.entry_string(1, 4),
    }
    spot_ok = spot == {
        "[X1,X2]": "X3",
        "[X4,X7]": "X4",
        "[X6,X8]": "2*X7",
        "[X1,X4]": "-X5",
    }
    mismatches = liealg.table_mismatches(table10, fixtures.load_bracket_table())
    corrections = fixtures.load_bracket_corrections()
    pairs = sorted(m.pair for m in mismatches)
    documented_only = pairs == sorted(corrections) and all(
        m.computed == corrections[m.pair]
        for m in mismatches
    )
    _check(
        4,
        jac and spot_ok and documented_only,
        f"Jacobi both bases: {jac}; spot entries: {spot}; "
        f"mismatching cells {pairs} all on the documented list with the "
        f"recomputed values: {documented_only}",
    )


def test_criterion_05_adjoint_tables(table7):
    reference = fixtures.load_adjoint_table()
    rows = {i: liealg.adjoint_closed_form(table7, i) for i in range(1, 8)}
    closed_ok = True
    for i in range(1, 8):
        for j in range(1, 8):
            ref = reference[(i, j)]
            entry = rows[i][j - 1]
            closed_ok = closed_ok and len(entry) == len(ref) and all(
                map(equal_exprs, entry, ref))
    worst = 0.0
    for i, row in rows.items():
        fns = [[compile_numeric(c, [S.eps]) for c in coeffs] for coeffs in row]
        # -t*ad_i on coordinates: column l holds -t*[Xi, Xl]
        ad = table7.constants[i - 1]
        for t in (0.1, 0.5, 1.0):
            m = liealg.expm([[-t * float(ad[l][k]) for l in range(7)] for k in range(7)])
            numeric = list(zip(*m))
            for entry_fns, column in zip(fns, numeric):
                symbolic = [fn(t) for fn in entry_fns]
                worst = max(
                    worst, max(abs(a - b) for a, b in zip(symbolic, column))
                )
    _check(
        5,
        closed_ok and worst < 1e-9,
        f"all 49 closed forms match the stored tables: {closed_ok}; "
        f"max |closed-form - matrix-exponential| over eps in (0.1,0.5,1.0): "
        f"{worst:.2e}",
    )


def test_criterion_06_solutions_and_transforms():
    base1 = solutions.verify_solution_residuals(B1, "blair")
    base2 = solutions.verify_solution_residuals(B2, "curl")
    base_ok = (
        base1.ok
        and base2.ok
        and all(m == "symbolic" for m in base1.modes + base2.modes)
    )
    transformed_ok = all(
        solutions.verify_solution_residuals(
            solutions.transform(B1, k, S.eps), "blair"
        ).ok
        for k in (2, 3, 7)
    )
    fixed_ok = all(
        solutions_equal(solutions.transform(B1, k, S.eps), B1)
        for k in (4, 5)
    )
    rot_ok = solutions_equal(solutions.transform(B2, 1, S.eps), B2)
    _check(
        6,
        base_ok and transformed_ok and fixed_ok and rot_ok,
        f"symbolic zero residuals for the two base fields: {base_ok}; "
        f"families 2,3,7 of the first field stay solutions: {transformed_ok}; "
        f"families 4,5 fix it: {fixed_ok}; family 1 fixes the second: {rot_ok}",
    )


def test_criterion_07_reductions():
    ode = solutions.reduce_system("translation")
    exact_ok = all(
        is_zero_expr(r)
        for r in ode_residuals(ode, exact_translation_profile())
    )
    table = solutions.integrate_ode(ode, (0.0, 1.0), (0.0, 2 * math.pi), 1e-3)
    worst = max(
        max(abs(g - math.sin(t)), abs(h - math.cos(t)))
        for t, (g, h) in zip(table.points, table.states)
    )
    rode = solutions.reduce_system("rotation")
    rtable = solutions.integrate_ode(rode, (0.0, 1.0), (0.01, 3.0), 1e-4)
    field = solutions.reconstruct_field(rtable)
    pts = solutions.annulus_sample_points(100, field.r_range, seed=0)
    rep = solutions.numeric_residuals(field, pts)
    _check(
        7,
        exact_ok
        and worst < 1e-8
        and rep["max_curl"] < 1e-6
        and rep["max_div"] < 1e-6,
        f"exact profile residuals vanish: {exact_ok}; RK4 deviation over one "
        f"period: {worst:.2e}; reconstructed-field residuals at 100 points: "
        f"curl {rep['max_curl']:.2e}, div {rep['max_div']:.2e}",
    )


def test_criterion_08_profile_constraints(b7):
    cons = symmetry.f_constraints_from_group(b7)
    good = symmetry.verify_f(cons, S.R)
    rejected = [
        not symmetry.verify_f(cons, parse(s))
        for s in ("1", "u", "u^2 + v^2 + w^2")
    ]
    families = [symmetry.solve_f_family(cons, d) for d in (2, 3)]
    family_ok = all(
        len(fam) == 1 and equal_exprs(fam[0], S.R) for fam in families
    )
    _check(
        8,
        good and all(rejected) and family_ok,
        f"radial profile satisfies all four constraints: {good}; "
        f"1, u, u^2+v^2+w^2 rejected: {rejected}; solver returns exactly the "
        f"one-parameter radial family at degrees 2 and 3: {family_ok}",
    )


def _on_manifold_ranks(system, sol, n_points=100, seed=0):
    """Numeric rank of the residual Jacobian (all 15 jet-space coordinates)
    at random points lifted from an exact solution."""
    residuals = [resolve_f(r, system.f_value) for r in system.residuals]
    space = (S.x, S.y, S.z)
    variables = (*space, S.u, S.v, S.w, *JET_SYMBOLS)
    value_fns = [compile_numeric(c, list(space)) for c in sol.components()]
    jet_fns = [
        compile_numeric(differentiate(c, ax), list(space))
        for c in sol.components()
        for ax in space
    ]
    residual_fns = [
        compile_numeric(r, list(variables)) for r in residuals
    ]
    jacobian_fns = [
        [compile_numeric(differentiate(r, v), list(variables)) for v in variables]
        for r in residuals
    ]
    rng = random.Random(seed)
    ranks = set()
    worst_residual = 0.0
    for _ in range(n_points):
        pt = [rng.uniform(-2.0, 2.0) for _ in range(3)]
        coords = [*pt, *(f(*pt) for f in value_fns), *(f(*pt) for f in jet_fns)]
        worst_residual = max(
            worst_residual, max(abs(f(*coords)) for f in residual_fns)
        )
        jac = np.array([[fn(*coords) for fn in row] for row in jacobian_fns])
        ranks.add(int(np.linalg.matrix_rank(jac)))
    return ranks, worst_residual


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


def maximal_rank_check(system, samples: int = 1) -> int:
    """Minimum exact rank, over random rational on-manifold points, of the
    residual Jacobian with respect to all base and jet symbols.

    (u, v, w) is a scaled Pythagorean quadruple, so R = |(u, v, w)| is
    rational; the free jets, x, y, z and, when the system sets no profile,
    the formal profile symbols are small random fractions.  The
    eliminated jets are solved from the residuals, so every sample point
    satisfies the system exactly, and `ratlin.rank` takes the rank.  A set
    profile is put into the residuals and the elimination map first."""
    residuals, eliminate = system.residuals, system.eliminate
    if system.f_value is not None:
        residuals = [resolve_f(d, system.f_value) for d in residuals]
        eliminate = {j: resolve_f(e, system.f_value)
                     for j, e in eliminate.items()}
    variables = (S.x, S.y, S.z, S.u, S.v, S.w) + JET_SYMBOLS
    jacobian = [[differentiate(d, v) for v in variables] for d in residuals]
    rng = random.Random(1234)
    randomized = [S.x, S.y, S.z] + list(system.free_jets)
    if system.f_value is None:
        randomized += list(symmetry.F_SYMBOLS)
    best = None
    for _ in range(max(1, samples)):
        env = {s: Fraction(rng.randint(-12, 12), rng.randint(1, 6))
               for s in randomized}
        (env[S.u], env[S.v], env[S.w]), env[S.R] = _pythagorean_point(rng)
        env = {s: Num(c) for s, c in env.items()}
        for jet, rhs in eliminate.items():
            env[jet] = Num(normalize(substitute(rhs, env)).constant_value())
        rows = [[normalize(substitute(e, env)).constant_value() for e in row]
                for row in jacobian]
        rank = ratlin.rank(rows)
        best = rank if best is None else min(best, rank)
    return best


def test_criterion_09_maximal_rank():
    rank_c = maximal_rank_check(symmetry.curl_system(S.R), 100)
    rank_b = maximal_rank_check(symmetry.blair_system(S.R), 100)
    ranks_c, res_c = _on_manifold_ranks(symmetry.curl_system(S.R), B2)
    ranks_b, res_b = _on_manifold_ranks(symmetry.blair_system(S.R), B1)
    _check(
        9,
        rank_c == 3 and rank_b == 4 and ranks_c == {3} and ranks_b == {4}
        and res_c < 1e-9 and res_b < 1e-9,
        f"exact rank check at 100 rational points: {rank_c}/{rank_b}; "
        f"cross-check on points lifted from exact solutions: "
        f"{sorted(ranks_c)} (residual {res_c:.1e}) / {sorted(ranks_b)} "
        f"(residual {res_b:.1e})",
    )


def test_criterion_10_subalgebra_closure(table7):
    verdicts = {
        pair: liealg.is_subalgebra(table7, pair)
        for pair in fixtures.load_subalgebra_pairs()
    }
    control = liealg.is_subalgebra(table7, (1, 4))
    detail = "; ".join(
        f"X{i},X{j} {'closes' if v else 'does NOT close'}"
        for (i, j), v in verdicts.items()
    )
    _check(
        10,
        all(verdicts.values()) and not control,
        f"{detail}; control X1,X4 closes: {control} (must be False); "
        "non-closing pairs are documented in "
        "fixtures/subalgebra_corrections.txt with the aligned pairs that close",
    )


def test_criterion_11_kernel_properties():
    samples = (
        "x^2*y - 3/4*z + 1",
        "sin(x)*cos(y) - exp(z)*w",
        "sqrt(u^2 + v^2 + w^2)",
        "(x + y)^3/(1 - z)",
        "u_x*f_v - w_z*R/2",
    )
    round_trip = all(equal_exprs(parse(s), parse(to_string(parse(s))))
                     for s in samples)
    idempotent = all(
        to_string(normal_expression(normal_expression(parse(s))))
        == to_string(normal_expression(parse(s)))
        and equal_exprs(normal_expression(parse(s)), parse(s))
        for s in samples
    )

    rng = random.Random(1)
    h = 1e-5
    fd_ok = True
    worst_rel = 0.0
    for s in ("sin(x)*exp(y) + x^2*z", "x*y*z/(1 + x^2) - cos(z)"):
        e = parse(s)
        fn = compile_numeric(e, [S.x, S.y, S.z])
        for ax_idx, ax in enumerate((S.x, S.y, S.z)):
            dfn = compile_numeric(differentiate(e, ax), [S.x, S.y, S.z])
            for _ in range(20):
                pt = [rng.uniform(-1.5, 1.5) for _ in range(3)]
                lo, hi = list(pt), list(pt)
                lo[ax_idx] -= h
                hi[ax_idx] += h
                fd = (fn(*hi) - fn(*lo)) / (2 * h)
                sym = dfn(*pt)
                rel = abs(sym - fd) / max(1.0, abs(sym))
                worst_rel = max(worst_rel, rel)
                fd_ok = fd_ok and rel < 1e-6

    ratio = solutions.translation_convergence_ratio()
    ratio_ok = 12.0 <= ratio <= 20.0
    _check(
        11,
        round_trip and idempotent and fd_ok and ratio_ok,
        f"parser round-trip: {round_trip}; normalize idempotent: {idempotent}; "
        f"derivative vs centered difference worst relative error: "
        f"{worst_rel:.1e}; RK4 step-halving ratio: {ratio:.2f}",
    )
