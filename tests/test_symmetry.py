"""Determining systems, exact ansatz solutions, and profile constraints.

The reference tables shipped under curlsym/fixtures are the comparison
targets throughout: the fourteen-equation determining system and the
generator bases of sizes 10 and 7.  The expanded residual displays, which
no command reads, sit next to this file.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from curlsym import expr
from curlsym import fixtures as fx
from curlsym import ratlin
from curlsym import symmetry as sy
from curlsym.expr import (
    BASE_SYMBOLS,
    ExprError,
    Poly,
    S,
    as_ratform,
    differentiate,
    exp,
    monomial_expr,
    normalize,
    parse,
    substitute,
    to_string,
    _freeze,
    _poly_key,
)
from curlsym.jet import GeneratorField

from reference import (
    JET_SYMBOLS,
    add_fields,
    annihilates,
    formal_substitution,
    resolve_f,
    scale_field,
    tree_determining_polys,
)
from test_acceptance import maximal_rank_check


def _curl_formal():
    return sy.curl_system(None)


def _resolved_reference(system):
    """The reference route: the system with its profile put into the
    residuals and the elimination map before prolongation, so that the
    prolonged residuals carry the profile's own denominators."""
    f = system.f_value
    return sy.PdeSystem(
        residuals=tuple(resolve_f(r, f) for r in system.residuals),
        eliminate={j: resolve_f(e, f) for j, e in system.eliminate.items()},
        free_jets=system.free_jets,
        f_value=None,
    )


# --- determining system -------------------------------------------------------


def test_formal_determining_system_size_and_rank():
    eqs = sy.determining_polys(_curl_formal())
    assert len(eqs) == 15
    # one linear dependency: the system spans a 14-dimensional space
    (rows,) = sy.sparse_rows([[p] for p in eqs])
    assert ratlin.rank(rows) == 14


def test_determining_system_matches_reference_modulo_identities():
    computed = sy.determining_system(_curl_formal())
    rep = sy.determining_systems_equivalent(
        computed, fx.load_determining_fixture()
    )
    assert rep.identity_spans_match
    assert rep.reduced_spans_match
    assert rep.ok


_SQUARE = normalize(parse("u^2 + v^2 + w^2"))


@pytest.mark.parametrize("make_system, count", [(sy.curl_system, 15),
                                                (sy.blair_system, 30)])
def test_profile_goes_in_after_prolongation(make_system, count):
    # each equation of the resolved-first reference is one of the product's
    # times (u^2 + v^2 + w^2)^k, and the product's carry no such factor
    system = make_system(S.R)
    got = sy.determining_polys(system)
    ref = sy.determining_polys(_resolved_reference(system))
    assert len(got) == len(ref) == count
    index = {_poly_key(p): i for i, p in enumerate(got)}
    partners = []
    for r in ref:
        square = expr.poly_div_exact(r, _SQUARE)
        if square is not None:
            assert expr.poly_div_exact(square, _SQUARE) is None
            r = square.monic()
        partners.append(index[_poly_key(r)])
    assert sorted(partners) == list(range(count))
    assert all(expr.poly_div_exact(p, _SQUARE) is None for p in got)


_SYSTEMS = {"curl-f": lambda: sy.curl_system(None),
            "curl-absB": lambda: sy.curl_system(S.R),
            "blair": lambda: sy.blair_system(S.R),
            # rational residuals: the profile's u/R in every prolonged sum
            "curl-absB resolved first": lambda: _resolved_reference(
                sy.curl_system(S.R)),
            "blair resolved first": lambda: _resolved_reference(
                sy.blair_system(S.R))}


@pytest.mark.parametrize("name", _SYSTEMS)
def test_determining_polys_match_the_expression_tree_route(name):
    system = _SYSTEMS[name]()
    assert ([_poly_key(p) for p in sy.determining_polys(system)]
            == [_poly_key(p) for p in tree_determining_polys(system)])


def test_equivalence_rejects_a_tampered_reference():
    ref = list(fx.load_determining_fixture())
    ref[0] = ref[0] + S.u * S.f  # no longer a consequence of the system
    rep = sy.determining_systems_equivalent(
        sy.determining_system(_curl_formal()), ref
    )
    assert not rep.ok


def test_gradient_identities_are_among_the_equations():
    keys = {_poly_key(p) for p in sy.determining_polys(_curl_formal())}
    for lhs, rhs in sy._GRADIENT_SUBS.items():
        assert _poly_key(as_ratform(lhs - rhs).num.monic()) in keys


def _indexed_expressions(name: str) -> dict:
    """{k: expression} from the lines `k: expression` of a file next to
    this one, each index once."""
    out = {}
    text = (Path(__file__).parent / name).read_text(encoding="utf-8")
    for line in fx.content_lines(text):
        head, colon, rest = line.partition(":")
        assert colon and int(head) not in out, line
        out[int(head)] = parse(rest.strip())
    return out


def test_restricted_residuals_match_reference_displays():
    computed = [
        r.num
        for r in sy.invariance_residuals(_curl_formal(), sy.generic_generator())
    ]
    refs = _indexed_expressions("restricted_residuals.txt")
    corr = _indexed_expressions("residual_corrections.txt")
    assert sorted(refs) == [1, 2, 3]
    assert set(corr) == {1}  # exactly one documented omission
    for k in range(3):
        ref_poly = as_ratform(refs[k + 1]).num
        if (k + 1) in corr:
            ref_poly = ref_poly + as_ratform(corr[k + 1]).num
        assert _poly_key(computed[k]) == _poly_key(ref_poly)


def test_both_systems_annihilate_every_reference_generator():
    computed = sy.determining_system(_curl_formal())
    ref = fx.load_determining_fixture()
    for gen in fx.load_basis(10):
        assert annihilates(computed, gen, S.R)
        assert annihilates(ref, gen, S.R)


def test_annihilation_fails_for_a_non_symmetry():
    bad = GeneratorField(parse("1"), parse("0"), parse("0"),
                         parse("0"), parse("0"), parse("u"))
    assert not annihilates(fx.load_determining_fixture(), bad, S.R)


def _random_combination(rng, basis):
    combo = None
    for gen in basis:
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        if c == 0:
            continue
        term = scale_field(gen, parse(str(c)))
        combo = term if combo is None else add_fields(combo, term)
    return combo


def test_random_rational_combinations_annihilate_both_systems():
    rng = random.Random(7)
    formal = sy.determining_system(_curl_formal())
    solenoidal = sy.determining_system(sy.blair_system(S.R))
    b10, b7 = fx.load_basis(10), fx.load_basis(7)
    for _ in range(25):
        combo = _random_combination(rng, b10)
        assert combo is not None
        assert annihilates(formal, combo, S.R)
    for _ in range(25):
        combo = _random_combination(rng, b7)
        assert combo is not None
        assert annihilates(solenoidal, combo)


def test_random_fields_outside_the_span_fail_annihilation():
    rng = random.Random(11)
    formal = sy.determining_system(_curl_formal())
    b10 = fx.load_basis(10)
    monos = sy.monomials_up_to(2, (S.x, S.y, S.z, S.u, S.v, S.w))
    rejected = 0
    while rejected < 50:
        coeffs = [parse("0")] * 6
        for _ in range(3):
            c = rng.randint(-3, 3)
            if c == 0:
                continue
            slot = rng.randrange(6)
            mono = monos[rng.randrange(len(monos))]
            coeffs[slot] = coeffs[slot] + parse(str(c)) * monomial_expr(mono)
        gen = GeneratorField(*coeffs)
        if sy.coordinates_in_basis(b10, gen) is not None:
            continue  # rare span hit (includes the all-zero draw)
        assert not annihilates(formal, gen, S.R)
        rejected += 1


# --- exact polynomial ansatz --------------------------------------------------


def test_ansatz_dimension_ten_and_span():
    res = sy.solve_polynomial_ansatz(sy.curl_system(S.R), 2)
    assert len(res.generators) == 10
    assert sy.generator_spans_equal(res.generators, fx.load_basis(10))


def test_ansatz_from_reference_equations_agrees():
    # the nullspace construction over the reference equations, resolved to
    # f = R as `determining_polys` resolves its own
    conditions = sy._conditions(
        (as_ratform(e).num for e in fx.load_determining_fixture()), S.R)
    res = sy._ansatz_from_polys(conditions, 2)
    assert len(res.generators) == 10
    assert sy.generator_spans_equal(res.generators, fx.load_basis(10))


def test_divergence_constrained_ansatz_dimension_seven():
    res = sy.solve_polynomial_ansatz(sy.blair_system(S.R), 2)
    assert len(res.generators) == 7
    assert sy.generator_spans_equal(res.generators, fx.load_basis(7))


def test_degree_zero_ansatz_is_translations():
    res = sy.solve_polynomial_ansatz(sy.blair_system(S.R), 0)
    assert len(res.generators) == 3
    want = [fx.load_basis(7)[k] for k in (3, 4, 5)]
    assert sy.generator_spans_equal(res.generators, want)


def _assert_same_ansatz(got, want):
    assert got.vectors == want.vectors
    assert got.slots == want.slots
    assert ([[to_string(c) for c in g] for g in got.generators]
            == [[to_string(c) for c in g] for g in want.generators])


def _direct_ansatz(system, degree):
    """The ansatz over the determining system of `_resolved_reference`."""
    return sy._ansatz_from_polys(
        sy.determining_polys(_resolved_reference(system)), degree)


_PROFILES = {"R": "R", "R^2": "R^2", "poly": "u^2 + v^2 + w^2 + 1"}


@pytest.mark.parametrize("make_system, profile, degree", [
    *[(make, name, d) for make in (sy.curl_system, sy.blair_system)
      for name in _PROFILES for d in (1, 2)],
    (sy.blair_system, "R", 3),
])
def test_ansatz_over_the_formal_system_matches_the_direct_route(
        make_system, profile, degree):
    system = make_system(parse(_PROFILES[profile]))
    _assert_same_ansatz(sy.solve_polynomial_ansatz(system, degree),
                        _direct_ansatz(system, degree))


def _product_ansatz(eqs, degree):
    """The reference row builder: the value of each formal symbol on a slot
    monomial as a normal form, times its coefficient polynomial by
    `Poly.__mul__`, with every rewrite that product may apply."""
    monos = sy.monomials_up_to(degree, BASE_SYMBOLS)
    slots = [(ci, m) for ci in range(6) for m in monos]
    mono_vals = {}
    for m in monos:
        me = monomial_expr(m)
        mono_vals[m] = {var: normalize(differentiate(me, var))
                        for var in BASE_SYMBOLS}
        mono_vals[m][None] = normalize(me)

    def rows():
        # one row {slot: value} per monomial of each condition's sum
        for eq in eqs:
            cells = {}
            for sym, coefpoly in sy.decompose_linear(eq, sy._SLOT_MAP).items():
                ci, var = sy._SLOT_MAP[sym]
                for k, m in enumerate(monos):
                    slot = ci * len(monos) + k
                    for t, c in (coefpoly * mono_vals[m][var]).terms.items():
                        cell = cells.setdefault(t, {})
                        cell[slot] = cell.get(slot, 0) + c
            yield from cells.values()

    vectors = ratlin.nullspace(rows(), len(slots))
    gens = [GeneratorField(*[p.to_expression()
                             for p in sy._slot_polys(slots, vec, 6)])
            for vec in vectors]
    return sy.AnsatzResult(generators=gens, slots=slots, vectors=vectors)


@pytest.mark.parametrize("make_system, profile, degree", [
    *[(make, name, d) for make in (sy.curl_system, sy.blair_system)
      for name in _PROFILES for d in range(4)],
    (sy.curl_system, None, 2),  # f, f_u, f_v, f_w as non-base atoms
])
def test_ansatz_rows_match_the_product_builder(make_system, profile, degree,
                                               monkeypatch):
    system = make_system(None if profile is None else parse(_PROFILES[profile]))
    got = sy.solve_polynomial_ansatz(system, degree)
    monkeypatch.setattr(sy, "_ansatz_from_polys", _product_ansatz)
    _assert_same_ansatz(got, sy.solve_polynomial_ansatz(system, degree))


_EXP_ATOM = exp(S.x - 2 * S.u)


@st.composite
def _linear_conditions(draw):
    """Equations linear homogeneous in the formal slot symbols.  Each term
    is a slot symbol times a rational, R to a power <= 1 and a few factors
    among the base variables, one exp atom and the f symbols; so few that
    terms often meet in one row, with R and without."""
    factors = st.lists(st.sampled_from((*BASE_SYMBOLS, _EXP_ATOM, *sy.F_SYMBOLS)),
                       max_size=3)
    eqs = []
    for _ in range(draw(st.integers(1, 3))):
        e = parse("0")
        for _ in range(draw(st.integers(1, 5))):
            c = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 6)))
            term = parse(str(c)) * draw(st.sampled_from(list(sy._SLOT_MAP)))
            for a in draw(factors) + [S.R] * draw(st.integers(0, 1)):
                term = term * a
            e = e + term
        p = normalize(e)
        if not p.is_zero():
            eqs.append(p.monic())
    return eqs


@settings(max_examples=40, deadline=None)
@given(_linear_conditions(), st.integers(0, 2))
def test_ansatz_rows_of_random_conditions_match_the_product_builder(eqs, degree):
    got = sy._ansatz_from_polys(eqs, degree)
    want = _product_ansatz(eqs, degree)
    assert got.vectors == want.vectors
    assert got.slots == want.slots


@pytest.mark.parametrize("make_system", [sy.curl_system, sy.blair_system])
def test_ansatz_builds_no_row_in_a_slot_proved_zero(make_system, monkeypatch):
    # 2,751 and 3,840 rows at degree 3 when every slot is built
    count = [0]
    real = ratlin.nullspace

    def spy(rows, *args):
        def counted():  # read lazily, so the slots proved zero are skipped
            for row in rows:
                count[0] += 1
                yield row
        return real(counted(), *args)

    monkeypatch.setattr(ratlin, "nullspace", spy)
    res = sy.solve_polynomial_ansatz(make_system(S.R), 3)
    assert len(res.vectors) == {sy.curl_system: 10, sy.blair_system: 7}[make_system]
    assert count[0] < 1000


def test_ansatz_rows_take_no_normal_forms_or_products(monkeypatch):
    captured = []
    monkeypatch.setattr(sy, "_ansatz_from_polys",
                        lambda eqs, degree: captured.append(eqs))
    sy.solve_polynomial_ansatz(sy.blair_system(S.R), 3)
    monkeypatch.undo()
    [eqs] = captured
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(expr, "normalize", counted("normalize", expr.normalize))
    monkeypatch.setattr(sy, "normalize", counted("normalize", sy.normalize))
    monkeypatch.setattr(Poly, "__mul__", counted("Poly.__mul__", Poly.__mul__))
    res = sy._ansatz_from_polys(eqs, 3)
    assert len(res.vectors) == 7
    assert calls == Counter()


def test_monomials_up_to_is_the_graded_order():
    for variables in (BASE_SYMBOLS, (S.u, S.v, S.w)):
        for degree in range(4):
            every = [_freeze({a: e for a, e in zip(variables, expo) if e})
                     for expo in product(range(degree + 1), repeat=len(variables))
                     if sum(expo) <= degree]
            # graded order of one-term polynomials, lowest degree first
            every.sort(key=lambda m: (sum(e for _, e in m),
                                      _poly_key(Poly({m: Fraction(1)}))))
            got = sy.monomials_up_to(degree, variables)
            assert got == every
            assert len(got) == comb(degree + len(variables), degree)


def test_ansatz_slot_bound(monkeypatch):
    class Built(Exception):
        pass

    def built(*args):
        raise Built

    monkeypatch.setattr(sy, "monomials_up_to", built)
    with pytest.raises(Built):  # degree 7: 10,296 slots
        sy.solve_polynomial_ansatz(sy.blair_system(S.R), 7)
    with pytest.raises(ValueError, match="18018 coefficient slots"):
        sy.solve_polynomial_ansatz(sy.blair_system(S.R), 8)


def test_coordinates_in_basis_roundtrip():
    b10 = fx.load_basis(10)
    combo = add_fields(scale_field(b10[0], parse("3")),
                       scale_field(b10[7], parse("-1/2")))
    coords = sy.coordinates_in_basis(b10, combo)
    assert coords is not None
    want = [Fraction(0)] * 10
    want[0], want[7] = Fraction(3), Fraction(-1, 2)
    assert list(coords) == want
    # something outside the span has no coordinates
    outside = GeneratorField(parse("x^2*y"), parse("0"), parse("0"),
                             parse("0"), parse("0"), parse("0"))
    assert sy.coordinates_in_basis(b10, outside) is None


@pytest.mark.parametrize("make_system", [sy.curl_system, sy.blair_system])
def test_every_ansatz_generator_passes_verification(make_system):
    system = make_system(S.R)
    res = sy.solve_polynomial_ansatz(system, 2)
    for gen in res.generators:
        report = sy.verify_generator(system, gen)
        assert report.ok and report.failures() == []


def test_nullspace_dimension_matches_an_independent_elimination():
    # Rebuild the constraint matrix a second way: substitute one unit field
    # per (coefficient, monomial) slot into the determining equations and
    # stack the resulting coefficient vectors, then row-reduce exactly.
    for make_system, degree, want in (
        (sy.curl_system, 1, 7),
        (sy.blair_system, 0, 3),
    ):
        system = make_system(S.R)
        res = sy.solve_polynomial_ansatz(system, degree)
        assert len(res.generators) == want
        equations = sy.determining_system(system)
        monos = sy.monomials_up_to(degree, (S.x, S.y, S.z, S.u, S.v, S.w))
        slots = [(ci, m) for ci in range(6) for m in monos]
        assert res.slots == slots
        per_slot = []
        index: dict = {}
        for ci, mono in slots:
            coeffs = [parse("0")] * 6
            coeffs[ci] = monomial_expr(mono)
            sub = formal_substitution(GeneratorField(*coeffs))
            cells = {}
            for ei, eq in enumerate(equations):
                p = normalize(substitute(eq, sub))
                for rm, rc in p.terms.items():
                    cells[(ei, rm)] = rc
            for key in cells:
                index.setdefault(key, len(index))
            per_slot.append(cells)
        matrix = [[Fraction(0)] * len(index) for _ in slots]
        for row, cells in zip(matrix, per_slot):
            for key, c in cells.items():
                row[index[key]] = c
        assert len(res.generators) == len(slots) - ratlin.rank(matrix)


# --- generator verification ---------------------------------------------------


@pytest.mark.parametrize("make_system", [sy.curl_system, sy.blair_system])
def test_verify_generator_matches_the_resolved_reference(make_system):
    system = make_system(S.R)
    reference = _resolved_reference(system)
    others = [GeneratorField(*map(parse, ("y", "-x", "0", "v", "-u", "0"))),
              GeneratorField(*map(parse, ("x^2*y", "0", "0", "0", "0", "0")))]
    failing = 0
    for gen in list(fx.load_basis(10)) + others:
        got = sy.verify_generator(system, gen)
        want = sy.verify_generator(reference, gen)
        assert got.per_residual == want.per_residual
        for i in got.failures():
            assert (to_string(expr.normal_expression(got.residuals[i]))
                    == to_string(expr.normal_expression(want.residuals[i])))
        failing += len(got.failures())
    assert failing == (3 if make_system is sy.curl_system else 7)


def test_verify_generator_accepts_the_quadratic_symmetry():
    b10 = fx.load_basis(10)
    report = sy.verify_generator(sy.curl_system(S.R), b10[7])
    assert report.ok and report.failures() == []


def test_verify_generator_rejects_quadratics_on_divergence_system():
    blair = sy.blair_system(S.R)
    for k in (7, 8, 9):
        report = sy.verify_generator(blair, fx.load_basis(10)[k])
        assert not report.ok
        # the divergence residual (index 3) is among the failures
        assert 3 in report.failures()


def test_verify_generator_rejects_non_symmetry():
    bad = GeneratorField(parse("0"), parse("0"), parse("0"),
                         parse("0"), parse("0"), parse("1"))
    assert not sy.verify_generator(sy.curl_system(S.R), bad).ok


def test_maximal_rank():
    assert maximal_rank_check(sy.curl_system(S.R), 10) == 3
    assert maximal_rank_check(sy.blair_system(S.R), 10) == 4
    assert maximal_rank_check(_curl_formal(), 10) == 3


def test_maximal_rank_single_equation():
    # one residual u_x = 0: rank 1 everywhere
    system = sy.PdeSystem(
        residuals=(S.u_x,),
        eliminate={S.u_x: parse("0")},
        free_jets=tuple(j for j in JET_SYMBOLS if j is not S.u_x),
        f_value=parse("0"),
    )
    assert maximal_rank_check(system, 5) == 1


# --- profile constraints ------------------------------------------------------


def _reference_constraints():
    return [
        parse("u*f_u + v*f_v + w*f_w - f"),
        parse("u*f_v - v*f_u"),
        parse("u*f_w - w*f_u"),
        parse("v*f_w - w*f_v"),
    ]


def test_profile_constraints_from_the_seven_generator_group():
    got = sy.f_constraints_from_group(fx.load_basis(7))
    want = _reference_constraints()
    assert {_poly_key(normalize(c)) for c in got} == {
        _poly_key(normalize(c)) for c in want
    }


def test_profile_constraints_match_the_expression_tree_route(monkeypatch):
    got = sy.f_constraints_from_group(fx.load_basis(7))
    monkeypatch.setattr(sy, "determining_polys", tree_determining_polys)
    want = sy.f_constraints_from_group(fx.load_basis(7))
    assert ([_poly_key(normalize(c)) for c in got]
            == [_poly_key(normalize(c)) for c in want])


def test_profile_verification():
    cons = _reference_constraints()
    assert sy.verify_f(cons, S.R)
    assert sy.verify_f(cons, parse("2*R"))
    assert not sy.verify_f(cons, S.u)
    assert not sy.verify_f(cons, parse("1"))
    assert not sy.verify_f(cons, parse("u^2 + v^2 + w^2"))


@pytest.mark.parametrize("degree", [2, 3])
def test_profile_family_is_one_dimensional(degree):
    family = sy.solve_f_family(_reference_constraints(), degree)
    assert len(family) == 1
    assert _poly_key(normalize(family[0])) == _poly_key(normalize(S.R))


def test_decompose_linear_rejects_quadratic_terms():
    with pytest.raises(ExprError):
        sy.decompose_linear(normalize(S.zeta * S.zeta), list(sy._SLOT_MAP))


def test_determining_polys_are_deterministic():
    a = sy.determining_polys(_curl_formal())
    b = sy.determining_polys(_curl_formal())
    assert [_poly_key(p) for p in a] == [_poly_key(p) for p in b]
