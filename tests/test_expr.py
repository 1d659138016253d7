"""Kernel tests: trees, normal forms, rewrites, parser/printer, numerics."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from curlsym import expr as E
from curlsym.expr import (
    EvalError,
    NotPolynomial,
    ParseError,
    REGISTRY,
    S,
    add,
    as_ratform,
    collect_poly,
    compile_numeric,
    cos,
    decide_zero,
    differentiate,
    exp,
    equal_exprs,
    free_symbols,
    is_zero_expr,
    mul,
    neg,
    normalize,
    parse,
    poly_sqrt,
    pow_,
    sin,
    sqrt,
    substitute,
    to_string,
    Num,
)


# --- tree construction -------------------------------------------------------


def test_float_rejected_everywhere():
    with pytest.raises(TypeError):
        S.x + 1.5
    with pytest.raises(TypeError):
        mul(S.x, 0.1)
    with pytest.raises(TypeError):
        substitute(S.x, {S.x: 2.5})


def test_constant_folding():
    assert add(1, 2, S.x) == add(S.x, 3)
    assert mul(2, 3) == Num(Fraction(6))
    assert mul(S.x, 0) == E.ZERO
    assert pow_(S.x, 0) == E.ONE
    assert pow_(pow_(S.x, 2), 3) == pow_(S.x, 6)
    assert (S.x / S.x) != E.ONE  # no tree-level cancellation, by design
    assert is_zero_expr(S.x / S.x - 1)


def test_structural_equality_is_not_semantic():
    e1 = add(S.x, S.y)
    e2 = add(S.y, S.x)
    assert e1 != e2
    assert equal_exprs(e1, e2)


def test_integer_powers_only():
    with pytest.raises(E.ExprError):
        pow_(S.x, Num(Fraction(1, 2)))


# --- normal form and rewrites ------------------------------------------------


def test_radical_square_rewrites():
    assert is_zero_expr(S.R ** 2 - (S.u ** 2 + S.v ** 2 + S.w ** 2))
    p = normalize(S.R ** 3)
    assert p == normalize(S.R * (S.u ** 2 + S.v ** 2 + S.w ** 2))


def test_unit_pair_rewrite():
    assert is_zero_expr(S.a ** 2 + S.b ** 2 - 1)
    assert not is_zero_expr(S.a ** 2 + S.b ** 2)


def test_sin_cos_square_rewrite():
    assert is_zero_expr(sin(S.z) ** 2 + cos(S.z) ** 2 - 1)
    assert is_zero_expr(sin(S.x + S.y) ** 2 + cos(S.x + S.y) ** 2 - 1)
    # different arguments stay independent
    assert not is_zero_expr(sin(S.x) ** 2 + cos(S.y) ** 2 - 1)


def test_sin_parity_canonicalization():
    assert is_zero_expr(sin(neg(S.z)) + sin(S.z))
    assert is_zero_expr(cos(neg(S.z)) - cos(S.z))


def test_exp_product_merges():
    assert is_zero_expr(exp(S.x) * exp(S.y) - exp(S.x + S.y))
    assert is_zero_expr(exp(S.x) * exp(neg(S.x)) - 1)
    assert is_zero_expr(exp(2 * S.x) - exp(S.x) ** 2)


def test_r_denominator_cleared_by_conjugation():
    e = S.u / S.R
    assert is_zero_expr(e * S.R - S.u)
    g = 1 / (1 + S.R)
    assert is_zero_expr(g * (1 + S.R) - 1)


def test_not_polynomial_reports_subtree():
    with pytest.raises(NotPolynomial):
        normalize(1 / S.x)


def test_collect_groups_by_jet_monomials():
    e = S.u_x * S.x + S.u_x * S.y + S.v_z ** 2 * S.z + 5
    got = {k: p.to_expression()
           for k, p in collect_poly(normalize(e), [S.u_x, S.v_z]).items()}
    u_x, v_z2 = E._freeze({S.u_x: 1}), E._freeze({S.v_z: 2})
    assert set(got) == {(), u_x, v_z2}
    assert equal_exprs(got[u_x], S.x + S.y)
    assert equal_exprs(got[v_z2], S.z)
    assert equal_exprs(got[()], Num(Fraction(5)))


def test_poly_sqrt_polynomial_square():
    s = 1 + S.x ** 2 + S.y ** 2 + S.z ** 2
    r = poly_sqrt(normalize(s * s))
    assert r is not None
    assert r == normalize(s)


def test_poly_sqrt_with_exp_atoms():
    p = normalize(exp(-2 * S.eps) * (1 + S.x) ** 2)
    r = poly_sqrt(p)
    assert r is not None
    assert r == normalize(exp(neg(S.eps)) * (1 + S.x))


def test_sqrt_expression_with_radical_factor():
    assert is_zero_expr(sqrt(S.u ** 2 + S.v ** 2 + S.w ** 2) - S.R)
    assert is_zero_expr(sqrt(4 * (S.u ** 2 + S.v ** 2 + S.w ** 2)) - 2 * S.R)


def test_sqrt_without_exact_form_raises():
    with pytest.raises(NotPolynomial):
        normalize(sqrt(1 + S.x))


def test_poly_sqrt_stops_outside_the_exp_argument_range():
    # the root would need exp(-u/2), exp(-3u/2), ...: u-coefficients
    # outside [0, 1/2], half the range of those of 1 + exp(u)
    assert poly_sqrt(normalize(1 + exp(S.u))) is None
    assert poly_sqrt(normalize(exp(2 * S.u) + 1)) is None
    p = normalize((exp(S.u) + exp(-S.u) + S.x) ** 2)
    assert poly_sqrt(p) == normalize(exp(S.u) + exp(-S.u) + S.x)


def test_trig_of_a_zero_argument_folds():
    assert normalize(sin(S.x - S.x)) == normalize(E.ZERO)
    assert normalize(cos(S.x - S.x) + S.y) == normalize(1 + S.y)
    assert normalize(sin(sin(S.x - S.x))) == normalize(E.ZERO)


# --- derivatives -------------------------------------------------------------


def test_radical_derivative_rule():
    d = differentiate(S.R, S.u)
    assert is_zero_expr(d - S.u / S.R)
    assert is_zero_expr(differentiate(S.R, S.x))


def test_formal_function_rules():
    assert differentiate(S.f, S.u) is S.f_u
    assert is_zero_expr(differentiate(S.f, S.x))
    assert differentiate(S.zeta, S.w) is S.zeta_w


def test_chain_and_product_rules():
    d = differentiate(sin(S.x ** 2), S.x)
    assert is_zero_expr(d - 2 * S.x * cos(S.x ** 2))
    d2 = differentiate(S.x * exp(S.x), S.x)
    assert is_zero_expr(d2 - exp(S.x) * (1 + S.x))


def test_sqrt_derivative():
    e = sqrt(S.u ** 2 + S.v ** 2 + S.w ** 2)
    assert is_zero_expr(differentiate(e, S.u) - S.u / S.R)


# --- substitution ------------------------------------------------------------


def test_substitution_is_simultaneous():
    got = substitute(S.x + S.y, {S.x: S.y, S.y: S.x})
    assert equal_exprs(got, S.x + S.y)
    swapped = substitute(S.x - S.y, {S.x: S.y, S.y: S.x})
    assert equal_exprs(swapped, S.y - S.x)


def test_substitution_into_functions():
    got = substitute(sin(S.z), {S.z: S.z - S.eps})
    assert got == sin(S.z - S.eps)


# --- numeric evaluation ------------------------------------------------------


def test_compile_numeric_basic():
    fn = compile_numeric(S.x ** 2 + sin(S.y), [S.x, S.y])
    assert abs(fn(2.0, 0.5) - (4.0 + math.sin(0.5))) < 1e-15


def test_eval_radical_computed_from_components():
    assert abs(compile_numeric(S.R, [S.u, S.v, S.w])(3.0, 4.0, 0.0) - 5.0) < 1e-15
    # a bound R wins over the components
    assert compile_numeric(S.R, [S.u, S.v, S.w, S.R])(3.0, 4.0, 0.0, 2.0) == 2.0


def test_eval_unbound_symbol_raises():
    with pytest.raises(EvalError, match="unbound symbols in compile: y"):
        compile_numeric(S.x + S.y, [S.x])
    # R is computed from u, v, w only when all three are arguments
    with pytest.raises(EvalError, match="R"):
        compile_numeric(S.R * S.x, [S.x, S.u])


def test_compile_matches_eval():
    e = S.u * cos(S.x) + S.R / (1 + S.w ** 2)
    fn = compile_numeric(e, [S.x, S.u, S.v, S.w])
    want = 1.0 * math.cos(0.3) + math.sqrt(1.0 + 4.0 + 0.49) / (1 + 0.49)
    assert abs(fn(0.3, 1.0, -2.0, 0.7) - want) < 1e-14


def test_compile_numeric_has_no_nesting_limit():
    # 150 nested factors y*(1 + x*(...)): one parenthesised expression
    # would exceed the Python parser's nesting limit
    e = E.ONE
    for _ in range(150):
        e = add(1, mul(S.x, e))
    e = sin(mul(S.y, e))
    fn = compile_numeric(e, [S.x, S.y])
    h = 1.0
    for _ in range(150):
        h = 1 + 0.5 * h
    assert fn(0.5, 0.25) == math.sin(0.25 * h)


def test_compile_numeric_computes_a_shared_subtree_once(monkeypatch):
    shared = sin(S.x + S.y)
    fn = compile_numeric(shared * S.x + shared ** 2 + exp(shared), [S.x, S.y])
    calls = []
    real_sin = math.sin
    monkeypatch.setattr(math, "sin", lambda a: calls.append(a) or real_sin(a))
    got = fn(0.3, 0.4)
    s = real_sin(0.3 + 0.4)
    assert got == s * 0.3 + s ** 2 + math.exp(s)
    assert calls == [0.3 + 0.4]


def test_compile_numeric_tuple_matches_each_component(monkeypatch):
    # one function for a tuple: each component is bitwise the float of its
    # own compile, and at a pole the same exception comes first
    speed = sqrt(S.x ** 2 + S.y ** 2)
    args = [S.x, S.y, S.z]
    cases = [
        ((S.y * speed - S.x / S.z, -(S.x * speed)), [(1.0, 2.0, 0.0)]),
        ((sqrt(S.x - S.y) * exp(S.z), sin(speed) / S.z, cos(speed)),
         [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 1000.0)]),
    ]
    rng = random.Random(11)
    for exprs, poles in cases:
        whole = compile_numeric(exprs, args)
        parts = [compile_numeric(e, args) for e in exprs]
        points = [(rng.uniform(0, 2), rng.uniform(-2, 0), rng.uniform(0.1, 2))
                  for _ in range(100)]
        for p in points + poles:
            try:
                want = tuple(fn(*p) for fn in parts)
            except (ArithmeticError, ValueError) as err:
                with pytest.raises(type(err)):
                    whole(*p)
                continue
            assert [v.hex() for v in whole(*p)] == [v.hex() for v in want]
    # the shared |(x, y)| is computed once for the whole tuple
    calls = []
    real_sqrt = math.sqrt
    monkeypatch.setattr(math, "sqrt", lambda a: calls.append(a) or real_sqrt(a))
    compile_numeric(cases[0][0], args)(3.0, 4.0, 1.0)
    assert calls == [25.0]


def test_compile_numeric_raises_float_errors():
    with pytest.raises(ZeroDivisionError):
        compile_numeric(1 / S.x, [S.x])(0.0)
    with pytest.raises(ValueError):
        compile_numeric(sqrt(S.x), [S.x])(-1.0)
    with pytest.raises(OverflowError):
        compile_numeric(exp(S.x), [S.x])(1000.0)


def test_decide_zero_modes():
    ok, mode, worst = decide_zero(S.R ** 2 - S.u ** 2 - S.v ** 2 - S.w ** 2)
    assert ok and mode == "symbolic" and worst is None
    ok, mode, worst = decide_zero(S.x + 1)
    assert not ok and mode == "symbolic" and worst is None
    ok, mode, worst = decide_zero(sqrt(1 + S.x ** 2) - sqrt(1 + S.x ** 2) + S.x - S.x)
    assert ok and mode == "numeric" and worst <= 1e-9
    ok, mode, worst = decide_zero(sin(S.x) - S.x, samples=40)
    assert not ok and mode == "numeric"
    # the largest |sin x - x| of the samples, which all lie in [-2, 2]
    assert 0.01 < worst <= 2 - math.sin(2)


def test_decide_zero_skips_nan_samples():
    # a parameter bound to NaN makes every sample NaN; none may count as zero
    e = sin(S.x * S.eps) + S.x * exp(S.y * S.eps)
    with pytest.raises(EvalError, match="enough valid sample points"):
        decide_zero(e, bindings={S.eps: math.nan})


def test_decide_zero_worst_is_recomputed_from_the_seed():
    # exp(400 x) overflows for x near 2; those points are skipped, and the
    # worst of the rest equals a direct recomputation from the same draws
    e = exp(400 * S.x) * sin(S.y) + S.eps
    ok, mode, worst = decide_zero(e, samples=40, bindings={S.eps: 0.5})
    rng = random.Random(0)  # the seed decide_zero draws with
    values, skipped = [], 0
    while len(values) < 40:
        x, y = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        try:
            values.append(abs(math.exp(400 * x) * math.sin(y) + 0.5))
        except OverflowError:
            skipped += 1
    assert skipped > 0
    assert (ok, mode, worst) == (False, "numeric", max(values))


# --- parser and printer ------------------------------------------------------


def test_parse_precedence():
    assert parse("x + y*z") == add(S.x, mul(S.y, S.z))
    assert parse("-x^2") == neg(pow_(S.x, 2))
    assert parse("-x*y") == mul(neg(S.x), S.y)
    assert parse("x - y - z") == add(add(S.x, neg(S.y)), neg(S.z))
    assert parse("2*u_x + v_z^2") == add(mul(2, S.u_x), pow_(S.v_z, 2))


def test_parse_power_right_assoc_and_integer_only():
    assert parse("x^2^3") == pow_(S.x, 8)  # x^(2^3)
    with pytest.raises(ParseError):
        parse("x^y")
    with pytest.raises(ParseError):
        parse("x^(1/2)")


def test_parse_rational_literal_via_division():
    assert parse("3/2") == Num(Fraction(3, 2))
    assert parse("1/2*x") == mul(Num(Fraction(1, 2)), S.x)


def test_parse_functions_and_jets():
    assert parse("sin(z)") == sin(S.z)
    assert parse("sqrt(u^2 + v^2 + w^2)") == sqrt(
        add(pow_(S.u, 2), pow_(S.v, 2), pow_(S.w, 2))
    )
    assert parse("w_y - v_z - u*f") == add(S.w_y, neg(S.v_z), neg(mul(S.u, S.f)))


def test_parse_error_offsets():
    with pytest.raises(ParseError) as ei:
        parse("x + qqq")
    assert ei.value.offset == 4
    with pytest.raises(ParseError) as ei:
        parse("x + ")
    assert ei.value.offset == 4
    with pytest.raises(ParseError) as ei:
        parse("foo(x)")
    assert ei.value.offset == 0


def test_parse_rejects_input_nested_too_deeply():
    assert parse("(" * 100 + "x" + ")" * 100) == S.x
    with pytest.raises(ParseError, match="nested too deeply"):
        parse("(" * 1000 + "x" + ")" * 1000)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse("sin(" * 1000 + "x" + ")" * 1000)


def test_unknown_identifier_rejected():
    with pytest.raises(ParseError):
        parse("nosuch")


def test_print_examples():
    assert to_string(parse("x + y*z")) == "x + y*z"
    assert to_string(parse("-x - y")) == "-x - y"
    assert to_string(parse("u/R")) == "u/R"
    assert to_string(parse("1/2*x")) == "x/2"
    assert to_string(parse("(x + y)^2")) == "(x + y)^2"


# round-trip: printing then parsing reproduces the tree exactly
_LEAVES = [S.x, S.y, S.z, S.u, S.v, S.w, S.u_x, S.v_z, S.R, S.eps]


def _expr_strategy():
    leaf = st.one_of(
        st.sampled_from(_LEAVES),
        st.integers(min_value=-9, max_value=9).map(lambda n: Num(Fraction(n))),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: add(ab[0], ab[1])),
            st.tuples(children, children).map(lambda ab: mul(ab[0], ab[1])),
            st.tuples(children, st.integers(min_value=-3, max_value=3)).map(
                lambda bn: pow_(bn[0], bn[1]) if not (
                    isinstance(bn[0], Num) and bn[0].val == 0 and bn[1] < 0
                ) else bn[0]
            ),
            children.map(lambda c: sin(c)),
            children.map(lambda c: exp(c)),
            children.map(neg),
        )

    return st.recursive(leaf, extend, max_leaves=12)


@settings(max_examples=120, deadline=None)
@given(_expr_strategy())
# a divisor before a numerator factor, and a negated sum after a term
@example(neg(exp(mul(pow_(S.x, -1), S.x))))
@example(add(S.x, neg(add(S.x, S.y))))
def test_print_parse_round_trip(e):
    assert parse(to_string(e)) == e


@settings(max_examples=60, deadline=None)
@given(_expr_strategy())
# sin(x - x) normalizes to 0, not to an atom sin(0) that rebuilds as 0
@example(sin(sin(S.x - S.x)))
def test_normalize_is_idempotent_where_defined(e):
    try:
        p1 = normalize(e)
    except (NotPolynomial, E.ExprError):
        return
    p2 = normalize(p1.to_expression())
    assert p1 == p2


# --- the polynomial kernel: leading terms and exact division ----------------

_POLY_ATOMS = [S.x, S.y, S.u, S.v, S.w, S.R, S.a, S.b, sin(S.x + S.y), exp(S.x * S.u)]


def _build_poly(terms):
    acc = E.Poly({})
    for c, factors in terms:
        t = E.poly_const(Fraction(c))
        for i, e in factors:
            t = t * normalize(_POLY_ATOMS[i]).power(e)
        acc = acc + t
    return acc


# a denominator carries no R, b or sin atom: ratform conjugates them away
_DEN_ATOMS = [
    i for i, a in enumerate(_POLY_ATOMS) if a not in (S.R, S.b, sin(S.x + S.y))
]


def _poly_strategy(max_terms=4, atoms=range(len(_POLY_ATOMS))):
    """Small normal forms; products go through the kernel, so R^2, b^2,
    sin^2 and exp products are rewritten."""
    factor = st.tuples(st.sampled_from(atoms), st.integers(1, 2))
    term = st.tuples(
        st.integers(-4, 4).filter(bool), st.lists(factor, max_size=3)
    )
    return st.lists(term, max_size=max_terms).map(_build_poly)


def _div_order(p, d):
    """Key of the monomial order the division follows: graded lex on the
    atoms other than mergeable exp atoms, then lex, larger first, on the
    exp argument's coefficients over the argument monomials of p and d."""
    args = sorted({k for m in [*p.terms, *d.terms] for k in E._exp_arg(m)},
                  key=E._mono_sort_key)

    def key(m):
        rest = E._freeze({a: e for a, e in m if not E._is_mergeable_exp(a)})
        arg = E._exp_arg(m)
        return E._mono_sort_key(rest), [-arg.get(k, 0) for k in args]

    return key


def _sorted_div_exact(p, d):
    """The division loop that sorts the whole remainder at every step: the
    reference for `poly_div_exact`.  A quotient term's exp-argument
    coefficients must lie in [min_p - min_d, max_p - max_d]."""
    if d.is_zero():
        return None
    if p.is_zero():
        return E.Poly({})
    p_args = [E._exp_arg(m) for m in p.terms]
    d_args = [E._exp_arg(m) for m in d.terms]
    keys = set().union(*p_args, *d_args)

    def coords(args, k):
        return [a.get(k, 0) for a in args]

    box = {
        k: (min(coords(p_args, k)) - min(coords(d_args, k)),
            max(coords(p_args, k)) - max(coords(d_args, k)))
        for k in keys
    }
    order = _div_order(p, d)

    def sort(poly):
        return sorted(poly.terms.items(), key=lambda kv: order(kv[0]))

    dm, dc = sort(d)[0]
    q = {}
    r = p
    while not r.is_zero():
        rm, rc = sort(r)[0]
        t_mono = E._mono_div(rm, dm)
        if t_mono is None:
            return None
        arg = E._exp_arg(t_mono)
        if not set(arg) <= keys or any(
            not lo <= arg.get(k, 0) <= hi for k, (lo, hi) in box.items()
        ):
            return None
        c = rc / dc
        q[t_mono] = q.get(t_mono, Fraction(0)) + c
        r = r - E.Poly({t_mono: c}) * d
    return E.Poly(q)


def _steps(div, p, d):
    """div(p, d) and the number of division steps it took."""
    count = [0]
    mono_div = E._mono_div

    def counting(a, b):
        count[0] += 1
        return mono_div(a, b)

    E._mono_div = counting
    try:
        return div(p, d), count[0]
    finally:
        E._mono_div = mono_div


@settings(max_examples=150, deadline=None)
@given(_poly_strategy())
def test_leading_is_head_of_sorted_terms(p):
    if p.is_zero():
        return
    assert p.leading() == p.sorted_terms()[0]


@settings(max_examples=150, deadline=None)
@given(_poly_strategy(), _poly_strategy(atoms=_DEN_ATOMS),
       _poly_strategy(max_terms=2))
def test_div_exact_matches_sorted_loop(q, d, r):
    p = q * d + r
    got, got_steps = _steps(E.poly_div_exact, p, d)
    want, want_steps = _steps(_sorted_div_exact, p, d)
    assert (got is None) == (want is None)
    if got is not None:
        assert got == want
    assert got_steps == want_steps


_EXP_XU = normalize(exp(S.x * S.u))
_ONE = E.poly_const(Fraction(1))


@settings(max_examples=150, deadline=None)
@given(_poly_strategy(), _poly_strategy(atoms=_DEN_ATOMS))
# exp(x*u) and exp(2*x*u) both have degree 1, so the graded order alone
# leads with the wrong term of q*d and refused these exact quotients
@example(_EXP_XU.power(2).scale(Fraction(4)), _EXP_XU + _ONE)
@example(_EXP_XU.power(2).scale(Fraction(4)), (_EXP_XU + _ONE).scale(Fraction(-1)))
def test_div_exact_quotient_multiplies_back(q, d):
    if d.is_zero():
        return
    assert E.poly_div_exact(q * d, d) == q


def test_exact_quotient_cancels_in_the_normal_form():
    rf = as_ratform(parse("(4*exp(2*x*u) + 4*exp(3*x*u))/(exp(x*u) + 1)"))
    assert rf.num == normalize(4 * exp(2 * S.x * S.u))
    assert rf.den == _ONE


@pytest.mark.parametrize("atom", [S.R, S.b, sin(S.x + S.y)])
def test_div_exact_rejects_a_divisor_with_a_rewrite_atom(atom):
    # q*d must meet no rewrite (R^2, b^2, sin^2) for the order to hold
    with pytest.raises(E.ExprError, match="divisor carries"):
        E.poly_div_exact(normalize(S.x * atom), normalize(atom + 1))


def test_div_exact_stops_outside_the_exp_argument_range():
    # exp atoms always divide, so 1 / (1 + exp(x)) would expand forever;
    # its first quotient term exp(-x) lies outside [0 - 0, 0 - 1]
    p, d = normalize(Num(Fraction(1))), normalize(1 + exp(S.x))
    assert _steps(E.poly_div_exact, p, d) == (None, 1)
    assert _steps(_sorted_div_exact, p, d) == (None, 1)


@settings(max_examples=150, deadline=None)
@given(_poly_strategy(), _poly_strategy(),
       _poly_strategy(atoms=_DEN_ATOMS), _poly_strategy(atoms=_DEN_ATOMS))
def test_rat_add_over_a_shared_denominator(n1, n2, d, k):
    # n1/(d k) + n2/d = (n1 + n2 k)/(d k), over d k when d divides it
    if d.is_constant() or (d * k).is_zero():
        return
    r = E._rat_add(E.RatForm(n1, d * k), E.RatForm(n2, d))
    assert r.num * (d * k) == (n1 + n2 * k) * r.den


def test_rat_add_keeps_the_square_as_denominator():
    d = normalize(S.x ** 2 + S.y ** 2 + S.z ** 2 + 1)
    rf = as_ratform(parse("1/(x^2+y^2+z^2+1) + 1/(x^2+y^2+z^2+1)^2"))
    assert rf.den == d * d
    assert rf.num == d + E.poly_const(Fraction(1))


class _FullCache(dict):
    def __len__(self):
        return 400_001


def test_cache_overflow_empties_the_monomial_key_memo(monkeypatch):
    monkeypatch.setattr(E, "_RAT_CACHE", _FullCache())
    E._mono_sort_key(E._freeze({S.x: 1, S.y: 1}))
    assert E._MONO_KEYS
    e = S.x * S.y + 3
    as_ratform(e)
    assert not E._MONO_KEYS
    assert list(E._RAT_CACHE) == [e]


def test_registry_fresh_symbols():
    before = set(REGISTRY.by_name)
    a2, b2 = REGISTRY.fresh_unit_pair()
    assert is_zero_expr(a2 ** 2 + b2 ** 2 - 1)
    assert a2.name not in before and b2.name not in before
    p = REGISTRY.fresh_parameter()
    assert p.name not in before
