"""Kernel tests: trees, normal forms, rewrites, parser/printer, numerics."""

import ast
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

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
from curlsym.fixtures import content_lines


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
    # nodes of different classes with equal slots differ
    assert E.Add((S.x, S.y)) != E.Mul((S.x, S.y))


def test_equal_values_are_one_object():
    assert Num(2) is Num(Fraction(4, 2))
    assert parse("sin(x/y) + 2*x") is add(sin(S.x / S.y), mul(2, S.x))
    # arguments that normalize equal give one atom
    for left, right in (("exp(x)*exp(y)", "exp(x + y)"),
                        ("sin(x/y)", "sin((2*x)/(2*y))")):
        (a,), (b,) = (normalize(parse(t)).atoms() for t in (left, right))
        assert isinstance(a, E.Func) and a is b


def test_a_function_atom_is_one_node_whichever_comes_first():
    # arguments that no other test builds, so that this test meets each
    # node first: a node the parser built becomes the atom, and an atom
    # built by normalizing is the node a later parse gives
    parsed = parse("sin(C7*X9 + 1)")
    assert not hasattr(parsed, "key")
    (atom,) = normalize(parsed).atoms()
    assert atom is parsed and atom.key == E._rat_key(as_ratform(atom.arg))
    (atom,) = normalize(parse("cos((2*C8 - 2*X10)/2)")).atoms()
    again = parse("cos(C8 - X10)")
    assert again is atom and again.key == E._rat_key(as_ratform(again.arg))


def test_a_node_keeps_its_normal_form(monkeypatch):
    e = parse("x*y + 17/3")
    rf = as_ratform(e)
    assert e._rf is rf
    monkeypatch.setattr(E, "_as_ratform", lambda e: pytest.fail("normalized twice"))
    assert as_ratform(parse("x*y + 17/3")) is rf


# the classes whose instances `_intern` builds: one object per value
_INTERNED = ("Num", "Add", "Mul", "Pow", "Func")


def _scopes(tree):
    """(enclosing class or None, enclosing function or None, node) for every
    node of a module."""
    stack = [(None, None, tree)]
    while stack:
        cls, fn, node = stack.pop()
        yield cls, fn, node
        if isinstance(node, ast.ClassDef):
            cls, fn = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        stack.extend((cls, fn, child) for child in ast.iter_child_nodes(node))


def _is_attr(node, owner, attr):
    return (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id == owner)


def _slot_writes(tree, slots):
    """(class, function, line, target) of every store to or deletion of an
    attribute named in `slots`, and of every setattr or delattr call, whose
    target is None."""
    for cls, fn, node in _scopes(tree):
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id in ("setattr", "delattr")
                or _is_attr(node.func, "object", "__setattr__")):
            yield cls, fn, node.lineno, None
        if (isinstance(node, ast.Attribute) and node.attr in slots
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            yield cls, fn, node.lineno, node


def test_only_the_interning_code_builds_or_changes_a_node():
    """No module under src/curlsym builds an object by `object.__new__`,
    sets a slot of a node or an atom, or gives an interned class its own
    equality, hash or initializer, outside `_intern`.  A class's `self.terms`
    and the like are its own.  Two writes are exempt: `as_ratform` keeps the
    normal form in `_rf`, and `Symbol.__init__` builds the one symbol of a
    name in a registry.  An atom of the normal form is a Func node, whose
    `key` and `arg_poly` only `_intern` fills."""
    interned = [getattr(E, n) for n in _INTERNED]
    classes = (E.Expr, E.Symbol, *interned)
    slots = {name for c in classes for name in c.__slots__}
    assert {"key", "arg_poly"} <= slots
    nodes = {c.__name__ for c in classes}
    found = []
    for path in sorted(Path(E.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        interning = (path.name, "_intern")
        for cls, fn, node in _scopes(tree):
            if _is_attr(node, "object", "__new__") and (path.name, fn) != interning:
                found.append((path.name, node.lineno, "object.__new__"))
            if (cls in _INTERNED and isinstance(node, ast.FunctionDef)
                    and node.name in ("__eq__", "__hash__", "__init__")):
                found.append((path.name, node.lineno, f"{cls}.{node.name}"))
        for cls, fn, line, t in _slot_writes(tree, slots):
            own = t is not None and _is_attr(t, "self", t.attr) and (
                cls not in nodes or (cls, fn) == ("Symbol", "__init__"))
            memo = (path.name, fn, getattr(t, "attr", None)) == (
                "expr.py", "as_ratform", "_rf")
            if not ((path.name, fn) == interning or own or memo):
                found.append((path.name, line, fn))
    assert found == []
    for c in classes:
        assert (c.__eq__, c.__hash__) == (object.__eq__, object.__hash__), c
    for c in interned:
        assert c.__init__ is object.__init__, c


def test_free_symbols_of_a_deep_tree():
    # sin(... + y) nested 5,000 times: far past the recursion limit
    e = S.x
    for _ in range(5000):
        e = sin(add(e, S.y))
    assert free_symbols(e) == {S.x, S.y}


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


# more shared exp units, and cos(x/y) cancelling, are in normal_forms.txt
@pytest.mark.parametrize("text, want", [
    # every denominator term carries the unit exp(x): it leaves, whatever
    # the numerator holds
    ("exp(-x)/(exp(x)*z + exp(x))", "exp(-2*x)/(z + 1)"),
    # an exp of a non-polynomial argument is no unit; as a common factor of
    # numerator and denominator it cancels, like cos
    ("exp(x/y)*x/(exp(x/y)*y)", "x/y"),
    # both kinds of exp atom in one monomial
    ("exp(x)*exp(x/y)/(exp(x)*exp(x/y)*u + exp(x)*exp(x/y))", "1/(u + 1)"),
])
def test_common_factors_leave_the_denominator(text, want):
    assert to_string(E.normal_expression(parse(text))) == want


def _golden_normal_forms():
    text = (Path(__file__).parent / "normal_forms.txt").read_text(encoding="utf-8")
    return [tuple(line.split(" => ")) for line in content_lines(text)]


@pytest.mark.parametrize("text, want", _golden_normal_forms())
def test_printed_normal_forms_match_the_golden_file(text, want):
    assert to_string(E.normal_expression(parse(text))) == want


@pytest.mark.parametrize("text", [text for text, _ in _golden_normal_forms()])
def test_equal_inputs_parse_and_normalize_to_one_object(text):
    assert parse(text) is parse(text)
    assert as_ratform(parse(text)) is as_ratform(parse(text))


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


def test_decide_zero_decides_exp_units_exactly():
    # exp units of arguments that hold no opaque atom: nonzero in normal
    # form is a nonzero function, though the arguments differ by a constant
    for e in (exp(S.x + 1) - 3 * exp(S.x), exp(1000 * S.x) ** 2):
        assert decide_zero(e) == (False, "symbolic", None)
    # an exp of a sin atom is sampled: this is zero, its normal form is not
    e = exp(sin(2 * S.x)) - exp(2 * sin(S.x) * cos(S.x))
    assert not is_zero_expr(e)
    ok, mode, worst = decide_zero(e)
    assert (ok, mode) == (True, "numeric") and worst <= 1e-9


def test_decide_zero_skips_nan_samples():
    # e^(700+x) e^(700+y) overflows to inf at every sample, so each
    # sample is inf - inf = NaN; none may count as zero
    big = exp(700 + S.x) * exp(700 + S.y)
    e = big * (2 + sin(S.z)) - big * (3 + cos(S.z))
    with pytest.raises(EvalError, match="enough valid sample points"):
        decide_zero(e)


def test_decide_zero_worst_is_recomputed_from_the_seed():
    # exp(400 x) overflows for x near 2; those points are skipped, and the
    # worst of the rest equals a direct recomputation from the same draws
    e = exp(400 * S.x) * sin(S.y) + Fraction(1, 2)
    ok, mode, worst = decide_zero(e, samples=40)
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


def test_decide_zero_samples_a_unit_pair_on_its_circle():
    # sqrt(1+x^2)^2 keeps an opaque atom in the normal form, so e is
    # sampled; (a^2 + b^2 - 1) y vanishes on the circle, and a and b drawn
    # apart once read 9.9
    e = sqrt(1 + S.x ** 2) ** 2 - S.x ** 2 - 1 + (S.a ** 2 + S.b ** 2 - 1) * S.y
    ok, mode, worst = decide_zero(e, samples=40)
    assert (ok, mode) == (True, "numeric") and worst <= 1e-12
    ok, mode, _ = decide_zero(e + (S.a - S.b) * S.y, samples=40)
    assert (ok, mode) == (False, "numeric")


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
    # a superscript is a digit to str.isdigit(), but no decimal digit
    for text, offset in (("\u00b2", 0), ("2\u00b2", 1)):
        with pytest.raises(ParseError, match="unexpected character '\u00b2'") as ei:
            parse(text)
        assert ei.value.offset == offset
    # Arabic-Indic digits are decimal, and int() reads them
    assert parse("\u0663\u0661*x") == parse("31*x")


def test_parse_rejects_input_nested_too_deeply():
    # n groups around x nest parse_unary n + 1 deep
    n = E.MAX_NESTING - 1
    assert parse("(" * n + "x" + ")" * n) == S.x
    for text in ("(" * (n + 1) + "x" + ")" * (n + 1), "-" * (n + 1) + "x"):
        with pytest.raises(ParseError, match="nested too deeply") as ei:
            parse(text)
        assert ei.value.offset == E.MAX_NESTING
    with pytest.raises(ParseError, match="nested too deeply"):
        parse("(" * 1000 + "x" + ")" * 1000)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse("sin(" * 1000 + "x" + ")" * 1000)


def test_parse_of_a_caller_with_a_deep_stack():
    # the recursion limit, not the bound, stops the parse; still a ParseError
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 300)
    try:
        with pytest.raises(ParseError, match="nested too deeply") as ei:
            parse("(" * 150 + "x" + ")" * 150)
    finally:
        sys.setrecursionlimit(before)
    assert ei.value.offset < 150


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
    assert parse(to_string(e)) is e


@settings(max_examples=60, deadline=None)
@given(_expr_strategy())
# sin(x - x) normalizes to 0, not to an atom sin(0) that rebuilds as 0
@example(sin(sin(S.x - S.x)))
# a unit exp atom beside an opaque one, in one monomial
@example(mul(exp(S.x), exp(S.x / S.y)))
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


def _function_atoms(rf):
    """The Func atoms of a normal form, and of their arguments' normal
    forms, at any depth."""
    out, stack = set(), [rf]
    while stack:
        rf = stack.pop()
        for a in rf.num.atoms() | rf.den.atoms():
            if isinstance(a, E.Func) and a not in out:
                out.add(a)
                stack.append(as_ratform(a.arg))
    return out


@settings(max_examples=100, deadline=None)
@given(st.one_of(_expr_strategy(), _poly_strategy().map(E.Poly.to_expression)))
@example(mul(exp(S.x), exp(S.x / S.y), sin(S.y - S.x) ** 2))
def test_every_function_atom_is_its_node(e):
    # an atom is the node fn(canonical argument), keyed by the normal form
    # of that argument, and an exp atom keeps its argument as a Poly
    # exactly when the argument is a polynomial
    try:
        rf = as_ratform(e)
    except (NotPolynomial, E.ExprError):
        return
    for a in _function_atoms(rf):
        arg = as_ratform(a.arg)
        assert E._rat_key(arg) == a.key
        assert E._is_mergeable_exp(a) == (a.fn == "exp" and arg.is_polynomial())
        if E._is_mergeable_exp(a):
            assert a.arg_poly == arg.num
        assert E.monomial_expr(((a, 1),)) is a


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
        c = Fraction(rc) / dc
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


def _monomial_strategy():
    """Normal-form monomials: the terms of small polynomials over _POLY_ATOMS."""
    return _poly_strategy().filter(lambda p: not p.is_zero()).flatmap(
        lambda p: st.sampled_from(sorted(p.terms, key=E._mono_sort_key)))


@settings(max_examples=150, deadline=None)
@given(_monomial_strategy(), _monomial_strategy())
def test_mono_div_undoes_mono_mul(a, b):
    assert E._mono_div(E._mono_mul(a, b), b) == a
    assert E._mono_div(a, a) == ()


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


def _guarded_sqrt(p):
    """The root loop that walks graded lex (`Poly.leading()`), recomputes
    p - q*q at every step and gives up after 4000 steps: the reference for
    `poly_sqrt`.  Graded lex is no monomial order once exp atoms are
    units, so it misses (exp(u) + 1)^2."""
    if p.is_zero():
        return E.Poly({})
    box = {k: (Fraction(lo, 2), Fraction(hi, 2))
           for k, (lo, hi) in E._exp_range(p).items()}
    root = E._term_sqrt(*p.leading())
    if root is None:
        return None
    ms, cs = root
    q = E.Poly({ms: cs})
    r = p - q * q
    for _ in range(4000):
        if r.is_zero():
            return q
        rm, rc = r.leading()
        t_mono = E._mono_div(rm, ms)
        if t_mono is None or not E._in_range(t_mono, box):
            return None
        q = q + E.Poly({t_mono: Fraction(rc) / (2 * cs)})
        r = p - q * q
    return None


@settings(max_examples=150, deadline=None)
@given(_poly_strategy(atoms=_DEN_ATOMS))
@example(_EXP_XU + _ONE)
@example(_ONE - _EXP_XU)
@example(normalize(S.x * (exp(S.x) + 1)))
def test_poly_sqrt_finds_every_root_without_rewrite_atoms(q):
    # case A: q*q meets no rewrite, so the loop takes the terms of q in turn
    assert E.poly_sqrt(q * q) in (q, q.scale(Fraction(-1)))


@settings(max_examples=150, deadline=None)
@given(_poly_strategy(atoms=_DEN_ATOMS), _poly_strategy(atoms=_DEN_ATOMS))
@example(normalize(-4 * S.u - 1), normalize(Num(Fraction(3))))
@example(normalize(S.u * exp(-3 * S.u) + 1), normalize(Num(Fraction(-1))))
def test_rat_sqrt_finds_every_root_a_plus_b_r_without_rewrite_atoms(a, b):
    # (a + b*R)^2 = a^2 + b^2*(u^2 + v^2 + w^2) + 2*a*b*R: the R^2 rewrite
    # can hide the leading term from poly_sqrt, the A + B*R split cannot
    root = a + b * E.poly_atom(S.R)
    rf = E.rat_sqrt(E.RatForm(root * root, E.poly_const(Fraction(1))), S.R)
    assert rf.den == E.poly_const(Fraction(1))
    assert rf.num in (root, root.scale(Fraction(-1)))
    assert rf.num.is_zero() or rf.num.leading()[1] > 0


@settings(max_examples=150, deadline=None)
@given(_poly_strategy(), _poly_strategy(max_terms=2))
def test_poly_sqrt_is_sound_and_keeps_the_guarded_roots(q, r):
    p = q * q + r
    got = E.poly_sqrt(p)
    if got is not None:
        assert got * got == p
        assert got.is_zero() or got.leading()[1] > 0
    # with an R, b or sin atom (case B) the guarded loop may spin to its
    # guard for minutes
    if not any(E._reducible(a, 2) is not None for a in p.atoms()):
        want = _guarded_sqrt(p)
        if want is not None:
            assert got == want


def test_poly_sqrt_of_a_case_b_square_gives_up_fast():
    # R^2 rewrites, so lead(p) = 25*u^2 is not lead(q)^2 and the root is
    # missed: after 5*u - 12/5*R the remainder leads with u^2 again, and
    # the loop refuses to take u twice; the guarded loop keeps adding to
    # the terms it took and runs for minutes
    p = normalize((3 * S.R - 4 * S.u - 1) ** 2)
    assert _steps(lambda p, _: E.poly_sqrt(p), p, None) == (None, 2)


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


def test_registry_fresh_symbols():
    # the one path that registers symbols: a rotation at a symbolic eps
    # takes the first registered unit pair that the field does not name,
    # and registers a new one only when the field names every pair (a
    # number enters as an exact rational and registers none)
    from curlsym.solutions import B1, transform

    held = transform(B1, 2, S.eps)
    assert {S.a, S.b} <= free_symbols(held.v)
    rotated = transform(held, 1, S.eps)
    a2, b2 = list(REGISTRY.unit_pairs.items())[1][::-1]
    assert (a2.name, b2.name) == ("a2", "b2")
    assert is_zero_expr(a2 ** 2 + b2 ** 2 - 1)
    assert {a2, b2} <= free_symbols(rotated.u)
    # a repeat takes the same pair and adds no symbol
    before = set(REGISTRY.by_name)
    assert transform(held, 1, S.eps) == rotated
    assert set(REGISTRY.by_name) == before
    # only a field that names every pair gets a new one, k = pair count + 1
    every = {*REGISTRY.unit_pairs, *REGISTRY.unit_pairs.values()}
    k = len(REGISTRY.unit_pairs) + 1
    new = REGISTRY.unit_pair_avoiding(every)
    assert [s.name for s in new] == [f"a{k}", f"b{k}"]
    assert REGISTRY.unit_pair_avoiding(every) == new
    assert REGISTRY.unit_pair_avoiding(every - {S.a, S.b}) == (S.a, S.b)


def test_poly_is_unhashable():
    # a Poly is a value backed by a mutable dict: compared, never hashed
    with pytest.raises(TypeError):
        hash(E.poly_const(1))


@settings(max_examples=100, deadline=None)
@given(_poly_strategy(max_terms=3), st.integers(0, 6))
def test_power_matches_repeated_multiplication(p, n):
    # repeated squaring groups the factors differently; the R^2, b^2 and
    # exp rewrites must still give the same set of terms
    acc = _ONE
    for _ in range(n):
        acc = acc * p
    assert p.power(n) == acc


def test_huge_power_is_one_monomial():
    p = normalize(parse("u^1000000"))
    assert p.terms == {E._freeze({S.u: 1000000}): Fraction(1)}


def test_parse_literal_past_the_digit_cap_is_a_parse_error():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("the interpreter has no int <-> str digit cap")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ParseError, match="5000-digit literal"):
            parse("1" * 5000)
    finally:
        sys.set_int_max_str_digits(before)


# --- the coefficient rule ----------------------------------------------------


def _breaks_rule(c) -> bool:
    """A stored coefficient is an int, or a Fraction whose denominator
    exceeds 1: never a float, a bool or an integral Fraction."""
    return not (type(c) is int or (type(c) is Fraction and c.denominator > 1))


def _expr_breakers(e):
    """The Num values of a tree that break the rule."""
    if isinstance(e, Num):
        return [e.val] if _breaks_rule(e.val) else []
    if isinstance(e, (E.Add, E.Mul, E.Pow, E.Func)):
        return [v for c in E._children(e) for v in _expr_breakers(c)]
    return []


def _poly_breakers(p):
    """The coefficients of p, and of its atoms' arguments, that break the
    rule."""
    out = [c for c in p.terms.values() if _breaks_rule(c)]
    for a in p.atoms():
        if isinstance(a, E.Func):
            out += _expr_breakers(a.arg)
            if a.arg_poly is not None:
                out += _poly_breakers(a.arg_poly)
    return out


_SCALES = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@settings(max_examples=100, deadline=None)
@given(_poly_strategy(), _poly_strategy(atoms=_DEN_ATOMS), _SCALES, st.integers(0, 3))
def test_kernel_stores_integral_coefficients_as_ints(p, d, c, n):
    p = p.scale(c)
    results = [p, p + d, p - d, p * d, p.power(n), p.monic(), d.monic(),
               E.poly_div_exact(p * d, d), poly_sqrt(p * p), poly_sqrt(d * d)]
    for got in results:
        assert got is None or _poly_breakers(got) == []


@settings(max_examples=100, deadline=None)
@given(_expr_strategy())
def test_normal_forms_store_integral_coefficients_as_ints(e):
    e = parse(to_string(e))
    assert _expr_breakers(e) == []
    try:
        rf = as_ratform(e)
        forms = [rf.num, rf.den, normalize(e)]
    except (NotPolynomial, E.ExprError):
        return
    for p in forms:
        assert _poly_breakers(p) == []
    assert _expr_breakers(E.normal_expression(e)) == []


@pytest.mark.parametrize("text, value", [
    ("2^-1", Fraction(1, 2)), ("(1/2)^-2", 4), ("sqrt(1/4)", Fraction(1, 2)),
])
def test_constant_probes_keep_the_coefficient_rule(text, value):
    e = parse(text)
    assert isinstance(e, Num) and e.val == value and not _breaks_rule(e.val)
    assert normalize(e).terms == {(): value}
    assert not _poly_breakers(normalize(e))


def test_halves_that_sum_to_a_whole_give_an_int():
    p = normalize(parse("x/2 + x/2"))
    assert p.terms == {E._freeze({S.x: 1}): 1}
    assert type(p.terms[E._freeze({S.x: 1})]) is int
