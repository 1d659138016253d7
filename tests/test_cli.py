"""End-to-end checks of the command line, driven through main(argv)."""

import argparse
import ast
import contextlib
import gc
import json
import os
import re
import runpy
import shlex
import subprocess
import sys
import tracemalloc
from array import array
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import curlsym
from curlsym import cli, fixtures, liealg, ratlin, solutions, symmetry
from curlsym.expr import (MAX_NESTING, S, as_ratform, equal_exprs, normalize,
                          parse, poly_div_exact, substitute, to_string)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    doc = json.loads(out)
    jsonschema.validate(doc, cli.JSON_SCHEMA)
    assert doc["exit_code"] == code
    assert doc["ok"] == (code in (cli.EXIT_OK, cli.EXIT_DOCUMENTED))
    return code, doc


# --- determining -------------------------------------------------------------


def test_determining_prints_equations(capsys):
    code, out, _ = run(capsys, "determining", "--system", "curl-f")
    assert code == cli.EXIT_OK
    assert "15 equations" in out
    assert "zeta_w - theta_u" in out


@pytest.mark.parametrize("system, count", [("curl-absB", 15), ("blair", 30)])
def test_determining_puts_the_profile_in_afterwards(capsys, system, count):
    # the profile R goes in after prolongation, so no printed equation
    # keeps the factor u^2 + v^2 + w^2 that putting it in first leaves
    code, out, _ = run(capsys, "determining", "--system", system)
    assert code == cli.EXIT_OK
    head, *lines = out.splitlines()
    assert head == f"determining system for {system}: {count} equations"
    code, doc = run_json(capsys, "determining", "--system", system)
    assert code == cli.EXIT_OK and doc["data"]["count"] == count
    assert [ln.split(": ", 1)[1] for ln in lines] == doc["data"]["equations"]
    square = normalize(parse("u^2 + v^2 + w^2"))
    for eq in doc["data"]["equations"]:
        assert poly_div_exact(as_ratform(parse(eq)).num, square) is None


def test_determining_fixture_match(capsys):
    code, out, _ = run(
        capsys, "determining", "--system", "curl-f",
        "--compare-fixture", "determining",
    )
    assert code == cli.EXIT_OK
    assert "equivalent: True" in out


def test_determining_fixture_requires_formal_profile(capsys):
    code, _, err = run(
        capsys, "determining", "--system", "blair",
        "--compare-fixture", "determining",
    )
    assert code == cli.EXIT_INPUT
    assert "curl-f" in err


def test_determining_unknown_fixture_token(capsys):
    code, _, err = run(
        capsys, "determining", "--system", "curl-f",
        "--compare-fixture", "bogus",
    )
    assert code == cli.EXIT_INPUT
    assert "determining" in err


# --- solve-ansatz ------------------------------------------------------------


@pytest.mark.parametrize(
    "system,degree,dim",
    [("curl-absB", 2, 10), ("blair", 2, 7), ("blair", 0, 3)],
)
def test_solve_ansatz_dimensions(capsys, system, degree, dim):
    code, out, _ = run(
        capsys, "solve-ansatz", "--system", system, "--degree", str(degree)
    )
    assert code == cli.EXIT_OK
    assert f"dimension {dim}" in out


@pytest.mark.parametrize(
    "system,degree,dim",
    [
        pytest.param("curl-absB", 2, 10, id="curl-absB"),
        pytest.param("blair", 2, 7, id="blair"),
        # degree 3 finds nothing new: degree 2 already gives the whole algebra
        pytest.param("curl-absB", 3, 10, id="curl-absB-deg3"),
        pytest.param("blair", 3, 7, id="blair-deg3"),
    ],
)
def test_solve_ansatz_fixture_span(capsys, system, degree, dim):
    code, out, _ = run(
        capsys, "solve-ansatz", "--system", system, "--degree", str(degree),
        "--compare-fixture",
    )
    assert code == cli.EXIT_OK
    assert f"dimension {dim}" in out
    assert f"span comparison ({dim} reference generators): True" in out


def test_solve_ansatz_rejects_formal_profile(capsys):
    code, _, err = run(capsys, "solve-ansatz", "--system", "curl-f", "--degree", "2")
    assert code == cli.EXIT_INPUT
    assert "concrete profile" in err


def test_solve_ansatz_negative_degree(capsys):
    code, _, _ = run(capsys, "solve-ansatz", "--system", "blair", "--degree", "-1")
    assert code == cli.EXIT_INPUT


def test_solve_ansatz_refuses_a_degree_past_the_slot_bound(capsys, monkeypatch):
    # degree 40 has 56,200,914 slots; the refusal must come before any
    # monomial is built
    def unbuilt(*args):
        raise AssertionError("monomials built for an oversized ansatz")

    monkeypatch.setattr(cli.symmetry, "monomials_up_to", unbuilt)
    code, out, err = run(capsys, "solve-ansatz", "--system", "blair", "--degree", "40")
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err == ("error: ansatz degree 40 needs 56200914 coefficient slots, "
                   "more than 12000\n")


# --- verify-generator --------------------------------------------------------


def test_verify_generator_named_pass(capsys):
    code, out, _ = run(
        capsys, "verify-generator", "--gen", "X8", "--system", "curl-absB"
    )
    assert code == cli.EXIT_OK
    assert "symmetry = True" in out


def test_verify_generator_named_fail_reports_equation(capsys):
    # the scaling-type generator breaks the divergence equation
    code, out, _ = run(capsys, "verify-generator", "--gen", "X8", "--system", "blair")
    assert code == cli.EXIT_VERIFY
    assert "symmetry = False" in out
    assert "index 4" in out


def test_verify_generator_unknown_name(capsys):
    for bad in ("X11", "foo"):
        code, _, err = run(capsys, "verify-generator", "--gen", bad)
        assert code == cli.EXIT_INPUT
        assert "X1..X10" in err


def test_verify_generator_expr_file(capsys, tmp_path):
    path = tmp_path / "gen.txt"
    path.write_text("1\n0\n0\n0\n0\n0\n")
    code, out, _ = run(
        capsys, "verify-generator", "--expr-file", str(path),
        "--system", "curl-absB",
    )
    assert code == cli.EXIT_OK
    assert "symmetry = True" in out


def test_verify_generator_expr_file_pipe_form(capsys, tmp_path):
    path = tmp_path / "gen.txt"
    # comments and blank lines are skipped; one row with separators
    path.write_text("# rotation about the z axis\n\n-y | x | 0 | -v | u | 0\n")
    code, out, _ = run(
        capsys, "verify-generator", "--expr-file", str(path), "--system", "blair"
    )
    assert code == cli.EXIT_OK
    assert "symmetry = True" in out


def test_generator_names_are_constant_parameters_in_user_files(capsys, tmp_path):
    """X1..X10 read as constant parameters, like C1..C10: a translation
    along x by X1 is a symmetry, and a profile may not name X1."""
    path = tmp_path / "gen.txt"
    outputs = []
    for c in ("C1", "X1"):
        path.write_text(f"{c}\n0\n0\n0\n0\n0\n")
        outputs.append(run(capsys, "verify-generator", "--expr-file", str(path)))
    assert outputs[0] == outputs[1]
    assert outputs[1][0] == cli.EXIT_OK and "symmetry = True" in outputs[1][1]
    code, _, err = run(capsys, "check-f", "--expr", "X1")
    assert code == cli.EXIT_INPUT
    assert err == "error: a profile may name only u, v, w and R, not X1\n"


def test_verify_generator_expr_file_wrong_count(capsys, tmp_path):
    path = tmp_path / "gen.txt"
    path.write_text("1\n0\n0\n")
    code, _, err = run(capsys, "verify-generator", "--expr-file", str(path))
    assert code == cli.EXIT_INPUT
    assert "six" in err


def test_verify_generator_expr_file_rational_coefficient(capsys, tmp_path):
    path = tmp_path / "gen.txt"
    path.write_text("x/(1+y^2)|0|0|u*y|0|0\n")
    code, out, _ = run(capsys, "verify-generator", "--expr-file", str(path))
    assert code == cli.EXIT_VERIFY
    assert "symmetry = False" in out
    code, doc = run_json(capsys, "verify-generator", "--expr-file", str(path))
    assert code == cli.EXIT_VERIFY
    assert doc["data"]["first_failing"]["index"] == 1


@pytest.mark.parametrize("coef, message", [
    ("sqrt(x)", "square root has no exact polynomial form: sqrt(x)"),
    # every derivative of 1/(x - x) vanishes, so only a check of the
    # coefficient itself sees the division by zero
    ("1/(x - x)", "division by zero"),
], ids=["sqrt", "zero-denominator"])
def test_verify_generator_expr_file_coefficient_without_normal_form(
        capsys, tmp_path, coef, message):
    path = tmp_path / "gen.txt"
    path.write_text(f"{coef}|0|0|0|0|0\n")
    code, out, err = run(capsys, "verify-generator", "--expr-file", str(path))
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("line, symbol", [
    ("zeta|0|0|0|0|0", "zeta"),
    ("f|0|0|0|0|0", "f"),
    ("0|eps*eta_u|0|0|0|0", "eta_u"),
], ids=["coefficient", "profile", "partial"])
def test_verify_generator_expr_file_formal_symbol(capsys, tmp_path, line, symbol):
    # a formal symbol would be prolonged as an unknown function
    path = tmp_path / "gen.txt"
    path.write_text(line + "\n")
    code, out, err = run(capsys, "verify-generator", "--expr-file", str(path))
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"formal symbol '{symbol}'" in err


def test_verify_generator_expr_file_constant_parameters(capsys, tmp_path):
    path = tmp_path / "gen.txt"
    path.write_text("a*eps|0|0|0|0|0\n")
    code, out, _ = run(capsys, "verify-generator", "--expr-file", str(path))
    assert code == cli.EXIT_OK
    assert "symmetry = True" in out


def test_check_f_sqrt_profile(capsys):
    code, out, err = run(capsys, "check-f", "--expr", "sqrt(x)")
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err == "error: square root has no exact polynomial form: sqrt(x)\n"


@pytest.mark.parametrize("argv", [
    ("check-f", "--expr", "1/(u-u)"),
    ("verify-solution", "--sol", "FIELD"),
], ids=["check-f", "verify-solution"])
def test_division_by_zero_is_bad_input(capsys, tmp_path, argv):
    path = tmp_path / "field.txt"
    path.write_text("1/(x-x)\n0\n0\n")
    argv = [str(path) if a == "FIELD" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err == "error: division by zero in rational normal form\n"


def test_verify_solution_skips_overflowing_samples(capsys, tmp_path):
    # exp(1000 x) overflows on part of [-2, 2]^3; those points are skipped.
    # The sin(y) atom keeps the residuals sampled: an exp unit alone would
    # be decided in normal form
    path = tmp_path / "field.txt"
    path.write_text("exp(1000*x)*sin(y)\n0\n0\n")
    code, out, err = run(capsys, "verify-solution", "--sol", str(path),
                         "--system", "blair")
    assert code == cli.EXIT_VERIFY
    assert "modes: numeric symbolic numeric numeric" in out
    assert "verdict: FAIL" in out
    assert err == ""


def _horner_field(path, depth):
    """Write the field sin(y*(1 + x*(1 + x*(...)))), `depth` nested
    factors, 0, 0 to path."""
    text = "1"
    for _ in range(depth):
        text = f"1+x*({text})"
    path.write_text(f"sin(y*({text}))\n0\n0\n")
    return path


@pytest.mark.parametrize("depth", [110, MAX_NESTING - 3],
                         ids=["110", "at-the-parser-bound"])
def test_verify_solution_deep_horner_field(capsys, tmp_path, depth):
    # 110 nested factors: too deep for one parenthesised Python expression;
    # MAX_NESTING - 3 factors take the parser to its bound
    path = _horner_field(tmp_path / "field.txt", depth)
    code, out, _ = run(capsys, "verify-solution", "--sol", str(path),
                       "--system", "blair")
    assert code == cli.EXIT_VERIFY
    assert "modes: numeric symbolic numeric numeric" in out


def test_verify_solution_of_one_deep_field_again_and_again(capsys, tmp_path):
    # the second parse of a 180-factor field is the same tree as the first:
    # interned, it is the same object, where comparing two equal copies
    # walked both past the recursion limit
    path = _horner_field(tmp_path / "field.txt", 180)
    for _ in range(3):
        code, out, err = run(capsys, "verify-solution", "--sol", str(path),
                             "--system", "blair")
        assert (code, err) == (cli.EXIT_VERIFY, "")
        assert "verdict: FAIL" in out


def test_verify_solution_nested_too_deeply(capsys, tmp_path):
    # one level past the parser's bound: the same offset under pytest's
    # deeper stack as in a fresh process
    n = MAX_NESTING
    path = tmp_path / "field.txt"
    path.write_text("(" * n + "x" + ")" * n + "\n0\n0\n")
    want = f"error: expression nested too deeply (offset {n})\n"
    code, out, err = run(capsys, "verify-solution", "--sol", str(path))
    assert (code, out, err) == (cli.EXIT_INPUT, "", want)
    proc = run_fresh("verify-solution", "--sol", str(path), timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (cli.EXIT_INPUT, "", want)


@pytest.fixture
def int_digit_cap():
    """The interpreter's default 4,300-digit cap on int <-> str, restored
    afterwards: main must lift it by itself."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("the interpreter has no int <-> str digit cap")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("profile, digits", [
    ("1" * 5000 + "*u", "1" * 5000),
    ("10^5000*u", "1" + "0" * 5000),
], ids=["typed", "computed"])
def test_check_f_prints_big_integers_in_full(capsys, int_digit_cap, profile, digits):
    code, out, err = run(capsys, "check-f", "--expr", profile)
    assert err == ""
    assert code == cli.EXIT_VERIFY
    assert out.splitlines()[0] == f"profile f = {digits}*u"


def test_verify_solution_with_a_big_integer(capsys, tmp_path, int_digit_cap):
    path = tmp_path / "field.txt"
    path.write_text("x*10^5000\n0\n0\n")
    code, out, err = run(capsys, "verify-solution", "--sol", str(path),
                         "--system", "curl")
    assert err == ""
    assert code == cli.EXIT_VERIFY
    assert "verdict: FAIL" in out


@pytest.mark.parametrize("text, symbol", [
    ("u_x\n0\n0", "u_x"),
    ("x*v\n0\n0", "v"),
    ("0\n0\nR", "R"),
    ("f*x\n0\n0", "f"),
    ("x\nzeta\n0", "zeta"),
    ("x\neps*zeta_u\n0", "zeta_u"),
], ids=["jet", "component", "radical", "profile", "coefficient", "partial"])
def test_verify_solution_rejects_non_coordinate_symbols(capsys, tmp_path, text, symbol):
    # a field is B(x, y, z); any other symbol but a constant parameter
    # would be differentiated as a constant and mislead the verdict
    path = tmp_path / "field.txt"
    path.write_text(text + "\n")
    code, out, err = run(capsys, "verify-solution", "--sol", str(path))
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"not '{symbol}'" in err


def test_verify_solution_accepts_constant_parameters(capsys, tmp_path):
    path = tmp_path / "field.txt"
    path.write_text("a*sin(z)\na*cos(z)\n0\n")
    code, out, _ = run(capsys, "verify-solution", "--sol", str(path),
                       "--system", "curl")
    assert code == cli.EXIT_VERIFY
    assert "verdict: FAIL" in out


def test_check_f_trig_of_zero_argument(capsys):
    # sin(u - u) is 0, so this is the radial profile R
    code, out, _ = run(capsys, "check-f", "--expr", "R + sin(u-u)")
    assert code == cli.EXIT_OK
    assert out.count("PASS:") == 4


def fresh_env():
    """The environment of a fresh process that imports this curlsym."""
    src = str(Path(curlsym.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_fresh(*argv, timeout):
    """The CLI as a fresh process, with the interpreter's own stack depth."""
    return subprocess.run(
        [sys.executable, "-m", "curlsym.cli", *argv],
        env=fresh_env(), capture_output=True, text=True, timeout=timeout,
    )


def test_verify_solution_too_deep_to_print(tmp_path):
    # 180 nested factors normalize, but |B| has no exact square root and
    # the subtree in that message is too deep for the recursive printer
    path = _horner_field(tmp_path / "field.txt", 180)
    proc = run_fresh("verify-solution", "--sol", str(path), "--system", "curl-absB",
                     timeout=60)
    assert proc.returncode == cli.EXIT_VERIFY
    assert "verdict: FAIL" in proc.stdout
    assert proc.stderr == ""


def test_verify_solution_translated_b2():
    # every denominator is a power of (x - p)^2 + y^2 + z^2 + 1
    proc = run_fresh("verify-solution", "--sol", "B2", "--system", "curl-absB",
                     "--transform", "4", "--eps", "0.3", timeout=20)
    assert proc.returncode == cli.EXIT_OK
    assert "residuals: 0 0 0\nmodes: symbolic symbolic symbolic\n" in proc.stdout
    assert "verdict: PASS" in proc.stdout


def test_check_f_sqrt_of_exp_gives_up_fast():
    # sqrt(1 + exp(u)) has no exact form; the root search once ran for
    # minutes before its step guard ended it
    proc = run_fresh("check-f", "--expr", "sqrt(1+exp(u))", timeout=10)
    assert proc.returncode == cli.EXIT_INPUT
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: square root has no exact polynomial form: sqrt(exp(u) + 1)\n"
    )


def test_check_f_takes_the_root_of_an_r_square():
    # R^2 rewrites, so the leading-term search alone misses these roots;
    # once it ran for minutes before its step guard ended it
    for radicand in ("(3*R - 4*u - 1)^2", "(R+u)^2"):
        proc = run_fresh("check-f", "--expr", f"sqrt({radicand})", timeout=10)
        assert proc.returncode == cli.EXIT_VERIFY and proc.stderr == ""
        assert proc.stdout.startswith("profile f = sqrt(")
        assert "PASS: yz rotation-moment constraint" in proc.stdout


def test_check_f_takes_the_root_of_an_exp_square(capsys):
    # (exp(u) + 1)^2: graded lex led with 2*exp(u), no square
    code, out, err = run(capsys, "check-f", "--expr", "sqrt(exp(2*u) + 2*exp(u) + 1)")
    assert code == cli.EXIT_VERIFY and err == ""
    assert out.startswith("profile f = sqrt(exp(2*u) + 2*exp(u) + 1)\n")
    assert "PASS: yz rotation-moment constraint" in out


def test_output_to_a_closed_pipe_keeps_the_exit_code():
    # 100,001 digits, and the 62,833 rows of the table, outrun the pipe
    # buffer, so the writer is still writing when the reader closes: the
    # reader's choice, not an error
    for argv, expected in (
        (("check-f", "--expr", "10^100000*u"), cli.EXIT_VERIFY),
        (("check-f", "--expr", "10^100000*u", "--json"), cli.EXIT_VERIFY),
        (("reduce", "--kind", "translation", "--step", "1e-4"), cli.EXIT_OK),
        (("reduce", "--kind", "translation", "--step", "1e-4", "--json"), cli.EXIT_OK),
    ):
        proc = subprocess.Popen([sys.executable, "-m", "curlsym.cli", *argv],
                                env=fresh_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            assert proc.stdout.read(10)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert err == b""
        assert code == expected, argv


def test_verify_solution_overflowing_everywhere_is_undecided(capsys, tmp_path):
    # well-formed fields whose floats overflow at every sample point: the
    # residuals, and the divergence of the second, cannot be sampled
    path = tmp_path / "field.txt"
    path.write_text("10^5000*y\nsqrt(x^2+1)\n0\n")
    code, out, err = run(capsys, "verify-solution", "--sol", str(path),
                         "--system", "curl-absB")
    assert (code, err) == (cli.EXIT_VERIFY, "")
    assert "residuals: undecided undecided undecided\n" in out
    assert "modes: numeric numeric numeric\n" in out
    assert "verdict: FAIL\ndivergence: 0 (symbolic)\n" in out
    path.write_text("10^5000*x*sqrt(y^2+1)\n0\n0\n")
    code, out, err = run(capsys, "verify-solution", "--sol", str(path),
                         "--system", "curl-absB")
    assert (code, err) == (cli.EXIT_VERIFY, "")
    assert "residuals: undecided 0 undecided\n" in out
    assert out.endswith("verdict: FAIL\ndivergence: undecided (numeric)\n")
    code, doc = run_json(capsys, "verify-solution", "--sol", str(path),
                         "--system", "curl-absB")
    assert code == cli.EXIT_VERIFY
    assert doc["data"]["residuals"] == ["undecided", "0", "undecided"]
    assert doc["data"]["modes"] == ["numeric", "symbolic", "numeric"]
    assert doc["data"]["ok"] is False
    assert doc["data"]["divergence_zero"] is None


def test_check_f_with_both_kinds_of_exp_atom(capsys):
    # exp(u) (a unit) and exp(u/v) (an opaque atom) in one monomial
    code, out, err = run(capsys, "check-f", "--expr", "exp(u)*exp(u/v)")
    assert (code, err) == (cli.EXIT_VERIFY, "")
    assert out.startswith("profile f = exp(u)*exp(u/v)\n")


def test_verify_generator_source_conflicts(capsys, tmp_path):
    path = tmp_path / "gen.txt"
    path.write_text("1\n0\n0\n0\n0\n0\n")
    code, _, _ = run(
        capsys, "verify-generator", "--gen", "X1", "--expr-file", str(path)
    )
    assert code == cli.EXIT_INPUT
    code, _, _ = run(capsys, "verify-generator")
    assert code == cli.EXIT_INPUT


# --- bracket-table -----------------------------------------------------------


def test_bracket_table_b10_documented_only(capsys):
    code, out, _ = run(capsys, "bracket-table", "--basis", "b10")
    assert code == cli.EXIT_DOCUMENTED
    assert "Jacobi identity: ok" in out
    assert "3 documented mismatches, 0 new" in out
    assert "NEW" not in out


def test_bracket_table_b7_clean(capsys):
    code, out, _ = run(capsys, "bracket-table", "--basis", "b7")
    assert code == cli.EXIT_OK
    assert "0 documented mismatches, 0 new" in out


def test_bracket_table_json(capsys):
    code, doc = run_json(capsys, "bracket-table", "--basis", "b10")
    assert code == cli.EXIT_DOCUMENTED
    table = doc["data"]["table"]
    assert table["entries"]["X4,X7"] == "X4"
    assert len(doc["data"]["documented_mismatches"]) == 3
    assert doc["data"]["new_mismatches"] == []


@pytest.fixture
def fixture_copy(tmp_path, monkeypatch):
    """A writable copy of the reference tables, read by every loader."""
    for path in (Path(fixtures.__file__).parent / "fixtures").iterdir():
        (tmp_path / path.name).write_text(path.read_text())
    monkeypatch.setattr(fixtures, "_data_dir", lambda: tmp_path)
    cached = [f for f in vars(fixtures).values() if hasattr(f, "cache_clear")]
    for f in cached:
        f.cache_clear()
    yield tmp_path
    for f in cached:
        f.cache_clear()


@pytest.mark.parametrize("name, old, new, command", [
    ("brackets_10.txt", "X1,X2 -> X3", "Xa,X2 -> X3", "bracket-table"),
    ("brackets_10.txt", "X1,X2 -> X3", "X1,X2 -> X1*X2", "bracket-table"),
    ("brackets_10.txt", "X1,X2 -> X3", "X1,X2 -> X3 + 1", "bracket-table"),
    ("adjoint_7.txt", "X1,X1 -> X1", "X1,X1 -> X8", "adjoint"),
    ("brackets_10.txt", "X1,X2 -> X3", "X1,X2 -> x*X3", "bracket-table"),
    ("brackets_10.txt", "X1,X2 -> X3", "X1,X2 -> sin(X1)*X3", "bracket-table"),
    ("adjoint_7.txt", "X1,X1 -> X1", "X1,X1 -> exp(X2)*X1", "adjoint"),
    ("brackets_10.txt", "X1,X2 -> X3", "X1,X2 -> X3 + X8",
     "bracket-table --basis b7"),
], ids=["bad-key", "product", "constant-term", "past-the-basis", "non-constant",
        "generator-in-coefficient", "generator-in-adjoint-coefficient",
        "b7-cell-past-X7"])
def test_malformed_fixture_entry_is_bad_input(capsys, fixture_copy, name, old,
                                              new, command):
    path = fixture_copy / name
    text = path.read_text()
    assert f"\n{old}\n" in text
    path.write_text(text.replace(f"\n{old}\n", f"\n{new}\n"))
    code, out, err = run(capsys, *command.split())
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and name in err


# --- adjoint -----------------------------------------------------------------


def test_adjoint_closed_form_matches_fixture(capsys):
    code, out, _ = run(capsys, "adjoint", "--basis", "b7")
    assert code == cli.EXIT_OK
    assert "0 mismatches" in out


def test_adjoint_numeric(capsys):
    import math

    code, doc = run_json(capsys, "adjoint", "--basis", "b7", "--numeric",
                         "--eps", "0.5")
    assert code == cli.EXIT_OK
    coords = doc["data"]["coordinates"]
    assert coords["X1,X1"] == pytest.approx([1, 0, 0, 0, 0, 0, 0])
    # the rotation flow mixes the two in-plane translations
    assert coords["X1,X4"] == pytest.approx(
        [0, 0, 0, math.cos(0.5), math.sin(0.5), 0, 0]
    )
    # translations commute, so conjugation leaves X5 alone
    assert coords["X4,X5"] == pytest.approx([0, 0, 0, 0, 1, 0, 0])


@pytest.mark.parametrize("eps", ["nan", "inf", "1e6"])
def test_adjoint_numeric_rejects_non_finite_coordinates(capsys, eps):
    code, out, err = run(capsys, "adjoint", "--basis", "b7", "--numeric",
                         "--eps", eps, "--json")
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert len(err.splitlines()) == 1 and "non-finite" in err


def test_adjoint_rejects_b10(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["adjoint", "--basis", "b10"])
    assert exc.value.code == cli.EXIT_INPUT
    assert "b7" in capsys.readouterr().err


@pytest.mark.parametrize("counted", ["expm", "rref"])
@pytest.mark.parametrize("argv", [
    ("adjoint", "--basis", "b7", "--numeric", "--eps", "0.5"),
    ("adjoint", "--basis", "b7"),
])
def test_adjoint_solves_once_per_generator(capsys, monkeypatch, argv, counted):
    """One closed form per generator of b7, not one per table entry, and
    neither the matrix exponential nor a Wronskian solve on the way."""
    forms = []
    closed_form = liealg.adjoint_closed_form

    def counting(*args):
        forms.append(1)
        return closed_form(*args)

    def refuse(*args, **kwargs):
        raise AssertionError(f"{counted} called")

    monkeypatch.setattr(liealg, "adjoint_closed_form", counting)
    monkeypatch.setattr({"expm": liealg, "rref": ratlin}[counted], counted, refuse)
    code, _, _ = run(capsys, *argv)
    assert code == cli.EXIT_OK
    assert len(forms) == 7


# --- verify-solution ---------------------------------------------------------


def test_verify_solution_first_builtin(capsys):
    code, out, _ = run(capsys, "verify-solution", "--sol", "B1",
                       "--system", "blair")
    assert code == cli.EXIT_OK
    assert "verdict: PASS" in out


def test_verify_solution_second_builtin_curl(capsys):
    code, out, _ = run(capsys, "verify-solution", "--sol", "B2",
                       "--system", "curl-absB")
    assert code == cli.EXIT_OK
    assert "verdict: PASS" in out
    assert "divergence: nonzero" in out


def test_verify_solution_second_builtin_blair_fails(capsys):
    code, out, _ = run(capsys, "verify-solution", "--sol", "B2",
                       "--system", "blair")
    assert code == cli.EXIT_VERIFY
    assert "verdict: FAIL" in out


def test_verify_solution_from_file(capsys, tmp_path):
    path = tmp_path / "field.txt"
    path.write_text("sin(z)\ncos(z)\n0\n")
    code, out, _ = run(capsys, "verify-solution", "--sol", str(path),
                       "--system", "blair")
    assert code == cli.EXIT_OK
    assert "verdict: PASS" in out


def test_verify_solution_file_wrong_count(capsys, tmp_path):
    path = tmp_path / "field.txt"
    path.write_text("sin(z)\ncos(z)\n")
    code, _, _ = run(capsys, "verify-solution", "--sol", str(path))
    assert code == cli.EXIT_INPUT


def test_verify_solution_file_bad_expression(capsys, tmp_path):
    path = tmp_path / "field.txt"
    path.write_text("sin(z)\ncos(z\n0\n")
    code, _, _ = run(capsys, "verify-solution", "--sol", str(path))
    assert code == cli.EXIT_INPUT


@pytest.mark.parametrize("extra", [
    ["--samples", "0"], ["--samples", "-2"], ["--samples", "1000001"],
    ["--tol", "nan"], ["--tol", "inf"], ["--tol=-1e-9"],
], ids=["samples-0", "samples-negative", "samples-above-bound", "tol-nan",
        "tol-inf", "tol-negative"])
def test_verify_solution_rejects_checks_that_check_nothing(capsys, tmp_path, extra):
    # a non-solution (exit 2 at --samples 3) that passed with no sample point
    path = tmp_path / "field.txt"
    path.write_text("sin(x*y)\ncos(x*y)\n0\n")
    code, out, err = run(capsys, "verify-solution", "--sol", str(path),
                         "--system", "blair", *extra)
    assert code == cli.EXIT_INPUT
    assert out == "" and err.startswith("error: ")


def test_verify_solution_at_the_samples_bound(capsys):
    # B1 is decided in normal form, so the bound draws no sample point
    code, out, err = run(capsys, "verify-solution", "--sol", "B1",
                         "--samples", str(cli.MAX_SAMPLES))
    assert code == cli.EXIT_OK
    assert out.splitlines()[-1] == "verdict: PASS" and err == ""


def test_a_registered_unit_pair_is_never_an_input_name(capsys, tmp_path):
    # a rotation at a symbolic eps of a field that names a registers or
    # takes the pair a2, b2; a file that names a2 is refused before and
    # after it, as in a fresh process
    named = tmp_path / "named.txt"
    named.write_text("a2 + x\n0\n0\n")
    rotated = tmp_path / "rotated.txt"
    rotated.write_text("a + x\n0\n0\n")
    refused = (cli.EXIT_INPUT, "", "error: unknown identifier 'a2' (offset 0)\n")
    assert run(capsys, "verify-solution", "--sol", str(named)) == refused
    code, out, _ = run(capsys, "verify-solution", "--sol", str(rotated),
                       "--transform", "1", "--eps", "eps")
    assert code == cli.EXIT_VERIFY and "a2" in out
    assert run(capsys, "verify-solution", "--sol", str(named)) == refused


@pytest.mark.parametrize("tol, zero", [("1", True), ("1e-10", False)])
def test_verify_solution_divergence_follows_samples_and_tol(capsys, tmp_path,
                                                           tol, zero):
    # the divergence y*cos(x*y)/1000 has no normal form, so it is sampled;
    # under blair the same divergence is the 4th residual, at the same flags
    path = tmp_path / "field.txt"
    path.write_text("sin(x*y)/1000\n0\n0\n")
    flags = ("--sol", str(path), "--samples", "30", "--tol", tol)
    code, out, _ = run(capsys, "verify-solution", "--system", "curl", *flags)
    # two curl residuals are sampled too, and they fail at the small tol
    assert code == (cli.EXIT_OK if zero else cli.EXIT_VERIFY)
    assert f"divergence: {'0' if zero else 'nonzero'} (numeric)" in out
    _, doc = run_json(capsys, "verify-solution", "--system", "curl", *flags)
    assert doc["data"]["divergence_zero"] is zero
    _, doc = run_json(capsys, "verify-solution", "--system", "blair", *flags)
    assert doc["data"]["modes"][3] == "numeric"
    assert (doc["data"]["residuals"][3] == f"<{float(tol):g}") is zero


def test_verify_solution_transformed(capsys):
    code, out, _ = run(
        capsys, "verify-solution", "--sol", "B1", "--system", "blair",
        "--transform", "2", "--eps", "0.4",
    )
    assert code == cli.EXIT_OK
    assert "B1~2" in out and "verdict: PASS" in out


def test_verify_solution_transform_symbolic_eps(capsys):
    code, out, _ = run(
        capsys, "verify-solution", "--sol", "B1", "--system", "blair",
        "--transform", "6", "--eps", "eps",
    )
    assert code == cli.EXIT_OK
    assert "verdict: PASS" in out


def test_verify_solution_transform_rational_eps(capsys):
    code, out, _ = run(
        capsys, "verify-solution", "--sol", "B1", "--system", "blair",
        "--transform", "6", "--eps", "1/2",
    )
    assert code == cli.EXIT_OK
    assert "verdict: PASS" in out


def test_decimal_eps_enters_as_its_exact_decimal():
    eps = cli._parse_eps("0.4")
    assert eps == Fraction(2, 5)
    image = solutions.transform(solutions.B2, 4, eps)
    shifted = [substitute(c, {S.x: parse("x - 2/5")})
               for c in solutions.B2.components()]
    assert all(map(equal_exprs, image.components(), shifted))
    # 2/5 and its powers, not the float's 16-digit denominators
    printed = " ".join(map(to_string, image.components()))
    assert "16*z/5" in printed and max(map(len, re.findall(r"\d+", printed))) == 3
    # a rotation takes its point from the same float as before
    assert ([to_string(c) for c in solutions.transform(solutions.B1, 2, eps).components()]
            == [to_string(c) for c in solutions.transform(solutions.B1, 2, 0.4).components()])


@pytest.mark.parametrize("sol, system, family, eps, message", [
    ("B1", "blair", 2, "nan", "not a finite number"),
    ("B1", "blair", 4, "inf", "not a finite number"),
    # the NaN parameter made every divergence sample NaN, read as zero
    ("B2", "curl-absB", 7, "nan", "not a finite number"),
    ("B2", "curl-absB", 4, "x", "must not depend"),
    ("B1", "blair", 7, "u_x", "must not depend"),
    ("B1", "blair", 6, "R", "must not depend"),
    ("B1", "blair", 4, "1/(x-x)", "division by zero"),
], ids=["nan", "inf", "nan-divergence", "coordinate", "jet", "radical",
        "zero-denominator"])
def test_verify_solution_rejects_bad_eps(capsys, sol, system, family, eps,
                                         message):
    code, out, err = run(capsys, "verify-solution", "--sol", sol,
                         "--system", system, "--transform", str(family),
                         "--eps", eps)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.startswith(f"error: bad eps value {eps!r}: ") and message in err
    assert err.count("\n") == 1


def test_verify_solution_transform_argument_errors(capsys):
    code, _, _ = run(capsys, "verify-solution", "--sol", "B1",
                     "--transform", "9", "--eps", "0.1")
    assert code == cli.EXIT_INPUT
    code, _, _ = run(capsys, "verify-solution", "--sol", "B1", "--transform", "2")
    assert code == cli.EXIT_INPUT
    code, out, err = run(capsys, "verify-solution", "--sol", "B1", "--eps", "0.3")
    assert code == cli.EXIT_INPUT
    assert out == "" and err == "error: --eps needs --transform\n"


# --- reduce ------------------------------------------------------------------


def test_reduce_translation_to_file(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, out, _ = run(
        capsys, "reduce", "--kind", "translation", "--step", "0.01",
        "--out", str(out_path),
    )
    assert code == cli.EXIT_OK
    assert "max deviation from exact profile" in out
    lines = out_path.read_text().splitlines()
    assert lines[0] == "z,g,h"
    assert len(lines) == 631


def test_reduce_translation_stdout_table(capsys):
    code, out, _ = run(
        capsys, "reduce", "--kind", "translation", "--step", "0.5",
        "--range", "0", "2",
    )
    assert code == cli.EXIT_OK
    assert "z,g,h" in out


def test_only_the_process_exit_freezes_the_heap(capsys, tmp_path):
    # `python -m curlsym.cli` freezes the heap once main() has returned, so
    # the shutdown collections skip it; main() itself never does
    before = gc.get_freeze_count()
    code, _, _ = run(capsys, "reduce", "--kind", "translation", "--step", "0.5",
                     "--out", str(tmp_path / "small.csv"))
    assert code == cli.EXIT_OK
    assert gc.get_freeze_count() == before
    # and the frozen exit still writes the whole table and envelope
    out_path = tmp_path / "table.csv"
    proc = run_fresh("reduce", "--kind", "translation", "--out", str(out_path),
                     "--json", timeout=60)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, "")
    assert proc.stdout.endswith("}\n")
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, cli.JSON_SCHEMA)
    assert (doc["exit_code"], doc["ok"]) == (cli.EXIT_OK, True)
    lines = out_path.read_text().splitlines()
    assert lines[0] == "z,g,h"
    assert len(lines) == 1 + doc["data"]["rows"] == 6286
    assert lines[-1].startswith("6.28318530718,")


def test_reduce_rotation_reconstruction(capsys):
    # the README example, default samples and tolerance
    code, out, _ = run(capsys, "reduce", "--kind", "rotation", "--step", "1e-3")
    assert code == cli.EXIT_OK
    assert "over 100 points" in out
    assert "max curl" in out and "max div" in out


def test_reduce_rotation_json(capsys):
    code, doc = run_json(capsys, "reduce", "--kind", "rotation", "--step", "2e-3")
    assert code == cli.EXIT_OK
    rec = doc["data"]["reconstruction"]
    assert rec["points"] == 100
    assert rec["max_curl"] < 1e-6
    assert rec["max_div"] < 1e-6
    table = doc["data"]["table"]
    assert table["state"] == ["beta", "gamma"]
    assert len(table["points"]) == doc["data"]["rows"]


@pytest.mark.parametrize("extra", [
    ["--samples", "0"], ["--samples", "1000001"],
    ["--step", "2e-2", "--tol", "nan"], ["--tol", "-1"],
], ids=["samples-0", "samples-above-bound", "tol-nan", "tol-negative"])
def test_reduce_rotation_rejects_checks_that_check_nothing(capsys, extra):
    # --step 2e-2 exits 2 at the default tolerance (max curl about 2e-2)
    code, out, err = run(capsys, "reduce", "--kind", "rotation", *extra)
    assert code == cli.EXIT_INPUT
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("extra, name", [
    (["--ic", "nan", "1"], "initial state"),
    (["--range", "0", "inf"], "span"),
    (["--range", "0.01", "nan"], "span"),
    (["--step", "nan"], "step"),
    (["--step", "5e-324", "--range", "0", "1"], "steps"),
    (["--step", "1e-300", "--range", "0", "1e-290"], "steps"),
    (["--ic", "1e200", "0"], "initial state"),
], ids=["ic-nan", "range-inf", "range-nan", "step-nan", "steps-inf",
        "steps-1e10", "ic-overflows"])
def test_reduce_rejects_non_finite_inputs(capsys, extra, name):
    code, out, err = run(capsys, "reduce", "--kind", "translation", *extra)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ") and name in err and err.count("\n") == 1


@pytest.mark.parametrize("kind, ic, rows", [
    ("translation", "1e150", 1),  # the first step overflows
    ("rotation", "1e150", 1),
    ("translation", "1e7", 2),  # the first step leaves the norm bound
])
def test_reduce_overflow_is_a_blow_up(capsys, kind, ic, rows):
    code, out, err = run(capsys, "reduce", "--kind", kind, "--ic", ic, "0")
    assert code == cli.EXIT_VERIFY
    assert f"rows: {rows}, blown_up: True" in out and err == ""


def test_reduce_rotation_rejects_singular_start(capsys):
    code, _, _ = run(capsys, "reduce", "--kind", "rotation",
                     "--range", "0", "3")
    assert code == cli.EXIT_INPUT


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize("ic", ["1e-200"])
def test_reduce_rotation_refuses_a_zero_field(capsys, ic, json_flag):
    # the square of 1e-200 underflows, so the reconstruction's curvature
    # terms gamma*beta^2/(r*s) and beta^3/(r*s), s = |(beta, gamma)|, are
    # 0/0 at a state that is not the equilibrium (0, 0)
    code, out, err = run(capsys, "reduce", "--kind", "rotation", "--ic", ic, "0",
                         *json_flag)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err == "error: reconstruction fails at radius 0.01 (ZeroDivisionError)\n"


def test_reduce_rotation_reconstructs_the_zero_field(capsys):
    # (0, 0) is an equilibrium of the reduced ODE: the solution through it
    # and its curvature are identically zero, and so is B
    code, out, err = run(capsys, "reduce", "--kind", "rotation", "--ic", "0", "0")
    assert code == cli.EXIT_OK and err == ""
    assert "final state: (0, 0)" in out
    assert ("reconstruction residuals over 100 points: "
            "max curl 0.000e+00, max div 0.000e+00") in out
    code, doc = run_json(capsys, "reduce", "--kind", "rotation", "--ic", "0", "0")
    assert code == cli.EXIT_OK
    assert all(state == [0, 0] for state in doc["data"]["table"]["states"])
    rec = doc["data"]["reconstruction"]
    assert (rec["points"], rec["max_curl"], rec["max_div"]) == (100, 0, 0)


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_reduce_rotation_refuses_a_span_narrower_than_the_sample_margin(
        capsys, monkeypatch, json_flag):
    # the residual samples keep 1e-3 from both ends of the table; a span
    # under 2e-3 used to draw radii whose stencil left it (a traceback)
    def unintegrated(*args):
        raise AssertionError("integrated a span that is refused")

    monkeypatch.setattr(solutions, "integrate_ode", unintegrated)
    code, out, err = run(capsys, "reduce", "--kind", "rotation", "--range", "1",
                         "1.001", "--step", "1e-4", *json_flag)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err == ("error: radial range [1, 1.001] is narrower than 0.002, "
                   "twice the margin kept by the residual samples\n")


@pytest.mark.parametrize("hi", ["1.002", "1.0025"])
def test_reduce_rotation_samples_a_span_of_twice_the_margin(capsys, hi):
    code, out, err = run(capsys, "reduce", "--kind", "rotation", "--range", "1",
                         hi, "--step", "1e-4")
    assert code == cli.EXIT_OK and err == ""
    assert "reconstruction residuals over 100 points" in out


def test_reduce_blow_up_json_has_no_nan(capsys):
    # 1e154^2 + 1e154^2 overflows to inf in the first step, which turns the
    # state NaN; the table ends at the last finite node
    code, out, err = run(capsys, "reduce", "--kind", "translation", "--ic",
                         "1e154", "1e154", "--step", "1e-2", "--json")

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    doc = json.loads(out, parse_constant=refuse)
    assert code == cli.EXIT_VERIFY and err == ""
    assert doc["data"]["blown_up"] is True
    assert doc["data"]["rows"] == 1
    assert doc["data"]["final_state"] == [1e154, 1e154]


# --- check-f -----------------------------------------------------------------


def test_check_f_radial_profile(capsys):
    code, out, _ = run(capsys, "check-f", "--expr", "R")
    assert code == cli.EXIT_OK
    assert out.count("PASS:") == 4
    assert "full symmetry group" in out


def test_check_f_component_profile_fails_moment(capsys):
    # f = u satisfies the homogeneity constraint but not the moments
    code, out, _ = run(capsys, "check-f", "--expr", "u")
    assert code == cli.EXIT_VERIFY
    assert "PASS: radial homogeneity" in out
    assert "FAIL: xy rotation-moment constraint" in out
    assert "verdict: FAIL (xy rotation-moment constraint)" in out


def test_check_f_constant_profile(capsys):
    # constant profiles break radial homogeneity but keep the moments
    code, out, _ = run(capsys, "check-f", "--expr", "1")
    assert code == cli.EXIT_VERIFY
    assert "FAIL: radial homogeneity" in out
    assert out.count("PASS:") == 3


@pytest.mark.parametrize("expr, symbol", [
    ("x*R", "x"),
    ("R*y", "y"),
    ("zeta", "zeta"),
    ("f", "f"),
    ("u_x", "u_x"),
])
def test_check_f_profile_not_a_function_of_the_field(capsys, expr, symbol):
    # the constraints hold for f(u, v, w) only: x*R passes all four, yet
    # the x-translation is no symmetry of curl B = x |B| B
    code, out, err = run(capsys, "check-f", "--expr", expr)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err == f"error: a profile may name only u, v, w and R, not {symbol}\n"


def test_check_f_parse_error(capsys):
    code, _, err = run(capsys, "check-f", "--expr", "((")
    assert code == cli.EXIT_INPUT
    assert "bad expression" in err


def test_check_f_solve_family(capsys):
    code, out, _ = run(capsys, "check-f", "--solve-family")
    assert code == cli.EXIT_OK
    assert "c*R" in out


def test_check_f_solve_family_negative_degree(capsys):
    code, out, err = run(capsys, "check-f", "--solve-family", "--degree", "-1")
    assert code == cli.EXIT_INPUT
    assert out == "" and "degree" in err


def test_check_f_solve_family_degree_zero_has_only_constant_slots(capsys):
    # deg q <= degree - 1 leaves no slot for c*R, and no constant solves
    # the homogeneity constraint
    code, out, err = run(capsys, "check-f", "--solve-family", "--degree", "0")
    assert code == cli.EXIT_OK and err == ""
    assert out == "profiles solving all four constraints (ansatz degree 0): none\n"


def test_check_f_refuses_a_family_degree_past_the_slot_bound(capsys, monkeypatch):
    # degree 10 has 286 + 220 slots; the refusal must come before any
    # monomial is built, so even a huge degree returns at once
    def unbuilt(*args):
        raise AssertionError("monomials built for an oversized family")

    monkeypatch.setattr(cli.symmetry, "monomials_up_to", unbuilt)
    code, out, err = run(capsys, "check-f", "--solve-family", "--degree", "10")
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err == ("error: profile family degree 10 needs 506 coefficient "
                   "slots, more than 400\n")
    code, out, err = run(capsys, "check-f", "--solve-family", "--degree",
                         str(10**9))
    assert code == cli.EXIT_INPUT and out == ""
    assert err.startswith("error: profile family degree 1000000000 needs ")


def test_check_f_requires_some_input(capsys):
    code, _, err = run(capsys, "check-f")
    assert code == cli.EXIT_INPUT
    assert "--expr" in err


@pytest.mark.parametrize("argv, message", [
    (("check-f", "--expr", "u", "--solve-family"),
     "give either --expr or --solve-family, not both"),
    (("check-f", "--expr", "R", "--degree", "3"), "--degree needs --solve-family"),
    (("adjoint", "--basis", "b7", "--eps", "0.5"), "--eps needs --numeric"),
])
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_flags_that_would_be_ignored_are_refused(capsys, argv, message, json_flag):
    code, out, err = run(capsys, *argv, *json_flag)
    assert code == cli.EXIT_INPUT
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("verify-solution", "--sol", "B1", "--system", "blair", "--transform", "2",
      "--eps", "10^400"),
     "bad eps value '10^400': a rotation needs eps within float range, "
     "not |eps| >= 10^400"),
    (("reduce", "--kind", "translation", "--step", "1e-2",
      "--out", "{tmp}/missing/t.csv"),
     "cannot write {tmp}/missing/t.csv: [Errno 2] "),
    (("reduce", "--kind", "translation", "--step", "1e-2", "--out", "{tmp}"),
     "cannot write {tmp}: [Errno 21] "),
    (("verify-solution", "--sol", "{tmp}/latin1_field.txt"),
     "cannot read {tmp}/latin1_field.txt: 'utf-8' codec can't decode byte 0xff"),
    (("verify-generator", "--expr-file", "{tmp}/latin1_field.txt"),
     "cannot read {tmp}/latin1_field.txt: 'utf-8' codec can't decode byte 0xff"),
    (("check-f", "--expr", "2\u00b2"),
     "bad expression: unexpected character '\u00b2' (offset 1)"),
], ids=["rotation-past-float-range", "out-in-missing-dir", "out-is-a-dir",
        "sol-not-utf8", "expr-file-not-utf8", "superscript-digit"])
@pytest.mark.parametrize("fresh", [False, True], ids=["in-process", "fresh"])
def test_input_that_once_raised_is_bad_input(capsys, tmp_path, argv, message,
                                             fresh):
    # each once ended in a traceback with exit 1, or, for the superscript,
    # in a message about a literal's length
    (tmp_path / "latin1_field.txt").write_bytes(b"\xffx\n0\n0\n")
    argv = [a.format(tmp=tmp_path) for a in argv]
    if fresh:
        proc = run_fresh(*argv, timeout=60)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_INPUT and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: " + message.format(tmp=tmp_path))


@pytest.mark.parametrize("argv, content", [
    (("verify-solution", "--sol", "input.txt", "--system", "blair"),
     "sin(z)\ncos(z)\n0\n"),
    (("verify-generator", "--expr-file", "input.txt", "--system", "blair"),
     "-y\nx\n0\n-v\nu\n0\n"),
], ids=["sol", "expr-file"])
def test_a_byte_order_mark_is_skipped(capsys, tmp_path, monkeypatch, argv,
                                      content):
    # a file saved as UTF-8 with a leading byte-order mark reads as the
    # same text without it; it was once an unexpected character '\ufeff'
    runs = []
    for name, mark in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "input.txt").write_bytes(mark + content.encode())
        monkeypatch.chdir(tmp_path / name)
        runs.append(run(capsys, *argv))
    assert runs[0] == runs[1]
    assert runs[0][0] == cli.EXIT_OK


# --- all ---------------------------------------------------------------------


def test_all_documented_only_and_deterministic(capsys):
    code1, out1, _ = run(capsys, "all", "--compare-fixtures")
    code2, out2, _ = run(capsys, "all", "--compare-fixtures")
    assert code1 == code2 == cli.EXIT_DOCUMENTED
    assert out1 == out2
    assert "overall exit: 1" in out1
    assert "pair X2,X5: does NOT close (documented" in out1
    assert "pair X3,X4: does NOT close (documented" in out1
    assert "NEW" not in out1


def test_all_builds_each_bracket_table_once(capsys, monkeypatch):
    # b10 for its bracket section, b7 for the bracket, adjoint and
    # subalgebra sections; the tables live for the process, so a second
    # `all` builds none
    built = []
    inner = liealg.structure_constants

    def counting(basis):
        built.append(len(basis))
        return inner(basis)

    monkeypatch.setattr(liealg, "structure_constants", counting)
    cli._algebra_table.cache_clear()
    code, _, _ = run(capsys, "all", "--compare-fixtures")
    assert code == cli.EXIT_DOCUMENTED
    assert sorted(built) == [7, 10]
    code, _, _ = run(capsys, "all", "--compare-fixtures")
    assert code == cli.EXIT_DOCUMENTED
    assert sorted(built) == [7, 10]


def test_all_json(capsys):
    code, doc = run_json(capsys, "all", "--compare-fixtures")
    assert code == cli.EXIT_DOCUMENTED
    assert doc["data"]["overall"] == cli.EXIT_DOCUMENTED
    sections = doc["data"]["sections"]
    # each section holds what the subcommand alone prints under --json
    alone = {
        "determining (formal profile) vs fixture":
            ("determining", "--system", "curl-f", "--compare-fixture", "determining"),
        "ansatz degree 2, magnitude profile":
            ("solve-ansatz", "--system", "curl-absB", "--degree", "2",
             "--compare-fixture"),
        "ansatz degree 2, divergence-free":
            ("solve-ansatz", "--system", "blair", "--degree", "2",
             "--compare-fixture"),
        "bracket table, ten generators": ("bracket-table", "--basis", "b10"),
        "bracket table, seven generators": ("bracket-table", "--basis", "b7"),
        "adjoint table": ("adjoint", "--basis", "b7"),
        "first solution, full system":
            ("verify-solution", "--sol", "B1", "--system", "blair"),
        "second solution, curl equations":
            ("verify-solution", "--sol", "B2", "--system", "curl-absB"),
        "profile constraint check": ("check-f", "--expr", "R"),
    }
    assert set(sections) == {*alone, "two-generator subalgebra candidates"}
    for title, argv in alone.items():
        single_code, single = run_json(capsys, *argv)
        assert sections[title] == {"exit_code": single_code, "data": single["data"]}
    pairs = sections["two-generator subalgebra candidates"]
    assert pairs["exit_code"] == cli.EXIT_DOCUMENTED
    assert pairs["data"]["X4,X5"] is True
    assert pairs["data"]["X2,X5"] is False and pairs["data"]["X3,X4"] is False
    assert pairs["data"]["X1,X4"] is False  # the control pair


# --- envelope and argparse behavior -------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("determining", "--system", "curl-f"),
        ("solve-ansatz", "--system", "blair", "--degree", "0"),
        ("verify-generator", "--gen", "X4"),
        ("bracket-table", "--basis", "b7"),
        ("adjoint", "--basis", "b7"),
        ("verify-solution", "--sol", "B1"),
        ("check-f", "--expr", "R"),
    ],
)
def test_json_envelope_everywhere(capsys, argv):
    code, doc = run_json(capsys, *argv)
    assert doc["command"] == argv[0]
    assert isinstance(doc["data"], dict)
    assert code in (cli.EXIT_OK, cli.EXIT_DOCUMENTED)


def _reduce_translation(*extra):
    args = cli.build_parser().parse_args(
        ["reduce", "--kind", "translation", "--step", "1e-3", *extra])
    return args, *args.func(args)


def test_json_envelope_is_written_in_batches(capsys):
    # the 6,285-row table goes out as json.dumps prints it, but the envelope
    # is never held whole: the encoder's chunks go out a batch at a time
    args, lines, data, code = _reduce_translation("--json")
    assert "-- table (csv) --" not in lines
    assert cli._emit(args, lines, data, code) == cli.EXIT_OK
    doc = {"command": "reduce", "exit_code": code, "ok": True, "data": data}
    assert capsys.readouterr().out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            cli._emit(args, lines, data, code)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_text_output_is_the_lines(capsys):
    args, lines, data, code = _reduce_translation()
    # the marker, the header and 6,285 rows close the text
    assert lines[-6287] == "-- table (csv) --"
    assert cli._emit(args, lines, data, code) == cli.EXIT_OK
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


def test_system_choices_are_the_table_of_systems():
    # every --system flag offers the names of symmetry.SYSTEMS in its
    # order, so --help and argparse's invalid-choice message list them so
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    choices = {name: list(action.choices) for name, p in sub.choices.items()
               for action in p._actions if action.dest == "system"}
    assert choices.pop("verify-solution") == ["curl", *symmetry.SYSTEMS]
    assert choices == dict.fromkeys(
        ["determining", "solve-ansatz", "verify-generator"], list(symmetry.SYSTEMS))
    assert list(symmetry.SYSTEMS) == ["curl-f", "curl-absB", "blair"]


def test_unknown_subcommand_exits_4(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == cli.EXIT_INPUT


def test_unknown_flag_exits_4(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bracket-table", "--frobnicate"])
    assert exc.value.code == cli.EXIT_INPUT


def test_missing_subcommand_exits_4(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == cli.EXIT_INPUT


# --- the README ---------------------------------------------------------------


def _readme_commands():
    """The `curlsym ...` lines of the README's "Command line" block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    return [shlex.split(ln.strip())[1:] for ln in section.splitlines()
            if ln.startswith("    curlsym ")]


_README_EXITS = {("bracket-table", "--basis", "b10"): cli.EXIT_DOCUMENTED,
                 ("all", "--compare-fixtures"): cli.EXIT_DOCUMENTED,
                 ("check-f", "--expr", "u"): cli.EXIT_VERIFY}


def test_readme_commands_run_as_documented(capsys, monkeypatch, tmp_path):
    commands = _readme_commands()
    assert len(commands) == 18
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my_generator.txt").write_text("-y\nx\n0\n-v\nu\n0\n")
    for argv in commands:
        code, doc = run_json(capsys, *argv)
        assert code == _README_EXITS.get(tuple(argv), cli.EXIT_OK), argv
        assert doc["command"] == argv[0]
    assert (tmp_path / "table.csv").read_text().startswith("z,g,h\n")


# --- start-up -----------------------------------------------------------------


# fresh-process runs: the import alone, a symbolic command, the float
# adjoint and both RK4 reductions
_FRESH_RUNS = pytest.mark.parametrize("run", [
    "import curlsym.cli",
    "import runpy\n"
    "sys.argv = ['curlsym', 'verify-generator', '--gen', 'X8', '--system', 'curl-absB']\n"
    "try:\n"
    "    runpy.run_module('curlsym.cli', run_name='__main__')\n"
    "except SystemExit as e:\n"
    "    assert e.code == 0, e.code",
    "import runpy\n"
    "sys.argv = ['curlsym', 'adjoint', '--basis', 'b7', '--numeric', '--eps', '0.5']\n"
    "try:\n"
    "    runpy.run_module('curlsym.cli', run_name='__main__')\n"
    "except SystemExit as e:\n"
    "    assert e.code == 0, e.code",
    "import runpy\n"
    "sys.argv = ['curlsym', 'verify-solution', '--sol', 'B1', '--system', 'blair',"
    " '--transform', '2', '--eps', '0.4']\n"
    "try:\n"
    "    runpy.run_module('curlsym.cli', run_name='__main__')\n"
    "except SystemExit as e:\n"
    "    assert e.code == 0, e.code",
    "import runpy\n"
    "sys.argv = ['curlsym', 'reduce', '--kind', 'translation']\n"
    "try:\n"
    "    runpy.run_module('curlsym.cli', run_name='__main__')\n"
    "except SystemExit as e:\n"
    "    assert e.code == 0, e.code",
    "import runpy\n"
    "sys.argv = ['curlsym', 'reduce', '--kind', 'rotation']\n"
    "try:\n"
    "    runpy.run_module('curlsym.cli', run_name='__main__')\n"
    "except SystemExit as e:\n"
    "    assert e.code == 0, e.code",
], ids=["import", "verify-generator", "adjoint-numeric", "verify-solution-transform",
        "reduce-translation", "reduce-rotation"])


@_FRESH_RUNS
def test_symbolic_commands_load_no_numpy_or_scipy(run):
    """curlsym has no runtime dependency: a fresh process that imports the
    CLI, runs a symbolic command, the float adjoint or either RK4
    reduction loads neither numpy nor scipy."""
    code = (
        f"import json, sys\n{run}\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('numpy', 'scipy'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


@_FRESH_RUNS
def test_commands_load_no_dataclasses_or_inspect(run):
    """No command needs dataclasses, nor so inspect, ast and dis, which it
    loads: a fresh process that imports the CLI or runs one of the commands
    above loads none of the four."""
    code = (
        f"import json, sys\n{run}\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m in ('dataclasses', 'inspect', 'ast', 'dis'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


@pytest.mark.parametrize("argv", [
    "solve-ansatz --system curl-absB --degree 2",
    "check-f --expr R",
    "verify-solution --sol B1 --system blair",
    "reduce --kind translation",
])
def test_commands_without_a_bracket_table_load_no_liealg(argv):
    code = (
        "import sys\n"
        "from curlsym import cli\n"
        f"assert cli.main({argv.split()!r}) == 0\n"
        "print('curlsym.liealg' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_fixture_loader_loads_no_importlib_resources():
    """The fixture tables are read with `open` from the package directory:
    a fresh process without site packages (whose .pth files may load it
    anyway) that imports the CLI and reads a table loads no
    importlib.resources, nor the tempfile, shutil and zlib it brings."""
    code = (
        "import sys\n"
        "from curlsym import cli, fixtures\n"
        "assert len(fixtures.load_basis(7)) == 7\n"
        "print('importlib.resources' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs procfs")
@pytest.mark.parametrize("system", ["curl-absB", "blair"])
def test_degree_6_ansatz_peak_memory(system):
    """The ansatz rows stream into the elimination and none is held once
    reduced: a fresh `solve-ansatz --degree 6` peaks under 30 MB (about
    24 MB; holding every row first took 35 and 41 MB).  The child reads
    its own VmHWM, which unlike the children's ru_maxrss of this process
    does not carry pytest's high-water mark."""
    code = (
        "import sys\n"
        "from curlsym import cli\n"
        f"code = cli.main(['solve-ansatz', '--system', {system!r}, '--degree', '6'])\n"
        "sys.stdout.flush()\n"
        "with open('/proc/self/status') as fh:\n"
        "    hwm = next(ln for ln in fh if ln.startswith('VmHWM:'))\n"
        "sys.stderr.write(hwm)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert f"dimension {10 if system == 'curl-absB' else 7}" in proc.stdout
    kb = int(proc.stderr.split()[-2])
    assert kb < 30 * 1024, f"VmHWM {kb / 1024:.1f} MB"


def test_runtime_imports_only_the_standard_library():
    """Every module of the package imports only the standard library and
    curlsym itself, and pyproject.toml lists no runtime dependency."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(curlsym.__file__).resolve().parent
    foreign = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names
                        and name.split(".")[0] != "curlsym"]
    assert foreign == []
    pyproject = root.parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []


# --- benchmark tracer ---------------------------------------------------------


def test_benchmark_tracer_finds_every_traced_function(tmp_path):
    """perfbench/tracer.py wraps program functions by name, so deleting or
    renaming one of them must fail here and not only in the traced runs.
    Every traced key gets an entry in `calls`, called or not."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    targets = runpy.run_path(str(tracer))["TARGETS"]
    keys = {"fixtures.load" if fns == "load_*" else f"{mod}.{fn}"
            for mod, fns in targets.items() for fn in fns}
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(tracer), str(spans), "--", "check-f", "--expr", "R"],
        env=fresh_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(spans.read_text())["calls"]) == keys


def test_benchmark_sweep_writes_the_table_it_was_given(tmp_path):
    """perfbench/sweep.py writes each RK4 table as float64 rows
    (t, state0, state1) through `tolist()`, so a change to the table's
    shape or type must fail here and not only in the solution-sweep runs."""
    sweep = Path(__file__).resolve().parents[1] / "perfbench" / "sweep.py"
    write_table = runpy.run_path(str(sweep))["_write_table"]
    ode = solutions.reduce_system("translation")
    table = solutions.integrate_ode(ode, (0.0, 1.0), (0.0, 1.0), 1e-2)
    path = tmp_path / "translation.f64"
    assert write_table(table, str(path)) == len(table.points) == 101
    rows = array("d", path.read_bytes())
    assert list(rows) == [c for t, y in zip(table.points, table.states) for c in (t, *y)]
