"""End-to-end checks of the command line, driven through main(argv)."""

import json

import jsonschema
import pytest

from curlsym import cli


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


def test_verify_generator_expr_file_wrong_count(capsys, tmp_path):
    path = tmp_path / "gen.txt"
    path.write_text("1\n0\n0\n")
    code, _, err = run(capsys, "verify-generator", "--expr-file", str(path))
    assert code == cli.EXIT_INPUT
    assert "six" in err


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


def test_adjoint_rejects_b10(capsys):
    code, _, err = run(capsys, "adjoint", "--basis", "b10")
    assert code == cli.EXIT_INPUT
    assert "b7" in err


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


def test_verify_solution_transform_argument_errors(capsys):
    code, _, _ = run(capsys, "verify-solution", "--sol", "B1",
                     "--transform", "9", "--eps", "0.1")
    assert code == cli.EXIT_INPUT
    code, _, _ = run(capsys, "verify-solution", "--sol", "B1", "--transform", "2")
    assert code == cli.EXIT_INPUT


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


def test_reduce_rotation_reconstruction(capsys):
    code, out, _ = run(
        capsys, "reduce", "--kind", "rotation", "--step", "0.002",
        "--samples", "20",
    )
    assert code == cli.EXIT_OK
    assert "max curl" in out and "max div" in out


def test_reduce_rotation_json(capsys):
    code, doc = run_json(
        capsys, "reduce", "--kind", "rotation", "--step", "0.002",
        "--samples", "20",
    )
    assert code == cli.EXIT_OK
    rec = doc["data"]["reconstruction"]
    assert rec["points"] == 20
    assert rec["max_curl"] < 1e-6
    assert rec["max_div"] < 1e-6
    table = doc["data"]["table"]
    assert table["state"] == ["beta", "gamma"]
    assert len(table["points"]) == doc["data"]["rows"]


def test_reduce_rotation_rejects_singular_start(capsys):
    code, _, _ = run(capsys, "reduce", "--kind", "rotation",
                     "--range", "0", "3")
    assert code == cli.EXIT_INPUT


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


def test_check_f_parse_error(capsys):
    code, _, err = run(capsys, "check-f", "--expr", "((")
    assert code == cli.EXIT_INPUT
    assert "bad expression" in err


def test_check_f_solve_family(capsys):
    code, out, _ = run(capsys, "check-f", "--solve-family")
    assert code == cli.EXIT_OK
    assert "c*R" in out


def test_check_f_requires_some_input(capsys):
    code, _, err = run(capsys, "check-f")
    assert code == cli.EXIT_INPUT
    assert "--expr" in err


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


def test_all_json(capsys):
    code, doc = run_json(capsys, "all", "--compare-fixtures")
    assert code == cli.EXIT_DOCUMENTED
    assert doc["data"]["overall"] == cli.EXIT_DOCUMENTED
    sections = doc["data"]["sections"]
    assert "two-generator subalgebra candidates" in sections
    assert all("exit_code" in s for s in sections.values())


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
