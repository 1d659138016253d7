"""The benchmark's checks accept right answers and reject wrong ones.

These run no workload and import no curlsym code; they take well under a
second.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import checks as C
import tracer

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "curlsym" / "fixtures"
B10 = C.load_basis_file(FIXTURES / "basis_10.txt")
B7 = C.load_basis_file(FIXTURES / "basis_7.txt")


def test_prolongation_check_separates_symmetries():
    rng = random.Random(0)
    assert all(C.is_symmetry(g, "curl-absB", rng) for g in B10)
    # the three conformal generators break the divergence condition
    assert [C.is_symmetry(g, "blair", rng) for g in B10[7:]] == [False] * 3
    assert not C.is_symmetry(C.parse_generator("x | 0 | 0 | 0 | 0 | 0"), "curl-absB", rng)


def test_generator_list_checks():
    rng = random.Random(1)
    texts = [C.generator_text(g) for g in B7]
    C.check_generators(texts, "blair", B7, rng, "b7")
    with pytest.raises(C.CheckError, match="dependent"):
        C.check_generators(texts[:-1] + [texts[0]], "blair", B7, rng, "b7")
    scaled = C.generator_text(tuple(p * 2 for p in B7[6][:3]) + B7[6][3:])
    with pytest.raises(C.CheckError, match="not a symmetry"):
        C.check_generators(texts[:-1] + [scaled], "blair", B7, rng, "b7")


def test_structure_constant_checks():
    c = C.structure_constants(B7)
    C.check_structure_constants(c, B7, "b7")
    wrong = [[list(v) for v in row] for row in c]
    wrong[0][1][2] += 1
    wrong[1][0][2] -= 1
    with pytest.raises(C.CheckError):
        C.check_structure_constants(wrong, B7, "b7")
    entries = {"X1,X2": "-1/2*X8 + X1", "X1,X1": "0"}
    assert C.read_combination(entries["X1,X2"], 10)[7] == Fraction(-1, 2)
    assert C.read_combination(entries["X1,X1"], 10) == [0] * 10


def test_adjoint_check_uses_its_own_series():
    c = C.structure_constants(B7)
    entries = {}
    for line in (FIXTURES / "adjoint_7.txt").read_text().splitlines():
        if "->" in line and not line.startswith("#"):
            key, _, text = line.partition("->")
            entries[key.strip()] = text.strip()
    C.check_adjoint_entries(entries, c, 0.5, "adjoint")
    entries["X1,X2"] = "cos(eps)*X2 + sin(eps)*X3"
    with pytest.raises(C.CheckError, match="X1,X2"):
        C.check_adjoint_entries(entries, c, 0.5, "adjoint")


def test_field_checks():
    pts = C.sample_points(random.Random(2), 5)
    C.check_field(C.B1, pts, True, "B1")
    C.check_field(C.B2, pts, False, "B2")
    assert not C.divergence_is_zero(C.B2, pts)
    with pytest.raises(C.CheckError):
        C.check_field(lambda x, y, z: (math.sin(z), math.cos(z), 0.1), pts, True, "bad")
    for family in range(1, 8):
        moved = C.moved_field(C.B2, family, 0.7)
        C.check_field(moved, pts, False, f"family {family}")
    with pytest.raises(C.CheckError):
        C.check_moved(C.moved_field(C.B2, 2, 0.7), C.moved_field(C.B2, 2, -0.7), pts, "sign")


def test_printed_fields_are_read_with_their_bindings():
    field = C.field_from_texts(["a*sin(z) - b*x", "cos(z)", "eps2^2"],
                               {"a": 0.5, "b": 2.0, "eps2": 3.0})
    assert field(1.0, 0.0, 0.0) == (-2.0, 1.0, 9.0)
    with pytest.raises(C.CheckError):
        C.compile_expression("__import__('os')")


def test_profile_constraints():
    rng = random.Random(3)
    assert C.profile_constraints("R", rng) == [True] * 4
    assert C.profile_constraints("u", rng) == [True, False, False, True]


def _rk4(rhs, y, t0, t1, h):
    ts, ys = [t0], [y]
    for k in range(round((t1 - t0) / h)):
        t = t0 + k * h
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, [a + h / 2 * b for a, b in zip(y, k1)])
        k3 = rhs(t + h / 2, [a + h / 2 * b for a, b in zip(y, k2)])
        k4 = rhs(t + h, [a + h * b for a, b in zip(y, k3)])
        y = [a + h / 6 * (p + 2 * q + 2 * r + s) for a, p, q, r, s in zip(y, k1, k2, k3, k4)]
        ts.append(t0 + (k + 1) * h)
        ys.append(y)
    return ts, [s[0] for s in ys], [s[1] for s in ys]


def test_reduction_table_checks():
    h = 1e-3
    ts, g, hh = _rk4(lambda t, s: [s[1], -s[0]], [0.0, 1.0], 0.0, 2.0, h)
    C.check_translation_table(ts, g, hh, h, "translation")
    g[500] += 1e-9
    with pytest.raises(C.CheckError):
        C.check_translation_table(ts, g, hh, h, "translation")

    def rot(r, s):
        speed = math.hypot(*s)
        return [s[1] * speed - s[0] / r, -s[0] * speed]

    ts, beta, gamma = _rk4(rot, [0.0, 1.0], 0.01, 0.2, h)
    assert C.rotation_ode_residual(ts, beta, gamma, h) <= C.rotation_bound(h, 0.01)
    beta[100] += 1e-6
    assert C.rotation_ode_residual(ts, beta, gamma, h) > C.rotation_bound(h, 0.01)


def test_span_summary():
    dump = {
        "spans": [
            ["symmetry.solve_polynomial_ansatz", 0.0, 10.0, -1],
            ["symmetry.determining_polys", 0.0, 2.0, 0],
            ["expr.as_ratform", 0.5, 1.0, 1],
            ["ratlin.nullspace", 3.0, 9.0, 0],
            ["ratlin.rref", 3.0, 8.0, 3],
        ],
        "calls": {"ratlin.rref": 1, "expr.as_ratform": 40},
        "counts": {"expr.decide_zero_numeric": 2},
        "maxima": {"solutions.max_curl": 1e-7},
    }
    s = tracer.summarize([dump, dump])
    assert s["total_s"]["ratlin.nullspace"] == 12.0
    assert s["self_s"]["ratlin.nullspace"] == 2.0
    assert s["self_s"]["symmetry.determining_polys"] == 3.0
    assert s["ansatz_assembly_self_s"] == 4.0
    assert s["calls"]["expr.as_ratform"] == 80
    assert s["counts"]["expr.decide_zero_numeric"] == 4
    assert s["maxima"]["solutions.max_curl"] == 1e-7


def test_benchmark_json_names_what_run_prints():
    import json

    import run

    doc = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
