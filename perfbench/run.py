"""Closed-loop benchmark for curlsym.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md): readme-tour, ansatz-deg3,
solution-sweep, or `all` to run the three in turn.  One process runs at a
time and the next starts only when it has ended.  A run repeats whole
rounds of its workload until S seconds of rounds have been timed, then
checks every output with perfbench/checks.py, outside the timed region.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of one traced round with --trace 1.
The program is taken from src/ of the checkout that holds this file; run
output goes to .perfbench/ there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from array import array
from pathlib import Path

import checks as C
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "curlsym" / "fixtures"
OUT = ROOT / ".perfbench"

PROCESS_TIMEOUT_S = 170
SETUP_REPEATS = 5
HISTORY_KEEP = 20

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = (
    ("cli.python_start_s", "s"), ("cli.deps_import_s", "s"), ("cli.commands", "count"),
    ("ratlin.nullspace_s", "s"), ("ratlin.nullspace_calls", "count"),
    ("ratlin.rref_s", "s"), ("ratlin.rref_calls", "count"),
    ("ratlin.coordinates_in_rowspan_calls", "count"),
    ("symmetry.determining_polys_s", "s"), ("symmetry.solve_polynomial_ansatz_s", "s"),
    ("symmetry.ansatz_assembly_self_s", "s"), ("symmetry.coordinates_in_basis_calls", "count"),
    ("symmetry.verify_generator_s", "s"), ("symmetry.f_constraints_from_group_s", "s"),
    ("jet.first_prolongation_calls", "count"), ("jet.first_prolongation_s", "s"),
    ("expr.as_ratform_calls", "count"), ("expr.as_ratform_s", "s"), ("expr.normalize_s", "s"),
    ("expr.decide_zero_calls", "count"), ("expr.decide_zero_numeric", "count"),
    ("expr.compile_numeric_calls", "count"),
    ("liealg.bracket_calls", "count"), ("liealg.structure_constants_s", "s"),
    ("liealg.adjoint_closed_form_s", "s"), ("liealg.expm_calls", "count"),
    ("liealg.jacobi_check_s", "s"),
    ("solutions.transform_s", "s"), ("solutions.verify_solution_residuals_s", "s"),
    ("solutions.integrate_ode_s", "s"), ("solutions.integrate_ode_steps", "count"),
    ("solutions.numeric_residuals_s", "s"), ("solutions.numeric_residuals_points", "count"),
    ("solutions.max_curl", "1"),
    ("fixtures.load_s", "s"),
    ("trace.overhead_pct", "%"),
)

# README "Command line" section, in order, with its flags, and the exit code
# the README documents for each (0 success, 1 documented fixture exceptions,
# 2 verification failed).  GENFILE and OUTDIR are filled in per round.
README_COMMANDS = (
    ("determining --system curl-f --compare-fixture determining", 0),
    ("solve-ansatz --system curl-absB --degree 2 --compare-fixture", 0),
    ("solve-ansatz --system blair --degree 2 --compare-fixture", 0),
    ("verify-generator --gen X8 --system curl-absB", 0),
    ("verify-generator --expr-file GENFILE --system blair", 0),
    ("bracket-table --basis b10", 1),
    ("bracket-table --basis b7", 0),
    ("adjoint --basis b7", 0),
    ("adjoint --basis b7 --numeric --eps 0.5", 0),
    ("verify-solution --sol B1 --system blair", 0),
    ("verify-solution --sol B2 --system curl-absB", 0),
    ("verify-solution --sol B1 --system blair --transform 2 --eps 0.4", 0),
    ("reduce --kind translation --step 1e-3 --out OUTDIR/table.csv", 0),
    ("reduce --kind rotation --step 1e-3", 0),
    ("check-f --expr R", 0),
    ("check-f --expr u", 2),
    ("check-f --solve-family", 0),
)
ANSATZ_COMMANDS = (
    ("solve-ansatz --system curl-absB --degree 3 --compare-fixture", 0),
    ("solve-ansatz --system blair --degree 3 --compare-fixture", 0),
)
SWEEP_OPERATIONS = 2 * 7 * 2 + 2
WORKLOADS = ("readme-tour", "ansatz-deg3", "solution-sweep")


# --- processes -----------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


class Proc:
    """One finished child: wall seconds, user+sys CPU seconds, peak RSS in
    MB (from wait4, so this child alone), exit code and output files."""

    def __init__(self, argv, stdout, stderr):
        self.argv = argv
        self.stdout = stdout
        self.stderr = stderr
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            p = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
            timer = threading.Timer(PROCESS_TIMEOUT_S, p.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(p.pid, 0)
            except BaseException:
                p.kill()
                p.wait()
                raise
            finally:
                timer.cancel()
            self.wall = time.perf_counter() - start
        p.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0

    def text(self) -> str:
        return Path(self.stdout).read_text()


def fresh_interpreter_s(code: str, workdir: Path, repeats: int) -> float:
    """Median wall time of `python -c code` in fresh interpreters."""
    walls = []
    for k in range(repeats):
        p = Proc([sys.executable, "-c", code], workdir / f"setup{k}.out",
                 workdir / f"setup{k}.err")
        if p.code != 0:
            raise SystemExit(f"`python -c {code!r}` failed:\n" + Path(p.stderr).read_text())
        walls.append(p.wall)
    return statistics.median(walls)


def deps_import_s(workdir: Path, repeats: int) -> float:
    code = ("import time; t = time.perf_counter(); "
            "import numpy, scipy.linalg, scipy.interpolate; "
            "print(time.perf_counter() - t)")
    vals = []
    for k in range(repeats):
        p = Proc([sys.executable, "-c", code], workdir / f"deps{k}.out",
                 workdir / f"deps{k}.err")
        if p.code != 0:
            raise SystemExit("importing numpy/scipy failed:\n" + Path(p.stderr).read_text())
        vals.append(float(p.text().split()[-1]))
    return statistics.median(vals)


# --- rounds --------------------------------------------------------------------


class Round:
    def __init__(self):
        self.procs = []
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.spans = []

    @property
    def cpu(self):
        return sum(p.cpu for p in self.procs)

    @property
    def rss_mb(self):
        return max(p.rss_mb for p in self.procs)


def cli_argv(command: str, workdir: Path, traced: bool, k: int) -> list:
    args = command.replace("GENFILE", str(workdir / "generator.txt"))
    args = args.replace("OUTDIR", str(workdir)).split()
    if traced:
        return [sys.executable, str(HERE / "tracer.py"), str(workdir / f"spans{k}.json"),
                "--", *args, "--json"]
    return [sys.executable, "-m", "curlsym.cli", *args, "--json"]


def run_cli_round(commands, workdir: Path, traced: bool) -> Round:
    rnd = Round()
    start = time.perf_counter()
    for k, (command, _) in enumerate(commands):
        argv = cli_argv(command, workdir, traced, k)
        rnd.procs.append(Proc(argv, workdir / f"out{k}.json", workdir / f"err{k}.txt"))
    rnd.wall = time.perf_counter() - start
    rnd.attempted = len(commands)
    return rnd


def run_sweep_round(workdir: Path, inputs: dict, traced: bool) -> Round:
    rnd = Round()
    argv = [sys.executable, str(HERE / "sweep.py"), "--out", str(workdir),
            "--eps", repr(inputs["eps"]), "--sample-seed", str(inputs["sample_seed"])]
    if traced:
        argv += ["--spans", str(workdir / "spans0.json")]
    start = time.perf_counter()
    rnd.procs.append(Proc(argv, workdir / "sweep.out", workdir / "sweep.err"))
    rnd.wall = time.perf_counter() - start
    rnd.attempted = SWEEP_OPERATIONS
    return rnd


# --- checks ----------------------------------------------------------------------


class Context:
    """Inputs drawn from the seed, and the references the checks share."""

    def __init__(self, seed: int):
        self.seed = seed
        self.b10 = C.load_basis_file(FIXTURES / "basis_10.txt")
        self.b7 = C.load_basis_file(FIXTURES / "basis_7.txt")
        self.c7 = C.structure_constants(self.b7)
        rng = C.draw_rng(seed, "generator")
        coeffs = [0] * len(self.b7)
        while not any(coeffs):
            coeffs = [rng.randint(-3, 3) for _ in self.b7]
        self.generator = tuple(
            sum((g[s] * c for g, c in zip(self.b7, coeffs)), C.Poly()) for s in range(6)
        )
        rng = C.draw_rng(seed, "sweep")
        self.sweep_inputs = {"eps": rng.uniform(0.2, 1.2),
                             "sample_seed": rng.randrange(2**31)}
        self.theta = rng.uniform(0.2, 1.2)  # binds a symbolic eps in checks

    def rng(self, stream: str):
        return C.draw_rng(self.seed, stream)

    def points(self, stream: str, n: int = 8):
        return C.sample_points(self.rng(stream), n)


def read_envelope(proc: Proc, command: str) -> dict:
    try:
        doc = json.loads(proc.text())
    except ValueError:
        raise C.CheckError(f"`{command}`: stdout is not one JSON document") from None
    C.require(set(doc) == {"command", "data", "exit_code", "ok"},
              f"`{command}`: envelope keys {sorted(doc)}")
    C.require(doc["command"] == command.split()[0], f"`{command}`: command field")
    C.require(doc["exit_code"] == proc.code, f"`{command}`: exit_code field")
    C.require(doc["ok"] == (proc.code in (0, 1)), f"`{command}`: ok field")
    return doc["data"]


def _check_ansatz(d, ctx, system, degree):
    basis = ctx.b10 if system == "curl-absB" else ctx.b7
    label = f"solve-ansatz {system} degree {degree}"
    C.require(d["dimension"] == len(basis) == len(d["generators"]), f"{label}: dimension")
    C.require(d["fixture"]["span_equal"] is True, f"{label}: span_equal")
    C.check_generators(d["generators"], system, basis, ctx.rng(label), label)


def _check_profile(d, ctx, text):
    want = C.profile_constraints(text, ctx.rng("profile " + text))
    got = d["constraints"]
    C.require(set(got) == set(C.CONSTRAINT_LABELS), f"check-f {text}: constraint labels")
    for label, k in C.CONSTRAINT_LABELS.items():
        C.require(got[label] == want[k], f"check-f {text}: verdict on {label}")
    C.require(d["ok"] == all(want), f"check-f {text}: overall verdict")


def _check_family(d, ctx):
    C.require(d["family"], "check-f --solve-family: empty family")
    for text in d["family"]:
        C.require(all(C.profile_constraints(text, ctx.rng("family"))),
                  f"check-f --solve-family: {text} breaks a constraint")


def _check_residual_displays(d, label):
    C.require(d["ok"] is True, f"{label}: verdict")
    C.require(all(r == "0" or r.startswith("<") for r in d["residuals"]),
              f"{label}: residual displays {d['residuals']}")


def _table_columns(table):
    return (table["points"], [s[0] for s in table["states"]], [s[1] for s in table["states"]])


def _check_translation(d, workdir):
    pts, g, h = _table_columns(d["table"])
    C.require(d["rows"] == len(pts), "reduce translation: rows")
    worst = C.check_translation_table(pts, g, h, 1e-3, "reduce translation")
    C.require(abs(d["max_deviation"] - worst) <= 1e-15, "reduce translation: max_deviation")
    with open(workdir / "table.csv") as fh:
        lines = fh.read().splitlines()
    C.require(len(lines) == len(pts) + 1, "reduce translation: --out row count")
    last = [float(c) for c in lines[-1].split(",")]
    C.require(max(abs(a - b) for a, b in zip(last, (pts[-1], g[-1], h[-1]))) <= 1e-11,
              "reduce translation: --out last row")


def _check_rotation(d, step):
    pts, beta, gamma = _table_columns(d["table"])
    rec = d["reconstruction"]
    C.require(rec["points"] == 100 and rec["max_curl"] <= 1e-6 and rec["max_div"] <= 1e-6,
              "reduce rotation: reconstruction")
    bound = C.rotation_bound(step, pts[0])
    res = C.rotation_ode_residual(pts, beta, gamma, step)
    C.require(res <= bound, f"reduce rotation: ODE residual {res:.3e} above {bound:.3e}")


def check_readme(k, d, ctx, workdir):
    pts = ctx.points(f"fields {k}")
    if k == 0:
        C.require(d["fixture"]["equivalent"] is True, "determining: not equivalent")
        C.require(d["count"] == len(d["equations"]) > 0, "determining: count")
    elif k in (1, 2):
        _check_ansatz(d, ctx, ("curl-absB", "blair")[k - 1], 2)
    elif k == 3:
        C.require(d["symmetry"] is True, "verify-generator X8: verdict")
        C.require(C.is_symmetry(ctx.b10[7], "curl-absB", ctx.rng("X8")),
                  "verify-generator X8: X8 fails the prolongation check")
    elif k == 4:
        C.require(d["symmetry"] is True, "verify-generator --expr-file: verdict")
        C.require(C.is_symmetry(ctx.generator, "blair", ctx.rng("genfile")),
                  "verify-generator --expr-file: the combination fails the prolongation check")
    elif k in (5, 6):
        basis = ctx.b10 if k == 5 else ctx.b7
        label = f"bracket-table {d['basis']}"
        C.require(d["jacobi"] is True and d["new_mismatches"] == [], f"{label}: verdict")
        c = C.read_table(d["table"]["entries"], len(basis))
        C.check_structure_constants(c, basis, label)
    elif k == 7:
        C.require(d["mismatches"] == [], "adjoint: fixture mismatches")
        C.check_adjoint_entries(d["entries"], ctx.c7, 0.5, "adjoint")
    elif k == 8:
        C.require(d["eps"] == 0.5, "adjoint --numeric: eps")
        C.check_adjoint_entries(d["coordinates"], ctx.c7, 0.5, "adjoint --numeric", tol=1e-9)
    elif k == 9:
        _check_residual_displays(d, "verify-solution B1")
        C.check_field(C.B1, pts, True, "B1")
    elif k == 10:
        _check_residual_displays(d, "verify-solution B2")
        C.check_field(C.B2, pts, False, "B2")
        C.require(d["divergence_zero"] is C.divergence_is_zero(C.B2, pts),
                  "verify-solution B2: divergence verdict")
    elif k == 11:
        _check_residual_displays(d, "verify-solution B1 --transform 2")
        C.check_field(C.moved_field(C.B1, 2, 0.4), pts, True, "B1 family 2")
    elif k == 12:
        _check_translation(d, workdir)
    elif k == 13:
        _check_rotation(d, 1e-3)
    elif k in (14, 15):
        _check_profile(d, ctx, ("R", "u")[k - 14])
    elif k == 16:
        _check_family(d, ctx)


def check_cli_round(rnd, commands, ctx, workdir, readme: bool):
    for k, ((command, expected), proc) in enumerate(zip(commands, rnd.procs)):
        if proc.code != expected:
            rnd.failed += 1
            continue
        try:
            d = read_envelope(proc, command)
            if readme:
                check_readme(k, d, ctx, workdir)
            else:
                _check_ansatz(d, ctx, command.split()[2], 3)
        except (C.CheckError, KeyError, TypeError, ValueError) as e:
            rnd.errors.append(f"`{command}`: {type(e).__name__}: {e}")


def _read_rows(path, rows):
    data = array("d")
    with open(path, "rb") as fh:
        data.fromfile(fh, 3 * rows)
    return data[0::3], data[1::3], data[2::3]


def check_sweep_round(rnd, ctx, workdir):
    try:
        out = json.loads((workdir / "sweep.json").read_text())
    except (OSError, ValueError):
        rnd.failed = rnd.attempted
        print("sweep wrote no result:\n" + Path(rnd.procs[0].stderr).read_text()[-800:],
              file=sys.stderr)
        return
    records = out["transforms"] + [out["translation"], out["rotation"]]
    if len(records) != rnd.attempted:
        rnd.errors.append(f"sweep: {len(records)} operations, wanted {rnd.attempted}")
    rnd.failed = sum("failed" in r for r in records)
    eps = ctx.sweep_inputs["eps"]
    for r in out["transforms"]:
        if "failed" in r:
            continue
        label = f"{r['solution']} family {r['family']} eps={r['eps']}"
        try:
            env = dict(r["bindings"])
            free = set().union(*(C.names_in(t) for t in r["components"])) - {"x", "y", "z"} - set(env)
            at = eps
            if r["eps"] == "eps":
                at = ctx.theta
                for name in free:
                    C.require(name[0] in "ab" or name == "eps", f"{label}: free name {name}")
                    env[name] = {"a": math.cos(at), "b": math.sin(at)}.get(name[0], at)
            else:
                C.require(not free, f"{label}: unbound names {sorted(free)}")
            field = C.field_from_texts(r["components"], env)
            base = C.B1 if r["solution"] == "B1" else C.B2
            pts = ctx.points(label, 6)
            C.check_field(field, pts, r["system"] == "blair", label)
            C.check_moved(field, C.moved_field(base, r["family"], at), pts, label)
        except (C.CheckError, KeyError, TypeError, ValueError) as e:
            rnd.errors.append(f"sweep {label}: {type(e).__name__}: {e}")
    try:
        t = out["translation"]
        if "failed" not in t:
            pts, g, h = _read_rows(workdir / "translation.f64", t["rows"])
            C.check_translation_table(pts, g, h, 1e-4, "sweep translation")
            errs = [max(abs(a - math.sin(1.0)), abs(b - math.cos(1.0)))
                    for a, b in t["ratio_finals"]]
            ratio = errs[0] / errs[1]
            lo, hi = C.RK4_TRANSLATION_STEP_RATIO
            C.require(lo <= ratio <= hi, f"sweep: step-halving ratio {ratio:.2f}")
            C.require(abs(t["ratio"] - ratio) <= 1e-9 * ratio, "sweep: reported ratio")
        rot = out["rotation"]
        if "failed" not in rot:
            pts, beta, gamma = _read_rows(workdir / "rotation.f64", rot["rows"])
            C.require(rot["points"] == 2000, "sweep rotation: sample count")
            bound = C.rotation_bound(1e-4, pts[0])
            res = C.rotation_ode_residual(pts, beta, gamma, 1e-4)
            C.require(res <= bound, f"sweep rotation: ODE residual {res:.3e} above {bound:.3e}")
    except (C.CheckError, KeyError, TypeError, ValueError, OSError, EOFError) as e:
        rnd.errors.append(f"sweep reductions: {type(e).__name__}: {e}")


# --- one run -----------------------------------------------------------------------


def run_round(workload, ctx, workdir: Path, traced: bool) -> Round:
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    if workload == "readme-tour":
        (workdir / "generator.txt").write_text(C.generator_text(ctx.generator) + "\n")
        rnd = run_cli_round(README_COMMANDS, workdir, traced)
        check_cli_round(rnd, README_COMMANDS, ctx, workdir, readme=True)
    elif workload == "ansatz-deg3":
        rnd = run_cli_round(ANSATZ_COMMANDS, workdir, traced)
        check_cli_round(rnd, ANSATZ_COMMANDS, ctx, workdir, readme=False)
    else:
        rnd = run_sweep_round(workdir, ctx.sweep_inputs, traced)
        check_sweep_round(rnd, ctx, workdir)
    if traced:
        for f in sorted(workdir.glob("spans*.json")):
            rnd.spans.append(json.loads(f.read_text()))
    return rnd


def history_path(workload):
    return OUT / f"history-{workload}.json"


def record_history(workload, walls):
    path = history_path(workload)
    try:
        old = json.loads(path.read_text())
    except (OSError, ValueError):
        old = []
    path.write_text(json.dumps((old + walls)[-HISTORY_KEEP:]))


def untraced_reference(workload):
    try:
        walls = json.loads(history_path(workload).read_text())
    except (OSError, ValueError):
        return None
    return statistics.median(walls) if walls else None


def layer_metrics(rnd, workload, seed, workdir, reference_wall):
    s = tracer.summarize(rnd.spans)
    vals = {
        "cli.python_start_s": fresh_interpreter_s("pass", workdir, SETUP_REPEATS),
        "cli.deps_import_s": deps_import_s(workdir, SETUP_REPEATS),
        "cli.commands": len(rnd.procs),
        "symmetry.ansatz_assembly_self_s": s["ansatz_assembly_self_s"],
        "trace.overhead_pct": 100.0 * (rnd.wall - reference_wall) / reference_wall,
    }
    for name, _ in PER_LAYER:
        if name in vals:
            continue
        if name in s["counts"] or name in s["maxima"]:
            vals[name] = s["counts"].get(name, s["maxima"].get(name))
        elif name.endswith("_calls"):
            vals[name] = s["calls"].get(name[: -len("_calls")], 0)
        else:
            vals[name] = s["total_s"].get(name[: -len("_s")], 0.0)
    summary = {"workload": workload, "seed": seed, "round_wall_s": rnd.wall,
               "untraced_wall_s": reference_wall, **s}
    (OUT / f"trace-{workload}.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    kept = OUT / f"spans-{workload}"
    shutil.rmtree(kept, ignore_errors=True)
    kept.mkdir()
    for f in (workdir / "traced").glob("spans*.json"):
        shutil.copy(f, kept / f.name)
    return {name: {"value": vals[name], "unit": unit} for name, unit in PER_LAYER}


def run_workload(workload, seed, seconds, trace) -> dict:
    ctx = Context(seed)
    base = OUT / f"run-{os.getpid()}-{workload}"
    base.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            reference = untraced_reference(workload)
            rounds = []
            if reference is None:
                rounds.append(run_round(workload, ctx, base / "untraced", traced=False))
                reference = rounds[0].wall
            rnd = run_round(workload, ctx, base / "traced", traced=True)
            rounds.append(rnd)
            metrics = layer_metrics(rnd, workload, seed, base, reference)
        else:
            setup = fresh_interpreter_s("import curlsym.cli", base, SETUP_REPEATS)
            rounds, timed = [], 0.0
            while not rounds or timed < seconds:
                rnd = run_round(workload, ctx, base / f"round{len(rounds)}", traced=False)
                rounds.append(rnd)
                timed += rnd.wall
                print(f"{workload} round {len(rounds)}: {rnd.wall:.2f} s wall, "
                      f"{rnd.attempted} operations, {rnd.failed} failed", file=sys.stderr)
            record_history(workload, [r.wall for r in rounds])
            metrics = {
                "wall_s": statistics.median(r.wall for r in rounds),
                "cpu_s": statistics.median(r.cpu for r in rounds),
                "setup_s": setup,
                "peak_rss_mb": statistics.median(r.rss_mb for r in rounds),
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    finally:
        shutil.rmtree(base, ignore_errors=True)
    errors = [e for r in rounds for e in r.errors]
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Closed-loop curlsym benchmark.")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "curlsym" / "cli.py").is_file():
        print(f"error: no curlsym sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    ok = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        print(f"== {workload}: {result['attempted']} operations attempted, "
              f"{result['failed']} failed, correct: {result['correct']}")
        for name, m in result["metrics"].items():
            print(f"   {name} = {m['value']:.6g} {m['unit']}")
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
