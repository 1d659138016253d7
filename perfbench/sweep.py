"""The solution-sweep workload: one interpreter drives the public API of
curlsym.solutions and writes what it computed for the checks in run.py.

    python perfbench/sweep.py --out DIR --eps E --sample-seed N [--spans FILE]

Operations, in order (30 in all):
  * transform then verify_solution_residuals for B1 on the divergence-free
    system and B2 on the curl system, families 1-7, once at the numeric
    eps E and once at the symbolic eps;
  * the translation reduction at h = 1e-4 over [0, 2 pi], with the
    step-halving ratio and the two final states it rests on;
  * the rotation reduction at h = 1e-4 over [0.01, 3], reconstructed and
    sampled at 2,000 annulus points drawn with seed N.

An operation fails when it raises or the program's own verdict is negative.
The tables go to DIR as raw native-order float64 rows (t, state0, state1).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from array import array

from curlsym import solutions
from curlsym.expr import parse, to_string

ROTATION_TOL = 1e-6  # the tolerance `curlsym reduce` applies
STEP = 1e-4
ROTATION_SPAN = (0.01, 3.0)
ROTATION_POINTS = 2000
RATIO_STEPS = (2e-3, 1e-3)


def _transform_ops(eps_value: float):
    out = []
    for name, system in (("B1", "blair"), ("B2", "curl-absB")):
        sol = solutions.BUILTIN_SOLUTIONS[name]
        for family in range(1, 8):
            for eps in (eps_value, parse("eps")):
                rec = {"solution": name, "system": system, "family": family,
                       "eps": eps if isinstance(eps, float) else "eps"}
                try:
                    moved = solutions.transform(sol, family, eps)
                    check = solutions.verify_solution_residuals(moved, system)
                except Exception as e:  # noqa: BLE001 - a failed operation
                    rec["failed"] = f"{type(e).__name__}: {e}"
                    out.append(rec)
                    continue
                rec.update(
                    components=[to_string(c) for c in moved.components()],
                    bindings=[[s.name, v] for s, v in moved.bindings],
                    ok=check.ok,
                    modes=list(check.modes),
                )
                if not check.ok:
                    rec["failed"] = "verify_solution_residuals said FAIL"
                out.append(rec)
    return out


def _write_table(table, path):
    rows = array("d")
    for t, (a, b) in zip(table.points.tolist(), table.states.tolist()):
        rows.extend((t, a, b))
    with open(path, "wb") as fh:
        rows.tofile(fh)
    return len(table.points)


def _translation(outdir):
    ode = solutions.reduce_system("translation")
    table = solutions.integrate_ode(ode, (0.0, 1.0), (0.0, 2 * math.pi), STEP)
    finals = [
        solutions.integrate_ode(ode, (0.0, 1.0), (0.0, 1.0), h).final_state()
        for h in RATIO_STEPS
    ]
    rec = {
        "rows": _write_table(table, os.path.join(outdir, "translation.f64")),
        "blown_up": table.blown_up,
        "ratio": solutions.translation_convergence_ratio(RATIO_STEPS[0], 1.0),
        "ratio_finals": finals,
    }
    if table.blown_up:
        rec["failed"] = "translation profile blew up"
    return rec


def _rotation(outdir, sample_seed):
    ode = solutions.reduce_system("rotation")
    table = solutions.integrate_ode(ode, (0.0, 1.0), ROTATION_SPAN, STEP)
    rec = {"rows": _write_table(table, os.path.join(outdir, "rotation.f64")),
           "blown_up": table.blown_up}
    if table.blown_up:
        rec["failed"] = "rotation profile blew up"
        return rec
    field = solutions.reconstruct_field(table)
    pts = solutions.annulus_sample_points(ROTATION_POINTS, field.r_range, seed=sample_seed)
    report = solutions.numeric_residuals(field, pts)
    rec.update(points=report["count"], max_curl=report["max_curl"],
               max_div=report["max_div"])
    if max(report["max_curl"], report["max_div"]) > ROTATION_TOL:
        rec["failed"] = f"reconstruction residual above {ROTATION_TOL:g}"
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--eps", type=float, required=True)
    ap.add_argument("--sample-seed", type=int, required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        result = {
            "transforms": _transform_ops(args.eps),
            "translation": _translation(args.out),
            "rotation": _rotation(args.out, args.sample_seed),
        }
    finally:
        if tracer is not None:
            tracer.dump(args.spans)
    with open(os.path.join(args.out, "sweep.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
