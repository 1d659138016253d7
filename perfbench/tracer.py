"""Span tracing for the benchmark's traced runs.

`Tracer.install()` replaces each traced curlsym function wherever callers
look it up: the module attribute, and every name under which another
curlsym module imported it with `from ... import`.  Each call is counted;
a call that is not nested inside another call of the same key also records
a span (key, start, end, parent span).  Spans stay in memory and `dump`
writes them once, when the process ends.  Nothing under src/ changes.

As a script it runs one `curlsym` command under the tracer:

    python perfbench/tracer.py SPANS.json -- <curlsym arguments>
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# module -> functions traced; every key is "<module>.<function>", except the
# fixture loaders, which share the key "fixtures.load"
TARGETS = {
    "expr": ("as_ratform", "normalize", "decide_zero", "compile_numeric"),
    "ratlin": ("nullspace", "rref", "coordinates_in_rowspan"),
    "jet": ("first_prolongation",),
    "symmetry": ("determining_polys", "solve_polynomial_ansatz",
                 "coordinates_in_basis", "verify_generator",
                 "f_constraints_from_group"),
    "liealg": ("bracket", "structure_constants", "adjoint_closed_form", "expm",
               "jacobi_check"),
    "solutions": ("transform", "verify_solution_residuals", "integrate_ode",
                  "numeric_residuals"),
    "fixtures": "load_*",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [key, start, end, parent index or -1]
        self.calls = {}
        self.counts = {"expr.decide_zero_numeric": 0,
                       "solutions.integrate_ode_steps": 0,
                       "solutions.numeric_residuals_points": 0}
        self.maxima = {"solutions.max_curl": 0.0}
        self._stack = []
        self._active = {}

    def _observe(self, key):
        counts, maxima = self.counts, self.maxima
        if key == "expr.decide_zero":
            def seen(res):
                counts["expr.decide_zero_numeric"] += res[1] == "numeric"
        elif key == "solutions.integrate_ode":
            def seen(res):
                counts["solutions.integrate_ode_steps"] += len(res.points) - 1
        elif key == "solutions.numeric_residuals":
            def seen(res):
                counts["solutions.numeric_residuals_points"] += res["count"]
                maxima["solutions.max_curl"] = max(
                    maxima["solutions.max_curl"], res["max_curl"])
        else:
            seen = None
        return seen

    def _wrap(self, key, fn):
        spans, stack, calls = self.spans, self._stack, self.calls
        calls.setdefault(key, 0)
        active = self._active.setdefault(key, [False])
        seen = self._observe(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            if active[0]:
                res = fn(*args, **kwargs)
            else:
                idx = len(spans)
                spans.append(None)
                stack.append(idx)
                active[0] = True
                start = clock()
                try:
                    res = fn(*args, **kwargs)
                finally:
                    end = clock()
                    active[0] = False
                    stack.pop()
                    spans[idx] = [key, start, end, stack[-1] if stack else -1]
            if seen is not None:
                seen(res)
            return res

        return traced

    def install(self):
        mods = {name: importlib.import_module(f"curlsym.{name}")
                for name in ("cli", *TARGETS)}
        for name, fns in TARGETS.items():
            mod = mods[name]
            if fns == "load_*":
                chosen = [(f, "fixtures.load") for f in vars(mod)
                          if f.startswith("load_") and callable(getattr(mod, f))]
            else:
                chosen = [(f, f"{name}.{f}") for f in fns]
            for fname, key in chosen:
                orig = getattr(mod, fname)
                wrapped = self._wrap(key, orig)
                for m in list(sys.modules.values()):
                    if getattr(m, "__name__", "").startswith("curlsym"):
                        for attr, val in list(vars(m).items()):
                            if val is orig:
                                setattr(m, attr, wrapped)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "calls": self.calls, "counts": self.counts,
                       "maxima": self.maxima}, fh)


# --- aggregation, in the benchmark process -----------------------------------


def summarize(dumps) -> dict:
    """Merge per-process dumps into totals: inclusive seconds of top-level
    spans per key, self seconds per key (span minus its direct children),
    calls, counts, maxima, and the ansatz assembly self time (each
    solve_polynomial_ansatz span minus the determining_polys and nullspace
    spans under it)."""
    total, self_s, calls, counts, maxima = {}, {}, {}, {}, {}
    assembly = 0.0
    for d in dumps:
        spans = d["spans"]
        child = [0.0] * len(spans)
        owner = []  # nearest solve_polynomial_ansatz ancestor per span
        for k, (key, start, end, parent) in enumerate(spans):
            dur = end - start
            total[key] = total.get(key, 0.0) + dur
            if parent >= 0:
                child[parent] += dur
        # spans are stored in start order, so parents precede children
        for k, (key, start, end, parent) in enumerate(spans):
            self_s[key] = self_s.get(key, 0.0) + (end - start) - child[k]
            up = owner[parent] if parent >= 0 else -1
            if parent >= 0 and spans[parent][0] == "symmetry.solve_polynomial_ansatz":
                up = parent
            owner.append(up)
            if key == "symmetry.solve_polynomial_ansatz":
                assembly += end - start
            elif up >= 0 and key in ("symmetry.determining_polys", "ratlin.nullspace"):
                nested = spans[parent][0] in ("symmetry.determining_polys",
                                              "ratlin.nullspace")
                if not nested:
                    assembly -= end - start
        for src, dst in ((d["calls"], calls), (d["counts"], counts)):
            for key, n in src.items():
                dst[key] = dst.get(key, 0) + n
        for key, v in d["maxima"].items():
            maxima[key] = max(maxima.get(key, 0.0), v)
    return {"total_s": total, "self_s": self_s, "calls": calls, "counts": counts,
            "maxima": maxima, "ansatz_assembly_self_s": assembly}


def _run_cli(path, argv) -> int:
    import curlsym.cli as cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(path)


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: python perfbench/tracer.py SPANS.json -- <curlsym arguments>")
    sys.exit(_run_cli(sys.argv[1], sys.argv[3:]))
