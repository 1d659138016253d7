"""Command-line surface for the toolkit.

Every operation is exposed as a subcommand; `--json` switches any of them
to a machine-readable envelope (sorted keys) that validates against
`JSON_SCHEMA`.  Exit codes: 0 success / clean fixture match, 1 fixture
mismatches limited to the documented exception list, 2 verification
failed, 3 fixture mismatch beyond the documented exceptions, 4 bad input
(unparseable expression, unknown name, malformed file).  Each `cmd_*`
returns (lines, data, code); only `main` prints, and it alone maps bad input
to exit 4.  `all` runs the other subcommands through their own parser and
`cmd_*`, so each of its sections but the subalgebra candidates is what that
subcommand alone prints.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import math
import os
import sys
from fractions import Fraction

# `solutions` is imported inside verify-solution and reduce, the two commands
# that use it, and `liealg` inside the functions that build or read a bracket
# table (bracket-table, adjoint and `all`), so no other command loads either
from . import fixtures, symmetry
from .expr import (
    BASE_SYMBOLS,
    ExprError,
    FORMAL_COEFFS,
    REGISTRY,
    _poly_key,
    as_ratform,
    differentiate,
    equal_exprs,
    free_symbols,
    is_zero_expr,
    normalize,
    parse,
    to_string,
)
from .jet import generator_from_strings

EXIT_OK = 0
EXIT_DOCUMENTED = 1
EXIT_VERIFY = 2
EXIT_FIXTURE = 3
EXIT_INPUT = 4

JSON_SCHEMA = {
    "type": "object",
    "required": ["command", "exit_code", "ok", "data"],
    "properties": {
        "command": {"type": "string"},
        "exit_code": {"type": "integer", "minimum": 0, "maximum": 4},
        "ok": {"type": "boolean"},
        "data": {"type": "object"},
    },
    "additionalProperties": False,
}

_GENERATOR_NAMES = tuple(f"X{k}" for k in range(1, 11))


class CliInputError(Exception):
    """Bad user input; reported on stderr with exit code 4."""


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; input errors are 4 here
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_INPUT)


# chunks joined per write: few writes when stdout is unbuffered
# (PYTHONUNBUFFERED), and never the whole output in memory as one string
_WRITE_BATCH = 4096


def _write_batched(chunks):
    chunks = iter(chunks)
    while batch := list(itertools.islice(chunks, _WRITE_BATCH)):
        sys.stdout.write("".join(batch))


def _emit(args, lines, data, code):
    try:
        if args.json:
            doc = {
                "command": args.command,
                "exit_code": code,
                "ok": code in (EXIT_OK, EXIT_DOCUMENTED),
                "data": data,
            }
            # the bytes of json.dumps(doc, sort_keys=True, indent=2) + "\n",
            # encoded piece by piece
            encoder = json.JSONEncoder(sort_keys=True, indent=2)
            _write_batched(itertools.chain(encoder.iterencode(doc), ("\n",)))
        else:
            _write_batched(ln + "\n" for ln in lines)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`| head`): its choice, not a failure
        # of the command; stdout goes to devnull so that the interpreter's
        # final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def _pde_system(name: str):
    build, profile = symmetry.SYSTEMS[name]
    return build(profile)


@functools.lru_cache(maxsize=None)
def _algebra_table(token: str) -> liealg.LieAlgebraTable:
    """The bracket table of basis b7 or b10, built once per process."""
    from . import liealg

    return liealg.structure_constants(fixtures.load_basis(int(token[1:])))


# the bound RK4 steps have: `reduce` holds every sample point at once, and
# `verify-solution` may evaluate a residual at 12 times as many
MAX_SAMPLES = 1_000_000


def _check_sampling(args):
    if args.samples < 1:
        raise CliInputError("--samples must be >= 1")
    if args.samples > MAX_SAMPLES:
        raise CliInputError(f"--samples must be <= {MAX_SAMPLES}")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise CliInputError("--tol must be a finite number >= 0")


def _truncate(text: str, width: int = 100) -> str:
    return text if len(text) <= width else text[: width - 3] + "..."


# --- determining ------------------------------------------------------------


def cmd_determining(args):
    system = _pde_system(args.system)
    eqs = symmetry.determining_system(system)
    lines = [f"determining system for {args.system}: {len(eqs)} equations"]
    lines += [f"{k}: {to_string(e)}" for k, e in enumerate(eqs, 1)]
    data = {
        "system": args.system,
        "count": len(eqs),
        "equations": [to_string(e) for e in eqs],
    }
    code = EXIT_OK
    if args.compare_fixture:
        if args.compare_fixture != "determining":
            raise CliInputError(
                "the only determining-system fixture is 'determining'"
            )
        if args.system != "curl-f":
            raise CliInputError(
                "the reference determining system is stated for the "
                "formal-profile system; use --system curl-f"
            )
        ref = fixtures.load_determining_fixture()
        rep = symmetry.determining_systems_equivalent(eqs, ref)
        lines += [
            f"fixture sizes: computed {rep.sizes[0]}, reference {rep.sizes[1]}",
            f"gradient-identity span match: {rep.identity_spans_match}",
            f"reduced span match: {rep.reduced_spans_match}",
            f"equivalent: {rep.ok}",
        ]
        data["fixture"] = {
            "sizes": list(rep.sizes),
            "identity_spans_match": rep.identity_spans_match,
            "reduced_spans_match": rep.reduced_spans_match,
            "equivalent": rep.ok,
        }
        if not rep.ok:
            code = EXIT_FIXTURE
    return lines, data, code


# --- solve-ansatz -----------------------------------------------------------


def _generator_strings(gen) -> str:
    return " | ".join(to_string(c) for c in gen)


def cmd_solve_ansatz(args):
    if args.system == "curl-f":
        raise CliInputError(
            "the polynomial ansatz needs a concrete profile; "
            "use --system curl-absB or blair"
        )
    system = _pde_system(args.system)
    if args.degree < 0:
        raise CliInputError("degree must be >= 0")
    try:
        res = symmetry.solve_polynomial_ansatz(system, args.degree)
    except ValueError as e:
        raise CliInputError(str(e)) from None
    lines = [
        f"ansatz degree {args.degree} on {args.system}: "
        f"dimension {len(res.generators)}"
    ]
    lines += [
        f"G{k}: {_generator_strings(g)}" for k, g in enumerate(res.generators, 1)
    ]
    data = {
        "system": args.system,
        "degree": args.degree,
        "dimension": len(res.generators),
        "generators": [_generator_strings(g) for g in res.generators],
    }
    code = EXIT_OK
    if args.compare_fixture:
        basis = fixtures.load_basis(10 if args.system == "curl-absB" else 7)
        same = symmetry.generator_spans_equal(res.generators, basis)
        lines.append(
            f"fixture span comparison ({len(basis)} reference generators): {same}"
        )
        data["fixture"] = {"reference_dimension": len(basis), "span_equal": same}
        if not same:
            code = EXIT_FIXTURE
    return lines, data, code


# --- verify-generator -------------------------------------------------------


def _read_clean_lines(path: str):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CliInputError(f"cannot read {path}: {e}") from None
    return fixtures.content_lines(raw)


def _reject_symbols(what: str, names, exprs, banned, rule: str):
    """Bad input naming the first of `banned` that an expression names."""
    for name, e in zip(names, exprs):
        if found := free_symbols(e) & banned:
            raise CliInputError(f"{what} {name} {rule} '{min(s.name for s in found)}'")


def _load_generator(args):
    if args.gen and args.expr_file:
        raise CliInputError("give either --gen or --expr-file, not both")
    if args.gen:
        name = args.gen
        if name not in _GENERATOR_NAMES:
            raise CliInputError(f"unknown generator '{name}'; expected X1..X10")
        return fixtures.load_basis(10)[int(name[1:]) - 1], name
    if args.expr_file:
        lines = _read_clean_lines(args.expr_file)
        if len(lines) == 1 and "|" in lines[0]:
            parts = [p.strip() for p in lines[0].split("|")]
        else:
            parts = lines
        if len(parts) != 6:
            raise CliInputError(
                "a generator file needs six coefficient expressions "
                "(one per line, or one line with '|' separators)"
            )
        gen = generator_from_strings(parts)
        # like a jet, a formal symbol would be taken for an unknown function
        _reject_symbols("generator coefficient", FORMAL_COEFFS, gen,
                        symmetry.FORMAL_SYMBOLS, "may not depend on formal symbol")
        return gen, args.expr_file
    raise CliInputError("give --gen NAME or --expr-file FILE")


def cmd_verify_generator(args):
    gen, label = _load_generator(args)
    system = _pde_system(args.system)
    report = symmetry.verify_generator(system, gen)
    lines = [f"generator {label} on {args.system}: symmetry = {report.ok}"]
    data = {
        "generator": label,
        "system": args.system,
        "symmetry": report.ok,
        "failing_equations": report.failures(),
    }
    if not report.ok:
        first = report.failures()[0]
        text = _truncate(to_string(report.residuals[first]))
        lines.append(f"first failing equation (index {first + 1}): {text}")
        data["first_failing"] = {"index": first + 1, "residual": text}
    return lines, data, EXIT_OK if report.ok else EXIT_VERIFY


# --- bracket-table ----------------------------------------------------------


def _mismatch_code(new, documented) -> int:
    """Exit code of a fixture comparison: 3 if anything new disagrees,
    else 1 if only documented exceptions do, else 0."""
    if new:
        return EXIT_FIXTURE
    return EXIT_DOCUMENTED if documented else EXIT_OK


def cmd_bracket_table(args):
    from . import liealg

    table = _algebra_table(args.basis)
    lines = [liealg.table_grid(table)]
    jacobi = liealg.jacobi_check(table)
    lines.append(f"Jacobi identity: {'ok' if jacobi else 'VIOLATED'}")
    reference = {pair: coords for pair, coords in fixtures.load_bracket_table().items()
                 if max(pair) <= table.dim}
    if any(not is_zero_expr(c) for v in reference.values() for c in v[table.dim:]):
        raise fixtures.FixtureError("brackets_10.txt: a bracket in b7 leaves X1..X7")
    mismatches = liealg.table_mismatches(table, reference)
    corrections = fixtures.load_bracket_corrections()
    documented = [m for m in mismatches if corrections.get(m.pair) == m.computed]
    new = [m for m in mismatches if corrections.get(m.pair) != m.computed]
    for m in documented:
        lines.append(f"documented mismatch {m.describe()}")
    for m in new:
        lines.append(f"NEW mismatch {m.describe()}")
    lines.append(
        f"fixture comparison: {len(reference)} entries, "
        f"{len(documented)} documented mismatches, {len(new)} new"
    )
    data = {
        "basis": args.basis,
        "jacobi": jacobi,
        "table": liealg.table_to_json(table),
        "documented_mismatches": [m.describe() for m in documented],
        "new_mismatches": [m.describe() for m in new],
    }
    return lines, data, _mismatch_code(not jacobi or new, documented)


# --- adjoint ----------------------------------------------------------------


def cmd_adjoint(args):
    from . import liealg

    if args.eps is not None and not args.numeric:
        raise CliInputError("--eps needs --numeric")
    table = _algebra_table("b7")
    if args.numeric:
        eps = 1.0 if args.eps is None else args.eps
        lines = [f"numeric adjoint coordinates at eps = {eps:g}"]
        entries = {}
        for i in range(1, table.dim + 1):
            try:
                columns = liealg.adjoint_numeric(table, i, eps)
            except (ArithmeticError, ValueError):  # overflow, or sin(inf)
                columns = None
            if columns is None or not all(math.isfinite(c) for v in columns for c in v):
                raise CliInputError(
                    f"--eps {eps:g} gives non-finite coordinates for "
                    f"Ad(exp(eps*X{i})); give a finite eps of smaller size"
                )
            for j, vec in enumerate(columns, 1):
                entries[f"X{i},X{j}"] = vec
                pretty = " ".join(f"{c: .9f}" for c in vec)
                lines.append(f"X{i},X{j}: {pretty}")
        data = {"basis": "b7", "eps": eps, "coordinates": entries}
        return lines, data, EXIT_OK
    # the closed-form table against the stored one
    names = table.names
    try:
        rows = [liealg.adjoint_closed_form(table, i) for i in range(1, table.dim + 1)]
    except liealg.NoClosedForm as e:
        return [f"no closed form: {e}"], {"basis": "b7", "error": str(e)}, EXIT_VERIFY
    entries = {(i, j): entry for i, row in enumerate(rows, 1)
               for j, entry in enumerate(row, 1)}
    lines = [liealg.adjoint_grid(rows, names)]
    reference = fixtures.load_adjoint_table()
    bad = [pair for pair, entry in entries.items()
           if len(entry) != len(reference[pair])
           or not all(map(equal_exprs, entry, reference[pair]))]
    lines.append(
        f"fixture comparison: 49 entries, {len(bad)} mismatches"
        + (f" at {bad}" if bad else "")
    )
    data = {
        "basis": "b7",
        "entries": {
            f"X{i},X{j}": liealg.format_combination(entry, names)
            for (i, j), entry in entries.items()
        },
        "mismatches": [list(p) for p in bad],
    }
    return lines, data, EXIT_OK if not bad else EXIT_FIXTURE


# --- verify-solution --------------------------------------------------------


def _load_solution(token: str) -> solutions.FieldSolution:
    from . import solutions

    if token in solutions.BUILTIN_SOLUTIONS:
        return solutions.BUILTIN_SOLUTIONS[token]
    lines = _read_clean_lines(token)
    if len(lines) != 3:
        raise CliInputError(
            f"'{token}' is not a built-in solution name and not a file with "
            "three component expressions (u, v, w)"
        )
    comps = [parse(ln) for ln in lines]
    # a field is B(x, y, z): components, jets, R and formal symbols are no
    # coordinates of it
    banned = symmetry.FORMAL_SYMBOLS | {s for s in REGISTRY.by_name.values()
                                        if s.kind in ("dependent", "jet", "radical")}
    _reject_symbols("solution component", "uvw", comps, banned,
                    "may name only x, y, z and constant parameters, not")
    return solutions.FieldSolution(*comps, label=token)


def _parse_eps(text: str):
    """A finite decimal as its exact Fraction (0.4 is 2/5), or an expression
    with a rational form constant in x, y, z and free of jet symbols."""
    try:
        value = float(text)
    except ValueError:
        pass
    else:
        if not math.isfinite(value):
            raise CliInputError(f"bad eps value {text!r}: not a finite number")
        return Fraction(text)
    try:
        eps = parse(text)
        as_ratform(eps)
        constant = not any(s.kind == "jet" for s in free_symbols(eps)) and all(
            is_zero_expr(differentiate(eps, s)) for s in BASE_SYMBOLS
        )
    except ExprError as e:
        raise CliInputError(f"bad eps value {text!r}: {e}") from None
    if not constant:
        raise CliInputError(
            f"bad eps value {text!r}: the group parameter must not depend on "
            "x, y, z, u, v, w or their derivatives"
        )
    return eps


def cmd_verify_solution(args):
    from . import solutions

    _check_sampling(args)
    sol = _load_solution(args.sol)
    if args.transform is None and args.eps is not None:
        raise CliInputError("--eps needs --transform")
    if args.transform is not None:
        if args.eps is None:
            raise CliInputError("--transform needs --eps")
        if not 1 <= args.transform <= 7:
            raise CliInputError("--transform takes a family index 1..7")
        eps = _parse_eps(args.eps)
        try:
            sol = solutions.transform(sol, args.transform, eps)
        except ValueError as e:
            raise CliInputError(f"bad eps value {args.eps!r}: {e}") from None
    check = solutions.verify_solution_residuals(
        sol, args.system, samples=args.samples, tol=args.tol
    )
    lines = [
        f"solution {sol.label} against {check.system}",
        "residuals: " + " ".join(check.displays),
        "modes: " + " ".join(check.modes),
        f"verdict: {'PASS' if check.ok else 'FAIL'}",
    ]
    data = {
        "solution": sol.label,
        "system": check.system,
        "residuals": list(check.displays),
        "modes": list(check.modes),
        "ok": check.ok,
    }
    if check.divergence is not None:
        div_zero, div_mode = check.divergence
        verdict = {True: "0", False: "nonzero", None: "undecided"}[div_zero]
        lines.append(f"divergence: {verdict} ({div_mode})")
        data["divergence_zero"] = div_zero
    return lines, data, EXIT_OK if check.ok else EXIT_VERIFY


# --- reduce -----------------------------------------------------------------


def cmd_reduce(args):
    from . import solutions

    _check_sampling(args)
    ode = solutions.reduce_system(args.kind)
    if args.range is None:
        span = (0.0, 2 * math.pi) if args.kind == "translation" else (0.01, 3.0)
    else:
        span = (args.range[0], args.range[1])
    try:
        if args.kind == "rotation" and span[0] < span[1]:
            # an empty span is integrate_ode's error; a narrow one leaves no
            # radius for the reconstruction's residual samples
            solutions.annulus_radii(span)
        table = solutions.integrate_ode(ode, tuple(args.ic), span, args.step)
        field = (solutions.reconstruct_field(table)
                 if args.kind == "rotation" and not table.blown_up else None)
    except ValueError as e:
        raise CliInputError(str(e)) from None

    lines = [
        f"{args.kind} reduction: {ode.ansatz}",
        f"constraint: {ode.constraint}",
        f"states {table.state_names} over {table.indep_name} in "
        f"[{span[0]:g}, {span[1]:g}], step {args.step:g}",
        f"rows: {len(table.points)}, blown_up: {table.blown_up}",
        f"final state: ({table.final_state()[0]:.9g}, {table.final_state()[1]:.9g})",
    ]
    data = {
        "kind": args.kind,
        "ansatz": ode.ansatz,
        "constraint": ode.constraint,
        "rows": len(table.points),
        "blown_up": table.blown_up,
        "final_state": list(table.final_state()),
        "table": solutions.solution_table_json(table),
    }
    code = EXIT_OK if not table.blown_up else EXIT_VERIFY

    if args.out:
        try:
            solutions.solution_table_csv(table, args.out)
        except OSError as e:
            raise CliInputError(f"cannot write {args.out}: {e}") from None
        lines.append(f"table written to {args.out}")
        data["out"] = args.out

    if field is not None:
        pts = solutions.annulus_sample_points(
            args.samples, field.r_range, seed=args.seed
        )
        report = solutions.numeric_residuals(field, pts)
        lines.append(
            f"reconstruction residuals over {report['count']} points: "
            f"max curl {report['max_curl']:.3e}, max div {report['max_div']:.3e}"
        )
        data["reconstruction"] = {
            "points": report["count"],
            "max_curl": report["max_curl"],
            "max_div": report["max_div"],
        }
        if report["max_curl"] > args.tol or report["max_div"] > args.tol:
            code = EXIT_VERIFY
    elif args.kind == "translation":
        # deviation from the exact profile when started from its initial data
        if tuple(args.ic) == (0.0, 1.0) and span[0] == 0.0:
            worst = 0.0
            for t, (g, h) in zip(table.points, table.states):
                worst = max(worst, abs(g - math.sin(t)), abs(h - math.cos(t)))
            lines.append(f"max deviation from exact profile: {worst:.3e}")
            data["max_deviation"] = worst

    # the rows are text only: an envelope carries the table in `data`
    if not args.out and not args.json:
        lines.append("-- table (csv) --")
        lines += [",".join(row) for row in solutions.solution_table_rows(table)]
    return lines, data, code


# --- check-f ----------------------------------------------------------------


_CONSTRAINT_LABELS = (
    ("u*f_u + v*f_v + w*f_w - f", "radial homogeneity (Euler-type) constraint"),
    ("u*f_v - v*f_u", "xy rotation-moment constraint"),
    ("u*f_w - w*f_u", "xz rotation-moment constraint"),
    ("v*f_w - w*f_v", "yz rotation-moment constraint"),
)


def _labeled_constraints():
    computed = symmetry.f_constraints_from_group(fixtures.load_basis(7))
    by_key = {_poly_key(normalize(c)): c for c in computed}
    out = []
    for text, label in _CONSTRAINT_LABELS:
        key = _poly_key(normalize(parse(text)))
        if key not in by_key:
            raise RuntimeError("constraint set drifted from the labeled forms")
        out.append((label, by_key.pop(key)))
    for extra in by_key.values():
        out.append((to_string(extra), extra))
    return out


def cmd_check_f(args):
    if args.solve_family:
        if args.expr is not None:
            raise CliInputError("give either --expr or --solve-family, not both")
        degree = 2 if args.degree is None else args.degree
        if degree < 0:
            raise CliInputError("degree must be >= 0")
        constraints = symmetry.f_constraints_from_group(fixtures.load_basis(7))
        try:
            family = symmetry.solve_f_family(constraints, degree=degree)
        except ValueError as e:
            raise CliInputError(str(e)) from None
        lines = [
            f"profiles solving all four constraints (ansatz degree {degree}): "
            + (", ".join(f"c*{to_string(e)}" for e in family) or "none")
        ]
        data = {"degree": degree, "family": [to_string(e) for e in family]}
        return lines, data, EXIT_OK
    if args.expr is None:
        raise CliInputError("give --expr EXPR (or --solve-family)")
    if args.degree is not None:
        raise CliInputError("--degree needs --solve-family")
    try:
        profile = parse(args.expr)
    except ExprError as e:
        raise CliInputError(f"bad expression: {e}") from None
    verdicts = {label: symmetry.verify_f([constraint], profile)
                for label, constraint in _labeled_constraints()}
    failed = [label for label, good in verdicts.items() if not good]
    ok = not failed
    lines = [f"profile f = {to_string(profile)}"]
    lines += [f"{'PASS' if good else 'FAIL'}: {label}"
              for label, good in verdicts.items()]
    lines.append(
        "verdict: profile generates the full symmetry group"
        if ok
        else f"verdict: FAIL ({failed[0]})"
    )
    data = {"profile": to_string(profile), "constraints": verdicts, "ok": ok}
    return lines, data, EXIT_OK if ok else EXIT_VERIFY


# --- subalgebras (exposed through `all`) --------------------------------------


def _subalgebra_section(table):
    from . import liealg

    pairs = fixtures.load_subalgebra_pairs()
    corrections = fixtures.load_subalgebra_corrections()
    lines = []
    documented = 0
    new = 0
    results = {}
    for pair in pairs:
        okay = liealg.is_subalgebra(table, pair)
        name = f"X{pair[0]},X{pair[1]}"
        results[name] = okay
        if okay:
            lines.append(f"pair {name}: closes")
            continue
        fix = corrections.get(pair)
        if fix is not None and liealg.is_subalgebra(table, fix):
            documented += 1
            lines.append(
                f"pair {name}: does NOT close (documented; aligned pair "
                f"X{fix[0]},X{fix[1]} closes)"
            )
        else:
            new += 1
            lines.append(f"pair {name}: does NOT close (NEW mismatch)")
    # a deliberately non-closing pair as a discriminating control
    control = liealg.is_subalgebra(table, (1, 4))
    lines.append(f"control pair X1,X4 closes: {control} (expected False)")
    results["X1,X4"] = control
    return lines, results, _mismatch_code(new or control, documented)


# --- all --------------------------------------------------------------------


def cmd_all(args):
    parser = build_parser()
    fixture = ["--compare-fixture"] if args.compare_fixtures else []
    det_fixture = [*fixture, "determining"] if fixture else []

    def run(*argv):
        ns = parser.parse_args(argv)
        return ns.func(ns)

    # `_algebra_table` builds b7's table once for the three sections that read it
    sections = [
        ("determining (formal profile) vs fixture",
         *run("determining", "--system", "curl-f", *det_fixture)),
        ("ansatz degree 2, magnitude profile",
         *run("solve-ansatz", "--system", "curl-absB", "--degree", "2", *fixture)),
        ("ansatz degree 2, divergence-free",
         *run("solve-ansatz", "--system", "blair", "--degree", "2", *fixture)),
        ("bracket table, ten generators", *run("bracket-table", "--basis", "b10")),
        ("bracket table, seven generators", *run("bracket-table", "--basis", "b7")),
        ("adjoint table", *run("adjoint", "--basis", "b7")),
        ("first solution, full system",
         *run("verify-solution", "--sol", "B1", "--system", "blair")),
        ("second solution, curl equations",
         *run("verify-solution", "--sol", "B2", "--system", "curl-absB")),
        ("profile constraint check", *run("check-f", "--expr", "R")),
        ("two-generator subalgebra candidates",
         *_subalgebra_section(_algebra_table("b7"))),
    ]

    # the codes rank 0 < 1 < 2 < 3 by severity, and no section gives 4
    overall = max(code for *_, code in sections)
    lines = []
    data = {"sections": {}}
    for title, body, section_data, code in sections:
        lines.append(f"== {title} (exit {code}) ==")
        lines.extend(body)
        lines.append("")
        data["sections"][title] = {"exit_code": code, "data": section_data}
    lines.append(f"overall exit: {overall}")
    data["overall"] = overall
    return lines, data, overall


# --- parser -----------------------------------------------------------------


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="curlsym",
        description="Symmetry analysis of curl-eigenfield systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=fn)
        return p

    p = add("determining", cmd_determining, help="print the determining system")
    p.add_argument("--system", default="curl-f", choices=symmetry.SYSTEMS)
    p.add_argument("--compare-fixture", default=False,
                   help="compare against a reference system ('determining')")

    p = add("solve-ansatz", cmd_solve_ansatz,
            help="polynomial symmetry generators up to a degree")
    p.add_argument("--system", required=True, choices=symmetry.SYSTEMS)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--compare-fixture", action="store_true",
                   help="compare the span against the reference basis")

    p = add("verify-generator", cmd_verify_generator,
            help="check whether a vector field generates a symmetry")
    p.add_argument("--gen", help="named reference generator (X1..X10)")
    p.add_argument("--expr-file", help="file with six coefficient expressions")
    p.add_argument("--system", default="curl-absB", choices=symmetry.SYSTEMS)

    p = add("bracket-table", cmd_bracket_table,
            help="structure constants and fixture diff")
    p.add_argument("--basis", default="b10", choices=["b10", "b7"])

    p = add("adjoint", cmd_adjoint, help="adjoint table (closed form or numeric)")
    p.add_argument("--basis", default="b7", choices=["b7"])
    p.add_argument("--numeric", action="store_true")
    p.add_argument("--eps", type=float, default=None,
                   help="group parameter of --numeric (default 1)")

    p = add("verify-solution", cmd_verify_solution,
            help="residual check of a field solution")
    p.add_argument("--sol", required=True,
                   help="B1, B2, zero, or a file with three expressions")
    p.add_argument("--system", default="blair",
                   choices=["curl", *symmetry.SYSTEMS])
    p.add_argument("--transform", type=int, default=None,
                   help="apply a transform family 1..7 first")
    p.add_argument("--eps", default=None,
                   help="group parameter (float or expression)")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-10)

    p = add("reduce", cmd_reduce, help="integrate an invariant reduction")
    p.add_argument("--kind", required=True, choices=["translation", "rotation"])
    p.add_argument("--ic", type=float, nargs=2, default=[0.0, 1.0],
                   metavar=("S0", "S1"))
    p.add_argument("--range", type=float, nargs=2, default=None,
                   metavar=("T0", "T1"))
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--out", default=None, help="write the table as CSV here")
    p.add_argument("--samples", type=int, default=100,
                   help="residual sample points for reconstruction")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6)

    p = add("check-f", cmd_check_f, help="profile constraint verdict")
    p.add_argument("--expr", default=None)
    p.add_argument("--solve-family", action="store_true",
                   help="print the exact solution family of the constraints")
    p.add_argument("--degree", type=int, default=None,
                   help="ansatz degree of --solve-family (default 2)")

    p = add("all", cmd_all, help="run the full fixture suite")
    p.add_argument("--compare-fixtures", action="store_true")

    return parser


def main(argv=None) -> int:
    # exact arithmetic prints every digit (the int <-> str cap is 3.11+)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        lines, data, code = args.func(args)
    except (CliInputError, ExprError, fixtures.FixtureError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INPUT
    return _emit(args, lines, data, code)


if __name__ == "__main__":
    code = main()
    # Everything still alive lives until exit: frozen, it is skipped by the
    # interpreter's shutdown collections, which would otherwise traverse the
    # whole heap only to free nothing.  Not inside main(), which the tests
    # call in-process.
    gc.freeze()
    sys.exit(code)
