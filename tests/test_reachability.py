"""Every definition in `src/curlsym` has a caller in `src/curlsym`.

A top-level function, class or constant, or a method whose name does not
start and end with a double underscore, counts as used when its name is
read (as a name or an attribute) by live code outside its own body.  Live
code is module-level code that defines nothing, and the body of every used
definition; the search runs to a fixpoint, so a helper whose only caller is
itself unused is caught as well.  Names are matched without their module,
which can only keep a definition, never drop one.
"""

import ast
from pathlib import Path

import curlsym

SRC = Path(curlsym.__file__).parent

# read by name from outside src/curlsym, each for the reason given
ALLOWED = {
    "cli.JSON_SCHEMA": "the published schema of the --json envelope",
    "cli._ArgumentParser.error": "argparse calls it on a malformed flag",
    "__init__.__version__": "the package version",
    "symmetry.coordinates_in_basis": "traced by perfbench/tracer.py",
    "ratlin.coordinates_in_rowspan": "traced by perfbench/tracer.py",
    "ratlin.rref": "traced by perfbench/tracer.py",
    "liealg.expm": "traced by perfbench/tracer.py; the tests' independent "
                   "reference for the closed-form adjoint",
    "solutions.translation_convergence_ratio": "called by perfbench/sweep.py",
    "solutions._Rows.tolist": "called by perfbench/sweep.py",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _reads(nodes) -> set:
    """Names read anywhere under the given nodes."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
                out.add(sub.attr)
            elif isinstance(sub, ast.AugAssign) and isinstance(sub.target, ast.Name):
                out.add(sub.target.id)
    return out


def _assigned(stmt) -> list:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _inventory():
    """(definitions, contexts).  A definition is key -> (name, class key or
    None); a context is (names read, keys of the definitions it lies in)."""
    defs, contexts = {}, []
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = f"{mod}.{stmt.name}"
                defs[key] = (stmt.name, None)
                contexts.append((_reads([stmt]), {key}))
            elif isinstance(stmt, ast.ClassDef):
                cls = f"{mod}.{stmt.name}"
                defs[cls] = (stmt.name, None)
                rest = [stmt.bases, stmt.keywords, stmt.decorator_list]
                for item in stmt.body:
                    if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        rest.append([item])
                    elif _is_dunder(item.name):
                        # called by the language, live with its class
                        contexts.append((_reads([item]), {cls}))
                    else:
                        key = f"{cls}.{item.name}"
                        defs[key] = (item.name, cls)
                        contexts.append((_reads([item]), {cls, key}))
                contexts.append((_reads([n for group in rest for n in group]), {cls}))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and _assigned(stmt):
                keys = {f"{mod}.{name}" for name in _assigned(stmt)}
                for name in _assigned(stmt):
                    defs[f"{mod}.{name}"] = (name, None)
                contexts.append((_reads([stmt.value] if stmt.value else []), keys))
            else:
                contexts.append((_reads([stmt]), set()))
    return defs, contexts


def _used(defs, contexts, seeds) -> set:
    """The fixpoint: a context is live once every definition it lies in is
    used, and a definition is used once live code outside it reads its name
    (a method only while its class is used)."""
    used = set(seeds)
    while True:
        live = [(reads, owners) for reads, owners in contexts if owners <= used]
        grown = {
            key for key, (name, cls) in defs.items()
            if key not in used and (cls is None or cls in used)
            and any(name in reads and key not in owners for reads, owners in live)
        }
        if not grown:
            return used
        used |= grown


def test_every_definition_has_a_caller_in_the_package():
    defs, contexts = _inventory()
    used = _used(defs, contexts, ALLOWED)
    unused = sorted(set(defs) - used)
    assert unused == [], f"defined in src/curlsym but never used there: {unused}"


def test_each_allowed_name_is_needed():
    defs, contexts = _inventory()
    assert set(ALLOWED) <= set(defs)
    used = _used(defs, contexts, ())
    assert sorted(set(ALLOWED) & used) == []
