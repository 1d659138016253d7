"""What the commands print, held in one committed transcript.

`transcripts.txt` holds argv, exit code, stdout and stderr of 175
invocations, 174 of them distinct, run in-process through `cli.main`:

* the 17 README commands that perfbench's readme-tour runs (every
  `curlsym` line of the README's "Command line" block but `all`, whose
  sections are those commands' own outputs), as text and as `--json`;
* `verify-solution --transform 1..7` on B1 against blair and on B2
  against curl-absB, at `--eps 0.4` and at the symbolic `--eps eps`;
  the README's own transform line is one of them;
* the degree-3 `solve-ansatz --compare-fixture` runs of perfbench's
  ansatz-deg3 workload, on curl-absB and blair, as text and as `--json`,
  so the basis order at that degree is pinned too;
* the paths of the one derivation that no run above prints: the
  determining systems with f = R put in (`curl-absB` and `blair`, as text
  and as `--json`), a failing generator with a rational coefficient, whose
  first failing residual prints, and the profile family at degree 4;
* a rotation at the symbolic `--eps eps` of a field whose residuals are
  sampled, so the unit pair (a, b) is drawn on its circle;
* the bad inputs of `tests/test_cli.py` that exit 4 with one line of
  stderr from `main`, and the files they read, a field of 200 nested
  parentheses and a file that is not UTF-8 among them;
* the probes that the open zero-test, normal-form, square-root and
  enclosure items will change on purpose: `check-f` on a profile with
  sqrt(x^2), and `verify-solution --system blair` on four `--sol` files.
* the divergence line's three verdicts under the curl systems, as text
  and as `--json`: `0 (symbolic)` for B1, `0 (numeric)` for a field whose
  divergence stays within `--tol`, and `undecided (numeric)` for one whose
  every sample overflows;
* `verify-solution --system blair` on a field of 180 nested factors, as
  text and as `--json`: the second run parses the same deep tree again in
  the same process;
* a rotation at the symbolic `--eps eps` of a field that names a, as text
  and as `--json`: both runs take the unit pair a2, b2 in one process;
* right after them, a field that names a2, which is bad input though
  those runs have registered a2 in the process;
* valid inputs once refused as bad input: B1 read from a file that starts
  with a UTF-8 byte-order mark, and `reduce --kind rotation --ic 0 0`, as
  text and as `--json`, which reconstructs the zero field.

A `reduce` stdout that carries the RK4 table keeps its summary in the
transcript, the table taken out, beside the table's row count and the
sha256 of the whole stdout.

The floats of `adjoint --numeric` and `reduce`, and so those digests,
come from the platform's libm: they hold on the machine that runs Tier-1
only, and may differ elsewhere in the last digits.

A change that alters an output on purpose shows as a diff of the
transcript.  To regenerate it, from the repository root:

    PYTHONPATH=src python tests/test_transcripts.py --write
"""

import contextlib
import difflib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from curlsym import cli

CORPUS = Path(__file__).resolve().with_name("transcripts.txt")

_README = [
    "determining --system curl-f --compare-fixture determining",
    "solve-ansatz --system curl-absB --degree 2 --compare-fixture",
    "solve-ansatz --system blair --degree 2 --compare-fixture",
    "verify-generator --gen X8 --system curl-absB",
    "verify-generator --expr-file my_generator.txt --system blair",
    "bracket-table --basis b10",
    "bracket-table --basis b7",
    "adjoint --basis b7",
    "adjoint --basis b7 --numeric --eps 0.5",
    "verify-solution --sol B1 --system blair",
    "verify-solution --sol B2 --system curl-absB",
    "verify-solution --sol B1 --system blair --transform 2 --eps 0.4",
    "reduce --kind translation --step 1e-3 --out table.csv",
    "reduce --kind rotation --step 1e-3",
    "check-f --expr R",
    "check-f --expr u",
    "check-f --solve-family",
]
# the input files: the generators of the --expr-file lines, the README's,
# the rotation about z, and one with a rational coefficient that is no
# symmetry; and B1 with an opaque factor sqrt(1+x^2)/sqrt(1+x^2)
_INPUT_FILES = {"my_generator.txt": "-y\nx\n0\n-v\nu\n0\n",
                "rational_generator.txt": "x/(1+y^2)|0|0|u*y|0|0\n",
                "opaque_field.txt": "sin(z)*sqrt(1+x^2)/sqrt(1+x^2)\ncos(z)\n0\n"}

_README_RUNS = [shlex.split(c) + j for c in _README for j in ([], ["--json"])]
_TRANSFORM_RUNS = [
    ["verify-solution", "--sol", sol, "--system", system,
     "--transform", str(k), "--eps", eps]
    for sol, system in (("B1", "blair"), ("B2", "curl-absB"))
    for eps in ("0.4", "eps") for k in range(1, 8)
]
_ANSATZ_RUNS = [
    ["solve-ansatz", "--system", system, "--degree", "3", "--compare-fixture", *j]
    for system in ("curl-absB", "blair") for j in ([], ["--json"])
]
_DERIVATION_RUNS = [
    *(["determining", "--system", system, *j]
      for system in ("curl-absB", "blair") for j in ([], ["--json"])),
    ["verify-generator", "--expr-file", "rational_generator.txt",
     "--system", "curl-absB"],
    ["check-f", "--solve-family", "--degree", "4"],
]
_SAMPLED_RUNS = [
    ["verify-solution", "--sol", "opaque_field.txt", "--system", "blair",
     "--transform", "1", "--eps", "eps"],
]
# the bad inputs of tests/test_cli.py that reach main's one-line error,
# with the files they read; not argparse's own errors, which exit before
# main returns, nor a malformed fixture, which needs the fixtures patched.
# The field nested too deeply is refused at the parser's fixed bound, so
# its offset is the same from a plain script, `--write` and pytest
_BAD_GENERATORS = {  # each refused by `verify-generator --expr-file`
    "short_generator.txt": "1\n0\n0\n",
    "sqrt_generator.txt": "sqrt(x)|0|0|0|0|0\n",
    "zero_denominator_generator.txt": "1/(x - x)|0|0|0|0|0\n",
    "coefficient_generator.txt": "zeta|0|0|0|0|0\n",
    "profile_generator.txt": "f|0|0|0|0|0\n",
    "partial_generator.txt": "0|eps*eta_u|0|0|0|0\n",
}
_BAD_FIELDS = {  # each refused by `verify-solution --sol`
    "zero_denominator_field.txt": "1/(x-x)\n0\n0\n",
    "jet_field.txt": "u_x\n0\n0\n",
    "component_field.txt": "x*v\n0\n0\n",
    "radical_field.txt": "0\n0\nR\n",
    "profile_field.txt": "f*x\n0\n0\n",
    "coefficient_field.txt": "x\nzeta\n0\n",
    "partial_field.txt": "x\neps*zeta_u\n0\n",
    "two_component_field.txt": "sin(z)\ncos(z)\n",
    "unbalanced_field.txt": "sin(z)\ncos(z\n0\n",
    "deep_field.txt": "(" * 200 + "x" + ")" * 200 + "\n0\n0\n",
}
# the probes that the open zero-test, normal-form, square-root and
# enclosure items will change, pinned before they do: a field that solves
# curl B = |B| B only for C1 >= 0, one off a solution by sin(x)/10^12, and
# two with a component that is zero but not in normal form
_PROBE_FIELDS = {
    "signed_field.txt": "C1*sin(C1*z)\nC1*cos(C1*z)\n0\n",
    "tiny_term_field.txt": "sin(z) + sin(x)/10^12\ncos(z)\n0\n",
    "double_angle_field.txt": "sin(2*x) - 2*sin(x)*cos(x)\n0\n0\n",
    "cancelled_factor_field.txt":
        "sin((x^2-1)/((x-1)*(x+2))) - sin((x+1)/(x+2))\n0\n0\n",
}
_PROBE_RUNS = [
    ["check-f", "--expr", "sqrt(x^2) - x + R"],
    *(["verify-solution", "--sol", name, "--system", "blair"]
      for name in _PROBE_FIELDS),
]
# the three verdicts of the divergence line under the curl systems: zero in
# normal form, zero by sampling within --tol, and undecided when every
# sample overflows
_DIVERGENCE_FIELDS = {
    "small_divergence_field.txt": "sin(x*y)/1000\n0\n0\n",
    "overflow_field.txt": "10^5000*x*sqrt(y^2+1)\n0\n0\n",
}
_DIVERGENCE_RUNS = [
    shlex.split(c) + j for c in (
        "verify-solution --sol B1 --system curl-absB",
        "verify-solution --sol small_divergence_field.txt --system curl"
        " --samples 30 --tol 1",
        "verify-solution --sol overflow_field.txt --system curl-absB",
    ) for j in ([], ["--json"])
]
# sin(y*(1 + x*(1 + x*(...)))) with 180 nested factors, within the parser's
# bound; run twice in one process, its second parse meets the first's tree
_DEEP_TEXT = "1"
for _ in range(180):
    _DEEP_TEXT = f"1+x*({_DEEP_TEXT})"
_DEEP_RUNS = [["verify-solution", "--sol", "horner_field.txt", "--system", "blair",
               *j] for j in ([], ["--json"])]
# a rotation at the symbolic eps of a field that names a: it takes the
# pair a2, b2, and run twice in one process it takes the same pair again
_PAIR_RUNS = [["verify-solution", "--sol", "pair_field.txt", "--transform", "1",
               "--eps", "eps", *j] for j in ([], ["--json"])]
# a field that names a2, run after _PAIR_RUNS have registered a2: a unit
# pair that a rotation registers is never an input name
_PAIR_NAME_RUNS = [["verify-solution", "--sol", "pair_name_field.txt"]]
# valid inputs that were once refused as bad input: B1 in a file that
# starts with a UTF-8 byte-order mark, which is skipped, and a rotation
# reduction from the equilibrium (0, 0), which reconstructs the zero field
_ONCE_REFUSED_RUNS = [
    ["verify-solution", "--sol", "bom_field.txt", "--system", "blair"],
    *(["reduce", "--kind", "rotation", "--ic", "0", "0", *j]
      for j in ([], ["--json"])),
]
_INPUT_FILES.update({**_BAD_GENERATORS, **_BAD_FIELDS, **_PROBE_FIELDS,
                     **_DIVERGENCE_FIELDS,
                     "horner_field.txt": f"sin(y*({_DEEP_TEXT}))\n0\n0\n",
                     "constant_generator.txt": "1\n0\n0\n0\n0\n0\n",
                     "sampled_field.txt": "sin(x*y)\ncos(x*y)\n0\n",
                     "not_utf8.txt": b"\xffsin(z)\ncos(z)\n0\n",
                     "pair_field.txt": "a + x\n0\n0\n",
                     "pair_name_field.txt": "a2 + x\n0\n0\n",
                     "bom_field.txt": b"\xef\xbb\xbfsin(z)\ncos(z)\n0\n"})
_BAD_INPUT_RUNS = [shlex.split(c) for c in [
    "determining --system blair --compare-fixture determining",
    "determining --system curl-f --compare-fixture bogus",
    "solve-ansatz --system curl-f --degree 2",
    "solve-ansatz --system blair --degree -1",
    "solve-ansatz --system blair --degree 40",
    "verify-generator --gen X11",
    "verify-generator --gen foo",
    "verify-generator --gen X1 --expr-file constant_generator.txt",
    "verify-generator",
    *(f"verify-generator --expr-file {name}" for name in _BAD_GENERATORS),
    *(f"verify-solution --sol {name}" for name in _BAD_FIELDS),
    "verify-solution --sol not_utf8.txt",
    "verify-generator --expr-file not_utf8.txt",
    *(f"verify-solution --sol sampled_field.txt --system blair {flags}"
      for flags in ("--samples 0", "--samples -2", "--tol nan", "--tol inf",
                    "--tol=-1e-9")),
    "verify-solution --sol B1 --system blair --transform 2 --eps nan",
    "verify-solution --sol B1 --system blair --transform 4 --eps inf",
    "verify-solution --sol B2 --system curl-absB --transform 7 --eps nan",
    "verify-solution --sol B2 --system curl-absB --transform 4 --eps x",
    "verify-solution --sol B1 --system blair --transform 7 --eps u_x",
    "verify-solution --sol B1 --system blair --transform 6 --eps R",
    "verify-solution --sol B1 --system blair --transform 4 --eps '1/(x-x)'",
    "verify-solution --sol B1 --transform 9 --eps 0.1",
    "verify-solution --sol B1 --transform 2",
    "verify-solution --sol B1 --eps 0.3",
    "verify-solution --sol B1 --system blair --transform 2 --eps 10^400",
    "adjoint --basis b7 --numeric --eps nan --json",
    "adjoint --basis b7 --numeric --eps inf --json",
    "adjoint --basis b7 --numeric --eps 1e6 --json",
    "reduce --kind rotation --samples 0",
    "reduce --kind rotation --step 2e-2 --tol nan",
    "reduce --kind rotation --tol -1",
    "reduce --kind translation --ic nan 1",
    "reduce --kind translation --range 0 inf",
    "reduce --kind translation --range 0.01 nan",
    "reduce --kind translation --step nan",
    "reduce --kind translation --step 5e-324 --range 0 1",
    "reduce --kind translation --step 1e-300 --range 0 1e-290",
    "reduce --kind translation --ic 1e200 0",
    "reduce --kind rotation --range 0 3",
    "reduce --kind translation --step 1e-2 --out missing_dir/table.csv",
    "reduce --kind translation --step 1e-2 --out .",
    *(f"reduce --kind rotation --ic 1e-200 0{j}" for j in ("", " --json")),
    *(f"reduce --kind rotation --range 1 1.001 --step 1e-4{j}"
      for j in ("", " --json")),
    *(f"check-f --expr {e}" for e in (
        "X1", "'sqrt(x)'", "'1/(u-u)'", "'x*R'", "'R*y'", "zeta", "f", "u_x",
        "'(('", "'sqrt(1+exp(u))'")),
    "check-f --solve-family --degree -1",
    "check-f --solve-family --degree 10",
    "check-f --solve-family --degree 1000000000",
    "check-f",
    *(f"{c}{j}" for c in ("check-f --expr u --solve-family",
                          "check-f --expr R --degree 3",
                          "adjoint --basis b7 --eps 0.5")
      for j in ("", " --json")),
]]
INVOCATIONS = [shlex.split(line) for line in dict.fromkeys(
    shlex.join(a)
    for a in _README_RUNS + _TRANSFORM_RUNS + _ANSATZ_RUNS + _DERIVATION_RUNS
    + _SAMPLED_RUNS + _BAD_INPUT_RUNS + _PROBE_RUNS + _DIVERGENCE_RUNS
    + _DEEP_RUNS + _PAIR_RUNS + _PAIR_NAME_RUNS + _ONCE_REFUSED_RUNS)]
_TABLE_MARK = "-- table (csv) --"


def _lines(tag: str, text: str) -> list:
    """text as `|`-prefixed lines; a missing final newline is marked."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
        tail = []
    else:
        tail = ["\\ no newline at end"]
    return [f"{tag}:", *("|" + ln for ln in lines), *tail]


def _summary(argv: list, out: str):
    """(summary, table rows) of a `reduce` stdout that carries the RK4
    table, or None for any other stdout."""
    if argv[0] != "reduce" or not out:
        return None
    if "--json" in argv:
        doc = json.loads(out)
        table = doc["data"].pop("table")
        return json.dumps(doc, sort_keys=True, indent=2) + "\n", len(table["points"])
    head, mark, table = out.partition(_TABLE_MARK + "\n")
    if not mark:
        return None
    # the csv's header line is not a row
    return head + mark, table.count("\n") - 1


def render(argv: list, code: int, out: str, err: str) -> str:
    """One invocation's block of the transcript."""
    block = [f"$ curlsym {shlex.join(argv)}", f"exit {code}"]
    summary = _summary(argv, out)
    if summary is None:
        block += _lines("stdout", out)
    else:
        text, rows = summary
        block += _lines("stdout, table taken out", text)
        block += [f"table rows {rows}",
                  f"stdout sha256 {hashlib.sha256(out.encode()).hexdigest()}"]
    block += _lines("stderr", err)
    return "\n".join(block) + "\n"


def run_in(workdir: Path, argv: list) -> str:
    """Run one invocation in-process in workdir and render it."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(here)
    return render(argv, code, out.getvalue(), err.getvalue())


def load_corpus() -> dict:
    """{argv as one shell line: its stored block}."""
    blocks = {}
    for chunk in CORPUS.read_text().split("\n$ curlsym ")[1:]:
        head = chunk.split("\n", 1)[0]
        blocks[head] = "$ curlsym " + chunk.rstrip("\n") + "\n"
    return blocks


def _write_input_files(d: Path):
    for name, content in _INPUT_FILES.items():
        if isinstance(content, bytes):
            (d / name).write_bytes(content)
        else:
            (d / name).write_text(content)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("transcripts")
    _write_input_files(d)
    return d


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


def test_corpus_holds_every_invocation_once(corpus):
    assert (len(_README_RUNS), len(_TRANSFORM_RUNS), len(_ANSATZ_RUNS),
            len(_DERIVATION_RUNS), len(_SAMPLED_RUNS), len(_BAD_INPUT_RUNS),
            len(_PROBE_RUNS), len(_DIVERGENCE_RUNS), len(_DEEP_RUNS),
            len(_PAIR_RUNS), len(_PAIR_NAME_RUNS), len(_ONCE_REFUSED_RUNS),
            len(INVOCATIONS)) == (34, 28, 4, 6, 1, 83, 5, 6, 2, 2, 1, 3, 174)
    assert sorted(corpus) == sorted(shlex.join(a) for a in INVOCATIONS)


@pytest.mark.parametrize("argv", INVOCATIONS, ids=shlex.join)
def test_command_prints_its_transcript(argv, workdir, corpus):
    stored = corpus.get(shlex.join(argv))
    assert stored is not None, "not in transcripts.txt; regenerate with --write"
    got = run_in(workdir, argv)
    if got != stored:
        diff = difflib.unified_diff(stored.splitlines(), got.splitlines(),
                                    "transcripts.txt", "this run", lineterm="")
        pytest.fail("output differs from the transcript:\n" + "\n".join(diff),
                    pytrace=False)


def write_corpus():
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        _write_input_files(d)
        text = "\n".join(run_in(d, argv) for argv in INVOCATIONS)
    CORPUS.write_text("# generated by: PYTHONPATH=src python tests/test_transcripts.py"
                      " --write\n\n" + text)
    print(f"wrote {len(INVOCATIONS)} invocations to {CORPUS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_transcripts.py --write")
    write_corpus()
