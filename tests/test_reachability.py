"""Every function and every line in the package runs on a production path,
or is exempt or named here.

Run as a script (``python tests/test_reachability.py``), this file installs
``sys.settrace`` before qdcnot is imported, runs the package's entry
points, and prints as JSON each function and method defined in
``src/qdcnot`` that no call event reached (``functions``), and each
executable line that no line event reached (``lines``: file, line number,
source text).  A file's executable lines are the line numbers its code
objects' ``co_lines()`` give.  The entry points are the five ``reproduce``
targets; ``cli.main`` for every subcommand (``simulate`` once on a config
with a comment line and once on a config whose output norm exceeds 1,
``sweep`` once on a grid with norm faults); ``python -m qdcnot``, through
``runpy``; and the benchmark's moved-grid jobs (``bench/workloads.py``:
config text to a sweep, list rows to ``write_csv``, the anchor check and
its summary).  The tests run it in a fresh interpreter, so no other test's
calls count.

The function check requires the unreached functions to be exactly
:data:`ALLOWED`.  The line check first exempts, by an AST pass, the lines
that run only when something fails: every line of a ``raise`` statement
(so an ``if`` body that is a single ``raise`` too) and every line of an
``except`` clause.  Each other unreached line lies in a function that
:data:`ALLOWED` names, or matches an entry of :data:`ALLOWED_LINES` by its
file and source text.  Both checks fail both ways: on a new function or
line that only the tests run, and on an entry that production now reaches.

``python tests/test_reachability.py --suite`` runs the tier-1 suite (pytest
over ``tests/``) under the same trace instead of the entry points and
prints its unreached lines, exempt ones included.  That run takes about
twice as long as the suite, so it is a script, not a test.
"""

import ast
import contextlib
import io
import json
import runpy
import subprocess
import sys
import tempfile
import types
from collections import defaultdict
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qdcnot"

# the labeled kit waits on the benchmark's span table, which traces four of
# its names on qdcnot.circuits (ROADMAP item 1)
_LABELED_KIT = "labeled kit, traced by bench/spans.py: ROADMAP item 1"
# unreached function -> why it stays: exactly the labeled kit
ALLOWED = {f"state.{name}": _LABELED_KIT for name in (
    "JointState.batch_shape", "JointState._index", "JointState.amplitude",
    "JointState.entries", "JointState.norm_sq", "JointState.__len__",
    "make_state", "tensor", "apply_mode_map", "with_weight", "project_spin",
    "inner_product", "_basis", "_as_names", "_as_values", "_value_index", "_sorted")}
# (file, source text) of an unreached line outside those functions -> why it stays
ALLOWED_LINES = {
    ("circuits.py", "m = np.broadcast_to(m, m.shape[:k] + batch)"):
        "the public average_fidelity takes fields on different block axes, which no "
        "sweep or anchor block builds; test_loop_pass_is_the_spin_blocks_of_the_folded_pass",
    ("sweep.py", "met = True"):
        "an anchor that another ensemble meets is FAIL, not DOCUMENTED, and no anchor is "
        "today; test_check_anchors_flags_calibration_mismatch",
    ("sweep.py", "return []"):
        "check_anchors of no anchors; test_check_anchors_of_no_anchors_makes_no_engine_call",
}


def defined_functions() -> dict[str, tuple[str, int, int]]:
    """``module.qualname`` of every named function and method in the package,
    with its file name and its first and last line."""
    spans = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                spans[f"{path.stem}.{prefix}{child.name}"] = (
                    path.name, child.lineno, child.end_lineno)
                visit(child, f"{prefix}{child.name}.<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path)
    return spans


def executable_lines(source: str) -> set[int]:
    """The line numbers the code objects compiled from ``source`` run."""
    todo, lines = [compile(source, "<source>", "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def exempt_lines(source: str) -> set[int]:
    """Every line of a ``raise`` statement or an ``except`` clause in ``source``."""
    return {line for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Raise, ast.ExceptHandler))
            for line in range(node.lineno, node.end_lineno + 1)}


def run_entry_points(out: Path) -> None:
    from qdcnot import cli, sweep

    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS, make_plan, run_job

    for target in ("fig3a", "fig3b", "fig4a", "fig4b", "table_anchors"):
        sweep.reproduce(target, str(out / "reproduce"))
    configs = {
        "simulate.cfg": "# the optimized circuit on the exact product average\n"
                        "circuit = optimized\nensemble = haar_product\n",
        "norm.cfg": "ensemble = superposition4\nxi1 = 0.1\n"
                    "kappa_s_over_kappa = 0.0\ng_over_kappa = 0.0\n",
        "sweep.cfg": "axis1_points = 3\naxis2_points = 4\n",
        "faults.cfg": "ensemble = superposition4\nxi1 = 0.1\naxis1_points = 3\naxis2_points = 4\n",
    }
    for name, text in configs.items():
        (out / name).write_text(text, encoding="utf-8")
    for argv, code in (
        (["simulate", "--config", str(out / "simulate.cfg")], cli.EXIT_OK),
        (["simulate", "--config", str(out / "norm.cfg")], cli.EXIT_CONFIG),
        (["sweep", "--config", str(out / "sweep.cfg"), "--out", str(out / "grid.csv")],
         cli.EXIT_OK),
        (["sweep", "--config", str(out / "faults.cfg"), "--out", str(out / "faults.csv")],
         cli.EXIT_OK),
        (["reproduce", "table_anchors", "--out-dir", str(out / "cli")], cli.EXIT_OK),
    ):
        assert cli.main(argv) == code, argv
    assert (out / "faults.csv").read_text().count("error:AssertionError") == 4
    argv, sys.argv = sys.argv, ["qdcnot", "cavity", "--g", "2.5", "--ks", "0.05", "--gamma", "0.1"]
    try:
        runpy.run_module("qdcnot", run_name="__main__")
    except SystemExit as done:
        assert done.code == cli.EXIT_OK, done.code
    finally:
        sys.argv = argv
    for workload in WORKLOADS.values():
        assert run_job(make_plan(workload, seed=1), str(out / workload.name)).ok


def main(suite: bool) -> int:
    called, ran = set(), defaultdict(set)
    in_package = cache(lambda filename: Path(filename).resolve().parent == PACKAGE)

    def line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        if in_package(frame.f_code.co_filename):
            called.add(frame.f_code)
            return line
        return None

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(call)
    try:
        if suite:
            import pytest

            with contextlib.redirect_stdout(sys.stderr):
                status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
        else:
            with tempfile.TemporaryDirectory() as tmp, \
                    contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                run_entry_points(Path(tmp))
            status = 0
    finally:
        sys.settrace(None)
    reached = {f"{Path(code.co_filename).stem}.{code.co_qualname}" for code in called}
    ran_in = defaultdict(set)  # file name -> the lines run in it
    for filename, numbers in ran.items():
        ran_in[Path(filename).name] |= numbers
    lines = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        lines += [[path.name, k, text[k - 1].strip()]
                  for k in sorted(executable_lines(source) - ran_in[path.name])]
    print(json.dumps({"functions": sorted(defined_functions().keys() - reached),
                      "lines": lines}, indent=1))
    return int(status)


@cache
def production_reach() -> dict:
    """The script's report on the production entry points, run once per test session."""
    done = subprocess.run([sys.executable, __file__], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout)


def test_every_package_function_runs_on_a_production_path():
    unreached = set(production_reach()["functions"])
    assert sorted(unreached - ALLOWED.keys()) == [], "only the tests call these: delete them"
    assert sorted(ALLOWED.keys() - unreached) == [], "production reaches these: unlist them"


def test_every_package_line_runs_on_a_production_path_or_is_exempt():
    exempt = {path.name: exempt_lines(path.read_text(encoding="utf-8"))
              for path in PACKAGE.glob("*.py")}
    kit = [span for name, span in defined_functions().items() if name in ALLOWED]
    unlisted, listed = [], set()
    for file, line, text in production_reach()["lines"]:
        if line in exempt[file] or any(file == f and first <= line <= last
                                       for f, first, last in kit):
            continue
        if (file, text) in ALLOWED_LINES:
            listed.add((file, text))
        else:
            unlisted.append(f"{file}:{line}: {text}")
    assert unlisted == [], "only the tests run these lines: delete them or list them"
    assert sorted(ALLOWED_LINES.keys() - listed) == [], "production runs these: unlist them"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] == ["--suite"]))
