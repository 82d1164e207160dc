"""Every function in the package runs on a production path, or is named here.

Run as a script (``python tests/test_reachability.py``), this file installs
``sys.setprofile`` before qdcnot is imported, runs the package's entry
points, and prints as JSON each function and method defined in
``src/qdcnot`` that no call event reached.  The entry points are the five
``reproduce`` targets, ``cli.main`` for every subcommand (``simulate`` once
on a config whose output norm exceeds 1), and the benchmark's moved-grid
jobs (``bench/workloads.py``: config text to a sweep, list rows to
``write_csv``, the anchor check and its summary).  The test runs it in a
fresh interpreter, so no other test's calls count, and requires the
unreached functions to be exactly :data:`ALLOWED`: a new function that
only the tests call fails it, and so does an entry here that production
now reaches.
"""

import ast
import contextlib
import io
import json
import subprocess
import sys
import tempfile
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


def defined_functions() -> set[str]:
    """``module.qualname`` of every named function and method in the package."""
    names = set()

    def visit(node, prefix, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{module}.{prefix}{child.name}")
                visit(child, f"{prefix}{child.name}.<locals>.", module)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", module)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path.stem)
    return names


def run_entry_points(out: Path) -> None:
    from qdcnot import cli, sweep

    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS, make_plan, run_job

    for target in ("fig3a", "fig3b", "fig4a", "fig4b", "table_anchors"):
        sweep.reproduce(target, str(out / "reproduce"))
    configs = {
        "simulate.cfg": "circuit = optimized\nensemble = haar_product\n",
        "norm.cfg": "ensemble = superposition4\nxi1 = 0.1\n"
                    "kappa_s_over_kappa = 0.0\ng_over_kappa = 0.0\n",
        "sweep.cfg": "axis1_points = 3\naxis2_points = 4\n",
    }
    for name, text in configs.items():
        (out / name).write_text(text, encoding="utf-8")
    for argv, code in (
        (["simulate", "--config", str(out / "simulate.cfg")], cli.EXIT_OK),
        (["simulate", "--config", str(out / "norm.cfg")], cli.EXIT_CONFIG),
        (["sweep", "--config", str(out / "sweep.cfg"), "--out", str(out / "grid.csv")],
         cli.EXIT_OK),
        (["reproduce", "table_anchors", "--out-dir", str(out / "cli")], cli.EXIT_OK),
        (["cavity", "--g", "2.5", "--ks", "0.05", "--gamma", "0.1"], cli.EXIT_OK),
    ):
        assert cli.main(argv) == code, argv
    for workload in WORKLOADS.values():
        assert run_job(make_plan(workload, seed=1), str(out / workload.name)).ok


def main() -> None:
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.path.insert(0, str(ROOT / "src"))
    sys.setprofile(profile)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        run_entry_points(Path(tmp))
    sys.setprofile(None)
    reached = {f"{Path(code.co_filename).stem}.{code.co_qualname}" for code in called
               if Path(code.co_filename).resolve().parent == PACKAGE}
    print(json.dumps(sorted(defined_functions() - reached)))


def test_every_package_function_runs_on_a_production_path():
    done = subprocess.run([sys.executable, __file__], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    unreached = set(json.loads(done.stdout))
    assert sorted(unreached - ALLOWED.keys()) == [], "only the tests call these: delete them"
    assert sorted(ALLOWED.keys() - unreached) == [], "production reaches these: unlist them"


if __name__ == "__main__":
    main()
