"""The engine's values keep their bits under any process setting.

README promises "same config, same bytes", and the engine calls no BLAS
so that a point's bits do not depend on the machine's kernels.  A byte
comparison of the CSVs cannot see a BLAS call coming back (ten printed
digits hide the last bits); this test compares the raw float bytes of a
fresh interpreter run under other settings with this process's.
"""

import inspect
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
X86_64 = platform.machine().lower() in ("x86_64", "amd64")


def value_digest() -> str:
    """sha256 of the raw float bytes of fig4b's grid, a small superposition4
    coupling grid and the five values of every anchor on every ensemble."""
    import hashlib

    import numpy as np

    from qdcnot import sweep
    from qdcnot.fidelity import average_fidelity

    digest = hashlib.sha256()
    small = sweep._config_with(circuit="optimized", ensemble="superposition4", xi1=0.02,
                               tau_l1=0.01, axis1_points=7, axis2_points=9)
    for cfg in (sweep._target_config("fig4b"), small):
        digest.update(np.array(sweep._run_grid(cfg).values).tobytes())
    for make in sweep.ENSEMBLES.values():
        r = average_fidelity(*sweep._anchor_block(sweep.ANCHORS), make())
        digest.update(np.array([r.f_up, r.f_down, r.f_both, r.success_up,
                                r.success_down]).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("x86_64", [X86_64], ids=[
    "hash-optimize-x86-v2-dispatch-prescott-blas" if X86_64
    else "hash-optimize-only-dispatch-skipped-not-x86-64"])
def test_values_keep_their_bits_under_other_process_settings(x86_64):
    env = {**os.environ, "PYTHONHASHSEED": "1", "PYTHONOPTIMIZE": "1",
           "PYTHONPATH": os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = inspect.getsource(value_digest) + "print(value_digest())\n"
    if x86_64:  # numpy's AVX2 and AVX-512 loops off, OpenBLAS on its oldest x86-64 kernels
        env.update(NPY_ENABLE_CPU_FEATURES="X86_V2", OPENBLAS_CORETYPE="Prescott")
        code += ("from numpy._core._multiarray_umath import __cpu_features__\n"
                 "print(__cpu_features__['X86_V3'])\n")
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    lines = child.stdout.split()
    assert lines[0] == value_digest()
    if x86_64:  # the dispatch setting took effect
        assert lines[1:] == ["False"]
