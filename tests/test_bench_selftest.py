"""The benchmark's self-test runs in tier 1, so a break in what it relies on fails here.

``bench/run.py --self-test`` runs tiny grids of every workload through the
names the benchmark calls (``InputEnsemble.states``, ``check_anchors``,
``write_csv``, the traced names of ``bench/spans.py``) and checks that its
own checks catch corrupted output.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_test_passes():
    done = subprocess.run([sys.executable, "bench/run.py", "--self-test"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "self-test ok" in done.stdout
