"""Re-record the seed-0 reference outputs in bench/reference/.

Run from the root of a checkout whose outputs are known to be right:

    python3 bench/record_reference.py

Only a change that means to move the paper's numbers should re-record them.
"""

import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qdcnot.sweep import reproduce  # noqa: E402

if __name__ == "__main__":
    target_dir = ROOT / "bench" / "reference"
    target_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for target in ("fig3a", "fig4b", "table_anchors"):
            out = reproduce(target, tmp)
            if not out["ok"]:
                sys.exit(f"{target}: anchors failed, not recording")
            shutil.copyfile(out["csv"], target_dir / f"{target}.csv")
            print(f"recorded {target}.csv")
