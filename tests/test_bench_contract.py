"""The names the benchmark's traced run wraps must stay real callables.

``bench/spans.py`` wraps each layer's functions by the module attribute the
caller looks up; a renamed or removed stage would silently drop its
per-layer metrics.  This loads the span table by path, the way the
benchmark loads ``tests/oracle.py``.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    missing = [
        f"{module}.{name}" for module, name, _ in spans.WRAPPED
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
