"""Spans around the calls into each qdcnot layer, and the metrics derived from them.

The traced run wraps each layer's public functions from outside the
package.  A wrapper goes on the name the caller looks up: modules bind the
names they import, so ``apply_mode_map`` is wrapped as
``qdcnot.circuits.apply_mode_map``, not in ``qdcnot.state``.  Every call
becomes a span (name, start, end, parent, job id), kept in memory and
written out once at the end.  A layer's self time is its spans' duration
minus the part of each span's interval its child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import math
import os
import statistics
import time

# (module the caller looks the name up in, name, layer)
WRAPPED = (
    ("qdcnot.circuits", "cavity_coeffs", "cavity"),
    ("qdcnot.circuits", "interaction_map", "cavity"),
    ("qdcnot.circuits", "hwp_map", "devices"),
    ("qdcnot.circuits", "spin_hadamard", "devices"),
    ("qdcnot.circuits", "switch_amplitude", "devices"),
    ("qdcnot.circuits", "apply_mode_map", "state"),
    ("qdcnot.circuits", "make_state", "state"),
    ("qdcnot.circuits", "tensor", "state"),
    ("qdcnot.circuits", "with_weight", "state"),
    ("qdcnot.circuits", "baseline_cnot", "circuits"),
    ("qdcnot.fidelity", "baseline_cnot", "circuits"),
    ("qdcnot.fidelity", "optimized_cnot", "circuits"),
    ("qdcnot.sweep", "average_fidelity", "fidelity"),
    ("qdcnot.sweep", "sweep_coupling", "sweep"),
    ("qdcnot.sweep", "sweep_err_psw", "sweep"),
    ("qdcnot.sweep", "check_anchors", "sweep"),
    ("qdcnot.sweep", "write_csv", "sweep"),
)


# span name -> what to record with the span, computed from (args, kwargs, result)
ATTRIBUTES = {
    "cavity.cavity_coeffs": lambda args, kwargs, out: repr(args),           # distinct inputs
    "state.apply_mode_map": lambda args, kwargs, out: len(out),             # amplitudes out
    "fidelity.average_fidelity": lambda args, kwargs, out: len(args[3].states),  # inputs
    "sweep.check_anchors": lambda args, kwargs, out: len(out),              # anchors checked
    "sweep.write_csv": lambda args, kwargs, out: os.path.getsize(args[1]),  # CSV bytes
}


class Tracer:
    """Span recorder; ``install`` wraps the names in WRAPPED, ``uninstall`` restores them."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.job: list[int] = []
        self.attr: list = []
        self.job_id = 0
        self.missing: set[str] = set()    # span names whose function no longer exists
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, layer in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.add(f"{layer}.{attr}")
                continue
            setattr(module, attr, self._wrap(f"{layer}.{attr}", fn))
            self._undo.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        attribute = ATTRIBUTES.get(name)
        names, starts, ends, parents, jobs, attrs = (
            self.name, self.start, self.end, self.parent, self.job, self.attr)
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job_id)
            attrs.append(None)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if attribute is not None:
                try:
                    attrs[i] = attribute(args, kwargs, out)
                except (AttributeError, IndexError, OSError, TypeError):
                    pass   # a changed signature loses the attribute, not the run
            return out

        return traced

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("job,span,name,start,end,parent,attr\n")
            for i, name in enumerate(self.name):
                attr = "" if self.attr[i] is None else str(self.attr[i]).replace(",", ";")
                fh.write(f"{self.job[i]},{i},{name},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{attr}\n")


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the union of its children's intervals within it."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered, reach = 0.0, lo
        for c in sorted(children.get(i, ()), key=start.__getitem__):
            a, b = max(start[c], reach), min(end[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def job_metrics(tracer: Tracer, job_id: int, job_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced job; absent ones are left out."""
    idx = [i for i, j in enumerate(tracer.job) if j == job_id]
    local = {g: k for k, g in enumerate(idx)}
    name = [tracer.name[i] for i in idx]
    start = [tracer.start[i] for i in idx]
    end = [tracer.end[i] for i in idx]
    parent = [local.get(tracer.parent[i], -1) for i in idx]
    attr = [tracer.attr[i] for i in idx]
    selfs = self_times(start, end, parent)
    layer = [n.split(".", 1)[0] for n in name]

    def spans(*names):
        return [k for k, n in enumerate(name) if n in names]

    def dur(k):
        return end[k] - start[k]

    layer_self: dict[str, float] = {}
    for k, lay in enumerate(layer):
        layer_self[lay] = layer_self.get(lay, 0.0) + selfs[k]

    m: dict[str, float] = {}
    cav = spans("cavity.cavity_coeffs")
    m["cavity.calls"] = len(cav)
    m["cavity.distinct_ratio"] = len({attr[k] for k in cav}) / len(cav) if cav else 0.0
    m["devices.map_builds"] = len(spans("devices.hwp_map", "devices.spin_hadamard"))
    amm = spans("state.apply_mode_map")
    m["state.apply_calls"] = len(amm)
    m["state.amplitudes_out"] = sum(attr[k] or 0 for k in amm)
    for lay in ("cavity", "devices", "state", "circuits", "fidelity"):
        m[f"{lay}.self_s"] = layer_self.get(lay, 0.0)
    m["state.share"] = layer_self.get("state", 0.0) / job_s

    runs = [k for k, lay in enumerate(layer)
            if lay == "circuits" and (parent[k] < 0 or layer[parent[k]] != "circuits")]
    m["circuits.runs"] = len(runs)
    if runs:
        m["circuits.run_us_p50"] = 1e6 * percentile([dur(k) for k in runs], 50)
        m["circuits.run_us_p99"] = 1e6 * percentile([dur(k) for k in runs], 99)

    points = spans("fidelity.average_fidelity")
    m["fidelity.points"] = len(points)
    if points:
        m["fidelity.inputs_per_point"] = sum(attr[k] or 0 for k in points) / len(points)
        m["fidelity.point_ms_p50"] = 1e3 * percentile([dur(k) for k in points], 50)
        m["fidelity.point_ms_p99"] = 1e3 * percentile([dur(k) for k in points], 99)

    m["sweep.grid_s"] = sum(dur(k) for k in spans("sweep.sweep_coupling", "sweep.sweep_err_psw"))
    checks = spans("sweep.check_anchors")
    m["sweep.anchor_s"] = sum(dur(k) for k in checks)
    under_check = 0
    for k in points:
        p = parent[k]
        while p >= 0 and name[p] != "sweep.check_anchors":
            p = parent[p]
        under_check += p >= 0
    if under_check:
        m["sweep.anchor_useful_ratio"] = sum(attr[k] or 0 for k in checks) / under_check
    csv = spans("sweep.write_csv")
    m["sweep.csv_s"] = sum(dur(k) for k in csv)
    m["sweep.csv_bytes"] = sum(attr[k] or 0 for k in csv)
    m["trace.spans"] = len(idx)
    return {k: v for k, v in m.items() if not _depends_on_missing(k, tracer.missing)}


# metric -> span names it is derived from; a metric is absent when one is missing
_SOURCES = {
    "cavity.calls": ("cavity.cavity_coeffs",),
    "cavity.distinct_ratio": ("cavity.cavity_coeffs",),
    "devices.map_builds": ("devices.hwp_map", "devices.spin_hadamard"),
    "state.apply_calls": ("state.apply_mode_map",),
    "state.amplitudes_out": ("state.apply_mode_map",),
    "fidelity.points": ("fidelity.average_fidelity",),
    "fidelity.inputs_per_point": ("fidelity.average_fidelity",),
    "fidelity.point_ms_p50": ("fidelity.average_fidelity",),
    "fidelity.point_ms_p99": ("fidelity.average_fidelity",),
    "fidelity.self_s": ("fidelity.average_fidelity",),
    "sweep.anchor_s": ("sweep.check_anchors",),
    "sweep.anchor_useful_ratio": ("sweep.check_anchors", "fidelity.average_fidelity"),
    "sweep.csv_s": ("sweep.write_csv",),
    "sweep.csv_bytes": ("sweep.write_csv",),
}


def _depends_on_missing(metric: str, missing: set[str]) -> bool:
    sources = _SOURCES.get(metric)
    if sources is None:   # a layer-wide metric: absent only when the whole layer is
        layer = metric.split(".", 1)[0]
        names = {f"{lay}.{attr}" for _, attr, lay in WRAPPED if lay == layer}
        return bool(names) and names <= missing
    return any(s in missing for s in sources)


# metrics that count work; they must repeat exactly from job to job
COUNTS = {"cavity.calls", "devices.map_builds", "state.apply_calls", "state.amplitudes_out",
          "circuits.runs", "fidelity.points", "sweep.csv_bytes", "trace.spans"}


def median_metrics(per_job: list[dict[str, float]]) -> dict[str, float]:
    keys = set().union(*per_job)
    return {k: statistics.median(m[k] for m in per_job if k in m) for k in sorted(keys)}
