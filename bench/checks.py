"""Output checks of a benchmark run, counted as failed operations.

An operation is one output row: a grid point, or an anchor result.  A row
fails when its status is not ``ok``, when its value misses the reference,
when its anchor status differs from the recorded one, or when its bytes
differ from the same row of the run's first job.

Seed 0, and the anchor table on every seed, compare every CSV cell with
the reference outputs in ``reference/``.  Other seeds move the grid, so
their rows are checked by invariants (status, finiteness, fidelity in [0, 1], the expected axis
values) instead.  On every seed a seeded sample of grid rows, and every
anchor, is recomputed with the dense-matrix oracle of ``tests/oracle.py``,
which shares no code with the package's engine.

Beyond the rows, a run is incorrect when ``reproduce`` reports ``ok =
False`` or when the work counts of its traced jobs differ.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import JobOutput, Plan

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
ORACLE_PATH = HERE.parent / "tests" / "oracle.py"
ORACLE_SAMPLE = 16
F_UC = 5.0 / 6.0


def load_oracle():
    spec = importlib.util.spec_from_file_location("bench_dense_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = load_oracle()


def _digit_unit(x: float) -> float:
    """One unit in the 10th significant digit, the last one the CSV prints."""
    return 10.0 ** (math.floor(math.log10(abs(x))) - 9) if x else 0.0


def same_value(a: str | float, b: str | float) -> bool:
    """Equal strings, or numbers that agree within the last printed digit."""
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    if not (math.isfinite(x) and math.isfinite(y)):
        return False
    return abs(x - y) <= max(_digit_unit(x), _digit_unit(y), 1e-300)


def same_row(row: str, ref: str) -> bool:
    cells, ref_cells = row.split(","), ref.split(",")
    return len(cells) == len(ref_cells) and all(map(same_value, cells, ref_cells))


def read_reference(target: str) -> list[str]:
    return (REFERENCE_DIR / f"{target}.csv").read_text(encoding="utf-8").split("\n")[:-1]


# ---------------------------------------------------------------------------
# dense oracle


@dataclass(frozen=True)
class Point:
    """One circuit configuration, in the oracle's own terms."""

    circuit: str
    g: float
    kappa_s: float
    gamma: float = 0.1
    err: float = 0.0          # every wave-plate and CPBS error
    prefactor: float = 1.0    # switch and cloner success amplitude (optimized)

    def coeffs(self):
        """(t1, r1, t0, r0) at resonance, in units of kappa."""
        d0 = self.gamma * (2 + self.kappa_s)
        t = -2 * self.gamma / (d0 + 4 * self.g * self.g)
        t0 = -2 * self.gamma / d0
        return abs(t), abs(1 + t), abs(t0), abs(1 + t0)


_STRONG, _WEAK = (2.5, 0.05), (0.45, 1.0)
_MEASURED_SWITCHES = 0.899 * 0.65 * 0.956 * 0.648
ANCHOR_POINTS = {  # name -> (point, metric); the paper's anchor configurations
    "baseline_strong_ideal": (Point("baseline", *_STRONG), "best_branch"),
    "baseline_weak_ideal": (Point("baseline", *_WEAK), "best_branch"),
    "baseline_strong_err1e-2": (Point("baseline", *_STRONG, err=1e-2), "best_branch"),
    "baseline_weak_err1e-2": (Point("baseline", *_WEAK, err=1e-2), "best_branch"),
    "optimized_measured_switches": (
        Point("optimized", *_STRONG, err=1e-2, prefactor=math.sqrt(_MEASURED_SWITCHES * 0.82)),
        "both"),
    "optimized_best_case": (
        Point("optimized", *_STRONG, err=1e-4, prefactor=math.sqrt(F_UC)), "both"),
}


def _output(point: Point, amps, spin_init, coeffs) -> np.ndarray:
    """Output 8-vector, index p1*4 + p2*2 + spin (spin 0 = up)."""
    e = point.err
    v = oracle.baseline_dense(*amps, coeffs, xi1=e, xi2=e, tr=e, tl=e, spin_init=spin_init)
    if point.circuit == "optimized":
        v = v * point.prefactor
        v[[4, 6]] *= -math.sqrt((1 - e) ** 3)   # sign fix on spin-up, control L
    return v


@functools.lru_cache(maxsize=8)
def _ideal_spin(spin_init) -> np.ndarray:
    """Spin the error-free optimized circuit leaves behind (f_both's target)."""
    v = _output(Point("optimized", 0.0, 0.0), (1.0, 0.0, 1.0, 0.0), spin_init,
                (0.0, 1.0, 1.0, 0.0))
    return v[:2] / np.linalg.norm(v[:2])


def oracle_fidelities(point: Point, states) -> dict[str, float]:
    """Ensemble means of f_up, f_down (branch-conditioned) and f_both."""
    coeffs = point.coeffs()
    sums = np.zeros(3)
    for s in states:
        amps = (s.alpha, s.beta, s.delta, s.gamma_amp)
        v = _output(point, amps, tuple(s.spin_init), coeffs)
        a, b, d, g = amps
        photons = np.array([a * d, a * g, b * g, b * d], dtype=complex)
        sums += (2 * abs(np.vdot(photons, v[0::2])) ** 2,
                 2 * abs(np.vdot(photons, v[1::2])) ** 2,
                 abs(np.vdot(np.kron(photons, _ideal_spin(tuple(s.spin_init))), v)) ** 2)
    f_up, f_down, f_both = sums / len(states)
    return {"f_up": float(f_up), "f_down": float(f_down), "f_both": float(f_both)}


def anchor_metric(name: str, states) -> float:
    point, metric = ANCHOR_POINTS[name]
    f = oracle_fidelities(point, states)
    return max(f["f_up"], f["f_down"]) if metric == "best_branch" else f["f_both"]


def grid_point(target: str, v1: float, v2: float) -> Point:
    if target == "fig4b":    # (err, p_sw); the sweep pins the cloner to F_UC
        return Point("optimized", *_STRONG, err=v1, prefactor=v2 * v2 * math.sqrt(F_UC))
    return Point("baseline", g=v2, kappa_s=v1)   # (kappa_s, g)


def axis_values(axis) -> np.ndarray:
    if axis.scale == "log":
        return np.logspace(math.log10(axis.lo), math.log10(axis.hi), axis.points)
    return np.linspace(axis.lo, axis.hi, axis.points)


# ---------------------------------------------------------------------------
# failure accounting


class RunCheck:
    """Counts attempted and failed operations over the jobs of one run."""

    def __init__(self, plan: Plan, states, reference: dict[str, list[str]] | None = None):
        self.plan = plan
        self.states = states            # the resolved input ensemble
        self.target = plan.workload.target
        if reference is None:   # a moved grid has no reference, only invariants
            reference = {"table_anchors": read_reference("table_anchors")}
            if plan.canonical:
                reference[self.target] = read_reference(self.target)
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.all_ok = True      # every job reported ok and the work counts repeat
        self.problems: list[str] = []
        self._first: tuple[list[str], set[int]] | None = None

    def _problem(self, message: str) -> None:
        if len(self.problems) < 10:
            self.problems.append(message)

    def same_counts(self, per_job: list[dict]) -> None:
        """Require the work counts of the traced jobs to repeat exactly."""
        if any(counts != per_job[0] for counts in per_job):
            self.all_ok = False
            self._problem(f"work counts differ between traced jobs: {per_job}")

    def add(self, job: JobOutput) -> None:
        with open(job.csv_path, encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
        if lines[-1] == "":
            lines.pop()
        ops = list(lines)   # op 0 is the header
        if self.target != "table_anchors":
            ops += [f"anchor,{r.anchor.name},{r.value!r},{r.status}" for r in job.results]
        self.all_ok &= bool(job.ok)
        if not job.ok:
            self._problem("reproduce reported ok = False")
        if self._first is None:
            bad = self._check_content(lines, job.results)
            self._first = (ops, bad)
        else:
            first_ops, first_bad = self._first
            bad = set(first_bad) | {i for i, (a, b) in enumerate(zip(ops, first_ops)) if a != b}
            if len(ops) != len(first_ops):
                bad |= set(range(min(len(ops), len(first_ops)), max(len(ops), len(first_ops))))
                self._problem(f"job produced {len(ops)} rows, the first job {len(first_ops)}")
            if len(bad) > len(first_bad):
                self._problem(f"{len(bad) - len(first_bad)} rows differ from the first job")
        # missing rows are in ``bad`` beyond the end of ``ops``; a wrong
        # header (op 0) fails every row
        n_ops = max(len(ops), max(bad, default=0) + 1, 2) - 1
        self.attempted += n_ops
        self.failed += n_ops if 0 in bad else len(bad)

    def _check_content(self, lines: list[str], results) -> set[int]:
        if self.target == "table_anchors":
            return self._check_anchor_table(lines)
        bad = self._check_grid(lines)
        base = len(lines)
        ref = {row.split(",")[0]: row.split(",") for row in self.reference["table_anchors"][1:]}
        for k, r in enumerate(results):
            expected = ref.get(r.anchor.name)
            if expected is None or r.status != expected[7] or not same_value(r.value, expected[5]):
                bad.add(base + k)
                self._problem(f"anchor {r.anchor.name}: {r.value!r} {r.status}, "
                              f"reference {expected}")
            elif not same_value(r.value, anchor_metric(r.anchor.name, self.states)):
                bad.add(base + k)
                self._problem(f"anchor {r.anchor.name}: {r.value!r} disagrees with the oracle")
        return bad

    def _check_anchor_table(self, lines: list[str]) -> set[int]:
        ref = self.reference["table_anchors"]
        if lines[0] != ref[0]:
            self._problem(f"anchor table header {lines[0]!r}")
            return {0}
        bad = set(range(len(ref), len(lines))) | set(range(len(lines), len(ref)))
        if len(lines) != len(ref):
            self._problem(f"{len(lines) - 1} anchor rows, reference has {len(ref) - 1}")
        for i, (row, expected) in enumerate(zip(lines[1:], ref[1:]), start=1):
            cells = row.split(",")
            if not same_row(row, expected):
                bad.add(i)
                self._problem(f"anchor row {row!r} differs from reference {expected!r}")
            elif not same_value(cells[5], anchor_metric(cells[0], self.states)):
                bad.add(i)
                self._problem(f"anchor row {row!r} disagrees with the oracle")
        return bad

    def _check_grid(self, lines: list[str]) -> set[int]:
        axes = self.plan.axes
        v1s, v2s = axis_values(axes[0]), axis_values(axes[1])
        n = len(v1s) * len(v2s)
        header = lines[0].split(",")
        if header[:2] != [axes[0].name, axes[1].name] or header[-1] != "status":
            self._problem(f"grid header {lines[0]!r}")
            return {0}
        ref = self.reference.get(self.target)
        if ref is not None and lines[0] != ref[0]:
            self._problem(f"grid header {lines[0]!r}, reference {ref[0]!r}")
            return {0}
        bad = set(range(n + 1, len(lines))) | set(range(len(lines), n + 1))
        if len(lines) - 1 != n:
            self._problem(f"{len(lines) - 1} grid rows, expected {n}")
        for i, row in enumerate(lines[1:n + 1], start=1):
            if ref is not None and not same_row(row, ref[i]):
                bad.add(i)
                self._problem(f"row {i} {row!r} differs from reference {ref[i]!r}")
            elif not self._row_invariants(row, len(header), v1s[(i - 1) // len(v2s)],
                                          v2s[(i - 1) % len(v2s)]):
                bad.add(i)
                self._problem(f"row {i} {row!r} breaks a row invariant")
        rng = random.Random(self.plan.seed)
        rows = range(1, min(n, len(lines) - 1) + 1)
        for i in sorted(rng.sample(rows, min(ORACLE_SAMPLE, len(rows)))):
            v1, v2 = v1s[(i - 1) // len(v2s)], v2s[(i - 1) % len(v2s)]
            value = oracle_fidelities(grid_point(self.target, v1, v2), self.states)[header[2]]
            if not same_value(lines[i].split(",")[2], value):
                bad.add(i)
                self._problem(f"row {i} {lines[i]!r} disagrees with the oracle ({value!r})")
        return bad

    @staticmethod
    def _row_invariants(row: str, width: int, v1: float, v2: float) -> bool:
        cells = row.split(",")
        if len(cells) != width or cells[-1] != "ok":
            return False
        if not (same_value(cells[0], v1) and same_value(cells[1], v2)):
            return False
        try:
            values = [float(c) for c in cells[2:-1]]
        except ValueError:
            return False
        return all(math.isfinite(f) and 0.0 <= f <= 1.0 for f in values)
