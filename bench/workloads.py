"""The benchmark's workloads and the one job each of them repeats.

A job is one ``reproduce`` target: a grid sweep (or the anchor table), its
CSV and its anchor check.  Seed 0 calls ``qdcnot.reproduce`` on the paper's
canonical grid.  Any other seed moves each grid axis by a seeded fraction of
one grid step and runs the same steps through the public sweep functions,
so the point count, the circuit and the error pattern stay those of the
target while the parameter values are new.  The anchor table has no grid
and so no seeded input: every seed calls ``reproduce("table_anchors")``.

Every call into qdcnot goes through a module attribute looked up at call
time, so the wrappers that the traced run installs on those attributes see it.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace

import qdcnot.sweep as sweep

@dataclass(frozen=True)
class Axis:
    name: str
    lo: float
    hi: float
    points: int
    scale: str       # "linear" or "log"
    direction: int   # +1 or -1: which way a seeded offset moves the axis,
                     # chosen so the shifted axis stays inside the valid range

    def shifted(self, fraction: float) -> "Axis":
        """The same axis moved by ``fraction`` of one grid step."""
        steps = self.direction * fraction / (self.points - 1)
        if self.scale == "log":
            factor = (self.hi / self.lo) ** steps
            return replace(self, lo=self.lo * factor, hi=self.hi * factor)
        delta = steps * (self.hi - self.lo)
        return replace(self, lo=self.lo + delta, hi=self.hi + delta)

    def config_lines(self, index: int) -> list[str]:
        key = f"axis{index}"
        return [f"{key} = {self.name}", f"{key}_lo = {self.lo!r}", f"{key}_hi = {self.hi!r}",
                f"{key}_points = {self.points}", f"{key}_scale = {self.scale}"]


# the canonical grids of the fig4b and fig3a targets
ERR_PSW_AXES = (Axis("err", 1e-4, 1e-1, 31, "log", -1),
                Axis("p_sw", 0.6, 1.0, 41, "linear", -1))
COUPLING_AXES = (Axis("kappa_s_over_kappa", 0.0, 2.0, 41, "linear", +1),
                 Axis("g_over_kappa", 0.0, 3.0, 61, "linear", +1))


@dataclass(frozen=True)
class Workload:
    name: str
    target: str
    axes: tuple[Axis, Axis] | None   # None for the anchor table


WORKLOADS = {w.name: w for w in (
    Workload("err-psw", "fig4b", ERR_PSW_AXES),
    Workload("coupling", "fig3a", COUPLING_AXES),
    Workload("anchors", "table_anchors", None),
)}


@dataclass(frozen=True)
class Plan:
    """The inputs of one benchmark run, fixed by the workload and the seed."""

    workload: Workload
    seed: int
    axes: tuple[Axis, Axis] | None
    canonical: bool   # the exact reproduce target, so reproduce() itself runs


def make_plan(workload: Workload, seed: int, points: tuple[int, int] | None = None) -> Plan:
    """Seeded inputs; ``points`` shrinks the grid (self-test only)."""
    axes = workload.axes
    if axes is None:
        return Plan(workload, seed, None, True)
    if points is not None:
        axes = tuple(replace(a, points=n) for a, n in zip(axes, points))
    if seed:
        rng = random.Random(seed)
        axes = tuple(a.shifted(rng.uniform(0.1, 0.9)) for a in axes)
    return Plan(workload, seed, axes, seed == 0 and points is None)


@dataclass(frozen=True)
class JobOutput:
    csv_path: str
    results: list      # qdcnot AnchorResult, in check order
    ok: bool


def run_job(plan: Plan, out_dir: str) -> JobOutput:
    """One reproduce call, or on a moved grid the same steps: sweep, CSV,
    anchor check, summary."""
    w = plan.workload
    if plan.canonical:
        out = sweep.reproduce(w.target, out_dir)
        return JobOutput(out["csv"], out["results"], out["ok"])

    os.makedirs(out_dir, exist_ok=True)
    ensemble = sweep.calibrate_ensemble()
    text = "\n".join([f"circuit = {'optimized' if w.target == 'fig4b' else 'baseline'}"]
                     + plan.axes[0].config_lines(1) + plan.axes[1].config_lines(2))
    cfg = sweep.parse_config_text(text)
    if w.target == "fig4b":
        table = sweep.sweep_err_psw(cfg)
        anchors = tuple(a for a in sweep.ANCHORS if a.name == "optimized_best_case")
    else:  # fig3a keeps the spin-up column only
        table = [row[:3] + row[4:] for row in sweep.sweep_coupling(cfg)]
        anchors = tuple(a for a in sweep.ANCHORS if a.name.endswith("_ideal"))
    results = sweep.check_anchors(ensemble, anchors)
    csv_path = os.path.join(out_dir, f"{w.target}.csv")
    sweep.write_csv(table, csv_path)
    with open(os.path.join(out_dir, f"{w.target}_summary.txt"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write(sweep.anchor_summary(results))
    ok = all(r.status in ("PASS", "DOCUMENTED") for r in results)
    return JobOutput(csv_path, results, ok)
