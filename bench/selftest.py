"""Self-test of the benchmark: ``python3 bench/run.py --self-test``.

Runs every workload on a tiny grid, untraced and traced, and requires clean
checks and every per-layer metric.  Then it checks the checks: a corrupted
reference row, a wrong anchor status and a row that changes between jobs
must each raise ``failed``, and work counts that differ between traced
jobs must make the run incorrect; the self-time arithmetic must hold on a
synthetic span tree; and the moved-grid job path must give reproduce's
bytes when the seed moves nothing.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import replace
from pathlib import Path

import qdcnot.sweep

from checks import RunCheck, read_reference
from spans import Tracer, job_metrics, self_times
from workloads import WORKLOADS, make_plan, run_job

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_build" / "selftest"
TINY = (3, 4)
# per-layer metrics that come from the set-up runs or from two job kinds
NOT_FROM_JOB_SPANS = {"cli.import_s", "sweep.calibrate_s", "trace.overhead_ratio"}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_self_times() -> None:
    # root [0,10] with children A [1,4], B [3,6] (overlapping A) and C [9,12]
    # (past the root's end); D [2,3] is A's child
    start = [0.0, 1.0, 3.0, 9.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    got = self_times(start, end, parent)
    expect(got == [4.0, 2.0, 3.0, 3.0, 1.0], f"self times {got}")

    tracer = Tracer()
    spans = [  # name, start, end, parent, attr
        ("sweep.sweep_err_psw", 0.0, 10.0, -1, None),
        ("fidelity.average_fidelity", 1.0, 9.0, 0, 4),
        ("circuits.optimized_cnot", 2.0, 5.0, 1, None),
        ("circuits.baseline_cnot", 2.5, 4.5, 2, None),
        ("state.apply_mode_map", 3.0, 4.0, 3, 6),
        ("sweep.check_anchors", 10.0, 12.0, -1, 1),
        ("fidelity.average_fidelity", 10.5, 11.5, 5, 4),
    ]
    for name, s, e, p, a in spans:
        tracer.name.append(name)
        tracer.start.append(s)
        tracer.end.append(e)
        tracer.parent.append(p)
        tracer.job.append(0)
        tracer.attr.append(a)
    m = job_metrics(tracer, 0, 12.0)
    want = {"state.self_s": 1.0, "state.share": 1 / 12, "state.amplitudes_out": 6,
            "circuits.self_s": 2.0, "circuits.runs": 1, "fidelity.self_s": 6.0,
            "fidelity.points": 2, "fidelity.inputs_per_point": 4.0, "sweep.grid_s": 10.0,
            "sweep.anchor_s": 2.0, "sweep.anchor_useful_ratio": 1.0, "trace.spans": 7}
    for key, value in want.items():
        expect(abs(m[key] - value) < 1e-12, f"{key}: {m[key]} != {value}")
    tracer.missing.add("state.apply_mode_map")
    m = job_metrics(tracer, 0, 12.0)
    expect("state.apply_calls" not in m and "state.self_s" in m,
           "a missing function must make only its own metrics absent")


def check_workloads(per_layer: list[str]) -> None:
    states = qdcnot.sweep.calibrate_ensemble().states
    for name, workload in WORKLOADS.items():
        plan = make_plan(workload, 7, TINY)
        out = SCRATCH / name
        check = RunCheck(plan, states)
        check.add(run_job(plan, str(out)))
        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            job = run_job(plan, str(out))
            elapsed = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        check.add(job)
        expect(check.failed == 0 and check.all_ok, f"{name}: {check.problems}")
        expect(not tracer.missing, f"{name}: missing {tracer.missing}")
        metrics = job_metrics(tracer, 0, elapsed)
        absent = [m for m in per_layer if m not in metrics and m not in NOT_FROM_JOB_SPANS]
        expect(not absent, f"{name}: absent per-layer metrics {absent}")
        print(f"self-test: {name} tiny run ok ({check.attempted} operations, "
              f"{int(metrics['trace.spans'])} spans)")


def check_failures_counted() -> None:
    states = qdcnot.sweep.calibrate_ensemble().states
    anchors_ref = read_reference("table_anchors")

    plan = make_plan(WORKLOADS["err-psw"], 0, TINY)
    job = run_job(plan, str(SCRATCH / "corrupt"))
    lines = Path(job.csv_path).read_text(encoding="utf-8").split("\n")[:-1]
    clean = RunCheck(plan, states, {"table_anchors": anchors_ref, "fig4b": lines})
    clean.add(job)
    expect(clean.failed == 0, f"clean reference: {clean.problems}")
    cells = lines[2].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-8))
    corrupt = RunCheck(plan, states, {"table_anchors": anchors_ref,
                                      "fig4b": lines[:2] + [",".join(cells)] + lines[3:]})
    corrupt.add(job)
    expect(corrupt.failed == 1, f"corrupted reference row: failed = {corrupt.failed}")

    plan = make_plan(WORKLOADS["anchors"], 0)
    job = run_job(plan, str(SCRATCH / "corrupt"))
    wrong = [row.replace(",PASS", ",DOCUMENTED") if i == 1 else row
             for i, row in enumerate(anchors_ref)]
    check = RunCheck(plan, states, {"table_anchors": wrong})
    check.add(job)
    expect(check.failed == 1, f"wrong anchor status: failed = {check.failed}")

    check = RunCheck(plan, states)
    check.add(job)
    path = Path(job.csv_path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("0.9370891039", "0.937089104"), encoding="utf-8")
    check.add(job)
    expect(check.attempted == 12 and check.failed == 1,
           f"a row changed between jobs: {check.failed}/{check.attempted}")

    check = RunCheck(plan, states)
    check.same_counts([{"circuits.runs": 1048, "state.apply_calls": 9}] * 2)
    expect(check.all_ok, f"equal work counts: {check.problems}")
    check.same_counts([{"circuits.runs": 1048}, {"circuits.runs": 1049}])
    expect(not check.all_ok, "work counts that differ between traced jobs were not caught")
    print("self-test: corrupted reference, anchor status, repeat change and "
          "differing work counts all caught")


def check_moved_path_matches_reproduce() -> None:
    for name in ("err-psw", "coupling"):
        plan = make_plan(WORKLOADS[name], 0)
        a = run_job(plan, str(SCRATCH / "reproduce"))
        b = run_job(replace(plan, canonical=False), str(SCRATCH / "moved"))
        expect(Path(a.csv_path).read_bytes() == Path(b.csv_path).read_bytes(),
               f"{name}: the sweep path differs from reproduce at zero offset")
    print("self-test: the moved-grid path gives reproduce's bytes at zero offset")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        check_self_times()
        print("self-test: self-time arithmetic ok")
        check_workloads([m["name"] for m in spec["per_layer"]])
        check_failures_counted()
        check_moved_path_matches_reproduce()
    except AssertionError as exc:
        print(f"self-test FAILED: {exc}")
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("self-test ok")
    return 0
