"""qdcnot benchmark: how long ``reproduce`` takes, and whether its numbers still match.

Usage, from the root of a qdcnot checkout:

    python3 bench/run.py --workload err-psw --seed 0 --seconds 38 --trace 0
    python3 bench/run.py --self-test

One run sets up the workload's inputs from ``--seed``, repeats the
workload's job (one warm ``reproduce`` call, or the same steps on a moved
grid) in this process for ``--seconds`` seconds, checks every output row,
and, between jobs, times fresh interpreters from spawn to ready.  With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it spends half the time on untraced jobs, then runs two
traced jobs and reports the per-layer metrics.  The last line of standard output
is one JSON object; the run's environment, job times and problems go to
``.bench_build/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
MIN_JOBS = 2      # byte identity needs a repeat
MIN_SETUPS = 3
TRACED_JOBS = 2   # spans of a grid job take tens of MB; two show the counts repeat
REQUIRED = ("BENCHMARK.json", "src/qdcnot/__init__.py", "tests/oracle.py")

# What every `qdcnot reproduce` process pays before its first grid point.
SETUP_CHILD = """
import json, time
t0 = time.perf_counter()
import qdcnot.cli
import qdcnot.sweep
t1 = time.perf_counter()
qdcnot.sweep.calibrate_ensemble()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "calibrate_s": t2 - t1}), flush=True)
"""


def setup_run() -> dict:
    """Spawn one fresh interpreter and time it from spawn to ready."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CHILD], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter() - t0
        child.stdout.read()
        child.wait(timeout=120)
    if child.returncode != 0 or not line:
        raise RuntimeError(f"set-up interpreter failed with exit code {child.returncode}")
    return dict(json.loads(line), ready_s=ready)


def measure(plan, out_dir: Path, seconds: float, check):
    """Repeat the job until the next one would overrun ``seconds``.

    A set-up run follows a job while set-up runs have taken less than half
    the time jobs have, so both sample the whole window and the machine's
    slow phases weigh on them alike.  Returns (job times, set-up runs).
    """
    from workloads import run_job

    times: list[float] = []
    setup: list[dict] = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        job = run_job(plan, str(out_dir))
        times.append(time.perf_counter() - t0)
        check.add(job)
        if sum(s["ready_s"] for s in setup) < sum(times) / 2 or len(setup) < MIN_SETUPS:
            setup.append(setup_run())
        if (len(times) >= MIN_JOBS and len(setup) >= MIN_SETUPS
                and time.perf_counter() + statistics.median(times) > deadline):
            return times, setup


def peak_rss_mb() -> float:
    """Peak RSS of this process, the one that runs the jobs."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit, "src_sha256": digest.hexdigest()}


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile above the median with >= 10 samples beyond it."""
    if n < 20:
        return None
    return math.floor(100 * (1 - 10 / n))


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import qdcnot.sweep

    from checks import RunCheck
    from spans import COUNTS, Tracer, job_metrics, median_metrics, percentile
    from workloads import WORKLOADS, make_plan, run_job

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    load_start = loadavg()
    plan = make_plan(WORKLOADS[workload], seed)
    out_dir = BUILD / "out" / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    # the job is a warm reproduce call: the process has calibrated once
    check = RunCheck(plan, qdcnot.sweep.calibrate_ensemble().states)

    record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if not trace:
        times, setups = measure(plan, out_dir, seconds, check)
        metrics = {"setup_s": statistics.median(s["ready_s"] for s in setups),
                   "job_s": statistics.median(times), "peak_rss_mb": peak_rss_mb()}
        pct = tail_percentile(len(times))
        record["job_s"] = {"median": metrics["job_s"], "n": len(times), "samples": times,
                           "tail_pct": pct, "tail": percentile(times, pct) if pct else None}
        wanted = spec["end_to_end"]
    else:
        plain, setups = measure(plan, out_dir, seconds / 2, check)
        tracer = Tracer()
        tracer.install()
        traced = []
        try:
            for job_id in range(TRACED_JOBS):
                tracer.job_id = job_id
                t0 = time.perf_counter()
                job = run_job(plan, str(out_dir))
                traced.append(time.perf_counter() - t0)
                check.add(job)
        finally:
            tracer.uninstall()
        per_job = [job_metrics(tracer, j, t) for j, t in enumerate(traced)]
        check.same_counts([{k: m.get(k) for k in COUNTS} for m in per_job])
        metrics = median_metrics(per_job)
        metrics["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
        metrics["sweep.calibrate_s"] = statistics.median(s["calibrate_s"] for s in setups)
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1
        record["job_s"] = {"untraced": plain, "traced": traced}
        record["missing_functions"] = sorted(tracer.missing)
        BUILD.mkdir(exist_ok=True)
        tracer.write(str(BUILD / f"spans-{workload}.csv.gz"))
        wanted = spec["per_layer"]

    record["setup"] = setups
    record["environment"] = dict(environment(), loadavg_start=load_start, loadavg_end=loadavg())
    record["absent"] = [m["name"] for m in wanted if m["name"] not in metrics]
    record["problems"] = check.problems
    result = {
        "correct": check.failed == 0 and check.all_ok,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    return result, record


def report(result: dict, record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print(f"env: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"commit {env['commit'] or 'n/a'}, src {env['src_sha256'][:12]}, "
          f"loadavg {env['loadavg_start']} -> {env['loadavg_end']}")
    jobs = record["job_s"]
    if "n" in jobs:
        tail = (f"p{jobs['tail_pct']} {jobs['tail']:.4f} s" if jobs["tail_pct"]
                else "no percentile above the median has 10 samples beyond it")
        print(f"job_s: median {jobs['median']:.4f} s over n={jobs['n']} jobs; {tail}")
    else:
        print(f"jobs: {len(jobs['untraced'])} untraced, {len(jobs['traced'])} traced")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    for name in record["absent"]:
        print(f"  {name:28s} absent (its function no longer exists)")
    print(f"fail_ratio {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.6g}")
    for problem in record["problems"]:
        print(f"problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("err-psw", "coupling", "anchors"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="tiny grids on every workload, plus checks of the checks")
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: {ROOT} is not a qdcnot checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    sys.path.insert(0, str(ROOT / "src"))
    if args.self_test:
        import selftest
        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")

    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    (BUILD / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (BUILD / "results" / name).write_text(json.dumps({"result": result, **record}, indent=1))
    report(result, record)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
