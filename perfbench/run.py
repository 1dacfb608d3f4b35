"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload ipfasst-1d --seed 1 --seconds 40 --trace 0

Set-up is sampled SETUP_SAMPLES times: once in this process and then in
fresh interpreters started one after another (setup_probe.py).  Then this
process solves the workload in rounds of a cold and a warm solve, while
another round is expected to end within --seconds of the first solve's
start (at least one round).  The first cold solve is the process's first;
later ones follow clearing pintlab's caches, so each pays what a fresh
process builds lazily.  first_solve_s is the median of the cold solves,
solve_s that of the warm ones.  Every solve is checked against
closed-form references.

With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1 every solve after the first runs with spans around
the calls into each pintlab module (tracing.py), and the line holds the
per-module metrics, medians over the warm solves.  The traced solves must
repeat the untraced first solve's iterations and V-cycles.  A record of
the run and, when traced, the spans of the last warm solve are written
under perfbench/out/.  Exit code 2 means the checkout has no pintlab
source or a bad argument; 1 means no solve finished.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, so that the only parallelism is the time-parallel
# executor's: at most 2 threads, one per core of the reference machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# No huge-page advice on NumPy's large arrays: whether the kernel finds a
# free 2 MB page depends on the host's memory, not on pintlab.  With it,
# isdc-3d-gs-tol solves took 4.9 to 7.5 s in one process; without it,
# 8.7 to 8.9 s (each banded Gauss-Seidel sweep faults its pages anew).
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import workloads  # noqa: E402  (standard library only until set_up)

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "first_solve_s": "s", "solve_s": "s",
                    "peak_rss_mb": "MB", "iterations": "count",
                    "vcycles": "count", "err_max": "1"}


def _unit(metric: str) -> str:
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_s", ".s")):
        return "s"
    return "count"


def probe_setup(name: str) -> dict:
    """One set-up in a fresh interpreter, waited for."""
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name],
                          capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    return json.loads(done.stdout.strip().splitlines()[-1])


def timed_solve(name: str, setup, reference: dict | None, cold: bool) -> dict:
    gc.collect()  # no collection of an earlier solve's garbage is timed
    start = time.perf_counter()
    try:
        out = workloads.solve(setup)
    except Exception:  # a solve that raises counts as failed; the run goes on
        return {"seconds": time.perf_counter() - start, "cold": cold,
                "problems": [traceback.format_exc(limit=3)]}
    seconds = time.perf_counter() - start
    err, ref_err, problems = workloads.check(name, setup, out)
    if reference is not None and "iterations" in reference and (
            (out.iterations, out.vcycles)
            != (reference["iterations"], reference["vcycles"])):
        problems.append(f"iterations/vcycles {out.iterations}/{out.vcycles} "
                        f"differ from the first solve's "
                        f"{reference['iterations']}/{reference['vcycles']}")
    return {"seconds": seconds, "cold": cold, "iterations": out.iterations,
            "vcycles": out.vcycles, "err_max": err,
            "reference_error": ref_err, "problems": problems}


def environment() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (workloads.REPO / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.REPO,
                             capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or None
    return {"cores": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": commit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one pintlab benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded; the workloads' inputs are fixed")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not workloads.source_present():
        print(f"error: no pintlab source under {workloads.SRC}",
              file=sys.stderr)
        return 2

    setup = workloads.set_up(args.workload)
    samples = [setup.timings] + [probe_setup(args.workload)
                                 for _ in range(SETUP_SAMPLES - 1)]

    import tracing

    tracer = tracing.Tracer() if args.trace else None
    # Rounds of a cold solve (the process's first, later ones after
    # clearing pintlab's caches) and a warm one, while another round is
    # expected to end within --seconds of the first solve's start.
    window = time.perf_counter()
    solves = [timed_solve(args.workload, setup, None, cold=True)]
    missing = tracer.install(setup.modules) if tracer else []
    per_solve, spans = [], []
    while True:
        if tracer:
            tracer.spans.clear()
        solves.append(timed_solve(args.workload, setup, solves[0], cold=False))
        if tracer:
            spans = list(tracer.spans)
            per_solve.append(tracing.layer_metrics(spans))
        if len(solves) == 2:  # the same work in every run, however long
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        round_s = solves[-2]["seconds"] + solves[-1]["seconds"]
        print(f"round {len(solves) // 2}: {round_s:.3f} s", file=sys.stderr)
        if time.perf_counter() - window + round_s > args.seconds:
            break
        workloads.clear_caches(setup)
        solves.append(timed_solve(args.workload, setup, solves[0], cold=True))

    failed = sum(1 for s in solves if s["problems"])
    good = [s for s in solves if not s["problems"]]
    if not good:
        print("error: no solve finished:\n" + solves[0]["problems"][0],
              file=sys.stderr)
        return 1
    if args.trace:
        metrics = {k: statistics.median(m[k] for m in per_solve)
                   for k in per_solve[0]}
        metrics["multigrid.cache_mb"] = tracing.cache_mb(
            setup.modules["multigrid"])
        metrics["setup.import_s"] = statistics.median(
            s["import_s"] for s in samples)
        metrics["cli.build_levels.s"] = statistics.median(
            s["build_levels_s"] for s in samples)
        units = {k: _unit(k) for k in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(s["total_s"] for s in samples),
            "first_solve_s": statistics.median(
                s["seconds"] for s in solves if s["cold"]),
            "solve_s": statistics.median(
                s["seconds"] for s in solves if not s["cold"]),
            "peak_rss_mb": peak_rss_mb,
            "iterations": good[0]["iterations"],
            "vcycles": good[0]["vcycles"],
            "err_max": good[0]["err_max"],
        }
        units = END_TO_END_UNITS
    result = {"correct": failed == 0, "attempted": len(solves),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "config": dict(workloads.WORKLOADS[args.workload]),
              "environment": environment(), "setup_samples": samples,
              "solves": solves, "untraced_targets": missing,
              "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracing.write_spans(OUT / f"{stem}-spans.csv.gz", spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
