"""Benchmark for bbm_magnetic: three sweep workloads, end-to-end and per layer.

    python3 bench/run.py --workload {landau2d,suite1d,ball3d} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its src/
directory and nowhere else.  Each iteration is a fresh interpreter
(worker.py), so process-lifetime costs are paid the way a command-line
user pays them, with the BLAS pool and the sweep's row threads at one.
After one untimed warm-up iteration, iterations repeat, one after
another (a closed loop of one client), until --seconds have passed.  The
last line of standard output is the JSON result: medians of the
end-to-end metrics with --trace 0; with --trace 1, untraced and traced
iterations alternate and the per-layer metrics are the traced medians.  Every iteration's outputs are checked; failed rows,
failed gates, failed exits, unrestored tracer patches and report digests
that differ between iterations count as failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import DETAIL_METRICS, LAYER_METRICS  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("limit_rel_err", "ratio"),
)
MIN_ITERATIONS = 3
DEADLINE_S = 170.0  # a run must end within 180 s, whatever a worker does
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def worker_env() -> dict:
    return dict(os.environ, **PINNED, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def run_worker(workload: str, workdir: Path, trace: bool, env: dict,
               timeout: float = DEADLINE_S) -> dict | None:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--workdir", str(workdir)] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"worker printed no result:\n{proc.stdout[-2000:]}", file=sys.stderr)
        return None


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    if not (SRC / "bbm_magnetic" / "__init__.py").is_file():
        print(f"no bbm_magnetic package under {SRC}", file=sys.stderr)
        return 2
    env = worker_env()
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workloads.prepare(args.workload, args.seed, workdir)
        # One whole iteration, untimed: it compiles the package and fills the
        # file cache, as on a machine where the command has run before.
        if run_worker(args.workload, workdir, False, env, DEADLINE_S / 2) is None:
            print("the warm-up iteration failed", file=sys.stderr)
            return 2
        records, attempted, failed = [], 0, 0
        min_iterations = MIN_ITERATIONS + args.trace
        start = time.perf_counter()
        durations = []
        while True:
            traced = bool(args.trace) and len(records) % 2 == 1
            t = time.perf_counter()
            rec = run_worker(args.workload, workdir, traced, env, deadline - t)
            durations.append(time.perf_counter() - t)
            attempted += 1
            if rec is None:
                failed += 1
            else:
                rec["traced"] = traced
                records.append(rec)
            now = time.perf_counter()
            next_end = now - start + statistics.median(durations)
            if len(durations) >= min_iterations and next_end > args.seconds:
                break
            if now >= deadline or (len(durations) >= 4 * min_iterations and not records):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    if not records:
        print("no iteration completed", file=sys.stderr)
        return 1
    digests = [r["digest"] for r in records]
    for rec in records:
        ops = rec["rows"] + len(rec["checks"]) + 1  # + the digest comparison
        bad = (rec["rows_failed"] + sum(1 for ok in rec["checks"].values() if not ok)
               + (rec["digest"] != digests[0]))
        if rec["traced"]:
            ops += 1
            bad += bool(rec["unrestored"])
        attempted += ops
        failed += bad

    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    if args.trace:
        if not plain or not traced:
            print("trace run needs traced and untraced iterations", file=sys.stderr)
            return 1
        metrics = {}
        for name, unit, _ in LAYER_METRICS:
            if name == "trace.overhead_s":
                value = (statistics.median(r["sweep_s"] for r in traced)
                         - statistics.median(r["sweep_s"] for r in plain))
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
        self_by_layer = {k: statistics.median(r["self_by_layer"].get(k, 0.0) for r in traced)
                         for k in traced[0]["self_by_layer"]}
        detail = {"self_by_layer_s": self_by_layer,
                  "layers": {name: {"value": statistics.median(r["layers"][name] for r in traced),
                                    "unit": unit} for name, unit in DETAIL_METRICS},
                  "unrestored": sorted({a for r in traced for a in r["unrestored"]})}
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in plain), "unit": unit}
                   for name, unit in END_TO_END}
        detail = {name: {"q1_median_q3": quartiles([r[name] for r in plain])}
                  for name, _ in END_TO_END}

    failed_checks = sorted({k for r in records for k, ok in r["checks"].items() if not ok})
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "iterations": len(records),
        "traced_iterations": len(traced), "digest": digests[0],
        "digests_identical": len(set(digests)) == 1, "failed_checks": failed_checks,
        "env": records[0]["env"], "detail": detail,
    }, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
