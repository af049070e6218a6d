"""One benchmark iteration in a fresh interpreter.

    python3 bench/worker.py --workload NAME --workdir DIR [--trace]

Run by run.py with bbm_magnetic's source directory as the only PYTHONPATH
entry and the BLAS pool pinned to one thread.  Prints one JSON object:
the timings, the rows and gate results, the report digest, the
environment and, with --trace, the per-layer metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import threading
import time
from pathlib import Path

import workloads

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--workdir", required=True, type=Path)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    paths = sorted(args.workdir.glob("config-*.json"), key=lambda q: int(q.stem.split("-")[1]))

    start = time.perf_counter()  # setup_s: numpy and bbm_magnetic are not imported yet
    import bbm_magnetic

    src = Path(os.environ["PYTHONPATH"]).resolve()
    if Path(bbm_magnetic.__file__).resolve().parent.parent != src:
        print(f"bbm_magnetic imported from {bbm_magnetic.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    state = workloads.setup(args.workload, paths, tracer)
    setup_s = time.perf_counter() - start

    cpu0, t0 = time.process_time(), time.perf_counter()
    result = workloads.sweep(args.workload, state, paths, args.workdir)
    t1, cpu1 = time.perf_counter(), time.process_time()

    if tracer is not None:
        tracer.uninstall()
    outcome = workloads.check(args.workload, result, paths, args.workdir)
    record = {
        "setup_s": setup_s,
        "sweep_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "limit_rel_err": outcome.limit_rel_err,
        "rows": outcome.rows,
        "rows_failed": outcome.rows_failed,
        "checks": outcome.checks,
        "digest": hashlib.sha256(outcome.report).hexdigest(),
        "env": environment(),
    }
    if tracer is not None:
        record["unrestored"] = tracer.unrestored()
        record["layers"] = tracer.layer_metrics(outcome.rows, outcome.rows_failed, (t0, t1),
                                                threading.main_thread().ident)
        record["self_by_layer"] = tracer.self_by_layer()
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
