"""Self-checks of the benchmark: tracer hygiene, seeds, the result contract.

    PYTHONPATH=src python -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads
from tracer import DETAIL_METRICS, LAYER_METRICS, Tracer, is_traced

ROOT = Path(__file__).resolve().parent.parent


def _traced_attributes() -> list[str]:
    return [f"{m.__name__}.{a}" for m in Tracer.modules()
            for a, v in vars(m).items() if is_traced(v)]


def _suite(tmp_path: Path, tracer=None) -> workloads.Outcome:
    paths = workloads.prepare("suite1d", 0, tmp_path)
    state = workloads.setup("suite1d", paths, tracer)
    result = workloads.sweep("suite1d", state, paths, tmp_path)
    return workloads.check("suite1d", result, paths, tmp_path)


def test_uninstall_restores_every_wrapped_attribute():
    tracer = Tracer()
    tracer.install()
    try:
        assert "bbm_magnetic.cli.run_sweep" in tracer.patched
        assert "bbm_magnetic.quadrature._run_two_level" in tracer.patched
        assert "bbm_magnetic.functionals._run_two_level" in tracer.patched
        assert sorted(_traced_attributes()) == sorted(tracer.patched)
    finally:
        tracer.uninstall()
    assert tracer.unrestored() == []
    assert _traced_attributes() == []


def test_traced_run_reports_the_same_bytes(tmp_path):
    plain = _suite(tmp_path)
    assert plain.checks and all(plain.checks.values()), plain.checks
    assert _traced_attributes() == []

    tracer = Tracer()
    tracer.install()
    try:
        traced = _suite(tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert traced.report == plain.report
    assert tracer.unrestored() == []
    layers = tracer.layer_metrics(traced.rows, traced.rows_failed, (0.0, 1.0), 0)
    names = {m[0] for m in LAYER_METRICS + DETAIL_METRICS} - {"trace.overhead_s"}
    assert set(layers) == names
    assert layers["geometry.tensor_grid.calls"] > 0
    assert layers["operator.apply.calls"] > 0
    assert layers["quadrature.fine_nodes"] <= layers["quadrature.integrand_points"]


def test_untraced_worker_installs_no_wrappers(tmp_path):
    workloads.prepare("suite1d", 0, tmp_path)
    record = run.run_worker("suite1d", tmp_path, False, run.worker_env())
    assert record is not None
    assert "layers" not in record and all(record["checks"].values())
    assert record["env"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_seed_zero_is_canonical_and_seeds_are_reproducible():
    (landau,) = workloads.configs("landau2d", 0)
    assert landau["potential"] == "landau:beta=1.0"
    assert landau["s_list"] == list(workloads.CANONICAL_S)
    for name in workloads.WORKLOADS:
        assert workloads.configs(name, 7) == workloads.configs(name, 7)
        assert workloads.configs(name, 7) != workloads.configs(name, 0)
        for cfg in workloads.configs(name, 7):
            s = cfg.get("s_list", [])
            assert all(0.0 < a < b < 1.0 for a, b in zip(s, s[1:]))


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(LAYER_METRICS)


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suite1d", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
