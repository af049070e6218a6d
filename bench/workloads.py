"""Workload inputs, runs and correctness gates.

Seed 0 gives the canonical configs.  Any other seed scales the magnetic
strength (Landau ``beta`` in 2D, linear ``alpha`` in 1D) by up to
``STRENGTH_JITTER`` and moves every s value by up to ``S_JITTER`` of its
distance to 1.  Every gate below holds over those ranges.

A workload runs in three steps inside one fresh interpreter (worker.py):
``setup`` (timed as setup_s), ``sweep`` (timed as sweep_s and cpu_s) and
``check`` (untimed), which returns the rows, the gate results, the
accuracy metric and the report bytes that are digested.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("landau2d", "suite1d", "ball3d")

CANONICAL_S = (0.8, 0.9, 0.95, 0.99)
S_JITTER = 0.03
STRENGTH_JITTER = 0.05

INTERVAL = {"kind": "interval", "center": [0.0], "extents": [1.0]}
UNIT_BOX = {"kind": "box", "center": [0.0, 0.0], "extents": [1.0, 1.0]}
# Row threads of every CLI sweep.  One, so a worker never needs every core of
# a small machine and other load delays it less; reports are byte-identical
# at any count.
THREADS = 1

# Closed forms on (-1, 1): I0 = int e^{-2x^2}, I2 = int x^2 e^{-2x^2}.
_I0 = math.sqrt(math.pi / 2.0) * math.erf(math.sqrt(2.0))
_I2 = (_I0 - 2.0 * math.exp(-2.0)) / 4.0
# int_0^1 r^4 e^{-2r^2} dr, by parts from I2.
_J4 = -math.exp(-2.0) / 4.0 + 0.75 * (_I2 / 2.0)
K = {1: 1.0, 2: math.pi / 2.0, 3: 2.0 * math.pi / 3.0}  # |S^{N-1}| / (2N)


@dataclass
class Outcome:
    rows: int = 0
    rows_failed: int = 0
    checks: dict = field(default_factory=dict)
    limit_rel_err: float = math.nan
    report: bytes = b""


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


class _Draw:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.canonical = seed == 0

    def strength(self) -> float:
        if self.canonical:
            return 1.0
        return round(1.0 + self.rng.uniform(-STRENGTH_JITTER, STRENGTH_JITTER), 6)

    def s_list(self, base) -> list[float]:
        if self.canonical:
            return list(base)
        return [round(s + self.rng.uniform(-S_JITTER, S_JITTER) * (1.0 - s), 8) for s in base]


def configs(workload: str, seed: int) -> list[dict]:
    """The inputs of one workload at one seed, as sweep-config dicts."""
    draw = _Draw(seed)
    if workload == "landau2d":
        beta = draw.strength()
        return [{"kind": "bbm-domain", "field": "gauss2d", "potential": f"landau:beta={beta!r}",
                 "domain": UNIT_BOX, "s_list": draw.s_list(CANONICAL_S)}]
    if workload == "ball3d":
        return [{"s_list": draw.s_list(CANONICAL_S)}]
    if workload != "suite1d":
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    alpha = draw.strength()
    pot = f"linear:alpha={alpha!r}"
    s_list = draw.s_list(CANONICAL_S)
    base = {"potential": pot, "domain": INTERVAL}
    return [
        {**base, "kind": "bbm-domain", "field": "gauss1d", "s_list": s_list},
        {**base, "kind": "bbm-fullspace", "field": "bump1d",
         "s_list": draw.s_list((0.8, 0.9, 0.95, 0.99, 0.999, 0.9999))},
        {**base, "kind": "mollifier", "field": "gauss1d",
         "family": {"kind": "gaussian", "indices": [2, 4, 6, 8, 12, 16, 24]}},
        # Shares the bbm-domain s values, so the bbm identity can be checked.
        {**base, "kind": "mollifier", "field": "gauss1d",
         "family": {"kind": "bbm", "s_list": [0.5, 0.75] + s_list}},
        {**base, "kind": "lemma-translation", "field": "bump1d",
         "h_list": [0.1, 0.05, 0.025, 0.0125]},
        {**base, "kind": "lemma-uniform", "field": "bump1d",
         "s_list": draw.s_list((0.5, 0.7, 0.9, 0.99))},
        {"kind": "operator-limit", "field": "gauss1d", "potential": "zero", "domain": INTERVAL,
         "point": [0.0], "s_list": draw.s_list((0.7, 0.8, 0.9, 0.95))},
    ]


def prepare(workload: str, seed: int, workdir: Path) -> list[Path]:
    """Write the workload's config files; returns their paths in run order."""
    paths = []
    for i, cfg in enumerate(configs(workload, seed)):
        path = workdir / f"config-{i}.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def setup(workload: str, paths: list[Path], tracer=None):
    """Build the config, field and potential: the work every CLI call pays."""
    if workload == "ball3d":
        return _ball_setup(paths[0], tracer)
    from bbm_magnetic import corpus, harness

    cfgs = [harness.load_config(p) for p in paths]
    for cfg in cfgs:
        corpus.resolve_field(cfg.field_label)
        corpus.resolve_potential(cfg.potential_label, cfg.domain.dimension)
    return cfgs


def sweep(workload: str, state, paths: list[Path], workdir: Path):
    """From the built config to the report bytes (ball3d: the result rows)."""
    if workload == "ball3d":
        return _ball_sweep(state)
    from bbm_magnetic import cli

    fmt = _report_format(workload)
    codes = []
    for i, path in enumerate(paths):
        out = workdir / f"report-{i}.{fmt}"
        codes.append(cli.main(["sweep", "--config", str(path), "--threads", str(THREADS),
                               "--format", fmt, "--out", str(out)]))
    return codes


def check(workload: str, result, paths: list[Path], workdir: Path) -> Outcome:
    if workload == "ball3d":
        return _ball_check(result)
    outcome = Outcome()
    fmt = _report_format(workload)
    reports = []
    for i, (path, code) in enumerate(zip(paths, result)):
        out = workdir / f"report-{i}.{fmt}"
        ok = code == 0 and out.is_file()
        outcome.checks[f"{i}.exit"] = ok
        reports.append(out.read_bytes() if ok else None)
        out.unlink(missing_ok=True)
    outcome.report = b"\0".join(r or b"" for r in reports)
    cfgs = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    if workload == "landau2d":
        _landau_check(outcome, cfgs[0], reports[0])
    else:
        _suite_check(outcome, cfgs, reports)
    return outcome


def _report_format(workload: str) -> str:
    return "csv" if workload == "landau2d" else "json"


def _strength(label: str) -> float:
    return float(label.partition("=")[2]) if "=" in label else 1.0


def _intercept(points: list[tuple[float, float]]) -> float:
    """Least-squares affine fit v = L + C t through the points; returns L."""
    n = len(points)
    tm = sum(t for t, _ in points) / n
    vm = sum(v for _, v in points) / n
    slope = (sum((t - tm) * (v - vm) for t, v in points)
             / sum((t - tm) ** 2 for t, _ in points))
    return vm - slope * tm


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def _landau_check(outcome: Outcome, cfg: dict, report) -> None:
    """Acceptance criterion 3 in 2D, against the closed-form target."""
    beta = _strength(cfg["potential"])
    target = K[2] * (4.0 + beta * beta / 4.0) * 2.0 * _I2 * _I0
    if report is None:
        return
    lines = report.decode("utf-8").splitlines()[1:]
    rows = [[float(x) for x in line.split(",")] for line in lines]
    outcome.rows = len(rows)
    outcome.rows_failed = sum(1 for r in rows if not all(map(math.isfinite, r)))
    outcome.checks["rows"] = len(rows) == len(cfg["s_list"]) and outcome.rows_failed == 0
    outcome.checks["target"] = all(_rel(r[3], target) < 1e-8 for r in rows)
    outcome.checks["monotone"] = _decreasing([r[5] for r in rows])
    limit = _intercept(sorted((1.0 - r[0], r[2]) for r in rows)[:3])
    outcome.checks["limit"] = _rel(limit, rows[0][3]) < 0.03
    outcome.limit_rel_err = _rel(limit, target)


def _suite_check(outcome: Outcome, cfgs: list[dict], reports: list) -> None:
    """Acceptance criteria 3-7 and 9, and the bbm identity, on the 1D suite."""
    reps = [None if r is None else json.loads(r) for r in reports]
    for rep in reps:
        if rep is not None:
            outcome.rows += len(rep["rows"])
            outcome.rows_failed += sum(1 for r in rep["rows"]
                                       if r["failed"] or not math.isfinite(r["value"]))
    if any(rep is None for rep in reps):
        return
    domain, full, mgauss, mbbm, trans, unif, oper = reps
    alpha = _strength(cfgs[0]["potential"])
    energy = (4.0 + alpha * alpha) * _I2
    c = outcome.checks

    def limit_err(rep):
        return _rel(rep["extrapolated_limit"], rep["target"])

    def col(rep, key):
        return [r[key] for r in rep["rows"]]

    c["domain.target"] = _rel(domain["target"], K[1] * energy) < 1e-9
    c["domain.monotone"] = _decreasing(col(domain, "rel_err"))
    c["domain.limit"] = limit_err(domain) < 0.01
    c["fullspace.last_row"] = full["rows"][-1]["rel_err"] < 1e-3
    c["fullspace.limit"] = limit_err(full) < 0.01
    c["mollifier.admitted"] = len(mgauss["metadata"]["mollifier_checks"]) == len(mgauss["rows"])
    c["mollifier.target"] = _rel(mgauss["target"], 2.0 * K[1] * energy) < 1e-9
    c["mollifier.finest"] = mgauss["rows"][-1]["rel_err"] < 0.02
    by_s = {r["param"]: r["value"] for r in domain["rows"]}
    shared = [(r["value"], 2.0 * (1.0 - r["param"]) * by_s[r["param"]])
              for r in mbbm["rows"] if r["param"] in by_s]
    c["bbm_identity"] = len(shared) == len(by_s) and all(_rel(a, b) < 1e-10 for a, b in shared)
    c["bbm_mollifier.limit"] = limit_err(mbbm) < 0.01
    ratios = col(trans, "scaled")
    c["translation.spread"] = max(ratios) / min(ratios) < 1.2
    c["translation.limit"] = trans["rows"][0]["rel_err"] < 0.02
    ratios = col(unif, "scaled")
    c["uniform.spread"] = max(ratios) / min(ratios) <= 5.0
    disc = col(oper, "scaled")
    c["operator.monotone"] = _decreasing(disc)
    # Fractional Laplacian of e^{-x^2} at 0 is 4^s Gamma(s+1/2)/sqrt(pi); the local value is 2.
    frac = [4.0**s * math.gamma(s + 0.5) / math.sqrt(math.pi) for s in col(oper, "param")]
    c["operator.spectral"] = all(abs(d - abs(f - 2.0)) < 1e-3 * f for d, f in zip(disc, frac))
    errs = [limit_err(rep) for rep in (domain, full, mgauss, mbbm, trans, unif)]
    outcome.limit_rel_err = sum(errs) / len(errs)


# ---------------------------------------------------------------------------
# ball3d: the library path of the README example, on the unit ball
# ---------------------------------------------------------------------------


@dataclass
class _Ball:
    u: object
    A: object
    domain: object
    spec: object
    s_list: list


def _ball_setup(path: Path, tracer) -> _Ball:
    import numpy as np

    import bbm_magnetic as bm

    def value(p):
        return np.exp(-np.sum(p * p, axis=-1)).astype(complex)

    def gradient(p):
        return (-2.0 * p * np.exp(-np.sum(p * p, axis=-1))[..., None]).astype(complex)

    def gauge(p):
        p = np.asarray(p, dtype=float)
        return 0.5 * np.stack([-p[..., 1], p[..., 0], np.zeros(p.shape[:-1])], axis=-1)

    u = bm.ScalarField(3, value, gradient, label="gauss3d")
    A = bm.VectorPotential(3, gauge, label="symmetric")
    if tracer is not None:
        u, A = tracer.field(u), tracer.potential(A)
    s_list = json.loads(path.read_text(encoding="utf-8"))["s_list"]
    return _Ball(u, A, bm.ball([0.0, 0.0, 0.0], 1.0), bm.default_spec(3), s_list)


def _ball_sweep(b: _Ball):
    import bbm_magnetic as bm

    grid = bm.tensor_grid(b.domain, b.spec.outer_nodes)
    energy = bm.local_magnetic_energy(b.u, b.A, b.domain, grid).value
    rows = []
    for s in b.s_list:
        v = bm.magnetic_seminorm_sq(b.u, b.A, b.domain, s, b.spec).value
        rows.append((s, v, (1.0 - s) * v))
    limit, _ = bm.extrapolate_limit(sorted((1.0 - s, scaled) for s, _, scaled in rows)[:3])
    return energy, rows, limit


def _ball_check(result) -> Outcome:
    """Energy and limit against the closed form K_3 (25/6) 4 pi int_0^1 r^4 e^{-2r^2} dr."""
    energy, rows, limit = result
    exact_energy = 25.0 / 6.0 * 4.0 * math.pi * _J4
    target = K[3] * exact_energy
    outcome = Outcome(rows=len(rows), report=repr(result).encode("utf-8"))
    outcome.rows_failed = sum(1 for r in rows if not all(map(math.isfinite, r)))
    c = outcome.checks
    c["rows"] = outcome.rows_failed == 0
    c["energy"] = _rel(energy, exact_energy) < 0.03
    c["monotone"] = _decreasing([_rel(scaled, K[3] * energy) for _, _, scaled in rows])
    c["limit"] = _rel(limit, target) < 0.03
    outcome.limit_rel_err = _rel(limit, target)
    return outcome
