"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured margins (visible under ``pytest -s``).

Frozen oracle values were produced by tests/oracles.py (brute-force tensor
grid with per-row strip completion at 8000 nodes per axis; spectral
quadrature for the operator) and can be regenerated with

    python -m tests.oracles
"""

import json
import math
import subprocess
import sys

import numpy as np

import bbm_magnetic as bm
from bbm_magnetic.constants import bbm_constant, fractional_constant, fractional_constant_limit
from bbm_magnetic.corpus import resolve_field, resolve_potential
from bbm_magnetic.fields import GaugeFunction, gauge_transform, modulus_field, scaled_field
from bbm_magnetic.functionals import (
    bbm_family,
    local_magnetic_energy,
    magnetic_seminorm_sq,
    mollified_functional,
)
from bbm_magnetic.geometry import box, interval, tensor_grid
from bbm_magnetic.harness import SweepConfig, default_spec, run_sweep
from bbm_magnetic.operator import fractional_magnetic_apply, operator_limit_scan

from .oracles import spectral_fractional_gaussian

D1 = interval(-1.0, 1.0)
SPEC1 = default_spec(1)
SPEC2 = default_spec(2)

# Brute-force classical Gagliardo seminorms of exp(-x^2) on (-1, 1),
# 8000 nodes per axis, strip completion to 1e-7 (tests/oracles.py).
BRUTE_ORACLE = {
    0.8: 3.619450318186495,
    0.9: 8.082509547950558,
    0.95: 17.235675834769665,
    0.99: 91.18929630176055,
}

# int_{-1}^{1} 4 x^2 e^{-2x^2} dx
GAUSS1D_ENERGY = -2.0 * math.exp(-2.0) + math.sqrt(math.pi / 2.0) * math.erf(math.sqrt(2.0))


def _report(criterion, detail):
    print(f"[acceptance] criterion {criterion}: PASS ({detail})")


def test_criterion_1_constants():
    closed = {1: 1.0, 2: math.pi / 2.0, 3: 2.0 * math.pi / 3.0}
    for dim, val in closed.items():
        assert abs(bbm_constant(dim) - val) < 1e-12
        assert abs(fractional_constant_limit(dim) * bbm_constant(dim) - 2.0) < 1e-12
    worst = 0.0
    for dim in (1, 2, 3):
        lim = fractional_constant_limit(dim)
        dev = abs(fractional_constant(dim, 0.999) / (1.0 - 0.999) - lim) / lim
        worst = max(worst, dev)
        assert dev < 0.01
    _report(1, f"identity exact to 1e-12, c/(1-s) deviation at s=0.999 <= {worst:.2e}")


def test_criterion_2_classical_bbm_reduction():
    u = resolve_field("gauss1d")
    A = resolve_potential("zero", 1)
    worst = 0.0
    for s, oracle in BRUTE_ORACLE.items():
        got = (1.0 - s) * magnetic_seminorm_sq(u, A, D1, s, SPEC1).value
        ref = (1.0 - s) * oracle
        rel = abs(got - ref) / ref
        worst = max(worst, rel)
        assert rel < 1e-3, f"s={s}: {rel}"
    cfg = SweepConfig(kind="bbm-domain", field_label="gauss1d", potential_label="zero",
                      domain=D1, spec=SPEC1)
    rep = run_sweep(cfg)
    lim_rel = abs(rep.extrapolated_limit - GAUSS1D_ENERGY) / GAUSS1D_ENERGY
    assert lim_rel < 0.01
    _report(2, f"per-point vs brute oracle <= {worst:.2e}, extrapolated limit off by {lim_rel:.2e}")


def test_criterion_3_magnetic_bbm_sweeps():
    cfg1 = SweepConfig(kind="bbm-domain", field_label="gauss1d",
                       potential_label="linear:alpha=1", domain=D1, spec=SPEC1)
    rep1 = run_sweep(cfg1)
    errs1 = [r.rel_err for r in rep1.rows]
    assert all(b < a for a, b in zip(errs1, errs1[1:]))
    rel1 = abs(rep1.extrapolated_limit - rep1.target) / rep1.target
    assert rel1 < 0.01

    cfg2 = SweepConfig(kind="bbm-domain", field_label="gauss2d",
                       potential_label="landau:beta=1",
                       domain=box([0.0, 0.0], [1.0, 1.0]), spec=SPEC2)
    rep2 = run_sweep(cfg2)
    errs2 = [r.rel_err for r in rep2.rows]
    assert all(b < a for a, b in zip(errs2, errs2[1:]))
    rel2 = abs(rep2.extrapolated_limit - rep2.target) / rep2.target
    assert rel2 < 0.03
    _report(3, f"1D monotone, limit off {rel1:.2e} (<1%); 2D monotone, limit off {rel2:.2e} (<3%)")


def test_criterion_4_fullspace_limit():
    # the tail needs s beyond the default list to sink under 1e-3 * target
    s_list = (0.8, 0.9, 0.95, 0.99, 0.999, 0.9999)
    cfg = SweepConfig(kind="bbm-fullspace", field_label="bump1d",
                      potential_label="linear:alpha=1", domain=D1,
                      s_list=s_list, spec=SPEC1)
    rep = run_sweep(cfg)
    u = resolve_field("bump1d")
    A = resolve_potential("linear:alpha=1", 1)
    tails = []
    for row in rep.rows:
        dom = magnetic_seminorm_sq(u, A, D1, row.param, SPEC1).value
        tails.append((1.0 - row.param) * (row.value - dom))
    assert all(b < a for a, b in zip(tails, tails[1:]))
    assert tails[-1] < 1e-3 * rep.target
    rel = abs(rep.extrapolated_limit - rep.target) / rep.target
    assert rel < 0.01
    _report(4, f"tail shrinks to {tails[-1] / rep.target:.2e} of target, limit off {rel:.2e}")


def test_criterion_5_mollifier_generality():
    indices = [2, 4, 6, 8, 12, 16, 24]
    assert len(indices) >= 5
    cfg = SweepConfig(kind="mollifier", field_label="gauss1d",
                      potential_label="linear:alpha=1", domain=D1,
                      family={"kind": "gaussian", "indices": indices}, spec=SPEC1)
    rep = run_sweep(cfg)  # admission gate runs check_mollifier first
    assert len(rep.metadata["mollifier_checks"]) == len(indices)
    finest = rep.rows[-1].rel_err
    assert finest < 0.02
    _report(5, f"gaussian family finest index off by {finest:.2e} (<2%) after moment checks")


def test_criterion_6_translation_bound():
    cfg = SweepConfig(kind="lemma-translation", field_label="bump1d",
                      potential_label="linear:alpha=1", domain=D1,
                      h_list=(0.1, 0.05, 0.025, 0.0125), spec=SPEC1)
    rep = run_sweep(cfg)
    ratios = [r.scaled for r in rep.rows]
    spread = max(ratios) / min(ratios)
    assert spread < 1.2
    rel = abs(ratios[0] - rep.target) / rep.target  # smallest h after sorting
    assert rel < 0.02
    _report(6, f"ratio spread {spread:.4f} (<1.2), directional limit off {rel:.2e} (<2%)")


def test_criterion_7_uniform_bound():
    cfg = SweepConfig(kind="lemma-uniform", field_label="bump1d",
                      potential_label="linear:alpha=1", domain=D1,
                      s_list=(0.5, 0.7, 0.9, 0.99), spec=SPEC1)
    ratios = [r.scaled for r in run_sweep(cfg).rows]
    spread = max(ratios) / min(ratios)
    assert spread <= 5.0
    _report(7, f"uniform-bound ratio max/min = {spread:.3f} (<=5)")


def test_criterion_8_exact_invariants():
    u = resolve_field("gauss1d")
    A = resolve_potential("linear:alpha=1", 1)
    s = 0.9

    u_g, A_g = gauge_transform(u, A, GaugeFunction([0.8], 0.3))
    v = magnetic_seminorm_sq(u, A, D1, s, SPEC1).value
    gauge_sem = abs(magnetic_seminorm_sq(u_g, A_g, D1, s, SPEC1).value - v) / v
    assert gauge_sem < 1e-10
    grid = tensor_grid(D1, SPEC1.outer_nodes)
    e = local_magnetic_energy(u, A, D1, grid).value
    gauge_en = abs(local_magnetic_energy(u_g, A_g, D1, grid).value - e) / e
    assert gauge_en < 1e-10

    ones = bm.ScalarField(1, value=lambda p: np.ones(p.shape[:-1], dtype=complex),
                          gradient=lambda p: np.zeros(p.shape, dtype=complex))
    pg_u, pg_A = gauge_transform(ones, resolve_potential("zero", 1), GaugeFunction([1.1]))
    pg = local_magnetic_energy(pg_u, pg_A, D1, grid).value
    assert pg < 1e-10

    dia_slack = 0.0
    for flabel, plabel in (("gauss1d", "linear:alpha=1"), ("bump1d", "linear:alpha=1"),
                           ("modgauss1d:kappa=1", "const:alpha=0.7")):
        uu = resolve_field(flabel)
        lhs = magnetic_seminorm_sq(modulus_field(uu), resolve_potential("zero", 1),
                                   D1, s, SPEC1).value
        rhs = magnetic_seminorm_sq(uu, resolve_potential(plabel, 1), D1, s, SPEC1).value
        dia_slack = max(dia_slack, lhs - rhs)
        assert lhs <= rhs + 1e-6

    ident = 0.0
    for member in bbm_family([0.5, 0.75, 0.9], r_domain=D1.diameter(), dim=1).members:
        mv = mollified_functional(u, A, D1, member, SPEC1).value
        sv = 2.0 * (1.0 - member.param) * magnetic_seminorm_sq(u, A, D1, member.param, SPEC1).value
        ident = max(ident, abs(mv - sv) / sv)
        assert ident < 1e-10

    assert magnetic_seminorm_sq(scaled_field(u, 2.0), A, D1, s, SPEC1).value == 4.0 * v
    _report(8, f"gauge {max(gauge_sem, gauge_en):.1e}, pure gauge {pg:.1e}, "
               f"diamagnetic slack {dia_slack:.1e}, bbm identity {ident:.1e}, scaling exact")


def test_criterion_9_operator_consistency():
    u = resolve_field("gauss1d")
    A = resolve_potential("zero", 1)
    worst = 0.0
    for s in (0.3, 0.5, 0.7):
        got = fractional_magnetic_apply(u, A, [0.0], s, SPEC1)
        ref = spectral_fractional_gaussian(s, 0.0)
        rel = abs(got - ref) / abs(ref)
        worst = max(worst, rel)
        assert rel < 1e-3
    disc = [smp.discrepancy
            for smp in operator_limit_scan(u, A, [0.0], [0.7, 0.8, 0.9, 0.95], SPEC1)]
    assert all(b < a for a, b in zip(disc, disc[1:]))
    _report(9, f"spectral-oracle mismatch <= {worst:.2e} (<1e-3), scan discrepancies {disc[0]:.3f} -> {disc[-1]:.3f}")


def test_criterion_10_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "kind": "bbm-domain",
        "field": "gauss1d",
        "potential": "linear:alpha=1",
        "domain": {"kind": "interval", "center": [0.0], "extents": [1.0]},
        "s_list": [0.8, 0.9, 0.95, 0.99],
    }))
    blobs = {}
    for fmt in ("csv", "json"):
        for threads in ("1", "8"):
            out = tmp_path / f"rep-{threads}.{fmt}"
            res = subprocess.run(
                [sys.executable, "-m", "bbm_magnetic.cli", "sweep",
                 "--config", str(cfg_path), "--threads", threads,
                 "--format", fmt, "--out", str(out)],
                capture_output=True, text=True)
            assert res.returncode == 0, res.stderr
            blobs[(fmt, threads)] = out.read_bytes()
    assert blobs[("csv", "1")] == blobs[("csv", "8")]
    assert blobs[("json", "1")] == blobs[("json", "8")]
    _report(10, "CSV and JSON byte-identical across --threads 1 and 8")
