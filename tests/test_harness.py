import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import bbm_magnetic
from bbm_magnetic import cli, functionals, harness, operator
from bbm_magnetic.corpus import resolve_field, resolve_potential
from bbm_magnetic.errors import ConditionViolation, ConfigurationError, IntegrationError
from bbm_magnetic.functionals import (
    MollifierFamily,
    RadialMollifier,
    bbm_family,
    magnetic_seminorm_sq,
)
from bbm_magnetic.geometry import interval
from bbm_magnetic.harness import (
    SWEEP_KINDS,
    SweepConfig,
    SweepReport,
    config_from_dict,
    default_spec,
    emit_report,
    extrapolate_limit,
    render_report,
    report_from_dict,
    report_to_dict,
    run_mollifier_sweep,
    run_sweep,
)
from bbm_magnetic.quadrature import QuadratureSpec

from .test_operator import _plane_wave

D1 = interval(-1.0, 1.0)
FAST_SPEC = QuadratureSpec(outer_nodes=64, angular_nodes=2, radial_nodes=8)


def _cfg(**kw):
    base = dict(kind="bbm-domain", field_label="gauss1d", potential_label="linear:alpha=1",
                domain=D1, spec=FAST_SPEC)
    base.update(kw)
    return SweepConfig(**base)


# ---------------------------------------------------------------------------
# Extrapolation
# ---------------------------------------------------------------------------


def test_extrapolate_exact_affine_data():
    rows = [(1.0 - s, 3.0 + 2.0 * (1.0 - s)) for s in (0.8, 0.9, 0.95, 0.99)]
    limit, resid = extrapolate_limit(rows)
    assert_allclose(limit, 3.0, atol=1e-12)
    assert resid <= 1e-12


def test_extrapolate_constant_data():
    limit, resid = extrapolate_limit([(0.2, 5.0), (0.1, 5.0), (0.05, 5.0)])
    assert_allclose(limit, 5.0, atol=1e-12)
    assert resid <= 1e-12


def test_extrapolate_needs_three_rows():
    with pytest.raises(ValueError):
        extrapolate_limit([(0.1, 1.0), (0.05, 2.0)])


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigurationError):
        _cfg(kind="nope")
    with pytest.raises(ConfigurationError):
        _cfg(s_list=(0.9, 0.8))
    with pytest.raises(ConfigurationError):
        _cfg(s_list=(0.5, 1.2))


def test_config_from_dict_defaults_and_echo():
    cfg = config_from_dict({
        "kind": "bbm-domain",
        "field": "gauss1d",
        "potential": "zero",
        "domain": {"kind": "interval", "center": [0.0], "extents": [1.0]},
        "quadrature": {"outer_nodes": 32},
    })
    assert cfg.domain.diameter() == 2.0
    assert cfg.spec.outer_nodes == 32
    assert cfg.spec.angular_nodes == default_spec(1).angular_nodes
    assert cfg.s_list == (0.8, 0.9, 0.95, 0.99)


_INTERVAL = {"kind": "interval", "center": [0.0], "extents": [1.0]}
_GOOD = {"kind": "bbm-domain", "field": "gauss1d", "potential": "zero", "domain": _INTERVAL}


@pytest.mark.parametrize("change,message", [
    ({"s-list": [0.8, 0.9]}, "unknown config key"),
    ({"quadrature": {"foo": 1}}, "unknown quadrature key"),
    ({"quadrature": {"radial_layout": "graded"}}, "unknown quadrature key"),
    ({"quadrature": {"outer_nodes": "8"}}, "must be an integer"),
    ({"format": "yaml"}, "unknown report format"),
    ({"domain": {**_INTERVAL, "radius": 1.0}}, "unknown interval domain key"),
    ({"s_list": "0.9"}, "must be a list of numbers"),
    ({"family": {"kind": "gaussian", "indices": [2.5]}}, "must be an integer"),
    ({"quadrature": {"geometric_ratio": 0.5}}, "unknown quadrature key"),
])
def test_config_from_dict_rejects_bad_input(change, message):
    config_from_dict(_GOOD)
    with pytest.raises(ConfigurationError, match=message):
        config_from_dict({**_GOOD, **change})


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_NUMBERS = st.lists(st.floats() | st.integers(), max_size=4)
_S_LIST = st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4, unique=True).map(sorted)
_DOMAIN = st.sampled_from([
    {"kind": "interval", "center": [0.0], "extents": [1.0]},
    {"kind": "box", "center": [0.0, 0.0], "extents": [1.0, 1.0]},
    {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
]) | st.fixed_dictionaries(
    {"kind": st.sampled_from(["interval", "box", "ball", "cube"]) | _JSON},
    optional={"center": _NUMBERS | _JSON, "extents": _NUMBERS | _JSON,
              "radius": st.floats() | _JSON, "side": _JSON},
) | _JSON
# Mostly well-formed values, so that examples get past the first check.
_CONFIG_VALUES = {
    "kind": st.sampled_from(SWEEP_KINDS) | _JSON,
    "field": st.sampled_from(["gauss1d", "gauss2d"]) | _JSON,
    "potential": st.sampled_from(["zero", "linear:alpha=1"]) | _JSON,
    "s_list": _S_LIST | _NUMBERS | _JSON,
    "family": st.fixed_dictionaries({}, optional={
        "kind": st.sampled_from(["gaussian", "bbm", "box"]) | _JSON,
        "indices": st.lists(st.integers(1, 30), max_size=3) | _NUMBERS | _JSON,
        "s_list": _S_LIST | _JSON,
        "r_domain": st.floats() | _JSON,
    }) | _JSON,
    "h_list": st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3) | _NUMBERS | _JSON,
    "direction": _NUMBERS | _JSON,
    "point": _NUMBERS | _JSON,
    "delta": st.floats() | _JSON,
    "quadrature": st.dictionaries(
        st.sampled_from(["outer_nodes", "angular_nodes", "radial_nodes", "eps",
                         "geometric_ratio", "near_field", "radial_layout"]),
        st.integers(0, 64) | st.floats(0.0, 1.0) | st.sampled_from(["drop", "taylor-correct"]) | _JSON,
        max_size=4,
    ) | _JSON,
    "output": st.text(max_size=6) | _JSON,
    "format": st.sampled_from(["csv", "json", "yaml"]) | _JSON,
}


@settings(max_examples=300, deadline=None, database=None)
@given(st.fixed_dictionaries({"domain": _DOMAIN}, optional=_CONFIG_VALUES)
       | st.dictionaries(st.sampled_from(["s-list", "domain", "kind"]), _JSON) | _JSON)
def test_config_parser_ends_in_config_or_configuration_error(raw):
    try:
        cfg = config_from_dict(raw)
    except ConfigurationError:
        return
    assert isinstance(cfg, SweepConfig)


def test_bbm_sweep_rows_and_target_consistency():
    rep = run_sweep(_cfg())
    assert [r.param for r in rep.rows] == [0.8, 0.9, 0.95, 0.99]
    for r in rep.rows:
        assert_allclose(r.scaled, (1.0 - r.param) * r.value, rtol=1e-15)
        assert r.target == rep.target
        assert r.abs_err >= 0.0
    errs = [r.rel_err for r in rep.rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert abs(rep.extrapolated_limit - rep.target) / rep.target < 0.01


def test_zero_target_rows_have_zero_errors():
    # pure-gauge configurations produce rows of zeros against a zero target;
    # the row builder must not divide by it
    from bbm_magnetic.harness import _make_rows

    rows = _make_rows([0.8, 0.9], [0.0, 0.0], lambda s, v: (1 - s) * v, 0.0)
    assert all(r.rel_err == 0.0 and r.scaled == 0.0 for r in rows)
    bad = _make_rows([0.8], [1.0], lambda s, v: v, 0.0)
    assert bad[0].rel_err == math.inf


def test_threads_do_not_change_values():
    cfg = _cfg()
    rep1 = run_sweep(cfg, threads=1)
    rep8 = run_sweep(cfg, threads=8)
    assert [r.value for r in rep1.rows] == [r.value for r in rep8.rows]
    assert render_report(rep1, "csv") == render_report(rep8, "csv")
    assert render_report(rep1, "json") == render_report(rep8, "json")


_NAN_NOTE = "integrand produced NaN at y=[0.5]"


def _fail_batches_holding(monkeypatch, functional, bad):
    """Make harness.<functional>(u, A, d_or_x, s_list, spec) raise for any
    s_list that holds bad."""
    real = getattr(harness, functional)

    def flaky(u, A, where, s_list, spec):
        if bad in s_list:
            raise IntegrationError(_NAN_NOTE)
        return real(u, A, where, s_list, spec)

    monkeypatch.setattr(harness, functional, flaky)


@pytest.mark.parametrize("kind,functional,extra", [
    ("bbm-domain", "magnetic_seminorms_sq", {}),
    ("lemma-uniform", "fullspace_seminorms_sq",
     {"field_label": "bump1d", "s_list": (0.5, 0.7, 0.9, 0.99)}),
])
def test_integration_error_becomes_failed_row(monkeypatch, kind, functional, extra):
    _fail_batches_holding(monkeypatch, functional, 0.9)
    cfg = _cfg(kind=kind, **extra)
    rep = run_sweep(cfg, threads=len(cfg.s_list))  # one s per batch
    failed = [r for r in rep.rows if r.failed]
    assert [r.param for r in failed] == [0.9]
    assert failed[0].note == _NAN_NOTE
    assert math.isnan(failed[0].value)
    assert all(math.isfinite(r.value) and r.note == "" for r in rep.rows if not r.failed)
    assert math.isfinite(rep.extrapolated_limit)


@pytest.mark.parametrize("kind,functional,extra,failed", [
    ("bbm-domain", "magnetic_seminorms_sq", {}, [0.8, 0.9, 0.95, 0.99]),
    ("lemma-uniform", "fullspace_seminorms_sq",
     {"field_label": "bump1d", "s_list": (0.5, 0.7, 0.9, 0.99)}, [0.5, 0.7, 0.9, 0.99]),
    # the operator scan takes the whole s-list in one call, like the other kinds
    ("operator-limit", "operator_limit_scan", {"s_list": (0.7, 0.8, 0.9, 0.95)},
     [0.7, 0.8, 0.9, 0.95]),
])
def test_integration_error_fails_the_rows_of_its_batch(monkeypatch, kind, functional, extra,
                                                       failed):
    _fail_batches_holding(monkeypatch, functional, 0.9)
    rep = run_sweep(_cfg(kind=kind, **extra), threads=1)
    assert [r.param for r in rep.rows if r.failed] == failed
    assert all(r.note == _NAN_NOTE and math.isnan(r.value) for r in rep.rows if r.failed)
    assert math.isnan(rep.extrapolated_limit) == (len(rep.rows) - len(failed) < 3)


@pytest.mark.parametrize("threads", [1, 4])
def test_operator_sweep_of_a_non_decaying_field_fails_every_row(monkeypatch, threads):
    # the far-field refusal does not depend on s, so it fails every row,
    # whether the rows share one batch or take one each
    corpus_field = harness.resolve_field
    monkeypatch.setattr(harness, "resolve_field",
                        lambda label: _plane_wave(1.0) if label == "planewave"
                        else corpus_field(label))
    cfg = _cfg(kind="operator-limit", field_label="planewave", potential_label="zero",
               s_list=(0.7, 0.8, 0.9, 0.95))
    rep = run_sweep(cfg, threads=threads)
    assert len(rep.rows) == 4
    assert all(r.failed and math.isnan(r.value) for r in rep.rows)
    assert all(r.note.startswith("far-field truncation refused") for r in rep.rows)
    assert math.isnan(rep.extrapolated_limit)


def test_mollifier_sweep_gaussian_family_converges():
    cfg = _cfg(kind="mollifier", family={"kind": "gaussian", "indices": [2, 4, 6, 8, 12]})
    rep = run_mollifier_sweep(cfg)
    errs = [r.rel_err for r in rep.rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert "mollifier_checks" in rep.metadata


def test_mollifier_sweep_bbm_identity_rows():
    cfg = _cfg(kind="mollifier",
               family={"kind": "bbm", "s_list": [0.8, 0.9, 0.95, 0.99], "r_domain": 2.0})
    rep = run_mollifier_sweep(cfg)
    u = resolve_field("gauss1d")
    A = resolve_potential("linear:alpha=1", 1)
    for row in rep.rows:
        ref = 2.0 * (1.0 - row.param) * magnetic_seminorm_sq(u, A, D1, row.param, FAST_SPEC).value
        assert abs(row.value - ref) / ref < 1e-10


def test_mollifier_sweep_zero_family_aborts_naming_normaliz():
    zero = RadialMollifier(1, lambda r: np.zeros_like(r),
                           lambda e: np.zeros_like(np.asarray(e)), 1.0, 1.0, "null")
    fam = MollifierFamily("custom", 1, (zero,) * 3, (1.0, 2.0, 3.0))
    with pytest.raises(ConditionViolation, match=r"\(normaliz\)"):
        run_mollifier_sweep(_cfg(kind="mollifier"), family=fam)


def test_mollifier_sweep_fixed_width_aborts_naming_fourtheq():
    # normalized kernels of constant width keep their mass beyond delta:
    # (normaliz) holds exactly while the concentration condition fails
    from bbm_magnetic.functionals import gaussian_family

    fam = gaussian_family([2, 2, 2], 1)
    with pytest.raises(ConditionViolation, match=r"\(fourtheq\)"):
        run_mollifier_sweep(_cfg(kind="mollifier"), family=fam)


def test_mollifier_sweep_wide_bbm_aborts_naming_normaliz():
    # s far from 1 leaves the zeroth moment far above 1
    fam = bbm_family([0.3, 0.35, 0.4], r_domain=2.0, dim=1)
    with pytest.raises(ConditionViolation, match=r"\(normaliz\)"):
        run_mollifier_sweep(_cfg(kind="mollifier"), family=fam)


@pytest.mark.parametrize("kind", ["bbm-domain", "operator-limit"])
def test_mollifier_sweep_refuses_other_kinds_before_compute(monkeypatch, kind):
    def no_compute(*_args, **_kwargs):
        raise AssertionError("computed on a config of the wrong kind")

    monkeypatch.setattr(harness, "resolve_field", no_compute)
    monkeypatch.setattr(harness, "mollified_functionals", no_compute)
    with pytest.raises(ConfigurationError, match=f"got kind '{kind}'"):
        run_mollifier_sweep(_cfg(kind=kind))


def test_translation_sweep_report():
    cfg = _cfg(kind="lemma-translation", field_label="bump1d")
    rep = run_sweep(cfg)
    assert [r.param for r in rep.rows] == sorted(cfg.h_list)
    ratios = [r.scaled for r in rep.rows]
    assert max(ratios) / min(ratios) < 1.2
    assert abs(rep.extrapolated_limit - rep.target) / rep.target < 0.01


def test_uniform_sweep_report():
    cfg = _cfg(kind="lemma-uniform", field_label="bump1d",
               s_list=(0.5, 0.7, 0.9, 0.99))
    rep = run_sweep(cfg)
    ratios = [r.scaled for r in rep.rows]
    assert max(ratios) / min(ratios) <= 5.0


def test_operator_sweep_report():
    cfg = _cfg(kind="operator-limit", field_label="gauss1d", potential_label="zero",
               s_list=(0.7, 0.8, 0.9), point=(0.0,))
    rep = run_sweep(cfg)
    disc = [r.value for r in rep.rows]
    assert all(b < a for a, b in zip(disc, disc[1:]))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_empty_report_renders_header_only():
    rep = SweepReport("bbm-domain", (), 0.0, 0.0, 0.0, {})
    assert render_report(rep, "csv") == "param,value,scaled,target,abs_err,rel_err\n"


def test_json_round_trip_identity():
    rep = run_sweep(_cfg(s_list=(0.8, 0.9, 0.95)))
    blob = render_report(rep, "json")
    back = report_from_dict(json.loads(blob))
    assert report_to_dict(back) == report_to_dict(rep)
    assert render_report(back, "json") == blob


def test_emit_report_bytes_stable(tmp_path):
    cfg = _cfg(s_list=(0.8, 0.9, 0.95))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(run_sweep(cfg), "csv", p1)
    emit_report(run_sweep(cfg), "csv", p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_report_bad_path():
    rep = SweepReport("bbm-domain", (), 0.0, 0.0, 0.0, {})
    with pytest.raises(ConfigurationError):
        emit_report(rep, "csv", "/nonexistent-dir-xyz/report.csv")


def test_unknown_format_rejected():
    rep = SweepReport("bbm-domain", (), 0.0, 0.0, 0.0, {})
    with pytest.raises(ConfigurationError):
        render_report(rep, "yaml")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "bbm_magnetic.cli", *args],
                          capture_output=True, text=True)


def test_cli_constants_json():
    out = _run_cli("constants", "--dim", "2", "--s", "0.9")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert_allclose(payload["K_N"], math.pi / 2.0, rtol=1e-14)
    assert_allclose(payload["Q_N"], math.pi, rtol=1e-14)
    assert_allclose(payload["limit"], 4.0 / math.pi, rtol=1e-14)
    assert payload["c"] > 0.0


def test_cli_constants_bad_dim_exits_2():
    out = _run_cli("constants", "--dim", "9")
    assert out.returncode == 2
    assert "configuration error" in out.stderr


def test_cli_constants_unwritable_out_exits_2(tmp_path):
    out = _run_cli("constants", "--dim", "1", "--out", str(tmp_path / "no-such-dir" / "x.json"))
    assert out.returncode == 2
    assert "configuration error: cannot write" in out.stderr


def test_cli_sweep_missing_config_exits_2(tmp_path):
    out = _run_cli("sweep", "--config", str(tmp_path / "missing.json"))
    assert out.returncode == 2
    assert "configuration error: cannot read config" in out.stderr


def test_cli_operator_rows():
    out = _run_cli("operator", "--field", "gauss1d", "--potential", "zero",
                   "--dim", "1", "--point", "0", "--s-list", "0.5,0.7")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "s,frac_re,frac_im,local_re,local_im,discrepancy"
    assert len(lines) == 3


def test_cli_operator_dimension_mismatch_exits_2():
    out = _run_cli("operator", "--field", "gauss1d", "--potential", "zero",
                   "--dim", "2", "--point", "0,0", "--s-list", "0.7,0.9")
    assert out.returncode == 2
    assert "1-dimensional" in out.stderr


_OPERATOR = ["operator", "--field", "gauss1d", "--potential", "zero", "--dim", "1"]


@pytest.mark.parametrize("args,message", [
    (_OPERATOR + ["--point", "nan", "--s-list", "0.7"], "finite"),
    (_OPERATOR + ["--point", "inf", "--s-list", "0.7"], "finite"),
    (_OPERATOR + ["--point", "0", "--s-list", ","], "at least one s value"),
    (["mollifier-check", "--family", "gaussian", "--dim", "0", "--delta", "0.1"],
     "unsupported dimension 0; expected 1, 2 or 3"),
    (["mollifier-check", "--family", "bbm", "--dim", "4", "--delta", "0.1"],
     "unsupported dimension 4; expected 1, 2 or 3"),
    (["mollifier-check", "--family", "gaussian", "--dim", "1", "--delta", "0.1",
      "--indices", "2.5,4.7"], "expected comma-separated integers"),
    (["mollifier-check", "--family", "bbm", "--dim", "1", "--delta", "0.1",
      "--r-domain", "nan"], "must be finite"),
    (["mollifier-check", "--family", "gaussian", "--dim", "1", "--delta", "inf"],
     "must be finite"),
    (["operator", "--field", "gauss1d", "--potential", "linear:alfa=3", "--dim", "1",
      "--point", "0", "--s-list", "0.7"], "potential 'linear' takes no parameter 'alfa'"),
    (["operator", "--field", "gauss1d:kappa=3", "--potential", "zero", "--dim", "1",
      "--point", "0", "--s-list", "0.7"], "field 'gauss1d' takes no parameter 'kappa'"),
    (["operator", "--field", "gauss1d", "--potential", "linear:alpha=1,alpha=5", "--dim", "1",
      "--point", "0", "--s-list", "0.7"], "repeated parameter 'alpha'"),
], ids=["nan-point", "inf-point", "empty-s-list", "gaussian-dim-0", "bbm-dim-4",
        "gaussian-non-integer-indices", "bbm-nan-r-domain", "gaussian-inf-delta",
        "unknown-potential-parameter", "unknown-field-parameter", "repeated-parameter"])
def test_cli_rejects_bad_input_before_compute(monkeypatch, capsys, args, message):
    def no_compute(*_args, **_kwargs):
        raise AssertionError("computed on bad input")

    monkeypatch.setattr(cli, "operator_limit_scan", no_compute)
    monkeypatch.setattr(cli, "check_mollifier", no_compute)
    assert cli.main(args) == 2
    assert message in capsys.readouterr().err


def test_cli_operator_s_outside_unit_interval_exits_2_before_compute(monkeypatch, capsys):
    def no_compute(*_args, **_kwargs):
        raise AssertionError("computed before every s was checked")

    monkeypatch.setattr(operator, "local_magnetic_apply", no_compute)
    monkeypatch.setattr(operator, "fractional_magnetic_apply", no_compute)
    monkeypatch.setattr(operator, "_fractional_values", no_compute)
    assert cli.main(_OPERATOR + ["--point", "0", "--s-list", "0.5,1.5"]) == 2
    assert "s=1.5 outside (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["bbm-fullspace", "lemma-uniform"])
def test_cli_sweep_on_a_domain_smaller_than_the_support_exits_2(monkeypatch, capsys, tmp_path,
                                                                kind):
    def no_compute(*_args, **_kwargs):
        raise AssertionError("computed on bad input")

    monkeypatch.setattr(functionals, "magnetic_seminorms_sq", no_compute)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "kind": kind, "field": "bump1d", "potential": "linear:alpha=1",
        "domain": {"kind": "interval", "center": [0.0], "extents": [0.5]},
    }))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 2
    assert "support of bump1d to lie inside the domain" in capsys.readouterr().err


def test_cli_mollifier_check():
    out = _run_cli("mollifier-check", "--family", "gaussian", "--dim", "1",
                   "--delta", "0.1", "--indices", "4,8,16")
    assert out.returncode == 0
    rows = json.loads(out.stdout)["rows"]
    assert len(rows) == 3
    assert all(abs(r["m0"] - 1.0) < 1e-9 for r in rows)


def test_cli_sweep_threads_byte_identical(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "kind": "bbm-domain",
        "field": "gauss1d",
        "potential": "linear:alpha=1",
        "domain": {"kind": "interval", "center": [0.0], "extents": [1.0]},
        "s_list": [0.8, 0.9, 0.95],
        "quadrature": {"outer_nodes": 48, "radial_nodes": 6},
    }))
    outs = {}
    for fmt in ("csv", "json"):
        for threads in ("1", "8"):
            path = tmp_path / f"r{threads}.{fmt}"
            res = _run_cli("sweep", "--config", str(cfg_path), "--threads", threads,
                           "--format", fmt, "--out", str(path))
            assert res.returncode == 0, res.stderr
            outs[(fmt, threads)] = path.read_bytes()
    assert outs[("csv", "1")] == outs[("csv", "8")]
    assert outs[("json", "1")] == outs[("json", "8")]


def test_cli_sweep_dimension_mismatch_exits_2(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_GOOD, "field": "gauss2d", "potential": "linear:alpha=1"}))
    res = _run_cli("sweep", "--config", str(cfg_path))
    assert res.returncode == 2
    assert "2-dimensional" in res.stderr


def test_cli_sweep_condition_violation_exits_1(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "kind": "mollifier",
        "field": "gauss1d",
        "potential": "zero",
        "domain": {"kind": "interval", "center": [0.0], "extents": [1.0]},
        "family": {"kind": "gaussian", "indices": [2, 2, 2]},
        "quadrature": {"outer_nodes": 32},
    }))
    res = _run_cli("sweep", "--config", str(cfg_path))
    assert res.returncode == 1
    assert "(fourtheq)" in res.stderr


def test_cli_unexpected_exception_exits_4(monkeypatch, capsys, tmp_path):
    def broken(*_args, **_kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_sweep", broken)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_GOOD))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert "internal error: RuntimeError: boom" in err


def test_cli_value_error_from_a_defect_exits_4(monkeypatch, capsys, tmp_path):
    # only ConfigurationError is bad input; any other ValueError is a defect
    def broken(*_args, **_kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "run_sweep", broken)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_GOOD))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 4
    err = capsys.readouterr().err
    assert "internal error: ValueError: boom" in err
    assert "configuration error" not in err


@pytest.mark.parametrize("content", [b"{\"kind\": ", b"\xff\xfe{}"])
def test_cli_undecodable_config_exits_2(capsys, tmp_path, content):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(content)
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 2
    assert "is not valid UTF-8 JSON" in capsys.readouterr().err


def test_cli_empty_s_list_exits_2_before_compute(monkeypatch, capsys, tmp_path):
    def no_compute(*_args, **_kwargs):
        raise AssertionError("computed on an empty s_list")

    monkeypatch.setattr(harness, "local_magnetic_energy", no_compute)
    monkeypatch.setattr(harness, "magnetic_seminorms_sq", no_compute)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_GOOD, "s_list": []}))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 2
    assert "s_list must be a nonempty" in capsys.readouterr().err


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_are_refused_before_compute(monkeypatch, capsys, tmp_path, threads):
    def no_compute(*_args, **_kwargs):
        raise AssertionError("computed with a thread count below 1")

    monkeypatch.setattr(harness, "resolve_field", no_compute)
    with pytest.raises(ConfigurationError, match="threads must be at least 1"):
        run_sweep(_cfg(), threads=threads)
    with pytest.raises(ConfigurationError, match="threads must be at least 1"):
        run_mollifier_sweep(_cfg(kind="mollifier"), threads=threads)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_GOOD))
    assert cli.main(["sweep", "--config", str(cfg_path), "--threads", str(threads)]) == 2
    assert "threads must be at least 1" in capsys.readouterr().err
