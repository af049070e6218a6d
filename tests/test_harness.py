import dataclasses
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
from bbm_magnetic import cli, functionals, harness, operator, quadrature
from bbm_magnetic.constants import check_fractional_order, check_s_list
from bbm_magnetic.corpus import resolve_field, resolve_potential
from bbm_magnetic.errors import ConditionViolation, ConfigurationError, IntegrationError
from bbm_magnetic.functionals import (
    MollifierFamily,
    RadialMollifier,
    bbm_family,
    magnetic_seminorm_sq,
)
from bbm_magnetic.geometry import ball, box, interval
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


def _no_compute(*_args, **_kwargs):
    raise AssertionError("computed on bad input")


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
    ({"format": "yaml"}, "unknown config key"),
    ({"domain": {**_INTERVAL, "radius": 1.0}}, "unknown interval domain key"),
    ({"s_list": "0.9"}, "must be a list of numbers"),
    ({"family": {"kind": "gaussian", "indices": [2.5]}}, "must be an integer"),
    # a key of the other family kind was dropped
    ({"family": {"kind": "gaussian", "s_list": [0.5]}}, "unknown family key"),
    ({"family": {"kind": "gaussian", "r_domain": 3}}, "unknown family key"),
    ({"family": {"indices": [2, 4], "r_domain": 3}}, "unknown family key"),
    ({"family": {"kind": "bbm", "indices": [2, 4]}}, "unknown family key"),
    ({"family": {"kind": "bbm", "r_domain": "2"}}, "cutoff radius must be positive and finite"),
    ({"family": [2, 4]}, "family must be an object"),
    ({"family": {"kind": ["bbm"]}}, "unknown mollifier family kind"),
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


_D2 = box([0.0, 0.0], [1.0, 1.0])
_BOX = {"kind": "box", "center": [0.0, 0.0], "extents": [1.0, 1.0]}


@pytest.mark.parametrize("change,built", [
    # each value was accepted in code, or failed there with a plain exception
    ({"quadrature": {"outer_nodes": 2.5}}, lambda: QuadratureSpec(outer_nodes=2.5)),
    ({"quadrature": {"outer_nodes": True}}, lambda: QuadratureSpec(outer_nodes=True)),
    ({"quadrature": {"eps": "1e-4"}}, lambda: QuadratureSpec(eps="1e-4")),
    ({"delta": "0.1"}, lambda: _cfg(delta="0.1")),
    ({"h_list": ["a"]}, lambda: _cfg(h_list=("a",))),
    ({"s_list": ["x"]}, lambda: _cfg(s_list=["x"])),
    ({"s_list": ["0.5"]}, lambda: _cfg(s_list=["0.5"])),
    ({"field": 5}, lambda: _cfg(field_label=5)),
    ({"domain": _BOX, "direction": [1.0]}, lambda: _cfg(domain=_D2, direction=[1.0])),
    ({"family": {"kind": "gaussian", "s_list": [0.5]}},
     lambda: _cfg(family={"kind": "gaussian", "s_list": [0.5]})),
], ids=["fractional-nodes", "bool-nodes", "text-eps", "text-delta", "text-shift", "text-s",
        "numeric-text-s", "numeric-field", "short-direction", "other-kind-family-key"])
def test_configs_built_in_code_are_refused_like_config_files(change, built):
    with pytest.raises(ConfigurationError) as from_file:
        config_from_dict({**_GOOD, **change})
    with pytest.raises(ConfigurationError) as in_code:
        built()
    assert str(in_code.value) == str(from_file.value)


_VALID_SPEC = QuadratureSpec(outer_nodes=16, angular_nodes=2, radial_nodes=4)


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from([_cfg(), _VALID_SPEC]), st.data())
def test_code_built_config_or_spec_ends_in_object_or_configuration_error(valid, data):
    name = data.draw(st.sampled_from([f.name for f in dataclasses.fields(valid)]))
    try:
        built = dataclasses.replace(valid, **{name: data.draw(_JSON)})
    except ConfigurationError:
        return
    assert type(built) is type(valid)


def test_threads_must_be_an_integer(monkeypatch):
    # threads="2" raised TypeError
    monkeypatch.setattr(harness, "resolve_field", _no_compute)
    for threads in ("2", 1.0, True):
        with pytest.raises(ConfigurationError, match="threads must be an integer"):
            run_sweep(_cfg(), threads=threads)


_ECHO_CONFIGS = {
    "bbm-domain": {"field": "gauss1d", "s_list": [0.8, 0.9, 0.95]},
    "bbm-fullspace": {"field": "bump1d", "s_list": [0.8, 0.9, 0.95]},
    "mollifier": {"field": "gauss1d", "family": {"kind": "bbm", "s_list": [0.9, 0.99, 0.999]}},
    "lemma-translation": {"field": "bump1d", "direction": [-1.0]},
    "lemma-uniform": {"field": "bump1d", "s_list": [0.5, 0.7, 0.9]},
    "operator-limit": {"field": "gauss1d", "point": [0.25], "s_list": [0.7, 0.8, 0.9]},
}


@pytest.mark.parametrize("kind", SWEEP_KINDS)
def test_report_config_echo_loads_as_the_config_that_ran(kind):
    # an interval centred at 0.3 was echoed with a center of 0.30000000000000004
    domain = {"kind": "interval", "center": [0.3], "extents": [1.5]}
    raw = {"kind": kind, "potential": "linear:alpha=1", "domain": domain,
           "quadrature": {"outer_nodes": 24, "radial_nodes": 4}, **_ECHO_CONFIGS[kind]}
    cfg = config_from_dict(raw)
    echo = run_sweep(cfg).metadata["config"]
    assert echo["domain"] == domain
    assert config_from_dict(echo) == cfg


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
                           lambda e: np.zeros_like(np.asarray(e)), 1.0, 1.0)
    fam = MollifierFamily("custom", (zero,) * 3)
    with pytest.raises(ConditionViolation, match=r"\(normaliz\)"):
        run_mollifier_sweep(_cfg(kind="mollifier"), family=fam)


def test_mollifier_sweep_fixed_width_aborts_naming_fourtheq():
    # normalized kernels of constant width keep their mass beyond delta:
    # (normaliz) holds exactly while the concentration condition fails.
    # gaussian_family refuses a repeated index, so the family is built here.
    from bbm_magnetic.functionals import gaussian_family

    fam = MollifierFamily("gaussian", gaussian_family([2], 1).members * 3)
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
    assert dataclasses.asdict(back) == dataclasses.asdict(rep)
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
    (_OPERATOR + ["--point", "0", "--s-list", ","],
     "s_list must be a nonempty, strictly increasing list inside (0, 1)"),
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
    # a flag of the other family kind was ignored
    (["mollifier-check", "--family", "gaussian", "--dim", "1", "--delta", "0.1",
      "--s-list", "0.5"], "unknown family key(s) ['s_list']"),
    (["mollifier-check", "--family", "gaussian", "--dim", "1", "--delta", "0.1",
      "--r-domain", "3"], "unknown family key(s) ['r_domain']"),
    (["mollifier-check", "--family", "bbm", "--dim", "1", "--delta", "0.1",
      "--indices", "2,4"], "unknown family key(s) ['indices']"),
    (["operator", "--field", "gauss1d", "--potential", "linear:alfa=3", "--dim", "1",
      "--point", "0", "--s-list", "0.7"], "potential 'linear' takes no parameter 'alfa'"),
    (["operator", "--field", "gauss1d:kappa=3", "--potential", "zero", "--dim", "1",
      "--point", "0", "--s-list", "0.7"], "field 'gauss1d' takes no parameter 'kappa'"),
    (["operator", "--field", "gauss1d", "--potential", "linear:alpha=1,alpha=5", "--dim", "1",
      "--point", "0", "--s-list", "0.7"], "repeated parameter 'alpha'"),
], ids=["nan-point", "inf-point", "empty-s-list", "gaussian-dim-0", "bbm-dim-4",
        "gaussian-non-integer-indices", "bbm-nan-r-domain", "gaussian-inf-delta",
        "gaussian-s-list", "gaussian-r-domain", "bbm-indices",
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
        # widths 1, 1/2, 1/3 keep more than a tenth of their mass beyond delta
        "family": {"kind": "gaussian", "indices": [1, 2, 3]},
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


# ---------------------------------------------------------------------------
# Repeated parameters, row labels and default discretization
# ---------------------------------------------------------------------------


def test_extrapolate_needs_two_distinct_t():
    # three rows at one t fitted a limit of 0.9975 from a singular design
    with pytest.raises(ConfigurationError, match="two or more distinct t"):
        extrapolate_limit([(0.05, 1.0), (0.05, 1.1), (0.05, 0.9)])


def test_config_refuses_repeated_shifts():
    with pytest.raises(ConfigurationError, match="distinct shifts"):
        _cfg(kind="lemma-translation", h_list=(0.05, 0.05, 0.05))
    with pytest.raises(ConfigurationError, match="distinct shifts"):
        config_from_dict({**_GOOD, "kind": "lemma-translation", "h_list": [0.1, 0.05, 0.1]})


@pytest.mark.parametrize("change,message", [
    # exited 0 with a limit of 0.42147 fitted from one shift
    ({"kind": "lemma-translation", "field": "bump1d", "h_list": [0.05, 0.05, 0.05]},
     "distinct shifts"),
    # exited 1 naming (fourtheq), a condition, for a configuration error
    ({"kind": "mollifier", "family": {"kind": "gaussian", "indices": [8, 8, 8]}},
     "distinct positive integer indices"),
])
def test_cli_sweep_repeated_parameters_exit_2_before_compute(monkeypatch, capsys, tmp_path,
                                                              change, message):
    def no_compute(*_args, **_kwargs):
        raise AssertionError("computed on bad input")

    for name in ("check_mollifier", "local_magnetic_energy", "translation_difference_sq"):
        monkeypatch.setattr(harness, name, no_compute)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_GOOD, **change}))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err


def test_mollifier_sweep_rows_carry_each_members_param():
    # the rows of a hand-built family are labelled, and fitted, by its
    # members' params, one row per member
    from bbm_magnetic.functionals import gaussian_family

    members = gaussian_family([2, 4, 8, 16], 1).members
    cfg = _cfg(kind="mollifier", family={"kind": "gaussian", "indices": [2, 4, 8, 16]})
    built = run_mollifier_sweep(cfg, family=MollifierFamily("gaussian", members))
    assert [r.param for r in built.rows] == [2.0, 4.0, 8.0, 16.0]
    assert render_report(built, "json") == render_report(run_sweep(cfg), "json")


@pytest.mark.parametrize("domain", [interval(-1.0, 1.0), box([0.0, 0.0], [1.0, 1.0]),
                                    ball([0.0, 0.0, 0.0], 1.0)])
def test_config_built_in_code_defaults_to_the_dimensions_spec(domain):
    cfg = SweepConfig(kind="bbm-domain", field_label="gauss1d", potential_label="zero",
                      domain=domain)
    assert cfg.spec == default_spec(domain.dimension)


# ---------------------------------------------------------------------------
# One s-list rule and one mollifier family builder
# ---------------------------------------------------------------------------


def _s_list_entry_points():
    u, A = resolve_field("bump1d"), resolve_potential("linear:alpha=1", 1)
    zero = bbm_magnetic.ScalarField(1, lambda p: np.zeros(p.shape[:-1], dtype=complex),
                                    lambda p: np.zeros(p.shape, dtype=complex))
    spec = default_spec(1)
    return {
        "SweepConfig": lambda s: _cfg(s_list=tuple(s)),
        "bbm_family": lambda s: bbm_family(s, 2.0, 1),
        "operator_limit_scan": lambda s: operator.operator_limit_scan(u, A, 0.0, s, spec),
        "magnetic_seminorms_sq": lambda s: functionals.magnetic_seminorms_sq(u, A, D1, s, spec),
        "fullspace_seminorms_sq": lambda s: functionals.fullspace_seminorms_sq(u, A, D1, s, spec),
        # a zero field, whose zero denominator used to return one row per s
        "uniform_bound_check": lambda s: functionals.uniform_bound_check(zero, A, D1, s, spec),
    }


_BAD_S_LISTS = {"empty": [], "decreasing": [0.9, 0.8], "repeated": [0.8, 0.8],
                "reaching-1": [0.5, 1.0]}


@pytest.mark.parametrize("bad", list(_BAD_S_LISTS.values()), ids=list(_BAD_S_LISTS))
@pytest.mark.parametrize("entry", list(_s_list_entry_points()) + ["cli-operator"])
def test_every_s_list_entry_point_refuses_by_the_one_rule(monkeypatch, capsys, entry, bad):
    def no_compute(*_args, **_kwargs):
        raise AssertionError("computed on a bad s_list")

    monkeypatch.setattr(quadrature, "radial_angular", no_compute)
    monkeypatch.setattr(operator, "radial_angular", no_compute)
    with pytest.raises(ConfigurationError) as rule:
        check_s_list(bad)
    assert "s_list must be a nonempty, strictly increasing list inside (0, 1)" in str(rule.value)
    if entry == "cli-operator":
        s_text = ",".join(str(s) for s in bad) or ","
        assert cli.main(_OPERATOR + ["--point", "0", "--s-list", s_text]) == 2
        assert capsys.readouterr().err == f"configuration error: {rule.value}\n"
        return
    with pytest.raises(ConfigurationError) as info:
        _s_list_entry_points()[entry](bad)
    assert str(info.value) == str(rule.value)


_NON_NUMERIC_S_LISTS = {"text": ["x"], "none": [None], "numeric-text": ["0.5"],
                        "bool": [True, 0.9]}


@pytest.mark.parametrize("bad", list(_NON_NUMERIC_S_LISTS.values()), ids=list(_NON_NUMERIC_S_LISTS))
@pytest.mark.parametrize("entry", list(_s_list_entry_points()))
def test_every_s_list_entry_point_refuses_non_numbers(monkeypatch, entry, bad):
    # magnetic_seminorms_sq raised TypeError on ["x"]; SweepConfig accepted ["0.5"]
    monkeypatch.setattr(quadrature, "radial_angular", _no_compute)
    monkeypatch.setattr(operator, "radial_angular", _no_compute)
    with pytest.raises(ConfigurationError, match="s_list must be a list of numbers, got "):
        _s_list_entry_points()[entry](bad)


def _single_s_entry_points():
    u, A = resolve_field("bump1d"), resolve_potential("linear:alpha=1", 1)
    spec = default_spec(1)
    return {
        "magnetic_seminorm_sq": lambda s: functionals.magnetic_seminorm_sq(u, A, D1, s, spec),
        "fullspace_seminorm_sq": lambda s: functionals.fullspace_seminorm_sq(u, A, D1, s, spec),
        "double_integral_singular": lambda s: quadrature.double_integral_singular(
            lambda x, y: np.zeros(np.broadcast_shapes(x.shape, y.shape)[:-1]), D1, s, spec),
        "fractional_magnetic_apply": lambda s: operator.fractional_magnetic_apply(
            u, A, 0.0, s, spec),
        "tail_integral": lambda s: quadrature.tail_integral(D1, 0.0, s, 8),
    }


@pytest.mark.parametrize("s", [1.5, 0.0, "0.5", None, True], ids=repr)
@pytest.mark.parametrize("entry", list(_single_s_entry_points()))
def test_every_single_s_entry_point_refuses_by_the_fractional_order_rule(monkeypatch, entry, s):
    # magnetic_seminorm_sq(..., 1.5, ...) reported the s-list rule, and
    # fractional_magnetic_apply(..., "0.5", ...) raised TypeError
    monkeypatch.setattr(quadrature, "radial_angular", _no_compute)
    monkeypatch.setattr(operator, "radial_angular", _no_compute)
    with pytest.raises(ConfigurationError) as rule:
        check_fractional_order(s)
    assert str(rule.value).startswith("fractional order s")
    with pytest.raises(ConfigurationError) as info:
        _single_s_entry_points()[entry](s)
    assert str(info.value) == str(rule.value)


def test_mollifier_check_builds_the_sweeps_default_families(capsys):
    # mollifier-check used to default to the indices 2..16, without the
    # sweep's 24
    run = ["mollifier-check", "--dim", "1", "--delta", "0.1", "--family"]
    assert cli.main(run + ["gaussian"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["param"] for r in rows] == [float(n) for n in harness.DEFAULT_INDICES]
    sweep = run_mollifier_sweep(_cfg(kind="mollifier", delta=0.1))
    assert rows == sweep.metadata["mollifier_checks"]
    assert cli.main(run + ["bbm"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["param"] for r in rows] == list(harness.DEFAULT_S_LIST)
