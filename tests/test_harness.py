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
from bbm_magnetic import cli, functionals, geometry, harness, operator, quadrature
from bbm_magnetic.constants import bbm_constant, check_fractional_order, check_s_list
from bbm_magnetic.corpus import resolve_field, resolve_potential
from bbm_magnetic.errors import ConditionViolation, ConfigurationError, IntegrationError
from bbm_magnetic.fields import ScalarField
from bbm_magnetic.functionals import (
    MollifierFamily,
    RadialMollifier,
    bbm_family,
    magnetic_seminorm_sq,
)
from bbm_magnetic.geometry import ball, box, interval, tensor_grid
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


@pytest.mark.parametrize("rows,message", [
    ([(math.inf, 1.0), (0.1, 1.0), (0.2, 1.0)], "extrapolation t must be a finite number, got inf"),
    ([("a", 1.0), (0.1, 1.0), (0.2, 1.0)], "extrapolation t must be a finite number, got 'a'"),
    ([(0.0, math.nan), (0.1, 1.0), (0.2, 1.0)],
     "extrapolation value must be a finite number, got nan"),
], ids=["infinite-t", "text-t", "nan-value"])
def test_extrapolate_refuses_a_row_that_is_not_two_finite_numbers(rows, message):
    # fsum's or float's plain ValueError, and (nan, nan) with no error for a NaN value
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        extrapolate_limit(rows)


@pytest.mark.parametrize("seed", range(8))
def test_extrapolate_matches_the_least_squares_fit(seed):
    # the closed-form line against LAPACK's least squares on noisy rows
    rng = np.random.default_rng(seed)
    count = rng.integers(3, 8)
    t = rng.uniform(0.0, 0.5, count)
    v = rng.uniform(0.5, 2.0) + rng.uniform(-3.0, 3.0) * t + rng.normal(0.0, 0.05, count)
    design = np.stack([np.ones_like(t), t], axis=-1)
    coef = np.linalg.lstsq(design, v, rcond=None)[0]
    limit, resid = extrapolate_limit(list(zip(t, v)))
    assert abs(limit - coef[0]) <= 1e-13 * abs(coef[0])
    assert abs(resid - np.max(np.abs(design @ coef - v))) <= 1e-13


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
    # a null optional key is unset, as None is in code, whether its kind reads it or not
    assert config_from_dict({**_GOOD, "s_list": None, "h_list": None}) == config_from_dict(_GOOD)


_INTERVAL = {"kind": "interval", "center": [0.0], "extents": [1.0]}
_GOOD = {"kind": "bbm-domain", "field": "gauss1d", "potential": "zero", "domain": _INTERVAL}
_MOLLIFIER = {"kind": "mollifier"}
_TRANSLATION = {"kind": "lemma-translation", "field": "bump1d"}


@pytest.mark.parametrize("change,message", [
    ({"s-list": [0.8, 0.9]}, "unknown config key"),
    ({"quadrature": {"foo": 1}}, "unknown quadrature key"),
    ({"quadrature": {"radial_layout": "graded"}}, "unknown quadrature key"),
    ({"quadrature": {"outer_nodes": "8"}}, "must be an integer"),
    ({"format": "yaml"}, "unknown config key"),
    ({"domain": {**_INTERVAL, "radius": 1.0}}, "unknown interval domain key"),
    ({"s_list": "0.9"}, "must be a list of numbers"),
    ({**_MOLLIFIER, "family": {"kind": "gaussian", "indices": [2.5]}}, "must be an integer"),
    # a key of the other family kind was dropped
    ({**_MOLLIFIER, "family": {"kind": "gaussian", "s_list": [0.5]}}, "unknown family key"),
    ({**_MOLLIFIER, "family": {"kind": "gaussian", "r_domain": 3}}, "unknown family key"),
    ({**_MOLLIFIER, "family": {"indices": [2, 4], "r_domain": 3}}, "unknown family key"),
    ({**_MOLLIFIER, "family": {"kind": "bbm", "indices": [2, 4]}}, "unknown family key"),
    ({**_MOLLIFIER, "family": {"kind": "bbm", "r_domain": "2"}},
     "cutoff radius must be positive and finite"),
    ({**_MOLLIFIER, "family": [2, 4]}, "family must be an object"),
    ({**_MOLLIFIER, "family": {"kind": ["bbm"]}}, "unknown mollifier family kind"),
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
    ({"quadrature": {"outer_nodes": 2.5}},
     lambda: dataclasses.replace(default_spec(1), outer_nodes=2.5)),
    ({"quadrature": {"outer_nodes": True}},
     lambda: dataclasses.replace(default_spec(1), outer_nodes=True)),
    ({"quadrature": {"radial_nodes": "16"}},
     lambda: dataclasses.replace(default_spec(1), radial_nodes="16")),
    ({**_MOLLIFIER, "delta": "0.1"}, lambda: _cfg(kind="mollifier", delta="0.1")),
    ({**_TRANSLATION, "h_list": ["a"]},
     lambda: _cfg(kind="lemma-translation", field_label="bump1d", h_list=("a",))),
    ({"s_list": ["x"]}, lambda: _cfg(s_list=["x"])),
    ({"s_list": ["0.5"]}, lambda: _cfg(s_list=["0.5"])),
    ({"field": 5}, lambda: _cfg(field_label=5)),
    ({**_TRANSLATION, "domain": _BOX, "direction": [1.0]},
     lambda: _cfg(kind="lemma-translation", field_label="bump1d", domain=_D2, direction=[1.0])),
    ({**_MOLLIFIER, "family": {"kind": "gaussian", "s_list": [0.5]}},
     lambda: _cfg(kind="mollifier", family={"kind": "gaussian", "s_list": [0.5]})),
], ids=["fractional-nodes", "bool-nodes", "text-nodes", "text-delta", "text-shift", "text-s",
        "numeric-text-s", "numeric-field", "short-direction", "other-kind-family-key"])
def test_configs_built_in_code_are_refused_like_config_files(change, built):
    with pytest.raises(ConfigurationError) as from_file:
        config_from_dict({**_GOOD, **change})
    with pytest.raises(ConfigurationError) as in_code:
        built()
    assert str(in_code.value) == str(from_file.value)


def test_point_and_domain_vectors_follow_the_rule_of_the_code_that_reads_them():
    # a 1-D numpy direction or point, which the operator functions take, was refused
    assert _cfg(kind="lemma-translation", direction=np.array([-1.0])).direction == (-1.0,)
    assert _cfg(kind="operator-limit", point=np.array([0.25])).point == (0.25,)
    with pytest.raises(ConfigurationError, match=r"point must be a list of 1 numbers, got \[0.0, 0.0\]"):
        _cfg(kind="operator-limit", point=np.zeros(2))
    # a config's domain vectors meet Domain's rule, which also takes one number
    one = config_from_dict({**_GOOD, "domain": {"kind": "interval", "center": 0.5, "extents": 2}})
    assert one.domain == interval(-1.5, 2.5)
    with pytest.raises(ConfigurationError, match="domain extents must be a finite number, got '1'"):
        config_from_dict({**_GOOD, "domain": {"kind": "ball", "center": [0, 0, 0], "radius": "1"}})


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


# The optional config keys each kind reads; every kind also reads these.
_COMMON_KEYS = {"kind", "field", "potential", "domain", "quadrature"}
_READS = {
    "bbm-domain": {"s_list"},
    "bbm-fullspace": {"s_list"},
    "mollifier": {"family", "delta"},
    "lemma-translation": {"h_list", "direction"},
    "lemma-uniform": {"s_list"},
    "operator-limit": {"s_list", "point"},
}
# A value each optional key takes in 1D.
_OPTIONAL_VALUES = {"s_list": [0.5, 0.9], "family": {"kind": "gaussian"},
                    "h_list": [0.1, 0.05], "direction": [1.0], "point": [0.0], "delta": 0.2}
_REFUSED = [(kind, key) for kind, reads in _READS.items() for key in _OPTIONAL_VALUES
            if key not in reads]
# The quadrature counts each kind reads, at small 1D values; the other kinds
# read all three.
_COUNTS = {"outer_nodes": 24, "angular_nodes": 2, "radial_nodes": 4}
_COUNT_READS = {"lemma-translation": {"outer_nodes"}, "operator-limit": {"angular_nodes"}}


def _counts_read(kind):
    return {k: v for k, v in _COUNTS.items() if k in _COUNT_READS.get(kind, _COUNTS)}


@pytest.mark.parametrize("kind", SWEEP_KINDS)
@pytest.mark.parametrize("count", list(_COUNTS))
def test_a_quadrature_count_its_kind_does_not_read_is_refused_before_compute(
        monkeypatch, capsys, tmp_path, kind, count):
    # an operator-limit sweep with outer_nodes 3 and radial_nodes 1, and a
    # lemma-translation sweep with radial_nodes 1, wrote the default CSV
    monkeypatch.setattr(cli, "run_sweep", _no_compute)
    raw = {**_GOOD, "kind": kind, "quadrature": {count: _COUNTS[count]}}
    if count in _counts_read(kind):
        assert getattr(config_from_dict(raw).spec, count) == _COUNTS[count]
        return
    message = (f"a {kind} sweep does not read quadrature key(s) ['{count}']; "
               f"its quadrature keys are {list(_COUNT_READS[kind])}")
    with pytest.raises(ConfigurationError) as refused:
        config_from_dict(raw)
    assert str(refused.value) == message
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("kind,key", _REFUSED)
def test_a_config_key_its_kind_does_not_read_is_refused_before_compute(monkeypatch, capsys,
                                                                      tmp_path, kind, key):
    # a bbm-domain config that set h_list, point, direction, delta and family
    # exited 0 and echoed them all, and a mollifier sweep's bbm family took
    # the top-level s_list
    monkeypatch.setattr(cli, "run_sweep", _no_compute)
    value = _OPTIONAL_VALUES[key]
    with pytest.raises(ConfigurationError) as in_code:
        _cfg(kind=kind, **{key: tuple(value) if isinstance(value, list) else value})
    assert str(in_code.value).startswith(f"a {kind} sweep does not read config key(s) ['{key}']")
    raw = {**_GOOD, "kind": kind, key: value}
    with pytest.raises(ConfigurationError) as from_file:
        config_from_dict(raw)
    assert str(from_file.value) == str(in_code.value)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"configuration error: {in_code.value}\n"


_ECHO_CONFIGS = {
    "bbm-domain": {"field": "gauss1d", "s_list": [0.8, 0.9, 0.95]},
    "bbm-fullspace": {"field": "bump1d", "s_list": [0.8, 0.9, 0.95]},
    "mollifier": {"field": "gauss1d", "family": {"kind": "bbm", "s_list": [0.9, 0.99, 0.999]},
                  "delta": 0.2},
    "lemma-translation": {"field": "bump1d", "h_list": [0.1, 0.05, 0.025], "direction": [-1.0]},
    "lemma-uniform": {"field": "bump1d", "s_list": [0.5, 0.7, 0.9]},
    "operator-limit": {"field": "gauss1d", "point": [0.25], "s_list": [0.7, 0.8, 0.9]},
}


@pytest.mark.parametrize("kind", SWEEP_KINDS)
def test_report_config_echo_loads_as_the_config_that_ran(kind):
    # an interval centred at 0.3 was echoed with a center of 0.30000000000000004;
    # every kind echoed all eleven config keys, the ones it never read too
    domain = {"kind": "interval", "center": [0.3], "extents": [1.5]}
    raw = {"kind": kind, "potential": "linear:alpha=1", "domain": domain,
           "quadrature": _counts_read(kind), **_ECHO_CONFIGS[kind]}
    cfg = config_from_dict(raw)
    report = render_report(run_sweep(cfg), "json")
    echo = json.loads(report)["metadata"]["config"]
    assert set(echo) == _COMMON_KEYS | _READS[kind]
    assert echo["quadrature"] == _counts_read(kind)
    assert echo["domain"] == domain
    assert config_from_dict(echo) == cfg
    assert render_report(run_sweep(config_from_dict(echo)), "json") == report


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
    box_2d = _cfg(field_label="gauss2d", potential_label="landau:beta=1", domain=_D2,
                  spec=QuadratureSpec(outer_nodes=24, angular_nodes=16, radial_nodes=6))
    # the 2D pass runs eleven engine blocks and its coarse pass two, so
    # threads sharing a block's arrays would show
    for cfg in (_cfg(), box_2d):
        rep1 = run_sweep(cfg, threads=1)
        rep8 = run_sweep(cfg, threads=8)
        assert [r.value for r in rep1.rows] == [r.value for r in rep8.rows]
        assert render_report(rep1, "csv") == render_report(rep8, "csv")
        assert render_report(rep1, "json") == render_report(rep8, "json")


_NAN_NOTE = "integrand produced NaN at y=[0.5]"


def _fail_batches_holding(monkeypatch, functional, bad):
    """Make harness.<functional>(u, A, [d or x,] s_list, spec) raise for any
    s_list that holds bad."""
    real = getattr(harness, functional)

    def flaky(*args):
        if bad in args[-2]:
            raise IntegrationError(_NAN_NOTE)
        return real(*args)

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
    rep = run_sweep(cfg)
    errs = [r.rel_err for r in rep.rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert "mollifier_checks" in rep.metadata


def test_a_mollifier_sweep_takes_its_target_where_a_bbm_domain_sweep_does():
    # the mollifier target took the energy on the whole domain's grid, so a
    # compact field in a wider domain got a target off the bbm-domain one
    # (bump3d in ball(0, 1.75): 25% low)
    wide = interval(-2.0, 2.0)
    bbm = run_sweep(_cfg(field_label="bump1d", domain=wide))
    mollifier = run_sweep(_cfg(kind="mollifier", field_label="bump1d", domain=wide))
    assert mollifier.target == 2.0 * bbm.target


def test_mollifier_sweep_bbm_identity_rows():
    cfg = _cfg(kind="mollifier",
               family={"kind": "bbm", "s_list": [0.8, 0.9, 0.95, 0.99], "r_domain": 2.0})
    rep = run_sweep(cfg)
    u = resolve_field("gauss1d")
    A = resolve_potential("linear:alpha=1", 1)
    for row in rep.rows:
        ref = 2.0 * (1.0 - row.param) * magnetic_seminorm_sq(u, A, D1, row.param, FAST_SPEC).value
        assert abs(row.value - ref) / ref < 1e-10


def test_admission_of_a_zero_family_aborts_naming_normaliz():
    zero = RadialMollifier(1, lambda r: np.zeros_like(r), 1.0, 1.0)
    fam = MollifierFamily("custom", (zero,) * 3)
    with pytest.raises(ConditionViolation, match=r"\(normaliz\)"):
        harness._admit_family(fam, 0.1)


def test_admission_of_a_fixed_width_family_aborts_naming_fourtheq():
    # normalized kernels of constant width keep their mass beyond delta:
    # (normaliz) holds exactly while the concentration condition fails.
    # gaussian_family refuses a repeated index, so the family is built here.
    from bbm_magnetic.functionals import gaussian_family

    fam = MollifierFamily("gaussian", gaussian_family([2], 1).members * 3)
    with pytest.raises(ConditionViolation, match=r"\(fourtheq\)"):
        harness._admit_family(fam, 0.1)


def test_admission_of_a_wide_bbm_family_aborts_naming_normaliz():
    # s far from 1 leaves the zeroth moment far above 1
    fam = bbm_family([0.3, 0.35, 0.4], r_domain=2.0, dim=1)
    with pytest.raises(ConditionViolation, match=r"\(normaliz\)"):
        harness._admit_family(fam, 0.1)


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


def test_uniform_sweep_ratios_are_three_public_calls_and_converge():
    spec = QuadratureSpec(outer_nodes=160, angular_nodes=2, radial_nodes=10)
    s_list = [0.5, 0.7, 0.9, 0.99]
    rep = run_sweep(_cfg(kind="lemma-uniform", field_label="bump1d", s_list=tuple(s_list),
                         spec=spec))
    # the ratio of a hand-built field: the full-space seminorms over ||u||^2 + E
    u, A = resolve_field("bump1d"), resolve_potential("linear:alpha=1", 1)
    grid = tensor_grid(u.support_domain, spec.outer_nodes)
    energy = functionals.local_magnetic_energy(u, A, u.support_domain, grid).value
    denom = functionals.l2_norm_sq(u, grid) + energy
    full = functionals.fullspace_seminorms_sq(u, A, s_list, spec)
    assert [r.scaled for r in rep.rows] == [(1.0 - s) * f.value / denom
                                           for s, f in zip(s_list, full)]
    assert rep.target == bbm_constant(1) * energy / denom
    ratios = [r.scaled for r in rep.rows]
    assert max(ratios) / min(ratios) <= 5.0
    assert abs(ratios[-1] - rep.target) / rep.target < 0.05


def test_uniform_sweep_on_a_wide_domain_equals_the_sweep_on_the_support():
    # the two outer nodes of (-100, 100), at +-57.7, missed the bump's
    # support: the sweep refused a zero denominator ||u||^2 + E.  Every pass
    # now runs on the support, whatever domain covers it.
    raw = {"kind": "lemma-uniform", "field": "bump1d", "potential": "linear:alpha=1",
           "quadrature": {"outer_nodes": 2}}
    wide, own = (run_sweep(config_from_dict({**raw, "domain": {"kind": "interval",
                                                                "extents": [half]}}))
                 for half in (100.0, 1.0))
    assert not any(row.failed for row in wide.rows)
    assert wide.rows == own.rows
    assert wide.target == own.target


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


def test_json_report_is_the_dataclass_dump():
    # render_report reads the report's own dicts, which asdict deep-copied
    rep = run_sweep(_cfg(kind="mollifier", family={"kind": "gaussian", "indices": [2, 4, 6, 8, 12]}))
    assert rep.metadata["mollifier_checks"]
    expected = json.dumps(dataclasses.asdict(rep), indent=2, sort_keys=True) + "\n"
    assert render_report(rep, "json") == expected


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
    # K_N and Q_N are |S^{N-1}| / (2N) and |S^{N-1}| / N to the last bit
    assert payload["K_N"] == payload["Q_N"] / 2 == payload["sphere_area"] / 2 / 2


def test_one_cli_parser_serves_every_call(capsys):
    assert cli.build_parser() is cli.build_parser()
    # a flag given to one call is not left for the next
    outs = []
    for extra in (["--s", "0.9"], []):
        assert cli.main(["constants", "--dim", "2", *extra]) == 0
        outs.append(json.loads(capsys.readouterr().out))
    assert "s" in outs[0] and "s" not in outs[1]


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
                   "--point", "0", "--s-list", "0.5,0.7")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "s,frac_re,frac_im,local_re,local_im,discrepancy"
    assert len(lines) == 3


def test_cli_operator_dimension_mismatch_exits_2():
    # the field's label fixes the dimension the point must have
    out = _run_cli("operator", "--field", "gauss1d", "--potential", "zero",
                   "--point", "0,0", "--s-list", "0.7,0.9")
    assert out.returncode == 2
    assert "point has 2 coordinates, field 'gauss1d' is 1-dimensional" in out.stderr
    out = _run_cli("operator", "--field", "gauss2d", "--potential", "landau",
                   "--point", "0", "--s-list", "0.7,0.9")
    assert out.returncode == 2
    assert "point has 1 coordinates, field 'gauss2d' is 2-dimensional" in out.stderr


_OPERATOR = ["operator", "--field", "gauss1d", "--potential", "zero"]


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
      "--r-domain", "nan"], "cutoff radius must be positive and finite, got nan"),
    (["mollifier-check", "--family", "gaussian", "--dim", "1", "--delta", "inf"],
     "delta must be positive and finite, got inf"),
    # a flag of the other family kind was ignored
    (["mollifier-check", "--family", "gaussian", "--dim", "1", "--delta", "0.1",
      "--s-list", "0.5"], "unknown family key(s) ['s_list']"),
    (["mollifier-check", "--family", "gaussian", "--dim", "1", "--delta", "0.1",
      "--r-domain", "3"], "unknown family key(s) ['r_domain']"),
    (["mollifier-check", "--family", "bbm", "--dim", "1", "--delta", "0.1",
      "--indices", "2,4"], "unknown family key(s) ['indices']"),
    (["operator", "--field", "gauss1d", "--potential", "linear:alfa=3",
      "--point", "0", "--s-list", "0.7"], "potential 'linear' takes no parameter 'alfa'"),
    (["operator", "--field", "gauss1d:kappa=3", "--potential", "zero",
      "--point", "0", "--s-list", "0.7"], "field 'gauss1d' takes no parameter 'kappa'"),
    (["operator", "--field", "gauss1d", "--potential", "linear:alpha=1,alpha=5",
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


@pytest.mark.parametrize("kind", ["bbm-fullspace", "lemma-uniform", "lemma-translation"])
def test_cli_sweep_on_a_domain_smaller_than_the_support_exits_2(monkeypatch, capsys, tmp_path,
                                                                kind):
    # the translation sweep integrated over the domain's box, which cut the
    # support: on (-0.5, 0.5) it exited 0 with a target of 0.1311, not 0.4249
    def no_compute(*_args, **_kwargs):
        raise AssertionError("computed on bad input")

    monkeypatch.setattr(functionals, "magnetic_seminorms_sq", no_compute)
    monkeypatch.setattr(harness, "magnetic_gradient", no_compute)
    monkeypatch.setattr(harness, "translation_difference_sq", no_compute)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "kind": kind, "field": "bump1d", "potential": "linear:alpha=1",
        "domain": {"kind": "interval", "center": [0.0], "extents": [0.5]},
    }))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 2
    assert "support of bump1d to lie inside the domain" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["lemma-uniform", "bbm-fullspace"])
def test_cli_uniform_sweep_on_a_domain_smaller_than_the_support_spends_no_energy_pass(
        monkeypatch, capsys, tmp_path, kind):
    for module in (functionals, harness):
        monkeypatch.setattr(module, "local_magnetic_energy", _no_compute)
        monkeypatch.setattr(module, "l2_norm_sq", _no_compute)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "kind": kind, "field": "bump1d", "potential": "linear:alpha=1",
        "domain": {"kind": "interval", "center": [0.0], "extents": [0.5]},
    }))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 2
    assert "support of bump1d to lie inside the domain" in capsys.readouterr().err


def test_cli_translation_sweep_of_a_field_without_support_spends_no_target_pass(
        monkeypatch, capsys, tmp_path):
    # the directional-energy target took one magnetic_gradient pass over the
    # inflated grid before translation_difference_sq refused gauss1d
    monkeypatch.setattr(harness, "magnetic_gradient", _no_compute)
    monkeypatch.setattr(harness, "translation_difference_sq", _no_compute)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_GOOD, "kind": "lemma-translation"}))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 2
    assert "requires a field with a support domain" in capsys.readouterr().err


_COMPACT_KINDS = ["bbm-fullspace", "lemma-uniform", "lemma-translation"]
_BOX_SUPPORT = (box([0.0, 0.0], [1.0, 1.0]), 0.015)
_BALL_SUPPORT = (ball([0.2, 0.0], 0.5), 0.0)


@pytest.mark.parametrize("support,domain,inside", [
    # the bump2d support: the box of half-width 1, whose outer 0.015 vanish
    (_BOX_SUPPORT, box([0.0, 0.0], [1.0, 1.0]), True),
    (_BOX_SUPPORT, box([0.0, 0.0], [0.985, 0.985]), True),
    (_BOX_SUPPORT, box([0.1, 0.0], [1.0, 1.0]), False),
    (_BOX_SUPPORT, box([0.0, 0.0], [1.0, 0.9]), False),
    (_BOX_SUPPORT, ball([0.0, 0.0], 1.4), True),     # corners at 0.985 * sqrt(2)
    (_BOX_SUPPORT, ball([0.0, 0.0], 1.39), False),
    (_BALL_SUPPORT, box([0.0, 0.0], [0.7, 0.5]), True),
    (_BALL_SUPPORT, box([0.0, 0.0], [0.69, 0.5]), False),
    (_BALL_SUPPORT, ball([0.0, 0.0], 0.7), True),
    (_BALL_SUPPORT, ball([0.0, 0.0], 0.69), False),
    ((None, 0.0), box([0.0, 0.0], [1.0, 1.0]), False),
])
@pytest.mark.parametrize("kind", _COMPACT_KINDS)
def test_compact_sweeps_check_the_support_before_computing(monkeypatch, kind, support, domain,
                                                           inside):
    def no_compute(*_args, **_kwargs):
        raise AssertionError("computed")

    sup, margin = support
    null = ScalarField(2, value=lambda p: np.zeros(p.shape[:-1], dtype=complex),
                       gradient=lambda p: np.zeros(p.shape, dtype=complex),
                       support_domain=sup, support_margin=margin, label="null")
    monkeypatch.setattr(harness, "resolve_field", lambda label: null)
    monkeypatch.setattr(harness, "tensor_grid", no_compute)  # every kind's first pass
    s_list = {} if kind == "lemma-translation" else {"s_list": (0.5, 0.6, 0.7)}
    cfg = SweepConfig(kind, "null", "zero", domain, **s_list,
                      spec=QuadratureSpec(outer_nodes=4, angular_nodes=8, radial_nodes=2))
    if inside:
        with pytest.raises(AssertionError, match="computed"):
            run_sweep(cfg)
    else:
        message = "to lie inside the domain" if sup else "requires a field with a support domain"
        with pytest.raises(ConfigurationError, match=message):
            run_sweep(cfg)


_COVERING_DOMAINS = {
    "bump2d": [box([0.0] * 2, [1.0] * 2), box([0.0] * 2, [2.0] * 2), ball([0.0] * 2, 1.5)],
    "bump3d": [box([0.0] * 3, [1.0] * 3), box([0.0] * 3, [1.5] * 3), ball([0.0] * 3, 1.75)],
}


@pytest.mark.parametrize("label", list(_COVERING_DOMAINS))
@pytest.mark.parametrize("kind", _COMPACT_KINDS)
def test_compact_sweeps_do_not_depend_on_the_covering_domain(kind, label):
    # the passes ran on the config's domain: bump3d's full-space seminorm at
    # s = 0.99 was 1.5e-2 off in ball(0, 1.75), and bump2d's translation
    # target read 0.04577 on [-2, 2]^2 against 0.05490 on the unit box
    spec = QuadratureSpec(outer_nodes=4, angular_nodes=8, radial_nodes=2)
    first, *others = (run_sweep(SweepConfig(kind, label, "landau", d, spec=spec))
                      for d in _COVERING_DOMAINS[label])
    assert not any(row.failed for row in first.rows)
    for rep in others:
        assert rep.rows == first.rows
        assert rep.target == first.target
        assert rep.extrapolated_limit == first.extrapolated_limit
        assert rep.metadata["node_counts"] == first.metadata["node_counts"]


def test_a_bbm_domain_sweep_of_a_compact_field_takes_its_target_on_the_support():
    # the seminorms run on the support too, so the wider box adds only the
    # cross term with its own tail
    spec = QuadratureSpec(outer_nodes=6, angular_nodes=8, radial_nodes=4)
    own, wide = (run_sweep(SweepConfig("bbm-domain", "bump2d", "landau", d, spec=spec))
                 for d in (box([0.0] * 2, [1.0] * 2), box([0.0] * 2, [1.5] * 2)))
    assert wide.target == own.target
    assert all(w.value > o.value for w, o in zip(wide.rows, own.rows))
    assert wide.metadata["node_counts"] == [n + 36 for n in own.metadata["node_counts"]]


def test_default_spec_refuses_a_dimension_other_than_1_2_or_3():
    # default_spec(5) was the 3D spec and default_spec(True) the 1D one
    for dim in (0, 4, 5, True, 2.0):
        with pytest.raises(ConfigurationError, match="unsupported dimension"):
            default_spec(dim)


@pytest.mark.parametrize("domain,missing", [
    ({"kind": "ball", "center": [0.0, 0.0]}, "['radius']"),
    ({"kind": "box", "extents": [1.0, 1.0]}, "['center']"),
    ({"kind": "box"}, "['center', 'extents']"),
])
def test_a_config_domain_missing_a_key_is_refused(domain, missing):
    with pytest.raises(ConfigurationError) as info:
        config_from_dict({**_GOOD, "domain": domain})
    assert str(info.value) == f"{domain['kind']} domain missing required key(s) {missing}"


# int_0^1 r^k e^(-2 r^2) dr for k = 0, 2, 4, the second and fourth by parts.
_J0 = math.sqrt(math.pi / 8.0) * math.erf(math.sqrt(2.0))
_J2 = (_J0 - math.exp(-2.0)) / 4.0
_J4 = (3.0 * _J2 - math.exp(-2.0)) / 4.0


@pytest.mark.parametrize("domain,beta,energy,target_tol,limit_tol", [
    # E = (4 + beta^2/6) * 4 pi * J4; the polar outer rule (6 radii times 32
    # directions) leaves the target 3.6e-7 off and the limit 5.2e-3
    ({"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}, 1.0,
     (4.0 + 1.0 / 6.0) * 4.0 * math.pi * _J4, 1e-5, 1e-2),
    # E = (12 + beta^2/2) I2 I0^2 with I_k = 2 J_k the moments on (-1, 1)
    ({"kind": "box", "center": [0.0, 0.0, 0.0], "extents": [1.0, 1.0, 1.0]}, 2.0,
     (12.0 + 4.0 / 2.0) * 8.0 * _J2 * _J0**2, 1e-10, 4e-3),
], ids=["ball", "box"])
def test_3d_landau_sweeps_approach_the_closed_form_energy(domain, beta, energy, target_tol,
                                                          limit_tol):
    # gauss3d in the symmetric gauge beta/2 (-x2, x1, 0), default spec:
    # |grad u - iAu|^2 = (4 |x|^2 + beta^2 (x1^2 + x2^2) / 4) e^(-2 |x|^2)
    cfg = config_from_dict({"kind": "bbm-domain", "field": "gauss3d",
                            "potential": f"landau:beta={beta:g}", "domain": domain})
    report = run_sweep(cfg)
    exact = bbm_constant(3) * energy
    assert abs(report.target / exact - 1.0) < target_tol
    assert abs(report.extrapolated_limit / exact - 1.0) < limit_tol
    errors = [row.rel_err for row in report.rows]
    assert not any(row.failed for row in report.rows) and errors == sorted(errors, reverse=True)
    assert config_from_dict(json.loads(json.dumps(report.metadata["config"]))) == cfg

def test_a_1d_spec_with_other_than_two_directions_is_refused(monkeypatch, capsys, tmp_path):
    # the config takes sphere_rule's refusal of a 1D count other than 2, as
    # library calls do; 999 used to run the default's points and echo 999
    # into metadata.config
    monkeypatch.setattr(quadrature, "radial_angular", _no_compute)
    message = "quadrature angular_nodes must be 2 in 1D, the directions +1 and -1, got 999"
    with pytest.raises(ConfigurationError) as in_code:
        _cfg(spec=dataclasses.replace(FAST_SPEC, angular_nodes=999))
    assert str(in_code.value) == message
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_GOOD, "quadrature": {"angular_nodes": 999}}))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err
    # other dimensions take any direction count
    _cfg(domain=_D2, potential_label="landau", field_label="gauss2d",
         spec=dataclasses.replace(FAST_SPEC, angular_nodes=7))


def test_the_three_spellings_of_a_1d_domain_give_one_report():
    # a 1D box or ball was echoed as such, and bump1d took the routed pass
    # on it, whose cross term is 0, with 544 nodes per row against 512
    spellings = [{"kind": "interval"}, {"kind": "box", "center": [0.0], "extents": [1.0]},
                 {"kind": "ball", "center": [0.0], "radius": 1.0}]
    reports = [render_report(run_sweep(config_from_dict(
        {"field": "bump1d", "potential": "linear:alpha=1", "domain": domain,
         "s_list": [0.8, 0.9, 0.95], "quadrature": {"outer_nodes": 32, "radial_nodes": 16}})),
        "json") for domain in spellings]
    assert reports[0] == reports[1] == reports[2]
    assert json.loads(reports[0])["metadata"]["config"]["domain"] == {
        "kind": "interval", "center": [0.0], "extents": [1.0]}


def test_uniform_sweep_reports_the_engine_node_counts_per_row():
    u, A = resolve_field("bump1d"), resolve_potential("linear:alpha=1", 1)
    rep = run_sweep(_cfg(kind="lemma-uniform", field_label="bump1d", s_list=(0.5, 0.9)))
    rows = functionals.fullspace_seminorms_sq(u, A, [0.5, 0.9], FAST_SPEC)
    assert rep.metadata["node_counts"] == [r.node_count for r in rows]


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


_LAZY_MODULES = ("numpy.polynomial", "concurrent.futures", "logging", "traceback")


def test_cli_sweep_on_one_thread_loads_no_pool_logging_or_polynomial_modules(tmp_path):
    # the modules a sweep process loads beyond numpy's own: the thread pool,
    # with logging behind it, and numpy.polynomial cost memory and start-up
    # time that a one-thread sweep never uses
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_GOOD, "s_list": [0.8, 0.9, 0.95],
                                    "quadrature": {"outer_nodes": 32, "radial_nodes": 8}}))
    code = ("import sys, numpy; before = set(sys.modules); from bbm_magnetic import cli; "
            f"rc = cli.main(['sweep', '--config', sys.argv[1], '--threads', '1', "
            f"'--out', sys.argv[2]]); "
            f"print(rc, sorted(m for m in {_LAZY_MODULES!r} if m in set(sys.modules) - before))")
    res = subprocess.run([sys.executable, "-c", code, str(cfg_path), str(tmp_path / "out.csv")],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["0", "[]"]


_LAPACK = ("eigvalsh", "eigh", "eig", "lstsq", "solve", "svd", "qr", "inv")


@pytest.mark.parametrize("kind", [*SWEEP_KINDS, "bbm-domain-ball3d"])
def test_sweeps_call_no_lapack_routine(monkeypatch, kind):
    # the Gauss-Legendre rules, the interpolation matrices and the limit fit
    # come from recurrences and closed forms; the rule caches are emptied so
    # every rule is built under the patch
    def refuse(*_args, **_kwargs):
        raise AssertionError("a LAPACK routine ran")

    for name in _LAPACK:
        monkeypatch.setattr(np.linalg, name, refuse)
    for cached in (geometry.gauss_legendre, quadrature._legendre01, quadrature.product_rule,
                   quadrature._fine_lagrange):
        cached.cache_clear()
    if kind == "bbm-domain-ball3d":
        raw = {"field": "gauss3d", "potential": "landau", "s_list": [0.9, 0.95, 0.99],
               "domain": {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
               "quadrature": {"outer_nodes": 6, "angular_nodes": 32, "radial_nodes": 8}}
    else:
        raw = {"kind": kind, "potential": "linear:alpha=1", "domain": _INTERVAL,
               "quadrature": _counts_read(kind), **_ECHO_CONFIGS[kind]}
    rep = run_sweep(config_from_dict(raw))
    assert not any(r.failed for r in rep.rows)
    assert math.isfinite(rep.extrapolated_limit)


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
    # the rows of a family are labelled, and fitted, by its members'
    # params, one row per member
    cfg = _cfg(kind="mollifier", family={"kind": "gaussian", "indices": [2, 4, 8, 16]})
    assert [r.param for r in run_sweep(cfg).rows] == [2.0, 4.0, 8.0, 16.0]


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
    spec = default_spec(1)
    return {
        "SweepConfig": lambda s: _cfg(s_list=tuple(s)),
        "bbm_family": lambda s: bbm_family(s, 2.0, 1),
        "operator_limit_scan": lambda s: operator.operator_limit_scan(u, A, 0.0, s, spec),
        "magnetic_seminorms_sq": lambda s: functionals.magnetic_seminorms_sq(u, A, D1, s, spec),
        "fullspace_seminorms_sq": lambda s: functionals.fullspace_seminorms_sq(u, A, s, spec),
    }


_BAD_S_LISTS = {"empty": [], "decreasing": [0.9, 0.8], "repeated": [0.8, 0.8],
                "reaching-1": [0.5, 1.0]}


@pytest.mark.parametrize("bad", list(_BAD_S_LISTS.values()), ids=list(_BAD_S_LISTS))
@pytest.mark.parametrize("entry", list(_s_list_entry_points()) + ["cli-operator"])
def test_every_s_list_entry_point_refuses_by_the_one_rule(monkeypatch, capsys, entry, bad):
    def no_compute(*_args, **_kwargs):
        raise AssertionError("computed on a bad s_list")

    monkeypatch.setattr(quadrature, "radial_angular", no_compute)
    monkeypatch.setattr(operator, "_fractional_values", no_compute)
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
    monkeypatch.setattr(operator, "_fractional_values", _no_compute)
    with pytest.raises(ConfigurationError, match="s_list must be a list of numbers, got "):
        _s_list_entry_points()[entry](bad)


def _single_s_entry_points():
    u, A = resolve_field("bump1d"), resolve_potential("linear:alpha=1", 1)
    spec = default_spec(1)
    return {
        "magnetic_seminorm_sq": lambda s: functionals.magnetic_seminorm_sq(u, A, D1, s, spec),
        "fullspace_seminorm_sq": lambda s: functionals.fullspace_seminorm_sq(u, A, s, spec),
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
    monkeypatch.setattr(operator, "_fractional_values", _no_compute)
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
    sweep = run_sweep(_cfg(kind="mollifier", delta=0.1))
    assert rows == sweep.metadata["mollifier_checks"]
    assert cli.main(run + ["bbm"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["param"] for r in rows] == list(harness.DEFAULT_S_LIST)
    # a sweep's bbm family takes the same s values; D1's diameter is the
    # command's cutoff radius 2.0
    sweep = run_sweep(_cfg(kind="mollifier", family={"kind": "bbm"}))
    assert rows == sweep.metadata["mollifier_checks"]
