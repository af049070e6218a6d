from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bbm_magnetic.corpus import resolve_field, resolve_potential
from bbm_magnetic.errors import ConfigurationError, IntegrationError
from bbm_magnetic import operator
from bbm_magnetic.fields import GaugeFunction, ScalarField, VectorPotential, gauge_transform
from bbm_magnetic.operator import (
    fractional_magnetic_apply,
    local_magnetic_apply,
    operator_limit_scan,
)
from bbm_magnetic.harness import default_spec
from bbm_magnetic.quadrature import QuadratureSpec, ray_rule

from .oracles import landau_fractional_gaussian_2d, spectral_fractional_gaussian

SPEC = QuadratureSpec(outer_nodes=1, angular_nodes=2, radial_nodes=10)
SPEC_2D = QuadratureSpec(outer_nodes=1, angular_nodes=16, radial_nodes=6)


def _plane_wave(alpha):
    return ScalarField(
        1,
        value=lambda p: np.exp(1j * alpha * p[..., 0]),
        gradient=lambda p: (1j * alpha * np.exp(1j * alpha * p[..., 0]))[..., None],
        hessian=lambda p: (-(alpha**2) * np.exp(1j * alpha * p[..., 0]))[..., None, None],
        label="planewave",
    )


def test_local_apply_gaussian_origin():
    u = resolve_field("gauss1d")
    A = resolve_potential("zero", 1)
    # u'' = (4x^2 - 2) e^{-x^2}; at 0 the operator gives -(-2) = 2
    assert_allclose(local_magnetic_apply(u, A, [0.0]), 2.0 + 0.0j, rtol=1e-14)


def test_local_apply_pure_gauge_annihilates():
    alpha = 0.8
    u = _plane_wave(alpha)
    A = resolve_potential(f"const:alpha={alpha}", 1)
    for x in (-0.4, 0.0, 0.7):
        assert abs(local_magnetic_apply(u, A, [x])) < 1e-14


def test_local_apply_landau_origin():
    u = resolve_field("gauss2d")
    A = resolve_potential("landau:beta=1", 2)
    # at the origin the gradient terms vanish, |A(0)| = 0, div A = 0: -Lap u = 4
    assert_allclose(local_magnetic_apply(u, A, [0.0, 0.0]), 4.0 + 0.0j, rtol=1e-14)


def test_local_apply_requires_metadata():
    bare = ScalarField(1, value=lambda p: np.exp(-p[..., 0] ** 2).astype(complex))
    A = resolve_potential("zero", 1)
    with pytest.raises(ConfigurationError):
        local_magnetic_apply(bare, A, [0.0])



def test_local_apply_requires_divergence_metadata():
    A = VectorPotential(1, resolve_potential("zero", 1).value)
    with pytest.raises(ConfigurationError, match="divergence metadata"):
        local_magnetic_apply(resolve_field("gauss1d"), A, [0.0])


@pytest.mark.parametrize("field,x", [("gauss2d", [0.3, -0.2]), ("bump2d", [0.3, -0.2]),
                                     ("gauss3d", [0.3, -0.2, 0.1]), ("bump3d", [0.3, -0.2, 0.1])])
def test_local_apply_is_gauge_covariant(field, x):
    # under u -> e^{i phi} u, A -> A + grad phi the operator picks up e^{i phi(x)};
    # the gauged field's Hessian is gauge_transform's
    u = resolve_field(field)
    A = resolve_potential("landau:beta=1.5", u.dim)
    g = GaugeFunction(np.linspace(0.7, -1.3, u.dim), 0.4)
    ug, Ag = gauge_transform(u, A, g)
    expected = np.exp(1j * g(np.array(x))) * local_magnetic_apply(u, A, x)
    assert abs(expected) > 0.1
    assert_allclose(local_magnetic_apply(ug, Ag, x), expected, rtol=1e-13)

def test_fractional_constant_field_formally_zero():
    ones = ScalarField(1, value=lambda p: np.ones(p.shape[:-1], dtype=complex),
                       gradient=lambda p: np.zeros(p.shape, dtype=complex))
    A = resolve_potential("zero", 1)
    # constant field: every annulus difference vanishes; the (formal) far
    # tail cancels against nothing here, so the difference-based rim rule
    # returns zero as well
    v = fractional_magnetic_apply(ones, A, [0.2], 0.5, SPEC)
    assert abs(v) < 1e-12


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_classical_reduction_matches_spectral_oracle(s):
    u = resolve_field("gauss1d")
    A = resolve_potential("zero", 1)
    got = fractional_magnetic_apply(u, A, [0.0], s, SPEC)
    ref = spectral_fractional_gaussian(s, 0.0)
    assert abs(got - ref) / abs(ref) < 1e-3
    assert abs(got.imag) < 1e-12


def test_constant_gauge_reduction():
    # u = e^{i a x} g(x) with A = a collapses to e^{i a x} (-Lap)^s g
    u = resolve_field("modgauss1d:kappa=0.7")
    A = resolve_potential("const:alpha=0.7", 1)
    got = fractional_magnetic_apply(u, A, [0.0], 0.5, SPEC)
    ref = spectral_fractional_gaussian(0.5, 0.0)
    assert abs(got - ref) / abs(ref) < 1e-3


def test_off_center_point_matches_spectral_oracle():
    u = resolve_field("gauss1d")
    A = resolve_potential("zero", 1)
    got = fractional_magnetic_apply(u, A, [0.5], 0.6, SPEC)
    ref = spectral_fractional_gaussian(0.6, 0.5)
    assert abs(got - ref) / abs(ref) < 1e-3


def test_linearity_in_the_field():
    rng = np.random.default_rng(31)
    u1 = resolve_field("gauss1d")
    u2 = resolve_field("modgauss1d:kappa=1")
    A = resolve_potential("linear:alpha=0.5", 1)
    a, b = 1.3, -0.7 + 0.2j

    combo = ScalarField(1, value=lambda p: a * u1.value(p) + b * u2.value(p),
                        gradient=lambda p: a * u1.gradient(p) + b * u2.gradient(p))
    x = [float(rng.uniform(-0.5, 0.5))]
    s = 0.6
    f1 = fractional_magnetic_apply(u1, A, x, s, SPEC)
    f2 = fractional_magnetic_apply(u2, A, x, s, SPEC)
    lhs = fractional_magnetic_apply(combo, A, x, s, SPEC)
    scale = abs(a * f1) + abs(b * f2) + 1.0
    assert abs(lhs - (a * f1 + b * f2)) <= 1e-12 * scale

    combo_loc = ScalarField(1, value=combo.value, gradient=combo.gradient,
                            hessian=lambda p: a * u1.hessian(p) + b * u2.hessian(p))
    lhs_loc = local_magnetic_apply(combo_loc, A, x)
    rhs_loc = (a * local_magnetic_apply(u1, A, x) + b * local_magnetic_apply(u2, A, x))
    assert abs(lhs_loc - rhs_loc) <= 1e-12 * max(1.0, abs(lhs_loc))


def test_scan_pure_gauge_all_zero():
    alpha = 1.3
    u = _plane_wave(alpha)
    A = resolve_potential(f"const:alpha={alpha}", 1)
    for smp in operator_limit_scan(u, A, [0.2], [0.5, 0.7, 0.9], SPEC):
        assert smp.discrepancy < 1e-8


def test_scan_discrepancy_decreases_toward_local():
    u = resolve_field("gauss1d")
    A = resolve_potential("zero", 1)
    samples = operator_limit_scan(u, A, [0.0], [0.7, 0.8, 0.9, 0.95], SPEC)
    disc = [smp.discrepancy for smp in samples]
    assert all(b < a for a, b in zip(disc, disc[1:]))
    # sign convention: same sign as the local value 2
    assert samples[-1].fractional.real > 0.0


def test_scan_requires_increasing_s():
    u = resolve_field("gauss1d")
    A = resolve_potential("zero", 1)
    with pytest.raises(ValueError):
        operator_limit_scan(u, A, [0.0], [0.9, 0.8], SPEC)


def test_scan_checks_every_s_before_computing(monkeypatch):
    def no_compute(*_args, **_kwargs):
        raise AssertionError("computed before every s was checked")

    monkeypatch.setattr(operator, "local_magnetic_apply", no_compute)
    monkeypatch.setattr(operator, "fractional_magnetic_apply", no_compute)
    monkeypatch.setattr(operator, "_fractional_values", no_compute)
    u = resolve_field("gauss1d")
    A = resolve_potential("zero", 1)
    for s_list in ([0.5, 1.5], [0.0, 0.5], [0.5, 1.0]):
        with pytest.raises(ValueError, match=r"outside \(0, 1\)"):
            operator_limit_scan(u, A, [0.0], s_list, SPEC)


@pytest.mark.parametrize("field,potential,x", [
    ("gauss1d", "zero", [0.0]),
    ("gauss1d", "linear:alpha=1", [0.3]),
    ("modgauss1d:kappa=0.7", "const:alpha=0.7", [-0.2]),
    ("bump1d", "linear:alpha=2", [0.1]),
    ("gauss2d", "landau:beta=1", [0.3, -0.2]),
])
def test_scan_values_equal_the_single_s_values(field, potential, x):
    u = resolve_field(field)
    A = resolve_potential(potential, len(x))
    spec = SPEC if len(x) == 1 else SPEC_2D
    s_list = [0.3, 0.7, 0.9, 0.99]
    samples = operator_limit_scan(u, A, x, s_list, spec)
    assert [smp.s for smp in samples] == s_list
    for smp in samples:
        assert smp.fractional == fractional_magnetic_apply(u, A, x, smp.s, spec)
        assert smp.discrepancy == abs(smp.fractional - local_magnetic_apply(u, A, x))


def test_scan_evaluates_the_field_as_often_for_four_s_as_for_one(monkeypatch):
    gauss = resolve_field("gauss1d")
    points, calls = [], []

    def counted(p):
        points[-1] += p.size // p.shape[-1]
        calls[-1] += 1
        return gauss.value(p)

    u = replace(gauss, value=counted)
    A = resolve_potential("linear:alpha=1", 1)
    for s_list in ([0.9], [0.7, 0.8, 0.9, 0.95]):
        points.append(0)
        calls.append(0)
        operator_limit_scan(u, A, [0.1], s_list, SPEC)
    assert points[0] == points[1] > 0
    assert calls[0] == calls[1]  # one evaluation of the ray integrand per scan


def test_far_field_refusal_for_non_decaying_field():
    u = _plane_wave(1.0)
    A = resolve_potential("zero", 1)
    with pytest.raises(IntegrationError):
        fractional_magnetic_apply(u, A, [0.0], 0.5, SPEC)


@pytest.mark.parametrize("x", [10.0, 30.0])
def test_scan_far_from_the_bulk_matches_the_oracle_or_refuses(x):
    # At x = 30 the bulk of e^{-y^2} lies in the ray's outermost panel,
    # r in [21, 40], whose nodes under-resolve it; the far-field refusal keeps
    # those values (6% off the oracle) out.  At x = 10 the scan is accurate.
    u = resolve_field("gauss1d")
    A = resolve_potential("zero", 1)
    s_list = [0.5, 0.9]
    try:
        samples = operator_limit_scan(u, A, [x], s_list, SPEC)
    except IntegrationError:
        assert x == 30.0
        return
    for s, smp in zip(s_list, samples):
        ref = spectral_fractional_gaussian(s, x)
        assert abs(smp.fractional - ref) / abs(ref) < 1e-3


@pytest.mark.parametrize("x", [0.0, 0.5, 2.0, 10.0])
def test_principal_value_matches_the_spectral_oracle_as_s_nears_one(x):
    # the first panel integrates r^(1-2s) exactly, so the rule stays
    # accurate as s -> 1: about 1e-9 where the cutoff and its Taylor ball
    # term left 1e-8 (x <= 2) and 1e-4 (x = 10)
    u = resolve_field("gauss1d")
    A = resolve_potential("zero", 1)
    for s in (0.5, 0.9, 0.99):
        ref = spectral_fractional_gaussian(s, x)
        got = fractional_magnetic_apply(u, A, [x], s, SPEC)
        assert abs(got - ref) / abs(ref) < 2e-9


def test_the_ray_rule_integrates_the_singular_power_exactly():
    # h(r) = 1 integrates to r_far^(2-2s) / (2-2s) over [0, r_far]; a
    # polynomial of degree below the panel node counts is exact too
    r_far = operator._RAY_EDGES[-1]
    for s in [0.3, 0.9, 0.999]:
        radii, row = ray_rule(operator._RAY_EDGES, operator._RAY_NODES, 1.0 - 2.0 * s)
        assert radii.size == sum(operator._RAY_NODES)
        exact = r_far ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
        assert_allclose(row @ np.ones_like(radii), exact, rtol=1e-12)
        assert_allclose(row @ radii**2, r_far ** (4.0 - 2.0 * s) / (4.0 - 2.0 * s), rtol=1e-12)


@pytest.mark.parametrize("beta", [1.0, 4.0])
@pytest.mark.parametrize("x", [(0.4, -0.3), (1.0, 0.5)])
def test_the_2d_landau_operator_matches_its_fourier_reference(beta, x):
    # away from x = 0, where A vanishes and the field has no effect; the
    # reference agrees with itself at 500 x 384 nodes to about 1e-13
    a = (-0.5 * beta * x[1], 0.5 * beta * x[0])  # landau:beta at x, in the symmetric gauge
    u, A = resolve_field("gauss2d"), resolve_potential(f"landau:beta={beta:g}", 2)
    for s in (0.3, 0.6, 0.9, 0.99):
        ref = landau_fractional_gaussian_2d(s, x, a)
        assert abs(fractional_magnetic_apply(u, A, x, s, default_spec(2)) - ref) <= 1e-9 * abs(ref)


def test_nan_on_the_annulus_raises():
    # NaN for 1 < |y| < 2 only: the far rim stays finite
    def value(p):
        r = np.abs(p[..., 0])
        return np.where((r > 1.0) & (r < 2.0), np.nan, np.exp(-r * r)).astype(complex)

    u = ScalarField(1, value=value, label="holed")
    with pytest.raises(IntegrationError, match="NaN"):
        fractional_magnetic_apply(u, resolve_potential("zero", 1), [0.0], 0.7, SPEC)


def _no_compute(*_args, **_kwargs):
    raise AssertionError("computed on bad input")


_UNTOUCHED_FIELD = ScalarField(1, _no_compute, gradient=_no_compute, hessian=_no_compute)
_UNTOUCHED_POTENTIAL = VectorPotential(1, _no_compute, divergence=_no_compute)


@pytest.mark.parametrize("apply", [
    lambda x: local_magnetic_apply(_UNTOUCHED_FIELD, _UNTOUCHED_POTENTIAL, x),
    lambda x: fractional_magnetic_apply(_UNTOUCHED_FIELD, _UNTOUCHED_POTENTIAL, x, 0.5, SPEC),
    lambda x: operator_limit_scan(_UNTOUCHED_FIELD, _UNTOUCHED_POTENTIAL, x, [0.5, 0.9], SPEC),
], ids=["local", "fractional", "scan"])
@pytest.mark.parametrize("point", [[np.nan], np.array([np.inf]), ["0"], "0", [True], [None]])
def test_operator_point_must_be_finite_numbers(monkeypatch, apply, point):
    # [nan] gave nan+nanj (local) or an IntegrationError after the annulus
    # pass (fractional), and ["0"] ran as the point 0
    monkeypatch.setattr(operator, "_fractional_values", _no_compute)
    with pytest.raises(ConfigurationError, match="point must be a finite number"):
        apply(point)


@pytest.mark.parametrize("angular", [16, 15])
def test_the_operator_evaluates_each_ray_point_once(angular):
    # each direction is paired with its antipode, so an even rule takes its
    # antipodal half; an odd 2D rule has none and is taken whole
    u = resolve_field("gauss2d")
    calls = []

    def value(p):
        calls.append(np.asarray(p).reshape(-1, 2).copy())
        return u.value(p)

    spec = replace(SPEC_2D, angular_nodes=angular)
    fractional_magnetic_apply(replace(u, value=value), resolve_potential("landau", 2),
                              [0.1, -0.2], 0.8, spec)
    ray = max(calls, key=len)
    assert len(np.unique(ray, axis=0)) == len(ray)
    per_ray = sum(operator._RAY_NODES) + 1  # + rim
    assert len(ray) == 2 * (angular if angular % 2 else angular // 2) * per_ray
