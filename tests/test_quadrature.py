import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bbm_magnetic.constants import bbm_constant
from bbm_magnetic.corpus import resolve_field, resolve_potential
from bbm_magnetic.errors import ConfigurationError, IntegrationError
from bbm_magnetic.fields import ScalarField
from bbm_magnetic.functionals import magnetic_seminorm_sq
from bbm_magnetic.geometry import ball, boundary_distances, interval, sphere_rule, tensor_grid
from bbm_magnetic.quadrature import (
    QuadratureSpec,
    _layered_radial,
    _run_batch,
    _run_two_level,
    double_integral_singular,
    near_field_hook,
    pairwise_sum,
    radial_angular,
    tail_integral,
    two_level,
)

D1 = interval(-1.0, 1.0)


def _sq_diff(x, y):
    return np.sum((x - y) ** 2, axis=-1)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        QuadratureSpec(eps=1.5)
    with pytest.raises(ConfigurationError):
        QuadratureSpec(radial_nodes=0)
    with pytest.raises(ConfigurationError):
        QuadratureSpec(near_field="never")


def test_pairwise_sum_matches_exact_and_is_deterministic():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(1001)
    assert pairwise_sum(a) == pairwise_sum(a.copy())
    assert_allclose(pairwise_sum(a), math.fsum(a), rtol=1e-13)
    assert pairwise_sum(np.array([])) == 0.0


def test_zero_integrand_gives_zero():
    spec = QuadratureSpec(outer_nodes=16, angular_nodes=2, radial_nodes=4)
    res = double_integral_singular(lambda x, y: np.zeros(np.broadcast(x, y).shape[:-1]),
                                   D1, 0.5, spec)
    assert res.value == 0.0


def test_squared_distance_kernel_s_half():
    # f = (x-y)^2 against |x-y|^{-2} collapses to the constant 1; the square
    # (-1,1)^2 has measure 4
    spec = QuadratureSpec(outer_nodes=64, angular_nodes=2, radial_nodes=8,
                          eps=1e-8, near_field="drop")
    res = double_integral_singular(_sq_diff, D1, 0.5, spec)
    assert abs(res.value - 4.0) < 1e-6


def test_squared_distance_kernel_s_three_quarters():
    # reduces to the 1D integral 2 * int_0^2 (2-t) t^{-1/2} dt = 16 sqrt(2)/3
    exact = 16.0 * math.sqrt(2.0) / 3.0
    spec = QuadratureSpec(outer_nodes=128, angular_nodes=2, radial_nodes=12,
                          eps=1e-8, near_field="taylor-correct")
    # the sub-cutoff mass of this kernel has the closed form 4 sqrt(eps) per
    # outer point (two rays of int_0^eps r^{-1/2} dr each)
    res = double_integral_singular(_sq_diff, D1, 0.75, spec,
                                   near_field=lambda X, eps_x: 4.0 * np.sqrt(eps_x))
    assert abs(res.value - exact) / exact < 1e-5


def test_invalid_s_rejected():
    spec = QuadratureSpec(outer_nodes=8, angular_nodes=2, radial_nodes=4)
    with pytest.raises(ValueError):
        double_integral_singular(_sq_diff, D1, 1.0, spec)


def test_non_vanishing_diagonal_aborts():
    spec = QuadratureSpec(outer_nodes=8, angular_nodes=2, radial_nodes=4)
    with pytest.raises(IntegrationError):
        double_integral_singular(lambda x, y: np.ones(np.broadcast(x, y).shape[:-1]),
                                 D1, 0.6, spec)


def test_nan_integrand_reported():
    spec = QuadratureSpec(outer_nodes=8, angular_nodes=2, radial_nodes=4)

    def bad(x, y):
        vals = _sq_diff(x, y)
        return np.where(np.sum(y, axis=-1) > 0.5, np.nan, vals)

    with pytest.raises(IntegrationError, match="NaN"):
        double_integral_singular(bad, D1, 0.5, spec)


# The seminorm's sub-cutoff term at the origin with cutoff 0.01 is
# |grad u - iAu|^2 * Q_N * eps^(2-2s) / (2-2s): the engine's hook with the
# seminorm's moment eps^(2-2s) and divisor 2-2s.
ORIGIN, EPS = np.zeros((1, 1)), np.array([0.01])
ZERO_A = resolve_potential("zero", 1)
TAYLOR = QuadratureSpec(near_field="taylor-correct")


def _linear():
    return ScalarField(1, value=lambda p: p[..., 0].astype(complex),
                       gradient=lambda p: np.ones(p.shape, dtype=complex))


def test_near_field_correction_trivial_zero():
    # the gaussian has zero gradient at the origin, so D = 0 there (s = 0.5)
    hook = near_field_hook(resolve_field("gauss1d"), ZERO_A, TAYLOR, lambda e: e, 1.0)
    assert hook(ORIGIN, EPS)[0] == 0.0


def test_near_field_correction_hand_value():
    # |grad u - iAu|^2 = 1 with Q_1 = 2, eps = 0.01, s = 0.5 -> 0.02
    hook = near_field_hook(_linear(), ZERO_A, TAYLOR, lambda e: e, 1.0)
    assert_allclose(hook(ORIGIN, EPS)[0], 0.02, rtol=1e-14)


def test_near_field_correction_localizes_as_s_to_one():
    # (1-s) times the correction tends to K_N |D|^2 with eps fixed
    s = 1.0 - 1e-9
    hook = near_field_hook(_linear(), ZERO_A, TAYLOR, lambda e: e ** (2.0 - 2.0 * s), 2.0 - 2.0 * s)
    assert_allclose((1.0 - s) * hook(ORIGIN, EPS)[0], bbm_constant(1), rtol=1e-6)


def test_near_field_correction_requires_gradient():
    bare = ScalarField(1, value=lambda p: p[..., 0].astype(complex))
    with pytest.raises(ConfigurationError):
        near_field_hook(bare, ZERO_A, TAYLOR, lambda e: e, 1.0)


def test_tail_integral_centered():
    assert_allclose(tail_integral(D1, [0.0], 0.5, 2), 2.0, rtol=1e-14)


def test_tail_integral_off_center():
    assert_allclose(tail_integral(D1, [0.5], 0.5, 2), 8.0 / 3.0, rtol=1e-14)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8, 0.95])
def test_tail_integral_closed_form_1d(s):
    rng = np.random.default_rng(1)
    for x in -0.9 + 1.8 * rng.random(10):
        exact = ((x + 1.0) ** (-2.0 * s) + (1.0 - x) ** (-2.0 * s)) / (2.0 * s)
        assert_allclose(tail_integral(D1, [x], s, 2), exact, rtol=1e-12)


def test_tail_integral_boundary_rejected():
    with pytest.raises(ValueError):
        tail_integral(D1, [1.0], 0.5, 2)


def test_refinement_convergence_and_error_bound():
    u = resolve_field("gauss1d")
    A = resolve_potential("linear:alpha=1", 1)
    specs = [
        QuadratureSpec(outer_nodes=n, angular_nodes=2, radial_nodes=rn)
        for n, rn in ((40, 6), (80, 8), (160, 10))
    ]
    out = [magnetic_seminorm_sq(u, A, D1, 0.9, sp) for sp in specs]
    changes = [abs(b.value - a.value) for a, b in zip(out, out[1:])]
    # empirical order >= 1: each doubling shrinks the change by >= 2x
    assert changes[1] <= changes[0] / 2.0
    # the reported two-level difference bounds the next observed change
    assert out[0].diagnostics.estimated_error >= changes[0]
    assert out[1].diagnostics.estimated_error >= changes[1]


def test_bitwise_determinism_across_reruns():
    u = resolve_field("modgauss1d:kappa=1")
    A = resolve_potential("linear:alpha=1", 1)
    spec = QuadratureSpec(outer_nodes=48, angular_nodes=2, radial_nodes=6)
    a = magnetic_seminorm_sq(u, A, D1, 0.7, spec).value
    b = magnetic_seminorm_sq(u, A, D1, 0.7, spec).value
    assert a == b


def test_batch_evaluates_the_integrand_as_often_as_one_member():
    def counting(calls):
        def pair(x, y):
            vals = _sq_diff(x, y)
            calls.append(vals.size)
            return vals
        return pair

    spec = QuadratureSpec(outer_nodes=24, angular_nodes=2, radial_nodes=6)
    members = [(lambda r, s=s: r ** (-1.0 - 2.0 * s), None) for s in (0.5, 0.8, 0.95, 0.99)]
    one, batch = [], []
    single = _run_two_level(counting(one), D1, spec, *members[0])
    results = _run_batch(counting(batch), D1, spec, members)
    assert len(batch) == len(one) > 0
    assert sum(batch) == sum(one)
    assert results[0] == single
    for s, res in zip((0.8, 0.95, 0.99), results[1:]):
        assert res == double_integral_singular(_sq_diff, D1, s, spec)


@pytest.mark.parametrize("d,nodes,angular", [(interval(-1.0, 1.0), 1200, 2),
                                             (ball([0.0, 0.0, 0.0], 1.0), 6, 26)])
def test_pair_fn_gets_x_plus_r_omega_in_coordinate_major_layout(d, nodes, angular):
    spec = QuadratureSpec(outer_nodes=nodes, angular_nodes=angular, radial_nodes=10)
    # On the interval, drop the left half: the first chunk then lies in the
    # middle and the second, near the boundary, needs more layers, so the
    # point buffer grows as well as being reused.
    X = tensor_grid(d, nodes).points[nodes // 2 if d.dimension == 1 else 0:]
    dirs, _ = sphere_rule(d.dimension, angular)
    R = boundary_distances(d, X, dirs)
    eps_x = np.minimum(1e-4 * d.diameter(), 0.5 * R.min(axis=1))
    calls = []

    def pair(x, y):
        calls.append((x, y.copy(), np.moveaxis(y, -1, 0).flags.c_contiguous))
        return np.sum((x - y) ** 2, axis=-1)

    _, count = radial_angular(pair, X, R, eps_x, dirs, spec, [lambda r: r])
    assert len(calls) > 1
    if d.dimension == 1:
        assert calls[0][1].shape[2] < calls[1][1].shape[2]
    start = 0
    for x, y, coordinate_major in calls:
        cut = slice(start, start + x.shape[0])
        r, _ = _layered_radial(R[cut], eps_x[cut, None], spec.radial_nodes)
        assert coordinate_major
        assert np.array_equal(x, X[cut, None, None, :])
        assert np.array_equal(y, X[cut, None, None, :] + r[..., None] * dirs[None, :, None, :])
        start = cut.stop
    assert start == X.shape[0]
    assert count == sum(y.size // d.dimension for _, y, _ in calls)


def test_two_level_estimates_against_one_rung_down():
    seen = []

    def evaluate(spec):
        seen.append(spec)
        return [float(spec.outer_nodes), -1.0], 7

    spec = QuadratureSpec(outer_nodes=20, angular_nodes=32, radial_nodes=8)
    res = two_level(evaluate, spec, 2)
    assert seen == [spec, replace(spec, outer_nodes=10, angular_nodes=16, radial_nodes=6)]
    assert [(r.value, r.estimated_error, r.node_count) for r in res] == [(20.0, 10.0, 7),
                                                                         (-1.0, 0.0, 7)]
    # floors: 4 outer nodes, 2 radial nodes, 8 directions; 1D keeps its two
    seen.clear()
    two_level(evaluate, QuadratureSpec(outer_nodes=5, angular_nodes=8, radial_nodes=3), 3)
    assert seen[1] == QuadratureSpec(outer_nodes=4, angular_nodes=8, radial_nodes=2)
    seen.clear()
    two_level(evaluate, QuadratureSpec(outer_nodes=64, angular_nodes=2, radial_nodes=8), 1)
    assert seen[1] == QuadratureSpec(outer_nodes=32, angular_nodes=2, radial_nodes=6)
