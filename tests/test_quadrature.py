import json
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bbm_magnetic import quadrature
from bbm_magnetic.constants import bbm_constant
from bbm_magnetic.corpus import resolve_field, resolve_potential
from bbm_magnetic.errors import ConfigurationError, IntegrationError
from bbm_magnetic.fields import ScalarField, VectorPotential
from bbm_magnetic.functionals import _difference_sq, _seminorm_hook, magnetic_seminorm_sq
from bbm_magnetic.geometry import (
    ball,
    boundary_distances,
    box,
    interval,
    sphere_rule,
    tensor_grid,
)
from bbm_magnetic.harness import default_spec
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

    # A 2D pass whose NaN first shows in a late block: only rays longer than
    # 2 give NaN, and they need the most layers, so they come last in a pass.
    # The reported point must be one of them, read before the next block
    # takes over the engine's arrays.
    nan_before_block, nan_points = [], []

    def bad_far(x, y):
        if y.ndim == 3:  # an engine block, not the diagonal check's samples
            nan_before_block.append(len(nan_points))
        far = np.sum((x - y) ** 2, axis=-1) > 4.0
        nan_points.extend(y[far].tolist())
        return np.where(far, np.nan, _sq_diff(x, y))

    spec2d = QuadratureSpec(outer_nodes=32, angular_nodes=32, radial_nodes=8)
    with pytest.raises(IntegrationError, match="NaN") as err:
        double_integral_singular(bad_far, box([0.0, 0.0], [1.0, 1.0]), 0.5, spec2d)
    assert len(nan_before_block) > 2 and nan_before_block[-1] == 0
    assert json.loads(str(err.value).split("y=")[1]) in nan_points


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
    assert out[0].estimated_error >= changes[0]
    assert out[1].estimated_error >= changes[1]


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


def _engine_inputs(d, spec, points=None):
    """Outer points, directions, exit distances and cutoffs as _domain_pass
    builds them; ``points`` keeps a slice of the outer grid."""
    X = tensor_grid(d, spec.outer_nodes).points[points or slice(None)]
    dirs, _ = sphere_rule(d.dimension, spec.angular_nodes)
    R = boundary_distances(d, X, dirs)
    eps_x = np.minimum(spec.eps * d.diameter(), 0.5 * R.min(axis=1))
    return X, dirs, R, eps_x


@pytest.mark.parametrize("d,nodes,angular", [(interval(-1.0, 1.0), 1200, 2),
                                             (ball([0.0, 0.0, 0.0], 1.0), 6, 26)])
def test_pair_fn_gets_x_plus_r_omega_in_coordinate_major_layout(d, nodes, angular, monkeypatch):
    spec = QuadratureSpec(outer_nodes=nodes, angular_nodes=angular, radial_nodes=10)
    # On the interval, drop the left half: the kept points still range from
    # the middle, whose directions need many layers, to the wall.
    X, dirs, R, eps_x = _engine_inputs(d, spec, slice(nodes // 2 if d.dimension == 1 else 0, None))
    row_of = {x.tobytes(): c for c, x in enumerate(X)}

    def padding_evaluated():
        """Run the engine, check every (x, y) it evaluates against the nodes of
        _layered_radial per (point, direction), and count the padding."""
        calls = []

        def pair(x, y):
            calls.append((x, y.copy(), np.moveaxis(y, -1, 0).flags.c_contiguous))
            return np.sum((x - y) ** 2, axis=-1)

        _, count = radial_angular(pair, X, R, eps_x, dirs, spec, [lambda r: r])
        assert len(calls) > 1
        seen, padding = np.zeros(R.shape, dtype=int), 0
        for x, y, coordinate_major in calls:
            assert coordinate_major
            assert x.shape == (y.shape[0], 1, d.dimension)
            for xp, yp in zip(x[:, 0], y):
                c = row_of[xp.tobytes()]
                omega = (yp[0] - xp) / np.linalg.norm(yp[0] - xp)
                m = int(np.argmin(np.linalg.norm(dirs - omega, axis=1)))
                R_cm, eps_c = np.array(R[c, m]), np.array(eps_x[c])
                n_layers = quadrature._layer_counts(R_cm, eps_c)
                r, w = np.empty((2, int(n_layers) * spec.radial_nodes))
                _layered_radial(R_cm, eps_c, spec.radial_nodes, n_layers, r, w)
                # _layered_radial of one pair pads nothing: every node is weighted
                assert np.all(w > 0.0)
                assert np.array_equal(yp[: r.size], xp + r[:, None] * dirs[m])
                # a pair sharing a block with longer pairs is padded at the
                # cutoff, where the padding's weight is zero
                pad = yp[r.size:]
                assert np.array_equal(pad, np.broadcast_to(xp + eps_x[c] * dirs[m], pad.shape))
                padding += pad.shape[0]
                seen[c, m] += 1
        assert np.all(seen == 1)
        assert count == sum(y.size // d.dimension for _, y, _ in calls)
        return padding

    padding_evaluated()
    # One pair per block: exactly the weighted nodes, no zero-weight point.
    monkeypatch.setattr(quadrature, "_CHUNK_BUDGET", 1)
    assert padding_evaluated() == 0


def _gauss3d_symmetric():
    """The 3D ball's field and potential: exp(-|p|^2) in the symmetric gauge."""
    u = ScalarField(3, lambda p: np.exp(-np.sum(p * p, axis=-1)).astype(complex))
    A = VectorPotential(3, lambda p: 0.5 * np.stack(
        [-p[..., 1], p[..., 0], np.zeros(p.shape[:-1])], axis=-1))
    return u, A


@pytest.mark.parametrize("d,fields", [
    (box([0.0, 0.0], [1.0, 1.0]),
     lambda: (resolve_field("gauss2d"), resolve_potential("landau:beta=1", 2))),
    (ball([0.0, 0.0, 0.0], 1.0), _gauss3d_symmetric),
])
def test_blocks_change_no_value_and_evaluate_weighted_points(d, fields, monkeypatch):
    spec = default_spec(d.dimension)
    u, A = fields()
    weights = [lambda r, s=s: r ** (-1.0 - 2.0 * s) for s in (0.8, 0.99)]
    # A few outer points at every direction, near the wall and inside.
    X, dirs, R, eps_x = _engine_inputs(d, spec, slice(0, None, 97 if d.dimension == 2 else 41))
    pair = _difference_sq(u, A)
    default, count = radial_angular(pair, X, R, eps_x, dirs, spec, weights)
    monkeypatch.setattr(quadrature, "_CHUNK_BUDGET", 1)
    one_pair, one_count = radial_angular(pair, X, R, eps_x, dirs, spec, weights)
    for a, b in zip(default, one_pair):
        assert_allclose(a, b, rtol=1e-14, atol=0.0)
    assert one_count < count
    monkeypatch.undo()

    # The whole default fine pass: the share of evaluated points that carry
    # weight, with the integrand replaced by zeros.
    X, dirs, R, eps_x = _engine_inputs(d, spec)
    _, count = radial_angular(lambda x, y: np.zeros(y.shape[:-1]), X, R, eps_x, dirs, spec,
                              weights[:1])
    weighted = spec.radial_nodes * int(quadrature._layer_counts(R, eps_x[:, None]).sum())
    assert weighted / count >= 0.95


def test_two_level_estimates_against_one_rung_down():
    seen = []

    def evaluate(spec):
        seen.append(spec)
        return [float(spec.outer_nodes), -1.0], 7

    spec = QuadratureSpec(outer_nodes=20, angular_nodes=32, radial_nodes=8)
    res = two_level(evaluate, spec, 2)
    assert seen == [replace(spec, outer_nodes=10, angular_nodes=16, radial_nodes=6), spec]
    assert [(r.value, r.estimated_error, r.node_count) for r in res] == [(20.0, 10.0, 7),
                                                                         (-1.0, 0.0, 7)]
    # floors: 4 outer nodes, 2 radial nodes, 8 directions; 1D keeps its two
    seen.clear()
    two_level(evaluate, QuadratureSpec(outer_nodes=5, angular_nodes=8, radial_nodes=3), 3)
    assert seen[0] == QuadratureSpec(outer_nodes=4, angular_nodes=8, radial_nodes=2)
    seen.clear()
    two_level(evaluate, QuadratureSpec(outer_nodes=64, angular_nodes=2, radial_nodes=8), 1)
    assert seen[0] == QuadratureSpec(outer_nodes=32, angular_nodes=2, radial_nodes=6)


def test_two_level_compares_one_rung_up_at_the_floors():
    seen = []

    def evaluate(spec):
        seen.append(spec)
        return [float(spec.outer_nodes)], 7

    # 4 outer nodes, 2 radial nodes and 8 directions are their own rung down
    (res,) = two_level(evaluate, QuadratureSpec(outer_nodes=4, angular_nodes=8, radial_nodes=2), 2)
    assert seen[1] == QuadratureSpec(outer_nodes=8, angular_nodes=16, radial_nodes=4)
    assert (res.value, res.estimated_error) == (4.0, 4.0)
    seen.clear()
    two_level(evaluate, QuadratureSpec(outer_nodes=4, angular_nodes=2, radial_nodes=2), 1)
    assert seen[1] == QuadratureSpec(outer_nodes=8, angular_nodes=2, radial_nodes=4)

    # the engine at the floors: the estimate is the distance to one rung up
    floor = QuadratureSpec(outer_nodes=4, angular_nodes=2, radial_nodes=2)
    res = double_integral_singular(_sq_diff, D1, 0.7, floor)
    up = double_integral_singular(_sq_diff, D1, 0.7, replace(floor, outer_nodes=8, radial_nodes=4))
    assert res.estimated_error == abs(res.value - up.value)
    assert res.estimated_error > 0.0


# ---------------------------------------------------------------------------
# The half rule: 2D and 3D passes integrate along one direction of each ±ω pair
# ---------------------------------------------------------------------------


def _seminorm_members(u, A, spec, s_list=(0.8, 0.99)):
    return [(quadrature._power_weight(s), _seminorm_hook(u, A, spec, s)) for s in s_list]


def _pass_along(rows, factor, pair, d, spec, members):
    """_domain_pass along the rows ``rows`` of the sphere rule, with the
    direction weights times ``factor``: every row at factor 1 is the full
    rule.  Returns (one value per member, node count)."""
    X, dirs, R, eps_x = _engine_inputs(d, spec)
    _, wdir = sphere_rule(d.dimension, spec.angular_nodes)
    weights = [weight for weight, _ in members]
    per_dir, count = radial_angular(pair, X, R[:, rows], eps_x, dirs[rows], spec, weights)
    values = []
    for integrals, (_, near_field) in zip(per_dir, members):
        inner = integrals @ (factor * wdir[rows])
        if near_field is not None:
            inner = inner + near_field(X, eps_x)
        values.append(float(pairwise_sum(tensor_grid(d, spec.outer_nodes).weights * inner)))
    return values, count


_full_rule = partial(_pass_along, slice(None), 1.0)


def _gauss3d_with_gradient():
    u, A = _gauss3d_symmetric()
    return replace(u, gradient=lambda p: -2.0 * p * u.value(p)[..., None]), A


@pytest.mark.parametrize("d,fields,spec", [
    (box([0.0, 0.0], [1.0, 1.0]),
     lambda: (resolve_field("gauss2d"), resolve_potential("landau:beta=1", 2)),
     QuadratureSpec(outer_nodes=12, angular_nodes=16, radial_nodes=4)),
    (ball([0.0, 0.0, 0.0], 1.0), _gauss3d_with_gradient,
     QuadratureSpec(outer_nodes=6, angular_nodes=50, radial_nodes=4)),
])
def test_point_symmetric_problems_give_the_full_rule_from_half_the_directions(d, fields, spec):
    u, A = fields()
    pair, members = _difference_sq(u, A), _seminorm_members(u, A, spec)
    values, count = quadrature._domain_pass(pair, d, spec, members)
    full, full_count = _full_rule(pair, d, spec, members)
    assert_allclose(values, full, rtol=1e-12, atol=0.0)
    assert count < full_count
    assert magnetic_seminorm_sq(u, A, d, 0.8, spec).node_count == count


@pytest.mark.parametrize("d", [box([0.0, 0.0], [1.0, 1.0]), ball([0.0, 0.0, 0.0], 1.0)])
def test_2d_and_3d_passes_evaluate_about_half_the_points(d):
    # the default specs of the benchmark's landau2d and ball3d problems
    zero, members = (lambda x, y: np.zeros(y.shape[:-1])), [(lambda r: r, None)]
    spec = default_spec(d.dimension)
    _, count = quadrature._domain_pass(zero, d, spec, members)
    _, full_count = _full_rule(zero, d, spec, members)
    assert count <= 0.51 * full_count


def test_the_two_halves_average_to_the_full_rule_off_centre():
    d = box([0.3, -0.2], [1.0, 0.8])
    u, A = resolve_field("gauss2d"), resolve_potential("landau:beta=1", 2)
    spec = QuadratureSpec(outer_nodes=12, angular_nodes=16, radial_nodes=4)
    pair, members = _difference_sq(u, A), _seminorm_members(u, A, spec)
    half = 8
    second, _ = quadrature._domain_pass(pair, d, spec, members)
    assert second == _pass_along(slice(half, None), 2.0, pair, d, spec, members)[0]
    first, _ = _pass_along(slice(None, half), 2.0, pair, d, spec, members)
    full, _ = _full_rule(pair, d, spec, members)
    assert_allclose(0.5 * (np.array(first) + second), full, rtol=1e-13, atol=0.0)
    # without the point symmetry the halves differ, so the average is not trivial
    assert np.all(np.abs(np.array(first) - second) > 1e-8 * np.abs(full))


@pytest.mark.parametrize("d,fields,spec", [
    (interval(-0.7, 1.2),
     lambda: (resolve_field("modgauss1d:kappa=2"), resolve_potential("linear:alpha=1", 1)),
     QuadratureSpec(outer_nodes=40, angular_nodes=2, radial_nodes=6)),
    (box([0.3, -0.2], [1.0, 0.8]),
     lambda: (resolve_field("gauss2d"), resolve_potential("landau:beta=1", 2)),
     QuadratureSpec(outer_nodes=12, angular_nodes=9, radial_nodes=4)),
], ids=["1d", "2d-odd-count"])
def test_1d_and_odd_2d_rules_keep_every_direction(d, fields, spec):
    u, A = fields()
    pair, members = _difference_sq(u, A), _seminorm_members(u, A, spec)
    assert quadrature._domain_pass(pair, d, spec, members) == _full_rule(pair, d, spec, members)


def test_an_asymmetric_integrand_is_refused_before_any_pass(monkeypatch):
    def asymmetric(x, y):
        return (1.0 + x[..., 0]) * _sq_diff(x, y)

    def no_pass(*_args, **_kwargs):
        raise AssertionError("an engine pass ran")

    monkeypatch.setattr(quadrature, "radial_angular", no_pass)
    spec = QuadratureSpec(outer_nodes=8, angular_nodes=8, radial_nodes=4)
    with pytest.raises(ConfigurationError, match=r"not symmetric, f\(x, y\) != f\(y, x\)"):
        double_integral_singular(asymmetric, box([0.0, 0.0], [1.0, 1.0]), 0.8, spec)


@pytest.mark.parametrize("d,fields", [
    (interval(-0.7, 1.2), lambda: (resolve_field("gauss1d"), resolve_potential("linear:alpha=1", 1))),
    (box([0.3, -0.2], [1.0, 0.8]),
     lambda: (resolve_field("gauss2d"), resolve_potential("landau:beta=1", 2))),
    (ball([0.3, -0.2, 0.1], 1.0), _gauss3d_symmetric),
])
def test_the_engines_own_integrands_pass_the_symmetry_check(d, fields):
    # the seminorm and the mollified functionals share _difference_sq
    u, A = fields()
    for pair in (_sq_diff, _difference_sq(u, A)):
        quadrature._check_diagonal(pair, d, default_spec(d.dimension))
