import json
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bbm_magnetic import functionals, quadrature
from bbm_magnetic.corpus import resolve_field, resolve_potential
from bbm_magnetic.errors import ConfigurationError, IntegrationError
from bbm_magnetic.functionals import _difference_sq, gaussian_family, magnetic_seminorm_sq
from bbm_magnetic.geometry import (
    ball,
    boundary_distances,
    box,
    gauss_legendre,
    interval,
    sphere_rule,
    tensor_grid,
)
from bbm_magnetic.harness import default_spec
from bbm_magnetic.quadrature import (
    QuadratureSpec,
    _power_member,
    _run_batch,
    _run_two_level,
    double_integral_singular,
    pairwise_sum,
    product_rule,
    radial_angular,
    ray_rule,
    tail_integral,
    two_level,
)

D1 = interval(-1.0, 1.0)


def _sq_diff(x, y):
    return np.sum((x - y) ** 2, axis=-1)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        QuadratureSpec(outer_nodes=8, angular_nodes=8, radial_nodes=0)
    with pytest.raises(ConfigurationError):
        QuadratureSpec(outer_nodes=8, angular_nodes=0, radial_nodes=8)
    # no field has a default: harness.default_spec(N) is the only one
    with pytest.raises(TypeError):
        QuadratureSpec()


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
    spec = QuadratureSpec(outer_nodes=64, angular_nodes=2, radial_nodes=8)
    res = double_integral_singular(_sq_diff, D1, 0.5, spec)
    assert abs(res.value - 4.0) < 1e-6


def test_squared_distance_kernel_s_three_quarters():
    # reduces to the 1D integral 2 * int_0^2 (2-t) t^{-1/2} dt = 16 sqrt(2)/3
    exact = 16.0 * math.sqrt(2.0) / 3.0
    # the product rule integrates g = f / r^2 = 1 against r^(-1/2) exactly
    spec = QuadratureSpec(outer_nodes=128, angular_nodes=2, radial_nodes=12)
    res = double_integral_singular(_sq_diff, D1, 0.75, spec)
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

    # A 2D pass whose NaN first shows in a late block: only rays from the
    # last two grid columns give NaN, past half a unit from their start, and
    # the rays of a pass run point by point, so they come last.  The reported
    # point must be one of them, read before the next block takes over the
    # engine's arrays.
    nan_before_block, nan_points = [], []

    def bad_far(x, y):
        if y.ndim == 3:  # an engine block, not the diagonal check's samples
            nan_before_block.append(len(nan_points))
        far = (x[..., 0] > 0.98) & (np.sum((x - y) ** 2, axis=-1) > 0.25)
        nan_points.extend(y[far].tolist())
        return np.where(far, np.nan, _sq_diff(x, y))

    spec2d = QuadratureSpec(outer_nodes=64, angular_nodes=32, radial_nodes=10)
    with pytest.raises(IntegrationError, match="NaN") as err:
        double_integral_singular(bad_far, box([0.0, 0.0], [1.0, 1.0]), 0.5, spec2d)
    assert len(nan_before_block) > 2 and nan_before_block[-1] == 0
    assert json.loads(str(err.value).split("y=")[1]) in nan_points


@pytest.mark.parametrize("budget", [None, 1], ids=["default-blocks", "one-ray-blocks"])
def test_a_2d_nan_is_refused_at_its_first_point_in_ray_order(budget, monkeypatch):
    # NaN wherever a ray from the right half of the box has climbed half a
    # unit: later rays of a block meet it at earlier nodes, so only the
    # (outer point, direction, node) order names the point found here.
    if budget is not None:
        monkeypatch.setattr(quadrature, "_CHUNK_BUDGET", budget)
    spec = QuadratureSpec(outer_nodes=12, angular_nodes=16, radial_nodes=6)
    X, dirs, R = _engine_inputs(box([0.0, 0.0], [1.0, 1.0]), spec)
    tau = product_rule(spec.radial_nodes, 0.0)[0]

    def nan_at(x, y):
        return (x[..., 0] > 0.3) & (y[..., 1] - x[..., 1] > 0.5)

    def bad(x, y):
        return np.where(nan_at(x, y), np.nan, _sq_diff(x, y))

    first = next(y for c, x in enumerate(X) for m, omega in enumerate(dirs) for t in tau
                 if nan_at(x, y := x + (R[c, m] * omega) * t))
    with pytest.raises(IntegrationError) as err:
        radial_angular(bad, X, R, dirs, spec.radial_nodes, [_power_member(0.5)])
    assert str(err.value) == f"integrand produced NaN at y={first.tolist()}"


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8, 0.95, 0.99, 0.999])
@pytest.mark.parametrize("nodes", [1, 4, 16, 32])
def test_product_weights_integrate_every_power_below_the_node_count_exactly(s, nodes):
    # int_0^1 tau^beta tau^j dtau = 1 / (beta + j + 1), beta = 1 - 2s; the
    # weights grow like 1 / (beta + 1) as s -> 1, and the sums keep the
    # precision of their largest term
    beta = 1.0 - 2.0 * s
    tau, w = product_rule(nodes, beta)
    for j in range(nodes):
        assert abs(w @ tau**j - 1.0 / (beta + j + 1.0)) <= 1e-13 * np.abs(w).sum()
    # beta = 0 is plain Gauss-Legendre on [0, 1]
    assert np.array_equal(product_rule(nodes, 0.0)[1], 0.5 * gauss_legendre(nodes)[1])


@pytest.mark.parametrize("beta", [-0.998, -0.5, 0.0, 0.4, 1.0, 2.5])
@pytest.mark.parametrize("nodes", [1, 4, 16, 64])
def test_a_one_panel_ray_rule_is_the_product_rule_bit_for_bit(beta, nodes):
    # the engine's power weights are the builder's one-panel case
    radii, weights = ray_rule((0.0, 1.0), (nodes,), beta)
    tau, w = product_rule(nodes, beta)
    assert radii.tobytes() == tau.tobytes() and weights.tobytes() == w.tobytes()


@pytest.mark.parametrize("beta", [-0.6, 0.0, 0.4, 1.0, 2.0])
def test_a_panel_ray_rule_integrates_each_panels_polynomials_exactly(beta):
    # int r^(beta + j) over panel i, for j below its node count: exact on the
    # product-rule panel for any beta, and on the Gauss-Legendre panels,
    # which take F r^beta as one function, for an integer beta
    edges, nodes = (0.0, 0.7, 1.5, 4.0), (5, 3, 4)
    radii, weights = ray_rule(edges, nodes, beta)
    ends = np.cumsum((0, *nodes))
    for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
        if i and beta != round(beta):
            continue
        r, w = radii[ends[i]:ends[i + 1]], weights[ends[i]:ends[i + 1]]
        assert np.all((lo < r) & (r < hi))
        for j in range(nodes[i]):
            exact = (hi ** (beta + j + 1.0) - lo ** (beta + j + 1.0)) / (beta + j + 1.0)
            assert abs(w @ r**j - exact) <= 1e-14 * np.abs(w) @ r**j


@pytest.mark.parametrize("nodes", [*range(1, 9), 12, 14, 16, 24, 32, 62, 64, 80, 96, 160])
def test_interpolation_matrices_match_legvander_bit_for_bit(nodes):
    # the recurrence rows take numpy's legvander order and layout, so the
    # matrices and the products built on them keep their bits
    legvander = np.polynomial.legendre.legvander
    xi = gauss_legendre(nodes)[0]
    tau, w, basis = quadrature._legendre01(nodes)
    expected = legvander(xi, nodes - 1) * (2.0 * np.arange(nodes) + 1.0)
    assert np.array_equal(basis, expected)
    assert basis.flags.f_contiguous == expected.flags.f_contiguous
    fine = legvander(2.0 * quadrature._fine_rule(0.0)[0] - 1.0, nodes - 1)
    assert np.array_equal(quadrature._fine_lagrange(nodes),
                          (expected * w[:, None]) @ fine.T / tau[:, None] ** 2)


def _lagrange_at_zero(tau):
    """ell_k(0) for the nodes tau, from the product formula."""
    return np.array([np.prod([-t / (tk - t) for t in np.delete(tau, k)]) for k, tk in enumerate(tau)])


def test_the_s_to_one_limit_is_half_the_ray_interpolant_at_zero():
    # (1 - s) omega_k(s) -> ell_k(0) / 2, so as s -> 1 the assembled seminorm
    # times (1 - s) tends to the outer and angular sum of p(0) / 2, with p the
    # interpolant of g = |u(x) - phase u(y)|^2 / r^2 at the nodes of each ray
    s, nodes = 1.0 - 1e-9, 8
    tau, w = product_rule(nodes, 1.0 - 2.0 * s)
    assert_allclose((1.0 - s) * w, 0.5 * _lagrange_at_zero(tau), rtol=0.0, atol=1e-8)

    u, A = resolve_field("gauss2d"), resolve_potential("landau:beta=1", 2)
    d = box([0.3, -0.2], [1.0, 0.8])
    spec = QuadratureSpec(outer_nodes=8, angular_nodes=12, radial_nodes=nodes)
    grid = tensor_grid(d, spec.outer_nodes)
    dirs, wdir = sphere_rule(2, spec.angular_nodes)
    dirs, wdir = dirs[6:], 2.0 * wdir[6:]
    R = boundary_distances(d, grid.points, dirs)
    r = R[..., None] * tau  # (C, M, K)
    y = grid.points[:, None, None, :] + r[..., None] * dirs[:, None, :]
    g = _difference_sq(u, A)(grid.points[:, None, None, :], y) / r**2
    limit = float(pairwise_sum(grid.weights * ((0.5 * g @ _lagrange_at_zero(tau)) @ wdir)))
    value = (1.0 - s) * quadrature._domain_pass(_difference_sq(u, A), d, spec, [_power_member(s)])[0][0]
    assert_allclose(value, limit, rtol=1e-8)


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


@pytest.mark.parametrize("x,message", [
    ([0.0], "point must be a list of 2 numbers, got [0.0]"),
    ([0.0, 0.0, 0.0], "point must be a list of 2 numbers, got [0.0, 0.0, 0.0]"),
    ("a", "point must be a list of 2 numbers, got ['a']"),
], ids=["one-coordinate", "three-coordinates", "text"])
def test_tail_integral_refuses_a_point_of_another_dimension(x, message):
    # one coordinate was broadcast to (0, 0), and the others raised numpy's
    # plain ValueError, which the CLI takes for a defect
    with pytest.raises(ConfigurationError) as refused:
        tail_integral(box([0.0, 0.0], [1.0, 1.0]), x, 0.5, 16)
    assert str(refused.value) == message


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
    members = [_power_member(s) for s in (0.5, 0.8, 0.95, 0.99)]
    one, batch = [], []
    single = _run_two_level(counting(one), D1, spec, members[0])
    results = _run_batch(counting(batch), D1, spec, members)
    assert len(batch) == len(one) > 0
    assert sum(batch) == sum(one)
    assert results[0] == single
    for s, res in zip((0.8, 0.95, 0.99), results[1:]):
        assert res == double_integral_singular(_sq_diff, D1, s, spec)


def _engine_inputs(d, spec, points=None):
    """Outer points, directions and exit distances over the full sphere
    rule; ``points`` keeps a slice of the outer grid."""
    X = tensor_grid(d, spec.outer_nodes).points[points or slice(None)]
    dirs, _ = sphere_rule(d.dimension, spec.angular_nodes)
    return X, dirs, boundary_distances(d, X, dirs)


@pytest.mark.parametrize("d,nodes,angular", [(interval(-1.0, 1.0), 3200, 2),
                                             (ball([0.0, 0.0, 0.0], 1.0), 8, 26)])
def test_pair_fn_gets_x_plus_r_omega_in_coordinate_major_layout(d, nodes, angular, monkeypatch):
    spec = QuadratureSpec(outer_nodes=nodes, angular_nodes=angular, radial_nodes=10)
    X, dirs, R = _engine_inputs(d, spec)
    tau = product_rule(spec.radial_nodes, 0.0)[0]
    row_of = {x.tobytes(): c for c, x in enumerate(X)}

    def blocks_evaluated():
        """Run the engine, check every (x, y) it evaluates against the ray
        nodes R tau_k per (point, direction), and count the blocks."""
        calls = []

        def pair(x, y):
            coordinate_major = all(np.moveaxis(p, -1, 0).flags.c_contiguous for p in (x, y))
            calls.append((x.copy(), y.copy(), coordinate_major))
            return np.sum((x - y) ** 2, axis=-1)

        _, count = radial_angular(pair, X, R, dirs, spec.radial_nodes, [_power_member(0.5)])
        seen = np.zeros(R.shape, dtype=int)
        for x, y, coordinate_major in calls:
            assert coordinate_major
            # node-major: one (P, N) plane of points per radial node
            assert x.shape == (1, y.shape[1], d.dimension)
            assert y.shape[0] == spec.radial_nodes
            for xp, yp in zip(x[0], y.swapaxes(0, 1)):
                c = row_of[xp.tobytes()]
                omega = (yp[0] - xp) / np.linalg.norm(yp[0] - xp)
                m = int(np.argmin(np.linalg.norm(dirs - omega, axis=1)))
                # every ray carries the same nodes: no padding, no zero weight
                assert np.array_equal(yp, xp + (R[c, m] * dirs[m]) * tau[:, None])
                seen[c, m] += 1
        assert np.all(seen == 1)
        assert count == R.size * spec.radial_nodes == sum(y.size // d.dimension for _, y, _ in calls)
        return len(calls)

    assert blocks_evaluated() > 1
    # One ray per block: the same points, one block per ray.
    monkeypatch.setattr(quadrature, "_CHUNK_BUDGET", 1)
    assert blocks_evaluated() == R.size


def _gauss3d_symmetric():
    """The 3D ball's field and potential: exp(-|p|^2) in the symmetric gauge."""
    return resolve_field("gauss3d"), resolve_potential("landau", 3)


@pytest.mark.parametrize("d,fields", [
    (box([0.0, 0.0], [1.0, 1.0]),
     lambda: (resolve_field("gauss2d"), resolve_potential("landau:beta=1", 2))),
    (ball([0.0, 0.0, 0.0], 1.0), _gauss3d_symmetric),
])
def test_blocks_change_no_value(d, fields, monkeypatch):
    spec = default_spec(d.dimension)
    u, A = fields()
    kernel = functionals._mollifier_member(d, gaussian_family([8], d.dimension).members[0])
    members = [_power_member(0.8), _power_member(0.99), kernel]
    # A few outer points at every direction, near the wall and inside.
    X, dirs, R = _engine_inputs(d, spec, slice(0, None, 97 if d.dimension == 2 else 41))
    pair = _difference_sq(u, A)
    default, count = radial_angular(pair, X, R, dirs, spec.radial_nodes, members)
    monkeypatch.setattr(quadrature, "_CHUNK_BUDGET", 1)
    one_ray, one_count = radial_angular(pair, X, R, dirs, spec.radial_nodes, members)
    for a, b in zip(default, one_ray):
        assert_allclose(a, b, rtol=1e-14, atol=0.0)
    assert one_count == count == R.size * spec.radial_nodes


def test_kernel_weights_integrate_the_ray_interpolant():
    # For f(x, y) = r^2 p(r), p a polynomial of degree below the node count,
    # a kernel member's ray integral is int_0^R p(r) rho(r) r^(N-1) dr,
    # which a composite Gauss-Legendre rule of 400 panels gives to rounding.
    nodes, d = 8, box([0.0, 0.0], [1.0, 1.0])
    rho = gaussian_family([6], 2).members[0]
    coeffs = np.array([1.0, -0.7, 0.4, 0.3, -0.2, 0.05, 0.01, -0.002])

    def pair(x, y):
        r = np.sqrt(np.sum((x - y) ** 2, axis=-1))
        return r**2 * np.polynomial.polynomial.polyval(r, coeffs)

    X, dirs, R = _engine_inputs(d, QuadratureSpec(outer_nodes=3, angular_nodes=8, radial_nodes=8),
                             slice(None))
    (got,), _ = radial_angular(pair, X, R, dirs, nodes, [functionals._mollifier_member(d, rho)])
    xi, wi = np.polynomial.legendre.leggauss(20)
    for c, m in np.ndindex(R.shape):
        edges = np.linspace(0.0, R[c, m], 401)
        r = (0.5 * (edges[1:] + edges[:-1])[:, None] + 0.5 * np.diff(edges)[:, None] * xi).ravel()
        w = (0.5 * np.diff(edges)[:, None] * wi).ravel()
        exact = np.sum(w * np.polynomial.polynomial.polyval(r, coeffs) * rho.smooth(r) * r)
        assert_allclose(got[c, m], exact, rtol=1e-12)


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


def _seminorm_members(s_list=(0.8, 0.99)):
    return [_power_member(s) for s in s_list]


def _pass_along(rows, factor, pair, d, spec, members):
    """_domain_pass along the rows ``rows`` of the sphere rule, with the
    direction weights times ``factor``: every row at factor 1 is the full
    rule.  Returns (one value per member, node count)."""
    X, dirs, R = _engine_inputs(d, spec)
    _, wdir = sphere_rule(d.dimension, spec.angular_nodes)
    per_dir, count = radial_angular(pair, X, R[:, rows], dirs[rows], spec.radial_nodes, members)
    weights = tensor_grid(d, spec.outer_nodes).weights
    return [float(pairwise_sum(weights * (integrals @ (factor * wdir[rows]))))
            for integrals in per_dir], count


_full_rule = partial(_pass_along, slice(None), 1.0)


@pytest.mark.parametrize("d,fields,spec", [
    (interval(-1.0, 1.0),
     lambda: (resolve_field("gauss1d"), resolve_potential("linear:alpha=1", 1)),
     QuadratureSpec(outer_nodes=40, angular_nodes=2, radial_nodes=6)),
    (box([0.0, 0.0], [1.0, 1.0]),
     lambda: (resolve_field("gauss2d"), resolve_potential("landau:beta=1", 2)),
     QuadratureSpec(outer_nodes=12, angular_nodes=16, radial_nodes=4)),
    (ball([0.0, 0.0, 0.0], 1.0), _gauss3d_symmetric,
     QuadratureSpec(outer_nodes=6, angular_nodes=50, radial_nodes=4)),
], ids=["1d", "2d", "3d"])
def test_point_symmetric_problems_give_the_full_rule_from_half_the_directions(d, fields, spec):
    u, A = fields()
    pair, members = _difference_sq(u, A), _seminorm_members()
    values, count = quadrature._domain_pass(pair, d, spec, members)
    full, full_count = _full_rule(pair, d, spec, members)
    assert_allclose(values, full, rtol=1e-12, atol=0.0)
    assert 2 * count == full_count
    assert magnetic_seminorm_sq(u, A, d, 0.8, spec).node_count == count


@pytest.mark.parametrize("d", [interval(-1.0, 1.0), box([0.0, 0.0], [1.0, 1.0]),
                               ball([0.0, 0.0, 0.0], 1.0)])
def test_passes_evaluate_half_the_points(d):
    # the default specs of the benchmark's problems
    zero, members = (lambda x, y: np.zeros(y.shape[:-1])), [_power_member(0.5)]
    spec = default_spec(d.dimension)
    _, count = quadrature._domain_pass(zero, d, spec, members)
    _, full_count = _full_rule(zero, d, spec, members)
    assert 2 * count == full_count


@pytest.mark.parametrize("d,fields,spec,half", [
    (interval(-0.7, 1.2),
     lambda: (resolve_field("modgauss1d:kappa=2"), resolve_potential("linear:alpha=1", 1)),
     QuadratureSpec(outer_nodes=40, angular_nodes=2, radial_nodes=6), 1),
    (box([0.3, -0.2], [1.0, 0.8]),
     lambda: (resolve_field("gauss2d"), resolve_potential("landau:beta=1", 2)),
     QuadratureSpec(outer_nodes=12, angular_nodes=16, radial_nodes=4), 8),
], ids=["1d", "2d"])
def test_the_two_halves_average_to_the_full_rule_off_centre(d, fields, spec, half):
    u, A = fields()
    pair, members = _difference_sq(u, A), _seminorm_members()
    second, _ = quadrature._domain_pass(pair, d, spec, members)
    assert second == _pass_along(slice(half, None), 2.0, pair, d, spec, members)[0]
    first, _ = _pass_along(slice(None, half), 2.0, pair, d, spec, members)
    full, _ = _full_rule(pair, d, spec, members)
    assert_allclose(0.5 * (np.array(first) + second), full, rtol=1e-13, atol=0.0)
    # without the point symmetry the halves differ, so the average is not trivial
    assert np.all(np.abs(np.array(first) - second) > 1e-8 * np.abs(full))


def test_odd_2d_rules_keep_every_direction():
    d = box([0.3, -0.2], [1.0, 0.8])
    u, A = resolve_field("gauss2d"), resolve_potential("landau:beta=1", 2)
    spec = QuadratureSpec(outer_nodes=12, angular_nodes=9, radial_nodes=4)
    pair, members = _difference_sq(u, A), _seminorm_members()
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
