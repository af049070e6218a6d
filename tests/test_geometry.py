import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bbm_magnetic.constants import bbm_constant
from bbm_magnetic import geometry
from bbm_magnetic.errors import ConfigurationError, IntegrationError
from bbm_magnetic.geometry import (
    Domain,
    antipodal_half,
    ball,
    boundary_distances,
    box,
    direction,
    gauss_legendre,
    interval,
    sphere_area,
    sphere_rule,
    tensor_grid,
)


def test_interval_basic():
    d = interval(-1.0, 1.0)
    assert d.dimension == 1
    assert d.diameter() == 2.0
    assert d.volume() == 2.0


def test_box_diameter_matches_vertex_distances():
    d = box([0.5, -0.25], [1.0, 2.0])
    lo, hi = d.bounding_box()
    corners = np.array([[x, y] for x in (lo[0], hi[0]) for y in (lo[1], hi[1])])
    pairwise = max(
        np.linalg.norm(a - b) for a in corners for b in corners
    )
    assert_allclose(d.diameter(), pairwise, rtol=1e-14)


def test_ball_diameter_is_twice_radius():
    d = ball([0.0, 0.0, 0.0], 0.75)
    assert_allclose(d.diameter(), 1.5, rtol=0)


def test_invalid_domains_rejected():
    with pytest.raises(ConfigurationError):
        interval(1.0, -1.0)
    with pytest.raises(ConfigurationError):
        box([0.0] * 4, [1.0] * 4)
    with pytest.raises(ConfigurationError):
        ball([0.0], -1.0)


def test_direction_returns_the_unit_vector():
    w = direction([3.0, 4.0])
    assert isinstance(w, np.ndarray)
    assert_allclose(w, [0.6, 0.8], rtol=1e-15)
    assert_allclose(np.linalg.norm(w), 1.0, atol=1e-14)


def _distance(d, x, w):
    """boundary_distances for one point and one direction."""
    return float(boundary_distances(d, np.array([x], dtype=float), np.array([w]))[0, 0])


def test_boundary_distances_interval_center():
    d = interval(-1.0, 1.0)
    assert _distance(d, [0.0], direction([1.0])) == pytest.approx(1.0)


def test_boundary_distances_ball_collinear():
    d = ball([0.0, 0.0], 1.0)
    assert _distance(d, [0.5, 0.0], direction([1.0, 0.0])) == pytest.approx(0.5)


def test_boundary_distances_box_diagonal():
    # ray-box intersection solved by hand: from the center of [-1,1]^2 along
    # the diagonal the exit point is (1, 1), at distance sqrt(2)
    d = box([0.0, 0.0], [1.0, 1.0])
    w = direction([1.0, 1.0])
    assert _distance(d, [0.0, 0.0], w) == pytest.approx(math.sqrt(2.0), rel=1e-14)


@pytest.mark.parametrize("kind", ["ball", "box"])
def test_boundary_distances_exit_points_lie_on_the_boundary_in_3d(kind):
    rng = np.random.default_rng(11)
    if kind == "ball":
        d = ball([0.1, -0.2, 0.3], 0.8)
    else:
        d = box([0.1, -0.2, 0.3], [0.5, 0.8, 0.3])
    lo, hi = d.bounding_box()
    X = lo + (hi - lo) * (0.3 + 0.4 * rng.random((5, 3)))
    assert np.all(d.contains(X))
    dirs, _ = sphere_rule(3, 32)
    R = boundary_distances(d, X, dirs)
    assert R.shape == (5, len(dirs))
    assert np.all(R > 0.0)
    exits = X[:, None, :] + R[:, :, None] * dirs[None, :, :]
    if kind == "ball":
        assert_allclose(np.linalg.norm(exits - d.center, axis=-1), 0.8, rtol=1e-13)
    else:
        # inside the closed box, and on one of its faces
        assert np.all(exits >= lo - 1e-13) and np.all(exits <= hi + 1e-13)
        gap = np.minimum(np.abs(exits - lo), np.abs(exits - hi)).min(axis=-1)
        assert_allclose(gap, 0.0, atol=1e-13)


def _ray_face_exit(lo, hi, x, w):
    # independent oracle: intersect the ray with every face plane, keep the
    # smallest positive parameter whose point lies on the box
    best = math.inf
    for axis in range(len(x)):
        for plane in (lo[axis], hi[axis]):
            if w[axis] == 0.0:
                continue
            t = (plane - x[axis]) / w[axis]
            if t <= 0.0:
                continue
            p = x + t * w
            if np.all(p >= lo - 1e-12) and np.all(p <= hi + 1e-12):
                best = min(best, t)
    return best


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chord_property_box(seed):
    rng = np.random.default_rng(seed)
    d = box([0.2, -0.1], [1.0, 0.7])
    lo, hi = d.bounding_box()
    for _ in range(20):
        x = lo + (hi - lo) * (0.1 + 0.8 * rng.random(2))
        w = direction(rng.standard_normal(2))
        fwd, bwd = boundary_distances(d, x[None, :], np.stack([w, -w]))[0]
        chord = _ray_face_exit(lo, hi, x, w) + _ray_face_exit(lo, hi, x, -w)
        assert_allclose(fwd + bwd, chord, rtol=1e-12)


def test_chord_property_ball():
    rng = np.random.default_rng(7)
    d = ball([0.0, 0.0], 1.0)
    for _ in range(20):
        x = 0.7 * rng.standard_normal(2)
        while np.linalg.norm(x) >= 0.9:
            x = 0.7 * rng.standard_normal(2)
        w = direction(rng.standard_normal(2))
        fwd, bwd = boundary_distances(d, x[None, :], np.stack([w, -w]))[0]
        # chord length through x: 2*sqrt(r^2 - dist(center, line)^2)
        perp = x - np.dot(x, w) * w
        chord = 2.0 * math.sqrt(1.0 - float(perp @ perp))
        assert_allclose(fwd + bwd, chord, rtol=1e-12)


def test_sphere_nodes_dim1():
    dirs, wts = sphere_rule(1, 5)
    assert dirs.shape == (2, 1)
    assert set(dirs[:, 0].tolist()) == {1.0, -1.0}
    assert wts.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("dim,count,area", [(1, 1, 2.0), (2, 8, 2 * math.pi), (3, 128, 4 * math.pi)])
def test_sphere_weights_sum_to_area(dim, count, area):
    _, wts = sphere_rule(dim, count)
    assert_allclose(wts.sum(), area, rtol=1e-12)


@pytest.mark.parametrize("dim,count", [(2, 8), (2, 24), (2, 48), (3, 64), (3, 128), (3, 50), (3, 100)])
def test_even_sphere_rules_hold_the_antipodes_of_their_first_half_in_their_second(dim, count):
    # 3D counts 50 and 100 have 5 and 7 polar nodes: the equator ring is split
    dirs, wts = sphere_rule(dim, count)
    half = dirs.shape[0] // 2
    assert 2 * half == dirs.shape[0]
    gap = np.abs(dirs[half:, None, :] + dirs[None, :half, :]).max(axis=-1)
    match = np.argmin(gap, axis=1)  # the first-half row each second-half row negates
    assert np.array_equal(np.sort(match), np.arange(half))
    assert gap[np.arange(half), match].max() <= 1e-15
    assert np.array_equal(wts[half:], wts[match])


@pytest.mark.parametrize("dim,count", [(1, 2), (2, 8), (2, 7), (3, 50), (3, 128)])
def test_antipodal_half_sums_even_integrands_like_the_whole_rule(dim, count):
    dirs, wts = sphere_rule(dim, count)
    half_dirs, half_wts = antipodal_half(dim, count)
    assert half_dirs.shape[0] == (count if dim == 2 and count % 2 else dirs.shape[0] // 2)

    def even(w):
        return np.cos(w @ np.arange(1.0, dim + 1.0)) + (w[:, 0] * w[:, -1]) ** 2

    assert_allclose(half_wts @ even(half_dirs), wts @ even(dirs), rtol=1e-14)


def test_sphere_dim2_uniform_weights():
    _, wts = sphere_rule(2, 8)
    assert_allclose(wts, math.pi / 4.0, rtol=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
def test_second_angular_moment(dim):
    # integral of |omega . e|^2 over the sphere equals Q_N = |S^{N-1}|/N
    dirs, wts = sphere_rule(dim, 64 if dim == 2 else 512)
    e = np.zeros(dim)
    e[0] = 1.0
    q = float(np.dot(wts, (dirs @ e) ** 2))
    area = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    assert_allclose(q, area / dim, rtol=1e-10)


def test_sphere_unsupported_dim():
    with pytest.raises(ConfigurationError):
        sphere_rule(4, 8)


# Every rule size that a default spec or its coarse rung uses.
RULE_SIZES = [*range(1, 9), 12, 14, 16, 24, 32, 62, 64, 80, 96, 160]


@pytest.mark.parametrize("n", RULE_SIZES)
def test_gauss_legendre_rules_from_the_recurrence(n):
    x, w = gauss_legendre(n)
    assert np.all(np.diff(x) > 0.0)
    assert np.array_equal(x, -x[::-1])
    if n % 2:
        assert x[n // 2] == 0.0 and not np.signbit(x[n // 2])
    assert np.max(np.abs(x - np.polynomial.legendre.leggauss(n)[0])) <= 2.3e-16
    assert abs(w.sum() - 2.0) <= 1e-14
    # sum_k w_k P_j(x_k) = 0 for 0 < j < 2n: exact to degree 2n - 1
    moments = w @ np.polynomial.legendre.legvander(x, 2 * n - 1)[:, 1:]
    assert np.max(np.abs(moments)) <= 1e-14
    assert not x.flags.writeable and not w.flags.writeable
    assert gauss_legendre(n)[0] is x


def test_gauss_legendre_refuses_an_unconverged_newton_iteration(monkeypatch):
    # the first Newton step from Tricomi's estimate still moves the roots
    monkeypatch.setattr(geometry, "_NEWTON_STEPS", 1)
    with pytest.raises(IntegrationError, match="n=40 did not converge"):
        gauss_legendre.__wrapped__(40)


def test_tensor_grid_box_weights_exact():
    d = box([0.0, 0.0], [1.0, 0.5])
    g = tensor_grid(d, 6)
    assert_allclose(g.weights.sum(), d.volume(), rtol=1e-13)
    assert np.all(g.weights > 0.0)


@pytest.mark.parametrize("d,n,radii,directions", [
    (ball([0.1, -0.2], 1.3), 24, 12, 24),
    (ball([0.1, -0.2], 1.3), 7, 4, 7),
    (ball([0.1, -0.2, 0.3], 0.8), 12, 6, 32),   # sphere_rule(3, 36)
    (ball([0.1, -0.2, 0.3], 0.8), 5, 3, 8),     # sphere_rule(3, 6)
])
def test_tensor_grid_on_a_ball_is_a_polar_product_rule(d, n, radii, directions):
    # ceil(n/2) Gauss-Legendre radii times a sphere rule: every node inside,
    # and the weights integrate r^(N-1) exactly, so they sum to the volume
    g = tensor_grid(d, n)
    assert g.points.shape == (radii * directions, d.dimension)
    assert np.all(d.contains(g.points)) and np.all(g.weights > 0.0)
    assert_allclose(g.weights.sum(), d.volume(), rtol=2e-15)
    r = np.linalg.norm(g.points - d.center, axis=-1)
    assert_allclose(g.weights @ r**2, d.dimension / (d.dimension + 2.0) * d.extents[0] ** 2
                    * d.volume(), rtol=2e-15)


def test_tensor_grid_on_a_1d_ball_is_the_interval_rule():
    a, b = tensor_grid(ball([0.3], 1.5), 9), tensor_grid(Domain("interval", [0.3], [1.5]), 9)
    assert np.array_equal(a.points, b.points) and np.array_equal(a.weights, b.weights)


@pytest.mark.parametrize("outer,inner,margin,expected", [
    (box([0.0, 0.0], [1.0, 1.0]), box([0.0, 0.0], [1.0, 1.0]), 0.0, True),
    (box([0.0, 0.0], [1.0, 1.0]), box([0.2, 0.0], [1.0, 1.0]), 0.0, False),
    (box([0.0, 0.0], [1.0, 1.0]), box([0.2, 0.0], [1.0, 1.0]), 0.2, True),
    (box([0.0, 0.0], [1.0, 1.0]), ball([0.5, 0.0], 0.5), 0.0, True),
    (box([0.0, 0.0], [1.0, 1.0]), ball([0.6, 0.0], 0.5), 0.0, False),
    (ball([0.0, 0.0], 1.0), ball([0.3, 0.4], 0.5), 0.0, True),
    (ball([0.0, 0.0], 1.0), ball([0.3, 0.4], 0.6), 0.0, False),
    (ball([0.0, 0.0], 1.0), box([0.0, 0.0], [0.7, 0.7]), 0.0, True),
    (ball([0.0, 0.0], 1.0), box([0.0, 0.0], [0.8, 0.8]), 0.0, False),
    (ball([0.0, 0.0], 1.0), box([0.0, 0.0], [0.8, 0.8]), 0.1, True),
    (interval(-1.0, 1.0), interval(-0.5, 1.5), 0.5, True),
])
def test_domain_covers(outer, inner, margin, expected):
    assert outer.covers(inner, margin) is expected


def test_domains_compare_by_kind_center_and_extents():
    assert box([0, 0], [1, 1]) == box([0.0, 0.0], [1.0, 1.0])
    assert interval(-1.0, 1.0) == interval(-1.0, 1.0)
    assert interval(-1.0, 1.0) != interval(-3.0, 3.0)
    assert box([0.0, 0.0], [1.0, 1.0]) != box([0.0, 0.1], [1.0, 1.0])
    assert box([0.0], [1.0]) != interval(-1.0, 1.0)  # same numbers, other kind
    assert ball([0.0, 0.0], 1.0) != box([0.0, 0.0], [1.0, 1.0])
    assert ball([0.0, 0.0], 1.0) != "ball"


@pytest.mark.parametrize("call", [
    lambda: bbm_constant(2.0),
    lambda: sphere_area(True),
    lambda: sphere_rule(np.float64(2.0), 8),
], ids=["float", "bool", "numpy-float"])
def test_dimension_must_be_an_integer(call):
    # sphere_area(True) returned the 1D area
    with pytest.raises(ConfigurationError, match=r"unsupported dimension .*; expected 1, 2 or 3"):
        call()


@pytest.mark.parametrize("call,message", [
    (lambda: tensor_grid(interval(-1.0, 1.0), 2.5), "tensor grid nodes per axis must be an integer"),
    (lambda: tensor_grid(interval(-1.0, 1.0), True), "tensor grid nodes per axis must be an integer"),
    (lambda: sphere_rule(2, "8"), "sphere rule count must be an integer"),
    (lambda: sphere_rule(2, 8.0), "sphere rule count must be an integer"),
    (lambda: box(["0", "0"], ["1", "1"]), "domain center must be a finite number"),
    (lambda: box([0.0, 0.0], [True, True]), "domain extents must be a finite number"),
    (lambda: ball([0.0], "1"), "domain extents must be a finite number"),
    (lambda: Domain("box", [0.0, 0.0], [1.0, None]), "domain extents must be a finite number"),
    (lambda: direction(["1", "0"]), "direction must be a finite number"),
    (lambda: interval("0", "1"), "interval start must be a finite number"),
    (lambda: gauss_legendre(2.5), "Gauss-Legendre node count must be an integer"),
], ids=["fractional-nodes", "bool-nodes", "text-count", "float-count", "text-box", "bool-extents",
        "text-radius", "none-extent", "text-direction", "text-interval", "fractional-rule"])
def test_counts_and_domain_vectors_must_be_numbers(call, message):
    # tensor_grid(d, 2.5), sphere_rule(2, "8") and interval("0", "1") raised
    # TypeError; the others were accepted
    with pytest.raises(ConfigurationError, match=message):
        call()


@pytest.mark.parametrize("call,message", [
    (lambda: Domain("disc", [0.0, 0.0], [1.0]), "unknown domain kind 'disc'"),
    (lambda: Domain("interval", [0.0, 0.0], [1.0, 1.0]), "intervals are one-dimensional"),
    (lambda: Domain("ball", [0.0, 0.0], [1.0, 2.0]), "a ball takes a single radius extent"),
    (lambda: box([0.0, 0.0, 0.0], [1.0, 1.0]), "box extents must match the dimension"),
    (lambda: direction([0.0, 0.0]), "cannot normalize a zero or non-finite vector"),
    (lambda: sphere_rule(2, 0), "sphere rule needs count >= 1"),
    (lambda: tensor_grid(box([0.0, 0.0], [1.0, 1.0]), 0),
     "tensor grid needs at least one node per axis"),
    (lambda: gauss_legendre(0), "a Gauss-Legendre rule needs at least one node"),
], ids=["unknown-kind", "2d-interval", "ball-two-extents", "box-extents-dimension",
        "zero-direction", "no-directions", "no-nodes", "no-rule-nodes"])
def test_malformed_domains_directions_and_rules_are_refused(call, message):
    with pytest.raises(ConfigurationError, match=message):
        call()
