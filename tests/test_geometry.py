import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bbm_magnetic.constants import dimensional_constants
from bbm_magnetic.errors import ConfigurationError
from bbm_magnetic.geometry import (
    Direction,
    Domain,
    ball,
    boundary_distance,
    box,
    direction,
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


def test_direction_unit_invariant():
    with pytest.raises(ConfigurationError):
        Direction(np.array([1.0, 1.0]))
    w = direction([3.0, 4.0])
    assert_allclose(np.linalg.norm(w.unit), 1.0, atol=1e-14)


def test_boundary_distance_interval_center():
    d = interval(-1.0, 1.0)
    assert boundary_distance(d, [0.0], direction([1.0])) == pytest.approx(1.0)


def test_boundary_distance_ball_collinear():
    d = ball([0.0, 0.0], 1.0)
    assert boundary_distance(d, [0.5, 0.0], direction([1.0, 0.0])) == pytest.approx(0.5)


def test_boundary_distance_box_diagonal():
    # ray-box intersection solved by hand: from the center of [-1,1]^2 along
    # the diagonal the exit point is (1, 1), at distance sqrt(2)
    d = box([0.0, 0.0], [1.0, 1.0])
    w = direction([1.0, 1.0])
    assert boundary_distance(d, [0.0, 0.0], w) == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_boundary_distance_rejects_exterior_points():
    d = interval(-1.0, 1.0)
    with pytest.raises(ValueError):
        boundary_distance(d, [1.0], direction([1.0]))
    with pytest.raises(ValueError):
        boundary_distance(d, [2.0], direction([1.0]))


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
        fwd = boundary_distance(d, x, w)
        bwd = boundary_distance(d, x, Direction(-w.unit))
        chord = _ray_face_exit(lo, hi, x, w.unit) + _ray_face_exit(lo, hi, x, -w.unit)
        assert_allclose(fwd + bwd, chord, rtol=1e-12)


def test_chord_property_ball():
    rng = np.random.default_rng(7)
    d = ball([0.0, 0.0], 1.0)
    for _ in range(20):
        x = 0.7 * rng.standard_normal(2)
        while np.linalg.norm(x) >= 0.9:
            x = 0.7 * rng.standard_normal(2)
        w = direction(rng.standard_normal(2))
        fwd = boundary_distance(d, x, w)
        bwd = boundary_distance(d, x, Direction(-w.unit))
        # chord length through x: 2*sqrt(r^2 - dist(center, line)^2)
        perp = x - np.dot(x, w.unit) * w.unit
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


def test_tensor_grid_box_weights_exact():
    d = box([0.0, 0.0], [1.0, 0.5])
    g = tensor_grid(d, 6)
    assert_allclose(g.weights.sum(), d.volume(), rtol=1e-13)
    assert np.all(g.weights > 0.0)


def test_tensor_grid_ball_mask_converges():
    d = ball([0.0, 0.0], 1.0)
    err = [abs(tensor_grid(d, n).weights.sum() - d.volume()) for n in (24, 96)]
    assert err[1] < err[0]


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
    lambda: dimensional_constants(2.0),
    lambda: sphere_area(True),
    lambda: sphere_rule(np.float64(2.0), 8),
], ids=["float", "bool", "numpy-float"])
def test_dimension_must_be_an_integer(call):
    # dimensional_constants(2.0) returned dim=2.0, sphere_area(True) the 1D area
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
], ids=["fractional-nodes", "bool-nodes", "text-count", "float-count", "text-box", "bool-extents",
        "text-radius", "none-extent"])
def test_counts_and_domain_vectors_must_be_numbers(call, message):
    # tensor_grid(d, 2.5) and sphere_rule(2, "8") raised TypeError; the others were accepted
    with pytest.raises(ConfigurationError, match=message):
        call()
