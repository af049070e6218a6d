import ast
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bbm_magnetic.corpus import resolve_field, resolve_potential
from bbm_magnetic.errors import ConfigurationError
from bbm_magnetic.fields import (
    GaugeFunction,
    VectorPotential,
    gauge_transform,
    magnetic_difference,
    magnetic_difference_sq,
    magnetic_gradient,
    midpoint_phase,
    modulus_field,
)
from bbm_magnetic.functionals import local_magnetic_energy
from bbm_magnetic.geometry import ball, box, interval, tensor_grid

FIELDS = ["gauss1d", "bump1d", "modgauss1d:kappa=1", "gauss2d", "bump2d", "gauss3d", "bump3d"]
POTENTIALS_1D = ["zero", "const:alpha=1", "linear:alpha=1"]


def _interior_points(dim, n, rng):
    return -0.8 + 1.6 * rng.random((n, dim))


@pytest.mark.parametrize("label", FIELDS)
def test_gradient_matches_finite_differences(label):
    u = resolve_field(label)
    rng = np.random.default_rng(42)
    pts = _interior_points(u.dim, 10, rng)
    grad = u.gradient(pts)
    step = 1e-5
    for axis in range(u.dim):
        e = np.zeros(u.dim)
        e[axis] = step
        fd = (u.value(pts + e) - u.value(pts - e)) / (2.0 * step)
        scale = np.maximum(np.abs(grad[:, axis]), 1e-3)
        assert np.max(np.abs(fd - grad[:, axis]) / scale) < 1e-6


@pytest.mark.parametrize("label", FIELDS)
def test_hessian_matches_gradient_differences(label):
    u = resolve_field(label)
    assert u.hessian is not None
    rng = np.random.default_rng(3)
    pts = _interior_points(u.dim, 10, rng)
    hess = u.hessian(pts)
    assert np.max(np.abs(hess - np.swapaxes(hess, -1, -2))) < 1e-10
    step = 1e-5
    for axis in range(u.dim):
        e = np.zeros(u.dim)
        e[axis] = step
        fd = (u.gradient(pts + e) - u.gradient(pts - e)) / (2.0 * step)
        scale = np.maximum(np.abs(hess[:, axis, :]), 1e-2)
        assert np.max(np.abs(fd - hess[:, axis, :]) / scale) < 1e-5


@pytest.mark.parametrize("label", ["bump1d", "bump2d", "bump3d"])
def test_compact_fields_vanish_on_boundary_shell(label):
    u = resolve_field(label)
    assert u.is_compact
    d = u.support_domain
    lo, hi = d.bounding_box()
    rng = np.random.default_rng(11)
    # sample the shell: points within support_margin of the boundary
    pts = lo + (hi - lo) * rng.random((200, u.dim))
    shell = ~d.contains(pts, margin=u.support_margin)
    vals = np.abs(u.value(pts[shell]))
    assert vals.size > 0
    assert float(vals.max()) < 1e-14


@pytest.mark.parametrize("label", POTENTIALS_1D)
def test_potential_divergence_matches_finite_differences(label):
    A = resolve_potential(label, 1)
    rng = np.random.default_rng(5)
    pts = _interior_points(1, 20, rng)
    step = 1e-6
    fd = np.zeros(len(pts))
    for axis in range(1):
        e = np.zeros(1)
        e[axis] = step
        fd += (A(pts + e)[:, axis] - A(pts - e)[:, axis]) / (2.0 * step)
    assert np.max(np.abs(fd - A.divergence(pts))) < 1e-6


def test_landau_divergence_free_and_bounded():
    A = resolve_potential("landau:beta=1", 2)
    rng = np.random.default_rng(9)
    pts = _interior_points(2, 50, rng)
    assert np.all(A.divergence(pts) == 0.0)
    assert np.all(np.isfinite(A(pts)))


def test_midpoint_phase_zero_potential():
    A = resolve_potential("zero", 1)
    assert midpoint_phase(A, np.array([0.3]), np.array([-0.6])) == pytest.approx(1.0)


def test_midpoint_phase_constant_potential_closed_form():
    alpha, h = 0.7, 0.4
    A = resolve_potential(f"const:alpha={alpha}", 1)
    got = midpoint_phase(A, np.array([h]), np.array([0.0]))
    assert_allclose(got, np.exp(1j * alpha * h), rtol=1e-14)


def test_midpoint_phase_landau_hand_value():
    # x=(1,0), y=(0,0): A(midpoint)=(0, 0.25), (x-y).A = 0 -> phase 1
    A = resolve_potential("landau:beta=1", 2)
    got = midpoint_phase(A, np.array([1.0, 0.0]), np.array([0.0, 0.0]))
    assert_allclose(got, 1.0 + 0.0j, atol=1e-15)


@pytest.mark.parametrize("label,dim", [("zero", 1), ("const:alpha=1", 1),
                                       ("linear:alpha=1", 1), ("landau:beta=1", 2)])
def test_midpoint_phase_antisymmetry(label, dim):
    A = resolve_potential(label, dim)
    rng = np.random.default_rng(17)
    x = rng.standard_normal((100, dim))
    y = rng.standard_normal((100, dim))
    prod = midpoint_phase(A, x, y) * midpoint_phase(A, y, x)
    assert np.max(np.abs(prod - 1.0)) < 1e-14
    assert np.max(np.abs(np.abs(midpoint_phase(A, x, y)) - 1.0)) < 1e-14


def _same_bits(a, b):
    """Equal shape, dtype and bytes; unlike np.array_equal, this tells -0.0
    from +0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _coordinate_major(p):
    """p as the (..., N) view of a coordinate-major (N, ...) array, the
    layout the quadrature engine hands to closures."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(p, -1, 0)), 0, -1)


def _summed_phase(A, x, y):
    return np.exp(1j * np.sum((x - y) * A(0.5 * (x + y)), axis=-1))


# Every component nonzero, so the order in which the dot product adds its
# three terms shows in the bits.
_GENERIC_3D = VectorPotential(
    3, lambda p: np.stack([np.sin(p[..., 1]), p[..., 2] * p[..., 0], np.cos(p[..., 0])], axis=-1),
    label="generic")
_PHASE_POTENTIALS = ([resolve_potential(label, 1) for label in POTENTIALS_1D]
                     + [resolve_potential(label, 2) for label in ("zero", "landau:beta=1")]
                     + [resolve_potential("landau:beta=1", 3), _GENERIC_3D])


@pytest.mark.parametrize("A", _PHASE_POTENTIALS, ids=lambda A: f"{A.label}-{A.dim}d")
def test_midpoint_phase_bits_equal_the_summed_formula(A):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((6, 1, 1, A.dim))
    y = rng.standard_normal((6, 4, 5, A.dim))
    expected = _summed_phase(A, x, y)
    assert _same_bits(midpoint_phase(A, x, y), expected)
    assert _same_bits(midpoint_phase(A, x, _coordinate_major(y)), expected)
    assert _same_bits(midpoint_phase(A, x, np.broadcast_to(x, y.shape)),
                      _summed_phase(A, x, np.broadcast_to(x, y.shape)))
    x1, y1 = x[0, 0, 0], y[0, 0, 0]
    assert _same_bits(midpoint_phase(A, x1, y1), _summed_phase(A, x1, y1))


@pytest.mark.parametrize("label", FIELDS)
def test_field_closures_give_the_same_bits_on_coordinate_major_points(label):
    u = resolve_field(label)
    rng = np.random.default_rng(23)
    # Beyond [-1, 1] too, so the bumps' zero branch is exercised.
    p = -1.3 + 2.6 * rng.random((5, 3, 7, u.dim))
    for fn in (u.value, u.gradient, u.hessian):
        if fn is not None:
            assert _same_bits(fn(_coordinate_major(p)), fn(p))


def test_three_term_last_axis_sum_gives_the_same_bits_on_coordinate_major_points():
    # A user closure in 3D, such as exp(-|p|^2), reduces over a strided axis
    # on the engine's points; numpy adds the three terms in the same order.
    p = np.random.default_rng(31).standard_normal((13, 16, 78, 3))
    assert _same_bits(np.sum(_coordinate_major(p) ** 2, axis=-1), np.sum(p**2, axis=-1))


@pytest.mark.parametrize("label,dim", [(label, 1) for label in POTENTIALS_1D]
                         + [("zero", 2), ("landau:beta=1", 2), ("zero", 3),
                            ("landau:beta=1", 3)])
def test_potential_closures_give_the_same_bits_on_coordinate_major_points(label, dim):
    A = resolve_potential(label, dim)
    p = np.random.default_rng(29).standard_normal((5, 3, 7, dim))
    assert _same_bits(A(_coordinate_major(p)), A(p))
    assert _same_bits(A.divergence(_coordinate_major(p)), A.divergence(p))


def test_affine_gauge_phase_identity():
    # phase under A + b equals e^{i(phi(x)-phi(y))} times the phase under A
    A = resolve_potential("linear:alpha=0.5", 1)
    g = GaugeFunction([0.9], 0.2)
    _, A_shift = gauge_transform(resolve_field("gauss1d"), A, g)
    rng = np.random.default_rng(23)
    x = rng.standard_normal((100, 1))
    y = rng.standard_normal((100, 1))
    lhs = midpoint_phase(A_shift, x, y)
    rhs = np.exp(1j * (g(x) - g(y))) * midpoint_phase(A, x, y)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_gauge_transform_identity_gauge():
    u = resolve_field("gauss1d")
    A = resolve_potential("linear:alpha=1", 1)
    u2, A2 = gauge_transform(u, A, GaugeFunction([0.0], 0.0))
    pts = np.linspace(-0.9, 0.9, 7)[:, None]
    assert_allclose(u2.value(pts), u.value(pts), rtol=1e-15)
    assert_allclose(A2(pts), A(pts), rtol=1e-15)


def test_pure_gauge_has_zero_local_energy():
    # u identically 1 under phi(x) = alpha x becomes (e^{i alpha x}, alpha),
    # whose magnetic energy vanishes identically
    from bbm_magnetic.fields import ScalarField

    ones = ScalarField(
        1,
        value=lambda p: np.ones(p.shape[:-1], dtype=complex),
        gradient=lambda p: np.zeros(p.shape, dtype=complex),
        label="one",
    )
    d = interval(-1.0, 1.0)
    grid = tensor_grid(d, 64)
    zero_pot = resolve_potential("zero", 1)
    u2, A2 = gauge_transform(ones, zero_pot, GaugeFunction([1.1]))
    assert local_magnetic_energy(u2, A2, d, grid).value < 1e-28


def test_gauge_invariance_of_energy_2d():
    u = resolve_field("gauss2d")
    A = resolve_potential("zero", 2)
    d = box([0.0, 0.0], [1.0, 1.0])
    grid = tensor_grid(d, 32)
    u2, A2 = gauge_transform(u, A, GaugeFunction([1.0, 0.0]))
    e1 = local_magnetic_energy(u, A, d, grid).value
    e2 = local_magnetic_energy(u2, A2, d, grid).value
    assert_allclose(e2, e1, rtol=1e-12)


def test_modulus_field_real_nonnegative_unchanged():
    u = resolve_field("gauss1d")
    m = modulus_field(u)
    pts = np.linspace(-0.8, 0.8, 5)[:, None]
    assert_allclose(m.value(pts), u.value(pts), rtol=1e-15)
    assert m.gradient is None


def test_modulus_of_unit_modulus_wave():
    u = resolve_field("modgauss1d:kappa=3")
    m = modulus_field(u)
    pts = np.linspace(-0.5, 0.5, 5)[:, None]
    assert_allclose(m.value(pts), np.exp(-pts[:, 0] ** 2), rtol=1e-14)


def test_modulus_complex_scalar_multiple():
    u = resolve_field("gauss1d")
    from bbm_magnetic.fields import scaled_field

    m = modulus_field(scaled_field(u, 1.0 + 1.0j))
    pts = np.array([[-0.7], [-0.2], [0.0], [0.4], [0.9]])
    assert_allclose(m.value(pts), np.sqrt(2.0) * np.exp(-pts[:, 0] ** 2), rtol=1e-14)


def test_unknown_labels_raise():
    with pytest.raises(ConfigurationError):
        resolve_field("nosuchfield")
    with pytest.raises(ConfigurationError):
        resolve_potential("nosuchpot", 1)
    with pytest.raises(ConfigurationError):
        resolve_potential("landau:beta=1", 1)  # wrong dimension
    with pytest.raises(ConfigurationError):
        resolve_field("modgauss1d:kappa=abc")


@pytest.mark.parametrize("call,message", [
    (lambda: resolve_field(3), "field label must be a string, got 3"),
    (lambda: resolve_potential(3, 1), "potential label must be a string, got 3"),
], ids=["field", "potential"])
def test_a_label_that_is_not_a_string_is_refused(call, message):
    # both raised AttributeError: 'int' object has no attribute 'partition'
    with pytest.raises(ConfigurationError, match=message):
        call()


@pytest.mark.parametrize("label,dim", [("landau", 1), ("const", 2), ("linear", 3)])
def test_a_potential_refusal_names_the_dimension_asked_for(label, dim):
    # landau in 1D read "potential 'landau' is 2-dimensional", though it has a 3D form
    with pytest.raises(ConfigurationError) as info:
        resolve_potential(label, dim)
    assert str(info.value) == f"potential {label!r} has no {dim}-dimensional form"


def test_a_field_is_compact_exactly_when_it_has_a_support_domain():
    from dataclasses import replace

    gauss = resolve_field("gauss1d")
    assert not gauss.is_compact
    assert replace(gauss, support_domain=interval(-1.0, 1.0)).is_compact
    assert not replace(resolve_field("bump1d"), support_domain=None).is_compact



def _known_labels(resolve, label):
    with pytest.raises(ConfigurationError, match="known: ") as info:
        resolve(label)
    return ast.literal_eval(str(info.value).split("known: ")[1])


def test_unknown_label_messages_list_the_table_entries_with_defaults():
    fields = _known_labels(resolve_field, "nosuchfield")
    assert fields == ["gauss1d", "bump1d", "modgauss1d:kappa=1", "gauss2d", "bump2d",
                      "gauss3d", "bump3d"]
    for label in fields:
        resolve_field(label)
    pots = _known_labels(lambda lab: resolve_potential(lab, 1), "nosuchpot")
    assert pots == ["zero", "const:alpha=1", "linear:alpha=1", "landau:beta=1"]
    for label in pots:
        resolve_potential(label, 2 if label.startswith("landau") else 1)


def test_magnetic_difference_is_gauge_covariant_and_vanishes_on_the_diagonal():
    # u(x) - e^{i (x-y).A((x+y)/2)} u(y) picks up the factor e^{i phi(x)}
    # under an affine gauge change, and is 0 at x = y
    u, A = resolve_field("gauss2d"), resolve_potential("landau:beta=1.5", 2)
    g = GaugeFunction(np.array([0.7, -1.3]), 0.4)
    ug, Ag = gauge_transform(u, A, g)
    rng = np.random.default_rng(7)
    x, y = _interior_points(2, 50, rng), _interior_points(2, 50, rng)
    diff = magnetic_difference(u, A, x, y)
    assert diff.shape == (50,) and np.all(np.abs(diff) > 0.0)
    assert_allclose(magnetic_difference(ug, Ag, x, y), np.exp(1j * g(x)) * diff,
                    rtol=0.0, atol=1e-13)
    assert np.all(magnetic_difference(u, A, x, x) == 0.0)
    assert_allclose(diff, u(x) - midpoint_phase(A, x, y) * u(y), rtol=0.0, atol=0.0)


# Every corpus field with every potential of its dimension.
_FIELD_POTENTIAL_PAIRS = (
    [(f, p) for f in ("gauss1d", "bump1d", "modgauss1d:kappa=1") for p in POTENTIALS_1D]
    + [(f, p) for f in ("gauss2d", "bump2d", "gauss3d", "bump3d") for p in ("zero", "landau:beta=1")]
)


def _distinct_pairs(dim, seed):
    # Beyond [-1, 1] too, so the bumps' zero branch is exercised.
    rng = np.random.default_rng(seed)
    x, y = (-1.3 + 2.6 * rng.random((2000, dim)) for _ in range(2))
    keep = np.linalg.norm(x - y, axis=-1) >= 1e-3
    return x[keep], y[keep]


@pytest.mark.parametrize("label,pot", _FIELD_POTENTIAL_PAIRS, ids=str)
def test_magnetic_difference_sq_is_the_squared_magnetic_difference(label, pot):
    u = resolve_field(label)
    A = resolve_potential(pot, u.dim)
    x, y = _distinct_pairs(u.dim, 17)
    sq = magnetic_difference_sq(u, A, x, y)
    ref = np.abs(magnetic_difference(u, A, x, y)) ** 2
    # 1e-12 relative, but where the difference cancels (|u(x)| = |u(y)| under
    # a pure gauge), both forms carry the rounding of the field values
    scale = (np.abs(u(x)) + np.abs(u(y))) ** 2
    assert np.all(np.abs(sq - ref) <= 1e-12 * ref + 1e-15 * scale)
    assert np.all(magnetic_difference_sq(u, A, x, x) == 0.0)
    # the engine integrates each pair along one direction only
    assert_allclose(magnetic_difference_sq(u, A, y, x), sq, rtol=1e-14, atol=0.0)
    g = GaugeFunction(np.linspace(0.7, -1.3, u.dim), 0.4)
    ug, Ag = gauge_transform(u, A, g)
    assert np.all(np.abs(magnetic_difference_sq(ug, Ag, x, y) - sq) <= 1e-12 * sq + 1e-15 * scale)
    # the engine's layout: a (1, P, N) outer and a (K, P, N) inner view
    outer, inner = x[None, :40], y[:200].reshape(5, 40, u.dim)
    assert _same_bits(magnetic_difference_sq(u, A, _coordinate_major(outer), _coordinate_major(inner)),
                      magnetic_difference_sq(u, A, outer, inner))
    assert _same_bits(magnetic_difference_sq(u, A, x[0], y[0]), sq[0])


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is double here")
def test_magnetic_difference_sq_near_the_diagonal_against_long_double():
    # modgauss1d under A = 3x at |x - y| from 1e-6 to 2, against the same
    # formula in long double; the bounds are the complex form's errors,
    # |u(x) - exp(i theta) u(y)|^2 with theta's cosine and sine, on these pairs
    u, A = resolve_field("modgauss1d:kappa=1"), resolve_potential("linear:alpha=3", 1)
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, 20_000)
    y = x + np.exp(rng.uniform(np.log(1e-6), np.log(2.0), x.size)) * rng.choice([-1.0, 1.0], x.size)
    xl, yl = x.astype(np.longdouble), y.astype(np.longdouble)

    def ul(p):
        return np.exp(1j * p.astype(np.clongdouble) - p * p)

    theta = (xl - yl) * 3 * (xl + yl) / 2
    ref = np.abs(ul(xl) - np.exp(1j * theta.astype(np.clongdouble)) * ul(yl)) ** 2
    sq = magnetic_difference_sq(u, A, x[:, None], y[:, None])
    err = (np.abs(sq - ref) / ref).astype(float)
    assert np.median(err) <= 2.8e-14
    assert np.quantile(err, 0.99) <= 1.1e-10
    assert err.max() <= 5.4e-10


# Each label's closures as the corpus wrote them when it had one factory
# per dimension (gauss3d and the 3D landau are the benchmark's hand-built
# ball closures); the dimension-generic factories must keep their bits.
def _masked(t, inner):
    out = np.zeros_like(t, dtype=float)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = inner(ti, 1.0 - ti * ti)
    return out


def _b0(t):
    return _masked(t, lambda t, q: np.exp(-1.0 / q))


def _b1(t):
    return _masked(t, lambda t, q: np.exp(-1.0 / q) * (-2.0 * t / q**2))


def _b2(t):
    return _masked(t, lambda t, q: np.exp(-1.0 / q)
                   * (4.0 * t * t / q**4 - 2.0 / q**2 - 8.0 * t * t / q**3))


def _gauss(p):
    return np.exp(-np.sum(p * p, axis=-1))


def _modgauss(p, kappa=1.5):
    x = p[..., 0]
    return np.exp(1j * kappa * x - x * x)


_GAUSS_CLOSURES = (
    lambda p: _gauss(p).astype(complex),
    lambda p: (-2.0 * p * _gauss(p)[..., None]).astype(complex),
    lambda p: ((4.0 * p[..., :, None] * p[..., None, :] - 2.0 * np.eye(p.shape[-1]))
               * _gauss(p)[..., None, None]).astype(complex),
)
_FIELD_CLOSURES = {
    **{f"gauss{dim}d": _GAUSS_CLOSURES for dim in (1, 2, 3)},
    "bump1d": (lambda p: _b0(p[..., 0]).astype(complex),
               lambda p: _b1(p[..., 0]).astype(complex)[..., None],
               lambda p: _b2(p[..., 0]).astype(complex)[..., None, None]),
    "modgauss1d:kappa=1.5": (
        _modgauss,
        lambda p: ((1j * 1.5 - 2.0 * p[..., 0]) * _modgauss(p))[..., None],
        lambda p: (((1j * 1.5 - 2.0 * p[..., 0]) ** 2 - 2.0) * _modgauss(p))[..., None, None]),
    "bump2d": (lambda p: (_b0(p[..., 0]) * _b0(p[..., 1])).astype(complex),
               lambda p: np.stack([_b1(p[..., 0]) * _b0(p[..., 1]),
                                   _b0(p[..., 0]) * _b1(p[..., 1])], axis=-1).astype(complex),
               None),
}
_POTENTIAL_CLOSURES = {
    **{("zero", dim): (np.zeros_like, lambda p: np.zeros(p.shape[:-1])) for dim in (1, 2, 3)},
    ("const:alpha=0.7", 1): (lambda p: np.full_like(p, 0.7), lambda p: np.zeros(p.shape[:-1])),
    ("linear:alpha=-1.3", 1): (lambda p: -1.3 * p, lambda p: np.full(p.shape[:-1], -1.3)),
    ("landau:beta=1.5", 2): (
        lambda p: np.stack([-0.5 * 1.5 * p[..., 1], 0.5 * 1.5 * p[..., 0]], axis=-1),
        lambda p: np.zeros(p.shape[:-1])),
    ("landau:beta=1", 3): (
        lambda p: 0.5 * np.stack([-p[..., 1], p[..., 0], np.zeros(p.shape[:-1])], axis=-1),
        lambda p: np.zeros(p.shape[:-1])),
}


def _closure_points(dim):
    rng = np.random.default_rng(37)
    # Beyond [-1, 1] too, so the bumps' zero branch is exercised.
    p = -1.3 + 2.6 * rng.random((5, 3, 7, dim))
    return [p, _coordinate_major(p), p[0, 0, 0]]


@pytest.mark.parametrize("label", list(_FIELD_CLOSURES))
def test_field_closures_keep_the_bits_of_their_written_out_expressions(label):
    u = resolve_field(label)
    for p in _closure_points(u.dim):
        for fn, expected in zip((u.value, u.gradient, u.hessian), _FIELD_CLOSURES[label]):
            if expected is not None:
                assert _same_bits(fn(p), expected(p))


@pytest.mark.parametrize("label,dim", list(_POTENTIAL_CLOSURES), ids=str)
def test_potential_closures_keep_the_bits_of_their_written_out_expressions(label, dim):
    A = resolve_potential(label, dim)
    value, divergence = _POTENTIAL_CLOSURES[label, dim]
    for p in _closure_points(dim):
        assert _same_bits(A(p), value(p))
        assert _same_bits(A.divergence(p), divergence(p))


def test_landau_in_3d_is_the_planar_gauge_with_the_field_along_the_third_axis():
    A2, A3 = resolve_potential("landau:beta=1.5", 2), resolve_potential("landau:beta=1.5", 3)
    p = np.random.default_rng(41).standard_normal((50, 3))
    a = A3(p)
    assert _same_bits(np.ascontiguousarray(a[:, :2]), A2(p[:, :2]))
    assert np.all(a[:, 2] == 0.0)
    step = 1e-6
    dx, dy = np.array([step, 0.0, 0.0]), np.array([0.0, step, 0.0])
    curl_z = (A3(p + dx)[:, 1] - A3(p - dx)[:, 1] - A3(p + dy)[:, 0] + A3(p - dy)[:, 0]) / (2 * step)
    assert_allclose(curl_z, 1.5, rtol=1e-8)


def test_magnetic_gradient_needs_an_analytic_gradient():
    u, A = modulus_field(resolve_field("gauss1d")), resolve_potential("zero", 1)
    with pytest.raises(ConfigurationError, match="field with an analytic gradient"):
        magnetic_gradient(u, A, np.zeros((3, 1)))


@pytest.mark.parametrize("dim", [0, 4, True, 2.0])
def test_potentials_refuse_an_unsupported_dimension(dim):
    # resolve_potential("zero", True) built a potential of dimension True
    with pytest.raises(ConfigurationError, match="unsupported dimension"):
        resolve_potential("zero", dim)


def _zeros(p):
    return np.zeros(p.shape[:-1], dtype=complex)


@pytest.mark.parametrize("changes,message", [
    ({"dim": 0}, "unsupported dimension 0; expected 1, 2 or 3"),
    ({"dim": "x"}, "unsupported dimension x; expected 1, 2 or 3"),
    ({"value": 3}, "field value must be callable, got 3"),
    ({"gradient": 1.0}, "field gradient must be callable or None, got 1.0"),
    ({"hessian": "h"}, "field hessian must be callable or None, got 'h'"),
    ({"support_domain": interval(-0.5, 0.5)},
     "field support domain must be None or a 2-dimensional Domain, got Domain(kind='interval'"),
    ({"support_domain": ball([0.0, 0.0, 0.0], 0.5)},
     "field support domain must be None or a 2-dimensional Domain, got Domain(kind='ball'"),
    ({"support_domain": "box"}, "field support domain must be None or a 2-dimensional Domain, "
                                "got 'box'"),
    ({"support_margin": -0.1}, "field support margin must be >= 0, got -0.1"),
    ({"support_margin": math.inf}, "field support margin must be a finite number, got inf"),
    ({"support_margin": "0"}, "field support margin must be a finite number, got '0'"),
], ids=["dim-0", "dim-text", "value", "gradient", "hessian", "interval-support",
        "ball-support", "text-support", "negative-margin", "inf-margin", "text-margin"])
def test_a_scalar_field_checks_its_own_fields(changes, message):
    # dim 0 and "x" were accepted; the interval support passed the full-space
    # support check on the unit box by broadcasting, and the 3D ball raised
    # ValueError there
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        replace(resolve_field("gauss2d"), **changes)


@pytest.mark.parametrize("args,message", [
    ((7, _zeros), "unsupported dimension 7; expected 1, 2 or 3"),
    ((1, None), "potential value must be callable, got None"),
    ((1, _zeros, 2.0), "potential divergence must be callable or None, got 2.0"),
], ids=["dim-7", "no-value", "divergence"])
def test_a_vector_potential_checks_its_own_fields(args, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        VectorPotential(*args)

