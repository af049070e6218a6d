import math
import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bbm_magnetic import functionals, operator, quadrature
from bbm_magnetic.corpus import resolve_field, resolve_potential
from bbm_magnetic.errors import ConfigurationError, IntegrationError
from bbm_magnetic.fields import (
    GaugeFunction,
    ScalarField,
    VectorPotential,
    gauge_transform,
    modulus_field,
    scaled_field,
)
from bbm_magnetic.functionals import (
    MollifierFamily,
    RadialMollifier,
    bbm_family,
    check_mollifier,
    fullspace_seminorm_sq,
    fullspace_seminorms_sq,
    gaussian_family,
    l2_norm_sq,
    local_magnetic_energy,
    magnetic_seminorm_sq,
    magnetic_seminorms_sq,
    mollified_functional,
    mollified_functionals,
    smoothstep_cutoff,
    translation_difference_sq,
)
from bbm_magnetic.geometry import ball, box, interval, sphere_area, tensor_grid
from bbm_magnetic.harness import default_spec
from bbm_magnetic.operator import (fractional_magnetic_apply, local_magnetic_apply,
                                   operator_limit_scan)
from bbm_magnetic.quadrature import QuadratureSpec, pairwise_sum, tail_integral_many

from .oracles import (brute_gagliardo_1d, gauss1d_energy_closed_form,
                      linear_gauge_gaussian_seminorm_sq)

D1 = interval(-1.0, 1.0)
SPEC1 = QuadratureSpec(outer_nodes=160, angular_nodes=2, radial_nodes=10)


def _zero_field(dim):
    return ScalarField(
        dim,
        value=lambda p: np.zeros(p.shape[:-1], dtype=complex),
        gradient=lambda p: np.zeros(p.shape, dtype=complex),
        label="null",
    )


def test_seminorm_of_zero_field_is_zero():
    A = resolve_potential("linear:alpha=1", 1)
    assert magnetic_seminorm_sq(_zero_field(1), A, D1, 0.6, SPEC1).value == 0.0


def test_classical_reduction_against_brute_force():
    # A = 0 reduces to the classical Gagliardo seminorm; coarse live oracle
    u = resolve_field("gauss1d")
    A = resolve_potential("zero", 1)
    ref = brute_gagliardo_1d(lambda t: np.exp(-t * t), lambda t: -2 * t * np.exp(-t * t),
                             -1.0, 1.0, 0.5, n=800)
    got = magnetic_seminorm_sq(u, A, D1, 0.5, SPEC1).value
    assert abs(got - ref) / ref < 1e-4


def test_pure_gauge_seminorm_vanishes():
    alpha = 0.9
    u = ScalarField(1, value=lambda p: np.exp(1j * alpha * p[..., 0]),
                    gradient=lambda p: (1j * alpha * np.exp(1j * alpha * p[..., 0]))[..., None])
    A = resolve_potential(f"const:alpha={alpha}", 1)
    for s in (0.4, 0.8):
        assert magnetic_seminorm_sq(u, A, D1, s, SPEC1).value < 1e-10


@pytest.mark.parametrize("d,label,potential", [
    (D1, "gauss1d", "linear:alpha=1"),
    (box([0.0, 0.0], [1.0, 1.0]), "gauss2d", "landau:beta=1"),
])
def test_fields_without_a_gradient_get_the_same_bits(d, label, potential):
    # the engine reads values only: dropping the gradient changes no bit of
    # the seminorms or of the mollified functionals
    u, A = resolve_field(label), resolve_potential(potential, d.dimension)
    bare = replace(u, gradient=None, hessian=None)
    spec = QuadratureSpec(outer_nodes=12, angular_nodes=2 if d.dimension == 1 else 8,
                          radial_nodes=8)
    s_list = [0.6, 0.99]
    for with_grad, without in zip(magnetic_seminorms_sq(u, A, d, s_list, spec),
                                  magnetic_seminorms_sq(bare, A, d, s_list, spec)):
        assert with_grad == without
    members = (gaussian_family([2, 8], d.dimension).members
               + bbm_family(s_list, d.diameter(), d.dimension).members)
    assert (mollified_functionals(u, A, d, members, spec)
            == mollified_functionals(bare, A, d, members, spec))


@pytest.mark.parametrize("call", [
    lambda spec: magnetic_seminorms_sq(resolve_field("gauss1d"), resolve_potential("zero", 1), D1,
                                       [0.9], spec),
    lambda spec: fullspace_seminorms_sq(resolve_field("bump1d"), resolve_potential("zero", 1),
                                        [0.9], spec),
    lambda spec: mollified_functionals(resolve_field("gauss1d"), resolve_potential("zero", 1), D1,
                                       gaussian_family([2], 1).members, spec),
    lambda spec: quadrature.double_integral_singular(
        lambda x, y: np.sum((x - y) ** 2, axis=-1), D1, 0.9, spec),
    lambda spec: quadrature.tail_integral(D1, [0.0], 0.9, spec.angular_nodes),
    lambda spec: operator_limit_scan(resolve_field("gauss1d"), resolve_potential("zero", 1),
                                     [0.0], [0.9], spec),
], ids=["seminorms", "fullspace", "mollified", "double-integral", "tail", "operator"])
@pytest.mark.parametrize("angular", [1, 8])
def test_a_1d_spec_with_other_than_two_directions_is_refused_before_any_pass(
        call, angular, monkeypatch):
    # each took the two directions whatever the count, which a config file may not set
    for module, name in [(quadrature, "radial_angular"), (quadrature, "boundary_distances"),
                         (operator, "ray_rule"), (operator, "magnetic_difference")]:
        monkeypatch.setattr(module, name, _no_compute)
    spec = QuadratureSpec(outer_nodes=8, angular_nodes=angular, radial_nodes=8)
    with pytest.raises(ConfigurationError, match=r"^quadrature angular_nodes must be 2 in 1D, "
                       rf"the directions \+1 and -1, got {angular}$"):
        call(spec)


# exp(-|x|^2) is below 3e-16 beyond half-width 6, so the box of half-width 6
# as its support domain changes the seminorm by less than rounding.
@pytest.mark.parametrize("dim,potential,M,spec,rtol", [
    (1, "linear:alpha=0", [[0.0]], default_spec(1), 4e-9),
    (1, "linear:alpha=1", [[1.0]], default_spec(1), 4e-9),
    (1, "linear:alpha=3", [[3.0]], default_spec(1), 4e-9),
    (2, "landau:beta=1", [[0.0, -0.5], [0.5, 0.0]], QuadratureSpec(32, 64, 32), 1.5e-4),
    (2, "landau:beta=4", [[0.0, -2.0], [2.0, 0.0]], QuadratureSpec(32, 64, 32), 1.5e-4),
], ids=["1d-alpha=0", "1d-alpha=1", "1d-alpha=3", "2d-beta=1", "2d-beta=4"])
def test_fullspace_seminorms_of_a_gaussian_match_the_closed_form(dim, potential, M, spec, rtol):
    # largest errors seen: 2.8e-9 in 1D, 9.4e-5 in 2D (at beta = 1)
    s_list = [0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99]
    u = replace(resolve_field(f"gauss{dim}d"), support_domain=box([0.0] * dim, [6.0] * dim))
    got = fullspace_seminorms_sq(u, resolve_potential(potential, dim), s_list, spec)
    exact = [linear_gauge_gaussian_seminorm_sq(s, 1.0, M) for s in s_list]
    assert_allclose([r.value for r in got], exact, rtol=rtol)


def test_local_energy_constant_field_zero_potential():
    ones = ScalarField(1, value=lambda p: np.ones(p.shape[:-1], dtype=complex),
                       gradient=lambda p: np.zeros(p.shape, dtype=complex))
    A = resolve_potential("zero", 1)
    grid = tensor_grid(D1, 32)
    assert local_magnetic_energy(ones, A, D1, grid).value == 0.0


def test_local_energy_gauss1d_closed_form():
    u = resolve_field("gauss1d")
    A = resolve_potential("zero", 1)
    grid = tensor_grid(D1, 160)
    got = local_magnetic_energy(u, A, D1, grid).value
    assert_allclose(got, gauss1d_energy_closed_form(), rtol=1e-8)


def test_energy_estimate_is_the_distance_to_the_coarse_rung():
    # the energy's coarse grid is the engine's outer rung, max(4, n // 2)
    u = resolve_field("gauss1d")
    A = resolve_potential("linear:alpha=1", 1)
    v5 = local_magnetic_energy(u, A, D1, tensor_grid(D1, 5))
    v4 = local_magnetic_energy(u, A, D1, tensor_grid(D1, 4)).value
    assert v5.estimated_error == abs(v5.value - v4)


def test_energy_on_a_four_node_grid_is_compared_one_rung_up():
    # 4 nodes is its own rung down; the estimate compares the 8-node grid
    u = resolve_field("gauss1d")
    A = resolve_potential("linear:alpha=1", 1)
    v4 = local_magnetic_energy(u, A, D1, tensor_grid(D1, 4))
    v8 = local_magnetic_energy(u, A, D1, tensor_grid(D1, 8)).value
    assert v4.estimated_error == abs(v4.value - v8)
    assert v4.estimated_error > 1e-2


def test_fullspace_cross_term_estimate_uses_the_engine_coarse_rung():
    # in 2D the coarse rung halves the directions of the cross term's tails
    d = box([0.0, 0.0], [1.0, 1.0])
    u = resolve_field("bump2d")
    A = resolve_potential("landau:beta=1", 2)
    spec = QuadratureSpec(outer_nodes=8, angular_nodes=16, radial_nodes=4)
    (full,) = fullspace_seminorms_sq(u, A, [0.8], spec)
    (dom,) = functionals.magnetic_seminorms_sq(u, A, d, [0.8], spec)

    def cross(n, angular):
        grid = tensor_grid(d, n)
        (tail,) = tail_integral_many(d, grid.points, [0.8], angular)
        return 2.0 * float(pairwise_sum(grid.weights * np.abs(u.value(grid.points)) ** 2 * tail))

    expected = dom.estimated_error + abs(cross(8, 16) - cross(4, 8))
    assert full.estimated_error == expected


def test_local_energy_pure_gauge_zero():
    alpha = 1.3
    u = ScalarField(1, value=lambda p: np.exp(1j * alpha * p[..., 0]),
                    gradient=lambda p: (1j * alpha * np.exp(1j * alpha * p[..., 0]))[..., None])
    A = resolve_potential(f"const:alpha={alpha}", 1)
    grid = tensor_grid(D1, 64)
    assert local_magnetic_energy(u, A, D1, grid).value < 1e-28


def test_fullspace_zero_field():
    u = replace(_zero_field(1), support_domain=D1, support_margin=0.1)
    A = resolve_potential("zero", 1)
    assert fullspace_seminorm_sq(u, A, 0.5, SPEC1).value == 0.0


def test_fullspace_requires_compact_field():
    u = resolve_field("gauss1d")
    A = resolve_potential("zero", 1)
    with pytest.raises(ValueError, match="requires a field with a support domain"):
        fullspace_seminorm_sq(u, A, 0.5, SPEC1)


def test_mollifier_inputs_must_be_finite():
    fam = gaussian_family([2, 4], 1)
    for delta in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            check_mollifier(fam, delta)
    for r_domain in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="cutoff radius must be positive and finite"):
            bbm_family([0.8, 0.9], r_domain, 1)


def test_fullspace_cross_term_matches_1d_oracle():
    # frozen from a composite Gauss-Legendre oracle of
    # 2 * int u^2 ((x+1)^{-1} + (1-x)^{-1}) dx for the bump at s = 1/2
    cross_oracle = 0.6195449402380488
    u = resolve_field("bump1d")
    A = resolve_potential("linear:alpha=1", 1)
    dom = magnetic_seminorm_sq(u, A, D1, 0.5, SPEC1).value
    full = fullspace_seminorm_sq(u, A, 0.5, SPEC1).value
    assert abs((full - dom) - cross_oracle) / cross_oracle < 1e-5


def test_fullspace_node_count_is_the_real_outer_grid_size_on_a_ball():
    # a ball's outer grid is a polar rule, ceil(n/2) radii times n directions
    # on a disk, so the cross term sees fewer than outer_nodes**N points;
    # bump2d vanishes outside this ball too
    d = ball([0.0, 0.0], 1.5)
    u = replace(resolve_field("bump2d"), support_domain=d, support_margin=0.0)
    A = resolve_potential("landau:beta=1", 2)
    spec = QuadratureSpec(outer_nodes=8, angular_nodes=16, radial_nodes=4)
    real = tensor_grid(d, spec.outer_nodes).points.shape[0]
    assert real < spec.outer_nodes**2
    dom = magnetic_seminorm_sq(u, A, d, 0.7, spec)
    full = fullspace_seminorm_sq(u, A, 0.7, spec)
    assert full.node_count == dom.node_count + real


def test_fullspace_names_the_field_as_what_set_the_dimension():
    # it takes no domain, yet the message read "the domain is 1-dimensional"
    with pytest.raises(ConfigurationError) as info:
        fullspace_seminorms_sq(resolve_field("bump1d"), resolve_potential("landau", 2), [0.5],
                               default_spec(1))
    assert str(info.value) == ("potential 'landau:beta=1' is 2-dimensional, "
                               "the field is 1-dimensional")


# int_0^1 r^4 e^(-2 r^2) dr, by parts from the error function
_J0 = math.sqrt(math.pi / 8.0) * math.erf(math.sqrt(2.0))
_J4 = (3.0 * (_J0 - math.exp(-2.0)) / 4.0 - math.exp(-2.0)) / 4.0


@pytest.mark.parametrize("label,dim,n,exact,tol", [
    # |grad u - iAu|^2 = (4 + beta^2/6) r^2 e^(-2 r^2) averaged over the sphere
    ("gauss3d", 3, 12, (4.0 + 1.0 / 6.0) * 4.0 * math.pi * _J4, 1e-6),
    # (4 + beta^2/4) r^2 e^(-2 r^2) on the disk: 2 pi (4 + 1/4) (1 - 3 e^-2) / 8
    ("gauss2d", 2, 24, 2.0 * math.pi * 4.25 * (1.0 - 3.0 * math.exp(-2.0)) / 8.0, 1e-12),
])
def test_local_energy_on_a_ball_matches_its_closed_form(label, dim, n, exact, tol):
    # the masked box grid this rule replaced was 2.8e-2 (3D) and 1.9e-2 (2D) off
    d = ball([0.0] * dim, 1.0)
    u, A = resolve_field(label), resolve_potential("landau:beta=1", dim)
    energy = local_magnetic_energy(u, A, d, tensor_grid(d, n))
    assert abs(energy.value / exact - 1.0) < tol


@pytest.mark.parametrize("d,direct_nodes,tol", [
    (interval(-2.0, 2.0), 640, 1e-5),
    # S reaches past the domain inside its margin, where the field vanishes
    (interval(-0.99, 0.99), 1280, 1e-7),
], ids=["wide", "cut"])
def test_a_compact_field_inside_its_domain_is_integrated_on_its_support(d, direct_nodes, tol):
    # [u]^2(d x d) = [u]^2(S x S) + 2 int_S |u|^2 (tail_S - tail_d) against a
    # direct pass over d x d, for which the field forgets its support
    u, A = resolve_field("bump1d"), resolve_potential("linear:alpha=1", 1)
    s_list, spec = [0.5, 0.9, 0.99], default_spec(1)
    routed = magnetic_seminorms_sq(u, A, d, s_list, spec)
    plain = replace(u, support_domain=None, support_margin=0.0)
    direct = magnetic_seminorms_sq(plain, A, d, s_list, replace(spec, outer_nodes=direct_nodes))
    for r, v in zip(routed, direct):
        assert abs(r.value / v.value - 1.0) < tol
    # the S x S pass's points, then at most one outer grid's for the cross term
    support_pass = spec.outer_nodes * spec.radial_nodes
    assert support_pass < routed[0].node_count <= support_pass + spec.outer_nodes


def test_a_compact_field_on_its_own_support_takes_the_domain_pass():
    u, A = resolve_field("bump2d"), resolve_potential("landau", 2)
    spec = QuadratureSpec(outer_nodes=6, angular_nodes=8, radial_nodes=4)
    plain = replace(u, support_domain=None, support_margin=0.0)
    for own, direct in zip(magnetic_seminorms_sq(u, A, u.support_domain, [0.5, 0.9], spec),
                           magnetic_seminorms_sq(plain, A, u.support_domain, [0.5, 0.9], spec)):
        _assert_same(own, direct)


def test_fullspace_exceeds_domain_seminorm_and_tail_shrinks():
    u = resolve_field("bump1d")
    A = resolve_potential("linear:alpha=1", 1)
    tails = []
    for s in (0.8, 0.9, 0.95, 0.99):
        dom = magnetic_seminorm_sq(u, A, D1, s, SPEC1).value
        full = fullspace_seminorm_sq(u, A, s, SPEC1).value
        assert full > dom
        tails.append((1.0 - s) * (full - dom))
    assert all(b < a for a, b in zip(tails, tails[1:]))


# ---------------------------------------------------------------------------
# Mollifiers
# ---------------------------------------------------------------------------


def test_mollified_zero_kernel():
    from bbm_magnetic.functionals import RadialMollifier

    rho = RadialMollifier(1, lambda r: np.zeros_like(r), 1.0, 0.0)
    u = resolve_field("gauss1d")
    A = resolve_potential("zero", 1)
    assert mollified_functional(u, A, D1, rho, SPEC1).value == 0.0


@pytest.mark.parametrize("field,potential,d,spec", [
    ("gauss1d", "linear:alpha=1", D1, SPEC1),
    ("gauss2d", "landau", box([0.0, 0.0], [1.0, 1.0]), QuadratureSpec(8, 16, 8)),
    ("bump3d", "landau", box([0.0] * 3, [1.0] * 3), QuadratureSpec(4, 16, 6)),
], ids=["interval", "box2d", "box3d"])
def test_bbm_member_identity_with_seminorm(field, potential, d, spec):
    # with psi0 == 1 on [0, diam], the mollified functional is 2(1-s) times
    # the squared seminorm on the same nodes, to rounding
    u, A = resolve_field(field), resolve_potential(potential, d.dimension)
    s_list = [0.5, 0.75, 0.9, 0.99]
    fam = bbm_family(s_list, r_domain=d.diameter(), dim=d.dimension)
    for s, mv, sv in zip(s_list, mollified_functionals(u, A, d, fam.members, spec),
                         magnetic_seminorms_sq(u, A, d, s_list, spec)):
        assert_allclose(mv.value, 2.0 * (1.0 - s) * sv.value, rtol=1e-12)


def test_bbm_identity_holds_for_a_field_without_a_gradient():
    bare = ScalarField(1, value=lambda p: np.exp(-p[..., 0] ** 2).astype(complex))
    A = resolve_potential("linear:alpha=1", 1)
    member = bbm_family([0.9], r_domain=D1.diameter(), dim=1).members[0]
    mv = mollified_functional(bare, A, D1, member, SPEC1).value
    sv = 2.0 * (1.0 - 0.9) * magnetic_seminorm_sq(bare, A, D1, 0.9, SPEC1).value
    assert abs(mv - sv) / sv < 1e-10


def test_functionals_reject_dimension_mismatch():
    u1, u2 = resolve_field("gauss1d"), resolve_field("gauss2d")
    A1, A2 = resolve_potential("zero", 1), resolve_potential("landau:beta=1", 2)
    grid = tensor_grid(D1, 8)
    member = bbm_family([0.9], r_domain=D1.diameter(), dim=1).members[0]
    for u, A in ((u2, A1), (u1, A2)):
        calls = [
            lambda: magnetic_seminorm_sq(u, A, D1, 0.5, SPEC1),
            lambda: local_magnetic_energy(u, A, D1, grid),
            lambda: fullspace_seminorm_sq(u, A, 0.5, SPEC1),
            lambda: mollified_functional(u, A, D1, member, SPEC1),
            lambda: translation_difference_sq(u, A, [0.1], grid),
            lambda: fractional_magnetic_apply(u, A, [0.0], 0.5, SPEC1),
            lambda: local_magnetic_apply(u, A, [0.0]),
        ]
        for call in calls:
            with pytest.raises(ConfigurationError, match="dimensional"):
                call()
    with pytest.raises(ConfigurationError, match="dimensional"):
        l2_norm_sq(u2, grid)


def test_bbm_family_pointwise_value():
    # exponent N + 2s - 2 vanishes for N=1, s=1/2: rho = 2(1-s) = 1 below r_domain
    fam = bbm_family([0.5], r_domain=2.0, dim=1)
    r = np.array([0.5, 1.0, 1.9])
    assert_allclose(fam.members[0].smooth(r), 1.0, rtol=1e-14)


@pytest.mark.parametrize("fam", [gaussian_family([2, 4], 2), bbm_family([0.8, 0.9], 2.0, 3)],
                         ids=["gaussian", "bbm"])
def test_a_members_ray_density_is_its_stored_smooth_factor(fam):
    for rho in fam.members:
        beta, h = functionals._ray_density(rho)
        assert h is rho.smooth
        assert beta == rho.dim - 1.0 - rho.power


def test_bbm_smooth_factor_is_finite_at_the_origin():
    # rho = 2(1-s) r^-(N+2s-2) psi0 is stored without its power of r, so the
    # factor the engine integrates is 2(1-s) up to the cutoff, r = 0 included
    fam = bbm_family([0.6, 0.9], r_domain=1.0, dim=2)
    for rho in fam.members:
        assert_allclose(rho.smooth(np.array([0.0, 0.5, 1.0])), 2.0 * (1.0 - rho.param),
                        rtol=1e-15)
        assert rho.smooth(np.array([2.0]))[0] == 0.0


def test_a_delta_beyond_the_support_has_no_tail():
    # the support radius of gaussian_family([2], 1) is 20, so the tail's
    # range [25, 25] is empty
    (check,) = check_mollifier(gaussian_family([2], 1), 25.0)
    assert check.tail == 0.0


@pytest.mark.parametrize("dim", [0, 4, 2.0, True])
def test_family_builders_reject_unsupported_dimension(dim):
    message = f"unsupported dimension {dim}; expected 1, 2 or 3"
    with pytest.raises(ConfigurationError, match=message):
        gaussian_family([2, 4], dim)
    with pytest.raises(ConfigurationError, match=message):
        bbm_family([0.8, 0.9], 2.0, dim)


def test_bbm_family_normalization_trend():
    fam = bbm_family([0.8, 0.9, 0.95, 0.99], r_domain=2.0, dim=1)
    checks = check_mollifier(fam, 0.1)
    m0 = [c.m0 for c in checks]
    # r_domain^(2-2s) + o(1): 2^0.4, 2^0.2, ... decreasing toward 1
    for c, s in zip(checks, [rho.param for rho in fam.members]):
        assert c.m0 > 2.0 ** (2.0 - 2.0 * s) - 1e-9
    dev = [abs(v - 1.0) for v in m0]
    assert all(b < a for a, b in zip(dev, dev[1:]))
    assert dev[-1] < 0.05
    tails = [c.tail for c in checks]
    assert all(b < a for a, b in zip(tails, tails[1:]))


def test_gaussian_family_moments_trend():
    fam = gaussian_family([10, 14, 18, 24, 32], 1)
    checks = check_mollifier(fam, 0.1)
    for c in checks:
        assert abs(c.m0 - 1.0) < 1e-9
    tails = [c.tail for c in checks]
    m1 = [c.m1 for c in checks]
    m2 = [c.m2 for c in checks]
    assert all(b < a for a, b in zip(tails, tails[1:]))
    assert all(b < a for a, b in zip(m1, m1[1:]))
    assert all(b < a for a, b in zip(m2, m2[1:]))
    assert tails[-1] < 1e-4 and m1[-1] < 0.02


def test_degenerate_zero_family_flagged():
    from bbm_magnetic.functionals import MollifierFamily, RadialMollifier

    zero = RadialMollifier(1, lambda r: np.zeros_like(r), 1.0, 1.0)
    fam = MollifierFamily("custom", (zero, zero))
    checks = check_mollifier(fam, 0.1)
    assert all(c.m0 == 0.0 for c in checks)  # violates the normalization limit


def test_mollifier_rejects_negative_kernel():
    from bbm_magnetic.functionals import RadialMollifier

    rho = RadialMollifier(1, lambda r: -np.ones_like(r), 1.0, 1.0)
    u = resolve_field("gauss1d")
    A = resolve_potential("zero", 1)
    with pytest.raises(ValueError):
        mollified_functional(u, A, D1, rho, SPEC1)


def test_a_kernel_negative_beyond_its_support_radius_is_refused():
    # the rays of (-1, 1) reach r = 2, past the support radius 1.5 up to
    # which the kernel was sampled: it was integrated, to 1.1508
    rho = RadialMollifier(1, lambda r: np.where(r > 1.6, -1.0, 1.0), 1.5, 1.0)
    u, A = resolve_field("gauss1d"), resolve_potential("zero", 1)
    with pytest.raises(ConfigurationError, match="mollifier kernel must be nonnegative"):
        mollified_functional(u, A, D1, rho, SPEC1)


def test_a_kernel_negative_between_the_sign_probes_is_refused():
    # a dip of width 0.025 fell between the 64 points that the sign was
    # sampled at: the functional read -0.1870, with no error
    rho = RadialMollifier(1, lambda r: np.where((r > 0.51) & (r < 0.535), -50.0, 1.0), 1.0, 1.0)
    u, A = resolve_field("gauss1d"), resolve_potential("zero", 1)
    with pytest.raises(ConfigurationError,
                       match=r"mollifier kernel must be nonnegative, got -50 at r=0\.5[123]"):
        mollified_functional(u, A, D1, rho, default_spec(1))


def test_a_nan_kernel_value_is_refused():
    # the NaN was summed: the functional read nan, with no error
    rho = RadialMollifier(1, lambda r: np.where(r > 1.7, np.nan, 1.0), 1.5, 1.0)
    u, A = resolve_field("gauss1d"), resolve_potential("zero", 1)
    for call in (lambda: mollified_functional(u, A, D1, rho, SPEC1),
                 lambda: mollified_functionals(u, A, D1, [bbm_family([0.9], 2.0, 1).members[0], rho],
                                               SPEC1)):
        with pytest.raises(IntegrationError, match=r"mollifier kernel sum is NaN at r=1\.7"):
            call()


def test_an_infinite_kernel_value_is_refused():
    # the infinite sums were kept: the functional read inf, its estimate nan;
    # at SPEC1 inf - inf in the sums stopped on numpy's invalid-value warning
    rho = RadialMollifier(1, lambda r: np.where(r > 1.7, np.inf, 1.0), 1.5, 1.0)
    u, A = resolve_field("gauss1d"), resolve_potential("zero", 1)
    for spec in (default_spec(1), SPEC1):
        with pytest.raises(IntegrationError, match=r"mollifier kernel sum is infinite at r=1\.7"):
            mollified_functional(u, A, D1, rho, spec)


def test_the_moment_report_checks_the_kernel_values_it_integrates():
    # a negative kernel gave m0 = -1.0, and a non-finite one nan or inf
    # moments, with no error
    fam = MollifierFamily("custom", (RadialMollifier(1, lambda r: -np.ones_like(r), 1.0, 1.0),))
    with pytest.raises(ConfigurationError,
                       match=r"mollifier kernel must be nonnegative, got -1 at r=2\.4"):
        check_mollifier(fam, 0.1)
    for bad, what in ((np.inf, "infinite"), (np.nan, "NaN")):
        rho = RadialMollifier(1, lambda r, _b=bad: np.where(r > 0.7, _b, 1.0), 1.0, 1.0)
        with pytest.raises(IntegrationError, match=rf"mollifier kernel sum is {what} at r=0\.7"):
            check_mollifier(MollifierFamily("custom", (rho,)), 0.1)


def test_family_kernels_give_their_formulas_bits():
    # the references are the written-out formulas, built with temporaries
    r = np.random.default_rng(41).uniform(0.0, 3.0, (96, 50))
    for member in gaussian_family([1, 3, 16], 2).members:
        amp, width = 2.0 / (math.gamma(1.0) * (1.0 / member.param) ** 2), 1.0 / member.param
        assert member.smooth(r).tobytes() == (amp * np.exp(-((r / width) ** 2))).tobytes()
        assert member.smooth(0.5) == amp * np.exp(-((0.5 / width) ** 2))
    # a plane within r_domain: the cutoff is 1 there, but NaN still propagates
    inside = np.minimum(r, 2.0)
    assert smoothstep_cutoff(inside, 2.0).tobytes() == np.ones_like(r).tobytes()
    inside[3, 7] = np.nan
    assert np.isnan(smoothstep_cutoff(inside, 2.0)).sum() == 1


def test_smoothstep_cutoff_gives_the_closed_formula_bits():
    # the closed formula, evaluated everywhere, is the reference for the
    # cutoff, which evaluates it only beyond r_domain
    r_domain = 2.0 * math.sqrt(2.0)
    r = np.concatenate([np.linspace(0.0, 3.0 * r_domain, 3001),
                        [r_domain, np.nextafter(r_domain, 3.0), 2.0 * r_domain, np.nan]])
    t = np.clip((r - r_domain) / r_domain, 0.0, 1.0)
    closed = 1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t * t)
    cut = smoothstep_cutoff(r, r_domain)
    assert cut.tobytes() == closed.tobytes()
    assert np.isnan(cut[-1])
    assert smoothstep_cutoff(r[:3000].reshape(60, 50), r_domain).tobytes() == closed[:3000].tobytes()
    for x, want in zip(r[-4:], closed[-4:]):
        got = smoothstep_cutoff(float(x), r_domain)
        assert np.ndim(got) == 0 and isinstance(got, float)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_smoothstep_cutoff_is_nonnegative_just_below_its_outer_radius():
    # the polynomial rounds below 0 there, to -1.55e-15 at r_domain = 1, so
    # the engine's sign check would refuse a bbm kernel whose rays reach it
    for r_domain in (1.0, 2.0, 2.0 * math.sqrt(2.0)):
        r = np.linspace(np.nextafter(2.0 * r_domain, 0.0) - 1e-10 * r_domain, 2.0 * r_domain, 200_000)
        assert smoothstep_cutoff(r, r_domain).min() >= 0.0


def test_a_kernel_singular_beyond_the_dimension_is_refused():
    # rho = r^-1 in 1D: rho(r) r^(N-1) is not integrable at 0, and the
    # product rule's moments would divide by beta + 1 = 0
    from bbm_magnetic.functionals import RadialMollifier

    rho = RadialMollifier(1, lambda r: np.ones_like(r), 1.0, 1.0, power=1.0)
    u, A = resolve_field("gauss1d"), resolve_potential("zero", 1)
    with pytest.raises(ConfigurationError, match="not integrable at 0"):
        mollified_functional(u, A, D1, rho, SPEC1)
    with pytest.raises(ConfigurationError, match="not integrable at 0"):
        check_mollifier(MollifierFamily("custom", (rho,)), 0.1)


def test_mollified_bound_ratio_stable_under_amplitude_scaling():
    # the ratio value / (||rho||_L1 * ||u||^2) is exactly invariant under
    # rho -> lam * rho; this pins the bilinear structure of the bound
    from bbm_magnetic.functionals import RadialMollifier

    u = resolve_field("gauss1d")
    A = resolve_potential("linear:alpha=1", 1)
    base = gaussian_family([4], 1).members[0]
    grid = tensor_grid(D1, 160)
    norm_sq = l2_norm_sq(u, grid) + local_magnetic_energy(u, A, D1, grid).value
    ratios = []
    for lam in (0.3, 1.0, 3.0):
        rho = RadialMollifier(1, lambda r, _l=lam: _l * base.smooth(r), base.support_radius, base.param)
        val = mollified_functional(u, A, D1, rho, SPEC1).value
        l1 = 2.0 * lam  # |S^0| * M0 for the normalized base kernel
        ratios.append(val / (l1 * norm_sq))
    assert max(ratios) / min(ratios) < 1.0 + 1e-12


def test_mollified_bound_ratio_bounded_across_widths():
    # a 10x range of kernel widths keeps value/(||rho||_L1 ||u||^2) bounded
    u = resolve_field("gauss1d")
    A = resolve_potential("linear:alpha=1", 1)
    grid = tensor_grid(D1, 160)
    norm_sq = l2_norm_sq(u, grid) + local_magnetic_energy(u, A, D1, grid).value
    fam = gaussian_family([1, 2, 4, 10], 1)  # widths 1 .. 0.1
    ratios = []
    for member in fam.members:
        val = mollified_functional(u, A, D1, member, SPEC1).value
        ratios.append(val / (2.0 * norm_sq))
    assert max(ratios) / min(ratios) < 10.0


# ---------------------------------------------------------------------------
# Lemma checks
# ---------------------------------------------------------------------------


def _translation_grid(pad=0.15, nodes=200):
    return tensor_grid(box([0.0], [1.0 + pad]), nodes)


def test_translation_zero_shift():
    u = resolve_field("bump1d")
    A = resolve_potential("linear:alpha=1", 1)
    assert translation_difference_sq(u, A, [0.0], _translation_grid()) == 0.0


def test_translation_requires_compact_support_and_small_h():
    A = resolve_potential("linear:alpha=1", 1)
    with pytest.raises(ValueError):
        translation_difference_sq(resolve_field("gauss1d"), A, [0.1], _translation_grid())
    with pytest.raises(ValueError):
        translation_difference_sq(resolve_field("bump1d"), A, [1.5], _translation_grid())


def test_translation_ratio_plateau_and_directional_limit():
    u = resolve_field("bump1d")
    A = resolve_potential("linear:alpha=1", 1)
    grid = _translation_grid()
    hs = [0.1, 0.05, 0.025, 0.0125]
    ratios = [translation_difference_sq(u, A, [h], grid) / h**2 for h in hs]
    assert max(ratios) / min(ratios) < 1.2
    # directional limit: ratio -> int |(grad u - iAu) . omega|^2
    dax = u.gradient(grid.points) - 1j * A(grid.points) * u.value(grid.points)[..., None]
    target = float(np.sum(grid.weights * np.abs(dax[:, 0]) ** 2))
    assert abs(ratios[-1] - target) / target < 0.02


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------


def test_diamagnetic_inequality_on_corpus():
    cases = [("gauss1d", "linear:alpha=1"), ("bump1d", "linear:alpha=1"),
             ("modgauss1d:kappa=1", "const:alpha=0.7")]
    for flabel, plabel in cases:
        u = resolve_field(flabel)
        A = resolve_potential(plabel, 1)
        A0 = resolve_potential("zero", 1)
        lhs = magnetic_seminorm_sq(modulus_field(u), A0, D1, 0.6, SPEC1).value
        rhs = magnetic_seminorm_sq(u, A, D1, 0.6, SPEC1).value
        assert lhs <= rhs + 1e-6


def test_affine_gauge_covariance_seminorm_and_energy():
    u = resolve_field("gauss1d")
    A = resolve_potential("linear:alpha=1", 1)
    u2, A2 = gauge_transform(u, A, GaugeFunction([0.8], 0.3))
    v1 = magnetic_seminorm_sq(u, A, D1, 0.9, SPEC1).value
    v2 = magnetic_seminorm_sq(u2, A2, D1, 0.9, SPEC1).value
    assert abs(v1 - v2) / v1 < 1e-10
    grid = tensor_grid(D1, 160)
    e1 = local_magnetic_energy(u, A, D1, grid).value
    e2 = local_magnetic_energy(u2, A2, D1, grid).value
    assert abs(e1 - e2) / e1 < 1e-10


def test_scaling_homogeneity_bit_exact():
    u = resolve_field("gauss1d")
    A = resolve_potential("linear:alpha=1", 1)
    v1 = magnetic_seminorm_sq(u, A, D1, 0.9, SPEC1).value
    v2 = magnetic_seminorm_sq(scaled_field(u, 2.0), A, D1, 0.9, SPEC1).value
    assert v2 == 4.0 * v1


def test_scaling_homogeneity_complex_factor():
    u = resolve_field("gauss1d")
    A = resolve_potential("linear:alpha=1", 1)
    lam = 1.0 + 1.0j
    v1 = magnetic_seminorm_sq(u, A, D1, 0.8, SPEC1).value
    v2 = magnetic_seminorm_sq(scaled_field(u, lam), A, D1, 0.8, SPEC1).value
    assert abs(v2 - abs(lam) ** 2 * v1) / v2 < 1e-13


def test_three_dimensional_ball_smoke():
    # the full radial-angular path in dimension 3: scaled seminorms approach
    # K_3 times the energy from below as s grows
    from bbm_magnetic.constants import bbm_constant
    from bbm_magnetic.geometry import ball

    u = resolve_field("gauss3d")
    A = resolve_potential("zero", 3)
    d = ball([0.0, 0.0, 0.0], 1.0)
    spec = QuadratureSpec(outer_nodes=10, angular_nodes=128, radial_nodes=6)
    target = bbm_constant(3) * local_magnetic_energy(u, A, d, tensor_grid(d, 14)).value
    gaps = []
    for s in (0.9, 0.95):
        scaled = (1.0 - s) * magnetic_seminorm_sq(u, A, d, s, spec).value
        gaps.append(abs(scaled - target) / target)
    assert gaps[1] < gaps[0] < 0.2


# ---------------------------------------------------------------------------
# Batches: element k equals the single-value call at the k-th s or kernel
# ---------------------------------------------------------------------------


def _batch_cases():
    from bbm_magnetic.geometry import ball

    spec2 = QuadratureSpec(outer_nodes=8, angular_nodes=12, radial_nodes=4)
    return {
        "interval": (resolve_field("gauss1d"), resolve_potential("linear:alpha=1", 1), D1,
                     QuadratureSpec(outer_nodes=24, angular_nodes=2, radial_nodes=6)),
        "box2d": (resolve_field("gauss2d"), resolve_potential("landau:beta=1", 2),
                  box([0.0, 0.0], [1.0, 1.0]), spec2),
        "ball2d": (resolve_field("gauss2d"), resolve_potential("landau:beta=1", 2),
                   ball([0.1, -0.2], 1.0), spec2),
        "ball3d": (resolve_field("gauss3d"), resolve_potential("landau", 3),
                   ball([0.0, 0.0, 0.0], 1.0),
                   QuadratureSpec(outer_nodes=4, angular_nodes=16, radial_nodes=3)),
    }


def _assert_same(batched, single):
    assert batched.value == single.value
    assert batched.estimated_error == single.estimated_error
    assert batched.node_count == single.node_count


@pytest.mark.parametrize("case", ["interval", "box2d", "ball2d", "ball3d"])
def test_batched_functionals_equal_single_calls(case):
    u, A, d, spec = _batch_cases()[case]
    s_list = [0.6, 0.9, 0.99]
    for k, value in enumerate(magnetic_seminorms_sq(u, A, d, s_list, spec)):
        _assert_same(value, magnetic_seminorm_sq(u, A, d, s_list[k], spec))
    # a kernel that returns its argument, the fine radii that a block's
    # kernel members share, runs first and between other kernels
    identity = RadialMollifier(d.dimension, lambda r: r, d.diameter(), 0.0)
    kernel_lists = [gaussian_family([2, 8], d.dimension).members,
                    bbm_family([0.7, 0.95], d.diameter(), d.dimension).members,
                    (identity, *gaussian_family([2], d.dimension).members, identity)]
    for kernels in kernel_lists:
        for rho, value in zip(kernels, mollified_functionals(u, A, d, kernels, spec)):
            _assert_same(value, mollified_functional(u, A, d, rho, spec))


def test_batched_fullspace_equals_single_calls():
    u, A = resolve_field("bump1d"), resolve_potential("linear:alpha=1", 1)
    spec = replace(SPEC1, outer_nodes=32)
    s_list = [0.5, 0.9, 0.999]
    for s, value in zip(s_list, fullspace_seminorms_sq(u, A, s_list, spec)):
        _assert_same(value, fullspace_seminorm_sq(u, A, s, spec))


def test_local_energy_refuses_a_grid_built_on_another_domain():
    # a grid on (-3, 3) integrates the energy there: 1.2533, where the
    # energy over (-1, 1) is 0.9256
    u = resolve_field("gauss1d")
    A = resolve_potential("zero", 1)
    with pytest.raises(ConfigurationError, match="grid built on its own domain"):
        local_magnetic_energy(u, A, D1, tensor_grid(interval(-3.0, 3.0), 64))
    own = local_magnetic_energy(u, A, D1, tensor_grid(interval(-1.0, 1.0), 64)).value
    assert_allclose(own, gauss1d_energy_closed_form(), rtol=1e-8)


def test_gaussian_family_refuses_repeated_indices():
    with pytest.raises(ConfigurationError, match="distinct"):
        gaussian_family([8, 8, 8], 1)
    with pytest.raises(ConfigurationError, match="distinct"):
        gaussian_family([4, 8, 4], 1)


def test_a_family_of_mixed_dimension_is_refused():
    from bbm_magnetic.functionals import MollifierFamily

    with pytest.raises(ConfigurationError,
                       match="mollifier 4 is 2-dimensional, its family's first member is 1-"):
        MollifierFamily("gaussian", gaussian_family([2], 1).members
                        + gaussian_family([4], 2).members)



@pytest.mark.parametrize("functional", [
    mollified_functional,
    lambda u, A, d, rho, spec: mollified_functionals(u, A, d, [rho], spec),
], ids=["single", "batch"])
def test_a_kernel_of_another_dimension_is_refused(monkeypatch, functional):
    monkeypatch.setattr(quadrature, "radial_angular", _no_compute)
    rho = gaussian_family([4], 2).members[0]
    u, A = resolve_field("gauss1d"), resolve_potential("zero", 1)
    with pytest.raises(ConfigurationError, match="mollifier dimension does not match the domain"):
        functional(u, A, D1, rho, SPEC1)

def test_translation_check_reads_compactness_from_the_support_domain():
    grid = _translation_grid()
    A = resolve_potential("linear:alpha=1", 1)
    gauss = resolve_field("gauss1d")
    with pytest.raises(ConfigurationError, match="support domain"):
        translation_difference_sq(gauss, A, [0.1], grid)
    supported = replace(gauss, support_domain=interval(-7.0, 7.0))  # |u| < 1e-21 beyond
    assert translation_difference_sq(supported, A, [0.1], grid) > 0.0


def _no_compute(*_args, **_kwargs):
    raise AssertionError("computed on bad input")


@pytest.mark.parametrize("call,message", [
    (lambda: bbm_family([0.5], "2", 1), "cutoff radius must be positive and finite, got '2'"),
    (lambda: check_mollifier(gaussian_family([2], 1), "0.1"),
     "delta must be positive and finite, got '0.1'"),
    (lambda: gaussian_family(5, 1), "gaussian family indices must be a list, got 5"),
    (lambda: gaussian_family([[2, 4], [6]], 1), "gaussian family index must be an integer"),
    (lambda: gaussian_family([2**1100], 1), "gaussian family index must be a finite number"),
    (lambda: bbm_family([0.5], 2**1100, 1), "cutoff radius must be positive and finite"),
    (lambda: gaussian_family([2, 2**400], 3), "is too large: the amplitude of its kernel"),
], ids=["text-r-domain", "text-delta", "integer-indices", "ragged-indices", "huge-index",
        "huge-r-domain", "underflowing-width"])
def test_family_builders_refuse_ill_typed_arguments(call, message):
    # the first three raised TypeError, the next two OverflowError, the last
    # ZeroDivisionError
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        call()


def test_a_translation_shift_of_another_dimension_is_refused():
    # a 2D shift on a 1D grid raised IndexError
    u, A = resolve_field("bump1d"), resolve_potential("zero", 1)
    with pytest.raises(ConfigurationError,
                       match=re.escape("shift must be a list of 1 numbers, got [0.1, 0.1]")):
        translation_difference_sq(u, A, [0.1, 0.1], tensor_grid(interval(-1.0, 1.0), 16))


@pytest.mark.parametrize("shift", [math.nan, [math.inf], "0.1", ["0.1"], [True], [None]])
def test_translation_shift_must_be_finite_numbers(shift):
    # nan returned nan, and "0.1" ran as the shift 0.1
    u = ScalarField(1, _no_compute, support_domain=D1)
    A = VectorPotential(1, _no_compute)
    with pytest.raises(ConfigurationError, match="shift must be a finite number"):
        translation_difference_sq(u, A, shift, _translation_grid())


def test_an_empty_mollifier_family_is_refused():
    with pytest.raises(ConfigurationError, match="at least one member"):
        MollifierFamily("gaussian", ())


def _ones(r):
    return np.ones_like(r)


@pytest.mark.parametrize("args,message", [
    ((1, _ones, -1.0, 2.0), "mollifier support radius must be positive and finite, got -1.0"),
    ((1, _ones, "1", 2.0), "mollifier support radius must be positive and finite, got '1'"),
    ((7, _ones, 1.0, 2.0), "unsupported dimension 7; expected 1, 2 or 3"),
    ((1, _ones, 1.0, None), "mollifier parameter must be a finite number, got None"),
    ((1, _ones, 1.0, 2.0, math.nan), "mollifier power must be a finite number, got nan"),
    ((1, 3.0, 1.0, 2.0), "mollifier smooth factor must be callable, got 3.0"),
], ids=["negative-support", "text-support", "dimension-7", "no-param", "nan-power", "no-smooth"])
def test_a_radial_mollifier_checks_its_own_fields(args, message):
    # a negative support gave m0 = 0.0 from check_mollifier, dimension 7 had
    # its moments computed and a text support raised TypeError
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        RadialMollifier(*args)


@pytest.mark.parametrize("members,message", [
    ((1, 2), "a mollifier family's members must be RadialMollifiers, got 1"),
    (5, "a mollifier family needs a list or tuple of at least one member, got 5"),
], ids=["int-members", "int"])
def test_family_members_that_are_not_radial_mollifiers_are_refused(members, message):
    # raised AttributeError: 'int' object has no attribute 'dim', and
    # TypeError: 'int' object is not iterable
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        MollifierFamily("c", members)


def test_an_empty_kernel_list_is_refused_before_compute(monkeypatch):
    # two engine passes on the 2D Landau problem used to return []
    monkeypatch.setattr(quadrature, "radial_angular", _no_compute)
    u, A = resolve_field("gauss2d"), resolve_potential("landau:beta=1", 2)
    d = box([0.0, 0.0], [1.0, 1.0])
    spec = QuadratureSpec(outer_nodes=24, angular_nodes=48, radial_nodes=8)
    with pytest.raises(ConfigurationError, match="at least one member"):
        mollified_functionals(u, A, d, [], spec)


@pytest.mark.parametrize("indices", [[2.5, 4.9], [True, 2], [2, 4.0]],
                         ids=["fractional", "bool", "float"])
def test_gaussian_family_refuses_non_integer_indices(indices):
    # [2.5, 4.9] used to build the members 2 and 4
    with pytest.raises(ConfigurationError, match="gaussian family index must be an integer"):
        gaussian_family(indices, 1)
    assert [m.param for m in gaussian_family(np.array([2, 4]), 1).members] == [2.0, 4.0]


@pytest.mark.parametrize("indices", [[8, 2], [2, 8, 4]])
def test_gaussian_family_refuses_indices_out_of_order(indices):
    # [8, 2] used to build the members 2 and 8, in sorted order
    with pytest.raises(ConfigurationError, match="distinct positive integer indices in increasing"):
        gaussian_family(indices, 1)


@pytest.mark.parametrize("call,message", [
    (lambda u, A: mollified_functional(u, A, D1, 5, SPEC1),
     "a mollifier kernel must be a RadialMollifier, got 5"),
    (lambda u, A: mollified_functionals(u, A, D1, [5], SPEC1),
     "a mollifier kernel must be a RadialMollifier, got 5"),
    (lambda u, A: check_mollifier(5, 0.1), "check_mollifier needs a MollifierFamily, got 5"),
    (lambda u, A: local_magnetic_energy(u, A, D1, 5), "expected a TensorGrid, got 5"),
    (lambda u, A: l2_norm_sq(u, 5), "expected a TensorGrid, got 5"),
    (lambda u, A: translation_difference_sq(u, A, [0.1], 5), "expected a TensorGrid, got 5"),
    (lambda u, A: magnetic_seminorms_sq(5, A, D1, [0.5], SPEC1),
     "field must be a ScalarField, got 5"),
    (lambda u, A: fullspace_seminorm_sq(5, A, 0.5, SPEC1),
     "field must be a ScalarField, got 5"),
    (lambda u, A: magnetic_seminorm_sq(u, "zero", D1, 0.5, SPEC1),
     "potential must be a VectorPotential, got 'zero'"),
    (lambda u, A: magnetic_seminorm_sq(u, A, 5, 0.5, SPEC1), "domain must be a Domain, got 5"),
    (lambda u, A: magnetic_seminorm_sq(u, A, D1, 0.5, 5),
     "quadrature must be a QuadratureSpec, got 5"),
    (lambda u, A: mollified_functionals(u, A, D1, bbm_family([0.9], 2.0, 1).members, 5),
     "quadrature must be a QuadratureSpec, got 5"),
    (lambda u, A: mollified_functionals(u, A, D1, gaussian_family([2, 4], 1), SPEC1),
     "mollifier kernels must be a list or tuple, got MollifierFamily("),
    (lambda u, A: fullspace_seminorms_sq(u, A, [0.5], 5),
     "quadrature must be a QuadratureSpec, got 5"),
    (lambda u, A: local_magnetic_energy(u, A, 5, tensor_grid(D1, 8)),
     "domain must be a Domain, got 5"),
    (lambda u, A: quadrature.double_integral_singular(functionals._difference_sq(u, A), 5,
                                                      0.5, SPEC1),
     "domain must be a Domain, got 5"),
    (lambda u, A: tensor_grid(5, 4), "domain must be a Domain, got 5"),
    (lambda u, A: magnetic_seminorm_sq(u, None, D1, 0.5, SPEC1),
     "potential must be a VectorPotential, got None"),
    (lambda u, A: local_magnetic_energy(u, None, D1, tensor_grid(D1, 8)),
     "potential must be a VectorPotential, got None"),
    (lambda u, A: fractional_magnetic_apply(u, A, [0.0], 0.5, 5),
     "quadrature must be a QuadratureSpec, got 5"),
    (lambda u, A: local_magnetic_apply(5, A, [0.0]), "field must be a ScalarField, got 5"),
], ids=["kernel", "kernel-list", "family", "energy-grid", "l2-grid", "translation-grid",
        "seminorms-field", "fullspace-field", "seminorm-potential", "seminorm-domain",
        "seminorm-spec", "mollified-spec", "mollified-family", "fullspace-spec", "energy-domain",
        "double-integral-domain", "tensor-grid-domain", "seminorm-none-potential",
        "energy-none-potential", "operator-spec", "local-operator-field"])
def test_library_inputs_of_the_wrong_type_are_refused(monkeypatch, call, message):
    # each raised AttributeError, or TypeError for a None potential or a
    # family passed as a kernel list: an internal error (exit 4)
    monkeypatch.setattr(quadrature, "radial_angular", _no_compute)
    u, A = resolve_field("bump1d"), resolve_potential("zero", 1)
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        call(u, A)


def test_one_nan_field_gets_one_refusal_from_every_functional():
    # the seminorm's sampling gate said "integrand is NaN on the diagonal",
    # the mollified functional "integrand produced NaN at y=[0.502...]"
    gauss = resolve_field("gauss1d")
    u = replace(gauss, value=lambda p: np.where(p[..., 0] > 0.5, np.nan, 1.0) * gauss.value(p))
    A, spec = resolve_potential("zero", 1), replace(SPEC1, outer_nodes=32)
    rho = bbm_family([0.9], 2.0, 1).members[0]
    messages = set()
    for call in (lambda: magnetic_seminorm_sq(u, A, D1, 0.9, spec),
                 lambda: magnetic_seminorms_sq(u, A, D1, [0.9], spec),
                 lambda: mollified_functional(u, A, D1, rho, spec)):
        with pytest.raises(IntegrationError, match=r"integrand produced NaN at y=\[") as err:
            call()
        messages.add(str(err.value))
    assert len(messages) == 1


def test_only_the_user_integrand_door_samples_the_integrand(monkeypatch):
    # the package's own integrand is 0 on the diagonal and symmetric by
    # construction, so only double_integral_singular runs the sampling gate
    gate = []
    monkeypatch.setattr(quadrature, "_check_diagonal", lambda *args: gate.append(args))
    u, A = resolve_field("gauss1d"), resolve_potential("linear:alpha=1", 1)
    spec = replace(SPEC1, outer_nodes=16, radial_nodes=4)
    rho = bbm_family([0.9], 2.0, 1).members[0]
    magnetic_seminorm_sq(u, A, D1, 0.9, spec)
    magnetic_seminorms_sq(u, A, D1, [0.9], spec)
    mollified_functional(u, A, D1, rho, spec)
    mollified_functionals(u, A, D1, [rho], spec)
    fullspace_seminorms_sq(resolve_field("bump1d"), A, [0.9], spec)
    assert gate == []
    value = quadrature.double_integral_singular(functionals._difference_sq(u, A), D1, 0.9, spec)
    assert len(gate) == 1
    assert value == magnetic_seminorm_sq(u, A, D1, 0.9, spec)


@pytest.mark.parametrize("label,potentials", [
    ("bump1d", ["linear:alpha=1", "zero"]),
    ("bump2d", ["landau", "zero"]),
    ("bump3d", ["landau", "zero"]),
], ids=["1d", "2d-box", "3d-box"])
def test_fullspace_seminorm_tends_to_the_mazya_shaposhnikova_limit(label, potentials):
    # s [u]^2_{s,A}(R^N x R^N) -> |S^(N-1)| ||u||^2 for every A (Maz'ya and
    # Shaposhnikova, J. Funct. Anal. 195, 2002; magnetic case: Pinamonti,
    # Squassina and Vecchi, J. Math. Anal. Appl. 449, 2017).  At s = 0.01 the
    # O(s) term leaves about 1e-2; a quadratic in s through three points
    # removes it, and its distance to the line through the first two is the
    # fit's estimate.
    u = resolve_field(label)
    n, d = u.dim, u.support_domain
    spec, s_list = default_spec(n), [0.01, 0.02, 0.05]
    target = sphere_area(n) * l2_norm_sq(u, tensor_grid(d, spec.outer_nodes))
    limits, estimates = [], []
    for plabel in potentials:
        A = resolve_potential(plabel, n)
        values = fullspace_seminorms_sq(u, A, s_list, spec)
        scaled = [s * v.value for s, v in zip(s_list, values)]
        quadratic = np.polyfit(s_list, scaled, 2)[-1]
        limits.append(quadratic)
        estimates.append(abs(np.polyfit(s_list[:2], scaled[:2], 1)[-1] - quadratic))
        assert abs(quadratic - target) <= 1e-4 * target
    assert abs(limits[0] - limits[1]) <= min(estimates)
