import math
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bbm_magnetic import functionals, quadrature
from bbm_magnetic.constants import bbm_constant
from bbm_magnetic.corpus import resolve_field, resolve_potential
from bbm_magnetic.errors import ConfigurationError
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
    translation_difference_sq,
    uniform_bound_check,
)
from bbm_magnetic.geometry import ball, box, interval, tensor_grid
from bbm_magnetic.operator import fractional_magnetic_apply, local_magnetic_apply
from bbm_magnetic.quadrature import QuadratureSpec, pairwise_sum, tail_integral_many

from .oracles import brute_gagliardo_1d, gauss1d_energy_closed_form

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


def test_taylor_correct_requires_gradient():
    bare = ScalarField(1, value=lambda p: np.exp(-p[..., 0] ** 2).astype(complex))
    A = resolve_potential("zero", 1)
    with pytest.raises(ConfigurationError):
        magnetic_seminorm_sq(bare, A, D1, 0.5, SPEC1)
    # drop mode accepts gradient-free fields
    v = magnetic_seminorm_sq(bare, A, D1, 0.5, replace(SPEC1, near_field="drop")).value
    assert v > 0.0


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
    (full,) = fullspace_seminorms_sq(u, A, d, [0.8], spec)
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
    assert fullspace_seminorm_sq(u, A, D1, 0.5, SPEC1).value == 0.0


def test_fullspace_requires_compact_field():
    u = resolve_field("gauss1d")
    A = resolve_potential("zero", 1)
    with pytest.raises(ValueError):
        fullspace_seminorm_sq(u, A, D1, 0.5, SPEC1)


def test_fullspace_refuses_a_domain_smaller_than_the_support():
    # extended by zero outside the half-width interval, the bump would have
    # a jump there: its full-space seminorm read 700-2400 times the target
    u = resolve_field("bump1d")
    A = resolve_potential("linear:alpha=1", 1)
    small = interval(-0.5, 0.5)
    for call in (lambda: fullspace_seminorm_sq(u, A, small, 0.5, SPEC1),
                 lambda: fullspace_seminorms_sq(u, A, small, [0.5, 0.9], SPEC1),
                 lambda: uniform_bound_check(u, A, small, [0.5, 0.9], SPEC1)):
        with pytest.raises(ValueError, match="support of bump1d to lie inside the domain"):
            call()


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
def test_fullspace_checks_the_support_before_computing(monkeypatch, support, domain, inside):
    def no_compute(*_args, **_kwargs):
        raise AssertionError("computed")

    monkeypatch.setattr(functionals, "magnetic_seminorms_sq", no_compute)
    sup, margin = support
    u = replace(_zero_field(2), support_domain=sup, support_margin=margin)
    call = partial(fullspace_seminorms_sq, u, resolve_potential("zero", 2), domain, [0.5],
                   QuadratureSpec(outer_nodes=4, angular_nodes=8, radial_nodes=2))
    if inside:
        with pytest.raises(AssertionError, match="computed"):
            call()
    else:
        with pytest.raises(ValueError, match="to lie inside the domain"):
            call()


def test_mollifier_inputs_must_be_finite():
    fam = gaussian_family([2, 4], 1)
    for delta in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            check_mollifier(fam, 1, delta)
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
    full = fullspace_seminorm_sq(u, A, D1, 0.5, SPEC1).value
    assert abs((full - dom) - cross_oracle) / cross_oracle < 1e-5


def test_fullspace_node_count_is_the_real_outer_grid_size_on_a_ball():
    # a ball's outer grid masks out the box corners, so the cross term sees
    # fewer than outer_nodes**N points
    u = resolve_field("bump2d")
    A = resolve_potential("landau:beta=1", 2)
    d = ball([0.0, 0.0], 1.5)
    spec = QuadratureSpec(outer_nodes=8, angular_nodes=16, radial_nodes=4)
    real = tensor_grid(d, spec.outer_nodes).points.shape[0]
    assert real < spec.outer_nodes**2
    dom = magnetic_seminorm_sq(u, A, d, 0.7, spec)
    full = fullspace_seminorm_sq(u, A, d, 0.7, spec)
    assert full.node_count == dom.node_count + real


def test_fullspace_exceeds_domain_seminorm_and_tail_shrinks():
    u = resolve_field("bump1d")
    A = resolve_potential("linear:alpha=1", 1)
    tails = []
    for s in (0.8, 0.9, 0.95, 0.99):
        dom = magnetic_seminorm_sq(u, A, D1, s, SPEC1).value
        full = fullspace_seminorm_sq(u, A, D1, s, SPEC1).value
        assert full > dom
        tails.append((1.0 - s) * (full - dom))
    assert all(b < a for a, b in zip(tails, tails[1:]))


# ---------------------------------------------------------------------------
# Mollifiers
# ---------------------------------------------------------------------------


def test_mollified_zero_kernel():
    from bbm_magnetic.functionals import RadialMollifier

    rho = RadialMollifier(1, lambda r: np.zeros_like(r), lambda e: np.zeros_like(np.asarray(e)),
                          1.0, 0.0)
    u = resolve_field("gauss1d")
    A = resolve_potential("zero", 1)
    assert mollified_functional(u, A, D1, rho, SPEC1).value == 0.0


def test_bbm_member_identity_with_seminorm():
    # with psi0 == 1 on [0, diam], the mollified functional is identically
    # 2(1-s) times the squared seminorm on the same nodes
    u = resolve_field("gauss1d")
    A = resolve_potential("linear:alpha=1", 1)
    fam = bbm_family([0.5, 0.75, 0.9], r_domain=D1.diameter(), dim=1)
    for member in fam.members:
        mv = mollified_functional(u, A, D1, member, SPEC1).value
        sv = 2.0 * (1.0 - member.param) * magnetic_seminorm_sq(u, A, D1, member.param, SPEC1).value
        assert abs(mv - sv) / sv < 1e-10


def test_mollified_taylor_correct_requires_gradient():
    # the mollified functional shares the seminorm's near-field hook, so a
    # gradient-free field is refused in taylor-correct mode instead of losing
    # its sub-cutoff term; in drop mode the bbm identity still holds
    bare = ScalarField(1, value=lambda p: np.exp(-p[..., 0] ** 2).astype(complex))
    A = resolve_potential("linear:alpha=1", 1)
    member = bbm_family([0.9], r_domain=D1.diameter(), dim=1).members[0]
    with pytest.raises(ConfigurationError):
        mollified_functional(bare, A, D1, member, SPEC1)
    drop = replace(SPEC1, near_field="drop")
    mv = mollified_functional(bare, A, D1, member, drop).value
    sv = 2.0 * (1.0 - 0.9) * magnetic_seminorm_sq(bare, A, D1, 0.9, drop).value
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
            lambda: fullspace_seminorm_sq(u, A, D1, 0.5, SPEC1),
            lambda: mollified_functional(u, A, D1, member, SPEC1),
            lambda: translation_difference_sq(u, A, [0.1], grid),
            lambda: uniform_bound_check(u, A, D1, [0.5], SPEC1),
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
    assert_allclose(fam.members[0].fn(r), 1.0, rtol=1e-14)


@pytest.mark.parametrize("dim", [0, 4, 2.0, True])
def test_family_builders_reject_unsupported_dimension(dim):
    message = f"unsupported dimension {dim}; expected 1, 2 or 3"
    with pytest.raises(ConfigurationError, match=message):
        gaussian_family([2, 4], dim)
    with pytest.raises(ConfigurationError, match=message):
        bbm_family([0.8, 0.9], 2.0, dim)


def test_bbm_family_normalization_trend():
    fam = bbm_family([0.8, 0.9, 0.95, 0.99], r_domain=2.0, dim=1)
    checks = check_mollifier(fam, 1, 0.1)
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
    checks = check_mollifier(fam, 1, 0.1)
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

    zero = RadialMollifier(1, lambda r: np.zeros_like(r),
                           lambda e: np.zeros_like(np.asarray(e)), 1.0, 1.0)
    fam = MollifierFamily("custom", (zero, zero))
    checks = check_mollifier(fam, 1, 0.1)
    assert all(c.m0 == 0.0 for c in checks)  # violates the normalization limit


def test_mollifier_rejects_negative_kernel():
    from bbm_magnetic.functionals import RadialMollifier

    rho = RadialMollifier(1, lambda r: -np.ones_like(r),
                          lambda e: np.zeros_like(np.asarray(e)), 1.0, 1.0)
    u = resolve_field("gauss1d")
    A = resolve_potential("zero", 1)
    with pytest.raises(ValueError):
        mollified_functional(u, A, D1, rho, SPEC1)


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
        rho = RadialMollifier(1, lambda r, _l=lam: _l * base.fn(r),
                              lambda e, _l=lam: _l * np.asarray(base.near_moment(e)),
                              base.support_radius, base.param)
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


def test_uniform_bound_zero_field():
    u = replace(_zero_field(1), support_domain=D1, support_margin=0.1)
    A = resolve_potential("zero", 1)
    rep = uniform_bound_check(u, A, D1, [0.5, 0.9], SPEC1)
    assert all(r == 0.0 for _, r in rep)


def test_uniform_bound_ratios_bounded_and_converge():
    u = resolve_field("bump1d")
    A = resolve_potential("linear:alpha=1", 1)
    rep = uniform_bound_check(u, A, D1, [0.5, 0.7, 0.9, 0.99], SPEC1)
    ratios = [r for _, r in rep]
    assert max(ratios) / min(ratios) <= 5.0
    grid = tensor_grid(D1, 160)
    denom = l2_norm_sq(u, grid) + local_magnetic_energy(u, A, D1, grid).value
    expected_limit = bbm_constant(1) * local_magnetic_energy(u, A, D1, grid).value / denom
    assert abs(ratios[-1] - expected_limit) / expected_limit < 0.05


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------


def test_diamagnetic_inequality_on_corpus():
    spec_drop = replace(SPEC1, near_field="drop")
    cases = [("gauss1d", "linear:alpha=1"), ("bump1d", "linear:alpha=1"),
             ("modgauss1d:kappa=1", "const:alpha=0.7")]
    for flabel, plabel in cases:
        u = resolve_field(flabel)
        A = resolve_potential(plabel, 1)
        A0 = resolve_potential("zero", 1)
        lhs = magnetic_seminorm_sq(modulus_field(u), A0, D1, 0.6, spec_drop).value
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

    u = ScalarField(3, value=lambda p: np.exp(-np.sum(p * p, axis=-1)).astype(complex),
                    gradient=lambda p: (-2.0 * p * np.exp(-np.sum(p * p, axis=-1))[..., None]).astype(complex))
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


def _gauss3d():
    return ScalarField(3, value=lambda p: np.exp(-np.sum(p * p, axis=-1)).astype(complex),
                       gradient=lambda p: (-2.0 * p * np.exp(-np.sum(p * p, axis=-1))[..., None]).astype(complex))


def _symmetric3d():
    return VectorPotential(3, lambda p: 0.5 * np.stack(
        [-p[..., 1], p[..., 0], np.zeros(p.shape[:-1])], axis=-1), label="symmetric")


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
        "ball3d": (_gauss3d(), _symmetric3d(), ball([0.0, 0.0, 0.0], 1.0),
                   QuadratureSpec(outer_nodes=4, angular_nodes=16, radial_nodes=3)),
    }


def _assert_same(batched, single):
    assert batched.value == single.value
    assert batched.estimated_error == single.estimated_error
    assert batched.node_count == single.node_count


@pytest.mark.parametrize("near_field", ["taylor-correct", "drop"])
@pytest.mark.parametrize("case", ["interval", "box2d", "ball2d", "ball3d"])
def test_batched_functionals_equal_single_calls(case, near_field):
    u, A, d, spec = _batch_cases()[case]
    spec = replace(spec, near_field=near_field)
    s_list = [0.6, 0.9, 0.99]
    for k, value in enumerate(magnetic_seminorms_sq(u, A, d, s_list, spec)):
        _assert_same(value, magnetic_seminorm_sq(u, A, d, s_list[k], spec))
    families = [gaussian_family([2, 8], d.dimension),
                bbm_family([0.7, 0.95], d.diameter(), d.dimension)]
    for fam in families:
        for rho, value in zip(fam.members, mollified_functionals(u, A, d, fam.members, spec)):
            _assert_same(value, mollified_functional(u, A, d, rho, spec))


@pytest.mark.parametrize("near_field", ["taylor-correct", "drop"])
def test_batched_fullspace_equals_single_calls(near_field):
    u, A = resolve_field("bump1d"), resolve_potential("linear:alpha=1", 1)
    spec = replace(SPEC1, outer_nodes=32, near_field=near_field)
    s_list = [0.5, 0.9, 0.999]
    for s, value in zip(s_list, fullspace_seminorms_sq(u, A, D1, s_list, spec)):
        _assert_same(value, fullspace_seminorm_sq(u, A, D1, s, spec))


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


def test_check_mollifier_checks_each_members_dimension():
    from bbm_magnetic.functionals import MollifierFamily

    mixed = MollifierFamily("gaussian", gaussian_family([2], 1).members
                            + gaussian_family([4], 2).members)
    with pytest.raises(ConfigurationError, match="mollifier 4 is 2-dimensional, asked for 1"):
        check_mollifier(mixed, 1, 0.1)


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
    (lambda: check_mollifier(gaussian_family([2], 1), 1, "0.1"),
     "delta must be positive and finite, got '0.1'"),
    (lambda: gaussian_family(5, 1), "gaussian family indices must be a list, got 5"),
    (lambda: gaussian_family([[2, 4], [6]], 1), "gaussian family index must be an integer"),
], ids=["text-r-domain", "text-delta", "integer-indices", "ragged-indices"])
def test_family_builders_refuse_ill_typed_arguments(call, message):
    # the first three raised TypeError
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        call()


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
