"""Property tests on the 1D, 2D and 3D corpus: gauge covariance, scaling
homogeneity, the diamagnetic inequality, and reports that do not depend on
the thread count."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from bbm_magnetic.corpus import resolve_field, resolve_potential
from bbm_magnetic.fields import GaugeFunction, gauge_transform, modulus_field, scaled_field
from bbm_magnetic.functionals import local_magnetic_energy, magnetic_seminorm_sq
from bbm_magnetic.geometry import ball, box, interval, tensor_grid
from bbm_magnetic.harness import SweepConfig, render_report, run_sweep
from bbm_magnetic.quadrature import QuadratureSpec

D1 = interval(-1.0, 1.0)
SPEC = QuadratureSpec(outer_nodes=96, angular_nodes=2, radial_nodes=10)
GRID = tensor_grid(D1, SPEC.outer_nodes)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=20)

D2 = box([0.0, 0.0], [1.0, 1.0])
# small enough that every 2D test runs in well under a second
SPEC2 = QuadratureSpec(outer_nodes=8, angular_nodes=8, radial_nodes=6)
GRID2 = tensor_grid(D2, SPEC2.outer_nodes)

# a box and a ball, so both boundary branches are reached in 3D
D3 = {"box": box([0.0] * 3, [1.0] * 3), "ball": ball([0.0] * 3, 1.0)}
SPEC3 = QuadratureSpec(outer_nodes=6, angular_nodes=32, radial_nodes=6)
GRID3 = {kind: tensor_grid(d, SPEC3.outer_nodes) for kind, d in D3.items()}
PROPERTY3 = settings(derandomize=True, deadline=None, max_examples=12)

FIELDS = st.sampled_from(["gauss1d", "bump1d", "modgauss1d:kappa=1"])
STRENGTHS = st.floats(-2.0, 2.0)
POTENTIALS = st.builds(lambda kind, a: f"{kind}:alpha={a!r}",
                       st.sampled_from(["const", "linear"]), STRENGTHS)
FIELDS2 = st.sampled_from(["gauss2d", "bump2d"])
LANDAU = st.builds(lambda b: f"landau:beta={b!r}", STRENGTHS)
FIELDS3 = st.sampled_from(["gauss3d", "bump3d"])
DOMAINS3 = st.sampled_from(sorted(D3))


@PROPERTY
@given(FIELDS, POTENTIALS, st.floats(-2.0, 2.0), st.floats(-math.pi, math.pi),
       st.floats(0.55, 0.99))
def test_affine_gauge_covariance(flabel, plabel, b, c, s):
    u, A = resolve_field(flabel), resolve_potential(plabel, 1)
    u2, A2 = gauge_transform(u, A, GaugeFunction([b], c))
    v1 = magnetic_seminorm_sq(u, A, D1, s, SPEC).value
    v2 = magnetic_seminorm_sq(u2, A2, D1, s, SPEC).value
    assert abs(v1 - v2) <= 1e-10 * v1
    e1 = local_magnetic_energy(u, A, D1, GRID).value
    e2 = local_magnetic_energy(u2, A2, D1, GRID).value
    assert abs(e1 - e2) <= 1e-10 * e1


@PROPERTY
@given(st.sampled_from(["gauss1d", "modgauss1d:kappa=1"]), POTENTIALS, st.floats(0.55, 0.99),
       st.integers(-3, 3),
       st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0, allow_nan=False,
                          allow_infinity=False))
def test_scaling_homogeneity(flabel, plabel, s, k, lam):
    u, A = resolve_field(flabel), resolve_potential(plabel, 1)
    v = magnetic_seminorm_sq(u, A, D1, s, SPEC).value
    # a power of two scales every node's value exactly
    assert magnetic_seminorm_sq(scaled_field(u, 2.0**k), A, D1, s, SPEC).value == 4.0**k * v
    v_lam = magnetic_seminorm_sq(scaled_field(u, lam), A, D1, s, SPEC).value
    assert abs(v_lam - abs(lam) ** 2 * v) <= 1e-13 * v_lam


@PROPERTY
@given(FIELDS, POTENTIALS, st.floats(0.3, 0.95))
def test_diamagnetic_inequality(flabel, plabel, s):
    # |u| has no analytic gradient, which the seminorm does not need
    u = resolve_field(flabel)
    lhs = magnetic_seminorm_sq(modulus_field(u), resolve_potential("zero", 1), D1, s, SPEC).value
    rhs = magnetic_seminorm_sq(u, resolve_potential(plabel, 1), D1, s, SPEC).value
    assert lhs <= rhs + 1e-6


S_LISTS = st.lists(st.floats(0.3, 0.99), min_size=1, max_size=5, unique=True).map(
    lambda s: tuple(sorted(s)))


@settings(derandomize=True, deadline=None, max_examples=12)
@given(st.sampled_from(["bbm-domain", "bbm-fullspace"]), S_LISTS, st.integers(1, 6))
def test_reports_do_not_depend_on_the_thread_count(kind, s_list, threads):
    cfg = SweepConfig(kind, "bump1d", "linear:alpha=1", D1, s_list=s_list,
                      spec=QuadratureSpec(outer_nodes=48, angular_nodes=2, radial_nodes=6))
    one, many = run_sweep(cfg, threads=1), run_sweep(cfg, threads=threads)
    for fmt in ("csv", "json"):
        assert render_report(many, fmt) == render_report(one, fmt)


@PROPERTY
@given(FIELDS2, LANDAU, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-math.pi, math.pi),
       st.floats(0.55, 0.99))
def test_affine_gauge_covariance_2d(flabel, plabel, b1, b2, c, s):
    u, A = resolve_field(flabel), resolve_potential(plabel, 2)
    u2, A2 = gauge_transform(u, A, GaugeFunction([b1, b2], c))
    v1 = magnetic_seminorm_sq(u, A, D2, s, SPEC2).value
    v2 = magnetic_seminorm_sq(u2, A2, D2, s, SPEC2).value
    assert abs(v1 - v2) <= 1e-10 * v1
    e1 = local_magnetic_energy(u, A, D2, GRID2).value
    e2 = local_magnetic_energy(u2, A2, D2, GRID2).value
    assert abs(e1 - e2) <= 1e-10 * e1


@PROPERTY
@given(FIELDS2, LANDAU, st.floats(0.3, 0.95))
def test_diamagnetic_inequality_2d(flabel, plabel, s):
    u = resolve_field(flabel)
    lhs = magnetic_seminorm_sq(modulus_field(u), resolve_potential("zero", 2), D2, s, SPEC2).value
    rhs = magnetic_seminorm_sq(u, resolve_potential(plabel, 2), D2, s, SPEC2).value
    assert lhs <= rhs + 1e-6


@settings(derandomize=True, deadline=None, max_examples=8)
@given(S_LISTS, st.integers(2, 6))
def test_2d_landau_reports_do_not_depend_on_the_thread_count(s_list, threads):
    cfg = SweepConfig("bbm-domain", "gauss2d", "landau:beta=1.5", D2, s_list=s_list, spec=SPEC2)
    one, many = run_sweep(cfg, threads=1), run_sweep(cfg, threads=threads)
    for fmt in ("csv", "json"):
        assert render_report(many, fmt) == render_report(one, fmt)


@PROPERTY3
@given(FIELDS3, LANDAU, DOMAINS3, st.lists(STRENGTHS, min_size=3, max_size=3),
       st.floats(-math.pi, math.pi), st.floats(0.55, 0.99))
def test_affine_gauge_covariance_3d(flabel, plabel, kind, b, c, s):
    u, A = resolve_field(flabel), resolve_potential(plabel, 3)
    u2, A2 = gauge_transform(u, A, GaugeFunction(b, c))
    d = D3[kind]
    v1 = magnetic_seminorm_sq(u, A, d, s, SPEC3).value
    v2 = magnetic_seminorm_sq(u2, A2, d, s, SPEC3).value
    assert abs(v1 - v2) <= 1e-10 * v1
    e1 = local_magnetic_energy(u, A, d, GRID3[kind]).value
    e2 = local_magnetic_energy(u2, A2, d, GRID3[kind]).value
    assert abs(e1 - e2) <= 1e-10 * e1


@PROPERTY3
@given(FIELDS3, LANDAU, DOMAINS3, st.floats(0.3, 0.95))
def test_diamagnetic_inequality_3d(flabel, plabel, kind, s):
    u, d = resolve_field(flabel), D3[kind]
    lhs = magnetic_seminorm_sq(modulus_field(u), resolve_potential("zero", 3), d, s, SPEC3).value
    rhs = magnetic_seminorm_sq(u, resolve_potential(plabel, 3), d, s, SPEC3).value
    assert lhs <= rhs + 1e-6
