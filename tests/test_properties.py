"""Property tests on the 1D corpus: gauge covariance, scaling homogeneity,
the diamagnetic inequality, and reports that do not depend on the thread
count."""

import math
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from bbm_magnetic.corpus import resolve_field, resolve_potential
from bbm_magnetic.fields import GaugeFunction, gauge_transform, modulus_field, scaled_field
from bbm_magnetic.functionals import local_magnetic_energy, magnetic_seminorm_sq
from bbm_magnetic.geometry import interval, tensor_grid
from bbm_magnetic.harness import SweepConfig, render_report, run_sweep
from bbm_magnetic.quadrature import QuadratureSpec

D1 = interval(-1.0, 1.0)
SPEC = QuadratureSpec(outer_nodes=96, angular_nodes=2, radial_nodes=10)
GRID = tensor_grid(D1, SPEC.outer_nodes)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=20)

FIELDS = st.sampled_from(["gauss1d", "bump1d", "modgauss1d:kappa=1"])
STRENGTHS = st.floats(-2.0, 2.0)
POTENTIALS = st.builds(lambda kind, a: f"{kind}:alpha={a!r}",
                       st.sampled_from(["const", "linear"]), STRENGTHS)


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
    # |u| has no analytic gradient, so its seminorm drops the cutoff ball
    u = resolve_field(flabel)
    lhs = magnetic_seminorm_sq(modulus_field(u), resolve_potential("zero", 1), D1, s,
                               replace(SPEC, near_field="drop")).value
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
