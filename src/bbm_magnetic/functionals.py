"""Energy functionals: magnetic Gagliardo seminorms, local magnetic energy,
mollified functionals with general radial kernels, and the empirical lemma
checks (translation differences, uniform (1-s) bounds).

Every functional returns the quadrature's IntegralResult: the value, its
two-level error estimate and the evaluated node count.

The domain seminorm and the mollified functional share one radial-angular
engine, differing only in the radial weight.  That is what makes the
algebraic identity between the power-kernel mollifier family and
2(1-s) times the seminorm hold to near machine precision here: identical
nodes, identical summation order.

The plural functions (``magnetic_seminorms_sq``, ``fullspace_seminorms_sq``,
``mollified_functionals``) evaluate a whole s-list or kernel list from one
integrand evaluation per engine pass; element k of their result equals the
single-value function at the k-th s value or kernel, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .constants import check_fractional_order, check_s_list
from .errors import ConfigurationError, check_coordinates, check_integer, is_real
from .fields import (
    ScalarField,
    VectorPotential,
    magnetic_density,
    magnetic_difference,
    require_dimension,
)
from .geometry import Domain, TensorGrid, check_dimension, gauss_legendre, tensor_grid
from .quadrature import (
    IntegralResult,
    QuadratureSpec,
    _run_batch,
    _run_two_level,
    double_integral_singular,
    double_integrals_singular,
    near_field_hook,
    pairwise_sum,
    radial_integral,
    tail_integral_many,
    two_level,
)

__all__ = [
    "RadialMollifier",
    "MollifierFamily",
    "MollifierCheck",
    "magnetic_seminorm_sq",
    "magnetic_seminorms_sq",
    "local_magnetic_energy",
    "fullspace_seminorm_sq",
    "fullspace_seminorms_sq",
    "mollified_functional",
    "mollified_functionals",
    "bbm_family",
    "gaussian_family",
    "check_mollifier",
    "translation_difference_sq",
    "uniform_bound_check",
    "l2_norm_sq",
]


def _difference_sq(u: ScalarField, A: VectorPotential) -> Callable:
    """Squared magnetic difference quotient numerator as a pair integrand."""

    def pair(x, y):
        return np.abs(magnetic_difference(u, A, x, y)) ** 2

    return pair


def _seminorm_hook(u: ScalarField, A: VectorPotential, spec: QuadratureSpec, s: float):
    return near_field_hook(u, A, spec, lambda eps: eps ** (2.0 - 2.0 * s), 2.0 - 2.0 * s)


def magnetic_seminorm_sq(
    u: ScalarField, A: VectorPotential, d: Domain, s: float, spec: QuadratureSpec
) -> IntegralResult:
    """Squared magnetic Gagliardo seminorm over Omega x Omega."""
    check_fractional_order(s)
    require_dimension(d.dimension, u, A)
    hook = _seminorm_hook(u, A, spec, s)
    return double_integral_singular(_difference_sq(u, A), d, s, spec, near_field=hook)


def magnetic_seminorms_sq(
    u: ScalarField, A: VectorPotential, d: Domain, s_list: Sequence[float], spec: QuadratureSpec
) -> list[IntegralResult]:
    """magnetic_seminorm_sq at every s in s_list, from one integrand
    evaluation per engine pass."""
    s_list = check_s_list(s_list)
    require_dimension(d.dimension, u, A)
    hooks = [_seminorm_hook(u, A, spec, s) for s in s_list]
    return double_integrals_singular(_difference_sq(u, A), d, s_list, spec, hooks)


def local_magnetic_energy(
    u: ScalarField, A: VectorPotential, d: Domain, grid: TensorGrid
) -> IntegralResult:
    """Tensor-grid quadrature of |grad u - i A u|^2 over the domain, on a
    grid built on that domain."""
    require_dimension(d.dimension, u, A)
    if grid.domain != d:
        raise ConfigurationError("local energy needs a grid built on its own domain")

    def energy_on(spec):
        n = spec.outer_nodes
        g = grid if n == grid.nodes_per_axis else tensor_grid(d, n)
        value = float(pairwise_sum(g.weights * magnetic_density(u, A, g.points)))
        return [value], g.points.shape[0]

    # Only the outer rung is read: the radial and angular counts sit at their
    # floors, so a 4-node grid, whose rung down is itself, is compared one up.
    spec = QuadratureSpec(outer_nodes=grid.nodes_per_axis, angular_nodes=8, radial_nodes=2)
    (res,) = two_level(energy_on, spec, d.dimension)
    return res


def l2_norm_sq(u: ScalarField, grid: TensorGrid) -> float:
    """Squared L2 norm of u over the grid's domain."""
    require_dimension(grid.domain.dimension, u)
    return float(pairwise_sum(grid.weights * np.abs(u.value(grid.points)) ** 2))


def fullspace_seminorm_sq(
    u: ScalarField, A: VectorPotential, d: Domain, s: float, spec: QuadratureSpec
) -> IntegralResult:
    """Squared seminorm over R^N x R^N for fields vanishing outside the domain.

    Splits into the Omega x Omega part plus the exact cross term
    2 * int |u(x)|^2 * tail(x) dx, since u is extended by zero.
    """
    check_fractional_order(s)
    (value,) = fullspace_seminorms_sq(u, A, d, [s], spec)
    return value


def fullspace_seminorms_sq(
    u: ScalarField, A: VectorPotential, d: Domain, s_list: Sequence[float], spec: QuadratureSpec
) -> list[IntegralResult]:
    """fullspace_seminorm_sq at every s in s_list, from one integrand
    evaluation per engine pass."""
    require_dimension(d.dimension, u, A)
    if not u.is_compact or not d.covers(u.support_domain, u.support_margin):
        raise ConfigurationError(
            f"full-space seminorm requires the support of {u.label or 'the field'} to lie "
            "inside the domain, since the field is extended by zero outside it"
        )

    doms = magnetic_seminorms_sq(u, A, d, s_list, spec)

    def cross_on(sp):  # the cross term at every s
        grid = tensor_grid(d, sp.outer_nodes)
        mass = grid.weights * np.abs(u.value(grid.points)) ** 2
        tails = tail_integral_many(d, grid.points, s_list, sp.angular_nodes)
        return [2.0 * float(pairwise_sum(mass * t)) for t in tails], grid.points.shape[0]

    return [
        IntegralResult(
            dom.value + cross.value,
            dom.estimated_error + cross.estimated_error,
            dom.node_count + cross.node_count,
        )
        for dom, cross in zip(doms, two_level(cross_on, spec, d.dimension))
    ]


# ---------------------------------------------------------------------------
# Mollifier families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialMollifier:
    """A single nonnegative radial kernel rho(r) with analytic small-ball
    zeroth moment, int_0^eps rho r^(N-1) dr, for the near-field hook."""

    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    near_moment: Callable[[np.ndarray], np.ndarray]
    support_radius: float
    param: float


@dataclass(frozen=True)
class MollifierFamily:
    """A family's kind ("bbm" rows are fitted in 1-s, any other kind in
    1/param) and its members, in row order."""

    kind: str
    members: tuple[RadialMollifier, ...]

    def __post_init__(self):
        if not self.members:
            raise ConfigurationError("a mollifier family needs at least one member")


def smoothstep_cutoff(r: np.ndarray, r_domain: float) -> np.ndarray:
    """C^2 radial cutoff: 1 on [0, r_domain], 0 beyond 2*r_domain."""
    r = np.asarray(r, dtype=float)
    t = np.clip((r - r_domain) / r_domain, 0.0, 1.0)
    return 1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t * t)


def bbm_family(s_sequence: Sequence[float], r_domain: float, dim: int) -> MollifierFamily:
    """Power-kernel family rho_n(r) = 2(1-s_n) r^-(N+2s_n-2) psi0(r).

    psi0 is the smoothstep cutoff, identically 1 up to r_domain, so for
    domains of diameter <= r_domain the mollified functional equals
    2(1-s_n) times the squared s_n-seminorm.

    The kernel is meant for r > 0, which is where every caller evaluates it.
    At r = 0 it returns the formula's limit: inf where N + 2s > 2, 1 for
    N = 1 and s = 1/2, and 0 for N = 1 and s < 1/2.
    """
    check_dimension(dim)
    s_arr = check_s_list(s_sequence)
    if not (is_real(r_domain) and 0.0 < r_domain < math.inf):
        raise ConfigurationError(f"cutoff radius must be positive and finite, got {r_domain!r}")

    members = []
    for s in s_arr:
        expo = dim + 2.0 * s - 2.0

        def fn(r, _e=expo, _s=s):
            r = np.asarray(r, dtype=float)
            return 2.0 * (1.0 - _s) * r ** (-_e) * smoothstep_cutoff(r, r_domain)

        def near_moment(eps, _s=s):
            # Exact while eps <= r_domain, where psi0 == 1.
            return np.asarray(eps, dtype=float) ** (2.0 - 2.0 * _s)

        members.append(RadialMollifier(dim, fn, near_moment, 2.0 * r_domain, s))
    return MollifierFamily("bbm", tuple(members))


def gaussian_family(indices: Sequence[int], dim: int) -> MollifierFamily:
    """Gaussian kernels of width 1/n, one per index in the given increasing
    order, normalized so the zeroth radial moment is exactly one."""
    check_dimension(dim)
    if not (isinstance(indices, (list, tuple)) or getattr(indices, "ndim", None) == 1):
        raise ConfigurationError(f"gaussian family indices must be a list, got {indices!r}")
    idx = [check_integer(n, "gaussian family index") for n in indices]
    if not idx or idx[0] < 1 or any(b <= a for a, b in zip(idx, idx[1:])):
        raise ConfigurationError(
            f"gaussian family needs distinct positive integer indices in increasing order: {idx}"
        )
    xi, wgl = gauss_legendre(32)

    members = []
    for n in idx:
        width = 1.0 / n
        amp = 2.0 / (math.gamma(dim / 2.0) * width**dim)

        def fn(r, _a=amp, _w=width):
            r = np.asarray(r, dtype=float)
            return _a * np.exp(-((r / _w) ** 2))

        def near_moment(eps, _a=amp, _w=width):
            eps = np.asarray(eps, dtype=float)
            half = 0.5 * eps
            r = half[..., None] * (xi + 1.0)
            vals = _a * np.exp(-((r / _w) ** 2)) * r ** (dim - 1)
            return (vals * wgl).sum(axis=-1) * half

        members.append(RadialMollifier(dim, fn, near_moment, 40.0 * width, float(n)))
    return MollifierFamily("gaussian", tuple(members))


@dataclass(frozen=True)
class MollifierCheck:
    """Per-member moment report for the normalization and concentration
    conditions: M0 -> 1, tail(delta) -> 0, and the first two delta-local
    higher moments -> 0."""

    param: float
    m0: float
    tail: float
    m1: float
    m2: float


def check_mollifier(fam: MollifierFamily, dim: int, delta: float) -> list[MollifierCheck]:
    if not (is_real(delta) and 0.0 < delta < math.inf):
        raise ConfigurationError(f"delta must be positive and finite, got {delta!r}")
    for member in fam.members:
        if member.dim != dim:
            raise ConfigurationError(
                f"mollifier {member.param:g} is {member.dim}-dimensional, asked for {dim}"
            )
    out = []
    for member in fam.members:
        rsup = member.support_radius
        # Split the zeroth moment at a representable radius: the analytic
        # small-ball moment covers [0, a], where power kernels near s = 1
        # keep mass no grid can see.
        a = min(1e-3 * rsup, 0.5 * delta)
        m0 = float(member.near_moment(a)) + radial_integral(
            lambda r: member.fn(r) * r ** (dim - 1), a, rsup
        )
        tail = radial_integral(lambda r: member.fn(r) * r ** (dim - 1), delta, max(rsup, delta))
        tiny = 1e-12 * min(delta, rsup)
        m1 = radial_integral(lambda r: member.fn(r) * r**dim, tiny, delta)
        m2 = radial_integral(lambda r: member.fn(r) * r ** (dim + 1), tiny, delta)
        out.append(MollifierCheck(member.param, m0, tail, m1, m2))
    return out


def _mollifier_member(
    u: ScalarField, A: VectorPotential, d: Domain, rho: RadialMollifier, spec: QuadratureSpec
) -> tuple[Callable, Optional[Callable]]:
    """The engine's radial weight and near-field hook for the kernel rho."""
    if rho.dim != d.dimension:
        raise ConfigurationError("mollifier dimension does not match the domain")
    probe = np.linspace(1e-6, rho.support_radius, 64)
    if np.any(rho.fn(probe) < -1e-15):
        raise ConfigurationError("mollifier kernel must be nonnegative")

    n = d.dimension
    weight = lambda r: rho.fn(r) * r ** (n - 3)
    hook = near_field_hook(u, A, spec, lambda eps: np.asarray(rho.near_moment(eps), dtype=float))
    return weight, hook


def mollified_functional(
    u: ScalarField, A: VectorPotential, d: Domain, rho: RadialMollifier, spec: QuadratureSpec
) -> IntegralResult:
    """Integral of |u(x) - phase u(y)|^2 / |x-y|^2 * rho(|x-y|) over the
    domain square, for a single nonnegative radial kernel."""
    require_dimension(d.dimension, u, A)
    weight, hook = _mollifier_member(u, A, d, rho, spec)
    return _run_two_level(_difference_sq(u, A), d, spec, weight, hook)


def mollified_functionals(
    u: ScalarField,
    A: VectorPotential,
    d: Domain,
    members: Sequence[RadialMollifier],
    spec: QuadratureSpec,
) -> list[IntegralResult]:
    """mollified_functional for every kernel in members, from one integrand
    evaluation per engine pass."""
    require_dimension(d.dimension, u, A)
    batch = [_mollifier_member(u, A, d, rho, spec) for rho in members]
    return _run_batch(_difference_sq(u, A), d, spec, batch)


# ---------------------------------------------------------------------------
# Lemma checks
# ---------------------------------------------------------------------------


def translation_difference_sq(
    u: ScalarField, A: VectorPotential, h, grid: TensorGrid
) -> float:
    """Integral of |u(y+h) - e^{i h . A(y + h/2)} u(y)|^2 over the grid.

    The field must be compactly supported, that is have a support domain
    (extension by zero is exact for the built-in corpus, whose closures are
    global), and |h| <= 1.
    """
    require_dimension(grid.domain.dimension, u, A)
    h = np.array(check_coordinates(h, "shift"))
    if float(np.linalg.norm(h)) > 1.0:
        raise ConfigurationError("translation check requires |h| <= 1")
    if not u.is_compact:
        raise ConfigurationError("translation check requires a field with a support domain")
    diff = magnetic_difference(u, A, grid.points + h, grid.points)
    return float(pairwise_sum(grid.weights * np.abs(diff) ** 2))


def uniform_bound_check(
    u: ScalarField,
    A: VectorPotential,
    d: Domain,
    s_list: Sequence[float],
    spec: QuadratureSpec,
) -> list[tuple[float, float]]:
    """Ratios (1-s) [u]^2_{s, full space} / (||u||_2^2 + energy) per s.

    Boundedness of these ratios over s, including values near 1, is the
    empirical form of the uniform (1-s) seminorm bound.
    """
    require_dimension(d.dimension, u, A)
    s_vals = check_s_list(s_list)
    grid = tensor_grid(d, spec.outer_nodes)
    denom = l2_norm_sq(u, grid) + local_magnetic_energy(u, A, d, grid).value
    if denom == 0.0:
        return [(s, 0.0) for s in s_vals]
    fulls = fullspace_seminorms_sq(u, A, d, s_vals, spec)
    return [(s, (1.0 - s) * full.value / denom) for s, full in zip(s_vals, fulls)]
