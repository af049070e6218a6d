"""Energy functionals: magnetic Gagliardo seminorms, local magnetic energy,
mollified functionals with general radial kernels, and the translation
differences of the empirical lemma check.

Every functional returns the quadrature's IntegralResult: the value, its
two-level error estimate and the evaluated node count.

The domain seminorm and the mollified functional share one radial-angular
engine, differing only in the ray weights.  That is what makes the
algebraic identity between the power-kernel mollifier family and
2(1-s) times the seminorm hold to near machine precision here: the same
integrand values on the same nodes, contracted by two rules that agree to
rounding (the closed-form ray weights, and the kernel's fine rule on the
interpolant of those values), so the two differ by rounding alone.

The full-space seminorm takes no domain: a field with a support domain is
extended by zero, so its value depends on the field alone, and it is
integrated on that support.  So is the domain seminorm of such a field on
a domain that covers its support without being it, plus the exact cross
term between the support and the rest of the domain; the mollified
functional runs its domain pass for every field, so the identity above
holds on the fields and domains that take the domain pass.

The plural functions (``magnetic_seminorms_sq``, ``fullspace_seminorms_sq``,
``mollified_functionals``) evaluate a whole s-list or kernel list from one
integrand evaluation per engine pass; element k of their result equals the
single-value function at the k-th s value or kernel, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .constants import check_fractional_order, check_s_list
from .errors import ConfigurationError, check_coordinates, check_integer, check_number, check_positive
from .fields import (
    ScalarField,
    VectorPotential,
    magnetic_density,
    magnetic_difference_sq,
    require_dimension,
)
from .geometry import Domain, TensorGrid, check_dimension, check_domain, tensor_grid
from .quadrature import (
    IntegralResult,
    QuadratureSpec,
    _Member,
    _power_member,
    _run_batch,
    _run_two_level,
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
    "l2_norm_sq",
]


def _difference_sq(u: ScalarField, A: VectorPotential) -> Callable:
    """fields.magnetic_difference_sq as a pair integrand; it is 0 on the
    diagonal and symmetric by construction, so it skips the sampling gate."""
    return partial(magnetic_difference_sq, u, A)


def magnetic_seminorm_sq(
    u: ScalarField, A: VectorPotential, d: Domain, s: float, spec: QuadratureSpec
) -> IntegralResult:
    """Squared magnetic Gagliardo seminorm over Omega x Omega."""
    check_fractional_order(s)
    (value,) = magnetic_seminorms_sq(u, A, d, [s], spec)
    return value


def magnetic_seminorms_sq(
    u: ScalarField, A: VectorPotential, d: Domain, s_list: Sequence[float], spec: QuadratureSpec
) -> list[IntegralResult]:
    """magnetic_seminorm_sq at every s in s_list, from one integrand
    evaluation per engine pass.

    A compact field whose domain covers its support S, shrunk by the
    support margin, without being S is integrated on S, by the exact
    identity [u]^2(Omega x Omega) = [u]^2(S x S) + 2 int_S |u|^2 (tail_S - tail_Omega)."""
    s_list = check_s_list(s_list)
    require_dimension(check_domain(d).dimension, u, A)
    support = _pass_domain(u, d)
    if support != d:
        return _extended_by_zero(u, A, support, s_list, spec, d)
    return _run_batch(_difference_sq(u, A), d, spec, [_power_member(s) for s in s_list])


def _pass_domain(u: ScalarField, d: Domain) -> Domain:
    """Where the seminorm of u over d x d is integrated: the support of a
    compact field when d covers it, shrunk by its margin, and d otherwise."""
    support = u.support_domain
    return support if support is not None and d.covers(support, u.support_margin) else d


def _extended_by_zero(
    u: ScalarField, A: VectorPotential, support: Domain, s_list: list[float],
    spec: QuadratureSpec, outer: Optional[Domain] = None,
) -> list[IntegralResult]:
    """Seminorms over Omega x Omega, for Omega = outer or, when outer is
    None, R^N, of a field that vanishes outside its support S: the S x S
    pass plus the exact cross term 2 int_S |u|^2 (tail_S - tail_Omega),
    where tail_Omega is 0 on R^N."""
    doms = _run_batch(_difference_sq(u, A), support, spec, [_power_member(s) for s in s_list])

    def cross_on(sp):  # the cross term at every s
        grid = tensor_grid(support, sp.outer_nodes)
        X, w = grid.points, grid.weights
        if outer is not None:  # S may reach past Omega inside its margin, where u vanishes
            keep = outer.contains(X)
            X, w = X[keep], w[keep]
        mass = w * np.abs(u.value(X)) ** 2
        tails = tail_integral_many(support, X, s_list, sp.angular_nodes)
        if outer is not None:
            outside = tail_integral_many(outer, X, s_list, sp.angular_nodes)
            tails = [t - t_out for t, t_out in zip(tails, outside)]
        return [2.0 * float(pairwise_sum(mass * t)) for t in tails], X.shape[0]

    return [
        IntegralResult(
            dom.value + cross.value,
            dom.estimated_error + cross.estimated_error,
            dom.node_count + cross.node_count,
        )
        for dom, cross in zip(doms, two_level(cross_on, spec, support.dimension))
    ]


def _grid_domain(grid: TensorGrid) -> Domain:
    """The domain of a TensorGrid; anything else is refused."""
    if not isinstance(grid, TensorGrid):
        raise ConfigurationError(f"expected a TensorGrid, got {grid!r}")
    return grid.domain


def local_magnetic_energy(
    u: ScalarField, A: VectorPotential, d: Domain, grid: TensorGrid
) -> IntegralResult:
    """Tensor-grid quadrature of |grad u - i A u|^2 over the domain, on a
    grid built on that domain."""
    require_dimension(check_domain(d).dimension, u, A)
    if _grid_domain(grid) != d:
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
    require_dimension(_grid_domain(grid).dimension, u)
    return float(pairwise_sum(grid.weights * np.abs(u.value(grid.points)) ** 2))


def _require_compact(u: ScalarField) -> Domain:
    """The support domain of u, outside which u is extended by zero; a field
    without one is refused."""
    if not u.is_compact:
        raise ConfigurationError("extension by zero requires a field with a support domain")
    return u.support_domain


def fullspace_seminorm_sq(
    u: ScalarField, A: VectorPotential, s: float, spec: QuadratureSpec
) -> IntegralResult:
    """Squared seminorm over R^N x R^N of a field with a support domain S.

    u is extended by zero outside S, so the value depends on u alone: the
    S x S part plus the exact cross term 2 * int_S |u(x)|^2 * tail_S(x) dx.
    """
    check_fractional_order(s)
    (value,) = fullspace_seminorms_sq(u, A, [s], spec)
    return value


def fullspace_seminorms_sq(
    u: ScalarField, A: VectorPotential, s_list: Sequence[float], spec: QuadratureSpec
) -> list[IntegralResult]:
    """fullspace_seminorm_sq at every s in s_list, from one integrand
    evaluation per engine pass."""
    require_dimension(getattr(u, "dim", None), u, A, by="field")  # a non-field is refused by its type
    support = _require_compact(u)
    return _extended_by_zero(u, A, support, check_s_list(s_list), spec)


# ---------------------------------------------------------------------------
# Mollifier families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialMollifier:
    """A single nonnegative radial kernel rho(r) = r^-power smooth(r), stored
    as its factor smooth(r) = rho(r) r^power, smooth on [0, support_radius]:
    the engine integrates smooth against the exact power of r."""

    dim: int
    smooth: Callable[[np.ndarray], np.ndarray]
    support_radius: float
    param: float
    power: float = 0.0

    def __post_init__(self):
        """Check every field; store the numbers as floats."""
        check_dimension(self.dim)
        if not callable(self.smooth):
            raise ConfigurationError(
                f"mollifier smooth factor must be callable, got {self.smooth!r}")
        store = partial(object.__setattr__, self)
        store("support_radius", check_positive(self.support_radius, "mollifier support radius"))
        store("param", check_number(self.param, "mollifier parameter"))
        store("power", check_number(self.power, "mollifier power"))


@dataclass(frozen=True)
class MollifierFamily:
    """A family's kind ("bbm" rows are fitted in 1-s, any other kind in
    1/param) and its members, in row order."""

    kind: str
    members: tuple[RadialMollifier, ...]

    def __post_init__(self):
        """Refuse members that are not a nonempty list or tuple of
        RadialMollifiers of one dimension."""
        if not isinstance(self.members, (list, tuple)) or not self.members:
            raise ConfigurationError("a mollifier family needs a list or tuple of at least one "
                                     f"member, got {self.members!r}")
        for member in self.members:
            if not isinstance(member, RadialMollifier):
                raise ConfigurationError(f"a mollifier family's members must be RadialMollifiers, "
                                         f"got {member!r}")
        dim = self.members[0].dim
        for member in self.members:
            if member.dim != dim:
                raise ConfigurationError(f"mollifier {member.param:g} is {member.dim}-dimensional, "
                                         f"its family's first member is {dim}-dimensional")


def smoothstep_cutoff(r: np.ndarray, r_domain: float) -> np.ndarray:
    """C^2 radial cutoff: 1 on [0, r_domain], 0 beyond 2*r_domain.

    The polynomial 1 - t^3 (10 - 15 t + 6 t^2), t = (r - r_domain) / r_domain
    clipped to [0, 1], is evaluated only beyond r_domain (and at NaN, which
    it propagates); at t = 0 it is exactly 1.0, which the rest is set to.
    Just below t = 1 it rounds below 0, so it is clamped at 0."""
    r = np.asarray(r, dtype=float)
    cut = np.ones_like(r)
    if r.max(initial=-np.inf) <= r_domain:  # NaN fails the test, so it propagates below
        return cut[()]
    beyond = ~(r <= r_domain)
    t = np.minimum((r[beyond] - r_domain) / r_domain, 1.0)
    cut[beyond] = np.maximum(1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t * t), 0.0)
    return cut[()]


def bbm_family(s_sequence: Sequence[float], r_domain: float, dim: int) -> MollifierFamily:
    """Power-kernel family rho_n(r) = 2(1-s_n) r^-(N+2s_n-2) psi0(r), stored
    as its smooth factor 2(1-s_n) psi0(r) and power N + 2s_n - 2.

    psi0 is the smoothstep cutoff, identically 1 up to r_domain, so for
    domains of diameter <= r_domain the mollified functional equals
    2(1-s_n) times the squared s_n-seminorm.
    """
    check_dimension(dim)
    s_arr = check_s_list(s_sequence)
    r_domain = check_positive(r_domain, "cutoff radius")

    members = []
    for s in s_arr:
        def smooth(r, _s=s):
            return 2.0 * (1.0 - _s) * smoothstep_cutoff(r, r_domain)

        members.append(RadialMollifier(dim, smooth, 2.0 * r_domain, s, dim + 2.0 * s - 2.0))
    return MollifierFamily("bbm", tuple(members))


def gaussian_family(indices: Sequence[int], dim: int) -> MollifierFamily:
    """Gaussian kernels of width 1/n, one per index in the given increasing
    order, normalized so the zeroth radial moment is exactly one."""
    check_dimension(dim)
    if not (isinstance(indices, (list, tuple)) or getattr(indices, "ndim", None) == 1):
        raise ConfigurationError(f"gaussian family indices must be a list, got {indices!r}")
    # check_number refuses an index beyond float range, which 1/n could not take
    idx = [check_integer(n, "gaussian family index") for n in indices]
    for n in idx:
        check_number(n, "gaussian family index")
    if not idx or idx[0] < 1 or any(b <= a for a, b in zip(idx, idx[1:])):
        raise ConfigurationError(
            f"gaussian family needs distinct positive integer indices in increasing order: {idx}"
        )
    # (1/n)**N underflows, or its inverse overflows, at indices far below the
    # float limit that check_number enforces: n = 2**400 in 3D
    scales = (math.gamma(dim / 2.0) * (1.0 / n) ** dim for n in idx)
    amps = [2.0 / scale if scale > 0.0 else math.inf for scale in scales]
    for n, amp in zip(idx, amps):
        if not math.isfinite(amp):
            raise ConfigurationError(
                f"gaussian family index {n} is too large: the amplitude of its "
                f"kernel, about n**{dim}, is beyond float range"
            )
    members = []
    for n, amp in zip(idx, amps):
        width = 1.0 / n

        def smooth(r, _a=amp, _w=width):  # _a * exp(-(r / _w)**2) in one array
            out = np.divide(r, _w, out=np.empty(np.shape(r)))
            np.exp(np.negative(np.square(out, out=out), out=out), out=out)
            out *= _a
            return out[()]

        members.append(RadialMollifier(dim, smooth, 40.0 * width, float(n)))
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


def check_mollifier(fam: MollifierFamily, delta: float) -> list[MollifierCheck]:
    if not isinstance(fam, MollifierFamily):
        raise ConfigurationError(f"check_mollifier needs a MollifierFamily, got {fam!r}")
    delta = check_positive(delta, "delta")
    out = []
    for member in fam.members:
        rsup = member.support_radius
        # rho(r) r^(N-1) = h(r) r^beta: the fine rule integrates r^beta exactly
        beta, h = _ray_density(member)
        m0 = radial_integral(h, 0.0, rsup, beta)
        tail = radial_integral(lambda r: h(r) * r**beta, delta, max(rsup, delta))
        m1 = radial_integral(h, 0.0, delta, beta + 1.0)
        m2 = radial_integral(h, 0.0, delta, beta + 2.0)
        out.append(MollifierCheck(member.param, m0, tail, m1, m2))
    return out


def _ray_density(rho: RadialMollifier) -> _Member:
    """rho(r) r^(N-1) as r^beta h(r), with h = rho.smooth."""
    if not rho.power < rho.dim:
        raise ConfigurationError(
            f"mollifier {rho.param:g} has power {rho.power!r}: rho(r) r^(N-1) is not "
            "integrable at 0 unless the power is below the dimension"
        )
    return rho.dim - 1.0 - rho.power, rho.smooth


def _mollifier_member(d: Domain, rho: RadialMollifier) -> _Member:
    """The engine's member for the kernel rho: the ray density of
    rho(|x-y|) / |x-y|^2 times the volume element r^(N-1), against which
    g = f / r^2 is integrated."""
    if not isinstance(rho, RadialMollifier):
        raise ConfigurationError(f"a mollifier kernel must be a RadialMollifier, got {rho!r}")
    if rho.dim != d.dimension:
        raise ConfigurationError("mollifier dimension does not match the domain")
    return _ray_density(rho)  # the engine checks the kernel's sign where it uses it


def mollified_functional(
    u: ScalarField, A: VectorPotential, d: Domain, rho: RadialMollifier, spec: QuadratureSpec
) -> IntegralResult:
    """Integral of |u(x) - phase u(y)|^2 / |x-y|^2 * rho(|x-y|) over the
    domain square, for a single nonnegative radial kernel."""
    require_dimension(check_domain(d).dimension, u, A)
    return _run_two_level(_difference_sq(u, A), d, spec, _mollifier_member(d, rho))


def mollified_functionals(
    u: ScalarField,
    A: VectorPotential,
    d: Domain,
    members: Sequence[RadialMollifier],
    spec: QuadratureSpec,
) -> list[IntegralResult]:
    """mollified_functional for every kernel in members, from one integrand
    evaluation per engine pass."""
    require_dimension(check_domain(d).dimension, u, A)
    if not isinstance(members, (list, tuple)):
        raise ConfigurationError(f"mollifier kernels must be a list or tuple, got {members!r}")
    batch = [_mollifier_member(d, rho) for rho in members]
    return _run_batch(_difference_sq(u, A), d, spec, batch)


# ---------------------------------------------------------------------------
# Translation lemma check
# ---------------------------------------------------------------------------


def translation_difference_sq(
    u: ScalarField, A: VectorPotential, h, grid: TensorGrid
) -> float:
    """Integral of |u(y+h) - e^{i h . A(y + h/2)} u(y)|^2 over the grid.

    The field must be compactly supported, that is have a support domain
    (extension by zero is exact for the built-in corpus, whose closures are
    global), and |h| <= 1.
    """
    require_dimension(_grid_domain(grid).dimension, u, A)
    h = np.array(check_coordinates(h, "shift", grid.domain.dimension))
    if float(np.linalg.norm(h)) > 1.0:
        raise ConfigurationError("translation check requires |h| <= 1")
    _require_compact(u)
    sq = magnetic_difference_sq(u, A, grid.points + h, grid.points)
    return float(pairwise_sum(grid.weights * sq))
