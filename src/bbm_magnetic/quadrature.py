"""Singular double integrals over Omega x Omega with |x-y|^(-N-2s) kernels.

The engine rewrites the inner integral in radial-angular coordinates around
each outer node, y = x + r*omega, so the kernel times the volume element
collapses to the one-dimensional weight r^(-1-2s).  The radial axis is
covered by geometric layers running from the directional boundary distance
down to the cutoff radius, with a Gauss-Legendre rule per layer and the
kernel weight folded into the integrand.  A tensor rule on Omega x Omega
cannot survive s -> 1; this layout can, because the mass that concentrates
below the cutoff is restored analytically (second-order Taylor correction)
rather than resolved by nodes.

Only the radial weight and the near-field term depend on s (or on the
mollifier kernel); the integrand and the nodes do not.  So the engine takes
a batch of members, each a radial weight and a near-field hook, evaluates
the integrand once per pass and contracts it against every member.  Each
member's sums do not depend on which other members share its batch.

Summation is a fixed-order pairwise tree over outer nodes, so results are
bit-for-bit reproducible regardless of how callers schedule the work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .constants import check_fractional_order, dimensional_constants
from .errors import ConfigurationError, IntegrationError
from .fields import ScalarField, VectorPotential, magnetic_density
from .geometry import Domain, boundary_distances, gauss_legendre, sphere_rule, tensor_grid

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "pairwise_sum",
    "double_integral_singular",
    "double_integrals_singular",
    "radial_angular",
    "radial_integral",
    "tail_integral",
    "two_level",
]

# Cap on points handled per outer-node chunk; keeps peak memory modest.
_CHUNK_BUDGET = 400_000
# Each radial layer spans [ratio * hi, hi], so layers halve toward the cutoff.
_GEOMETRIC_RATIO = 0.5
# Gauss-Legendre nodes per layer of the one-dimensional moment integrals.
_MOMENT_NODES = 24


@dataclass(frozen=True)
class QuadratureSpec:
    """All discretization knobs for the singular double integrals.

    ``eps`` is the inner cutoff in units of the domain diameter.  Near-field
    mode "taylor-correct" restores the sub-cutoff mass analytically;
    "drop" discards it, which is useful to visualize how much mass the
    cutoff ball holds as s grows.
    """

    outer_nodes: int = 48
    angular_nodes: int = 32
    radial_nodes: int = 8
    eps: float = 1e-4
    near_field: str = "taylor-correct"

    def __post_init__(self):
        if min(self.outer_nodes, self.angular_nodes, self.radial_nodes) < 1:
            raise ConfigurationError("all node counts must be >= 1")
        if not 0.0 < self.eps < 1.0:
            raise ConfigurationError("eps must lie in (0, 1) as a diameter fraction")
        if self.near_field not in ("drop", "taylor-correct"):
            raise ConfigurationError(f"unknown near-field mode {self.near_field!r}")


@dataclass(frozen=True)
class IntegralResult:
    """Value plus the difference between the two finest refinement levels."""

    value: float
    estimated_error: float
    node_count: int


def pairwise_sum(values: np.ndarray):
    """Sum in a fixed adjacent-pair binary tree, independent of scheduling."""
    a = np.asarray(values).ravel().copy()
    if a.size == 0:
        return a.dtype.type(0)
    while a.size > 1:
        odd = a[-1] if a.size % 2 else None
        head = a[: 2 * (a.size // 2)]
        a = head[0::2] + head[1::2]
        if odd is not None:
            a = np.concatenate([a, [odd]])
    return a[0]


def _layered_radial(
    R: np.ndarray, eps_x: np.ndarray, nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Radial nodes and dr-weights covering [eps_x, R] per direction, with
    ``nodes`` Gauss-Legendre nodes per geometric layer.

    R has shape (..., M); eps_x must broadcast against R.  Returns r and w of
    shape (..., M, K).  Layers a direction does not need carry zero weight,
    so ragged layer counts vectorize as padding.
    """
    ratio = _GEOMETRIC_RATIO
    xi, wgl = gauss_legendre(nodes)
    eps = np.broadcast_to(np.asarray(eps_x, dtype=float), R.shape)
    n_layers = np.ceil(np.log(R / eps) / math.log(1.0 / ratio)).astype(int)
    n_layers = np.maximum(n_layers, 1)
    l_max = int(n_layers.max())
    j = np.arange(l_max)
    shape_hi = R[..., None] * ratio**j  # (..., M, L)
    valid = j < n_layers[..., None]
    hi = shape_hi
    lo = np.maximum(hi * ratio, eps[..., None])
    half = np.where(valid, 0.5 * (hi - lo), 0.0)
    mid = np.where(valid, 0.5 * (hi + lo), eps[..., None])
    r = mid[..., None] + half[..., None] * xi  # (..., M, L, K)
    w = half[..., None] * wgl
    new_shape = R.shape + (l_max * nodes,)
    return r.reshape(new_shape), w.reshape(new_shape)


def radial_integral(fn: Callable, lo: float, hi: float) -> float:
    """Geometric-layer Gauss-Legendre quadrature of fn on [lo, hi]."""
    if hi <= lo:
        return 0.0
    r, w = _layered_radial(np.array(hi), np.array(lo), _MOMENT_NODES)
    return float(np.sum(fn(r) * w))


# A batch member: a radial weight and a near-field hook (or None).
_Member = tuple[Callable[[np.ndarray], np.ndarray], Optional[Callable]]


def radial_angular(
    pair_fn: Callable,
    X: np.ndarray,
    R: np.ndarray,
    eps_x: np.ndarray,
    dirs: np.ndarray,
    spec: QuadratureSpec,
    radial_weights: Sequence[Callable[[np.ndarray], np.ndarray]],
    dtype: type = float,
) -> tuple[list[np.ndarray], int]:
    """Integrals of pair_fn(x, x + r*omega) * weight(r) over r in
    [eps_x, R], per point and direction, for each weight in radial_weights,
    and the number of integrand values.

    X holds C points (C, N), dirs the M unit directions (M, N), R the exit
    distances (C, M) and eps_x the cutoffs (C,); pair_fn returns values of
    the given dtype.  Returns one (C, M) array per weight; a NaN integrand
    value raises IntegrationError.  The integrand is evaluated once for all
    the weights.

    The inner points are stored coordinate-major, as an (N, C, M, K) array,
    and pair_fn gets its (C, M, K, N) view.  With N <= 3, a C-ordered last
    axis makes every per-coordinate op and last-axis reduction run inner
    loops of length N; coordinate-major, they run over long contiguous rows,
    inside user closures too.  The values are the same bits either way.
    """
    n_dim = X.shape[1]
    per_point = dirs.shape[0] * spec.radial_nodes * 40  # rough K upper bound
    chunk = max(1, _CHUNK_BUDGET // per_point)
    # The results are allocated before the first chunk: per-chunk pieces
    # allocated between the chunks' large arrays pin heap pages, which
    # raised the peak memory of a four-member 2D Landau sweep by 1-2 MB.
    sums, count = [np.empty(R.shape, dtype=dtype) for _ in radial_weights], 0
    # Every chunk reuses one point buffer, grown only when a chunk needs more
    # layers; a fresh point array per chunk peaked 2.2 MB higher on a 3D ball.
    buf = np.empty(0)
    # The loop's arrays live until the next chunk replaces them, so the
    # allocator reuses their pages instead of returning and refaulting them.
    # The weights are applied one after another, so a chunk's peak memory
    # is that of a single weight.
    for start in range(0, X.shape[0], chunk):
        cut = slice(start, start + chunk)
        Xc = X[cut, None, None, :]
        r, w = _layered_radial(R[cut], eps_x[cut, None], spec.radial_nodes)
        if buf.size < n_dim * r.size:
            buf = np.empty(n_dim * r.size)
        Y = buf[: n_dim * r.size].reshape((n_dim,) + r.shape)
        for j in range(n_dim):
            np.multiply(r, dirs[None, :, None, j], out=Y[j])
            Y[j] += Xc[..., j]
        y = np.moveaxis(Y, 0, -1)
        vals = pair_fn(Xc, y)
        if np.isnan(vals).any():
            idx = np.argwhere(np.isnan(vals))[0]
            bad = y[tuple(idx)]
            raise IntegrationError(f"integrand produced NaN at y={bad.tolist()}")
        for member_sums, weight in zip(sums, radial_weights):
            np.sum(vals * (w * weight(r)), axis=-1, out=member_sums[cut])
        count += vals.size
    return sums, count


def near_field_hook(
    u: ScalarField,
    A: VectorPotential,
    spec: QuadratureSpec,
    moment: Callable[[np.ndarray], np.ndarray],
    divisor: float = 1.0,
) -> Optional[Callable]:
    """Analytic sub-cutoff term of a radial-kernel double integral, or None
    in "drop" mode.

    Inside the ball B(x, eps) the magnetic difference is
    (grad u - i A u)(x) . (y - x) to leading order, so the ball contributes
    |grad u - i A u|^2 * Q_N * moment(eps) / divisor, where moment(eps) is
    the kernel's small-ball radial moment.  The seminorm passes
    eps^(2-2s) and its divisor 2-2s separately.
    """
    if spec.near_field != "taylor-correct":
        return None
    if u.gradient is None:
        raise ConfigurationError(
            "taylor-correct near-field mode needs an analytic gradient; "
            "use near_field='drop' for fields without one"
        )
    q = dimensional_constants(u.dim).second_moment
    return lambda X, eps_x: magnetic_density(u, A, X) * q * moment(eps_x) / divisor


def _domain_pass(
    pair_fn: Callable, d: Domain, spec: QuadratureSpec, members: Sequence[_Member]
) -> tuple[list[float], int]:
    """One full evaluation at the given spec; returns (one value per member,
    node count)."""
    grid = tensor_grid(d, spec.outer_nodes)
    dirs, wdir = sphere_rule(d.dimension, spec.angular_nodes)
    R = boundary_distances(d, grid.points, dirs)
    # Shrink the cutoff near the boundary so the corrected ball stays inside
    # the domain.
    eps_x = np.minimum(spec.eps * d.diameter(), 0.5 * R.min(axis=1))
    weights = [weight for weight, _ in members]
    per_dir, count = radial_angular(pair_fn, grid.points, R, eps_x, dirs, spec, weights)
    values = []
    for integrals, (_, near_field) in zip(per_dir, members):
        inner = integrals @ wdir
        if near_field is not None:
            inner = inner + near_field(grid.points, eps_x)
        values.append(float(pairwise_sum(grid.weights * inner)))
    return values, count


def two_level(evaluate: Callable, spec: QuadratureSpec, dim: int) -> list[IntegralResult]:
    """One IntegralResult per value of evaluate(spec) -> (values, node count):
    its estimated error is the distance to the value one rung down, at half
    the outer nodes (at least 4), two radial nodes fewer (at least 2) and,
    for N > 1, half the directions (at least 8)."""
    angular = spec.angular_nodes if dim == 1 else max(8, 2 * (spec.angular_nodes // 4))
    coarse_spec = replace(spec, outer_nodes=max(4, spec.outer_nodes // 2),
                          radial_nodes=max(2, spec.radial_nodes - 2), angular_nodes=angular)
    fine, nodes = evaluate(spec)
    coarse, _ = evaluate(coarse_spec)
    return [IntegralResult(f, abs(f - c), nodes) for f, c in zip(fine, coarse)]


def _run_batch(pair_fn, d, spec, members: Sequence[_Member]) -> list[IntegralResult]:
    """Fine and coarse passes over a batch of members: one IntegralResult
    per member, from one integrand evaluation per pass."""
    return two_level(lambda sp: _domain_pass(pair_fn, d, sp, members), spec, d.dimension)


def _run_two_level(pair_fn, d, spec, radial_weight, near_field) -> IntegralResult:
    """_run_batch for the one member (radial_weight, near_field)."""
    (res,) = _run_batch(pair_fn, d, spec, [(radial_weight, near_field)])
    return res


def _check_diagonal(pair_fn, d: Domain, spec: QuadratureSpec) -> None:
    """Sample the numerator on the diagonal; abort if it does not vanish."""
    grid = tensor_grid(d, min(spec.outer_nodes, 5))
    pts = grid.points
    diag = pair_fn(pts, pts)
    if np.isnan(np.asarray(diag)).any():
        raise IntegrationError("integrand is NaN on the diagonal")
    probe = pts + 0.125 * (d.center - pts)
    distinct = np.linalg.norm(probe - pts, axis=-1) > 0.0
    scale = 1.0
    if distinct.any():
        scale = max(1.0, float(np.max(np.abs(pair_fn(pts[distinct], probe[distinct])))))
    if float(np.max(np.abs(diag))) > 1e-10 * scale:
        raise IntegrationError(
            "integrand does not vanish on the diagonal; the double integral "
            "would diverge for s >= 1/2"
        )


def _power_weight(s: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda r: r ** (-1.0 - 2.0 * s)


def double_integrals_singular(
    integrand: Callable,
    d: Domain,
    s_list: Sequence[float],
    spec: QuadratureSpec,
    near_fields: Sequence[Optional[Callable]],
) -> list[IntegralResult]:
    """double_integral_singular at each s in s_list, with near_fields[k] the
    hook at s_list[k]; the integrand is evaluated once per pass for all."""
    if len(near_fields) != len(s_list):
        raise ConfigurationError("need one near-field hook (or None) per s value")
    for s in s_list:
        check_fractional_order(s)
    _check_diagonal(integrand, d, spec)
    taylor = spec.near_field == "taylor-correct"
    members = [(_power_weight(s), hook if taylor else None) for s, hook in zip(s_list, near_fields)]
    return _run_batch(integrand, d, spec, members)


def double_integral_singular(
    integrand: Callable,
    d: Domain,
    s: float,
    spec: QuadratureSpec,
    near_field: Optional[Callable] = None,
) -> IntegralResult:
    """Integrate f(x, y) / |x - y|^(N+2s) over Omega x Omega.

    ``integrand`` must accept broadcastable point arrays of shape (..., N)
    and vanish on the diagonal (checked by sampling).  ``near_field``, if
    given, maps (outer points (C, N), cutoff radii (C,)) to the analytic
    sub-cutoff contribution per outer point; it is only applied in
    "taylor-correct" mode.
    """
    (res,) = double_integrals_singular(integrand, d, [s], spec, [near_field])
    return res


def tail_integral_many(
    d: Domain, X: np.ndarray, s_list: Sequence[float], angular_nodes: int
) -> list[np.ndarray]:
    """Exact-in-r integral of |x - y|^(-N-2s) over the domain complement,
    for each interior point x in the rows of X: one array per s in s_list.

    Uses int_R^inf r^(-1-2s) dr = R^(-2s) / (2s) along each direction, with
    R the directional boundary distance (valid because the domain is convex),
    which is computed once for every s."""
    dirs, wts = sphere_rule(d.dimension, angular_nodes)
    R = boundary_distances(d, np.asarray(X, dtype=float), dirs)
    return [(R ** (-2.0 * s)) @ wts / (2.0 * s) for s in s_list]


def tail_integral(d: Domain, x, s: float, angular_nodes: int) -> float:
    """tail_integral_many at the single point x, which must be interior."""
    check_fractional_order(s)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not bool(d.contains(x)):
        raise ConfigurationError(f"tail integral diverges: {x.tolist()} is not interior")
    return float(tail_integral_many(d, x[None, :], [s], angular_nodes)[0][0])
