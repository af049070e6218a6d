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

The integrand is evaluated only where the radial rule puts weight, up to
a little padding: the (outer node, direction) pairs are sorted by their
layer count and cut into blocks of P pairs of about the same count, whose
inner points are stored coordinate-major as (N, P, K) arrays.  The node
count of a result counts these evaluated points.

Each call of the engine allocates one workspace, sized to its largest
block, and every block takes its radial nodes and weights, its inner
points and its contraction plane from the front of it.  So a pass touches
the same pages from block to block instead of freeing and faulting in new
ones, and the points handed to the integrand (and through it to fields,
potentials and radial weights) are views that the next block overwrites:
no closure may keep them after it returns.  The workspace belongs to one
call, so concurrent calls never share it.

The seminorm and mollifier integrands are symmetric, f(x, y) = f(y, x), and
so is the kernel, so the ray along omega from x covers the same pairs as the
ray along -omega from y.  In 2D and 3D an even sphere rule lists the
antipodes of its first half in its second half, and a domain pass
integrates along the second half only, with doubled weights: half the
integrand points.  The cutoffs still see every direction.  1D keeps both of
its directions: a pass there costs the same with one or two, and the full
pair cancels the cutoff's odd Taylor term, which 1D's accuracy can see.  A
2D rule with an odd count has no antipodal half and keeps every direction.

Summation is a fixed-order pairwise tree over outer nodes, so results are
bit-for-bit reproducible regardless of how callers schedule the work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .constants import check_fractional_order, check_s_list, dimensional_constants
from .errors import ConfigurationError, IntegrationError, check_integer, check_number, check_text
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

# Cap on the integrand points evaluated per block of (point, direction)
# pairs; keeps peak memory modest.
_CHUNK_BUDGET = 30_000
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
        for f in fields(self):  # by annotation, storing the normalised value
            check = {"int": check_integer, "float": check_number, "str": check_text}[f.type]
            object.__setattr__(self, f.name, check(getattr(self, f.name), f"quadrature {f.name}"))
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


def _layer_counts(R: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Geometric layers needed to cover [eps, R], at least one."""
    n_layers = np.ceil(np.log(R / eps) / math.log(1.0 / _GEOMETRIC_RATIO)).astype(int)
    return np.maximum(n_layers, 1)


def _layered_radial(
    R: np.ndarray, eps_x: np.ndarray, nodes: int, n_layers: np.ndarray, r: np.ndarray, w: np.ndarray
) -> None:
    """Radial nodes and dr-weights covering [eps_x, R] per direction, with
    ``nodes`` Gauss-Legendre nodes per geometric layer, written into r and w.

    R has shape (..., M); eps_x must broadcast against R; n_layers is
    _layer_counts(R, eps_x).  r and w are C-contiguous arrays of shape
    (..., M, L * nodes), with L at least n_layers.max().  Layers a direction
    does not need carry zero weight, so ragged layer counts vectorize as
    padding.
    """
    ratio = _GEOMETRIC_RATIO
    xi, wgl = gauss_legendre(nodes)
    eps = np.broadcast_to(np.asarray(eps_x, dtype=float), R.shape)
    l_max = r.shape[-1] // nodes
    j = np.arange(l_max)
    hi = R[..., None] * ratio**j  # (..., M, L)
    valid = j < n_layers[..., None]
    lo = np.maximum(hi * ratio, eps[..., None])
    half = np.where(valid, 0.5 * (hi - lo), 0.0)
    mid = np.where(valid, 0.5 * (hi + lo), eps[..., None])
    layers = R.shape + (l_max, nodes)
    r_layers = r.reshape(layers)  # views: r and w are contiguous
    np.multiply(half[..., None], xi, out=r_layers)
    r_layers += mid[..., None]
    np.multiply(half[..., None], wgl, out=w.reshape(layers))


def radial_integral(fn: Callable, lo: float, hi: float) -> float:
    """Geometric-layer Gauss-Legendre quadrature of fn on [lo, hi]."""
    if hi <= lo:
        return 0.0
    R, eps = np.array(hi), np.array(lo)
    n_layers = _layer_counts(R, eps)
    r, w = np.empty((2, int(n_layers) * _MOMENT_NODES))
    _layered_radial(R, eps, _MOMENT_NODES, n_layers, r, w)
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

    Directions near the wall need few radial layers and directions into the
    bulk many, so the (point, direction) pairs are sorted by layer count and
    cut into blocks of P pairs that need about the same number of layers:
    padding to a block's largest count, almost every evaluated point carries
    weight.  A block's inner points are stored coordinate-major, as an
    (N, P, K) array, and pair_fn gets the gathered outer points (P, 1, N)
    and the (P, K, N) view.  With N <= 3, a C-ordered last axis makes every
    per-coordinate op and last-axis reduction run inner loops of length N;
    coordinate-major, they run over long contiguous rows, inside user
    closures too.

    The points given to pair_fn, and the radii given to the weights, are
    views into this call's workspace, which the next block overwrites:
    pair_fn and the weights must not write into them or keep them after
    they return.
    """
    n_dim, n_dirs = X.shape[1], dirs.shape[0]
    R = R.ravel()
    eps = np.repeat(eps_x, n_dirs)
    n_layers = _layer_counts(R, eps)
    order = np.argsort(n_layers, kind="stable")
    edges = _block_edges(n_layers[order], spec.radial_nodes)
    # Each block pads its pairs to the layer count of its last, longest pair.
    blocks = [(lo, hi, int(n_layers[order[hi - 1]]) * spec.radial_nodes)
              for lo, hi in zip(edges[:-1], edges[1:])]
    # The workspace: the contraction plane of dtype, r, w and the N planes of
    # Y, each as long as the largest block.  Every block takes its arrays from
    # the front of it, so the pages a pass touches stay mapped from block to
    # block; the results are allocated with it, before the first block.
    plane = np.dtype(dtype).itemsize // 8
    work = np.empty((plane + 2 + n_dim) * max(((hi - lo) * k for lo, hi, k in blocks), default=0))
    sums, count = [np.empty(R.shape, dtype=dtype) for _ in radial_weights], 0
    for lo, hi, k in blocks:
        idx = order[lo:hi]
        shape, size = (hi - lo, k), (hi - lo) * k
        contracted = work[: plane * size].view(dtype).reshape(shape)
        planes = work[plane * size : (plane + 2 + n_dim) * size].reshape((2 + n_dim,) + shape)
        r, w, Y = planes[0], planes[1], planes[2:]
        _layered_radial(R[idx], eps[idx], spec.radial_nodes, n_layers[idx], r, w)
        ci, mi = np.divmod(idx, n_dirs)
        x = X[ci][:, None, :]
        for j in range(n_dim):
            np.multiply(r, dirs[mi, j, None], out=Y[j])
            Y[j] += x[..., j]
        y = np.moveaxis(Y, 0, -1)
        vals = pair_fn(x, y)
        if np.isnan(vals).any():
            bad = y[tuple(np.argwhere(np.isnan(vals))[0])]
            raise IntegrationError(f"integrand produced NaN at y={bad.tolist()}")
        for member_sums, weight in zip(sums, radial_weights):
            np.multiply(w, weight(r), out=contracted)
            np.multiply(vals, contracted, out=contracted)
            member_sums[idx] = np.sum(contracted, axis=-1)
        count += vals.size
    return [member_sums.reshape(-1, n_dirs) for member_sums in sums], count


def _block_edges(sorted_layers: np.ndarray, nodes: int) -> list[int]:
    """Edges of the blocks of the layer-sorted pairs: each block takes as
    many pairs as fit in _CHUNK_BUDGET evaluated points at its largest
    layer count, and at least one.  One sweep over the runs of equal count."""
    edges = [0]
    if sorted_layers.size == 0:
        return edges
    bounds = [0, *(np.flatnonzero(np.diff(sorted_layers)) + 1).tolist(), sorted_layers.size]
    for start, end in zip(bounds[:-1], bounds[1:]):
        cap = max(1, _CHUNK_BUDGET // (int(sorted_layers[start]) * nodes))
        if start + 1 - edges[-1] > cap:
            edges.append(start)  # the open block is full before this run
        edges.extend(range(edges[-1] + cap, end, cap))
    edges.append(sorted_layers.size)
    return edges


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
    """One evaluation at the given spec, along the second half of an even
    sphere rule in 2D and 3D; returns (one value per member, node count)."""
    grid = tensor_grid(d, spec.outer_nodes)
    dirs, wdir = sphere_rule(d.dimension, spec.angular_nodes)
    R = boundary_distances(d, grid.points, dirs)
    # Shrink the cutoff near the boundary so the corrected ball stays inside
    # the domain.
    eps_x = np.minimum(spec.eps * d.diameter(), 0.5 * R.min(axis=1))
    half = dirs.shape[0] // 2
    if d.dimension > 1 and 2 * half == dirs.shape[0]:
        # The second half of an even rule holds the antipodes of the first,
        # and a symmetric integrand integrates the same along omega and -omega.
        dirs, R, wdir = dirs[half:], R[:, half:], 2.0 * wdir[half:]
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
    for N > 1, half the directions (at least 8).  A spec at all three floors
    is its own rung down, so it is compared one rung up instead: twice the
    outer nodes, two radial nodes more and, for N > 1, twice the directions.

    The passes are independent, so their order changes no value.  The
    smaller one runs first: in glibc's allocator, the large block it frees
    at its end raises the thresholds below which freed memory stays in the
    heap, so the other pass reuses its pages instead of returning them to
    the system after each engine block and faulting them in again."""
    angular = spec.angular_nodes if dim == 1 else max(8, 2 * (spec.angular_nodes // 4))
    other = replace(spec, outer_nodes=max(4, spec.outer_nodes // 2),
                    radial_nodes=max(2, spec.radial_nodes - 2), angular_nodes=angular)
    rung_up = other == spec
    if rung_up:
        other = replace(spec, outer_nodes=2 * spec.outer_nodes, radial_nodes=spec.radial_nodes + 2,
                        angular_nodes=spec.angular_nodes * (1 if dim == 1 else 2))
    runs = [evaluate(sp) for sp in ((spec, other) if rung_up else (other, spec))]
    (fine, nodes), (coarse, _) = runs if rung_up else runs[::-1]
    return [IntegralResult(f, abs(f - c), nodes) for f, c in zip(fine, coarse)]


def _run_batch(pair_fn, d, spec, members: Sequence[_Member]) -> list[IntegralResult]:
    """Fine and coarse passes over a batch of members: one IntegralResult
    per member, from one integrand evaluation per pass."""
    if not members:
        raise ConfigurationError("an engine batch needs at least one member")
    return two_level(lambda sp: _domain_pass(pair_fn, d, sp, members), spec, d.dimension)


def _run_two_level(pair_fn, d, spec, radial_weight, near_field) -> IntegralResult:
    """_run_batch for the one member (radial_weight, near_field)."""
    (res,) = _run_batch(pair_fn, d, spec, [(radial_weight, near_field)])
    return res


def _check_diagonal(pair_fn, d: Domain, spec: QuadratureSpec) -> None:
    """Sample the numerator on the diagonal and at distinct pairs taken both
    ways round; abort if it does not vanish on the diagonal or is not
    symmetric."""
    grid = tensor_grid(d, min(spec.outer_nodes, 5))
    pts = grid.points
    diag = pair_fn(pts, pts)
    if np.isnan(np.asarray(diag)).any():
        raise IntegrationError("integrand is NaN on the diagonal")
    probe = pts + 0.125 * (d.center - pts)
    distinct = np.linalg.norm(probe - pts, axis=-1) > 0.0
    scale = 1.0
    if distinct.any():
        x, y = pts[distinct], probe[distinct]
        forward = np.asarray(pair_fn(x, y))
        scale = max(1.0, float(np.max(np.abs(forward))))
        if float(np.max(np.abs(forward - pair_fn(y, x)))) > 1e-10 * scale:
            raise ConfigurationError(
                "integrand is not symmetric, f(x, y) != f(y, x); in 2D and 3D "
                "the engine integrates each pair along only one of its two directions"
            )
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
    hook at s_list[k]; the integrand is evaluated once per pass for all.

    The integrand must be symmetric, f(x, y) = f(y, x), as there; an
    asymmetric one is refused before any pass."""
    s_list = check_s_list(s_list)
    if len(near_fields) != len(s_list):
        raise ConfigurationError("need one near-field hook (or None) per s value")
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

    ``integrand`` must accept broadcastable point arrays of shape (..., N),
    vanish on the diagonal and be symmetric, f(x, y) = f(y, x), both checked
    by sampling.  In 2D and 3D the engine integrates each pair of points
    once, along one of the two directions that join them, so an asymmetric
    integrand would get a wrong value; it is refused with ConfigurationError
    in every dimension.

    ``near_field``, if given, maps (outer points (C, N), cutoff radii (C,))
    to the analytic sub-cutoff contribution per outer point; it is only
    applied in "taylor-correct" mode.
    """
    check_fractional_order(s)
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
