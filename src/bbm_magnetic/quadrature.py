"""Singular double integrals over Omega x Omega with |x-y|^(-N-2s) kernels.

The engine rewrites the inner integral in radial-angular coordinates around
each outer node, y = x + r*omega, so the kernel times the volume element
collapses to the one-dimensional weight r^(-1-2s).  With g(r) = f(x, y)/r^2,
which is smooth on [0, R] because the integrand vanishes to second order on
the diagonal, each ray integral is R^(2-2s) int_0^1 g(R tau) tau^(1-2s) dtau.
One product-integration rule (Sloan and Smith, SIAM J. Numer. Anal. 19,
1982) integrates it: the same Gauss-Legendre nodes tau_k on every ray, and
weights that integrate the singular factor tau^(1-2s) exactly against the
interpolant of g.  Nothing is cut off, and nothing is restored by a Taylor
term, so the rule stays accurate as s -> 1 and needs no gradient.  It is
ray_rule's one-panel case; the operator takes its composite case (Atkinson,
The Numerical Solution of Integral Equations of the Second Kind, CUP 1997).

Only the weights depend on s (or on the mollifier kernel); the integrand
and the nodes do not.  So the engine takes a batch of members, each a ray
density r^beta h(r), evaluates the integrand once per pass and contracts
it against every member.  A pure power (h = None) gets the closed-form
weights.  Any other kernel is integrated on one fixed fine rule, graded
toward 0, whose nodes do not depend on beta: each block takes g to the
fine nodes once, with a fixed Lagrange matrix, and every kernel member
weighs those values with h at the fine radii.  Each member's sums do not
depend on which other members share its batch.

Every ray carries the same number of nodes, so the rays are cut into
blocks of a fixed number P, in order and without padding.  A block is
stored node-major, its inner points as an (N, K, P) array and its outer
points as an (N, P) one, so every per-ray broadcast runs over P-long rows
and a pure power's ray sums are one matrix-vector product over the nodes.
A block holds at most _CHUNK_BUDGET points (or one ray), so its integrand
temporaries stay cache-sized.  The node count of a result counts these
evaluated points.

Each call of the engine allocates one workspace, sized to one block but
at least _WORKSPACE_FLOOR, and every block takes its outer and inner
points, and its fine planes when a member has a kernel, from the front of
it.  So a pass touches the same pages from block to block instead of
freeing and faulting in new ones, and the points handed to the integrand
(and through it to fields and potentials) are views that the next block
overwrites: no closure may keep them after it returns.  The workspace
belongs to one call, so concurrent calls never share it.  The seminorm and
mollifier integrand, fields.magnetic_difference_sq, takes one tangent per
point, in place of the phase's cosine and sine.

The seminorm and mollifier integrands are symmetric, f(x, y) = f(y, x), and
so is the kernel, so the ray along omega from x covers the same pairs as the
ray along -omega from y.  A domain pass therefore integrates over the
antipodal half of its sphere rule (geometry.antipodal_half): half the
integrand points, except on an odd-count 2D rule, which has no such half.

Summation is a fixed-order pairwise tree over outer nodes, so results are
bit-for-bit reproducible regardless of how callers schedule the work.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .constants import check_fractional_order
from .errors import ConfigurationError, IntegrationError, check_coordinates, check_integer
from .geometry import (Domain, antipodal_half, boundary_distances, check_domain, gauss_legendre,
                       sphere_rule, tensor_grid)

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "check_spec",
    "pairwise_sum",
    "product_rule",
    "ray_rule",
    "double_integral_singular",
    "radial_angular",
    "radial_integral",
    "tail_integral",
    "two_level",
]

# Cap on the integrand points evaluated per block of rays: small enough
# that one block's integrand temporaries fit in a 2 MB L2 cache.
_CHUNK_BUDGET = 8_192
# The least size, in doubles, of an engine call's workspace: 1 MiB.  Freeing
# it at the end of a pass raises glibc's mmap threshold to its size and the
# trim threshold to twice that, so the next pass's block temporaries, the
# integrand's included, are reused in the heap instead of being returned to
# the system and faulted in again block after block.  A workspace sized to
# the block alone left that to the heap's earlier history: the same ball3d
# benchmark sweep faulted 6,653 or 17,148 pages, and took 0.05 or 0.07 s
# (2-core Xeon, one thread), with the length of the checkout's path.
_WORKSPACE_FLOOR = 1 << 17
# The fine rule behind every non-power kernel: _FINE_NODES Gauss-Legendre
# nodes t on [0, 1], moved toward 0 by tau = t**_GRADING.
_FINE_NODES = 96
_GRADING = 2


@dataclass(frozen=True)
class QuadratureSpec:
    """All discretization knobs for the singular double integrals: outer
    nodes per axis, sphere-rule directions and product-rule nodes per ray.
    Every field is required; harness.default_spec(N) holds the defaults."""

    outer_nodes: int
    angular_nodes: int
    radial_nodes: int

    def __post_init__(self):
        for f in fields(self):  # storing the normalised value
            object.__setattr__(self, f.name, check_integer(getattr(self, f.name), f"quadrature {f.name}"))
        if min(self.outer_nodes, self.angular_nodes, self.radial_nodes) < 1:
            raise ConfigurationError("all node counts must be >= 1")


def check_spec(spec) -> QuadratureSpec:
    """Return spec, or raise ConfigurationError unless it is a QuadratureSpec."""
    if not isinstance(spec, QuadratureSpec):
        raise ConfigurationError(f"quadrature must be a QuadratureSpec, got {spec!r}")
    return spec


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


def _legendre_rows(x: np.ndarray, n: int) -> np.ndarray:
    """P_j(x_k), j < n, shape (x.size, n): numpy's legvander(x, n - 1), in
    its recurrence order and memory layout, so the two agree bit for bit."""
    v = np.empty((n, x.size))
    v[0] = 1.0
    if n > 1:
        v[1] = x
    for j in range(2, n):
        v[j] = (v[j - 1] * x * (2 * j - 1) - v[j - 2] * (j - 1)) / j
    return v.T


@lru_cache(maxsize=64)
def _legendre01(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes tau_k and weights w_k on [0, 1], and the matrix
    (2j + 1) P_j(2 tau_k - 1), j < n, which interpolates at those nodes."""
    xi, wi = gauss_legendre(n)
    basis = _legendre_rows(xi, n) * (2.0 * np.arange(n) + 1.0)
    out = (0.5 * (xi + 1.0), 0.5 * wi, basis)
    for a in out:
        a.flags.writeable = False
    return out


@lru_cache(maxsize=256)
def product_rule(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """The n Gauss-Legendre nodes tau_k of [0, 1] and the weights that give
    int_0^1 p(tau) tau^beta dtau exactly for every polynomial p of degree
    below n; beta > -1, and beta = 0 is plain Gauss-Legendre.

    The weights come from the Legendre modified moments
    mu_j = int_0^1 tau^beta P_j(2 tau - 1) dtau
         = prod_{i<j} (beta - i) / prod_{i=1}^{j+1} (beta + i):
    the Gauss-Legendre rule sums P_i P_j exactly for i, j < n, so the weights
    w_k sum_j (2j + 1) mu_j P_j(2 tau_k - 1) reproduce every moment."""
    tau, w, basis = _legendre01(n)
    j = np.arange(n - 1)
    mu = np.cumprod(np.concatenate(([1.0 / (beta + 1.0)], (beta - j) / (beta + j + 2.0))))
    weights = w * (basis @ mu)
    weights.flags.writeable = False
    return tau, weights


def ray_rule(edges: Sequence[float], nodes: Sequence[int], beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Radii and weights of int_0^edges[-1] F(r) r^beta dr, F smooth and
    edges[0] = 0: product_rule on [0, edges[1]], exact in r^beta, then
    Gauss-Legendre on F r^beta on each later panel; panel i has nodes[i]
    nodes.  ray_rule((0.0, 1.0), (n,), beta) is product_rule(n, beta)."""
    radii, weights = [], []
    for i, (lo, hi, n) in enumerate(zip(edges, edges[1:], nodes)):
        tau, w = product_rule(n, 0.0 if i else beta)
        radii.append(lo + (hi - lo) * tau)
        weights.append((hi - lo) * w * radii[-1] ** beta if i else (hi - lo) ** (beta + 1.0) * w)
    return np.concatenate(radii), np.concatenate(weights)


def _fine_rule(beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of int_0^1 F(tau) tau^beta dtau for a smooth F, on
    the fine rule: with tau = t^q, that is q int_0^1 F(t^q) t^(q(beta+1)-1) dt,
    a product rule in t."""
    t, v = product_rule(_FINE_NODES, _GRADING * (beta + 1.0) - 1.0)
    return t**_GRADING, _GRADING * v


@lru_cache(maxsize=64)
def _fine_lagrange(n: int) -> np.ndarray:
    """ell_k(tau_j) / tau_k^2: the Lagrange basis of the n-node ray rule at
    the fine nodes tau_j, shape (n, _FINE_NODES), over the squared nodes that
    turn a pair integrand f into g = f / r^2 on the unit ray."""
    tau, w, basis = _legendre01(n)
    fine = _legendre_rows(2.0 * _fine_rule(0.0)[0] - 1.0, n)
    lagrange = (basis * w[:, None]) @ fine.T / tau[:, None] ** 2
    lagrange.flags.writeable = False
    return lagrange


def _refuse_nan(values: np.ndarray, points: np.ndarray) -> None:
    """Raise IntegrationError naming the first point whose integrand value
    is NaN; points holds one (N,) point per entry of values."""
    if np.isnan(values).any():
        bad = points[tuple(np.argwhere(np.isnan(values))[0])]
        raise IntegrationError(f"integrand produced NaN at y={bad.tolist()}")


def _check_kernel(sums: np.ndarray, kernel, radii: np.ndarray) -> None:
    """Raise IntegrationError if a kernel member's ray sums are NaN or
    infinite, naming the first radius at which its kernel is not finite, and
    ConfigurationError if the kernel is negative, naming the first such
    radius; the kernel values are searched only then, so finite sums of a
    nonnegative kernel cost one pass over P and one over the kernel."""
    finite = np.isfinite(sums).all()
    if not finite or np.min(kernel) < 0.0:
        kernel = np.broadcast_to(kernel, radii.shape)
        bad = np.argwhere(kernel < 0.0 if finite else ~np.isfinite(kernel))
        bad = tuple(bad[0]) if bad.size else None
        where = "" if bad is None else f" at r={float(radii[bad])!r}"
        if not finite:
            nan = np.isnan(sums if bad is None else kernel[bad]).any()
            raise IntegrationError(f"mollifier kernel sum is {'NaN' if nan else 'infinite'}{where}")
        raise ConfigurationError(f"mollifier kernel must be nonnegative, got {kernel[bad]:g}{where}")


def radial_integral(fn: Callable, lo: float, hi: float, beta: float = 0.0) -> float:
    """int_lo^hi fn(r) (r - lo)^beta dr on the fine rule, graded toward lo;
    fn, a kernel's ray density, must be smooth on [lo, hi] and is checked
    as the engine checks a kernel (_check_kernel)."""
    if hi <= lo:
        return 0.0
    tau, v = _fine_rule(beta)
    radii = lo + (hi - lo) * tau
    kernel = fn(radii)
    with np.errstate(invalid="ignore"):  # an infinite value: a NaN sum, refused below
        value = (hi - lo) ** (beta + 1.0) * (v @ kernel)
    _check_kernel(value, kernel, radii)
    return float(value)


# A batch member: the ray density r^beta * h(r) that g(r) = f(x, x + r omega) / r^2
# is integrated against, with h None for the pure power r^beta.
_Member = tuple[float, Optional[Callable[[np.ndarray], np.ndarray]]]


def radial_angular(
    pair_fn: Callable,
    X: np.ndarray,
    R: np.ndarray,
    dirs: np.ndarray,
    nodes: int,
    members: Sequence[_Member],
) -> tuple[list[np.ndarray], int]:
    """Integrals of pair_fn(x, x + r*omega) r^(beta-2) h(r) over r in [0, R],
    per point and direction, for each member (beta, h), and the number of
    integrand values.

    X holds C points (C, N), dirs the M unit directions (M, N) and R the exit
    distances (C, M); pair_fn returns real values that vanish to second order
    at r = 0.  Returns one (C, M) array per member; a NaN integrand value
    raises IntegrationError.  The integrand is evaluated once for all the
    members, at the ``nodes`` nodes R tau_k of product_rule on each ray.

    The rays, point-major, are cut into blocks of P rays, stored node-major:
    pair_fn gets the outer points as a (1, P, N) view of an (N, P) array and
    the inner points as a (K, P, N) view of an (N, K, P) array, and returns
    (K, P) values.  So every per-coordinate op and per-ray broadcast runs
    over P-long contiguous rows, inside user closures too, where a C-ordered
    last axis would run loops of length N <= 3.

    A kernel member's ray integral is v @ (h(radii) * G): radii and G are
    the (_FINE_NODES, P) planes of the fine radii R tau_j and of g at them,
    computed once per block and shared by every kernel member, and v is its
    fine rule's weight row.  A NaN or infinite sum raises IntegrationError,
    and a negative kernel value ConfigurationError, naming the radius.

    The points given to pair_fn, and the radii given to the members, are
    views into this call's workspace: pair_fn and h must not write into
    them or keep them after they return.  h may return radii itself, so
    the engine never writes into what h returns.
    """
    n_dim, n_dirs = X.shape[1], dirs.shape[0]
    R = R.ravel()
    tau = product_rule(nodes, 0.0)[0]
    rays = max(1, _CHUNK_BUDGET // nodes)
    # Per member: the closed-form weight row of a pure power, or the fine
    # rule's weight row of a kernel.
    rules = [product_rule(nodes, beta)[1] / tau**2 if h is None else _fine_rule(beta)[1]
             for beta, h in members]
    # The fine nodes do not depend on beta, so with any kernel member every
    # block takes g to them once, and every kernel member only weighs those
    # values.
    fine = _FINE_NODES if any(h is not None for _, h in members) else 0
    # The workspace: the N planes of the gathered outer points, one entry
    # per ray, then the N planes of Y, one entry per point, and, with a
    # kernel member, the fine radii, the fine values of g and the product
    # plane, one entry per fine node.  Every block takes its arrays from the
    # front of it, so the pages a pass touches stay mapped from block to
    # block; the results are allocated with it, before the first block.
    per_ray = n_dim * (1 + nodes) + 3 * fine
    work = np.empty(max(per_ray * min(rays, R.size), _WORKSPACE_FLOOR))
    sums = [np.empty(R.shape) for _ in members]
    for lo in range(0, R.size, rays):
        hi = min(lo + rays, R.size)
        p = hi - lo
        xs = work[: n_dim * p].reshape(n_dim, p)
        Y = work[n_dim * p : n_dim * (1 + nodes) * p].reshape(n_dim, nodes, p)
        ci, mi = np.divmod(np.arange(lo, hi), n_dirs)
        xs[...] = X[ci].T
        Rb = R[lo:hi]
        for j in range(n_dim):
            np.multiply(tau[:, None], Rb * dirs[mi, j], out=Y[j])
            Y[j] += xs[j]
        x, y = xs.T[None], Y.transpose(1, 2, 0)  # (1, P, N) and (K, P, N) views
        vals = pair_fn(x, y)
        _refuse_nan(vals.T, y.swapaxes(0, 1))
        if fine:
            radii, fine_vals, product = work[n_dim * (1 + nodes) * p : per_ray * p].reshape(3, fine, p)
            np.multiply(_fine_rule(0.0)[0][:, None], Rb, out=radii)
            np.matmul(_fine_lagrange(nodes).T, vals, out=fine_vals)
        for member_sums, (beta, h), rule in zip(sums, members, rules):
            out = member_sums[lo:hi]
            if h is None:
                np.matmul(rule, vals, out=out)
            else:
                kernel = h(radii)  # may be radii itself, so it is only read
                with np.errstate(invalid="ignore"):  # an infinite kernel: NaN sums, refused below
                    np.multiply(kernel, fine_vals, out=product)
                    np.matmul(rule, product, out=out)
                _check_kernel(out, kernel, radii)
            out *= Rb ** (beta - 1.0)
    return [member_sums.reshape(-1, n_dirs) for member_sums in sums], R.size * nodes


def _domain_pass(
    pair_fn: Callable, d: Domain, spec: QuadratureSpec, members: Sequence[_Member]
) -> tuple[list[float], int]:
    """One evaluation at the given spec, along the second half of an even
    sphere rule; returns (one value per member, node count)."""
    grid = tensor_grid(d, spec.outer_nodes)
    # a symmetric integrand integrates the same along omega and -omega
    dirs, wdir = antipodal_half(d.dimension, spec.angular_nodes)
    R = boundary_distances(d, grid.points, dirs)
    per_dir, count = radial_angular(pair_fn, grid.points, R, dirs, spec.radial_nodes, members)
    return [float(pairwise_sum(grid.weights * (integrals @ wdir))) for integrals in per_dir], count


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
    check_spec(spec)
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


def _run_two_level(pair_fn, d, spec, member: _Member) -> IntegralResult:
    """_run_batch for the one member."""
    (res,) = _run_batch(pair_fn, d, spec, [member])
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
                "integrand is not symmetric, f(x, y) != f(y, x); the engine "
                "integrates each pair along only one of its two directions"
            )
    if float(np.max(np.abs(diag))) > 1e-10 * scale:
        raise IntegrationError(
            "integrand does not vanish on the diagonal; the double integral "
            "would diverge for s >= 1/2"
        )


def _power_member(s: float) -> _Member:
    """The member of |x-y|^(-N-2s): g integrated against r^(1-2s)."""
    return (1.0 - 2.0 * s, None)


def double_integral_singular(
    integrand: Callable, d: Domain, s: float, spec: QuadratureSpec
) -> IntegralResult:
    """Integrate f(x, y) / |x - y|^(N+2s) over Omega x Omega.

    ``integrand`` must accept broadcastable point arrays of shape (..., N),
    return real values, vanish to second order on the diagonal (as a squared
    difference does) and be symmetric, f(x, y) = f(y, x); vanishing and
    symmetry are checked by sampling.  The engine integrates each pair of
    points once, along one of the two directions that join them, so an
    asymmetric integrand would get a wrong value; it is refused with
    ConfigurationError.
    """
    check_fractional_order(s)
    _check_diagonal(integrand, d, check_spec(spec))
    return _run_two_level(integrand, d, spec, _power_member(s))


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
    x = np.array(check_coordinates(x, "point", check_domain(d).dimension))
    if not bool(d.contains(x)):
        raise ConfigurationError(f"tail integral diverges: {x.tolist()} is not interior")
    return float(tail_integral_many(d, x[None, :], [s], angular_nodes)[0][0])
