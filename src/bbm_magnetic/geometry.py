"""Convex domains, unit-sphere rules, and outer quadrature grids.

Domains are restricted to intervals, axis-aligned boxes, and balls in
dimension N <= 3.  Convexity guarantees that a ray from an interior point
leaves the domain exactly once, which is what makes the directional
boundary-distance query (and with it the exact exterior tail integral)
well defined.

tensor_grid gives each domain its outer rule: a Gauss-Legendre tensor grid
on an interval or a box, and on a disk or a 3D ball a polar product rule,
Gauss-Legendre in the radius times a sphere rule, whose nodes all lie
inside the ball and which converges spectrally for smooth integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (ConfigurationError, IntegrationError, check_coordinates, check_integer,
                     check_number, is_integer)

__all__ = [
    "Domain",
    "TensorGrid",
    "interval",
    "box",
    "ball",
    "direction",
    "boundary_distances",
    "check_dimension",
    "check_domain",
    "gauss_legendre",
    "sphere_rule",
    "antipodal_half",
    "sphere_area",
    "tensor_grid",
]


# Newton's method for the Gauss-Legendre roots stops one evaluation after a
# step that moves no root by more than _NEWTON_TOL, so the error left is of
# the order of its square.  From Tricomi's estimate the third step (the
# fourth for n = 2, 3, 4) is that small; the iteration gives up when step
# _NEWTON_STEPS still is not.
_NEWTON_TOL = 1e-12
_NEWTON_STEPS = 10


def check_dimension(dim: int) -> None:
    """Raise ConfigurationError unless dim is the integer 1, 2 or 3."""
    if not (is_integer(dim) and dim in (1, 2, 3)):
        raise ConfigurationError(f"unsupported dimension {dim}; expected 1, 2 or 3")


@lru_cache(maxsize=64)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once
    per n: ascending nodes, exactly antisymmetric, with +0.0 in the middle
    for odd n.

    Newton's method on the three-term recurrence finds the ceil(n/2)
    nonnegative roots of P_n, started from Tricomi's estimate (Hale and
    Townsend, SIAM J. Sci. Comput. 35, 2013), and the weights are
    2 / ((1 - x^2) P_n'(x)^2) at the converged roots; the rest is mirrored.
    """
    if check_integer(n, "Gauss-Legendre node count") < 1:
        raise ConfigurationError("a Gauss-Legendre rule needs at least one node")
    m = (n + 1) // 2
    theta = math.pi * (4.0 * np.arange(1, m + 1) - 1.0) / (4.0 * n + 2.0)
    shrink = 1.0 - (n - 1) / (8.0 * n**3) - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)
    x = shrink * np.cos(theta)  # descending
    if n % 2:
        x[-1] = 0.0  # a root of every odd P_n, where the recurrence gives exactly 0
    p, q, r, dp = (np.empty(m) for _ in range(4))
    last = math.inf  # the largest change of the last Newton step
    for _ in range(_NEWTON_STEPS + 1):
        # p = P_n(x), q = P_{n-1}(x), and dp = P_n'(x) = n (x P_n - P_{n-1}) / (x^2 - 1)
        q.fill(1.0)
        p[:] = x
        for k in range(1, n):
            np.multiply(x, p, out=r)
            r *= (2 * k + 1) / (k + 1)
            q *= k / (k + 1)
            r -= q
            p, q, r = r, p, q
        np.multiply(x, p, out=dp)
        dp -= q
        np.multiply(1.0 - x, 1.0 + x, out=r)  # 1 - x^2, exact to rounding near 1
        dp *= -n
        dp /= r
        if last <= _NEWTON_TOL:
            break  # quadratic convergence: x is exact to rounding, dp evaluated there
        step = p / dp
        x -= step
        last = np.max(np.abs(step))
    else:
        raise IntegrationError(f"Gauss-Legendre Newton iteration for n={n} did not converge")
    w = 2.0 / (r * dp**2)
    nodes, weights = np.empty(n), np.empty(n)
    nodes[n - m:], weights[n - m:] = x[::-1], w[::-1]
    nodes[: n // 2], weights[: n // 2] = -x[: n // 2], w[: n // 2]
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def sphere_area(dim: int) -> float:
    """Surface measure of the unit sphere S^{dim-1} (2, 2*pi, 4*pi)."""
    check_dimension(dim)
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


@dataclass(frozen=True, eq=False)
class Domain:
    """A bounded convex domain: interval, axis-aligned box, or ball.

    ``extents`` holds per-axis half-widths for intervals and boxes, and the
    single radius for balls; a 1D box or ball is stored as its interval.  Two
    domains are equal when their kind, center and extents are; in 1D, when
    they are one set."""

    kind: str
    center: np.ndarray
    extents: np.ndarray

    def __post_init__(self):
        center = np.array(check_coordinates(self.center, "domain center"))
        extents = np.array(check_coordinates(self.extents, "domain extents"))
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "extents", extents)
        if self.kind not in ("interval", "box", "ball"):
            raise ConfigurationError(f"unknown domain kind {self.kind!r}")
        n = center.size
        check_dimension(n)
        if self.kind == "interval" and n != 1:
            raise ConfigurationError("intervals are one-dimensional")
        if self.kind == "ball":
            if extents.size != 1:
                raise ConfigurationError("a ball takes a single radius extent")
        elif extents.size != n:
            raise ConfigurationError("box extents must match the dimension")
        if not np.all(extents > 0.0):
            raise ConfigurationError("all extents must be strictly positive")
        if n == 1:
            object.__setattr__(self, "kind", "interval")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Domain):
            return NotImplemented
        return (self.kind == other.kind and np.array_equal(self.center, other.center)
                and np.array_equal(self.extents, other.extents))

    @property
    def dimension(self) -> int:
        return self.center.size

    def diameter(self) -> float:
        if self.kind == "ball":
            return 2.0 * float(self.extents[0])
        return 2.0 * float(np.linalg.norm(self.extents))

    def volume(self) -> float:
        if self.kind == "ball":
            r = float(self.extents[0])
            n = self.dimension
            return {2: math.pi * r**2, 3: 4.0 * math.pi * r**3 / 3.0}[n]
        return float(np.prod(2.0 * self.extents))

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == "ball":
            half = np.full(self.dimension, float(self.extents[0]))
        else:
            half = self.extents
        return self.center - half, self.center + half

    def contains(self, points: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """Boolean mask of points at distance > margin inside the boundary."""
        pts = np.asarray(points, dtype=float)
        if self.kind == "ball":
            d = np.linalg.norm(pts - self.center, axis=-1)
            return d < float(self.extents[0]) - margin
        rel = np.abs(pts - self.center)
        return np.all(rel < self.extents - margin, axis=-1)

    def covers(self, inner: "Domain", margin: float = 0.0) -> bool:
        """Whether inner, shrunk by margin, lies in the closure of this domain."""
        rel = np.abs(inner.center - self.center)
        half = inner.extents - margin  # half-widths, or the radius of a ball
        if self.kind != "ball":
            return bool(np.all(rel + half <= self.extents))
        if inner.kind == "ball":
            return bool(np.linalg.norm(rel) + half[0] <= self.extents[0])
        return bool(np.linalg.norm(rel + half) <= self.extents[0])


def check_domain(d) -> Domain:
    """Return d, or raise ConfigurationError unless it is a Domain."""
    if not isinstance(d, Domain):
        raise ConfigurationError(f"domain must be a Domain, got {d!r}")
    return d


def interval(a: float, b: float) -> Domain:
    """Open interval (a, b) as a 1D domain."""
    a, b = check_number(a, "interval start"), check_number(b, "interval end")
    if not b > a:
        raise ConfigurationError("interval requires a < b")
    return Domain("interval", (a + b) / 2.0, (b - a) / 2.0)


def box(center, halfwidths) -> Domain:
    """Axis-aligned box with the given center and per-axis half-widths."""
    return Domain("box", center, halfwidths)


def ball(center, radius: float) -> Domain:
    """Ball with the given center and radius."""
    return Domain("ball", center, radius)


def direction(v) -> np.ndarray:
    """The unit vector along a nonzero vector."""
    v = np.array(check_coordinates(v, "direction"))
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0 or not np.isfinite(nrm):
        raise ConfigurationError("cannot normalize a zero or non-finite vector")
    return v / nrm


def boundary_distances(d: Domain, X: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Exit distances for every (outer point, direction) pair.

    X holds C points of shape (C, N) inside the domain and dirs M unit
    vectors of shape (M, N); returns shape (C, M).
    """
    if d.kind == "ball":
        rel = X - d.center
        r = float(d.extents[0])
        b = rel @ dirs.T
        disc = b**2 + (r**2 - np.sum(rel * rel, axis=-1))[:, None]
        return -b + np.sqrt(disc)
    # Axis-aligned box: first positive wall crossing per axis.
    lo, hi = d.bounding_box()
    with np.errstate(divide="ignore"):
        t_hi = (hi - X[:, None, :]) / dirs[None, :, :]
        t_lo = (lo - X[:, None, :]) / dirs[None, :, :]
    t_exit = np.where(dirs[None, :, :] > 0.0, t_hi, np.where(dirs[None, :, :] < 0.0, t_lo, np.inf))
    return np.min(t_exit, axis=-1)


def sphere_rule(dim: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights on S^{dim-1} as plain arrays.

    dim=1: the two points {+1, -1}, weight 1 each; count must be 2.
    dim=2: uniform angles (trapezoid rule, spectrally accurate for periodic
    integrands), weight 2*pi/count.
    dim=3: product rule, Gauss-Legendre in cos(theta) times uniform azimuth.

    Every rule with an even number of rows, so every rule but a 2D one of
    odd count, lists the antipodes of its first half in its second half,
    with equal weights: as a set, rows M//2: are the negated rows :M//2.
    In 3D the Gauss-Legendre nodes are symmetric in cos(theta), and with an
    odd polar count the equator ring's second half is the antipodes of its
    first.
    """
    check_dimension(dim)
    if check_integer(count, "sphere rule count") < 1:
        raise ConfigurationError("sphere rule needs count >= 1")
    if dim == 1:
        if count != 2:
            raise ConfigurationError("quadrature angular_nodes must be 2 in 1D, the directions "
                                     f"+1 and -1, got {count}")
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if dim == 2:
        theta = 2.0 * math.pi * np.arange(count) / count
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1), np.full(count, 2.0 * math.pi / count)
    # dim == 3: polar count from the total budget, azimuthal twice that.
    n_pol = max(2, int(round(math.sqrt(count / 2.0))))
    n_azi = 2 * n_pol
    t, wt = gauss_legendre(n_pol)  # t = cos(theta)
    phi = 2.0 * math.pi * np.arange(n_azi) / n_azi
    st = np.sqrt(1.0 - t**2)
    dirs = np.stack([np.outer(st, np.cos(phi)).ravel(), np.outer(st, np.sin(phi)).ravel(),
                     np.repeat(t, n_azi)], axis=-1)
    wts = np.outer(wt, np.full(n_azi, 2.0 * math.pi / n_azi)).ravel()
    return dirs, wts


def antipodal_half(dim: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """sphere_rule(dim, count) for integrands even in omega: an even rule's
    second half with doubled weights, which sums them as the whole rule
    does; an odd-count 2D rule, which has no antipodal half, whole."""
    dirs, wts = sphere_rule(dim, count)
    half = dirs.shape[0] // 2
    return (dirs, wts) if dirs.shape[0] % 2 else (dirs[half:], 2.0 * wts[half:])


@dataclass(frozen=True)
class TensorGrid:
    """The outer quadrature rule of a domain, from tensor_grid.

    On an interval or a box it is the Gauss-Legendre tensor grid with
    ``nodes_per_axis`` nodes on each axis.  On a ball of dimension 2 or 3
    it is a polar product rule (Stroud, Approximate Calculation of Multiple
    Integrals, 1971): with n = ``nodes_per_axis``, ceil(n/2) Gauss-Legendre
    radii on [0, R], whose weights carry the volume element r^(N-1), times
    sphere_rule(2, n) on a disk or sphere_rule(3, n*n // 4) on a 3D ball.
    Every node lies inside the domain, and the weights sum to its volume to
    rounding (on a 3D ball from n = 3, where two radii integrate r^2
    exactly).  A 1D box or ball is an interval (see Domain) and gets its rule.
    """

    domain: Domain
    nodes_per_axis: int
    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def tensor_grid(d: Domain, nodes_per_axis: int) -> TensorGrid:
    """The TensorGrid of d at nodes_per_axis."""
    n = check_integer(nodes_per_axis, "tensor grid nodes per axis")
    if n < 1:
        raise ConfigurationError("tensor grid needs at least one node per axis")
    dim = check_domain(d).dimension
    if d.kind == "ball":
        radius = float(d.extents[0])
        xi, wi = gauss_legendre((n + 1) // 2)
        r = 0.5 * radius * (xi + 1.0)
        dirs, wdir = sphere_rule(dim, n if dim == 2 else max(1, n * n // 4))
        points = (d.center + r[:, None, None] * dirs).reshape(-1, dim)
        weights = np.outer(0.5 * radius * wi * r ** (dim - 1), wdir).ravel()
        return TensorGrid(d, n, points, weights)
    lo, hi = d.bounding_box()
    xi, wi = gauss_legendre(n)
    axes_x, axes_w = [], []
    for a, b in zip(lo, hi):
        half, mid = (b - a) / 2.0, (b + a) / 2.0
        axes_x.append(mid + half * xi)
        axes_w.append(half * wi)
    mesh = np.meshgrid(*axes_x, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    weights = np.prod([wm.ravel() for wm in np.meshgrid(*axes_w, indexing="ij")], axis=0)
    return TensorGrid(d, n, points, weights)
