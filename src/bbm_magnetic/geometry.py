"""Convex domains, unit-sphere rules, and tensor quadrature grids.

Domains are restricted to intervals, axis-aligned boxes, and balls in
dimension N <= 3.  Convexity guarantees that a ray from an interior point
leaves the domain exactly once, which is what makes the directional
boundary-distance query (and with it the exact exterior tail integral)
well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, check_coordinates, check_integer, is_integer

__all__ = [
    "Domain",
    "Direction",
    "TensorGrid",
    "interval",
    "box",
    "ball",
    "direction",
    "boundary_distance",
    "boundary_distances",
    "check_dimension",
    "gauss_legendre",
    "sphere_rule",
    "sphere_area",
    "tensor_grid",
]


def check_dimension(dim: int) -> None:
    """Raise ConfigurationError unless dim is the integer 1, 2 or 3."""
    if not (is_integer(dim) and dim in (1, 2, 3)):
        raise ConfigurationError(f"unsupported dimension {dim}; expected 1, 2 or 3")


@lru_cache(maxsize=64)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once
    per n (the eigenvalue solve behind them dominates small grids)."""
    xi, wi = np.polynomial.legendre.leggauss(n)
    xi.flags.writeable = False
    wi.flags.writeable = False
    return xi, wi


def sphere_area(dim: int) -> float:
    """Surface measure of the unit sphere S^{dim-1} (2, 2*pi, 4*pi)."""
    check_dimension(dim)
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


@dataclass(frozen=True, eq=False)
class Domain:
    """A bounded convex domain: interval, axis-aligned box, or ball.

    ``extents`` holds per-axis half-widths for intervals and boxes, and the
    single radius for balls.  Two domains are equal when their kind, center
    and extents are.
    """

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
            return {1: 2.0 * r, 2: math.pi * r**2, 3: 4.0 * math.pi * r**3 / 3.0}[n]
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


def interval(a: float, b: float) -> Domain:
    """Open interval (a, b) as a 1D domain."""
    if not b > a:
        raise ConfigurationError("interval requires a < b")
    return Domain("interval", (a + b) / 2.0, (b - a) / 2.0)


def box(center, halfwidths) -> Domain:
    """Axis-aligned box with the given center and per-axis half-widths."""
    return Domain("box", center, halfwidths)


def ball(center, radius: float) -> Domain:
    """Ball with the given center and radius."""
    return Domain("ball", center, radius)


@dataclass(frozen=True)
class Direction:
    """A unit vector; the constructor rejects vectors off the unit sphere."""

    unit: np.ndarray

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.unit, dtype=float))
        object.__setattr__(self, "unit", u)
        if abs(float(np.linalg.norm(u)) - 1.0) > 1e-14:
            raise ConfigurationError("direction vector is not unit length")


def direction(v) -> Direction:
    """Normalize a nonzero vector into a Direction."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0 or not np.isfinite(nrm):
        raise ConfigurationError("cannot normalize a zero or non-finite vector")
    return Direction(v / nrm)


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


def boundary_distance(d: Domain, x, w: Direction) -> float:
    """Distance R with x + R*w on the boundary and x + t*w interior for t < R."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not bool(d.contains(x)):
        raise ConfigurationError(f"point {x.tolist()} is not strictly inside the domain")
    return float(boundary_distances(d, x[None, :], w.unit[None, :])[0, 0])


def sphere_rule(dim: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights on S^{dim-1} as plain arrays.

    dim=1: the two points {+1, -1}, weight 1 each.
    dim=2: uniform angles (trapezoid rule, spectrally accurate for periodic
    integrands), weight 2*pi/count.
    dim=3: product rule, Gauss-Legendre in cos(theta) times uniform azimuth.
    """
    check_dimension(dim)
    if check_integer(count, "sphere rule count") < 1:
        raise ConfigurationError("sphere rule needs count >= 1")
    if dim == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if dim == 2:
        k = np.arange(count)
        theta = 2.0 * math.pi * k / count
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        wts = np.full(count, 2.0 * math.pi / count)
        return dirs, wts
    # dim == 3: polar count from the total budget, azimuthal twice that.
    n_pol = max(2, int(round(math.sqrt(count / 2.0))))
    n_azi = 2 * n_pol
    t, wt = gauss_legendre(n_pol)  # t = cos(theta)
    phi = 2.0 * math.pi * np.arange(n_azi) / n_azi
    st = np.sqrt(1.0 - t**2)
    dirs = np.stack(
        [
            np.outer(st, np.cos(phi)).ravel(),
            np.outer(st, np.sin(phi)).ravel(),
            np.outer(t, np.ones(n_azi)).ravel(),
        ],
        axis=-1,
    )
    wts = np.outer(wt, np.full(n_azi, 2.0 * math.pi / n_azi)).ravel()
    return dirs, wts


@dataclass(frozen=True)
class TensorGrid:
    """Gauss-Legendre tensor grid on the domain's bounding box.

    For balls, nodes outside the domain are dropped (inside-domain mask), so
    the weight sum approaches |domain| from the masked rule.
    """

    domain: Domain
    nodes_per_axis: int
    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def tensor_grid(d: Domain, nodes_per_axis: int) -> TensorGrid:
    if check_integer(nodes_per_axis, "tensor grid nodes per axis") < 1:
        raise ConfigurationError("tensor grid needs at least one node per axis")
    lo, hi = d.bounding_box()
    xi, wi = gauss_legendre(nodes_per_axis)
    axes_x, axes_w = [], []
    for a, b in zip(lo, hi):
        half, mid = (b - a) / 2.0, (b + a) / 2.0
        axes_x.append(mid + half * xi)
        axes_w.append(half * wi)
    mesh = np.meshgrid(*axes_x, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    wmesh = np.meshgrid(*axes_w, indexing="ij")
    weights = np.ones(points.shape[0])
    for wm in wmesh:
        weights = weights * wm.ravel()
    if d.kind == "ball":
        keep = d.contains(points)
        points, weights = points[keep], weights[keep]
    return TensorGrid(d, nodes_per_axis, points, weights)
