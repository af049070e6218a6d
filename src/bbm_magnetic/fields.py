"""Complex scalar test fields, magnetic vector potentials, and gauge maps.

Every field is an analytic closure over all of R^N, vectorized over point
arrays of shape (..., N).  Values are complex, gradients complex (..., N),
Hessians complex (..., N, N).  A field is compactly supported exactly
when it carries a support domain.  Potentials are real vector fields with
optional divergence metadata.  Quadrature error is therefore
entirely the integrator's: there is no interpolation anywhere.

A closure's point array may be a non-contiguous view: the quadrature
engine stores a block's points coordinate- and node-major, as (N, K, P)
inner and (N, P) outer arrays, and hands over their (K, P, N) and
(1, P, N) views.  Closures must neither write into their points nor
assume C order (for example by reading the raw buffer or the strides);
index a coordinate as p[..., j].  The view lives in a buffer that the
engine overwrites with the next block's points, so a closure must not keep
its points, or a view of them, after it returns: copy what it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, check_number
from .geometry import Domain, check_dimension

__all__ = [
    "ScalarField",
    "VectorPotential",
    "GaugeFunction",
    "midpoint_phase",
    "magnetic_difference",
    "magnetic_difference_sq",
    "magnetic_gradient",
    "magnetic_density",
    "require_dimension",
    "gauge_transform",
    "modulus_field",
    "scaled_field",
]


def _check_closures(obj, kind: str, optional: tuple[str, ...]) -> None:
    """Refuse a dimension other than 1, 2 or 3, a value that is not callable
    and an optional closure that is neither callable nor None."""
    check_dimension(obj.dim)
    for name in ("value",) + optional:
        fn = getattr(obj, name)
        if not (callable(fn) or (fn is None and name != "value")):
            extra = "" if name == "value" else " or None"
            raise ConfigurationError(f"{kind} {name} must be callable{extra}, got {fn!r}")


@dataclass(frozen=True)
class ScalarField:
    """Analytic complex scalar field on R^N.

    The field is compactly supported exactly when it has a
    ``support_domain``: it then vanishes (below 1e-14 in modulus) on the
    shell of width ``support_margin`` inside that domain's boundary and
    identically outside it.  A field without one may be nonzero anywhere.
    """

    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    support_domain: Optional[Domain] = None
    support_margin: float = 0.0
    label: str = ""

    def __post_init__(self):
        """Check every field but the label; store the support margin as a float."""
        _check_closures(self, "field", ("gradient", "hessian"))
        support = self.support_domain
        if not (support is None or isinstance(support, Domain) and support.dimension == self.dim):
            raise ConfigurationError("field support domain must be None or a "
                                     f"{self.dim}-dimensional Domain, got {support!r}")
        margin = check_number(self.support_margin, "field support margin")
        if margin < 0.0:
            raise ConfigurationError(f"field support margin must be >= 0, got {margin!r}")
        object.__setattr__(self, "support_margin", margin)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.value(np.asarray(points, dtype=float))

    @property
    def is_compact(self) -> bool:
        return self.support_domain is not None


@dataclass(frozen=True)
class VectorPotential:
    """Real vector field A with an optional divergence closure."""

    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    divergence: Optional[Callable[[np.ndarray], np.ndarray]] = None
    label: str = ""

    def __post_init__(self):
        """Check every field but the label."""
        _check_closures(self, "potential", ("divergence",))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.value(np.asarray(points, dtype=float))


@dataclass(frozen=True)
class GaugeFunction:
    """Affine gauge phi(x) = b . x + c; grad(phi) is the constant b."""

    b: np.ndarray
    c: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "b", np.atleast_1d(np.asarray(self.b, dtype=float)))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.b + self.c


def _midpoint_angle(A: VectorPotential, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The angle (x - y) . A((x + y)/2) as a new array of the broadcast shape
    without its last axis.  Works one coordinate at a time, on a
    coordinate-major midpoint, and gives the same bits as
    np.sum((x - y) * A(0.5 * (x + y)), axis=-1): the dot product adds its
    terms left to right onto +0, as np.sum does."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast_shapes(x.shape, y.shape)
    n = shape[-1]
    mid = np.empty((n,) + shape[:-1])
    for j in range(n):
        np.add(x[..., j], y[..., j], out=mid[j, ...])
    mid *= 0.5
    a = A(mid.transpose(*range(1, mid.ndim), 0))
    del mid
    arg, term = np.zeros(shape[:-1]), np.empty(shape[:-1])
    for j in range(n):
        np.subtract(x[..., j], y[..., j], out=term)
        term *= a[..., j]
        arg += term
    return arg


def midpoint_phase(A: VectorPotential, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unit-modulus factor exp(i (x - y) . A((x + y)/2)), broadcast over
    point arrays; 1 when x == y.  The operator's phase."""
    arg = _midpoint_angle(A, x, y)
    phase = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=phase.real)
    np.sin(arg, out=phase.imag)
    return phase[()]


def magnetic_difference(
    u: ScalarField, A: VectorPotential, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """The magnetic difference u(x) - exp(i (x - y) . A((x + y)/2)) u(y),
    broadcast over point arrays; gauge covariant for affine gauges."""
    ux = u.value(x)
    diff = np.asarray(midpoint_phase(A, x, y))  # 0-d for one pair, so out= takes it
    diff *= u.value(y)
    return np.subtract(ux, diff, out=diff)[()]


def magnetic_difference_sq(
    u: ScalarField, A: VectorPotential, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """|magnetic_difference|^2, the seminorm and mollifier integrand, from
    t = tan(theta/2), theta = (x - y) . A((x + y)/2), since exp(i theta) =
    (1 + i t)/(1 - i t): with a = u(x) and b = u(y), |(a - b) - i t (a + b)|^2
    / (1 + t^2).  The engine evaluates it at every point of a pass, and one
    tangent, a vectorised numpy loop, costs a fraction of the cosine and sine
    of exp(i theta).  a - b is formed first, so no cancellation is added to
    its own; x <-> y negates theta and both parts exactly (tan is odd)."""
    t = _midpoint_angle(A, x, y)
    np.tan(np.multiply(t, 0.5, out=t), out=t)
    a, b = u.value(x), u.value(y)
    re, im, work = np.empty_like(t), np.empty_like(t), np.empty_like(t)
    np.subtract(a.real, b.real, out=re)
    np.add(a.imag, b.imag, out=work)
    work *= t
    re += work  # (a.r - b.r) + t (a.i + b.i)
    np.subtract(a.imag, b.imag, out=im)
    np.add(a.real, b.real, out=work)
    work *= t
    im -= work  # (a.i - b.i) - t (a.r + b.r)
    re *= re
    im *= im
    re += im
    t *= t
    t += 1.0
    re /= t
    return re[()]


def gauge_transform(
    u: ScalarField, A: VectorPotential, g: GaugeFunction
) -> tuple[ScalarField, VectorPotential]:
    """Apply the gauge change u -> e^{i phi} u, A -> A + grad(phi).

    Restricted to affine phi, for which the midpoint phase reproduces the
    gauge factor exactly and all magnetic energies are exactly invariant.
    Analytic gradient and Hessian are transformed when available.
    """
    b = g.b

    def new_value(p):
        return np.exp(1j * g(p)) * u.value(p)

    new_grad = None
    if u.gradient is not None:

        def new_grad(p):
            ph = np.exp(1j * g(p))
            return ph[..., None] * (u.gradient(p) + 1j * b * u.value(p)[..., None])

    new_hess = None
    if u.hessian is not None and u.gradient is not None:

        def new_hess(p):
            ph = np.exp(1j * g(p))[..., None, None]
            grad = u.gradient(p)
            val = u.value(p)[..., None, None]
            cross = 1j * (b[:, None] * grad[..., None, :] + b[None, :] * grad[..., :, None])
            return ph * (u.hessian(p) + cross - np.outer(b, b) * val)

    def new_pot(p):
        return A(p) + b

    shifted = VectorPotential(
        dim=A.dim,
        value=new_pot,
        divergence=A.divergence,
        label=f"{A.label}+affine" if A.label else "affine-shift",
    )
    lifted = replace(
        u,
        value=new_value,
        gradient=new_grad,
        hessian=new_hess,
        label=f"{u.label}*gauge" if u.label else "gauged",
    )
    return lifted, shifted


def modulus_field(u: ScalarField) -> ScalarField:
    """Pointwise |u|: real-valued, with no analytic gradient attached."""

    def mod_value(p):
        return np.abs(u.value(p)).astype(complex)

    return replace(
        u,
        value=mod_value,
        gradient=None,
        hessian=None,
        label=f"|{u.label}|" if u.label else "modulus",
    )


def scaled_field(u: ScalarField, lam: complex) -> ScalarField:
    """The field lam * u, with gradient and Hessian scaled alongside."""
    lam = complex(lam)
    grad = None if u.gradient is None else (lambda p: lam * u.gradient(p))
    hess = None if u.hessian is None else (lambda p: lam * u.hessian(p))
    return replace(
        u,
        value=lambda p: lam * u.value(p),
        gradient=grad,
        hessian=hess,
        label=f"{lam}*{u.label}" if u.label else "scaled",
    )


def magnetic_gradient(u: ScalarField, A: VectorPotential, points: np.ndarray) -> np.ndarray:
    """The magnetic gradient grad u - i A u at the points, shape (..., N)."""
    if u.gradient is None:
        raise ConfigurationError("the magnetic gradient needs a field with an analytic gradient")
    return u.gradient(points) - 1j * A(points) * u.value(points)[..., None]


def magnetic_density(u: ScalarField, A: VectorPotential, points: np.ndarray) -> np.ndarray:
    """The local magnetic energy density |grad u - i A u|^2 at the points."""
    return np.sum(np.abs(magnetic_gradient(u, A, points)) ** 2, axis=-1)


def require_dimension(dim: int, u: ScalarField, *potential: VectorPotential,
                      by: str = "domain") -> None:
    """Reject a field, and the potential when one is passed, that is not one
    or that does not live in dimension ``dim``, which ``by`` set: the
    domain, the point or the field itself."""
    for kind, obj, cls in zip(("field", "potential"), (u,) + potential,
                              (ScalarField, VectorPotential)):
        if not isinstance(obj, cls):
            raise ConfigurationError(f"{kind} must be a {cls.__name__}, got {obj!r}")
        if obj.dim != dim:
            name = f" {obj.label!r}" if obj.label else ""
            raise ConfigurationError(
                f"{kind}{name} is {obj.dim}-dimensional, the {by} is {dim}-dimensional"
            )
