"""Pointwise application of the fractional magnetic operator and of the
local magnetic Schrodinger operator, plus an s -> 1 consistency scan.

The fractional operator is evaluated as a principal value: each direction
omega is paired with its antipode, so the ray integrand
h(r, omega) = (2u(x) - Phi(x, x+r omega) u(x+r omega) - Phi(x, x-r omega) u(x-r omega)) / r^2
is smooth at r = 0, and the principal value is C(N, s)/2 times the
integral of h r^(1-2s) over the sphere and over r in [0, inf).  Each ray
takes quadrature.ray_rule: a product-rule panel [0, 6], which integrates
r^(1-2s) exactly, then three Gauss-Legendre panels, growing geometrically,
to the far radius 40; beyond it an analytic tail uses the field's decay.
h is even in omega, so the directions are the antipodal
half of the sphere rule (geometry.antipodal_half): each ray point is
evaluated once, and an odd-count 2D rule, which has no such half, is
taken whole.

Only the ray weights and closed-form factors depend on s, so a whole
s-list shares one evaluation of h and one far-rim check;
``fractional_magnetic_apply`` is the list of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import check_fractional_order, check_s_list, fractional_constant
from .errors import ConfigurationError, IntegrationError, check_coordinates
from .fields import ScalarField, VectorPotential, magnetic_difference, require_dimension
from .geometry import antipodal_half
from .quadrature import QuadratureSpec, _refuse_nan, check_spec, ray_rule

__all__ = [
    "OperatorSample",
    "fractional_magnetic_apply",
    "local_magnetic_apply",
    "operator_limit_scan",
]

# Length that scales the panels, the far radius and the decay probes; the
# corpus problems live on domains of diameter 2.
_REF_LENGTH = 2.0
_DECAY_TOL = 1e-10
# The ray's panel edges and node counts: the product-rule panel [0, 3 _REF_LENGTH],
# then three geometric panels out to the far radius 20 _REF_LENGTH, the last edge.
_RAY_EDGES = (0.0, *(3.0 * _REF_LENGTH * (20.0 / 3.0) ** (np.arange(4) / 3)).tolist())
_RAY_NODES = (32, 16, 16, 16)


def local_magnetic_apply(u: ScalarField, A: VectorPotential, x) -> complex:
    """-(grad - iA)^2 u at x, i.e. -Lap u + 2i A . grad u + |A|^2 u + i u div A."""
    x = np.array(check_coordinates(x, "point"))
    require_dimension(x.size, u, A, by="point")
    if u.hessian is None or u.gradient is None:
        raise ConfigurationError("local magnetic operator needs an analytic gradient and Hessian")
    if A.divergence is None:
        raise ConfigurationError("local magnetic operator needs divergence metadata")
    lap = np.trace(u.hessian(x), axis1=-2, axis2=-1)
    grad = u.gradient(x)
    a = A(x)
    val = u.value(x)
    return complex(
        -lap
        + 2j * np.sum(a * grad, axis=-1)
        + np.sum(a * a, axis=-1) * val
        + 1j * val * A.divergence(x)
    )


def _fractional_values(
    u: ScalarField,
    A: VectorPotential,
    x: np.ndarray,
    s_vals: Sequence[float],
    spec: QuadratureSpec,
) -> list[complex]:
    """The fractional operator at x at every s in s_vals, from one
    evaluation of the ray integrand for all: s enters only the ray weights
    and closed forms."""
    n = u.dim
    r_far = _RAY_EDGES[-1]
    dirs, wdir = antipodal_half(n, check_spec(spec).angular_nodes)

    probes = [x[None, :]]
    for scale in (0.5, 1.0, 2.0):
        probes.append(x[None, :] + scale * _REF_LENGTH * np.eye(n))
        probes.append(x[None, :] - scale * _REF_LENGTH * np.eye(n))
    u_scale = max(float(np.max(np.abs(u.value(np.vstack(probes))))), 1e-300)

    rules = [ray_rule(_RAY_EDGES, _RAY_NODES, 1.0 - 2.0 * s) for s in s_vals]
    radii = rules[0][0]
    # the ray nodes, then the far rim, along omega and -omega: (2, M, K + 1, N)
    step = dirs[:, None, :] * np.append(radii, r_far)[:, None]
    y = x + np.stack((step, -step))
    diffs = magnetic_difference(u, A, x, y)
    _refuse_nan(diffs, y)
    far_diff = diffs[..., -1]
    rim_u = float(np.max(np.abs(u.value(y[..., -1, :]))))
    # Beyond the far radius the difference is continued as constant in r,
    # which is exact up to the field's decay there (the usual case) or up to
    # an identically cancelling difference (pure-gauge pairs).  Anything else
    # makes the truncation unsound, so refuse it.
    if rim_u > _DECAY_TOL * u_scale and float(np.max(np.abs(far_diff))) > _DECAY_TOL * u_scale:
        raise IntegrationError(
            f"far-field truncation refused: |u| at radius {r_far:g} is "
            f"{rim_u:.3e}, above {_DECAY_TOL:g} of the field scale, and the "
            "magnetic difference does not cancel there"
        )
    far_sum = 0.5 * complex(wdir @ (far_diff[0] + far_diff[1]))
    ray = 0.5 * (wdir @ ((diffs[0, :, :-1] + diffs[1, :, :-1]) / radii**2))
    # one dot product per s, so a value does not depend on the rest of the list
    return [fractional_constant(n, s) * (complex(ray @ w) + far_sum * r_far ** (-2.0 * s) / (2.0 * s))
            for s, (_, w) in zip(s_vals, rules)]


def fractional_magnetic_apply(
    u: ScalarField,
    A: VectorPotential,
    x,
    s: float,
    spec: QuadratureSpec,
) -> complex:
    """Principal-value evaluation of the fractional magnetic operator at x."""
    check_fractional_order(s)
    x = np.array(check_coordinates(x, "point"))
    require_dimension(x.size, u, A, by="point")
    (value,) = _fractional_values(u, A, x, [s], spec)
    return value


@dataclass(frozen=True)
class OperatorSample:
    s: float
    fractional: complex
    local: complex
    discrepancy: float


def operator_limit_scan(
    u: ScalarField,
    A: VectorPotential,
    x,
    s_list: Sequence[float],
    spec: QuadratureSpec,
) -> list[OperatorSample]:
    """Fractional vs local operator values along an increasing s sequence."""
    s_vals = check_s_list(s_list)
    x = np.array(check_coordinates(x, "point"))
    loc = local_magnetic_apply(u, A, x)
    fracs = _fractional_values(u, A, x, s_vals, spec)
    return [OperatorSample(s, frac, loc, abs(frac - loc)) for s, frac in zip(s_vals, fracs)]
