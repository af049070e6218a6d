"""Pointwise application of the fractional magnetic operator and of the
local magnetic Schrodinger operator, plus an s -> 1 consistency scan.

The fractional operator is evaluated as a principal value in three pieces:
a radial-angular annulus integral between the cutoff ball and a far radius
(the quadrature engine's ``radial_angular``),
an analytic far tail using the field's decay, and a symmetric second-order
estimate of the cutoff ball itself.  The ball term matters: its size is
proportional to eps^(2-2s), which no representable cutoff makes negligible
as s approaches 1, so dropping it would wreck the local-limit comparison.

Only the annulus's radial weight and closed-form factors depend on s, so a
whole s-list shares one annulus pass, one far-rim check and one ball
difference; ``fractional_magnetic_apply`` is the list of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import check_fractional_order, check_s_list, fractional_constant
from .errors import ConfigurationError, IntegrationError
from .fields import (ScalarField, VectorPotential, magnetic_difference, midpoint_phase,
                     require_dimension)
from .geometry import sphere_rule
from .quadrature import QuadratureSpec, _power_weight, radial_angular

__all__ = [
    "OperatorSample",
    "fractional_magnetic_apply",
    "local_magnetic_apply",
    "operator_limit_scan",
]

# Length that scales the cutoff, the far radius and the decay probes; the
# corpus problems live on domains of diameter 2.
_REF_LENGTH = 2.0
_FAR_FACTOR = 20.0
_DECAY_TOL = 1e-10


def local_magnetic_apply(u: ScalarField, A: VectorPotential, x) -> complex:
    """-(grad - iA)^2 u at x, i.e. -Lap u + 2i A . grad u + |A|^2 u + i u div A."""
    if u.hessian is None or u.gradient is None:
        raise ConfigurationError("local magnetic operator needs an analytic gradient and Hessian")
    if A.divergence is None:
        raise ConfigurationError("local magnetic operator needs divergence metadata")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    require_dimension(x.size, u, A)
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
    """The fractional operator at x at every s in s_vals, from one engine
    pass for all the annuli: s enters only their weights and closed forms."""
    n = u.dim
    eps_abs = spec.eps * _REF_LENGTH
    r_far = _FAR_FACTOR * _REF_LENGTH
    dirs, wdir = sphere_rule(n, spec.angular_nodes)

    probes = [x[None, :]]
    for scale in (0.5, 1.0, 2.0):
        probes.append(x[None, :] + scale * _REF_LENGTH * np.eye(n))
        probes.append(x[None, :] - scale * _REF_LENGTH * np.eye(n))
    u_scale = max(float(np.max(np.abs(u.value(np.vstack(probes))))), 1e-300)

    ux = complex(u.value(x[None, :])[0])
    y_rim = x + r_far * dirs
    far_diff = magnetic_difference(u, A, x[None, :], y_rim)
    rim_u = float(np.max(np.abs(u.value(y_rim))))
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
    far_sum = complex(far_diff @ wdir)

    per_dir, _ = radial_angular(
        lambda xs, y: magnetic_difference(u, A, xs, y),
        x[None, :], np.full((1, dirs.shape[0]), r_far), np.array([eps_abs]), dirs, spec,
        [_power_weight(s) for s in s_vals], complex,
    )

    y_plus = x + eps_abs * dirs
    y_minus = x - eps_abs * dirs
    sym = (
        2.0 * ux
        - midpoint_phase(A, np.broadcast_to(x, y_plus.shape), y_plus) * u.value(y_plus)
        - midpoint_phase(A, np.broadcast_to(x, y_minus.shape), y_minus) * u.value(y_minus)
    ) / eps_abs**2
    ball_sum = 0.5 * (sym @ wdir)

    out = []
    for s, annulus_dirs in zip(s_vals, per_dir):
        annulus = complex(annulus_dirs[0] @ wdir)
        ball = (complex(ball_sum * eps_abs ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s))
                if spec.near_field == "taylor-correct" else 0.0)
        far = far_sum * r_far ** (-2.0 * s) / (2.0 * s)
        out.append(fractional_constant(n, s) * (annulus + ball + far))
    return out


def fractional_magnetic_apply(
    u: ScalarField,
    A: VectorPotential,
    x,
    s: float,
    spec: QuadratureSpec,
) -> complex:
    """Principal-value evaluation of the fractional magnetic operator at x."""
    check_fractional_order(s)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    require_dimension(x.size, u, A)
    (value,) = _fractional_values(u, A, x, [s], spec)
    return value


@dataclass(frozen=True)
class OperatorSample:
    point: tuple[float, ...]
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
    x = np.atleast_1d(np.asarray(x, dtype=float))
    loc = local_magnetic_apply(u, A, x)
    fracs = _fractional_values(u, A, x, s_vals, spec)
    return [OperatorSample(tuple(x.tolist()), s, frac, loc, abs(frac - loc))
            for s, frac in zip(s_vals, fracs)]
