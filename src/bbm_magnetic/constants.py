"""Dimensional constants of the nonlocal-to-local limit.

K_N is half the second angular moment of the unit sphere,
K_N = (1/2) * integral over S^{N-1} of |omega . e|^2 = |S^{N-1}| / (2N),
and Q_N = 2 K_N.  The fractional normalization c(N, s) is the standard
one making the nonlocal operator the Fourier multiplier |xi|^{2s} at zero
potential, written pole-free so that c(N, s)/(1 - s) has a finite positive
limit as s -> 1, namely 2 N Gamma(N/2) / pi^{N/2} = 2 / K_N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError
from .geometry import check_dimension, sphere_area

__all__ = [
    "DimensionalConstants",
    "dimensional_constants",
    "bbm_constant",
    "check_fractional_order",
    "fractional_constant",
    "fractional_constant_limit",
]


@dataclass(frozen=True)
class DimensionalConstants:
    dim: int
    sphere_area: float
    second_moment: float  # Q_N
    bbm_constant: float   # K_N = Q_N / 2


def dimensional_constants(dim: int) -> DimensionalConstants:
    area = sphere_area(dim)
    q = area / dim
    return DimensionalConstants(dim, area, q, q / 2.0)


def bbm_constant(dim: int) -> float:
    """K_N = |S^{N-1}| / (2N) = Q_N / 2."""
    return dimensional_constants(dim).bbm_constant


def check_fractional_order(s: float) -> None:
    """Raise ConfigurationError unless the fractional order s lies in (0, 1)."""
    if not 0.0 < s < 1.0:
        raise ConfigurationError(f"fractional order s={s} outside (0, 1)")


def fractional_constant(dim: int, s: float) -> float:
    """Normalization c(N, s) = 4^s Gamma(N/2 + s) s (1 - s) / (pi^{N/2} Gamma(2 - s)).

    Equivalent to 4^s Gamma(N/2 + s) / (pi^{N/2} |Gamma(-s)|) via the
    reflection identity |Gamma(-s)| = Gamma(2 - s) / (s (1 - s)), but free of
    the Gamma pole at s = 1.
    """
    check_dimension(dim)
    check_fractional_order(s)
    return (
        4.0**s
        * math.gamma(dim / 2.0 + s)
        * s
        * (1.0 - s)
        / (math.pi ** (dim / 2.0) * math.gamma(2.0 - s))
    )


def fractional_constant_limit(dim: int) -> float:
    """Limit of c(N, s)/(1 - s) as s -> 1: 4 N Gamma(N/2) / (2 pi^{N/2})."""
    check_dimension(dim)
    return 4.0 * dim * math.gamma(dim / 2.0) / (2.0 * math.pi ** (dim / 2.0))
