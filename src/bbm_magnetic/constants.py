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

from .errors import ConfigurationError, is_real
from .geometry import check_dimension, sphere_area

__all__ = [
    "bbm_constant",
    "check_fractional_order",
    "check_s_list",
    "fractional_constant",
    "fractional_constant_limit",
]


def bbm_constant(dim: int) -> float:
    """K_N = |S^{N-1}| / (2N) = Q_N / 2."""
    return sphere_area(dim) / dim / 2.0


def check_fractional_order(s) -> None:
    """Raise ConfigurationError unless the fractional order s is a real number in (0, 1)."""
    if not is_real(s):
        raise ConfigurationError(f"fractional order s must be a number, got {s!r}")
    if not 0.0 < s < 1.0:
        raise ConfigurationError(f"fractional order s={s} outside (0, 1)")


def check_s_list(s_list) -> list[float]:
    """The s values as floats, if s_list is a list or tuple of real numbers,
    nonempty and strictly increasing inside (0, 1); else a ConfigurationError."""
    if not isinstance(s_list, (list, tuple)) or not all(map(is_real, s_list)):
        raise ConfigurationError(f"s_list must be a list of numbers, got {s_list!r}")
    outside = [s for s in s_list if not 0.0 < s < 1.0]
    s_vals = [] if outside else [float(s) for s in s_list]  # float() overflows outside
    if outside or not s_vals or any(b <= a for a, b in zip(s_vals, s_vals[1:])):
        detail = f"s={outside[0]} outside (0, 1)" if outside else f"got {s_vals}"
        raise ConfigurationError(
            f"s_list must be a nonempty, strictly increasing list inside (0, 1); {detail}"
        )
    return s_vals


def fractional_constant(dim: int, s: float) -> float:
    """Normalization c(N, s) = 4^s Gamma(N/2 + s) s (1 - s) / (pi^{N/2} Gamma(2 - s)).

    Equivalent to 4^s Gamma(N/2 + s) / (pi^{N/2} |Gamma(-s)|) via the
    reflection identity |Gamma(-s)| = Gamma(2 - s) / (s (1 - s)), but free of
    the Gamma pole at s = 1.
    """
    check_dimension(dim)
    check_fractional_order(s)
    return (4.0**s * math.gamma(dim / 2.0 + s) * s * (1.0 - s)
            / (math.pi ** (dim / 2.0) * math.gamma(2.0 - s)))


def fractional_constant_limit(dim: int) -> float:
    """Limit of c(N, s)/(1 - s) as s -> 1: 4 N Gamma(N/2) / (2 pi^{N/2})."""
    check_dimension(dim)
    return 4.0 * dim * math.gamma(dim / 2.0) / (2.0 * math.pi ** (dim / 2.0))
