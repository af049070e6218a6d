"""Exception types shared across the package, and the value checkers that
every input check uses.

The CLI maps these onto exit codes: ConditionViolation -> 1,
ConfigurationError -> 2, IntegrationError -> 3; any other exception is a
defect and exits 4.  A checker returns its value normalised (float, int,
string or tuple of floats) or raises ConfigurationError naming what the
value must be; numpy scalars are numbers and bools never are.  Configs built
in code and config files therefore meet the same checks and messages.
"""

import math
import numbers
from typing import Optional


class ConfigurationError(ValueError):
    """Bad input: unresolvable label, unsupported dimension, or malformed configuration."""


class ConditionViolation(Exception):
    """A named mathematical condition or assertion failed (e.g. a mollifier
    family violating its normalization trend)."""


class IntegrationError(Exception):
    """Quadrature failure: NaN integrand, refused far-field truncation, or a
    kernel numerator that does not vanish on the diagonal."""


def is_real(value) -> bool:
    """Whether value is a real number (a Python or numpy scalar, not a bool)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_integer(value) -> bool:
    """Whether value is an integer (a Python or numpy integer, not a bool)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_number(value, what: str) -> float:
    try:
        if is_real(value) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond float range
        pass
    raise ConfigurationError(f"{what} must be a finite number, got {value!r}")


def check_positive(value, what: str) -> float:
    """A positive finite number; every other value is refused with one message."""
    try:
        if check_number(value, what) > 0.0:
            return float(value)
    except ConfigurationError:
        pass
    raise ConfigurationError(f"{what} must be positive and finite, got {value!r}")


def check_integer(value, what: str) -> int:
    if is_integer(value):
        return int(value)
    raise ConfigurationError(f"{what} must be an integer, got {value!r}")


def check_text(value, what: str) -> str:
    if isinstance(value, str):
        return value
    raise ConfigurationError(f"{what} must be a string, got {value!r}")


def check_numbers(value, what: str, size: Optional[int] = None) -> tuple:
    """A list or tuple (of ``size`` entries, if given) checked entry by entry."""
    if not isinstance(value, (list, tuple)) or size not in (None, len(value)):
        count = "" if size is None else f"{size} "
        raise ConfigurationError(f"{what} must be a list of {count}numbers, got {value!r}")
    return tuple(check_number(v, what) for v in value)


def check_coordinates(value, what: str, size: Optional[int] = None) -> tuple:
    """A point, shift or domain vector: one number, or a list, tuple or 1-D
    numpy array of numbers (``size`` of them, if given), each checked by
    check_number."""
    if hasattr(value, "tolist"):  # a numpy array or scalar
        value = value.tolist()
    return check_numbers(value if isinstance(value, (list, tuple)) else [value], what, size)
