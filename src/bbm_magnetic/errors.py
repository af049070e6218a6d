"""Exception types shared across the package.

The CLI maps these onto exit codes: ConditionViolation -> 1,
ConfigurationError -> 2, IntegrationError -> 3; any other exception is a
defect and exits 4.
"""


class ConfigurationError(ValueError):
    """Bad input: unresolvable label, unsupported dimension, or malformed configuration."""


class ConditionViolation(Exception):
    """A named mathematical condition or assertion failed (e.g. a mollifier
    family violating its normalization trend)."""


class IntegrationError(Exception):
    """Quadrature failure: NaN integrand, refused far-field truncation, or a
    kernel numerator that does not vanish on the diagonal."""
