"""Built-in verification corpus: analytic fields and potentials by label.

Labels are the CLI-facing names.  Parametrized entries use a colon syntax,
e.g. ``linear:alpha=1`` or ``landau:beta=0.5``.  All closures are global on
R^N; the compactly supported bumps are extended by zero, which is exact.
"""

from __future__ import annotations

from functools import partial, reduce
from typing import Callable

import numpy as np

from .errors import ConfigurationError, check_text
from .fields import ScalarField, VectorPotential
from .geometry import box, check_dimension

__all__ = ["resolve_field", "resolve_potential"]

# Shell width inside (-1, 1) on which exp(-1/(1-x^2)) is already below 1e-14.
_BUMP_MARGIN = 0.015


def _bump_factor(t: np.ndarray, order: int) -> np.ndarray:
    """The order-th derivative (0, 1 or 2) of the 1D bump exp(-1/(1-t^2)),
    which is zero where |t| >= 1."""
    out = np.zeros_like(t, dtype=float)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    q = 1.0 - ti * ti
    b = np.exp(-1.0 / q)
    if order == 1:
        b *= -2.0 * ti / q**2
    elif order == 2:
        b *= 4.0 * ti * ti / q**4 - 2.0 / q**2 - 8.0 * ti * ti / q**3
    out[inside] = b
    return out


def _bump(dim: int) -> ScalarField:
    """The product of 1D bumps over the axes, supported on [-1, 1]^dim."""

    def derivative(orders: list[np.ndarray], shape: tuple[int, ...]) -> Callable:
        # Entry j is prod_k of the orders[j][k]-th derivative of the bump at
        # x_k; the entries fill the trailing shape in C order.
        needed = {(k, o) for entry in orders for k, o in enumerate(entry)}

        def evaluate(p):
            factors = {(k, o): _bump_factor(p[..., k], o) for k, o in needed}
            out = np.empty(p.shape[:-1] + (len(orders),), dtype=complex)
            for j, entry in enumerate(orders):
                out[..., j] = reduce(np.multiply, [factors[k, o] for k, o in enumerate(entry)])
            return out.reshape(p.shape[:-1] + shape)

        return evaluate

    unit = np.eye(dim, dtype=int)
    return ScalarField(
        dim,
        derivative([0 * unit[0]], ()),
        derivative(list(unit), (dim,)),
        derivative([a + b for a in unit for b in unit], (dim, dim)),
        support_domain=box([0.0] * dim, [1.0] * dim),
        support_margin=_BUMP_MARGIN,
        label=f"bump{dim}d",
    )


def _modgauss1d(kappa: float) -> ScalarField:
    def val(p):
        x = p[..., 0]
        return np.exp(1j * kappa * x - x * x)

    def grad(p):
        x = p[..., 0]
        return ((1j * kappa - 2.0 * x) * np.exp(1j * kappa * x - x * x))[..., None]

    def hess(p):
        x = p[..., 0]
        u = np.exp(1j * kappa * x - x * x)
        return (((1j * kappa - 2.0 * x) ** 2 - 2.0) * u)[..., None, None]

    return ScalarField(1, val, grad, hess, label=f"modgauss1d:kappa={kappa:g}")


def _gauss(dim: int) -> ScalarField:
    """exp(-|x|^2) in dim dimensions."""

    def val(p):
        return np.exp(-np.sum(p * p, axis=-1)).astype(complex)

    def grad(p):
        return (-2.0 * p * np.exp(-np.sum(p * p, axis=-1))[..., None]).astype(complex)

    def hess(p):
        u = np.exp(-np.sum(p * p, axis=-1))
        eye = np.eye(p.shape[-1])
        outer = 4.0 * p[..., :, None] * p[..., None, :]
        return ((outer - 2.0 * eye) * u[..., None, None]).astype(complex)

    return ScalarField(dim, val, grad, hess, label=f"gauss{dim}d")


# Potential factories take the domain's dimension first; one with no form
# there builds its own dimension, which resolve_potential refuses.
def _zero_divergence(p):
    return np.zeros(np.asarray(p).shape[:-1])


def _zero(dim: int) -> VectorPotential:
    return VectorPotential(dim, lambda p: np.zeros_like(np.asarray(p, dtype=float)),
                           _zero_divergence, label="zero")


def _const(dim: int, alpha: float) -> VectorPotential:
    return VectorPotential(1, lambda p: np.full_like(np.asarray(p, dtype=float), alpha),
                           _zero_divergence, label=f"const:alpha={alpha:g}")


def _linear(dim: int, alpha: float) -> VectorPotential:
    return VectorPotential(1, lambda p: alpha * np.asarray(p, dtype=float),
                           lambda p: np.full(np.asarray(p).shape[:-1], alpha),
                           label=f"linear:alpha={alpha:g}")


def _landau(dim: int, beta: float) -> VectorPotential:
    """The uniform field beta in the symmetric gauge: beta/2 (-x_2, x_1) in 2D,
    beta/2 (-x_2, x_1, 0) in 3D, where the field points along x_3."""
    n = 3 if dim == 3 else 2

    def val(p):
        p = np.asarray(p, dtype=float)
        out = np.zeros(p.shape[:-1] + (n,))
        np.multiply(-0.5 * beta, p[..., 1], out=out[..., 0])
        np.multiply(0.5 * beta, p[..., 0], out=out[..., 1])
        return out

    return VectorPotential(n, val, _zero_divergence, label=f"landau:beta={beta:g}")


# Entries by label name: (factory, its parameters with their defaults).
_FIELDS = {
    "gauss1d": (partial(_gauss, 1), {}),
    "bump1d": (partial(_bump, 1), {}),
    "modgauss1d": (_modgauss1d, {"kappa": 1.0}),
    "gauss2d": (partial(_gauss, 2), {}),
    "bump2d": (partial(_bump, 2), {}),
    "gauss3d": (partial(_gauss, 3), {}),
    "bump3d": (partial(_bump, 3), {}),
}
_POTENTIALS = {
    "zero": (_zero, {}),
    "const": (_const, {"alpha": 1.0}),
    "linear": (_linear, {"alpha": 1.0}),
    "landau": (_landau, {"beta": 1.0}),
}


def _parse(label: str, entries: dict, what: str) -> tuple[Callable, dict]:
    """The factory of the label's entry and its parameters, defaults filled
    in.  An unknown entry, a parameter the entry does not take, a repeated
    parameter, a malformed one and a label that is not a string raise
    ConfigurationError."""
    name, _, tail = check_text(label, f"{what} label").partition(":")
    name = name.strip()
    if name not in entries:
        known = [f"{key}:" + ",".join(f"{k}={v:g}" for k, v in defaults.items()) if defaults
                 else key for key, (_, defaults) in entries.items()]
        raise ConfigurationError(f"unknown {what} label {label!r}; known: {known}")
    factory, defaults = entries[name]
    params: dict[str, float] = {}
    for part in tail.split(",") if tail else ():
        key, _, raw = part.partition("=")
        key = key.strip()
        if not raw:
            raise ConfigurationError(f"malformed parameter {part!r} in label {label!r}")
        if key not in defaults:
            raise ConfigurationError(
                f"{what} {name!r} takes no parameter {key!r} (label {label!r}); "
                f"its parameters: {list(defaults)}"
            )
        if key in params:
            raise ConfigurationError(f"repeated parameter {key!r} in label {label!r}")
        try:
            params[key] = float(raw)
        except ValueError as exc:
            raise ConfigurationError(f"non-numeric parameter in label {label!r}") from exc
    return factory, {**defaults, **params}


def resolve_field(label: str) -> ScalarField:
    factory, params = _parse(label, _FIELDS, "field")
    return factory(**params)


def resolve_potential(label: str, dim: int) -> VectorPotential:
    check_dimension(dim)
    factory, params = _parse(label, _POTENTIALS, "potential")
    pot = factory(dim, **params)
    if pot.dim != dim:
        raise ConfigurationError(f"potential {label!r} has no {dim}-dimensional form")
    return pot
