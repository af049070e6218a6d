"""Built-in verification corpus: analytic fields and potentials by label.

Labels are the CLI-facing names.  Parametrized entries use a colon syntax,
e.g. ``linear:alpha=1`` or ``landau:beta=0.5``.  All closures are global on
R^N; the compactly supported bumps are extended by zero, which is exact.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .fields import ScalarField, VectorPotential
from .geometry import box, interval

__all__ = ["resolve_field", "resolve_potential"]

# Shell width inside (-1, 1) on which exp(-1/(1-x^2)) is already below 1e-14.
_BUMP_MARGIN = 0.015


def _bump(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t, dtype=float)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


def _bump_d1(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t, dtype=float)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    q = 1.0 - ti * ti
    out[inside] = np.exp(-1.0 / q) * (-2.0 * ti / q**2)
    return out


def _bump_d2(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t, dtype=float)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    q = 1.0 - ti * ti
    out[inside] = np.exp(-1.0 / q) * (4.0 * ti * ti / q**4 - 2.0 / q**2 - 8.0 * ti * ti / q**3)
    return out


def _bump1d() -> ScalarField:
    def val(p):
        return _bump(p[..., 0]).astype(complex)

    def grad(p):
        return _bump_d1(p[..., 0]).astype(complex)[..., None]

    def hess(p):
        return _bump_d2(p[..., 0]).astype(complex)[..., None, None]

    return ScalarField(
        1,
        val,
        grad,
        hess,
        support_domain=interval(-1.0, 1.0),
        support_margin=_BUMP_MARGIN,
        label="bump1d",
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


def _bump2d() -> ScalarField:
    def val(p):
        return (_bump(p[..., 0]) * _bump(p[..., 1])).astype(complex)

    def grad(p):
        x, y = p[..., 0], p[..., 1]
        g = np.stack([_bump_d1(x) * _bump(y), _bump(x) * _bump_d1(y)], axis=-1)
        return g.astype(complex)

    return ScalarField(
        2,
        val,
        grad,
        None,
        support_domain=box([0.0, 0.0], [1.0, 1.0]),
        support_margin=_BUMP_MARGIN,
        label="bump2d",
    )


def _zero_potential(dim: int) -> VectorPotential:
    return VectorPotential(
        dim,
        value=lambda p: np.zeros_like(np.asarray(p, dtype=float)),
        divergence=lambda p: np.zeros(np.asarray(p).shape[:-1]),
        label="zero",
    )


def _const1d(alpha: float) -> VectorPotential:
    return VectorPotential(
        1,
        value=lambda p: np.full_like(np.asarray(p, dtype=float), alpha),
        divergence=lambda p: np.zeros(np.asarray(p).shape[:-1]),
        label=f"const:alpha={alpha:g}",
    )


def _linear1d(alpha: float) -> VectorPotential:
    return VectorPotential(
        1,
        value=lambda p: alpha * np.asarray(p, dtype=float),
        divergence=lambda p: np.full(np.asarray(p).shape[:-1], alpha),
        label=f"linear:alpha={alpha:g}",
    )


def _landau(beta: float) -> VectorPotential:
    def val(p):
        p = np.asarray(p, dtype=float)
        return np.stack([-0.5 * beta * p[..., 1], 0.5 * beta * p[..., 0]], axis=-1)

    return VectorPotential(
        2,
        value=val,
        divergence=lambda p: np.zeros(np.asarray(p).shape[:-1]),
        label=f"landau:beta={beta:g}",
    )


# Entries by label name: (factory, its parameters with their defaults).
_FIELDS = {
    "gauss1d": (lambda: _gauss(1), {}),
    "bump1d": (_bump1d, {}),
    "modgauss1d": (_modgauss1d, {"kappa": 1.0}),
    "gauss2d": (lambda: _gauss(2), {}),
    "bump2d": (_bump2d, {}),
}
_POTENTIALS = {
    "zero": (_zero_potential, {}),
    "const": (_const1d, {"alpha": 1.0}),
    "linear": (_linear1d, {"alpha": 1.0}),
    "landau": (_landau, {"beta": 1.0}),
}


def _parse(label: str, entries: dict, what: str) -> tuple[Callable, dict]:
    """The factory of the label's entry and its parameters, defaults filled
    in.  An unknown entry, a parameter the entry does not take, a repeated
    parameter and a malformed one raise ConfigurationError."""
    name, _, tail = label.partition(":")
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
    factory, params = _parse(label, _POTENTIALS, "potential")
    pot = factory(dim) if factory is _zero_potential else factory(**params)
    if pot.dim != dim:
        raise ConfigurationError(
            f"potential {label!r} is {pot.dim}-dimensional, domain is {dim}-dimensional"
        )
    return pot
