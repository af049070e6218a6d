"""Experiment drivers: s-sweeps, mollifier sweeps, lemma checks, limit
extrapolation, and deterministic CSV/JSON reports.

A sweep splits its rows into at most ``threads`` contiguous batches and
computes the batches on a thread pool, one call of the kind's plural
function per batch: the seminorm, mollifier and operator kinds evaluate
their integrand once per engine pass for the whole batch.  An integration
error fails every row of its batch.  A row's value does not depend on the
batch it shares, the report is always assembled in parameter order and all
floating-point reductions use fixed-order summation, which is why reruns
(at any thread count) produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .constants import bbm_constant, check_s_list
from .corpus import resolve_field, resolve_potential
from .errors import (ConditionViolation, ConfigurationError, IntegrationError, check_coordinates,
                     check_integer, check_number, check_numbers, check_positive, check_text)
from .fields import magnetic_gradient, require_dimension
from .functionals import (
    MollifierFamily,
    _pass_domain,
    _require_compact,
    bbm_family,
    check_mollifier,
    fullspace_seminorms_sq,
    gaussian_family,
    l2_norm_sq,
    local_magnetic_energy,
    magnetic_seminorms_sq,
    mollified_functionals,
    translation_difference_sq,
)
from .geometry import (Domain, ball, box, check_dimension, check_domain, direction, sphere_rule,
                       tensor_grid)
from .operator import operator_limit_scan
from .quadrature import IntegralResult, QuadratureSpec, check_spec, pairwise_sum

__all__ = [
    "SweepConfig",
    "SweepRow",
    "SweepReport",
    "default_spec",
    "config_from_dict",
    "load_config",
    "run_sweep",
    "extrapolate_limit",
    "emit_report",
    "write_text",
    "report_from_dict",
]

DEFAULT_S_LIST = (0.8, 0.9, 0.95, 0.99)
DEFAULT_INDICES = (2, 4, 6, 8, 12, 16, 24)
DEFAULT_H_LIST = (0.1, 0.05, 0.025, 0.0125)
REPORT_FORMATS = ("csv", "json")
# Trend thresholds for the mollifier admission checks.
_NORMALIZ_TOL = 0.1
_TAIL_TOL = 0.1


def default_spec(dim: int) -> QuadratureSpec:
    """Dimension-dependent default discretization."""
    check_dimension(dim)
    if dim == 1:
        return QuadratureSpec(outer_nodes=160, angular_nodes=2, radial_nodes=64)
    if dim == 2:
        return QuadratureSpec(outer_nodes=24, angular_nodes=48, radial_nodes=16)
    return QuadratureSpec(outer_nodes=12, angular_nodes=128, radial_nodes=16)


@dataclass(frozen=True)
class SweepConfig:
    """One sweep.  Every kind reads the kind, labels, domain and spec; of
    the six optional fields from ``s_list`` to ``delta`` it reads only those
    that ``_PLANS`` names for it.  None leaves an optional field unset."""

    kind: str
    field_label: str
    potential_label: str
    domain: Domain
    s_list: Optional[tuple[float, ...]] = None  # None: DEFAULT_S_LIST
    family: Optional[dict] = None  # None: the gaussian family with DEFAULT_INDICES
    h_list: Optional[tuple[float, ...]] = None  # None: DEFAULT_H_LIST
    direction: Optional[tuple[float, ...]] = None  # None: the first axis
    point: Optional[tuple[float, ...]] = None  # None: the domain's center
    delta: Optional[float] = None  # None: 0.1
    spec: Optional[QuadratureSpec] = None  # None: default_spec of the domain's dimension

    def __post_init__(self):
        """Check every field, naming it by its config-file key; refuse an
        optional field the kind does not read, fill in the defaults of those
        it does, and store the sequences as tuples of floats and a missing
        spec as default_spec."""
        store = partial(object.__setattr__, self)
        if self.kind not in SWEEP_KINDS:
            raise ConfigurationError(f"unknown sweep kind {self.kind!r}; known: {SWEEP_KINDS}")
        reads = _PLANS[self.kind][1]
        unread = [k for k in _OPTIONAL_KEYS if getattr(self, k) is not None and k not in reads]
        if unread:
            raise ConfigurationError(f"a {self.kind} sweep does not read config key(s) {unread}; "
                                     f"its optional keys are {list(reads)}")
        for key, default in _OPTIONAL_DEFAULTS.items():
            if key in reads and getattr(self, key) is None:
                store(key, default)
        check_text(self.field_label, "field")
        check_text(self.potential_label, "potential")
        check_domain(self.domain)
        if self.s_list is not None:
            store("s_list", tuple(check_s_list(self.s_list)))
        if self.family is not None:
            _family_from_descriptor(self.family, self.domain.dimension, self.domain.diameter())
        if self.h_list is not None:
            store("h_list", check_numbers(self.h_list, "h_list"))
            h = self.h_list
            if not h or any(not 0.0 < v <= 1.0 for v in h) or len(set(h)) < len(h):
                raise ConfigurationError(
                    "h_list must be a nonempty list of distinct shifts in (0, 1]")
        for key in ("direction", "point"):
            if getattr(self, key) is not None:
                store(key, check_coordinates(getattr(self, key), key, self.domain.dimension))
        if self.delta is not None:
            store("delta", check_positive(self.delta, "delta"))
        if self.spec is None:
            store("spec", default_spec(self.domain.dimension))
        sphere_rule(self.domain.dimension, check_spec(self.spec).angular_nodes)  # 1D: 2 only


@dataclass(frozen=True)
class SweepRow:
    param: float
    value: float
    scaled: float
    target: float
    abs_err: float
    rel_err: float
    failed: bool = False
    note: str = ""


@dataclass(frozen=True)
class SweepReport:
    kind: str
    rows: tuple[SweepRow, ...]
    target: float
    extrapolated_limit: float
    extrapolation_residual: float
    metadata: dict


# ---------------------------------------------------------------------------
# Configs
# ---------------------------------------------------------------------------

# The config keys every kind reads, and the optional ones of which each kind
# reads its own; None, or a config file's null, leaves an optional key unset.
_COMMON_KEYS = ("kind", "field", "potential", "domain", "quadrature")
_OPTIONAL_KEYS = ("s_list", "family", "h_list", "direction", "point", "delta")
_OPTIONAL_DEFAULTS = {"s_list": DEFAULT_S_LIST, "h_list": DEFAULT_H_LIST, "delta": 0.1}
# The config keys whose SweepConfig field has another name, and the defaults
# that only a config file has.
_FIELD_NAMES = {"field": "field_label", "potential": "potential_label", "quadrature": "spec"}
_FILE_DEFAULTS = {"kind": "bbm-domain", "field": "gauss1d", "potential": "zero"}
_DOMAIN_KEYS = {
    "interval": ("kind", "center", "extents"),
    "box": ("kind", "center", "extents"),
    "ball": ("kind", "center", "radius"),
}
_FAMILY_KEYS = {"gaussian": ("kind", "indices"), "bbm": ("kind", "s_list", "r_domain")}


def _section(raw, known, where: str) -> dict:
    """raw as a JSON object whose keys are all in ``known``."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{where} must be an object, got {raw!r}")
    unknown = [k for k in raw if k not in known]
    if unknown:
        raise ConfigurationError(f"unknown {where} key(s) {unknown}; known: {list(known)}")
    return raw


def _domain_from_dict(raw) -> Domain:
    kind = raw.get("kind") if isinstance(raw, dict) else None
    if kind not in tuple(_DOMAIN_KEYS):  # a tuple: kind may be an unhashable JSON value
        raise ConfigurationError(f"unknown domain kind {kind!r}")
    d = _section(raw, _DOMAIN_KEYS[kind], f"{kind} domain")
    if kind == "interval":
        d = {"center": [0.0], "extents": [1.0], **d}
    missing = [k for k in _DOMAIN_KEYS[kind] if k not in d]
    if missing:
        raise ConfigurationError(f"{kind} domain missing required key(s) {missing}")
    if kind == "ball":
        return ball(d["center"], d["radius"])
    return Domain(kind, d["center"], d["extents"])


def _domain_to_dict(d: Domain) -> dict:
    if d.kind == "ball":
        return {"kind": "ball", "center": d.center.tolist(), "radius": float(d.extents[0])}
    return {"kind": d.kind, "center": d.center.tolist(), "extents": d.extents.tolist()}


def config_from_dict(raw: dict) -> SweepConfig:
    """Build a SweepConfig from a JSON-style dict: parse the domain, apply the
    quadrature keys to the dimension's default spec and hand every other
    value to SweepConfig, which checks it.

    Unknown keys and ill-typed or out-of-range values raise
    ConfigurationError, so a bad config fails before any computation.
    """
    raw = _section(raw, _COMMON_KEYS + _OPTIONAL_KEYS, "config")
    if "domain" not in raw:
        raise ConfigurationError("config missing required key: 'domain'")
    dom = _domain_from_dict(raw["domain"])
    quad = _section(raw.get("quadrature", {}), _COUNTS, "quadrature")
    kind = raw.get("kind", _FILE_DEFAULTS["kind"])
    counts = _PLANS[kind][2] if kind in SWEEP_KINDS else _COUNTS  # SweepConfig refuses a bad kind
    unread = [k for k in quad if k not in counts]
    if unread:
        raise ConfigurationError(f"a {kind} sweep does not read quadrature key(s) {unread}; "
                                 f"its quadrature keys are {list(counts)}")
    values = {**_FILE_DEFAULTS, **raw, "domain": dom,
              "quadrature": replace(default_spec(dom.dimension), **quad)}
    return SweepConfig(**{_FIELD_NAMES.get(key, key): value for key, value in values.items()})


def load_config(path: str | Path) -> SweepConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"config {path} is not valid UTF-8 JSON: {exc}") from exc
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def extrapolate_limit(rows: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares affine fit value = L + C * t over (t, value) rows.

    t is the small parameter carried to zero (1-s for s-sweeps, 1/n for
    mollifier sweeps, |h| for translation sweeps); returns (L, max residual).
    The fit is in closed form about the means tm and vm of t and value:
    C = sum((t - tm) (value - vm)) / sum((t - tm)^2) and L = vm - C tm.
    """
    if len(rows) < 3:
        raise ConfigurationError("extrapolation needs at least 3 rows")
    t = [check_number(r[0], "extrapolation t") for r in rows]
    v = [check_number(r[1], "extrapolation value") for r in rows]
    if len(set(t)) < 2:
        raise ConfigurationError("extrapolation needs rows at two or more distinct t")
    t_mean, v_mean = math.fsum(t) / len(t), math.fsum(v) / len(v)
    dt = [ti - t_mean for ti in t]
    slope = (math.fsum(d * (vi - v_mean) for d, vi in zip(dt, v))
             / math.fsum(d * d for d in dt))
    limit = v_mean - slope * t_mean
    return limit, max(abs(limit + slope * ti - vi) for ti, vi in zip(t, v))


def _fit_closest(small: list[tuple[float, float]]) -> tuple[float, float]:
    """Extrapolate from the three rows closest to the limit (smallest t)."""
    if len(small) < 3:
        return math.nan, math.nan
    return extrapolate_limit(sorted(small, key=lambda r: r[0])[:3])


def _make_rows(params, values, scale_fn, target: float) -> list[SweepRow]:
    """Report rows; an IntegrationError in place of a value is a failed row
    that carries the error message."""
    rows = []
    for p, entry in zip(params, values):
        if isinstance(entry, IntegrationError):
            rows.append(SweepRow(float(p), math.nan, math.nan, target, math.nan, math.nan,
                                 failed=True, note=str(entry)))
            continue
        scaled = scale_fn(p, entry)
        abs_err = abs(scaled - target)
        rel_err = abs_err / abs(target) if target != 0.0 else (0.0 if abs_err == 0.0 else math.inf)
        rows.append(SweepRow(float(p), float(entry), float(scaled), target, abs_err, rel_err))
    return rows


def _batches(items: Sequence, threads: int) -> list[Sequence]:
    """items split into at most ``threads`` contiguous, near-equal batches."""
    n = len(items)
    count = min(threads, n)
    bounds = [n * k // count for k in range(count + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _parallel_map(fn, items, threads: int):
    if threads <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor  # only here: its imports cost memory

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _metadata(cfg: SweepConfig, node_counts: list[int]) -> dict:
    """The report metadata; its ``config`` is a loadable config that
    reproduces the sweep."""
    config = {key: getattr(cfg, _FIELD_NAMES.get(key, key))
              for key in _COMMON_KEYS + _PLANS[cfg.kind][1]}
    config.update(domain=_domain_to_dict(cfg.domain),
                  quadrature={k: getattr(cfg.spec, k) for k in _PLANS[cfg.kind][2]})
    return {
        "config": {k: list(v) if isinstance(v, tuple) else v for k, v in config.items()},
        "version": __version__,
        "node_counts": node_counts,
    }


@dataclass(frozen=True)
class _Plan:
    """One sweep kind's part of the shared driver.  ``batch`` maps a
    contiguous run of items to their IntegralResults or floats in one
    call; an IntegrationError it raises fails every row of the run.
    ``small`` maps a row parameter to the t of the limit fit;
    ``node_counts`` None means the per-row engine node counts."""

    items: Sequence
    params: Sequence[float]
    batch: Callable
    scale: Callable[[float, float], float]
    target: float
    small: Callable[[float], float]
    node_counts: Optional[list] = None
    extra: dict = field(default_factory=dict)


def _attempt(fn: Callable, arg):
    try:
        return fn(arg)
    except IntegrationError as exc:
        return exc


def _one_minus(s: float) -> float:
    return 1.0 - s


def _support(cfg: SweepConfig, u) -> Domain:
    """The support domain of a compact field, on which the bbm-fullspace,
    lemma-uniform and lemma-translation passes run.  The config's domain
    must cover it, shrunk by the field's support margin: the field is
    extended by zero outside that domain."""
    support = _require_compact(u)
    if not cfg.domain.covers(support, u.support_margin):
        raise ConfigurationError(
            f"{cfg.kind} requires the support of {u.label or 'the field'} to lie inside the "
            "domain, since the field is extended by zero outside it")
    return support


def _plan_bbm(cfg: SweepConfig, u, A) -> _Plan:
    """Scaled seminorms versus the local-energy target K_N * E; lemma-uniform
    divides both by ||u||^2 + E, and its ratios must stay bounded."""
    if cfg.kind == "bbm-domain":
        d = _pass_domain(u, cfg.domain)  # a compact field inside it: its support
        batch = lambda s_list: magnetic_seminorms_sq(u, A, cfg.domain, s_list, cfg.spec)
    else:
        d = _support(cfg, u)  # before the energy pass
        batch = lambda s_list: fullspace_seminorms_sq(u, A, s_list, cfg.spec)
    grid = tensor_grid(d, cfg.spec.outer_nodes)
    energy = local_magnetic_energy(u, A, d, grid).value
    denom = l2_norm_sq(u, grid) + energy if cfg.kind == "lemma-uniform" else 1.0
    return _Plan(cfg.s_list, cfg.s_list, batch, lambda s, v: (1.0 - s) * v / denom,
                 bbm_constant(d.dimension) * energy / denom, _one_minus)


def _family_from_descriptor(desc: Optional[dict], dim: int, r_domain: float) -> MollifierFamily:
    """The family a descriptor names: gaussian (the default) with DEFAULT_INDICES,
    or "bbm" with DEFAULT_S_LIST and the given r_domain, unless the descriptor
    sets them.  Each kind takes only its own keys, and its builder checks
    their values."""
    desc = {} if desc is None else desc
    kind = desc.get("kind", "gaussian") if isinstance(desc, dict) else "gaussian"
    if kind not in tuple(_FAMILY_KEYS):  # a tuple: kind may be an unhashable JSON value
        raise ConfigurationError(f"unknown mollifier family kind {kind!r}")
    desc = _section(desc, _FAMILY_KEYS[kind], "family")  # also refuses a non-object
    if kind == "gaussian":
        return gaussian_family(desc.get("indices", DEFAULT_INDICES), dim)
    return bbm_family(desc.get("s_list", DEFAULT_S_LIST), desc.get("r_domain", r_domain), dim)


def _admit_family(fam: MollifierFamily, delta: float) -> list:
    """Gate a family on its moment trends; abort naming the violated condition."""
    checks = check_mollifier(fam, delta)
    dev = [abs(c.m0 - 1.0) for c in checks]
    if dev[-1] > _NORMALIZ_TOL or any(b > a + 1e-9 for a, b in zip(dev, dev[1:])):
        raise ConditionViolation(
            "(normaliz) violated: zeroth radial moments "
            f"{[round(c.m0, 6) for c in checks]} do not trend to 1"
        )
    tails = [c.tail for c in checks]
    if tails[-1] > _TAIL_TOL or any(b > a + 1e-9 for a, b in zip(tails, tails[1:])):
        raise ConditionViolation(
            f"(fourtheq) violated: tail masses beyond delta={delta:g} "
            f"{[round(t, 6) for t in tails]} do not trend to 0"
        )
    return checks


def _plan_mollifier(cfg: SweepConfig, u, A) -> _Plan:
    """Mollified functionals of an admitted family versus 2 K_N * E, with E
    taken where a bbm-domain sweep takes it."""
    d = cfg.domain
    fam = _family_from_descriptor(cfg.family, d.dimension, d.diameter())
    checks = _admit_family(fam, cfg.delta)
    e_dom = _pass_domain(u, d)  # a compact field inside d: its support
    energy = local_magnetic_energy(u, A, e_dom, tensor_grid(e_dom, cfg.spec.outer_nodes)).value
    small = _one_minus if fam.kind == "bbm" else (lambda n: 1.0 / n)
    return _Plan(fam.members, [rho.param for rho in fam.members],
                 lambda members: mollified_functionals(u, A, d, members, cfg.spec),
                 lambda p, v: v, 2.0 * bbm_constant(d.dimension) * energy, small,
                 extra={"mollifier_checks": [asdict(c) for c in checks]})


def _plan_translation(cfg: SweepConfig, u, A) -> _Plan:
    """Translation differences over |h|^2 versus the directional energy, both
    integrated over the support's bounding box inflated by the largest shift,
    so that the shifted supports stay covered."""
    support = _support(cfg, u)  # before the target pass
    omega = direction(cfg.direction if cfg.direction else np.eye(support.dimension)[0])
    lo, hi = support.bounding_box()
    grid = tensor_grid(box(support.center, (hi - lo) / 2.0 + max(cfg.h_list)),
                       cfg.spec.outer_nodes)
    dens = np.abs(magnetic_gradient(u, A, grid.points) @ omega) ** 2
    h_sorted = tuple(sorted(cfg.h_list))
    return _Plan(h_sorted, h_sorted,
                 lambda hs: [translation_difference_sq(u, A, h * omega, grid) for h in hs],
                 lambda h, v: v / h**2, float(pairwise_sum(grid.weights * dens)),
                 lambda h: h, node_counts=[grid.points.shape[0]])


def _plan_operator(cfg: SweepConfig, u, A) -> _Plan:
    """|fractional - local| operator values at a point, which tend to 0."""
    d = cfg.domain
    x = np.asarray(cfg.point if cfg.point else d.center, dtype=float)
    return _Plan(cfg.s_list, cfg.s_list,
                 lambda s_list: [smp.discrepancy
                                 for smp in operator_limit_scan(u, A, x, s_list, cfg.spec)],
                 lambda s, v: v, 0.0, _one_minus, node_counts=[])


# Each sweep kind's plan, and the optional config keys and quadrature counts it reads.
_COUNTS = tuple(f.name for f in fields(QuadratureSpec))
_PLANS = {
    "bbm-domain": (_plan_bbm, ("s_list",), _COUNTS),
    "bbm-fullspace": (_plan_bbm, ("s_list",), _COUNTS),
    "mollifier": (_plan_mollifier, ("family", "delta"), _COUNTS),
    "lemma-translation": (_plan_translation, ("h_list", "direction"), ("outer_nodes",)),
    "lemma-uniform": (_plan_bbm, ("s_list",), _COUNTS),
    "operator-limit": (_plan_operator, ("s_list", "point"), ("angular_nodes",)),
}
SWEEP_KINDS = tuple(_PLANS)


def run_sweep(cfg: SweepConfig, threads: int = 1) -> SweepReport:
    """Run a sweep of the configured kind: resolve the field and potential,
    plan the kind, compute the rows (a batch's IntegrationError fails its
    rows) and fit the limit."""
    if check_integer(threads, "threads") < 1:
        raise ConfigurationError(f"threads must be at least 1, got {threads}")
    u = resolve_field(cfg.field_label)
    d = cfg.domain
    A = resolve_potential(cfg.potential_label, d.dimension)
    require_dimension(d.dimension, u, A)
    plan = _PLANS[cfg.kind][0](cfg, u, A)
    batches = _batches(plan.items, threads)
    results = []
    for batch, out in zip(batches, _parallel_map(partial(_attempt, plan.batch), batches, threads)):
        results.extend([out] * len(batch) if isinstance(out, IntegrationError) else out)
    values = [r.value if isinstance(r, IntegralResult) else r for r in results]
    rows = _make_rows(plan.params, values, plan.scale, plan.target)
    limit, resid = _fit_closest([(plan.small(r.param), r.scaled) for r in rows if not r.failed])
    nodes = plan.node_counts
    if nodes is None:
        nodes = [r.node_count if isinstance(r, IntegralResult) else 0 for r in results]
    meta = {**_metadata(cfg, nodes), **plan.extra}
    return SweepReport(cfg.kind, tuple(rows), plan.target, limit, resid, meta)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

_CSV_COLUMNS = ("param", "value", "scaled", "target", "abs_err", "rel_err")


def report_from_dict(d: dict) -> SweepReport:
    return SweepReport(**{**d, "rows": tuple(SweepRow(**row) for row in d["rows"])})


def render_report(r: SweepReport, fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(_CSV_COLUMNS)]
        lines += [",".join(repr(getattr(row, c)) for c in _CSV_COLUMNS) for row in r.rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        rows = [vars(row) for row in r.rows]  # asdict's deep copies are not needed
        return json.dumps(dict(vars(r), rows=rows), indent=2, sort_keys=True) + "\n"
    raise ConfigurationError(f"unknown report format {fmt!r}; known: {REPORT_FORMATS}")


def write_text(text: str, path: str | Path) -> None:
    """Write text with LF line ends; an unwritable path is a ConfigurationError."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc


def emit_report(r: SweepReport, fmt: str, path: str | Path) -> None:
    """Write the report; reruns of the same config write identical bytes."""
    write_text(render_report(r, fmt), path)
