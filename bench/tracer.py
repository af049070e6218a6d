"""Outside-in span tracer for the bbm_magnetic package.

The tracer never edits the package.  ``install`` walks the package's
modules and replaces every reference to a traced function -- in the module
that defines it and in every module that imports it -- with a wrapper that
records a span; ``uninstall`` puts the original objects back.  Three kinds
of callables are wrapped as they are handed over instead of by name: the
field and potential closures (returned by ``corpus.resolve_field`` and
``corpus.resolve_potential``, or passed to ``Tracer.field`` and
``Tracer.potential``), and the integrand and near-field hook that
``functionals`` hands to the quadrature engine.

A span records its group, thread, start and end, and its self time: its
duration minus the durations of the traced calls made inside it on the
same thread.  Spans stay in memory; ``layer_metrics`` reduces them to the
per-layer metrics listed in ``LAYER_METRICS`` and ``DETAIL_METRICS``.
Times are busy time summed over threads.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import pkgutil
import threading
import time
from dataclasses import dataclass

PACKAGE = "bbm_magnetic"

# (defining module, function) -> span group.
SPANS = {
    ("harness", "load_config"): "harness.config",
    ("harness", "run_sweep"): "harness.sweep",
    ("harness", "extrapolate_limit"): "harness.sweep",
    ("harness", "_parallel_map"): "harness.pool",
    ("harness", "render_report"): "harness.report",
    ("harness", "emit_report"): "harness.report",
    ("functionals", "magnetic_seminorm_sq"): "functionals.seminorm",
    ("functionals", "fullspace_seminorm_sq"): "functionals.fullspace",
    ("functionals", "mollified_functional"): "functionals.mollified",
    ("functionals", "local_magnetic_energy"): "functionals.energy",
    ("functionals", "check_mollifier"): "functionals.check_mollifier",
    ("functionals", "l2_norm_sq"): "functionals.other",
    ("functionals", "translation_difference_sq"): "functionals.other",
    ("quadrature", "double_integral_singular"): "quadrature.engine",
    ("quadrature", "_run_two_level"): "quadrature.engine",
    ("quadrature", "tail_integral"): "quadrature.tail",
    ("quadrature", "tail_integral_many"): "quadrature.tail",
    ("fields", "midpoint_phase"): "fields.midpoint_phase",
    ("geometry", "tensor_grid"): "geometry.tensor_grid",
    ("geometry", "sphere_rule"): "geometry.sphere_rule",
    ("operator", "fractional_magnetic_apply"): "operator.apply",
    ("operator", "local_magnetic_apply"): "operator.apply",
}

# Callable arguments wrapped on their way into the engine: name -> group.
ARGUMENT_SPANS = {
    ("quadrature", "double_integral_singular"): {
        "integrand": "functionals.integrand", "near_field": "quadrature.near_field"},
    ("quadrature", "_run_two_level"): {
        "pair_fn": "functionals.integrand", "near_field": "quadrature.near_field"},
}

# Factories whose results carry closures to wrap.
FACTORIES = {("corpus", "resolve_field"): "field", ("corpus", "resolve_potential"): "potential"}

# Group whose self time is waiting on worker threads, not busy time.
WAIT_GROUPS = {"harness.pool"}

# Per-layer metrics declared in BENCHMARK.json: (name, unit, better).  Each
# is measured, and nonzero, on every workload.
LAYER_METRICS = (
    ("harness.sweep_self_s", "s", "lower"),
    ("harness.rows", "count", "higher"),
    ("functionals.seminorm_s", "s", "lower"),
    ("functionals.seminorm.calls", "count", "lower"),
    ("functionals.energy_s", "s", "lower"),
    ("functionals.energy.calls", "count", "lower"),
    ("functionals.self_s", "s", "lower"),
    ("quadrature.engine_s", "s", "lower"),
    ("quadrature.engine.calls", "count", "lower"),
    ("quadrature.self_s", "s", "lower"),
    ("quadrature.near_field_s", "s", "lower"),
    ("quadrature.fine_nodes", "count", "lower"),
    ("quadrature.integrand_points", "count", "lower"),
    ("quadrature.points_per_row", "count/row", "lower"),
    ("quadrature.useful_eval_ratio", "ratio", "higher"),
    ("fields.midpoint_phase_s", "s", "lower"),
    ("fields.midpoint_phase.points", "count", "lower"),
    ("corpus.field_s", "s", "lower"),
    ("corpus.field.points", "count", "lower"),
    ("corpus.potential_s", "s", "lower"),
    ("corpus.potential.points", "count", "lower"),
    ("geometry.tensor_grid_s", "s", "lower"),
    ("geometry.tensor_grid.calls", "count", "lower"),
    ("geometry.sphere_rule_s", "s", "lower"),
    ("geometry.sphere_rule.calls", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)

# Per-layer metrics of layers that only some workloads run (0 elsewhere), or
# that are 0 whenever the run is correct.  Reported on the detail line.
DETAIL_METRICS = (
    ("harness.config_s", "s"),
    ("harness.pool_wait_s", "s"),
    ("harness.report_s", "s"),
    ("harness.rows_failed", "count"),
    ("functionals.fullspace_s", "s"),
    ("functionals.fullspace.calls", "count"),
    ("functionals.mollified_s", "s"),
    ("functionals.mollified.calls", "count"),
    ("functionals.check_mollifier_s", "s"),
    ("functionals.check_mollifier.calls", "count"),
    ("quadrature.tail_s", "s"),
    ("operator.apply_s", "s"),
    ("operator.apply.calls", "count"),
)


def _input_points(args, out) -> int:
    """Points in the (..., N) array a closure was called on."""
    p = args[0]
    return p.size // p.shape[-1] if p.ndim else 1


def _output_size(args, out) -> int:
    return int(getattr(out, "size", 1))


def _node_count(args, out) -> int:
    return int(out.node_count)


COUNTS = {
    "corpus.field": _input_points,
    "corpus.potential": _input_points,
    "fields.midpoint_phase": _output_size,
    "functionals.integrand": _output_size,
    "quadrature.engine": _node_count,
}


@dataclass(frozen=True)
class Span:
    group: str
    thread: int
    start: float
    end: float
    self_s: float
    outermost: bool  # no enclosing span of the same group on this thread
    root: bool  # no enclosing span at all on this thread
    count: int


class _Frame:
    __slots__ = ("group", "child_s")

    def __init__(self, group: str):
        self.group = group
        self.child_s = 0.0


def is_traced(obj) -> bool:
    return getattr(obj, "__bench_traced__", False)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, group: str, arguments: dict | None = None, factory: str | None = None):
        """A span-recording stand-in for ``fn``."""
        count = COUNTS.get(group)
        signature = inspect.signature(fn) if arguments else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if arguments:
                bound = signature.bind(*args, **kwargs)
                for name, arg_group in arguments.items():
                    arg = bound.arguments.get(name)
                    if callable(arg) and not is_traced(arg):
                        bound.arguments[name] = self.wrap(arg, arg_group)
                args, kwargs = bound.args, bound.kwargs
            stack = self._stack()
            outermost = all(f.group != group for f in stack)
            frame = _Frame(group)
            stack.append(frame)
            start = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child_s += end - start
                n = count(args, out) if count is not None and out is not None else 0
                self.spans.append(Span(group, threading.get_ident(), start, end,
                                       end - start - frame.child_s, outermost, not stack, n))
            if factory == "field":
                return self.field(out)
            if factory == "potential":
                return self.potential(out)
            return out

        traced.__bench_traced__ = True
        return traced

    def field(self, u):
        """The scalar field with its value, gradient and Hessian closures traced."""
        closures = {k: self.wrap(getattr(u, k), "corpus.field")
                    for k in ("value", "gradient", "hessian") if getattr(u, k) is not None}
        return dataclasses.replace(u, **closures)

    def potential(self, A):
        """The vector potential with its value closure traced."""
        return dataclasses.replace(A, value=self.wrap(A.value, "corpus.potential"))

    # -- install / uninstall ---------------------------------------------

    @staticmethod
    def modules() -> list:
        pkg = importlib.import_module(PACKAGE)
        return [pkg] + [importlib.import_module(f"{PACKAGE}.{m.name}")
                        for m in pkgutil.iter_modules(pkg.__path__) if m.name != "__main__"]

    def install(self) -> None:
        """Replace every module reference to a traced function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        stand_ins = {}
        for (mod, name), group in SPANS.items():
            fn = getattr(importlib.import_module(f"{PACKAGE}.{mod}"), name)
            stand_ins[id(fn)] = (fn, self.wrap(fn, group, ARGUMENT_SPANS.get((mod, name))))
        for (mod, name), kind in FACTORIES.items():
            fn = getattr(importlib.import_module(f"{PACKAGE}.{mod}"), name)
            stand_ins[id(fn)] = (fn, self.wrap(fn, f"corpus.resolve_{kind}", factory=kind))
        for module in self.modules():
            for attr, value in list(vars(module).items()):
                entry = stand_ins.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)

    def unrestored(self) -> list[str]:
        """Patched attributes that are not their original object again."""
        return [f"{m.__name__}.{a}" for m, a, orig in self._patched if getattr(m, a) is not orig]

    @property
    def patched(self) -> list[str]:
        return [f"{m.__name__}.{a}" for m, a, _ in self._patched]

    # -- reduction --------------------------------------------------------

    def layer_metrics(self, rows: int, rows_failed: int, interval: tuple[float, float],
                      main_thread: int) -> dict[str, float]:
        """Per-layer metrics from the recorded spans (all but trace.overhead_s,
        which needs an untraced run to compare against)."""
        spans = list(self.spans)

        def inclusive(group):
            return sum(s.end - s.start for s in spans if s.group == group and s.outermost)

        def calls(group):
            return sum(1 for s in spans if s.group == group and s.outermost)

        def own(prefix):
            return sum(s.self_s for s in spans if s.group.startswith(prefix))

        def count(group, outermost_only=False):
            return sum(s.count for s in spans
                       if s.group == group and (s.outermost or not outermost_only))

        fine = count("quadrature.engine", outermost_only=True)
        points = count("functionals.integrand")
        lo, hi = interval
        covered = sum(s.end - s.start for s in spans
                      if s.root and s.thread == main_thread and lo <= s.start and s.end <= hi)
        out = {
            "harness.config_s": inclusive("harness.config"),
            "harness.sweep_self_s": own("harness.sweep"),
            "harness.pool_wait_s": own("harness.pool"),
            "harness.report_s": inclusive("harness.report"),
            "harness.rows": rows,
            "harness.rows_failed": rows_failed,
        }
        for short in ("seminorm", "fullspace", "mollified", "energy", "check_mollifier"):
            out[f"functionals.{short}_s"] = inclusive(f"functionals.{short}")
            out[f"functionals.{short}.calls"] = calls(f"functionals.{short}")
        out.update({
            "functionals.self_s": own("functionals."),
            "quadrature.engine_s": inclusive("quadrature.engine"),
            "quadrature.engine.calls": calls("quadrature.engine"),
            "quadrature.self_s": own("quadrature.engine"),
            "quadrature.tail_s": inclusive("quadrature.tail"),
            "quadrature.near_field_s": inclusive("quadrature.near_field"),
            "quadrature.fine_nodes": fine,
            "quadrature.integrand_points": points,
            "quadrature.points_per_row": points / rows if rows else 0.0,
            "quadrature.useful_eval_ratio": fine / points if points else 0.0,
            "fields.midpoint_phase_s": own("fields.midpoint_phase"),
            "fields.midpoint_phase.points": count("fields.midpoint_phase"),
            "corpus.field_s": own("corpus.field"),
            "corpus.field.points": count("corpus.field"),
            "corpus.potential_s": own("corpus.potential"),
            "corpus.potential.points": count("corpus.potential"),
            "geometry.tensor_grid_s": inclusive("geometry.tensor_grid"),
            "geometry.tensor_grid.calls": calls("geometry.tensor_grid"),
            "geometry.sphere_rule_s": inclusive("geometry.sphere_rule"),
            "geometry.sphere_rule.calls": calls("geometry.sphere_rule"),
            "operator.apply_s": inclusive("operator.apply"),
            "operator.apply.calls": calls("operator.apply"),
            "trace.unattributed_s": (hi - lo) - covered,
        })
        return out

    def self_by_layer(self) -> dict[str, float]:
        """Busy self time per package module, for checking workload rationales."""
        totals: dict[str, float] = {}
        for s in self.spans:
            if s.group in WAIT_GROUPS:
                continue
            layer = s.group.split(".")[0]
            totals[layer] = totals.get(layer, 0.0) + s.self_s
        return totals
