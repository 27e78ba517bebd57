"""In-memory spans around calls into the divmin layers.

A :class:`Tracer` records one span per call: name, start, end, the span
that was open in the same thread when the call began, and the workload.
Spans are kept in a list and written out only when the run ends.

:meth:`Tracer.installed` wraps the package's entry points where their
callers look them up, and restores the originals on exit:

* module-level functions (``build_joint``, ``build_target``, ``realize``,
  the public ``tables`` and ``decomp`` functions, ``make_objective`` and
  ``from_preset``) are replaced in every ``divmin`` submodule namespace
  that binds them;
* methods are replaced on their class: the three ``Objective`` methods
  ``minimize`` calls (``parameters``, ``value``, ``value_and_gradient``),
  ``Objective.report`` and ``ParameterSpace.set``.

Nothing private is wrapped, and the package source is not modified.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

# (span name, class path in the package, method name)
METHODS = (
    ("engine.parameters", "objectives.Objective", "parameters"),
    ("engine.value", "objectives.Objective", "value"),
    ("engine.grad", "objectives.Objective", "value_and_gradient"),
    ("objectives.report", "objectives.Objective", "report"),
    ("systems.param_set", "systems.ParameterSpace", "set"),
)

# Span-name prefixes whose calls and self time are reported per layer.
LAYERS = (
    "systems.param_set",
    "systems.build_joint",
    "systems.build_target",
    "decomp.realize",
    "engine.value",
    "engine.grad",
    "objectives.report",
    "objectives.make_objective",
    "objectives.from_preset",
    "tables",
    "config.load_config",
    "runio.report_payload",
    "runio.write",
    "optim.minimize",
    "verify.run_suite",
)

# (span name, defining module, function name); the package-wide public
# functions of ``tables`` and ``decomp`` are added by ``_functions``.
FUNCTIONS = (
    ("systems.build_joint", "systems", "build_joint"),
    ("systems.build_target", "systems", "build_target"),
    ("objectives.make_objective", "objectives", "make_objective"),
    ("objectives.from_preset", "objectives", "from_preset"),
)


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int
    thread: int


class Tracer:
    """Collects spans for one workload; see the module docstring."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(span_id, name, start, end, parent, threading.get_ident())
                )

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the package entry points for the duration of the block."""
        undo: list[tuple[object, str, object]] = []
        try:
            for name, class_path, method in METHODS:
                cls = _resolve(class_path)
                original = cls.__dict__[method]
                undo.append((cls, method, original))
                setattr(cls, method, self.wrap(name, original))
            for name, fn in _functions():
                traced = self.wrap(name, fn)
                for module in _package_modules():
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            undo.append((module, attr, value))
                            setattr(module, attr, traced)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


class NullTracer:
    """Stands in for a tracer in untraced runs: calls pass straight through."""

    @staticmethod
    def call(name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def _package_modules():
    """Every imported ``divmin`` submodule; the package namespace is left
    alone so the benchmark's own references stay unwrapped."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name.startswith("divmin.") and module is not None
    ]


def _resolve(path: str):
    module_name, _, attr = path.partition(".")
    return getattr(sys.modules[f"divmin.{module_name}"], attr)


def _public_functions(module_name: str):
    module = sys.modules[f"divmin.{module_name}"]
    return [
        (name, value)
        for name, value in vars(module).items()
        if inspect.isfunction(value)
        and value.__module__ == module.__name__
        and not name.startswith("_")
    ]


def _functions():
    found = [(name, _resolve(f"{module}.{fn}")) for name, module, fn in FUNCTIONS]
    for layer in ("tables", "decomp"):
        found.extend((f"{layer}.{name}", fn) for name, fn in _public_functions(layer))
    return found


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Calls, inclusive seconds and self seconds per span name.

    Self time is a span's duration minus the durations of its direct
    children; children of one span run in its thread, one after another.
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent:
            child_time[span.parent] += span.end - span.start
    stats: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = stats.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        duration = span.end - span.start
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - child_time.get(span.span_id, 0.0)
    return stats


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """``<layer>.calls`` and ``<layer>.s`` (self seconds) for every layer
    in ``LAYERS`` that the spans reach, and the per-call cost of a
    gradient over that of a value."""
    stats = aggregate(spans)
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        totals = layer_totals(stats, layer)
        if totals["calls"]:
            metrics[f"{layer}.calls"] = totals["calls"]
            metrics[f"{layer}.s"] = totals["s"]
    value, grad = stats.get("engine.value"), stats.get("engine.grad")
    if value and grad:
        per_value = value["s"] / value["calls"]
        per_grad = grad["s"] / grad["calls"]
        metrics["engine.grad_over_value"] = per_grad / per_value
    return metrics


def layer_totals(stats: dict[str, dict[str, float]], prefix: str) -> dict[str, float]:
    """Summed calls and self seconds over every span name under ``prefix``."""
    calls = 0
    self_s = 0.0
    for name, entry in stats.items():
        if name == prefix or name.startswith(prefix + "."):
            calls += entry["calls"]
            self_s += entry["self_s"]
    return {"calls": calls, "s": self_s}
