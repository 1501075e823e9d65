"""Per-layer timing by wrapping the public functions of each layer.

The program is not edited: :class:`LayerTracer` replaces every binding of
each wrapped function — in its home module *and* in every ``repro``
module that imported it by name — with a timing wrapper, and restores
them all on exit.  A layer's **self time** is its wrapper's duration
minus the time covered by nested wrapped calls, so the self times of all
layers partition the traced work.  Deep recursion (slicing, feasibility)
is aggregated into per-layer totals inside the wrapper instead of being
recorded as one span per call.

Each task of a traced run becomes one coarse ``perfbench.task`` span
(with the program's own spans nested under it) whose children are the
task's per-layer self times, so ``python -m repro trace --perfetto``
renders a traced run like any other ``repro.obs/v2`` trace.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from typing import Any, Callable

#: layer name -> (module, attribute); ``Class.method`` patches the class.
LAYERS: dict[str, tuple[str, str]] = {
    "parser": ("repro.logic.parser", "parse"),
    "canon": ("repro.engine.canon", "canonical_formula"),
    "canon.hash": ("repro.engine.canon", "content_hash"),
    "qe": ("repro.qe.fourier_motzkin", "qe_linear"),
    "feasibility": ("repro.qe.fourier_motzkin", "is_feasible"),
    "dnf": ("repro.logic.normalform", "qf_to_dnf"),
    "cells": ("repro.geometry.decomposition", "formula_to_cells"),
    "clip": ("repro.geometry.decomposition", "clip_cells"),
    "union": ("repro.geometry.volume", "union_volume"),
    "slicing": ("repro.geometry.volume", "polytope_volume"),
    "vertices": ("repro.geometry.polyhedron", "Polyhedron.vertices"),
    "mc": ("repro.geometry.sampling", "hit_or_miss_volume"),
    "compile": ("repro.engine.prepared", "_compile"),
    "store": ("repro.engine.store", "StoreBackedCache.get_or_compile"),
    "store.fetch": ("repro.engine.store", "PlanStore.fetch"),
    "task": ("repro.engine.executor", "execute_task"),
}

#: Layers reported as ``<layer>.self_s``; the hash step is part of canon.
SELF_TIME_LAYERS = ("parser", "canon", "qe", "feasibility", "dnf", "cells",
                    "clip", "union", "slicing", "vertices", "mc")


class _Frame:
    __slots__ = ("layer", "start", "nested")

    def __init__(self, layer: str, start: float):
        self.layer = layer
        self.start = start
        self.nested = 0.0


class LayerTracer:
    """Install timing wrappers on every binding of every layer function.

    Use as a context manager around in-process work.  Totals accumulate
    across the block: ``self_s`` and ``calls`` per layer, ``outer_s`` (the
    inclusive time of outermost calls), call counts per (parent, child)
    layer edge, and a few outcome tallies the ratios need.
    """

    def __init__(self):
        self.self_s: dict[str, float] = {name: 0.0 for name in LAYERS}
        self.outer_s: dict[str, float] = {name: 0.0 for name in LAYERS}
        self.calls: dict[str, int] = {name: 0 for name in LAYERS}
        self.edges: dict[tuple[str, str], int] = {}
        self.infeasible = 0
        self.union_inputs = 0
        self.fetch_ms: list[float] = []
        self._stack: list[_Frame] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # -- installation ------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        for layer, (module_name, attr) in LAYERS.items():
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, method, self._wrap(layer, getattr(owner, method)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, original)
            # Every module that did `from home import name` holds its own
            # binding; patching only the home module would miss those calls.
            for name, other in list(sys.modules.items()):
                if not name.startswith("repro") or other is None:
                    continue
                for binding, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, binding, wrapper)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _patch(self, owner: Any, name: str, wrapper: Any) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def bindings(self) -> list[str]:
        """``module.name`` of every patched binding (for the self-check)."""
        return [f"{getattr(owner, '__name__', owner)}.{name}"
                for owner, name, _ in self._patched]

    # -- the wrapper -------------------------------------------------------
    def _wrap(self, layer: str, original: Callable) -> Callable:
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return tracer._call(layer, original, args, kwargs)

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(original, "__name__", layer)
        return wrapper

    def _call(self, layer: str, original: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._stack
        parent = stack[-1].layer if stack else None
        if parent is not None:
            edge = (parent, layer)
            self.edges[edge] = self.edges.get(edge, 0) + 1
        outermost = all(frame.layer != layer for frame in stack)
        span = None
        if layer == "task":
            from repro import obs

            span = obs.span("perfbench.task", id=args[0].get("id"), op=args[0].get("op"))
            span.__enter__()
            before = dict(self.self_s)
        if layer == "union":
            self.union_inputs += len(args[0])
        frame = _Frame(layer, time.perf_counter())
        stack.append(frame)
        try:
            result = original(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - frame.start
            stack.pop()
            self.self_s[layer] += elapsed - frame.nested
            self.calls[layer] += 1
            if outermost:
                self.outer_s[layer] += elapsed
            if stack:
                stack[-1].nested += elapsed
            if span is not None:
                span.__exit__(None, None, None)
                self._task_span(span, before)
        if layer == "feasibility" and result is False:
            self.infeasible += 1
        elif layer == "store.fetch" and result is not None:
            self.fetch_ms.append(elapsed * 1e3)
        return result

    def _task_span(self, span: Any, before: dict[str, float]) -> None:
        """Attach the task's per-layer self times as aggregate child spans."""
        from repro.obs import SpanRecord

        record = getattr(span, "record", None)
        if record is None:  # tracing off: nothing to attach to
            return
        for layer in SELF_TIME_LAYERS:
            spent = self.self_s[layer] - before[layer]
            if spent > 0:
                record.children.append(SpanRecord(
                    name=f"layer.{layer}", duration_s=spent,
                    attrs={"aggregate": True},
                ))

    # -- derived numbers ---------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Self times, call counts and the outcome ratios of the issue table."""
        out = {f"{layer}.self_s": self.self_s[layer] for layer in SELF_TIME_LAYERS}
        out["canon.self_s"] += self.self_s["canon.hash"]
        calls = self.calls["feasibility"]
        out["feasibility.calls"] = float(calls)
        out["feasibility.empty_ratio"] = self.infeasible / calls if calls else 0.0
        # Inside union_volume, is_empty runs once per input cell (the
        # empty-cell filter) and once per subset tried; polytope_volume
        # runs once per subset whose intersection is non-empty.
        tried = self.edges.get(("union", "feasibility"), 0) - self.union_inputs
        nonempty = self.edges.get(("union", "slicing"), 0)
        out["union.nonempty_ratio"] = nonempty / tried if tried > 0 else 0.0
        out["store.adopt_wait_s"] = max(0.0, self.outer_s["store"] - self.outer_s["compile"])
        out["store.fetch_ms_p50"] = percentile(self.fetch_ms, 0.50)
        return out

    def fired(self) -> dict[str, int]:
        """Calls per layer, for the wrapper-coverage self-check."""
        return dict(self.calls)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]
