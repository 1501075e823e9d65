"""Typed counter / gauge / histogram registries with a metric catalogue.

Counters accumulate monotonically (``add``); gauges record the most
recent value (``set_gauge``); histograms record distributions over a
fixed log-scaled bucket layout (``observe_value``, see
:mod:`repro.obs.histogram`).  Collection is gated on a module-level flag
so instrumented hot loops pay only a boolean test when observability is
off — the same disabled-by-default contract as :mod:`repro.obs.trace`.

The :data:`CATALOGUE` below is the authoritative list of metric names
emitted by the instrumented pipeline; docs/OBSERVABILITY.md renders it.
Ad-hoc names are allowed (the registry is open), but everything the
runtime emits should be registered here so summaries are self-describing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .._errors import ReproError
from .histogram import Histogram

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "REGISTRY",
    "CATALOGUE",
    "add",
    "set_gauge",
    "observe_value",
    "counting_enabled",
    "enable_counting",
    "disable_counting",
]

Number = Union[int, float, Fraction]


class MetricError(ReproError):
    """A metric was re-registered with a conflicting type."""


class Counter:
    """A monotonically increasing metric."""

    kind = "counter"
    __slots__ = ("name", "description", "value")

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self.value: Number = 0

    def add(self, amount: Number = 1) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A metric holding the most recently observed value."""

    kind = "gauge"
    __slots__ = ("name", "description", "value")

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self.value: Number | None = None

    def set(self, value: Number) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = None


#: Any metric the registry can hold.
Metric = Union[Counter, Gauge, Histogram]


class Registry:
    """A name -> metric map with typed get-or-create accessors."""

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def counter(self, name: str, description: str = "") -> Counter:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Counter(name, description)
            self._metrics[name] = metric
        elif not isinstance(metric, Counter):
            raise MetricError(f"{name!r} is registered as a {metric.kind}")
        return metric

    def gauge(self, name: str, description: str = "") -> Gauge:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Gauge(name, description)
            self._metrics[name] = metric
        elif not isinstance(metric, Gauge):
            raise MetricError(f"{name!r} is registered as a {metric.kind}")
        return metric

    def histogram(self, name: str, description: str = "") -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, description)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise MetricError(f"{name!r} is registered as a {metric.kind}")
        return metric

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def value(self, name: str) -> Number | None:
        metric = self._metrics.get(name)
        return None if metric is None else metric.value

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def items(self) -> list[tuple[str, Metric]]:
        return sorted(self._metrics.items())

    def histograms(self) -> list[tuple[str, Histogram]]:
        """The registered histograms, sorted by name."""
        return [
            (name, metric)
            for name, metric in self.items()
            if isinstance(metric, Histogram)
        ]

    def reset(self) -> None:
        """Zero every metric (registrations and descriptions survive)."""
        for metric in self._metrics.values():
            metric.reset()

    def as_dict(self, skip_empty: bool = True) -> dict[str, Number]:
        """A JSON-friendly snapshot of current scalar values.

        Exact :class:`~fractions.Fraction` values are converted to float
        (counters are almost always ints; fractions appear only in gauges
        fed from the exact pipeline).  Histograms are not scalar and are
        excluded; snapshot them via :meth:`histograms_as_dict`.
        """
        out: dict[str, Number] = {}
        for name, metric in self.items():
            if isinstance(metric, Histogram):
                continue
            value = metric.value
            if skip_empty and (value is None or value == 0):
                continue
            if isinstance(value, Fraction):
                value = float(value)
            out[name] = value
        return out

    def histograms_as_dict(self, skip_empty: bool = True) -> dict[str, dict]:
        """JSON-able snapshots of the (non-empty, by default) histograms."""
        return {
            name: metric.as_dict()
            for name, metric in self.histograms()
            if metric.count or not skip_empty
        }


#: Metric name -> (kind, description).  The runtime's full vocabulary.
CATALOGUE: dict[str, tuple[str, str]] = {
    "evaluator.sum_terms": ("counter", "SumTerm expansions performed"),
    "evaluator.range_candidates": (
        "counter", "candidate tuples explored while enumerating rho(D, b)"),
    "evaluator.range_selected": (
        "counter", "tuples that satisfied the range-restriction guard"),
    "evaluator.determinism_checks": (
        "counter", "runtime determinism verifications of gamma"),
    "evaluator.end_sets": ("counter", "END-set computations"),
    "cad.decisions": ("counter", "full CAD decision-procedure runs"),
    "cad.cells": ("counter", "cells sampled while lifting CAD stacks"),
    "cad.section_roots": ("counter", "distinct section roots isolated during lifting"),
    "cad.projection_polys": (
        "counter", "polynomials produced by Collins projection (post-dedup)"),
    "fm.eliminations": (
        "counter", "Fourier-Motzkin variable eliminations (linear QE and feasibility tests)"),
    "fm.disjuncts": ("counter", "DNF disjuncts processed during linear QE"),
    "fm.disjuncts_pruned": (
        "counter", "infeasible disjuncts dropped by the feasibility prune"),
    "fm.constraints_pruned": (
        "counter",
        "constraints dropped as constant-true, duplicate or scalar-multiple "
        "duplicate, looser parallel, or redundant"),
    "volume.cells": ("counter", "convex cells produced by formula decomposition"),
    "volume.polytopes": ("counter", "polytope-volume evaluations (incl. recursion)"),
    "volume.slices": ("counter", "interior slice samples taken by Theorem-3 slicing"),
    "volume.intersections": (
        "counter", "≤ d-cell intersections tested for slicing breakpoints"),
    "triangulate.simplices": ("counter", "simplices measured by the triangulators"),
    "mc.samples": ("counter", "hit-or-miss sample points drawn"),
    "mc.hits": ("counter", "hit-or-miss sample points inside the set"),
    "mc.hoeffding_sample_size": (
        "gauge",
        "Hoeffding sample size of the last Monte Carlo estimate, chosen "
        "from (epsilon, delta)"),
    "km.sample_size": ("gauge", "last KM construction sample size M"),
    "km.atoms": ("gauge", "last KM formula-size lower bound: atoms"),
    "km.quantifiers": ("gauge", "last KM formula-size lower bound: quantifiers"),
    "sturm.sign_changes": ("counter", "sign variations counted in Sturm chains"),
    "sturm.evaluations": ("counter", "Sturm chain evaluations at a point"),
    "guard.checkpoints": (
        "counter", "cooperative budget checkpoints passed (flushed on deactivation)"),
    "guard.trips": ("counter", "budget exhaustions raised (all resources)"),
    "guard.trips.deadline": ("counter", "wall-clock deadline exhaustions"),
    "guard.trips.cells": ("counter", "cell-budget exhaustions"),
    "guard.trips.constraints": ("counter", "FM constraint-budget exhaustions"),
    "guard.trips.size": ("counter", "formula size-cap exhaustions"),
    "guard.trips.depth": ("counter", "recursion depth-cap exhaustions"),
    "guard.trips.store_ios": ("counter", "shared-store round-trip-cap exhaustions"),
    "guard.trips.retries": ("counter", "per-task retry-budget exhaustions"),
    "guard.fallback_transitions": (
        "counter", "degradation-ladder rung transitions after an exhausted attempt"),
    "engine.compile": ("counter", "query plans compiled (cache misses that ran)"),
    "engine.cache.hit": ("counter", "plan-cache lookups served from the cache"),
    "engine.cache.miss": ("counter", "plan-cache lookups that found no plan"),
    "engine.cache.eviction": ("counter", "plans evicted by the LRU size caps"),
    "engine.cache.entries": ("gauge", "plans currently held by the cache"),
    "engine.cache.cells": ("gauge", "total compiled cells held by the cache"),
    "engine.store.hit": (
        "counter", "plan lookups served from the shared cross-process store"),
    "engine.store.miss": (
        "counter", "shared-store lookups that found no published plan"),
    "engine.store.publish": (
        "counter", "plans published to the shared store (exactly once per key)"),
    "engine.store.compile": (
        "counter", "plans compiled under a shared-store claim"),
    "engine.store.race": (
        "counter", "compile races lost: winner's published record adopted"),
    "engine.store.stale_claims": (
        "counter", "abandoned compile claims stolen from dead owners"),
    "engine.store.plans": (
        "gauge", "plans held by the shared store after the last batch"),
    "engine.store.fetch_s": (
        "histogram", "seconds to fetch and decode one plan from the shared store"),
    "engine.eval.volume": ("counter", "exact volume evaluations of prepared plans"),
    "engine.eval.memo_hit": (
        "counter", "volume evaluations answered by a plan's per-box memo"),
    "engine.eval.truth": ("counter", "point-membership evaluations of prepared plans"),
    "engine.eval.decide": ("counter", "cached CAD decisions served"),
    "engine.batch.runs": ("counter", "batch-executor invocations"),
    "engine.batch.tasks": ("counter", "manifest tasks submitted to the executor"),
    "engine.batch.ok": ("counter", "batch tasks that completed successfully"),
    "engine.batch.errors": ("counter", "batch tasks that failed with a query error"),
    "engine.batch.budget_exceeded": (
        "counter", "batch tasks that exhausted their per-task budget"),
    "engine.batch.wall_s": ("gauge", "wall-clock seconds of the last batch"),
    "engine.batch.quarantined": (
        "counter", "batch tasks quarantined after exhausting their retry budget"),
    "engine.retry.attempts": (
        "counter", "task re-dispatches after a transient worker failure"),
    "engine.retry.exhausted": (
        "counter", "tasks whose retry budget ran out (they get quarantined)"),
    "engine.retry.backoff_s": (
        "histogram", "seconds slept (backoff + jitter) before a pool rebuild"),
    "engine.quarantine.tasks": (
        "counter", "poison tasks quarantined by the fault-tolerant executor"),
    "engine.quarantine.fallbacks": (
        "counter", "quarantined tasks answered by the in-process MC fallback"),
    "engine.pool.rebuilds": (
        "counter", "worker pools rebuilt after a crash broke them"),
    "engine.pool.hang_kills": (
        "counter", "hung workers shot by the hang watchdog"),
    "engine.journal.records": ("counter", "task records appended to a batch journal"),
    "engine.journal.resumed": (
        "counter", "journaled tasks replayed (skipped) by a resumed batch"),
    "engine.journal.truncated": (
        "counter", "torn or malformed journal lines skipped during replay"),
    "engine.store.lock_retries": (
        "counter", "SQLite busy/locked errors absorbed by the store's retry"),
    "engine.plan.compile_s": (
        "histogram", "seconds to compile one prepared query plan"),
    "engine.query.volume_s": (
        "histogram", "seconds per exact volume evaluation of a prepared plan"),
    "engine.query.mc_s": (
        "histogram", "seconds per Monte Carlo volume estimate of the fallback ladder"),
    "cad.cells_per_decision": (
        "histogram", "cells lifted per CAD decision-procedure run"),
    "guard.fallback.attempts": (
        "histogram", "exhausted ladder rungs per robust volume evaluation"),
    "serve.requests": (
        "counter", "HTTP requests received by the query service (all routes)"),
    "serve.queries": (
        "counter", "query tasks admitted for execution by the service"),
    "serve.ok": ("counter", "served tasks that completed successfully"),
    "serve.errors": ("counter", "served tasks that failed with a query error"),
    "serve.budget_exceeded": (
        "counter", "served tasks that exhausted their per-request budget"),
    "serve.shed": (
        "counter", "requests shed with 429 because the admission queue was full"),
    "serve.timeouts": (
        "counter",
        "requests whose deadline expired in the admission queue (never ran)"),
    "serve.coalesce.leads": (
        "counter", "cold content hashes whose compile one request led"),
    "serve.coalesce.waits": (
        "counter",
        "requests that waited on another request's in-flight compile"),
    "serve.queue.depth": (
        "gauge", "requests currently waiting in the admission queue"),
    "serve.inflight": (
        "gauge", "tasks currently dispatched to the worker pool"),
    "serve.draining": (
        "gauge", "1 while the server is draining after SIGTERM/SIGINT, else 0"),
    "serve.drain.aborted": (
        "counter", "in-flight tasks abandoned when the drain timeout expired"),
    "serve.queue_wait_s": (
        "histogram", "seconds a request spent in the admission queue"),
    "serve.latency_s": (
        "histogram",
        "end-to-end seconds from admission to response per served task"),
    "serve.slow_queries": (
        "counter", "requests that exceeded the --slow-query-s threshold"),
    "trace.spans_dropped": (
        "counter", "spans dropped after a trace hit the MAX_SPANS cap"),
    "realalg.cache.hit": (
        "counter", "Sturm-chain / square-free lru_cache lookups served cached"),
    "realalg.cache.miss": (
        "counter", "Sturm-chain / square-free lru_cache lookups that computed"),
}


def _fresh_registry() -> Registry:
    registry = Registry()
    for name, (kind, description) in CATALOGUE.items():
        if kind == "counter":
            registry.counter(name, description)
        elif kind == "histogram":
            registry.histogram(name, description)
        else:
            registry.gauge(name, description)
    return registry


#: The process-wide registry used by the instrumented pipeline.
REGISTRY = _fresh_registry()

_enabled = False


def counting_enabled() -> bool:
    return _enabled


def enable_counting() -> None:
    global _enabled
    _enabled = True


def disable_counting() -> None:
    global _enabled
    _enabled = False


def add(name: str, amount: Number = 1) -> None:
    """Increment a counter; a near-free no-op while collection is off."""
    if not _enabled:
        return
    REGISTRY.counter(name).add(amount)


def set_gauge(name: str, value: Number) -> None:
    """Record a gauge value; a near-free no-op while collection is off."""
    if not _enabled:
        return
    REGISTRY.gauge(name).set(value)


#: Set by :mod:`repro.obs.trace` at import: a zero-argument callable
#: returning the active trace id (or ``None``).  A hook rather than an
#: import because trace.py imports this module.
_trace_id_provider = None


def observe_value(
    name: str, value: Number, trace_id: "str | None" = None
) -> None:
    """Record a histogram observation; a near-free no-op while off.

    The disabled path is the same single boolean test as :func:`add`, so
    instrumenting a hot loop with a histogram costs the same as a counter
    when nobody is collecting (``benchmarks/bench_obs_overhead.py`` pins
    the ratio under 2x).

    *trace_id* tags the observation's bucket with an OpenMetrics
    exemplar; when omitted, the id of the thread's active trace context
    (if any) is used, so instrumented code inside a request trace gets
    exemplars for free.
    """
    if not _enabled:
        return
    if trace_id is None and _trace_id_provider is not None:
        trace_id = _trace_id_provider()
    REGISTRY.histogram(name).observe(float(value), trace_id=trace_id)
