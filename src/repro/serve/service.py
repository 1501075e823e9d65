"""The pool bridge: async facade over the engine's process workers.

:class:`QueryService` owns the CPU side of the server — a
:class:`~repro.engine.pool.WorkerPool` running
:func:`repro.engine.worker_entry` (the same pool and worker entry the
batch executor uses, so worker-process state: the per-pid plan-store
adapter and warm in-memory caches, behaves identically under both
front-ends) — and everything that must stay consistent across requests:

* **determinism** — a request's result record is computed exactly like
  the same row of a batch manifest: the per-task seed is
  ``task_seed(seed, index)``, the budget comes from the request's
  (queue-adjusted) deadline, and the cache-provenance dict follows the
  batch rule via :func:`repro.engine.cache_outcome`, accumulated over
  the server's lifetime in completion order;
* **compile coalescing** — concurrent requests for one cold content
  hash ride a :class:`~repro.serve.coalesce.SingleFlight`; only the
  leader's evaluation compiles (and publishes, when a plan store is
  configured), waiters dispatch after it lands;
* **telemetry** — each task runs with ``collect_obs=True`` +
  ``obs_shared_cache=True``: the worker's counter/histogram delta comes
  back in the result record and is folded into this process's registry,
  so ``/metrics`` shows live engine internals (compile times, cache
  traffic, CAD cells) without a scrape agent in every worker.  The
  shared store's cross-process stats are folded incrementally on demand
  (each ``/metrics`` scrape, and once at drain).

A worker death never ends the server.  The broken pool is rebuilt once
per failure (the first request to see the break wins the rebuild).  A
request that was in flight on the dead pool gets a structured error
record: the server does not inherit the batch executor's
retry/quarantine ladder, because an interactive client re-sends for
itself.  A request that finds the pool already broken at submit time (a
worker died while the pool was idle) never ran, so it is dispatched
once on the rebuilt pool instead.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Any, Mapping

from .. import obs
from ..engine import (
    PlanStore,
    WorkerPool,
    cache_outcome,
    store_traffic,
    task_key,
    task_seed,
    worker_entry,
)
from ..obs.aggregate import merge_snapshot_into
from .coalesce import SingleFlight

__all__ = ["ServiceConfig", "QueryService"]


@dataclass
class ServiceConfig:
    """Execution knobs shared by every request (CLI flags, mostly)."""

    workers: int = 2
    seed: int = 0
    plan_store: str | None = None
    max_cells: int | None = None
    fallback: str = "off"
    epsilon: float = 0.05
    delta: float = 0.05


class QueryService:
    """Async query execution with coalescing, provenance, and telemetry."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.pool = WorkerPool(config.workers)
        self._flights = SingleFlight()
        self.store: PlanStore | None = (
            PlanStore(config.plan_store) if config.plan_store else None
        )
        #: Content hashes published to the store before the server started
        #: — the batch executor's ``prewarmed`` set, frozen at startup.
        self.prewarmed: frozenset[str] = (
            frozenset(self.store.keys()) if self.store is not None
            else frozenset()
        )
        #: Hashes known to be compiled *somewhere* reachable (prewarmed or
        #: published since startup); gates the coalescing fast path.
        self.known: set[str] = set(self.prewarmed)
        #: Hashes whose plans this server has already served — the batch
        #: executor's ``seen`` set, accumulated for the server's lifetime.
        self.seen: set[str] = set()
        self._traffic_mark = (
            self.store.traffic_mark() if self.store is not None else None
        )

    # -- execution ---------------------------------------------------------
    async def execute(
        self,
        task: Mapping[str, Any],
        *,
        index: int = 0,
        seed: int | None = None,
        timeout: float | None = None,
        provenance: bool = True,
        trace_ctx: Mapping[str, Any] | None = None,
        obs_out: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Run one normalized task on the pool; returns its result record.

        *timeout* is the seconds of budget left for this request — the
        caller has already subtracted queue wait from the request
        deadline (see :meth:`repro.guard.Budget.remaining_s` for the
        contract).  ``provenance=False`` skips attaching the
        server-lifetime ``"cache"`` dict (the inline-batch endpoint
        attaches request-local provenance instead) but still registers
        the compiled key, so later requests observe it as known.

        *trace_ctx* is the request's trace-context dict; it crosses the
        pool boundary inside the worker config so the worker's span
        forest is recorded under the request's ``trace_id``.  When
        *obs_out* is given, the worker's telemetry snapshot is retained
        under ``obs_out["snapshot"]`` after being folded into the live
        registry, and a coalescing waiter records the leader's trace
        context under ``obs_out["coalesced_with"]`` — the slow-query log
        uses both.
        """
        # Only coalescing reads the key, and it needs a plan store.
        key = task_key(task) if self.store is not None else None
        lead = False
        if key is not None and key not in self.known:
            waiter = self._flights.begin(key, ctx=trace_ctx)
            if waiter is not None:
                obs.add("serve.coalesce.waits")
                if obs_out is not None:
                    leader_ctx = self._flights.leader(key)
                    if leader_ctx:
                        obs_out["coalesced_with"] = dict(leader_ctx)
                await waiter
            else:
                lead = True
                obs.add("serve.coalesce.leads")
        try:
            record = await self._dispatch(
                dict(task), index, seed, timeout, trace_ctx=trace_ctx
            )
        finally:
            if lead:
                self._flights.finish(key)
        snapshot = record.pop("obs", None)
        if snapshot:
            merge_snapshot_into(obs.REGISTRY, snapshot)
            if obs_out is not None:
                obs_out["snapshot"] = snapshot
        cached_key = record.get("cached_key")
        if cached_key is not None:
            outcome = cache_outcome(cached_key, self.prewarmed, self.seen)
            if provenance:
                record["cache"] = outcome
            self.known.add(cached_key)
        status = record.get("status")
        if status == "ok":
            obs.add("serve.ok")
        elif status == "budget-exceeded":
            obs.add("serve.budget_exceeded")
        else:
            obs.add("serve.errors")
        return record

    async def _dispatch(
        self,
        task: dict[str, Any],
        index: int,
        seed: int | None,
        timeout: float | None,
        trace_ctx: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        """One pool round trip; rebuilds the pool if a worker died."""
        base_seed = self.config.seed if seed is None else seed
        config = {
            "seed": task_seed(base_seed, index),
            "timeout": timeout,
            "max_cells": self.config.max_cells,
            "fallback": self.config.fallback,
            "epsilon": self.config.epsilon,
            "delta": self.config.delta,
            "collect_obs": True,
            "obs_shared_cache": True,
            "plan_store": self.config.plan_store,
        }
        if trace_ctx is not None:
            config["trace_ctx"] = dict(trace_ctx)
        started = time.perf_counter()
        pool = self.pool
        generation = pool.generation
        try:
            try:
                future = pool.submit(worker_entry, (task, config))
            except BrokenExecutor:
                # The pool broke while idle: nothing of this request ran,
                # so it cannot run twice — rebuild and dispatch it once.
                pool.rebuild(generation)
                generation = pool.generation
                future = pool.submit(worker_entry, (task, config))
            return await asyncio.wrap_future(future)
        except BrokenExecutor:
            # The worker serving this task died (OOM kill, segfault).
            # Rebuild the pool so the server keeps serving, and answer
            # this request with a structured error — interactive clients
            # own their retries, unlike batch tasks.  Every request in
            # flight on the dead pool raises BrokenExecutor; the
            # generation makes only the first one rebuild, so the later
            # ones cannot shut down the fresh pool and cancel the
            # innocent requests already dispatched to it.
            pool.rebuild(generation)
            return self._pool_death_record(task, config, started)
        except asyncio.CancelledError:
            # The rebuild's shutdown(cancel_futures=True) cancels work
            # still queued on the dead pool; those requests land here
            # rather than in the BrokenExecutor arm and get the same
            # structured error (CancelledError would otherwise escape
            # _route's `except Exception` and kill the connection).  A
            # cancellation from anywhere else — the pool was never
            # rebuilt under us — is not ours to swallow.
            if pool.generation == generation:
                raise
            return self._pool_death_record(task, config, started)

    @staticmethod
    def _pool_death_record(
        task: Mapping[str, Any], config: Mapping[str, Any], started: float
    ) -> dict[str, Any]:
        return {
            "id": task.get("id"),
            "op": task.get("op"),
            "seed": config["seed"],
            "status": "error",
            "error": "worker process died while serving this request",
            "error_type": "BrokenExecutor",
            "elapsed_s": round(time.perf_counter() - started, 6),
        }

    # -- telemetry ---------------------------------------------------------
    def fold_store_metrics(self) -> None:
        """Fold the store's cross-process traffic delta into the registry.

        Incremental: each call applies only what happened since the last
        one, so scraping ``/metrics`` repeatedly never double-counts.
        """
        if self.store is None:
            return
        traffic, self._traffic_mark = store_traffic(
            self.store, self._traffic_mark
        )
        merge_snapshot_into(obs.REGISTRY, traffic)

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        self.pool.close()
        if self.store is not None:
            self.store.close()
