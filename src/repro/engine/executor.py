"""A parallel batch executor for manifests of independent queries.

A *manifest* is JSON-lines, one task per line::

    {"id": "q1", "op": "volume", "formula": "0 <= y AND y <= x AND x <= 1"}
    {"id": "q2", "op": "approx", "formula": "...", "epsilon": 0.02}
    {"id": "q3", "op": "decide", "formula": "EXISTS x . x*x = 2 AND 0 < x"}

Supported ops: ``volume`` (the degradation ladder
:func:`repro.guard.robust_volume` under the batch's fallback policy:
exact only with ``off``), ``approx`` (the same ladder's Monte Carlo rung,
i.e. policy ``approx-only``, whatever the batch's policy; it compiles no
plan), and ``decide`` (CAD decision of an FO + POLY sentence).  Optional
per-task fields:
``variables`` (evaluation order), ``box`` (per-variable ``[low, high]``
rational bounds), ``epsilon`` / ``delta`` (approximation targets).

Execution contract:

* **isolation** — every task runs under its own :class:`~repro.guard.Budget`
  built from the batch-level caps; one ``BudgetExceeded`` (or any query
  error) becomes that task's result record and never poisons the batch;
* **determinism** — task *i* samples from a per-task seed derived from
  the batch ``--seed`` via ``numpy.random.SeedSequence([seed, i])``, so
  results are independent of worker count and scheduling order;
* **parallelism** — ``workers > 1`` fans tasks out to a
  :class:`~repro.engine.pool.WorkerPool` (QE/CAD are CPU-bound, so threads
  would serialize on the GIL); each worker process keeps its own warm
  plan cache across the tasks it serves, and ``workers <= 1`` runs
  serially in-process against the shared cache;
* **plan sharing** — with ``plan_store=PATH`` every process routes
  in-memory cache misses through one cross-process
  :class:`~repro.engine.store.PlanStore` (SQLite, read-through /
  write-back): each distinct content hash is compiled at most once
  *batch-wide*, prewarmed stores skip compilation entirely, and
  ``compile_only=True`` populates the store without evaluating anything
  (the ``repro batch --compile-only`` prewarming mode).  Each result
  gains a deterministic ``"cache"`` provenance dict (see
  :func:`_attach_cache_provenance`), and the batch's store traffic is
  folded once into the parent's ``engine.store.*`` metrics;
* **fault tolerance** — a dead worker (segfault, OOM kill, chaos
  injection) breaks only its pool, not the batch: the executor detects
  ``BrokenProcessPool``, attributes the crash to the in-flight task via a
  per-task liveness handshake (marker files written at task start /
  finish), rebuilds the pool, and after an exponential backoff with
  jitter re-dispatches only the unfinished tasks.  Retries are governed
  by a per-task :class:`~repro.guard.Budget` retry budget (``max_retries``); a
  task that keeps killing pools is *quarantined* with a structured
  ``"status": "quarantined"`` record (optionally answered in-process by
  the ladder's Monte Carlo rung when a fallback policy is set) and the batch
  continues.  With ``journal=PATH`` every completed task is durably
  appended to a ``repro.engine.journal/v1`` file and ``resume=True``
  replays it, re-running only the remainder — byte-identical to an
  uninterrupted run (see :mod:`repro.engine.journal`).  All of it is
  deterministically testable via :mod:`repro.engine.chaos`;
* **observability** — the batch runs inside an ``engine.batch`` span and
  reports ``engine.batch.*`` counters in the parent process.  With
  ``collect_obs=True`` each task additionally runs under its own trace
  and registry delta (:mod:`repro.obs.aggregate`): the worker serializes
  a compact snapshot into the task's result record (``"obs"`` key), and
  the parent deterministically merges counters, histograms, and the
  task-correlated span forest — so worker-process telemetry survives the
  pool instead of dying with it.  Observed tasks compile with a private
  plan cache: a shared warm cache would make counters depend on which
  worker a task landed on, and the merge is only meaningful if the same
  manifest + seed always yields the same totals.

Results come back in manifest order, one JSON-able dict per task.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import tempfile
import time
import traceback as _traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    wait,
)
from fractions import Fraction
from typing import Any, Iterable, Mapping

from .. import obs
from .._errors import ReproError
from ..guard.budget import Budget
from ..guard.errors import BudgetExceeded, RetryBudgetExceeded
from ..guard.fallback import RobustResult, robust_volume
from .cache import DEFAULT_CACHE
from .chaos import ChaosPlan, parse_chaos
from .journal import Journal, open_journal
from .pool import WorkerPool
from .prepared import PreparedQuery, plan_identity, prepare
from .store import PlanStore, StoreBackedCache, store_traffic

__all__ = [
    "OPS", "task_seed", "task_key", "normalize_task", "execute_task",
    "worker_entry", "cache_outcome", "run_batch", "batch_trace_ctx",
]

#: Operations a manifest task may request.
OPS = ("volume", "approx", "decide")


def task_seed(base_seed: int, index: int) -> int:
    """The deterministic seed of task *index* in a batch seeded *base_seed*."""
    import numpy as np

    return int(np.random.SeedSequence([base_seed, index]).generate_state(1)[0])


def batch_trace_ctx(base_seed: int, index: int) -> dict[str, Any]:
    """The deterministic trace context of batch task *index*.

    Batch trace ids are *derived*, not random: per-task telemetry
    snapshots must be identical across worker counts and across
    serve-vs-batch replays of the same manifest row, and the snapshot
    records which trace the task ran under.  Hashing (seed, index) gives
    every task a stable W3C-shaped identity for free — same manifest +
    seed, same ids, any scheduling.
    """
    import hashlib

    digest = hashlib.sha256(
        f"repro.batch:{base_seed}:{index}".encode()
    ).hexdigest()
    return {"trace_id": digest[:32], "span_id": digest[32:48]}


def task_key(task: Mapping[str, Any]) -> str | None:
    """The content hash :func:`prepare` will key *task*'s plan under.

    Computed by :func:`~repro.engine.prepared.plan_identity` — parse and
    canonicalization alone, no QE, CAD, or decomposition — so it is cheap
    enough to call for every task of a manifest.  ``None`` when the
    formula does not parse (such a task errors at execution and never
    touches a cache) and for ``approx`` tasks, which sample without
    compiling a plan.  Used to seed shard runs with the keys of skipped
    prefix tasks, keeping cache provenance shard-invariant, and by serve's
    compile coalescing.
    """
    from ..logic.parser import parse

    if task.get("op") == "approx":
        return None
    if task.get("op") == "decide":
        variables, kind = (), "decide"
    else:
        variables, kind = task.get("variables"), "volume"
    try:
        return plan_identity(parse(task["formula"]), variables, kind)[3]
    except Exception:  # noqa: BLE001 - an unkeyable task never hits a cache
        return None


def _as_fraction(value: Any) -> Fraction:
    """Exact rational from a manifest number (floats go via repr: 0.1 -> 1/10)."""
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


def normalize_task(raw: Mapping[str, Any], index: int) -> dict[str, Any]:
    """Validate one manifest entry and fill defaults; raises ReproError."""
    if not isinstance(raw, Mapping):
        raise ReproError(f"task {index}: manifest line must be a JSON object")
    formula = raw.get("formula")
    if not isinstance(formula, str) or not formula.strip():
        raise ReproError(f"task {index}: missing 'formula' string")
    op = raw.get("op", "volume")
    if op not in OPS:
        raise ReproError(f"task {index}: unknown op {op!r}; one of {OPS}")
    task: dict[str, Any] = {
        "id": raw.get("id", index),
        "index": index,
        "op": op,
        "formula": formula,
    }
    variables = raw.get("variables")
    if variables is not None:
        if not isinstance(variables, (list, tuple)) or not all(
                isinstance(v, str) for v in variables):
            raise ReproError(f"task {index}: 'variables' must be an array of strings")
        task["variables"] = tuple(variables)
    if raw.get("box") is not None:
        try:
            task["box"] = [
                (_as_fraction(low), _as_fraction(high)) for low, high in raw["box"]
            ]
        except (TypeError, ValueError) as error:
            raise ReproError(f"task {index}: bad box: {error}") from error
    for name in ("epsilon", "delta"):
        value = raw.get(name)
        if value is not None:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ReproError(f"task {index}: {name!r} must be a number")
            task[name] = float(value)
    return task


def execute_task(
    task: Mapping[str, Any],
    *,
    seed: int,
    timeout: float | None = None,
    max_cells: int | None = None,
    fallback: str = "off",
    epsilon: float = 0.05,
    delta: float = 0.05,
    collect_obs: bool = False,
    plan_store: str | None = None,
    compile_only: bool = False,
    obs_shared_cache: bool = False,
    trace_ctx: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Run one normalized task; always returns a result record, never raises.

    ``seed`` is the already-derived per-task seed (see :func:`task_seed`).
    ``collect_obs=True`` runs the task under its own trace/registry and
    attaches the serialized telemetry snapshot under the result's
    ``"obs"`` key (see :mod:`repro.obs.aggregate`).  ``plan_store`` names
    a shared :class:`~repro.engine.store.PlanStore` file to compile
    through (one adapter per process, reused across tasks);
    ``compile_only=True`` prepares the plan and skips evaluation (an
    ``approx`` task has no plan, so it does nothing).
    ``obs_shared_cache=True`` lets an observed task use the shared cache
    and store anyway: batch telemetry must be scheduling-independent, so
    it compiles privately, but a long-running server wants live (not
    byte-stable) telemetry *and* warm plans — it opts in.
    ``trace_ctx`` (a :class:`~repro.obs.trace.TraceContext` dict) threads
    a request/batch-task identity into the observed trace: the snapshot
    records it, and histogram observations carry it as exemplars.  It is
    only meaningful with ``collect_obs=True``.
    """
    result: dict[str, Any] = {"id": task["id"], "op": task["op"], "seed": seed}
    start = time.perf_counter()
    budget = (
        Budget(deadline_s=timeout, max_cells=max_cells)
        if timeout is not None or max_cells is not None
        else None
    )
    store = _store_adapter(plan_store) if plan_store else None
    private_compile = collect_obs and not obs_shared_cache
    if collect_obs:
        from ..obs.aggregate import task_observation

        with task_observation(trace_ctx=trace_ctx) as observation:
            _run_task(result, task, seed, budget, fallback, epsilon, delta,
                      private_compile, store, compile_only)
        result["obs"] = observation.snapshot
    else:
        _run_task(result, task, seed, budget, fallback, epsilon, delta,
                  private_compile, store, compile_only)
    result["elapsed_s"] = round(time.perf_counter() - start, 6)
    return result


def _run_task(
    result: dict[str, Any],
    task: Mapping[str, Any],
    seed: int,
    budget: Budget | None,
    fallback: str,
    epsilon: float,
    delta: float,
    private_compile: bool,
    store: "StoreBackedCache | None" = None,
    compile_only: bool = False,
) -> None:
    """The error-isolating dispatch body shared by both collection modes."""
    try:
        result.update(
            _dispatch(task, seed, budget, fallback, epsilon, delta,
                      private_compile, store, compile_only)
        )
        result["status"] = "ok"
    except BudgetExceeded as error:
        result.update(
            status="budget-exceeded",
            resource=error.resource,
            error=str(error),
        )
    except ReproError as error:
        result.update(status="error", error=str(error))
    except Exception as error:  # noqa: BLE001 - one task must not kill a batch
        # Unexpected failures keep their class name and a truncated
        # traceback: shard outputs get merged far from the run that
        # produced them, and "error": "KeyError: 'x'" alone makes
        # postmortems guesswork.
        result.update(
            status="error",
            error=f"{type(error).__name__}: {error}",
            error_type=type(error).__name__,
            traceback=_truncated_traceback(error),
        )


#: Caps for the traceback preserved in an error record (see _run_task).
_TRACEBACK_LINES = 12
_TRACEBACK_CHARS = 2000


def _truncated_traceback(error: BaseException) -> str:
    """The *tail* of the traceback, bounded so records stay small.

    The innermost frames (where it actually blew up) matter most for a
    postmortem, so truncation drops the outer frames first.
    """
    lines = _traceback.format_exception(type(error), error, error.__traceback__)
    text = "".join(lines[-_TRACEBACK_LINES:]).rstrip()
    if len(text) > _TRACEBACK_CHARS:
        text = "..." + text[-_TRACEBACK_CHARS:]
    return text


def _rng(seed: int):
    import numpy as np

    return np.random.default_rng(seed)


def _dispatch(
    task: Mapping[str, Any],
    seed: int,
    budget: Budget | None,
    fallback: str,
    epsilon: float,
    delta: float,
    private_compile: bool = False,
    store: "StoreBackedCache | None" = None,
    compile_only: bool = False,
) -> dict[str, Any]:
    op = task["op"]
    variables = task.get("variables")
    box = task.get("box")
    epsilon = task.get("epsilon", epsilon)
    delta = task.get("delta", delta)
    # Batch-observed tasks compile privately: shared-cache (and
    # shared-store) hits depend on worker scheduling, and per-task batch
    # telemetry must not (see module docstring and obs_shared_cache).
    cache = (
        None if private_compile
        else store if store is not None
        else DEFAULT_CACHE
    )

    if compile_only and op == "approx":
        return {"mode": "compile-only"}  # sampling compiles no plan
    if op == "decide" or compile_only:
        if op == "decide":
            plan = prepare(task["formula"], (), kind="decide", budget=budget,
                           cache=cache)
        else:
            plan = prepare(task["formula"], variables, budget=budget, cache=cache)
        if compile_only:
            return {**_plan_fields(plan), "mode": "compile-only"}
        return {"value": plan.decide(), "mode": "exact", "cached_key": plan.key}

    result = robust_volume(
        task["formula"], variables, epsilon=epsilon, delta=delta,
        budget=budget, policy="approx-only" if op == "approx" else fallback,
        box=box, rng=_rng(seed), cache=cache,
    )
    out = _plan_fields(result.plan) if result.plan is not None else {}
    if result.mode == "approximate":
        out.update(_mc_fields(result))
    else:
        out.update(value=float(result.value), exact=str(result.value),
                   mode=result.mode)
    if result.attempts:
        out["attempts"] = [
            [mode, error.resource] for mode, error in result.attempts
        ]
    return out


def _plan_fields(plan: PreparedQuery) -> dict[str, Any]:
    """The plan identity every compiled row carries."""
    return {"cached_key": plan.key, "cells": plan.cell_count()}


def _mc_fields(result: RobustResult) -> dict[str, Any]:
    """The Monte Carlo fields of every approximate row."""
    return {
        "value": float(result.value),
        "mode": "approximate",
        "confidence_radius": result.confidence_radius,
        "samples": result.samples,
        "epsilon": result.epsilon,
        "delta": result.delta,
    }


#: One store adapter per ``(path, pid)``: the SQLite connection must not
#: cross a fork, and the in-memory side of the adapter is the worker's
#: warm cache, so it must persist across the tasks the worker serves.
_ADAPTERS: dict[tuple[str, int], StoreBackedCache] = {}


def _store_adapter(path: str) -> StoreBackedCache:
    """This process's read-through adapter for the store at *path*."""
    key = (str(path), os.getpid())
    adapter = _ADAPTERS.get(key)
    if adapter is None:
        for stale in [k for k in _ADAPTERS if k[1] != key[1]]:
            del _ADAPTERS[stale]  # fork-inherited connections are unsafe
        adapter = StoreBackedCache(PlanStore(str(path)))
        _ADAPTERS[key] = adapter
    return adapter


def worker_entry(
    payload: tuple[dict[str, Any], dict[str, Any]]
) -> dict[str, Any]:
    """Process-pool entry point (top level so it pickles).

    The payload is ``(normalized_task, config)`` where *config* holds
    :func:`execute_task` keyword arguments plus the optional batch-only
    keys ``liveness_dir`` and ``chaos``.  This is the one worker-side
    entry shared by every front-end — the batch executor submits it with
    the liveness handshake armed, and :mod:`repro.serve` dispatches it
    from the event loop with neither batch extra — so worker-process
    state (the per-pid plan-store adapter, warm in-memory caches) is
    reused identically whichever front-end drives the pool.

    Besides running the task, the worker keeps the liveness handshake the
    parent's crash attribution relies on: it writes ``<index>.live``
    (containing its pid) into the batch's marker directory before the
    task body starts, and renames it to ``<index>.done`` after.  A task
    whose ``.live`` marker exists without a ``.done`` when the pool
    breaks was in flight in the dead worker — the crash suspect.
    """
    task, config = payload
    config = dict(config)
    liveness_dir = config.pop("liveness_dir", None)
    action = config.pop("chaos", None)
    live = done = None
    if liveness_dir is not None:
        index = task.get("index", 0)
        live = os.path.join(liveness_dir, f"{index}.live")
        done = os.path.join(liveness_dir, f"{index}.done")
        try:
            with open(live, "w", encoding="utf-8") as handle:
                handle.write(str(os.getpid()))
        except OSError:  # markers are advisory; the task still runs
            live = None
    if action is not None:
        from .chaos import apply_action

        apply_action(action)
    result = execute_task(task, **config)
    if live is not None:
        try:
            os.replace(live, done)
        except OSError:
            pass
    return result


def run_batch(
    tasks: Iterable[Mapping[str, Any]],
    *,
    workers: int = 1,
    seed: int = 0,
    timeout: float | None = None,
    max_cells: int | None = None,
    fallback: str = "off",
    epsilon: float = 0.05,
    delta: float = 0.05,
    collect_obs: bool = False,
    plan_store: str | None = None,
    compile_only: bool = False,
    seen_keys: Iterable[str] = (),
    max_retries: int = 2,
    retry_backoff_s: float = 0.05,
    hang_timeout_s: float | None = None,
    chaos: "ChaosPlan | str | None" = None,
    journal: str | None = None,
    resume: bool = False,
) -> list[dict[str, Any]]:
    """Run every task in *tasks*; returns result records in manifest order.

    Batch-level caps (``timeout``, ``max_cells``) apply **per task**: each
    task gets a fresh budget, so a pathological query exhausts its own
    budget and the rest of the batch proceeds.

    ``collect_obs=True`` harvests each task's telemetry (its result gains
    an ``"obs"`` snapshot) and merges it into this process: counters and
    histograms fold into the ambient registry when counting is on, and
    task span forests (roots tagged ``task=i``) graft into the active
    trace when tracing is on.  The merge applies snapshots in manifest
    order, so totals are identical for any worker count.

    ``plan_store`` routes every process's plan-cache misses through one
    shared SQLite :class:`~repro.engine.store.PlanStore` file (created on
    first use), so a content hash is compiled at most once batch-wide;
    ``compile_only=True`` prepares (and publishes) every task's plan
    without evaluating it — the prewarming mode.  The batch's store
    traffic (hits, misses, publishes, races, fetch latencies) is read
    back from the store's cross-process stats and folded once into this
    process's ``engine.store.*`` metrics.

    ``seen_keys`` pre-seeds the deterministic cache provenance (see
    :func:`_attach_cache_provenance`) with content hashes treated as
    already compiled — the CLI passes the skipped prefix of a sharded
    manifest (via :func:`task_key`), so shard outputs concatenate to the
    unsharded run's output exactly.

    Fault tolerance (see the module docstring): ``max_retries`` caps the
    transient-failure retries per task before quarantine;
    ``retry_backoff_s`` is the base of the exponential backoff slept
    before tasks are re-dispatched after a pool break (0 disables the
    sleep);
    ``hang_timeout_s`` arms a watchdog that SIGKILLs a worker whose task
    has been in flight longer than the timeout (off by default — arm it
    only above the worst-case single-task runtime); ``chaos`` injects
    deterministic worker faults (a :class:`~repro.engine.chaos.ChaosPlan`
    or its spec string); ``journal`` appends completed task records to a
    ``repro.engine.journal/v1`` file and ``resume=True`` replays it,
    skipping finished tasks.
    """
    normalized = [
        task if "index" in task else normalize_task(task, index)
        for index, task in enumerate(tasks)
    ]
    if isinstance(chaos, str):
        chaos = parse_chaos(chaos)
    if resume and journal is None:
        raise ReproError("resume=True requires a journal path")
    config = {
        "timeout": timeout,
        "max_cells": max_cells,
        "fallback": fallback,
        "epsilon": epsilon,
        "delta": delta,
        "collect_obs": collect_obs,
        "plan_store": plan_store,
        "compile_only": compile_only,
    }
    store = PlanStore(str(plan_store)) if plan_store else None
    try:
        prewarmed = frozenset(store.keys()) if store is not None else frozenset()
        traffic_before = store.traffic_mark() if store is not None else None
        journal_writer: Journal | None = None
        replayed: dict[int, dict[str, Any]] = {}
        if journal is not None:
            # The fingerprint covers everything that changes task records;
            # worker count and paths are excluded on purpose.
            journal_writer, replay = open_journal(
                journal, normalized, seed,
                config={k: config[k] for k in (
                    "timeout", "max_cells", "fallback", "epsilon", "delta",
                    "collect_obs", "compile_only",
                )},
                resume=resume, prewarmed=sorted(prewarmed),
            )
            replayed = replay.results
            if replay.prewarmed is not None:
                # Provenance must reflect the *original* run's pre-batch
                # store contents, not the plans the interrupted run left
                # behind (see repro.engine.journal).
                prewarmed = frozenset(replay.prewarmed)
        obs.add("engine.batch.runs")
        obs.add("engine.batch.tasks", len(normalized))
        start = time.perf_counter()
        try:
            with obs.span("engine.batch", tasks=len(normalized), workers=workers):
                runner = _BatchRunner(
                    config=config, seed=seed, max_retries=max_retries,
                    retry_backoff_s=retry_backoff_s,
                    hang_timeout_s=hang_timeout_s, chaos=chaos,
                    journal=journal_writer, fallback=fallback,
                    epsilon=epsilon, delta=delta,
                )
                pending = [t for t in normalized if t["index"] not in replayed]
                fresh = runner.run(pending, workers)
        finally:
            if journal_writer is not None:
                journal_writer.close()
        by_index = dict(replayed)
        by_index.update(fresh)
        results = [by_index[task["index"]] for task in normalized]
        wall = time.perf_counter() - start
        obs.set_gauge("engine.batch.wall_s", round(wall, 6))
        for record in results:
            status = record.get("status")
            if status == "ok":
                obs.add("engine.batch.ok")
            elif status == "budget-exceeded":
                obs.add("engine.batch.budget_exceeded")
            elif status == "quarantined":
                obs.add("engine.batch.quarantined")
            else:
                obs.add("engine.batch.errors")
        _attach_cache_provenance(results, prewarmed, seen_keys)
        if store is not None and obs.counting_enabled():
            # Folded once, here: worker registries died with the pool.
            from ..obs.aggregate import merge_snapshot_into

            traffic, _ = store_traffic(store, traffic_before)
            merge_snapshot_into(obs.REGISTRY, traffic)
    finally:
        if store is not None:
            store.close()
    if collect_obs:
        _merge_harvest(results)
    return results


class _BatchRunner:
    """One batch run's fault-tolerant dispatch state.

    Serial runs (no pool needed, no disruptive chaos) execute in-process
    exactly as before.  Pooled runs dispatch via ``submit`` and collect
    completions incrementally, so a broken pool loses only the in-flight
    tasks; the liveness markers written by :func:`worker_entry` attribute the
    crash.  A single suspect is charged against its retry budget directly;
    when several tasks were in flight in the dead pool, each suspect is
    re-run in its own single-worker *probe* pool — innocents complete
    unharmed, and a poison task keeps breaking (now unambiguously solo)
    pools until its retry budget trips and it is quarantined.
    """

    #: seconds between liveness/hang scans while futures are in flight.
    _POLL_S = 0.05
    #: cap on the exponential backoff, in units of ``retry_backoff_s``.
    _BACKOFF_CAP = 32
    #: consecutive suspect-less, progress-less pool breaks before giving up.
    _MAX_BARREN_BREAKS = 3

    def __init__(
        self,
        *,
        config: dict[str, Any],
        seed: int,
        max_retries: int,
        retry_backoff_s: float,
        hang_timeout_s: float | None,
        chaos: ChaosPlan | None,
        journal: Journal | None,
        fallback: str,
        epsilon: float,
        delta: float,
    ):
        self.config = config
        self.seed = seed
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.hang_timeout_s = hang_timeout_s
        self.chaos = chaos
        self.journal = journal
        self.fallback = fallback
        self.epsilon = epsilon
        self.delta = delta
        self.results: dict[int, dict[str, Any]] = {}
        self.by_index: dict[int, dict[str, Any]] = {}
        self.retry_budgets: dict[int, Budget] = {}
        self.completed = 0
        self.pool_breaks = 0
        self.barren_breaks = 0
        self.liveness_dir: str | None = None
        # Jitter affects only sleep lengths, never results; seeding it from
        # the batch seed keeps even the timing reproducible in tests.
        self._jitter = random.Random(seed)

    # -- entry point -------------------------------------------------------
    def run(
        self, tasks: list[dict[str, Any]], workers: int
    ) -> dict[int, dict[str, Any]]:
        if not tasks:
            return self.results
        self.by_index = {task["index"]: task for task in tasks}
        indices = sorted(self.by_index)
        disruptive = (self.chaos is not None and self.chaos.disruptive())
        # Disruptive chaos (and the hang watchdog) need process isolation
        # even at workers=1: an in-process SIGKILL would take the batch
        # down, so such runs are promoted to a pool of one.
        if (workers <= 1 or len(indices) <= 1) and not disruptive \
                and self.hang_timeout_s is None:
            self._run_serial(indices)
            return self.results
        self.liveness_dir = tempfile.mkdtemp(prefix="repro-batch-")
        try:
            self._run_pooled(indices, workers)
        finally:
            shutil.rmtree(self.liveness_dir, ignore_errors=True)
            self.liveness_dir = None
        return self.results

    # -- serial path -------------------------------------------------------
    def _task_config(self, index: int) -> dict[str, Any]:
        """Per-task :func:`execute_task` kwargs (seed, caps, trace identity).

        Observed tasks get the deterministic :func:`batch_trace_ctx` —
        identical for the serial and pooled paths, so per-task telemetry
        (which records its trace) stays scheduling-independent.
        """
        config = {"seed": task_seed(self.seed, index), **self.config}
        if config.get("collect_obs"):
            config["trace_ctx"] = batch_trace_ctx(self.seed, index)
        return config

    def _run_serial(self, indices: list[int]) -> None:
        for index in indices:
            task = self.by_index[index]
            result = execute_task(task, **self._task_config(index))
            self._record(index, result)

    # -- pooled path -------------------------------------------------------
    def _run_pooled(self, indices: list[int], workers: int) -> None:
        pool = WorkerPool(workers)
        try:
            queue = [i for i in indices if i not in self.results]
            while queue:
                queue = self._pool_round(pool, queue)
        finally:
            pool.close()

    def _pool_round(self, pool: WorkerPool, queue: list[int]) -> list[int]:
        """Run the queue on *pool* until it finishes or the pool breaks.

        A break (at submit time or in flight) rebuilds the pool; returns
        the indices to re-dispatch in the next round (empty when the
        queue drained).
        """
        generation = pool.generation
        broken = False
        futures: dict[Future, int] = {}
        shot_pids: set[int] = set()
        try:
            for index in queue:
                self._clear_markers(index)
                task_config = {
                    **self._task_config(index),
                    "liveness_dir": self.liveness_dir,
                }
                action = (
                    self.chaos.take(index) if self.chaos is not None else None
                )
                if action is not None:
                    task_config["chaos"] = action
                futures[pool.submit(
                    worker_entry, (dict(self.by_index[index]), task_config)
                )] = index
        except BrokenExecutor:
            broken = True
        pending = set(futures)
        progressed = False
        while pending and not broken:
            done, pending = wait(
                pending, timeout=self._POLL_S, return_when=FIRST_COMPLETED
            )
            for future in done:
                index = futures[future]
                try:
                    result = future.result()
                except (BrokenExecutor, CancelledError, OSError):
                    broken = True
                else:
                    self._record(index, result)
                    progressed = True
            if not broken and pending and self.hang_timeout_s is not None:
                self._shoot_hung_workers(futures, pending, shot_pids)
        if not broken:
            return []
        pool.rebuild(generation)
        return self._recover(queue, progressed)

    def _recover(self, queue: list[int], progressed: bool) -> list[int]:
        """Attribute a pool break and decide what to re-dispatch."""
        self.pool_breaks += 1
        unresolved = [i for i in queue if i not in self.results]
        suspects = [
            i for i in unresolved
            if self._marker_exists(i, "live") and not self._marker_exists(i, "done")
        ]
        innocents = [i for i in unresolved if i not in suspects]
        if not suspects and not progressed:
            # The pool died with nothing attributable in flight, and nothing
            # completed either: the environment (not a task) is killing
            # workers.  Retrying forever would spin; give the batch up.
            self.barren_breaks += 1
            if self.barren_breaks >= self._MAX_BARREN_BREAKS:
                raise ReproError(
                    f"batch executor: worker pool broke "
                    f"{self.barren_breaks} consecutive times with no task "
                    "in flight and no progress; giving up"
                )
        else:
            self.barren_breaks = 0
        self._backoff()
        requeue = list(innocents)
        if len(suspects) == 1:
            # Unambiguous: the dead worker was running exactly this task.
            if self._charge_retry(suspects[0]):
                requeue.append(suspects[0])
        elif suspects:
            # Ambiguous: several tasks were in flight when the pool died.
            # Blaming them all would let collateral victims burn retries
            # toward quarantine, so each suspect is probed alone in a
            # single-worker pool: innocents complete, the poison task
            # breaks its solo pool and is charged unambiguously.
            for index in sorted(suspects):
                self._run_pooled([index], 1)
        return sorted(requeue)

    def _charge_retry(self, index: int) -> bool:
        """Charge one retry; quarantines and returns False when exhausted."""
        budget = self.retry_budgets.setdefault(
            index, Budget(max_retries=self.max_retries)
        )
        try:
            budget.charge("retries")
        except RetryBudgetExceeded:
            self._quarantine(index, budget)
            return False
        obs.add("engine.retry.attempts")
        return True

    def _quarantine(self, index: int, budget: Budget) -> None:
        """Record a poison task; optionally answer it via the MC ladder."""
        obs.add("engine.retry.exhausted")
        obs.add("engine.quarantine.tasks")
        task = self.by_index[index]
        attempts = budget.retries
        seed = task_seed(self.seed, index)
        result: dict[str, Any] = {
            "id": task["id"],
            "op": task["op"],
            "seed": seed,
            "status": "quarantined",
            "error": (
                f"worker died on {attempts} consecutive attempts "
                f"(max_retries={self.max_retries}); task quarantined"
            ),
            "quarantine": {
                "reason": "worker-death",
                "attempts": attempts,
                "max_retries": self.max_retries,
            },
        }
        if self.fallback != "off" and task["op"] != "decide":
            self._quarantine_fallback(task, seed, result)
        self._record(index, result)

    def _quarantine_fallback(
        self, task: dict[str, Any], seed: int, result: dict[str, Any]
    ) -> None:
        """Best-effort in-process MC answer for a quarantined volume task.

        Runs :func:`~repro.guard.robust_volume` in the *parent* under a
        tight budget with the ``approx-only`` policy — the task already
        killed workers, so this is opt-in (a fallback policy must be set)
        and skips the exact rungs' compile paths, which is where runaway
        tasks live (only QE of a quantified formula and the sampling run,
        both under the budget).  The record stays ``"quarantined"`` either
        way; a successful fallback adds the estimate fields.
        """
        timeout = self.config.get("timeout")
        deadline = min(5.0, timeout) if timeout is not None else 5.0
        budget = Budget(
            deadline_s=deadline, max_cells=self.config.get("max_cells")
        )
        epsilon = task.get("epsilon", self.epsilon)
        delta = task.get("delta", self.delta)
        try:
            estimate = robust_volume(
                task["formula"], task.get("variables"),
                epsilon=epsilon, delta=delta, budget=budget,
                policy="approx-only", box=task.get("box"), rng=_rng(seed),
            )
        except Exception as error:  # noqa: BLE001 - fallback is best-effort
            result["quarantine"]["fallback_error"] = (
                f"{type(error).__name__}: {error}"
            )
            return
        result.update(_mc_fields(estimate))
        result["quarantine"]["fallback"] = "in-process"
        obs.add("engine.quarantine.fallbacks")

    # -- bookkeeping -------------------------------------------------------
    def _record(self, index: int, result: dict[str, Any]) -> None:
        self.results[index] = result
        if self.journal is not None:
            self.journal.record(index, result)
        self.completed += 1
        if (self.chaos is not None
                and self.chaos.abort_after is not None
                and self.completed >= self.chaos.abort_after):
            from .chaos import ChaosAbort

            raise ChaosAbort(
                f"chaos: run aborted after {self.completed} completed tasks"
            )

    def _backoff(self) -> None:
        """Exponential backoff with jitter before re-dispatching."""
        if self.retry_backoff_s <= 0:
            return
        scale = min(2 ** (self.pool_breaks - 1), self._BACKOFF_CAP)
        delay = self.retry_backoff_s * scale * (0.5 + self._jitter.random())
        obs.observe_value("engine.retry.backoff_s", delay)
        time.sleep(delay)

    def _marker(self, index: int, kind: str) -> str:
        assert self.liveness_dir is not None
        return os.path.join(self.liveness_dir, f"{index}.{kind}")

    def _marker_exists(self, index: int, kind: str) -> bool:
        return os.path.exists(self._marker(index, kind))

    def _clear_markers(self, index: int) -> None:
        for kind in ("live", "done"):
            try:
                os.unlink(self._marker(index, kind))
            except OSError:
                pass

    def _shoot_hung_workers(
        self,
        futures: Mapping[Future, int],
        pending: Iterable[Future],
        shot_pids: set[int],
    ) -> None:
        """SIGKILL workers whose in-flight task outlived ``hang_timeout_s``.

        The kill breaks the pool, which routes the hung task through the
        normal crash-suspect path (charge, retry, eventually quarantine).
        """
        now = time.time()
        for future in pending:
            index = futures[future]
            marker = self._marker(index, "live")
            try:
                status = os.stat(marker)
                pid_text = open(marker, "r", encoding="utf-8").read().strip()
                pid = int(pid_text)
            except (OSError, ValueError):
                continue
            if now - status.st_mtime <= self.hang_timeout_s or pid in shot_pids:
                continue
            shot_pids.add(pid)
            try:
                os.kill(pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):
                continue
            obs.add("engine.pool.hang_kills")


def _attach_cache_provenance(
    results: list[dict[str, Any]],
    prewarmed: frozenset[str],
    seen_keys: Iterable[str] = (),
) -> None:
    """Attach a deterministic ``"cache"`` provenance dict to each result.

    The provenance is *semantic*, computed by the parent from the manifest
    structure and the pre-batch store contents — what a serial run against
    a cold in-memory cache would observe — rather than from the racy
    hit/miss events real workers saw (those depend on which worker a task
    landed on, and result records must not).  Per task with a compiled
    plan: the first occurrence of a content hash is a ``store_hits`` (key
    already published before the batch) or a ``misses`` (compiled by this
    batch); later occurrences are in-memory ``hits``.  Being a function
    of (manifest, store contents) alone, it is identical for any worker
    count and for observed (``collect_obs``) runs, whose tasks really
    compile privately.  The aggregate cross-process traffic the workers
    actually generated lives in the ``engine.store.*`` metrics instead.

    ``seen_keys`` are hashes to treat as already-compiled occurrences
    (the skipped prefix of a sharded manifest), so a shard's provenance
    matches the same tasks' provenance in the unsharded run.
    """
    seen: set[str] = set(seen_keys)
    for result in results:
        key = result.get("cached_key")
        if key is None:
            continue
        result["cache"] = cache_outcome(key, prewarmed, seen)


def cache_outcome(
    key: str, prewarmed: frozenset[str] | set[str], seen: set[str]
) -> dict[str, int]:
    """The one-hot cache-provenance dict for one occurrence of *key*.

    Mirrors the batch rule (see :func:`_attach_cache_provenance`): a key
    already in *seen* is an in-memory ``hits``; a first occurrence is a
    ``store_hits`` when the store held it before the run started, else a
    ``misses``.  *seen* is updated in place, so callers that process
    occurrences in order — the batch executor in manifest order, the
    serving front-end in admission order — accumulate the same provenance
    a single sequential run would.
    """
    if key in seen:
        outcome = "hits"
    elif key in prewarmed:
        outcome = "store_hits"
    else:
        outcome = "misses"
    seen.add(key)
    return {"hits": 0, "misses": 0, "store_hits": 0, outcome: 1}


def _merge_harvest(results: list[dict[str, Any]]) -> None:
    """Fold worker snapshots into the parent's registry and trace.

    In serial runs the snapshots were *removed* from the ambient registry
    by ``task_observation``, so re-applying them here is exact (not a
    double count); in parallel runs the worker registries died with the
    pool and this is the only copy.  Either way the parent ends up with
    the same totals, applied in manifest order.
    """
    from ..obs.aggregate import merge_snapshot_into, snapshot_spans

    counting = obs.counting_enabled()
    trace = obs.current_trace()
    for index, record in enumerate(results):
        snapshot = record.get("obs")
        if not snapshot:
            continue
        if counting:
            merge_snapshot_into(obs.REGISTRY, snapshot)
        if trace is not None:
            for root in snapshot_spans(snapshot, index):
                trace.adopt(root)
