"""The query engine: prepared queries, plan caching, batch execution.

Everything upstream of this package evaluates one query from scratch;
this package amortizes the exponential compile work (QE / CAD / cell
decomposition) across repeated and concurrent evaluations — the paper's
Section 3 blow-up is exactly the cost worth paying once per query
*shape* instead of once per evaluation:

* :mod:`repro.engine.canon` — structural normal form + content hash, so
  alpha-variants and commutative reorderings share one cache key;
* :mod:`repro.engine.prepared` — compile once, evaluate many times, with
  plan provenance;
* :mod:`repro.engine.cache` — a thread-safe, in-process LRU plan cache;
* :mod:`repro.engine.store` — a cross-process shared plan store (SQLite)
  with a read-through/write-back cache adapter, so every worker — and
  every run sharing the store file — compiles each plan at most once;
  the one way plans persist beyond a process;
* :mod:`repro.engine.pool` — the rebuildable worker-process pool behind
  both the batch executor and :mod:`repro.serve`;
* :mod:`repro.engine.executor` — a fault-tolerant process-pool batch
  executor with per-task budgets, deterministic per-task seeds, crash
  isolation with retry/backoff, and poison-task quarantine
  (``python -m repro batch``);
* :mod:`repro.engine.journal` — an append-only journal of completed
  batch tasks, so interrupted runs resume byte-identically
  (``--journal PATH --resume``);
* :mod:`repro.engine.chaos` — deterministic process-level fault
  injection (worker kills/hangs, simulated parent crashes) for testing
  all of the above.

See docs/ENGINE.md for cache-key semantics, the shared plan store and
its plan record format, and the batch manifest format.
"""

from .canon import (
    canonical_formula,
    canonical_term,
    content_hash,
)
from .cache import DEFAULT_CACHE, CacheStats, PlanCache, default_cache
from .chaos import ChaosAbort, ChaosPlan, parse_chaos
from .journal import JOURNAL_SCHEMA, Journal, manifest_fingerprint, read_journal
from .pool import WorkerPool
from .prepared import PlanProvenance, PreparedQuery, prepare
from .store import PlanStore, StoreBackedCache, store_traffic
from .executor import (
    OPS,
    cache_outcome,
    execute_task,
    normalize_task,
    run_batch,
    task_key,
    task_seed,
    worker_entry,
)

__all__ = [
    "canonical_formula",
    "canonical_term",
    "content_hash",
    "PlanCache",
    "CacheStats",
    "DEFAULT_CACHE",
    "default_cache",
    "PlanProvenance",
    "PreparedQuery",
    "prepare",
    "PlanStore",
    "StoreBackedCache",
    "store_traffic",
    "WorkerPool",
    "ChaosAbort",
    "ChaosPlan",
    "parse_chaos",
    "JOURNAL_SCHEMA",
    "Journal",
    "manifest_fingerprint",
    "read_journal",
    "OPS",
    "normalize_task",
    "execute_task",
    "worker_entry",
    "cache_outcome",
    "run_batch",
    "task_seed",
    "task_key",
]
