"""A process-safe, content-addressed shared plan store (SQLite-backed).

The batch executor gives every worker *process* its own in-memory
:class:`~repro.engine.cache.PlanCache`, so without coordination N workers
recompile the same content-hashed plan up to N times.  This module is the
coordination point: one SQLite file (WAL mode, so concurrent readers
never block) holding ``repro.engine.plan/v1`` records keyed by
:func:`~repro.engine.canon.content_hash` digests, shared by every process
— and, over a shared filesystem, every machine — that evaluates the same
manifest.

Three tables do the work:

``plans``
    ``key -> record`` — the published plan as a ``repro.engine.plan/v1``
    JSON record (:meth:`PreparedQuery.to_record
    <repro.engine.prepared.PreparedQuery.to_record>`).
``claims``
    advisory **compile claims**: before compiling a missing key, a process
    claims it (``BEGIN IMMEDIATE`` write transaction), compiles outside
    any lock, and publishes exactly once.  A process that finds a live
    claim *waits* for the winner's record instead of duplicating the
    compile; claims abandoned by dead owners (same-host pid probe, or a
    lease timeout for remote owners) are stolen.
``stats``
    monotonic cross-process counters (hits / misses / publishes /
    compiles / races / stale claims) plus a mergeable
    ``engine.store.fetch_s`` histogram, so the dedup win survives the
    worker pool and lands in the parent's registry and Prometheus output
    (:func:`store_traffic` turns two marks of them into one registry
    delta).

Budget accounting: every store round trip passes a
:func:`repro.guard.checkpoint` (deadlines cancel store waits) and charges
one ``store_ios`` unit against the active budget, so a task's budget
covers its store traffic, not just its compute.

:class:`StoreBackedCache` is the read-through / write-back adapter the
executor threads into :func:`repro.engine.prepare`: in-memory misses fall
through to the store before compiling, and fresh compiles are published
back exactly once — losers of a compile race adopt the winner's record.
"""

from __future__ import annotations

import json
import os
import socket
import sqlite3
import threading
import time
from typing import Any, Callable, TYPE_CHECKING

from .. import guard, obs
from .._errors import ReproError
from ..obs.histogram import Histogram
from .cache import PlanCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .prepared import PreparedQuery

__all__ = ["PlanStore", "StoreBackedCache", "STORE_SCHEMA", "store_traffic"]

#: Store schema tag kept in the ``meta`` table; bump on incompatible changes.
STORE_SCHEMA = "repro.engine.store/v1"

#: ``stats`` table counter name -> the obs counter it feeds (all monotonic).
STAT_COUNTERS = {
    "hits": "engine.store.hit",
    "misses": "engine.store.miss",
    "publishes": "engine.store.publish",
    "compiles": "engine.store.compile",
    "races": "engine.store.race",
    "stale_claims": "engine.store.stale_claims",
}

#: ``stats`` row holding the serialized cross-process fetch histogram.
_FETCH_HIST_ROW = "fetch_s"


class PlanStore:
    """One SQLite plan store; safe to open from many processes at once.

    ``lease_s`` bounds how long a compile claim from a *remote* host is
    honoured after its owner stops making progress; claims from this host
    are additionally probed by pid, so a crashed local worker's claim is
    stolen on the next lookup instead of after the lease.

    Transient ``database is locked`` errors (SQLite's busy timeout ran
    out under heavy cross-process write contention) are absorbed by a
    small bounded in-place retry (``lock_retries`` attempts,
    ``lock_retry_s`` apart, counted as ``engine.store.lock_retries``)
    instead of surfacing as a task failure — they are contention, not
    corruption.  ``clock`` injects the wall clock used for claim-lease
    arithmetic; tests pass a fake to make staleness deterministic.
    """

    def __init__(
        self,
        path: str,
        *,
        lease_s: float = 120.0,
        poll_s: float = 0.02,
        busy_timeout_s: float = 30.0,
        lock_retries: int = 8,
        lock_retry_s: float = 0.05,
        clock: Callable[[], float] = time.time,
    ):
        self.path = str(path)
        self.lease_s = lease_s
        self.poll_s = poll_s
        self.lock_retries = lock_retries
        self.lock_retry_s = lock_retry_s
        self._clock = clock
        self._host = socket.gethostname()
        self._lock = threading.RLock()
        #: Process-local fetch timings not yet merged into ``stats``.
        self._pending_fetch = Histogram("engine.store.fetch_s")
        self._con = sqlite3.connect(
            self.path, timeout=busy_timeout_s, isolation_level=None,
            check_same_thread=False,
        )
        self._con.execute("PRAGMA journal_mode=WAL")
        self._con.execute("PRAGMA synchronous=NORMAL")
        self._init_schema()

    # -- lifecycle ---------------------------------------------------------
    def _init_schema(self) -> None:
        with self._write():
            self._con.execute(
                "CREATE TABLE IF NOT EXISTS meta"
                " (name TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            self._con.execute(
                "CREATE TABLE IF NOT EXISTS plans"
                " (key TEXT PRIMARY KEY, record TEXT NOT NULL)"
            )
            self._con.execute(
                "CREATE TABLE IF NOT EXISTS claims"
                " (key TEXT PRIMARY KEY, pid INTEGER NOT NULL,"
                "  host TEXT NOT NULL, acquired_s REAL NOT NULL)"
            )
            self._con.execute(
                "CREATE TABLE IF NOT EXISTS stats"
                " (name TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            row = self._con.execute(
                "SELECT value FROM meta WHERE name = 'schema'"
            ).fetchone()
            if row is None:
                self._con.execute(
                    "INSERT INTO meta (name, value) VALUES ('schema', ?)",
                    (STORE_SCHEMA,),
                )
            elif row[0] != STORE_SCHEMA:
                raise ReproError(
                    f"{self.path}: unknown plan-store schema {row[0]!r} "
                    f"(expected {STORE_SCHEMA!r})"
                )

    def close(self) -> None:
        """Flush pending metrics and close the connection."""
        self.flush_metrics()
        self._con.close()

    def __enter__(self) -> "PlanStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _write(self):
        """An ``IMMEDIATE`` write transaction (advisory cross-process lock)."""
        return _ImmediateTxn(self._con, self._lock, self._locked_retry)

    def _locked_retry(self, operation: Callable[[], Any]) -> Any:
        """Run *operation*, absorbing transient ``database is locked`` errors.

        SQLite raises ``OperationalError: database is locked`` when the
        busy timeout runs out while another process holds the write lock —
        transient contention, not corruption, so a bounded retry is the
        right response (the satellite of the executor's broader retry
        taxonomy: transient errors retry, deterministic ones don't).
        Anything else, and anything still failing after ``lock_retries``
        attempts, propagates.
        """
        attempt = 0
        while True:
            try:
                return operation()
            except sqlite3.OperationalError as error:
                if "locked" not in str(error).lower():
                    raise
                if attempt >= self.lock_retries:
                    raise
                attempt += 1
                obs.add("engine.store.lock_retries")
                time.sleep(self.lock_retry_s)

    # -- introspection -----------------------------------------------------
    def keys(self) -> list[str]:
        with self._lock:
            rows = self._con.execute("SELECT key FROM plans ORDER BY key")
            return [key for (key,) in rows]

    def __len__(self) -> int:
        with self._lock:
            (n,) = self._con.execute("SELECT COUNT(*) FROM plans").fetchone()
        return n

    def __contains__(self, key: str) -> bool:
        with self._lock:
            row = self._con.execute(
                "SELECT 1 FROM plans WHERE key = ?", (key,)
            ).fetchone()
        return row is not None

    def stats_snapshot(self) -> dict[str, int]:
        """The cross-process counters (zero-filled for never-bumped names)."""
        with self._lock:
            rows = dict(
                self._con.execute(
                    "SELECT name, value FROM stats WHERE name != ?",
                    (_FETCH_HIST_ROW,),
                )
            )
        return {name: int(rows.get(name, 0)) for name in STAT_COUNTERS}

    def fetch_hist_snapshot(self) -> dict[str, Any]:
        """The merged cross-process ``fetch_s`` histogram (as a dict)."""
        self.flush_metrics()
        with self._lock:
            row = self._con.execute(
                "SELECT value FROM stats WHERE name = ?", (_FETCH_HIST_ROW,)
            ).fetchone()
        if row is None:
            return Histogram("engine.store.fetch_s").as_dict()
        return json.loads(row[0])

    def traffic_mark(self) -> dict[str, Any]:
        """A point-in-time mark of the store's traffic (see :func:`store_traffic`)."""
        return {
            "plans": len(self),
            "stats": self.stats_snapshot(),
            "fetch_s": self.fetch_hist_snapshot(),
        }

    # -- records -----------------------------------------------------------
    @staticmethod
    def _decode(text: str) -> "PreparedQuery":
        from .prepared import PreparedQuery

        return PreparedQuery.from_record(json.loads(text))

    def _read(self, key: str) -> str | None:
        with self._lock:
            row = self._locked_retry(
                lambda: self._con.execute(
                    "SELECT record FROM plans WHERE key = ?", (key,)
                ).fetchone()
            )
        return None if row is None else row[0]

    def fetch(self, key: str) -> "PreparedQuery | None":
        """Look *key* up in the store; ``None`` when nothing is published."""
        guard.checkpoint()
        guard.charge("store_ios")
        start = time.perf_counter()
        text = self._read(key)
        if text is None:
            self._bump(misses=1)
            return None
        plan = self._decode(text)
        self._pending_fetch.observe(time.perf_counter() - start)
        self._bump(hits=1)
        return plan

    def publish(self, plan: "PreparedQuery") -> tuple["PreparedQuery", bool]:
        """Publish *plan* exactly once; returns ``(canonical plan, won)``.

        The first publication of a key wins.  A caller that loses the race
        gets back the winner's record (decoded), so every process ends up
        sharing byte-identical compiled artifacts for the key.  The
        caller's compile claim on the key, if any, is released atomically
        with the publication.
        """
        guard.checkpoint()
        guard.charge("store_ios")
        text = json.dumps(plan.to_record(), sort_keys=True)
        with self._write():
            cursor = self._con.execute(
                "INSERT OR IGNORE INTO plans (key, record) VALUES (?, ?)",
                (plan.key, text),
            )
            published = cursor.rowcount == 1
            self._con.execute(
                "DELETE FROM claims WHERE key = ? AND pid = ? AND host = ?",
                (plan.key, os.getpid(), self._host),
            )
            self._bump_locked(publishes=1 if published else 0,
                              races=0 if published else 1)
        if published:
            return plan, True
        return self._decode(self._read(plan.key)), False

    def get_or_compile(
        self, key: str, factory: Callable[[], "PreparedQuery"]
    ) -> tuple["PreparedQuery", str]:
        """Fetch *key*, or compile-and-publish it exactly once store-wide.

        Returns ``(plan, outcome)`` with outcome one of ``"store_hit"``
        (already published), ``"miss"`` (this process claimed the key,
        ran *factory*, and published), or ``"race"`` (another process
        held the claim; we waited and adopted its record).  The wait loop
        passes budget checkpoints, so a task deadline cancels a store
        wait like any other long-running stage.
        """
        plan = self.fetch(key)
        if plan is not None:
            return plan, "store_hit"
        while True:
            claim = self._claim(key)
            if claim == "published":
                # The winner published between our fetch and the claim.
                return self.fetch(key), "store_hit"
            if claim == "ours":
                try:
                    plan = factory()
                except BaseException:
                    self._release(key)
                    raise
                self._bump(compiles=1)
                plan, _ = self.publish(plan)
                return plan, "miss"
            plan = self._await_publication(key)
            if plan is not None:
                self._bump(races=1)
                return plan, "race"
            # The claim vanished without a publication (owner died or
            # its compile failed) — contend for the claim again.

    # -- claims ------------------------------------------------------------
    def _claim(self, key: str) -> str:
        """Try to claim *key*: ``"ours"`` / ``"theirs"`` / ``"published"``."""
        guard.checkpoint()
        guard.charge("store_ios")
        now = self._clock()
        with self._write():
            row = self._con.execute(
                "SELECT 1 FROM plans WHERE key = ?", (key,)
            ).fetchone()
            if row is not None:
                return "published"
            claim = self._con.execute(
                "SELECT pid, host, acquired_s FROM claims WHERE key = ?",
                (key,),
            ).fetchone()
            if claim is not None:
                if not self._stale(claim, now):
                    return "theirs"
                self._con.execute("DELETE FROM claims WHERE key = ?", (key,))
                self._bump_locked(stale_claims=1)
            self._con.execute(
                "INSERT OR REPLACE INTO claims (key, pid, host, acquired_s)"
                " VALUES (?, ?, ?, ?)",
                (key, os.getpid(), self._host, now),
            )
        return "ours"

    def _release(self, key: str) -> None:
        """Drop this process's claim on *key* (compile failed or aborted)."""
        with self._write():
            self._con.execute(
                "DELETE FROM claims WHERE key = ? AND pid = ? AND host = ?",
                (key, os.getpid(), self._host),
            )

    def _stale(self, claim: tuple[int, str, float], now: float) -> bool:
        pid, host, acquired_s = claim
        if host == self._host:
            try:
                os.kill(int(pid), 0)
            except ProcessLookupError:
                return True
            except PermissionError:  # pragma: no cover - alive, not ours
                pass
        return now - float(acquired_s) > self.lease_s

    def _await_publication(self, key: str) -> "PreparedQuery | None":
        """Wait for another process's compile; ``None`` if its claim died."""
        while True:
            guard.checkpoint()
            guard.charge("store_ios")
            start = time.perf_counter()
            text = self._read(key)
            if text is not None:
                plan = self._decode(text)
                self._pending_fetch.observe(time.perf_counter() - start)
                return plan
            with self._lock:
                claim = self._con.execute(
                    "SELECT pid, host, acquired_s FROM claims WHERE key = ?",
                    (key,),
                ).fetchone()
            if claim is None or self._stale(claim, self._clock()):
                return None
            time.sleep(self.poll_s)

    # -- cross-process metrics --------------------------------------------
    def _bump_locked(self, **deltas: int) -> None:
        """Apply counter deltas inside an already-open write transaction."""
        for name, delta in deltas.items():
            if not delta:
                continue
            self._con.execute(
                "INSERT INTO stats (name, value) VALUES (?, ?)"
                " ON CONFLICT(name) DO UPDATE SET"
                " value = CAST(value AS INTEGER) + excluded.value",
                (name, delta),
            )

    def _bump(self, **deltas: int) -> None:
        if any(deltas.values()):
            with self._write():
                self._bump_locked(**deltas)

    def flush_metrics(self) -> None:
        """Merge pending fetch timings into the shared histogram row.

        The merge is exact and order-independent (fixed bucket layout, see
        :mod:`repro.obs.histogram`), so any number of processes flushing
        concurrently converge to the same totals.
        """
        if not self._pending_fetch.count:
            return
        pending, self._pending_fetch = (
            self._pending_fetch, Histogram("engine.store.fetch_s")
        )
        with self._write():
            row = self._con.execute(
                "SELECT value FROM stats WHERE name = ?", (_FETCH_HIST_ROW,)
            ).fetchone()
            merged = (
                Histogram.from_dict("engine.store.fetch_s", json.loads(row[0]))
                if row is not None
                else Histogram("engine.store.fetch_s")
            )
            merged.merge(pending)
            self._con.execute(
                "INSERT OR REPLACE INTO stats (name, value) VALUES (?, ?)",
                (_FETCH_HIST_ROW, json.dumps(merged.as_dict())),
            )

    def __repr__(self) -> str:
        return f"PlanStore({self.path!r}, plans={len(self)})"


def store_traffic(
    store: PlanStore, since: dict[str, Any]
) -> tuple[dict[str, Any], dict[str, Any]]:
    """The store's traffic since the mark *since*, as an obs snapshot.

    Worker registries die with their pool, so the store's own SQLite
    stats are the one surviving record of cross-process traffic.  The
    snapshot is shaped like a task telemetry snapshot — nonzero
    ``engine.store.*`` counter deltas, the ``engine.store.plans`` gauge,
    and the bucket-exact ``engine.store.fetch_s`` delta when any fetch
    happened (min/max conservatively taken from the store's lifetime
    extremes) — so :func:`repro.obs.merge_snapshot_into` folds it into a
    registry.  Returns ``(snapshot, mark)``; passing *mark* as the next
    *since* chains incremental deltas that never double-count.
    """
    mark = store.traffic_mark()
    counters = {
        metric: mark["stats"][name] - since["stats"][name]
        for name, metric in STAT_COUNTERS.items()
    }
    snapshot: dict[str, Any] = {
        "counters": {name: n for name, n in counters.items() if n},
        "gauges": {"engine.store.plans": mark["plans"]},
    }
    before, after = since["fetch_s"], mark["fetch_s"]
    fetches = Histogram("engine.store.fetch_s")
    fetches.count = int(after.get("count", 0)) - int(before.get("count", 0))
    if fetches.count:
        fetches.sum = float(after.get("sum", 0.0)) - float(before.get("sum", 0.0))
        before_buckets = before.get("buckets") or {}
        for index, n in (after.get("buckets") or {}).items():
            delta = int(n) - int(before_buckets.get(index, 0))
            if delta:
                fetches.buckets[int(index)] = delta
        fetches.min = None if after.get("min") is None else float(after["min"])
        fetches.max = None if after.get("max") is None else float(after["max"])
        snapshot["histograms"] = {"engine.store.fetch_s": fetches.as_dict()}
    return snapshot, mark


class _ImmediateTxn:
    """``BEGIN IMMEDIATE`` under the instance lock; commit/rollback on exit.

    Acquiring the transaction goes through the store's bounded
    lock-contention retry: ``BEGIN IMMEDIATE`` is where cross-process
    write contention surfaces as ``database is locked``.
    """

    __slots__ = ("_con", "_lock", "_retry")

    def __init__(
        self,
        con: sqlite3.Connection,
        lock: threading.RLock,
        retry: Callable[[Callable[[], Any]], Any],
    ):
        self._con = con
        self._lock = lock
        self._retry = retry

    def __enter__(self) -> sqlite3.Connection:
        self._lock.acquire()
        try:
            self._retry(lambda: self._con.execute("BEGIN IMMEDIATE"))
        except BaseException:
            self._lock.release()
            raise
        return self._con

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        try:
            if exc_type is None:
                self._con.execute("COMMIT")
            else:
                self._con.execute("ROLLBACK")
        finally:
            self._lock.release()


class StoreBackedCache:
    """Read-through / write-back adapter: a `PlanCache` over a `PlanStore`.

    Drop-in for the ``cache=`` argument of :func:`repro.engine.prepare`:
    lookups try the in-memory cache first (``engine.cache.*`` counters as
    usual), fall through to the shared store, and only then compile —
    under the store's claim protocol, so each content hash is compiled at
    most once across every process sharing the store file.
    """

    __slots__ = ("cache", "store", "outcomes")

    def __init__(self, store: PlanStore, cache: PlanCache | None = None):
        self.store = store
        self.cache = cache if cache is not None else PlanCache()
        #: Monotonic tally of ``get_or_compile`` outcomes in this process.
        self.outcomes = {"hits": 0, "store_hits": 0, "misses": 0, "races": 0}

    def get(self, key: str) -> "PreparedQuery | None":
        plan = self.cache.get(key)
        if plan is not None:
            return plan
        plan = self.store.fetch(key)
        if plan is None:
            return None
        return self.cache.put(plan)

    def put(self, plan: "PreparedQuery") -> "PreparedQuery":
        plan, _ = self.store.publish(plan)
        return self.cache.put(plan)

    def get_or_compile(
        self, key: str, factory: Callable[[], "PreparedQuery"]
    ) -> "PreparedQuery":
        plan = self.cache.get(key)
        if plan is not None:
            self.outcomes["hits"] += 1
            return plan
        try:
            plan, outcome = self.store.get_or_compile(key, factory)
        finally:
            self.store.flush_metrics()
        self.outcomes["store_hits" if outcome == "store_hit" else
                      "misses" if outcome == "miss" else "races"] += 1
        return self.cache.put(plan)

    def __contains__(self, key: str) -> bool:
        return key in self.cache or key in self.store

    def __len__(self) -> int:
        return len(self.store)
