"""A thread-safe, content-addressed LRU cache of compiled query plans.

Keys are :func:`repro.engine.canon.content_hash` digests, so semantically
identical query shapes (alpha-variants, commutative reorderings, equal
polynomial atoms) share one entry.  The cache is bounded both by entry
count and by total compiled cells (the dominant memory cost of a plan);
least-recently-used plans are evicted first.  Hit / miss / eviction
counts flow into :mod:`repro.obs` under ``engine.cache.*``.

The cache lives and dies with its process; plans outlive a run (and are
shared between processes) through the plan store,
:mod:`repro.engine.store`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable

from .. import obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .prepared import PreparedQuery

__all__ = ["PlanCache", "CacheStats", "DEFAULT_CACHE", "default_cache"]


class CacheStats:
    """Monotonic counters for one :class:`PlanCache` instance."""

    __slots__ = ("hits", "misses", "evictions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class PlanCache:
    """LRU map ``content hash -> PreparedQuery`` with size/entry caps."""

    def __init__(
        self,
        max_entries: int = 256,
        max_cells: int | None = 100_000,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.max_cells = max_cells
        self.stats = CacheStats()
        self._plans: "OrderedDict[str, PreparedQuery]" = OrderedDict()
        self._cells = 0
        self._lock = threading.RLock()

    # -- core map ----------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._plans

    def get(self, key: str) -> "PreparedQuery | None":
        """Look *key* up, refreshing its recency; counts a hit or miss."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.stats.misses += 1
                obs.add("engine.cache.miss")
                return None
            self._plans.move_to_end(key)
            self.stats.hits += 1
            obs.add("engine.cache.hit")
            return plan

    def put(self, plan: "PreparedQuery") -> "PreparedQuery":
        """Insert *plan* (keyed by its content hash), evicting as needed.

        Returns the cached plan: if another thread inserted the same key
        first, the earlier plan wins so all callers share one object.
        """
        with self._lock:
            existing = self._plans.get(plan.key)
            if existing is not None:
                self._plans.move_to_end(plan.key)
                return existing
            self._plans[plan.key] = plan
            self._cells += plan.cell_count()
            self._evict()
            obs.set_gauge("engine.cache.entries", len(self._plans))
            obs.set_gauge("engine.cache.cells", self._cells)
            return plan

    def get_or_compile(
        self, key: str, factory: Callable[[], "PreparedQuery"]
    ) -> "PreparedQuery":
        """The common path: return the cached plan for *key* or compile one.

        Compilation runs outside the lock (it can take seconds), so two
        threads may race to compile the same shape; :meth:`put` keeps the
        first result.
        """
        plan = self.get(key)
        if plan is not None:
            return plan
        return self.put(factory())

    def _evict(self) -> None:
        while self._plans and (
            len(self._plans) > self.max_entries
            or (self.max_cells is not None and self._cells > self.max_cells
                and len(self._plans) > 1)
        ):
            _, evicted = self._plans.popitem(last=False)
            self._cells -= evicted.cell_count()
            self.stats.evictions += 1
            obs.add("engine.cache.eviction")

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._cells = 0
            obs.set_gauge("engine.cache.entries", 0)
            obs.set_gauge("engine.cache.cells", 0)

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._plans)


#: The process-wide cache :func:`repro.engine.prepare` uses by default.
DEFAULT_CACHE = PlanCache()


def default_cache() -> PlanCache:
    """The shared process-wide plan cache."""
    return DEFAULT_CACHE
