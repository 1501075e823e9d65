"""PlanCache: LRU semantics, caps, counters."""

import pytest

from repro import obs
from repro.engine import PlanCache, prepare


def plan_for(text: str, **kwargs):
    """Compile a plan without touching any cache."""
    return prepare(text, cache=None, **kwargs)


@pytest.fixture
def triangle():
    return plan_for("0 <= y AND y <= x AND x <= 1")


class TestLRU:
    def test_get_put_roundtrip(self, triangle):
        cache = PlanCache()
        assert cache.get(triangle.key) is None
        cache.put(triangle)
        assert cache.get(triangle.key) is triangle
        assert triangle.key in cache
        assert len(cache) == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_first_insert_wins(self, triangle):
        cache = PlanCache()
        duplicate = plan_for(triangle.text)
        assert duplicate.key == triangle.key
        assert cache.put(triangle) is triangle
        assert cache.put(duplicate) is triangle

    def test_entry_cap_evicts_least_recent(self):
        cache = PlanCache(max_entries=2)
        a = plan_for("x < 1/4")
        b = plan_for("x < 1/2")
        c = plan_for("x < 3/4")
        cache.put(a)
        cache.put(b)
        cache.get(a.key)  # refresh a; b becomes LRU
        cache.put(c)
        assert a.key in cache
        assert b.key not in cache
        assert c.key in cache
        assert cache.stats.evictions == 1

    def test_cell_cap_keeps_at_least_one_plan(self, triangle):
        assert triangle.cell_count() >= 1
        cache = PlanCache(max_cells=0)
        cache.put(triangle)
        # Over the cell cap, but a cache of one plan must not self-empty.
        assert len(cache) == 1
        other = plan_for("x < 1/4 OR x > 3/4")
        cache.put(other)
        assert len(cache) == 1
        assert triangle.key not in cache

    def test_get_or_compile(self, triangle):
        cache = PlanCache()
        calls = []

        def factory():
            calls.append(1)
            return triangle

        assert cache.get_or_compile(triangle.key, factory) is triangle
        assert cache.get_or_compile(triangle.key, factory) is triangle
        assert len(calls) == 1

    def test_clear(self, triangle):
        cache = PlanCache()
        cache.put(triangle)
        cache.clear()
        assert len(cache) == 0
        assert cache.keys() == []


class TestObsCounters:
    def test_hit_miss_eviction_counters(self, triangle):
        obs.enable_counting()
        cache = PlanCache(max_entries=1)
        cache.get(triangle.key)
        cache.put(triangle)
        cache.get(triangle.key)
        cache.put(plan_for("x < 1/4"))
        counts = obs.REGISTRY.as_dict()
        assert counts["engine.cache.miss"] == 1
        assert counts["engine.cache.hit"] == 1
        assert counts["engine.cache.eviction"] == 1
        assert counts["engine.cache.entries"] == 1
