"""The cross-process shared plan store and its executor integration."""

import json
import multiprocessing
import time

import pytest

from repro import guard, obs
from repro._errors import ReproError
from repro.engine import (
    PlanStore,
    StoreBackedCache,
    content_hash,
    prepare,
    run_batch,
    store_traffic,
)
from repro.engine import executor
from repro.engine.canon import canonical_formula
from repro.guard import Budget, StoreIOBudgetExceeded
from repro.logic.parser import parse
from repro.logic.printer import formula_to_str

TRIANGLE = "0 <= y AND y <= x AND x <= 1"


def key_of(text: str, kind: str = "volume") -> str:
    """The content hash of *text* without compiling anything."""
    canonical = canonical_formula(parse(text))
    variables = tuple(sorted(canonical.free_variables()))
    return content_hash(formula_to_str(canonical), variables, kind)


def compile_plan(text: str):
    return prepare(text, cache=None)


class FakeClock:
    """An injectable wall clock for deterministic lease arithmetic."""

    def __init__(self, now: float = 1_000_000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "plans.sqlite")


class TestPlanStore:
    def test_publish_fetch_roundtrip(self, store_path):
        store = PlanStore(store_path)
        plan = compile_plan(TRIANGLE)
        assert store.fetch(plan.key) is None
        published, won = store.publish(plan)
        assert won and published is plan
        assert plan.key in store
        assert len(store) == 1
        assert store.keys() == [plan.key]

        fetched = PlanStore(store_path).fetch(plan.key)
        assert fetched.key == plan.key
        assert fetched.provenance.source == "store"
        assert fetched.volume() == plan.volume()

    def test_publish_loser_adopts_winner(self, store_path):
        store = PlanStore(store_path)
        winner = compile_plan(TRIANGLE)
        loser = compile_plan(TRIANGLE)
        store.publish(winner)
        adopted, won = store.publish(loser)
        assert not won
        assert adopted.key == winner.key
        assert store.stats_snapshot()["races"] == 1
        # Still exactly one published record.
        assert len(store) == 1

    def test_get_or_compile_outcomes(self, store_path):
        store = PlanStore(store_path)
        key = key_of(TRIANGLE)
        plan, outcome = store.get_or_compile(
            key, lambda: compile_plan(TRIANGLE)
        )
        assert outcome == "miss" and plan.key == key
        again, outcome = store.get_or_compile(
            key, lambda: pytest.fail("must not recompile")
        )
        assert outcome == "store_hit"
        stats = store.stats_snapshot()
        assert stats["compiles"] == 1 and stats["publishes"] == 1

    def test_failed_compile_releases_claim(self, store_path):
        store = PlanStore(store_path)
        key = key_of(TRIANGLE)

        def boom():
            raise ValueError("compile failed")

        with pytest.raises(ValueError):
            store.get_or_compile(key, boom)
        # The claim is gone, so the retry compiles — no stale-claim steal.
        _, outcome = store.get_or_compile(key, lambda: compile_plan(TRIANGLE))
        assert outcome == "miss"
        assert store.stats_snapshot()["stale_claims"] == 0

    def test_dead_local_claim_is_stolen(self, store_path):
        store = PlanStore(store_path, lease_s=10_000)
        key = key_of(TRIANGLE)
        ghost = multiprocessing.Process(target=_noop)
        ghost.start()
        ghost.join()
        with store._write() as con:
            con.execute(
                "INSERT INTO claims (key, pid, host, acquired_s)"
                " VALUES (?, ?, ?, ?)",
                (key, ghost.pid, store._host, time.time()),
            )
        # Owner is dead on this host: the claim is stolen despite the lease.
        _, outcome = store.get_or_compile(key, lambda: compile_plan(TRIANGLE))
        assert outcome == "miss"
        assert store.stats_snapshot()["stale_claims"] == 1

    def test_remote_claim_staleness_is_lease_based(self, store_path):
        """A remote claim is honoured until its lease expires — no pid
        probe is possible across hosts, so expiry is pure clock
        arithmetic, driven here by an injected fake clock (no sleeps)."""
        clock = FakeClock()
        store = PlanStore(store_path, lease_s=60.0, clock=clock)
        key = key_of(TRIANGLE)
        with store._write() as con:
            con.execute(
                "INSERT INTO claims (key, pid, host, acquired_s)"
                " VALUES (?, ?, ?, ?)",
                (key, 1, "another-host", clock()),
            )
        # Within the lease the remote owner keeps the claim.
        assert store._claim(key) == "theirs"
        clock.advance(59.0)
        assert store._claim(key) == "theirs"
        assert store.stats_snapshot()["stale_claims"] == 0
        # One tick past the lease, the claim is stolen and we compile.
        clock.advance(2.0)
        _, outcome = store.get_or_compile(key, lambda: compile_plan(TRIANGLE))
        assert outcome == "miss"
        assert store.stats_snapshot()["stale_claims"] == 1

    def test_transient_lock_contention_is_retried(self, store_path):
        """A ``database is locked`` burst is absorbed, not surfaced.

        A raw connection holds the write lock just long enough for the
        store's own busy timeout to give up; the store's bounded
        lock-retry loop (counted as ``engine.store.lock_retries``) rides
        out the contention and the publish still lands.
        """
        import sqlite3
        import threading

        store = PlanStore(
            store_path, busy_timeout_s=0.005, lock_retries=200,
            lock_retry_s=0.005,
        )
        blocker = sqlite3.connect(
            store_path, timeout=30.0, check_same_thread=False,
        )
        blocker.execute("BEGIN IMMEDIATE")
        release = threading.Timer(0.25, blocker.commit)
        obs.enable_counting()
        release.start()
        try:
            _, won = store.publish(compile_plan(TRIANGLE))
        finally:
            release.join()
            blocker.close()
        assert won
        assert PlanStore(store_path).fetch(key_of(TRIANGLE)) is not None
        assert obs.REGISTRY.as_dict()["engine.store.lock_retries"] >= 1

    def test_unknown_store_schema_rejected(self, store_path):
        store = PlanStore(store_path)
        store._con.execute(
            "UPDATE meta SET value = 'repro.engine.store/v999'"
            " WHERE name = 'schema'"
        )
        with pytest.raises(ReproError, match="unknown plan-store schema"):
            PlanStore(store_path)

    def test_fetch_histogram_merges_across_handles(self, store_path):
        plan = compile_plan(TRIANGLE)
        PlanStore(store_path).publish(plan)
        first, second = PlanStore(store_path), PlanStore(store_path)
        first.fetch(plan.key)
        second.fetch(plan.key)
        first.flush_metrics()
        second.flush_metrics()
        merged = PlanStore(store_path).fetch_hist_snapshot()
        assert merged["count"] == 2
        assert sum(merged["buckets"].values()) == 2


class TestStoreBackedCache:
    def test_read_through_and_write_back(self, store_path):
        first = StoreBackedCache(PlanStore(store_path))
        plan = prepare(TRIANGLE, cache=first)
        assert first.outcomes["misses"] == 1
        # Same adapter again: pure in-memory hit, no store traffic.
        assert prepare(TRIANGLE, cache=first) is plan
        assert first.outcomes["hits"] == 1

        # A different process's adapter falls through to the store.
        second = StoreBackedCache(PlanStore(store_path))
        warm = prepare(TRIANGLE, cache=second)
        assert second.outcomes["store_hits"] == 1
        assert warm.key == plan.key
        assert warm.provenance.source == "store"

    def test_store_io_budget_trips(self, store_path):
        store = PlanStore(store_path)
        key = key_of(TRIANGLE)
        budget = Budget(max_store_ios=1)
        with guard.govern(budget):
            store.fetch(key)
            with pytest.raises(StoreIOBudgetExceeded) as excinfo:
                store.fetch(key)
        assert excinfo.value.resource == "store_ios"
        assert budget.store_ios == 2


FORMULAS = [
    TRIANGLE,
    "0 <= x AND x <= 1/2",
    "0 <= x AND x <= 1/4 AND 0 <= y AND y <= 1/4",
]


def _race_child(store_path, barrier, queue):
    store = PlanStore(store_path, poll_s=0.005)
    key = key_of(TRIANGLE)

    def slow_factory():
        time.sleep(0.2)
        return compile_plan(TRIANGLE)

    barrier.wait()
    plan, outcome = store.get_or_compile(key, slow_factory)
    record = plan.to_record()
    record.pop("provenance")  # timings/source legitimately differ
    queue.put((outcome, json.dumps(record, sort_keys=True)))


def _noop():
    pass


class TestCrossProcess:
    def test_two_processes_racing_compile_once(self, store_path):
        """Two racing processes converge to one byte-identical record."""
        barrier = multiprocessing.Barrier(2)
        queue = multiprocessing.Queue()
        children = [
            multiprocessing.Process(
                target=_race_child, args=(store_path, barrier, queue)
            )
            for _ in range(2)
        ]
        for child in children:
            child.start()
        outcomes = [queue.get(timeout=60) for _ in children]
        for child in children:
            child.join(timeout=60)

        store = PlanStore(store_path)
        stats = store.stats_snapshot()
        assert stats["compiles"] == 1, stats
        assert stats["publishes"] == 1
        assert len(store) == 1
        # Exactly one process compiled; all ended with the same plan bytes.
        assert sorted(o for o, _ in outcomes).count("miss") == 1
        records = {record for _, record in outcomes}
        assert len(records) == 1

    def test_four_workers_compile_each_hash_once(self, store_path):
        tasks = [
            {"id": f"q{i}", "op": "volume", "formula": FORMULAS[i % 3]}
            for i in range(12)
        ]
        results = run_batch(tasks, workers=4, plan_store=store_path)
        assert all(r["status"] == "ok" for r in results)
        stats = PlanStore(store_path).stats_snapshot()
        assert stats["compiles"] == len(FORMULAS)
        assert len(PlanStore(store_path)) == len(FORMULAS)

    def test_results_identical_across_worker_counts(self, tmp_path):
        tasks = [
            {"id": f"q{i}", "op": "volume", "formula": FORMULAS[i % 3]}
            for i in range(8)
        ]

        def run(workers, path):
            results = run_batch(tasks, workers=workers, plan_store=path)
            return [
                {k: v for k, v in r.items() if k != "elapsed_s"}
                for r in results
            ]

        serial = run(1, str(tmp_path / "serial.sqlite"))
        parallel = run(4, str(tmp_path / "parallel.sqlite"))
        assert serial == parallel


class TestBatchIntegration:
    def test_cache_provenance_is_deterministic_one_hot(self, store_path):
        tasks = [
            {"id": i, "op": "volume", "formula": f}
            for i, f in enumerate([TRIANGLE, TRIANGLE, FORMULAS[1]])
        ]
        results = run_batch(tasks, workers=1, plan_store=store_path)
        cache = [r["cache"] for r in results]
        assert all(sum(c.values()) == 1 for c in cache)
        assert cache[0] == {"hits": 0, "misses": 1, "store_hits": 0}
        assert cache[1] == {"hits": 1, "misses": 0, "store_hits": 0}
        assert cache[2] == {"hits": 0, "misses": 1, "store_hits": 0}

    def test_provenance_without_store(self):
        tasks = [
            {"id": i, "op": "volume", "formula": f}
            for i, f in enumerate([TRIANGLE, TRIANGLE])
        ]
        results = run_batch(tasks, workers=1)
        assert results[0]["cache"] == {"hits": 0, "misses": 1, "store_hits": 0}
        assert results[1]["cache"] == {"hits": 1, "misses": 0, "store_hits": 0}

    def test_prewarm_then_warm_run_compiles_nothing(self, store_path):
        tasks = [
            {"id": i, "op": "volume", "formula": f}
            for i, f in enumerate(FORMULAS)
        ]
        prewarm = run_batch(
            tasks, workers=2, plan_store=store_path, compile_only=True
        )
        assert all(r["mode"] == "compile-only" for r in prewarm)
        assert all("value" not in r for r in prewarm)
        compiles_cold = PlanStore(store_path).stats_snapshot()["compiles"]
        assert compiles_cold == len(FORMULAS)

        warm = run_batch(tasks, workers=2, plan_store=store_path)
        assert all(r["status"] == "ok" for r in warm)
        assert [r["cache"]["store_hits"] for r in warm] == [1, 1, 1]
        assert (
            PlanStore(store_path).stats_snapshot()["compiles"] == compiles_cold
        )

    def test_store_traffic_folds_into_obs_registry(self, store_path):
        tasks = [
            {"id": i, "op": "volume", "formula": f}
            for i, f in enumerate(FORMULAS)
        ]
        run_batch(tasks, workers=1, plan_store=store_path, compile_only=True)
        # Drop this process's warm adapter so the second batch re-fetches
        # from the store, as a fresh process would.
        executor._ADAPTERS.clear()
        obs.enable_counting()
        run_batch(tasks, workers=1, plan_store=store_path)
        counts = obs.REGISTRY.as_dict()
        assert counts["engine.store.hit"] == len(FORMULAS)
        assert counts["engine.store.plans"] == len(FORMULAS)
        assert "engine.store.miss" not in counts or not counts[
            "engine.store.miss"
        ]
        hist = obs.REGISTRY.histogram("engine.store.fetch_s", "")
        assert hist.count == len(FORMULAS)

    def test_store_traffic_deltas_chain_without_double_counting(
        self, store_path
    ):
        with PlanStore(store_path) as store:
            plan = compile_plan(TRIANGLE)
            mark = store.traffic_mark()
            store.publish(plan)
            store.fetch(plan.key)
            store.fetch(key_of("x < 1/4"))
            traffic, mark = store_traffic(store, mark)
            assert traffic["counters"] == {
                "engine.store.publish": 1,
                "engine.store.hit": 1,
                "engine.store.miss": 1,
            }
            assert traffic["gauges"] == {"engine.store.plans": 1}
            assert traffic["histograms"]["engine.store.fetch_s"]["count"] == 1
            # Nothing happened since the last mark: an empty delta.
            traffic, _ = store_traffic(store, mark)
            assert traffic == {
                "counters": {}, "gauges": {"engine.store.plans": 1},
            }
