"""ENGINE — plan-cache amortization and parallel batch fan-out.

Not a paper claim — an engineering contract of the ``repro.engine``
subsystem (see docs/ENGINE.md): preparing a query pays quantifier
elimination and cell decomposition once, so (1) repeated evaluation
through a warm plan cache must be at least 5x faster than re-running the
cold pipeline each time, (2) fetching a plan from the shared plan store
must beat recompiling it, (3) a 4-worker batch over independent queries must
beat the same batch run serially, and (4) a batch run against a
prewarmed shared plan store must be at least 3x faster than the cold
run that populated it.  The table reports the measured times; each row
lands in the ``repro.obs/v2`` trajectory with the engine.* counters
attached, the batch test additionally writes
``benchmarks/out/BENCH_engine_batch.json`` (``$REPRO_BENCH_BATCH_OUT``
overrides the path) with the timings plus the merged cross-process
telemetry of an observed run, and the store test writes
``benchmarks/out/BENCH_engine_store.json`` (``$REPRO_BENCH_STORE_OUT``)
with the cold/warm timings plus the store's own traffic counters.
"""

import json
import os
import time
from pathlib import Path

from repro.engine import (
    DEFAULT_CACHE,
    PlanCache,
    PlanStore,
    StoreBackedCache,
    executor,
    prepare,
    run_batch,
)

from conftest import print_table
from obs_report import emit


def band_query(k: int, branches: int = 3) -> str:
    """A 2-quantifier disjunctive query; *k* makes each shape distinct."""
    alts = " OR ".join(
        f"({j}*u <= {k}*x AND u + v <= x + {j}*y AND {j}*v <= u + 1)"
        for j in range(1, branches + 1)
    )
    return (
        "EXISTS u . EXISTS v . (0 <= u AND u <= 1 AND 0 <= v AND v <= 1 AND "
        f"({alts}) AND 0 <= x AND x <= 1 AND 0 <= y AND y <= 1)"
    )


def test_warm_cache_speedup(tmp_path):
    query = band_query(2)
    repeats = 5

    start = time.perf_counter()
    for _ in range(repeats):
        cold_value = prepare(query, cache=None).volume()
    cold_s = time.perf_counter() - start

    cache = PlanCache()
    prepare(query, cache=cache).volume()  # compile + first evaluation
    start = time.perf_counter()
    for _ in range(repeats):
        warm_value = prepare(query, cache=cache).volume()
    warm_s = time.perf_counter() - start
    assert warm_value == cold_value

    # Publish the plan to a shared store and fetch it through a fresh
    # read-through cache: the stored plan skips QE/decomposition, so
    # fetch + evaluate beats a cold run.
    with PlanStore(str(tmp_path / "plans.sqlite")) as store:
        store.publish(prepare(query, cache=cache))
        start = time.perf_counter()
        fresh = StoreBackedCache(store)
        loaded_value = prepare(query, cache=fresh).volume()
        loaded_s = time.perf_counter() - start
    assert loaded_value == cold_value
    assert fresh.outcomes["store_hits"] == 1  # fetched, not recompiled

    speedup = cold_s / warm_s
    header = ["probe", "seconds", "target"]
    rows = [
        [f"cold prepare+volume x{repeats}", f"{cold_s:.4f}", "-"],
        [f"warm cache x{repeats}", f"{warm_s:.4f}", f"<= cold/5"],
        ["store fetch + volume", f"{loaded_s:.4f}", f"< cold/{repeats}"],
        ["warm speedup", f"{speedup:.1f}x", ">= 5x"],
    ]
    print_table("ENGINE: plan-cache amortization", header, rows)
    emit(
        "engine_cache",
        header,
        rows,
        extra={"repeats": repeats, "speedup": round(speedup, 2)},
    )
    assert speedup >= 5.0
    assert loaded_s < cold_s / repeats


def test_parallel_batch_beats_serial():
    tasks = [{"id": f"band{k}", "formula": band_query(k)} for k in range(2, 10)]

    # Parallel first: worker processes fork from a cold parent, so neither
    # run inherits the other's warm plans.
    DEFAULT_CACHE.clear()
    start = time.perf_counter()
    parallel = run_batch(tasks, workers=4, seed=0)
    parallel_s = time.perf_counter() - start

    DEFAULT_CACHE.clear()
    start = time.perf_counter()
    serial = run_batch(tasks, workers=1, seed=0)
    serial_s = time.perf_counter() - start

    assert [r["id"] for r in parallel] == [r["id"] for r in serial]
    assert all(r["status"] == "ok" for r in parallel)
    for left, right in zip(parallel, serial):
        assert left["exact"] == right["exact"]

    # Fan-out can only win wall-clock when there is more than one core to
    # fan out to; on a single-core box the contract degrades to "the pool
    # does not cost much more than running serially".
    cores = len(os.sched_getaffinity(0))
    target = "< serial" if cores >= 2 else "< 1.6x serial (1 core)"
    speedup = serial_s / parallel_s
    header = ["probe", "seconds", "target"]
    rows = [
        [f"serial batch ({len(tasks)} tasks)", f"{serial_s:.4f}", "-"],
        [f"4-worker batch ({cores} cores)", f"{parallel_s:.4f}", target],
        ["parallel speedup", f"{speedup:.2f}x", "> 1x" if cores >= 2 else "-"],
    ]
    print_table("ENGINE: parallel batch executor", header, rows)
    emit(
        "engine_batch",
        header,
        rows,
        extra={
            "tasks": len(tasks), "workers": 4, "cores": cores,
            "speedup": round(speedup, 2),
        },
    )
    _write_batch_report(tasks, serial_s, parallel_s, cores)
    if cores >= 2:
        assert parallel_s < serial_s
    else:
        assert parallel_s < serial_s * 1.6


def _batch_report_path() -> Path:
    env = os.environ.get("REPRO_BENCH_BATCH_OUT")
    if env:
        return Path(env)
    out_dir = Path(__file__).resolve().parent.parent / "benchmarks" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / "BENCH_engine_batch.json"


def _write_batch_report(tasks, serial_s, parallel_s, cores) -> None:
    """One JSON report: batch timings + merged cross-process telemetry.

    Re-runs the batch with ``collect_obs=True`` (observed tasks compile
    with a private plan cache, so this run's counters are deterministic)
    and folds the worker snapshots with the same merge the CLI uses.
    """
    from repro.obs.aggregate import merged_registry, summary_record

    DEFAULT_CACHE.clear()
    results = run_batch(tasks, workers=4, seed=0, collect_obs=True)
    registry = merged_registry(results)
    report = {
        "schema": "repro.obs/v2",
        "experiment": "BENCH_engine_batch",
        "tasks": len(tasks),
        "workers": 4,
        "cores": cores,
        "serial_s": round(serial_s, 6),
        "parallel_s": round(parallel_s, 6),
        "speedup": round(serial_s / parallel_s, 3),
        "statuses": {r["id"]: r["status"] for r in results},
        "counters": registry.as_dict(),
        "histograms": {
            name: hist.summary()
            for name, hist in registry.histograms()
            if hist.count
        },
        "summary": summary_record(results, extra={"workers": 4}),
    }
    path = _batch_report_path()
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nbatch telemetry report -> {path}")


def fm_heavy_query(k: int, n: int = 5) -> str:
    """Two nested quantifiers with *n* lower and upper bounds each.

    Fourier–Motzkin elimination multiplies bound pairs, so the compile
    step (QE + cell decomposition) costs seconds while the formula text
    stays short — exactly the regime where a prewarmed shared store
    pays: the warm path only re-parses the text to recover the content
    hash, then fetches the finished plan.
    """
    lows = " AND ".join(f"{j}*x - {j + k}*y <= u" for j in range(1, n + 1))
    highs = " AND ".join(f"u <= {j}*y + {k}" for j in range(1, n + 1))
    lows2 = " AND ".join(f"{j}*u - {k}*x <= v" for j in range(1, n + 1))
    highs2 = " AND ".join(f"v <= {j}*x + u + {k}" for j in range(1, n + 1))
    return (
        f"EXISTS u . EXISTS v . ({lows} AND {highs} AND {lows2} AND {highs2} "
        "AND 0 <= x AND x <= 1 AND 0 <= y AND y <= 1)"
    )


def test_warm_store_speedup(tmp_path):
    tasks = [
        {"id": f"fm{k}", "formula": fm_heavy_query(k)} for k in range(2, 8)
    ]
    store_path = tmp_path / "plans.sqlite"

    # Cold prewarm: an empty store, so every worker either compiles a
    # plan or adopts one a sibling just published.  Clearing the adapter
    # map keeps the parent's in-memory tier from leaking between runs.
    DEFAULT_CACHE.clear()
    executor._ADAPTERS.clear()
    start = time.perf_counter()
    cold = run_batch(
        tasks, workers=2, seed=0, plan_store=store_path, compile_only=True
    )
    cold_s = time.perf_counter() - start
    with PlanStore(str(store_path)) as store:
        cold_stats = store.stats_snapshot()
        plans = len(store)
    assert all(r["status"] == "ok" for r in cold)
    assert plans == len(tasks)
    assert cold_stats["compiles"] == len(tasks)

    # Warm prewarm: fresh worker processes against the populated store —
    # every plan is fetched and decoded instead of recompiled.
    DEFAULT_CACHE.clear()
    executor._ADAPTERS.clear()
    start = time.perf_counter()
    warm = run_batch(
        tasks, workers=2, seed=0, plan_store=store_path, compile_only=True
    )
    warm_s = time.perf_counter() - start
    with PlanStore(str(store_path)) as store:
        warm_stats = store.stats_snapshot()

    assert all(r["status"] == "ok" for r in warm)
    assert warm_stats["compiles"] == cold_stats["compiles"]  # no recompiles
    store_hits = warm_stats["hits"] - cold_stats["hits"]
    assert store_hits == len(tasks)

    # Stored plans must also evaluate: run a slice of the manifest for
    # real against the warm store and check it comes back clean.
    DEFAULT_CACHE.clear()
    executor._ADAPTERS.clear()
    evaluated = run_batch(tasks[:2], workers=2, seed=0, plan_store=store_path)
    assert all(r["status"] == "ok" for r in evaluated)
    assert all("exact" in r for r in evaluated)

    speedup = cold_s / warm_s
    header = ["probe", "seconds", "target"]
    rows = [
        [f"cold prewarm ({len(tasks)} plans)", f"{cold_s:.4f}", "-"],
        ["warm prewarm (store hits)", f"{warm_s:.4f}", "<= cold/3"],
        ["warm speedup", f"{speedup:.1f}x", ">= 3x"],
    ]
    print_table("ENGINE: shared plan store prewarming", header, rows)
    emit(
        "engine_store",
        header,
        rows,
        extra={
            "tasks": len(tasks), "workers": 2, "plans": plans,
            "store_hits": store_hits, "speedup": round(speedup, 2),
        },
    )
    _write_store_report(tasks, cold_s, warm_s, plans, cold_stats, warm_stats)
    assert speedup >= 3.0


def _store_report_path() -> Path:
    env = os.environ.get("REPRO_BENCH_STORE_OUT")
    if env:
        return Path(env)
    out_dir = Path(__file__).resolve().parent.parent / "benchmarks" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / "BENCH_engine_store.json"


def _write_store_report(tasks, cold_s, warm_s, plans, cold_stats, warm_stats) -> None:
    report = {
        "schema": "repro.obs/v2",
        "experiment": "BENCH_engine_store",
        "tasks": len(tasks),
        "workers": 2,
        "plans": plans,
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "speedup": round(cold_s / warm_s, 3),
        "cold_stats": cold_stats,
        "warm_stats": warm_stats,
    }
    path = _store_report_path()
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nstore telemetry report -> {path}")
