"""The repository benchmark: one workload, one seed, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload batch --seed 1 --seconds 45 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

``batch``
    closed-loop ``repro.engine.run_batch(workers=2)`` rounds, each
    against a fresh empty plan store, of 19 tasks: salted quantified
    Fourier-Motzkin shapes, each twice (the copy alpha-renamed and
    reordered) -- the compile path and the store's write path -- then
    clipped unions of clustered boxes (2-D with 6-10 boxes, 3-D with
    3-5) -- inclusion-exclusion, feasibility and polytope slicing.
``serve_open``
    an open loop at ``SERVE_RATE`` requests/s over two keep-alive
    connections against ``python -m repro serve --workers 2`` whose plan
    store was prewarmed during set-up: the serve path and the store's
    read path.  The window runs as back-to-back 5 s segments, each
    drained before the next starts.

``--trace 0`` prints the end-to-end metrics, measured untraced:

``tasks_per_s``
    batch: tasks answered correctly per wall second of ``run_batch``
    in the slowest decile of rounds (see ``SLOW_DECILE``).  serve:
    correct responses per second of the window.  In an open loop that
    equals the offered rate until the server saturates or fails, so for
    serve it only catches saturation and failure; compare serve runs by
    their latencies.
``latency_p50_ms`` / ``latency_p99_ms``
    batch: a task's ``elapsed_s``.  A round has only 19 tasks, so its
    p50 is its median task and its p99 its slowest task; each is read
    in the slowest decile of rounds.  serve: from when a request was
    due to when its response was read, over the whole window.  A
    failed, refused or wrong answer counts as infinitely slow.
``setup_s``
    what comes before the first timed operation, the median of several
    set-ups.  batch: ``run_batch(workers=2)`` answering two trivial
    tasks (pool start-up, a round trip through each worker and creating
    the plan store).  serve: store prewarm plus server start.
``peak_rss_mb``
    the largest resident size of any process the run started, itself
    included.

Every timing above is reported at the speed of a reference core, not
the speed the shared host happened to have during the run: the host
runs the same code up to 1.8x faster or slower from one minute to the
next as its neighbours load the cores.  At points where the run has no
work in flight (before each set-up and each batch round, between the
serve window's segments) :class:`HostSpeed` times a fixed pure-Python
loop; times are divided, and batch ``tasks_per_s`` multiplied, by the
loop's mean time over ``REFERENCE_LOOP_S``.  The unscaled figures go
to standard error.  serve ``tasks_per_s`` is a rate of the wall clock
and stays unscaled.

Failed and wrong answers are counted in ``failed``; a run with any is
not ``correct``.  ``--trace 1`` prints the per-layer metrics: the batch rounds are re-run
in-process (``workers=1``) under :class:`layers.LayerTracer`, and the
serve request list is replayed in-process through
``repro.engine.execute_task``; serve-layer numbers come from client
timestamps, the result envelopes and a ``/metrics`` scrape of an
untraced window.  The traced run also writes its span forest and
counters as one ``repro.obs/v2`` record to
``perfbench/out/trace-<workload>-seed<seed>.jsonl``, which
``python -m repro trace --perfetto OUT.json FILE`` renders.

Every answer is checked against an independent oracle (``inputs.py``);
a wrong answer counts as failed.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

import inputs
from layers import LayerTracer, percentile
from loadgen import ServeProcess, alive, child_pids, decode, http_get, run_open_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("batch", "serve_open")
WORKERS = 2
#: serve_open offered load: a third of the closed-loop capacity of the
#: same mix over two connections on a 2-core machine (~72 requests/s).
#: The shared host's speed swings by up to 1.7x between minutes, which
#: takes 50% load to 85%; the queue then turned the swing into a p50/p99
#: spread of a third to a half between runs.  At a third, such a swing
#: stays below 60% load.
SERVE_RATE = 24.0
SERVE_CONNECTIONS = 2
#: serve_open latency limit behind ``slo_ratio``.
LATENCY_LIMIT_MS = 250.0
#: A serve run is invalid when the generator's own p99 lateness exceeds
#: this share of the p99 latency it reports (latency counts from the due
#: time, so such lag would be measuring the client, not the server).
GEN_LATE_SHARE = 0.25
#: Batch metrics are per-round figures read in the slowest decile of
#: rounds (the 10th percentile of round throughput, the 90th of round
#: latencies).
#: On the shared 2-vCPU host, rounds run at a contended floor speed with
#: bursts of up to twice that whenever neighbours are idle.  How many
#: bursts a run gets varies from minute to minute, so a median over rounds
#: swung by a quarter between runs of the same code; the floor recurs in
#: every run and its decile spread by about a tenth.
SLOW_DECILE = 0.1
#: The host-speed loop: iterations per sample, samples per idle point,
#: and its time on the reference core (a round figure near its time on an
#: idle 2-vCPU x86-64 VM).  On a busy host the loop's time flips between
#: two levels within seconds (about 7 and 11 ms), so many samples are
#: averaged; their mean follows how long the host was contended, which
#: sets the program's speed too.  Over six 45 s batch runs while the host
#: sped up by a third, scaling cut the spread of the slow-decile throughput
#: from 0.20 to 0.06 of its median.
HOST_LOOP = 50_000
HOST_SAMPLES = 8
REFERENCE_LOOP_S = 0.005
#: serve_open requests per open-loop segment (5 s); the host speed is
#: sampled in the idle gap between segments.
SERVE_SEGMENT = 120
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = {"batch": 25, "serve_open": 3}
#: Rounds re-run by a traced batch run (a fixed count, so its counters
#: are a function of the seed alone).
TRACE_ROUNDS = {"batch": 2}
#: The request timeout ``repro serve`` applies by default; the in-process
#: replay uses the same budget.
SERVE_TIMEOUT_S = 30.0
#: Relative tolerance between the exact area and the Qhull area.
AREA_RTOL = 1e-9
#: What a batch set-up runs: two trivial tasks, one per pool worker.
SETUP_TASKS = [{"op": "volume", "formula": f"0 <= x AND x <= {k}/4"} for k in (1, 3)]

END_TO_END = {
    "tasks_per_s": "tasks/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "parser.self_s": "s", "canon.self_s": "s", "qe.self_s": "s",
    "dnf.self_s": "s", "cells.self_s": "s",
    "fm.eliminations": "count", "fm.disjuncts": "count",
    "fm.disjuncts_pruned": "count", "fm.constraints_pruned": "count",
    "volume.cells": "count",
    "feasibility.self_s": "s", "feasibility.calls": "count",
    "feasibility.empty_ratio": "ratio",
    "union.self_s": "s", "volume.intersections": "count",
    "union.nonempty_ratio": "ratio",
    "slicing.self_s": "s", "vertices.self_s": "s",
    "volume.slices": "count", "volume.polytopes": "count",
    "clip.self_s": "s", "mc.self_s": "s", "mc.samples": "count",
    "cache.hit_ratio": "ratio", "cache.evictions": "count",
    "store.fetch_ms_p50": "ms",
    "store.compiles": "count", "store.publishes": "count",
    "store.adopt_wait_s": "s",
    "executor.busy_ratio": "ratio",
    "serve.worker_ms_p50": "ms", "serve.worker_ms_p99": "ms",
    "serve.overhead_ms_p50": "ms", "serve.overhead_ms_p99": "ms",
    "serve.queue_wait_ms_p99": "ms", "serve.shed": "count",
    "serve.client_wait_ms_p99": "ms",
    "gen_late_ms_p99": "ms",
    "slo_ratio": "ratio", "fail_ratio": "ratio",
    "trace_overhead_ratio": "ratio",
}

#: Program counters copied into the per-layer output under the same name.
COUNTERS = ("fm.eliminations", "fm.disjuncts", "fm.disjuncts_pruned",
            "fm.constraints_pruned", "volume.cells", "volume.intersections",
            "volume.slices", "volume.polytopes", "mc.samples")

#: JSON has no infinity; a failed request's latency is reported as this.
INFINITE_MS = 1e12


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


class Run:
    """State shared by one invocation: temp space, problems, answer tally."""

    def __init__(self, workload: str, seed: int, seconds: float, tmp: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tmp = tmp
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.host = HostSpeed()

    def tally(self, correct: list[bool]) -> None:
        self.attempted += len(correct)
        self.failed += correct.count(False)

    def result(self, metrics: dict[str, float], units: dict[str, str]) -> dict[str, Any]:
        for problem in self.problems:
            log(problem)
        return {
            "correct": not self.problems and self.failed == 0,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {
                name: {"value": _finite(metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        }


def _finite(value: float) -> float:
    return INFINITE_MS if math.isinf(value) else float(value)


class HostSpeed:
    """Times a fixed pure-Python loop wherever the run has no work in flight."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        for _ in range(HOST_SAMPLES):
            start = time.perf_counter()
            total = 0
            for i in range(HOST_LOOP):
                total += i * i
            self.samples.append(time.perf_counter() - start)

    def at_reference(self, metrics: dict[str, float], rates: tuple[str, ...]) -> dict[str, float]:
        """*metrics* at the reference core's speed.

        Times are divided, and the rates named in *rates* multiplied, by
        how much slower than the reference the host ran.  The unscaled
        figures are logged.
        """
        slowdown = statistics.mean(self.samples) / REFERENCE_LOOP_S
        log(f"host loop took {slowdown:.3f}x its reference time over "
            f"{len(self.samples)} samples; unscaled: "
            + ", ".join(f"{k} {v:.6g}" for k, v in metrics.items()))
        scaled = dict(metrics)
        for name in ("latency_p50_ms", "latency_p99_ms", "setup_s"):
            scaled[name] = metrics[name] / slowdown
        for name in rates:
            scaled[name] = metrics[name] * slowdown
        return scaled


# ---------------------------------------------------------------------------
# isolation
# ---------------------------------------------------------------------------

def isolate() -> None:
    """Forget warm state the parent would hand to forked pool workers."""
    from repro.engine import DEFAULT_CACHE, executor

    DEFAULT_CACHE.clear()
    executor._ADAPTERS.clear()


def reap_children(run: Run, timeout: float = 30.0) -> None:
    """Wait until no child of this process is alive; record a leak."""
    deadline = time.monotonic() + timeout
    while True:
        live = [pid for pid in child_pids(os.getpid()) if alive(pid)]
        if not live:
            return
        if time.monotonic() > deadline:
            run.problems.append(f"worker processes outlived their run: {live}")
            return
        time.sleep(0.01)


def peak_rss_mb() -> float:
    """Largest resident size of this process or any reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------------
# batch workloads
# ---------------------------------------------------------------------------

def _store_path(run: Run, label: str) -> str:
    return str(run.tmp / f"plans-{label}.sqlite")


def run_round(run: Run, tasks: list[dict], store: str, workers: int):
    """One isolated ``run_batch`` call: (results, wall seconds)."""
    from repro.engine import run_batch

    isolate()
    start = time.perf_counter()
    results = run_batch(tasks, workers=workers, seed=run.seed, plan_store=store)
    wall = time.perf_counter() - start
    reap_children(run)
    return results, wall


def setup_probe(run: Run, label: str) -> float:
    """Seconds for ``run_batch(workers=2)`` to answer two trivial tasks.

    That is what a batch pays before its first real task: starting the
    worker pool, a round trip through each worker and creating the plan
    store.
    """
    results, wall = run_round(run, SETUP_TASKS, _store_path(run, f"setup-{label}"), WORKERS)
    if any(r.get("status") != "ok" for r in results):
        run.problems.append("batch set-up: a trivial task failed")
    return wall


def check_batch(results: list[dict], expected: list[Any]) -> list[bool]:
    """Per task: finished ok with the oracle's answer."""
    from fractions import Fraction

    verdicts = []
    areas: dict[int, float] = {}
    for record, expect in zip(results, expected):
        if record.get("status") != "ok":
            verdicts.append(False)
            continue
        if isinstance(expect, Fraction):  # a union's exact volume
            verdicts.append(Fraction(record["exact"]) == expect)
            continue
        key = id(expect)
        if key not in areas:
            areas[key] = inputs.projected_area(expect)
        area = areas[key]
        value = float(Fraction(record["exact"]))
        verdicts.append(abs(value - area) <= AREA_RTOL * max(abs(area), 1e-12))
    return verdicts


def batch_untraced(run: Run) -> dict[str, Any]:
    run.host.sample()
    setups = [setup_probe(run, str(k)) for k in range(SETUP_REPEATS[run.workload])]
    rounds = []
    spent = 0.0
    while spent < run.seconds:
        run.host.sample()
        tasks, expected = inputs.batch_round(run.seed, len(rounds))
        results, wall = run_round(run, tasks, _store_path(run, str(len(rounds))), WORKERS)
        rounds.append((results, expected, wall))
        spent += wall
    rss = peak_rss_mb()
    # Every metric is taken per round and reported for the slowest decile
    # of rounds (see SLOW_DECILE).
    throughput, middles, tails = [], [], []
    for results, expected, wall in rounds:
        verdicts = check_batch(results, expected)
        run.tally(verdicts)
        throughput.append(sum(verdicts) / wall)
        done = [r["elapsed_s"] * 1e3 if ok else math.inf
                for r, ok in zip(results, verdicts)]
        middles.append(statistics.median(done))
        tails.append(max(done))
    log(f"{run.workload}: {len(rounds)} rounds, {run.attempted} tasks in {spent:.3f}s; "
        f"tasks/s per round {[round(t, 2) for t in throughput]}")
    metrics = {
        "tasks_per_s": percentile(throughput, SLOW_DECILE),
        "latency_p50_ms": percentile(middles, 1 - SLOW_DECILE),
        "latency_p99_ms": percentile(tails, 1 - SLOW_DECILE),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    return run.result(run.host.at_reference(metrics, ("tasks_per_s",)), END_TO_END)


def batch_traced(run: Run) -> dict[str, Any]:
    from repro.engine import PlanStore

    rounds = [inputs.batch_round(run.seed, r)
              for r in range(TRACE_ROUNDS[run.workload])]

    busy = wall_pooled = 0.0
    for number, (tasks, expected) in enumerate(rounds):
        results, wall = run_round(run, tasks, _store_path(run, f"pool-{number}"), WORKERS)
        run.tally(check_batch(results, expected))
        busy += sum(r.get("elapsed_s", 0.0) for r in results)
        wall_pooled += wall

    def in_process(label: str) -> float:
        total = 0.0
        for number, (tasks, expected) in enumerate(rounds):
            results, wall = run_round(run, tasks, _store_path(run, f"{label}-{number}"), 1)
            run.tally(check_batch(results, expected))
            total += wall
        return total

    # Untraced passes on both sides of the traced one, so warm-up effects
    # do not masquerade as (negative) tracing overhead.
    untraced = in_process("plain-a")
    with TracedBlock(run) as (tracer, trace):
        traced = in_process("traced")
    untraced = (untraced + in_process("plain-b")) / 2
    stores = [_store_path(run, f"traced-{n}") for n in range(len(rounds))]
    stats = {"compiles": 0, "publishes": 0}
    for path in stores:
        with PlanStore(path) as store:
            snapshot = store.stats_snapshot()
        stats = {k: stats[k] + snapshot[k] for k in stats}
    metrics = layer_metrics(tracer, stats)
    metrics["executor.busy_ratio"] = busy / (wall_pooled * WORKERS)
    metrics["trace_overhead_ratio"] = traced / untraced
    metrics["fail_ratio"] = run.failed / max(1, run.attempted)
    write_trace(run, trace, metrics)
    return run.result(metrics, PER_LAYER)


class TracedBlock:
    """Counters, a fresh trace and the layer wrappers, for one block."""

    def __init__(self, run: Run):
        self.run = run

    def __enter__(self):
        from repro import obs

        obs.REGISTRY.reset()
        obs.enable_counting()
        self.trace = obs.start_trace(f"perfbench.{self.run.workload}")
        self.tracer = LayerTracer().__enter__()
        return self.tracer, self.trace

    def __exit__(self, *exc_info: Any) -> None:
        from repro import obs

        self.tracer.__exit__(*exc_info)
        obs.stop_trace()
        obs.disable_counting()
        if self.trace.dropped_spans:
            self.run.problems.append(
                f"trace dropped {self.trace.dropped_spans} spans (MAX_SPANS)")


def layer_metrics(tracer, store_stats: dict[str, int]) -> dict[str, float]:
    """Per-layer numbers of one traced block, zero-filled for serve/IO rows."""
    from repro import obs

    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(tracer.metrics())
    counters = obs.REGISTRY.as_dict(skip_empty=False)
    for name in COUNTERS:
        metrics[name] = float(counters.get(name, 0))
    hits = counters.get("engine.cache.hit", 0)
    misses = counters.get("engine.cache.miss", 0)
    metrics["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["cache.evictions"] = float(counters.get("engine.cache.eviction", 0))
    metrics["store.compiles"] = float(store_stats["compiles"])
    metrics["store.publishes"] = float(store_stats["publishes"])
    return metrics


def write_trace(run: Run, trace, metrics: dict[str, float]) -> None:
    """The traced block as one ``repro.obs/v2`` record (Perfetto-ready)."""
    from repro import obs

    OUT.mkdir(exist_ok=True)
    record = obs.make_record(
        f"perfbench.{run.workload}",
        row={"seed": run.seed, **{k: round(v, 9) for k, v in metrics.items()}},
        registry=obs.REGISTRY, trace=trace,
    )
    path = OUT / f"trace-{run.workload}-seed{run.seed}.jsonl"
    path.write_text(json.dumps(record, sort_keys=True) + "\n", encoding="utf-8")
    log(f"trace record -> {path.relative_to(ROOT)}")


# ---------------------------------------------------------------------------
# serve_open
# ---------------------------------------------------------------------------

def serve(run: Run, traced: bool) -> dict[str, Any]:
    from repro.engine import PlanStore, run_batch

    shapes = inputs.serve_shapes(run.seed)
    requests = inputs.serve_requests(run.seed, shapes, int(SERVE_RATE * run.seconds))
    prewarm = inputs.serve_prewarm_tasks(shapes)
    warmup = inputs.serve_warmup(run.seed, shapes)
    bodies = [json.dumps(r["payload"]).encode() for r in requests]

    # Set-up is what a deployment pays to come up: prewarm the plan store,
    # start the server, wait until it is ready.  It runs several times and
    # setup_s is the median; the last server serves the window.
    setups: list[float] = []
    server = store = None
    try:
        for number in range(1 if traced else SETUP_REPEATS[run.workload]):
            if server is not None and not server.stop():
                run.problems.append("serve set-up: server did not stop cleanly")
            isolate()
            run.host.sample()
            store = str(run.tmp / f"serve-{number}.sqlite")
            start = time.perf_counter()
            warmed = run_batch(prewarm, workers=WORKERS, seed=run.seed,
                               plan_store=store, compile_only=True)
            reap_children(run)
            server = ServeProcess(str(SRC), store, str(run.tmp / f"serve-{number}.log"),
                                  WORKERS)
            setups.append(time.perf_counter() - start)
            if any(r.get("status") != "ok" for r in warmed):
                run.problems.append("serve set-up: prewarm failed")
        with PlanStore(store) as handle:
            prewarm_stats = handle.stats_snapshot()
        # Untimed warm-up to the steady state of a long-running server.
        warm_rows, _ = run_open_loop(server.port, [json.dumps(p).encode() for p in warmup],
                                     math.inf, SERVE_CONNECTIONS)
        if any(row[3] != 200 for row in warm_rows):
            run.problems.append("serve warm-up: a request failed")
        server.note_workers()
        # The window runs as back-to-back open-loop segments; each drains
        # before the host speed is sampled with the server idle.
        rows, late, window = [], [], 0.0
        for first in range(0, len(bodies), SERVE_SEGMENT):
            run.host.sample()
            segment, segment_late = run_open_loop(
                server.port, bodies[first:first + SERVE_SEGMENT], SERVE_RATE,
                SERVE_CONNECTIONS)
            rows += segment
            late += segment_late
            window += max(r[2] for r in segment) - min(r[0] for r in segment)
        run.host.sample()
        _, scrape = http_get(server.port, "/metrics")
        server_rss = server.peak_rss_mb()
    finally:
        if server is not None and not server.stop():
            run.problems.append("server or its workers did not stop cleanly on SIGTERM")
    reap_children(run)
    rss = max(server_rss, peak_rss_mb())

    latencies, worker_ms, overhead_ms, client_ms, verdicts = [], [], [], [], []
    worker_total = 0.0
    for request, row in zip(requests, rows):
        due, sent, done, status, payload = row
        record = decode(payload)
        ok = status == 200 and inputs.check_row(request["payload"]["op"], record,
                                                request["expect"])
        verdicts.append(ok)
        latencies.append((done - due) * 1e3 if ok else math.inf)
        if ok:
            worker = record["elapsed_s"] * 1e3
            worker_total += record["elapsed_s"]
            worker_ms.append(worker)
            overhead_ms.append((done - sent) * 1e3 - worker)
            client_ms.append((sent - due) * 1e3)
    run.tally(verdicts)
    late_p99 = percentile([v * 1e3 for v in late], 0.99)
    latency_p99 = percentile(latencies, 0.99)
    if late_p99 > GEN_LATE_SHARE * latency_p99:
        run.problems.append(
            f"run invalid: generator p99 lateness {late_p99:.1f} ms exceeds "
            f"{GEN_LATE_SHARE:.0%} of p99 latency {latency_p99:.1f} ms")
    slo = sum(1 for v in latencies if v <= LATENCY_LIMIT_MS) / len(latencies)
    log(f"serve_open: {len(requests)} requests at {SERVE_RATE}/s over {window:.3f}s, "
        f"slo_ratio {slo:.4f}, generator p99 late {late_p99:.2f} ms")

    if not traced:
        return run.result(run.host.at_reference({
            "tasks_per_s": verdicts.count(True) / window,
            "latency_p50_ms": statistics.median(latencies),
            "latency_p99_ms": latency_p99,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
        }, ()), END_TO_END)

    from repro.obs import parse_prometheus

    metrics, trace = serve_replay(run, requests, warmup, store)
    snapshot = parse_prometheus(scrape.decode("utf-8"))
    queue_wait = snapshot.histograms.get("repro_serve_queue_wait_s")
    metrics.update({
        # The store is written only while set-up prewarms it.
        "store.compiles": float(prewarm_stats["compiles"]),
        "store.publishes": float(prewarm_stats["publishes"]),
        "serve.worker_ms_p50": percentile(worker_ms, 0.50),
        "serve.worker_ms_p99": percentile(worker_ms, 0.99),
        "serve.overhead_ms_p50": percentile(overhead_ms, 0.50),
        "serve.overhead_ms_p99": percentile(overhead_ms, 0.99),
        "serve.queue_wait_ms_p99": queue_wait.quantile(0.99) * 1e3 if queue_wait else 0.0,
        "serve.shed": snapshot.value("repro_serve_shed"),
        "serve.client_wait_ms_p99": percentile(client_ms, 0.99),
        "gen_late_ms_p99": late_p99,
        "slo_ratio": slo,
        "executor.busy_ratio": worker_total / (window * WORKERS),
        "fail_ratio": run.failed / max(1, run.attempted),
    })
    write_trace(run, trace, metrics)
    return run.result(metrics, PER_LAYER)


def serve_replay(run: Run, requests: list[dict], warmup: list[dict],
                 store: str) -> tuple[dict[str, float], Any]:
    """Replay the request list in-process through ``execute_task``.

    Each pass starts from a cold in-memory cache, replays the warm-up
    untimed, then times the request list: untraced, traced, untraced.
    """
    from repro.engine import executor, normalize_task, task_seed

    tasks = [normalize_task(r["payload"], r["payload"]["index"]) for r in requests]
    warm_tasks = [normalize_task(p, p["index"]) for p in warmup]

    def execute(batch: list[dict]) -> list[dict]:
        return [executor.execute_task(task, seed=task_seed(run.seed, task["index"]),
                                      timeout=SERVE_TIMEOUT_S, plan_store=store)
                for task in batch]

    def replay() -> float:
        start = time.perf_counter()
        records = execute(tasks)
        wall = time.perf_counter() - start
        run.tally([inputs.check_row(r["payload"]["op"], record, r["expect"])
                   for r, record in zip(requests, records)])
        return wall

    isolate()
    execute(warm_tasks)
    untraced = replay()
    isolate()
    execute(warm_tasks)
    with TracedBlock(run) as (tracer, trace):
        traced = replay()
    isolate()
    execute(warm_tasks)
    untraced = (untraced + replay()) / 2
    metrics = layer_metrics(tracer, {"compiles": 0, "publishes": 0})
    metrics["trace_overhead_ratio"] = traced / untraced
    return metrics, trace


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"no program source at {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    # run_batch's liveness directories and anything else the program
    # puts in a temp dir stay inside the checkout.
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    run = Run(args.workload, args.seed, args.seconds, tmp)
    try:
        if args.workload == "serve_open":
            result = serve(run, traced=bool(args.trace))
        elif args.trace:
            result = batch_traced(run)
        else:
            result = batch_untraced(run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
