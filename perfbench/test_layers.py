"""Self-checks of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/test_layers.py -q

They assert that every layer wrapper fires on the workload that should
exercise it (a later change that rebinds a function would otherwise
silently zero a layer), that the deterministic counters repeat exactly
across two traced runs of one seed, that traced runs convert to a
Perfetto timeline, and that the benchmark refuses to run without the
program's source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402

#: Per-layer metrics that must be non-zero on each workload's traced run.
EXERCISED = {
    "batch": (
        "parser.self_s", "canon.self_s", "qe.self_s", "dnf.self_s", "cells.self_s",
        "fm.eliminations", "fm.disjuncts", "fm.disjuncts_pruned",
        "fm.constraints_pruned", "volume.cells", "clip.self_s",
        "feasibility.self_s", "feasibility.calls", "feasibility.empty_ratio",
        "union.self_s", "volume.intersections", "union.nonempty_ratio",
        "slicing.self_s", "vertices.self_s", "volume.slices", "volume.polytopes",
        "cache.hit_ratio", "store.compiles", "store.publishes", "store.adopt_wait_s",
        "executor.busy_ratio", "trace_overhead_ratio",
    ),
    "serve_open": (
        "clip.self_s", "union.self_s", "mc.self_s", "mc.samples",
        "cache.hit_ratio", "cache.evictions", "store.fetch_ms_p50",
        "store.compiles", "store.publishes", "store.adopt_wait_s",
        "executor.busy_ratio",
        "serve.worker_ms_p50", "serve.worker_ms_p99",
        "serve.overhead_ms_p50", "serve.overhead_ms_p99",
        "serve.client_wait_ms_p99", "gen_late_ms_p99", "slo_ratio",
        "trace_overhead_ratio",
    ),
}

#: Metrics a workload must leave at zero: it bypasses that layer.
BYPASSED = {
    "batch": ("mc.samples", "serve.worker_ms_p50"),
    "serve_open": ("qe.self_s", "volume.cells", "fm.disjuncts"),
}

#: Counters that are a function of the seed alone.
DETERMINISTIC = (
    "fm.eliminations", "fm.disjuncts", "fm.disjuncts_pruned",
    "fm.constraints_pruned", "volume.intersections", "volume.slices",
    "volume.polytopes", "mc.samples", "store.compiles",
)

SECONDS = {"batch": 5, "serve_open": 3}


def _bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS[workload]),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_wrappers_patch_every_import_binding():
    import repro.engine.prepared as prepared
    import repro.geometry.polyhedron as polyhedron
    import repro.qe.fourier_motzkin as fm
    from layers import LayerTracer

    originals = (fm.is_feasible, polyhedron.is_feasible,
                 prepared.union_volume, prepared.clip_cells, prepared.parse)
    with LayerTracer() as tracer:
        wrapped = (fm.is_feasible, polyhedron.is_feasible,
                   prepared.union_volume, prepared.clip_cells, prepared.parse)
        assert all(getattr(w, "__wrapped__", None) is o
                   for w, o in zip(wrapped, originals))
        assert "repro.geometry.polyhedron.is_feasible" in tracer.bindings()
    assert (fm.is_feasible, polyhedron.is_feasible, prepared.union_volume,
            prepared.clip_cells, prepared.parse) == originals


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_fires_every_layer_and_repeats(workload, tmp_path):
    first = _result(_bench(workload, 7, 1))
    second = _result(_bench(workload, 7, 1))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(run.PER_LAYER)
    metrics = {k: v["value"] for k, v in first["metrics"].items()}
    silent = [name for name in EXERCISED[workload] if not metrics[name] > 0]
    assert not silent, f"layers that never fired on {workload}: {silent}"
    busy = [name for name in BYPASSED[workload] if metrics[name] != 0]
    assert not busy, f"layers {workload} should bypass: {busy}"
    again = {k: v["value"] for k, v in second["metrics"].items()}
    assert {k: metrics[k] for k in DETERMINISTIC} == {k: again[k] for k in DETERMINISTIC}

    record = run.OUT / f"trace-{workload}-seed7.jsonl"
    perfetto = tmp_path / "trace.json"
    convert = subprocess.run(
        [sys.executable, "-m", "repro", "trace", "--perfetto", str(perfetto), str(record)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert convert.returncode == 0, convert.stderr
    events = json.loads(perfetto.read_text())["traceEvents"]
    assert any(e["name"] == "perfbench.task" for e in events)
    assert any(e["name"].startswith("layer.") for e in events)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("batch", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
