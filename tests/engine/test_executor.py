"""Batch executor: validation, isolation, determinism, parallel fan-out."""

from fractions import Fraction

import pytest

from repro import obs
from repro._errors import ReproError
from repro.engine import (
    execute_task,
    normalize_task,
    run_batch,
    task_key,
    task_seed,
)

TRIANGLE = "0 <= y AND y <= x AND x <= 1"


def strip_timing(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "elapsed_s"}


def _walk(spans):
    """Every span of a serialized span forest, depth first."""
    for span in spans:
        yield span
        yield from _walk(span.get("children", ()))


class TestTaskSeed:
    def test_deterministic(self):
        assert task_seed(42, 3) == task_seed(42, 3)

    def test_distinct_per_task_and_batch(self):
        seeds = {task_seed(42, i) for i in range(100)}
        assert len(seeds) == 100
        assert task_seed(42, 0) != task_seed(43, 0)


class TestNormalize:
    def test_defaults(self):
        task = normalize_task({"formula": TRIANGLE}, 5)
        assert task == {
            "id": 5, "index": 5, "op": "volume", "formula": TRIANGLE,
        }

    def test_box_becomes_exact_rationals(self):
        task = normalize_task(
            {"formula": "x < 1", "box": [["0", "1/2"]]}, 0
        )
        assert task["box"] == [(Fraction(0), Fraction(1, 2))]

    def test_float_epsilon_kept(self):
        task = normalize_task({"formula": "x < 1", "epsilon": 0.1}, 0)
        assert task["epsilon"] == 0.1

    @pytest.mark.parametrize(
        "raw, message",
        [
            (["not", "an", "object"], "JSON object"),
            ({}, "missing 'formula'"),
            ({"formula": "   "}, "missing 'formula'"),
            ({"formula": "x < 1", "op": "integrate"}, "unknown op"),
            ({"formula": "x < 1", "box": [["0"]]}, "bad box"),
            ({"formula": "x < 1", "variables": 5}, "'variables' must be"),
            ({"formula": "x < 1", "variables": "xy"}, "'variables' must be"),
            ({"formula": "x < 1", "variables": ["x", 1]}, "'variables' must be"),
            ({"formula": "x < 1", "epsilon": "abc"}, "'epsilon' must be a number"),
            ({"formula": "x < 1", "delta": "0.1"}, "'delta' must be a number"),
            ({"formula": "x < 1", "delta": True}, "'delta' must be a number"),
        ],
    )
    def test_rejects_bad_entries(self, raw, message):
        with pytest.raises(ReproError, match=message):
            normalize_task(raw, 0)


class TestExecuteTask:
    def test_volume(self):
        task = normalize_task({"id": "t", "formula": TRIANGLE}, 0)
        result = execute_task(task, seed=task_seed(0, 0))
        assert result["status"] == "ok"
        assert result["exact"] == "1/2"
        assert result["value"] == 0.5
        assert result["mode"] == "exact"
        assert result["cells"] >= 1

    def test_decide(self):
        task = normalize_task(
            {"op": "decide", "formula": "EXISTS x . x*x = 2"}, 0
        )
        result = execute_task(task, seed=0)
        assert result["status"] == "ok"
        assert result["value"] is True

    def test_approx_is_seed_deterministic(self):
        task = normalize_task(
            {"op": "approx", "formula": TRIANGLE, "epsilon": 0.2, "delta": 0.2},
            0,
        )
        first = execute_task(task, seed=123)
        second = execute_task(task, seed=123)
        assert strip_timing(first) == strip_timing(second)
        assert first["mode"] == "approximate"
        assert abs(first["value"] - 0.5) <= 2 * first["confidence_radius"]

    def test_parse_error_becomes_result(self):
        task = normalize_task({"formula": "x <"}, 0)
        result = execute_task(task, seed=0)
        assert result["status"] == "error"
        assert "error" in result

    def test_unexpected_exception_keeps_type_and_traceback(self, monkeypatch):
        def boom(*args, **kwargs):
            raise KeyError("x")

        # The volume row compiles inside the guard ladder, which looks
        # prepare up in its home module.
        monkeypatch.setattr("repro.engine.prepared.prepare", boom)
        task = normalize_task({"formula": TRIANGLE}, 0)
        result = execute_task(task, seed=0)
        assert result["status"] == "error"
        assert result["error"] == "KeyError: 'x'"
        assert result["error_type"] == "KeyError"
        assert "boom" in result["traceback"]
        assert result["traceback"].splitlines()[-1] == "KeyError: 'x'"

    def test_expected_errors_stay_lean(self):
        # Parse/budget errors are deterministic and self-describing; only
        # unexpected exception classes carry the debugging payload.
        task = normalize_task({"formula": "x <"}, 0)
        result = execute_task(task, seed=0)
        assert result["status"] == "error"
        assert "error_type" not in result
        assert "traceback" not in result

    def test_traceback_is_truncated_keeping_the_tail(self):
        from repro.engine.executor import (
            _TRACEBACK_CHARS,
            _truncated_traceback,
        )

        try:
            raise ValueError("x" * (5 * _TRACEBACK_CHARS))
        except ValueError as error:
            text = _truncated_traceback(error)
        assert text.startswith("...")
        assert len(text) == _TRACEBACK_CHARS + 3
        assert text.endswith("x" * 100)

    def test_budget_exceeded_becomes_result(self):
        task = normalize_task({"formula": TRIANGLE}, 0)
        result = execute_task(task, seed=0, timeout=0.0)
        assert result["status"] == "budget-exceeded"
        assert result["resource"]

    def test_budget_exceeded_falls_back_when_allowed(self):
        task = normalize_task(
            {"formula": TRIANGLE, "epsilon": 0.2, "delta": 0.2}, 0
        )
        result = execute_task(task, seed=0, timeout=0.0, fallback="auto")
        assert result["status"] == "ok"
        assert result["mode"] == "approximate"
        assert result["attempts"]

    def test_compile_trip_degrades_to_the_coarse_exact_rung(self):
        # One injected trip kills the exact rung's compile; the row must
        # walk the same ladder as `repro volume` and stay exact.
        from repro.guard import testing

        task = normalize_task({"formula": TRIANGLE}, 0)
        with testing.trip_after(1, resource="cells", times=1):
            result = execute_task(task, seed=0, fallback="auto")
        assert result["status"] == "ok"
        assert result["mode"] == "exact-coarse"
        assert result["exact"] == "1/2"
        assert result["attempts"] == [["exact", "cells"]]

    def test_approx_only_row_skips_compilation(self):
        # approx-only skips the exact rungs, so nothing is compiled (no
        # plan fields) and a nonlinear set is sampled like the CLI does.
        task = normalize_task({"formula": "x*x + y*y < 1", "epsilon": 0.2}, 0)
        result = execute_task(task, seed=0, fallback="approx-only")
        assert result["status"] == "ok"
        assert result["mode"] == "approximate"
        assert "cached_key" not in result and "attempts" not in result
        assert abs(result["value"] - 0.785) <= result["confidence_radius"]


class TestApproxRows:
    """``op: approx`` rows run the ladder's Monte Carlo rung, nothing else."""

    def test_nonlinear_formula_is_sampled(self):
        task = normalize_task(
            {"op": "approx", "formula": "x*x + y*y < 1", "epsilon": 0.2}, 0
        )
        result = execute_task(task, seed=0)
        assert result["status"] == "ok"
        assert result["mode"] == "approximate"
        assert abs(result["value"] - 0.785) <= result["confidence_radius"]

    def test_compiles_nothing(self):
        task = normalize_task({"op": "approx", "formula": TRIANGLE}, 0)
        obs.enable_counting()
        result = execute_task(task, seed=0)
        assert result["status"] == "ok"
        assert "cached_key" not in result and "cells" not in result
        assert obs.REGISTRY.value("engine.compile") == 0
        assert task_key(task) is None

    def test_compile_only_reports_no_plan_fields(self):
        task = normalize_task({"op": "approx", "formula": TRIANGLE}, 0)
        result = execute_task(task, seed=0, compile_only=True)
        assert strip_timing(result) == {
            "id": 0, "op": "approx", "seed": 0, "mode": "compile-only",
            "status": "ok",
        }

    def test_sampling_stops_at_the_deadline(self):
        # epsilon 0.0005 asks for ~7.4 million samples.
        task = normalize_task(
            {"op": "approx", "formula": TRIANGLE, "epsilon": 0.0005}, 0
        )
        result = execute_task(task, seed=0, timeout=0.05)
        assert result["status"] == "budget-exceeded"
        assert result["resource"] == "deadline"
        assert result["elapsed_s"] < 1.0

    def test_trace_is_rooted_at_the_ladder(self):
        task = normalize_task({"op": "approx", "formula": TRIANGLE}, 0)
        result = execute_task(task, seed=0, collect_obs=True)
        (root,) = result["obs"]["spans"]
        assert root["name"] == "guard.robust_volume"
        assert root["attrs"]["policy"] == "approx-only"

    @pytest.mark.parametrize("op", ["approx", "volume"])
    def test_box_of_the_wrong_length_is_an_error(self, op):
        task = normalize_task(
            {"op": op, "formula": TRIANGLE, "box": [["0", "1"]]}, 0
        )
        result = execute_task(task, seed=0, fallback="approx-only")
        assert result["status"] == "error"
        assert "box must give bounds" in result["error"]


class TestRunBatch:
    TASKS = [
        {"id": "tri", "formula": TRIANGLE},
        {"id": "union", "formula": "x < 1/4 OR x > 3/4"},
        {"id": "band", "formula": "EXISTS z . (y <= z AND z <= x AND 0 <= z AND z <= 1)"},
        {"id": "mc", "op": "approx", "formula": TRIANGLE, "epsilon": 0.2, "delta": 0.2},
        {"id": "broken", "formula": "x <"},
    ]

    def test_results_in_manifest_order(self):
        results = run_batch(self.TASKS, seed=1)
        assert [r["id"] for r in results] == ["tri", "union", "band", "mc", "broken"]

    def test_one_bad_task_does_not_poison_the_batch(self):
        results = run_batch(self.TASKS, seed=1)
        statuses = {r["id"]: r["status"] for r in results}
        assert statuses["broken"] == "error"
        assert all(
            status == "ok" for key, status in statuses.items() if key != "broken"
        )

    def test_worker_count_does_not_change_results(self):
        serial = run_batch(self.TASKS, seed=7, workers=1)
        parallel = run_batch(self.TASKS, seed=7, workers=2)
        assert [strip_timing(r) for r in serial] == [
            strip_timing(r) for r in parallel
        ]

    def test_counters(self):
        obs.enable_counting()
        run_batch(self.TASKS, seed=1, timeout=60.0)
        counts = obs.REGISTRY.as_dict()
        assert counts["engine.batch.runs"] == 1
        assert counts["engine.batch.tasks"] == 5
        assert counts["engine.batch.ok"] == 4
        assert counts["engine.batch.errors"] == 1
        assert counts["engine.batch.wall_s"] > 0


class TestCollectObs:
    TASKS = TestRunBatch.TASKS

    @staticmethod
    def _snapshots(results):
        return [r.get("obs") for r in results]

    def test_every_task_carries_a_snapshot(self):
        results = run_batch(self.TASKS, seed=3, collect_obs=True)
        for result in results:
            assert isinstance(result["obs"], dict)
            assert result["obs"]["worker_pid"] > 0
        # The healthy volume tasks compiled a plan and traced it.
        tri = results[0]["obs"]
        assert tri["counters"]["engine.compile"] == 1
        assert tri["histograms"]["engine.plan.compile_s"]["count"] == 1
        # engine.compile nests under the ladder's guard.robust_volume root.
        assert any(
            span["name"] == "engine.compile" for span in _walk(tri["spans"])
        )

    def test_per_task_telemetry_identical_serial_vs_parallel(self):
        serial = run_batch(self.TASKS, seed=3, workers=1, collect_obs=True)
        parallel = run_batch(self.TASKS, seed=3, workers=4, collect_obs=True)

        def stable(snapshot):
            from repro.obs.aggregate import stable_span

            out = {
                k: v for k, v in snapshot.items()
                if k not in ("worker_pid", "spans", "histograms")
            }
            out["spans"] = [stable_span(s) for s in snapshot.get("spans", [])]
            # Histogram buckets hold wall-clock; only counts are stable.
            out["histograms"] = {
                name: data["count"]
                for name, data in snapshot.get("histograms", {}).items()
            }
            return out

        for left, right in zip(self._snapshots(serial), self._snapshots(parallel)):
            assert stable(left) == stable(right)

    def test_merged_totals_equal_sum_of_snapshots(self):
        from repro.obs.aggregate import merged_registry

        obs.enable_counting()
        results = run_batch(self.TASKS, seed=3, collect_obs=True)
        merged = merged_registry(results)
        expected = sum(
            snap.get("counters", {}).get("mc.samples", 0)
            for snap in self._snapshots(results)
        )
        assert expected > 0
        assert merged.value("mc.samples") == expected
        # The ambient registry got the same merge (parent-side fold).
        assert obs.REGISTRY.value("mc.samples") == expected
        assert (
            obs.REGISTRY.histogram("engine.plan.compile_s").count
            == merged.histogram("engine.plan.compile_s").count
            == 3  # mc samples without a plan; broken never reaches compile
        )
        assert merged.histogram("engine.query.mc_s").count == 1

    def test_ambient_merge_independent_of_worker_count(self):
        obs.enable_counting()
        run_batch(self.TASKS, seed=3, workers=1, collect_obs=True)
        serial = obs.REGISTRY.as_dict()
        serial_hist = obs.REGISTRY.histogram("engine.plan.compile_s").count
        obs.reset()
        run_batch(self.TASKS, seed=3, workers=4, collect_obs=True)
        parallel = obs.REGISTRY.as_dict()
        parallel_hist = obs.REGISTRY.histogram("engine.plan.compile_s").count

        def scheduling_free(counts):
            # Batch wall-clock is the one legitimately timing-dependent key.
            return {k: v for k, v in counts.items() if k != "engine.batch.wall_s"}

        assert scheduling_free(serial) == scheduling_free(parallel)
        assert serial_hist == parallel_hist

    def test_task_spans_graft_into_parent_trace(self):
        with obs.observe("batch-run") as trace:
            run_batch(self.TASKS[:2], seed=3, collect_obs=True)
        tagged = [r for r in trace.roots if "task" in r.attrs]
        assert {r.attrs["task"] for r in tagged} == {0, 1}

    def test_results_unchanged_by_collection(self):
        plain = run_batch(self.TASKS, seed=3)
        observed = run_batch(self.TASKS, seed=3, collect_obs=True)
        for left, right in zip(plain, observed):
            right = {k: v for k, v in right.items() if k != "obs"}
            assert strip_timing(left) == strip_timing(right)
