"""The ``python -m repro batch`` subcommand."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.__main__ import main
from repro.engine import DEFAULT_CACHE

MANIFEST = """\
# comment lines and blanks are skipped

{"id": "tri", "op": "volume", "formula": "0 <= y AND y <= x AND x <= 1"}
{"id": "clip", "op": "volume", "formula": "0 <= y AND y <= x AND x <= 1", "box": [["0", "1/2"], ["0", "1/2"]]}
{"id": "mc", "op": "approx", "formula": "0 <= y AND y <= x AND x <= 1", "epsilon": 0.2, "delta": 0.2}
{"id": "root2", "op": "decide", "formula": "EXISTS x . (x*x = 2 AND 0 < x AND x < 2)"}
"""


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def manifest(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_text(MANIFEST)
    return str(path)


@pytest.fixture(autouse=True)
def _fresh_shared_cache():
    """CLI batch runs go through the process-wide cache; isolate them."""
    DEFAULT_CACHE.clear()
    yield
    DEFAULT_CACHE.clear()


class TestBatch:
    def test_results_per_task_on_stdout(self, manifest):
        code, out, err = run_cli("batch", manifest)
        assert code == 0
        records = [json.loads(line) for line in out.splitlines() if line]
        assert [r["id"] for r in records] == ["tri", "clip", "mc", "root2"]
        by_id = {r["id"]: r for r in records}
        assert by_id["tri"]["exact"] == "1/2"
        assert by_id["clip"]["exact"] == "1/8"
        assert by_id["mc"]["mode"] == "approximate"
        assert by_id["root2"]["value"] is True
        assert "batch: 4 tasks" in err
        assert "ok=4" in err

    def test_out_file(self, manifest, tmp_path):
        out_path = tmp_path / "results.jsonl"
        code, out, _ = run_cli("batch", manifest, "--out", str(out_path))
        assert code == 0
        assert out == ""
        records = [
            json.loads(line)
            for line in out_path.read_text().splitlines()
            if line
        ]
        assert len(records) == 4

    def test_workers_flag(self, manifest):
        code, out, _ = run_cli("batch", manifest, "--workers", "2")
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_seed_makes_output_reproducible(self, manifest):
        _, first, _ = run_cli("batch", manifest, "--seed", "9")
        DEFAULT_CACHE.clear()
        _, second, _ = run_cli("batch", manifest, "--seed", "9")

        def stable(text):
            return [
                {k: v for k, v in json.loads(line).items() if k != "elapsed_s"}
                for line in text.splitlines() if line
            ]

        assert stable(first) == stable(second)

    def test_stats_reports_engine_counters(self, manifest):
        code, out, _ = run_cli("batch", manifest, "--stats")
        assert code == 0
        assert "engine.compile" in out
        assert "engine.batch.tasks" in out
        assert "engine.cache." in out

    def test_plan_cache_option_is_gone(self, manifest, tmp_path):
        # Plans persist through --plan-store only; the old spill-file
        # option is an unknown argument now.
        with pytest.raises(SystemExit) as excinfo:
            run_cli("batch", manifest, "--plan-cache",
                    str(tmp_path / "plans.jsonl"))
        assert excinfo.value.code == 2

    def test_plan_store_prewarm_then_warm(self, manifest, tmp_path):
        store = str(tmp_path / "plans.sqlite")
        code, out, err = run_cli(
            "batch", manifest, "--plan-store", store, "--compile-only"
        )
        assert code == 0
        assert "plan store" in err
        records = [json.loads(line) for line in out.splitlines() if line]
        assert all(r["mode"] == "compile-only" for r in records)
        assert all("value" not in r for r in records)
        # The approx row samples without a plan, so it compiles nothing.
        (mc,) = [r for r in records if r["id"] == "mc"]
        assert "cached_key" not in mc and "cells" not in mc

        code, out, err = run_cli(
            "batch", manifest, "--plan-store", store, "--workers", "2"
        )
        assert code == 0
        assert "compiles=0" in err
        records = [json.loads(line) for line in out.splitlines() if line]
        assert {r["status"] for r in records} == {"ok"}
        # tri/clip share one content hash; root2 is the other: the first
        # occurrence of each is a store hit, the rest memory hits.  The
        # approx row compiles nothing and carries no provenance.
        by_id = {r["id"]: r for r in records}
        assert "cache" not in by_id.pop("mc")
        assert all(r["cache"]["misses"] == 0 for r in by_id.values())
        assert sum(r["cache"]["store_hits"] for r in by_id.values()) == 2
        assert sum(r["cache"]["hits"] for r in by_id.values()) == 1

    def test_compile_only_needs_a_destination(self, manifest):
        code, _, err = run_cli("batch", manifest, "--compile-only")
        assert code == 2
        assert "--compile-only needs" in err

    def test_trace_out_with_plan_store_warns(self, manifest, tmp_path):
        code, _, err = run_cli(
            "batch", manifest,
            "--plan-store", str(tmp_path / "s.sqlite"),
            "--trace-out", str(tmp_path / "t.jsonl"),
        )
        assert code == 0
        assert "bypassing" in err

    def test_bad_manifest_line_fails_loudly(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"formula": "x < 1"}\n{oops\n')
        code, _, err = run_cli("batch", str(path))
        assert code != 0
        assert "not valid JSON" in err

    def test_missing_manifest_file(self, tmp_path):
        code, _, err = run_cli("batch", str(tmp_path / "nope.jsonl"))
        assert code != 0
        assert "cannot read" in err
        assert "nope.jsonl" in err


class TestFaultTolerance:
    @staticmethod
    def stable(text):
        return [
            {k: v for k, v in json.loads(line).items() if k != "elapsed_s"}
            for line in text.splitlines() if line
        ]

    def test_chaos_kill_output_identical(self, manifest):
        _, clean, _ = run_cli("batch", manifest, "--seed", "5")
        DEFAULT_CACHE.clear()
        code, chaotic, _ = run_cli(
            "batch", manifest, "--seed", "5", "--chaos", "kill:1",
        )
        assert code == 0
        assert self.stable(chaotic) == self.stable(clean)

    def test_chaos_quarantine_reported_in_tally(self, manifest):
        code, out, err = run_cli(
            "batch", manifest, "--seed", "5", "--chaos", "kill:0*4",
        )
        assert code == 0
        assert "quarantined=1" in err
        records = [json.loads(line) for line in out.splitlines() if line]
        assert records[0]["status"] == "quarantined"

    def test_abort_then_resume_round_trip(self, manifest, tmp_path):
        _, clean, _ = run_cli("batch", manifest, "--seed", "5")
        DEFAULT_CACHE.clear()
        journal = str(tmp_path / "journal.jsonl")
        code, _, err = run_cli(
            "batch", manifest, "--seed", "5", "--journal", journal,
            "--chaos", "abort:2",
        )
        assert code == 2
        assert "aborted after 2" in err
        DEFAULT_CACHE.clear()
        code, resumed, err = run_cli(
            "batch", manifest, "--seed", "5", "--journal", journal,
            "--resume",
        )
        assert code == 0
        assert "resuming from journal" in err
        assert self.stable(resumed) == self.stable(clean)

    def test_resume_requires_journal(self, manifest):
        code, _, err = run_cli("batch", manifest, "--resume")
        assert code == 2
        assert "--resume needs --journal" in err

    def test_bad_chaos_spec_fails_loudly(self, manifest):
        code, _, err = run_cli("batch", manifest, "--chaos", "explode:1")
        assert code == 2
        assert "bad chaos spec" in err


class TestTraceOut:
    def _records(self, path):
        return [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line
        ]

    def test_one_record_per_task_plus_summary(self, manifest, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        code, out, err = run_cli(
            "batch", manifest, "--trace-out", str(trace_path)
        )
        assert code == 0
        assert "telemetry records" in err
        records = self._records(trace_path)
        assert len(records) == 5  # 4 tasks + 1 summary
        tasks, summary = records[:4], records[-1]
        assert [r["experiment"] for r in tasks] == ["repro.batch.task"] * 4
        assert [r["task"] for r in tasks] == [0, 1, 2, 3]
        assert [r["id"] for r in tasks] == ["tri", "clip", "mc", "root2"]
        assert all(r["schema"] == "repro.obs/v2" for r in records)
        assert summary["experiment"] == "repro.batch.summary"
        assert summary["tasks"] == 4 and summary["ok"] == 4
        assert summary["workers"] == 1
        assert summary["wall_s"] > 0
        # Timing histograms live in the summary, complete with buckets;
        # the approx row samples without compiling.
        assert summary["histograms"]["engine.plan.compile_s"]["count"] == 3
        assert summary["histograms"]["engine.query.mc_s"]["count"] == 1

    def test_results_do_not_leak_snapshots(self, manifest, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        _, out, _ = run_cli("batch", manifest, "--trace-out", str(trace_path))
        for line in out.splitlines():
            assert "obs" not in json.loads(line)

    def test_task_records_byte_identical_across_worker_counts(
        self, manifest, tmp_path
    ):
        one, four = tmp_path / "w1.jsonl", tmp_path / "w4.jsonl"
        run_cli("batch", manifest, "--seed", "5", "--trace-out", str(one))
        DEFAULT_CACHE.clear()
        run_cli(
            "batch", manifest, "--seed", "5", "--workers", "4",
            "--trace-out", str(four),
        )
        serial_tasks = one.read_text().splitlines()[:4]
        parallel_tasks = four.read_text().splitlines()[:4]
        assert serial_tasks == parallel_tasks  # bytes, not just JSON


class TestShard:
    @staticmethod
    def stable(text):
        return [
            {k: v for k, v in json.loads(line).items() if k != "elapsed_s"}
            for line in text.splitlines() if line
        ]

    def test_shards_concatenate_to_unsharded_run(self, manifest):
        """Contiguous shards keep global task indices (and thus seeds)."""
        _, whole, _ = run_cli("batch", manifest, "--seed", "7")
        parts = []
        for index in range(3):
            DEFAULT_CACHE.clear()
            code, out, err = run_cli(
                "batch", manifest, "--seed", "7", "--shard", f"{index}/3"
            )
            assert code == 0
            assert f"shard {index}/3" in err
            parts.extend(self.stable(out))
        assert parts == self.stable(whole)

    def test_shard_trace_task_records_concatenate_bytewise(
        self, manifest, tmp_path
    ):
        unsharded = tmp_path / "all.jsonl"
        run_cli("batch", manifest, "--seed", "7", "--trace-out", str(unsharded))
        shard_lines = []
        for index in range(2):
            DEFAULT_CACHE.clear()
            path = tmp_path / f"s{index}.jsonl"
            run_cli(
                "batch", manifest, "--seed", "7", "--shard", f"{index}/2",
                "--trace-out", str(path),
            )
            # Last record is the per-shard run summary (not byte-stable).
            shard_lines.extend(path.read_text().splitlines()[:-1])
        assert shard_lines == unsharded.read_text().splitlines()[:-1]

    def test_empty_shard_of_oversplit_manifest(self, manifest):
        # 4 tasks over 6 shards: shard 3 gets the empty slice [2, 2).
        code, out, _ = run_cli("batch", manifest, "--shard", "3/6")
        assert code == 0
        assert out == ""

    @pytest.mark.parametrize("spec", ["2", "a/b", "3/3", "4/3", "1/0"])
    def test_bad_shard_spec(self, manifest, spec):
        code, _, err = run_cli("batch", manifest, "--shard", spec)
        assert code == 2
        assert "--shard" in err


class TestMetricsCommand:
    def test_replay_from_trace_file(self, manifest, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        run_cli("batch", manifest, "--trace-out", str(trace_path))
        code, out, _ = run_cli("metrics", str(trace_path))
        assert code == 0
        assert "# TYPE repro_engine_compile counter" in out
        assert "repro_engine_compile_total 3" in out
        assert "# TYPE repro_engine_plan_compile_s histogram" in out
        assert 'repro_engine_plan_compile_s_bucket{le="+Inf"} 3' in out
        assert "repro_engine_plan_compile_s_count 3" in out
        assert "repro_engine_plan_compile_s_sum" in out

    def test_run_directly_from_manifest(self, manifest):
        code, out, _ = run_cli("metrics", manifest)
        assert code == 0
        assert "repro_engine_compile_total 3" in out
        assert "# TYPE repro_engine_plan_compile_s histogram" in out

    def test_out_file(self, manifest, tmp_path):
        trace_path, prom_path = tmp_path / "t.jsonl", tmp_path / "metrics.prom"
        run_cli("batch", manifest, "--trace-out", str(trace_path))
        code, out, _ = run_cli(
            "metrics", str(trace_path), "--out", str(prom_path)
        )
        assert code == 0
        assert out == ""
        assert "# TYPE repro_engine_compile counter" in prom_path.read_text()

    def test_corrupt_trace_line_reported_not_fatal(self, manifest, tmp_path):
        import warnings

        trace_path = tmp_path / "trace.jsonl"
        run_cli("batch", manifest, "--trace-out", str(trace_path))
        with open(trace_path, "a", encoding="utf-8") as handle:
            handle.write("{corrupt\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out, err = run_cli("metrics", str(trace_path))
        assert code == 0
        assert "skipped 1 unreadable record" in err
        assert "repro_engine_compile_total 3" in out

    def test_missing_input_fails_loudly(self, tmp_path):
        code, _, err = run_cli("metrics", str(tmp_path / "nope.jsonl"))
        assert code != 0
        assert "cannot read" in err
        assert "nope.jsonl" in err


class TestMetricsStdin:
    """``repro metrics -`` sniffs and reads either format from stdin."""

    def test_trace_replay_from_stdin(self, manifest, tmp_path, monkeypatch):
        import io as io_module

        trace_path = tmp_path / "trace.jsonl"
        run_cli("batch", manifest, "--trace-out", str(trace_path))
        monkeypatch.setattr(
            "sys.stdin", io_module.StringIO(trace_path.read_text())
        )
        code, out, _ = run_cli("metrics", "-")
        assert code == 0
        assert "repro_engine_compile_total 3" in out
        assert "# TYPE repro_engine_plan_compile_s histogram" in out

    def test_manifest_from_stdin(self, monkeypatch):
        import io as io_module

        monkeypatch.setattr("sys.stdin", io_module.StringIO(MANIFEST))
        code, out, _ = run_cli("metrics", "-")
        assert code == 0
        assert "repro_engine_compile_total 3" in out

    def test_corrupt_stdin_record_named_as_stdin(
        self, manifest, tmp_path, monkeypatch
    ):
        import io as io_module
        import warnings

        trace_path = tmp_path / "trace.jsonl"
        run_cli("batch", manifest, "--trace-out", str(trace_path))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            monkeypatch.setattr(
                "sys.stdin",
                io_module.StringIO(trace_path.read_text() + "{corrupt\n"),
            )
            code, out, err = run_cli("metrics", "-")
        assert code == 0
        assert "skipped 1 unreadable record" in err
        assert "<stdin>" in err
        assert "repro_engine_compile_total 3" in out


class TestBatchJsonStoreDelta:
    """``batch --json`` rows carry the plan-store traffic delta."""

    def test_json_row_includes_store_delta(self, manifest, tmp_path):
        from repro.obs import read_jsonl

        store = tmp_path / "plans.sqlite"
        json_path = tmp_path / "obs.jsonl"
        code, _, err = run_cli(
            "batch", manifest, "--plan-store", str(store),
            "--json", str(json_path),
        )
        assert code == 0
        assert "plan store" in err  # the stderr line is still there
        records = list(read_jsonl(str(json_path)))
        assert len(records) == 1
        delta = records[0]["row"]["plan_store"]
        assert delta["path"] == str(store)
        # 4 tasks, 2 distinct plans (tri/clip/mc share a content hash).
        assert delta["plans"] == 2
        assert delta["compiles"] == 2
        assert delta["misses"] >= 2
        assert set(delta) == {
            "path", "plans", "hits", "misses", "publishes", "compiles",
            "races", "stale_claims",
        }

    def test_json_row_has_no_store_key_without_plan_store(
        self, manifest, tmp_path
    ):
        from repro.obs import read_jsonl

        json_path = tmp_path / "obs.jsonl"
        code, _, _ = run_cli("batch", manifest, "--json", str(json_path))
        assert code == 0
        (record,) = list(read_jsonl(str(json_path)))
        assert "plan_store" not in record["row"]

    def test_warm_store_delta_shows_hits_not_compiles(
        self, manifest, tmp_path
    ):
        from repro.obs import read_jsonl

        store = tmp_path / "plans.sqlite"
        run_cli("batch", manifest, "--plan-store", str(store),
                "--compile-only")
        # Drop the process-local warm caches so the second run must go
        # back to the store (serial batches reuse a per-pid adapter).
        from repro.engine import executor

        executor._ADAPTERS.clear()
        DEFAULT_CACHE.clear()
        json_path = tmp_path / "obs.jsonl"
        code, _, _ = run_cli(
            "batch", manifest, "--plan-store", str(store),
            "--json", str(json_path),
        )
        assert code == 0
        (record,) = list(read_jsonl(str(json_path)))
        delta = record["row"]["plan_store"]
        assert delta["compiles"] == 0
        assert delta["hits"] >= 2
