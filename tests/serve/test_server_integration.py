"""End-to-end serve behavior: a real subprocess, real sockets, real signals.

Covers the serving contract spelled out in docs/SERVING.md:

* results are byte-identical to ``repro batch`` (modulo the volatile
  ``elapsed_s``), cache provenance included, even under concurrency;
* overload is shed with 429 + ``Retry-After`` while admitted work
  finishes unharmed;
* N concurrent requests for one cold plan cost one compile;
* deadlines (request field and queue expiry alike) answer 504 with a
  structured ``budget-exceeded`` record;
* SIGTERM drains gracefully: readiness fails, in-flight work finishes,
  the process exits 0 with a final summary record.
"""

import concurrent.futures
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from .conftest import MEDIUM_FORMULA, SLOW_FORMULA, SRC_DIR, wait_until

#: 16 tasks whose plans all have *distinct* content hashes, so cache
#: provenance is completion-order-independent: safe to fire concurrently
#: and still expect batch-identical records.
DISTINCT_TASKS = (
    [
        {"id": f"v{i}", "op": "volume",
         "formula": f"0 <= x AND {i}*x <= {i + 4} AND x <= 1"}
        for i in range(10)
    ]
    + [
        {"id": f"w{j}", "op": "volume",
         "formula": f"0 <= y AND {j}*y <= x AND x <= 1"}
        for j in (2, 3, 4)
    ]
    + [
        {"id": "root2", "op": "decide",
         "formula": "EXISTS x . (x*x = 2 AND 0 < x AND x < 2)"},
        {"id": "band", "op": "volume", "formula": MEDIUM_FORMULA},
        {"id": "empty", "op": "volume", "formula": "x <= 0 AND 1 <= x"},
    ]
)

#: The mixed manifest: adds same-plan tasks (tri/clip/mc share one
#: content hash) whose hit/store-hit split depends on occurrence order —
#: exercised sequentially and through /v1/batch, where order is fixed.
MANIFEST_TASKS = (
    DISTINCT_TASKS[:10]
    + [
        {"id": "tri", "op": "volume",
         "formula": "0 <= y AND y <= x AND x <= 1"},
        {"id": "clip", "op": "volume",
         "formula": "0 <= y AND y <= x AND x <= 1",
         "box": [["0", "1/2"], ["0", "1/2"]]},
        {"id": "mc", "op": "approx",
         "formula": "0 <= y AND y <= x AND x <= 1",
         "epsilon": 0.2, "delta": 0.2},
        {"id": "root2", "op": "decide",
         "formula": "EXISTS x . (x*x = 2 AND 0 < x AND x < 2)"},
        {"id": "band", "op": "volume", "formula": MEDIUM_FORMULA},
        {"id": "empty", "op": "volume", "formula": "x <= 0 AND 1 <= x"},
    ]
)


def run_batch_cli(*args: str) -> list[dict]:
    """``repro batch`` in a subprocess; returns the result records."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    out = subprocess.run(
        [sys.executable, "-m", "repro", "batch", *args],
        env=env, check=True, capture_output=True, text=True,
    )
    return [json.loads(line) for line in out.stdout.splitlines()]


def write_manifest(tmp_path, tasks) -> str:
    path = tmp_path / "manifest.jsonl"
    path.write_text("".join(json.dumps(t) + "\n" for t in tasks))
    return str(path)


def stable(record: dict) -> dict:
    """A result record minus its volatile wall-clock field."""
    record = dict(record)
    record.pop("elapsed_s", None)
    return record


def scrape(server) -> str:
    status, _, body = server.request("GET", "/metrics")
    assert status == 200
    return body.decode()


def metric_value(text: str, name: str) -> float:
    match = re.search(rf"^{re.escape(name)} (\S+)$", text, re.MULTILINE)
    return float(match.group(1)) if match else 0.0


class TestByteIdentity:
    def test_sixteen_concurrent_clients_match_batch(
        self, tmp_path, server_factory
    ):
        """4 workers, 16 concurrent clients, provenance included."""
        manifest = write_manifest(tmp_path, DISTINCT_TASKS)
        store = str(tmp_path / "plans.sqlite")
        run_batch_cli(manifest, "--plan-store", store, "--compile-only",
                      "--workers", "4")
        expected = run_batch_cli(manifest, "--plan-store", store,
                                 "--workers", "4", "--seed", "11")
        server = server_factory(
            "--workers", "4", "--seed", "11", "--plan-store", store,
            "--max-inflight", "8", "--queue-depth", "32", "--no-access-log",
        )

        def one(index: int) -> dict:
            status, envelope = server.json(
                "POST", "/v1/query", dict(DISTINCT_TASKS[index], index=index)
            )
            assert status in (200, 422), envelope
            assert envelope["schema"] == "repro.serve/v1"
            return envelope["result"]

        with concurrent.futures.ThreadPoolExecutor(16) as pool:
            got = list(pool.map(one, range(len(DISTINCT_TASKS))))

        assert [stable(g) for g in got] == [stable(e) for e in expected]
        # Every formula is distinct and prewarmed: provenance must say so.
        for record in got:
            if record.get("cached_key"):
                assert record["cache"] == {
                    "hits": 0, "misses": 0, "store_hits": 1,
                }

    def test_duplicate_rows_sequentially_match_batch_provenance(
        self, tmp_path, server_factory
    ):
        """First occurrence / repeat split exactly as in a batch run."""
        tasks = [
            {"id": "a", "op": "volume", "formula": "0 <= x AND x <= 1/2"},
            {"id": "b", "op": "volume", "formula": "0 <= x AND x <= 1/4"},
            {"id": "a2", "op": "volume", "formula": "0 <= x AND x <= 1/2"},
        ]
        manifest = write_manifest(tmp_path, tasks)
        expected = run_batch_cli(manifest, "--seed", "3")
        server = server_factory("--workers", "2", "--seed", "3",
                                "--no-access-log")
        got = []
        for index, task in enumerate(tasks):
            status, envelope = server.json(
                "POST", "/v1/query", dict(task, index=index)
            )
            assert status == 200
            got.append(envelope["result"])
        assert [stable(g) for g in got] == [stable(e) for e in expected]
        assert got[0]["cache"] == {"hits": 0, "misses": 1, "store_hits": 0}
        assert got[2]["cache"] == {"hits": 1, "misses": 0, "store_hits": 0}

    def test_batch_endpoint_matches_cli_batch(self, tmp_path, server_factory):
        manifest = write_manifest(tmp_path, MANIFEST_TASKS)
        store = str(tmp_path / "plans.sqlite")
        run_batch_cli(manifest, "--plan-store", store, "--compile-only",
                      "--workers", "4")
        expected = run_batch_cli(manifest, "--plan-store", store,
                                 "--workers", "4", "--seed", "5")
        server = server_factory(
            "--workers", "4", "--seed", "5", "--plan-store", store,
            "--max-inflight", "16", "--queue-depth", "32", "--no-access-log",
        )
        status, envelope = server.json(
            "POST", "/v1/batch", {"tasks": MANIFEST_TASKS}
        )
        assert status == 200
        got = envelope["results"]
        assert [stable(g) for g in got] == [stable(e) for e in expected]
        assert envelope["summary"]["ok"] == sum(
            1 for e in expected if e["status"] == "ok"
        )


class TestBackpressure:
    def test_sheds_429_without_killing_inflight_work(self, server_factory):
        server = server_factory(
            "--workers", "1", "--max-inflight", "1", "--queue-depth", "0",
            "--request-timeout", "0", "--no-access-log",
        )
        slow_result: dict = {}

        def slow():
            status, envelope = server.json(
                "POST", "/v1/query",
                {"id": "slow", "op": "volume", "formula": SLOW_FORMULA},
                timeout=120,
            )
            slow_result["status"] = status
            slow_result["record"] = envelope["result"]

        thread = threading.Thread(target=slow)
        thread.start()
        try:
            assert wait_until(
                lambda: metric_value(scrape(server), "repro_serve_inflight") >= 1,
                timeout=20,
            ), "slow request never became inflight"
            status, headers, body = server.request(
                "POST", "/v1/query",
                {"id": "shed-me", "op": "volume", "formula": "0 <= x"},
            )
            assert status == 429
            assert "retry-after" in headers
            assert "retry_after_s" in json.loads(body)
        finally:
            thread.join(timeout=120)
        assert slow_result["status"] == 200
        assert slow_result["record"]["status"] == "ok"
        text = scrape(server)
        assert metric_value(text, "repro_serve_shed_total") >= 1
        assert metric_value(text, "repro_serve_ok_total") >= 1


class TestCoalescing:
    def test_concurrent_identical_queries_compile_once(
        self, tmp_path, server_factory
    ):
        store = str(tmp_path / "plans.sqlite")
        server = server_factory(
            "--workers", "4", "--plan-store", store,
            "--max-inflight", "8", "--queue-depth", "32", "--no-access-log",
        )
        task = {"op": "volume", "formula": MEDIUM_FORMULA}
        n = 6

        def one(index: int):
            return server.json("POST", "/v1/query", dict(task, index=0),
                               timeout=120)

        with concurrent.futures.ThreadPoolExecutor(n) as pool:
            responses = list(pool.map(one, range(n)))

        values = set()
        outcomes = []
        for status, envelope in responses:
            assert status == 200
            record = envelope["result"]
            assert record["status"] == "ok"
            values.add(record["value"])
            outcomes.append(record["cache"])
        assert len(values) == 1
        # Exactly one first occurrence; every other response reused it.
        assert sum(o["misses"] for o in outcomes) == 1
        assert sum(o["hits"] for o in outcomes) == n - 1
        text = scrape(server)
        assert metric_value(text, "repro_engine_store_compile_total") == 1
        assert metric_value(text, "repro_serve_coalesce_leads_total") == 1
        waits = metric_value(text, "repro_serve_coalesce_waits_total")
        assert 0 <= waits <= n - 1


class TestDeadlines:
    def test_request_timeout_maps_to_504(self, server_factory):
        server = server_factory("--workers", "1", "--no-access-log")
        status, envelope = server.json(
            "POST", "/v1/query",
            {"id": "doomed", "op": "volume", "formula": SLOW_FORMULA,
             "timeout": 0.05},
            timeout=120,
        )
        assert status == 504
        record = envelope["result"]
        assert record["status"] == "budget-exceeded"
        assert record["resource"] == "deadline"

    def test_queue_expiry_answers_504_without_a_pool_slot(
        self, server_factory
    ):
        server = server_factory(
            "--workers", "1", "--max-inflight", "1", "--queue-depth", "4",
            "--request-timeout", "0", "--no-access-log",
        )
        slow_status: list[int] = []

        def slow():
            status, _ = server.json(
                "POST", "/v1/query",
                {"id": "slow", "op": "volume", "formula": SLOW_FORMULA},
                timeout=120,
            )
            slow_status.append(status)

        thread = threading.Thread(target=slow)
        thread.start()
        try:
            assert wait_until(
                lambda: metric_value(scrape(server), "repro_serve_inflight") >= 1,
                timeout=20,
            )
            status, envelope = server.json(
                "POST", "/v1/query",
                {"id": "queued", "op": "volume", "formula": "0 <= x",
                 "timeout": 0.2},
                timeout=120,
            )
        finally:
            thread.join(timeout=120)
        assert status == 504
        record = envelope["result"]
        assert record["status"] == "budget-exceeded"
        assert "admission queue" in record["error"]
        assert slow_status == [200]
        assert metric_value(scrape(server), "repro_serve_timeouts_total") >= 1


class TestGracefulDrain:
    def test_sigterm_drains_inflight_work_and_exits_clean(
        self, server_factory
    ):
        server = server_factory(
            "--workers", "1", "--request-timeout", "0",
            "--drain-timeout", "60", "--no-access-log",
        )
        # A pinned keep-alive connection outlives the listener, so
        # readiness stays observable after SIGTERM closes the socket.
        pinned = server.connect(timeout=60)
        pinned.request("GET", "/readyz")
        ready = pinned.getresponse()
        assert ready.status == 200
        ready.read()  # drain the body so the connection can be reused

        slow_result: dict = {}

        def slow():
            status, envelope = server.json(
                "POST", "/v1/query",
                {"id": "finishing", "op": "volume", "formula": SLOW_FORMULA},
                timeout=120,
            )
            slow_result["status"] = status
            slow_result["record"] = envelope["result"]

        thread = threading.Thread(target=slow)
        thread.start()
        assert wait_until(
            lambda: metric_value(scrape(server), "repro_serve_inflight") >= 1,
            timeout=20,
        )
        server.proc.send_signal(signal.SIGTERM)
        time.sleep(0.2)
        pinned.request("GET", "/readyz")
        response = pinned.getresponse()
        assert response.status == 503
        assert json.loads(response.read()) == {"status": "draining"}

        thread.join(timeout=120)
        assert slow_result["status"] == 200
        assert slow_result["record"]["status"] == "ok"

        # The pinned connection is deliberately left open: an idle
        # keep-alive client must not hold the drain hostage (on
        # Python >= 3.12, Server.wait_closed() blocks until every
        # handler returns — the server has to force-close idlers).
        code = server.stop()
        assert code == 0
        pinned.close()
        stderr = server.stderr_text()
        summary_lines = [
            json.loads(line) for line in stderr.splitlines()
            if line.startswith("{") and '"serve.drain"' in line
        ]
        assert len(summary_lines) == 1
        summary = summary_lines[0]
        assert summary["aborted_inflight"] == 0
        assert summary["served"] >= 1

    def test_idle_keep_alive_connections_do_not_block_drain(
        self, server_factory
    ):
        """SIGTERM with only parked keep-alive clients exits promptly."""
        server = server_factory(
            "--workers", "1", "--drain-timeout", "60", "--no-access-log",
        )
        idlers = [server.connect(timeout=60) for _ in range(3)]
        for connection in idlers:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            response.read()
        # All three connections now sit idle in the server's
        # read_request(); none is ever closed by the client.
        started = time.monotonic()
        server.proc.send_signal(signal.SIGTERM)
        code = server.stop()
        assert code == 0
        # Well under the 60 s drain timeout: the idlers were
        # force-closed, not waited out.
        assert time.monotonic() - started < 30
        for connection in idlers:
            connection.close()
        stderr = server.stderr_text()
        summary = [
            json.loads(line) for line in stderr.splitlines()
            if line.startswith("{") and '"serve.drain"' in line
        ]
        assert len(summary) == 1
        assert summary[0]["aborted_inflight"] == 0

    def test_new_connections_refused_after_drain_starts(self, server_factory):
        server = server_factory("--workers", "1", "--no-access-log")
        server.proc.send_signal(signal.SIGTERM)
        assert server.stop() == 0
        with pytest.raises(OSError):
            server.request("GET", "/healthz", timeout=5)


class TestMetricsEndpoint:
    def test_scrape_is_valid_exposition_with_store_gauges(
        self, tmp_path, server_factory
    ):
        store = str(tmp_path / "plans.sqlite")
        server = server_factory("--workers", "1", "--plan-store", store,
                                "--no-access-log")
        status, envelope = server.json(
            "POST", "/v1/query",
            {"op": "volume", "formula": "0 <= x AND x <= 1/2"},
        )
        assert status == 200
        text = scrape(server)
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, _, value = line.rpartition(" ")
            assert name_part, line
            float(value)
        assert metric_value(text, "repro_serve_queries_total") >= 1
        assert metric_value(text, "repro_serve_ok_total") >= 1
        assert metric_value(text, "repro_engine_store_plans") == 1
        # A second scrape must not double-fold the store traffic.
        assert metric_value(
            scrape(server), "repro_engine_store_compile_total"
        ) == metric_value(text, "repro_engine_store_compile_total")


def live_children(pid: int) -> list[int]:
    """The live (non-zombie) child processes of *pid*, read from /proc."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        # After the parenthesised command name: state, ppid, ...
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == pid and state != "Z":
            children.append(int(entry))
    return children


class TestWorkerDeath:
    def test_sigkilled_worker_does_not_end_the_server(self, server_factory):
        """A worker SIGKILLed while idle costs one rebuild, nothing more.

        The executor SIGTERMs the surviving worker of a broken pool; that
        signal must neither reach the server's own event loop (which
        would read it as a drain request) nor be ignored by the worker.
        """
        server = server_factory("--workers", "2", "--no-access-log")
        pid = server.proc.pid

        def query(i: int) -> tuple[int, dict]:
            return server.json("POST", "/v1/query", {
                "op": "volume",
                "formula": f"0 <= y AND {i}*y <= x AND x <= 1",
            })

        # Concurrent requests make the pool fork both of its workers.
        with concurrent.futures.ThreadPoolExecutor(4) as clients:
            for _ in range(10):
                answers = list(clients.map(query, range(1, 5)))
                assert all(status == 200 for status, _ in answers)
                if len(live_children(pid)) == 2:
                    break
        victim, _ = live_children(pid)
        os.kill(victim, signal.SIGKILL)
        # The executor notices, flags itself broken, and reaps both workers.
        assert wait_until(lambda: not live_children(pid), timeout=20)

        assert server.proc.poll() is None
        status, envelope = server.json("POST", "/v1/query", {
            "op": "volume", "formula": "0 <= y AND y <= x AND x <= 1",
        })
        assert status == 200
        assert envelope["result"]["status"] == "ok"
        assert envelope["result"]["exact"] == "1/2"
        assert metric_value(
            scrape(server), "repro_engine_pool_rebuilds_total"
        ) == 1
        assert "received SIGTERM" not in server.stderr_text()
        assert server.stop() == 0
