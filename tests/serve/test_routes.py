"""Routing, status mapping, and protocol errors — in-process server.

These tests run the real :class:`repro.serve.Server` inside the test's
event loop and talk to it over real sockets, but never dispatch a query
to the worker pool — routing and rejection paths are event-loop-only, so
they stay fast.  Query execution is covered by the subprocess
integration tests.
"""

import asyncio
import json

from repro import obs
from repro.serve import ServeConfig, Server


async def _start(**overrides) -> tuple[Server, int]:
    settings = dict(port=0, workers=1, access_log=False)
    settings.update(overrides)
    server = Server(ServeConfig(**settings))
    _, port = await server.start()
    return server, port


async def _request(
    port: int,
    method: str,
    path: str,
    payload: dict | None = None,
    headers: dict[str, str] | None = None,
) -> tuple[int, dict[str, str], bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        body = json.dumps(payload).encode() if payload is not None else b""
        lines = [f"{method} {path} HTTP/1.1", "Host: test"]
        if payload is not None:
            lines.append(f"Content-Length: {len(body)}")
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write("\r\n".join(lines).encode() + b"\r\n\r\n" + body)
        await writer.drain()
        return await _read_response(reader)
    finally:
        writer.close()


async def _read_response(reader) -> tuple[int, dict[str, str], bytes]:
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    response_headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        response_headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(response_headers["content-length"]))
    return status, response_headers, body


def serve_test(coroutine_fn, **overrides):
    """Run *coroutine_fn(server, port)* against a live in-process server."""

    async def go():
        server, port = await _start(**overrides)
        try:
            return await coroutine_fn(server, port)
        finally:
            server._server.close()
            await server._server.wait_closed()
            server.service.close()

    return asyncio.run(go())


class TestHealth:
    def test_healthz_ok(self):
        async def check(server, port):
            status, _, body = await _request(port, "GET", "/healthz")
            assert status == 200
            assert json.loads(body) == {"status": "ok"}

        serve_test(check)

    def test_readyz_flips_to_503_when_draining(self):
        async def check(server, port):
            status, _, _ = await _request(port, "GET", "/readyz")
            assert status == 200
            server.draining = True
            status, _, body = await _request(port, "GET", "/readyz")
            assert status == 503
            assert json.loads(body) == {"status": "draining"}

        serve_test(check)

    def test_query_rejected_while_draining(self):
        async def check(server, port):
            server.draining = True
            status, _, _ = await _request(
                port, "POST", "/v1/query", {"formula": "0 <= x AND x <= 1"}
            )
            assert status == 503

        serve_test(check)


class TestRouting:
    def test_unknown_path_404(self):
        async def check(server, port):
            status, _, _ = await _request(port, "GET", "/nope")
            assert status == 404

        serve_test(check)

    def test_wrong_method_405(self):
        async def check(server, port):
            for method, path in (
                ("POST", "/healthz"), ("POST", "/metrics"),
                ("GET", "/v1/query"), ("GET", "/v1/batch"),
            ):
                payload = {} if method == "POST" else None
                status, _, _ = await _request(port, method, path, payload)
                assert status == 405, (method, path)

        serve_test(check)

    def test_request_id_echoed(self):
        async def check(server, port):
            _, headers, _ = await _request(
                port, "GET", "/healthz", headers={"X-Request-Id": "trace-42"}
            )
            assert headers["x-request-id"] == "trace-42"

        serve_test(check)

    def test_request_id_generated_when_absent(self):
        async def check(server, port):
            _, headers, _ = await _request(port, "GET", "/healthz")
            assert headers["x-request-id"].startswith("req-")

        serve_test(check)

    def test_keep_alive_serves_sequential_requests(self):
        async def check(server, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                for _ in range(3):
                    writer.write(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                    await writer.drain()
                    status, _, _ = await _read_response(reader)
                    assert status == 200
            finally:
                writer.close()

        serve_test(check)


class TestHead:
    def test_head_sends_headers_only_and_keeps_framing(self):
        # RFC 9110 forbids a body on HEAD; a body would desync the next
        # exchange on a keep-alive connection.  Pipeline HEAD then GET on
        # one connection: the GET must still parse cleanly.
        async def check(server, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(b"HEAD /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                status_line = await reader.readline()
                assert b"200" in status_line
                headers: dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode().partition(":")
                    headers[name.strip().lower()] = value.strip()
                # Content-Length advertises the GET body, none follows.
                assert int(headers["content-length"]) > 0
                writer.write(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                status, _, body = await _read_response(reader)
                assert status == 200
                assert json.loads(body) == {"status": "ok"}
            finally:
                writer.close()

        serve_test(check)

    def test_head_matches_get_content_length(self):
        async def check(server, port):
            _, get_headers, get_body = await _request(
                port, "GET", "/metrics"
            )
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(
                    b"HEAD /metrics HTTP/1.1\r\nHost: t\r\n"
                    b"Connection: close\r\n\r\n"
                )
                await writer.drain()
                raw = await reader.read()
            finally:
                writer.close()
            head, _, trailing = raw.partition(b"\r\n\r\n")
            assert trailing == b""  # no body after the header block
            assert b"Content-Length:" in head

        serve_test(check)


class TestBatchAdmission:
    def test_batch_shed_accounts_for_inflight_work(self):
        # Pre-fix, the whole-manifest check compared against
        # max_inflight + queue room and ignored gate.inflight: with the
        # slot busy, a 3-task batch would slip past a capacity of 3.
        async def check(server, port):
            await server.gate.acquire()  # saturate the one slot
            try:
                tasks = [{"formula": "0 <= x"}] * 3
                status, headers, _ = await _request(
                    port, "POST", "/v1/batch", {"tasks": tasks}
                )
                assert status == 429
                assert "retry-after" in headers
                assert server.gate.queued == 0
                assert server.gate.reserved == 0
            finally:
                server.gate.release()

        serve_test(check, max_inflight=1, queue_depth=2)

    def test_batch_fitting_free_capacity_is_admitted(self):
        async def check(server, port):
            tasks = [
                {"id": f"t{i}", "op": "volume", "formula": "0 <= x AND x <= 1"}
                for i in range(3)
            ]
            status, _, body = await _request(
                port, "POST", "/v1/batch", {"tasks": tasks}
            )
            assert status == 200
            envelope = json.loads(body)
            assert [r["id"] for r in envelope["results"]] == ["t0", "t1", "t2"]
            assert server.gate.reserved == 0  # nothing stranded

        serve_test(check, max_inflight=2, queue_depth=2)


class TestBadRequests:
    def test_invalid_json_body_400(self):
        async def check(server, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(
                    b"POST /v1/query HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 9\r\n\r\nnot json!"
                )
                await writer.drain()
                status, _, _ = await _read_response(reader)
                assert status == 400
            finally:
                writer.close()

        serve_test(check)

    def test_post_without_length_411(self):
        async def check(server, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(b"POST /v1/query HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                status, _, _ = await _read_response(reader)
                assert status == 411
            finally:
                writer.close()

        serve_test(check)

    def test_unnormalizable_task_422(self):
        async def check(server, port):
            status, _, body = await _request(
                port, "POST", "/v1/query", {"op": "volume"}  # no formula
            )
            assert status == 422
            assert "formula" in json.loads(body)["error"]

        serve_test(check)

    def test_malformed_task_fields_422(self):
        async def check(server, port):
            for field in ({"variables": 5}, {"variables": "xy"},
                          {"epsilon": "abc"}, {"delta": [1]}):
                status, _, body = await _request(
                    port, "POST", "/v1/query",
                    dict({"formula": "0 <= x", "op": "approx"}, **field),
                )
                assert status == 422, field
                assert "must be" in json.loads(body)["error"]

        serve_test(check)

    def test_unknown_op_422(self):
        async def check(server, port):
            status, _, _ = await _request(
                port, "POST", "/v1/query",
                {"formula": "0 <= x", "op": "summon"},
            )
            assert status == 422

        serve_test(check)

    def test_batch_requires_task_array(self):
        async def check(server, port):
            for payload in ({}, {"tasks": []}, {"tasks": "nope"}):
                status, _, _ = await _request(
                    port, "POST", "/v1/batch", payload
                )
                assert status == 400, payload

        serve_test(check)

    def test_batch_over_inline_cap_413(self):
        from repro.serve.server import MAX_BATCH_TASKS

        async def check(server, port):
            tasks = [{"formula": "0 <= x"}] * (MAX_BATCH_TASKS + 1)
            status, _, body = await _request(
                port, "POST", "/v1/batch", {"tasks": tasks}
            )
            assert status == 413
            assert "repro batch" in json.loads(body)["error"]

        serve_test(check)

    def test_bad_timeout_field_400(self):
        async def check(server, port):
            for timeout in ("soon", 0, -1):
                status, _, _ = await _request(
                    port, "POST", "/v1/query",
                    {"formula": "0 <= x", "timeout": timeout},
                )
                assert status == 400, timeout

        serve_test(check)

    def test_bad_index_field_400(self):
        async def check(server, port):
            status, _, _ = await _request(
                port, "POST", "/v1/query",
                {"formula": "0 <= x", "index": -3},
            )
            assert status == 400

        serve_test(check)


class TestMetricsRoute:
    def test_metrics_exposition_is_parseable(self):
        obs.enable_counting()

        async def check(server, port):
            await _request(port, "GET", "/healthz")
            status, headers, body = await _request(port, "GET", "/metrics")
            assert status == 200
            assert headers["content-type"].startswith("text/plain")
            text = body.decode()
            assert "repro_serve_requests_total" in text
            for line in text.splitlines():
                if not line or line.startswith("#"):
                    continue
                name_part, _, value = line.rpartition(" ")
                assert name_part, line
                float(value)  # every sample line ends in a number

        serve_test(check)


class TestRequestIdSanitization:
    def test_valid_client_id_kept(self):
        async def check(server, port):
            _, headers, _ = await _request(
                port, "GET", "/healthz",
                headers={"X-Request-Id": "build-7.retry_2"},
            )
            assert headers["x-request-id"] == "build-7.retry_2"

        serve_test(check)

    def test_hostile_charset_replaced(self):
        async def check(server, port):
            _, headers, _ = await _request(
                port, "GET", "/healthz",
                headers={"X-Request-Id": "evil{$(rm)}id"},
            )
            assert headers["x-request-id"].startswith("req-")

        serve_test(check)

    def test_overlong_id_replaced(self):
        async def check(server, port):
            _, headers, _ = await _request(
                port, "GET", "/healthz",
                headers={"X-Request-Id": "a" * 129},
            )
            assert headers["x-request-id"].startswith("req-")

        serve_test(check)

    def test_length_cap_boundary_kept(self):
        async def check(server, port):
            _, headers, _ = await _request(
                port, "GET", "/healthz",
                headers={"X-Request-Id": "a" * 128},
            )
            assert headers["x-request-id"] == "a" * 128

        serve_test(check)


class TestAccessLogTimestamps:
    def test_access_log_carries_rfc3339_utc_ts(self, capsys):
        import re

        async def check(server, port):
            await _request(port, "GET", "/healthz")

        serve_test(check, access_log=True)
        access_lines = [
            json.loads(line)
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("{") and '"serve.access"' in line
        ]
        assert len(access_lines) == 1
        entry = access_lines[0]
        assert re.fullmatch(
            r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z", entry["ts"]
        ), entry["ts"]
        assert re.fullmatch(r"[0-9a-f]{32}", entry["trace_id"])
        assert entry["method"] == "GET" and entry["path"] == "/healthz"


class TestMetricsExemplars:
    def test_latency_buckets_carry_trace_id_exemplars(self):
        obs.enable_counting()

        async def check(server, port):
            await _request(port, "GET", "/healthz")
            _, _, body = await _request(port, "GET", "/metrics")
            text = body.decode()
            exemplar_lines = [l for l in text.splitlines() if " # {" in l]
            assert exemplar_lines, "no exemplars on /metrics"
            for line in exemplar_lines:
                assert "_bucket{" in line  # only bucket series
                assert 'trace_id="' in line

        serve_test(check)

    def test_no_exemplars_flag_renders_plain_format(self):
        obs.enable_counting()

        async def check(server, port):
            await _request(port, "GET", "/healthz")
            _, _, body = await _request(port, "GET", "/metrics")
            text = body.decode()
            assert " # {" not in text
            for line in text.splitlines():
                if not line or line.startswith("#"):
                    continue
                _, _, value = line.rpartition(" ")
                float(value)  # strict Prometheus: every line is a sample

        serve_test(check, exemplars=False)
