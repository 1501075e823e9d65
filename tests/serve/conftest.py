"""Fixtures for the serve tests: a subprocess server harness.

The integration tests exercise ``python -m repro serve`` exactly as a
deployment would — a real subprocess, real sockets, real signals — so
the admission, coalescing, deadline, and drain behavior is observed
end to end rather than simulated.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: A query whose exact volume takes a couple of seconds (a union of five
#: overlapping skewed 3-D cells: every slab of the slicing integrator
#: slices several live cells), used to hold a pool slot while
#: backpressure and drain behavior is probed.
SLOW_FORMULA = " OR ".join(
    f"(0 <= x AND 0 <= y AND 0 <= z AND {j}*x + {5 - j}*y + z <= {j}"
    f" AND x + {j}*z <= 5 AND y <= x + {j}/5)"
    for j in range(1, 6)
)

#: Moderately slow to compile (~0.1 s) — wide enough a window for
#: concurrent duplicates to overlap, fast enough to not drag the suite.
MEDIUM_FORMULA = (
    "EXISTS u . EXISTS v . (0 <= u AND u <= 1 AND 0 <= v AND v <= 1 AND ("
    + " OR ".join(
        f"({j}*u <= 2*x AND u + v <= x + {j}*y AND {j}*v <= u + 1)"
        for j in range(1, 4)
    )
    + ") AND 0 <= x AND x <= 1 AND 0 <= y AND y <= 1)"
)


class ServerProc:
    """One ``repro serve`` subprocess plus small HTTP client helpers."""

    def __init__(self, *args: str, startup_timeout: float = 30.0):
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        self.port: int | None = None
        self.stderr_lines: list[str] = []
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._drain_stderr, daemon=True)
        self._reader.start()
        if not self._ready.wait(startup_timeout):
            self.proc.kill()
            raise RuntimeError(
                "server never printed its listening line; stderr so far: "
                + "".join(self.stderr_lines)
            )

    def _drain_stderr(self) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            self.stderr_lines.append(line)
            if line.startswith("serve: listening on "):
                self.port = int(line.split()[3].rsplit(":", 1)[1])
                self._ready.set()
        self._ready.set()  # EOF: unblock a waiter even on startup failure

    # -- client helpers ----------------------------------------------------
    def connect(self, timeout: float = 60.0) -> http.client.HTTPConnection:
        assert self.port is not None
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)

    def request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        timeout: float = 60.0,
    ) -> tuple[int, dict[str, str], bytes]:
        """One request on a fresh connection: (status, headers, body)."""
        conn = self.connect(timeout=timeout)
        try:
            body = json.dumps(payload).encode() if payload is not None else None
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return (
                response.status,
                {k.lower(): v for k, v in response.getheaders()},
                response.read(),
            )
        finally:
            conn.close()

    def json(
        self, method: str, path: str, payload: dict | None = None,
        timeout: float = 60.0,
    ) -> tuple[int, dict]:
        status, _, body = self.request(method, path, payload, timeout=timeout)
        return status, json.loads(body)

    # -- lifecycle ---------------------------------------------------------
    def stop(self, sig: int = signal.SIGTERM, timeout: float = 30.0) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
        code = self.proc.wait(timeout=timeout)
        self._reader.join(timeout=10)
        return code

    def stderr_text(self) -> str:
        return "".join(self.stderr_lines)

    def __enter__(self) -> "ServerProc":
        return self

    def __exit__(self, *exc) -> None:
        # SIGTERM first so the server drains its worker pool; SIGKILL
        # would orphan the pool children.  Escalate only if it wedges.
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self._reader.join(timeout=10)


@pytest.fixture
def server_factory():
    """Start ``repro serve`` subprocesses that are always torn down."""
    started: list[ServerProc] = []

    def factory(*args: str) -> ServerProc:
        server = ServerProc(*args)
        started.append(server)
        return server

    yield factory
    for server in started:
        server.__exit__()


def wait_until(predicate, timeout: float = 10.0, interval: float = 0.02) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()
