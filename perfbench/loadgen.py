"""The serve side: a ``repro serve`` subprocess and an open-loop client.

The client is one asyncio process with a fixed number of keep-alive
connections.  A generator coroutine releases each request at its due
time, whatever the server is doing (an open loop); a request waits on
the client side while every connection is busy, and its latency is
counted from when it was *due*, so a stall shows up in every request
it delays.  How late the generator itself woke up is recorded per
request so a run whose generator fell behind can be declared invalid.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any

#: Seconds to wait for the server to bind, and for it to drain on SIGTERM.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class ServeProcess:
    """One ``python -m repro serve`` child on an ephemeral port."""

    def __init__(self, src_dir: str, store: str, log_path: str, workers: int):
        env = dict(os.environ, PYTHONPATH=src_dir)
        self.log_path = log_path
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(workers), "--plan-store", store,
             "--no-access-log"],
            env=env, stdout=subprocess.DEVNULL, stderr=self._log,
        )
        self.worker_pids: set[int] = set()
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            with open(self.log_path, encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("serve: listening on "):
                        port = int(line.split()[3].rsplit(":", 1)[1])
                        if self._ready(port):
                            return port
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"repro serve did not come up; see {self.log_path}")

    @staticmethod
    def _ready(port: int) -> bool:
        try:
            status, _ = http_get(port, "/readyz")
        except OSError:
            return False
        return status == 200

    def note_workers(self) -> None:
        """Remember the pool's pids so the run can check they were reaped."""
        self.worker_pids |= set(child_pids(self.proc.pid))

    def peak_rss_mb(self) -> float:
        """Largest resident size so far of the server and its workers."""
        pids = [self.proc.pid, *child_pids(self.proc.pid)]
        return max(vm_hwm_mb(pid) for pid in pids)

    def stop(self) -> bool:
        """SIGTERM and wait; True when the server and its pool are gone.

        SIGTERM lets the server drain and shut its worker pool down;
        SIGKILL would orphan the pool's children, so it is used only if
        the drain hangs, and such a run does not count as clean.
        """
        clean = True
        if self.proc.poll() is None:
            self.note_workers()
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                clean = False
                self.proc.kill()
                self.proc.wait(timeout=STOP_TIMEOUT_S)
        self._log.close()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while any(alive(pid) for pid in self.worker_pids):
            if time.monotonic() > deadline:
                return False
            time.sleep(0.02)
        return clean and self.proc.returncode == 0


def http_get(port: int, path: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# /proc helpers (Linux)
# ---------------------------------------------------------------------------

def child_pids(pid: int) -> list[int]:
    """Direct children of *pid*, across all of its threads."""
    pids: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return pids
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as handle:
                pids.extend(int(p) for p in handle.read().split())
        except OSError:
            continue
    return pids


def alive(pid: int) -> bool:
    """True while *pid* exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of a live process, in MiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# ---------------------------------------------------------------------------
# the open-loop client
# ---------------------------------------------------------------------------

def run_open_loop(port: int, bodies: list[bytes], rate: float, connections: int):
    """Send ``bodies[i]`` at ``i / rate`` seconds; returns one row per request.

    Each row is ``(due, sent, done, status, body)`` on the loop's
    monotonic clock, plus the generator lateness list.
    """
    return asyncio.run(_open_loop(port, bodies, rate, connections))


async def _open_loop(port: int, bodies: list[bytes], rate: float, connections: int):
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    rows: list[Any] = [None] * len(bodies)
    late = [0.0] * len(bodies)
    conns = [await asyncio.open_connection("127.0.0.1", port) for _ in range(connections)]
    start = loop.time() + 0.05
    workers = [asyncio.create_task(_connection(reader, writer, queue, rows))
               for reader, writer in conns]
    for index, body in enumerate(bodies):
        due = start + index / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        late[index] = loop.time() - due
        queue.put_nowait((index, due, body))
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    return rows, late


async def _connection(reader, writer, queue: asyncio.Queue, rows: list) -> None:
    """Serve queued requests on one connection; a broken one fails the rest."""
    loop = asyncio.get_running_loop()
    broken = False
    try:
        while True:
            item = await queue.get()
            if item is None:
                return
            index, due, body = item
            sent = loop.time()
            if broken:
                rows[index] = (due, sent, sent, 0, b"")
                continue
            try:
                status, payload = await _exchange(reader, writer, body)
            except (ConnectionError, OSError, asyncio.IncompleteReadError,
                    ValueError, IndexError):
                broken = True
                status, payload = 0, b""
            rows[index] = (due, sent, loop.time(), status, payload)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _exchange(reader, writer, body: bytes) -> tuple[int, bytes]:
    """One keep-alive POST /v1/query round trip: (status, response body)."""
    writer.write(
        b"POST /v1/query HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body) + body
    )
    await writer.drain()
    status_line = await reader.readline()
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    payload = await reader.readexactly(length)
    return int(status_line.split()[1]), payload


def decode(payload: bytes) -> dict[str, Any]:
    """The result record of one ``repro.serve/v1`` envelope ({} if absent)."""
    try:
        return json.loads(payload).get("result") or {}
    except (ValueError, AttributeError):
        return {}
