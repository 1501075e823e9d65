"""QueryService pool-death handling: rebuild exactly once, hurt nobody.

When a worker dies, every request in flight on the pool raises
``BrokenExecutor`` — but only the *first* handler may rebuild.  A later
handler that shut down the pool's executor again would be cancelling
innocent requests already dispatched to the fresh one, and the resulting
``CancelledError`` (a BaseException) would sail through ``_route``'s
``except Exception`` and kill the connection without a response.  The
tests swap a controllable fake in as the ``WorkerPool``'s executor.
"""

import asyncio
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import obs
from repro.serve.service import QueryService, ServiceConfig

TASK = {"id": "t", "op": "volume", "formula": "0 <= x AND x <= 1"}


class FakePool:
    """An executor whose submitted futures the test controls."""

    def __init__(self, exception=None, submit_error=None):
        self.exception = exception
        self.submit_error = submit_error
        self.futures: list[Future] = []
        self.shutdown_calls = 0

    def submit(self, fn, *args):
        if self.submit_error is not None:
            raise self.submit_error
        future: Future = Future()
        if self.exception is not None:
            future.set_exception(self.exception)
        self.futures.append(future)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdown_calls += 1


@pytest.fixture
def service():
    service = QueryService(ServiceConfig(workers=1))
    try:
        yield service
    finally:
        service.close()


class TestBrokenPoolRebuild:
    def test_concurrent_failures_rebuild_once(self, service):
        async def go():
            obs.enable_counting()
            broken = FakePool(BrokenProcessPool("worker died"))
            real = service.pool.executor
            real.shutdown(wait=False)
            service.pool.executor = broken
            records = await asyncio.gather(
                service._dispatch(dict(TASK), 0, None, None),
                service._dispatch(dict(TASK), 1, None, None),
                service._dispatch(dict(TASK), 2, None, None),
            )
            for record in records:
                assert record["status"] == "error"
                assert record["error_type"] == "BrokenExecutor"
            # One rebuild, one shutdown — of the broken pool only; the
            # replacement pool is alive and was never touched.
            assert broken.shutdown_calls == 1
            assert obs.REGISTRY.value("engine.pool.rebuilds") == 1
            assert service.pool.executor is not broken
            assert not service.pool.executor._shutdown_thread

        asyncio.run(go())

    def test_cancelled_by_rebuild_returns_error_record(self, service):
        # A request still *queued* on the dead pool is cancelled by the
        # rebuilder's shutdown(cancel_futures=True); it must answer with
        # the structured pool-death record, not leak CancelledError.
        async def go():
            stalled = FakePool()
            service.pool.executor.shutdown(wait=False)
            service.pool.executor = stalled
            dispatch = asyncio.ensure_future(
                service._dispatch(dict(TASK), 0, None, None)
            )
            await asyncio.sleep(0)  # dispatch captured `stalled`
            # Another handler already rebuilt.
            service.pool.rebuild(service.pool.generation)
            stalled.futures[0].cancel()
            record = await dispatch
            assert record["status"] == "error"
            assert record["error_type"] == "BrokenExecutor"

        asyncio.run(go())

    def test_foreign_cancellation_still_propagates(self, service):
        # With no rebuild in between, a cancellation is not the pool's —
        # it must keep propagating.
        async def go():
            stalled = FakePool()
            service.pool.executor.shutdown(wait=False)
            service.pool.executor = stalled
            dispatch = asyncio.ensure_future(
                service._dispatch(dict(TASK), 0, None, None)
            )
            await asyncio.sleep(0)
            stalled.futures[0].cancel()
            with pytest.raises(asyncio.CancelledError):
                await dispatch

        asyncio.run(go())

    def test_broken_at_submit_rebuilds_and_runs_once(self, service):
        # A worker that died while the pool was idle breaks the pool
        # before this request reaches it: submit itself raises.  Nothing
        # of the request ran, so it is dispatched on the rebuilt pool and
        # answered normally instead of with a pool-death record.
        async def go():
            obs.enable_counting()
            broken = FakePool(submit_error=BrokenProcessPool("idle death"))
            service.pool.executor.shutdown(wait=False)
            service.pool.executor = broken
            record = await service._dispatch(dict(TASK), 0, None, None)
            assert record["status"] == "ok"
            assert record["exact"] == "1"
            assert broken.shutdown_calls == 1
            assert obs.REGISTRY.value("engine.pool.rebuilds") == 1
            assert service.pool.executor is not broken

        asyncio.run(go())


class TestKeying:
    def test_storeless_service_never_computes_a_key(self, service, monkeypatch):
        # Without a plan store nothing coalesces, so the plan key is dead
        # work on the event loop.
        def no_key(task):
            raise AssertionError("task_key called without a plan store")

        monkeypatch.setattr("repro.serve.service.task_key", no_key)

        async def go():
            return await service.execute(dict(TASK))

        record = asyncio.run(go())
        assert record["status"] == "ok"
        assert record["exact"] == "1"
