"""The one worker-process pool behind both front-ends.

:class:`WorkerPool` owns the ``ProcessPoolExecutor`` that runs
:func:`repro.engine.worker_entry` for the batch executor and for
:mod:`repro.serve`.  A worker death breaks an executor for good, so the
pool's one recovery move is :meth:`WorkerPool.rebuild`: swap in a fresh
executor and shut the broken one down.  Every caller that saw the break
passes the :attr:`~WorkerPool.generation` it submitted under, and only
the first one rebuilds — a late caller must not shut down the healthy
replacement and cancel the innocent work already queued on it.  What to
do about the lost work (retry, quarantine, an error record) is the
caller's policy, not the pool's.
"""

from __future__ import annotations

import signal
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable

from .. import obs

__all__ = ["WorkerPool"]


def _init_worker() -> None:
    """Detach a forked worker from its parent's signal handling.

    A forked worker inherits the parent's signal wakeup fd and its
    Python-level handlers.  Under the asyncio server both are wrong: a
    SIGTERM aimed at a worker (the executor SIGTERMs the survivors of a
    broken pool) would be written to the *server's* wakeup fd — the
    server reads it as its own SIGTERM and drains — and then swallowed by
    the inherited no-op handler, so the worker never exits and the
    executor waits on it forever.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


class WorkerPool:
    """A rebuildable process pool of *workers* processes.

    Each caller drives its pool from one thread (the batch executor's
    dispatch loop, the server's event loop), so the generation check in
    :meth:`rebuild` needs no lock.
    """

    def __init__(self, workers: int):
        self.workers = max(1, workers)
        #: Bumped by every rebuild; callers capture it before submitting.
        self.generation = 0
        self.executor = self._spawn()

    def _spawn(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers, initializer=_init_worker
        )

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Schedule ``fn(*args)``; raises ``BrokenExecutor`` if the pool broke."""
        return self.executor.submit(fn, *args)

    def rebuild(self, generation: int) -> None:
        """Replace the executor that broke at *generation*.

        Does nothing when another caller already rebuilt it.  The broken
        executor is shut down with its queued work cancelled; that work
        never started.
        """
        if generation != self.generation:
            return
        broken, self.executor = self.executor, self._spawn()
        self.generation += 1
        obs.add("engine.pool.rebuilds")
        broken.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        self.executor.shutdown(wait=False, cancel_futures=True)
