"""A lazily-created, reused process pool with an in-process fallback.

The pool discipline behind the process-pool builds of
:class:`repro.hardware.rpc.RpcBuilder`:

* the :class:`concurrent.futures.ProcessPoolExecutor` is created on the
  first parallel call and **reused** afterwards (worker start-up is paid
  once per session, and each worker keeps its warm per-process caches),
* a **broken pool** (killed worker, unpicklable payload) never loses the
  batch: the call falls back to running the work in-process and the pool is
  torn down so the next call starts a fresh one,
* the handle is **pickle-safe**: owners are themselves shipped to worker
  processes (``RpcBuilder`` pickles itself into its workers), so the
  unpicklable executor and lock are dropped on serialization and the clone
  arrives pool-less.

Creation and teardown are race-free across threads (async measurement
sessions dispatch single builds concurrently).
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence

__all__ = ["LazyProcessPool"]


class LazyProcessPool:
    """A shared ``ProcessPoolExecutor`` that is lazy, reused, and survives
    breakage by falling back to in-process execution."""

    def __init__(self, max_workers: int = 1):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = int(max_workers)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()

    # The owner may be pickled into its own workers; the pool handle (and
    # its lock, which is unpicklable) must not travel with it.
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_pool"] = None
        state["_lock"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether a live executor currently exists (for tests/stats)."""
        return self._pool is not None

    def ensure(self) -> ProcessPoolExecutor:
        """The live executor, created on first use."""
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            return self._pool

    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable,
        *iterables: Sequence,
        fallback: Optional[Callable[[], List]] = None,
    ) -> List:
        """``list(pool.map(fn, *iterables))`` with the broken-pool contract:
        on any pool failure the pool is torn down (the next call starts a
        fresh one) and ``fallback()`` — or an in-process map when none is
        given — produces the results instead, so the batch is never lost."""
        try:
            return list(self.ensure().map(fn, *iterables))
        except Exception:
            self.close()
            if fallback is not None:
                return fallback()
            return [fn(*args) for args in zip(*iterables)]

    def run_one(self, fn: Callable, *args, fallback: Optional[Callable] = None):
        """Submit one call and wait for its result, with the same
        broken-pool fallback as :meth:`map` (used by concurrent dispatchers
        that block on their own future, e.g. async measurement workers)."""
        try:
            return self.ensure().submit(fn, *args).result()
        except Exception:
            self.close()
            if fallback is not None:
                return fallback()
            return fn(*args)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down (idempotent; a later call restarts it)."""
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass
