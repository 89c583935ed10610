"""One process pool with the graph attached: :class:`GraphPool`.

The portfolio runner (``jobs > 1``) and parallel islands
(``island_jobs > 1``) both run many tasks over one read-only graph.  A
:class:`GraphPool` publishes it once to a :class:`~repro.graph.GraphStore`
and builds a ``ProcessPoolExecutor`` whose initializer attaches the O(1)
:class:`~repro.graph.GraphHandle` once per worker; tasks read the graph
back with :func:`worker_graph` (and the optional heartbeat queue with
:func:`worker_beats`).  :meth:`GraphPool.start` also rebuilds the
executor after a worker death, on the *same* handle.  Teardown is
executor first, then segment, exactly once: from :meth:`GraphPool.close`
or, when the owner drops the pool unclosed, from a ``weakref.finalize``.
"""

from __future__ import annotations

import concurrent.futures
import os
import weakref

from repro.graph.graph import Graph
from repro.graph.store import GraphHandle, GraphStore

__all__ = ["GraphPool", "worker_beats", "worker_graph"]

# Per-worker state, set once by the executor initializer.
_GRAPH: Graph | None = None
_BEATS = None


def _attach(handle: GraphHandle, beats) -> None:
    global _GRAPH, _BEATS
    _GRAPH = Graph.from_handle(handle)
    _BEATS = beats


def worker_graph() -> Graph:
    """The graph this pool worker attached at start-up."""
    assert _GRAPH is not None, "pool worker used before initialisation"
    return _GRAPH


def worker_beats():
    """The heartbeat queue the worker's pool was built with, or ``None``."""
    return _BEATS


class _Resources:
    """What a :class:`GraphPool` owns, held apart from the pool so the
    finalizer keeps no reference back to it."""

    def __init__(self, store: GraphStore) -> None:
        self.store = store
        self.executor: concurrent.futures.ProcessPoolExecutor | None = None
        self.pid = os.getpid()

    def release(self) -> None:
        if os.getpid() != self.pid:
            return  # a forked worker's copy; the creator owns teardown
        try:
            if self.executor is not None:
                self.executor.shutdown(wait=True, cancel_futures=True)
        finally:
            self.executor = None
            self.store.destroy()


class GraphPool:
    """A process pool whose ``max_workers`` workers share one copy of
    ``graph``; the optional ``beats`` queue reaches every worker as
    :func:`worker_beats`."""

    def __init__(self, graph: Graph, max_workers: int, beats=None) -> None:
        self.max_workers = max_workers
        self._beats = beats
        self._resources = _Resources(GraphStore.create(graph))
        self.handle = self._resources.store.handle
        self._finalizer = weakref.finalize(self, self._resources.release)

    def start(self) -> "GraphPool":
        """Build the executor, or rebuild it on the same handle (the
        current one is shut down without waiting: after a worker death
        it is broken anyway)."""
        resources = self._resources
        if resources.executor is not None:
            resources.executor.shutdown(wait=False, cancel_futures=True)
        resources.executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.max_workers,
            initializer=_attach,
            initargs=(self.handle, self._beats),
        )
        return self

    def submit(self, fn, /, *args) -> concurrent.futures.Future:
        """Submit ``fn(*args)`` to the current executor."""
        return self._resources.executor.submit(fn, *args)

    def close(self) -> None:
        """Shut the executor down, then destroy the segment (idempotent)."""
        self._finalizer()
