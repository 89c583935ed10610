"""The shared-memory graph plane: ``GraphStore`` + ``GraphHandle``.

The portfolio engine fans one graph out to many worker processes.  Before
this module existed the CSR arrays travelled by pickle — O(edges) bytes
serialised per pool build, again after every self-heal rebuild.  A
:class:`GraphStore` instead places the four CSR arrays
(``indptr``/``indices``/``weights``/``vertex_weights``) into one
``multiprocessing.shared_memory`` segment; what crosses the process
boundary is a :class:`GraphHandle` — segment name, shapes, dtypes and a
content hash — which pickles in O(1) regardless of graph size.  Workers
attach the segment once and build a read-only :class:`~repro.graph.Graph`
view over it (``Graph.from_handle``), so N workers share one physical
copy of the graph.

Lifecycle rules (the part that is easy to get wrong):

* **The creator owns the segment.**  ``GraphStore.create`` registers an
  ``atexit`` finaliser and supports ``with GraphStore.create(g) as store``;
  either path closes *and unlinks* the segment exactly once.
  :class:`repro.graph.pool.GraphPool` destroys its store right after its
  executor, on close or from a finalizer when dropped, so deadline
  cancellations, crashes and dropped paused sessions unlink too.
* **Attachers never unlink.**  CPython < 3.13 registers every attach
  with the ``resource_tracker`` as if it were an owner, which makes a
  short-lived attaching process "clean up" (unlink + leak warning) a
  segment others still use.  The creator therefore untracks its segment
  immediately (see ``_untrack``), and attachers never register at all
  (see ``_attach_untracked``); the lifecycle above replaces the tracker
  backstop, and the only leak window left is a creator killed with
  SIGKILL before its teardown runs.  Tests gate on
  ``PYTHONWARNINGS=error::UserWarning`` to keep it that way.
* **Attachments are cached per process.**  Pool workers (and self-heal
  replacement workers) attach a given segment once; repeated
  ``Graph.from_handle`` calls with the same handle return the same
  arrays.  Cached attachments are held for the life of the process —
  a mapped view costs address space, not copies.
"""

from __future__ import annotations

import atexit
import mmap
import os
import pickle
import secrets
import sys
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.common.exceptions import GraphError
from repro.graph.fingerprint import arrays_fingerprint as _content_hash

__all__ = ["GraphHandle", "GraphStore", "pickled_graph_bytes"]

#: Segment-name prefix; tests scan for strays under this.
SEGMENT_PREFIX = "repro-graph-"

#: CSR array fields in their fixed segment-layout order.
_FIELDS = ("indptr", "indices", "weights", "vertex_weights")


@dataclass(frozen=True)
class GraphHandle:
    """O(1)-pickling reference to a graph living in shared memory.

    Attributes
    ----------
    segment:
        Name of the shared-memory segment holding the four CSR arrays,
        concatenated in ``indptr, indices, weights, vertex_weights``
        order (all 8-byte dtypes, so every offset stays aligned).
    shapes, dtypes:
        Per-array shape/dtype needed to rebuild the views.
    content_hash:
        blake2b of the array contents; identifies the graph across
        processes and guards the per-process attachment cache against
        segment-name reuse.
    """

    segment: str
    shapes: tuple[tuple[int, ...], ...]
    dtypes: tuple[str, ...]
    content_hash: str

    @property
    def num_vertices(self) -> int:
        return self.shapes[0][0] - 1

    @property
    def num_edges(self) -> int:
        return self.shapes[1][0] // 2

    def array_nbytes(self) -> tuple[int, ...]:
        """Byte size of each stored array (segment layout order)."""
        return tuple(
            int(np.prod(shape, dtype=np.int64)) * np.dtype(dt).itemsize
            for shape, dt in zip(self.shapes, self.dtypes)
        )

    def total_nbytes(self) -> int:
        """Bytes of graph data the segment holds (shared, not shipped)."""
        return sum(self.array_nbytes())

    def payload_bytes(self) -> int:
        """Serialised size of the handle itself — what a task actually
        ships across the process boundary (O(1) in the graph size)."""
        return len(pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL))


def pickled_graph_bytes(graph) -> int:
    """Bytes pickling ``graph`` would ship: the ``payload_bytes`` the
    in-process executor stamps on its records.

    The array payload dominates the pickle stream (headers are tens of
    bytes); summing ``nbytes`` avoids serialising a potentially huge
    graph just to measure it.
    """
    return int(
        graph.indptr.nbytes
        + graph.indices.nbytes
        + graph.weights.nbytes
        + graph.vertex_weights.nbytes
    )


#: Per-process attachment cache: segment name -> GraphStore (non-owner).
_ATTACHMENTS: dict[str, "GraphStore"] = {}


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Remove ``shm`` from this process tree's resource tracker.

    CPython < 3.13 registers every ``SharedMemory`` — attachments
    included — as if it owned the segment, so an exiting attacher (or a
    fork-shared tracker seeing two registrations resolve to one entry)
    unlinks memory other processes still use and emits leak warnings.
    ``GraphStore`` owns the lifecycle itself (context manager, pool
    teardown, ``atexit``), so the creator untracks its segment (attachers
    never track theirs); :meth:`GraphStore.unlink` re-registers just before
    unlinking because ``SharedMemory.unlink`` unconditionally
    unregisters (an unbalanced unregister crashes the tracker loop with
    a ``KeyError``).
    """
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # noqa: BLE001 - tracker variants differ; best effort
        pass


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Map the existing segment ``name`` without registering it with the
    ``resource_tracker``.

    Registering and then untracking (as :meth:`GraphStore.create` does)
    is not safe for attachers: the tracker keeps a set, so two
    processes sharing one tracker that attach the same segment at once
    send register, register, unregister, unregister, and the second
    unregister makes the tracker print a ``KeyError`` traceback.
    CPython 3.13 has ``track=False`` for this.  Before it, the POSIX
    attach is done here the way ``SharedMemory.__init__`` does it, minus
    the ``register`` call, so no global is patched that another thread
    could see.  (Windows never registers segments.)
    """
    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    if os.name != "posix":
        return shared_memory.SharedMemory(name=name)
    import _posixshmem

    shm = shared_memory.SharedMemory.__new__(shared_memory.SharedMemory)
    shm._name = "/" + name
    shm._fd = _posixshmem.shm_open(shm._name, os.O_RDWR, mode=0o600)
    try:
        size = os.fstat(shm._fd).st_size
        shm._mmap = mmap.mmap(shm._fd, size)
    except OSError:
        shm.close()
        raise
    shm._size = size
    shm._buf = memoryview(shm._mmap)
    return shm


class GraphStore:
    """Owner/attachment wrapper around one shared-memory graph segment.

    Use :meth:`create` in the process that owns the graph (context
    manager or explicit :meth:`destroy`), :meth:`attach` — usually via
    ``Graph.from_handle`` — everywhere else.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        handle: GraphHandle,
        owner: bool,
    ) -> None:
        self._shm = shm
        self.handle = handle
        self.owner = owner
        self._closed = False
        self._atexit = None

    # -- construction ------------------------------------------------------
    @classmethod
    def create(cls, graph, name: str | None = None) -> "GraphStore":
        """Copy ``graph``'s CSR arrays into a fresh shared segment.

        The calling process owns the segment: destroy it with the
        context manager or :meth:`destroy`; an ``atexit`` finaliser
        backstops abnormal exits.
        """
        arrays = tuple(getattr(graph, f) for f in _FIELDS)
        if name is None:
            name = f"{SEGMENT_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"
        total = sum(arr.nbytes for arr in arrays)
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, total), name=name
        )
        _untrack(shm)
        offset = 0
        for arr in arrays:
            if arr.nbytes:
                dst = np.ndarray(
                    arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=offset
                )
                dst[...] = arr
            offset += arr.nbytes
        handle = GraphHandle(
            segment=shm.name,
            shapes=tuple(arr.shape for arr in arrays),
            dtypes=tuple(arr.dtype.str for arr in arrays),
            content_hash=_content_hash(arrays),
        )
        store = cls(shm, handle, owner=True)
        store._atexit = store.destroy
        atexit.register(store._atexit)
        return store

    @classmethod
    def attach(cls, handle: GraphHandle) -> "GraphStore":
        """Attach to an existing segment (cached per process).

        The attachment is *not* an owner: it never registers with the
        ``resource_tracker`` (CPython < 3.13 would otherwise unlink the
        segment — and warn about "leaked" memory — when this process
        exits) and stays mapped for the life of the process.
        """
        cached = _ATTACHMENTS.get(handle.segment)
        if cached is not None and (
            cached.handle.content_hash == handle.content_hash
        ):
            return cached
        try:
            shm = _attach_untracked(handle.segment)
        except FileNotFoundError as exc:
            raise GraphError(
                f"shared graph segment {handle.segment!r} does not exist "
                "(was its owning GraphStore destroyed?)"
            ) from exc
        store = cls(shm, handle, owner=False)
        _ATTACHMENTS[handle.segment] = store
        return store

    # -- array access ------------------------------------------------------
    def arrays(self) -> tuple[np.ndarray, ...]:
        """Read-only NumPy views over the segment, in ``_FIELDS`` order."""
        if self._closed:
            raise GraphError("GraphStore is closed")
        views = []
        offset = 0
        for shape, dt, nbytes in zip(
            self.handle.shapes, self.handle.dtypes, self.handle.array_nbytes()
        ):
            view = np.ndarray(
                shape, dtype=np.dtype(dt), buffer=self._shm.buf, offset=offset
            )
            view.flags.writeable = False
            views.append(view)
            offset += nbytes
        return tuple(views)

    def graph(self):
        """A :class:`~repro.graph.Graph` of read-only views (no copy)."""
        from repro.graph.graph import Graph

        indptr, indices, weights, vertex_weights = self.arrays()
        return Graph(indptr, indices, weights, vertex_weights, validate=False)

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Unmap this process's view (idempotent; owners should prefer
        :meth:`destroy`, which also unlinks)."""
        if not self._closed:
            try:
                self._shm.close()
            except BufferError:
                # Live views (e.g. a Graph built by ``graph()``) still
                # export the buffer; leave the mapping in place — the
                # unlink is what reclaims the segment system-wide.
                return
            self._closed = True

    def unlink(self) -> None:
        """Remove the segment from the system (owner only; idempotent)."""
        if self.owner:
            self.owner = False
            try:
                # Balance the unregister inside SharedMemory.unlink (the
                # segment was untracked at creation; see _untrack).
                resource_tracker.register(self._shm._name, "shared_memory")
                self._shm.unlink()
            except FileNotFoundError:
                pass
            if self._atexit is not None:
                atexit.unregister(self._atexit)
                self._atexit = None

    def destroy(self) -> None:
        """Close and (for owners) unlink — the one-call teardown."""
        self.unlink()
        self.close()

    def __enter__(self) -> "GraphStore":
        return self

    def __exit__(self, *exc) -> None:
        self.destroy()
