"""The core CSR weighted undirected graph type.

Design notes (per the hpc-parallel guides): the graph is immutable after
construction and stored as three NumPy arrays — ``indptr`` (n+1,), ``indices``
(2m,) and ``weights`` (2m,) — i.e. standard CSR with every undirected edge
stored in both directions.  All algorithms in the repository access
neighbourhoods through :meth:`Graph.neighbors`, which returns *views* (never
copies) of the underlying arrays, so per-vertex scans are vectorised NumPy
operations on contiguous slices.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.common.exceptions import GraphError

__all__ = ["Graph", "float_values_are_integral"]


def float_values_are_integral(values: np.ndarray) -> bool:
    """True when float64 add/subtract of these values is exact.

    Holds when every value is an integer and the total stays below 2^52
    (integer float64 arithmetic is exact in that range).  The single
    definition of the exactness rule the bulk kernels gate on — for edge
    weights via the cached :meth:`Graph.has_integral_weights`, for vertex
    weights directly.
    """
    if values.size == 0:
        return True
    return bool(
        float(values.sum()) < 2.0**52 and np.all(values == np.rint(values))
    )


class Graph:
    """A weighted undirected graph in CSR form.

    Vertices are the integers ``0 .. n-1``.  Edge weights are non-negative
    floats (the paper's weight function ``w(e) >= 0``).  Self-loops and
    duplicate edges are rejected at construction.

    Parameters
    ----------
    indptr:
        ``(n+1,)`` int64 array; neighbourhood of vertex ``v`` is
        ``indices[indptr[v]:indptr[v+1]]``.
    indices:
        ``(2m,)`` int64 array of neighbour ids (both directions stored).
    weights:
        ``(2m,)`` float64 array of edge weights, aligned with ``indices``.
    vertex_weights:
        optional ``(n,)`` float64 array of vertex weights; defaults to 1.0
        for every vertex (used by coarsening, balance constraints).
    validate:
        run full structural validation (symmetry, sorted neighbour lists,
        no self-loops).  Disable only for trusted internal callers that
        construct CSR directly (e.g. coarsening).

    Notes
    -----
    Use :class:`repro.graph.GraphBuilder` or :func:`Graph.from_edges` for
    convenient construction from an edge list.
    """

    __slots__ = (
        "indptr",
        "indices",
        "weights",
        "vertex_weights",
        "_degree_cache",
        "_owner_cache",
        "_integral_cache",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        vertex_weights: np.ndarray | None = None,
        validate: bool = True,
    ) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        n = self.indptr.shape[0] - 1
        if vertex_weights is None:
            vertex_weights = np.ones(n, dtype=np.float64)
        self.vertex_weights = np.ascontiguousarray(vertex_weights, dtype=np.float64)
        self._degree_cache: np.ndarray | None = None
        self._owner_cache: np.ndarray | None = None
        self._integral_cache: bool | None = None
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int, float]] | Iterable[tuple[int, int]],
        vertex_weights: np.ndarray | None = None,
    ) -> "Graph":
        """Build a graph from an iterable of ``(u, v[, w])`` tuples.

        Missing weights default to 1.0.  Duplicate edges and self-loops
        raise :class:`~repro.common.exceptions.GraphError`.

        Examples
        --------
        >>> g = Graph.from_edges(3, [(0, 1, 2.0), (1, 2)])
        >>> g.num_vertices, g.num_edges
        (3, 2)
        """
        us: list[int] = []
        vs: list[int] = []
        ws: list[float] = []
        for edge in edges:
            if len(edge) == 2:
                u, v = edge  # type: ignore[misc]
                w = 1.0
            else:
                u, v, w = edge  # type: ignore[misc]
            us.append(int(u))
            vs.append(int(v))
            ws.append(float(w))
        return cls.from_arrays(
            n,
            np.asarray(us, dtype=np.int64),
            np.asarray(vs, dtype=np.int64),
            np.asarray(ws, dtype=np.float64),
            vertex_weights=vertex_weights,
        )

    @classmethod
    def from_arrays(
        cls,
        n: int,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray | None = None,
        vertex_weights: np.ndarray | None = None,
    ) -> "Graph":
        """Build a graph from parallel arrays of endpoints and weights.

        Each undirected edge appears exactly once in the input (either
        orientation); this constructor symmetrises, sorts neighbour lists
        and produces CSR in O(m log m).
        """
        if n < 0:
            raise GraphError(f"vertex count must be >= 0, got {n}")
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape:
            raise GraphError("endpoint arrays u and v must have the same shape")
        if w is None:
            w = np.ones(u.shape[0], dtype=np.float64)
        else:
            w = np.asarray(w, dtype=np.float64)
            if w.shape != u.shape:
                raise GraphError("weight array must match endpoint arrays")
        if u.size:
            if u.min(initial=0) < 0 or v.min(initial=0) < 0:
                raise GraphError("vertex ids must be non-negative")
            if max(u.max(initial=-1), v.max(initial=-1)) >= n:
                raise GraphError(
                    f"vertex id out of range: n={n}, max id="
                    f"{max(u.max(initial=-1), v.max(initial=-1))}"
                )
            if np.any(u == v):
                bad = int(u[u == v][0])
                raise GraphError(f"self-loop on vertex {bad} is not allowed")
            if np.any(w < 0):
                raise GraphError("edge weights must be non-negative")
            # Detect duplicate undirected edges via canonical (min,max) keys.
            lo = np.minimum(u, v)
            hi = np.maximum(u, v)
            key = lo * n + hi
            if np.unique(key).shape[0] != key.shape[0]:
                raise GraphError("duplicate edges are not allowed")

        # Symmetrise: each undirected edge contributes two directed arcs.
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        wt = np.concatenate([w, w])
        order = np.lexsort((dst, src))
        src, dst, wt = src[order], dst[order], wt[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr, dst, wt, vertex_weights=vertex_weights, validate=False)

    @classmethod
    def _from_trusted(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        vertex_weights: np.ndarray,
    ) -> "Graph":
        """Rebuild from CSR arrays that are known-good by construction.

        The unpickle target of :meth:`__reduce__`: a pickled graph was
        valid when serialised and the arrays travel verbatim, so the
        trusted round-trip skips the O(m log m) structural revalidation
        (``validate=True`` stays the default for user-facing
        constructors).
        """
        return cls(indptr, indices, weights, vertex_weights, validate=False)

    def __reduce__(self):
        """Pickle as the four CSR arrays through the trusted constructor.

        Default ``__slots__`` pickling would also ship the derived
        caches (`arc_owners` alone is O(2m) int64) — tripling the
        payload for data every process can recompute lazily.
        """
        return (
            Graph._from_trusted,
            (self.indptr, self.indices, self.weights, self.vertex_weights),
        )

    @classmethod
    def from_handle(cls, handle) -> "Graph":
        """Attach a shared-memory graph as read-only views (zero-copy).

        The attachment is cached per process: repeated calls with the
        same :class:`~repro.graph.store.GraphHandle` reuse one mapping.
        The returned graph's arrays are not writable — it is a view of
        memory owned by the creating process.
        """
        from repro.graph.store import GraphStore

        return GraphStore.attach(handle).graph()

    @classmethod
    def empty(cls, n: int) -> "Graph":
        """An edgeless graph on ``n`` vertices."""
        return cls(
            np.zeros(n + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            validate=False,
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        n = self.num_vertices
        if self.indptr.ndim != 1 or self.indptr.shape[0] < 1:
            raise GraphError("indptr must be a 1-D array of length n+1")
        if self.indptr[0] != 0:
            raise GraphError("indptr[0] must be 0")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        if self.indptr[-1] != self.indices.shape[0]:
            raise GraphError("indptr[-1] must equal len(indices)")
        if self.indices.shape != self.weights.shape:
            raise GraphError("indices and weights must be parallel arrays")
        if self.vertex_weights.shape != (n,):
            raise GraphError(f"vertex_weights must have shape ({n},)")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= n:
                raise GraphError("neighbour index out of range")
            if np.any(self.weights < 0):
                raise GraphError("edge weights must be non-negative")
        # No self-loops.
        owner = self.arc_owners()
        if np.any(owner == self.indices):
            raise GraphError("self-loops are not allowed")
        # Symmetry check: the multiset of (min,max,w) arcs must pair up.
        lo = np.minimum(owner, self.indices)
        hi = np.maximum(owner, self.indices)
        order = np.lexsort((self.weights, hi, lo))
        lo, hi, wt = lo[order], hi[order], self.weights[order]
        if lo.shape[0] % 2 != 0:
            raise GraphError("directed arc count must be even (symmetric storage)")
        if not (
            np.array_equal(lo[0::2], lo[1::2])
            and np.array_equal(hi[0::2], hi[1::2])
            and np.allclose(wt[0::2], wt[1::2])
        ):
            raise GraphError("adjacency structure is not symmetric")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self.indptr.shape[0] - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self.indices.shape[0] // 2

    @property
    def total_edge_weight(self) -> float:
        """Sum of undirected edge weights, :math:`\\sum_{e \\in E} w(e)`."""
        return float(self.weights.sum()) / 2.0

    def degree(self, v: int | None = None) -> np.ndarray | float:
        """Weighted degree ``d(v) = sum_u w(v, u)``.

        With ``v=None`` returns the full ``(n,)`` degree vector (cached);
        otherwise a scalar.  This is the ``d`` used by the spectral methods'
        diagonal matrix ``D`` (paper §2.1).
        """
        if self._degree_cache is None:
            n = self.num_vertices
            if self.indices.size:
                self._degree_cache = np.bincount(
                    self.arc_owners(), weights=self.weights, minlength=n
                ).astype(np.float64)
            else:
                self._degree_cache = np.zeros(n, dtype=np.float64)
        if v is None:
            return self._degree_cache
        return float(self._degree_cache[v])

    def has_integral_weights(self) -> bool:
        """True when float64 add/subtract of the edge weights is exact.

        Holds in the common unweighted/integer-weight case (see
        :func:`float_values_are_integral`).  Bulk kernels use this to
        decide between order-free vectorized accumulation (bit-exact for
        integers regardless of summation order) and legacy-order paths
        that preserve ulp-for-ulp compatibility on arbitrary floats.
        Cached; the graph is immutable.
        """
        if self._integral_cache is None:
            self._integral_cache = float_values_are_integral(self.weights)
        return self._integral_cache

    def arc_owners(self) -> np.ndarray:
        """``(2m,)`` owner vertex of every directed arc, aligned with
        :attr:`indices` (cached — the graph is immutable).

        ``arc_owners()[i]`` is the vertex whose neighbour list contains
        ``indices[i]``; every O(m) sweep (boundary detection, partition
        recomputation) reuses this instead of re-materialising
        ``np.repeat(arange(n), diff(indptr))``.
        """
        if self._owner_cache is None:
            self._owner_cache = np.repeat(
                np.arange(self.num_vertices, dtype=np.int64),
                np.diff(self.indptr),
            )
        return self._owner_cache

    def neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of the neighbour ids and edge weights of vertex ``v``.

        Returns
        -------
        (indices, weights):
            contiguous NumPy views into the CSR arrays; do not mutate.
        """
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def neighbor_ids(self, v: int) -> np.ndarray:
        """View of the neighbour ids of vertex ``v``."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def neighbors_many(
        self, vertices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather the CSR slices of several vertices in one shot.

        The batched counterpart of :meth:`neighbors`: one fancy-indexing
        pass replaces a Python loop of per-vertex slice reads, which is
        what makes the bulk partition operations and the gain engine
        array-level.

        Parameters
        ----------
        vertices:
            ``(b,)`` int array of vertex ids (duplicates allowed; each
            occurrence contributes its full slice).

        Returns
        -------
        (rows, nbrs, wts):
            Parallel arrays over all arcs of the requested vertices, in
            input order: ``rows[i]`` is the *position in `vertices`* that
            arc ``i`` belongs to, ``nbrs[i]``/``wts[i]`` the neighbour id
            and edge weight.  Within one vertex the arcs keep CSR
            (sorted-neighbour) order, so per-vertex reductions over this
            layout are bit-identical to reductions over
            :meth:`neighbors`.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        starts = self.indptr[vertices]
        counts = self.indptr[vertices + 1] - starts
        total = int(counts.sum())
        rows = np.repeat(
            np.arange(vertices.shape[0], dtype=np.int64), counts
        )
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return rows, empty, np.empty(0, dtype=np.float64)
        # Global arc index: per-row arange offset back to each CSR start.
        offsets = np.empty(vertices.shape[0], dtype=np.int64)
        offsets[0] = 0
        np.cumsum(counts[:-1], out=offsets[1:])
        idx = np.arange(total, dtype=np.int64) - offsets[rows] + starts[rows]
        return rows, self.indices[idx], self.weights[idx]

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``(u, v)``; 0.0 if the edge is absent.

        O(log deg(u)) via binary search on the sorted neighbour list.
        """
        nbrs, wts = self.neighbors(u)
        pos = np.searchsorted(nbrs, v)
        if pos < nbrs.shape[0] and nbrs[pos] == v:
            return float(wts[pos])
        return 0.0

    def has_edge(self, u: int, v: int) -> bool:
        """True if edge ``(u, v)`` exists."""
        nbrs = self.neighbor_ids(u)
        pos = np.searchsorted(nbrs, v)
        return bool(pos < nbrs.shape[0] and nbrs[pos] == v)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over undirected edges as ``(u, v, w)`` with ``u < v``."""
        for u in range(self.num_vertices):
            nbrs, wts = self.neighbors(u)
            mask = nbrs > u
            for v, w in zip(nbrs[mask], wts[mask]):
                yield u, int(v), float(w)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Undirected edge list as parallel arrays ``(u, v, w)`` with u < v."""
        owner = self.arc_owners()
        mask = owner < self.indices
        return owner[mask], self.indices[mask], self.weights[mask]

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, vertices: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on ``vertices``.

        Returns
        -------
        (sub, mapping):
            ``sub`` is the induced subgraph with vertices relabelled
            ``0..len(vertices)-1`` in the order given; ``mapping`` is the
            original id of each new vertex (i.e. ``vertices`` as an array).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size and (
            np.unique(vertices).shape[0] != vertices.shape[0]
        ):
            raise GraphError("subgraph vertex list contains duplicates")
        n = self.num_vertices
        local = np.full(n, -1, dtype=np.int64)
        local[vertices] = np.arange(vertices.shape[0], dtype=np.int64)
        owner = self.arc_owners()
        keep = (local[owner] >= 0) & (local[self.indices] >= 0)
        src = local[owner[keep]]
        dst = local[self.indices[keep]]
        wt = self.weights[keep]
        half = src < dst
        sub = Graph.from_arrays(
            vertices.shape[0],
            src[half],
            dst[half],
            wt[half],
            vertex_weights=self.vertex_weights[vertices],
        )
        return sub, vertices

    def with_vertex_weights(self, vertex_weights: np.ndarray) -> "Graph":
        """Copy of this graph sharing CSR arrays but with new vertex weights."""
        return Graph(
            self.indptr,
            self.indices,
            self.weights,
            vertex_weights=vertex_weights,
            validate=False,
        )

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Graph(n={self.num_vertices}, m={self.num_edges}, "
            f"total_weight={self.total_edge_weight:.6g})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.allclose(self.weights, other.weights)
            and np.allclose(self.vertex_weights, other.vertex_weights)
        )

    def __hash__(self) -> int:  # Graphs are mutable-array holders; identity hash.
        return id(self)
