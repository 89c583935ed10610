"""The percolation flooding algorithm.

Paper §4.4 defines, for a vertex ``v`` and a partition ``P_i`` flooding
from centre ``c_i``::

    bond(v, P_i) = sum over edges e on the path from c_i to v of w(e) / 2^d

where ``d`` counts the vertices between ``e`` and the centre — i.e. each
additional hop halves an edge's contribution, so bonds decay geometrically
with distance from the centre.  A vertex is coloured by the centre with the
strongest bond.  "All bonds are recomputed at each step … the algorithm
stops when no vertex moves to another partition."

Our implementation follows that fixed-point formulation: bond values are
propagated Bellman–Ford-style (a vertex's bond via neighbour ``u`` is
``(bond(u) + w(u, v)) / 2`` — equivalently the best discounted path weight)
until colours stabilise.  The ``/2`` per hop makes the iteration a
contraction, so convergence is guaranteed; the tests verify both the
fixed-point property and the hand-computable small cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.exceptions import ConfigurationError
from repro.common.rng import SeedLike, ensure_rng
from repro.graph.graph import Graph
from repro.partition.partition import Partition
from repro.api.request import SolveRequest
from repro.api.session import OneShotSession

__all__ = [
    "percolation_bonds",
    "percolation_partition",
    "percolation_bisect",
    "choose_spread_centers",
    "PercolationPartitioner",
]


class _Flood:
    """The arc layout of one (masked) flood, built once and swept by
    every flood on the same vertex set.

    The subgraph induced by the mask is flooded in local ids 0..nl-1,
    plus a sentinel row ``nl`` that stays at -inf.  The arcs are regrouped
    by destination, so each sweep's push of (bond[src] + w) / 2 along
    every arc becomes one gather and one per-row max (``reduceat``).  Max
    is exact, so the order within a row does not matter, and halving is
    exact and monotone, so it is applied after the max, per row.  Rows
    without an incoming arc get one from the sentinel, so no segment is
    empty.  Raw bond blocks are ``(nl + 1, columns)`` with -inf where the
    liquid has not arrived.
    """

    def __init__(self, graph: Graph, allowed: np.ndarray) -> None:
        self.n = graph.num_vertices
        w_max = float(graph.weights.max()) if graph.weights.size else 1.0
        self.anchor = 2.0 * max(w_max, 1e-12)
        self.local = np.flatnonzero(allowed)
        nl = self.local.shape[0]
        self.local_id = np.cumsum(allowed) - 1
        src, nbrs, wts = graph.neighbors_many(self.local)
        inside = allowed[nbrs]
        dst = self.local_id[nbrs[inside]]
        counts = np.bincount(dst, minlength=nl + 1)
        pad = np.flatnonzero(counts == 0)
        order = np.argsort(np.concatenate([dst, pad]), kind="stable")
        self.src = np.concatenate(
            [src[inside], np.full(pad.shape[0], nl)]
        )[order]
        self.wt = np.concatenate([wts[inside], np.zeros(pad.shape[0])])[order]
        self.starts = np.zeros(nl + 1, dtype=np.int64)
        np.cumsum(np.maximum(counts, 1)[:-1], out=self.starts[1:])

    def start(self, centers: np.ndarray) -> np.ndarray:
        """Raw bonds before the first sweep: each centre's column holds
        the anchor at the centre and -inf elsewhere."""
        k = centers.shape[0]
        bonds = np.full((self.local.shape[0] + 1, k), -np.inf)
        bonds[self.local_id[centers], np.arange(k)] = self.anchor
        return bonds

    def sweep(
        self, bonds: np.ndarray, max_sweeps: int, tolerance: float
    ) -> tuple[np.ndarray, int, float]:
        """Sweep ``bonds`` until the stop rule holds or ``max_sweeps``
        sweeps have run; return ``(bonds, sweeps run, last change)``.

        Every column floods on its own: a sweep reads and writes only its
        column, and only the stop rule looks at all of them at once.
        """
        # -inf propagates harmlessly through the (b + w)/2 update, so
        # bonds only ever flow outward from centres.  Centres keep their
        # anchor: every candidate is at most (anchor + w_max) / 2 <
        # anchor, and the max never lowers an entry.
        wt = np.repeat(self.wt[:, None], bonds.shape[1], axis=1)
        candidate = np.empty_like(wt)
        change = np.nan
        sweeps = 0
        # Since new >= old entrywise, one fmax over (new - old) decides
        # both halves of the stop rule: a newly reached entry gives +inf
        # (go on), an entry still at -inf gives nan (ignored), and
        # otherwise it is the largest change on the entries already
        # reached.
        with np.errstate(invalid="ignore"):
            while sweeps < max_sweeps:
                np.take(bonds, self.src, axis=0, out=candidate)
                candidate += wt
                new_bonds = np.maximum.reduceat(candidate, self.starts, axis=0)
                new_bonds *= 0.5
                np.maximum(new_bonds, bonds, out=new_bonds)
                change = np.fmax.reduce(new_bonds - bonds, axis=None)
                bonds = new_bonds
                sweeps += 1
                if change <= tolerance and change != np.inf:
                    break
        return bonds, sweeps, change

    def output(self, bonds: np.ndarray) -> np.ndarray:
        """``(n, columns)`` bonds in global ids, 0 where unreached or
        masked."""
        out = np.zeros((self.n, bonds.shape[1]))
        flooded = bonds[:-1]
        out[self.local] = np.where(np.isfinite(flooded), flooded, 0.0)
        return out


def percolation_bonds(
    graph: Graph,
    centers: np.ndarray,
    mask: np.ndarray | None = None,
    max_sweeps: int = 100,
    tolerance: float = 1e-12,
) -> np.ndarray:
    """Bond strength of every vertex to every centre's liquid.

    Parameters
    ----------
    graph:
        The graph to flood.
    centers:
        ``(k,)`` centre vertex ids (the ``c_i`` of §4.4).
    mask:
        Optional boolean ``(n,)`` restriction; vertices outside the mask
        neither receive nor transmit liquid (used when cutting a single
        atom during fission).
    max_sweeps:
        Bellman–Ford sweep cap.  Liquid advances one hop per sweep and
        the half-per-hop discount then converges geometrically: whole-
        graph floods take 67–83 sweeps (mean 76) on ``atc-core`` and
        79–100 (mean 96) on ``grid-64``.  A flood that hits the cap stops
        where it is, so vertices more than ``max_sweeps`` hops from every
        centre stay unreached (bond 0): 12 of the 18 whole-graph floods
        of a seeded SA and ant-colony start on ``grid-64`` at k = 8 stop
        there (see the §4.4 row of ``docs/paper_mapping.md``).
    tolerance:
        Convergence threshold on bond changes.

    Returns
    -------
    ``(n, k)`` array of bond values (0 where unreachable / masked).

    Notes
    -----
    ``bond[v, i]`` is the maximum over paths from ``c_i`` to ``v`` of the
    discounted path weight; it satisfies the fixed point
    ``bond[v] = max_u (bond[u] + w(u, v)) / 2`` over neighbours ``u`` —
    unrolled, each edge on the path contributes ``w(e) / 2^d`` exactly as
    §4.4 prescribes.  The paper leaves the centre's own bond implicit; we
    anchor it at ``2 * w_max`` (the saturation value of the recurrence,
    since ``sum w_max / 2^d <= 2 w_max``), which makes bonds strictly
    *decrease* with hop distance on uniform-weight graphs — the behaviour
    the step-by-step flood in the paper exhibits — while preserving the
    trade-off that lets a strong flow corridor out-bond a nearby weak
    centre.  The interpretation is recorded in the §4.4 row of
    ``docs/paper_mapping.md``.

    Each sweep is a Jacobi update of every entry from the previous
    sweep's bonds.  The result is bit-identical to the ``maximum.at``
    scatter kept in :mod:`repro.percolation.reference`, for any finite
    non-negative weights (``docs/performance.md``, "Percolation flood").
    """
    n = graph.num_vertices
    centers = np.asarray(centers, dtype=np.int64)
    k = centers.shape[0]
    if k < 1:
        raise ConfigurationError("percolation needs at least one centre")
    if np.unique(centers).shape[0] != k:
        raise ConfigurationError("percolation centres must be distinct")
    allowed = np.ones(n, dtype=bool) if mask is None else np.asarray(mask, bool)
    if not allowed[centers].all():
        raise ConfigurationError("percolation centres must satisfy the mask")

    flood = _Flood(graph, allowed)
    bonds, _, _ = flood.sweep(flood.start(centers), max_sweeps, tolerance)
    return flood.output(bonds)


def _color_from_bonds(
    bonds: np.ndarray, centers: np.ndarray, allowed: np.ndarray
) -> np.ndarray:
    """Assign each allowed vertex to its strongest-bond colour.

    Vertices with no positive bond to any colour (unreachable islands) get
    the colour of the nearest centre by index order — callers that care
    repair these afterwards.  Ties break towards the lower colour index,
    which is deterministic.
    """
    n, k = bonds.shape
    colors = np.argmax(bonds, axis=1).astype(np.int64)
    colors[centers] = np.arange(k)
    colors[~allowed] = -1
    return colors


def percolation_partition(
    graph: Graph,
    centers: np.ndarray,
    max_sweeps: int = 100,
) -> Partition:
    """Flood the whole graph from ``centers`` and return the partition.

    Colours that end up empty (a centre swallowed by a stronger
    neighbouring liquid can keep only itself — never empty; but masked or
    disconnected corner cases are repaired by reassigning to the nearest
    non-empty colour) are compacted away by :class:`Partition` rules —
    the result always has exactly ``len(centers)`` parts because each
    centre owns at least itself.
    """
    centers = np.asarray(centers, dtype=np.int64)
    bonds = percolation_bonds(graph, centers, max_sweeps=max_sweeps)
    allowed = np.ones(graph.num_vertices, dtype=bool)
    colors = _color_from_bonds(bonds, centers, allowed)
    return Partition(graph, colors)


def percolation_bisect(
    graph: Graph,
    vertices: np.ndarray,
    seed: SeedLike = None,
    centers: tuple[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Cut the vertex set ``vertices`` in two by two-liquid percolation.

    This is the fission cutter (paper §4.4: "we use it during fission to
    cut partitions into two").  Centres default to a random vertex plus
    the vertex with the weakest bond to it (approximating a diameter
    pair).

    Returns
    -------
    (side_a, side_b):
        Two disjoint vertex-id arrays covering ``vertices``; both
        non-empty whenever ``len(vertices) >= 2``.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.shape[0] < 2:
        raise ConfigurationError("cannot bisect fewer than 2 vertices")
    rng = ensure_rng(seed)
    mask = np.zeros(graph.num_vertices, dtype=bool)
    mask[vertices] = True
    if centers is None:
        c0 = int(vertices[rng.integers(vertices.shape[0])])
        b0 = percolation_bonds(graph, np.array([c0]), mask=mask)[:, 0]
        pool = vertices[vertices != c0]
        c1 = int(pool[np.argmin(b0[pool])])
    else:
        c0, c1 = int(centers[0]), int(centers[1])
        if c0 == c1:
            raise ConfigurationError("bisection centres must be distinct")
        if not (mask[c0] and mask[c1]):
            raise ConfigurationError("bisection centres must lie in the set")
    cpair = np.array([c0, c1], dtype=np.int64)
    bonds = percolation_bonds(graph, cpair, mask=mask)
    colors = _color_from_bonds(bonds, cpair, mask)
    side_a = vertices[colors[vertices] == 0]
    side_b = vertices[colors[vertices] == 1]
    # Unreachable-within-mask vertices default to colour 0 via argmax(0,0);
    # guarantee a proper bisection.
    if side_b.size == 0:
        side_b = np.array([c1], dtype=np.int64)
        side_a = vertices[vertices != c1]
    return side_a, side_b


def choose_spread_centers(
    graph: Graph, k: int, seed: SeedLike = None
) -> np.ndarray:
    """Pick ``k`` well-spread centres (farthest-first by bond strength).

    The paper inputs "the set of k initial vertices" as a user parameter;
    this helper chooses them automatically: start from a random vertex,
    then repeatedly add the vertex with the weakest maximum bond to the
    centres chosen so far (a 2-approximation of the k-centre spread in the
    bond metric).
    """
    n = graph.num_vertices
    if not (1 <= k <= n):
        raise ConfigurationError(f"k must be in [1, {n}], got {k}")
    rng = ensure_rng(seed)
    centers = [int(rng.integers(n))]
    if k == 1:
        return np.asarray(centers, dtype=np.int64)
    best_bond = percolation_bonds(graph, np.asarray(centers))[:, 0]
    for _ in range(k - 1):
        best_bond_safe = best_bond.copy()
        best_bond_safe[np.asarray(centers)] = np.inf
        nxt = int(np.argmin(best_bond_safe))
        centers.append(nxt)
        new_bond = percolation_bonds(graph, np.asarray([nxt]))[:, 0]
        best_bond = np.maximum(best_bond, new_bond)
    return np.asarray(centers, dtype=np.int64)


def _spread_flood(
    graph: Graph,
    k: int,
    seed: SeedLike = None,
    max_sweeps: int = 100,
    tolerance: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """Spread centres and the whole-graph flood from them, in one pass.

    Returns ``(centers, bonds)``: bit for bit ``choose_spread_centers(
    graph, k, seed)`` and ``percolation_bonds(graph, centers,
    max_sweeps=max_sweeps, tolerance=tolerance)`` (the centre choice's
    single-centre floods use the same sweep cap and tolerance), built
    from the single-centre floods the centre choice runs anyway.

    Column j of the k-centre flood is the flood from centre j alone
    (a sweep reads and writes only its own column), swept until the
    joint stop rule holds.  That rule holds at a sweep only if every
    column meets it there, and column j first meets it at its own stop
    sweep S_j, so the joint flood runs at least to M = max S_j.  Each
    column therefore joins the block at S_j, the block sweeps one sweep
    at a time up to M, and from M on the joint rule decides as in
    :func:`percolation_bonds`.  A column joining at M stopped there by
    itself (change <= tolerance, nothing newly reached) unless M is the
    sweep cap, so at M the change of the columns swept to M decides.
    """
    n = graph.num_vertices
    if not (1 <= k <= n):
        raise ConfigurationError(f"k must be in [1, {n}], got {k}")
    rng = ensure_rng(seed)
    flood = _Flood(graph, np.ones(n, dtype=bool))
    singles: list[tuple[np.ndarray, int]] = []  # (raw column, S_j)

    def single_bond(center: int) -> np.ndarray:
        column, sweeps, _ = flood.sweep(
            flood.start(np.array([center])), max_sweeps, tolerance
        )
        singles.append((column, sweeps))
        return flood.output(column)[:, 0]

    # Farthest-first exactly as choose_spread_centers.
    centers = [int(rng.integers(n))]
    best_bond = single_bond(centers[0])
    for _ in range(k - 1):
        best_bond_safe = best_bond.copy()
        best_bond_safe[np.asarray(centers)] = np.inf
        nxt = int(np.argmin(best_bond_safe))
        centers.append(nxt)
        best_bond = np.maximum(best_bond, single_bond(nxt))

    # Catch-up: add each column at its S_j and sweep the block to M.
    stops = [sweeps for _, sweeps in singles]
    last = max(stops)
    block = np.empty((singles[0][0].shape[0], 0))
    members: list[int] = []
    change = -np.inf  # no column swept to M yet: the joint rule holds
    for sweep in range(min(stops), last + 1):
        joining = [j for j in range(k) if stops[j] == sweep]
        if joining:
            block = np.concatenate(
                [block] + [singles[j][0] for j in joining], axis=1
            )
            members += joining
        if sweep < last:
            block, _, change = flood.sweep(block, 1, tolerance)
    if last < max_sweeps and not (change <= tolerance and change != np.inf):
        block, _, _ = flood.sweep(block, max_sweeps - last, tolerance)
    bonds = np.empty_like(block)
    bonds[:, members] = block
    return np.asarray(centers, dtype=np.int64), flood.output(bonds)


@dataclass
class PercolationPartitioner:
    """Standalone percolation partitioner (Table 1 row "Percolation").

    Attributes
    ----------
    k:
        Number of liquids/parts.
    balance:
        Run a greedy balance repair after flooding (floods can be very
        uneven); Table 1's percolation row uses the raw flood, so the
        default is False.
    """

    k: int
    balance: bool = False
    balance_epsilon: float = 0.25

    name = "percolation"

    def start(
        self, request: SolveRequest, checkpoint: dict | None = None
    ) -> OneShotSession:
        """Open a run session (the :class:`repro.api.Solver` protocol)."""
        return OneShotSession(self, request, checkpoint)

    def partition(self, graph: Graph, seed: SeedLike = None) -> Partition:
        """Flood from automatically spread centres."""
        centers, bonds = _spread_flood(graph, self.k, seed=seed)
        allowed = np.ones(graph.num_vertices, dtype=bool)
        colors = _color_from_bonds(bonds, centers, allowed)
        partition = Partition(graph, colors)
        if self.balance:
            from repro.refine.greedy import greedy_balance

            greedy_balance(partition, epsilon=self.balance_epsilon)
        return partition
