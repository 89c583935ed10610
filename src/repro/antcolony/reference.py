"""The pre-memo ant motion loop, kept verbatim as a reference.

``motion_reference`` is the per-hop walk that
:meth:`repro.antcolony.colony.AntColonyRun._motion` replaced: every hop
recomputes the attractiveness of the ant's incident edges and draws
with ``rng.choice(p=...)``.  It exists for

* **equivalence tests** — the memoized motion must produce the same
  walks and leave the rng in the same state, iteration after
  iteration;
* **the perf-regression harness** — ``repro bench perf`` reports the
  ``aco_motion`` speedup of :class:`AntColonyRunReference` (this loop)
  over :class:`~repro.antcolony.colony.AntColonyRun`.

Semantics are frozen; fix bugs in :mod:`repro.antcolony.colony`
instead.  Nothing on a solve path imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.antcolony.colony import AntColonyRun

__all__ = ["AntColonyRunReference", "motion_reference"]


def motion_reference(run: AntColonyRun) -> list[tuple[int, list[int]]]:
    """Step 1 of one colony iteration of ``run``: ``(colony, edge ids)``
    per ant walk, drawing from ``run.rng``."""
    graph, k, rng, field = run.graph, run.k, run.rng, run.field
    w_edges = graph.weights  # per-arc weights (CSR order)
    paths: list[tuple[int, list[int]]] = []  # (colony, edge ids)
    for colony in range(k):
        territory = np.flatnonzero(run.current_assignment == colony)
        if territory.size == 0:
            territory = np.array([int(rng.integers(graph.num_vertices))])
        starts = territory[rng.integers(territory.size, size=run.num_ants)]
        for s in starts:
            v = int(s)
            walked: list[int] = []
            for _step in range(run.walk_length):
                lo, hi = graph.indptr[v], graph.indptr[v + 1]
                if hi == lo:
                    break
                edge_ids = field.arc_edge[lo:hi]
                tau = field.values[colony, edge_ids]
                heur = w_edges[lo:hi]
                attract = (
                    np.power(tau + 1e-12, run.pheromone_power)
                    * np.power(heur + 1e-12, run.heuristic_power)
                )
                attract = attract + run.exploration_bonus * (tau <= 0.0)
                total = float(attract.sum())
                if total <= 0.0:
                    break
                choice = int(rng.choice(hi - lo, p=attract / total))
                walked.append(int(edge_ids[choice]))
                v = int(graph.indices[lo + choice])
            paths.append((colony, walked))
    return paths


class AntColonyRunReference(AntColonyRun):
    """:class:`~repro.antcolony.colony.AntColonyRun` with the reference
    motion; everything after the walks is shared."""

    def _motion(self) -> list[tuple[int, list[int]]]:
        return motion_reference(self)
