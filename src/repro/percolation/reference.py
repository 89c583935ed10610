"""The pre-rewrite percolation flood, kept verbatim as a reference.

``percolation_bonds_reference`` is the ``maximum.at`` scatter sweep that
:func:`repro.percolation.percolation.percolation_bonds` replaced.  It
exists for

* **equivalence tests** — the optimized flood must return bit-identical
  bonds (compared as int64 views, so ``-0.0`` vs ``0.0`` counts), after
  the same number of sweeps, and raise the same errors;
* **the perf-regression harness** — ``repro bench perf`` reports the
  ``percolation_bonds`` speedup of optimized over reference.

Semantics are frozen; fix bugs in :mod:`repro.percolation.percolation`
instead.  Nothing on a solve path imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.common.exceptions import ConfigurationError
from repro.graph.graph import Graph

__all__ = ["percolation_bonds_reference"]


def percolation_bonds_reference(
    graph: Graph,
    centers: np.ndarray,
    mask: np.ndarray | None = None,
    max_sweeps: int = 100,
    tolerance: float = 1e-12,
) -> np.ndarray:
    """The ``maximum.at`` scatter flood (same contract and errors as
    :func:`repro.percolation.percolation.percolation_bonds`).

    Each sweep pushes ``(bond[src] + w) / 2`` along every arc with both
    ends in the mask, scatters the per-destination maximum into a copy of
    the bonds, re-anchors the centres, and stops once no entry is newly
    reached and no reached entry moved by more than ``tolerance``.
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

    w_max = float(graph.weights.max()) if graph.weights.size else 1.0
    anchor = 2.0 * max(w_max, 1e-12)
    # -inf marks "liquid not yet arrived"; it propagates harmlessly through
    # the (b + w)/2 update, so bonds only ever flow outward from centres.
    bonds = np.full((n, k), -np.inf)
    bonds[centers, np.arange(k)] = anchor
    owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    valid_arc = allowed[owner] & allowed[graph.indices]
    src = owner[valid_arc]
    dst = graph.indices[valid_arc]
    wt = graph.weights[valid_arc]
    for _ in range(max_sweeps):
        # candidate[dst] = (bonds[src] + w) / 2, maximised per dst.
        candidate = (bonds[src] + wt[:, None]) * 0.5
        new_bonds = bonds.copy()
        np.maximum.at(new_bonds, dst, candidate)
        # Centres keep their anchor bond to their own colour regardless.
        new_bonds[centers, np.arange(k)] = anchor
        old_finite = np.isfinite(bonds)
        if not (np.isfinite(new_bonds) & ~old_finite).any():
            delta = np.where(old_finite, new_bonds, 0.0) - np.where(
                old_finite, bonds, 0.0
            )
            if float(np.abs(delta).max(initial=0.0)) <= tolerance:
                bonds = new_bonds
                break
        bonds = new_bonds
    bonds = np.where(np.isfinite(bonds), bonds, 0.0)
    bonds[~allowed] = 0.0
    return bonds
