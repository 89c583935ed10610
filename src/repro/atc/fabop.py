"""FABOP block design — the application-level API (paper §5).

"The FABOP project consists in cutting the European airspace into blocks …
only based on flows of aircraft and not on borders": given a
:class:`~repro.atc.sectors.SectorNetwork` and a block count ``k``, build
functional airspace blocks that maximise intra-block flows and minimise
inter-block flows (the Mcut criterion), with any partitioning method in
the library.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.exceptions import ConfigurationError
from repro.common.rng import SeedLike
from repro.atc.sectors import SectorNetwork
from repro.partition.metrics import PartitionReport, evaluate_partition
from repro.partition.partition import Partition

__all__ = ["BlockDesign", "build_blocks", "block_report"]


@dataclass
class BlockDesign:
    """A functional-airspace-block layout.

    Attributes
    ----------
    network:
        The sector network the design partitions.
    partition:
        The underlying graph partition (part = block).
    method:
        Name of the algorithm that produced it.
    """

    network: SectorNetwork
    partition: Partition
    method: str

    @property
    def num_blocks(self) -> int:
        """Number of blocks."""
        return self.partition.num_parts

    def block_members(self, block: int) -> np.ndarray:
        """Sector ids of one block."""
        return self.partition.members(block)

    def intra_block_flow(self) -> float:
        """Total flow handled inside blocks (coordination-friendly)."""
        return float(self.partition.internal.sum())

    def inter_block_flow(self) -> float:
        """Total flow crossing block boundaries (coordination-hostile)."""
        return self.partition.edge_cut()

    def containment(self) -> float:
        """Fraction of total flow kept inside blocks (higher is better)."""
        total = self.network.total_flow()
        if total <= 0:
            return 1.0
        return self.intra_block_flow() / total

    def border_crossing_blocks(self) -> int:
        """How many blocks span more than one country — the FABOP novelty
        (current European blocks "almost never cross countries border")."""
        count = 0
        for block in range(self.num_blocks):
            members = self.block_members(block)
            countries = {self.network.country_of(int(s)) for s in members}
            if len(countries) > 1:
                count += 1
        return count


def build_blocks(
    network: SectorNetwork,
    k: int = 32,
    method: str = "fusion-fission",
    seed: SeedLike = None,
    **method_options,
) -> BlockDesign:
    """Design ``k`` functional airspace blocks for ``network``.

    Parameters
    ----------
    network:
        The sector network.
    k:
        Block count (the paper studies k = 32).
    method:
        Any registered method name from :mod:`repro.api.registry`
        (``"fusion-fission"``, ``"simulated-annealing"``, ``"ant-colony"``,
        ``"multilevel"``, ``"spectral"``, ``"linear"``, ``"percolation"``).
    method_options:
        Extra keyword arguments forwarded to the method constructor.
    """
    from repro.api import SolveRequest, get_solver

    solver = get_solver(method, k, **method_options)
    partition = solver.start(
        SolveRequest(graph=network.graph, k=k, seed=seed)
    ).run().partition
    if partition.num_parts != k:
        raise ConfigurationError(
            f"method {method!r} returned {partition.num_parts} blocks, "
            f"expected {k}"
        )
    return BlockDesign(network=network, partition=partition, method=method)


def block_report(design: BlockDesign) -> dict:
    """Domain-level summary of a block design.

    Combines the generic :class:`~repro.partition.PartitionReport` with
    the ATC-specific containment and border statistics.
    """
    report: PartitionReport = evaluate_partition(design.partition)
    return {
        "method": design.method,
        "num_blocks": design.num_blocks,
        "mcut": report.mcut,
        "ncut": report.ncut,
        "cut": report.cut,
        "inter_block_flow": design.inter_block_flow(),
        "intra_block_flow": design.intra_block_flow(),
        "containment": design.containment(),
        "blocks_crossing_borders": design.border_crossing_blocks(),
        "connected_blocks": report.num_connected_parts,
        "min_block_sectors": report.min_size,
        "max_block_sectors": report.max_size,
    }
