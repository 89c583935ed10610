"""Air Traffic Control application (paper §5).

The FABOP study partitions the European "country core area" — the airspace
sectors of the 11 highest-flow countries — into functional airspace blocks
by maximising aircraft flows *within* blocks and minimising flows *between*
blocks, i.e. k-partitioning the sector graph under the Mcut criterion.

The paper's instance (762 sectors, 3 165 flow edges) is built from
proprietary Eurocontrol data; :func:`repro.atc.europe.core_area_graph`
generates a synthetic stand-in with the same vertex/edge counts, geographic
community structure and heavy-tailed flow weights (the substitution is
documented in ``docs/paper_mapping.md``, "Conventions that differ from the
paper").
"""

from repro.atc.sectors import Sector, SectorNetwork
from repro.atc.traffic import gravity_flows, traffic_intensities
from repro.atc.europe import COUNTRIES, core_area_graph, core_area_network
from repro.atc.fabop import BlockDesign, build_blocks, block_report

__all__ = [
    "Sector",
    "SectorNetwork",
    "gravity_flows",
    "traffic_intensities",
    "COUNTRIES",
    "core_area_graph",
    "core_area_network",
    "BlockDesign",
    "build_blocks",
    "block_report",
]
