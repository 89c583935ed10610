"""repro — a faithful reimplementation of Bichot's fusion–fission
metaheuristic for graph partitioning (IPPS 2006) and every system it is
evaluated against.

Quickstart
----------
>>> from repro import core_area_graph, solve
>>> graph = core_area_graph(seed=2006)          # 762 sectors, 3165 flows
>>> report = solve(graph, k=32, method="fusion-fission",
...                seed=0, max_steps=2000)      # doctest: +SKIP
>>> blocks = report.partition                   # doctest: +SKIP

(:func:`repro.api.solve` runs any solver family through the unified
session API — event streaming, budgets, checkpoint/resume; see
``docs/api.md``.  ``get_solver(method, k).start(request)`` is the one
way to run a solver.)

Package map
-----------
``repro.graph``          CSR graph substrate, I/O, generators
``repro.partition``      partition state + Cut/Ncut/Mcut objectives
``repro.refine``         Kernighan–Lin / Fiduccia–Mattheyses refinement
``repro.spectral``       Lanczos & RQI spectral partitioners
``repro.multilevel``     coarsen / partition / uncoarsen pipeline
``repro.percolation``    the paper's flooding heuristic
``repro.annealing``      simulated annealing (paper §3.1 adaptation)
``repro.antcolony``      k competing ant colonies (paper §3.2 adaptation)
``repro.fusionfission``  the paper's contribution (§4)
``repro.atc``            the FABOP air-traffic application (§5)
``repro.bench``          Table-1 / Figure-1 reproduction harness
``repro.engine``         parallel portfolio runner over all solver families
``repro.api``            solver registry, sessions, events, checkpoints
"""

from repro.graph import Graph, GraphBuilder
from repro.partition import (
    Partition,
    CutObjective,
    NcutObjective,
    McutObjective,
    get_objective,
    evaluate_partition,
)
from repro.refine import kl_refine, fm_refine, greedy_balance
from repro.spectral import SpectralPartitioner, LinearPartitioner
from repro.multilevel import MultilevelPartitioner
from repro.percolation import PercolationPartitioner
from repro.annealing import SimulatedAnnealingPartitioner
from repro.antcolony import AntColonyPartitioner
from repro.fusionfission import FusionFissionPartitioner
from repro.atc import core_area_graph, core_area_network, build_blocks, block_report
from repro.engine import (
    PartitionProblem,
    PortfolioResult,
    PortfolioRunner,
    SolverSpec,
)
from repro.graph.analysis import modularity, conductance
from repro.viz import render_partition_svg, render_traces_svg
from repro.api import (
    Budget,
    SolveReport,
    SolveRequest,
    SolveSession,
    get_solver,
    resume,
    solve,
)

__version__ = "1.2.0"

__all__ = [
    "Graph",
    "GraphBuilder",
    "Partition",
    "CutObjective",
    "NcutObjective",
    "McutObjective",
    "get_objective",
    "evaluate_partition",
    "kl_refine",
    "fm_refine",
    "greedy_balance",
    "SpectralPartitioner",
    "LinearPartitioner",
    "MultilevelPartitioner",
    "PercolationPartitioner",
    "SimulatedAnnealingPartitioner",
    "AntColonyPartitioner",
    "FusionFissionPartitioner",
    "core_area_graph",
    "core_area_network",
    "build_blocks",
    "block_report",
    "PartitionProblem",
    "SolverSpec",
    "PortfolioRunner",
    "PortfolioResult",
    "modularity",
    "conductance",
    "render_partition_svg",
    "render_traces_svg",
    "Budget",
    "SolveRequest",
    "SolveReport",
    "SolveSession",
    "get_solver",
    "solve",
    "resume",
    "__version__",
]
