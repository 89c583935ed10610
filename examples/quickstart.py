#!/usr/bin/env python3
"""Quickstart: partition a graph with fusion-fission and compare baselines.

Builds a small community-structured graph, partitions it with the paper's
fusion-fission metaheuristic and with the classic baselines, and prints the
three criteria of the paper (Cut, Ncut, Mcut) for each method.

Run:  python examples/quickstart.py
"""

from repro import SolveRequest, get_solver
from repro.graph import weighted_caveman_graph


def main() -> None:
    # Eight tightly-knit "caves" joined by weak links: the planted optimum
    # puts one cave per part.
    graph = weighted_caveman_graph(num_caves=8, cave_size=10,
                                   intra_weight=10.0, inter_weight=1.0)
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges\n")

    methods = [
        ("spectral (Lanczos, bisection)", "spectral", {}),
        ("multilevel (heavy-edge + FM)", "multilevel", {}),
        ("fusion-fission (paper §4)", "fusion-fission", {"max_steps": 3000}),
    ]
    request = SolveRequest(graph=graph, k=8, seed=42)
    print(f"{'method':<32} {'Cut':>8} {'Ncut':>8} {'Mcut':>8} {'balanced sizes'}")
    for label, method, options in methods:
        # One entry point for every method: build by name, start a
        # session, run it to completion.
        report = get_solver(method, 8, **options).start(request).run().metrics
        sizes = "/".join(str(s) for s in report.part_sizes)
        print(
            f"{label:<32} {report.cut:>8.1f} {report.ncut:>8.3f} "
            f"{report.mcut:>8.3f} {sizes}"
        )
    print("\nThe planted optimum cuts only the 8 weak inter-cave links "
          "(Cut = 16, each cross edge counted twice).")


if __name__ == "__main__":
    main()
