#!/usr/bin/env python3
"""Parallel-computing load balancing: partition a 2-D mesh for p processors.

The classic graph-partitioning application the paper opens with: "divide
the vertices into several sets of roughly equal size in such a way that the
weight of edges between sets is as small as possible … to reduce the
communication between processors".  This example partitions a finite-
difference-style grid mesh for 16 processors with the multilevel method and
reports the communication volume and load balance, then shows what KL
refinement buys (paper §2.3: "results are generally 10 to 30% better").

Run:  python examples/mesh_load_balance.py
"""

from repro import SolveRequest, get_solver
from repro.graph import grid_graph
from repro.partition import imbalance


def main() -> None:
    mesh = grid_graph(40, 40)  # 1600-cell computational mesh
    p = 16
    print(f"mesh: {mesh.num_vertices} cells, {mesh.num_edges} couplings, "
          f"{p} processors\n")

    rows = [
        ("linear (row-order blocks)", "linear", {}),
        ("linear + KL", "linear", {"refine": True}),
        ("spectral bisection", "spectral", {}),
        ("spectral + KL", "spectral", {"refine": True}),
        ("multilevel", "multilevel", {}),
    ]
    request = SolveRequest(graph=mesh, k=p, seed=7)
    print(f"{'method':<28} {'comm volume':>12} {'imbalance':>10} {'max part':>9}")
    baseline = None
    for label, method, options in rows:
        result = get_solver(method, p, **options).start(request).run()
        partition, report = result.partition, result.metrics
        if baseline is None:
            baseline = report.edge_cut
        gain = f"(-{100 * (1 - report.edge_cut / baseline):.0f}%)" if baseline else ""
        print(
            f"{label:<28} {report.edge_cut:>12.0f} "
            f"{imbalance(partition):>10.3f} {report.max_size:>9} {gain}"
        )

    print("\ncommunication volume = weight of edges crossing processor "
          "boundaries (lower is better; imbalance 1.0 = perfect).")


if __name__ == "__main__":
    main()
