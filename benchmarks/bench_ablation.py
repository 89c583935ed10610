"""Ablation benchmarks for fusion–fission's design choices (DESIGN.md §4).

Each ablation disables one ingredient of the method and records the Mcut
achieved under the same budget, quantifying what the ingredient buys:

* binding-energy scaling off  (``scale_energy=False``)
* law learning off            (``learn_laws=False``)
* percolation fission vs the cheap alternative is covered indirectly by
  the operators' unit tests; here we ablate the part-count headroom
  (``max_parts_factor=1.0`` pins k, removing the method's signature move).

Run: ``pytest benchmarks/bench_ablation.py --benchmark-only``
"""

from repro.api import SolveRequest
from repro.fusionfission.partitioner import FusionFissionPartitioner


def _run(benchmark, graph, k, budget, **options):
    ff = FusionFissionPartitioner(
        k=k, time_budget=budget, max_steps=10**9, **options
    )
    request = SolveRequest(graph=graph, k=k, seed=2006)
    report = benchmark.pedantic(
        lambda: ff.start(request).run().metrics, iterations=1, rounds=1
    )
    benchmark.extra_info["mcut"] = round(report.mcut, 3)
    benchmark.extra_info["cut"] = round(report.cut, 1)
    benchmark.extra_info["options"] = {
        key: value for key, value in options.items()
    }
    return report


def test_full_method(benchmark, atc_graph, bench_k, meta_budget):
    _run(benchmark, atc_graph, bench_k, meta_budget)


def test_no_energy_scaling(benchmark, atc_graph, bench_k, meta_budget):
    _run(benchmark, atc_graph, bench_k, meta_budget, scale_energy=False)


def test_no_law_learning(benchmark, atc_graph, bench_k, meta_budget):
    _run(benchmark, atc_graph, bench_k, meta_budget, learn_laws=False)


def test_pinned_part_count(benchmark, atc_graph, bench_k, meta_budget):
    # max_parts_factor=1.0 clamps k at the target: fission is only allowed
    # when a fusion just freed headroom — the "changing number of
    # partitions" ingredient is effectively removed.
    _run(benchmark, atc_graph, bench_k, meta_budget, max_parts_factor=1.0)


def test_wide_part_headroom(benchmark, atc_graph, bench_k, meta_budget):
    _run(benchmark, atc_graph, bench_k, meta_budget, max_parts_factor=2.0)
