"""Table 1 reproduction benchmarks: every method row, timed, on the ATC
instance, with the Cut/Ncut/Mcut values attached as extra_info.

Run: ``pytest benchmarks/bench_table1.py --benchmark-only``
Full-scale CLI: ``python -m repro.bench.table1``
"""

import pytest

from repro.api import get_solver
from repro.bench.harness import run_method


def _bench(benchmark, label, solver, graph):
    result = benchmark.pedantic(
        lambda: run_method(label, solver, graph, seed=2006),
        iterations=1,
        rounds=1,
    )
    benchmark.extra_info["cut"] = result.cut
    benchmark.extra_info["ncut"] = result.ncut
    benchmark.extra_info["mcut"] = result.mcut
    benchmark.extra_info["num_parts"] = result.num_parts
    return result


class TestLinearRows:
    def test_linear_bi(self, benchmark, atc_graph, bench_k):
        _bench(benchmark, "Linear (Bi)",
               get_solver("linear", bench_k), atc_graph)

    def test_linear_bi_kl(self, benchmark, atc_graph, bench_k):
        _bench(benchmark, "Linear (Bi, KL)",
               get_solver("linear", bench_k, refine=True), atc_graph)

    def test_linear_oct_kl(self, benchmark, atc_graph, bench_k):
        _bench(benchmark, "Linear (Oct, KL)",
               get_solver("linear", bench_k, refine=True, arity=8),
               atc_graph)


class TestSpectralRows:
    @pytest.mark.parametrize("solver", ["lanczos", "rqi"])
    @pytest.mark.parametrize("arity", [2, 8])
    @pytest.mark.parametrize("refine", [False, True])
    def test_spectral(self, benchmark, atc_graph, bench_k, solver, arity, refine):
        label = (f"Spectral ({solver}, {'Oct' if arity == 8 else 'Bi'}"
                 f"{', KL' if refine else ''})")
        _bench(
            benchmark, label,
            get_solver("spectral", bench_k, solver=solver,
                       arity=arity, refine=refine),
            atc_graph,
        )


class TestMultilevelRows:
    @pytest.mark.parametrize("arity", [2, 8])
    def test_multilevel(self, benchmark, atc_graph, bench_k, arity):
        label = f"Multilevel ({'Oct' if arity == 8 else 'Bi'})"
        _bench(benchmark, label,
               get_solver("multilevel", bench_k, arity=arity), atc_graph)


class TestHeuristicRows:
    def test_percolation(self, benchmark, atc_graph, bench_k):
        _bench(benchmark, "Percolation",
               get_solver("percolation", bench_k), atc_graph)


class TestMetaheuristicRows:
    def test_simulated_annealing(self, benchmark, atc_graph, bench_k, meta_budget):
        _bench(benchmark, "Simulated annealing",
               get_solver("simulated-annealing", bench_k,
                          time_budget=meta_budget),
               atc_graph)

    def test_ant_colony(self, benchmark, atc_graph, bench_k, meta_budget):
        _bench(benchmark, "Ant colony",
               get_solver("ant-colony", bench_k,
                          time_budget=meta_budget, iterations=10**9),
               atc_graph)

    def test_fusion_fission(self, benchmark, atc_graph, bench_k, meta_budget):
        _bench(benchmark, "Fusion Fission",
               get_solver("fusion-fission", bench_k,
                          time_budget=meta_budget, max_steps=10**9),
               atc_graph)
