"""Unit tests for the competing ant colonies metaheuristic."""

import numpy as np
import pytest

from repro.antcolony import AntColonyPartitioner, PheromoneField, ant_colony_search
from repro.api import SolveRequest
from repro.common.exceptions import ConfigurationError
from repro.graph import Graph, grid_graph, path_graph, weighted_caveman_graph
from repro.partition import Partition


def _solve(ac, graph, seed):
    request = SolveRequest(graph=graph, k=ac.k, seed=seed)
    return ac.start(request).run().partition


class TestPheromoneField:
    def test_shape(self, grid):
        f = PheromoneField(grid, 3)
        assert f.values.shape == (3, grid.num_edges)

    def test_arc_edge_alignment(self, triangle):
        f = PheromoneField(triangle, 1)
        # Arc j connects owner(j) -> indices[j]; its undirected edge id must
        # reference the same endpoints.
        u, v, _ = triangle.edge_arrays()
        owner = np.repeat(np.arange(3), np.diff(triangle.indptr))
        for j in range(triangle.indices.shape[0]):
            e = f.arc_edge[j]
            ends = {int(u[e]), int(v[e])}
            assert ends == {int(owner[j]), int(triangle.indices[j])}

    def test_deposit_and_evaporate(self, triangle):
        f = PheromoneField(triangle, 2)
        f.deposit(0, np.array([0, 1]), 2.0)
        assert f.values[0].sum() == pytest.approx(4.0)
        f.evaporate(0.5)
        assert f.values[0].sum() == pytest.approx(2.0)

    def test_evaporate_rejects_bad_rate(self, triangle):
        f = PheromoneField(triangle, 1)
        with pytest.raises(ConfigurationError):
            f.evaporate(1.5)

    def test_ownership_majority(self, path_graph_fixture=None):
        g = path_graph(3)  # edges (0,1), (1,2)
        f = PheromoneField(g, 2)
        f.deposit(0, np.array([0]), 5.0)  # colony 0 marks edge (0,1)
        f.deposit(1, np.array([1]), 3.0)  # colony 1 marks edge (1,2)
        own = f.vertex_ownership()
        assert own[0] == 0
        assert own[2] == 1
        assert own[1] == 0  # 5 > 3 on the shared vertex

    def test_silent_vertices_unowned(self):
        g = path_graph(4)
        f = PheromoneField(g, 2)
        assert (f.vertex_ownership() == -1).all()

    def test_incident_edges(self, triangle):
        f = PheromoneField(triangle, 1)
        inc = f.incident_edges(0)
        assert inc.shape == (2,)


class TestSearch:
    def test_finds_caveman_optimum(self):
        g = weighted_caveman_graph(4, 6)
        best, energy = ant_colony_search(g, 4, iterations=60, seed=0)
        assert best.num_parts == 4
        assert best.edge_cut() == pytest.approx(4.0)

    def test_never_worse_than_initial(self):
        g = grid_graph(8, 8)
        from repro.percolation import PercolationPartitioner
        from repro.partition import McutObjective

        init = PercolationPartitioner(k=4).partition(g, seed=3)
        obj = McutObjective()
        initial_energy = obj.value(init)
        _, energy = ant_colony_search(
            g, 4, iterations=30, seed=3, initial_partition=init.copy()
        )
        assert energy <= initial_energy + 1e-9

    def test_daemon_disabled_still_works(self):
        g = weighted_caveman_graph(3, 5)
        best, _ = ant_colony_search(g, 3, iterations=40, seed=1,
                                    daemon_moves=0)
        assert best.num_parts == 3

    def test_rejects_mismatched_initial(self, grid):
        init = Partition(grid, np.zeros(64, dtype=np.int64))
        with pytest.raises(ConfigurationError):
            ant_colony_search(grid, 4, initial_partition=init)

    def test_rejects_bad_k(self, triangle):
        with pytest.raises(ConfigurationError):
            ant_colony_search(triangle, 99)

    def test_callback_monotone(self):
        g = weighted_caveman_graph(3, 6)
        seen = []
        ant_colony_search(g, 3, iterations=50, seed=5,
                          on_improvement=lambda e, p: seen.append(e))
        assert seen == sorted(seen, reverse=True)


class TestPartitionerInterface:
    def test_returns_k_parts(self):
        g = weighted_caveman_graph(4, 5)
        p = _solve(AntColonyPartitioner(k=4, iterations=40), g, seed=0)
        assert p.num_parts == 4
        p.check()

    def test_deterministic_given_seed(self):
        g = weighted_caveman_graph(3, 5)
        ac = AntColonyPartitioner(k=3, iterations=25)
        p1 = _solve(ac, g, seed=11)
        p2 = _solve(ac, g, seed=11)
        assert np.array_equal(p1.assignment, p2.assignment)
