"""Unit tests for simulated annealing and cooling schedules."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.annealing import (
    GeometricCooling,
    LinearCooling,
    SimulatedAnnealingPartitioner,
    anneal,
)
from repro.api import SolveRequest
from repro.common.exceptions import ConfigurationError
from repro.graph import grid_graph, weighted_caveman_graph
from repro.partition import McutObjective, Partition


def _solve(sa, graph, seed):
    request = SolveRequest(graph=graph, k=sa.k, seed=seed)
    return sa.start(request).run().partition


class TestSchedules:
    def test_geometric_ratio_from_range(self):
        c = GeometricCooling(tmax=10.0, tmin=2.0)
        assert c.ratio == pytest.approx(0.8)
        assert c.next(10.0) == pytest.approx(8.0)

    def test_geometric_clamps_degenerate_tmin_zero(self):
        c = GeometricCooling(tmax=1.0, tmin=0.0)
        # The paper's formula gives ratio 1.0 at tmin=0; clamped.
        assert c.ratio == pytest.approx(0.95)

    def test_geometric_freezes(self):
        c = GeometricCooling(tmax=1.0, tmin=0.1)
        t = c.initial()
        for _ in range(200):
            t = c.next(t)
        assert c.frozen(t)

    def test_linear_steps(self):
        c = LinearCooling(tmax=1.0, tmin=0.0, steps=10)
        assert c.next(1.0) == pytest.approx(0.9)
        t = c.initial()
        for _ in range(10):
            t = c.next(t)
        assert c.frozen(t)

    def test_invalid_ranges(self):
        with pytest.raises(Exception):
            GeometricCooling(tmax=1.0, tmin=2.0)
        with pytest.raises(Exception):
            LinearCooling(tmax=1.0, tmin=0.0, steps=0)


class TestAnneal:
    def test_improves_caveman(self, rng):
        g = weighted_caveman_graph(4, 6)
        start = Partition(g, rng.integers(0, 4, 24))
        obj = McutObjective()
        before = obj.value(start)
        best, energy = anneal(
            start, objective=obj, tmax=2.0, max_steps=8000, seed=0
        )
        assert energy <= before
        assert energy == pytest.approx(obj.value(best))
        best.check()

    def test_finds_caveman_optimum(self, rng):
        g = weighted_caveman_graph(4, 6)
        start = Partition(g, rng.integers(0, 4, 24))
        best, _ = anneal(start, tmax=2.0, max_steps=30000, seed=1)
        assert best.edge_cut() == pytest.approx(4.0)

    def test_preserves_k(self, rng):
        g = grid_graph(6, 6)
        start = Partition(g, rng.integers(0, 5, 36))
        best, _ = anneal(start, max_steps=3000, seed=0)
        assert best.num_parts == 5

    def test_max_steps_respected(self, rng):
        g = grid_graph(6, 6)
        start = Partition(g, rng.integers(0, 3, 36))
        # Must terminate promptly even with huge temperature range.
        anneal(start, tmax=100.0, max_steps=100, seed=0)

    def test_time_budget_reheats(self, rng):
        g = grid_graph(6, 6)
        start = Partition(g, rng.integers(0, 3, 36))
        import time

        t0 = time.perf_counter()
        anneal(start, tmax=0.5, time_budget=0.5, equilibrium_refusals=2,
               seed=0)
        elapsed = time.perf_counter() - t0
        # With reheating the budget is used (not frozen after ~ms).
        assert 0.3 <= elapsed <= 5.0

    def test_callback_fires_decreasing(self, rng):
        g = weighted_caveman_graph(3, 6)
        start = Partition(g, rng.integers(0, 3, 18))
        seen = []
        anneal(start, max_steps=5000, seed=2,
               on_improvement=lambda e, p: seen.append(e))
        assert seen == sorted(seen, reverse=True)
        assert len(seen) >= 1

    def test_invalid_temperatures(self, grid_partition):
        with pytest.raises(ConfigurationError):
            anneal(grid_partition, tmax=0.0)
        with pytest.raises(ConfigurationError):
            anneal(grid_partition, tmax=1.0, tmin=1.0)


class TestPartitionerInterface:
    def test_returns_k_parts(self):
        g = weighted_caveman_graph(4, 6)
        sa = SimulatedAnnealingPartitioner(k=4, max_steps=4000)
        p = _solve(sa, g, seed=0)
        assert p.num_parts == 4
        p.check()

    def test_deterministic_given_seed(self):
        g = weighted_caveman_graph(3, 5)
        sa = SimulatedAnnealingPartitioner(k=3, max_steps=2000)
        p1 = _solve(sa, g, seed=7)
        p2 = _solve(sa, g, seed=7)
        assert np.array_equal(p1.assignment, p2.assignment)

    def test_any_k_allowed(self):
        # Metaheuristics handle non-power-of-two k (paper §6).
        g = grid_graph(6, 6)
        sa = SimulatedAnnealingPartitioner(k=5, max_steps=1500)
        p = _solve(sa, g, seed=0)
        assert p.num_parts == 5


#: Runs one unbudgeted SA session in a child process (argv: case id)
#: and prints the partition's part count.
_UNBUDGETED = """
import sys
from repro.api import SolveRequest, get_solver
from repro.graph import Graph, weighted_caveman_graph
disconnected = Graph.from_edges(10, [
    (0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0),
    (3, 4, 1.0), (4, 5, 1.0), (5, 6, 1.0),
    (7, 8, 1.0), (8, 9, 1.0),
])
graph, k = {
    "k1": (weighted_caveman_graph(3, 4), 1),
    "k-equals-n": (weighted_caveman_graph(3, 4), 12),
    "edgeless": (Graph.from_edges(8, []), 3),
    "disconnected-zero-cut": (disconnected, 3),
}[sys.argv[1]]
session = get_solver("simulated-annealing", k).start(
    SolveRequest(graph=graph, k=k, seed=0))
print(session.run().partition.num_parts, k)
"""


class TestTermination:
    """Without max_steps or time_budget only cooling ends a run, and
    cooling needs refused moves; these inputs reach states whose steps
    never refuse, and the run must still end."""

    @pytest.mark.parametrize("case", [
        "k1", "k-equals-n", "edgeless", "disconnected-zero-cut",
    ])
    def test_unbudgeted_run_terminates(self, case):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", _UNBUDGETED, case],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        num_parts, k = proc.stdout.split()
        assert num_parts == k
