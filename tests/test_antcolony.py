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


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit patterns (so ``-0.0`` vs ``0.0`` counts as a mismatch)."""
    return a.shape == b.shape and np.array_equal(
        a.view(np.int64), b.view(np.int64)
    )


def _fuzz_graph(rng: np.random.Generator) -> Graph:
    """A tiny graph, maybe disconnected and with isolated vertices, whose
    weights are unit, zero-or-float, or arbitrary floats."""
    n = int(rng.integers(1, 11))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = rng.random(len(pairs)) < rng.uniform(0.0, 0.7)
    kind = rng.integers(3)
    edges = []
    for u, v in (p for p, kept in zip(pairs, keep) if kept):
        if kind == 0:
            w = 1.0
        elif kind == 1:
            w = float(rng.choice([0.0, rng.uniform(0.0, 5.0)]))
        else:
            w = float(rng.exponential(2.0))
        edges.append((u, v, w))
    return Graph.from_edges(n, edges)


def _step_recording(run) -> tuple[bool, list]:
    """One ``run.step()``, returning its result and the walks of its
    motion."""
    walks = []
    motion = run._motion

    def recording():
        walks.append(motion())
        return walks[-1]

    run._motion = recording
    try:
        more = run.step()
    finally:
        del run._motion
    return more, walks


def _assert_lockstep(graph, k, seed, **options) -> int:
    """Step the memoized and the reference run side by side; return the
    iterations run."""
    from repro.antcolony.colony import AntColonyRun
    from repro.antcolony.reference import AntColonyRunReference

    got = AntColonyRun(graph, k, seed=seed, **options)
    want = AntColonyRunReference(graph, k, seed=seed, **options)
    iterations = 0
    while True:
        more_got, walks_got = _step_recording(got)
        more_want, walks_want = _step_recording(want)
        assert walks_got == walks_want, iterations
        assert got.rng.bit_generator.state == want.rng.bit_generator.state
        assert _bitwise_equal(got.field.values, want.field.values)
        assert more_got == more_want
        iterations += 1
        if not more_got:
            break
    assert np.array_equal(got.best.assignment, want.best.assignment)
    assert got.best_energy == want.best_energy
    return iterations


class TestMotionReferenceParity:
    """The per-step memoized motion against the frozen per-hop loop in
    :mod:`repro.antcolony.reference`."""

    def test_seeded_fuzz_is_identical(self):
        rng = np.random.default_rng(20062)
        for case in range(500):
            g = _fuzz_graph(rng)
            k = int(rng.integers(1, g.num_vertices + 1))
            options = dict(
                num_ants=int(rng.choice([1, 2, 3, 8])),
                walk_length=int(rng.choice([1, 2, 5, 8])),
                pheromone_power=float(rng.choice([0.5, 1.0, 2.0])),
                heuristic_power=float(rng.choice([0.5, 1.0, 2.0])),
                exploration_bonus=float(rng.choice([0.0, 0.5])),
                daemon_moves=int(rng.choice([0, 200])),
                iterations=3,
            )
            seed = int(rng.integers(2**32))
            try:
                _assert_lockstep(g, k, seed, **options)
            except AssertionError as exc:
                raise AssertionError(f"case {case}: {options}") from exc

    def test_atc_core_at_k32(self):
        from repro.workloads import build_instance

        g = build_instance("atc-core")
        assert _assert_lockstep(g, 32, seed=5, iterations=3) == 3

    @pytest.mark.parametrize("options, weight", [
        ({"exploration_bonus": -1.0}, 1.0),  # negative p entries
        ({"heuristic_power": 2.0}, 1e200),  # total overflows to inf
        ({"exploration_bonus": -1e-12, "pheromone_power": 2.0}, 0.0),
    ])
    def test_same_errors_as_reference(self, options, weight):
        """Where ``rng.choice`` rejects ``p``, the memoized motion calls
        it too and raises the same error."""
        from repro.antcolony.colony import AntColonyRun
        from repro.antcolony.reference import AntColonyRunReference

        g = Graph.from_edges(
            6, [(u, v, weight) for u in range(6) for v in range(u + 1, 6)]
        )
        errors = []
        for cls in (AntColonyRun, AntColonyRunReference):
            run = cls(g, 2, seed=3, iterations=3, **options)
            with np.errstate(all="ignore"), pytest.raises(ValueError) as err:
                while run.step():
                    pass
            errors.append((str(err.value), run.rng.bit_generator.state))
        assert errors[0] == errors[1]

    def test_checkpoint_resume_mid_run_matches_reference(self, monkeypatch):
        import json

        from repro.antcolony.colony import AntColonyRun
        from repro.antcolony.reference import motion_reference
        from repro.api import get_solver, resume

        g = weighted_caveman_graph(5, 6)
        solver = get_solver("ant-colony", 5, iterations=6)
        request = SolveRequest(graph=g, k=5, seed=4)
        with monkeypatch.context() as patched:
            patched.setattr(AntColonyRun, "_motion", motion_reference)
            want = solver.start(request)
            want.run()
        half = solver.start(request)
        half.run(max_iterations=3)
        got = resume(g, json.loads(json.dumps(half.checkpoint())))
        got.run()
        assert got.status == want.status == "done"
        assert got.rng.bit_generator.state == want.rng.bit_generator.state
        assert _bitwise_equal(got._run.field.values, want._run.field.values)
        assert np.array_equal(
            got.partition.assignment, want.partition.assignment
        )
