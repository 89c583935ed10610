"""Unit tests for the percolation flooding heuristic (paper §4.4)."""

import numpy as np
import pytest

from repro.common.exceptions import ConfigurationError
from repro.graph import Graph, grid_graph, path_graph, weighted_caveman_graph
from repro.percolation import (
    PercolationPartitioner,
    choose_spread_centers,
    percolation_bisect,
    percolation_bonds,
    percolation_partition,
)
from repro.percolation.reference import percolation_bonds_reference


class TestBonds:
    def test_fixed_point_property(self):
        """bond[v] == max over neighbours u of (bond[u] + w)/2 at the
        converged solution (away from the anchored centres)."""
        g = grid_graph(4, 4)
        centers = np.array([0, 15])
        bonds = percolation_bonds(g, centers)
        for v in range(16):
            if v in centers:
                continue
            for c in range(2):
                nbrs, wts = g.neighbors(v)
                expected = max(
                    (bonds[int(u), c] + w) / 2.0 for u, w in zip(nbrs, wts)
                )
                assert bonds[v, c] == pytest.approx(expected)

    def test_bonds_decay_with_distance_on_path(self):
        g = path_graph(8)
        bonds = percolation_bonds(g, np.array([0]))[:, 0]
        assert all(bonds[i] > bonds[i + 1] for i in range(7))

    def test_heavy_corridor_outbonds_near_center(self):
        # 0 -heavy- 1 -heavy- 2   vs   3 -light- 2: centre at 0 and 3.
        g = Graph.from_edges(
            4, [(0, 1, 10.0), (1, 2, 10.0), (2, 3, 1.0)]
        )
        bonds = percolation_bonds(g, np.array([0, 3]))
        # Vertex 2 is adjacent to centre 3 but the heavy corridor from 0
        # binds it more strongly.
        assert bonds[2, 0] > bonds[2, 1]

    def test_mask_blocks_flow(self):
        g = path_graph(5)
        mask = np.array([True, True, False, True, True])
        bonds = percolation_bonds(g, np.array([0]), mask=mask)
        assert bonds[3, 0] == 0.0  # unreachable behind the mask
        assert bonds[4, 0] == 0.0

    def test_centre_requires_mask(self):
        g = path_graph(3)
        with pytest.raises(ConfigurationError):
            percolation_bonds(g, np.array([1]),
                              mask=np.array([True, False, True]))

    def test_distinct_centres_required(self):
        with pytest.raises(ConfigurationError):
            percolation_bonds(path_graph(3), np.array([0, 0]))


class TestPartition:
    def test_path_splits_at_midpoint(self):
        p = percolation_partition(path_graph(10), np.array([0, 9]))
        assert p.assignment.tolist() == [0] * 5 + [1] * 5

    def test_every_centre_keeps_a_vertex(self):
        g = grid_graph(6, 6)
        centers = np.array([0, 1, 35])  # two adjacent centres
        p = percolation_partition(g, centers)
        assert p.num_parts == 3

    def test_caveman_with_cave_centres(self):
        g = weighted_caveman_graph(4, 6)
        centers = np.array([0, 6, 12, 18])
        p = percolation_partition(g, centers)
        assert p.edge_cut() == pytest.approx(4.0)  # exactly the weak links

    def test_partitioner_interface(self):
        part = PercolationPartitioner(k=4).partition(grid_graph(8, 8), seed=0)
        assert part.num_parts == 4

    def test_partitioner_balance_option(self):
        from repro.partition import imbalance

        raw = PercolationPartitioner(k=4).partition(grid_graph(8, 8), seed=9)
        fixed = PercolationPartitioner(k=4, balance=True).partition(
            grid_graph(8, 8), seed=9
        )
        assert imbalance(fixed) <= imbalance(raw) + 1e-9


class TestBisect:
    def test_proper_bisection(self):
        a, b = percolation_bisect(grid_graph(6, 6), np.arange(36), seed=0)
        assert a.size > 0 and b.size > 0
        assert sorted(np.concatenate([a, b]).tolist()) == list(range(36))

    def test_respects_vertex_subset(self):
        g = grid_graph(6, 6)
        subset = np.arange(12)  # first two rows
        a, b = percolation_bisect(g, subset, seed=1)
        assert set(a.tolist()) | set(b.tolist()) == set(range(12))

    def test_explicit_centres(self):
        g = path_graph(6)
        a, b = percolation_bisect(g, np.arange(6), centers=(0, 5))
        assert sorted(a.tolist()) == [0, 1, 2]
        assert sorted(b.tolist()) == [3, 4, 5]

    def test_rejects_tiny_sets(self):
        with pytest.raises(ConfigurationError):
            percolation_bisect(path_graph(3), np.array([1]))

    def test_rejects_equal_centres(self):
        with pytest.raises(ConfigurationError):
            percolation_bisect(path_graph(4), np.arange(4), centers=(1, 1))

    def test_cuts_barbell_at_bridge(self, barbell):
        a, b = percolation_bisect(barbell, np.arange(10), centers=(0, 9))
        assert sorted(a.tolist()) == [0, 1, 2, 3, 4]


class TestSpreadCenters:
    def test_count_and_distinct(self):
        centers = choose_spread_centers(grid_graph(8, 8), 6, seed=0)
        assert centers.shape == (6,)
        assert len(set(centers.tolist())) == 6

    def test_spread_on_caveman(self):
        # Well-spread centres should hit distinct caves most of the time.
        g = weighted_caveman_graph(4, 6)
        centers = choose_spread_centers(g, 4, seed=2)
        caves = {int(c) // 6 for c in centers}
        assert len(caves) >= 3

    def test_k_one(self):
        assert choose_spread_centers(path_graph(5), 1, seed=0).shape == (1,)

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigurationError):
            choose_spread_centers(path_graph(5), 9)


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit patterns (so ``-0.0`` vs ``0.0`` counts as a mismatch)."""
    return a.shape == b.shape and np.array_equal(
        a.view(np.int64), b.view(np.int64)
    )


def _fuzz_graph(rng: np.random.Generator) -> Graph:
    """A tiny graph: maybe disconnected, with isolated vertices, a weight
    mix of unit, integer, zero and arbitrary float weights, and sometimes
    slightly asymmetric arc weights."""
    n = int(rng.integers(1, 13))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = rng.random(len(pairs)) < rng.uniform(0.0, 0.6)
    kind = rng.integers(4)
    edges = []
    for u, v in (p for p, kept in zip(pairs, keep) if kept):
        if kind == 0:
            w = 1.0
        elif kind == 1:
            w = float(rng.integers(0, 4))
        elif kind == 2:
            w = float(rng.choice([0.0, rng.uniform(0.0, 5.0)]))
        else:
            w = float(rng.exponential(2.0))
        edges.append((u, v, w))
    g = Graph.from_edges(n, edges)
    if rng.random() < 0.25:
        # Arc weights that differ from their reverse arc in the last
        # bits still pass validation; the flood must not assume w(u, v)
        # == w(v, u) bit for bit.
        weights = g.weights.copy()
        upper = g.arc_owners() < g.indices
        weights[upper] = np.nextafter(weights[upper], np.inf)
        g = Graph(g.indptr, g.indices, weights)
    return g


class TestReferenceParity:
    """The reduceat flood against the frozen ``maximum.at`` reference."""

    def test_seeded_fuzz_is_bit_identical(self):
        rng = np.random.default_rng(20061)
        for case in range(1500):
            g = _fuzz_graph(rng)
            n = g.num_vertices
            k = int(rng.integers(1, n + 1))
            centers = rng.choice(n, k, replace=False)
            mask = None
            if rng.random() < 0.5:
                # A random atom containing the centres: it may split a
                # connected component and leave vertices unreachable.
                mask = rng.random(n) < 0.6
                mask[centers] = True
            max_sweeps = int(rng.choice([1, 3, 100]))
            tolerance = float(rng.choice([1e-12, 0.0, 1e-3, 0.25, np.inf]))
            got = percolation_bonds(g, centers, mask, max_sweeps, tolerance)
            want = percolation_bonds_reference(
                g, centers, mask, max_sweeps, tolerance
            )
            assert _bitwise_equal(got, want), (case, n, k, max_sweeps)

    def test_stop_rule_at_exact_tolerance(self):
        """A sweep whose largest change equals ``tolerance`` stops the
        flood in both kernels (``<=``, not ``<``)."""
        rng = np.random.default_rng(7)
        hits = 0
        for _ in range(300):
            g = _fuzz_graph(rng)
            n = g.num_vertices
            centers = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
            # tolerance -1 never stops early, so these are exact sweeps.
            before = percolation_bonds_reference(g, centers, None, 2, -1.0)
            after = percolation_bonds_reference(g, centers, None, 3, -1.0)
            if not np.array_equal(before > 0, after > 0):
                continue  # an arrival in sweep 3: the change is not used
            tolerance = float((after - before).max())
            got = percolation_bonds(g, centers, tolerance=tolerance)
            want = percolation_bonds_reference(g, centers, tolerance=tolerance)
            assert _bitwise_equal(got, want)
            below = np.nextafter(tolerance, -np.inf)
            hits += not _bitwise_equal(
                want, percolation_bonds_reference(g, centers, tolerance=below)
            )
        assert hits  # the boundary decided the result in some floods

    @pytest.mark.parametrize("centers, mask", [
        (np.array([], dtype=np.int64), None),
        (np.array([1, 1]), None),
        (np.array([2, 4, 2]), None),
        (np.array([1]), np.array([True, False, True, True, True])),
        (np.array([0, 3]), np.array([True, True, True, False, True])),
    ])
    def test_same_errors_as_reference(self, centers, mask):
        g = path_graph(5)
        with pytest.raises(ConfigurationError) as got:
            percolation_bonds(g, centers, mask=mask)
        with pytest.raises(ConfigurationError) as want:
            percolation_bonds_reference(g, centers, mask=mask)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("instance, k", [("atc-core", 32), ("grid-16", 8)])
    def test_registered_instances_are_bit_identical(self, instance, k):
        from repro.workloads import build_instance

        g = build_instance(instance)
        centers = choose_spread_centers(g, k, seed=3)
        for cs in (centers[:1], centers[:2], centers):
            assert _bitwise_equal(
                percolation_bonds(g, cs),
                percolation_bonds_reference(g, cs),
            )
        # Masked floods: the atoms of the whole-graph flood, cut in two
        # from their first two vertices as fission does.
        colors = percolation_partition(g, centers).assignment
        for part in range(4):
            mask = colors == part
            atom = np.flatnonzero(mask)
            for cs in (atom[:1], atom[:2]):
                assert _bitwise_equal(
                    percolation_bonds(g, cs, mask=mask),
                    percolation_bonds_reference(g, cs, mask=mask),
                )


def _spread_flood_reference(graph, k, seed, max_sweeps=100, tolerance=1e-12):
    """``choose_spread_centers`` and the k-centre flood from its centres,
    every flood run by the frozen reference with the given cap and
    tolerance."""

    def flood(centers):
        return percolation_bonds_reference(
            graph, np.asarray(centers), max_sweeps=max_sweeps,
            tolerance=tolerance,
        )

    rng = np.random.default_rng(seed)
    centers = [int(rng.integers(graph.num_vertices))]
    best_bond = flood(centers)[:, 0]
    for _ in range(k - 1):
        best_bond_safe = best_bond.copy()
        best_bond_safe[centers] = np.inf
        centers.append(int(np.argmin(best_bond_safe)))
        best_bond = np.maximum(best_bond, flood(centers[-1:])[:, 0])
    return np.asarray(centers, dtype=np.int64), flood(centers)


class TestSpreadFloodParity:
    """The k-centre start flood built from the centre choice's
    single-centre floods, against choosing the centres and flooding from
    them again."""

    def test_seeded_fuzz_is_bit_identical(self):
        from repro.percolation.percolation import _spread_flood

        rng = np.random.default_rng(20063)
        for case in range(600):
            g = _fuzz_graph(rng)
            n = g.num_vertices
            k = int(rng.integers(1, n + 1))
            seed = int(rng.integers(2**32))
            max_sweeps = int(rng.choice([1, 3, 100]))
            tolerance = float(rng.choice([0.0, 1e-12, np.inf]))
            centers, bonds = _spread_flood(g, k, seed, max_sweeps, tolerance)
            want_centers, want = _spread_flood_reference(
                g, k, seed, max_sweeps, tolerance
            )
            assert np.array_equal(centers, want_centers), case
            assert _bitwise_equal(bonds, want), (case, n, k, max_sweeps)

    def test_partitioner_matches_choose_then_flood(self):
        rng = np.random.default_rng(20064)
        for case in range(200):
            g = _fuzz_graph(rng)
            k = int(rng.integers(1, g.num_vertices + 1))
            seed = int(rng.integers(2**32))
            got = PercolationPartitioner(k=k).partition(g, seed=seed)
            want = percolation_partition(
                g, choose_spread_centers(g, k, seed=seed)
            )
            assert np.array_equal(got.assignment, want.assignment), case

    def test_partitioner_draws_like_choose_spread_centers(self):
        g = weighted_caveman_graph(4, 5)
        got, want = np.random.default_rng(8), np.random.default_rng(8)
        PercolationPartitioner(k=4).partition(g, seed=got)
        choose_spread_centers(g, 4, seed=want)
        assert got.bit_generator.state == want.bit_generator.state

    @pytest.mark.parametrize("instance, k, capped", [
        ("atc-core", 32, False), ("grid-64", 8, True),
    ])
    def test_registered_instances_are_bit_identical(self, instance, k, capped):
        from repro.percolation.percolation import _spread_flood
        from repro.workloads import build_instance

        g = build_instance(instance)
        centers, bonds = _spread_flood(g, k, seed=1)
        assert np.array_equal(centers, choose_spread_centers(g, k, seed=1))
        want = percolation_bonds_reference(g, centers)
        assert _bitwise_equal(bonds, want)
        # On grid-64 (diameter 126) floods stop at the 100-sweep cap
        # with vertices still unreached.
        assert bool((want == 0.0).any()) == capped
        got = PercolationPartitioner(k=k).partition(g, seed=1)
        assert np.array_equal(
            got.assignment, percolation_partition(g, centers).assignment
        )
