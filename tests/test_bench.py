"""Tests for the benchmark harness (fast configurations only)."""

import numpy as np
import pytest

from repro.api import get_solver
from repro.bench import (
    MethodResult,
    format_table,
    run_method,
    run_suite,
    table1_methods,
)
from repro.bench.figure1 import QualityTrace
from repro.common.exceptions import ConfigurationError
from repro.engine import SolverSpec
from repro.graph import weighted_caveman_graph


class TestRegistry:
    def test_all_method_names_resolve(self):
        for name in (
            "linear", "spectral", "multilevel", "percolation",
            "simulated-annealing", "ant-colony", "fusion-fission",
        ):
            solver = get_solver(name, 4)
            assert hasattr(solver, "start")

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            get_solver("quantum-annealer", 4)

    def test_table1_has_17_rows(self):
        rows = table1_methods()
        assert len(rows) == 17
        labels = [r[0] for r in rows]
        assert labels[0] == "Linear (Bi)"
        assert labels[-1] == "Fusion Fission"
        assert sum("Spectral" in l for l in labels) == 8
        assert sum("Multilevel" in l for l in labels) == 2


class TestHarness:
    def test_run_method(self):
        g = weighted_caveman_graph(4, 6)
        r = run_method("ml", get_solver("multilevel", 4), g, seed=0)
        assert isinstance(r, MethodResult)
        assert r.num_parts == 4
        assert r.cut == pytest.approx(2 * 4.0)  # planted: 4 cut edges
        assert r.seconds >= 0.0

    def test_run_suite_and_format(self):
        g = weighted_caveman_graph(4, 6)
        methods = [
            ("linear", SolverSpec("linear")),
            ("percolation", SolverSpec("percolation")),
        ]
        results = run_suite(methods, g, 4, seed=1)
        assert len(results) == 2
        table = format_table(results, title="t")
        assert "linear" in table
        assert "Mcut" in table

    def test_result_dict(self):
        r = MethodResult("x", 1.0, 2.0, 3.0, 4, 0.5)
        d = r.as_dict()
        assert d["label"] == "x"
        assert d["mcut"] == 3.0


class TestQualityTrace:
    def test_value_at(self):
        t = QualityTrace("m")
        t.record(1.0, 50.0)
        t.record(2.0, 40.0)
        t.record(5.0, 45.0)  # non-best improvements may be recorded too
        assert t.value_at(0.5) == float("inf")
        assert t.value_at(1.5) == 50.0
        assert t.value_at(10.0) == 40.0

    def test_as_dict(self):
        t = QualityTrace("m")
        t.record(1.0, 2.0)
        assert t.as_dict() == {"label": "m", "times": [1.0], "values": [2.0]}


class TestIntegrationSmall:
    """End-to-end: the full Table-1 suite on a small instance."""

    def test_suite_runs_on_caveman(self):
        g = weighted_caveman_graph(4, 8)
        methods = table1_methods(metaheuristic_budget=2.0)
        # Trim the metaheuristics' step budgets so the test stays fast.
        results = run_suite(methods, g, 4, seed=0)
        assert len(results) == 17
        for r in results:
            assert r.num_parts == 4
            assert np.isfinite(r.cut)
        # The planted optimum (cut = 8.0 paper-convention) must be found by
        # the strong methods.
        by_label = {r.label: r for r in results}
        assert by_label["Multilevel (Bi)"].cut == pytest.approx(8.0)
        assert by_label["Fusion Fission"].cut <= 3 * 8.0
