"""The unified solver API: protocol, sessions, events, budgets,
checkpoint/resume determinism, and the registry error UX."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.common.exceptions import CheckpointError, ConfigurationError
from repro.graph import weighted_caveman_graph
from repro.api import (
    CHECKPOINT_SCHEMA,
    Budget,
    JsonlEventWriter,
    SolveRequest,
    decode_rng,
    encode_rng,
    get_solver,
    parse_duration,
    resume,
    solve,
)

#: One fast configuration per solver family (k = 4 on the caveman graph).
FAMILY_OPTIONS = {
    "linear": {},
    "spectral": {},
    "multilevel": {},
    "percolation": {},
    "simulated-annealing": {"max_steps": 800},
    "ant-colony": {"iterations": 6},
    "fusion-fission": {"max_steps": 200},
}


@pytest.fixture(scope="module")
def graph():
    return weighted_caveman_graph(4, 6)


def _request(graph, seed=0, **kwargs):
    return SolveRequest(graph=graph, k=4, seed=seed, **kwargs)


def _direct_entry(method, solver, graph, seed):
    """The partition a family's own entry point returns: the one-shot
    construction, or the iterative family's kernel."""
    from repro.annealing import anneal
    from repro.antcolony import ant_colony_search
    from repro.percolation.percolation import PercolationPartitioner

    if method == "simulated-annealing":
        rng = np.random.default_rng(seed)
        start = PercolationPartitioner(k=4).partition(graph, seed=rng)
        return anneal(start, max_steps=solver.max_steps, seed=rng)[0]
    if method == "ant-colony":
        return ant_colony_search(
            graph, 4, iterations=solver.iterations, seed=seed
        )[0]
    if method == "fusion-fission":
        return solver.search(graph, seed=seed).best_at_target
    return solver.partition(graph, seed=seed)


class TestProtocolConformance:
    @pytest.mark.parametrize("method", sorted(FAMILY_OPTIONS))
    def test_start_run_report(self, graph, method):
        solver = get_solver(method, 4, **FAMILY_OPTIONS[method])
        assert hasattr(solver, "start") and hasattr(solver, "name")
        session = solver.start(_request(graph))
        report = session.run()
        assert report.status == "done"
        assert report.partition.num_parts == 4
        assert report.iterations >= 1
        assert report.events >= 3  # start, >=1 iteration, done
        assert report.metrics is not None
        assert np.isfinite(report.objective_value)
        report.partition.check()

    @pytest.mark.parametrize("method", sorted(FAMILY_OPTIONS))
    def test_shim_equals_session(self, graph, method):
        """Acceptance: the session is a thin shim over each family's own
        entry point — the one-shot ``partition(graph, seed)``
        construction, or the iterative kernel (``anneal``,
        ``ant_colony_search``, ``search``) — and returns its partition."""
        solver = get_solver(method, 4, **FAMILY_OPTIONS[method])
        direct = _direct_entry(method, solver, graph, 42)
        report = solver.start(_request(graph, seed=42)).run()
        assert np.array_equal(direct.assignment, report.partition.assignment)

    def test_solve_facade(self, graph):
        report = solve(graph, 4, method="ml", seed=0)
        assert report.method == "multilevel"
        assert report.status == "done"


class TestCheckpointResume:
    @pytest.mark.parametrize("method", sorted(FAMILY_OPTIONS))
    def test_half_checkpoint_resume_is_bit_identical(self, graph, method):
        """Acceptance: run-to-completion == run-to-half + checkpoint +
        JSON round-trip + resume, per solver family."""
        options = FAMILY_OPTIONS[method]
        full = get_solver(method, 4, **options).start(_request(graph, seed=9))
        full_report = full.run()

        half = get_solver(method, 4, **options).start(_request(graph, seed=9))
        half.run(max_iterations=full_report.iterations // 2)
        checkpoint = json.loads(json.dumps(half.checkpoint()))
        assert checkpoint["schema"] == CHECKPOINT_SCHEMA
        resumed = resume(graph, checkpoint)
        resumed_report = resumed.run()
        assert resumed_report.status == "done"
        assert np.array_equal(
            resumed_report.partition.assignment,
            full_report.partition.assignment,
        )
        assert resumed_report.objective_value == full_report.objective_value

    def test_checkpoint_of_finished_session_restores_result(self, graph):
        session = get_solver("fusion-fission", 4, max_steps=120).start(
            _request(graph, seed=2)
        )
        report = session.run()
        checkpoint = json.loads(json.dumps(session.checkpoint()))
        assert checkpoint["status"] == "done"
        restored = resume(graph, checkpoint)
        assert restored.done
        assert np.array_equal(
            restored.partition.assignment, report.partition.assignment
        )

    def test_method_mismatch_rejected(self, graph):
        session = get_solver("percolation", 4).start(_request(graph))
        checkpoint = session.checkpoint()
        checkpoint["method"] = "multilevel"
        with pytest.raises(CheckpointError):
            resume(graph, checkpoint)

    def test_bad_schema_rejected(self, graph):
        with pytest.raises(CheckpointError):
            resume(graph, {"schema": "something/else"})
        with pytest.raises(CheckpointError):
            resume(graph, "not a dict")

    def test_graph_mismatch_rejected(self, graph):
        session = get_solver("percolation", 4).start(_request(graph))
        checkpoint = session.checkpoint()
        other = weighted_caveman_graph(4, 7)  # different n
        with pytest.raises(CheckpointError):
            resume(other, checkpoint)

    def test_paused_session_clock_excludes_idle_time(self, graph):
        import time

        session = get_solver("ant-colony", 4, iterations=4).start(
            _request(graph, seed=0)
        )
        session.run(max_iterations=2)
        paused_at = session.elapsed()
        time.sleep(0.2)  # idle while paused must not count as solve time
        assert session.elapsed() == paused_at

    def test_k_mismatch_rejected(self, graph):
        session = get_solver("percolation", 4).start(_request(graph))
        checkpoint = session.checkpoint()
        solver = get_solver("percolation", 3)
        with pytest.raises(CheckpointError):
            solver.start(
                SolveRequest(graph=graph, k=3, seed=None),
                checkpoint=checkpoint,
            )

    def test_rng_roundtrip_preserves_spawn_lineage(self):
        rng = np.random.default_rng(5)
        rng.integers(100, size=7)
        clone = decode_rng(json.loads(json.dumps(encode_rng(rng))))
        want = [g.integers(10**6) for g in rng.spawn(3)] + [rng.integers(10**6)]
        got = [g.integers(10**6) for g in clone.spawn(3)] + [clone.integers(10**6)]
        assert want == got


class TestEventsAndObservers:
    def test_event_stream_shape(self, graph):
        events = []
        session = get_solver("simulated-annealing", 4, max_steps=600).start(
            _request(graph, seed=3)
        )
        session.subscribe(events.append)
        session.run()
        types = [e.type for e in events]
        assert types[0] == "start"
        assert types[-1] == "done"
        assert "iteration" in types
        iters = [e.iteration for e in events if e.type == "iteration"]
        assert iters == sorted(iters)
        assert all(e.elapsed >= 0.0 for e in events)

    def test_incumbent_events_carry_objective(self, graph):
        events = []
        session = get_solver("fusion-fission", 4, max_steps=300).start(
            _request(graph, seed=0)
        )
        session.subscribe(events.append)
        session.run()
        incumbents = [e for e in events if e.type == "incumbent"]
        assert incumbents
        values = [e.objective for e in incumbents]
        assert values == sorted(values, reverse=True)  # improving = decreasing

    def test_jsonl_writer(self, graph, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlEventWriter(path) as writer:
            session = get_solver("multilevel", 4).start(_request(graph))
            session.subscribe(writer)
            session.run()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0]["event"] == "start"
        assert rows[-1]["event"] == "done"
        assert all("iteration" in row and "elapsed" in row for row in rows)

    def test_unsubscribe(self, graph):
        events = []
        session = get_solver("percolation", 4).start(_request(graph))
        observer = session.subscribe(events.append)
        session.unsubscribe(observer)
        session.run()
        assert events == []


class TestBudgetsAndCancellation:
    def test_iteration_budget_pauses_then_resumes(self, graph):
        session = get_solver("ant-colony", 4, iterations=8).start(
            _request(graph, seed=1, budget=Budget(max_iterations=3))
        )
        report = session.run()
        assert report.status == "running"  # paused, not done
        assert report.iterations == 3
        report = session.run(max_iterations=None)
        assert report.status == "done"

    def test_budget_matches_uninterrupted_run(self, graph):
        solver = get_solver("simulated-annealing", 4, max_steps=600)
        full = solver.start(_request(graph, seed=4)).run()
        paused = get_solver("simulated-annealing", 4, max_steps=600).start(
            _request(graph, seed=4)
        )
        while paused.status == "running":
            paused.run(max_iterations=paused.iteration + 1)  # 1 at a time
        assert np.array_equal(
            paused.partition.assignment, full.partition.assignment
        )

    def test_time_budget_pauses(self, graph):
        # An always-reheating SA (time_budget=inf-like) would never stop;
        # the session budget must preempt it cooperatively.
        session = get_solver(
            "simulated-annealing", 4, time_budget=60.0
        ).start(_request(graph, seed=0, budget=Budget(max_seconds=0.2)))
        report = session.run()
        assert report.status == "running"
        assert report.seconds < 10.0  # stopped at a chunk boundary, not 60s

    def test_cancel_from_observer(self, graph):
        session = get_solver("simulated-annealing", 4, max_steps=10**6).start(
            _request(graph, seed=0)
        )

        def cancel_after_two(event):
            if event.type == "iteration" and event.iteration >= 2:
                session.cancel()

        session.subscribe(cancel_after_two)
        report = session.run()
        assert report.status == "cancelled"
        assert report.iterations <= 3

    def test_parse_duration(self):
        assert parse_duration(None) is None
        assert parse_duration(2) == 2.0
        assert parse_duration("2s") == 2.0
        assert parse_duration("500ms") == 0.5
        assert parse_duration("1.5m") == 90.0
        with pytest.raises(ConfigurationError):
            parse_duration("two seconds")
        with pytest.raises(ConfigurationError):
            parse_duration("0s")


class TestRequestValidation:
    def test_bad_k(self, graph):
        with pytest.raises(ConfigurationError):
            SolveRequest(graph=graph, k=0)
        with pytest.raises(ConfigurationError):
            SolveRequest(graph=graph, k=10**6)

    def test_bad_budget(self):
        with pytest.raises(ConfigurationError):
            Budget(max_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            Budget(max_iterations=-1)

    def test_bad_balance_tolerance(self, graph):
        with pytest.raises(ConfigurationError):
            SolveRequest(graph=graph, k=2, balance_tolerance=0.0)


#: Runs one default-configured, unbudgeted k = 1 session on caveman-8x6
#: in a child process (argv: method) and prints status, part count and
#: objective.
_K1_SESSION = """
import sys
from repro.api import SolveRequest, get_solver
from repro.workloads import build_instance
graph = build_instance("caveman-8x6")
report = get_solver(sys.argv[1], 1).start(
    SolveRequest(graph=graph, k=1, seed=0)).run()
print(report.status, report.partition.num_parts, report.objective_value)
"""


class TestDegenerateK1:
    """Every family returns the one-part partition at k = 1 (objective
    0, status ``done``) and terminates without a budget."""

    @pytest.mark.parametrize("method", sorted(FAMILY_OPTIONS))
    def test_one_part_partition(self, method):
        from repro.api.registry import METHOD_FACTORIES

        assert set(METHOD_FACTORIES) == set(FAMILY_OPTIONS)
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", _K1_SESSION, method],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["done", "1", "0.0"]


class TestRegistryErrorUX:
    def test_unknown_method_lists_methods_and_aliases(self):
        from repro.api.registry import canonical_method

        with pytest.raises(ConfigurationError) as err:
            canonical_method("quantum-annealer")
        message = str(err.value)
        assert "fusion-fission" in message
        assert "aliases" in message
        assert "ff" in message

    def test_close_match_suggestion(self):
        from repro.api.registry import canonical_method

        with pytest.raises(ConfigurationError) as err:
            canonical_method("fusionfissio")
        assert "did you mean" in str(err.value)


class TestEngineTelemetry:
    def test_run_records_carry_iterations(self, graph):
        from repro.engine import PartitionProblem, PortfolioRunner, SolverSpec

        result = PortfolioRunner(
            [SolverSpec("multilevel"),
             SolverSpec("fusion-fission", options={"max_steps": 100})],
            num_seeds=1, jobs=1, seed=0,
        ).run(PartitionProblem(graph, k=4))
        assert all(r.iterations >= 1 for r in result.records)
        payload = result.as_dict()
        assert payload["version"]
        assert all("iterations" in run for run in payload["runs"])


class TestSolveCli:
    @pytest.fixture()
    def graph_file(self, tmp_path):
        from repro.cli import write_graph_auto

        path = tmp_path / "caveman.graph"
        write_graph_auto(weighted_caveman_graph(4, 6), path)
        return path

    def _main(self, argv):
        from repro.cli import main

        return main([str(a) for a in argv])

    def test_solve_matches_partition(self, graph_file, tmp_path, capsys):
        """`repro solve` writes the partition the library session
        returns for the same method, k and seed."""
        out_solve = tmp_path / "solve.txt"
        base = [graph_file, "-k", 4, "--method", "multilevel", "--seed", 7]
        assert self._main(["solve", *base, "-o", out_solve]) == 0
        from repro.cli import read_graph_auto

        graph = read_graph_auto(graph_file)
        report = get_solver("multilevel", 4).start(
            SolveRequest(graph=graph, k=4, seed=7)
        ).run()
        written = [int(x) for x in out_solve.read_text().split()]
        assert written == [int(p) for p in report.assignment]

    def test_solve_streams_events_and_checkpoints(
        self, graph_file, tmp_path, capsys
    ):
        events = tmp_path / "events.jsonl"
        ck = tmp_path / "ck.json"
        out = tmp_path / "parts.txt"
        code = self._main([
            "solve", graph_file, "-k", 4, "--method", "ff", "--seed", 0,
            "--events", events, "--checkpoint", ck, "-o", out,
        ])
        assert code == 0
        rows = [json.loads(line) for line in events.read_text().splitlines()]
        assert rows[0]["event"] == "start"
        assert rows[-1]["event"] in ("done", "checkpoint")
        checkpoint = json.loads(ck.read_text())
        assert checkpoint["schema"] == CHECKPOINT_SCHEMA
        assert checkpoint["status"] == "done"
        assignment = [int(x) for x in out.read_text().split()]
        assert len(assignment) == 24 and set(assignment) == {0, 1, 2, 3}

    def test_solve_pause_and_resume_reproduces_full_run(
        self, graph_file, tmp_path, capsys
    ):
        full = tmp_path / "full.txt"
        args = [graph_file, "-k", 4, "--method", "ff", "--seed", 1]
        assert self._main(["solve", *args, "-o", full]) == 0
        ck = tmp_path / "ck.json"
        paused = tmp_path / "paused.txt"
        assert self._main([
            "solve", *args, "--iterations", 3,
            "--checkpoint", ck, "-o", paused,
        ]) == 0
        assert json.loads(ck.read_text())["status"] == "running"
        resumed = tmp_path / "resumed.txt"
        assert self._main([
            "solve", graph_file, "--resume", ck, "-o", resumed,
        ]) == 0
        assert resumed.read_text() == full.read_text()

    def test_solve_budget_flag_parses_durations(
        self, graph_file, tmp_path, capsys
    ):
        code = self._main([
            "solve", graph_file, "-k", 4, "--method", "percolation",
            "--budget", "2s", "-o", tmp_path / "o.txt",
        ])
        assert code == 0
        assert self._main([
            "solve", graph_file, "-k", 4, "--budget", "nonsense",
        ]) == 2  # ReproError -> exit 2 with a parse hint

    def test_solve_requires_k_without_resume(self, graph_file, capsys):
        assert self._main(["solve", graph_file]) == 2
        assert "-k" in capsys.readouterr().err

    def test_solve_unknown_method_lists_registry(self, graph_file, capsys):
        assert self._main([
            "solve", graph_file, "-k", 4, "--method", "quantum",
        ]) == 2
        err = capsys.readouterr().err
        assert "known methods" in err


class TestMatchedCascade:
    def test_reaches_target_and_is_deterministic(self):
        from repro.fusionfission.core import initialize_molecule
        from repro.fusionfission.energy import ScaledEnergy
        from repro.fusionfission.laws import LawTable

        g = weighted_caveman_graph(8, 8)
        n = g.num_vertices

        def run():
            return initialize_molecule(
                g, 6, LawTable(n), ScaledEnergy(n, 6), seed=0,
                cascade="matched",
            )

        p1, p2 = run(), run()
        assert p1.num_parts == 6
        p1.check()
        assert np.array_equal(p1.assignment, p2.assignment)

    def test_auto_is_exact_law_loop_on_small_graphs(self):
        from repro.fusionfission.core import initialize_molecule
        from repro.fusionfission.energy import ScaledEnergy
        from repro.fusionfission.laws import LawTable

        g = weighted_caveman_graph(4, 6)
        n = g.num_vertices
        auto = initialize_molecule(
            g, 4, LawTable(n), ScaledEnergy(n, 4), seed=5, cascade="auto"
        )
        law = initialize_molecule(
            g, 4, LawTable(n), ScaledEnergy(n, 4), seed=5, cascade="law"
        )
        assert np.array_equal(auto.assignment, law.assignment)

    def test_bad_cascade_rejected(self):
        from repro.fusionfission.core import initialize_molecule
        from repro.fusionfission.energy import ScaledEnergy
        from repro.fusionfission.laws import LawTable

        g = weighted_caveman_graph(3, 4)
        with pytest.raises(ConfigurationError):
            initialize_molecule(
                g, 3, LawTable(12), ScaledEnergy(12, 3), cascade="magic"
            )
