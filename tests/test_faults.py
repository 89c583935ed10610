"""Tests for the fault-tolerance layer: taxonomy, retries, fault
injection, straggler control, pool self-healing and the chaos CLI."""

import json
import math

import numpy as np
import pytest

from repro.cli import main, write_graph_auto
from repro.common.exceptions import (
    ConfigurationError,
    ReproError,
    ResultInvalid,
    SolverCrash,
    TaskTimeout,
    TransientError,
    classify_error,
)
from repro.engine import (
    REPORT_SCHEMA,
    FaultInjector,
    FaultSpec,
    PartitionProblem,
    PortfolioRunner,
    RetryPolicy,
    SolverSpec,
    validate_assignment,
)
from repro.graph import grid_graph, weighted_caveman_graph

FAST_SPECS = [
    SolverSpec("multilevel"),
    SolverSpec("spectral"),
]


@pytest.fixture
def problem():
    return PartitionProblem(weighted_caveman_graph(4, 6), k=4)


def runner_for(problem, *, jobs=1, retries=1, faults=None, timeout=None,
               specs=FAST_SPECS, num_seeds=1, deadline=None):
    return PortfolioRunner(
        specs,
        num_seeds=num_seeds,
        jobs=jobs,
        seed=11,
        deadline=deadline,
        retry=RetryPolicy(max_attempts=retries + 1, backoff=0.01),
        task_timeout=timeout,
        faults=FaultInjector.parse(faults) if faults else FaultInjector(),
    )


class TestFaultGrammar:
    def test_parse_single(self):
        inj = FaultInjector.parse("crash@0,1,2")
        assert inj.faults == (
            FaultSpec(kind="crash", spec_index=0, seed_index=1, attempt=2),
        )

    def test_parse_wildcards_and_duration(self):
        inj = FaultInjector.parse("hang@*,1,*,0.5; fail@2,*,1")
        assert inj.faults[0].spec_index is None
        assert inj.faults[0].duration == 0.5
        assert inj.faults[1] == FaultSpec(
            kind="fail", spec_index=2, seed_index=None, attempt=1
        )

    def test_first_match_wins(self):
        inj = FaultInjector.parse("crash@0,0,1 fail@0,0,*")
        assert inj.fault_for(0, 0, 1).kind == "crash"
        assert inj.fault_for(0, 0, 2).kind == "fail"
        assert inj.fault_for(1, 0, 1) is None

    @pytest.mark.parametrize("bad", [
        "explode@0,0,1",      # unknown kind
        "crash0,0,1",         # missing @
        "crash@0,0",          # too few coordinates
        "crash@a,0,1",        # non-integer coordinate
        "crash@0,0,0",        # attempt is 1-based
        "hang@0,0,1,nope",    # non-numeric duration
        "hang@0,0,1,-1",      # non-positive duration
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            FaultInjector.parse(bad)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert FaultInjector.from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "crash@0,0,1")
        inj = FaultInjector.from_env()
        assert inj and inj.faults[0].kind == "crash"

    def test_describe(self):
        assert FaultInjector.parse("hang@*,0,1,2").faults[0].describe() == (
            "hang@*,0,1 (2s)"
        )


class TestErrorTaxonomy:
    @pytest.mark.parametrize("exc,kind", [
        (SolverCrash("x"), "crash"),
        (TaskTimeout("x"), "timeout"),
        (TransientError("x"), "transient"),
        (ResultInvalid("x"), "invalid"),
        (ConfigurationError("x"), "config"),
        (ValueError("x"), "error"),
    ])
    def test_classify(self, exc, kind):
        assert classify_error(exc) == kind

    def test_broken_pool_is_crash(self):
        from concurrent.futures.process import BrokenProcessPool

        assert classify_error(BrokenProcessPool("dead")) == "crash"

    def test_transient_family(self):
        # `except TransientError` must cover crashes and timeouts too.
        assert issubclass(SolverCrash, TransientError)
        assert issubclass(TaskTimeout, TransientError)
        assert not issubclass(ResultInvalid, TransientError)


class TestRetryPolicy:
    def test_default_is_no_retries(self):
        policy = RetryPolicy()
        assert not policy.should_retry("crash", 1)

    def test_should_retry_kinds(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry("crash", 1)
        assert policy.should_retry("timeout", 2)
        assert not policy.should_retry("crash", 3)     # budget exhausted
        assert not policy.should_retry("invalid", 1)   # deterministic
        assert not policy.should_retry(None, 1)

    def test_backoff_progression(self):
        policy = RetryPolicy(
            max_attempts=5, backoff=0.1, backoff_factor=2.0, max_backoff=0.3
        )
        assert policy.backoff_seconds(1) == pytest.approx(0.1)
        assert policy.backoff_seconds(2) == pytest.approx(0.2)
        assert policy.backoff_seconds(3) == pytest.approx(0.3)  # capped
        assert RetryPolicy(backoff=0.0).backoff_seconds(1) == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"backoff": -1.0},
        {"backoff_factor": 0.5},
        {"max_backoff": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_as_dict(self):
        d = RetryPolicy(max_attempts=2).as_dict()
        assert d["max_attempts"] == 2
        assert "crash" in d["retry_kinds"]


class TestResultValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ResultInvalid, match="shape"):
            validate_assignment(np.zeros(5, dtype=np.int64), 6, 2)

    def test_label_out_of_range(self):
        with pytest.raises(ResultInvalid, match=r"\[0, 3\)"):
            validate_assignment(np.array([0, 1, 3]), 3, 3)
        with pytest.raises(ResultInvalid):
            validate_assignment(np.array([-1, 0, 1]), 3, 2)

    def test_valid_passes(self):
        validate_assignment(np.array([0, 1, 1]), 3, 2)

    def test_corrupt_record_is_isolated(self, problem):
        # A corrupted result fails validation (kind "invalid", not
        # retryable) without poisoning best-of selection.
        result = runner_for(problem, faults="corrupt@0,0,*", retries=2).run(
            problem
        )
        bad = result.records[0]
        assert not bad.ok
        assert bad.error_kind == "invalid"
        assert bad.attempts == 1  # deterministic failures never retry
        assert "outside the requested range" in bad.error
        assert result.best is not None
        assert result.best.spec_index == 1


class TestFaultMatrix:
    """The acceptance scenario: an injected failure on attempt 1 retries
    under the original seed and lands the exact no-fault result."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("kind", ["crash", "fail"])
    def test_recovers_identically(self, problem, jobs, kind):
        baseline = runner_for(problem, jobs=1, retries=0).run(problem)
        assert all(r.ok for r in baseline.records)

        result = runner_for(
            problem, jobs=jobs, retries=1, faults=f"{kind}@0,0,1",
            timeout=30.0,
        ).run(problem)
        hit = result.records[0]
        assert hit.ok
        assert hit.attempts == 2
        assert any("injected fault" in note for note in hit.fault_trace)
        assert any("retrying with the same seed" in note
                   for note in hit.fault_trace)
        # Bit-deterministic retry: identical to the undisturbed run.
        np.testing.assert_array_equal(
            hit.assignment, baseline.records[0].assignment
        )
        assert hit.objective == baseline.records[0].objective
        # Unrelated tasks survive the worker death.  A pool break kills
        # every worker, so a task running at that instant legitimately
        # gets charged a collateral retry — but same-seed determinism
        # means its result is unchanged either way.
        for other, base in zip(result.records[1:], baseline.records[1:]):
            assert other.ok
            assert other.attempts in (1, 2)
            np.testing.assert_array_equal(other.assignment, base.assignment)
            assert other.objective == base.objective

    def test_retry_exhaustion_keeps_last_error(self, problem):
        result = runner_for(problem, retries=1, faults="fail@0,0,*").run(
            problem
        )
        rec = result.records[0]
        assert not rec.ok
        assert rec.error_kind == "transient"
        assert rec.attempts == 2
        assert sum("retrying" in n for n in rec.fault_trace) == 1

    def test_pool_self_heals_after_crash(self, problem):
        # Worker death breaks the ProcessPoolExecutor; the runner must
        # rebuild it and still run every grid cell to completion.
        result = runner_for(
            problem, jobs=2, num_seeds=2, retries=1, faults="crash@0,1,1"
        ).run(problem)
        assert len(result.records) == 4
        assert all(r.ok for r in result.records)
        crashed = [r for r in result.records
                   if (r.spec_index, r.seed_index) == (0, 1)][0]
        assert crashed.attempts == 2
        assert any("worker process died" in n for n in crashed.fault_trace)


class TestStragglerControl:
    def test_pool_reaps_silent_worker(self, problem):
        # The hang (30s) dwarfs the timeout: only reaping can end it.
        result = runner_for(
            problem, jobs=2, retries=1, faults="hang@1,0,1,30", timeout=0.75
        ).run(problem)
        hung = result.records[1]
        assert hung.ok
        assert hung.attempts == 2
        assert any("silent past task timeout" in n
                   for n in hung.fault_trace)

    def test_inprocess_hang_times_out(self, problem):
        result = runner_for(
            problem, jobs=1, retries=0, faults="hang@1,0,1,30", timeout=0.3
        ).run(problem)
        hung = result.records[1]
        assert not hung.ok
        assert hung.error_kind == "timeout"
        assert "task timeout" in hung.error

    def test_cooperative_timeout_keeps_partial_result(self, problem):
        # A slow metaheuristic pauses at the task timeout and degrades
        # gracefully to its best-so-far partition.
        specs = [SolverSpec("fusion-fission", options={"max_steps": 10**6})]
        result = runner_for(
            problem, specs=specs, retries=0, timeout=0.2
        ).run(problem)
        rec = result.records[0]
        assert rec.ok
        assert math.isfinite(rec.objective)
        assert any("kept partial result" in n for n in rec.fault_trace)


class TestDeadlineAttribution:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cancelled_records_carry_wait_context(self, problem, jobs):
        result = runner_for(problem, jobs=jobs, deadline=0.0).run(problem)
        for rec in result.records:
            assert not rec.ok
            assert rec.error_kind == "cancelled"
            assert rec.attempts == 0
            assert "cancelled" in rec.error
            assert "never scheduled" in rec.error
            assert "waited" in rec.error


class TestReportSchemaV3:
    def test_schema_and_record_fields(self, problem):
        assert REPORT_SCHEMA == "repro-portfolio/v3"
        result = runner_for(
            problem, retries=1, faults="fail@0,0,1"
        ).run(problem)
        payload = json.loads(result.to_json())
        assert payload["schema"] == "repro-portfolio/v3"
        run = payload["runs"][0]
        assert run["attempts"] == 2
        assert run["error_kind"] is None
        assert any("injected fault" in n for n in run["fault_trace"])
        clean = payload["runs"][1]
        assert clean["attempts"] == 1
        assert clean["fault_trace"] == []

    def test_failure_counts_and_table(self, problem):
        result = runner_for(
            problem, retries=0, faults="fail@0,*,*"
        ).run(problem)
        assert result.failure_counts() == {"transient": 1}
        table = result.format_failure_table()
        assert "Failure kind" in table
        assert "transient" in table
        clean = runner_for(problem).run(problem)
        assert clean.format_failure_table() == ""


class TestHeartbeats:
    def test_session_emits_heartbeats(self):
        from repro.api import EVENT_HEARTBEAT, SolveRequest, get_solver

        solver = get_solver("fusion-fission", 2, max_steps=200)
        request = SolveRequest(
            graph=grid_graph(4, 4), k=2, seed=0, heartbeat_interval=1e-9
        )
        session = solver.start(request)
        events = []
        session.subscribe(events.append)
        session.run()
        assert any(e.type == EVENT_HEARTBEAT for e in events)

    def test_heartbeats_disabled(self):
        from repro.api import EVENT_HEARTBEAT, SolveRequest, get_solver

        solver = get_solver("fusion-fission", 2, max_steps=200)
        request = SolveRequest(
            graph=grid_graph(4, 4), k=2, seed=0, heartbeat_interval=None
        )
        session = solver.start(request)
        events = []
        session.subscribe(events.append)
        session.run()
        assert not any(e.type == EVENT_HEARTBEAT for e in events)

    def test_interval_validated(self):
        from repro.api import SolveRequest

        with pytest.raises(ConfigurationError):
            SolveRequest(graph=grid_graph(3, 3), k=2, heartbeat_interval=0.0)


class TestChaosCli:
    @pytest.fixture
    def graph_file(self, tmp_path):
        path = tmp_path / "g.graph"
        write_graph_auto(weighted_caveman_graph(4, 6), path)
        return path

    def test_fault_retry_roundtrip(self, graph_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main([
            "portfolio", str(graph_file), "-k", "4",
            "--methods", "multilevel", "--seeds", "1", "--jobs", "1",
            "--retries", "1", "--retry-backoff", "0.01",
            "--faults", "crash@0,0,1", "--json", str(report),
        ])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["schema"] == "repro-portfolio/v3"
        assert payload["runs"][0]["attempts"] == 2
        assert payload["runs"][0]["fault_trace"]

    def test_partial_failure_prints_summary_table(self, graph_file, capsys):
        code = main([
            "portfolio", str(graph_file), "-k", "4",
            "--methods", "multilevel,spectral", "--seeds", "1",
            "--jobs", "1", "--faults", "fail@0,*,*",
        ])
        assert code == 0  # spectral still wins
        err = capsys.readouterr().err
        assert "Failure kind" in err
        assert "transient" in err

    def test_all_failed_exits_nonzero(self, graph_file, capsys):
        code = main([
            "portfolio", str(graph_file), "-k", "4",
            "--methods", "multilevel", "--seeds", "2", "--jobs", "1",
            "--faults", "fail@*,*,*",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "every portfolio run failed" in err
        assert "Failure kind" in err

    def test_bad_fault_spec_is_clean_error(self, graph_file, capsys):
        code = main([
            "portfolio", str(graph_file), "-k", "4",
            "--methods", "multilevel", "--faults", "explode@0,0,1",
        ])
        assert code != 0
        assert "error:" in capsys.readouterr().err
