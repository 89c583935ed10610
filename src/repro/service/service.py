"""The solve service core: submit, time-sliced execution, durability.

:class:`SolveService` is the partitioning-as-a-service engine behind the
HTTP front end (:mod:`repro.service.http`) and the ``repro serve`` /
``repro submit`` CLI pair.  It owns four pieces and one loop:

* a :class:`~repro.service.scheduler.FairShareScheduler` deciding which
  tenant's job gets the next solve slice,
* a bounded worker pool executing slices (each slice is
  ``SolveSession.run(max_seconds/max_iterations)`` → cooperative pause →
  ``checkpoint()``),
* a :class:`~repro.service.store.JobStore` that atomically persists the
  full job record — checkpoint included — at *every* slice boundary, so
  a SIGKILL at any instant loses at most the in-flight slice, and
* a :class:`~repro.service.store.ResultCache` keyed by
  ``(graph_fingerprint, canonical request)`` answering repeated queries
  on hot graphs without running a single solver iteration.

Determinism is inherited, not re-proven: the session checkpoint/resume
contract (bit-identical resume on integral-weight graphs) means a job
sliced N ways — or killed and recovered mid-flight — finishes with the
exact partition an uninterrupted ``solve()`` of the same request
produces.  That is the property the durability tests and the
``service-smoke`` CI job assert end to end.

Faults: ``repro serve --faults 'crash@SEQ,0,ATTEMPT'`` routes the
engine's deterministic :class:`~repro.engine.faults.FaultInjector` into
job execution — the job submission ordinal plays the role of the
portfolio's spec index (seed index is always 0) — and the engine's
:class:`~repro.engine.retry.RetryPolicy` governs recovery, resuming the
retried attempt from the job's last durable checkpoint.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.common.exceptions import (
    ConfigurationError,
    ReproError,
    classify_error,
)
from repro.engine.faults import (
    FaultInjector,
    corrupt_assignment,
    inject_before_solve,
)
from repro.engine.retry import RetryPolicy
from repro.engine.runner import validate_assignment
from repro.graph.fingerprint import graph_fingerprint
from repro.graph.graph import Graph
from repro.service.jobs import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    Job,
    JobSpec,
    cache_key,
    new_job_id,
)
from repro.service.scheduler import FairShareScheduler
from repro.service.store import JobStore, ResultCache

__all__ = ["ServiceConfig", "SolveService", "STATS_SCHEMA"]

STATS_SCHEMA = "repro-service-stats/v1"


@dataclass
class ServiceConfig:
    """Tunables of one service process.

    Attributes
    ----------
    data_dir:
        Root of the durable state (jobs, events, cache, server.json).
    workers:
        Bound of the slice worker pool — how many jobs solve
        *concurrently*; thousands more can be queued.
    slice_seconds:
        Wall-clock budget of one solve slice; ``None`` disables the
        time limit (then ``slice_iterations`` should bound slices).
    slice_iterations:
        Session-iteration budget of one slice; deterministic slicing
        for tests/CI (a wall-clock slice cuts at a machine-dependent
        iteration, an iteration slice always at the same one — the
        *result* is bit-identical either way).
    retry:
        Attempt/backoff policy for failed slices (crash/timeout/
        transient kinds retry from the last durable checkpoint).
    faults:
        Optional deterministic chaos injector (``repro serve --faults``).
    event_fsync:
        Run per-job event logs in fsync-per-event mode so the streams
        survive a SIGKILL along with the checkpoints.
    default_weight:
        Fair-share weight for tenants that never set one.
    """

    data_dir: Path
    workers: int = 2
    slice_seconds: float | None = 0.25
    slice_iterations: int | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    faults: FaultInjector | None = None
    event_fsync: bool = False
    default_weight: float = 1.0

    def __post_init__(self) -> None:
        self.data_dir = Path(self.data_dir)
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.slice_seconds is not None and self.slice_seconds <= 0:
            raise ConfigurationError(
                f"slice_seconds must be > 0, got {self.slice_seconds}"
            )
        if self.slice_iterations is not None and self.slice_iterations < 1:
            raise ConfigurationError(
                f"slice_iterations must be >= 1, got {self.slice_iterations}"
            )


class SolveService:
    """Multi-tenant solve server core (front-end-agnostic).

    All bookkeeping (scheduler, job table, persistence) happens on the
    event-loop thread; worker threads only ever touch their own live
    session and return a plain outcome dict.  ``submit``/``status``/
    ``cancel``/``stats`` are synchronous and safe to call from HTTP
    handlers and tests alike.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.store = JobStore(config.data_dir)
        self.cache = ResultCache(self.store.cache_dir)
        self.scheduler = FairShareScheduler(config.default_weight)
        self.jobs: dict[str, Job] = {}
        self.started_at = time.time()
        self.slices_executed = 0
        self.recovered_jobs = 0
        self._graphs: dict[str, Graph] = {}
        self._instance_graphs: dict[tuple, str] = {}
        self._seq = 0
        self._executor: ThreadPoolExecutor | None = None
        self._workers: list[asyncio.Task] = []
        self._wake: asyncio.Event | None = None
        self._stopping = False
        self._recover()

    # -- restart recovery --------------------------------------------------
    def _recover(self) -> None:
        """Re-adopt every persisted job; re-enqueue the in-flight ones.

        A job found ``running`` was mid-slice when the previous server
        died — its last durable checkpoint is authoritative, the lost
        slice replays bit-identically.  Queued jobs simply re-enqueue.
        """
        for job in self.store.load_all():
            self.jobs[job.id] = job
            self._seq = max(self._seq, job.seq + 1)
            if job.spec.weight is not None:
                self.scheduler.set_weight(job.spec.tenant, job.spec.weight)
            if job.terminal:
                continue
            if job.state == JOB_RUNNING:
                job.fault_trace.append(
                    f"recovered after restart at slice {job.slices} "
                    f"(iteration {job.iterations}); resuming from the "
                    "last durable checkpoint"
                )
            job.state = JOB_QUEUED
            job.recovered = True
            self.recovered_jobs += 1
            self.store.save(job)
            self.scheduler.enqueue(job.spec.tenant, job.id)

    # -- graph plumbing ----------------------------------------------------
    def _graph_for(self, job_or_spec) -> tuple[Graph, str]:
        """Graph + fingerprint for a spec (memoised per fingerprint)."""
        spec = job_or_spec.spec if isinstance(job_or_spec, Job) else \
            job_or_spec
        if spec.instance is not None:
            memo = (spec.instance, spec.graph_seed)
            fingerprint = self._instance_graphs.get(memo)
            if fingerprint is not None and fingerprint in self._graphs:
                return self._graphs[fingerprint], fingerprint
            graph = spec.build_graph()
            fingerprint = graph_fingerprint(graph)
            self._instance_graphs[memo] = fingerprint
        else:
            graph = spec.build_graph()
            fingerprint = graph_fingerprint(graph)
        self._graphs[fingerprint] = graph
        return graph, fingerprint

    # -- submission / queries ----------------------------------------------
    def submit(self, payload: dict) -> dict:
        """Validate, cache-check, persist and enqueue one job.

        Returns the job card.  A cache hit creates the job already
        ``done`` (``cached: true``, zero slices, zero iterations) so the
        status/result endpoints behave identically for hot and cold
        queries.
        """
        spec = JobSpec.from_payload(payload)
        if spec.weight is not None:
            self.scheduler.set_weight(spec.tenant, spec.weight)
        graph, fingerprint = self._graph_for(spec)
        key = cache_key(fingerprint, spec)
        job = Job(
            id=new_job_id(),
            seq=self._seq,
            spec=spec,
            fingerprint=fingerprint,
            key=key,
        )
        self._seq += 1
        cached = self.cache.get(key)
        if cached is not None:
            job.state = JOB_DONE
            job.result = cached
            job.cached = True
        self.jobs[job.id] = job
        self.store.save(job)
        if not job.terminal:
            self.scheduler.enqueue(spec.tenant, job.id)
            self._notify()
        return job.as_dict()

    def get_job(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        return job

    def status(self, job_id: str) -> dict:
        return self.get_job(job_id).as_dict()

    def result(self, job_id: str) -> dict | None:
        """Result payload of a finished job (None while unfinished)."""
        return self.get_job(job_id).result

    def cancel(self, job_id: str) -> dict:
        """Cooperatively cancel a job (queued: immediate; running: at
        the next iteration boundary of its current slice)."""
        job = self.get_job(job_id)
        if job.terminal:
            return job.as_dict()
        job.cancel_requested = True
        if job.state == JOB_QUEUED and self.scheduler.remove(
            job.spec.tenant, job.id
        ):
            job.state = JOB_CANCELLED
            self.store.save(job)
        else:
            session = getattr(job, "live_session", None)
            if session is not None:
                session.cancel()
        return job.as_dict()

    def events_path(self, job_id: str) -> Path:
        return self.store.events_path(self.get_job(job_id).id)

    def has_pending(self) -> bool:
        return any(not job.terminal for job in self.jobs.values())

    def stats(self) -> dict:
        """The ``/stats`` payload: queues, cache counters, slice totals."""
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "schema": STATS_SCHEMA,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "workers": self.config.workers,
            "slice_seconds": self.config.slice_seconds,
            "slice_iterations": self.config.slice_iterations,
            "jobs": {
                "total": len(self.jobs),
                "by_state": dict(sorted(states.items())),
                "recovered": self.recovered_jobs,
            },
            "slices_executed": self.slices_executed,
            "cache": self.cache.stats(),
            "tenants": {
                "weights": self.scheduler.weights(),
                "backlog": self.scheduler.backlog(),
            },
            "faults": bool(self.config.faults),
        }

    # -- the pump ----------------------------------------------------------
    def _notify(self) -> None:
        if self._wake is not None:
            self._wake.set()

    async def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        if self._workers:
            return
        self._stopping = False
        self._wake = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-slice",
        )
        self._workers = [
            asyncio.create_task(self._worker_loop())
            for _ in range(self.config.workers)
        ]
        if len(self.scheduler):
            self._notify()

    async def stop(self) -> None:
        """Stop pulling new slices; let in-flight slices finish."""
        self._stopping = True
        self._notify()
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._workers = []
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    async def drain(self, timeout: float | None = None) -> None:
        """Run until every submitted job is terminal (tests/CLI helper)."""
        await self.start()
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.has_pending():
            if deadline is not None and time.monotonic() > deadline:
                raise ReproError(
                    f"service drain timed out after {timeout:g}s with "
                    f"{sum(1 for j in self.jobs.values() if not j.terminal)} "
                    "jobs unfinished"
                )
            await asyncio.sleep(0.01)

    async def _worker_loop(self) -> None:
        assert self._wake is not None
        while not self._stopping:
            job_id = self.scheduler.next()
            if job_id is None:
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=0.5)
                except asyncio.TimeoutError:
                    pass
                continue
            job = self.jobs[job_id]
            if job.terminal:  # cancelled while queued, already final
                continue
            job.state = JOB_RUNNING
            loop = asyncio.get_running_loop()
            outcome = await loop.run_in_executor(
                self._executor, self._run_slice_sync, job
            )
            self._apply_outcome(job, outcome)

    # -- slice execution (worker thread) -------------------------------------
    def _run_slice_sync(self, job: Job) -> dict:
        """Execute one budgeted slice of ``job``; never raises.

        Runs on a pool thread.  Touches only the job's spec/checkpoint
        (stable while the job is running) and its own session; all state
        transitions happen back on the loop in :meth:`_apply_outcome`.
        """
        from repro.api import JsonlEventWriter, resume

        writer = None
        try:
            fault = None
            if self.config.faults is not None:
                fault = self.config.faults.fault_for(job.seq, 0, job.attempts)
            if fault is not None and fault.kind != "corrupt":
                inject_before_solve(
                    fault, in_pool=False,
                    timeout=self.config.slice_seconds or 1.0,
                )
            graph = self._graphs.get(job.fingerprint or "")
            if graph is None:
                graph, _ = self._graph_for(job)
            session = (
                resume(graph, job.checkpoint)
                if job.checkpoint is not None
                else self._fresh_session(job, graph)
            )
            job.live_session = session
            if job.cancel_requested:
                session.cancel()
            writer = JsonlEventWriter(
                self.store.events_path(job.id),
                fsync=self.config.event_fsync,
                append=True,
            )
            session.subscribe(writer)
            report = session.run(
                max_seconds=self._slice_seconds_target(session),
                max_iterations=self._slice_iterations_target(job, session),
            )
            outcome = self._outcome_from_report(job, session, report, fault)
            if outcome["kind"] == "paused":
                # Checkpoint before the writer closes so the checkpoint
                # event lands in the job's stream too.
                outcome["checkpoint"] = session.checkpoint()
            return outcome
        except Exception as exc:  # noqa: BLE001 - isolate job failures
            return {
                "kind": "error",
                "error": f"{type(exc).__name__}: {exc}",
                "error_kind": classify_error(exc),
            }
        finally:
            job.live_session = None
            if writer is not None:
                writer.close()

    def _fresh_session(self, job: Job, graph: Graph):
        from repro.api import SolveRequest, get_solver
        from repro.api.registry import METAHEURISTICS

        spec = job.spec
        options = dict(spec.options)
        if spec.objective is not None and spec.method in METAHEURISTICS:
            options.setdefault("objective", spec.objective)
        solver = get_solver(spec.method, spec.k, **options)
        return solver.start(SolveRequest(
            graph=graph,
            k=spec.k,
            objective=spec.objective,
            balance_tolerance=spec.balance_tolerance,
            seed=spec.seed,
            name=spec.name,
            islands=spec.islands,
            migration_interval=spec.migration_interval,
        ))

    def _slice_seconds_target(self, session) -> float | None:
        # run() treats max_seconds as session-total; grant each slice a
        # fresh window on top of the cumulative solve time.
        if self.config.slice_seconds is None:
            return None
        return session.elapsed() + self.config.slice_seconds

    def _slice_iterations_target(self, job: Job, session) -> int | None:
        targets = []
        if self.config.slice_iterations is not None:
            targets.append(session.iteration + self.config.slice_iterations)
        if job.spec.max_iterations is not None:
            targets.append(job.spec.max_iterations)
        return min(targets) if targets else None

    def _outcome_from_report(self, job: Job, session, report, fault) -> dict:
        from repro.api import STATUS_CANCELLED, STATUS_DONE

        base = {
            "iterations": session.iteration,
            "seconds": session.elapsed(),
        }
        if report.status == STATUS_CANCELLED:
            return {"kind": "cancelled", **base}
        budget_done = (
            job.spec.max_iterations is not None
            and session.iteration >= job.spec.max_iterations
        )
        if report.status != STATUS_DONE and not budget_done:
            return {"kind": "paused", **base}
        # Terminal: finished naturally, or exhausted the job's own
        # iteration budget (deterministic, so still cacheable).
        if report.partition is None:
            return {
                "kind": "error",
                "error": (
                    f"iteration budget ({job.spec.max_iterations}) expired "
                    "before the solver produced any partition"
                ),
                "error_kind": "config",
                **base,
            }
        assignment = np.asarray(
            report.partition.assignment, dtype=np.int64
        ).copy()
        note = None
        if fault is not None and fault.kind == "corrupt":
            assignment = corrupt_assignment(assignment, job.spec.k)
            note = f"injected fault: {fault.describe()}"
        try:
            validate_assignment(
                assignment, session.request.graph.num_vertices, job.spec.k,
                label=job.spec.method,
            )
        except Exception as exc:  # ResultInvalid
            outcome = {
                "kind": "error",
                "error": f"{type(exc).__name__}: {exc}",
                "error_kind": classify_error(exc),
                **base,
            }
            if note:
                outcome["note"] = note
            return outcome
        result = report.as_dict(include_assignment=True)
        if budget_done and report.status != STATUS_DONE:
            result["status"] = "paused-budget"
        return {"kind": "done", "result": result, **base}

    # -- state transitions (loop thread) -------------------------------------
    def _apply_outcome(self, job: Job, outcome: dict) -> None:
        self.slices_executed += 1
        job.slices += 1
        job.iterations = int(outcome.get("iterations", job.iterations))
        job.seconds = float(outcome.get("seconds", job.seconds))
        kind = outcome["kind"]
        if note := outcome.get("note"):
            job.fault_trace.append(f"attempt {job.attempts}: {note}")
        if kind == "done":
            job.state = JOB_DONE
            job.result = outcome["result"]
            job.checkpoint = None
            if job.key is not None:
                self.cache.put(
                    job.key, job.result,
                    fingerprint=job.fingerprint or "",
                    request=job.spec.solve_fields(),
                )
        elif kind == "cancelled":
            job.state = JOB_CANCELLED
        elif kind == "paused":
            job.checkpoint = outcome["checkpoint"]
            if job.cancel_requested:
                job.state = JOB_CANCELLED
            else:
                job.state = JOB_QUEUED
                self.scheduler.enqueue(job.spec.tenant, job.id)
                self._notify()
        else:  # error
            self._apply_error(job, outcome)
        self.store.save(job)

    def _apply_error(self, job: Job, outcome: dict) -> None:
        error = outcome.get("error", "unknown error")
        error_kind = outcome.get("error_kind", "error")
        if self.config.retry.should_retry(error_kind, job.attempts) \
                and not job.cancel_requested:
            delay = self.config.retry.backoff_seconds(job.attempts)
            job.fault_trace.append(
                f"attempt {job.attempts}: {error} [{error_kind}] — "
                f"retrying from the last checkpoint in {delay:g}s"
            )
            job.attempts += 1
            job.state = JOB_QUEUED
            asyncio.get_running_loop().create_task(
                self._requeue_after(job, delay)
            )
        else:
            job.state = JOB_FAILED
            job.error = error
            job.error_kind = error_kind

    async def _requeue_after(self, job: Job, delay: float) -> None:
        if delay > 0:
            await asyncio.sleep(delay)
        if job.terminal:
            return
        self.scheduler.enqueue(job.spec.tenant, job.id)
        self._notify()
