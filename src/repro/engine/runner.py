"""The portfolio runner: fan one problem out across (solver × seed).

Execution model
---------------
:class:`PortfolioRunner` expands its specs into a ``(spec × seed)`` task
grid; every task drives its entrant as a :class:`repro.api.SolveSession`
(see :func:`execute_task`) on one of two executors:

* **in-process** (``jobs=1``) — tasks run sequentially in the caller's
  process.  Each task is deep-copied first, mirroring the pickling a
  pool performs, so results are bit-identical between executors.
* **process pool** (``jobs>1``) — a ``concurrent.futures``
  ``ProcessPoolExecutor`` whose workers attach the graph *once* via the
  pool initializer.  With the default ``shm`` transport the initializer
  ships an O(1) :class:`~repro.graph.GraphHandle` and every worker maps
  read-only views over one shared-memory copy of the CSR arrays
  (``graph_transport="pickle"`` restores the legacy per-worker array
  pickle); tasks then ship only the spec and seed, never the graph.
  Self-heal rebuilds re-attach the *same* segment, and the owning
  :class:`~repro.graph.GraphStore` is destroyed in the runner's
  ``finally`` — normal exit, deadline cancel and worker crashes all
  unlink the segment exactly once.

Determinism: task ``(s, i)`` is seeded with
``SeedSequence([base, s, i])``, a pure function of the runner's base
seed and the grid coordinates — independent of executor, job count and
completion order.  Callers may instead supply an explicit seed grid
(the bench harness does, to preserve its historical seed derivation).

Fault tolerance
---------------
The runner survives the three failure classes that dominate long
stochastic portfolios (see ``docs/robustness.md``):

* **Retry with backoff** — a :class:`~repro.engine.retry.RetryPolicy`
  re-executes tasks that failed with a retryable error kind.  The task
  object (and its grid-derived seed) is resubmitted unchanged, so a
  retry that succeeds is bit-identical to a first-try success; records
  carry ``attempts``/``error_kind``/``fault_trace``.
* **Pool self-healing** — a dead worker (OOM kill, segfault) breaks the
  whole ``ProcessPoolExecutor``.  Start/end heartbeats let the runner
  attribute the casualty to the task(s) actually running; the executor
  is rebuilt, collateral tasks are resubmitted without consuming an
  attempt, and only the casualty is charged (and retried, per policy).
* **Straggler control** — ``task_timeout`` bounds each task two ways:
  cooperatively (the session pauses at the timeout and keeps a partial
  result when one exists) and forcibly (workers heartbeat through the
  session event stream; a pool task silent past the timeout has its
  worker killed and comes back as a ``timeout`` record).

Deadline/cancellation: a runner-level ``deadline`` (seconds) cancels
every task that has not *started* when it expires; such tasks come back
as failed records whose error distinguishes "never scheduled" from
"reaped while queued on the executor" and says how long the task waited.
Tasks already running are allowed to finish (bound their runtime with
``task_timeout`` or the per-run ``time_budget`` of the metaheuristics).

Chaos testing: a :class:`~repro.engine.faults.FaultInjector` (the
``faults`` option, or the ``REPRO_FAULTS`` environment variable) makes
chosen grid cells crash, hang, fail or corrupt their result on chosen
attempts — deterministically, on both executors.
"""

from __future__ import annotations

import concurrent.futures
import copy
import os
import queue as queue_mod
import signal
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.common.exceptions import (
    ERROR_KIND_CANCELLED,
    ERROR_KIND_CRASH,
    ERROR_KIND_TIMEOUT,
    ConfigurationError,
    ResultInvalid,
    TaskTimeout,
    classify_error,
)
from repro.common.rng import SeedLike
from repro.common.timer import Deadline, Timer
from repro.engine.aggregate import PortfolioResult, RunRecord
from repro.engine.faults import (
    FaultInjector,
    FaultSpec,
    corrupt_assignment,
    inject_before_solve,
)
from repro.engine.problem import PartitionProblem
from repro.engine.retry import RetryPolicy
from repro.engine.spec import SolverSpec
from repro.graph.graph import Graph
from repro.graph.store import GraphHandle, GraphStore, pickled_graph_bytes

__all__ = ["PortfolioRunner", "RunTask", "execute_task", "validate_assignment"]

#: Valid ``PortfolioRunner.graph_transport`` settings.
GRAPH_TRANSPORTS = ("auto", "shm", "pickle")


@dataclass
class RunTask:
    """One executable cell of the (spec × seed) grid.

    ``attempt``/``timeout``/``fault`` are execution-time annotations the
    runner stamps per attempt; the identity of the task (and its seed)
    never changes across retries.
    """

    spec: SolverSpec
    k: int
    objective: str
    seed: SeedLike
    spec_index: int
    seed_index: int
    islands: int = 1
    migration_interval: int = 10
    attempt: int = 1
    timeout: float | None = None
    fault: FaultSpec | None = None

    def blank_record(
        self, error: str | None = None, error_kind: str | None = None
    ) -> RunRecord:
        """A not-run record (used for cancellations and failures)."""
        return RunRecord(
            label=self.spec.label,
            method=self.spec.method,
            spec_index=self.spec_index,
            seed_index=self.seed_index,
            error=error,
            error_kind=error_kind,
        )


def validate_assignment(
    assignment: np.ndarray, num_vertices: int, k: int, label: str = "solver"
) -> None:
    """Reject malformed solver output before it can poison aggregation.

    Raises :class:`~repro.common.exceptions.ResultInvalid` when the
    assignment is not one part id per vertex with labels in ``[0, k)``.
    """
    assignment = np.asarray(assignment)
    if assignment.shape != (num_vertices,):
        raise ResultInvalid(
            f"{label} returned an assignment of shape {assignment.shape}, "
            f"expected ({num_vertices},)"
        )
    if assignment.size:
        lo = int(assignment.min())
        hi = int(assignment.max())
        if lo < 0 or hi >= k:
            raise ResultInvalid(
                f"{label} returned part labels spanning [{lo}, {hi}], "
                f"outside the requested range [0, {k})"
            )


def execute_task(
    task: RunTask,
    graph: Graph,
    in_pool: bool = False,
    on_heartbeat: Callable[[], None] | None = None,
) -> RunRecord:
    """Run one task against ``graph`` through the session API and score it.

    The solver executes as a :class:`repro.api.SolveSession`
    (``solver.start(request).run()``), which also reports per-run
    iteration counts for the telemetry layer.

    ``task.timeout`` bounds the solve cooperatively: the session pauses
    at the timeout, and a partial result (when one exists) is kept and
    scored, with the degradation noted in the record's fault trace; a
    session that pauses empty-handed fails as ``timeout``.  Without a
    timeout the solve runs unbudgeted, exactly as before.

    ``task.fault`` fires injected chaos faults (crash/hang/fail before
    the solve, corrupt after); ``on_heartbeat`` is invoked on every
    session ``heartbeat`` event so pool workers can prove liveness.

    Never raises: solver failures come back as error records (with a
    classified ``error_kind``) so one bad entrant cannot sink the whole
    portfolio.
    """
    from repro.api import EVENT_HEARTBEAT, STATUS_RUNNING, SolveRequest

    trace: list[str] = []
    try:
        if task.fault is not None:
            inject_before_solve(
                task.fault, in_pool=in_pool, timeout=task.timeout
            )
        solver = task.spec.build(task.k)
        # With a timeout, heartbeat fast enough that the runner's reaper
        # (silence > timeout) never fires on a live, iterating session.
        heartbeat_interval = 1.0
        if task.timeout is not None:
            heartbeat_interval = max(0.02, min(1.0, task.timeout / 4.0))
        islands = task.islands
        if islands > 1 and not getattr(solver, "supports_islands", False):
            # Graceful degradation: one-shot methods (spectral, multilevel,
            # ...) have no iteration loop to islandise — run them plain.
            trace.append(
                f"attempt {task.attempt}: method {task.spec.method} does "
                "not support islands; ran sequentially (islands=1)"
            )
            islands = 1
        request = SolveRequest(
            graph=graph,
            k=task.k,
            seed=task.seed,
            name=task.spec.label,
            heartbeat_interval=heartbeat_interval,
            islands=islands,
            migration_interval=task.migration_interval,
        )
        with Timer() as timer:
            session = solver.start(request)
            if on_heartbeat is not None:
                session.subscribe(
                    lambda event: (
                        on_heartbeat()
                        if event.type == EVENT_HEARTBEAT
                        else None
                    )
                )
            if task.timeout is not None:
                report = session.run(max_seconds=task.timeout)
            else:
                report = session.run()
        if report.partition is None:
            raise TaskTimeout(
                f"task timeout ({task.timeout:g}s) expired before the "
                "solver produced any partition"
            )
        if report.status == STATUS_RUNNING:
            # Graceful degradation: the session paused on the timeout
            # but has a best-so-far partition — keep it, note it.
            trace.append(
                f"attempt {task.attempt}: task timeout ({task.timeout:g}s) "
                f"hit at iteration {report.iterations}; kept partial result"
            )
        assignment = np.asarray(
            report.partition.assignment, dtype=np.int64
        ).copy()
        if task.fault is not None and task.fault.kind == "corrupt":
            assignment = corrupt_assignment(assignment, task.k)
        validate_assignment(
            assignment, graph.num_vertices, task.k, label=task.spec.label
        )
        record = task.blank_record()
        record.attempts = task.attempt
        record.fault_trace = trace
        record.seconds = timer.elapsed
        record.iterations = report.iterations
        record.assignment = assignment
        # The session report already evaluated the partition on every
        # supported objective (cut/ncut/mcut); read the problem criterion
        # back rather than paying a second full scoring pass.
        record.report = report.metrics
        record.objective = float(getattr(record.report, task.objective))
        return record
    except Exception as exc:  # noqa: BLE001 - isolate entrant failures
        record = task.blank_record(
            error=f"{type(exc).__name__}: {exc}",
            error_kind=classify_error(exc),
        )
        record.attempts = task.attempt
        record.fault_trace = trace
        return record


# ---------------------------------------------------------------------------
# Process-pool plumbing.  The graph crosses the process boundary once per
# worker through the initializer — as an O(1) GraphHandle on the shm
# transport (the worker attaches read-only views over the shared segment)
# or as a trusted-unpickled Graph on the legacy pickle transport — and is
# cached in a module global; tasks then pickle small.  The heartbeat queue
# (a Manager proxy) carries start/beat/end liveness records back to the
# runner for straggler reaping and casualty attribution.
# ---------------------------------------------------------------------------
_POOL_GRAPH: Graph | None = None
_POOL_BEATS = None


def _worker_init(graph_ref: GraphHandle | Graph, beats=None) -> None:
    global _POOL_GRAPH, _POOL_BEATS
    if isinstance(graph_ref, GraphHandle):
        _POOL_GRAPH = Graph.from_handle(graph_ref)
    else:
        _POOL_GRAPH = graph_ref
    _POOL_BEATS = beats


def _worker_run(task: RunTask) -> RunRecord:
    assert _POOL_GRAPH is not None, "pool worker used before initialisation"
    key = (task.spec_index, task.seed_index)
    pid = os.getpid()
    on_heartbeat = None
    if _POOL_BEATS is not None:

        def beat(kind: str = "beat") -> None:
            try:
                _POOL_BEATS.put((kind, key, task.attempt, pid))
            except Exception:  # noqa: BLE001
                # The manager is gone (runner tearing down) — liveness
                # reporting must never fail the task itself.
                pass

        on_heartbeat = beat
        beat("start")
    try:
        record = execute_task(
            task, _POOL_GRAPH, in_pool=True, on_heartbeat=on_heartbeat
        )
    finally:
        # An injected crash (os._exit) skips this on purpose: no "end"
        # beat is exactly how the runner attributes the casualty.
        if on_heartbeat is not None:
            beat("end")
    return record


class _TaskState:
    """Scheduler state for one grid cell on the pool executor."""

    __slots__ = (
        "task", "attempt", "trace", "eligible_at", "future", "started",
        "ended", "last_beat", "pid", "reaped",
    )

    def __init__(self, task: RunTask) -> None:
        self.task = task
        self.attempt = 1           # next/current attempt number (1-based)
        self.trace: list[str] = []
        self.eligible_at = 0.0     # monotonic time the next submit is allowed
        self.future = None
        self.started = False       # worker picked the task up (start beat)
        self.ended = False         # worker finished execute_task (end beat)
        self.last_beat = 0.0
        self.pid: int | None = None
        self.reaped = False        # we killed its worker for silence


@dataclass
class PortfolioRunner:
    """Fan a :class:`PartitionProblem` out across (solver × seed).

    Attributes
    ----------
    specs:
        The portfolio entrants.
    num_seeds:
        Seeds per spec; the task grid is ``len(specs) × num_seeds``.
    jobs:
        Worker processes.  ``1`` runs in-process; ``None`` uses the CPU
        count.
    seed:
        Base entropy of the default seed grid (``None`` = fresh OS
        entropy, recorded on the runner for reproducibility).
    deadline:
        Optional total wall-clock budget in seconds; unstarted tasks are
        cancelled once it expires.
    retry:
        :class:`~repro.engine.retry.RetryPolicy` for failed tasks
        (default: no retries).  Retries reuse the task's original seed,
        so they are bit-deterministic.
    task_timeout:
        Per-task wall-clock bound in seconds.  Sessions pause at it
        cooperatively (partial results are kept); pool tasks silent past
        it (no heartbeats) are reaped by killing their worker.
    faults:
        Optional :class:`~repro.engine.faults.FaultInjector` for chaos
        testing; defaults to whatever ``REPRO_FAULTS`` specifies.
    graph_transport:
        How the graph reaches pool workers: ``"shm"`` (one shared-memory
        copy, O(1) handle per worker), ``"pickle"`` (legacy per-worker
        CSR array pickle) or ``"auto"`` (shm when ``jobs > 1``).  The
        in-process executor always reports ``"pickle"`` — nothing
        crosses a process boundary there.
    islands:
        Islands per solve for the iterative families (annealing, ant
        colony, fusion-fission); methods without island support run
        sequentially with a note in their fault trace.  ``1`` (default)
        is bit-identical to the sequential path.
    migration_interval:
        Session iterations between incumbent migrations when
        ``islands > 1``.
    """

    specs: Sequence[SolverSpec]
    num_seeds: int = 1
    jobs: int | None = 1
    seed: int | None = 0
    deadline: float | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    task_timeout: float | None = None
    faults: FaultInjector | None = None
    graph_transport: str = "auto"
    islands: int = 1
    migration_interval: int = 10

    def __post_init__(self) -> None:
        if not self.specs:
            raise ConfigurationError("portfolio needs at least one SolverSpec")
        if self.num_seeds < 1:
            raise ConfigurationError(
                f"num_seeds must be >= 1, got {self.num_seeds}"
            )
        if self.jobs is None:
            self.jobs = os.cpu_count() or 1
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.seed is None:
            self.seed = int(np.random.SeedSequence().entropy % (2**63))
        if self.seed < 0:
            raise ConfigurationError(
                f"seed must be a non-negative integer, got {self.seed}"
            )
        if self.retry is None:
            self.retry = RetryPolicy()
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ConfigurationError(
                f"task_timeout must be > 0, got {self.task_timeout}"
            )
        if self.faults is None:
            self.faults = FaultInjector.from_env()
        if self.graph_transport not in GRAPH_TRANSPORTS:
            raise ConfigurationError(
                f"graph_transport must be one of {GRAPH_TRANSPORTS}, "
                f"got {self.graph_transport!r}"
            )
        if self.islands < 1:
            raise ConfigurationError(
                f"islands must be >= 1, got {self.islands}"
            )
        if self.migration_interval < 1:
            raise ConfigurationError(
                "migration_interval must be >= 1, "
                f"got {self.migration_interval}"
            )

    # -- task grid ---------------------------------------------------------
    def make_tasks(
        self,
        problem: PartitionProblem,
        seed_grid: Sequence[Sequence[SeedLike]] | None = None,
    ) -> list[RunTask]:
        """Expand the (spec × seed) grid into concrete tasks.

        ``seed_grid[s][i]`` overrides the default derivation for spec
        ``s``, seed index ``i`` (shape must match the grid).
        """
        if seed_grid is not None:
            if len(seed_grid) != len(self.specs) or any(
                len(row) != self.num_seeds for row in seed_grid
            ):
                raise ConfigurationError(
                    "seed_grid shape must be [len(specs)][num_seeds]"
                )
        tasks = []
        for s, spec in enumerate(self.specs):
            for i in range(self.num_seeds):
                if seed_grid is not None:
                    seed: SeedLike = seed_grid[s][i]
                else:
                    seed = np.random.SeedSequence([self.seed, s, i])
                tasks.append(
                    RunTask(
                        spec=spec,
                        k=problem.k,
                        objective=problem.objective,
                        seed=seed,
                        spec_index=s,
                        seed_index=i,
                        islands=self.islands,
                        migration_interval=self.migration_interval,
                    )
                )
        return tasks

    # -- fault/retry helpers ----------------------------------------------
    def _fault_for(self, task: RunTask, attempt: int) -> FaultSpec | None:
        if self.faults is None:
            return None
        return self.faults.fault_for(task.spec_index, task.seed_index, attempt)

    def _cancelled_record(
        self,
        task: RunTask,
        deadline: Deadline,
        attempts_done: int,
        trace: list[str],
        queued: bool,
    ) -> RunRecord:
        """A deadline-cancellation record carrying wait-time context."""
        waited = deadline.elapsed()
        where = (
            "reaped while queued on the executor" if queued
            else "never scheduled"
        )
        record = task.blank_record(
            error=(
                f"cancelled: deadline {deadline.seconds:g}s expired; "
                f"{where} (waited {waited:.2f}s since run start)"
            ),
            error_kind=ERROR_KIND_CANCELLED,
        )
        record.attempts = attempts_done
        record.fault_trace = trace
        return record

    # -- execution ---------------------------------------------------------
    def run(
        self,
        problem: PartitionProblem,
        seed_grid: Sequence[Sequence[SeedLike]] | None = None,
        on_record: Callable[[RunRecord], None] | None = None,
    ) -> PortfolioResult:
        """Run the whole grid and aggregate the records.

        Records are returned sorted by grid coordinates regardless of
        completion order; ``on_record`` fires as results arrive.  An
        exception raised by ``on_record`` aborts the run — remaining
        tasks are cancelled (pool tasks already executing still finish)
        and the exception propagates to the caller.
        """
        tasks = self.make_tasks(problem, seed_grid)
        deadline = Deadline(self.deadline)
        if self.jobs == 1:
            records = self._run_inprocess(problem, tasks, deadline, on_record)
        else:
            records = self._run_pool(problem, tasks, deadline, on_record)
        records.sort(key=lambda r: (r.spec_index, r.seed_index))
        return PortfolioResult(problem=problem, records=records)

    def _run_inprocess(
        self,
        problem: PartitionProblem,
        tasks: list[RunTask],
        deadline: Deadline,
        on_record: Callable[[RunRecord], None] | None,
    ) -> list[RunRecord]:
        records = []
        payload_bytes = pickled_graph_bytes(problem.graph)
        for task in tasks:
            if deadline.expired():
                record = self._cancelled_record(
                    task, deadline, attempts_done=0, trace=[], queued=False
                )
            else:
                record = self._run_attempts_inprocess(
                    task, problem.graph, deadline
                )
            record.graph_transport = "pickle"
            record.payload_bytes = payload_bytes
            if on_record is not None:
                on_record(record)
            records.append(record)
        return records

    def _run_attempts_inprocess(
        self, task: RunTask, graph: Graph, deadline: Deadline
    ) -> RunRecord:
        """Drive one task through the retry loop on the caller's process."""
        trace: list[str] = []
        attempt = 1
        while True:
            # Deep-copy mirrors the pool's pickling: the caller's spec
            # and seed objects are never mutated by the run, and every
            # attempt starts from the identical task state.
            attempt_task = copy.deepcopy(task)
            attempt_task.attempt = attempt
            attempt_task.timeout = self.task_timeout
            attempt_task.fault = self._fault_for(task, attempt)
            if attempt_task.fault is not None:
                trace.append(
                    f"attempt {attempt}: injected fault "
                    f"{attempt_task.fault.describe()}"
                )
            record = execute_task(attempt_task, graph)
            trace.extend(record.fault_trace)
            record.fault_trace = trace
            record.attempts = attempt
            if record.ok or not self.retry.should_retry(
                record.error_kind, attempt
            ):
                return record
            backoff = self.retry.backoff_seconds(attempt)
            trace.append(
                f"attempt {attempt} failed ({record.error_kind}); "
                f"retrying with the same seed"
                + (f" after {backoff:g}s backoff" if backoff else "")
            )
            if backoff > 0:
                if deadline.remaining() <= backoff:
                    trace.append(
                        "retry abandoned: runner deadline expires within "
                        f"the {backoff:g}s backoff"
                    )
                    return record
                time.sleep(backoff)
            if deadline.expired():
                trace.append("retry abandoned: runner deadline expired")
                return record
            attempt += 1

    # -- pool executor ------------------------------------------------------
    def resolved_transport(self) -> str:
        """The concrete transport ``"auto"`` resolves to for this runner."""
        if self.graph_transport == "auto":
            return "shm" if self.jobs > 1 else "pickle"
        return self.graph_transport

    def _new_pool(
        self, graph_ref: GraphHandle | Graph, beats, max_workers: int
    ) -> concurrent.futures.ProcessPoolExecutor:
        """Build the executor; ``graph_ref`` is the transport-specific
        graph reference (handle or graph) every worker initialises from.
        Heal rebuilds pass the *same* ref, so shm workers re-attach the
        segment the dead pool was using."""
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_worker_init,
            initargs=(graph_ref, beats),
        )

    @staticmethod
    def _drain_beats(beats, states: dict) -> None:
        now = time.monotonic()
        while True:
            try:
                kind, key, attempt, pid = beats.get_nowait()
            except queue_mod.Empty:
                return
            state = states.get(key)
            if state is None or attempt != state.attempt:
                continue  # stale beat from a superseded attempt
            state.pid = pid
            state.last_beat = now
            if kind == "start":
                state.started = True
            elif kind == "end":
                state.ended = True

    def _run_pool(
        self,
        problem: PartitionProblem,
        tasks: list[RunTask],
        deadline: Deadline,
        on_record: Callable[[RunRecord], None] | None,
    ) -> list[RunRecord]:
        import multiprocessing

        graph = problem.graph
        transport = self.resolved_transport()
        store: GraphStore | None = None
        if transport == "shm":
            store = GraphStore.create(graph)
            graph_ref: GraphHandle | Graph = store.handle
            payload_bytes = store.handle.payload_bytes()
        else:
            graph_ref = graph
            payload_bytes = pickled_graph_bytes(graph)
        records: list[RunRecord] = []
        states = {
            (t.spec_index, t.seed_index): _TaskState(t) for t in tasks
        }
        waiting = [(t.spec_index, t.seed_index) for t in tasks]
        futures: dict = {}
        finished: set = set()
        max_workers = min(self.jobs, len(tasks))
        # Reap threshold: silence past the timeout, plus slack so that
        # post-pause scoring or scheduler hiccups never look like hangs.
        grace = 0.0
        if self.task_timeout is not None:
            grace = min(5.0, max(0.5, 0.25 * self.task_timeout))
        blind_heals = 0

        manager = multiprocessing.Manager()
        beats = manager.Queue()
        pool = self._new_pool(graph_ref, beats, max_workers)

        def emit(record: RunRecord) -> None:
            record.graph_transport = transport
            record.payload_bytes = payload_bytes
            if on_record is not None:
                on_record(record)
            records.append(record)

        def finish(key, record: RunRecord) -> None:
            finished.add(key)
            emit(record)

        def resolve_attempt(key, record: RunRecord) -> None:
            """Merge traces, then finish the task or queue a retry."""
            state = states[key]
            state.trace.extend(record.fault_trace)
            record.fault_trace = state.trace
            record.attempts = state.attempt
            if record.ok or not self.retry.should_retry(
                record.error_kind, state.attempt
            ):
                finish(key, record)
                return
            backoff = self.retry.backoff_seconds(state.attempt)
            state.trace.append(
                f"attempt {state.attempt} failed ({record.error_kind}); "
                f"retrying with the same seed"
                + (f" after {backoff:g}s backoff" if backoff else "")
            )
            state.attempt += 1
            state.eligible_at = time.monotonic() + backoff
            waiting.append(key)

        def resolve_failure(key, error: str, error_kind: str) -> None:
            state = states[key]
            record = state.task.blank_record(
                error=error, error_kind=error_kind
            )
            record.attempts = state.attempt
            resolve_attempt(key, record)

        def heal(broken_keys: list) -> None:
            """Rebuild the executor after a worker death; charge only the
            task(s) that were actually running."""
            nonlocal pool, blind_heals
            self._drain_beats(beats, states)
            for fut in list(futures):
                broken_keys.append(futures.pop(fut))
            casualties = []
            innocents = []
            for key in broken_keys:
                state = states[key]
                state.future = None
                if state.started and not state.ended:
                    casualties.append(key)
                else:
                    innocents.append(key)
            blind_heals = 0 if casualties else blind_heals + 1
            for key in casualties:
                state = states[key]
                if state.reaped:
                    state.trace.append(
                        f"attempt {state.attempt}: silent past task "
                        f"timeout ({self.task_timeout:g}s); worker "
                        f"pid {state.pid} killed"
                    )
                    resolve_failure(
                        key,
                        error=(
                            "TaskTimeout: no heartbeat for more than "
                            f"{self.task_timeout:g}s; worker reaped"
                        ),
                        error_kind=ERROR_KIND_TIMEOUT,
                    )
                else:
                    state.trace.append(
                        f"attempt {state.attempt}: worker process died "
                        "(BrokenProcessPool)"
                    )
                    resolve_failure(
                        key,
                        error=(
                            "SolverCrash: worker process died while "
                            "running this task (pool rebuilt)"
                        ),
                        error_kind=ERROR_KIND_CRASH,
                    )
            if blind_heals > 2:
                # Safety valve: the pool keeps dying with no attributable
                # casualty (e.g. workers OOM before their start beat).
                # Fail what's left instead of rebuilding forever.
                for key in innocents:
                    state = states[key]
                    state.trace.append(
                        "pool died repeatedly with no attributable "
                        "casualty; giving up on this task"
                    )
                    resolve_failure(
                        key,
                        error=(
                            "SolverCrash: process pool kept dying before "
                            "any task reported progress"
                        ),
                        error_kind=ERROR_KIND_CRASH,
                    )
            else:
                for key in innocents:
                    state = states[key]
                    state.trace.append(
                        f"attempt {state.attempt}: resubmitted after pool "
                        "rebuild (collateral of a worker death elsewhere)"
                    )
                    state.eligible_at = 0.0
                    waiting.append(key)
            pool.shutdown(wait=False, cancel_futures=True)
            # Same graph_ref: replacement shm workers re-attach the very
            # segment their predecessors were mapped to — no re-copy.
            pool = self._new_pool(graph_ref, beats, max_workers)

        try:
            while len(finished) < len(states):
                now = time.monotonic()
                # 1. Submit every eligible waiting task (the deadline is
                # checked per task *before* it starts, mirroring the
                # in-process executor).
                if waiting:
                    # heal()/resolve_attempt() append to `waiting` while we
                    # iterate, so drain a snapshot and let them target the
                    # (emptied) live list.
                    queued_keys = waiting[:]
                    waiting[:] = []
                    for idx, key in enumerate(queued_keys):
                        state = states[key]
                        if deadline.expired():
                            finish(
                                key,
                                self._cancelled_record(
                                    state.task,
                                    deadline,
                                    attempts_done=state.attempt - 1,
                                    trace=state.trace,
                                    queued=False,
                                ),
                            )
                            continue
                        if state.eligible_at > now:
                            waiting.append(key)
                            continue
                        attempt_task = copy.copy(state.task)
                        attempt_task.attempt = state.attempt
                        attempt_task.timeout = self.task_timeout
                        attempt_task.fault = self._fault_for(
                            state.task, state.attempt
                        )
                        state.started = False
                        state.ended = False
                        state.pid = None
                        state.reaped = False
                        state.last_beat = now
                        try:
                            future = pool.submit(_worker_run, attempt_task)
                        except BrokenProcessPool:
                            # The pool died between wait cycles; requeue
                            # this key and the rest of the snapshot, heal
                            # (it requeues everything in flight too) and
                            # retry submission on the fresh pool.
                            waiting.extend(queued_keys[idx:])
                            heal([])
                            break
                        if attempt_task.fault is not None:
                            state.trace.append(
                                f"attempt {state.attempt}: injected fault "
                                f"{attempt_task.fault.describe()}"
                            )
                        state.future = future
                        futures[future] = key
                if not futures:
                    if not waiting:
                        continue  # everything resolved; loop re-checks
                    # All remaining tasks are backing off — sleep until
                    # the earliest becomes eligible (or deadline math
                    # cancels them on the next pass).
                    wake = min(states[k].eligible_at for k in waiting)
                    pause = max(0.01, min(wake - time.monotonic(), 0.5))
                    time.sleep(pause)
                    continue

                # 2. Wait for completions, but wake often enough to run
                # the reaper/deadline/backoff sweeps.
                timeouts = []
                if deadline.seconds is not None and not deadline.expired():
                    timeouts.append(max(deadline.remaining(), 0.05))
                if self.task_timeout is not None:
                    timeouts.append(
                        min(0.25, max(0.05, self.task_timeout / 4.0))
                    )
                if waiting:
                    earliest = min(states[k].eligible_at for k in waiting)
                    timeouts.append(max(earliest - now, 0.01))
                done, _ = concurrent.futures.wait(
                    set(futures),
                    timeout=min(timeouts) if timeouts else None,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                self._drain_beats(beats, states)

                # 3. Collect finished futures; a BrokenProcessPool means
                # a worker died — defer those to the healing pass.
                broken_keys: list = []
                pool_broke = False
                for future in done:
                    key = futures.pop(future)
                    state = states[key]
                    try:
                        record = future.result()
                    except concurrent.futures.CancelledError:
                        # Should only happen via the deadline sweep below
                        # (which already emitted the record) — but never
                        # let a cancelled future leak an unresolved task.
                        if key not in finished:
                            state.future = None
                            finish(
                                key,
                                self._cancelled_record(
                                    state.task,
                                    deadline,
                                    attempts_done=state.attempt - 1,
                                    trace=state.trace,
                                    queued=True,
                                ),
                            )
                        continue
                    except BrokenProcessPool:
                        pool_broke = True
                        broken_keys.append(key)
                        continue
                    except Exception as exc:  # noqa: BLE001
                        state.future = None
                        resolve_failure(
                            key,
                            error=f"{type(exc).__name__}: {exc}",
                            error_kind=classify_error(exc),
                        )
                        continue
                    state.future = None
                    resolve_attempt(key, record)
                if pool_broke:
                    heal(broken_keys)
                    continue

                # 4. Reap stragglers: a started task whose heartbeats
                # stopped longer than the timeout ago gets its worker
                # killed (surfaces as BrokenProcessPool next cycle).
                if self.task_timeout is not None:
                    silence_limit = self.task_timeout + grace
                    now = time.monotonic()
                    for future, key in list(futures.items()):
                        state = states[key]
                        if (
                            state.started
                            and not state.ended
                            and not state.reaped
                            and state.pid is not None
                            and now - state.last_beat > silence_limit
                        ):
                            state.reaped = True
                            try:
                                os.kill(state.pid, signal.SIGKILL)
                            except (ProcessLookupError, PermissionError):
                                pass

                # 5. Deadline sweep: cancel whatever is still queued on
                # the executor (running tasks are allowed to finish).
                if deadline.expired():
                    for future, key in list(futures.items()):
                        if future.cancel():
                            futures.pop(future)
                            state = states[key]
                            state.future = None
                            finish(
                                key,
                                self._cancelled_record(
                                    state.task,
                                    deadline,
                                    attempts_done=state.attempt - 1,
                                    trace=state.trace,
                                    queued=True,
                                ),
                            )
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
            manager.shutdown()
            if store is not None:
                # After the pool is down nothing references the segment;
                # this unlinks on every exit path, deadline cancellations
                # and on_record aborts included.
                store.destroy()
        return records
