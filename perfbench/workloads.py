"""The three closed-loop workloads of the benchmark.

Every workload turns the benchmark seed into an endless, deterministic
stream of requests.  A run takes requests from the stream until the
measured time is spent and the stream's first ``prefix`` requests are
done; the prefix is what the result digest and ``objective_mean``
cover, so both are the same at one seed however fast the code is.
Every request caps its work by iteration or step counts, never by
wall-clock budgets, so two commits do identical work per request.

* ``solve-atc`` — one caller runs sequential solve sessions (``ff``,
  ``sa``, ``aco``, ``ml``) on ``atc-core`` in this process.
* ``portfolio-grid`` — ``PortfolioRunner(jobs=2)`` calls on ``grid-64``.
* ``service-mix`` — two client threads drive a real ``repro serve``
  subprocess over loopback HTTP with a four-tenant job mix.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    FAMILY,
    WORK,
    BenchError,
    assignment_digest,
    check_result,
    child_env,
    median,
    vm_hwm_kb,
)

HERE = Path(__file__).resolve().parent


@dataclass
class Result:
    """One unit of finished work: a solve, a portfolio task or a job."""

    key: str
    prefix: bool
    ok: bool
    mcut: float | None = None
    digest: str | None = None
    error: str | None = None


@dataclass
class PassResult:
    """What one measured pass over the request stream produced."""

    wall: float
    latencies: list = field(default_factory=list)
    results: list = field(default_factory=list)
    family_latency: dict = field(default_factory=dict)
    #: Per-layer values measured by the workload itself (client side).
    layer: dict = field(default_factory=dict)
    #: Spans recorded in other processes (pool workers, the server).
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    #: Peak RSS of processes that ``getrusage`` does not see, in kB.
    extra_rss_kb: int = 0
    #: Seconds the pass spent starting the program it measures, when it
    #: starts one (the server of ``service-mix``).
    setup_s: float | None = None


#: One small solve per family, run before timing so that lazy imports
#: and first-call costs are paid in set-up.
WARMUP_INSTANCE = "caveman-8x6"
WARMUP = (
    ("fusion-fission", {"max_steps": 30, "objective": "mcut"}),
    ("multilevel", {}),
    ("simulated-annealing", {"max_steps": 500, "objective": "mcut"}),
    ("ant-colony", {"iterations": 1, "objective": "mcut"}),
)


def _warm_up() -> None:
    from repro.api import SolveRequest, get_solver
    from repro.workloads import build_instance

    graph = build_instance(WARMUP_INSTANCE)
    for method, options in WARMUP:
        get_solver(method, 4, **options).start(
            SolveRequest(graph, 4, objective="mcut", seed=0)
        ).run()


def _ready_probe(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its first request ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    finally:
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"setup probe of {workload} failed ({line!r})")
    return ready - start


# ---------------------------------------------------------------------------
# solve-atc
# ---------------------------------------------------------------------------
class SolveAtc:
    """Sequential solve sessions on ``atc-core`` (n=762, k=32, mcut)."""

    name = "solve-atc"
    instance = "atc-core"
    k = 32
    #: family -> (registry method, solver options); every cap is a count.
    families = {
        "ff": ("fusion-fission", {"max_steps": 600, "objective": "mcut"}),
        "sa": ("simulated-annealing",
               {"max_steps": 20000, "objective": "mcut"}),
        "aco": ("ant-colony", {"iterations": 8, "objective": "mcut"}),
        "ml": ("multilevel", {}),
    }
    #: Five seeds × four families.
    prefix = 20

    def __init__(self, tiny: bool = False) -> None:
        self.tiny = tiny
        if tiny:
            self.families = {
                "ff": ("fusion-fission", {"max_steps": 40, "objective": "mcut"}),
                "sa": ("simulated-annealing",
                       {"max_steps": 500, "objective": "mcut"}),
                "aco": ("ant-colony", {"iterations": 1, "objective": "mcut"}),
                "ml": ("multilevel", {}),
            }
            self.prefix = 4
        self.graph = None

    def setup_graph(self) -> None:
        """Build and fingerprint the instance, as every fresh caller does."""
        from repro.graph.fingerprint import graph_fingerprint
        from repro.workloads import build_instance

        self.graph = build_instance(self.instance)
        graph_fingerprint(self.graph)

    def setup(self) -> None:
        self.setup_graph()
        _warm_up()

    def setup_sample(self, seed: int) -> float:
        return _ready_probe(self.name, seed)

    def stream(self, seed: int):
        import numpy as np

        rng = np.random.default_rng([seed, 1])
        names = sorted(self.families)
        while True:
            solver_seed = int(rng.integers(2**31))
            for family in rng.permutation(names):
                yield str(family), solver_seed

    def requests(self, seed: int) -> list[dict]:
        """The solve requests of the prefix."""
        stream = self.stream(seed)
        out = []
        for _ in range(self.prefix):
            family, solver_seed = next(stream)
            method, options = self.families[family]
            out.append({"method": method, "options": dict(options),
                        "k": self.k, "seed": solver_seed})
        return out

    def measure(self, seed: int, seconds: float, prefix_only: bool,
                tracer=None) -> PassResult:
        from repro.api import SolveRequest, get_solver

        out = PassResult(wall=0.0)
        stream = self.stream(seed)
        start = time.perf_counter()
        index = 0
        # Whole rounds of the four families only, so that every run has
        # the same family mix and the latency median compares like with
        # like.
        while index < self.prefix or index % len(self.families) or (
            not prefix_only and time.perf_counter() - start < seconds
        ):
            family, solver_seed = next(stream)
            method, options = self.families[family]
            key = f"{family}:{solver_seed}"
            if tracer is not None:
                tracer.set_trace(index)
                token = tracer.begin("bench.request")
            t0 = time.perf_counter()
            try:
                session = get_solver(method, self.k, **options).start(
                    SolveRequest(self.graph, self.k, objective="mcut",
                                 seed=solver_seed)
                )
                report = session.run()
            finally:
                latency = time.perf_counter() - t0
                if tracer is not None:
                    tracer.end(token)
            out.latencies.append(latency)
            out.family_latency.setdefault(family, []).append(latency)
            out.results.append(self._result(key, index < self.prefix, report))
            index += 1
        out.wall = time.perf_counter() - start
        return out

    def _result(self, key: str, prefix: bool, report) -> Result:
        if report.partition is None or report.status != "done":
            return Result(key, prefix, ok=False,
                          error=f"status {report.status}")
        value = check_result(
            self.graph, report.assignment, self.k, report.objective_value,
            key, partition=report.partition,
        )
        return Result(key, prefix, ok=True, mcut=value,
                      digest=assignment_digest(report.assignment))


# ---------------------------------------------------------------------------
# portfolio-grid
# ---------------------------------------------------------------------------
def _collect_worker_spans(tracer) -> None:
    """Ship the spans pool workers record back on their run records.

    Workers are forked from this process after the layers were wrapped,
    so they record into their own copy of ``tracer``; the wrapped
    ``_worker_run`` moves each task's spans onto the record it returns.
    """
    import repro.engine.runner as runner

    original = runner._worker_run

    def _worker_run(task):
        tracer._local.stack = []
        mark = len(tracer.spans)
        token = tracer.begin("engine.task")
        try:
            record = original(task)
        finally:
            tracer.end(token)
        pid = os.getpid()
        record.perfbench_spans = [
            (f"{pid}:{sid}", None if parent is None else f"{pid}:{parent}",
             trace, name, t0, t1)
            for sid, parent, trace, name, t0, t1 in tracer.spans[mark:]
        ]
        del tracer.spans[mark:]
        return record

    _worker_run.__module__ = original.__module__
    _worker_run.__qualname__ = original.__qualname__
    tracer._patches.append((runner, "_worker_run", original))
    runner._worker_run = _worker_run


class PortfolioGrid:
    """``PortfolioRunner(jobs=2)`` calls on ``grid-64`` (n=4096, k=8)."""

    name = "portfolio-grid"
    instance = "grid-64"
    k = 8
    jobs = 2
    seeds_per_call = 1
    #: The longest entrant first, so the two workers finish together.
    specs = (
        ("fusion-fission", {"max_steps": 300, "objective": "mcut"}),
        ("multilevel", {}),
        ("simulated-annealing", {"max_steps": 20000, "objective": "mcut"}),
        ("ant-colony", {"iterations": 4, "objective": "mcut"}),
    )
    #: Portfolio calls in the prefix.
    prefix = 3

    def __init__(self, tiny: bool = False) -> None:
        self.tiny = tiny
        if tiny:
            self.instance = "grid-16"
            self.k = 4
            self.specs = WARMUP
            self.seeds_per_call = 1
            self.prefix = 1
        self.graph = None
        self.problem = None

    def setup_graph(self) -> None:
        """Build and fingerprint the instance, as every fresh caller does."""
        from repro.engine import PartitionProblem
        from repro.graph.fingerprint import graph_fingerprint
        from repro.workloads import build_instance

        self.graph = build_instance(self.instance)
        graph_fingerprint(self.graph)
        self.problem = PartitionProblem(self.graph, self.k, objective="mcut")

    def setup(self) -> None:
        self.setup_graph()
        _warm_up()

    def setup_sample(self, seed: int) -> float:
        return _ready_probe(self.name, seed)

    def _runner(self, call_seed: int):
        from repro.engine import PortfolioRunner, SolverSpec

        return PortfolioRunner(
            [SolverSpec(method, options=dict(options))
             for method, options in self.specs],
            num_seeds=self.seeds_per_call, jobs=self.jobs, seed=call_seed,
        )

    def stream(self, seed: int):
        import numpy as np

        rng = np.random.default_rng([seed, 2])
        while True:
            yield int(rng.integers(2**31))

    def requests(self, seed: int) -> list[dict]:
        """The portfolio tasks of the prefix."""
        stream = self.stream(seed)
        out = []
        for _ in range(self.prefix):
            runner = self._runner(next(stream))
            for task in runner.make_tasks(self.problem):
                out.append({"method": task.spec.method,
                            "options": dict(task.spec.options),
                            "k": task.k, "seed": runner.seed,
                            "task": (task.spec_index, task.seed_index)})
        return out

    def measure(self, seed: int, seconds: float, prefix_only: bool,
                tracer=None) -> PassResult:
        out = PassResult(wall=0.0)
        if tracer is not None:
            _collect_worker_spans(tracer)
        first_record, busy, calls_wall = [], 0.0, 0.0
        attempts, payload = 0, 0
        stream = self.stream(seed)
        start = time.perf_counter()
        index = 0
        while index < self.prefix or (
            not prefix_only and time.perf_counter() - start < seconds
        ):
            call_seed = next(stream)
            runner = self._runner(call_seed)
            arrivals = []
            if tracer is not None:
                tracer.set_trace(index)
                token = tracer.begin("bench.request")
            t0 = time.perf_counter()
            try:
                result = runner.run(
                    self.problem,
                    on_record=lambda r: arrivals.append(time.perf_counter()),
                )
            finally:
                latency = time.perf_counter() - t0
                if tracer is not None:
                    tracer.end(token)
            out.latencies.append(latency)
            first_record.append(min(arrivals) - t0)
            calls_wall += latency
            for record in result.records:
                busy += record.seconds
                if record.ok:
                    out.family_latency.setdefault(
                        FAMILY[record.method], []).append(record.seconds)
                attempts += record.attempts
                payload = max(payload, record.payload_bytes or 0)
                out.spans.extend(getattr(record, "perfbench_spans", ()))
                key = f"{call_seed}:{record.label}:{record.seed_index}"
                out.results.append(self._result(key, index < self.prefix,
                                                record))
            index += 1
        out.wall = time.perf_counter() - start
        out.layer = {
            "engine.first_record_s": median(first_record),
            "engine.busy_ratio": busy / (calls_wall * self.jobs),
            "engine.payload_bytes": float(payload),
            "engine.attempts": float(attempts),
        }
        return out

    def _result(self, key: str, prefix: bool, record) -> Result:
        if not record.ok:
            return Result(key, prefix, ok=False, error=record.error)
        value = check_result(self.graph, record.assignment, self.k,
                             record.objective, key)
        return Result(key, prefix, ok=True, mcut=value,
                      digest=assignment_digest(record.assignment))


# ---------------------------------------------------------------------------
# service-mix
# ---------------------------------------------------------------------------
#: tenant, weight, instance, k, method, job iteration cap, options.
TENANTS = (
    ("ff-caveman", 1.0, "caveman-8x6", 8, "fusion-fission", 8, {}),
    ("sa-powerlaw", 2.0, "powerlaw-200", 4, "simulated-annealing", 30, {}),
    ("ml-mesh", 1.0, "mesh-200", 4, "multilevel", None, {}),
    ("aco-powerlaw", 3.0, "powerlaw-2000", 8, "ant-colony", 3, {}),
)
TINY_TENANTS = (
    ("ff-caveman", 1.0, "caveman-8x6", 8, "fusion-fission", 2, {}),
    ("sa-powerlaw", 2.0, "powerlaw-200", 4, "simulated-annealing", 3, {}),
    ("ml-mesh", 1.0, "mesh-200", 4, "multilevel", None, {}),
    ("aco-powerlaw", 3.0, "powerlaw-200", 4, "ant-colony", 2, {}),
)
#: Arguments of ``repro serve``: slices end on iteration counts only.
SERVE_ARGS = ("--workers", "2", "--slice-iterations", "1", "--slice", "none")
#: After the first round, every fourth job of a client is a resubmit.
RESUBMIT_EVERY = 4


class Server:
    """A ``repro serve`` subprocess started through the launcher.

    The launcher reports readiness and every job's terminal transition
    on a pipe, so completion is seen as it happens instead of by
    polling.
    """

    def __init__(self, trace_out: Path | None = None) -> None:
        WORK.mkdir(exist_ok=True)
        self.data_dir = WORK / f"svc-{os.getpid()}-{time.monotonic_ns()}"
        self.log_path = self.data_dir.with_suffix(".log")
        self.trace_out = trace_out
        self.done: dict[str, tuple[float, str]] = {}
        self.cond = threading.Condition()
        self.port: int | None = None
        self.proc: subprocess.Popen | None = None
        self._reader: threading.Thread | None = None

    def start(self, timeout: float = 60.0) -> float:
        """Spawn and wait until ``/healthz`` answers; returns seconds."""
        read_fd, write_fd = os.pipe()
        cmd = [sys.executable, str(HERE / "serve_launcher.py"),
               "--notify-fd", str(write_fd)]
        if self.trace_out is not None:
            cmd += ["--trace-out", str(self.trace_out)]
        cmd += ["--", "--data-dir", str(self.data_dir), *SERVE_ARGS]
        start = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                pass_fds=(write_fd,),
            )
        os.close(write_fd)
        self._reader = threading.Thread(
            target=self._read, args=(read_fd,), daemon=True
        )
        self._reader.start()
        with self.cond:
            if not self.cond.wait_for(
                lambda: self.port is not None or self.proc.poll() is not None,
                timeout,
            ) or self.port is None:
                raise BenchError(f"server did not start: {self.log_tail()}")
        self.client().healthz()
        return time.perf_counter() - start

    def _read(self, fd: int) -> None:
        with os.fdopen(fd, "r") as pipe:
            for line in pipe:
                now = time.perf_counter()
                parts = line.split()
                with self.cond:
                    if parts[0] == "ready":
                        self.port = int(parts[1])
                    elif parts[0] == "done":
                        self.done[parts[1]] = (now, parts[2])
                    self.cond.notify_all()
        with self.cond:
            self.cond.notify_all()

    def client(self):
        from repro.service import ServiceClient

        return ServiceClient("127.0.0.1", self.port, timeout=120.0)

    def wait_done(self, job_id: str, timeout: float = 120.0):
        """``(time seen, state)`` of a job's terminal transition."""
        with self.cond:
            if not self.cond.wait_for(
                lambda: job_id in self.done or self.proc.poll() is not None,
                timeout,
            ) or job_id not in self.done:
                raise BenchError(f"job {job_id} did not finish")
            return self.done[job_id]

    def stop(self) -> int:
        """Read peak RSS, then SIGTERM and wait; returns ``VmHWM`` kB."""
        hwm = 0
        if self.proc is not None and self.proc.poll() is None:
            hwm = vm_hwm_kb(self.proc.pid)
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._reader is not None:
            self._reader.join(timeout=10)
        shutil.rmtree(self.data_dir, ignore_errors=True)
        return hwm

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text()[-2000:]
        except OSError:
            return ""

    def cleanup(self) -> None:
        self.log_path.unlink(missing_ok=True)


class ServiceMix:
    """Two closed-loop clients against ``repro serve --workers 2``."""

    name = "service-mix"
    clients = 2
    #: Jobs per client in the prefix (the p90 needs >= 100 jobs).
    prefix = 50

    def __init__(self, tiny: bool = False) -> None:
        self.tiny = tiny
        self.tenants = TINY_TENANTS if tiny else TENANTS
        if tiny:
            self.prefix = 5
        self.graphs: dict = {}

    def setup(self) -> None:
        from repro.workloads import build_instance

        for tenant in self.tenants:
            self.graphs[tenant[2]] = build_instance(tenant[2])

    def setup_sample(self, seed: int) -> float:
        server = Server()
        try:
            return server.start()
        finally:
            server.stop()
            server.cleanup()

    def stream(self, seed: int, client: int):
        """Payloads of one client.

        Fresh jobs visit the tenants in rounds, each round in a seeded
        order, so every tenant appears within the first round.  From
        then on every fourth job, at fixed positions, resubmits a seeded
        pick of the client's earlier payloads verbatim (a result-cache
        hit), so every seed gets the same share of hits.
        """
        import numpy as np

        rng = np.random.default_rng([seed, 3, client])
        sent: list[dict] = []
        rounds: list[int] = []
        first = len(self.tenants)
        for index in itertools.count():
            if index >= first and (index - first) % RESUBMIT_EVERY == 0:
                payload = sent[int(rng.integers(len(sent)))]
            else:
                if not rounds:
                    rounds = list(rng.permutation(len(self.tenants)))
                tenant, weight, instance, k, method, iters, options = \
                    self.tenants[int(rounds.pop())]
                payload = {
                    "tenant": tenant, "weight": weight,
                    "instance": instance, "k": k, "method": method,
                    "objective": "mcut", "seed": int(rng.integers(2**31)),
                    "options": dict(options),
                }
                if iters is not None:
                    payload["max_iterations"] = iters
                sent.append(payload)
            yield payload

    def requests(self, seed: int) -> list[dict]:
        """The submit payloads of the prefix, client by client."""
        out = []
        for client in range(self.clients):
            stream = self.stream(seed, client)
            out.extend(next(stream) for _ in range(self.prefix))
        return out

    def measure(self, seed: int, seconds: float, prefix_only: bool,
                tracer=None, trace_out: Path | None = None) -> PassResult:
        server = Server(trace_out=trace_out)
        rows: list[list] = [[] for _ in range(self.clients)]
        errors: list[BaseException] = []
        try:
            setup_s = server.start()
            start = time.perf_counter()
            threads = [
                threading.Thread(
                    target=self._client_loop,
                    args=(server, seed, c, start, seconds, prefix_only,
                          rows[c], errors),
                )
                for c in range(self.clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - start
            stats = server.client().stats()
        finally:
            hwm = server.stop()
        try:
            if errors:
                raise errors[0]
            if server.proc.returncode != 0:
                raise BenchError(f"server exited {server.proc.returncode}: "
                                 f"{server.log_tail()}")
        finally:
            server.cleanup()
        out = self._collect(rows, wall, stats, hwm, trace_out)
        out.setup_s = setup_s
        return out

    def _client_loop(self, server, seed, client, start, seconds,
                     prefix_only, rows, errors) -> None:
        try:
            api = server.client()
            stream = self.stream(seed, client)
            index = 0
            while index < self.prefix or (
                not prefix_only and time.perf_counter() - start < seconds
            ):
                payload = next(stream)
                t0 = time.perf_counter()
                card = api.submit(payload)
                if card["state"] in ("done", "failed", "cancelled"):
                    t1, state = time.perf_counter(), card["state"]
                else:
                    t1, state = server.wait_done(card["id"])
                envelope = api.result(card["id"])
                rows.append((client, index, payload, t1 - t0, state,
                             envelope))
                index += 1
        except BaseException as exc:  # noqa: BLE001 - re-raised by measure
            errors.append(exc)

    def _collect(self, rows, wall, stats, hwm, trace_out) -> PassResult:
        out = PassResult(wall=wall, extra_rss_kb=hwm)
        fresh: dict[str, str] = {}
        nonsolve, hit_latency = [], []
        ordered = sorted((r for per in rows for r in per),
                         key=lambda r: (r[1], r[0]))
        for client, index, payload, latency, state, envelope in ordered:
            key = json.dumps(payload, sort_keys=True)
            label = f"client{client}#{index}"
            out.latencies.append(latency)
            prefix = index < self.prefix
            if state != "done":
                out.results.append(Result(label, prefix, ok=False,
                                          error=envelope.get("error")))
                continue
            result = envelope["result"]
            graph = self.graphs[payload["instance"]]
            value = check_result(graph, result["assignment"], payload["k"],
                                 result["objective_value"], label)
            digest = assignment_digest(result["assignment"])
            if envelope["cached"]:
                hit_latency.append(latency)
                if key in fresh and fresh[key] != digest:
                    raise BenchError(
                        f"{label}: cached result differs from the fresh "
                        "result for the same request"
                    )
            else:
                fresh.setdefault(key, digest)
                nonsolve.append(latency - float(result["seconds"]))
                out.family_latency.setdefault(
                    FAMILY[payload["method"]], []).append(result["seconds"])
            out.results.append(Result(f"{label}:{key}", prefix, ok=True,
                                      mcut=value, digest=digest))
        cache = stats.get("cache", {})
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        out.layer = {
            "service.nonsolve_s": median(nonsolve) if nonsolve else 0.0,
            "service.cache_hit_latency_s": (
                median(hit_latency) if hit_latency else 0.0),
            "service.cache_hit_ratio": (
                cache.get("hits", 0) / lookups if lookups else 0.0),
            "service.cache_lookups": float(lookups),
        }
        if trace_out is not None:
            dump = json.loads(Path(trace_out).read_text())
            out.spans = [tuple(row) for row in dump["spans"]]
            out.counters = dump["counters"]
        return out


WORKLOADS = {
    SolveAtc.name: SolveAtc,
    PortfolioGrid.name: PortfolioGrid,
    ServiceMix.name: ServiceMix,
}
