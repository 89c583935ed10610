"""Job model of the solve service: specs, states, cache keys.

A *job* is one tenant-submitted solve request travelling through the
service: validated into a :class:`JobSpec`, queued under its tenant,
executed as budgeted :class:`~repro.api.session.SolveSession` slices by
the scheduler, and finished into a result that is durably recorded and
(when deterministic) cached.

The cache key is the pair the ROADMAP prescribes: the graph's content
fingerprint (:func:`repro.graph.graph_fingerprint`) plus a canonical
encoding of every *result-determining* request field.  Tenant, job name
and execution knobs (slice length, worker count) are deliberately
excluded — two tenants asking the same question share one answer.
"""

from __future__ import annotations

import json
import secrets
import time
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Any

from repro.common.exceptions import ConfigurationError
from repro.graph.graph import Graph

__all__ = [
    "JOB_SCHEMA",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_CANCELLED",
    "TERMINAL_STATES",
    "JobSpec",
    "Job",
    "cache_key",
    "new_job_id",
]

JOB_SCHEMA = "repro-service-job/v1"

#: Job lifecycle.  ``queued`` ⇄ ``running`` alternate per slice (a job
#: pausing at its slice budget goes back to ``queued`` with a durable
#: checkpoint); the three terminal states never transition again.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"
TERMINAL_STATES = frozenset({JOB_DONE, JOB_FAILED, JOB_CANCELLED})


def new_job_id() -> str:
    """Fresh collision-resistant job id (stable across restarts)."""
    return f"job-{secrets.token_hex(6)}"


@dataclass(frozen=True)
class JobSpec:
    """Validated submit payload: what to solve, for whom.

    Exactly one of ``instance`` (a registered workload name — the
    ``repro submit --instance atc-core`` path) or ``graph_data`` (an
    inline JSON graph: ``{"n": ..., "edges": [[u, v, w], ...]}``, the
    format of :func:`repro.graph.io.write_json`) names the graph.  Both
    are stored verbatim in the durable job record so a restarted server
    can rebuild the exact same graph — instances by their deterministic
    builder, inline graphs from the stored edges.
    """

    tenant: str = "default"
    instance: str | None = None
    graph_data: dict | None = None
    graph_seed: int | None = None
    k: int = 2
    method: str = "fusion-fission"
    objective: str | None = None
    balance_tolerance: float | None = None
    seed: int = 0
    max_iterations: int | None = None
    islands: int = 1
    migration_interval: int = 10
    options: tuple[tuple[str, Any], ...] = ()
    name: str = "job"
    weight: float | None = None

    @classmethod
    def from_payload(cls, payload: Any) -> "JobSpec":
        """Validate a submit body into a spec (clear errors on junk)."""
        from repro.api.registry import canonical_method

        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"submit body must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        known = {
            "tenant", "instance", "graph", "graph_seed", "k", "method",
            "objective", "balance_tolerance", "seed", "max_iterations",
            "islands", "migration_interval", "options", "name", "weight",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown submit field(s): {', '.join(unknown)} "
                f"(accepted: {', '.join(sorted(known))})"
            )
        instance = payload.get("instance")
        graph_data = payload.get("graph")
        if (instance is None) == (graph_data is None):
            raise ConfigurationError(
                "submit needs exactly one of 'instance' (registered "
                "workload name) or 'graph' (inline JSON graph)"
            )
        if instance is not None:
            from repro.workloads import canonical_instance, get_instance

            instance = canonical_instance(str(instance))
            inst = get_instance(instance)
            if inst.kind != "static":
                raise ConfigurationError(
                    f"instance {instance!r} is dynamic (an epoch "
                    "sequence); the service solves static instances — "
                    "run it with `repro workloads run` instead"
                )
            default_k = inst.default_k
        else:
            if not isinstance(graph_data, dict) or "n" not in graph_data \
                    or "edges" not in graph_data:
                raise ConfigurationError(
                    "inline 'graph' must be an object with 'n' and "
                    "'edges' (the repro JSON graph format)"
                )
            default_k = None
        k = payload.get("k", default_k)
        if k is None:
            raise ConfigurationError("submit needs 'k' with an inline graph")
        objective = payload.get("objective")
        if objective is not None:
            objective = str(objective).strip().lower()
            if objective not in ("cut", "ncut", "mcut"):
                raise ConfigurationError(
                    f"objective must be cut/ncut/mcut, got {objective!r}"
                )
        options = payload.get("options") or {}
        if not isinstance(options, dict):
            raise ConfigurationError(
                f"options must be an object, got {type(options).__name__}"
            )
        for key, value in options.items():
            if not isinstance(value, (bool, int, float, str, type(None))):
                raise ConfigurationError(
                    f"option {key!r} must be a JSON scalar, got "
                    f"{type(value).__name__}"
                )
        weight = payload.get("weight")
        if weight is not None:
            weight = float(weight)
            if weight <= 0:
                raise ConfigurationError(
                    f"tenant weight must be > 0, got {weight}"
                )
        max_iterations = payload.get("max_iterations")
        if max_iterations is not None:
            max_iterations = int(max_iterations)
            if max_iterations < 1:
                raise ConfigurationError(
                    f"max_iterations must be >= 1, got {max_iterations}"
                )
        try:
            spec = cls(
                tenant=str(payload.get("tenant", "default")) or "default",
                instance=instance,
                graph_data=graph_data,
                graph_seed=(
                    None if payload.get("graph_seed") is None
                    else int(payload["graph_seed"])
                ),
                k=int(k),
                method=canonical_method(
                    str(payload.get("method", "fusion-fission"))
                ),
                objective=objective,
                balance_tolerance=(
                    None if payload.get("balance_tolerance") is None
                    else float(payload["balance_tolerance"])
                ),
                seed=int(payload.get("seed", 0)),
                max_iterations=max_iterations,
                islands=int(payload.get("islands", 1)),
                migration_interval=int(payload.get("migration_interval", 10)),
                options=tuple(sorted(options.items())),
                name=str(payload.get("name") or instance or "graph"),
                weight=weight,
            )
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed submit field: {exc}"
            ) from exc
        if spec.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {spec.k}")
        if spec.islands < 1:
            raise ConfigurationError(
                f"islands must be >= 1, got {spec.islands}"
            )
        return spec

    def build_graph(self) -> Graph:
        """Build the job's graph (deterministic for a given spec)."""
        if self.instance is not None:
            from repro.workloads import build_instance

            return build_instance(self.instance, seed=self.graph_seed)
        data = self.graph_data or {}
        try:
            import numpy as np

            n = int(data["n"])
            edges = [
                (int(u), int(v), float(w)) for u, v, w in data["edges"]
            ]
            vw = data.get("vertex_weights")
            vertex_weights = (
                np.asarray(vw, dtype=np.float64) if vw is not None else None
            )
            return Graph.from_edges(n, edges, vertex_weights=vertex_weights)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"inline graph is malformed: {exc}"
            ) from exc

    def solve_fields(self) -> dict:
        """The result-determining fields (the cache-key payload).

        Everything that changes which partition comes back is here;
        tenant/name/weight (identity) and any execution-mode knob
        (worker counts, slice lengths, ``island_jobs``) are not.
        """
        return {
            "method": self.method,
            "k": self.k,
            "objective": self.objective,
            "balance_tolerance": self.balance_tolerance,
            "seed": self.seed,
            "max_iterations": self.max_iterations,
            "islands": self.islands,
            "migration_interval": self.migration_interval,
            "options": dict(self.options),
        }

    def as_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "instance": self.instance,
            "graph": self.graph_data,
            "graph_seed": self.graph_seed,
            "k": self.k,
            "method": self.method,
            "objective": self.objective,
            "balance_tolerance": self.balance_tolerance,
            "seed": self.seed,
            "max_iterations": self.max_iterations,
            "islands": self.islands,
            "migration_interval": self.migration_interval,
            "options": dict(self.options),
            "name": self.name,
            "weight": self.weight,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        """Rebuild a spec from a durable job record (trusted input)."""
        options = data.get("options") or {}
        return cls(
            tenant=data.get("tenant", "default"),
            instance=data.get("instance"),
            graph_data=data.get("graph"),
            graph_seed=data.get("graph_seed"),
            k=int(data["k"]),
            method=data["method"],
            objective=data.get("objective"),
            balance_tolerance=data.get("balance_tolerance"),
            seed=int(data.get("seed", 0)),
            max_iterations=data.get("max_iterations"),
            islands=int(data.get("islands", 1)),
            migration_interval=int(data.get("migration_interval", 10)),
            options=tuple(sorted(options.items())),
            name=data.get("name", "graph"),
            weight=data.get("weight"),
        )


def cache_key(fingerprint: str, spec: JobSpec) -> str:
    """Result-cache key: graph fingerprint × canonical request encoding.

    The spec half is the sorted-key JSON of :meth:`JobSpec.solve_fields`,
    so aliases already resolved to canonical method names, option order,
    and field defaults all collapse to one key.  The digest keeps keys
    filename-safe for the durable cache directory.
    """
    canonical = json.dumps(spec.solve_fields(), sort_keys=True)
    digest = blake2b(digest_size=16)
    digest.update(fingerprint.encode())
    digest.update(b"\x00")
    digest.update(canonical.encode())
    return digest.hexdigest()


@dataclass
class Job:
    """One job's full lifecycle state (the durable record).

    ``seq`` is the submission ordinal — the coordinate the fault
    injector matches on (``crash@SEQ,0,ATTEMPT``), so chaos specs hit
    the same job on every rerun of a scripted scenario.
    """

    id: str
    seq: int
    spec: JobSpec
    state: str = JOB_QUEUED
    attempts: int = 1
    slices: int = 0
    iterations: int = 0
    seconds: float = 0.0
    fingerprint: str | None = None
    key: str | None = None
    cached: bool = False
    recovered: bool = False
    error: str | None = None
    error_kind: str | None = None
    fault_trace: list = field(default_factory=list)
    result: dict | None = None
    checkpoint: dict | None = None
    created: float = field(default_factory=time.time)
    cancel_requested: bool = False
    #: Live session of the in-flight slice (worker thread); only ever
    #: poked by ``cancel()``, which is why it is not persisted.
    live_session: Any = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def as_dict(self, include_checkpoint: bool = False) -> dict:
        """Job card (API view); the durable record adds the checkpoint."""
        card = {
            "schema": JOB_SCHEMA,
            "id": self.id,
            "seq": self.seq,
            "tenant": self.spec.tenant,
            "name": self.spec.name,
            "state": self.state,
            "attempts": self.attempts,
            "slices": self.slices,
            "iterations": self.iterations,
            "seconds": round(self.seconds, 6),
            "fingerprint": self.fingerprint,
            "cache_key": self.key,
            "cached": self.cached,
            "recovered": self.recovered,
            "error": self.error,
            "error_kind": self.error_kind,
            "fault_trace": list(self.fault_trace),
            "has_checkpoint": self.checkpoint is not None,
            "cancel_requested": self.cancel_requested,
            "created": self.created,
            "spec": self.spec.as_dict(),
        }
        if include_checkpoint:
            card["checkpoint"] = self.checkpoint
            card["result"] = self.result
        return card

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        """Rebuild a job from its durable record."""
        return cls(
            id=data["id"],
            seq=int(data.get("seq", 0)),
            spec=JobSpec.from_dict(data["spec"]),
            state=data.get("state", JOB_QUEUED),
            attempts=int(data.get("attempts", 1)),
            slices=int(data.get("slices", 0)),
            iterations=int(data.get("iterations", 0)),
            seconds=float(data.get("seconds", 0.0)),
            fingerprint=data.get("fingerprint"),
            key=data.get("cache_key"),
            cached=bool(data.get("cached", False)),
            recovered=bool(data.get("recovered", False)),
            error=data.get("error"),
            error_kind=data.get("error_kind"),
            fault_trace=list(data.get("fault_trace") or []),
            result=data.get("result"),
            checkpoint=data.get("checkpoint"),
            created=float(data.get("created", 0.0)),
            cancel_requested=bool(data.get("cancel_requested", False)),
        )
