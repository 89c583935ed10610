"""In-memory span recorder and the layer wrappers of the traced run.

A :class:`Tracer` records one span per call into a wrapped layer
function: name, start, end, parent span and the trace id of the request
that caused it.  Spans stay in memory and are written out once, when
the run ends.

:func:`install_layers` wraps the public functions of each measured
layer of ``repro`` without editing its source.  A function that other
modules bound at import time (``from repro.refine.fm import fm_refine``)
is replaced in *every* loaded ``repro`` module that holds it, so calls
through those bindings are recorded too.  Methods are replaced on their
class.  :meth:`Tracer.uninstall` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

from common import FAMILY

#: Modules imported before wrapping, so that every import-time binding
#: of a wrapped function already exists when bindings are replaced.
_PRELOAD = (
    "repro",
    "repro.api",
    "repro.api.facade",
    "repro.api.session",
    "repro.annealing.sa",
    "repro.antcolony.colony",
    "repro.cli",
    "repro.engine",
    "repro.engine.problem",
    "repro.engine.runner",
    "repro.fusionfission",
    "repro.fusionfission.core",
    "repro.fusionfission.operators",
    "repro.fusionfission.partitioner",
    "repro.graph",
    "repro.graph.fingerprint",
    "repro.graph.store",
    "repro.multilevel",
    "repro.multilevel.partitioner",
    "repro.partition",
    "repro.partition.metrics",
    "repro.percolation",
    "repro.percolation.percolation",
    "repro.refine",
    "repro.refine.fm",
    "repro.service",
    "repro.service.service",
    "repro.service.store",
    "repro.workloads",
    "repro.workloads.instance",
)


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        #: ``(span_id, parent_id, trace_id, name, start, end)`` rows.
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_trace(self, trace_id: Any) -> None:
        """Tag the spans this thread records next with ``trace_id``."""
        self._local.trace = trace_id

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def begin(self, name: str) -> tuple:
        stack = self._stack()
        span_id = next(self._ids)
        token = (span_id, stack[-1] if stack else None, name)
        stack.append(span_id)
        return token + (time.perf_counter(),)

    def end(self, token: tuple) -> None:
        end = time.perf_counter()
        span_id, parent, name, start = token
        self._stack().pop()
        self.spans.append(
            (span_id, parent, getattr(self._local, "trace", None), name,
             start, end)
        )

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        after: Callable[..., None] | None = None,
        trace_from: Callable[..., Any] | None = None,
    ) -> Callable:
        """``fn`` recorded as a span; ``name`` may be computed from the
        call's arguments, ``after(tracer, result, *args)`` runs outside
        the span, ``trace_from(*args)`` sets the trace id for the call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if trace_from is not None:
                tracer.set_trace(trace_from(*args))
            token = tracer.begin(name(*args, **kwargs) if callable(name)
                                 else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(token)
            if after is not None:
                after(tracer, result, *args)
            return result

        return wrapper

    # -- patching ------------------------------------------------------------
    def patch_function(self, module_name: str, attr: str, **wrap_kw) -> None:
        """Wrap ``module.attr`` and every ``repro`` module binding of it."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = self.wrap(original, **wrap_kw)
        for name, module in list(sys.modules.items()):
            if module is None or not (
                name == "repro" or name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def patch_method(self, cls: type, attr: str, **wrap_kw) -> None:
        """Wrap ``cls.attr`` (defined on ``cls`` itself)."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        if isinstance(original, classmethod):
            wrapper = classmethod(self.wrap(original.__func__, **wrap_kw))
        else:
            wrapper = self.wrap(original, **wrap_kw)
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original binding, newest first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def write(self, path) -> None:
        """Write spans and counters as JSON (once, when the run ends)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


# ---------------------------------------------------------------------------
# The measured layers.
# ---------------------------------------------------------------------------
def _family(session) -> str:
    return FAMILY.get(session.method, session.method)


def _start_name(solver, request, checkpoint=None) -> str:
    family = FAMILY.get(solver.name, solver.name)
    if checkpoint is not None:
        return f"api.restore.{family}"
    return f"api.start.{family}"


def _count_checkpoint_bytes(tracer: Tracer, result: dict, *args) -> None:
    tracer.count(
        "api.checkpoint_bytes",
        len(json.dumps(result, separators=(",", ":"))),
    )


def install_layers(tracer: Tracer, service: bool = False) -> None:
    """Wrap every measured layer's public functions.

    ``service`` adds the server-side layers (submit, slices, job store,
    result cache); they are installed in the ``repro serve`` process.
    """
    for module in _PRELOAD:
        importlib.import_module(module)
    from repro.annealing.sa import SimulatedAnnealingPartitioner
    from repro.antcolony.colony import AntColonyPartitioner
    from repro.api.session import SolveSession
    from repro.engine.runner import PortfolioRunner
    from repro.fusionfission.partitioner import FusionFissionPartitioner
    from repro.graph.store import GraphStore
    from repro.multilevel.partitioner import MultilevelPartitioner
    from repro.workloads.instance import WorkloadInstance

    fn = tracer.patch_function
    fn("repro.graph.fingerprint", "graph_fingerprint",
       name="graph.fingerprint")
    fn("repro.api.facade", "resume", name="api.resume")
    fn("repro.percolation.percolation", "percolation_bonds",
       name="percolation.bonds")
    fn("repro.percolation.percolation", "percolation_bisect",
       name="percolation.bisect")
    fn("repro.fusionfission.core", "initialize_molecule",
       name="fusionfission.init")
    fn("repro.fusionfission.operators", "fusion_step",
       name="fusionfission.fusion")
    fn("repro.fusionfission.operators", "fission_step",
       name="fusionfission.fission")
    fn("repro.multilevel.coarsening", "build_hierarchy",
       name="multilevel.coarsen")
    fn("repro.multilevel.initial", "initial_partition",
       name="multilevel.initial")
    fn("repro.refine.fm", "fm_refine", name="refine.fm")
    fn("repro.partition.metrics", "evaluate_partition",
       name="partition.evaluate")

    method = tracer.patch_method
    method(WorkloadInstance, "build", name="graph.build")
    method(GraphStore, "create", name="graph.shm_create")
    for cls in (FusionFissionPartitioner, SimulatedAnnealingPartitioner,
                AntColonyPartitioner, MultilevelPartitioner):
        method(cls, "start", name=_start_name)
    method(SolveSession, "step",
           name=lambda session: f"api.step.{_family(session)}")
    method(SolveSession, "run", name="api.run")
    method(SolveSession, "checkpoint", name="api.checkpoint",
           after=_count_checkpoint_bytes)
    method(PortfolioRunner, "_new_pool", name="engine.pool_start")
    if service:
        from repro.service.service import SolveService
        from repro.service.store import JobStore, ResultCache

        method(SolveService, "submit", name="service.submit")
        method(SolveService, "_run_slice_sync", name="service.slice",
               trace_from=lambda service, job: job.id)
        method(JobStore, "save", name="service.store_save")
        method(ResultCache, "get", name="service.cache_get")


# ---------------------------------------------------------------------------
# Reading spans back.
# ---------------------------------------------------------------------------
def span_totals(spans) -> dict[str, list]:
    """``name -> [calls, total seconds]``."""
    totals: dict[str, list] = {}
    for _sid, _parent, _trace, name, start, end in spans:
        row = totals.setdefault(name, [0, 0.0])
        row[0] += 1
        row[1] += end - start
    return totals


def self_times(spans) -> dict[str, float]:
    """Self seconds per layer (the name's first dotted component).

    A span's self time is its duration minus the durations of its
    direct children; spans of one process share one id space.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _sid, parent, _trace, _name, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    layers: dict[str, float] = defaultdict(float)
    for sid, _parent, _trace, name, start, end in spans:
        layers[name.split(".", 1)[0]] += (end - start) - child_time[sid]
    return dict(layers)


def child_total(spans, parent_name: str, child_name: str) -> float:
    """Seconds of ``child_name`` spans directly under ``parent_name``."""
    names = {sid: name for sid, _p, _t, name, _s, _e in spans}
    return sum(
        end - start
        for _sid, parent, _trace, name, start, end in spans
        if name == child_name and names.get(parent) == parent_name
    )
