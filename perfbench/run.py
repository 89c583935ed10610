"""End-to-end and per-layer benchmark of the ``repro`` partitioning stack.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload solve-atc --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs the stream's fixed prefix twice, untraced and then
with every measured layer wrapped, and reports per-layer metrics plus
the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Any failed
output check exits with status 1; a checkout without ``src/repro``
exits with status 2.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    OUT,
    BenchError,
    combined_digest,
    ledger_check,
    median,
    peak_rss_mb,
    percentile,
    adopt_orphans,
    process_age,
    reap_children,
    source_fingerprint,
    use_repo_source,
)

#: Set-ups timed per run for ``setup_s``: this process plus fresh ones
#: (the median is reported).
SETUP_SAMPLES = 5
FAMILIES = ("ff", "sa", "aco", "ml")
LAYERS = ("bench", "graph", "api", "percolation", "fusionfission",
          "multilevel", "refine", "partition", "engine", "service")

#: Spans each workload must record at least once in the traced run.
_KERNELS = ("percolation.bonds", "percolation.bisect", "fusionfission.init",
            "fusionfission.fusion", "fusionfission.fission",
            "multilevel.coarsen", "multilevel.initial", "refine.fm",
            "partition.evaluate")
EXPECTED_CALLS = {
    "solve-atc": ("graph.build", "graph.fingerprint")
    + tuple(f"api.{kind}.{fam}" for kind in ("start", "step")
            for fam in FAMILIES) + _KERNELS,
    "portfolio-grid": ("graph.build", "graph.fingerprint", "graph.shm_create",
                       "engine.pool_start", "engine.task")
    + tuple(f"api.{kind}.{fam}" for kind in ("start", "step")
            for fam in FAMILIES) + _KERNELS,
    "service-mix": ("graph.build", "graph.fingerprint", "service.submit",
                    "service.slice", "service.store_save", "service.cache_get",
                    "api.checkpoint", "api.resume", "api.run",
                    "percolation.bonds", "partition.evaluate")
    + tuple(f"api.start.{fam}" for fam in FAMILIES),
}
#: Span prefixes a workload must never record (layers it bypasses).
EXPECTED_NONE = {
    "solve-atc": ("api.checkpoint", "api.resume", "api.restore", "service.",
                  "engine."),
    "portfolio-grid": ("api.checkpoint", "api.resume", "service."),
    "service-mix": ("engine.",),
}


def _unit(name: str) -> str:
    if name == "throughput_per_s":
        return "1/s"
    if name == "objective_mean":
        return "mcut"
    for suffix, unit in (("_mb", "MB"), ("_bytes", "bytes"),
                         ("_ratio", "ratio"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    if "_s." in name:
        return "s"
    return "count"


def _metrics(values: dict) -> dict:
    return {name: {"value": float(value), "unit": _unit(name)}
            for name, value in values.items()}


def _prefix_summary(pass_result) -> tuple[str, float]:
    prefix = [r for r in pass_result.results if r.prefix]
    rows = [(r.key, r.digest if r.ok else f"failed:{r.error}")
            for r in prefix]
    values = [r.mcut for r in prefix if r.ok]
    if not values:
        raise BenchError("no request of the prefix succeeded")
    return combined_digest(rows), statistics.fmean(values)


def _ledger_key(workload, seed: int) -> str:
    """Runs of the same code at the same seed share a ledger entry."""
    size = "tiny" if workload.tiny else "full"
    return f"{workload.name}:{seed}:{size}:{source_fingerprint()}"


def _family_seconds(pass_result) -> dict:
    """Median seconds of one session (start+run), per solver family."""
    missing = [f for f in FAMILIES if not pass_result.family_latency.get(f)]
    if missing:
        raise BenchError(f"no session of families {missing} in the run")
    return {f"solve_s.{f}": median(pass_result.family_latency[f])
            for f in FAMILIES}


def timed_run(workload, seed: int, seconds: float) -> dict:
    workload.setup()
    own_setup = process_age()
    setup = [workload.setup_sample(seed) for _ in range(SETUP_SAMPLES - 1)]
    result = workload.measure(seed, seconds, prefix_only=False)
    setup.append(own_setup if result.setup_s is None else result.setup_s)
    digest, objective_mean = _prefix_summary(result)
    ledger_check(_ledger_key(workload, seed), digest, objective_mean)
    failed = sum(not r.ok for r in result.results)
    done = len(result.results) - failed
    metrics = {
        "setup_s": median(setup),
        "throughput_per_s": done / result.wall,
        "latency_p50_s": median(result.latencies),
        "latency_p90_s": percentile(result.latencies, 90),
        "objective_mean": objective_mean,
        "peak_rss_mb": peak_rss_mb(result.extra_rss_kb),
    }
    print(f"{workload.name} seed={seed}: {len(result.latencies)} requests, "
          f"{len(result.results)} results, {failed} failed "
          f"(error_ratio {failed / len(result.results):.4f}), "
          f"wall {result.wall:.2f} s, digest {digest}")
    return {
        "correct": True,
        "attempted": len(result.results),
        "failed": failed,
        "metrics": _metrics(metrics),
    }


def traced_run(workload, seed: int) -> dict:
    from tracing import (
        Tracer,
        child_total,
        install_layers,
        self_times,
        span_totals,
    )

    workload.setup()
    untraced = workload.measure(seed, 0.0, prefix_only=True)
    if workload.name == "service-mix":
        OUT.mkdir(exist_ok=True)
        server_trace = OUT / f"server-spans-{os.getpid()}.json"
        try:
            traced = workload.measure(seed, 0.0, prefix_only=True,
                                      trace_out=server_trace)
        finally:
            server_trace.unlink(missing_ok=True)
        spans = [(f"srv:{sid}", None if parent is None else f"srv:{parent}",
                  trace, name, t0, t1)
                 for sid, parent, trace, name, t0, t1 in traced.spans]
        counters = traced.counters
    else:
        tracer = Tracer()
        install_layers(tracer)
        try:
            token = tracer.begin("bench.setup")
            workload.setup_graph()
            tracer.end(token)
            traced = workload.measure(seed, 0.0, prefix_only=True,
                                      tracer=tracer)
        finally:
            tracer.uninstall()
        spans = list(tracer.spans) + list(traced.spans)
        counters = tracer.counters

    digests = [_prefix_summary(r) for r in (untraced, traced)]
    if digests[0] != digests[1]:
        raise BenchError(f"traced and untraced passes disagree: {digests}")
    ledger_check(_ledger_key(workload, seed), *digests[0])

    totals = span_totals(spans)
    names = sorted(totals)
    missing = [n for n in EXPECTED_CALLS[workload.name] if n not in totals]
    stray = [n for n in names
             if n.startswith(EXPECTED_NONE[workload.name])]
    if missing or stray:
        raise BenchError(
            f"traced {workload.name}: no calls recorded for {missing}; "
            f"unexpected calls to {stray}"
        )

    def secs(name):
        return totals.get(name, (0, 0.0))[1]

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    m = {"graph.build_s": secs("graph.build"),
         "graph.fingerprint_s": secs("graph.fingerprint")}
    for fam in FAMILIES:
        m[f"api.start_s.{fam}"] = secs(f"api.start.{fam}")
        m[f"api.step_s.{fam}"] = secs(f"api.step.{fam}")
        m[f"api.steps.{fam}"] = calls(f"api.step.{fam}")
    m.update({
        "api.checkpoint_s": secs("api.checkpoint"),
        "api.checkpoint_bytes": counters.get("api.checkpoint_bytes", 0.0),
        "api.resume_s": secs("api.resume"),
        "percolation.bonds_s": secs("percolation.bonds"),
        "percolation.bonds_calls": calls("percolation.bonds"),
        "percolation.bisect_s": secs("percolation.bisect"),
        "percolation.bisect_calls": calls("percolation.bisect"),
        "fusionfission.init_s": secs("fusionfission.init"),
        "fusionfission.fusion_s": secs("fusionfission.fusion"),
        "fusionfission.fission_s": secs("fusionfission.fission"),
        "multilevel.coarsen_s": secs("multilevel.coarsen"),
        "multilevel.initial_s": secs("multilevel.initial"),
        "refine.fm_s": secs("refine.fm"),
        "refine.fm_calls": calls("refine.fm"),
        "partition.evaluate_s": secs("partition.evaluate"),
        "partition.evaluate_calls": calls("partition.evaluate"),
        "service.slice_overhead_s": (
            secs("service.slice")
            - child_total(spans, "service.slice", "api.run")),
        "service.store_save_s": secs("service.store_save"),
        "service.store_saves": calls("service.store_save"),
        "service.slices": calls("service.slice"),
        "service.submit_s": secs("service.submit"),
        "service.nonsolve_s": 0.0,
        "service.cache_hit_ratio": 0.0,
        "service.cache_lookups": 0.0,
        "service.cache_hit_latency_s": 0.0,
        "engine.first_record_s": 0.0,
        "engine.busy_ratio": 0.0,
        "engine.payload_bytes": 0.0,
        "engine.attempts": 0.0,
    })
    m.update(_family_seconds(traced))
    m.update(traced.layer)
    layer_self = self_times(spans)
    for layer in LAYERS:
        m[f"self_s.{layer}"] = layer_self.get(layer, 0.0)
    m["trace.overhead_s"] = traced.wall - untraced.wall
    m["trace.overhead_ratio"] = (traced.wall - untraced.wall) / untraced.wall
    m["trace.spans"] = len(spans)

    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload.name}.json").write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "untraced_wall_s": untraced.wall,
        "traced_wall_s": traced.wall,
        "fields": ["span", "parent", "trace", "name", "start", "end"],
        "spans": spans,
        "counters": counters,
    }))
    failed = sum(not r.ok for r in traced.results)
    print(f"{workload.name} seed={seed} traced: {len(spans)} spans, "
          f"untraced {untraced.wall:.2f} s, traced {traced.wall:.2f} s")
    for name in names:
        count, total = totals[name]
        print(f"  {name:28s} {count:8d} calls {total:10.4f} s")
    return {
        "correct": True,
        "attempted": len(traced.results),
        "failed": failed,
        "metrics": _metrics(m),
    }


def main(argv: list[str] | None = None) -> int:
    adopt_orphans()
    try:
        return _main(argv)
    finally:
        reap_children()


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs for the benchmark's own tests")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        use_repo_source()
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(WORKLOADS)}")
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](tiny=args.tiny)
    if args.probe_setup:
        workload.setup()
        print("ready", flush=True)
        return 0
    started = time.perf_counter()
    try:
        if args.trace:
            line = traced_run(workload, args.seed)
        else:
            line = timed_run(workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    print(f"run took {time.perf_counter() - started:.1f} s")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
