"""Command-line interface.

The subcommands mirror how Chaco/Metis are driven from the shell::

    repro solve INPUT -k 32 --method ff --budget 2s --events events.jsonl \\
                --checkpoint ck.json -o parts.txt
    repro portfolio INPUT -k 32 --methods ff,annealing --seeds 4 --jobs 4
    repro workloads run atc-core --json report.json
    repro evaluate INPUT parts.txt
    repro generate atc -o core_area.graph
    repro convert INPUT OUTPUT
    repro bench perf --json BENCH.json

(``python -m repro`` is equivalent to the ``repro`` console script.)

* ``solve`` reads a graph (METIS ``.graph``, edge-list ``.txt``/
  ``.edges`` or ``.json``), runs one method through the unified
  :mod:`repro.api` session layer and writes one part id per line (Metis'
  output convention): structured event streaming (``--events`` JSONL),
  cooperative wall-clock/iteration budgets (``--budget 2s``,
  ``--iterations N``), and checkpointing — ``--checkpoint ck.json``
  writes the session state on exit (done or paused), ``--resume ck.json``
  continues a previous run deterministically.
* ``portfolio`` fans one instance out across (method × seed) on the
  portfolio engine's process pool — seeded restarts of one method are
  ``--methods M --seeds N`` — prints per-method statistics (plus a
  failure summary when runs failed) and writes the best assignment / a
  JSON report.  ``--retries``/``--task-timeout`` turn on the engine's
  fault tolerance (same-seed retries, straggler reaping, pool
  self-healing) and ``--faults`` injects deterministic chaos faults —
  see ``docs/robustness.md``.
* ``workloads`` drives the instance registry (``repro.workloads``):
  ``list``/``show`` browse the registered families, ``run`` executes an
  instance's frozen quality bands (static) or its warm-started dynamic
  epoch chain and writes a ``repro-workloads/v1`` report — the same
  verdicts the pytest band gate asserts.  See ``docs/workloads.md``.
* ``evaluate`` scores an existing assignment file on all three paper
  criteria plus balance/connectivity diagnostics.
* ``generate`` writes a synthetic instance (``atc``, ``grid``, ``caveman``,
  ``geometric``, ``powerlaw``) in METIS format.
* ``convert`` transcodes between the supported graph formats by extension.
* ``bench perf`` runs the hot-path microbenchmarks (optimized vs frozen
  reference kernels) and writes the tracked ``BENCH_*.json`` trajectory;
  the paper-reproduction suites stay at ``python -m repro.bench.table1``
  / ``figure1`` / ``ksweep``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.api.registry import METHOD_FACTORIES, list_methods
from repro.common.atomic import atomic_write_json
from repro.common.exceptions import GraphError, ReproError
from repro.graph import (
    Graph,
    grid_graph,
    random_geometric_graph,
    read_edgelist,
    read_json,
    read_metis,
    weighted_caveman_graph,
    write_edgelist,
    write_json,
    write_metis,
)
from repro.partition import Partition, evaluate_partition

__all__ = ["main", "read_graph_auto", "write_graph_auto"]

#: Extensions :func:`read_graph_auto` dispatches on (error messages cite
#: this list, so keep it in sync with the dispatch below).
SUPPORTED_EXTENSIONS = (".graph", ".metis", ".json", ".txt", ".edges")


def read_graph_auto(path: str | Path) -> Graph:
    """Read a graph, dispatching on file extension.

    ``.graph``/``.metis`` → METIS, ``.json`` → JSON, anything else →
    edge list.  Parse failures name the supported extensions so a typo'd
    extension produces an actionable message.
    """
    suffix = Path(path).suffix.lower()
    try:
        if suffix in (".graph", ".metis"):
            # A correctly-dispatched reader reports path and cause
            # itself; the extension hint below is only for files we
            # *guessed* how to read.
            return read_metis(path)
        if suffix == ".json":
            return read_json(path)
        return read_edgelist(path)
    except FileNotFoundError as exc:
        raise GraphError(f"graph file not found: {path}") from exc
    except (GraphError, ValueError, OSError) as exc:
        if suffix in SUPPORTED_EXTENSIONS and isinstance(exc, GraphError):
            raise
        raise GraphError(
            f"cannot read {path}: {exc} (supported extensions: "
            f"{', '.join(SUPPORTED_EXTENSIONS)}; "
            "anything else is parsed as an edge list)"
        ) from exc


def write_graph_auto(graph: Graph, path: str | Path) -> None:
    """Write a graph, dispatching on file extension (see
    :func:`read_graph_auto`)."""
    suffix = Path(path).suffix.lower()
    if suffix in (".graph", ".metis"):
        write_metis(graph, path)
    elif suffix == ".json":
        write_json(graph, path)
    else:
        write_edgelist(graph, path)


def _write_assignment(assignment, output: str | None) -> None:
    lines = "\n".join(str(int(p)) for p in assignment)
    if output:
        Path(output).write_text(lines + "\n")
    else:
        print(lines)


def _print_report(report) -> None:
    print(
        f"# k={report.num_parts} cut={report.cut:g} ncut={report.ncut:.4f} "
        f"mcut={report.mcut:.4f} imbalance={report.imbalance:.3f}",
        file=sys.stderr,
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.api import (
        Budget,
        JsonlEventWriter,
        SolveRequest,
        get_solver,
        parse_duration,
        resume,
    )
    from repro.api.registry import METAHEURISTICS, canonical_method

    if args.resume is None and args.k is None:
        raise ReproError("solve needs -k (or --resume CHECKPOINT)")
    budget = Budget(
        max_seconds=parse_duration(args.budget),
        max_iterations=args.iterations,
    )
    if args.resume:
        try:
            checkpoint = json.loads(Path(args.resume).read_text())
        except FileNotFoundError as exc:
            raise ReproError(f"checkpoint file not found: {args.resume}") from exc
        except json.JSONDecodeError as exc:
            raise ReproError(
                f"checkpoint file {args.resume} is not valid JSON: {exc}"
            ) from exc
        graph = read_graph_auto(args.input)
        session = resume(
            graph, checkpoint, budget=budget, island_jobs=args.island_jobs
        )
    else:
        # Method names are validated before any graph I/O.  Unlike
        # `portfolio --budget` (which lifts the metaheuristics' step
        # caps and runs the whole budget down), solve keeps each
        # solver's own caps as the natural completion criterion: the
        # session budget *pauses* the run cooperatively, and the
        # checkpoint it leaves behind resumes to a bounded finish.
        method = canonical_method(args.method)
        options = {}
        if args.objective is not None and method in METAHEURISTICS:
            options["objective"] = args.objective
        graph = read_graph_auto(args.input)
        solver = get_solver(method, args.k, **options)
        session = solver.start(SolveRequest(
            graph=graph,
            k=args.k,
            objective=args.objective,
            seed=args.seed,
            budget=budget,
            name=str(args.input),
            islands=args.islands,
            migration_interval=args.migration_interval,
            island_jobs=args.island_jobs,
        ))
    writer = None
    if args.events:
        writer = session.subscribe(JsonlEventWriter(args.events))
    try:
        report = session.run()
        # Artifacts land before anything is printed (closed-pipe
        # safety); the checkpoint event still reaches the open writer.
        # The write is atomic (temp + rename): a crash mid-write leaves
        # the previous checkpoint intact instead of a torn JSON file.
        if args.checkpoint:
            atomic_write_json(
                args.checkpoint, session.checkpoint(), indent=1
            )
    finally:
        if writer is not None:
            writer.close()
    if report.partition is None:
        print(
            "error: the budget expired before the solver produced any "
            "partition (raise --budget/--iterations, or resume from the "
            "checkpoint)",
            file=sys.stderr,
        )
        return 2
    _write_assignment(report.assignment, args.output)
    print(
        f"# {report.method}: status={report.status} "
        f"iterations={report.iterations} events={report.events} "
        f"seconds={report.seconds:.2f}",
        file=sys.stderr,
    )
    _print_report(report.metrics)
    if report.status == "running" and args.checkpoint:
        print(
            f"# paused on budget; resume with: repro solve {args.input} "
            f"--resume {args.checkpoint}",
            file=sys.stderr,
        )
    return 0


def _cmd_portfolio(args: argparse.Namespace) -> int:
    from repro.engine import (
        FaultInjector,
        PartitionProblem,
        PortfolioRunner,
        RetryPolicy,
        SolverSpec,
    )

    if args.list_methods:
        for name, aliases, summary in list_methods():
            alias_text = f" (aliases: {', '.join(aliases)})" if aliases else ""
            print(f"{name:<22} {summary}{alias_text}")
        return 0
    if args.input is not None and args.instance is not None:
        raise ReproError("portfolio takes INPUT or --instance, not both")
    if args.input is None and args.instance is None:
        raise ReproError(
            "portfolio needs INPUT or --instance (or --list-methods)"
        )
    if args.input is not None and args.k is None:
        raise ReproError("portfolio needs -k with a graph file INPUT")
    # Method names are validated before any graph I/O.
    specs = [
        SolverSpec.for_method(
            name, objective=args.objective, time_budget=args.budget
        )
        for name in args.methods.split(",")
        if name.strip()
    ]
    if args.instance is not None:
        # Registered workload instance: the graph comes from the
        # builder and -k defaults to the instance's frozen default_k.
        problem = PartitionProblem.from_instance(
            args.instance, k=args.k, objective=args.objective
        )
    else:
        graph = read_graph_auto(args.input)
        problem = PartitionProblem(
            graph, k=args.k, objective=args.objective, name=str(args.input)
        )
    runner = PortfolioRunner(
        specs,
        num_seeds=args.seeds,
        jobs=args.jobs,
        seed=args.seed,
        islands=args.islands,
        migration_interval=args.migration_interval,
        deadline=args.deadline,
        retry=RetryPolicy(
            max_attempts=args.retries + 1, backoff=args.retry_backoff
        ),
        task_timeout=args.task_timeout,
        # --faults overrides REPRO_FAULTS (the runner reads the env var
        # itself when faults is None).
        faults=FaultInjector.parse(args.faults) if args.faults else None,
    )
    result = runner.run(problem)
    # File outputs land before anything is printed: a closed stdout pipe
    # (`... | head`) must not cost the user their --json/-o artifacts.
    if args.json:
        # Written even when every run failed: the report's error records
        # are exactly what's needed to diagnose that case.  Only the
        # winning assignment is embedded — per-run assignments would put
        # n × runs integers in the report on big graphs.
        Path(args.json).write_text(result.to_json() + "\n")
    best = result.best
    if best is not None and args.output:
        _write_assignment(best.assignment, args.output)
    print(result.format_stats_table())
    failures = result.format_failure_table()
    if failures:
        print(f"\n{failures}", file=sys.stderr)
    if best is None:
        print("error: every portfolio run failed", file=sys.stderr)
        return 2
    _print_report(best.report)
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.workloads import (
        get_instance,
        instance_aliases,
        list_instances,
        run_instance,
    )

    if args.workloads_command == "list":
        instances = list_instances()
        if args.tier:
            instances = [i for i in instances if i.tier == args.tier]
        print(f"{'name':<16} {'kind':<8} {'family':<10} {'tier':<6} "
              f"{'k':>3}  size")
        for inst in instances:
            print(f"{inst.name:<16} {inst.kind:<8} {inst.family:<10} "
                  f"{inst.tier:<6} {inst.default_k:>3}  {inst.size_hint}")
        return 0

    if args.workloads_command == "show":
        inst = get_instance(args.name)
        for key, value in inst.metadata().items():
            if isinstance(value, (list, tuple)):
                value = ", ".join(str(v) for v in value)
            print(f"{key:>18}: {value}")
        aliases = instance_aliases(inst.name)
        if aliases:
            print(f"{'aliases':>18}: {', '.join(aliases)}")
        for band in getattr(inst, "bands", ()):
            opts = "".join(f" {k}={v}" for k, v in band.options)
            print(f"{'band':>18}: {band.method} seed={band.seed} "
                  f"cut=[{band.cut_lo:g}, {band.cut_hi:g}] "
                  f"imbalance<={band.max_imbalance:g}{opts}")
        return 0

    # run
    report = run_instance(
        args.name,
        seed=args.seed,
        epochs=args.epochs,
        migration_lambda=args.migration_lambda,
        method=args.method,
        json_path=args.json,
    )
    name = report["instance"]["name"]
    if "dynamic" in report:
        dyn = report["dynamic"]
        for rec in dyn["epochs"]:
            print(f"{name} epoch {rec['epoch']}: "
                  f"{'warm' if rec['warm'] else 'cold'} "
                  f"objective={rec['objective_value']:g} "
                  f"migration={rec['migration_cost']:g} "
                  f"combined={rec['combined']:g} ({rec['status']})")
        print(f"{name}: total_migration={dyn['total_migration']:g} "
              f"total_combined={dyn['total_combined']:g}")
    else:
        for verdict in report["bands"]:
            line = (f"{name} {verdict['method']} seed={verdict['seed']}: "
                    f"cut={verdict['cut']:g} "
                    f"imbalance={verdict['imbalance']:.3f} "
                    f"-> {verdict['verdict']}")
            if verdict["reasons"]:
                line += f" ({'; '.join(verdict['reasons'])})"
            print(line)
    if args.json:
        print(f"# report -> {args.json}", file=sys.stderr)
    if not report["ok"]:
        print(f"error: {name} failed its quality gate", file=sys.stderr)
        return 2
    print(f"# {name}: ok", file=sys.stderr)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    graph = read_graph_auto(args.input)
    assignment = np.asarray(
        [int(line) for line in Path(args.assignment).read_text().split()],
        dtype=np.int64,
    )
    partition = Partition(graph, assignment)
    report = evaluate_partition(partition)
    payload = report.as_dict()
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            if key == "part_sizes":
                value = ",".join(str(v) for v in value)
            print(f"{key:>24}: {value}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.family == "atc":
        from repro.atc.europe import core_area_graph

        graph = core_area_graph(seed=args.seed)
    elif args.family == "grid":
        graph = grid_graph(args.rows, args.cols)
    elif args.family == "caveman":
        graph = weighted_caveman_graph(args.caves, args.cave_size)
    elif args.family == "geometric":
        graph, _ = random_geometric_graph(args.n, args.radius, seed=args.seed)
    elif args.family == "powerlaw":
        from repro.graph import powerlaw_graph

        graph = powerlaw_graph(args.n, args.m, seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ReproError(f"unknown family {args.family}")
    write_graph_auto(graph, args.output)
    print(
        f"wrote {args.family}: n={graph.num_vertices} m={graph.num_edges} "
        f"-> {args.output}",
        file=sys.stderr,
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    # Each suite owns its parser (flags, defaults, help); the CLI
    # forwards everything after the suite name verbatim so they can
    # never drift apart.
    rest = args.bench_args
    if rest and rest[0] == "perf":
        from repro.bench.perf import main as perf_main

        return perf_main(rest[1:])
    raise ReproError(
        f"unknown bench suite {rest[0] if rest else '(none)'!r}; "
        "available: perf (paper suites: python -m repro.bench.table1 …)"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the partitioning service until interrupted."""
    import asyncio

    from repro.api.request import parse_duration
    from repro.engine.faults import FaultInjector
    from repro.engine.retry import RetryPolicy
    from repro.service import ServiceConfig, ServiceHTTP, SolveService

    faults = FaultInjector.parse(args.faults) if args.faults else None
    slice_seconds = (
        None if str(args.slice).lower() in ("none", "off")
        else parse_duration(args.slice)
    )
    config = ServiceConfig(
        data_dir=Path(args.data_dir),
        workers=args.workers,
        slice_seconds=slice_seconds,
        slice_iterations=args.slice_iterations,
        retry=RetryPolicy(
            max_attempts=1 + args.retries, backoff=args.retry_backoff
        ),
        faults=faults,
        event_fsync=args.event_fsync,
    )
    service = SolveService(config)
    http = ServiceHTTP(service, host=args.host, port=args.port)

    async def _serve() -> None:
        await http.start()
        print(
            f"repro service on http://{http.host}:{http.port} "
            f"(data: {config.data_dir}, workers: {config.workers}, "
            f"recovered jobs: {service.recovered_jobs})",
            file=sys.stderr,
        )
        try:
            await http.serve_forever()
        finally:
            await http.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("service stopped", file=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit one job to a running service (and optionally wait)."""
    from repro.service import ServiceClient

    if args.server:
        host, _, port = args.server.partition(":")
        client = ServiceClient(host or "127.0.0.1", int(port or 8123))
    elif args.data_dir:
        client = ServiceClient.discover(args.data_dir, wait_seconds=args.wait_server)
    else:
        raise ReproError("submit needs --server HOST:PORT or --data-dir DIR")

    payload: dict = {
        "k": args.k,
        "method": args.method,
        "seed": args.seed,
        "tenant": args.tenant,
    }
    if args.instance:
        payload["instance"] = args.instance
    elif args.input:
        graph = read_graph_auto(args.input)
        us, vs, ws = graph.edge_arrays()
        payload["graph"] = {
            "n": graph.num_vertices,
            "edges": [
                [int(u), int(v), float(w)] for u, v, w in zip(us, vs, ws)
            ],
            "vertex_weights": graph.vertex_weights.tolist(),
        }
        payload["name"] = Path(args.input).stem
    else:
        raise ReproError("submit needs a graph file or --instance NAME")
    if args.k is None:
        payload.pop("k")
    if args.objective:
        payload["objective"] = args.objective
    if args.iterations is not None:
        payload["max_iterations"] = args.iterations
    if args.weight is not None:
        payload["weight"] = args.weight
    if args.islands != 1:
        payload["islands"] = args.islands

    card = client.submit(payload)
    print(f"submitted {card['id']} (tenant {card['tenant']}, "
          f"state {card['state']})", file=sys.stderr)
    if not (args.wait or args.events):
        print(card["id"])
        return 0
    if args.events:
        for name, data in client.iter_events(card["id"]):
            if name == "end":
                break
            print(json.dumps(data))
    # After an --events stream the job is already terminal; wait() is
    # then a single status poll.
    card = client.wait(card["id"])
    print(
        f"{card['id']}: {card['state']} after {card['slices']} slice(s), "
        f"{card['iterations']} iteration(s)"
        + (" [cache hit]" if card.get("cached") else ""),
        file=sys.stderr,
    )
    if card["state"] != "done":
        envelope = client.result(card["id"])
        print(f"error: {envelope.get('error')}", file=sys.stderr)
        return 2
    envelope = client.result(card["id"])
    result = envelope.get("result") or {}
    if args.output:
        assignment = result.get("assignment")
        if assignment is None:
            raise ReproError("result carries no assignment to write")
        _write_assignment(np.asarray(assignment, dtype=np.int64),
                          args.output)
    summary = {key: result.get(key) for key in
               ("status", "method", "objective", "objective_value",
                "num_parts", "iterations", "seconds")}
    print(json.dumps(summary, indent=1))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    graph = read_graph_auto(args.input)
    write_graph_auto(graph, args.output)
    print(
        f"converted {args.input} -> {args.output} "
        f"(n={graph.num_vertices}, m={graph.num_edges})",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Graph partitioning toolkit (fusion-fission reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser(
        "solve",
        help="run one method with event streaming, budgets and checkpoints",
    )
    s.add_argument("input")
    s.add_argument("-k", type=int, default=None,
                   help="number of parts (omit only with --resume)")
    s.add_argument("--method", default="fusion-fission",
                   help="method name or alias "
                        f"(canonical: {', '.join(sorted(METHOD_FACTORIES))})")
    s.add_argument("--objective", default=None,
                   choices=["cut", "ncut", "mcut"],
                   help="criterion for the metaheuristics "
                        "(default: each solver's configured default)")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--budget", default=None,
                   help="wall-clock budget, e.g. '2s', '500ms', '1.5m'; "
                        "the session *pauses* at the budget (resumable "
                        "via --checkpoint), it does not lift solver step "
                        "caps like `portfolio --budget` does")
    s.add_argument("--iterations", type=int, default=None,
                   help="session-iteration budget (same pause semantics)")
    s.add_argument("--islands", type=int, default=1,
                   help="island-model population size; >1 runs that many "
                        "seed-lineage islands with periodic ring migration "
                        "(iterative methods only; 1 = plain sequential)")
    s.add_argument("--migration-interval", type=int, default=10,
                   help="island iterations between migration rounds")
    s.add_argument("--island-jobs", type=int, default=1,
                   help="worker processes for island rounds (execution "
                        "mode only; results are identical to --island-jobs"
                        " 1)")
    s.add_argument("--events", default=None,
                   help="stream one JSON event per line to this file")
    s.add_argument("--checkpoint", default=None,
                   help="write the session checkpoint (JSON) on exit")
    s.add_argument("--resume", default=None,
                   help="resume from a checkpoint file written earlier")
    s.add_argument("-o", "--output", default=None,
                   help="assignment file (stdout if omitted)")
    s.set_defaults(func=_cmd_solve)

    f = sub.add_parser(
        "portfolio",
        help="race (method × seed) combinations in parallel, keep the best",
    )
    f.add_argument("input", nargs="?", default=None)
    f.add_argument("--instance", default=None,
                   help="registered workload instance name instead of a "
                        "graph file (see `repro workloads list`; -k "
                        "defaults to the instance's default_k)")
    f.add_argument("-k", type=int, default=None, help="number of parts")
    f.add_argument("--methods", default="fusion-fission,annealing,multilevel",
                   help="comma-separated method names/aliases")
    f.add_argument("--seeds", type=int, default=4, help="seeds per method")
    f.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: CPU count)")
    f.add_argument("--seed", type=int, default=0,
                   help="base entropy of the seed grid")
    f.add_argument("--islands", type=int, default=1,
                   help="islands per run for iterative methods "
                        "(one-shot methods fall back to islands=1)")
    f.add_argument("--migration-interval", type=int, default=10,
                   help="island iterations between migration rounds")
    f.add_argument("--objective", default="mcut",
                   choices=["cut", "ncut", "mcut"])
    f.add_argument("--budget", type=float, default=None,
                   help="per-run wall-clock seconds for metaheuristics")
    f.add_argument("--deadline", type=float, default=None,
                   help="total wall-clock seconds; unstarted runs cancel")
    f.add_argument("--retries", type=int, default=0,
                   help="extra attempts per failed run (same seed; "
                        "crashes, timeouts and transient errors only)")
    f.add_argument("--retry-backoff", type=float, default=0.1,
                   help="seconds before the first retry (doubles per "
                        "subsequent failure)")
    f.add_argument("--task-timeout", type=float, default=None,
                   help="per-run wall-clock bound; sessions pause at it "
                        "(partial results kept), silent workers are reaped")
    f.add_argument("--faults", default=None,
                   help="chaos fault injection spec, e.g. 'crash@0,0,1;"
                        "hang@1,0,1,30' (overrides REPRO_FAULTS)")
    f.add_argument("--json", default=None,
                   help="write the full portfolio report to this file")
    f.add_argument("-o", "--output", default=None,
                   help="write the best assignment to this file")
    f.add_argument("--list-methods", action="store_true",
                   help="list methods, aliases and summaries, then exit")
    f.set_defaults(func=_cmd_portfolio)

    w = sub.add_parser(
        "workloads",
        help="registered instances: list, show metadata, run quality gates",
    )
    wsub = w.add_subparsers(dest="workloads_command", required=True)
    wl = wsub.add_parser("list", help="list registered instances")
    wl.add_argument("--tier", choices=["small", "large"], default=None,
                    help="only instances of this tier")
    wl.set_defaults(func=_cmd_workloads)
    ws = wsub.add_parser("show", help="print one instance's card and bands")
    ws.add_argument("name")
    ws.set_defaults(func=_cmd_workloads)
    wr = wsub.add_parser(
        "run",
        help="run an instance's frozen quality bands (static) or its "
             "warm-started epoch chain (dynamic); exit 2 on gate failure",
    )
    wr.add_argument("name")
    wr.add_argument("--seed", type=int, default=None,
                    help="override the frozen graph seed (band windows "
                         "were calibrated on the default; off-default "
                         "seeds may legitimately fall outside)")
    wr.add_argument("--epochs", type=int, default=None,
                    help="dynamic only: truncate the epoch cycle")
    wr.add_argument("--migration-lambda", type=float, default=None,
                    help="dynamic only: weight of the migration term")
    wr.add_argument("--method", default=None,
                    help="dynamic only: override the instance's solver")
    wr.add_argument("--json", default=None,
                    help="write the repro-workloads/v1 report to this file")
    wr.set_defaults(func=_cmd_workloads)

    e = sub.add_parser("evaluate", help="score an assignment file")
    e.add_argument("input")
    e.add_argument("assignment")
    e.add_argument("--json", action="store_true")
    e.set_defaults(func=_cmd_evaluate)

    g = sub.add_parser("generate", help="write a synthetic instance")
    g.add_argument("family",
                   choices=["atc", "grid", "caveman", "geometric",
                            "powerlaw"])
    g.add_argument("-o", "--output", required=True)
    g.add_argument("--seed", type=int, default=2006)
    g.add_argument("--rows", type=int, default=32)
    g.add_argument("--cols", type=int, default=32)
    g.add_argument("--caves", type=int, default=8)
    g.add_argument("--cave-size", type=int, default=8)
    g.add_argument("--n", type=int, default=500)
    g.add_argument("--radius", type=float, default=0.08)
    g.add_argument("--m", type=int, default=3,
                   help="powerlaw: edges per new vertex (BA attachment)")
    g.set_defaults(func=_cmd_generate)

    sv = sub.add_parser(
        "serve",
        help="run the partitioning service (HTTP + SSE, fair-share "
             "scheduling, durable checkpoints, result cache)",
    )
    sv.add_argument("--data-dir", required=True,
                    help="durable state root (jobs, events, cache, "
                         "server.json); restartable — in-flight jobs "
                         "recover from their last checkpoint")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=0,
                    help="TCP port (0 = ephemeral; the bound port is "
                         "advertised in <data-dir>/server.json)")
    sv.add_argument("--workers", type=int, default=2,
                    help="concurrent solve slices (queue depth is "
                         "unbounded)")
    sv.add_argument("--slice", default="250ms",
                    help="wall-clock budget of one solve slice, e.g. "
                         "'250ms', '2s'; 'none' disables the time slice")
    sv.add_argument("--slice-iterations", type=int, default=None,
                    help="session-iteration budget of one slice "
                         "(deterministic slicing for tests)")
    sv.add_argument("--retries", type=int, default=0,
                    help="extra attempts per failed job (crash/timeout/"
                         "transient kinds; resumes from the last "
                         "durable checkpoint)")
    sv.add_argument("--retry-backoff", type=float, default=0.1,
                    help="seconds before the first retry (doubles)")
    sv.add_argument("--faults", default=None,
                    help="deterministic chaos spec, e.g. 'crash@0,0,1'; "
                         "the job submission ordinal is the spec index")
    sv.add_argument("--event-fsync", action="store_true",
                    help="fsync per-job event logs per event (streams "
                         "survive SIGKILL along with the checkpoints)")
    sv.set_defaults(func=_cmd_serve)

    sb = sub.add_parser(
        "submit",
        help="submit one job to a running service; optionally stream "
             "events and wait for the result",
    )
    sb.add_argument("input", nargs="?", default=None,
                    help="graph file (inlined as JSON), or use --instance")
    sb.add_argument("--instance", default=None,
                    help="registered workload instance name instead of "
                         "a graph file")
    sb.add_argument("--server", default=None,
                    help="service address HOST:PORT")
    sb.add_argument("--data-dir", default=None,
                    help="discover the server from <dir>/server.json")
    sb.add_argument("--wait-server", type=float, default=5.0,
                    help="seconds to wait for server.json to appear")
    sb.add_argument("-k", type=int, default=None,
                    help="number of parts (instance default if omitted)")
    sb.add_argument("--method", default="fusion-fission")
    sb.add_argument("--objective", default=None,
                    choices=["cut", "ncut", "mcut"])
    sb.add_argument("--seed", type=int, default=0)
    sb.add_argument("--iterations", type=int, default=None,
                    help="session-iteration cap for the job")
    sb.add_argument("--islands", type=int, default=1)
    sb.add_argument("--tenant", default="default",
                    help="fair-share accounting bucket")
    sb.add_argument("--weight", type=float, default=None,
                    help="tenant's fair-share weight (CPU share ratio)")
    sb.add_argument("--wait", action="store_true",
                    help="block until the job is terminal; print the "
                         "result summary")
    sb.add_argument("--events", action="store_true",
                    help="stream the job's SSE events to stdout as "
                         "JSONL (implies waiting)")
    sb.add_argument("-o", "--output", default=None,
                    help="write the final assignment here (with --wait)")
    sb.set_defaults(func=_cmd_submit)

    c = sub.add_parser("convert", help="transcode graph formats")
    c.add_argument("input")
    c.add_argument("output")
    c.set_defaults(func=_cmd_convert)

    b = sub.add_parser(
        "bench", help="run benchmark suites (currently: perf)"
    )

    b.add_argument(
        "bench_args", nargs=argparse.REMAINDER,
        help="suite name + its options, forwarded verbatim "
             "(e.g. `perf --quick --json OUT`; `perf --help` for options)",
    )
    b.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe; not an error.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
