"""Regenerate Figure 1: Mcut quality vs wall-clock time for the three
metaheuristics, against the best spectral and multilevel lines.

The paper plots Mcut (y) against time from 1 s to 60 m (log x) on an Intel
P4; we reproduce the *shape* on the host CPU: ant colony improves fastest
in the first seconds (it starts from percolation and "loses 22% of energy
in less than a second"), fusion–fission starts from the worst
initialisation (one atom per vertex) and finishes best, and the
metaheuristics end below the spectral/multilevel reference lines.

Run as a module::

    python -m repro.bench.figure1 [--budget 60] [--samples 8]
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field

import numpy as np

from repro.atc.europe import core_area_graph
from repro.common.rng import SeedLike, ensure_rng
from repro.common.timer import Timer

__all__ = ["QualityTrace", "trace_metaheuristic", "run_figure1", "reference_lines"]


@dataclass
class QualityTrace:
    """Quality-vs-time samples for one method.

    Attributes
    ----------
    label:
        Method name.
    times:
        Seconds (since method start) of each new-best event.
    values:
        Mcut value of each new best.
    """

    label: str
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def record(self, t: float, value: float) -> None:
        """Append one improvement event."""
        self.times.append(t)
        self.values.append(value)

    def value_at(self, t: float) -> float:
        """Best value achieved up to time ``t`` (inf before the first)."""
        best = float("inf")
        for ti, vi in zip(self.times, self.values):
            if ti <= t:
                best = min(best, vi)
        return best

    def as_dict(self) -> dict:
        """Plain-dict view for JSON dumps."""
        return {"label": self.label, "times": self.times, "values": self.values}


def trace_metaheuristic(
    method: str,
    graph,
    k: int,
    budget: float,
    seed: SeedLike = None,
) -> QualityTrace:
    """Run one metaheuristic for ``budget`` seconds, recording every
    improvement of the Mcut objective (at the target k) from the
    session's ``incumbent`` events."""
    from repro.api import EVENT_INCUMBENT, SolveRequest, get_solver

    trace = QualityTrace(label=method)
    timer = Timer()
    timer.restart()

    def on_event(event) -> None:
        if event.type == EVENT_INCUMBENT:
            trace.record(timer.peek(), event.objective)

    options: dict = {"time_budget": budget, "objective": "mcut"}
    if method == "fusion-fission":
        options["max_steps"] = 10**9  # budget-limited, not step-limited
    elif method == "simulated-annealing":
        options["max_steps"] = None
        options["tmin"] = 0.0
    elif method == "ant-colony":
        options["iterations"] = 10**9
    session = get_solver(method, k, **options).start(
        SolveRequest(graph=graph, k=k, seed=seed)
    )
    session.subscribe(on_event)
    report = session.run()
    trace.record(timer.peek(), report.metrics.mcut)
    return trace


def reference_lines(
    graph, k: int, seed: SeedLike = None, jobs: int = 1
) -> dict[str, float]:
    """Best spectral and multilevel Mcut (the horizontal lines of Fig. 1).

    Runs through the suite harness (and therefore the portfolio engine),
    so ``jobs > 1`` computes the reference rows on a process pool.
    """
    from repro.bench.harness import run_suite
    from repro.bench.registry import table1_methods

    best: dict[str, float] = {"spectral": float("inf"), "multilevel": float("inf")}
    selected = [
        (label, spec)
        for label, spec in table1_methods()
        if label.split(" ")[0].lower() in best
    ]
    for result in run_suite(selected, graph, k, seed=seed, jobs=jobs):
        family = result.label.split(" ")[0].lower()
        best[family] = min(best[family], result.mcut)
    return best


def run_figure1(
    k: int = 32,
    budget: float = 60.0,
    seed: SeedLike = 2006,
    graph=None,
    methods: tuple[str, ...] = (
        "simulated-annealing", "ant-colony", "fusion-fission",
    ),
    jobs: int = 1,
) -> tuple[list[QualityTrace], dict[str, float]]:
    """Produce all Figure-1 series: metaheuristic traces + reference lines.

    ``jobs`` parallelises the reference lines only; the traces stay
    sequential because their incumbent events sample a shared
    wall-clock.
    """
    if graph is None:
        graph = core_area_graph(seed=seed)
    rng = ensure_rng(seed)
    refs = reference_lines(graph, k, seed=rng.spawn(1)[0], jobs=jobs)
    traces = [
        trace_metaheuristic(m, graph, k, budget, seed=rng.spawn(1)[0])
        for m in methods
    ]
    return traces, refs


def format_figure(traces: list[QualityTrace], refs: dict[str, float],
                  budget: float) -> str:
    """ASCII rendering of Figure 1: sampled Mcut at log-spaced times."""
    sample_times = [t for t in np.geomspace(0.5, budget, num=9)]
    lines = [
        "Figure 1 reproduction — Mcut vs time (lower is better)",
        f"{'time[s]':>8} " + " ".join(f"{tr.label[:14]:>16}" for tr in traces),
    ]
    for t in sample_times:
        row = [f"{t:>8.1f}"]
        for tr in traces:
            v = tr.value_at(t)
            row.append(f"{v:>16.2f}" if np.isfinite(v) else f"{'—':>16}")
        lines.append(" ".join(row))
    lines.append("")
    for name, value in refs.items():
        lines.append(f"best {name} Mcut: {value:.2f}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=32)
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--budget", type=float, default=60.0)
    parser.add_argument("--json", type=str, default=None)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the reference lines")
    args = parser.parse_args(argv)
    traces, refs = run_figure1(k=args.k, budget=args.budget, seed=args.seed,
                               jobs=args.jobs)
    print(format_figure(traces, refs, args.budget))
    if args.json:
        from repro import __version__

        payload = {
            # Schema + version stamp (repro-bench-perf/v1 convention) so
            # downstream consumers can detect format drift.
            "schema": "repro-bench-figure1/v1",
            "version": __version__,
            "config": {"k": args.k, "seed": args.seed,
                       "budget": args.budget, "jobs": args.jobs},
            "traces": [t.as_dict() for t in traces],
            "references": refs,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)


if __name__ == "__main__":
    main()
