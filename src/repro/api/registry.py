"""Method registry: canonical names → solver factories.

Every solver family registers one factory here; :func:`repro.api.get_solver`
is the one way to instantiate them, and the portfolio engine, the
service, the workloads catalog and the FABOP application all resolve
method names through this module.  :func:`canonical_method` resolves
user-facing aliases (``annealing``, ``ff``, …) and
:func:`budget_options` centralises the per-method knobs that turn a
wall-clock budget into an authoritative stopping criterion.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.common.exceptions import ConfigurationError

__all__ = [
    "METHOD_FACTORIES",
    "METHOD_ALIASES",
    "METHOD_SUMMARIES",
    "METAHEURISTICS",
    "canonical_method",
    "budget_options",
    "list_methods",
]


def _linear(k: int, **opts: Any):
    from repro.spectral.partitioner import LinearPartitioner

    return LinearPartitioner(k=k, **opts)


def _spectral(k: int, **opts: Any):
    from repro.spectral.partitioner import SpectralPartitioner

    return SpectralPartitioner(k=k, **opts)


def _multilevel(k: int, **opts: Any):
    from repro.multilevel.partitioner import MultilevelPartitioner

    return MultilevelPartitioner(k=k, **opts)


def _percolation(k: int, **opts: Any):
    from repro.percolation.percolation import PercolationPartitioner

    return PercolationPartitioner(k=k, **opts)


def _annealing(k: int, **opts: Any):
    from repro.annealing.sa import SimulatedAnnealingPartitioner

    return SimulatedAnnealingPartitioner(k=k, **opts)


def _antcolony(k: int, **opts: Any):
    from repro.antcolony.colony import AntColonyPartitioner

    return AntColonyPartitioner(k=k, **opts)


def _fusionfission(k: int, **opts: Any):
    from repro.fusionfission.partitioner import FusionFissionPartitioner

    return FusionFissionPartitioner(k=k, **opts)


METHOD_FACTORIES: dict[str, Callable[..., Any]] = {
    "linear": _linear,
    "spectral": _spectral,
    "multilevel": _multilevel,
    "percolation": _percolation,
    "simulated-annealing": _annealing,
    "ant-colony": _antcolony,
    "fusion-fission": _fusionfission,
}

#: User-facing shorthands accepted wherever a method name is expected.
METHOD_ALIASES: dict[str, str] = {
    "annealing": "simulated-annealing",
    "sa": "simulated-annealing",
    "antcolony": "ant-colony",
    "ants": "ant-colony",
    "aco": "ant-colony",
    "ff": "fusion-fission",
    "fusionfission": "fusion-fission",
    "ml": "multilevel",
}

#: One-line description per canonical method (``repro portfolio
#: --list-methods`` and the README table are generated from this).
METHOD_SUMMARIES: dict[str, str] = {
    "linear": "index-order recursive split; the do-nothing baseline",
    "spectral": "Lanczos/RQI Fiedler-vector recursion, optional KL",
    "multilevel": "coarsen → initial partition → FM-refined uncoarsening",
    "percolation": "the paper's §4.4 flooding heuristic from k centres",
    "simulated-annealing": "Metropolis vertex moves at fixed k (paper §3.1)",
    "ant-colony": "k competing colonies claiming territory (paper §3.2)",
    "fusion-fission": "the paper's contribution: variable-k atom dynamics (§4)",
}

#: Methods that honour ``time_budget`` / ``objective`` options.
METAHEURISTICS = frozenset(
    {"simulated-annealing", "ant-colony", "fusion-fission"}
)


def _known_methods_text() -> str:
    """``canonical (aliases: …)`` lines for unknown-method errors."""
    rows = []
    for name, aliases, _summary in list_methods():
        rows.append(
            f"{name} (aliases: {', '.join(aliases)})" if aliases else name
        )
    return "; ".join(rows)


def canonical_method(method: str) -> str:
    """Resolve a method name or alias to its canonical registry key.

    Unknown names raise a :class:`ConfigurationError` that lists every
    canonical method with its aliases (and a close-match suggestion when
    one exists) — never a bare ``KeyError``.
    """
    key = str(method).strip().lower()
    key = METHOD_ALIASES.get(key, key)
    if key not in METHOD_FACTORIES:
        import difflib

        candidates = list(METHOD_FACTORIES) + list(METHOD_ALIASES)
        close = difflib.get_close_matches(key, candidates, n=1, cutoff=0.6)
        hint = f" (did you mean {close[0]!r}?)" if close else ""
        raise ConfigurationError(
            f"unknown method {method!r}{hint}; known methods: "
            f"{_known_methods_text()}"
        )
    return key


def list_methods() -> list[tuple[str, list[str], str]]:
    """``(canonical name, aliases, summary)`` rows for every method."""
    rows = []
    for name in sorted(METHOD_FACTORIES):
        aliases = sorted(a for a, c in METHOD_ALIASES.items() if c == name)
        rows.append((name, aliases, METHOD_SUMMARIES.get(name, "")))
    return rows


def budget_options(method: str, time_budget: float | None) -> dict[str, Any]:
    """Options that make ``time_budget`` the authoritative stop criterion.

    The metaheuristics stop at *either* their step/iteration cap or the
    wall-clock budget; when a budget is given the caps are lifted so the
    whole budget is used.  Non-metaheuristics ignore budgets (they are
    direct constructions) and get no options.
    """
    key = canonical_method(method)
    if time_budget is None or key not in METAHEURISTICS:
        return {}
    options: dict[str, Any] = {"time_budget": time_budget}
    if key == "fusion-fission":
        options["max_steps"] = 10**9
    elif key == "ant-colony":
        options["iterations"] = 10**9
    return options
