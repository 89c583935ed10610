"""The method matrix of the paper's Table 1.

:func:`table1_methods` returns the 17 rows as ``(label, SolverSpec)``
pairs: every row is a registry method (:mod:`repro.api.registry`) plus
constructor options, so the harness runs them like any portfolio
entrant, at whatever ``k`` the suite is run for.
"""

from __future__ import annotations

from repro.api.registry import budget_options
from repro.engine.spec import SolverSpec

__all__ = ["table1_methods"]


def table1_methods(
    metaheuristic_budget: float | None = None,
) -> list[tuple[str, SolverSpec]]:
    """The 17 (label, spec) rows of the paper's Table 1.

    ``metaheuristic_budget`` is an optional per-run wall-clock budget
    (seconds) for SA, ant colony and fusion–fission; ``None`` uses their
    step-count defaults.  When a budget is given it is authoritative:
    the step/iteration caps are lifted so every metaheuristic uses its
    whole budget.
    """
    rows = [
        ("Linear (Bi)", "linear", {}),
        ("Linear (Bi, KL)", "linear", {"refine": True}),
        ("Linear (Oct, KL)", "linear", {"refine": True, "arity": 8}),
        ("Spectral (Lanc, Bi)", "spectral",
         {"solver": "lanczos", "arity": 2}),
        ("Spectral (Lanc, Bi, KL)", "spectral",
         {"solver": "lanczos", "arity": 2, "refine": True}),
        ("Spectral (Lanc, Oct)", "spectral",
         {"solver": "lanczos", "arity": 8}),
        ("Spectral (Lanc, Oct, KL)", "spectral",
         {"solver": "lanczos", "arity": 8, "refine": True}),
        ("Spectral (RQI, Bi)", "spectral", {"solver": "rqi", "arity": 2}),
        ("Spectral (RQI, Bi, KL)", "spectral",
         {"solver": "rqi", "arity": 2, "refine": True}),
        ("Spectral (RQI, Oct)", "spectral", {"solver": "rqi", "arity": 8}),
        ("Spectral (RQI, Oct, KL)", "spectral",
         {"solver": "rqi", "arity": 8, "refine": True}),
        ("Multilevel (Bi)", "multilevel", {"arity": 2}),
        ("Multilevel (Oct)", "multilevel", {"arity": 8}),
        ("Percolation", "percolation", {}),
        ("Simulated annealing", "simulated-annealing",
         budget_options("simulated-annealing", metaheuristic_budget)),
        ("Ant colony", "ant-colony",
         budget_options("ant-colony", metaheuristic_budget)),
        ("Fusion Fission", "fusion-fission",
         budget_options("fusion-fission", metaheuristic_budget)),
    ]
    return [
        (label, SolverSpec(method, options, label))
        for label, method, options in rows
    ]
