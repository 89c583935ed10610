"""The solver half of the engine API: *how* to partition.

A :class:`SolverSpec` is a declarative recipe for one portfolio entrant:
a registry method plus constructor options.  The engine instantiates a
fresh solver per run (safe to ship across process boundaries) through
:meth:`SolverSpec.build` and drives ``solver.start(request).run()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.api.facade import get_solver
from repro.api.registry import (
    METAHEURISTICS,
    budget_options,
    canonical_method,
)

__all__ = ["SolverSpec"]


@dataclass
class SolverSpec:
    """One entrant of a solver portfolio.

    Attributes
    ----------
    method:
        Registry name (aliases like ``annealing``/``ff`` accepted).
    options:
        Extra keyword arguments for the solver factory.
    label:
        Display name; defaults to the canonical method name.
    """

    method: str
    options: dict[str, Any] = field(default_factory=dict)
    label: str | None = None

    def __post_init__(self) -> None:
        self.method = canonical_method(self.method)
        if self.label is None:
            self.label = self.method

    @classmethod
    def for_method(
        cls,
        method: str,
        objective: str | None = None,
        time_budget: float | None = None,
        **options: Any,
    ) -> "SolverSpec":
        """Build a spec with the standard budget/objective plumbing.

        ``objective`` and ``time_budget`` are forwarded only to methods
        that support them (the metaheuristics); the step/iteration caps
        are lifted when a budget is given (:func:`budget_options`).
        """
        key = canonical_method(method)
        opts = dict(options)
        opts.update(budget_options(key, time_budget))
        if objective is not None and key in METAHEURISTICS:
            opts["objective"] = objective
        return cls(method=key, options=opts)

    def build(self, k: int) -> Any:
        """A fresh :class:`repro.api.Solver` for ``k`` parts."""
        return get_solver(self.method, k, **self.options)

    def as_dict(self) -> dict:
        """Spec metadata for JSON reports."""
        return {
            "method": self.method,
            "label": self.label,
            "options": {
                key: value
                for key, value in self.options.items()
                if isinstance(value, (int, float, str, bool, type(None)))
            },
        }
