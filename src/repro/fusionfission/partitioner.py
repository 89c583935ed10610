"""Public fusion–fission partitioner.

:class:`FusionFissionPartitioner` exposes the paper's five parameters
(``tmax``, ``tmin``, ``nbt``, and the ``k``/``r`` constants of α(t), here
``alpha_slope``/``alpha_offset``) plus engineering knobs (step/time budget,
objective, law learning rate).  Two ablation switches turn off the
binding-energy scaling (``scale_energy``) and law learning
(``learn_laws``); the §4 table of ``docs/paper_mapping.md`` lists them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.rng import SeedLike, ensure_rng
from repro.fusionfission.core import (
    FusionFissionResult,
    FusionFissionRun,
    fusion_fission_search,
    initialize_molecule,
)
from repro.fusionfission.energy import ScaledEnergy
from repro.fusionfission.laws import LawTable
from repro.fusionfission.temperature import TemperatureSchedule
from repro.graph.graph import Graph
from repro.partition.partition import Partition
from repro.api.request import SolveRequest
from repro.api.session import OneShotSession, SolveSession

import numpy as np

__all__ = ["FusionFissionPartitioner", "FusionFissionSession"]


class FusionFissionSession(SolveSession):
    """Run session for :class:`FusionFissionPartitioner`.

    Phases: ``initialize`` (Algorithm 2), ``search`` (Algorithm 1, one
    session iteration = up to :attr:`chunk` main-loop steps), ``finalize``
    (coercion to the target k when needed).  Incumbent events fire when
    the best molecule *at the target k* improves, carrying its raw
    objective — the same signal the Figure-1 harness samples.
    """

    chunk = 32

    #: set by ``_setup``/``_restore_state``; None only mid-construction
    _run: FusionFissionRun | None = None

    def _setup(self) -> None:
        solver: FusionFissionPartitioner = self.solver
        graph, k = self.request.graph, self.request.k
        objective = self.request.objective or solver.objective
        self._result: FusionFissionResult | None = None
        self._set_phase("initialize")
        energy = solver._energy(graph, k=k, objective=objective)
        laws = solver._laws(graph)
        initial = initialize_molecule(
            graph, k, laws, energy, seed=self.rng,
            cascade=solver.init_cascade,
        )
        self._run = self._make_run(energy, laws, initial)
        self._set_phase("search")

    def _make_run(
        self,
        energy: ScaledEnergy,
        laws: LawTable,
        initial: Partition,
    ) -> FusionFissionRun:
        solver: FusionFissionPartitioner = self.solver
        return FusionFissionRun(
            self.request.graph,
            self.request.k,
            energy,
            schedule=solver._schedule(),
            laws=laws,
            max_steps=solver.max_steps,
            time_budget=solver.time_budget,
            max_parts_factor=solver.max_parts_factor,
            seed=self.rng,
            initial=initial,
            on_improvement=lambda raw, best: self._incumbent_improved(
                raw, num_parts=best.num_parts
            ),
        )

    def _advance(self) -> bool:
        run = self._run
        for _ in range(self.chunk):
            if not run.step():
                if self._result is None:
                    self._set_phase("finalize")
                    self._result = run.finalize()
                return False
        return True

    def _best_partition(self) -> Partition | None:
        if self._result is not None:
            return self._result.best_at_target
        run = self._run
        if run is None:
            return None
        return run.best_at_target if run.best_at_target is not None else run.best

    def _best_objective(self) -> float | None:
        run = self._run
        if run is None or run.best_at_target is None:
            return None
        return run.best_raw_at_target

    def _progress_payload(self) -> dict:
        run = self._run
        return {
            "ff_steps": run.steps,
            "num_parts": run.current.num_parts,
            "temperature": run.t,
            "restarts": run.restarts,
        }

    def result(self) -> FusionFissionResult:
        """The multi-k result object (finalizes a finished run)."""
        if self._result is None:
            self._result = self._run.finalize()
        return self._result

    def _export_state(self) -> dict:
        return self._run.export_state()

    def _restore_state(self, state: dict) -> None:
        solver: FusionFissionPartitioner = self.solver
        graph, k = self.request.graph, self.request.k
        objective = self.request.objective or solver.objective
        self._result = None
        energy = solver._energy(graph, k=k, objective=objective)
        laws = solver._laws(graph)
        # The placeholder skips Algorithm 2 so the restored rng stream is
        # untouched; restore_state then overwrites every field, and the
        # incumbent hook is attached only afterwards so restoring never
        # fires spurious events.
        placeholder = Partition(
            graph, np.asarray(state["current_assignment"], dtype=np.int64)
        )
        self._run = self._make_run(energy, laws, placeholder)
        self._run.on_improvement = None
        self._run.restore_state(state)
        self._run.on_improvement = lambda raw, best: self._incumbent_improved(
            raw, num_parts=best.num_parts
        )
        if self.status == "done":
            self._result = self._run.finalize()
        else:
            self.phase = "search"


class _SinglePartSession(OneShotSession):
    """The ``k = 1`` session: one iteration that returns the one-part
    partition (it draws nothing from the rng)."""

    def _advance(self) -> bool:
        n = self.request.graph.num_vertices
        self._result = Partition(
            self.request.graph, np.zeros(n, dtype=np.int64)
        )
        return False


@dataclass
class FusionFissionPartitioner:
    """Table 1's "Fusion Fission" row — the paper's contribution.

    Attributes
    ----------
    k:
        Target number of atoms; the returned partition has exactly ``k``
        parts (use :meth:`search` for the full multi-k result).
    objective:
        Raw criterion being optimised (the ATC study uses ``"mcut"``).
    tmax, tmin, nbt, alpha_slope, alpha_offset:
        The five paper parameters (§6: "the fusion fission algorithm has
        five parameters, tmax, tmin and nbt for the temperature, k and r
        in α(t) for the choice function").
    law_learning_rate:
        The reinforcement "input value" of §4.1.
    max_steps, time_budget:
        Stopping criteria.
    scale_energy:
        Ablation: set False to optimise the raw objective without the
        binding-energy curve (the search then collapses toward few parts).
    learn_laws:
        Ablation: set False to keep ejection laws uniform.
    max_parts_factor:
        Ceiling on part count as a multiple of ``k``.
    init_cascade:
        Algorithm-2 strategy: ``"law"`` (exact historical cascade),
        ``"matched"`` (vectorized heavy-edge prelude) or ``"auto"``
        (matched on graphs of ≥ 4096 vertices, exact loop below — small
        seeded runs stay bit-identical to the historical behaviour).
    """

    k: int
    objective: str = "mcut"
    tmax: float = 1.0
    tmin: float = 0.0
    nbt: int = 300
    alpha_slope: float = 1.0
    alpha_offset: float = 0.5
    law_learning_rate: float = 0.05
    max_steps: int = 4000
    time_budget: float | None = None
    scale_energy: bool = True
    learn_laws: bool = True
    max_parts_factor: float = 1.4
    init_cascade: str = "auto"

    name = "fusion-fission"
    #: Iterative family: sessions may run island-model (`islands > 1`).
    supports_islands = True

    def _energy(
        self,
        graph: Graph,
        k: int | None = None,
        objective: str | None = None,
    ) -> ScaledEnergy:
        energy = ScaledEnergy(
            graph.num_vertices,
            self.k if k is None else k,
            objective=objective or self.objective,
        )
        if not self.scale_energy:
            # Ablation: identity scaling (raw per-molecule objective).
            energy.scale.binding_for_parts = lambda k: 1.0  # type: ignore[method-assign]
        return energy

    def _laws(self, graph: Graph) -> LawTable:
        laws = LawTable(graph.num_vertices, learning_rate=self.law_learning_rate)
        if not self.learn_laws:
            laws.update = lambda *args, **kwargs: None  # type: ignore[method-assign]
        return laws

    def _schedule(self) -> TemperatureSchedule:
        return TemperatureSchedule(
            tmax=self.tmax,
            tmin=self.tmin,
            nbt=self.nbt,
            alpha_slope=self.alpha_slope,
            alpha_offset=self.alpha_offset,
        )

    def start(
        self, request: SolveRequest, checkpoint: dict | None = None
    ) -> SolveSession:
        """Open a run session (the :class:`repro.api.Solver` protocol).

        At ``k = 1`` the session returns the one-part partition, as every
        family does: Algorithm 1 needs at least two atoms to fuse and
        split, so there is no search to run.
        """
        if request.k == 1:
            return _SinglePartSession(self, request, checkpoint)
        return FusionFissionSession(self, request, checkpoint)

    def search(
        self,
        graph: Graph,
        seed: SeedLike = None,
        on_improvement: Callable[[float, Partition], None] | None = None,
    ) -> FusionFissionResult:
        """Run the full search and return the multi-k result object."""
        rng = ensure_rng(seed)
        energy = self._energy(graph)
        laws = self._laws(graph)
        schedule = self._schedule()
        initial = initialize_molecule(
            graph, self.k, laws, energy, seed=rng, cascade=self.init_cascade
        )
        return fusion_fission_search(
            graph,
            self.k,
            energy,
            schedule=schedule,
            laws=laws,
            max_steps=self.max_steps,
            time_budget=self.time_budget,
            max_parts_factor=self.max_parts_factor,
            seed=rng,
            initial=initial,
            on_improvement=on_improvement,
        )
