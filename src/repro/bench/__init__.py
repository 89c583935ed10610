"""Benchmark harness reproducing the paper's evaluation (§6).

* :mod:`repro.bench.registry` — the exact 17-method matrix of Table 1,
  as ``(label, SolverSpec)`` rows over the method registry
  (:mod:`repro.api.registry`),
* :mod:`repro.bench.harness` — run a method suite on a graph through the
  portfolio engine and collect Cut/Ncut/Mcut rows (``jobs > 1`` uses a
  process pool),
* :mod:`repro.bench.table1` — regenerate Table 1 (``python -m
  repro.bench.table1 [--jobs N]``),
* :mod:`repro.bench.figure1` — regenerate Figure 1's quality-vs-time
  series (``python -m repro.bench.figure1``),
* :mod:`repro.bench.ksweep` — the §6 claim that fusion–fission returns
  good partitions for a *range* of k around the target.
"""

from repro.bench.registry import table1_methods
from repro.bench.harness import MethodResult, run_method, run_suite, format_table

__all__ = [
    "table1_methods",
    "MethodResult",
    "run_method",
    "run_suite",
    "format_table",
]
