"""Workload instance registry and dynamic repartitioning scenarios.

The evaluation substrate of the reproduction: named, reproducible
partitioning instances with metadata and frozen expected-quality bands
(the brain-score ``data_registry`` plugin idiom, mirroring the solver
registry in :mod:`repro.api.registry`), plus time-varying **dynamic
repartitioning** scenarios with warm-started sessions and a migration
cost term.

Quick tour::

    from repro.workloads import get_instance, build_instance, run_instance

    graph = build_instance("grid-16")          # static instance graph
    report = run_instance("caveman-8x6")       # band gate, repro-workloads/v1
    day = get_instance("atc-day")              # dynamic scenario
    from repro.workloads import run_dynamic
    result = run_dynamic(day, epochs=3)        # warm-started epochs

CLI: ``repro workloads list | show NAME | run NAME``.
Docs: ``docs/workloads.md``.
"""

from repro.workloads.instance import (
    TIER_LARGE,
    TIER_SMALL,
    BandVerdict,
    QualityBand,
    WorkloadInstance,
    graph_fingerprint,
)
from repro.workloads.registry import (
    INSTANCE_ALIASES,
    INSTANCE_REGISTRY,
    build_instance,
    canonical_instance,
    get_instance,
    instance_aliases,
    list_instances,
    register_instance,
)
from repro.workloads.dynamic import (
    DynamicInstance,
    DynamicResult,
    EpochRecord,
    diurnal_weights,
    migration_cost,
    run_dynamic,
    warm_start_checkpoint,
)
from repro.workloads.runner import REPORT_SCHEMA, check_bands, run_instance

# Populate the registry eagerly: anyone importing the package sees the
# full catalog (module-level reads included), not just lazy lookups.
import repro.workloads.catalog  # noqa: E402,F401  (registers on import)

__all__ = [
    "TIER_SMALL",
    "TIER_LARGE",
    "QualityBand",
    "BandVerdict",
    "WorkloadInstance",
    "DynamicInstance",
    "DynamicResult",
    "EpochRecord",
    "graph_fingerprint",
    "INSTANCE_REGISTRY",
    "INSTANCE_ALIASES",
    "register_instance",
    "canonical_instance",
    "get_instance",
    "build_instance",
    "list_instances",
    "instance_aliases",
    "diurnal_weights",
    "migration_cost",
    "warm_start_checkpoint",
    "run_dynamic",
    "REPORT_SCHEMA",
    "check_bands",
    "run_instance",
]
