"""Instance registry: canonical names → workload instances.

Mirrors the method-registry idiom of :mod:`repro.api.registry` (the
brain-score ``data_registry`` plugin pattern): instances register under a
canonical kebab-case name plus optional aliases, lookups are
case-insensitive, and unknown names fail with a
:class:`~repro.common.exceptions.ConfigurationError` that lists every
canonical instance and suggests a close match — never a bare
``KeyError``.

The catalog (:mod:`repro.workloads.catalog`) populates the registry at
import; downstream code should reach it through
:func:`repro.workloads.get_instance` / :func:`build_instance` so the
catalog import is never forgotten.
"""

from __future__ import annotations

from typing import Union

from repro.common.exceptions import ConfigurationError
from repro.common.rng import SeedLike
from repro.graph.graph import Graph
from repro.workloads.instance import WorkloadInstance

__all__ = [
    "INSTANCE_REGISTRY",
    "INSTANCE_ALIASES",
    "register_instance",
    "canonical_instance",
    "get_instance",
    "build_instance",
    "list_instances",
]

#: Canonical name → instance (static or dynamic).
INSTANCE_REGISTRY: dict[str, "AnyInstance"] = {}

#: User-facing shorthands accepted wherever an instance name is expected.
INSTANCE_ALIASES: dict[str, str] = {}

# Resolved lazily to avoid an import cycle (dynamic imports the api layer).
AnyInstance = Union[WorkloadInstance, "object"]


def register_instance(
    instance: AnyInstance, aliases: tuple[str, ...] = ()
) -> AnyInstance:
    """Register an instance under its canonical name (+ aliases).

    Double registration and alias collisions are configuration errors —
    a silently shadowed instance would quietly invalidate its frozen
    bands.  Returns the instance so catalog modules can
    register-and-assign in one statement.
    """
    name = instance.name
    if name in INSTANCE_REGISTRY:
        raise ConfigurationError(f"instance {name!r} is already registered")
    if name in INSTANCE_ALIASES:
        raise ConfigurationError(
            f"instance name {name!r} collides with an existing alias"
        )
    # Validate every alias before touching either table, so a rejected
    # registration leaves the registry exactly as it was.
    keys = [alias.strip().lower() for alias in aliases]
    for alias, key in zip(aliases, keys):
        if key == name or key in INSTANCE_REGISTRY or key in INSTANCE_ALIASES:
            raise ConfigurationError(
                f"alias {alias!r} for {name!r} collides with an existing "
                "name or alias"
            )
    if len(set(keys)) != len(keys):
        raise ConfigurationError(f"duplicate aliases for {name!r}: {aliases}")
    INSTANCE_REGISTRY[name] = instance
    for key in keys:
        INSTANCE_ALIASES[key] = name
    return instance


def _known_instances_text() -> str:
    """``canonical (aliases: …)`` lines for unknown-instance errors."""
    rows = []
    for name in sorted(INSTANCE_REGISTRY):
        aliases = sorted(
            a for a, c in INSTANCE_ALIASES.items() if c == name
        )
        rows.append(
            f"{name} (aliases: {', '.join(aliases)})" if aliases else name
        )
    return "; ".join(rows)


def canonical_instance(name: str) -> str:
    """Resolve an instance name or alias to its canonical registry key.

    Unknown names raise a :class:`ConfigurationError` listing every
    canonical instance with its aliases (plus a did-you-mean suggestion
    when one is close).
    """
    _ensure_catalog()
    key = str(name).strip().lower()
    key = INSTANCE_ALIASES.get(key, key)
    if key not in INSTANCE_REGISTRY:
        import difflib

        candidates = list(INSTANCE_REGISTRY) + list(INSTANCE_ALIASES)
        close = difflib.get_close_matches(key, candidates, n=1, cutoff=0.6)
        hint = f" (did you mean {close[0]!r}?)" if close else ""
        raise ConfigurationError(
            f"unknown workload instance {name!r}{hint}; known instances: "
            f"{_known_instances_text()}"
        )
    return key


def get_instance(name: str) -> AnyInstance:
    """Look up an instance by name or alias (catalog auto-loaded)."""
    _ensure_catalog()
    return INSTANCE_REGISTRY[canonical_instance(name)]


def build_instance(name: str, seed: SeedLike = None) -> Graph:
    """Build a *static* instance's graph by registry name.

    Dynamic instances have no single graph — callers wanting epochs go
    through :func:`repro.workloads.dynamic.run_dynamic` (this function
    tells them so instead of silently handing back epoch 0).
    """
    instance = get_instance(name)
    if instance.kind != "static":
        raise ConfigurationError(
            f"instance {instance.name!r} is dynamic (a sequence of "
            "epochs); run it with `repro workloads run` or "
            "repro.workloads.dynamic.run_dynamic instead of build_instance"
        )
    return instance.build(seed)


def list_instances() -> list[AnyInstance]:
    """Every registered instance, sorted by canonical name."""
    _ensure_catalog()
    return [INSTANCE_REGISTRY[name] for name in sorted(INSTANCE_REGISTRY)]


def instance_aliases(name: str) -> list[str]:
    """Sorted aliases of an instance (name or alias accepted)."""
    key = canonical_instance(name)
    return sorted(a for a, c in INSTANCE_ALIASES.items() if c == key)


def _ensure_catalog() -> None:
    """Idempotently import the catalog so the registry is populated."""
    import repro.workloads.catalog  # noqa: F401  (registers on import)
