"""Layering and single-surface guards over the ``src/repro`` tree.

Solvers have one entry point (``get_solver(...).start(request)``) and
one registry (:mod:`repro.api.registry`).  The reproduction harness in
``repro.bench`` sits on top of everything: only it and the CLI may
import it.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "repro"

#: Names of removed entry points that must not come back.
REMOVED_NAMES = (
    "as_solver",
    "_LegacySolverAdapter",
    "chain_improvement",
    "make_solver",
    "make_partitioner",
    "from_partitioner",
)


def _modules():
    return sorted(PACKAGE.rglob("*.py"))


def _imported_modules(path: Path) -> set[str]:
    """Absolute module names ``path`` imports (``from a import b`` yields
    both ``a`` and ``a.b``, since ``b`` may be a submodule)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{a.name}" for a in node.names)
    return names


def _may_import_bench(path: Path) -> bool:
    rel = path.relative_to(PACKAGE).as_posix()
    return rel.startswith("bench/") or rel == "cli.py"


def test_only_bench_and_cli_import_bench():
    offenders = []
    for path in _modules():
        if _may_import_bench(path):
            continue
        bench = [
            name for name in _imported_modules(path)
            if name == "repro.bench" or name.startswith("repro.bench.")
        ]
        if bench:
            offenders.append(f"{path.relative_to(SRC)}: {sorted(bench)}")
    assert not offenders, "modules importing repro.bench:\n" + "\n".join(
        offenders
    )


def test_frozen_references_stay_off_solve_paths():
    """``*.reference`` modules exist for tests and ``repro bench perf``;
    no solver, session, engine or service code may import them."""
    offenders = []
    for path in _modules():
        if path.relative_to(PACKAGE).as_posix().startswith("bench/"):
            continue
        refs = [
            name for name in _imported_modules(path)
            if name.startswith("repro.") and name.endswith(".reference")
        ]
        if refs:
            offenders.append(f"{path.relative_to(SRC)}: {sorted(refs)}")
    assert not offenders, "modules importing a reference:\n" + "\n".join(
        offenders
    )


def test_removed_entry_points_stay_removed():
    pattern = re.compile(r"\b(" + "|".join(REMOVED_NAMES) + r")\b")
    hits = []
    for path in _modules():
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            match = pattern.search(line)
            if match:
                hits.append(f"{path.relative_to(SRC)}:{lineno}: {match[1]}")
    assert not hits, "removed names found:\n" + "\n".join(hits)


def test_no_partition_subcommand():
    assert 'add_parser("partition"' not in (PACKAGE / "cli.py").read_text()


@pytest.mark.parametrize("dotted", [
    "repro.annealing.sa.SimulatedAnnealingPartitioner",
    "repro.antcolony.colony.AntColonyPartitioner",
    "repro.fusionfission.partitioner.FusionFissionPartitioner",
])
def test_iterative_families_have_no_partition_shim(dotted):
    import importlib

    module, _, name = dotted.rpartition(".")
    cls = getattr(importlib.import_module(module), name)
    assert not hasattr(cls, "partition")
    assert hasattr(cls, "start")
