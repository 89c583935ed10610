"""The benchmark's own tests.

Run from the root of the repository::

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection;
the tiny-mode runs below take a minute or two.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
import uuid
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, WORK, use_repo_source  # noqa: E402

use_repo_source()

from workloads import SERVE_ARGS, WORKLOADS  # noqa: E402

NAMES = sorted(WORKLOADS)
#: Wall-clock budgets the workloads must never put on a request.
TIME_BUDGETS = ("max_seconds", "time_budget", "deadline", "task_timeout")


def _run(*args: str, cwd: Path = ROOT) -> tuple[int, str, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        line = None
    return proc.returncode, proc.stdout + proc.stderr, line


def _digest(output: str) -> str:
    for line in output.splitlines():
        if " digest " in line:
            return line.rsplit(" digest ", 1)[1].strip()
    raise AssertionError(f"no digest in output:\n{output}")


# -- fixed work ---------------------------------------------------------------
@pytest.mark.parametrize("tiny", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_requests_carry_no_wall_clock_budget(name, tiny):
    workload = WORKLOADS[name](tiny=tiny)
    if name != "service-mix":
        workload.setup_graph()
    for request in workload.requests(seed=3):
        keys = set(request.get("options", {})) | set(request)
        assert not keys & set(TIME_BUDGETS), request
        if request["method"] != "multilevel":
            caps = {"max_steps", "iterations", "max_iterations"}
            assert keys & caps, f"uncapped request {request}"


def test_no_time_budget_anywhere_in_the_workloads():
    source = (HERE / "workloads.py").read_text()
    names = {
        node.attr if isinstance(node, ast.Attribute) else node.arg
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Attribute, ast.keyword))
    }
    assert not names & set(TIME_BUDGETS)
    assert SERVE_ARGS[SERVE_ARGS.index("--slice") + 1] == "none"
    assert "--slice-iterations" in SERVE_ARGS


@pytest.mark.parametrize("name", NAMES)
def test_seed_changes_the_mix(name):
    workload = WORKLOADS[name](tiny=False)
    if name != "service-mix":
        workload.setup_graph()
    assert workload.requests(seed=1) == workload.requests(seed=1)
    assert workload.requests(seed=1) != workload.requests(seed=2)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_runs_repeat_exactly(name):
    outputs = []
    for _ in range(2):
        code, output, line = _run("--workload", name, "--seed", "5",
                                  "--seconds", "1", "--trace", "0", "--tiny")
        assert code == 0, output
        assert line["correct"] and line["failed"] == 0, output
        outputs.append((_digest(output),
                        line["metrics"]["objective_mean"]["value"]))
    assert outputs[0] == outputs[1]


# -- traced run -----------------------------------------------------------------
@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reaches_every_layer(name):
    code, output, line = _run("--workload", name, "--seed", "5",
                              "--trace", "1", "--tiny")
    assert code == 0, output
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert metrics["trace.spans"] > 0
    if name == "solve-atc":
        assert metrics["percolation.bonds_calls"] > 0
        assert metrics["percolation.bisect_calls"] > 0
        assert metrics["refine.fm_calls"] > 0
        assert metrics["partition.evaluate_calls"] > 0
        for key, value in metrics.items():
            if key.startswith(("api.checkpoint", "api.resume", "service.",
                               "engine.", "self_s.service",
                               "self_s.engine")):
                assert value == 0, key
    if name == "portfolio-grid":
        assert metrics["engine.attempts"] > 0
        assert metrics["percolation.bonds_calls"] > 0
    if name == "service-mix":
        assert metrics["service.slices"] > 0
        assert metrics["service.store_saves"] > 0
        assert metrics["api.checkpoint_bytes"] > 0
        assert metrics["service.cache_lookups"] > 0


def test_layer_wrappers_replace_every_binding():
    import repro.fusionfission.operators as operators
    import repro.multilevel.partitioner as ml
    import repro.percolation.percolation as percolation
    import repro.refine.fm as fm
    from tracing import Tracer, install_layers

    original = percolation.percolation_bisect
    tracer = Tracer()
    install_layers(tracer)
    try:
        assert operators.percolation_bisect is percolation.percolation_bisect
        assert operators.percolation_bisect is not original
        assert ml.fm_refine is fm.fm_refine
    finally:
        tracer.uninstall()
    assert operators.percolation_bisect is original
    assert percolation.percolation_bisect is original


# -- processes -------------------------------------------------------------------
#: Runs the benchmark as a child of a process that adopts every orphaned
#: descendant, then prints the pids of whatever is still its child.
_LEFTOVERS = """
import subprocess, sys
sys.path.insert(0, sys.argv[1])
from common import _children, adopt_orphans
adopt_orphans()
code = subprocess.run([sys.executable, *sys.argv[2:]],
                      stdout=subprocess.DEVNULL).returncode
print(code, _children())
"""


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", NAMES)
def test_run_leaves_no_process_behind(name, trace):
    """Pool workers, the shm resource tracker and the server all end (and
    are waited for) before the benchmark exits."""
    proc = subprocess.run(
        [sys.executable, "-c", _LEFTOVERS, str(HERE), str(HERE / "run.py"),
         "--workload", name, "--seed", "3", "--seconds", "1",
         "--trace", trace, "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.stdout.split() == ["0", "[]"], proc.stdout + proc.stderr


# -- packaging and output format -----------------------------------------------
def test_fails_without_the_program():
    """A directory holding only the benchmark exits non-zero, silently."""
    root = WORK / f"bare-{uuid.uuid4().hex}"
    try:
        shutil.copytree(HERE, root / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload",
             "solve-atc", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [
        "solve-atc", "portfolio-grid", "service-mix"]
    code, output, line = _run("--workload", "service-mix", "--seed", "2",
                              "--seconds", "1", "--trace", "0", "--tiny")
    assert code == 0, output
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    code, output, line = _run("--workload", "service-mix", "--seed", "2",
                              "--trace", "1", "--tiny")
    assert code == 0, output
    expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
