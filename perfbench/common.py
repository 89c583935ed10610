"""Shared plumbing of the benchmark: paths, output checks, statistics.

Everything here reads and writes only inside the checkout the
benchmark runs from (its root is the parent of this directory).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of a run (service data dirs, server logs); emptied
#: after each run.
WORK = ROOT / ".perfbench_work"
#: What a run leaves for later reading: trace files and the digest ledger.
OUT = ROOT / ".perfbench_out"

#: Single-threaded native math: the workloads own both CPUs through
#: their own processes and threads.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


#: Short solver-family names used in metric and span names.
FAMILY = {
    "fusion-fission": "ff",
    "simulated-annealing": "sa",
    "ant-colony": "aco",
    "multilevel": "ml",
}


class BenchError(Exception):
    """The benchmark cannot run here, or a correctness gate failed."""


def use_repo_source() -> None:
    """Import ``repro`` from this checkout's ``src`` or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}")
    for key, value in THREAD_ENV.items():
        os.environ.setdefault(key, value)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")


def child_env() -> dict:
    """Environment for the subprocesses a workload starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


# ---------------------------------------------------------------------------
# Output correctness.
# ---------------------------------------------------------------------------
def mcut(graph, assignment, k: int) -> float:
    """``Σ_A cut(A) / W(A)`` recomputed from the CSR arrays alone."""
    import numpy as np

    a = np.asarray(assignment, dtype=np.int64)
    owner = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), np.diff(graph.indptr)
    )
    same = a[owner] == a[graph.indices]
    internal = np.bincount(
        a[owner[same]], weights=graph.weights[same], minlength=k
    ) / 2.0
    cut = np.bincount(a[owner[~same]], weights=graph.weights[~same],
                      minlength=k)
    total = 0.0
    for c, w in zip(cut.tolist(), internal.tolist()):
        if w > 0.0:
            total += c / w
        elif c > 0.0:
            return math.inf
    return total


def check_result(graph, assignment, k: int, reported: float, label: str,
                 partition=None) -> float:
    """Gate one returned partition; returns its recomputed ``mcut``.

    Fails when the assignment is malformed, when ``Partition.check()``
    rejects the solver's partition (or a fresh one built from the
    assignment), or when the recomputed ``mcut`` disagrees with the
    objective the program reported.
    """
    import numpy as np
    from repro.partition import Partition

    a = np.asarray(assignment, dtype=np.int64)
    if a.shape != (graph.num_vertices,):
        raise BenchError(f"{label}: assignment has shape {a.shape}")
    if a.min() < 0 or a.max() >= k:
        raise BenchError(f"{label}: assignment labels outside 0..{k - 1}")
    (partition if partition is not None else Partition(graph, a)).check()
    value = mcut(graph, a, k)
    if not math.isclose(value, reported, rel_tol=1e-9, abs_tol=1e-9):
        raise BenchError(
            f"{label}: reported mcut {reported!r} but the assignment "
            f"gives {value!r}"
        )
    return value


def assignment_digest(assignment) -> str:
    import numpy as np

    data = np.ascontiguousarray(assignment, dtype=np.int64).tobytes()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def combined_digest(rows) -> str:
    """Digest of ``(request key, assignment digest)`` rows, in order."""
    h = hashlib.blake2b(digest_size=16)
    for key, digest in rows:
        h.update(f"{key}={digest};".encode())
    return h.hexdigest()


def source_fingerprint() -> str:
    """Hash of the ``repro`` and benchmark sources, so the ledger
    compares runs of the same code only."""
    h = hashlib.blake2b(digest_size=12)
    bench = Path(__file__).resolve().parent
    for path in sorted([*(SRC / "repro").rglob("*.py"), *bench.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def ledger_check(key: str, digest: str, objective_mean: float) -> None:
    """Fail when this code gave another result at this seed before."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "digests.json"
    try:
        ledger = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        ledger = {}
    entry = {"digest": digest, "objective_mean": objective_mean}
    previous = ledger.get(key)
    if previous is not None and previous != entry:
        raise BenchError(
            f"results changed between runs at one seed ({key}): "
            f"{previous} then {entry}"
        )
    ledger[key] = entry
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Statistics and resources.
# ---------------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank ``q`` percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values) -> float:
    if not values:
        raise BenchError("median of no samples")
    return float(statistics.median(values))


def peak_rss_mb(extra_kb: int = 0) -> float:
    """Peak RSS over this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children, extra_kb) / 1024.0


def process_age() -> float:
    """Seconds since this process was created (10 ms resolution)."""
    fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def vm_hwm_kb(pid: int) -> int:
    """``VmHWM`` (peak resident set) of a live process, in kB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise BenchError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------------
# Child processes.
# ---------------------------------------------------------------------------
#: ``prctl`` option that makes orphaned descendants children of the caller.
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of every descendant it outlives.

    A process whose parent exits first (a server's helper, a pool's
    manager) is then re-parented here instead of to init, so
    :func:`reap_children` can wait for it too.
    """
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            _PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list[int]:
    pids = set()
    for path in Path("/proc/self/task").glob("*/children"):
        try:
            pids.update(int(pid) for pid in path.read_text().split())
        except OSError:
            pass
    return sorted(pids)


def reap_children(grace: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    ``multiprocessing``'s resource tracker (started by the shared-memory
    graph transport) lives until its pipe closes; closing it here and
    waiting keeps it from outliving the run as an unreaped zombie.  Any
    other child gets ``grace`` seconds to end, then SIGTERM, then SIGKILL.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except ChildProcessError:
            pass
    deadline = time.monotonic() + grace
    sent = None
    while True:
        pids = _children()
        for pid in pids:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        pids = _children()
        late = time.monotonic() - deadline
        if not pids or late > 30.0:
            return
        signum = (signal.SIGKILL if late > 5.0
                  else signal.SIGTERM if late > 0.0 else None)
        if signum is not None and signum != sent:
            for pid in pids:
                try:
                    os.kill(pid, signum)
                except ProcessLookupError:
                    pass
            sent = signum
        time.sleep(0.02)
