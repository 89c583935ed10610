"""Run ``repro serve`` with the benchmark's hooks installed.

Usage::

    python3 perfbench/serve_launcher.py --notify-fd FD [--trace-out FILE] \
        -- <repro serve arguments>

The launcher writes ``ready PORT`` on the file descriptor ``FD`` once the
HTTP listener is bound, and ``done JOB_ID STATE`` the moment a job turns
terminal after a slice, so the benchmark sees completions without
polling.  With ``--trace-out`` it also wraps the measured layers,
including the server-side ones (submit, slices, job store, result
cache), and writes the recorded spans to ``FILE`` when the server stops.
SIGTERM stops the server the way Ctrl-C does.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import use_repo_source  # noqa: E402
from tracing import Tracer, install_layers  # noqa: E402


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--notify-fd", type=int, required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    use_repo_source()
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        install_layers(tracer, service=True)

    from repro import cli
    from repro.service.http import ServiceHTTP
    from repro.service.service import SolveService

    notify = os.fdopen(args.notify_fd, "w", buffering=1)

    apply_outcome = SolveService._apply_outcome

    def _apply_outcome(self, job, outcome):
        apply_outcome(self, job, outcome)
        if job.terminal:
            notify.write(f"done {job.id} {job.state}\n")

    http_start = ServiceHTTP.start

    async def _start(self):
        await http_start(self)
        notify.write(f"ready {self.port}\n")

    SolveService._apply_outcome = _apply_outcome
    ServiceHTTP.start = _start
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return cli.main(["serve", *serve_args])
    finally:
        if tracer is not None:
            tracer.write(args.trace_out)
        notify.close()


if __name__ == "__main__":
    raise SystemExit(main())
