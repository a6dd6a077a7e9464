"""One pass of a workload in a fresh interpreter.

Reads ``{"jobs": [...], "trace": bool}`` as JSON on stdin and runs the jobs
in the order given, from the ``src`` tree of the current directory.  Writes
one JSON line per job (wall seconds, the mean speed probe time around and
during it, exit status, output text or error) and
a final line with peak resident memory, library versions and, when traced,
the reduced spans.  The parent process checks the answers.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.abspath("src"))

import numpy  # noqa: E402

import stablekneser  # noqa: E402
from stablekneser import cli, complexes  # noqa: E402

from speed import Sampler  # noqa: E402
from tracing import CLI_SPAN, Tracer  # noqa: E402


def run_job(job: list, tracer) -> tuple[int, str]:
    if job[0] == "equivariance":
        report = complexes.check_equivariance_combinatorial(int(job[1]), int(job[2]))
        return 0, json.dumps(report, sort_keys=True)
    with tracer.span(CLI_SPAN) if tracer else contextlib.nullcontext():
        text, status = cli.run(cli.config_from_args(cli.build_parser().parse_args(job)))
    if tracer:
        tracer.counters["cli.output_bytes"] += len(text)
    return status, text


def main() -> int:
    spec = json.load(sys.stdin)
    # Protocol lines go to the original stdout; anything the package prints
    # lands on stderr instead.
    proto = os.fdopen(os.dup(1), "w")
    sys.stdout = sys.stderr
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install(stablekneser)
    for i, job in enumerate(spec["jobs"]):
        # Free the previous job's garbage outside the timed region, so that
        # one job's heap is not billed to the next.
        gc.collect()
        if tracer is not None:
            tracer.job_id = i
        line = {"job": i}
        with Sampler() as speed:
            t0 = time.perf_counter()
            try:
                line["status"], line["out"] = run_job(job, tracer)
            except Exception:  # a failing job is reported, the pass goes on
                line["error"] = traceback.format_exc(limit=3)
            line["seconds"] = time.perf_counter() - t0 - speed.spent
        line["probe_s"] = speed.probe_s
        proto.write(json.dumps(line) + "\n")
        proto.flush()
    final = {"done": True,
             "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             "python": sys.version.split()[0],
             "numpy": numpy.__version__}
    if tracer is not None:
        final["trace"] = tracer.reduce()
    proto.write(json.dumps(final) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
