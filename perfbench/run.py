"""Benchmark for stablekneser: batch workloads, timed end to end and per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload topology --seed 1 --seconds 40 --trace 0

A run repeats passes over the workload's job list for ``--seconds``.  Before
each pass it times ``import stablekneser`` (after numpy) in SETUP_REPS fresh
interpreters (setup_s), so that set-up samples are spread over the run.
Each pass runs in a fresh worker interpreter (perfbench/worker.py), one job
at a time, in an order shuffled from the seed; every answer is checked
(perfbench/jobs.py) and a job that raises, exits nonzero, answers wrongly,
crashes its worker or exceeds JOB_TIMEOUT_S counts as failed.

Every time is measured in wall seconds and also rescaled to a reference
machine speed with the probe in perfbench/speed.py, timed around and during
each job and around each import.  The reported batch_s and setup_s are the
rescaled medians; the wall-clock medians are printed beside them.

With ``--trace 0`` the end-to-end metrics listed in BENCHMARK.json are
reported; with ``--trace 1`` passes alternate untraced and traced, and the
per-layer metrics come from the spans of the traced passes
(perfbench/tracing.py).  Human-readable lines come first; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs as J  # noqa: E402
from speed import scaled  # noqa: E402
from tracing import SPAN_NAMES  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
TRACE_DIR = os.path.join(ROOT, ".perfbench")

JOB_TIMEOUT_S = 60.0
# A run stops its worker after this many seconds, whatever --seconds says, so
# that a slow program cannot keep the benchmark from finishing.
RUN_DEADLINE_S = 150.0
SETUP_REPS = 5   # per pass
IMPORT_SNIPPET = (
    "import sys, time; sys.path[:0] = ['src', 'perfbench']; import numpy; "
    "from speed import probe; before = probe(); t0 = time.perf_counter(); "
    "import stablekneser; elapsed = time.perf_counter() - t0; "
    "print(elapsed, (before + probe()) / 2)")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(J.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {"end_to_end": bench["end_to_end"], "per_layer": bench["per_layer"],
            "why": {w["name"]: w["why"] for w in bench["workloads"]}}


def time_import() -> tuple[float, float]:
    """Wall and rescaled seconds of ``import stablekneser`` in a fresh interpreter.

    numpy is imported first and left out: loading a compiled extension is
    dominated by page faults and disk reads, whose cost on a shared host
    drifts apart from the speed probe, while numpy is not this repository's
    code.  The child times the import itself between two speed probes.
    """
    done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT,
                          capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError("import stablekneser failed with code %d:\n%s"
                           % (done.returncode, done.stderr))
    elapsed, probe_s = map(float, done.stdout.split())
    return elapsed, scaled(elapsed, probe_s)


def run_pass(jobs: list, trace: bool, deadline: float) -> tuple[list, dict | None, str | None]:
    """Run the jobs in one worker; return job lines, the final line, a failure.

    A job that takes longer than JOB_TIMEOUT_S, or runs past the perf_counter
    time `deadline`, is a failure and ends the pass.
    """
    proc = subprocess.Popen([sys.executable, WORKER], cwd=ROOT, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    lines: queue.Queue = queue.Queue()

    def pump() -> None:
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    results, final, failure = [], None, None
    try:
        proc.stdin.write(json.dumps({"jobs": jobs, "trace": trace}))
        proc.stdin.close()
        while True:
            wait = min(JOB_TIMEOUT_S, deadline - time.perf_counter())
            try:
                line = lines.get(timeout=max(wait, 0.0))
            except queue.Empty:
                failure = ("timed out after %.0f s" % JOB_TIMEOUT_S
                           if wait == JOB_TIMEOUT_S else "stopped at the run deadline")
                break
            if line is None:
                break
            msg = json.loads(line)
            if msg.get("done"):
                final = msg
            else:
                results.append(msg)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join()
    if failure is None and final is None:
        failure = "worker exited with code %d" % proc.returncode
    return results, final, failure


def summary(samples: list[float]) -> str:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    n = len(samples)
    text = "median %.6g (n=%d" % (statistics.median(samples), n)
    if n >= 11:
        ranked = sorted(samples)
        text += ", p%.0f %.6g" % (100.0 * (n - 10) / n, ranked[n - 11])
    return text + ")"


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "stablekneser", "__init__.py")):
        print("no stablekneser source tree under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    specs = load_metric_specs()
    expected = J.load_expected()
    jobs = J.workload_jobs(args.workload, args.seed)
    orders = J.pass_orders(jobs, args.seed)

    time_import()   # warm-up: the first import in a checkout compiles bytecode
    setup: list[tuple[float, float]] = []   # (wall, rescaled) per import
    attempted = failed = 0
    untraced, traced = [], []   # one entry per complete pass, see below
    versions = {}
    t_start = time.perf_counter()
    pass_walls: list[float] = []
    # Start another pass while the run so far plus a typical pass fits in
    # --seconds; the first (and, traced, the second) pass always runs unless
    # the run deadline has passed.
    while time.perf_counter() < deadline and (
            len(pass_walls) < (2 if args.trace else 1)
            or time.perf_counter() - t_start + statistics.median(pass_walls) <= args.seconds):
        tracing = bool(args.trace) and len(pass_walls) % 2 == 1
        t_pass = time.perf_counter()
        setup += [time_import() for _ in range(SETUP_REPS)]
        ordered = [jobs[i] for i in next(orders)]
        results, final, failure = run_pass(ordered, tracing, deadline)
        pass_walls.append(time.perf_counter() - t_pass)
        wall = dict.fromkeys(J.KINDS, 0.0)     # seconds per job kind
        kinds = dict.fromkeys(J.KINDS, 0.0)    # the same, rescaled
        bad = 0
        for msg in results:
            job = ordered[msg["job"]]
            errors = [msg["error"]] if "error" in msg else \
                J.check_job(job, msg["status"], msg["out"], expected)
            if errors:
                bad += 1
                print("FAILED %s: %s" % (J.job_key(job), "; ".join(errors)),
                      file=sys.stderr)
            wall[J.kind(job)] += msg["seconds"]
            kinds[J.kind(job)] += scaled(msg["seconds"], msg["probe_s"])
        attempted += len(results)
        if failure is not None:
            bad += 1
            where = "pass"
            if len(results) < len(ordered):   # the job in flight failed
                attempted += 1
                where = J.job_key(ordered[len(results)])
            print("FAILED %s: %s" % (where, failure), file=sys.stderr)
        failed += bad
        if bad or len(results) != len(ordered):
            continue
        versions = {"python": final["python"], "numpy": final["numpy"]}
        sample = {"batch": sum(kinds.values()), "kinds": kinds,
                  "batch_wall": sum(wall.values()), "kinds_wall": wall,
                  "final": final, "jobs": [J.job_key(j) for j in ordered]}
        (traced if tracing else untraced).append(sample)

    measured_s = time.perf_counter() - t_start
    metrics, lines = {}, []
    complete = bool(untraced) and (bool(traced) or not args.trace)
    if complete:
        if args.trace:
            metrics = layer_metrics(specs["per_layer"], untraced, traced)
            write_trace(args, traced)
            lines = ["%s: %r %s" % (k, v["value"], v["unit"]) for k, v in metrics.items()]
        else:
            metrics, lines = end_to_end_metrics(specs["end_to_end"], untraced, setup)
    lines.append("failed_ratio: %.6g (%d failed of %d jobs attempted)"
                 % (failed / max(attempted, 1), failed, attempted))
    for line in lines:
        print(line)
    print(json.dumps({"provenance": {
        "workload": args.workload, "why": specs["why"][args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "measured_s": measured_s, "jobs_per_pass": len(jobs),
        "passes_untraced": len(untraced), "passes_traced": len(traced),
        "batch_s_samples": [p["batch"] for p in untraced],
        "batch_wall_s_samples": [p["batch_wall"] for p in untraced],
        "setup_s_samples": [s for _, s in setup],
        "setup_wall_s_samples": [w for w, _ in setup], "job_timeout_s": JOB_TIMEOUT_S,
        "nproc": os.cpu_count(), "python": versions.get("python"),
        "numpy": versions.get("numpy"),
        "load": "closed loop, one client, one job at a time"}}))
    print(json.dumps({"correct": complete and failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


def end_to_end_metrics(spec: list, passes: list, setup: list) -> tuple[dict, list]:
    samples = {
        "batch_s": [p["batch"] for p in passes],
        "setup_s": [s for _, s in setup],
        "peak_rss_mb": [p["final"]["maxrss_kb"] / 1024.0 for p in passes],
    }
    walls = {"batch_s": [p["batch_wall"] for p in passes],
             "setup_s": [w for w, _ in setup]}
    for kind in J.KINDS:
        if any(p["kinds"][kind] for p in passes):
            samples[kind + "_s"] = [p["kinds"][kind] for p in passes]
            walls[kind + "_s"] = [p["kinds_wall"][kind] for p in passes]
    metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]),
                           "unit": m["unit"]} for m in spec}
    units = {m["name"]: m["unit"] for m in spec}
    lines = []
    for name, values in samples.items():
        line = "%s: %s %s" % (name, summary(values), units.get(name, "s"))
        if name in walls:
            line += "; wall clock %s s" % summary(walls[name])
        lines.append(line)
    return metrics, lines


def layer_value(name: str, untraced: list, trace: dict) -> float:
    if name.startswith("kind."):
        return statistics.median(p["kinds"][name[5:-2]] for p in untraced)
    base, _, suffix = name.rpartition("_")
    if base in SPAN_NAMES and suffix in ("s", "calls"):
        span = trace["spans"].get(base, {})
        return span.get("self_s", 0.0) if suffix == "s" else span.get("calls", 0)
    return trace["counters"].get(name, 0)


def layer_metrics(spec: list, untraced: list, traced: list) -> dict:
    plain = statistics.median(p["batch"] for p in untraced)
    with_trace = statistics.median(p["batch"] for p in traced)
    overhead = {"trace.batch_untraced_s": plain, "trace.batch_traced_s": with_trace,
                "trace.overhead_ratio": with_trace / plain}
    metrics = {}
    for m in spec:
        name = m["name"]
        if name in overhead:
            value = overhead[name]
        else:
            value = statistics.median(
                layer_value(name, untraced, p["final"]["trace"]) for p in traced)
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def write_trace(args, traced: list) -> None:
    """The reduced spans of each traced pass, for reading after the run."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "passes": [dict(p["final"]["trace"], jobs=p["jobs"])
                              for p in traced]}, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
