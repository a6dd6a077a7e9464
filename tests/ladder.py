"""The ladder: the paper's large instances, each rung in a fresh interpreter.

Run from the repository root:

    PYTHONPATH=src python tests/ladder.py

The parent runs each rung of RUNGS as `python tests/ladder.py <rung as
JSON>`, under the rung's timeout, and echoes the one JSON record the child
prints: the rung's name and argv, its exit status (and for equivariance the
violation count), its wall time, the seconds the child's import of
stablekneser took (numpy is already loaded then), ru_maxrss right after
that import and its peak ru_maxrss.  It stops with exit code 1 at the
first rung that exits nonzero, reports a violation or times out, and names
that rung on stderr.  Its last stdout line is one JSON document: the Python
and numpy versions, the CPU count, the repeat count and every record.
"""

import json
import os
import platform
import resource
import subprocess
import sys
import time

import numpy

_import_t0 = time.perf_counter()
from stablekneser import cli, complexes  # noqa: E402
IMPORT_S = round(time.perf_counter() - _import_t0, 4)

EQUIVARIANCE = "equivariance"

# (name, timeout in s, argv or list of argvs); a CLI argv runs through
# cli.main with --out /dev/null, ["equivariance", n, k] through
# check_equivariance_combinatorial.  Figures: four runs of the ladder on
# 2 CPUs, Python 3.11.7, numpy 2.4.6, wall time of the calls (interpreter
# start excluded) / peak RSS; RSS after the imports is 30.2 MB in each rung.
RUNGS = [
    # C^{13,12}, 1,577,940 covectors, both group actions and negation;
    # 0.31-0.61 s / 129 MB
    ("equivariance", 60, [EQUIVARIANCE, "1", "11"]),
    # up to 65,892 stable sets, one row of members each, at n = 14; 0.68-0.81 s / 60 MB
    ("geometry", 120, ["geometry", "--k", "6", "--sweep", "--n-range", "2..14"]),
    # 65 sweeps of series arithmetic at degree 1024, stopping at the first
    # nonzero exit; 0.82-1.08 s / 34 MB
    ("classify", 120, [["classify", "--k", str(k), "--n-range", "1..64",
                        "--max-degree", "1024"] for k in range(65)]),
    # 125,970 cocircuits whose 62,985 ± pairs each get their point from a
    # product of sines; 0.25-0.30 s / 78 MB
    ("realization", 120, ["matroid", "--m", "20", "--k", "8", "--samples", "0"]),
    # 245 sample blocks tallied into 1,043 sorted keys, checked against the
    # covector rule in one array call; 0.14-0.20 s / 38 MB
    ("sampler-12", 120, ["matroid", "--m", "12", "--k", "4", "--samples", "1000000"]),
    # two int64 words per sampled row, keyed by their 16 bytes;
    # 0.08-0.13 s / 46 MB
    ("sampler-70", 120, ["matroid", "--m", "70", "--k", "2", "--samples", "100000"]),
    # Hom(K_2, SG_{2,4}), 129,666 cells reduced from the top dimension down
    # with cleared rows, each row a set of faces; 0.47-0.79 s / 53 MB
    ("homology-2-4", 120, ["homology", "--n", "2", "--k", "4"]),
    # Hom(K_2, SG_{4,3}), 596,420 cells; 3.25-4.50 s / 147 MB
    ("homology-4-3", 120, ["homology", "--n", "4", "--k", "3"]),
    # SG_{7,2}, 64 vertices: one refutation of 3 colours, whose failing
    # leaves certify all four orbits, so no search per orbit;
    # 1.40-1.78 s / 30 MB, no growth over the imports
    ("graph-7-2", 120, ["graph", "--n", "7", "--k", "2", "--chromatic", "--critical"]),
    # SG_{4,3}, 55 vertices, chi = 5; 0.23-0.27 s / 30 MB
    ("graph-4-3", 120, ["graph", "--n", "4", "--k", "3", "--chromatic", "--critical"]),
    # SG_{3,4}, 50 vertices: greedy spends 7 colours on chi = 6, so the
    # witness comes from the search at 6 before the refutation of 5;
    # 0.15-0.20 s / 30 MB
    ("graph-3-4", 120, ["graph", "--n", "3", "--k", "4", "--chromatic", "--critical"]),
    # SG_{6,2}, 49 vertices, --critical alone: the check runs the
    # refutation itself and reads its orbits off it; 0.06-0.07 s / 30 MB
    ("graph-6-2-critical", 120, ["graph", "--n", "6", "--k", "2", "--critical"]),
]


def _rss_mb():
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def calls(argv):
    """The argvs of a rung: its one argv, or its list of argvs."""
    return argv if isinstance(argv[0], list) else [argv]


def run_rung(name, argv):
    """Run one rung in this process, after its imports, and return its record."""
    import_rss = _rss_mb()
    record = {"rung": name, "argv": argv}
    t0 = time.perf_counter()
    if argv[0] == EQUIVARIANCE:
        report = complexes.check_equivariance_combinatorial(int(argv[1]), int(argv[2]))
        record["violations"] = len(report["violations"])
        status = int(bool(report["violations"]))
    else:
        for call in calls(argv):
            status = cli.main(call + ["--out", os.devnull])
            if status:
                break
    record.update(exit=status, wall_s=round(time.perf_counter() - t0, 3),
                  import_s=IMPORT_S, import_rss_mb=import_rss, peak_rss_mb=_rss_mb())
    return record


def run_ladder(rungs):
    """Run each rung in its own interpreter; 0 if every rung passes, else 1."""
    records, status = [], 0
    for name, timeout, argv in rungs:
        record = {"rung": name, "argv": argv}
        try:
            done = subprocess.run([sys.executable, __file__, json.dumps([name, argv])],
                                  stdout=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            failure = "timed out after %g s" % timeout
        else:
            lines = done.stdout.splitlines()
            if lines:
                record = json.loads(lines[-1])
            failure = done.returncode and "exit %d" % done.returncode
        records.append(record)
        print(json.dumps(record), flush=True)
        if failure:
            print("ladder: rung %s failed: %s" % (name, failure), file=sys.stderr)
            status = 1
            break
    print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                      "cpus": os.cpu_count(), "repeats": 1, "rungs": records}))
    return status


if __name__ == "__main__":
    if len(sys.argv) == 2:
        record = run_rung(*json.loads(sys.argv[1]))
        print(json.dumps(record))
        sys.exit(record["exit"])
    sys.exit(run_ladder(RUNGS))
