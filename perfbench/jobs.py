"""Workload job lists and the answer checks applied to every job's output.

A job is either a CLI argv (run through ``cli.run``) or an equivariance
instance ``["equivariance", n, k]`` (run through
``complexes.check_equivariance_combinatorial``).  Nothing here imports
stablekneser: the checks are independent oracles plus a comparison against
outputs recorded in ``expected.json``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import os
import random

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")

# The realization sampler seeds a workload seed may pick for a matroid job;
# expected.json holds the recorded output for each of them.
MATROID_SEEDS = (0, 1, 2, 3)

FLOAT_TOL = 1e-9
ZERO_TOL = 1e-9   # the default --zero-tol of the geometry subcommand


def _topology() -> list[list]:
    jobs = [["homology", "--n", str(n), "--k", str(k)]
            for n, k in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1),
                         (4, 1), (1, 4))]
    jobs += [["graph", "--n", str(n), "--k", str(k), "--chromatic", "--critical"]
             for n, k in ((2, 2), (3, 2), (4, 2), (5, 2), (3, 3), (2, 4))]
    return jobs


def _symmetry() -> list[list]:
    jobs: list[list] = [["equivariance", n, k] for n, k in ((3, 3), (1, 7), (4, 3))]
    for m, k, samples in ((8, 4, None), (12, 4, None), (14, 6, 20000)):
        argv = ["matroid", "--m", str(m), "--k", str(k)]
        if samples is not None:
            argv += ["--samples", str(samples)]
        jobs.append(argv)
    jobs.append(["geometry", "--k", "2", "--sweep", "--n-range", "2..28"])
    return jobs


def _classify() -> list[list]:
    jobs = [["classify", "--k", str(k), "--n-range", "1..8", "--max-degree", "64"]
            for k in range(13)]
    jobs += [["classify", "--n", str(n), "--k", str(k), "--max-degree", str(d)]
             for n, k, d in ((3, 5, 1024), (10, 4, 256), (3, 8, 192))]
    return jobs


WORKLOADS = {
    "topology": _topology,
    "symmetry": _symmetry,
    "classify": _classify,
}

KINDS = ("homology", "graph", "equivariance", "matroid", "geometry", "classify")


def kind(job: list) -> str:
    return job[0]


def job_key(job: list) -> str:
    return " ".join(str(a) for a in job)


def workload_jobs(name: str, seed: int) -> list[list]:
    """The job list of a workload; the seed picks the matroid sampler seeds."""
    rng = random.Random(seed)
    jobs = []
    for job in WORKLOADS[name]():
        if job[0] == "matroid":
            job = job + ["--seed", str(rng.choice(MATROID_SEEDS))]
        jobs.append(job)
    return jobs


def pass_orders(jobs: list, seed: int):
    """Endless stream of job orders, one shuffled order per pass."""
    rng = random.Random(seed ^ 0x5EED)
    while True:
        order = list(range(len(jobs)))
        rng.shuffle(order)
        yield order


def all_recorded_jobs() -> list[list]:
    """Every job variant any seed can produce, for recording expected.json."""
    out = []
    for build in WORKLOADS.values():
        for job in build():
            if job[0] == "matroid":
                out += [job + ["--seed", str(s)] for s in MATROID_SEEDS]
            else:
                out.append(job)
    return out


# ---------------------------------------------------------------------------
# canonical form: structure digest plus the floats, compared within FLOAT_TOL


def parse_output(job: list, text: str):
    if job[0] == "geometry":
        rows = list(csv.reader(io.StringIO(text)))
        return [rows[0]] + [[_number(v) for v in row] for row in rows[1:]]
    return json.loads(text)


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def canonical(doc) -> dict:
    floats: list[float] = []

    def strip(x):
        if isinstance(x, float):
            floats.append(x)
            return "<float>"
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items()}
        if isinstance(x, list):
            return [strip(v) for v in x]
        return x

    shape = json.dumps(strip(doc), sort_keys=True, separators=(",", ":"))
    return {"sha256": hashlib.sha256(shape.encode()).hexdigest(),
            "floats": floats}


def matches_recorded(doc, recorded: dict) -> bool:
    got = canonical(doc)
    if got["sha256"] != recorded["sha256"]:
        return False
    if len(got["floats"]) != len(recorded["floats"]):
        return False
    return all(math.isclose(a, b, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL)
               for a, b in zip(got["floats"], recorded["floats"]))


# ---------------------------------------------------------------------------
# independent oracles


def _arg(job: list, flag: str, default=None):
    return int(job[job.index(flag) + 1]) if flag in job else default


def _stable_sets(n: int, m: int) -> list[int]:
    """Stable n-subsets of Z_m as bitmasks, in lexicographic member order."""
    out = []
    for c in itertools.combinations(range(m), n):
        if all((b - a) % m not in (1, m - 1) for a, b in itertools.combinations(c, 2)):
            out.append(sum(1 << j for j in c))
    return out


def check_homology(job: list, doc: dict) -> list[str]:
    k = _arg(job, "--k")
    sphere = [1] + [0] * (k - 1) + [1]
    errors = []
    if doc["hom_betti"] != sphere:
        errors.append("Hom(K_2, SG) Betti numbers %s are not those of S^%d"
                      % (doc["hom_betti"], k))
    if doc["neighbourhood_betti"] != sphere:
        errors.append("N(SG) Betti numbers %s are not those of S^%d"
                      % (doc["neighbourhood_betti"], k))
    return errors


def check_graph(job: list, doc: dict) -> list[str]:
    n, k = _arg(job, "--n"), _arg(job, "--k")
    masks = _stable_sets(n, 2 * n + k)
    edges = [(i, j) for i, j in itertools.combinations(range(len(masks)), 2)
             if masks[i] & masks[j] == 0]
    errors = []
    if doc["vertex_count"] != len(masks) or doc["edge_count"] != len(edges):
        errors.append("SG_{%d,%d} has %d vertices and %d edges, report says %d and %d"
                      % (n, k, len(masks), len(edges), doc["vertex_count"],
                         doc["edge_count"]))
    if doc.get("chi") != k + 2:
        errors.append("chi = %s, Schrijver gives %d" % (doc.get("chi"), k + 2))
    witness = doc.get("chi_witness") or []
    if (len(witness) != len(masks) or len(set(witness)) != k + 2
            or any(witness[i] == witness[j] for i, j in edges)):
        errors.append("chi_witness is not a proper %d-colouring" % (k + 2))
    if doc.get("critical") is not True:
        errors.append("SG_{%d,%d} reported not vertex-critical" % (n, k))
    return errors


def check_matroid(job: list, doc: dict) -> list[str]:
    m, k = _arg(job, "--m"), _arg(job, "--k")
    errors = []
    if doc["cocircuits"] != 2 * math.comb(m, k):
        errors.append("%d cocircuits, expected 2*C(%d,%d)" % (doc["cocircuits"], m, k))
    if doc["realization"].get("status") != "pass":
        errors.append("realization status %r" % doc["realization"].get("status"))
    return errors


def check_geometry(job: list, rows: list) -> list[str]:
    header, body = rows[0], rows[1:]
    errors = []
    devs = [c for c in header if c.endswith("_dev")]
    for row in body:
        values = dict(zip(header, row))
        worst = max(values[c] for c in devs)
        if not worst < ZERO_TOL:
            errors.append("n=%d: deviation %r >= %g" % (values["n"], worst, ZERO_TOL))
    norms = [dict(zip(header, row))["min_vertex_norm"] for row in body]
    if any(b <= a for a, b in zip(norms, norms[1:])):
        errors.append("min_vertex_norm is not strictly increasing in n")
    return errors


def check_equivariance(job: list, doc: dict) -> list[str]:
    if doc["violations"]:
        return ["%d equivariance violations, first %s"
                % (len(doc["violations"]), doc["violations"][0])]
    return []


def _kummer_vanishing(k: int, max_degree: int) -> list[int]:
    """For odd k, wbar = (1+a)^-(r+1) and wbar_d = C(r+d, d) mod 2 = [r & d == 0]."""
    r = (k - 1) // 2
    return [d for d in range(1, max_degree + 1) if r & d]


def check_classify(job: list, doc: dict) -> list[str]:
    errors = []
    for row in doc["reports"]:
        n, k = row["n"], row["k"]
        if k % 2 == 1:
            want = _kummer_vanishing(k, doc["max_degree"])
            if row["wbar_vanishing_degrees"] != want:
                errors.append("(n,k)=(%d,%d): wbar vanishing degrees differ from "
                              "the Kummer closed form" % (n, k))
        certified = k in (1, 2) or (k == 4 and n % 2 == 0)
        if certified and row["verdict"] != "TEST_GRAPH_CERTIFIED":
            errors.append("(n,k)=(%d,%d): verdict %s, published verdict is certified"
                          % (n, k, row["verdict"]))
        if k == 4 and n % 2 == 0 and row["certificate"] != "j":
            errors.append("(n,k)=(%d,%d): certificate %r, expected 'j'"
                          % (n, k, row["certificate"]))
    return errors


ORACLES = {
    "homology": check_homology,
    "graph": check_graph,
    "matroid": check_matroid,
    "geometry": check_geometry,
    "equivariance": check_equivariance,
    "classify": check_classify,
}


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def check_job(job: list, status: int, text: str, expected: dict) -> list[str]:
    """Every reason the job's answer is wrong; empty when it is right."""
    if status != 0:
        return ["exit status %d" % status]
    try:
        doc = parse_output(job, text)
    except (ValueError, IndexError) as exc:
        return ["unparsable output: %s" % exc]
    try:
        errors = ORACLES[kind(job)](job, doc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        errors = ["malformed report: %r" % exc]
    recorded = expected.get(job_key(job))
    if recorded is None:
        errors.append("no recorded output for %r" % job_key(job))
    elif not matches_recorded(doc, recorded):
        errors.append("output differs from the recorded output")
    return errors
