"""Record the reference output of every job variant into expected.json.

Run from the root of a source checkout at the commit whose answers are the
reference:  python3 perfbench/record.py
The oracles in jobs.py are applied first; a job that fails them is not
recorded and the script exits nonzero.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs as J  # noqa: E402
from run import run_pass  # noqa: E402


def main() -> int:
    todo = J.all_recorded_jobs()
    results, final, failure = run_pass(todo, trace=False, deadline=float("inf"))
    if failure is not None:
        print("recording stopped: %s" % failure, file=sys.stderr)
        return 1
    recorded, bad = {}, 0
    for msg in results:
        job = todo[msg["job"]]
        errors = [msg["error"]] if "error" in msg else \
            J.ORACLES[J.kind(job)](job, J.parse_output(job, msg["out"]))
        if errors or msg.get("status"):
            bad += 1
            print("not recorded %s: %s" % (J.job_key(job), errors), file=sys.stderr)
            continue
        recorded[J.job_key(job)] = J.canonical(J.parse_output(job, msg["out"]))
    with open(J.EXPECTED_PATH, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded %d jobs (python %s, numpy %s)"
          % (len(recorded), final["python"], final["numpy"]))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
