"""Record the reference sha256 of every benchmark job's artifact.

    python3 bench/record.py

Runs each workload's jobs once untraced and once traced, checks that both
runs wrote the same bytes, and rewrites ``reference.json``.  Run it only on
a commit whose artifacts are known to be right: every later benchmark run
fails a job whose artifact differs from the recorded digest.
"""

from __future__ import annotations

import json
import os
import sys
import time

import run
import workloads


def main() -> int:
    reference = {}
    problems = []
    with run.work_dir(f"record-{os.getpid()}") as out_dir:
        for name in sorted(workloads.WORKLOADS):
            jobs = workloads.jobs_for(name, 0)
            cap = time.monotonic() + 600.0
            plain = run.run_pass(jobs, False, out_dir, cap)
            traced = run.run_pass(jobs, True, out_dir, cap)
            for job, status, digest, tdigest in zip(
                    plain["jobs"], plain["statuses"], plain["digests"],
                    traced["digests"]):
                if status != "ok":
                    problems.append(f"{job}: {status}")
                elif digest != tdigest:
                    problems.append(f"{job}: tracing changed the artifact")
                else:
                    reference[job] = digest
            print(f"{name}: {len(jobs)} job(s) recorded", file=sys.stderr)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(run.REFERENCE, "w") as fh:
        json.dump(dict(sorted(reference.items())), fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
