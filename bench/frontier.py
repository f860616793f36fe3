"""Measure the known-infeasible cases and record them in ``frontier.json``.

    python3 bench/frontier.py

These jobs stay out of the gated workloads because they do not finish, or
take minutes, at this commit.  Each runs once in a fresh interpreter under
its time limit; its status (``ok``, ``timeout``, ``exit-N``) and elapsed
seconds are written down so that a later change can show it moved the
frontier.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

import run
import workloads

FRONTIER_FILE = os.path.join(workloads.BENCH_DIR, "frontier.json")


def main() -> int:
    notes = []
    with run.work_dir(f"frontier-{os.getpid()}") as out_dir:
        for job, limit in workloads.FRONTIER:
            t0 = time.monotonic()
            p = run.run_pass([(job, limit)], False, out_dir, t0 + limit + 60)
            notes.append({
                "job": job,
                "limit_s": limit,
                "status": p["statuses"][0],
                "elapsed_s": round(time.monotonic() - t0, 1),
                "peak_rss_mb": round(p["rss_mb"], 1),
            })
            print(json.dumps(notes[-1]), file=sys.stderr)
    doc = {
        "host": f"{platform.machine()}, {os.cpu_count()} cores, "
                f"Python {platform.python_version()}",
        "host_ref_loop_s": round(run.host_reference(), 3),
        "cases": notes,
    }
    with open(FRONTIER_FILE, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
