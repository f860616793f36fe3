"""The benchmark's jobs: chainflow command lines, grouped into workloads.

A job is a ``chainflow`` argument list without ``--out``; its id is the
argument list joined by spaces, with the input file named relative to the
benchmark directory.  Inputs are fixed algebra.  Seeded random ideals were
tried as inputs and rejected: some did not finish within ten minutes, so
they cannot give steady runs.  The seed only orders the ``sweep`` jobs.
"""

from __future__ import annotations

import os
import random

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(BENCH_DIR, "inputs")

# Per-job time limits, in seconds.  The heavy jobs take 3-11 s on a 2-core
# x86-64 host; each sweep job takes under 1 s.
HEAVY_LIMIT_S = 60.0
SWEEP_LIMIT_S = 20.0


def _sweep():
    jobs = []
    for start in ("lcm", "taylor"):
        for mode in ("mp", "matroidal"):
            jobs.append(f"resolve --fixture cycle3 --char 0 --start {start} "
                        f"--mode {mode}")
    jobs.append("resolve --fixture cycle3 --char 2 --start taylor")
    for p in (5, 7):
        for start in ("lcm", "taylor"):
            jobs.append(f"resolve --fixture cycle3 --char {p} --start {start}")
    for mode in ("mp", "matroidal"):
        jobs.append(f"resolve --fixture cycle2 --char 0 --start lcm "
                    f"--mode {mode}")
    jobs.append("resolve --fixture cycle2 --char 0 --start taylor --mode mp")
    for p in (3, 5, 7):
        jobs.append(f"resolve --fixture cycle2 --char {p} --start lcm")
    for p in (0, 2, 3):
        jobs.append(f"toric-resolve --fixture semigroup23 --char {p}")
    for p in (2, 3, 5):
        jobs.append(f"counterexample --prime {p}")
    for fixture in ("cycle3", "cycle2"):
        jobs.append(f"lattice --fixture {fixture}")
        jobs.append(f"matroidal --fixture {fixture} --start taylor")
    return [(job, SWEEP_LIMIT_S) for job in jobs]


WORKLOADS = {
    # The paper's critical case: F_3(y) of transcendence degree 17, 1 MB
    # artifact; function-field arithmetic and serialization dominate.
    "critical-taylor": [
        ("resolve --fixture cycle3 --char 3 --start taylor", HEAVY_LIMIT_S)],
    # 6960 matroidal choices on the top stratum over F_7; enumeration, rref
    # and affine combination over a prime field, no extension field.
    "matroidal-fp": [
        ("resolve --fixture cycle2 --char 7 --start taylor", HEAVY_LIMIT_S)],
    # I(11) over Q with the lcm start in Moore-Penrose mode: Fraction
    # arithmetic, pseudoinverses and polynomial matmul, no matroidal average.
    "rational-lcm": [("resolve --in inputs/cycle11.json", HEAVY_LIMIT_S)],
    # About 30 sub-second jobs in one interpreter: every layer runs, the
    # heavy kernels barely do.
    "sweep": _sweep(),
}

# Known-infeasible cases, kept out of the gated workloads; ``frontier.py``
# measures them and records the result in ``frontier.json``.
FRONTIER = [
    ("resolve --fixture cycle3 --char 3 --start lcm", 120.0),
    ("counterexample --prime 7 --check obstruction", 170.0),
]


def jobs_for(workload: str, seed: int) -> list:
    """(job id, time limit) pairs of a workload, in seed order."""
    jobs = list(WORKLOADS[workload])
    random.Random(seed).shuffle(jobs)
    return jobs


def job_argv(job_id: str, out_path: str) -> list:
    """The chainflow argument list of a job, writing its artifact to
    ``out_path``."""
    argv = job_id.split()
    if "--in" in argv:
        i = argv.index("--in") + 1
        argv[i] = os.path.join(BENCH_DIR, argv[i])
    return argv + ["--out", out_path]
