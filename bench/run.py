"""chainflow benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src``).  A run repeats *passes* until ``--seconds`` have gone by.  A pass
is a fresh interpreter that imports chainflow and runs the workload's jobs
through ``chainflow.cli.main`` on one thread; every artifact it writes is
checked against its recorded sha256 in ``reference.json``, and resolve
reports must say ``minimal`` and ``exact``.  Each job has a time limit: a
job past it is killed and recorded as ``timeout``.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json,
as medians over passes.  Times are read in the pass on ``hostclock``'s
host-speed clock, which discounts the stretches when a shared host runs the
pass at reduced speed.  With ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics: self time and calls of every span
in ``tracer.SPANS``, the counts, the tracing overhead, the share of the
traced wall time that the top-level spans cover, and the unscaled times.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a summary for people goes to
stderr.  See README.md for the workloads and what each metric should show.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracer
import workloads

BENCH_DIR = workloads.BENCH_DIR
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
WORK = os.path.join(ROOT, ".bench_work")

RUN_CAP_S = 160.0        # hard stop for a run, whatever --seconds says
READY_LIMIT_S = 30.0     # interpreter start plus import
SETUP_PROBES = 5
MIN_COVERAGE = 0.9       # top-level spans / traced wall time
REF_LOOP_STEPS = 2_000_000

END_TO_END = {
    "wall_scaled_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "ratio",
}


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for _, _, name, _ in tracer.SPANS:
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
    for name in tracer.COUNTS:
        units[name] = "count"
    units["splittings.enumerations_per_stratum"] = "ratio"
    units["cyclefam.obstruction_hit_ratio"] = "ratio"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.coverage"] = "ratio"
    units["trace.hook_s"] = "s"
    units["host.ref_loop_s"] = "s"
    units["host.slowdown"] = "ratio"
    units["run.wall_s"] = "s"
    units["run.cpu_s"] = "s"
    units["run.setup_unscaled_s"] = "s"
    return units


def host_reference() -> float:
    """Seconds for a fixed pure-Python loop: host drift, not gated."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP_STEPS):
        acc += i & 7
    return time.perf_counter() - t0


@contextlib.contextmanager
def work_dir(tag: str):
    """A scratch directory for artifacts under the checkout, removed after."""
    path = os.path.join(WORK, tag)
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def _check_artifact(path: str, expected):
    """(status, sha256) of the artifact of a job that exited 0; the status
    is ``ok`` or why the artifact fails."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return "missing-artifact", None
    digest = hashlib.sha256(data).hexdigest()
    try:
        verification = json.loads(data).get("report", {}).get("verification")
    except ValueError:
        return "invalid-artifact", digest
    if verification is not None and not (verification["minimal"]
                                         and verification["exact"]):
        return "unverified", digest
    if expected is not None and digest != expected:
        return "mismatch", digest
    return "ok", digest


class _Events:
    """Line-delimited JSON events from a child's stdout, read with a
    deadline."""

    def __init__(self, stream):
        self.fd = stream.fileno()
        self.buf = b""
        self.eof = False

    def next(self, deadline: float):
        """The next event, ``None`` at end of stream, or ``"timeout"``."""
        while b"\n" not in self.buf:
            if self.eof:
                return None
            wait = deadline - time.monotonic()
            if wait <= 0 or not select.select([self.fd], [], [], wait)[0]:
                return "timeout"
            chunk = os.read(self.fd, 1 << 16)
            if chunk:
                self.buf += chunk
            else:
                self.eof = True
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)


def run_pass(jobs, traced: bool, out_dir: str, cap_t: float,
             reference=None) -> dict:
    """Run ``jobs`` ((id, time limit) pairs) in one fresh interpreter.

    With ``reference`` (job id -> sha256) every artifact must match it; a
    job missing from it fails.  Returns the per-job statuses and digests and
    the pass's timings; ``wall_s`` runs from the end of the import to the
    last artifact written, and ``wall_n`` and ``setup_n`` are read on the
    child's host-speed clock (``hostclock.py``).
    """
    paths = [os.path.join(out_dir, f"job{k}.json") for k in range(len(jobs))]
    argvs = [workloads.job_argv(job, path)
             for (job, _), path in zip(jobs, paths)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    with open(os.path.join(out_dir, "stderr.txt"), "ab") as err:
        spawn_t = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, repr(spawn_t), "1" if traced else "0",
             json.dumps(argvs)],
            stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
    events = _Events(proc.stdout)
    codes = []
    ready = end = None
    killed = False
    deadline = spawn_t + READY_LIMIT_S
    try:
        while end is None:
            ev = events.next(min(deadline, cap_t))
            if ev is None:
                break
            if ev == "timeout":
                proc.kill()
                killed = True
                break
            if ev["event"] == "ready":
                ready = ev
            elif ev["event"] == "job":
                codes.append(ev["code"])
            else:
                end = ev
            if end is None:
                deadline = ev["t"] + (jobs[len(codes)][1]
                                      if len(codes) < len(jobs)
                                      else READY_LIMIT_S)
    finally:
        if proc.returncode is None and not killed and end is None:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        stop_t = time.monotonic()

    statuses, digests = [], []
    for k, (job, _) in enumerate(jobs):
        digest = None
        if k < len(codes):
            if codes[k] != 0:
                status = f"exit-{codes[k]}"
            elif reference is not None and job not in reference:
                status = "unreferenced"
            else:
                expected = reference[job] if reference is not None else None
                status, digest = _check_artifact(paths[k], expected)
        elif k == len(codes):
            status = "timeout" if killed else "crash"
        else:
            status = "skipped"
        statuses.append(status)
        digests.append(digest)
    for path in paths:
        if os.path.exists(path):
            os.remove(path)
    done_t = end["t"] if end is not None else stop_t
    return {
        "jobs": [job for job, _ in jobs],
        "statuses": statuses,
        "digests": digests,
        "complete": end is not None,
        "setup_s": ready["setup_s"] if ready is not None else None,
        "setup_n": ready["setup_n"] if ready is not None else None,
        "wall_s": done_t - ready["t"] if ready is not None else None,
        "wall_n": end["n"] - ready["n"] if end is not None else None,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "trace": end["trace"] if end is not None else None,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(traced: list, untraced: list, ref_loop: float) -> dict:
    """Per-layer metrics from traced passes: medians of self times, counts
    from the first traced pass."""
    units = per_layer_units()
    out = {}
    first = traced[0]["trace"]
    names = {name for _, _, name, _ in tracer.SPANS}
    for name in names:
        out[f"{name}.s"] = _median([p["trace"]["spans"][name][0]
                                    for p in traced])
        out[f"{name}.calls"] = first["spans"][name][1]
    out.update(first["counts"])
    strata = (first["counts"]["monomial.occupied_strata"]
              + first["counts"]["toric.occupied_strata"])
    enumerations = (first["spans"]["splittings.matroidal_count"][1]
                    + first["spans"]["splittings.enumerate_matroidal"][1])
    out["splittings.enumerations_per_stratum"] = (
        enumerations / strata if strata else 0.0)
    searched = first["counts"]["cyclefam.tuples_searched"]
    out["cyclefam.obstruction_hit_ratio"] = (
        first["counts"]["cyclefam.chain_map_tuples"] / searched
        if searched else 0.0)
    traced_wall = _median([p["wall_n"] for p in traced])
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - _median(
        [p["wall_n"] for p in untraced])
    out["trace.coverage"] = _median(
        [p["trace"]["top_s"] / p["wall_s"] for p in traced])
    out["trace.hook_s"] = _median([p["trace"]["hook_s"] for p in traced])
    out["host.ref_loop_s"] = ref_loop
    wall = _median([p["wall_s"] for p in untraced])
    out["host.slowdown"] = wall / _median([p["wall_n"] for p in untraced])
    out["run.wall_s"] = wall
    out["run.cpu_s"] = _median([p["cpu_s"] for p in untraced])
    out["run.setup_unscaled_s"] = _median([p["setup_s"] for p in untraced])
    return {k: {"value": out[k], "unit": units[k]} for k in units}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs = workloads.jobs_for(workload, seed)
    reference = load_reference()
    with work_dir(str(os.getpid())) as out_dir:
        return _measure(jobs, reference, out_dir, seconds, trace)


def _measure(jobs, reference, out_dir, seconds, trace) -> dict:
    start = time.monotonic()
    stop, cap = start + seconds, start + RUN_CAP_S
    setups, ref_loops = [], []

    def probe():
        p = run_pass([], False, out_dir, cap)
        if p["setup_s"] is None:
            sys.exit("benchmark set-up failed: chainflow could not be "
                     "imported from " + SRC)
        setups.append(p["setup_n"])

    # Passes run back to back; the next one starts only if it is expected
    # to end inside the window, so every run takes about ``seconds``.
    untraced, traced, steps = [], [], []
    while time.monotonic() < cap:
        t0 = time.monotonic()
        ref_loops.append(host_reference())
        use_trace = trace and len(traced) < len(untraced)
        if not use_trace:
            probe()
        p = run_pass(jobs, use_trace, out_dir, cap, reference)
        (traced if use_trace else untraced).append(p)
        steps.append(time.monotonic() - t0)
        if (time.monotonic() + statistics.median(steps) > stop
                and (traced or not trace)):
            break
    while len(setups) < SETUP_PROBES and time.monotonic() < cap:
        probe()

    passes = untraced + traced
    statuses = [s for p in passes for s in p["statuses"]]
    attempted = sum(s != "skipped" for s in statuses)
    failed = sum(s not in ("ok", "skipped") for s in statuses)
    complete = [p for p in untraced if p["complete"]]
    setups += [p["setup_n"] for p in untraced if p["setup_n"] is not None]
    ref_loop = statistics.median(ref_loops)
    summary = {
        "passes": len(untraced),
        "traced_passes": len(traced),
        "host_ref_loop_s": [round(r, 4) for r in ref_loops],
        "wall_s": [round(p["wall_s"] or 0.0, 4) for p in untraced],
        "wall_scaled_s": [round(p["wall_n"] or 0.0, 4) for p in untraced],
        "failures": sorted({f"{j}: {s}" for p in passes
                            for j, s in zip(p["jobs"], p["statuses"])
                            if s != "ok"}),
    }
    if summary["failures"]:
        with open(os.path.join(out_dir, "stderr.txt"), errors="replace") as fh:
            summary["stderr_tail"] = fh.read().splitlines()[-20:]
    correct = failed == 0 and all(p["complete"] for p in passes)
    done = [p for p in traced if p["complete"]]
    if not complete or (trace and not done):
        return {"correct": False, "attempted": max(attempted, 1),
                "failed": max(failed, 1), "metrics": {}, "summary": summary}
    if trace:
        metrics = layer_metrics(done, complete, ref_loop)
        coverage = metrics["trace.coverage"]["value"]
        summary["coverage"] = round(coverage, 4)
        # Counts and calls come from return values: they must repeat.
        repeat = all(
            p["trace"]["counts"] == done[0]["trace"]["counts"]
            and all(p["trace"]["spans"][k][1] == v[1]
                    for k, v in done[0]["trace"]["spans"].items())
            for p in done)
        summary["counts_repeat"] = repeat
        correct = correct and coverage >= MIN_COVERAGE and repeat
    else:
        metrics = {
            "wall_scaled_s": _median([p["wall_n"] for p in complete]),
            "peak_rss_mb": _median([p["rss_mb"] for p in complete]),
            "setup_s": _median(setups),
            "success_rate": (attempted - failed) / attempted
            if attempted else 0.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in metrics.items()}
    return {"correct": correct, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics, "summary": summary}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit so that a running pass is killed and
    # reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "chainflow")):
        sys.exit(f"no chainflow sources under {SRC}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    summary = result.pop("summary")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, **summary}), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
