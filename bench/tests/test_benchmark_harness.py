"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import json
import os
import re
import sys
import time

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import hostclock  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from chainflow.cyclefam import build_Ip  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
FAST_JOB = "lattice --fixture cycle3"


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_are_well_formed_and_match_the_harness():
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += list(run.per_layer_units())
    assert all(NAME.match(n) for n in names), [
        n for n in names if not NAME.match(n)]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.per_layer_units())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_cycle11_input_is_the_family_at_11():
    with open(os.path.join(workloads.INPUTS, "cycle11.json")) as fh:
        doc = json.load(fh)
    fam = build_Ip(11)
    assert doc["variables"] == list(fam.names)
    assert [tuple(g) for g in doc["generators"]] == fam.ideal.generators


def test_every_job_has_a_reference_digest():
    reference = run.load_reference()
    for jobs in workloads.WORKLOADS.values():
        for job, _ in jobs:
            assert re.fullmatch(r"[0-9a-f]{64}", reference[job])


def test_sweep_order_follows_the_seed():
    a = workloads.jobs_for("sweep", 1)
    assert a == workloads.jobs_for("sweep", 1)
    assert a != workloads.jobs_for("sweep", 2)
    assert sorted(a) == sorted(workloads.WORKLOADS["sweep"])


def test_tiny_limit_records_timeout(tmp_path):
    jobs = [("resolve --fixture cycle2 --char 7 --start taylor", 0.05),
            (FAST_JOB, 20.0)]
    t0 = time.monotonic()
    p = run.run_pass(jobs, False, str(tmp_path), t0 + 60,
                     run.load_reference())
    assert p["statuses"] == ["timeout", "skipped"]
    assert not p["complete"]
    assert time.monotonic() - t0 < 20


def test_wrong_digest_is_a_mismatch(tmp_path):
    p = run.run_pass([(FAST_JOB, 20.0)], False, str(tmp_path),
                     time.monotonic() + 60, {FAST_JOB: "0" * 64})
    assert p["statuses"] == ["mismatch"]
    p = run.run_pass([(FAST_JOB, 20.0)], False, str(tmp_path),
                     time.monotonic() + 60, {})
    assert p["statuses"] == ["unreferenced"]


def test_traced_pass_keeps_artifacts_and_covers_wall_time(tmp_path):
    # Long enough that installing the wrappers is a small share of it.
    jobs = [("resolve --fixture cycle2 --char 0 --start lcm --mode mp", 20.0),
            ("counterexample --prime 5", 20.0)]
    p = run.run_pass(jobs, True, str(tmp_path), time.monotonic() + 120,
                     run.load_reference())
    assert p["statuses"] == ["ok", "ok"]
    trace = p["trace"]
    assert trace["spans"][tracer.MAIN_SPAN][1] == 2
    assert {name for _, _, name, _ in tracer.SPANS} == set(trace["spans"])
    assert trace["spans"]["flows.moore_penrose"][1] > 0
    assert trace["counts"]["cyclefam.tuples_searched"] > 0
    assert trace["top_s"] / p["wall_s"] >= run.MIN_COVERAGE


def test_layer_metrics_report_every_per_layer_name(tmp_path):
    jobs = [(FAST_JOB, 20.0)]
    cap = time.monotonic() + 60
    plain = run.run_pass(jobs, False, str(tmp_path), cap)
    traced = run.run_pass(jobs, True, str(tmp_path), cap)
    metrics = run.layer_metrics([traced], [plain], 0.1)
    assert set(metrics) == set(run.per_layer_units())
    assert metrics["monomial.lcm_lattice.calls"]["value"] == 1


def test_host_clock_counts_a_half_speed_slice_as_half(monkeypatch):
    now = [10.0]
    monkeypatch.setattr(hostclock.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(hostclock, "_probe",
                        lambda: 2 * hostclock.NOMINAL_PROBE_S)
    clock = hostclock.HostClock()
    clock.last_t = now[0]
    now[0] = 11.0
    clock._tick(None, None)
    now[0] = 11.5
    assert clock.now() == 0.75
    assert clock.probes == 1


def test_pass_reports_scaled_times(tmp_path):
    p = run.run_pass([(FAST_JOB, 20.0)], False, str(tmp_path),
                     time.monotonic() + 60, run.load_reference())
    assert p["statuses"] == ["ok"]
    assert 0 < p["wall_n"] and 0 < p["setup_n"]
