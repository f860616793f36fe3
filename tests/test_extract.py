"""Minimal-summand extraction along the flow, checked against the dense
projection ``Pi v`` of the stabilized flow."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from chainflow import flows, splittings
from chainflow.cli import main
from chainflow.complexes import BasedComplex, Poset, StratifiedComplex, scalar_ring
from chainflow.errors import VerificationError
from chainflow.flows import (
    Homotopy, assemble_field, classify, extract_minimal_summand, iterate_flow,
    moore_penrose,
)
from chainflow.linalg import RingMatrix
from chainflow.scalars import QQ
from chainflow.splittings import stratum_core

from helpers import assert_same_summand
from oracles import dense_extract_minimal_summand, dense_iterate_flow

BENCH_REFERENCE = (Path(__file__).resolve().parent.parent / "bench"
                   / "reference.json")
# Job id -> sha256 of its artifact, as the benchmark records it.
DIGESTS = json.loads(BENCH_REFERENCE.read_text())
# Every fixture resolve and toric-resolve job of the benchmark.
JOBS = [job for job in DIGESTS
        if job.split()[0] in ("resolve", "toric-resolve")
        and "--fixture" in job.split()]
# The remaining jobs that need no input file.
OTHER_JOBS = [job for job in DIGESTS
              if job.split()[0] in ("lattice", "matroidal", "counterexample")]


def assert_reference_artifact(job, path):
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[job]


def test_job_list_covers_every_start_mode_and_fixture():
    assert len(JOBS) == 20
    assert len(OTHER_JOBS) == 7
    # with cycle11, checked in test_cli, these are all the benchmark's jobs
    assert len(DIGESTS) == len(JOBS) + len(OTHER_JOBS) + 1
    assert sum("toric-resolve" in job for job in JOBS) == 3
    assert sum("--start lcm" in job for job in JOBS) == 9


@pytest.mark.parametrize("job", JOBS)
def test_matches_dense_projection(job, monkeypatch, tmp_path):
    seen = []

    def iterate(s, W):
        out = flows.iterate_flow(s, W)
        seen.append((out[1], dense_iterate_flow(s, W)))
        return out

    def extract(s, W, k, cores):
        out = flows.extract_minimal_summand(s, W, k, cores)
        seen.append((s, k, cores, out))
        return out

    monkeypatch.setattr(splittings, "iterate_flow", iterate)
    monkeypatch.setattr(splittings, "extract_minimal_summand", extract)
    path = tmp_path / "art.json"
    assert main(job.split() + ["--out", str(path)]) == 0
    (k, (Pi, dense_k)), (s, extract_k, cores, got) = seen
    assert k == dense_k == extract_k
    assert_same_summand(got, dense_extract_minimal_summand(s, Pi, cores))
    assert_reference_artifact(job, path)


@pytest.mark.parametrize("job", OTHER_JOBS)
def test_other_artifacts_match_reference(job, tmp_path, capsys):
    path = tmp_path / "art.json"
    assert main(job.split() + ["--out", str(path)]) == 0
    assert_reference_artifact(job, path)


def _chain_of_three_strata():
    """F_1 = <e, b, f> -> F_0 = <a, c> over the chain 0 < 1 < 2.

    d e = a, d b = a + c, d f = c.  Stratum 2 holds e, stratum 1 holds
    b -> a, stratum 0 holds f -> c, so the core vector e needs two flow
    steps: e -> e - b -> e - b + f.
    """
    ring = scalar_ring(QQ)
    one, zero = ring.one(), ring.zero()
    d1 = RingMatrix(ring, [[one, one, zero], [zero, one, one]])
    c = BasedComplex(ring, [["a", "c"], ["e", "b", "f"]],
                     [[None, None], [None, None, None]], [d1])
    poset = Poset([0, 1, 2], [frozenset(), frozenset({0}), frozenset({0, 1})])
    return StratifiedComplex(c, poset, [[1, 0], [2, 1, 0]])


def test_two_step_orbit_matches_dense_projection():
    s = _chain_of_three_strata()
    splittings, cores = {}, {}
    for ai in s.occupied():
        c = s.stratum(ai)
        D = moore_penrose(c)
        assert classify(c, D).is_splitting
        splittings[ai] = D
        cores[ai] = stratum_core(c, D)
    W = assemble_field(s, splittings)
    Pi, dense_k = dense_iterate_flow(s, W)
    assert iterate_flow(s, W) == ([2, 2], 2)
    assert dense_k == 2
    got = extract_minimal_summand(s, W, 2, cores)
    assert got.ranks == [0, 1]
    # the orbit of the core vector e is e -> e - b -> e - b + f
    e = RingMatrix.from_scalar_rows(
        s.complex.ring, [[Fraction(1)], [Fraction(0)], [Fraction(0)]])
    g, dg = flows._flow_power(s.complex.d(1), W.D(0), e, 2)
    assert [x.render() for row in g.rows for x in row] == ["1", "-1", "1"]
    assert dg.is_zero()
    g, dg = flows._flow_power(s.complex.d(1), W.D(0), e, 1)
    assert [x.render() for row in g.rows for x in row] == ["1", "-1", "0"]
    assert [x.render() for row in dg.rows for x in row] == ["0", "-1"]
    assert_same_summand(got, dense_extract_minimal_summand(s, Pi, cores))


def test_cores_off_the_projection_raise():
    ring = scalar_ring(QQ)
    c = BasedComplex(ring, [["a"], ["b"]], [[None], [None]],
                     [RingMatrix(ring, [[ring.one()]])])
    s = StratifiedComplex(c, Poset([0], [frozenset()]), [[0], [0]])
    # b is offered as a core vector with no core in degree 0, so nothing
    # spans d b = a.
    W = Homotopy(c, [RingMatrix.zeros(ring, 1, 1)])
    with pytest.raises(VerificationError, match="inconsistent with flow"):
        extract_minimal_summand(s, W, 1, {0: [[], [[Fraction(1)]]]})
