"""Minimal-summand extraction along the flow, checked against the dense
projection ``Pi v`` of the stabilized flow."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from chainflow import flows, monomial, toric
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

from oracles import dense_extract_minimal_summand

BENCH_REFERENCE = (Path(__file__).resolve().parent.parent / "bench"
                   / "reference.json")
# Every fixture resolve and toric-resolve job of the benchmark.
JOBS = [job for job in json.loads(BENCH_REFERENCE.read_text())
        if job.split()[0] in ("resolve", "toric-resolve")
        and "--fixture" in job.split()]


def assert_same_matrix(got, want):
    assert got.shape == want.shape
    for grow, wrow in zip(got.rows, want.rows):
        for g, w in zip(grow, wrow):
            assert g.eq(w)
            assert g.render() == w.render()


def assert_same_summand(got, want):
    assert got.generator_strata == want.generator_strata
    assert [len(g) for g in got.generators] == [len(g) for g in want.generators]
    for gs, ws in zip(got.generators, want.generators):
        for g, w in zip(gs, ws):
            assert_same_matrix(g, w)
    assert got.complex.labels == want.complex.labels
    assert got.complex.multidegrees == want.complex.multidegrees
    assert len(got.complex.diffs) == len(want.complex.diffs)
    for g, w in zip(got.complex.diffs, want.complex.diffs):
        assert_same_matrix(g, w)


def test_job_list_covers_every_start_mode_and_fixture():
    assert len(JOBS) == 20
    assert sum("toric-resolve" in job for job in JOBS) == 3
    assert sum("--start lcm" in job for job in JOBS) == 9


@pytest.mark.parametrize("job", JOBS)
def test_matches_dense_projection(job, monkeypatch, tmp_path):
    seen = []

    def iterate(s, W):
        out = flows.iterate_flow(s, W)
        seen.append(out[0])
        return out

    def extract(s, W, cores):
        out = flows.extract_minimal_summand(s, W, cores)
        seen.append((s, cores, out))
        return out

    module = toric if job.startswith("toric-resolve") else monomial
    monkeypatch.setattr(module, "iterate_flow", iterate)
    monkeypatch.setattr(module, "extract_minimal_summand", extract)
    assert main(job.split() + ["--out", str(tmp_path / "art.json")]) == 0
    Pi, (s, cores, got) = seen
    assert_same_summand(got, dense_extract_minimal_summand(s, Pi, cores))


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
        view = s.stratum(ai)
        D = moore_penrose(view.complex)
        assert classify(view.complex, D).is_splitting
        splittings[ai] = D
        cores[ai] = stratum_core(view.complex, D)
    W = assemble_field(s, splittings)
    Pi, k = iterate_flow(s, W)
    assert k == 2
    got = extract_minimal_summand(s, W, cores)
    assert [len(g) for g in got.generators] == [0, 1]
    assert [e.render() for row in got.generators[1][0].rows for e in row] == [
        "1", "-1", "1"]
    assert_same_summand(got, dense_extract_minimal_summand(s, Pi, cores))


def test_no_fixed_point_raises():
    ring = scalar_ring(QQ)
    c = BasedComplex(ring, [["a"], ["b"]], [[None], [None]],
                     [RingMatrix(ring, [[ring.one()]])])
    s = StratifiedComplex(c, Poset([0], [frozenset()]), [[0], [0]])
    # W b = 0 and W^2 = 0, but the flow sends b to -b and back forever.
    W = Homotopy(c, [RingMatrix(ring, [[ring.const(Fraction(2))]])])
    with pytest.raises(VerificationError, match="stabilization bound exceeded"):
        extract_minimal_summand(s, W, {0: [[], [[Fraction(1)]]]})
