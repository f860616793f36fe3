"""Small front ends to package internals that only tests need."""

import hashlib
import json
from importlib import resources
from pathlib import Path
from unittest import mock

from chainflow.complexes import Poset, StratifiedComplex
from chainflow.flows import Homotopy, extract_minimal_summand
from chainflow.linalg import RingMatrix
from chainflow.serialize import (
    complex_from_json, complex_to_json, dumps, stratified_to_json,
)
from chainflow.splittings import _splitting_mode, split_strata

from oracles import flow


def split_one_stratum(c, characteristic, mode, tag="a"):
    """The per-stratum step of ``resolve_stratified`` on one scalar complex.

    ``c`` is wrapped as a start with one stratum, tagged ``tag``.
    ``characteristic`` defaults and checks ``mode`` as a resolve does; the
    split runs over the field of ``c``.  Returns ``(D, work, m)``: the
    certified splitting homotopy, the complex over the work field (a
    transcendental extension when the characteristic divides the number
    ``m`` of matroidal splittings) and ``m``.
    """
    s = StratifiedComplex(c, Poset([0], [frozenset()]),
                          [[0] * r for r in c.ranks])
    critical, _, splittings, _ = split_strata(
        s, lambda _: tag, _splitting_mode(characteristic, mode))
    D = splittings[0]
    return D, D.complex, critical["counts"][tag]


def zero_homotopy(c):
    """The homotopy on ``c`` whose every map is zero."""
    return Homotopy(c, [RingMatrix.zeros(c.ring, c.rank(n + 1), c.rank(n))
                        for n in range(c.top)])


def fixture_ideal(name):
    """The ideal document (``variables`` and ``generators``) of the bundled
    fixture ``name``."""
    return json.loads(resources.files("chainflow.fixtures")
                      .joinpath(f"{name}.json").read_text())


def ideal_doc(name):
    """The ideal document of the bundled fixture ``name``, or of the
    benchmark's input ``bench/inputs/cycle11.json`` for ``cycle11``."""
    if name == "cycle11":
        return json.loads((Path(__file__).resolve().parent.parent / "bench"
                           / "inputs" / "cycle11.json").read_text())
    return fixture_ideal(name)


def start_digest(s):
    """The sha256 of the canonical JSON text of the stratified complex
    ``s``, as ``golden_data.START_DIGESTS`` records it."""
    return hashlib.sha256(dumps(stratified_to_json(s)).encode()).hexdigest()


def poly(F, text):
    """The polynomial dict that ``text`` denotes in the function field ``F``."""
    num, den = F.parse(text)
    assert den is None, text
    return num


def assert_same_summand(got, want):
    """Equal labels, multidegrees and differentials, each entry equal by
    ``eq`` and by ``render``."""
    assert got.labels == want.labels
    assert got.multidegrees == want.multidegrees
    assert len(got.diffs) == len(want.diffs)
    for g, w in zip(got.diffs, want.diffs):
        assert g.shape == w.shape
        for grow, wrow in zip(g.rows, w.rows):
            for x, y in zip(grow, wrow):
                assert x.eq(y)
                assert x.render() == y.render()


def assert_stable_flow(s, H, Pi):
    """``I - d H - H d`` equals the dense stabilized flow ``Pi`` in every
    degree of ``s``."""
    got = flow(s.complex, H)
    assert len(got) == len(Pi)
    for n, (g, want) in enumerate(zip(got, Pi)):
        assert g.eq(want), n


def extract_counting_projections(s, H, cores):
    """``extract_minimal_summand(s, H, cores)``, and per degree ``n >= 1``
    with cores the number of its ``RingMatrix`` products with ``d_n`` or
    ``H_{n-1}`` on the left, the products that project the core vectors."""
    lefts = []
    matmul = RingMatrix.__matmul__

    def spy(a, b):
        if b.ncols:   # a product in a degree with cores
            lefts.append(a)
        return matmul(a, b)

    with mock.patch.object(RingMatrix, "__matmul__", spy):
        out = extract_minimal_summand(s, H, cores)
    c = s.complex
    counts = {n: sum(a is c.d(n) or a is H.D(n - 1) for a in lefts)
              for n in range(1, c.top + 1)}
    return out, {n: m for n, m in counts.items() if m}


def assert_resolution_reads_back(path):
    """The ``resolution`` of the artifact at ``path`` reads back through
    ``complex_from_json`` and is written out again byte for byte."""
    doc = json.loads(path.read_text())["resolution"]
    assert dumps(complex_to_json(complex_from_json(doc))) == dumps(doc)
