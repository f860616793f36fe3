"""Monomial ideals: lattice, start resolutions, minimal resolution, symmetry."""

import pytest

from chainflow.complexes import BasedComplex
from chainflow.errors import InputError
from chainflow.monomial import (
    MonomialIdeal, lcm_lattice, order_complex_resolution, render_monomial,
    resolve_minimal, taylor_resolution, verify_resolution,
)
from chainflow.scalars import GF, QQ
from chainflow import cyclefam, monomial
import golden_data as G
from helpers import ideal_doc, start_digest
from oracles import verify_equivariance


@pytest.fixture(scope="module")
def cycle3():
    return cyclefam.build_Ip(3).ideal


# rotation of the 3-cycle: v1->v2->v3->v1, e12->e23->e31->e12, v0 fixed
CYCLE3_ROTATION = [0, 2, 3, 1, 5, 6, 4]


class TestMonomialIdeal:
    def test_minimalization(self):
        I = MonomialIdeal(["x", "y"], [[1, 0], [1, 1], [1, 0]])
        assert I.generators == [(1, 0)]
        assert I.dropped == 2

    def test_validation(self):
        with pytest.raises(InputError):
            MonomialIdeal(["x", "x"], [[1, 0]])
        with pytest.raises(InputError):
            MonomialIdeal(["x"], [[1, 0]])
        with pytest.raises(InputError):
            MonomialIdeal(["x"], [[-1]])
        with pytest.raises(InputError, match="list of exponents"):
            MonomialIdeal(["x"], [1])
        with pytest.raises(InputError, match="unit ideal"):
            MonomialIdeal(["x", "y"], [[1, 0], [0, 0]])

    def test_render(self):
        assert render_monomial(["x", "y"], (2, 1)) == "x^2*y"
        assert render_monomial(["x"], (0,)) == "1"


class TestLcmLattice:
    def test_cycle3_lattice(self, cycle3):
        L = lcm_lattice(cycle3)
        assert len(L.elements) == 9
        assert L.bottom == (0,) * 7
        strings = L.element_strings()
        assert strings[0] == "1"
        assert set(strings[1:]) == {
            G.M0, G.M1, G.M2, G.M3, G.M12, G.M13, G.M23, G.MTOP}
        # canonical order: generators first, then pairwise joins, then top
        assert strings[-1] == G.MTOP
        top = L.elements[-1]
        assert L.support[top] == (0, 1, 2, 3)
        # poset divisibility sanity on the proper part
        p = L.poset
        for i in range(len(p)):
            for j in p.below[i]:
                assert all(a <= b for a, b in
                           zip(p.elements[j], p.elements[i]))

    def test_support_is_downset_key(self, cycle3):
        L = lcm_lattice(cycle3)
        for e in L.proper():
            sup = L.support[e]
            assert sup, "every proper element divides some generator join"


class TestStartResolutions:
    def test_lcm_start_shape_and_labels(self, cycle3):
        s = order_complex_resolution(cycle3, QQ)
        assert s.complex.ranks == [8, 13, 6]
        assert s.complex.labels[0] == G.F0_LABELS
        assert s.complex.labels[1] == G.F1_LABELS
        assert s.complex.labels[2] == G.F2_LABELS
        assert s.validate() == []

    def test_taylor_start_shape(self, cycle3):
        s = taylor_resolution(cycle3, QQ)
        assert s.complex.ranks == [4, 6, 4, 1]
        assert s.validate() == []

    def test_starts_over_prime_field(self, cycle3):
        for field in (GF(2), GF(5)):
            assert order_complex_resolution(cycle3, field).validate() == []
            assert taylor_resolution(cycle3, field).validate() == []


@pytest.mark.parametrize(
    "name, start, char",
    [key for key in G.START_DIGESTS if key[1] != "bar"],
    ids=lambda v: str(v))
def test_start_bytes(name, start, char):
    # every label, tuple order, sign and coefficient of the lcm and Taylor
    # starts, as recorded before the starts shared one builder
    doc = ideal_doc(name)
    I = MonomialIdeal(doc["variables"], doc["generators"])
    field = GF(char) if char else QQ
    assert start_digest(monomial._STARTS[start](I, field)) == \
        G.START_DIGESTS[name, start, char]


class TestResolveMinimal:
    def test_char0_golden(self, cycle3):
        res = resolve_minimal(cycle3, 0)
        assert res.report["mode"] == "moore_penrose"
        assert res.report["ranks"] == G.RES_RANKS
        assert res.report["betti"] == G.RES_BETTI
        assert res.report["field"] == "Q"
        assert res.report["iterations"] == G.FLOW_ITERATIONS
        assert res.report["verification"] == {
            "minimal": True, "exact": True,
            "degrees_checked": res.report["verification"]["degrees_checked"]}
        assert res.report["verification"]["degrees_checked"] == 9

    def test_start_independence_char0(self, cycle3):
        lcm = resolve_minimal(cycle3, 0, start="lcm")
        tay = resolve_minimal(cycle3, 0, start="taylor")
        assert lcm.report["betti"] == tay.report["betti"]

    def test_matroidal_mode_char0(self, cycle3):
        res = resolve_minimal(cycle3, 0, mode="matroidal_average")
        assert res.report["betti"] == G.RES_BETTI

    def test_bad_arguments(self, cycle3):
        with pytest.raises(InputError):
            resolve_minimal(cycle3, 0, start="bogus")
        with pytest.raises(InputError):
            resolve_minimal(cycle3, 0, mode="bogus")
        with pytest.raises(InputError):
            resolve_minimal(cycle3, 5, mode="moore_penrose")

    def test_betti_property(self, cycle3):
        # the report's Betti table counts every generator once, by degree
        betti = resolve_minimal(cycle3, 0).report["betti"]
        assert sum(sum(layer.values()) for layer in betti.values()) == \
            sum(G.RES_RANKS)
        assert min(betti) == 0 and max(betti) == 2


class TestVerifyResolution:
    def test_passes_on_real_resolution(self, cycle3):
        res = resolve_minimal(cycle3, 0)
        v = verify_resolution(res.resolution, cycle3)
        assert v["ok"] and v["minimal"] and v["exactness_ok"]

    def test_catches_corruption(self, cycle3):
        res = resolve_minimal(cycle3, 0)
        c = res.resolution
        ring = c.ring
        # smuggle a unit into the differential: breaks minimality
        m = c.d(1)
        m.rows[0][0] = m.rows[0][0] + ring.const(QQ.from_int(1))
        v = verify_resolution(c, cycle3)
        assert not v["ok"]
        assert not v["minimal"]

    def test_exactness_failures_name_strand_and_degree(self):
        # the Koszul resolution of (x, y, z) cut at its top degree, checked
        # as a resolution of (x, y, z, w): nothing resolves w, and the cut
        # leaves H_1 where the top generator was
        names = ["x", "y", "z", "w"]
        gens = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
        c = resolve_minimal(MonomialIdeal(names, gens)).resolution
        assert c.ranks == [3, 3, 1]
        cut = BasedComplex(c.ring, c.labels[:2], c.multidegrees[:2],
                           c.diffs[:1])
        v = verify_resolution(cut, MonomialIdeal(names, gens + [[0, 0, 0, 1]]))
        assert v["failures"] == [
            "strand at w: H_0 has dimension 0, expected 1",
            "strand at x*y*z: H_1 has dimension 1, expected 0",
            "strand at x*y*z*w: H_1 has dimension 1, expected 0",
        ]
        assert v["checked_degrees"] == 16
        assert v["minimal"] and not v["validate_issues"]
        assert not v["exactness_ok"] and not v["ok"]


class TestEquivariance:
    def test_rotation_char0(self, cycle3):
        res = resolve_minimal(cycle3, 0)
        rep = verify_equivariance(cycle3, CYCLE3_ROTATION, res)
        assert rep["ok"] and rep["d_commutes"] and rep["field_commutes"]

    def test_rotation_char5_matroidal(self, cycle3):
        res = resolve_minimal(cycle3, 5, mode="matroidal_average")
        rep = verify_equivariance(cycle3, CYCLE3_ROTATION, res)
        assert rep["ok"]

    def test_rotation_taylor_signed(self, cycle3):
        res = resolve_minimal(cycle3, 0, start="taylor")
        rep = verify_equivariance(cycle3, CYCLE3_ROTATION, res)
        assert rep["ok"]

    def test_rotation_critical_taylor(self, cycle3):
        # F_2(y) with 17 weights: the rotation permutes the 18 matroidal
        # choices of the top stratum, which the oracle lists again from the
        # stratum it relabels
        res = resolve_minimal(cycle3, 2, start="taylor")
        assert res.report["transcendence_degree"] == 17
        rep = verify_equivariance(cycle3, CYCLE3_ROTATION, res)
        assert rep["ok"] and rep["field_commutes"]

    def test_non_symmetry_rejected(self, cycle3):
        with pytest.raises(InputError):
            verify_equivariance(cycle3, [1, 0, 2, 3, 4, 5, 6], resolve_minimal(cycle3, 0))

    def test_weight_relabelling_char2(self):
        # two coprime squares: the top stratum has two matroidal choices, so
        # characteristic 2 forces a one-variable extension; the swap symmetry
        # must relabel that weight consistently
        I = MonomialIdeal(["x", "y"], [[2, 0], [0, 2]])
        res = resolve_minimal(I, 2, mode="matroidal_average")
        assert res.report["transcendence_degree"] == 1
        rep = verify_equivariance(I, [1, 0], res)
        assert rep["ok"]
