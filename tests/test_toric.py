"""Semigroup-ring resolutions: category input checks, the bar-type start,
and minimal summands of the numerical semigroup <2, 3> in several
characteristics."""

import pytest

from chainflow.complexes import BasedComplex
from chainflow.errors import InputError
from chainflow.linalg import PolyRing, RingMatrix
from chainflow.scalars import QQ, GF
from chainflow.toric import (
    BettiCategoryData,
    bar_resolution,
    resolve_toric,
    verify_toric_resolution,
)

import golden_data as G
from helpers import fixture_ideal, start_digest


def _semi23():
    return BettiCategoryData(
        ["x2", "x3"], [[2, 3]], [[0], [6]],
        [([0], [6], [3, 0]), ([0], [6], [0, 2])])


def _semi23_three_objects():
    # degrees 0, 6, 12 with every divisibility morphism; closed under
    # composition, which bar_resolution requires for its inner faces
    return BettiCategoryData(
        ["x2", "x3"], [[2, 3]], [[0], [6], [12]],
        [
            ([0], [6], [3, 0]), ([0], [6], [0, 2]),
            ([6], [12], [3, 0]), ([6], [12], [0, 2]),
            ([0], [12], [6, 0]), ([0], [12], [3, 2]), ([0], [12], [0, 4]),
        ])


class TestCategoryValidation:
    def test_deg_map_shape(self):
        with pytest.raises(InputError, match="one column per variable"):
            BettiCategoryData(["x"], [[1, 2]], [[0]], [])

    def test_negative_variable_degree(self):
        with pytest.raises(InputError, match="nonnegative"):
            BettiCategoryData(["x"], [[-1]], [[0]], [])

    def test_degree_zero_variable(self):
        with pytest.raises(InputError, match="pointed"):
            BettiCategoryData(["x", "y"], [[1, 0]], [[0]], [])

    def test_duplicate_objects(self):
        with pytest.raises(InputError, match="duplicate objects"):
            BettiCategoryData(["x"], [[1]], [[0], [0]], [])

    def test_object_dimension(self):
        with pytest.raises(InputError, match="wrong dimension"):
            BettiCategoryData(["x"], [[1]], [[0, 0]], [])

    def test_morphism_endpoint(self):
        with pytest.raises(InputError, match="not an object"):
            BettiCategoryData(["x"], [[1]], [[0]], [([0], [1], [1])])

    def test_morphism_negative_exponent(self):
        with pytest.raises(InputError, match="nonnegative exponents"):
            BettiCategoryData(
                ["x"], [[1]], [[0], [1]], [([0], [1], [-1])])

    def test_degree_zero_morphism(self):
        with pytest.raises(InputError, match="pointed"):
            BettiCategoryData(["x"], [[1]], [[0]], [([0], [0], [0])])

    def test_morphism_degree_mismatch(self):
        with pytest.raises(InputError, match="degree mismatch"):
            BettiCategoryData(
                ["x"], [[1]], [[0], [3]], [([0], [3], [1])])

    def test_not_closed_under_composition(self):
        # 0 -> 1 -> 2 without the composite 0 -> 2
        data = BettiCategoryData(
            ["x"], [[1]], [[0], [1], [2]],
            [([0], [1], [1]), ([1], [2], [1])])
        with pytest.raises(InputError, match="closed under composition"):
            bar_resolution(data, QQ)


class TestBarResolution:
    def test_two_object_shape(self):
        s = bar_resolution(_semi23(), QQ)
        assert s.complex.ranks == [2, 2]
        assert s.complex.labels == [["[0]", "[6]"], ["[x2^3]", "[x3^2]"]]
        assert s.complex.multidegrees == [[(0,), (6,)], [(6,), (6,)]]
        assert s.validate() == []
        # strata follow the terminal object of each sequence
        assert [s.poset.elements[a] for a in s.strata[0]] == [(0,), (6,)]
        assert [s.poset.elements[a] for a in s.strata[1]] == [(6,), (6,)]

    def test_three_object_shape(self):
        s = bar_resolution(_semi23_three_objects(), QQ)
        # 3 objects, 7 morphisms, 4 composable pairs (each 0->6 with each
        # 6->12); longer chains would need a morphism out of degree 12
        assert s.complex.ranks == [3, 7, 4]
        assert s.validate() == []

    def test_prime_field_base(self):
        s = bar_resolution(_semi23(), GF(3))
        assert s.complex.ranks == [2, 2]
        assert s.validate() == []


@pytest.mark.parametrize(
    "name, char",
    [(key[0], key[2]) for key in G.START_DIGESTS if key[1] == "bar"],
    ids=lambda v: str(v))
def test_start_bytes(name, char):
    # the bar start's labels, signs and coefficients, inner faces included
    # (only the three-object piece has composable pairs), as recorded before
    # the starts shared one builder
    if name == "semigroup23":
        doc = fixture_ideal(name)
        data = BettiCategoryData(doc["variables"], doc["deg_map"],
                                 doc["objects"], doc["morphisms"])
    else:
        data = _semi23_three_objects()
    field = GF(char) if char else QQ
    assert start_digest(bar_resolution(data, field)) == \
        G.START_DIGESTS[name, "bar", char]


class TestResolveCharZero:
    def test_golden_report(self):
        res = resolve_toric(_semi23(), 0)
        rep = res.report
        assert rep["mode"] == "moore_penrose"
        assert rep["field"] == "Q"
        assert rep["ranks"] == G.TORIC23_RANKS
        assert rep["betti"] == G.TORIC23_BETTI
        assert rep["iterations"] == G.TORIC23_ITERATIONS
        assert rep["stabilization"] == "stabilized after 1 iterations"
        assert rep["stratum_counts"] == {"0": 1, "6": 2}
        assert rep["critical_primes"] == [2]
        assert rep["critical_strata"] == []
        assert rep["transcendence_degree"] == 0
        assert rep["verification"] == {
            "minimal": True, "exact": True, "degrees_checked": 7}

    def test_differential_is_associate_of_binomial(self):
        res = resolve_toric(_semi23(), 0)
        m = res.resolution.d(1)
        terms = {m.ring.keys.unpack(k): c for k, c in m.rows[0][0].terms.items()}
        assert set(terms) == {(3, 0), (0, 2)}
        c = terms[(3, 0)]
        assert c != 0 and terms[(0, 2)] == -c


class TestResolvePositiveCharacteristic:
    def test_char_two_critical_stratum(self):
        res = resolve_toric(_semi23(), 2)
        rep = res.report
        assert rep["mode"] == "matroidal_average"
        assert rep["ranks"] == G.TORIC23_RANKS
        assert rep["betti"] == G.TORIC23_BETTI
        assert rep["critical_strata"] == ["6"]
        assert rep["transcendence_degree"] == 1
        assert rep["field"] == {
            "p": 2,
            "transcendentals": ["y[6][1]"],
            "note": "generic affine weights",
            "eliminations": {"y[6][0]": "y[6][1] + 1"},
        }
        assert res.resolution.ring.field.names == ("y[6][1]",)
        assert any("transcendental extension" in n for n in rep["notes"])
        assert rep["verification"]["degrees_checked"] == 7

    def test_char_two_differential(self):
        res = resolve_toric(_semi23(), 2)
        m = res.resolution.d(1)
        f = res.resolution.ring.field
        terms = {m.ring.keys.unpack(k): c for k, c in m.rows[0][0].terms.items()}
        assert set(terms) == {(3, 0), (0, 2)}
        # over F_2 the two coefficients agree (an associate of the binomial)
        assert f.eq(terms[(3, 0)], terms[(0, 2)])
        assert not f.is_zero(terms[(3, 0)])

    def test_char_three_no_extension(self):
        res = resolve_toric(_semi23(), 3)
        rep = res.report
        assert rep["ranks"] == G.TORIC23_RANKS
        assert rep["field"] == {"p": 3}
        assert rep["transcendence_degree"] == 0
        m = res.resolution.d(1)
        terms = {m.ring.keys.unpack(k): c for k, c in m.rows[0][0].terms.items()}
        # x2^3 - x3^2 with -1 = 2 in F_3
        assert terms == {(3, 0): 1, (0, 2): 2}

    def test_three_objects_char_zero(self):
        res = resolve_toric(_semi23_three_objects(), 0)
        rep = res.report
        assert rep["stratum_counts"] == {"0": 1, "6": 2, "12": 5}
        assert rep["critical_primes"] == [2, 5]
        assert rep["ranks"] == G.TORIC23_RANKS
        assert rep["betti"] == G.TORIC23_BETTI
        assert rep["iterations"] == 2

    def test_three_objects_char_five(self):
        # 5 divides the count of the degree-12 stratum, so that stratum
        # alone gets generic affine weights (4 transcendentals)
        res = resolve_toric(_semi23_three_objects(), 5)
        rep = res.report
        assert rep["critical_strata"] == ["12"]
        assert rep["transcendence_degree"] == 4
        assert rep["field"]["transcendentals"] == [
            "y[12][1]", "y[12][2]", "y[12][3]", "y[12][4]"]
        assert rep["ranks"] == G.TORIC23_RANKS
        assert rep["betti"] == G.TORIC23_BETTI


class TestArgumentsAndVerifier:
    def test_mp_needs_char_zero(self):
        with pytest.raises(InputError, match="characteristic zero"):
            resolve_toric(_semi23(), 2, mode="moore_penrose")

    def test_unknown_mode(self):
        with pytest.raises(InputError, match="unknown splitting mode"):
            resolve_toric(_semi23(), 0, mode="sorcery")

    def test_verifier_rejects_nonminimal(self):
        # the raw bar complex has unit entries, so it cannot be minimal
        s = bar_resolution(_semi23(), QQ)
        v = verify_toric_resolution(s.complex, _semi23())
        assert v["minimal"] is False
        assert v["ok"] is False
        assert v["checked_degrees"] == 7

    def test_verifier_names_failing_strands(self):
        # S <- S(-4) + S(-5) with d = (x2^2, 0): at 4 the relation kills
        # the only monomial, at 5 the zero column leaves H_1; degrees 0..6
        # are checked, up to the object degree 6
        data = _semi23()
        ring = PolyRing(QQ, data.names)
        d1 = RingMatrix(ring, [[ring.monomial((2, 0), QQ.one), ring.zero()]],
                        ncols=2)
        c = BasedComplex(ring, [["1"], ["a", "b"]], [[(0,)], [(4,), (5,)]],
                         [d1], deg_map=data.deg_map)
        v = verify_toric_resolution(c, data)
        assert v["failures"] == [
            "strand at (4): H_0 has dimension 0, expected 1",
            "strand at (5): H_1 has dimension 1, expected 0",
        ]
        assert v["checked_degrees"] == 7
        assert v["minimal"] and not v["validate_issues"]
        assert not v["exactness_ok"] and not v["ok"]
