"""JSON round-trips for complexes, homotopies and stratifications, plus the
coefficient grammar for each field kind."""

import json
from fractions import Fraction

import pytest

from chainflow.complexes import BasedComplex, scalar_ring
from chainflow.errors import InputError
from chainflow.flows import Homotopy, moore_penrose
from chainflow.linalg import RingMatrix
from chainflow.monomial import resolve_minimal
from chainflow.scalars import QQ, GF, FunctionField
from chainflow.serialize import (
    coeff_from_string,
    coeff_to_string,
    complex_from_json,
    complex_to_json,
    dumps,
    homotopy_from_json,
    homotopy_to_json,
    matrix_to_json,
    stratified_from_json,
    stratified_to_json,
)
from chainflow.splittings import build_extension_field
from chainflow.toric import BettiCategoryData, bar_resolution, resolve_toric
from chainflow import cyclefam

import golden_data as G


def _cycle3_resolution():
    I = cyclefam.build_Ip(3).ideal
    return resolve_minimal(I).resolution


def _semi23():
    return BettiCategoryData(
        ["x2", "x3"], [[2, 3]], [[0], [6]],
        [([0], [6], [3, 0]), ([0], [6], [0, 2])])


def _tiny_doc():
    """``d b = 2x a`` over Q, with multidegrees and a ``deg_map``."""
    return {"field": "Q", "ring_vars": ["x"], "top": 1,
            "basis": [[{"label": "a", "multidegree": [0]}],
                      [{"label": "b", "multidegree": [1]}]],
            "diff": [[[{"1": "2"}]]], "deg_map": [[1]]}


def _tiny_stratified_doc():
    doc = _tiny_doc()
    doc["poset"] = {"elements": [0, 1], "below": [[], [0]]}
    doc["strata"] = [[0], [1]]
    return doc


def _edit(doc, path, value):
    *keys, last = path
    for k in keys:
        doc = doc[k]
    doc[last] = value


class TestDumps:
    def test_canonical_form(self):
        assert dumps({"b": 1, "a": [1, 2]}) == (
            '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n')

    def test_key_order_independent(self):
        assert dumps({"x": 1, "y": 2}) == dumps({"y": 2, "x": 1})


class TestCoefficients:
    def test_rationals(self):
        assert coeff_from_string(QQ, "7") == Fraction(7)
        assert coeff_from_string(QQ, "-3/5") == Fraction(-3, 5)
        assert coeff_to_string(QQ, Fraction(-3, 5)) == "-3/5"
        with pytest.raises(InputError, match="bad rational"):
            coeff_from_string(QQ, "spam")
        with pytest.raises(InputError, match="bad rational"):
            coeff_from_string(QQ, "1/0")

    def test_prime_field(self):
        F = GF(5)
        assert coeff_from_string(F, "7") == 2
        assert coeff_from_string(F, "-1") == 4
        with pytest.raises(InputError, match="bad prime-field"):
            coeff_from_string(F, "y")

    def test_unknown_field(self):
        with pytest.raises(InputError, match="unknown field"):
            coeff_from_string(object(), "1")

    def test_function_field_round_trip(self):
        F = FunctionField(3, ["y1", "y2"])
        y1, y2 = F.var("y1"), F.var("y2")
        vals = [
            F.one,
            F.neg(F.one),
            F.add(F.mul(y1, y1), F.neg(y2)),
            F.div(y1, F.add(y2, F.one)),
            F.div(F.add(F.mul(F.from_int(2), y1), F.one),
                  F.mul(y2, F.add(y1, y2))),
        ]
        for v in vals:
            s = coeff_to_string(F, v)
            assert F.eq(coeff_from_string(F, s), v)

    def test_function_field_power_syntax(self):
        F = FunctionField(3, ["y1"])
        y1 = F.var("y1")
        assert F.eq(coeff_from_string(F, "y1^3 + 2"),
                    F.add(F.mul(F.mul(y1, y1), y1), F.from_int(2)))

    @pytest.mark.parametrize("text", ["y1^300", "2^3000000", "(y1)^256"])
    def test_exponent_above_packed_range(self, text):
        F = FunctionField(3, ["y1", "y2"])
        with pytest.raises(InputError, match="exponent"):
            coeff_from_string(F, text)

    @pytest.mark.parametrize("text", ["y1^200*y1^100", "(y2^128)^2"])
    def test_product_leaving_packed_range(self, text):
        F = FunctionField(3, ["y1", "y2"])
        with pytest.raises(InputError, match="packed range"):
            coeff_from_string(F, text)

    def test_largest_exponent_parses(self):
        F = FunctionField(3, ["y1", "y2"])
        assert coeff_to_string(F, coeff_from_string(F, "y2^255")) == "y2^255"

    @pytest.mark.parametrize("text", ["1/0", "y1/(y2 - y2)"])
    def test_division_by_zero(self, text):
        F = FunctionField(3, ["y1", "y2"])
        with pytest.raises(InputError, match="division by zero"):
            coeff_from_string(F, text)

    def test_bracketed_names(self):
        # extension-field names contain brackets and digits; the tokenizer
        # must match them greedily
        F, _ = build_extension_field({"a": 2}, 2)
        v = coeff_from_string(F, "y[a][1] + 1")
        assert coeff_to_string(F, v) == "y[a][1] + 1"


class TestComplexRoundTrip:
    def test_cycle3_resolution(self):
        c = _cycle3_resolution()
        doc = complex_to_json(c)
        c2 = complex_from_json(doc)
        assert c2.ranks == c.ranks
        assert c2.labels == c.labels
        assert c2.multidegrees == c.multidegrees
        for n in range(1, c.top + 1):
            assert matrix_to_json(c2.d(n)) == matrix_to_json(c.d(n))
        # serialising the reconstruction reproduces the document exactly
        assert dumps(complex_to_json(c2)) == dumps(doc)

    def test_deg_map_survives(self):
        c = bar_resolution(_semi23(), QQ).complex
        assert c.deg_map is not None
        c2 = complex_from_json(complex_to_json(c))
        assert c2.deg_map == c.deg_map
        assert c2.validate() == []

    def test_function_field_complex(self):
        res = resolve_toric(_semi23(), 2)
        c = res.resolution
        doc = complex_to_json(c)
        assert doc["field"]["p"] == 2
        c2 = complex_from_json(doc)
        assert c2.ranks == c.ranks
        assert dumps(complex_to_json(c2)) == dumps(doc)

    def test_malformed_document(self):
        with pytest.raises(InputError, match="malformed complex"):
            complex_from_json({})

    @pytest.mark.parametrize("path, value", [
        (("basis", 0, 0), {"multidegree": [0]}),
        (("basis", 0, 0, "multidegree"), ["x"]),
        (("diff", 0, 0, 0), {"x": "2"}),
        (("deg_map", 0, 0), "x"),
        (("diff", 0, 0, 0), "2"),
        (("diff", 0), 5),
    ], ids=["no-label", "multidegree", "exponent-key", "deg-map",
            "entry-not-a-map", "differential-not-a-list"])
    def test_malformed_values(self, path, value):
        doc = _tiny_doc()
        assert complex_from_json(doc).ranks == [1, 1]
        _edit(doc, path, value)
        with pytest.raises(InputError, match="malformed complex document"):
            complex_from_json(doc)

    def test_length_mismatch(self):
        doc = complex_to_json(_cycle3_resolution())
        doc["top"] = 1
        with pytest.raises(InputError, match="disagree with top"):
            complex_from_json(doc)

    def test_bad_exponent_arity(self):
        doc = complex_to_json(_cycle3_resolution())
        row, col = next(
            (i, j)
            for i, r in enumerate(doc["diff"][0])
            for j, e in enumerate(r) if e)
        bad_key = next(iter(doc["diff"][0][row][col]))
        doc["diff"][0][row][col] = {bad_key + ",0": "1"}
        with pytest.raises(InputError, match="exponent key"):
            complex_from_json(doc)


class TestCriticalArtifactRoundTrip:
    """Artifacts over F_p(y) whose weight names hold ``^`` and ``*``, as in
    ``y[v0^2*v1*v2*v3*e23*e31][1]``, read back byte for byte."""

    @staticmethod
    def reread(doc):
        return json.loads(dumps(doc))

    @pytest.mark.parametrize("p", [2, 3])
    def test_cycle3_taylor_resolution(self, p):
        res = resolve_minimal(cyclefam.build_Ip(3).ideal, p, start="taylor")
        doc = self.reread(complex_to_json(res.resolution))
        assert "^" in doc["field"]["transcendentals"][0]
        assert dumps(complex_to_json(complex_from_json(doc))) == dumps(doc)

    def test_cycle3_taylor_with_field(self):
        res = resolve_minimal(cyclefam.build_Ip(3).ideal, 2, start="taylor")
        start = self.reread(stratified_to_json(res.start))
        s = stratified_from_json(start)
        assert dumps(stratified_to_json(s)) == dumps(start)
        field = self.reread(homotopy_to_json(res.homotopy))
        W = homotopy_from_json(field, s.complex)
        assert dumps(homotopy_to_json(W)) == dumps(field)


class TestHomotopyRoundTrip:
    def test_scalar_homotopy(self):
        ring = scalar_ring(QQ)
        d1 = RingMatrix(ring, [[ring.const(Fraction(2))]])
        c = BasedComplex(ring, [["a"], ["b"]], [[None], [None]], [d1])
        D = Homotopy(c, [RingMatrix(
            ring, [[ring.const(Fraction(1, 2))]], ncols=1)])
        doc = homotopy_to_json(D)
        D2 = homotopy_from_json(doc, c)
        assert matrix_to_json(D2.D(0)) == matrix_to_json(D.D(0))
        assert dumps(homotopy_to_json(D2)) == dumps(doc)

    def test_moore_penrose_homotopy(self):
        I = cyclefam.build_Ip(3).ideal
        from chainflow.monomial import order_complex_resolution
        s = order_complex_resolution(I, QQ)
        top = max(
            s.occupied(),
            key=lambda a: (len(s.members[a][1])
                           if len(s.members[a]) > 1 else 0))
        c = s.stratum(top)
        D = moore_penrose(c)
        doc = homotopy_to_json(D)
        D2 = homotopy_from_json(doc, c)
        for n in range(c.top):
            assert matrix_to_json(D2.D(n)) == matrix_to_json(D.D(n))

    def test_wrong_map_count(self):
        ring = scalar_ring(QQ)
        d1 = RingMatrix(ring, [[ring.const(Fraction(2))]])
        c = BasedComplex(ring, [["a"], ["b"]], [[None], [None]], [d1])
        with pytest.raises(InputError, match="wrong number of maps"):
            homotopy_from_json({"maps": []}, c)


    @pytest.mark.parametrize("maps", [5, [[["1/2"]]], [[[{"x": "1"}]]]],
                             ids=["maps-not-a-list", "entry-not-a-map",
                                  "exponent-key"])
    def test_malformed_values(self, maps):
        c = complex_from_json(_tiny_doc())
        assert homotopy_from_json({"maps": [[[{}]]]}, c).D(0).is_zero()
        with pytest.raises(InputError, match="malformed homotopy document"):
            homotopy_from_json({"maps": maps}, c)


class TestStratifiedRoundTrip:
    def test_bar_resolution(self):
        s = bar_resolution(_semi23(), QQ)
        doc = stratified_to_json(s)
        s2 = stratified_from_json(doc)
        assert s2.poset.elements == s.poset.elements
        assert s2.poset.below == s.poset.below
        assert s2.strata == s.strata
        assert s2.validate() == []
        assert dumps(stratified_to_json(s2)) == dumps(doc)

    def test_monomial_start(self):
        from chainflow.monomial import order_complex_resolution
        I = cyclefam.build_Ip(3).ideal
        s = order_complex_resolution(I, QQ)
        doc = stratified_to_json(s)
        s2 = stratified_from_json(doc)
        assert s2.complex.ranks == s.complex.ranks
        assert s2.strata == s.strata
        assert dumps(stratified_to_json(s2)) == dumps(doc)

    def test_missing_poset(self):
        doc = complex_to_json(_cycle3_resolution())
        with pytest.raises(InputError, match="malformed stratification"):
            stratified_from_json(doc)

    @pytest.mark.parametrize("path, value", [
        (("poset", "below"), [[], ["a"]]),
        (("poset", "elements"), [0, {"a": 1}]),
        (("strata", 0), [[0]]),
    ], ids=["below-not-integers", "unhashable-element",
            "unhashable-stratum"])
    def test_malformed_values(self, path, value):
        doc = _tiny_stratified_doc()
        assert stratified_from_json(doc).members == {0: [[0]], 1: [[], [0]]}
        _edit(doc, path, value)
        with pytest.raises(InputError,
                           match="malformed stratification document"):
            stratified_from_json(doc)
