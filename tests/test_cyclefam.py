"""The cycle-ideal family I(p): explicit, intrinsic, and transcendental
resolutions, the equivariance dichotomy, and the exhaustive obstruction
certificate in characteristic p."""

import pytest

from chainflow.cyclefam import (
    CycleFamily,
    build_Ip,
    characteristic_zero_control,
    equivariance_report,
    explicit_resolution,
    intrinsic_resolution,
    obstruction_search,
    rotation_permutation,
    transcendental_resolution,
    verify_family_resolution,
)
from chainflow.complexes import BasedComplex
from chainflow.errors import InputError
from chainflow.linalg import RingMatrix
from chainflow.monomial import (
    render_monomial, resolve_minimal, verify_resolution,
)
from chainflow.scalars import QQ, GF, field_descriptor

import golden_data as G


class TestBuildIp:
    def test_p3_matches_cycle3(self):
        fam = build_Ip(3)
        assert fam.n == 3
        assert list(fam.names) == G.CYCLE3_VARIABLES
        rendered = [render_monomial(fam.names, g)
                    for g in fam.ideal.generators]
        assert rendered == G.CYCLE3_GENERATORS

    def test_p2_has_four_cycle(self):
        # the p = 2 member uses a 4-cycle so that p divides n
        fam = build_Ip(2)
        assert fam.n == 4
        assert fam.names == (
            "v0", "v1", "v2", "v3", "v4", "e12", "e23", "e34", "e41")
        assert len(fam.ideal.generators) == 5

    def test_positions(self):
        fam = build_Ip(3)
        assert fam.vertex(2) == 2
        assert fam.edge(3) == 6        # e31 is the last variable
        assert fam.edge(4) == fam.edge(1)  # edge indices are cyclic

    def test_rotation_permutation(self):
        fam = build_Ip(3)
        # v0 fixed; v1->v2->v3->v1; e12->e23->e31->e12
        assert rotation_permutation(fam) == [0, 2, 3, 1, 5, 6, 4]

    def test_rejects_nonprime(self):
        with pytest.raises(InputError, match="primes"):
            build_Ip(4)
        with pytest.raises(InputError, match="primes"):
            build_Ip(1)


class TestExplicitResolution:
    def test_shape_and_labels(self):
        c = explicit_resolution(build_Ip(3), QQ)
        assert c.ranks == [1, 4, 4, 1]
        assert c.labels == [
            ["1"], ["h0", "h1", "h2", "h3"], ["g0", "g12", "g23", "g31"],
            ["f"]]

    def test_verifies_over_Q(self):
        fam = build_Ip(3)
        v = verify_family_resolution(explicit_resolution(fam, QQ), fam)
        assert v["ok"] and v["minimal"] and not v["failures"]
        assert v["checked_degrees"] == 9

    def test_verifies_over_F3(self):
        # the heart of the counterexample: a minimal resolution exists in
        # characteristic 3, it just cannot be made equivariant
        fam = build_Ip(3)
        v = verify_family_resolution(explicit_resolution(fam, GF(3)), fam)
        assert v["ok"] and v["minimal"] and not v["failures"]
        assert v["checked_degrees"] == 9

    def test_not_equivariant(self):
        fam = build_Ip(3)
        eq = equivariance_report(explicit_resolution(fam, QQ), fam)
        assert eq["equivariant"] is False
        # only the asymmetric g0 column breaks the symmetry
        assert eq["levels"] == {1: True, 2: False, 3: True}

    def test_p2_member_verifies(self):
        fam = build_Ip(2)
        c = explicit_resolution(fam, QQ)
        assert c.ranks == [1, 5, 5, 1]
        v = verify_family_resolution(c, fam)
        assert v["ok"]
        assert v["checked_degrees"] == 11

    def test_verifier_names_failing_strands(self):
        # the explicit resolution without h_0 and g_0, cut at its top
        # degree: m_0 is never killed, and the cut leaves H_2 at the top
        fam = build_Ip(3)
        c = explicit_resolution(fam, QQ)
        d1 = RingMatrix(c.ring, [row[1:] for row in c.d(1).rows], ncols=3)
        d2 = RingMatrix(c.ring, [row[1:] for row in c.d(2).rows[1:]],
                        ncols=3)
        labels = [c.labels[0]] + [tier[1:] for tier in c.labels[1:3]]
        mdegs = [c.multidegrees[0]] + [m[1:] for m in c.multidegrees[1:3]]
        cut = BasedComplex(c.ring, labels, mdegs, [d1, d2])
        v = verify_family_resolution(cut, fam)
        assert v["failures"] == [
            "strand at v1*v2*v3*e12*e23*e31: H_0 has dimension 1, expected 0",
            "strand at v0^2*v1*v2*v3*e12*e23*e31: H_2 has dimension 1, "
            "expected 0",
        ]
        assert v["checked_degrees"] == 9
        assert v["minimal"] and not v["validate_issues"] and not v["ok"]

    def test_verifiers_share_one_result_shape(self):
        fam = build_Ip(3)
        v = verify_family_resolution(explicit_resolution(fam, QQ), fam)
        assert v["exactness_ok"] is True
        res = resolve_minimal(fam.ideal)
        assert list(v) == list(verify_resolution(res.resolution, fam.ideal))


class TestIntrinsicResolution:
    @pytest.mark.parametrize("char", [0, 2, 5])
    def test_equivariant_when_n_invertible(self, char):
        fam = build_Ip(3)
        field = QQ if char == 0 else GF(char)
        c = intrinsic_resolution(fam, field)
        v = verify_family_resolution(c, fam)
        assert v["ok"]
        eq = equivariance_report(c, fam)
        assert eq["equivariant"] is True

    def test_rejected_in_characteristic_p(self):
        with pytest.raises(InputError, match="1/n undefined"):
            intrinsic_resolution(build_Ip(3), GF(3))
        with pytest.raises(InputError, match="1/n undefined"):
            intrinsic_resolution(build_Ip(2), GF(2))


class TestTranscendentalResolution:
    def test_field_and_verification(self):
        fam = build_Ip(3)
        c, field = transcendental_resolution(fam)
        assert field.names == ("y1", "y2")
        assert field_descriptor(field) == {
            "p": 3,
            "transcendentals": ["y1", "y2"],
            "note": "generic affine weights",
            "eliminations": {"y3": "2*y2 + 2*y1 + 1"},
        }
        v = verify_family_resolution(c, fam)
        assert v["ok"] and v["minimal"] and not v["failures"]
        assert v["checked_degrees"] == 9

    def test_equivariant_with_weight_rotation(self):
        fam = build_Ip(3)
        c, _ = transcendental_resolution(fam)
        eq = equivariance_report(c, fam, rotate_weights=True)
        assert eq["equivariant"] is True
        # rotating the basis without rotating the weights must fail: the
        # weights are genuinely distinct transcendentals
        eq0 = equivariance_report(c, fam, rotate_weights=False)
        assert eq0["equivariant"] is False
        assert eq0["levels"][2] is False

    def test_weight_rotation_needs_function_field(self):
        fam = build_Ip(3)
        c = explicit_resolution(fam, QQ)
        with pytest.raises(InputError, match="weight rotation"):
            equivariance_report(c, fam, rotate_weights=True)

    def test_p2_member(self):
        fam = build_Ip(2)
        c, field = transcendental_resolution(fam)
        assert field_descriptor(field)["transcendentals"] == [
            "y1", "y2", "y3"]
        assert verify_family_resolution(c, fam)["ok"]
        assert equivariance_report(
            c, fam, rotate_weights=True)["equivariant"] is True


class TestObstructionSearch:
    def test_p3_certificate(self):
        ob = obstruction_search(build_Ip(3))
        assert ob["p"] == 3 and ob["n"] == 3
        assert ob["tuples_searched"] == 27
        assert ob["equivariant_tuples"] == []
        assert ob["obstructed"] is True
        assert ob["invariant_violations"] == 0
        # the chain-map condition has exactly n solutions, all of which
        # fail periodicity in the controlled way
        assert ob["chain_map_tuples"] == [(0, 1, 1), (1, 2, 2), (2, 0, 0)]
        assert ob["periodicity_failures_checked"] == 3

    def test_p2_certificate(self):
        ob = obstruction_search(build_Ip(2))
        assert ob["p"] == 2 and ob["n"] == 4
        assert ob["tuples_searched"] == 16
        assert ob["equivariant_tuples"] == []
        assert ob["obstructed"] is True
        assert ob["chain_map_tuples"] == [(0, 1, 1, 1), (1, 0, 0, 0)]
        assert ob["periodicity_failures_checked"] == 2

    def test_requires_p_dividing_n(self):
        fam = build_Ip(3)
        mismatched = CycleFamily(p=5, n=fam.n, names=fam.names,
                                 ideal=fam.ideal)
        with pytest.raises(InputError, match="divides n"):
            obstruction_search(mismatched)


class TestCharacteristicZeroControl:
    def test_p3(self):
        assert characteristic_zero_control(build_Ip(3)) == {
            "chain_map": True, "periodic": True, "ok": True}

    def test_p2(self):
        assert characteristic_zero_control(build_Ip(2)) == {
            "chain_map": True, "periodic": True, "ok": True}


# The three resolutions differ only in the g_0 column of d_2, which is
# v_0^2 h_0 - sum_i w_i e_{i-1,i} v_i e_{i,i+1} h_i for the weight vector w:
# explicit (1, 0, ..., 0), intrinsic (1/n, ..., 1/n) and transcendental
# (y_1, ..., y_{n-1}, 1 - sum).
G0_COLUMNS = {
    (2, "explicit", "QQ"): [
        "v0^2", "-v1*e12*e41", "0", "0", "0"],
    (2, "explicit", "GF5"): [
        "v0^2", "4*v1*e12*e41", "0", "0", "0"],
    (2, "intrinsic", "QQ"): [
        "v0^2", "-1/4*v1*e12*e41", "-1/4*v2*e12*e23", "-1/4*v3*e23*e34",
        "-1/4*v4*e34*e41"],
    (2, "intrinsic", "GF5"): [
        "v0^2", "v1*e12*e41", "v2*e12*e23", "v3*e23*e34", "v4*e34*e41"],
    (2, "transcendental", "Fp(y)"): [
        "v0^2", "y1*v1*e12*e41", "y2*v2*e12*e23", "y3*v3*e23*e34",
        "(y3 + y2 + y1 + 1)*v4*e34*e41"],
    (3, "explicit", "QQ"): ["v0^2", "-v1*e12*e31", "0", "0"],
    (3, "explicit", "GF5"): ["v0^2", "4*v1*e12*e31", "0", "0"],
    (3, "intrinsic", "QQ"): [
        "v0^2", "-1/3*v1*e12*e31", "-1/3*v2*e12*e23", "-1/3*v3*e23*e31"],
    (3, "intrinsic", "GF5"): [
        "v0^2", "3*v1*e12*e31", "3*v2*e12*e23", "3*v3*e23*e31"],
    (3, "transcendental", "Fp(y)"): [
        "v0^2", "2*y1*v1*e12*e31", "2*y2*v2*e12*e23",
        "(y2 + y1 + 2)*v3*e23*e31"],
}
FIELDS = {"QQ": QQ, "GF5": GF(5)}


def _resolution(fam, kind, field_name):
    if kind == "transcendental":
        return transcendental_resolution(fam)[0]
    build = {"explicit": explicit_resolution,
             "intrinsic": intrinsic_resolution}[kind]
    return build(fam, FIELDS[field_name])


def _rendered_off_g0(c):
    """Every entry of d_1, d_2 and d_3 except d_2's g_0 column, rendered."""
    return [[e.render() for e in (row[1:] if k == 2 else row)]
            for k in (1, 2, 3) for row in c.d(k).rows]


class TestWeightVectors:
    @pytest.mark.parametrize("key", sorted(G0_COLUMNS), ids=str)
    def test_g0_column(self, key):
        p, kind, field_name = key
        c = _resolution(build_Ip(p), kind, field_name)
        assert [row[0].render() for row in c.d(2).rows] == G0_COLUMNS[key]

    @pytest.mark.parametrize("p", [2, 3])
    def test_other_entries_agree(self, p):
        fam = build_Ip(p)
        for field in FIELDS.values():
            assert (_rendered_off_g0(intrinsic_resolution(fam, field))
                    == _rendered_off_g0(explicit_resolution(fam, field)))
        c, field = transcendental_resolution(fam)
        assert (_rendered_off_g0(c)
                == _rendered_off_g0(explicit_resolution(fam, field)))
