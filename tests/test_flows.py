"""Homotopies, classification, the hat correction, flows and projection."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from chainflow.complexes import BasedComplex, scalar_ring
from chainflow.errors import InputError, VerificationError
from chainflow.flows import (
    Homotopy, affine_combination, assemble_field, classify, hat, iterate_flow,
    moore_penrose,
)
from chainflow.linalg import RingMatrix
from chainflow.monomial import order_complex_resolution
from chainflow.scalars import GF, QQ
from chainflow.splittings import build_stratum_splitting
from chainflow import cyclefam
import golden_data as G
from oracles import (
    dense_degree_indices, dense_iterate_flow, flow, flow_is_chain_map,
    mp_identities_hold,
)
from randgen import random_stratified_complex


def two_term(entry):
    ring = scalar_ring(QQ)
    d1 = RingMatrix(ring, [[ring.const(Fraction(entry))]])
    return BasedComplex(ring, [["a"], ["b"]], [[None], [None]], [d1])


def scalar_homotopy(c, n, rows):
    ring = c.ring
    mats = [RingMatrix.zeros(ring, c.rank(k + 1), c.rank(k)) for k in range(n)]
    mats.append(RingMatrix(
        ring, [[ring.const(Fraction(x)) for x in r] for r in rows],
        ncols=c.rank(n)))
    return Homotopy(c, mats)


@pytest.fixture(scope="module")
def hexagon():
    I = cyclefam.build_Ip(3).ideal
    s = order_complex_resolution(I, QQ)
    top = max(s.occupied(),
              key=lambda a: len(s.stratum(a).indices[1]) if len(s.stratum(a).indices) > 1 else 0)
    return s.stratum(top).complex


class TestClassify:
    def test_zero_homotopy(self):
        c = two_term(3)
        D = Homotopy(c, [])
        cls = classify(c, D)
        assert cls.is_pre_vector_field and cls.is_vector_field
        assert cls.is_partial_splitting      # D d D = 0 = D holds trivially
        assert not cls.is_splitting          # d D d = 0 != d

    def test_splitting_two_term(self):
        c = two_term(2)
        D = scalar_homotopy(c, 0, [[Fraction(1, 2)]])
        cls = classify(c, D)
        assert cls.is_splitting and cls.is_partial_splitting

    def test_adjoint_on_hexagon_weak_partial_only(self, hexagon):
        c = hexagon
        ring = c.ring
        mats = []
        for n in range(c.top):
            dn1 = c.d(n + 1)
            rows = [[dn1.rows[j][i] for j in range(dn1.nrows)]
                    for i in range(dn1.ncols)]
            mats.append(RingMatrix(ring, rows, ncols=c.rank(n)))
        adj = Homotopy(c, mats)
        cls = classify(c, adj, want_decomposition=True)
        assert cls.is_weak_partial_splitting
        assert not cls.is_partial_splitting
        assert cls.decomposition is not None
        # the N+C+M pieces fill every degree
        for n in range(c.top + 1):
            total = (len(cls.decomposition.n_basis[n])
                     + len(cls.decomposition.c_basis[n])
                     + len(cls.decomposition.m_basis[n]))
            assert total == c.rank(n)

    def test_decomposition_needs_scalar_data(self):
        I = cyclefam.build_Ip(3).ideal
        s = order_complex_resolution(I, QQ)
        D = Homotopy(s.complex, [])
        with pytest.raises(InputError):
            classify(s.complex, D, want_decomposition=True)


class TestHat:
    def test_fixes_splittings(self, hexagon):
        D = moore_penrose(hexagon)
        H = hat(hexagon, D)
        for n in range(hexagon.top):
            assert H.D(n).eq(D.D(n))

    def test_postcondition_failure_raises(self):
        c = two_term(2)
        bad = scalar_homotopy(c, 0, [[1]])   # dDd = 4d != d
        with pytest.raises(VerificationError, match="hat postcondition failed"):
            hat(c, bad)

    def test_unverified_hat_returns_raw_formula(self):
        c = two_term(2)
        bad = scalar_homotopy(c, 0, [[1]])
        H = hat(c, bad, verify=False)
        # degree 0: (D_0 d_1 D_0)(I - D_{-1} d_0) = 1*2*1*(1 - 0) = 2
        assert H.D(0).rows[0][0].constant_term() == Fraction(2)


class TestMoorePenrose:
    def test_degreewise_pseudoinverse(self, hexagon):
        D = moore_penrose(hexagon)
        for n in range(hexagon.top):
            a = hexagon.d(n + 1).scalar_rows()
            ap = D.D(n).scalar_rows()
            assert mp_identities_hold(a, ap)

    def test_is_splitting(self, hexagon):
        cls = classify(hexagon, moore_penrose(hexagon))
        assert cls.is_splitting


class TestAffineCombination:
    def test_weights_must_be_affine(self, hexagon):
        D = moore_penrose(hexagon)
        with pytest.raises(VerificationError, match="sum to 1"):
            affine_combination(hexagon, [(Fraction(1, 2), D)])
        with pytest.raises(InputError):
            affine_combination(hexagon, [])

    def test_singleton_identity(self, hexagon):
        D = moore_penrose(hexagon)
        A = affine_combination(hexagon, [(Fraction(1), D)])
        for n in range(hexagon.top):
            assert A.D(n).eq(D.D(n))


class TestStratumSplittingExamples:
    def test_edge_pair_average_char0(self):
        I = cyclefam.build_Ip(3).ideal
        s = order_complex_resolution(I, QQ)
        for a in s.occupied():
            c = s.stratum(a).complex
            if c.ranks == [1, 2]:
                sp = build_stratum_splitting(c, 0, "matroidal_average")
                col = [e.constant_term() for row in sp.homotopy.D(0).rows for e in row]
                assert col == [Fraction(1, 2), Fraction(1, 2)]
                assert sp.classification.is_splitting
                assert sp.count == 2
                return
        pytest.fail("no edge-pair stratum found")

    def test_edge_pair_average_char2_generic_weights(self):
        I = cyclefam.build_Ip(3).ideal
        s = order_complex_resolution(I, GF(2))
        for a in s.occupied():
            c = s.stratum(a).complex
            if c.ranks == [1, 2]:
                sp = build_stratum_splitting(c, 2, "matroidal_average",
                                             stratum_key="epair")
                F = sp.field
                assert F.names == ("y[epair][1]",)
                col = [F.render(e.constant_term())
                       for row in sp.homotopy.D(0).rows for e in row]
                # first weight eliminated as 1 + y, second is y itself
                assert col == ["y[epair][1] + 1", "y[epair][1]"]
                assert sp.classification.is_splitting
                return
        pytest.fail("no edge-pair stratum found")

    def test_moore_penrose_mode_rejects_char_p(self, hexagon):
        with pytest.raises(InputError):
            build_stratum_splitting(hexagon, 5, "moore_penrose")


class TestFlowAndIteration:
    def test_flow_is_chain_map(self, hexagon):
        D = moore_penrose(hexagon)
        assert flow_is_chain_map(hexagon, flow(hexagon, D))

    def test_stabilization_bound_enforced(self):
        from chainflow.complexes import Poset, StratifiedComplex
        c = two_term(1)
        bad = scalar_homotopy(c, 0, [[2]])   # flow alternates, never stabilizes
        poset = Poset([0], [frozenset()])
        strat = StratifiedComplex(c, poset, [[0], [0]])
        with pytest.raises(VerificationError, match="stabilization bound exceeded"):
            iterate_flow(strat, bad)

    def test_projection_properties(self):
        from chainflow.monomial import resolve_minimal
        I = cyclefam.build_Ip(3).ideal
        res = resolve_minimal(I, 0)
        Pi, k = dense_iterate_flow(res.start, res.homotopy)
        assert res.iterations == k
        c = res.start.complex
        # Pi is idempotent and commutes with the flow (Pi * Phi = Pi)
        phi = flow(c, res.homotopy)
        for n in range(c.top + 1):
            assert (Pi[n] @ Pi[n]).eq(Pi[n])
            assert (Pi[n] @ phi[n]).eq(Pi[n])
        assert flow_is_chain_map(c, Pi)

    # Seeds 0..399 give 364 fields with k = 1, 33 with k = 2, 3 with k = 3.
    RANDOM_SEEDS = range(400)

    @staticmethod
    def _random_field(seed):
        """A seeded stratified complex over Q and the field assembled from
        the Moore-Penrose splittings of its strata."""
        s, _ = random_stratified_complex(random.Random(seed), max_rank=6,
                                         max_strata=5)
        W = assemble_field(s, {ai: moore_penrose(s.stratum(ai).complex)
                               for ai in s.occupied()})
        return s, W

    def test_random_fields_match_dense_powers(self):
        seen = Counter()
        for seed in self.RANDOM_SEEDS:
            s, W = self._random_field(seed)
            indices, k = iterate_flow(s, W)
            _, dense_k = dense_iterate_flow(s, W)
            assert (indices, k) == (dense_degree_indices(s, W), dense_k), seed
            seen[k] += 1
        assert sorted(seen) == [1, 2, 3]

    def test_random_non_stabilizing_fields_raise(self):
        # 2W still squares to zero.  On a stratum block, d(2W) + (2W)d is
        # twice the projection P = dD + Dd, so that diagonal block of the
        # flow is the involution I - 2P; where P != 0 no two powers agree.
        raised = 0
        for seed in self.RANDOM_SEEDS[:100]:
            s, W = self._random_field(seed)
            if all(m.is_zero() for m in W.mats):
                continue
            doubled = Homotopy(s.complex,
                               [m.scale(Fraction(2)) for m in W.mats])
            for iterate in (iterate_flow, dense_iterate_flow):
                with pytest.raises(VerificationError,
                                   match="stabilization bound exceeded"):
                    iterate(s, doubled)
            raised += 1
        assert raised >= 80   # 83 of these seeds give a nonzero field
