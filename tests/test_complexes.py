"""Posets, based complexes, stratifications, homology, strands."""

import random
from fractions import Fraction

import pytest

from chainflow.complexes import (
    BasedComplex, Poset, StratifiedComplex, homology_ranks, minimality_report,
    scalar_ring, strand,
)
from chainflow.errors import InputError
from chainflow.linalg import RingMatrix
from chainflow.scalars import QQ
from randgen import random_stratified_complex


def two_term(entry):
    """0 <- Q <- Q with the given differential entry."""
    ring = scalar_ring(QQ)
    d1 = RingMatrix(ring, [[ring.const(Fraction(entry))]])
    return BasedComplex(ring, [["a"], ["b"]], [[None], [None]], [d1])


class TestPoset:
    def test_linear_extension_enforced(self):
        with pytest.raises(InputError):
            Poset(["a", "b"], [frozenset({1}), frozenset()])

    def test_transitive_closure_enforced(self):
        with pytest.raises(InputError):
            # 0 < 1 < 2 but 0 not recorded below 2
            Poset([0, 1, 2], [frozenset(), frozenset({0}), frozenset({1})])

    def test_from_leq_reorders(self):
        poset = Poset.from_leq(
            ["top", "bottom"], lambda a, b: a == b or (a, b) == ("bottom", "top"))
        assert poset.elements == ["bottom", "top"]
        assert poset.index == {"bottom": 0, "top": 1}
        assert poset.leq(0, 1) and not poset.leq(1, 0)

    def test_depth_and_dimension(self):
        # chain 0 < 1 < 2 plus an isolated element 3
        poset = Poset([0, 1, 2, 3],
                      [frozenset(), frozenset({0}), frozenset({0, 1}), frozenset()])
        assert [poset.depth(i) for i in range(4)] == [0, 1, 2, 0]
        assert poset.dimension(range(4)) == 2
        assert poset.dimension({0, 3}) == 0
        assert poset.dimension(set()) == -1

    def test_cycle_rejected(self):
        with pytest.raises(InputError):
            Poset.from_leq([0, 1], lambda a, b: True)


class TestBasedComplex:
    def test_validate_catches_nonzero_square(self):
        ring = scalar_ring(QQ)
        one = ring.const(Fraction(1))
        d1 = RingMatrix(ring, [[one]])
        d2 = RingMatrix(ring, [[one]])
        c = BasedComplex(ring, [["a"], ["b"], ["c"]],
                         [[None], [None], [None]], [d1, d2])
        issues = c.validate()
        assert any("composite" in msg or "d_" in msg for msg in issues)

    def test_homology_ranks(self):
        c = two_term(2)
        assert homology_ranks(c) == [0, 0]
        czero = two_term(0)
        assert homology_ranks(czero) == [1, 1]

    def test_minimality_report(self):
        c = two_term(1)
        minimal, offenders = minimality_report(c)
        assert not minimal and offenders == [(1, 0, 0)]
        czero = two_term(0)
        assert minimality_report(czero) == (True, [])

    def test_random_complexes_square_to_zero(self):
        rng = random.Random(20260823)
        for _ in range(20):
            strat, hom = random_stratified_complex(rng)
            c = strat.complex
            assert c.validate() == []
            for n in range(2, c.top + 1):
                assert (c.d(n - 1) @ c.d(n)).is_zero()
            assert homology_ranks(c) == hom


class TestStratifiedComplex:
    def test_stratum_assignment_shape_checked(self):
        c = two_term(1)
        poset = Poset([0], [frozenset()])
        with pytest.raises(InputError):
            StratifiedComplex(c, poset, [[0], [0, 0]])

    def test_validate_flags_upward_entry(self):
        c = two_term(1)
        # two incomparable strata; the differential crosses between them
        poset = Poset([0, 1], [frozenset(), frozenset()])
        strat = StratifiedComplex(c, poset, [[0], [1]])
        issues = strat.validate()
        assert issues and "not below" in issues[0]

    def test_stratum_views_partition_basis(self):
        rng = random.Random(7)
        strat, _ = random_stratified_complex(rng)
        c = strat.complex
        seen = [set() for _ in range(c.top + 1)]
        for a, indices in strat.members.items():
            # each list ends at the stratum's own top degree
            assert indices and indices[-1]
            sub = strat.stratum(a)
            assert sub.ranks == [len(idx) for idx in indices]
            for n, idx in enumerate(indices):
                assert all(strat.strata[n][j] == a for j in idx)
                assert seen[n].isdisjoint(idx)
                seen[n].update(idx)
        for n in range(c.top + 1):
            assert seen[n] == set(range(c.rank(n)))

    def test_stratum_complexes_square_to_zero(self):
        rng = random.Random(8)
        for _ in range(10):
            strat, _ = random_stratified_complex(rng)
            for a in strat.occupied():
                sub = strat.stratum(a)
                assert sub.validate() == []


class TestStrand:
    def test_identity_graded_strand(self):
        # 0 <- R <- R, d = x over Q[x], graded by exponent
        from chainflow.linalg import PolyRing
        ring = PolyRing(QQ, ["x"])
        x = ring.var("x")
        d1 = RingMatrix(ring, [[x]])
        c = BasedComplex(ring, [["a"], ["b"]], [[(0,)], [(1,)]], [d1])
        s = strand(c, (1,))
        # degree-1 strand: span{x*a} <- span{b}, an isomorphism
        assert s.ranks == [1, 1]
        assert homology_ranks(s) == [0, 0]
        s0 = strand(c, (0,))
        assert s0.ranks == [1, 0]
