"""Homotopies, classification, the hat correction, flows and projection."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from chainflow.complexes import (
    BasedComplex, Poset, StratifiedComplex, scalar_ring,
)
from chainflow.errors import InputError, VerificationError
from chainflow.flows import (
    Homotopy, affine_combination, assemble_field, classify, hat,
    iterate_flow, moore_penrose,
)
from chainflow.linalg import PolyRing, RingMatrix
from chainflow.monomial import order_complex_resolution
from chainflow.scalars import GF, QQ, FunctionField
from chainflow.splittings import stratum_core
from chainflow import cyclefam, flows
import golden_data as G
from helpers import (
    assert_same_summand, assert_stable_flow, extract_counting_projections,
    fixture_ideal, split_one_stratum, zero_homotopy,
)
from oracles import (
    dense_degree_indices, dense_extract_minimal_summand, dense_iterate_flow,
    flow, flow_is_chain_map, mp_identities_hold, weak_partial_decomposition,
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


def int_complex(ring, ranks, diffs, maps):
    """A complex with the given ranks and a homotopy on it, both from
    integer rows: ``diffs[n]`` is d_{n+1} and ``maps[n]`` is D_n."""
    def mat(rows, ncols):
        return RingMatrix(ring, [[ring.const(ring.field.from_int(v)) for v in r]
                                 for r in rows],
                          ncols=ncols)
    c = BasedComplex(ring, [[f"e{n}.{i}" for i in range(r)]
                            for n, r in enumerate(ranks)],
                     [None] * len(ranks),
                     [mat(m, ranks[n + 1]) for n, m in enumerate(diffs)])
    return c, Homotopy(c, [mat(m, ranks[n]) for n, m in enumerate(maps)])


def conjugate(c, D, x):
    """``c`` and ``D`` in the basis changed by the unimodular
    ``P_n = I + x E_01`` (n even) or ``I + x E_10`` (n odd) wherever
    ``F_n`` has rank at least 2: ``d'_n = P_{n-1} d_n P_n^{-1}`` and
    ``D'_n = P_{n+1} D_n P_n^{-1}``.  Every homotopy identity holds for
    ``(c', D')`` exactly when it holds for ``(c, D)``."""
    ring = c.ring

    def P(n, sign):
        m = RingMatrix.identity(ring, c.rank(n))
        if c.rank(n) >= 2:
            i, j = (0, 1) if n % 2 == 0 else (1, 0)
            m.rows[i][j] = x if sign > 0 else -x
        return m

    diffs = [P(n - 1, 1) @ c.d(n) @ P(n, -1) for n in range(1, c.top + 1)]
    c2 = BasedComplex(ring, c.labels, c.multidegrees, diffs)
    return c2, Homotopy(c2, [P(n + 1, 1) @ D.D(n) @ P(n, -1)
                             for n in range(c.top)])


def harmonic_twist(c, D):
    """``D + Z`` with ``Z_n = u v^T`` for a Moore-Penrose splitting ``D`` of
    ``c``: ``v`` and ``u`` are the first core vectors of the lowest degrees
    ``n`` and ``n + 1`` that both have a core.  ``None`` when no two
    adjacent degrees do.

    The core of ``D`` is the harmonic part ``Ker d ∩ (Im d)^⊥``, which is
    orthogonal to ``Im d`` and to ``Im D``.  So ``d Z``, ``Z d``, ``D Z``
    and ``Z D`` vanish, and ``Z`` lives in one degree: ``D + Z`` squares to
    zero and has the flow block of ``D``, but
    ``(D + Z) d (D + Z) = D != D + Z``."""
    cores = stratum_core(D)
    ring = c.ring
    for n in range(len(cores) - 1):
        if cores[n] and cores[n + 1]:
            u, v = cores[n + 1][0], cores[n][0]
            mats = list(D.mats)
            mats[n] = mats[n] + RingMatrix(
                ring, [[ring.const(a * b) for b in v] for a in u], ncols=len(v))
            return Homotopy(c, mats)
    return None


# Each case: ranks, the rows of d_1.., the rows of D_0.., and the flags
# (pre-vector field, vector field, partial splitting, splitting).  Each
# case but the splitting breaks one identity and no identity it does not
# force to break: D D d != d D D forces D^2 != 0, and D^2 != 0 with
# D D d = d D D forces D d D != D (D_{n+1} D_n = D_{n+1} D_n d D_n
# = d D_{n+2} D_{n+1} D_n, and repeating gives d d (...) = 0).
FLAG_CASES = {
    "splitting": ([1, 2, 1], [[[1, 0]], [[0], [1]]],
                  [[[1], [0]], [[0, 1]]], (True, True, True, True)),
    "D^2 != 0": ([2, 2, 1], [[[1, 0], [0, 0]], [[0], [0]]],
                 [[[1, 0], [0, 1]], [[0, 1]]], (True, False, False, False)),
    "DDd != dDD": ([1, 2, 1], [[[1, 0]], [[0], [1]]],
                   [[[1], [0]], [[1, 1]]], (False, False, False, False)),
    "DdD != D": ([2, 2], [[[1, 0], [0, 0]]], [[[1, 0], [0, 1]]],
                 (True, True, False, False)),
    "dDd != d": ([2, 2], [[[1, 0], [0, 1]]], [[[1, 0], [0, 0]]],
                 (True, True, True, False)),
}


@pytest.fixture(scope="module")
def hexagon():
    I = cyclefam.build_Ip(3).ideal
    s = order_complex_resolution(I, QQ)
    top = max(s.occupied(),
              key=lambda a: len(s.members[a][1]) if len(s.members[a]) > 1 else 0)
    return s.stratum(top)


class TestHomotopy:
    @pytest.mark.parametrize("count", [0, 2])
    def test_wrong_number_of_maps_raises(self, count):
        # two_term has top 1, so it takes exactly one map D_0
        c = two_term(3)
        mats = [RingMatrix.zeros(c.ring, c.rank(1), c.rank(0))] * count
        with pytest.raises(InputError, match=f"has {count} maps but the "
                                             "complex needs 1"):
            Homotopy(c, mats)


class TestClassify:
    def test_zero_homotopy(self):
        c = two_term(3)
        D = zero_homotopy(c)
        cls = classify(D)
        assert cls.is_pre_vector_field and cls.is_vector_field
        assert cls.is_partial_splitting      # D d D = 0 = D holds trivially
        assert not cls.is_splitting          # d D d = 0 != d

    def test_splitting_two_term(self):
        c = two_term(2)
        D = scalar_homotopy(c, 0, [[Fraction(1, 2)]])
        cls = classify(D)
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
        weak, pieces = weak_partial_decomposition(c, adj)
        assert weak
        assert not classify(adj).is_partial_splitting
        # the N+C+M pieces fill every degree
        for n in range(c.top + 1):
            assert sum(len(basis) for basis in pieces[n]) == c.rank(n)

    @pytest.mark.parametrize("case", FLAG_CASES)
    @pytest.mark.parametrize("field", [QQ, GF(5), FunctionField(5, ["y"])],
                             ids=["Q", "F5", "F5(y)"])
    def test_flags_per_broken_identity(self, case, field):
        ranks, diffs, maps, want = FLAG_CASES[case]
        c, D = int_complex(scalar_ring(field), ranks, diffs, maps)
        cls = classify(D)
        assert (cls.is_pre_vector_field, cls.is_vector_field,
                cls.is_partial_splitting, cls.is_splitting) == want

    @pytest.mark.parametrize("case", FLAG_CASES)
    def test_flags_on_non_scalar_complex(self, case):
        ranks, diffs, maps, want = FLAG_CASES[case]
        R = PolyRing(QQ, ["x"])
        c, D = conjugate(*int_complex(R, ranks, diffs, maps), R.var("x"))
        assert not (c.is_scalar() and all(m.is_scalar() for m in D.mats))
        cls = classify(D)
        assert (cls.is_pre_vector_field, cls.is_vector_field,
                cls.is_partial_splitting, cls.is_splitting) == want


class TestHat:
    def test_fixes_splittings(self, hexagon):
        D = moore_penrose(hexagon)
        H = hat(D)
        for n in range(hexagon.top):
            assert H.D(n).eq(D.D(n))

    def test_postcondition_failure_raises(self):
        # hat checks nothing itself; classify is the certificate, and it
        # rejects the hat of a homotopy with dDd = 4d != d.
        c = two_term(2)
        bad = scalar_homotopy(c, 0, [[1]])
        assert not classify(hat(bad)).is_splitting

    def test_unverified_hat_returns_raw_formula(self):
        c = two_term(2)
        bad = scalar_homotopy(c, 0, [[1]])
        H = hat(bad)
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
        cls = classify(moore_penrose(hexagon))
        assert cls.is_splitting


class TestAffineCombination:
    def test_weights_must_be_affine(self, hexagon):
        D = moore_penrose(hexagon)
        with pytest.raises(VerificationError, match="sum to 1"):
            affine_combination(hexagon, [(Fraction(1, 2), D)])
        with pytest.raises(InputError):
            affine_combination(hexagon, [])

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
    def test_non_scalar_complex(self, field):
        # d_1 = [1, x] and D_0 = [[1], [0]] over k[x]: d D d = d holds, and
        # the half-and-half combination of D with itself is D.
        R = PolyRing(field, ["x"])
        d1 = RingMatrix(R, [[R.one(), R.var("x")]])
        c = BasedComplex(R, [["a"], ["b", "c"]], [None, None], [d1])
        D = Homotopy(c, [RingMatrix(R, [[R.one()], [R.zero()]])])
        half = field.inv(field.from_int(2))
        A = affine_combination(c, [(half, D), (half, D)])
        assert A.D(0).eq(D.D(0))

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
            c = s.stratum(a)
            if c.ranks == [1, 2]:
                D, work, m = split_one_stratum(c, 0, "matroidal_average")
                col = [e.constant_term() for row in D.D(0).rows for e in row]
                assert col == [Fraction(1, 2), Fraction(1, 2)]
                assert classify(D).is_splitting
                assert m == 2
                return
        pytest.fail("no edge-pair stratum found")

    def test_edge_pair_average_char2_generic_weights(self):
        I = cyclefam.build_Ip(3).ideal
        s = order_complex_resolution(I, GF(2))
        for a in s.occupied():
            c = s.stratum(a)
            if c.ranks == [1, 2]:
                D, work, _ = split_one_stratum(c, 2, "matroidal_average",
                                               tag="epair")
                F = work.ring.field
                assert F.names == ("y[epair][1]",)
                col = [F.render(e.constant_term())
                       for row in D.D(0).rows for e in row]
                # first weight eliminated as 1 + y, second is y itself
                assert col == ["y[epair][1] + 1", "y[epair][1]"]
                assert classify(D).is_splitting
                return
        pytest.fail("no edge-pair stratum found")

    def test_moore_penrose_mode_rejects_char_p(self, hexagon):
        with pytest.raises(InputError):
            split_one_stratum(hexagon, 5, "moore_penrose")


def one_stratum(c):
    """``c`` stratified with every basis element in one stratum."""
    return StratifiedComplex(c, Poset([0], [frozenset()]),
                             [[0] * r for r in c.ranks])


class TestAssembleField:
    def test_nonzero_square_raises(self):
        # the flag case with D^2 != 0: D_1 D_0 = [[0, 1]]
        ranks, diffs, maps, _ = FLAG_CASES["D^2 != 0"]
        c, D = int_complex(scalar_ring(QQ), ranks, diffs, maps)
        assert not (D.D(1) @ D.D(0)).is_zero()
        with pytest.raises(VerificationError,
                           match="assembled field does not square to zero"):
            assemble_field(one_stratum(c), {0: D})

    @pytest.mark.parametrize("other", ["differential", "ranks"])
    def test_homotopy_off_its_stratum_raises(self, other):
        # d_1 = [2] on the stratified complex; the homotopy lives on a
        # complex with d_1 = [1], or on one of ranks [1, 2]
        s = one_stratum(two_term(2))
        ring = s.complex.ring
        c = two_term(1) if other == "differential" else BasedComplex(
            ring, [["a"], ["b", "c"]], [[None], [None, None]],
            [RingMatrix.zeros(ring, 1, 2)])
        with pytest.raises(InputError, match="not on its stratum complex"):
            assemble_field(s, {0: zero_homotopy(c)})

    def test_homotopy_off_the_occupied_strata_raises(self):
        # the one stratum is 0; 5 used to be dropped, leaving W = 0
        s = one_stratum(two_term(1))
        D = moore_penrose(s.stratum(0))
        with pytest.raises(InputError, match="no occupied stratum 5"):
            assemble_field(s, {5: D})


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
        assert res.report["iterations"] == k
        c = res.start.complex
        # Pi is idempotent and commutes with the flow (Pi * Phi = Pi)
        phi = flow(c, res.homotopy)
        for n in range(c.top + 1):
            assert (Pi[n] @ Pi[n]).eq(Pi[n])
            assert (Pi[n] @ phi[n]).eq(Pi[n])
        assert flow_is_chain_map(c, Pi)

    def test_flow_homotopy_keeps_entries_that_later_steps_leave_alone(self):
        # H = X_0 + X_1 with X_0 = W: wherever X_1 is zero, H holds W's own
        # entry object, and a new one only where X_1 adds to it.
        from chainflow.monomial import MonomialIdeal, resolve_minimal
        doc = fixture_ideal("cycle2")
        I = MonomialIdeal(doc["variables"], doc["generators"])
        res = resolve_minimal(I, 0, "lcm", "moore_penrose")
        W = res.homotopy
        _, k, H = iterate_flow(res.start, W)
        assert k == 2
        kept = Counter()
        for h_mat, w_mat in zip(H.mats, W.mats):
            for h_row, w_row in zip(h_mat.rows, w_mat.rows):
                for h, w in zip(h_row, w_row):
                    assert (h is w) == (h - w).is_zero()
                    kept[h is w] += 1
        assert kept[True] and kept[False]

    # Seeds 0..399 give 364 fields with k = 1, 33 with k = 2, 3 with k = 3.
    RANDOM_SEEDS = range(400)
    # How the flow learns whether every block of W is a partial splitting
    # (see iterate_flow): from the verdicts that classify kept before the
    # assembly, from those that assemble_field has classify form for raw
    # splittings, or not at all, for a copy of the field that carries no
    # record and so takes the plain step.
    ROUTES = ("certified", "raw", "ambient")

    @classmethod
    def _random_fields(cls, seed, twist=False):
        """A seeded stratified complex ``s`` over Q, the field assembled
        from the Moore-Penrose splittings of its strata along each route,
        and those splittings: ``(s, {route: W}, splittings)``.

        With ``twist``, each splitting that :func:`harmonic_twist` changes
        is replaced by its twist, a vector field that is not a partial
        splitting; ``None`` when no splitting changes."""
        s, _ = random_stratified_complex(random.Random(seed), max_rank=6,
                                         max_strata=5)
        splits, twisted = {}, set()
        for ai in s.occupied():
            D = moore_penrose(s.stratum(ai))
            T = harmonic_twist(D.complex, D) if twist else None
            if T is not None:
                D = T
                twisted.add(ai)
            splits[ai] = D
        if twist and not twisted:
            return None
        fields = {}
        for route in cls.ROUTES:
            # fresh homotopies, so that no route sees another's verdicts
            fresh = {ai: Homotopy(D.complex, D.mats) for ai, D in splits.items()}
            if route == "certified":
                for ai, D in fresh.items():
                    flags = classify(D)
                    assert flags.is_vector_field
                    assert flags.is_partial_splitting is (ai not in twisted)
            W = assemble_field(s, fresh)
            if route == "ambient":
                W = Homotopy(s.complex, W.mats)
            fields[route] = W
        return s, fields, splits

    def test_random_fields_match_dense_powers(self):
        seen = Counter()
        for seed in self.RANDOM_SEEDS:
            s, fields, _ = self._random_fields(seed)
            Pi, dense_k = dense_iterate_flow(s, fields["raw"])
            want = (dense_degree_indices(s, fields["raw"]), dense_k)
            for route, W in fields.items():
                *got, H = iterate_flow(s, W)
                assert tuple(got) == want, (route, seed)
                assert_stable_flow(s, H, Pi)
            seen[dense_k] += 1
        assert seen == {1: 364, 2: 33, 3: 3}

    def test_random_vector_fields_with_excess_match_dense_powers(self):
        # Twisted fields keep W^2 = 0 and each diagonal block of the flow,
        # but have excess W - W delta W != 0, so the flow takes the plain
        # step.  Some stabilize and some do not; iterate_flow must agree
        # with dense powers on both.
        seen = Counter()
        for seed in self.RANDOM_SEEDS:
            twisted = self._random_fields(seed, twist=True)
            if twisted is None:
                continue
            s, fields, _ = twisted
            try:
                Pi, dense_k = dense_iterate_flow(s, fields["raw"])
            except VerificationError:
                dense_k = None
            for route, W in fields.items():
                if dense_k is None:
                    with pytest.raises(VerificationError,
                                       match="stabilization bound exceeded"):
                        iterate_flow(s, W)
                else:
                    *got, H = iterate_flow(s, W)
                    assert tuple(got) == (
                        dense_degree_indices(s, W), dense_k), (route, seed)
                    assert_stable_flow(s, H, Pi)
            seen[dense_k] += 1
        # 226 seeds twist a splitting: 135 of those fields stabilize with
        # k = 1, 10 with k = 2, 1 with k = 3, and 80 never do
        assert seen == {1: 135, 2: 10, 3: 1, None: 80}

    def test_random_non_stabilizing_fields_raise(self):
        # 2W still squares to zero.  On a stratum block, d(2W) + (2W)d is
        # twice the projection P = dD + Dd, so that diagonal block of the
        # flow is the involution I - 2P; where P != 0 no two powers agree.
        raised = 0
        for seed in self.RANDOM_SEEDS[:100]:
            s, fields, _ = self._random_fields(seed)
            W = fields["raw"]
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

    def test_random_fields_extract_like_dense_projection(self):
        seen = Counter()
        for seed in self.RANDOM_SEEDS:
            s, fields, splits = self._random_fields(seed)
            cores = {ai: stratum_core(D)
                     for ai, D in splits.items()}
            Pi, dense_k = dense_iterate_flow(s, fields["raw"])
            want = dense_extract_minimal_summand(s, Pi, cores)
            for W in fields.values():
                got, projections = extract_counting_projections(
                    s, iterate_flow(s, W)[2], cores)
                assert_same_summand(got, want)
                # d V, H(d V) and d of the projection, whatever k is
                assert all(m <= 3 for m in projections.values())
            seen[dense_k] += 1
        assert seen == {1: 364, 2: 33, 3: 3}

    def test_only_partial_fields_step_on_nu_alone(self, monkeypatch):
        # A field of partial splittings takes the step W(-nu X) every time;
        # the copy of it without the record, and every twisted field, never
        # do.
        calls = []
        nu_step = flows._nu_step

        def spy(*args):
            calls.append(None)
            return nu_step(*args)

        monkeypatch.setattr(flows, "_nu_step", spy)
        steps = Counter()
        for seed in self.RANDOM_SEEDS:
            s, fields, _ = self._random_fields(seed)
            for route, W in fields.items():
                calls.clear()
                taken = max(iterate_flow(s, W)[0])
                assert len(calls) == (0 if route == "ambient" else taken)
                steps[route] += taken
            twisted = self._random_fields(seed, twist=True)
            calls.clear()
            for W in (twisted[1].values() if twisted else ()):
                try:
                    iterate_flow(twisted[0], W)
                except VerificationError:
                    pass
            assert not calls, seed
        # 377 steps on each route over the 400 seeds
        assert steps == {route: 377 for route in self.ROUTES}
