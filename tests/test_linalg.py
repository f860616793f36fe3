"""Exact linear algebra against an independent oracle (sympy), and the
pivots-only route against Gauss-Jordan elimination."""

import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from chainflow import complexes, flows, linalg, splittings
from chainflow.errors import InputError
from chainflow.linalg import (
    MultiPoly, PolyRing, RingMatrix, kernel, mp_inverse, pivot_columns, rref,
    s_mul, s_rank, s_inverse, s_transpose, solve,
)
from chainflow.monomial import MonomialIdeal, resolve_minimal, verify_resolution
from chainflow.scalars import GF, QQ, FunctionField

from helpers import fixture_ideal
from oracles import char_poly, mp_identities_hold


def rand_matrix(rng, nr, nc, lo=-4, hi=4):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(nc)] for _ in range(nr)]


def to_sympy(a):
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in a])


def naive_s_mul(field, a, b, nc):
    """Scalar product through the field's add and mul, one product at a
    time: the reference for ``s_mul`` over fields sympy does not have."""
    out = [[field.zero] * nc for _ in a]
    for i, arow in enumerate(a):
        for k, x in enumerate(arow):
            for j in range(nc):
                out[i][j] = field.add(out[i][j], field.mul(x, b[k][j]))
    return out


def naive_poly_mul(ring, p, q):
    f = ring.field
    out = {}
    for ka, ca in p.terms.items():
        for kb, cb in q.terms.items():
            k = ka + kb
            out[k] = f.add(out.get(k, f.zero), f.mul(ca, cb))
    return MultiPoly(ring, {k: v for k, v in out.items() if not f.is_zero(v)})


def naive_matmul(a, b):
    """RingMatrix product through naive polynomial products and sums."""
    ring = a.ring
    rows = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = ring.zero()
            for k in range(a.ncols):
                acc = acc + naive_poly_mul(ring, a.rows[i][k], b.rows[k][j])
            row.append(acc)
        rows.append(row)
    return RingMatrix(ring, rows, ncols=b.ncols)


def rand_coeff(field, rng):
    """A random coefficient, zero about a third of the time."""
    if rng.random() < 0.35:
        return field.zero
    if isinstance(field, FunctionField):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = [rng.randint(0, 2) for _ in range(field.nvars)]
            terms[field.keys.pack(exps)] = rng.randrange(1, field.p)
        return (terms, None)
    if field is QQ:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return field.from_int(rng.randrange(field.p))


def rand_ring_matrix(ring, rng, nr, nc):
    def entry():
        terms = {}
        for _ in range(rng.randint(0, 3)):
            c = rand_coeff(ring.field, rng)
            if not ring.field.is_zero(c):
                terms[ring.keys.pack([rng.randint(0, 2) for _ in ring.names])] = c
        return MultiPoly(ring, terms)
    return RingMatrix(ring, [[entry() for _ in range(nc)] for _ in range(nr)],
                      ncols=nc)


def poly_to_sympy(p, xs):
    out = sympy.Integer(0)
    for k, c in p.terms.items():
        term = sympy.Rational(c)
        for x, e in zip(xs, p.ring.keys.unpack(k)):
            term *= x ** e
        out += term
    return out


# (rows, inner, cols), including every zero dimension
SHAPES = [(0, 3, 2), (2, 3, 0), (2, 0, 3), (1, 1, 1), (3, 4, 2), (5, 5, 5),
          (4, 7, 3)]
# A row list cannot carry the column count of a 0 x n factor, so ``s_mul``
# takes no zero inner dimension; ``RingMatrix`` carries its shape and takes
# every one.
S_SHAPES = [shape for shape in SHAPES if shape[1]]


class TestEliminationOracle:
    def test_rank_matches_sympy(self):
        rng = random.Random(101)
        for _ in range(12):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            a = rand_matrix(rng, nr, nc)
            assert s_rank(QQ, a) == to_sympy(a).rank()

    def test_kernel_matches_sympy(self):
        rng = random.Random(102)
        for _ in range(12):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            a = rand_matrix(rng, nr, nc)
            ker = kernel(QQ, a, nc)
            assert len(ker) == nc - to_sympy(a).rank()
            for v in ker:
                out = [sum(row[j] * v[j] for j in range(nc)) for row in a]
                assert all(x == 0 for x in out)

    @pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
    def test_kernel_of_no_rows_or_zeros_is_the_unit_basis(self, field):
        unit = [[field.one if i == j else field.zero for i in range(3)]
                for j in range(3)]
        assert kernel(field, [], 3) == unit
        assert kernel(field, [[field.zero] * 3] * 2, 3) == unit
        assert kernel(field, [], 0) == []

    def test_solve(self):
        rng = random.Random(103)
        for _ in range(12):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            a = rand_matrix(rng, nr, nc)
            x0 = [Fraction(rng.randint(-3, 3)) for _ in range(nc)]
            b = [sum(row[j] * x0[j] for j in range(nc)) for row in a]
            x = solve(QQ, a, b)
            assert x is not None
            again = [sum(row[j] * x[j] for j in range(nc)) for row in a]
            assert again == b

    def test_solve_inconsistent(self):
        a = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
        assert solve(QQ, a, [Fraction(0), Fraction(1)]) is None

    def test_rref_idempotent_and_pivots(self):
        rng = random.Random(104)
        a = rand_matrix(rng, 4, 6)
        red, piv = rref(QQ, a)
        again, piv2 = rref(QQ, red)
        assert again == red and piv2 == piv

    def test_inverse(self):
        rng = random.Random(105)
        while True:
            a = rand_matrix(rng, 4, 4)
            if to_sympy(a).det() != 0:
                break
        inv = s_inverse(QQ, a)
        eye = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
        assert s_mul(QQ, a, inv) == eye

    def test_prime_field_rank(self):
        F = GF(5)
        a = [[1, 2, 3], [2, 4, 1], [3, 1, 4]]
        sp = sympy.Matrix(a)
        # rank over GF(5) via sympy nullspace mod p is awkward; use the
        # determinant as the independent cross-check instead
        det = int(sp.det()) % 5
        assert (s_rank(F, a) == 3) == (det != 0)


class TestProducts:
    """``s_mul`` and ``RingMatrix @`` against sympy over Q and Q[x, y], and
    against the add/mul fold over F_p and F_p(y)."""

    @pytest.mark.parametrize("shape", S_SHAPES)
    def test_s_mul_rationals(self, shape):
        nr, ni, nc = shape
        rng = random.Random(sum(shape))
        a = [[rand_coeff(QQ, rng) for _ in range(ni)] for _ in range(nr)]
        b = [[rand_coeff(QQ, rng) for _ in range(nc)] for _ in range(ni)]
        got = s_mul(QQ, a, b)
        assert len(got) == nr and all(len(row) == nc for row in got)
        assert all(type(x) is Fraction for row in got for x in row)
        want = sympy.Matrix(nr, ni, [sympy.Rational(x) for r in a for x in r]) \
            * sympy.Matrix(ni, nc, [sympy.Rational(x) for r in b for x in r])
        assert sympy.Matrix(nr, nc, [sympy.Rational(x) for r in got
                                     for x in r]) == want

    @pytest.mark.parametrize("shape", S_SHAPES)
    @pytest.mark.parametrize("field", [GF(2), GF(5),
                                       FunctionField(3, ["y1", "y2"])],
                             ids=["F2", "F5", "F3(y)"])
    def test_s_mul_fold(self, shape, field):
        nr, ni, nc = shape
        rng = random.Random(sum(shape) + field.char)
        a = [[rand_coeff(field, rng) for _ in range(ni)] for _ in range(nr)]
        b = [[rand_coeff(field, rng) for _ in range(nc)] for _ in range(ni)]
        assert s_mul(field, a, b) == naive_s_mul(field, a, b, nc)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_ring_matmul_rationals(self, shape):
        nr, ni, nc = shape
        R = PolyRing(QQ, ["x", "y"])
        xs = sympy.symbols("x y")
        rng = random.Random(50 + sum(shape))
        a = rand_ring_matrix(R, rng, nr, ni)
        b = rand_ring_matrix(R, rng, ni, nc)
        got = a @ b
        assert got.shape == (nr, nc)
        want = sympy.Matrix(nr, ni, [poly_to_sympy(e, xs) for r in a.rows
                                     for e in r]) \
            * sympy.Matrix(ni, nc, [poly_to_sympy(e, xs) for r in b.rows
                                    for e in r])
        for i in range(nr):
            for j in range(nc):
                assert sympy.expand(
                    poly_to_sympy(got.rows[i][j], xs) - want[i, j]) == 0

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("field", [GF(3), FunctionField(3, ["y1", "y2"])],
                             ids=["F3", "F3(y)"])
    def test_ring_matmul_fold(self, shape, field):
        self.check_fold(PolyRing(field, ["x", "y"]), random.Random(80 + sum(shape)),
                        shape)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("field", [QQ, GF(3), FunctionField(3, ["y1", "y2"])],
                             ids=["Q", "F3", "F3(y)"])
    def test_constant_ring_matmul_fold(self, shape, field):
        """With no ring variables the product takes its constants-only path."""
        self.check_fold(PolyRing(field, []), random.Random(90 + sum(shape)),
                        shape)

    @staticmethod
    def check_fold(R, rng, shape):
        nr, ni, nc = shape
        a = rand_ring_matrix(R, rng, nr, ni)
        b = rand_ring_matrix(R, rng, ni, nc)
        got = a @ b
        want = naive_matmul(a, b)
        assert got.shape == want.shape == (nr, nc)
        assert all(g.terms == w.terms
                   for gr, wr in zip(got.rows, want.rows)
                   for g, w in zip(gr, wr))

    def test_function_field_skips_add_and_mul(self, monkeypatch):
        """Denominator-free F_3(y) products never call the field's add or
        mul: each coefficient is accumulated raw and reduced once."""
        F = FunctionField(3, ["y1", "y2"])
        R = PolyRing(F, ["x", "y"])
        rng = random.Random(7)
        a = rand_ring_matrix(R, rng, 4, 5)
        b = rand_ring_matrix(R, rng, 5, 3)
        sa = [[rand_coeff(F, rng) for _ in range(5)] for _ in range(4)]
        sb = [[rand_coeff(F, rng) for _ in range(3)] for _ in range(5)]
        want = naive_matmul(a, b)
        want_s = naive_s_mul(F, sa, sb, 3)

        def refuse(*args):
            raise AssertionError("field add/mul called")

        monkeypatch.setattr(FunctionField, "add", refuse)
        monkeypatch.setattr(FunctionField, "mul", refuse)
        got = a @ b
        assert all(g.terms == w.terms
                   for gr, wr in zip(got.rows, want.rows)
                   for g, w in zip(gr, wr))
        assert s_mul(F, sa, sb) == want_s
        x = R.var("x")
        assert (a.rows[0][0] * x).terms == \
            {k + R.keys.pack([1, 0]): c for k, c in a.rows[0][0].terms.items()}


class TestCharPoly:
    def test_matches_sympy(self):
        rng = random.Random(106)
        for _ in range(8):
            n = rng.randint(1, 5)
            a = rand_matrix(rng, n, n)
            got = char_poly(a)
            lam = sympy.symbols("lam")
            want = sympy.Poly(to_sympy(a).charpoly(lam), lam).all_coeffs()
            assert [sympy.Rational(c) for c in got] == want


class TestPseudoinverse:
    def test_four_identities_random(self):
        rng = random.Random(107)
        for _ in range(10):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            a = rand_matrix(rng, nr, nc)
            ap = mp_inverse(a)
            assert mp_identities_hold(a, ap)

    def test_matches_sympy_pinv(self):
        rng = random.Random(108)
        for _ in range(5):
            nr, nc = rng.randint(1, 3), rng.randint(1, 3)
            a = rand_matrix(rng, nr, nc, -2, 2)
            got = to_sympy(mp_inverse(a))
            assert got == to_sympy(a).pinv()

    def test_zero_matrix(self):
        a = [[Fraction(0)] * 3 for _ in range(2)]
        ap = mp_inverse(a)
        assert len(ap) == 3 and len(ap[0]) == 2
        assert all(x == 0 for row in ap for x in row)


class TestPolyRing:
    def setup_method(self):
        self.R = PolyRing(QQ, ["x", "y"])

    def test_pack_round_trip(self):
        key = self.R.keys.pack([3, 5])
        assert self.R.keys.unpack(key) == (3, 5)

    def test_duplicate_names_rejected(self):
        with pytest.raises(InputError):
            PolyRing(QQ, ["x", "x"])

    def test_poly_arithmetic(self):
        R = self.R
        x = R.var("x")
        y = R.var("y")
        p = (x + y) * (x - y)
        q = x * x - y * y
        assert p.eq(q)
        assert not (p - q).terms

    def test_matrix_product_identity(self):
        R = self.R
        x = R.var("x")
        m = RingMatrix(R, [[x, R.one()], [R.zero(), x]])
        eye = RingMatrix.identity(R, 2)
        assert (m @ eye).eq(m)
        assert (eye @ m).eq(m)

    def test_scalar_detection(self):
        R = self.R
        m = RingMatrix(R, [[R.const(Fraction(1, 2))]])
        assert m.is_scalar()
        m2 = RingMatrix(R, [[R.var("x")]])
        assert not m2.is_scalar()


class TestSharedValues:
    """Entries are shared values: one zero per ring, and a sum with a zero
    operand is the other operand itself."""

    def setup_method(self):
        self.R = PolyRing(GF(5), ["x", "y"])

    def test_one_zero_per_ring(self):
        R = self.R
        zero = R.zero()
        assert R.zero() is zero
        assert R.const(R.field.zero) is zero
        assert R.monomial([1, 2], R.field.zero) is zero
        assert -zero is zero
        assert all(e is zero for row in RingMatrix.zeros(R, 2, 3).rows
                   for e in row)
        assert PolyRing(R.field, R.names).zero() is not zero

    def test_sums_with_zero_return_the_operand(self):
        R = self.R
        p = R.var("x") + R.const(2)
        zero = R.zero()
        assert p + zero is p
        assert zero + p is p
        assert p - zero is p
        assert (zero - p).eq(-p) and (zero - p).render() == "4*x + 3"
        assert p - p is zero
        assert p + -p is zero

    @pytest.mark.parametrize("names", [["x", "y"], []], ids=["poly", "const"])
    def test_zero_entries_of_a_product_are_the_ring_zero(self, names):
        R = PolyRing(GF(5), names)
        a = R.var("x") if names else R.const(2)
        b = R.var("y") if names else R.const(3)
        # row 0 cancels (a b - b a), row 1 has no factor pairs
        A = RingMatrix(R, [[a, b], [R.zero(), R.zero()]])
        B = RingMatrix(R, [[b, R.zero()], [-a, a]])
        P = A @ B
        assert P.rows[0][0] is R.zero()
        assert not P.rows[0][1].is_zero()
        assert all(e is R.zero() for e in P.rows[1])
        empty = RingMatrix(R, [], ncols=2) @ B
        assert empty.shape == (0, 2)
        assert all(e is R.zero() for row in (B @ RingMatrix.zeros(R, 2, 3)).rows
                   for e in row)

    def test_sum_with_a_zero_matrix_reuses_the_entries(self):
        # The flow homotopy H = X_0 + ... + X_{k-1} is such a sum: where a
        # later X_i is zero, H keeps the entry of the earlier one.
        R = self.R
        x, y = R.var("x"), R.var("y")
        A = RingMatrix(R, [[x, R.const(3)], [R.zero(), y]])
        Z = RingMatrix.zeros(R, 2, 2)
        for S in (A + Z, Z + A, A - Z):
            assert all(s is a for srow, arow in zip(S.rows, A.rows)
                       for s, a in zip(srow, arow))
        X = RingMatrix(R, [[R.zero(), x], [R.zero(), R.zero()]])
        H = A + X
        assert H.rows[0][0] is x and H.rows[1][1] is y
        assert H.rows[0][1].render() == "x + 3"


# ---------------------------------------------------------------------------
# pivot_columns: the pivots of rref, by forward elimination

FY = FunctionField(3, ["y1", "y2", "y3"])
PIVOT_FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3), "F7": GF(7), "F3(y)": FY}
# (field, with denominators); only Q and F_3(y) have denominators to draw
PIVOT_CASES = [("Q", False), ("Q", True), ("F2", False), ("F3", False),
               ("F7", False), ("F3(y)", False), ("F3(y)", True)]
PIVOT_TESTS = settings(derandomize=True, max_examples=100, deadline=None)


def field_values(name, denominators):
    """Values of the field ``name``, zero drawn often so that pivot
    searches skip rows and updates skip entries."""
    field = PIVOT_FIELDS[name]
    if name == "Q":
        ints = st.integers(-3, 3)
        nonzero = (st.builds(Fraction, ints, st.integers(1, 4))
                   if denominators else ints.map(Fraction))
    elif field is FY:
        monomials = st.lists(st.integers(0, 1), min_size=3, max_size=3)
        polys = st.dictionaries(monomials.map(FY.keys.pack),
                                st.integers(1, 2), min_size=1, max_size=2)
        nonzero = polys.map(lambda num: (num, None))
        if denominators:
            nonzero = st.builds(lambda a, b: FY.mul(a, FY.inv(b)),
                                nonzero, nonzero)
    else:
        nonzero = st.integers(1, field.p - 1)
    return st.one_of(st.just(field.zero), nonzero)


@st.composite
def matrices(draw, name, denominators):
    """A matrix of at most 6 x 6 over the field ``name``: entries drawn
    one by one, or a product through an inner dimension of at most 6, which
    is rank-deficient when that dimension is small.

    Over F_3(y) the rank stays at most 3 for entries drawn one by one and
    at most 2 for products.  ``FunctionField`` cancels no multivariate gcd,
    so each elimination step can double the degrees of the entries; dense
    6 x 6 matrices of linear forms ran past 3 s for each route.
    """
    field = PIVOT_FIELDS[name]
    values = field_values(name, denominators)
    direct = draw(st.booleans())
    nr = draw(st.integers(0, 6))
    nc = draw(st.integers(0, 3 if field is FY and direct and nr > 3 else 6))

    def block(rows, cols):
        return [[draw(values) for _ in range(cols)] for _ in range(rows)]

    if direct:
        return block(nr, nc)
    inner = draw(st.integers(0, 2 if field is FY else 6))
    if not inner:
        return [[field.zero] * nc for _ in range(nr)]
    return s_mul(field, block(nr, inner), block(inner, nc))


def assert_same_pivots(field, mat):
    copy = [list(row) for row in mat]
    want = rref(field, mat)[1]
    assert pivot_columns(field, mat) == want
    assert s_rank(field, mat) == len(want)
    assert mat == copy


@pytest.mark.parametrize("name, denominators", PIVOT_CASES)
@PIVOT_TESTS
@given(data=st.data())
def test_pivot_columns_match_rref(name, denominators, data):
    assert_same_pivots(PIVOT_FIELDS[name],
                       data.draw(matrices(name, denominators), label="mat"))


@pytest.mark.parametrize("name", PIVOT_FIELDS)
def test_pivot_columns_of_edge_shapes(name):
    field = PIVOT_FIELDS[name]
    one, zero = field.one, field.zero
    for mat in ([], [[]], [[], []], [[zero] * 4 for _ in range(3)],
                [[zero, zero, one, zero, one]], [[zero], [zero], [one], [one]],
                [[one] * 5], [[one] for _ in range(5)]):
        assert_same_pivots(field, mat)
    assert pivot_columns(field, [[zero, zero, one, zero, one]]) == [2]
    assert pivot_columns(field, [[zero], [zero], [one], [one]]) == [0]


@pytest.fixture(scope="module")
def critical_taylor():
    """cycle3 resolved over F_3 from the Taylor start, which averages over
    F_3(y): the arguments of its extraction and the resolution."""
    doc = fixture_ideal("cycle3")
    I = MonomialIdeal(doc["variables"], doc["generators"])
    with mock.patch.object(splittings, "extract_minimal_summand",
                           wraps=flows.extract_minimal_summand) as extract:
        res = resolve_minimal(I, 3, start="taylor")
    assert isinstance(res.resolution.ring.field, FunctionField)
    return I, res.resolution, extract.call_args.args


def rref_callers():
    """A stand-in for ``linalg.rref`` that records the name of each
    caller, and the list it records them in."""
    callers = []

    def counted(field, mat):
        callers.append(sys._getframe(1).f_code.co_name)
        return rref(field, mat)
    return mock.patch.object(linalg, "rref", counted), callers


def test_extraction_reads_pivots_without_rref(critical_taylor):
    _, _, args = critical_taylor
    patch, callers = rref_callers()
    with patch, mock.patch.object(flows, "pivot_columns",
                                  wraps=pivot_columns) as lookups:
        flows.extract_minimal_summand(*args)
    # one s_inverse per stratum and degree, where rref also took the pivots
    assert callers == ["s_inverse"] * 9
    assert lookups.call_count == 9
    field = args[0].complex.ring.field
    for call in lookups.call_args_list:
        assert call.args[0] is field
        assert_same_pivots(field, call.args[1])


def test_homology_ranks_over_a_function_field_skip_rref(critical_taylor):
    I, resolution, _ = critical_taylor
    patch, callers = rref_callers()
    with patch, mock.patch.object(complexes, "s_rank",
                                  wraps=s_rank) as ranks:
        assert verify_resolution(resolution, I)["ok"]
    assert callers == []
    assert ranks.call_count == 18
    for call in ranks.call_args_list:
        assert call.args[0] is resolution.ring.field
        assert_same_pivots(*call.args)
