"""Field arithmetic: rationals, prime fields, rational function fields."""

import random
import time
from fractions import Fraction

import pytest
import sympy

from chainflow.cli import main
from chainflow.errors import InputError, InternalError
from chainflow.keys import field_keys
from chainflow.scalars import (
    _MR_BASES, _MR_LIMIT, GF, QQ, FunctionField, _is_prime,
    field_descriptor, field_from_descriptor, prime_field,
)

from helpers import poly
from oracles import exponent_key, heap_divmod, key_exponents, tuple_content


def divexact_oracle(F, num, den):
    """Exact division by repeated ``max`` leading-term search: the quadratic
    reference that ``FunctionField._pd_divexact`` must agree with."""
    p = F.p
    lk = max(den)
    inv_lc = pow(den[lk], p - 2, p)
    rem = dict(num)
    quot = {}
    while rem:
        rk = max(rem)
        if not F.keys.divides(lk, rk):
            return None
        qk = rk - lk
        qc = (rem[rk] * inv_lc) % p
        quot[qk] = qc
        for kb, cb in den.items():
            k = qk + kb
            v = (rem.get(k, 0) - qc * cb) % p
            if v:
                rem[k] = v
            elif k in rem:
                del rem[k]
    return quot


def clear_oracle(F, vec):
    """Scale by the product of the distinct denominators through the field
    multiplication, dividing each denominator back out."""
    dens = []
    for _, den in vec:
        if den is not None and den not in dens:
            dens.append(den)
    if not dens:
        return list(vec)
    mult = {0: 1}
    for d in dens:
        mult = F.pd_mul(mult, d)
    return [F.mul(v, (mult, None)) for v in vec]


def fold_oracle(F, pairs):
    """Sum of a*b through the field's add and mul, one product at a time:
    the reference that ``dot`` must agree with."""
    total = F.zero
    for a, b in pairs:
        total = F.add(total, F.mul(a, b))
    return total


def content_key_oracle(F, keys):
    """Largest key dividing every key, from the least exponent of each
    variable over the unpacked keys."""
    if not keys:
        return 0
    return exponent_key(tuple_content(
        [key_exponents(k, F.nvars) for k in keys]))


def affine_rest_oracle(F, indices):
    """``1 - sum of y_i`` by one polynomial subtraction per variable: the
    loop that ``FunctionField.pd_affine_rest`` replaced."""
    out = F.pd_const(1)
    for i in indices:
        out = dict(out)
        for k, c in F.pd_var(i).items():
            v = (out.get(k, 0) - c) % F.p
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def random_poly(F, rng, terms, max_exp, constant=True):
    """A random nonzero polynomial dict; with ``constant=False`` it has a
    term of positive degree."""
    while True:
        out = {}
        for _ in range(terms):
            exps = [rng.randint(0, max_exp) for _ in range(F.nvars)]
            out[F.keys.pack(exps)] = rng.randrange(1, F.p)
        if constant or any(out.keys() - {0}):
            return out


class TestRationals:
    def test_ops(self):
        a, b = Fraction(3, 4), Fraction(-2, 5)
        assert QQ.add(a, b) == Fraction(7, 20)
        assert QQ.mul(a, b) == Fraction(-3, 10)
        assert QQ.inv(b) == Fraction(-5, 2)
        assert QQ.eq(QQ.mul(a, QQ.inv(b)), a / b)
        assert QQ.is_zero(QQ.sub(a, a))
        assert QQ.from_int(-7) == Fraction(-7)
        assert QQ.render(Fraction(1, 3)) == "1/3"


class TestPrimeField:
    def test_ops(self):
        F = GF(7)
        assert F.add(5, 4) == 2
        assert F.mul(3, 5) == 1
        assert F.inv(3) == 5
        assert F.neg(0) == 0
        assert F.eq(F.from_int(-1), 6)
        with pytest.raises(ZeroDivisionError):
            F.inv(0)

    def test_requires_prime(self):
        with pytest.raises(InputError):
            GF(6)
        with pytest.raises(InputError):
            GF(1)

    def test_interned(self):
        assert GF(5) is GF(5)

    def test_prime_field_of_a_characteristic(self):
        assert prime_field(0) is QQ
        assert prime_field(5) is GF(5)
        with pytest.raises(InputError):
            prime_field(4)


def strong_probable_prime(n, a):
    """Whether odd ``n`` passes the Miller-Rabin round to base ``a``."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(
        pow(x, 2 ** i, n) == n - 1 for i in range(1, s))


class TestPrimality:
    def test_matches_sympy_on_small_numbers(self):
        assert [n for n in range(-3, 20000) if _is_prime(n)] == \
            list(sympy.primerange(20000))

    def test_matches_sympy_below_the_limit(self):
        rng = random.Random(11)
        for bits in range(20, _MR_LIMIT.bit_length()):
            n = rng.getrandbits(bits) | 1
            p = sympy.nextprime(n)
            if p < _MR_LIMIT:
                assert _is_prime(p)
            assert _is_prime(n) == sympy.isprime(n)

    # The last three are (6k+1)(12k+1)(18k+1) with no factor among the
    # bases, so the Miller-Rabin rounds, not the base divisions, decide them.
    @pytest.mark.parametrize("n", [561, 1105, 1729, 2465, 2821, 6601, 8911,
                                   41041, 825265, 321197185, 9746347772161,
                                   56052361, 172947529, 1299963601])
    def test_carmichael_numbers(self, n):
        # Korselt: squarefree and p - 1 | n - 1 for each prime factor p.
        factors = sympy.factorint(n)
        assert len(factors) > 1 and all(
            e == 1 and (n - 1) % (p - 1) == 0 for p, e in factors.items())
        assert not _is_prime(n)

    @pytest.mark.parametrize("n, bases", [
        (2047, 1),                       # 23 * 89, base 2
        (3215031751, 4),                 # 151 * 751 * 28351, bases 2..7
        (318665857834031151167461, 12),  # bases 2..37
    ])
    def test_strong_pseudoprimes(self, n, bases):
        assert all(strong_probable_prime(n, a) for a in _MR_BASES[:bases])
        assert not sympy.isprime(n)
        assert not _is_prime(n)

    def test_limit_is_a_strong_pseudoprime_to_every_base(self):
        assert all(strong_probable_prime(_MR_LIMIT, a) for a in _MR_BASES)
        assert not sympy.isprime(_MR_LIMIT)
        with pytest.raises(InputError, match="cannot certify"):
            _is_prime(_MR_LIMIT)
        assert not _is_prime(_MR_LIMIT + 1)   # even: decided by its factor 2

    def test_largest_certified_primes(self):
        assert _is_prime(sympy.prevprime(_MR_LIMIT))
        assert _is_prime(10 ** 18 + 3)
        with pytest.raises(InputError, match="cannot certify"):
            _is_prime(2 ** 127 - 1)

    @pytest.mark.parametrize("char, rc, err", [
        ("1000000000000000003", 0, "critical primes"),
        (str(2 ** 127 - 1), 2, "cannot certify"),
        (str(10 ** 40), 2, "must be 0 or a prime"),
    ])
    def test_cli_answers_at_once(self, char, rc, err, tmp_path, capsys):
        # Trial division ran for longer than 10 s on 10^18 + 3.
        t = time.perf_counter()
        got = main(["resolve", "--fixture", "cycle3", "--char", char,
                    "--out", str(tmp_path / "art.json")])
        elapsed = time.perf_counter() - t
        out = capsys.readouterr()
        assert got == rc
        assert err in out.out + out.err
        assert elapsed < 1.0


class TestPackedExponents:
    def test_round_trip(self):
        exps = [3, 0, 17, 1]
        key = field_keys("abcd").pack(exps)
        assert field_keys("abcd").unpack(key) == tuple(exps)
        assert field_keys("abcdef").unpack(key) == (3, 0, 17, 1, 0, 0)


class TestFunctionField:
    def setup_method(self):
        self.F = FunctionField(3, ["y1", "y2", "y3"])

    def poly(self, s):
        return poly(self.F, s)

    def test_pd_mul(self):
        F = self.F
        a = self.poly("y1 + 2*y2")
        b = self.poly("y1 + y2")
        # (y1 + 2 y2)(y1 + y2) = y1^2 + 3 y1 y2 + 2 y2^2 = y1^2 + 2 y2^2 mod 3
        assert F.pd_mul(a, b) == self.poly("y1^2 + 2*y2^2")

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_pd_affine_rest_matches_oracle(self, p):
        F = FunctionField(p, [f"y{i}" for i in range(8)])
        for indices in ([], [0], [0, 1, 2], [1, 4, 2], [7, 3], range(8)):
            got = F.pd_affine_rest(indices)
            want = affine_rest_oracle(F, indices)
            assert got == want
            assert list(got.items()) == list(want.items())
            assert F.pd_render(got) == F.pd_render(want)
        assert F.pd_affine_rest([]) == {0: 1}

    def test_render_parse_round_trip(self):
        F = self.F
        # rendering is canonical (terms in decreasing packed-key order), so
        # parse(render(.)) is the identity on polynomial dicts
        for s in ("0", "1", "2*y1^2*y3 + y2", "y1 + y2 + y3"):
            d = self.poly(s)
            assert self.poly(F.pd_render(d)) == d
        assert F.pd_render(self.poly("y1 + y2 + y3")) == "y3 + y2 + y1"

    def test_exact_division_cancels(self):
        F = self.F
        # (y1^2 - y2^2) / (y1 - y2) should normalise to the polynomial y1 + y2
        num = self.poly("y1^2 + 2*y2^2")
        den = self.poly("y1 + 2*y2")
        q = F._normalize(num, den)
        assert q == (self.poly("y1 + y2"), None)

    def test_single_variable_gcd_cancels(self):
        F = self.F
        # (y1^2 - 1) / (y1^2 + y1 - 2) = (y1 + 1) / (y1 + 2): gcd y1 - 1
        val = F._normalize(self.poly("y1^2 + 2"), self.poly("y1^2 + y1 + 1"))
        assert F.render(val) == "(y1 + 1)/(y1 + 2)"

    def test_monomial_content_cancels(self):
        F = self.F
        num = F.pd_mul(self.poly("y1*y2"), self.poly("y1 + y3"))
        den = self.poly("y1*y2^2")
        val = F._normalize(num, den)
        # shared content y1*y2 must be stripped
        assert val == (self.poly("y1 + y3"), self.poly("y2"))

    def test_eq_cross_multiplies(self):
        F = self.F
        a = (self.poly("y1"), self.poly("y2"))
        b = (self.poly("y1*y3"), self.poly("y2*y3"))
        assert F.eq(a, b)
        assert not F.eq(a, (self.poly("y1"), self.poly("y3")))

    def test_inv_mul_round_trip(self):
        F = self.F
        a = (self.poly("y1 + y2"), self.poly("y3"))
        assert F.eq(F.mul(a, F.inv(a)), (self.poly("1"), None))
        with pytest.raises(ZeroDivisionError):
            F.inv(({}, None))

    def test_clear_vector_denominators(self):
        F = self.F
        vec = [(self.poly("y1"), self.poly("y2")), (self.poly("2"), None)]
        cleared = F.clear_vector_denominators(vec)
        assert all(den is None for _, den in cleared)
        # cleared = y2 * vec, entrywise
        assert cleared[0] == (self.poly("y1"), None)
        assert cleared[1] == (self.poly("2*y2"), None)

    def test_eliminations_are_metadata(self):
        # the eliminated weight of an affine family is not a field variable;
        # it is recorded as a polynomial in the surviving transcendentals
        from chainflow.splittings import build_extension_field
        field, weights = build_extension_field({"a": 2}, 2)
        assert isinstance(field, FunctionField)
        assert field.names == ("y[a][1]",)
        assert field.pd_render(field.eliminations["y[a][0]"]) == "y[a][1] + 1"
        w0, w1 = weights["a"]
        # the two weights sum to one
        s = field.add(w0, w1)
        assert field.eq(s, field.one)

    def test_substitute(self):
        F = self.F
        val = (self.poly("y1 + y2"), None)
        out = F.substitute(val, {0: self.poly("y2")})
        assert out == (self.poly("2*y2"), None)


class TestExactDivision:
    @pytest.mark.parametrize("p", [3, 5])
    def test_matches_oracle(self, p):
        F = FunctionField(p, ["y1", "y2", "y3", "y4"])
        rng = random.Random(p)
        for _ in range(150):
            a = random_poly(F, rng, rng.randint(1, 8), 4)
            b = random_poly(F, rng, rng.randint(1, 6), 3, constant=False)
            prod = F.pd_mul(a, b)
            q = F._pd_divexact(prod, b)
            assert q == a
            # same leading-term sequence, hence the same insertion order
            assert list(q.items()) == list(
                divexact_oracle(F, prod, b).items())
            # b is not a unit, so b cannot divide a*b + c for a constant c
            inexact = F.pd_add(prod, F.pd_const(rng.randrange(1, p)))
            assert divexact_oracle(F, inexact, b) is None
            assert F._pd_divexact(inexact, b) is None
            # an unrelated pair: both agree, exact or not
            c = random_poly(F, rng, rng.randint(1, 6), 3)
            assert F._pd_divexact(c, b) == divexact_oracle(F, c, b)

    @pytest.mark.parametrize("p", [3, 5])
    def test_divmod_matches_the_heap_loop(self, p):
        """The up-front leading-term test gives the same quotient and
        remainder, in the same order, whether the first term fails or
        not."""
        F = FunctionField(p, ["y1", "y2", "y3"])
        rng = random.Random(200 + p)
        first_fails = 0
        for _ in range(200):
            den = random_poly(F, rng, rng.randint(1, 5), 3, constant=False)
            a = random_poly(F, rng, rng.randint(1, 5), 3)
            rest = random_poly(F, rng, rng.randint(1, 4), 4)
            for num in (F.pd_mul(a, den), F.pd_add(F.pd_mul(a, den), rest),
                        rest, {}):
                got, want = F._pd_divmod(num, den), heap_divmod(F, num, den)
                assert [list(d.items()) for d in got] == [
                    list(d.items()) for d in want]
                first_fails += bool(num) and not want[0]
        assert 50 < first_fails < 750

    @pytest.mark.parametrize("p", [3, 5])
    def test_clear_vector_denominators_matches_oracle(self, p):
        F = FunctionField(p, ["y1", "y2", "y3"])
        rng = random.Random(100 + p)
        for _ in range(60):
            dens = [random_poly(F, rng, rng.randint(1, 3), 2, constant=False)
                    for _ in range(rng.randint(1, 3))]
            vec = []
            for _ in range(rng.randint(1, 6)):
                num = random_poly(F, rng, rng.randint(1, 4), 2)
                roll = rng.random()
                if roll < 0.2:
                    vec.append(F.zero)
                elif roll < 0.4:
                    vec.append((num, None))
                else:
                    # a fresh copy: equal denominators are distinct objects
                    vec.append(F._normalize(num, dict(rng.choice(dens))))
            cleared = F.clear_vector_denominators(vec)
            assert cleared == clear_oracle(F, vec)
            assert all(den is None for _, den in cleared)

    def test_equal_denominators_counted_once(self):
        F = FunctionField(3, ["y1", "y2"])
        d1, d2 = poly(F, "y1 + y2"), poly(F, "y1 + y2")
        assert d1 is not d2
        vec = [(poly(F, "y1"), d1), (poly(F, "y2"), d2),
               (poly(F, "1"), None)]
        cleared = F.clear_vector_denominators(vec)
        assert cleared == [(poly(F, "y1"), None),
                           (poly(F, "y2"), None),
                           (poly(F, "y2 + y1"), None)]
        assert cleared == clear_oracle(F, vec)


class TestExponentOverflow:
    def setup_method(self):
        self.F = FunctionField(3, ["a", "b"])

    def test_product_overflow_raises(self):
        F = self.F
        with pytest.raises(InternalError, match="exponent overflow"):
            F.pd_mul(F.pd_var(0, 200), F.pd_var(0, 100))
        with pytest.raises(InternalError, match="exponent overflow"):
            F.pd_mul_acc({}, F.pd_var(0, 200), F.pd_var(0, 100))

    def test_guard_bits_without_overflow(self):
        F = self.F
        # both operands set guard bits, but in different variables
        assert F.pd_mul(F.pd_var(0, 200), F.pd_var(1, 100)) == \
            {F.keys.pack([200, 100]): 1}
        assert F.pd_render(F.pd_mul(poly(F, "a^200 + b"),
                                    poly(F, "a^55"))) == "a^55*b + a^255"
        acc = {}
        F.pd_mul_acc(acc, F.pd_var(0, 128), F.pd_var(0, 127))
        assert F.pd_reduce(acc) == F.pd_var(0, 255)

    def test_division_that_would_carry_is_inexact(self):
        F = FunctionField(2, ["a", "b"])
        # a * a^255 would pack to the key of b and cancel the term b
        num, den = poly(F, "a*b^255 + b"), poly(F, "b^255 + a^255")
        assert F._pd_divexact(num, den) is None
        assert F.render(F._normalize(num, den)) == \
            "(a*b^255 + b)/(b^255 + a^255)"

    def test_eq_past_the_cross_product_range(self):
        F = FunctionField(2, ["a", "b"])
        v = F.mul((poly(F, "a^255*b^255"), None),
                  F.inv((poly(F, "b^255 + a^255"), None)))
        assert F.render(v) == "(a^255*b^255)/(b^255 + a^255)"
        assert F.eq(v, v)
        assert F.eq(v, F.parse(F.render(v)))
        # other values still cross-multiply, which leaves the packed range
        with pytest.raises(InternalError, match="exponent overflow"):
            F.eq(v, F.parse("(a^255*b^255)/(b^255 + a)"))

    @staticmethod
    def eliminating(text):
        """A field descriptor whose one elimination is ``text``."""
        return {"p": 3, "transcendentals": ["a", "b"],
                "eliminations": {"c": text}}

    def test_parse_rejects_out_of_range_exponent(self):
        for text, message in [
                ("a^300", "exponent 300 above the packed range"),
                ("a^200*a^56", "exponent 256 above the packed range"),
                ("a^x", "at 1: unexpected text"),
                ("a*z", "at 2: expected a name or a number"),
                ("a/b", "at 1: unexpected text"),
                ("(a)/(b)", "has a denominator")]:
            with pytest.raises(InputError, match=message):
                field_from_descriptor(self.eliminating(text))
        F = field_from_descriptor(self.eliminating("a^255"))
        assert F.eliminations == {"c": F.pd_var(0, 255)}


class TestDot:
    """``dot`` against the add/mul fold in every field."""

    def test_rationals(self):
        rng = random.Random(11)
        for n in (0, 1, 2, 7, 30):
            pairs = [(Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                      Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
                     for _ in range(n)]
            got = QQ.dot(pairs)
            assert type(got) is Fraction
            assert got == fold_oracle(QQ, pairs)
        assert QQ.dot([]) == 0 and type(QQ.dot([])) is Fraction
        # integer values are rationals too
        assert QQ.dot([(2, Fraction(1, 3)), (Fraction(1, 2), 3)]) == \
            Fraction(13, 6)

    def test_rationals_cancel_to_zero(self):
        pairs = [(Fraction(1, 6), Fraction(3, 4)), (Fraction(-1, 8), 1)]
        got = QQ.dot(pairs)
        assert got == 0 and type(got) is Fraction
        assert got.denominator == 1

    def test_rationals_many_denominators(self):
        pairs = [(Fraction(1, k), Fraction(1)) for k in range(1, 201)]
        want = fold_oracle(QQ, pairs)
        got = QQ.dot(pairs)
        assert got == want
        assert (got.numerator, got.denominator) == \
            (want.numerator, want.denominator)
        # a generator is consumed once
        assert QQ.dot((Fraction(1, k), k) for k in range(1, 201)) == 200

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_prime_field(self, p):
        F = GF(p)
        rng = random.Random(p)
        for n in (0, 1, 5, 40):
            pairs = [(rng.randrange(p), rng.randrange(p)) for _ in range(n)]
            got = F.dot(pairs)
            assert got == fold_oracle(F, pairs) and 0 <= got < p
        assert F.dot([(1, 1), (p - 1, 1)]) == 0
        assert F.dot([]) == 0

    @pytest.mark.parametrize("p", [3, 5])
    def test_function_field_polynomials(self, p):
        F = FunctionField(p, ["y1", "y2", "y3"])
        rng = random.Random(20 + p)
        for n in (1, 2, 6):
            pairs = [((random_poly(F, rng, rng.randint(1, 5), 3), None),
                      (random_poly(F, rng, rng.randint(1, 5), 3), None))
                     for _ in range(n)]
            assert F.dot(pairs) == fold_oracle(F, pairs)
        assert F.dot([]) == F.zero

    def test_function_field_cancels_to_zero(self):
        F = FunctionField(3, ["y1", "y2"])
        a = (poly(F, "y1 + 2*y2"), None)
        b = (poly(F, "y1^2 + y2"), None)
        assert F.dot([(a, b), (F.neg(a), b)]) == F.zero
        assert F.dot([(a, b), (b, F.neg(a))]) == ({}, None)

    @pytest.mark.parametrize("p", [3, 5])
    def test_function_field_denominators(self, p):
        F = FunctionField(p, ["y1", "y2", "y3"])
        rng = random.Random(40 + p)
        fractions = 0
        for _ in range(30):
            pairs = []
            for _ in range(rng.randint(1, 5)):
                a = (random_poly(F, rng, rng.randint(1, 4), 2), None)
                if rng.random() < 0.4:
                    den = random_poly(F, rng, rng.randint(1, 3), 2,
                                      constant=False)
                    a = F._normalize(a[0], den)
                b = (random_poly(F, rng, rng.randint(1, 4), 2), None)
                pairs.append((a, b) if rng.random() < 0.5 else (b, a))
            want = fold_oracle(F, pairs)
            got = F.dot(pairs)
            assert F.eq(got, want)
            assert F.render(got) == F.render(want)
            fractions += got[1] is not None
        assert fractions >= 10


class TestContentKey:
    @pytest.mark.parametrize("p", [3, 5])
    def test_matches_oracle(self, p):
        rng = random.Random(60 + p)
        for nvars in (1, 4, 40):
            F = FunctionField(p, [f"y{i}" for i in range(nvars)])
            for _ in range(80):
                a = random_poly(F, rng, rng.randint(1, 8), 4)
                # a common monomial factor, so the content is often nonzero
                shift = F.keys.pack(
                    [rng.choice((0, 0, 1, 3)) for _ in range(nvars)])
                keys = [k + shift for k in a]
                assert F.keys.content(keys) == content_key_oracle(F, keys)
            assert F.keys.content([]) == 0

    def test_largest_exponents(self):
        F = FunctionField(5, ["a", "b", "c"])
        keys = [F.keys.pack(e) for e in ([255, 7, 0], [254, 255, 1])]
        assert F.keys.content(keys) == F.keys.pack([254, 7, 0])
        assert F.keys.content(keys) == content_key_oracle(F, keys)


class TestFieldDescriptors:
    def test_rationals(self):
        assert field_descriptor(QQ) == "Q"
        assert field_from_descriptor("Q") is QQ

    @pytest.mark.parametrize("desc", [
        "QQ", "rationals", 0, 5, {"q": 5},
        # values of the wrong type are rejected, never converted
        {"p": 5.0}, {"p": True}, {"p": 3, "transcendentals": "xy"},
        {"p": 3, "transcendentals": ["x", 1]},
        {"p": 3, "transcendentals": ["x"], "note": 1},
        {"p": 3, "transcendentals": ["x"], "eliminations": ["x"]},
        {"p": 3, "transcendentals": ["x"], "eliminations": {"y": 1}},
    ])
    def test_unwritten_spellings_rejected(self, desc):
        with pytest.raises(InputError, match="unrecognised field descriptor"):
            field_from_descriptor(desc)

    def test_prime_field(self):
        d = field_descriptor(GF(5))
        assert field_from_descriptor(d) is GF(5)

    def test_unknown_field_object(self):
        with pytest.raises(InputError, match="unknown field object"):
            field_descriptor(object())

    def test_function_field_round_trip(self):
        F = FunctionField(3, ["y1", "y2"], "generic affine weights")
        F.eliminations["y1"] = poly(F, "1 + 2*y2")
        d = field_descriptor(F)
        G = field_from_descriptor(d)
        assert isinstance(G, FunctionField)
        assert G.p == 3 and G.names == F.names
        assert G.eliminations == F.eliminations
        assert field_descriptor(G) == d
