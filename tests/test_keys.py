"""Packed exponent keys against the tuple-exponent oracle.

The layout round-trips at both widths.  The function-field arithmetic that
adds, subtracts and compares keys agrees with polynomials over exponent
tuples at the edge of the 8-bit range, where a sum of exponents can reach
256 and a carry would pass into the next variable.
"""

import pytest
from hypothesis import given, settings, strategies as st

from chainflow.errors import InputError, InternalError
from chainflow.keys import field_keys, monomial_text, ring_keys
from chainflow.scalars import FunctionField

from oracles import (
    FIELD_BITS, RING_BITS, exponent_key, key_exponents, tuple_content,
    tuple_divexact, tuple_mul, tuple_poly,
)

NAMES = ["a", "b", "c", "d"]
BOUNDARY = (0, 1, 127, 128, 254, 255)
TOP = 2 ** FIELD_BITS - 1
BOUNDARY_TESTS = settings(derandomize=True, max_examples=150, deadline=None)


@pytest.mark.parametrize("layout, bits", [(field_keys, FIELD_BITS),
                                          (ring_keys, RING_BITS)],
                         ids=["field", "ring"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_pack_round_trip(layout, bits, data):
    nvars = data.draw(st.integers(1, len(NAMES)))
    keys = layout(NAMES[:nvars])
    top = 2 ** bits - 1
    exps = data.draw(st.lists(st.integers(0, top) | st.just(top),
                              min_size=nvars, max_size=nvars))
    key = keys.pack(exps)
    assert key == exponent_key(exps, bits)
    assert keys.unpack(key) == key_exponents(key, nvars, bits) == tuple(exps)
    assert list(keys.factors(key)) == [(i, e) for i, e in enumerate(exps) if e]
    assert keys.text(key) == monomial_text(NAMES, exps)
    i = data.draw(st.integers(0, nvars - 1))
    for bad, side in ((top + 1, "above"), (-1, "below")):
        with pytest.raises(InputError, match=rf"exponent {bad} {side} the "
                           rf"packed range \[0, {top}\] for {NAMES[i]}$"):
            keys.pack(exps[:i] + [bad] + exps[i + 1:])


def field_and_polys(data, count, min_size=1):
    """F_p(a, b[, c]) and ``count`` tuple polynomials whose exponents sit at
    the edge of the packed range."""
    p = data.draw(st.sampled_from([2, 3]), label="p")
    nvars = data.draw(st.integers(2, 3), label="nvars")
    F = FunctionField(p, NAMES[:nvars])
    return F, [tuple_polys(data, F, BOUNDARY, min_size) for _ in range(count)]


def tuple_polys(data, F, exponents, min_size=1):
    """A tuple polynomial over ``F`` of at most three terms, with exponents
    drawn from ``exponents``."""
    exps = st.lists(st.sampled_from(exponents), min_size=F.nvars,
                    max_size=F.nvars).map(tuple)
    return data.draw(st.dictionaries(exps, st.integers(1, F.p - 1),
                                     min_size=min_size, max_size=3))


def packed(t):
    """The packed polynomial dict of the tuple polynomial ``t``."""
    return {exponent_key(e): c for e, c in t.items()}


def overflows(t):
    return any(e > TOP for exps in t for e in exps)


def carried_product(F, a, b):
    """The product of the tuple polynomials ``a`` and ``b`` with their keys
    added as plain ints, so an exponent past the range carries into the next
    variable; ``None`` if a carry leaves the last variable.  A division
    that missed the carry would take ``b`` for its quotient by ``a``."""
    out = {}
    for ka, ca in packed(a).items():
        for kb, cb in packed(b).items():
            out[ka + kb] = (out.get(ka + kb, 0) + ca * cb) % F.p
    if max(out) >> (FIELD_BITS * F.nvars):
        return None
    return tuple_poly({k: c for k, c in out.items() if c}, F.nvars)


@BOUNDARY_TESTS
@given(data=st.data())
def test_mul_raises_exactly_past_the_range(data):
    F, (a, b) = field_and_polys(data, 2)
    want = tuple_mul(F.p, a, b)
    if overflows(want):
        with pytest.raises(InternalError, match="exponent overflow"):
            F.pd_mul(packed(a), packed(b))
    else:
        assert tuple_poly(F.pd_mul(packed(a), packed(b)), F.nvars) == want


@BOUNDARY_TESTS
@given(data=st.data())
def test_exact_division_matches_the_oracle(data):
    F, (den, extra) = field_and_polys(data, 2)
    # small quotient exponents make a carry out of a middle variable likely
    q = tuple_polys(data, F, (0, 1, 128))
    product = tuple_mul(F.p, q, den)
    if not overflows(product):
        nums = [product, {**product, **extra}]
    else:
        carried = carried_product(F, den, q)
        nums = [q, extra] if carried is None else [carried]
    num = data.draw(st.sampled_from(nums), label="num")
    want = tuple_divexact(F.p, num, den)
    got = F._pd_divexact(packed(num), packed(den))
    assert (got if got is None else tuple_poly(got, F.nvars)) == want


@BOUNDARY_TESTS
@given(data=st.data())
def test_normalize_keeps_the_value(data):
    F, (num, den) = field_and_polys(data, 2, min_size=0)
    if not den:
        return
    n2, d2 = F._normalize(packed(num), packed(den))
    one = {(0,) * F.nvars: 1}
    assert (tuple_mul(F.p, tuple_poly(n2, F.nvars), den)
            == tuple_mul(F.p, num, one if d2 is None
                         else tuple_poly(d2, F.nvars)))


@BOUNDARY_TESTS
@given(data=st.data())
def test_eq_matches_the_oracle(data):
    F, (na, da, nb, db) = field_and_polys(data, 4)
    a = (packed(na), data.draw(st.sampled_from([None, packed(da)])))
    if data.draw(st.booleans(), label="copy"):
        b = (dict(a[0]), a[1] and dict(a[1]))
    else:
        b = (packed(nb), data.draw(st.sampled_from([None, packed(db)])))
    if a == b:
        assert F.eq(a, b)
        return
    if a[1] is None and b[1] is None:
        assert not F.eq(a, b)
        return
    one = {(0,) * F.nvars: 1}
    da1 = one if a[1] is None else da
    db1 = one if b[1] is None else db
    left, right = tuple_mul(F.p, na, db1), tuple_mul(F.p, nb, da1)
    if overflows(left) or overflows(right):
        with pytest.raises(InternalError, match="exponent overflow"):
            F.eq(a, b)
    else:
        assert F.eq(a, b) == (left == right)


@BOUNDARY_TESTS
@given(data=st.data())
def test_content_matches_the_oracle(data):
    F, (t,) = field_and_polys(data, 1)
    want = exponent_key(tuple_content(list(t)))
    assert F.keys.content(list(packed(t))) == want
