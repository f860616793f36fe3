"""Property tests on random small monomial ideals, and on the coefficient
text of rational function fields.

Each ideal is resolved in eight ways: characteristic 0 in Moore-Penrose and
matroidal mode, characteristics 2 and 3, each from the lcm and the Taylor
start.  With at most three variables the Koszul complexes have no torsion,
so the Betti table cannot depend on the characteristic and all eight must
agree.

Values of F_p(y) with weight names like ``y[v0^2*v1][1]`` parse back from
their rendered text, and a one-character edit of that text parses or raises
``InputError``, never another exception.
"""

import json
from itertools import product
from unittest import mock

from hypothesis import given, settings, strategies as st

from chainflow import flows, splittings
from chainflow.errors import InputError
from chainflow.monomial import MonomialIdeal, resolve_minimal
from chainflow.scalars import FunctionField
from chainflow.serialize import complex_from_json, complex_to_json, dumps

from helpers import assert_same_summand, assert_stable_flow
from oracles import dense_extract_minimal_summand, dense_iterate_flow

RESOLVES = [(char, mode, start)
            for char, mode in [(0, "moore_penrose"), (0, "matroidal_average"),
                               (2, None), (3, None)]
            for start in ("lcm", "taylor")]


@st.composite
def small_ideals(draw):
    nvars = draw(st.integers(2, 3))
    monomials = [e for e in product(range(3), repeat=nvars) if any(e)]
    return MonomialIdeal("xyz"[:nvars], draw(st.lists(
        st.sampled_from(monomials), min_size=2, max_size=4)))


def _resolve(I, char, mode, start):
    """The resolve and the arguments its extraction was called with."""
    with mock.patch.object(splittings, "extract_minimal_summand",
                           wraps=flows.extract_minimal_summand) as extract:
        res = resolve_minimal(I, char, start=start, mode=mode)
    return res, extract.call_args.args


@settings(derandomize=True, max_examples=25, deadline=None)
@given(small_ideals())
def test_resolves_agree(I):
    tables = []
    for char, mode, start in RESOLVES:
        res, (s, H, cores) = _resolve(I, char, mode, start)
        tables.append(res.report["betti"])
        text = dumps(complex_to_json(res.resolution))
        assert dumps(complex_to_json(complex_from_json(json.loads(text)))) == text
        if res.report["critical_strata"]:
            Pi, dense_k = dense_iterate_flow(s, res.homotopy)
            assert dense_k == res.report["iterations"]
            assert_stable_flow(s, H, Pi)
            assert_same_summand(res.resolution,
                                dense_extract_minimal_summand(s, Pi, cores))
    assert all(t == tables[0] for t in tables)


# Stratum labels of the shape the weight names carry; ``v0`` starts ``v0^2``
# and ``v0^2*v1`` starts ``v0^2*v1*v2``, so the names share long prefixes.
LABELS = ["v0", "v0^2", "v0^2*v1", "v0^2*v1*v2", "e12*e23"]
EDIT_CHARACTERS = " +*^()/-0"


@st.composite
def function_field_values(draw):
    """A field F_p(y) with weight names ``y[label][j]`` and one value in it,
    a polynomial or a fraction."""
    p = draw(st.sampled_from([2, 3, 5]))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3,
                           unique=True))
    names = [f"y[{a}][{j}]" for a in labels
             for j in range(1, draw(st.integers(1, 3)) + 1)]
    if draw(st.booleans()):
        # names that start other names, as y1 starts y10 in the cycle family
        names += ["y", "y1", "y10", "y11"]
    F = FunctionField(p, names)

    def polynomial(min_size, exponent):
        terms = draw(st.lists(
            st.tuples(st.integers(1, p - 1),
                      st.lists(exponent, min_size=len(names),
                               max_size=len(names))),
            min_size=min_size, max_size=4))
        return F.pd_reduce({F.keys.pack(e): c for c, e in terms})

    exponent = st.integers(0, 3) | st.just(F.keys.mask)
    if draw(st.booleans()):
        return F, (polynomial(0, exponent), None)
    num, den = (polynomial(size, exponent) for size in (0, 1))
    if not den:
        return F, (num, None)
    return F, F.mul((num, None), F.inv((den, None)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(function_field_values())
def test_function_field_parse_inverts_render(fv):
    F, v = fv
    text = F.render(v)
    back = F.parse(text)
    assert F.eq(back, v)
    assert F.render(back) == text


@settings(derandomize=True, max_examples=300, deadline=None)
@given(function_field_values(), st.data())
def test_function_field_parse_of_edited_text(fv, data):
    F, v = fv
    text = F.render(v)
    if data.draw(st.booleans(), label="insert"):
        i = data.draw(st.integers(0, len(text)), label="at")
        ch = data.draw(st.sampled_from(EDIT_CHARACTERS), label="character")
        edited = text[:i] + ch + text[i:]
    else:
        at = [i for i, ch in enumerate(text) if ch in EDIT_CHARACTERS]
        if not at:
            return
        i = data.draw(st.sampled_from(at), label="at")
        edited = text[:i] + text[i + 1:]
    try:
        F.parse(edited)
    except InputError:
        pass
