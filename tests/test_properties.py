"""Property tests on random small monomial ideals.

Each ideal is resolved in eight ways: characteristic 0 in Moore-Penrose and
matroidal mode, characteristics 2 and 3, each from the lcm and the Taylor
start.  With at most three variables the Koszul complexes have no torsion,
so the Betti table cannot depend on the characteristic and all eight must
agree.
"""

import json
from itertools import product
from unittest import mock

from hypothesis import given, settings, strategies as st

from chainflow import flows, splittings
from chainflow.monomial import MonomialIdeal, resolve_minimal
from chainflow.serialize import complex_from_json, complex_to_json, dumps

from helpers import assert_same_summand
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
        res, (s, W, k, cores) = _resolve(I, char, mode, start)
        tables.append(res.report["betti"])
        text = dumps(complex_to_json(res.resolution))
        assert dumps(complex_to_json(complex_from_json(json.loads(text)))) == text
        if res.report["critical_strata"]:
            Pi, dense_k = dense_iterate_flow(s, W)
            assert dense_k == k
            assert_same_summand(res.resolution,
                                dense_extract_minimal_summand(s, Pi, cores))
    assert all(t == tables[0] for t in tables)
