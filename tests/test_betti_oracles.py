"""Full Betti tables of the resolve pipelines against simplicial homology
that shares no code with the package (``tests/oracles.py``)."""

import re

import pytest

from chainflow.errors import SearchBoundError
from chainflow.monomial import MonomialIdeal, resolve_minimal
from chainflow.toric import BettiCategoryData, resolve_toric

from helpers import fixture_ideal, ideal_doc
from oracles import monomial_betti_oracle, toric_betti_oracle
from test_cli import RP2
from test_toric import _semi23_three_objects

# cycle2 with the Taylor start over F_5 is left out: 5 divides the 6960
# matroidal choices of its top stratum, and that average over F_5(y) does
# not finish in minutes.
MONOMIAL_RUNS = [
    (name, start, char)
    for name in ("cycle2", "cycle3") for start in ("lcm", "taylor")
    for char in (0, 5, 7) if (name, start, char) != ("cycle2", "taylor", 5)
] + [("cycle3", "taylor", 2), ("cycle3", "taylor", 3), ("cycle2", "lcm", 3),
     ("cycle11", "lcm", 0)]


@pytest.mark.parametrize("name, start, char", MONOMIAL_RUNS,
                         ids=lambda v: str(v))
def test_monomial_betti_tables(name, start, char):
    doc = ideal_doc(name)
    I = MonomialIdeal(doc["variables"], doc["generators"])
    betti = resolve_minimal(I, char, start=start).report["betti"]
    assert betti == monomial_betti_oracle(
        doc["variables"], doc["generators"], char)


def _semigroup23():
    doc = fixture_ideal("semigroup23")
    return BettiCategoryData(doc["variables"], doc["deg_map"],
                             doc["objects"], doc["morphisms"])


@pytest.mark.parametrize("piece, char", [
    ("semigroup23", 0), ("semigroup23", 2), ("semigroup23", 3),
    ("three_objects", 0), ("three_objects", 5),
], ids=lambda v: str(v))
def test_toric_betti_tables(piece, char):
    data = (_semigroup23() if piece == "semigroup23"
            else _semi23_three_objects())
    betti = resolve_toric(data, char).report["betti"]
    top = [max(o[k] for o in data.objects) for k in range(data.dim)]
    assert betti == toric_betti_oracle(data.deg_map, top, char)


def test_oracles_on_known_tables():
    # the twisted cubic's monomial cousin (x^2, xy, y^2) has Betti numbers
    # 3 and 2; the semigroup <3, 4, 5> has 1, 3, 2
    assert monomial_betti_oracle(["x", "y"], [[2, 0], [1, 1], [0, 2]], 0) \
        == {0: {"x*y": 1, "x^2": 1, "y^2": 1}, 1: {"x*y^2": 1, "x^2*y": 1}}
    table = toric_betti_oracle([[3, 4, 5]], [14], 0)
    assert {i: sum(row.values()) for i, row in table.items()} == \
        {0: 1, 1: 3, 2: 2}


def test_rp2_tables_and_the_characteristic_2_frontier():
    # RP^2 has H~_1 = F_2 over F_2 and 0 over Q and F_3, so its
    # Stanley-Reisner ideal has one more syzygy module in characteristic 2:
    # an extra Betti number at x1...x6 in homological degrees 2 and 3.  The
    # resolve over Q matches the oracle (test_cli); over F_2 the matroidal
    # average needs the top stratum's count, and its option search is
    # refused at once.
    names, gens = RP2["variables"], RP2["generators"]
    q = monomial_betti_oracle(names, gens, 0)
    assert {i: sum(row.values()) for i, row in q.items()} == \
        {0: 10, 1: 15, 2: 6}
    assert monomial_betti_oracle(names, gens, 3) == q
    f2 = monomial_betti_oracle(names, gens, 2)
    assert {i: sum(row.values()) for i, row in f2.items()} == \
        {0: 10, 1: 15, 2: 7, 3: 1}
    top = "x1*x2*x3*x4*x5*x6"
    assert f2[0] == q[0] and f2[1] == q[1]
    assert f2[2] == {**q[2], top: 1} and f2[3] == {top: 1}
    with pytest.raises(SearchBoundError, match=re.escape(f"stratum {top}: ")):
        resolve_minimal(MonomialIdeal(names, gens), 2)
