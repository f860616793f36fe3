"""Elimination and pseudoinverses over Q on integer rows, against the
generic Gauss-Jordan loop and the Decell characteristic-polynomial oracle.

Every example is compared with ``==``: the reduced row echelon form and the
Moore-Penrose pseudoinverse are unique, so any exact method must return the
same values.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainflow import linalg
from chainflow.cli import main
from chainflow.linalg import _gauss_jordan, mp_inverse, rref
from chainflow.scalars import QQ

from oracles import decell_mp_inverse, mp_identities_hold

CYCLE11 = (Path(__file__).resolve().parent.parent / "bench" / "inputs"
           / "cycle11.json")

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)

# Zero about a third of the time, otherwise p/q with |p| <= 9 and q <= 7.
ENTRIES = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-9, max_value=9,
                                 max_denominator=7))


def rows(nr, nc):
    return st.lists(st.lists(ENTRIES, min_size=nc, max_size=nc),
                    min_size=nr, max_size=nr)


@st.composite
def rational_matrices(draw, min_dim=0, max_dim=6):
    """An nr x nc rational matrix: either entrywise random, or a product of
    nr x k and k x nc factors, so of rank at most k (k = 0 gives zero)."""
    nr = draw(st.integers(min_dim, max_dim))
    nc = draw(st.integers(min_dim, max_dim))
    if not draw(st.booleans()):
        return draw(rows(nr, nc))
    k = draw(st.integers(0, min(nr, nc)))
    left, right = draw(rows(nr, k)), draw(rows(k, nc))
    return [[sum((x * right[t][j] for t, x in enumerate(lrow)), Fraction(0))
             for j in range(nc)] for lrow in left]


def q(*rows_):
    return [[Fraction(x) for x in row] for row in rows_]


EDGE_CASES = [
    q([0, 0, 0], [0, 0, 0]),                # zero
    q([0]),                                 # 1 x 1 zero
    q([Fraction(3, 4)]),                    # 1 x 1
    q([0, Fraction(-2, 3), 5, 0]),          # 1 x n
    q([0], [Fraction(7, 2)], [-1]),         # n x 1
    q([1, 2, 3], [2, 4, 6], [-1, -2, -3]),  # rank 1
    q([Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]),
]


def check_rref(a):
    got = rref(QQ, a)
    assert got == _gauss_jordan(QQ, a)
    assert all(type(x) is Fraction for row in got[0] for x in row)


def check_mp_inverse(a):
    got = mp_inverse(a)
    assert got == decell_mp_inverse(a)
    if a and a[0]:
        assert all(type(x) is Fraction for row in got for x in row)
        assert mp_identities_hold(a, got)


class TestRationalRref:
    @PROPERTY
    @given(rational_matrices())
    def test_matches_generic(self, a):
        check_rref(a)

    @pytest.mark.parametrize("a", EDGE_CASES)
    def test_edge_cases(self, a):
        check_rref(a)

    def test_no_columns_and_no_rows(self):
        assert rref(QQ, [[], []]) == ([[], []], [])
        assert rref(QQ, []) == ([], [])

    def test_input_unchanged(self):
        a = q([0, 2, 4], [3, 1, 0])
        copy = [list(r) for r in a]
        rref(QQ, a)
        assert a == copy


class TestMpInverse:
    @PROPERTY
    @given(rational_matrices())
    def test_matches_decell(self, a):
        check_mp_inverse(a)

    @pytest.mark.parametrize("a", EDGE_CASES)
    def test_edge_cases(self, a):
        check_mp_inverse(a)


def record_calls(monkeypatch, name, keep):
    """Record the arguments of every call of ``linalg.<name>`` for which
    ``keep(*args)`` holds, under every name the package binds it to."""
    original = getattr(linalg, name)
    calls = []

    def recorder(*args):
        if keep(*args):
            calls.append([[list(r) for r in arg] if isinstance(arg, list)
                          else arg for arg in args])
        return original(*args)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("chainflow")
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, recorder)
    return calls


@pytest.mark.parametrize("argv", [
    ["--fixture", "cycle2"],
    ["--fixture", "cycle3"],
    ["--in", str(CYCLE11)],
], ids=["cycle2", "cycle3", "cycle11"])
def test_every_call_of_the_mp_runs(argv, monkeypatch, tmp_path, capsys):
    """Every pseudoinverse and every Q row reduction that the Moore-Penrose
    runs make agrees with the oracle and the generic loop."""
    mp_calls = record_calls(monkeypatch, "mp_inverse", lambda a: True)
    rref_calls = record_calls(monkeypatch, "rref",
                              lambda field, mat: field.char == 0)
    rc = main(["resolve", *argv, "--char", "0", "--start", "lcm",
               "--mode", "mp", "--out", str(tmp_path / "art.json")])
    assert rc == 0, capsys.readouterr().err
    assert mp_calls and rref_calls
    for (a,) in mp_calls:
        check_mp_inverse(a)
    seen = set()
    for _, a in rref_calls:
        key = tuple(map(tuple, a))
        if key not in seen:
            seen.add(key)
            check_rref(a)
