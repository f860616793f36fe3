"""JSON serialisation of complexes, homotopies and stratifications.

Formats are plain JSON with deterministic key order so artifacts are
byte-identical across runs:

* a complex: ``{"field": ..., "ring_vars": [...], "top": n,
  "basis": [[{"label": ..., "multidegree": [...]?}, ...], ...],
  "diff": [matrix, ...], "deg_map": [[...]]?}``
* a matrix: list of rows; each entry is a map from a comma-joined exponent
  key to a coefficient string (``{}`` is zero)
* a field: ``"Q"``, ``{"p": p}``, or for F_p(y) ``{"p": p,
  "transcendentals": [...], "note": ...?, "eliminations": {...}?}``, each
  elimination a rendered polynomial in the transcendentals
* coefficients: the field's ``render``, read back by its ``parse``; the
  grammar is in the :mod:`~chainflow.scalars` docstring.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager

from .errors import InputError
from .scalars import field_descriptor, field_from_descriptor
from .linalg import MultiPoly, PolyRing, RingMatrix
from .complexes import BasedComplex, Poset, StratifiedComplex
from .flows import Homotopy

__all__ = [
    "complex_to_json",
    "complex_from_json",
    "homotopy_to_json",
    "homotopy_from_json",
    "stratified_to_json",
    "stratified_from_json",
    "dumps",
]


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- polynomial entries ------------------------------------------------------

_EXPONENT_KEY = re.compile(r"[0-9]+(?:,[0-9]+)*")


def entry_to_map(e: MultiPoly) -> dict:
    ring = e.ring
    field = ring.field
    out = {}
    for k in sorted(e.terms):
        exps = ring.keys.unpack(k)
        out[",".join(str(x) for x in exps)] = field.render(e.terms[k])
    return out


def entry_from_map(ring: PolyRing, m: dict) -> MultiPoly:
    field = ring.field
    terms = {}
    for key, cs in m.items():
        if key and not _EXPONENT_KEY.fullmatch(key):
            raise ValueError(f"bad exponent key {key!r}")
        exps = tuple(map(int, key.split(","))) if key else ()
        if len(exps) != ring.nvars:
            raise InputError(
                f"exponent key {key!r} has {len(exps)} entries, "
                f"expected {ring.nvars}")
        v = field.parse(cs)
        if not field.is_zero(v):
            terms[ring.keys.pack(exps)] = v
    return ring.poly(terms)


def matrix_to_json(mat: RingMatrix) -> list:
    return [[entry_to_map(e) for e in row] for row in mat.rows]


def matrix_from_json(ring: PolyRing, rows: list, ncols: int) -> RingMatrix:
    out = [[entry_from_map(ring, e) for e in row] for row in rows]
    return RingMatrix(ring, out, ncols=ncols)


# -- complexes ---------------------------------------------------------------


def complex_to_json(c: BasedComplex) -> dict:
    basis = []
    for n in range(c.top + 1):
        tier = []
        for j in range(c.rank(n)):
            item = {"label": c.labels[n][j]}
            mdeg = c.multidegrees[n][j]
            if mdeg is not None:
                item["multidegree"] = list(mdeg)
            tier.append(item)
        basis.append(tier)
    doc = {
        "field": field_descriptor(c.ring.field),
        "ring_vars": list(c.ring.names),
        "top": c.top,
        "basis": basis,
        "diff": [matrix_to_json(c.d(n)) for n in range(1, c.top + 1)],
    }
    if c.deg_map is not None:
        doc["deg_map"] = [list(row) for row in c.deg_map]
    return doc


@contextmanager
def _reading(kind: str):
    """Report malformed values in a ``kind`` document as InputError."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed {kind} document: {e}")


def _integer(x):
    """``x`` if it is an int; a bool or a float is a malformed value, not a
    number to round."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _string(x):
    if type(x) is not str:
        raise TypeError(f"expected a string, got {x!r}")
    return x


def _strings(xs):
    """``xs`` if it is a list of strings; a string is not split."""
    if type(xs) is not list:
        raise TypeError(f"expected a list of strings, got {xs!r}")
    return [_string(x) for x in xs]


def complex_from_json(doc: dict) -> BasedComplex:
    with _reading("complex"):
        field = field_from_descriptor(doc["field"])
        names = _strings(doc["ring_vars"])
        top = _integer(doc["top"])
        basis = doc["basis"]
        diff = doc["diff"]
        if len(basis) != top + 1 or len(diff) != top:
            raise InputError(
                "complex document: basis/diff lengths disagree with top")
        ring = PolyRing(field, names)
        labels = [[_string(item["label"]) for item in tier] for tier in basis]
        multidegrees = []
        for tier in basis:
            mdegs = []
            for item in tier:
                m = item.get("multidegree")
                mdegs.append(None if m is None else tuple(map(_integer, m)))
            multidegrees.append(mdegs)
        diffs = [
            matrix_from_json(ring, rows, ncols=len(basis[n + 1]))
            for n, rows in enumerate(diff)
        ]
        deg_map = doc.get("deg_map")
        if deg_map is not None:
            deg_map = tuple(tuple(map(_integer, row)) for row in deg_map)
    for n, mat in enumerate(diffs):
        if mat.nrows != len(basis[n]):
            raise InputError(
                f"differential {n + 1} has {mat.nrows} rows, "
                f"expected {len(basis[n])}")
    return BasedComplex(ring, labels, multidegrees, diffs, deg_map=deg_map)


# -- homotopies --------------------------------------------------------------


def homotopy_to_json(D: Homotopy) -> dict:
    return {
        "maps": [matrix_to_json(D.D(n)) for n in range(D.complex.top)],
    }


def homotopy_from_json(doc: dict, c: BasedComplex) -> Homotopy:
    with _reading("homotopy"):
        maps = doc["maps"]
        if len(maps) != c.top:
            raise InputError("homotopy document: wrong number of maps")
        mats = [
            matrix_from_json(c.ring, rows, ncols=c.rank(n))
            for n, rows in enumerate(maps)
        ]
    return Homotopy(c, mats)


# -- stratifications ---------------------------------------------------------


def stratified_to_json(s: StratifiedComplex) -> dict:
    doc = complex_to_json(s.complex)
    doc["poset"] = {
        "elements": [list(e) if isinstance(e, tuple) else e
                     for e in s.poset.elements],
        "below": [sorted(b) for b in s.poset.below],
    }
    doc["strata"] = [list(t) for t in s.strata]
    return doc


def stratified_from_json(doc: dict) -> StratifiedComplex:
    c = complex_from_json(doc)
    with _reading("stratification"):
        pd = doc["poset"]
        elements = [tuple(e) if isinstance(e, list) else e
                    for e in pd["elements"]]
        poset = Poset(elements, [frozenset(b) for b in pd["below"]])
        return StratifiedComplex(c, poset, [list(t) for t in doc["strata"]])
