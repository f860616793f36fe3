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
* coefficients: ``"7"``, ``"-3/5"`` over Q; a decimal residue over F_p; a
  rendered expression over a function field (sums of scaled monomials in the
  transcendental names, with a parenthesised denominator when present).

One expression parser reads every F_p(y) string, coefficients and
eliminations alike.  It tokenises greedily against the field's actual
variable names, so names like ``y[a][1]`` or ``y[v0^2*v1][1]``, which hold
brackets and operator characters, need no escaping.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import InputError, InternalError
from .scalars import (
    GF,
    QQ,
    YMASK,
    FunctionField,
    PrimeField,
    Rationals,
    field_descriptor,
)
from .linalg import MultiPoly, PolyRing, RingMatrix
from .complexes import BasedComplex, Poset, StratifiedComplex
from .flows import Homotopy

__all__ = [
    "coeff_to_string",
    "coeff_from_string",
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


# -- coefficients ------------------------------------------------------------


def coeff_to_string(field, v) -> str:
    return field.render(v)


def coeff_from_string(field, s):
    s = s.strip()
    if isinstance(field, Rationals):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"bad rational literal {s!r}: {e}")
    if isinstance(field, PrimeField):
        try:
            return int(s, 10) % field.p
        except ValueError:
            raise InputError(f"bad prime-field literal {s!r}")
    if isinstance(field, FunctionField):
        return _parse_ff(field, s)
    raise InputError(f"unknown field object {field!r}")


class _FFParser:
    """Recursive-descent parser for rendered function-field expressions."""

    def __init__(self, field, text):
        self.field = field
        self.text = text
        self.pos = 0
        # longest-first so names that extend other names match correctly
        self.names = sorted(field.names, key=len, reverse=True)

    def error(self, msg):
        raise InputError(
            f"bad coefficient expression {self.text!r} at {self.pos}: {msg}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch):
        self.skip_ws()
        if not self.text.startswith(ch, self.pos):
            self.error(f"expected {ch!r}")
        self.pos += len(ch)

    def try_name(self):
        self.skip_ws()
        for nm in self.names:
            if self.text.startswith(nm, self.pos):
                self.pos += len(nm)
                return nm
        return None

    def try_int(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            return None
        return int(self.text[start:self.pos])

    def parse(self):
        try:
            v = self.expr()
        except InternalError as e:  # a product left the packed exponent range
            self.error(str(e))
        except ZeroDivisionError:
            self.error("division by zero")
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return v

    def expr(self):
        f = self.field
        if self.peek() == "-":
            self.eat("-")
            v = f.neg(self.term())
        else:
            if self.peek() == "+":
                self.eat("+")
            v = self.term()
        while True:
            c = self.peek()
            if c == "+":
                self.eat("+")
                v = f.add(v, self.term())
            elif c == "-":
                self.eat("-")
                v = f.sub(v, self.term())
            else:
                return v

    def term(self):
        f = self.field
        v = self.factor()
        while True:
            c = self.peek()
            if c == "*":
                self.eat("*")
                v = f.mul(v, self.factor())
            elif c == "/":
                self.eat("/")
                v = f.div(v, self.factor())
            else:
                return v

    def factor(self):
        f = self.field
        c = self.peek()
        if c == "(":
            self.eat("(")
            v = self.expr()
            self.eat(")")
            return self.maybe_power(v)
        if c == "-":
            self.eat("-")
            return f.neg(self.factor())
        nm = self.try_name()
        if nm is not None:
            return self.maybe_power(f.var(nm))
        n = self.try_int()
        if n is None:
            self.error("expected a name, number or parenthesis")
        return self.maybe_power(f.from_int(n))

    def maybe_power(self, v):
        if self.peek() == "^":
            self.eat("^")
            e = self.try_int()
            if e is None:
                self.error("expected an integer exponent")
            if e > YMASK:
                self.error(f"exponent {e} above the packed range [0, {YMASK}]")
            out = self.field.one
            for _ in range(e):
                out = self.field.mul(out, v)
            return out
        return v


def _parse_ff(field, s):
    return _FFParser(field, s).parse()


def field_from_descriptor(desc):
    """The field that :func:`~chainflow.scalars.field_descriptor` wrote as
    ``desc``.  Each elimination must parse to a polynomial."""
    if desc == "Q":
        return QQ
    if not (isinstance(desc, dict) and "p" in desc):
        raise InputError(f"unrecognised field descriptor {desc!r}")
    if "transcendentals" not in desc:
        return GF(desc["p"])
    field = FunctionField(desc["p"], desc["transcendentals"],
                          desc.get("note", ""))
    for name, text in desc.get("eliminations", {}).items():
        num, den = _parse_ff(field, text)
        if den is not None:
            raise InputError(
                f"elimination of {name!r} has a denominator: {text!r}")
        field.eliminations[name] = num
    return field


# -- polynomial entries ------------------------------------------------------


def entry_to_map(e: MultiPoly) -> dict:
    ring = e.ring
    field = ring.field
    out = {}
    for k in sorted(e.terms):
        exps = ring.unpack(k)
        out[",".join(str(x) for x in exps)] = coeff_to_string(field, e.terms[k])
    return out


def entry_from_map(ring: PolyRing, m: dict) -> MultiPoly:
    field = ring.field
    terms = {}
    for key, cs in m.items():
        exps = tuple(int(x) for x in key.split(",")) if key else ()
        if len(exps) != ring.nvars:
            raise InputError(
                f"exponent key {key!r} has {len(exps)} entries, "
                f"expected {ring.nvars}")
        v = coeff_from_string(field, cs)
        if not field.is_zero(v):
            terms[ring.pack(exps)] = v
    return MultiPoly(ring, terms)


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


def complex_from_json(doc: dict) -> BasedComplex:
    try:
        field = field_from_descriptor(doc["field"])
        names = [str(x) for x in doc["ring_vars"]]
        top = int(doc["top"])
        basis = doc["basis"]
        diff = doc["diff"]
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed complex document: {e}")
    if len(basis) != top + 1 or len(diff) != top:
        raise InputError("complex document: basis/diff lengths disagree with top")
    ring = PolyRing(field, names)
    labels = [[str(item["label"]) for item in tier] for tier in basis]
    multidegrees = []
    for tier in basis:
        mdegs = []
        for item in tier:
            m = item.get("multidegree")
            mdegs.append(tuple(int(x) for x in m) if m is not None else None)
        multidegrees.append(mdegs)
    diffs = [
        matrix_from_json(ring, rows, ncols=len(basis[n + 1]))
        for n, rows in enumerate(diff)
    ]
    for n, mat in enumerate(diffs):
        if mat.nrows != len(basis[n]):
            raise InputError(
                f"differential {n + 1} has {mat.nrows} rows, "
                f"expected {len(basis[n])}")
    deg_map = doc.get("deg_map")
    if deg_map is not None:
        deg_map = tuple(tuple(int(x) for x in row) for row in deg_map)
    return BasedComplex(ring, labels, multidegrees, diffs, deg_map=deg_map)


# -- homotopies --------------------------------------------------------------


def homotopy_to_json(D: Homotopy) -> dict:
    return {
        "maps": [matrix_to_json(D.D(n)) for n in range(D.complex.top)],
    }


def homotopy_from_json(doc: dict, c: BasedComplex) -> Homotopy:
    try:
        maps = doc["maps"]
    except (KeyError, TypeError) as e:
        raise InputError(f"malformed homotopy document: {e}")
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
    try:
        pd = doc["poset"]
        elements = [tuple(e) if isinstance(e, list) else e
                    for e in pd["elements"]]
        below = [frozenset(b) for b in pd["below"]]
        strata = [list(t) for t in doc["strata"]]
    except (KeyError, TypeError) as e:
        raise InputError(f"malformed stratification document: {e}")
    poset = Poset(elements, below)
    return StratifiedComplex(c, poset, strata)
