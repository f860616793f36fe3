"""Pointed affine semigroup rings: bar-type start resolutions and their
minimal summands.

The input is a finite piece of the divisibility category of a pointed affine
semigroup ``Q`` inside ``Z^d``: finitely many objects (degree vectors) and
nonidentity morphisms between them, each labelled by a monomial.  The bar
start is data for the one start builder,
:func:`~chainflow.complexes.start_resolution`: tier ``n`` holds the
composable sequences of ``n`` nonidentity morphisms (the objects in degree
zero), and a sequence's multidegree, which is also its stratum, is the
degree of its terminal object.  Its face rule drops the first morphism
(leaving the target object in degree one), composes two consecutive ones,
or drops the last one, scaled by that morphism's monomial.  The same core
as for monomial ideals, :func:`~chainflow.splittings.resolve_stratified`,
then extracts the minimal summand; strand-exactness is checked at every
degree below the resolution's degree support, with the expected rank-one
contribution exactly at the degrees that lie in ``Q``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .errors import InputError
from .linalg import PolyRing
from .complexes import (
    BasedComplex,
    Poset,
    StratifiedComplex,
    _enumerate_monomials,
    start_resolution,
    verify_strands,
)
from .splittings import ResolveResult, resolve_stratified
from .monomial import render_monomial

__all__ = [
    "BettiCategoryData",
    "bar_resolution",
    "resolve_toric",
    "verify_toric_resolution",
]


def _ints(v, what):
    """``v`` as a tuple of ints; any other entry is an input error."""
    t = tuple(v)
    for x in t:
        # bool is an int subclass; JSON true must not pass as 1
        if not isinstance(x, int) or isinstance(x, bool):
            raise InputError(f"{what} must be integers, got {x!r}")
    return t


@dataclass(frozen=True)
class Morphism:
    source: tuple
    target: tuple
    monomial: tuple  # exponent vector of the ring monomial labelling it


class BettiCategoryData:
    """A finite piece of the divisibility category of a pointed semigroup.

    ``names`` are the ring variables; ``deg_map`` sends each variable to its
    degree vector in Z^d (columns of a d x nvars matrix); ``objects`` are
    degree vectors; ``morphisms`` are (source, target, monomial exponents)
    triples.  Each morphism must satisfy source + deg(monomial) = target with
    a nonzero monomial degree (no nonidentity endomorphisms), which keeps the
    category direct and the stratification triangular.  Every number must be
    an integer; there must be at least one object, and no object or morphism
    may be listed twice.
    """

    def __init__(self, names, deg_map, objects, morphisms):
        self.names = tuple(str(n) for n in names)
        self.deg_map = tuple(_ints(row, "deg_map entries") for row in deg_map)
        self.dim = len(self.deg_map)
        for row in self.deg_map:
            if len(row) != len(self.names):
                raise InputError("deg_map must have one column per variable")
            if any(x < 0 for x in row):
                raise InputError("variable degrees must be nonnegative")
        for j in range(len(self.names)):
            if all(row[j] == 0 for row in self.deg_map):
                raise InputError(
                    f"variable {self.names[j]} has degree zero; "
                    "the grading must be pointed")
        self.objects = [_ints(o, "object degrees") for o in objects]
        if not self.objects:
            raise InputError("the category needs at least one object")
        if len(set(self.objects)) != len(self.objects):
            raise InputError("duplicate objects")
        if any(len(o) != self.dim for o in self.objects):
            raise InputError("object degree has the wrong dimension")
        obj_set = set(self.objects)
        self.morphisms = []
        for m in morphisms:
            src = _ints(m[0], "morphism endpoints")
            tgt = _ints(m[1], "morphism endpoints")
            mono = _ints(m[2], "morphism exponents")
            if src not in obj_set or tgt not in obj_set:
                raise InputError("morphism endpoint is not an object")
            if len(mono) != len(self.names) or any(e < 0 for e in mono):
                raise InputError("morphism monomial must have nonnegative exponents")
            mdeg = self.monomial_degree(mono)
            if all(x == 0 for x in mdeg):
                raise InputError(
                    "morphism has degree zero; the category must be pointed")
            if tuple(s + d for s, d in zip(src, mdeg)) != tgt:
                raise InputError(
                    "morphism degree mismatch: source + deg(monomial) != target")
            self.morphisms.append(Morphism(src, tgt, mono))
        if len(set(self.morphisms)) != len(self.morphisms):
            raise InputError("duplicate morphisms")

    def monomial_degree(self, exps):
        return tuple(
            sum(row[i] * e for i, e in enumerate(exps)) for row in self.deg_map)


def _componentwise_leq(a, b):
    return all(x <= y for x, y in zip(a, b))


def bar_resolution(data: BettiCategoryData, field) -> StratifiedComplex:
    """The bar start of the semigroup ring piece described by ``data``:
    sequences in lexicographic order by morphism positions, labelled
    ``[m_1|...|m_n]`` by their monomials (objects ``[d]`` by their degree),
    with the face rule of the module docstring."""
    morphs = data.morphisms
    # An entry of a tuple is an object (degree 0) or a morphism position;
    # the tuple's label joins its entries' texts, and its terminal object
    # is the end of its last entry.  The category is pointed, so sequence
    # lengths are bounded and the tiers end.
    text = {o: _render_degree(o) for o in data.objects}
    end = {o: o for o in data.objects}
    for i, f in enumerate(morphs):
        text[i] = render_monomial(data.names, f.monomial)
        end[i] = f.target
    tiers = [[(o,) for o in data.objects], [(i,) for i in range(len(morphs))]]
    while tiers[-1]:
        tiers.append([seq + (i,) for seq in tiers[-1]
                      for i, f in enumerate(morphs) if f.source == end[seq[-1]]])
    tiers.pop()

    # every composable pair is a sequence of degree 2, whose inner face
    # needs the composite
    morph_index = {f: i for i, f in enumerate(morphs)}
    composite = {(i, j): morph_index.get(Morphism(f.source, g.target, tuple(
        a + b for a, b in zip(f.monomial, g.monomial))))
        for i, f in enumerate(morphs) for j, g in enumerate(morphs)
        if f.target == g.source}
    if None in composite.values():
        raise InputError("the category is not closed under "
                         "composition of its morphisms")
    one = (0,) * len(data.names)

    def faces(seq):
        first, last = morphs[seq[0]], morphs[seq[-1]]
        return ([(seq[1:] or (first.target,), one)]
                + [(seq[:t - 1] + (composite[seq[t - 1:t + 1]],) + seq[t + 1:],
                    one) for t in range(1, len(seq))]
                + [(seq[:-1] or (first.source,), last.monomial)])

    return start_resolution(
        PolyRing(field, data.names),
        Poset.from_leq(list(data.objects), _componentwise_leq), tiers,
        lambda seq: "[" + "|".join(text[x] for x in seq) + "]",
        lambda seq: end[seq[-1]], faces, data.deg_map)


def resolve_toric(
    data: BettiCategoryData,
    characteristic: int = 0,
    mode: Optional[str] = None,
) -> ResolveResult:
    """Minimal summand of the bar-type resolution, any characteristic.

    Characteristic zero defaults to Moore-Penrose splittings; positive
    characteristic uses the matroidal average, replaced by a generic affine
    combination over a transcendental extension whenever the characteristic
    divides a stratum count (the report notes the substitution).  The
    construction is :func:`~chainflow.splittings.resolve_stratified`;
    strata and Betti numbers are keyed by degree vectors.
    """
    res = resolve_stratified(
        lambda field: bar_resolution(data, field), characteristic, mode,
        _render_degree, lambda M: verify_toric_resolution(M, data))
    res.report["objects"] = [list(o) for o in data.objects]
    res.report["morphisms"] = len(data.morphisms)
    if res.report["critical_strata"]:
        res.report["notes"].append(
            "the plain matroidal average is undefined at this characteristic; "
            "generic affine weights over a transcendental extension were used "
            "instead")
    return res


def _render_degree(b) -> str:
    return ",".join(str(x) for x in b)


def verify_toric_resolution(M: BasedComplex, data: BettiCategoryData) -> dict:
    """Validation, minimality and strand-exactness for a toric resolution.

    Strands are checked at every degree vector componentwise below the
    componentwise maximum of the multidegrees appearing in ``M`` and of the
    objects of ``data``, so a relation that ``M`` misses at an object degree
    is caught.  The degree-zero homology must have dimension one exactly at
    degrees that lie in the semigroup (some monomial in the ring variables
    reaches them) and zero elsewhere; higher homology must vanish everywhere.
    """
    top = [0] * data.dim
    for m in [m for degs in M.multidegrees for m in degs] + data.objects:
        for i, x in enumerate(m):
            top[i] = max(top[i], x)
    return verify_strands(M, (
        (b, f"({_render_degree(b)})",
         1 if _enumerate_monomials(data.deg_map, list(b)) else 0)
        for b in product(*(range(t + 1) for t in top))))
