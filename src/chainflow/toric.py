"""Pointed affine semigroup rings: bar-type start resolutions and their
minimal summands.

The input is a finite piece of the divisibility category of a pointed affine
semigroup ``Q`` inside ``Z^d``: finitely many objects (degree vectors) and
nonidentity morphisms between them, each labelled by a monomial.  The start
resolution in degree ``n`` has one basis element per composable sequence of
``n`` nonidentity morphisms (objects in degree zero); its multidegree is the
degree of the sequence's terminal object, which is also its stratum.  The
same core as for monomial ideals,
:func:`~chainflow.splittings.resolve_stratified`, then extracts the minimal
summand; strand-exactness is checked at every degree below the resolution's
degree support, with the expected rank-one contribution exactly at the
degrees that lie in ``Q``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .errors import InputError
from .linalg import PolyRing, RingMatrix
from .complexes import (
    BasedComplex,
    Poset,
    StratifiedComplex,
    _enumerate_monomials,
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
    """Bar-type resolution of the semigroup ring piece described by ``data``.

    Degree ``n`` basis: composable sequences of ``n`` nonidentity morphisms
    (objects at ``n = 0``), in lexicographic order by morphism positions.
    The differential alternates: dropping the first morphism keeps the
    terminal object; composing two consecutive morphisms is an inner face;
    dropping the last morphism multiplies by its monomial.  Stratum and
    multidegree of a sequence: its terminal object.
    """
    ring = PolyRing(field, data.names)
    morph_index = {f: i for i, f in enumerate(data.morphisms)}
    poset = Poset.from_leq(list(data.objects), _componentwise_leq)

    # seqs[0]: one singleton (object,) per object; seqs[n] for n >= 1: tuples
    # of morphism indices (f_1, ..., f_n) with target(f_i) = source(f_{i+1}),
    # in lexicographic order.  The category is pointed, so sequence lengths
    # are bounded and the construction terminates.
    morphs = data.morphisms
    seqs = [[(o,) for o in data.objects]]
    n = 1
    while True:
        if n == 1:
            tier = [(i,) for i in range(len(morphs))]
        else:
            tier = []
            for seq in seqs[n - 1]:
                last = morphs[seq[-1]]
                for i, f in enumerate(morphs):
                    if f.source == last.target:
                        tier.append(seq + (i,))
        tier.sort()
        if not tier:
            break
        seqs.append(tier)
        n += 1

    obj_index = {o: i for i, o in enumerate(data.objects)}
    labels = []
    multidegrees = []
    strata = []
    for n, tier in enumerate(seqs):
        if n == 0:
            labels.append(["[" + ",".join(str(x) for x in o) + "]"
                           for (o,) in tier])
            multidegrees.append([o for (o,) in tier])
            strata.append([poset.index[o] for (o,) in tier])
        else:
            labs = []
            mdegs = []
            strat = []
            for seq in tier:
                terminal = morphs[seq[-1]].target
                labs.append("[" + "|".join(
                    render_monomial(data.names, morphs[i].monomial)
                    for i in seq) + "]")
                mdegs.append(terminal)
                strat.append(poset.index[terminal])
            labels.append(labs)
            multidegrees.append(mdegs)
            strata.append(strat)

    index_of = [
        {(o,): j for j, (o,) in enumerate(seqs[0])}
    ] + [{seq: j for j, seq in enumerate(tier)} for tier in seqs[1:]]

    diffs = []
    for n in range(1, len(seqs)):
        rows = [[ring.zero() for _ in seqs[n]] for _ in seqs[n - 1]]
        for j, seq in enumerate(seqs[n]):
            fs = [morphs[i] for i in seq]
            # face 0: drop the first morphism
            if n == 1:
                face_j = index_of[0][(fs[0].target,)]
            else:
                face_j = index_of[n - 1][seq[1:]]
            rows[face_j][j] = rows[face_j][j] + ring.one()
            # inner faces: compose consecutive morphisms
            for t in range(1, n):
                f, g = fs[t - 1], fs[t]
                comp = morph_index.get(Morphism(f.source, g.target, tuple(
                    a + b for a, b in zip(f.monomial, g.monomial))))
                if comp is None:
                    raise InputError("the category is not closed under "
                                     "composition of its morphisms")
                face = seq[:t - 1] + (comp,) + seq[t + 1:]
                face_j = index_of[n - 1][face]
                sign = field.one if t % 2 == 0 else field.neg(field.one)
                rows[face_j][j] = rows[face_j][j] + ring.const(sign)
            # last face: drop the last morphism, scaled by its monomial
            if n == 1:
                face_j = index_of[0][(fs[0].source,)]
            else:
                face_j = index_of[n - 1][seq[:-1]]
            sign = field.one if n % 2 == 0 else field.neg(field.one)
            rows[face_j][j] = rows[face_j][j] + ring.monomial(
                fs[-1].monomial, sign)
        diffs.append(RingMatrix(ring, rows, ncols=len(seqs[n])))

    complex = BasedComplex(ring, labels, multidegrees, diffs,
                           deg_map=data.deg_map)
    return StratifiedComplex(complex, poset, strata)


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
