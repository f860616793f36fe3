"""Monomial ideals, lcm-lattices, start resolutions, minimal resolutions.

The pipeline: build a stratified start resolution (order-complex of the
lcm-lattice, or Taylor), split every stratum complex canonically
(Moore-Penrose over the rationals, or the average of all matroidal splittings
— over a transcendental extension when the characteristic divides a stratum
count), assemble the splittings into a vector field on the whole resolution,
iterate its flow to a projection, and extract the projected summand with its
induced differential.  That construction is the one core
:func:`~chainflow.splittings.resolve_stratified`, shared with the toric
front end; :func:`resolve_minimal` supplies the start, monomial tags and
:func:`verify_resolution`, which checks the result to be a minimal
resolution by strand-exactness at every lattice degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .errors import InputError
from .keys import monomial_text
from .linalg import PolyRing, RingMatrix
from .complexes import BasedComplex, Poset, StratifiedComplex, verify_strands
from .splittings import ResolveResult, resolve_stratified

__all__ = [
    "MonomialIdeal",
    "LcmLattice",
    "ResolveResult",
    "lcm_lattice",
    "order_complex_resolution",
    "taylor_resolution",
    "resolve_minimal",
    "verify_resolution",
    "render_monomial",
]


def render_monomial(names, exps) -> str:
    """Human-readable monomial string, ``1`` for the trivial one."""
    return monomial_text(names, exps) or "1"


class MonomialIdeal:
    """A monomial ideal given by generator exponent vectors.

    Non-minimal generating sets are silently minimalized (duplicates and
    multiples of other generators dropped); ``dropped`` records how many
    were removed so callers can surface a note.  The minimal generators are
    kept in ascending order of their exponent tuples, so no result depends
    on the order in which they were listed.
    """

    def __init__(self, names, generators):
        self.names = tuple(str(n) for n in names)
        if len(set(self.names)) != len(self.names):
            raise InputError("variable names must be distinct")
        if not isinstance(generators, (list, tuple)):
            raise InputError(
                f"the generators must be a list of exponent lists, "
                f"got {generators!r}")
        gens = []
        for g in generators:
            if not isinstance(g, (list, tuple)):
                raise InputError(
                    f"a generator must be a list of exponents, got {g!r}")
            for e in g:
                # bool is an int subclass; JSON true must not pass as 1
                if not isinstance(e, int) or isinstance(e, bool):
                    raise InputError(
                        f"generator exponents must be integers, got {e!r}")
            t = tuple(g)
            if len(t) != len(self.names):
                raise InputError(
                    "generator length does not match the variable count")
            if any(e < 0 for e in t):
                raise InputError("generator exponents must be nonnegative")
            if not any(t):
                raise InputError(
                    "a generator with all exponents zero gives the unit "
                    "ideal, which has no minimal resolution to compute")
            gens.append(t)
        minimal = []
        dropped = 0
        for i, g in enumerate(gens):
            keep = True
            for j, h in enumerate(gens):
                if i == j:
                    continue
                if _divides(h, g) and (h != g or j < i):
                    keep = False
                    break
            if keep:
                minimal.append(g)
            else:
                dropped += 1
        if not minimal:
            raise InputError("ideal needs at least one generator")
        self.generators = sorted(minimal)
        self.dropped = dropped

    @property
    def nvars(self) -> int:
        return len(self.names)

    def generator_strings(self):
        return [render_monomial(self.names, g) for g in self.generators]

    def __repr__(self):
        return f"MonomialIdeal({', '.join(self.generator_strings())})"


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _join(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


@dataclass
class LcmLattice:
    """The lcm-lattice: joins of generator subsets plus the bottom element.

    ``elements`` are exponent tuples in the canonical order: sorted by the
    set ``S(e)`` of generators dividing ``e`` (by size, then lexicographically,
    then by the exponent tuple).  This order is a linear extension of
    divisibility, and ``elements[0]`` is the bottom (the empty join, all-zero).
    ``poset`` is the divisibility order on the non-bottom part
    ``elements[1:]`` — the part that carries resolutions.
    """

    ideal: MonomialIdeal
    elements: list
    support: dict      # element -> sorted tuple of generator indices dividing it
    poset: Poset       # divisibility on elements[1:]

    @property
    def bottom(self):
        return self.elements[0]

    def proper(self):
        """The non-bottom elements, in canonical order."""
        return self.elements[1:]

    def element_strings(self):
        names = self.ideal.names
        return [render_monomial(names, e) for e in self.elements]


def lcm_lattice(I: MonomialIdeal) -> LcmLattice:
    gens = I.generators
    found = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                j = _join(e, g)
                if j not in found:
                    found.add(j)
                    nxt.append(j)
        frontier = nxt
    bottom = tuple(0 for _ in range(I.nvars))
    support = {}
    for e in found:
        support[e] = tuple(i for i, g in enumerate(gens) if _divides(g, e))
    elements = sorted(found, key=lambda e: (len(support[e]), support[e], e))
    support[bottom] = ()
    elements.insert(0, bottom)
    proper = elements[1:]
    n = len(proper)
    below = []
    for i, e in enumerate(proper):
        below.append(frozenset(
            j for j in range(i) if _divides(proper[j], e)))
    poset = Poset(proper, below)
    return LcmLattice(I, elements, support, poset)


def _chain_label(names, chain_elems) -> str:
    return "[" + " < ".join(render_monomial(names, e) for e in chain_elems) + "]"


def _chain_tiers(poset) -> list:
    """Chains ``a_0 < ... < a_n`` of the poset, one tier per degree ``n``,
    each listed lexicographically by element positions; the empty top tier
    is dropped."""
    n_elems = len(poset.elements)
    chains = [[(i,) for i in range(n_elems)]]
    while chains[-1]:
        nxt = []
        for ch in chains[-1]:
            last = ch[-1]
            for k in range(last + 1, n_elems):
                if poset.leq(last, k):
                    nxt.append(ch + (k,))
        chains.append(nxt)
    chains.pop()
    return chains


def _face_differentials(ring, tiers, multidegrees) -> list:
    """The differentials of a start whose degree ``n`` basis is the tier
    ``tiers[n]`` of increasing ``(n+1)``-tuples, with multidegrees ``m``.

    Dropping entry ``t`` of ``s`` gives the face ``f`` with coefficient
    ``(-1)^t x^(m(s) - m(f))``.
    """
    field = ring.field
    signs = (field.one, field.neg(field.one))
    diffs = []
    for n in range(1, len(tiers)):
        index_of = {face: i for i, face in enumerate(tiers[n - 1])}
        rows = [[ring.zero() for _ in tiers[n]] for _ in tiers[n - 1]]
        for j, s in enumerate(tiers[n]):
            for t in range(n + 1):
                i = index_of[s[:t] + s[t + 1:]]
                quot = tuple(x - y for x, y in zip(
                    multidegrees[n][j], multidegrees[n - 1][i]))
                rows[i][j] = ring.monomial(quot, signs[t % 2])
        diffs.append(RingMatrix(ring, rows, ncols=len(tiers[n])))
    return diffs


def order_complex_resolution(I: MonomialIdeal, field) -> StratifiedComplex:
    """Resolution supported on chains of the (bottom-removed) lcm-lattice.

    Degree ``n`` basis: chains ``a_0 < ... < a_n`` in the lattice minus its
    bottom, listed lexicographically by canonical element positions.  The
    differential drops one element at a time with alternating signs; dropping
    the top multiplies by the monomial quotient of the two top elements,
    every other face has coefficient one.  Stratum and multidegree of a
    chain: its top.
    """
    L = lcm_lattice(I)
    proper = L.proper()
    ring = PolyRing(field, I.names)
    chains = _chain_tiers(L.poset)
    labels = [[_chain_label(I.names, [proper[i] for i in ch]) for ch in tier]
              for tier in chains]
    multidegrees = [[proper[ch[-1]] for ch in tier] for tier in chains]
    strata = [[ch[-1] for ch in tier] for tier in chains]
    complex = BasedComplex(ring, labels, multidegrees,
                           _face_differentials(ring, chains, multidegrees))
    return StratifiedComplex(complex, L.poset, strata)


def _taylor_tiers(r: int) -> list:
    """The ``(n+1)``-subsets of ``r`` generators, one tier per degree ``n``,
    each listed lexicographically."""
    return [list(combinations(range(r), n + 1)) for n in range(r)]


def taylor_resolution(I: MonomialIdeal, field) -> StratifiedComplex:
    """Taylor resolution: degree ``n`` basis indexed by (n+1)-subsets of the
    generators, boundary faces signed alternately and scaled by the monomial
    quotient ``lcm(subset) / lcm(subset minus one)``.  Stratum and
    multidegree of a subset: its lcm."""
    poset = lcm_lattice(I).poset
    gens = I.generators
    ring = PolyRing(field, I.names)
    tiers = _taylor_tiers(len(gens))
    multidegrees = []
    for tier in tiers:
        layer = []
        for s in tier:
            e = gens[s[0]]
            for i in s[1:]:
                e = _join(e, gens[i])
            layer.append(e)
        multidegrees.append(layer)
    labels = [["{" + ",".join(str(i) for i in s) + "}" for s in tier]
              for tier in tiers]
    strata = [[poset.index[e] for e in layer] for layer in multidegrees]
    complex = BasedComplex(ring, labels, multidegrees,
                           _face_differentials(ring, tiers, multidegrees))
    return StratifiedComplex(complex, poset, strata)


_STARTS = {"lcm": order_complex_resolution, "taylor": taylor_resolution}


def resolve_minimal(
    I: MonomialIdeal,
    characteristic: int = 0,
    start: str = "lcm",
    mode: Optional[str] = None,
) -> ResolveResult:
    """Canonical minimal free resolution of ``I`` over the given prime field.

    ``start`` picks the stratified start resolution (``lcm`` or ``taylor``);
    the Betti numbers of the output do not depend on it.  ``mode`` selects the
    per-stratum splitting: ``moore_penrose`` (characteristic zero only) or
    ``matroidal_average`` (any characteristic; the default in characteristic
    ``p``).  When ``p`` divides some stratum's splitting count the average is
    formed with generic affine weights over a transcendental extension and the
    resolution is delivered over that extension.  The construction is
    :func:`~chainflow.splittings.resolve_stratified`; strata and Betti
    numbers are keyed by monomials.
    """
    if start not in _STARTS:
        raise InputError(f"unknown start resolution {start!r}")
    res = resolve_stratified(
        lambda field: _STARTS[start](I, field), characteristic, mode,
        lambda e: render_monomial(I.names, e),
        lambda M: verify_resolution(M, I))
    report = res.report
    report["ideal"] = {
        "variables": list(I.names),
        "generators": I.generator_strings(),
    }
    report["start"] = start
    if I.dropped:
        report["notes"].append(f"{I.dropped} redundant generator(s) removed")
    if report["critical_strata"]:
        report["notes"].append(
            "averaging weights are generic affine transcendentals; the first "
            "weight of each critical stratum is eliminated as one minus the "
            "sum of the others")
    return res


def verify_resolution(M: BasedComplex, I: MonomialIdeal) -> dict:
    """Check that ``M`` is a minimal free resolution of ``I``.

    Three layers: (i) ``M`` is a valid homogeneous complex, (ii) no
    differential entry has a nonzero constant term (minimality), and (iii)
    strand-exactness at every lcm-lattice degree ``b``: homology vanishes in
    positive degrees and has dimension one in degree zero except at the
    bottom element.
    """
    L = lcm_lattice(I)
    return verify_strands(M, (
        (b, render_monomial(I.names, b), 0 if b == L.bottom else 1)
        for b in L.elements))
