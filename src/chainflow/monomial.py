"""Monomial ideals, lcm-lattices, start resolutions, minimal resolutions.

Both monomial starts are data for the one start builder,
:func:`~chainflow.complexes.start_resolution`.  The lcm start's tiers are
the chains of the lcm-lattice minus its bottom, the Taylor start's the
nonempty subsets of the generators; a tuple's multidegree is the top of its
chain or the lcm of its subset.  Both share one face rule: face ``t`` drops
entry ``t``, with the monomial ``x^(m(s) - m(face))``.

The pipeline splits every stratum complex of the start canonically
(Moore-Penrose over the rationals, or the average of all matroidal
splittings — over a transcendental extension when the characteristic
divides a stratum count), assembles the splittings into a vector field on
the whole resolution, iterates its flow to a projection, and extracts the
projected summand with its induced differential.  That construction is the
one core :func:`~chainflow.splittings.resolve_stratified`, shared with the
toric front end; :func:`resolve_minimal` supplies the start, monomial tags
and :func:`verify_resolution`, which checks the result to be a minimal
resolution by strand-exactness at every lattice degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .errors import InputError
from .keys import monomial_text
from .linalg import PolyRing
from .complexes import (
    BasedComplex, Poset, StratifiedComplex, start_resolution, verify_strands,
)
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


def _chain_tiers(poset) -> list:
    """Chains ``a_0 < ... < a_n`` of the poset, one tier per degree ``n``,
    each listed lexicographically by element positions."""
    n = len(poset.elements)
    chains = [[(i,) for i in range(n)]]
    while chains[-1]:
        chains.append([ch + (k,) for ch in chains[-1]
                       for k in range(ch[-1] + 1, n) if poset.leq(ch[-1], k)])
    chains.pop()
    return chains


def _drop_faces(multidegree):
    """The face rule of the monomial starts: face ``t`` of ``s`` drops entry
    ``t``, with monomial ``x^(m(s) - m(face))``."""
    def faces(s):
        m = multidegree(s)
        return [(f, tuple(x - y for x, y in zip(m, multidegree(f))))
                for f in (s[:t] + s[t + 1:] for t in range(len(s)))]
    return faces


def order_complex_resolution(I: MonomialIdeal, field) -> StratifiedComplex:
    """The start on chains ``a_0 < ... < a_n`` of the lcm-lattice minus its
    bottom, labelled ``[a_0 < ... < a_n]``; a chain's multidegree and
    stratum are its top.  Only dropping the top has a nonunit monomial."""
    L = lcm_lattice(I)
    proper = L.proper()

    def top(ch):
        return proper[ch[-1]]
    return start_resolution(
        PolyRing(field, I.names), L.poset, _chain_tiers(L.poset),
        lambda ch: "[" + " < ".join(
            render_monomial(I.names, proper[i]) for i in ch) + "]",
        top, _drop_faces(top), None)


def _taylor_tiers(r: int) -> list:
    """The ``(n+1)``-subsets of ``r`` generators, one tier per degree ``n``,
    each listed lexicographically."""
    return [list(combinations(range(r), n + 1)) for n in range(r)]


def taylor_resolution(I: MonomialIdeal, field) -> StratifiedComplex:
    """The Taylor start on nonempty subsets of the generators, labelled
    ``{i,j,...}``; a subset's multidegree and stratum are its lcm, which is
    computed once per subset."""
    gens = I.generators
    tiers = _taylor_tiers(len(gens))
    lcm = {(): (0,) * I.nvars}
    for tier in tiers:
        for s in tier:
            lcm[s] = _join(lcm[s[:-1]], gens[s[-1]])
    return start_resolution(
        PolyRing(field, I.names), lcm_lattice(I).poset, tiers,
        lambda s: "{" + ",".join(str(i) for i in s) + "}", lcm.__getitem__,
        _drop_faces(lcm.__getitem__), None)


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
