"""Monomial ideals, lcm-lattices, start resolutions, minimal resolutions.

The pipeline: build a stratified start resolution (order-complex of the
lcm-lattice, or Taylor), split every stratum complex canonically
(Moore-Penrose over the rationals, or the average of all matroidal splittings
— over a transcendental extension when the characteristic divides a stratum
count), assemble the splittings into a vector field on the whole resolution,
iterate its flow to a projection, and extract the projected summand with its
induced differential.  The result is checked to be a minimal resolution by
strand-exactness at every lattice degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .errors import InputError, VerificationError
from .scalars import QQ, GF, FunctionField, field_descriptor
from .linalg import PolyRing, RingMatrix
from .complexes import (
    BasedComplex,
    Poset,
    StratifiedComplex,
    homology_ranks,
    minimality_report,
    strand,
)
from .flows import (
    Homotopy,
    assemble_field,
    classify,
    extract_minimal_summand,
    hat,
    iterate_flow,
    moore_penrose,
)
from .splittings import (
    build_extension_field,
    coerce_complex,
    count_choices,
    critical_analysis,
    list_choices,
    matroidal_average,
    matroidal_options,
    stratum_core,
    weight_name,
)

__all__ = [
    "MonomialIdeal",
    "LcmLattice",
    "ResolveResult",
    "lcm_lattice",
    "order_complex_resolution",
    "taylor_resolution",
    "resolve_minimal",
    "verify_resolution",
    "verify_equivariance",
    "render_monomial",
]


def render_monomial(names, exps) -> str:
    """Human-readable monomial string, ``1`` for the trivial one."""
    parts = []
    for nm, e in zip(names, exps):
        if e == 1:
            parts.append(nm)
        elif e > 1:
            parts.append(f"{nm}^{e}")
    return "*".join(parts) if parts else "1"


class MonomialIdeal:
    """A monomial ideal given by generator exponent vectors.

    Non-minimal generating sets are silently minimalized (duplicates and
    multiples of other generators dropped); ``dropped`` records how many
    were removed so callers can surface a note.
    """

    def __init__(self, names, generators):
        self.names = tuple(str(n) for n in names)
        if len(set(self.names)) != len(self.names):
            raise InputError("variable names must be distinct")
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
        self.generators = minimal
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


def order_complex_resolution(I: MonomialIdeal, field) -> StratifiedComplex:
    """Resolution supported on chains of the (bottom-removed) lcm-lattice.

    Degree ``n`` basis: chains ``a_0 < ... < a_n`` in the lattice minus its
    bottom, listed lexicographically by canonical element positions.  The
    differential drops one element at a time with alternating signs; dropping
    the top multiplies by the monomial quotient of the two top elements,
    every other face has coefficient one.  Stratum of a chain: its top.
    """
    L = lcm_lattice(I)
    poset = L.poset
    proper = L.proper()
    ring = PolyRing(field, I.names)
    chains = _chain_tiers(poset)
    labels = []
    multidegrees = []
    strata = []
    index_of = []
    for tier in chains:
        labels.append([_chain_label(I.names, [proper[i] for i in ch])
                       for ch in tier])
        multidegrees.append([proper[ch[-1]] for ch in tier])
        strata.append([ch[-1] for ch in tier])
        index_of.append({ch: j for j, ch in enumerate(tier)})
    diffs = []
    for n in range(1, len(chains)):
        rows = [[ring.zero() for _ in chains[n]] for _ in chains[n - 1]]
        for j, ch in enumerate(chains[n]):
            for t in range(n + 1):
                face = ch[:t] + ch[t + 1:]
                i = index_of[n - 1][face]
                sign = field.one if t % 2 == 0 else field.neg(field.one)
                if t < n:
                    rows[i][j] = rows[i][j] + ring.const(sign)
                else:
                    quot = tuple(x - y for x, y in zip(
                        proper[ch[n]], proper[ch[n - 1]]))
                    rows[i][j] = rows[i][j] + ring.monomial(quot, sign)
        diffs.append(RingMatrix(ring, rows, ncols=len(chains[n])))
    complex = BasedComplex(ring, labels, multidegrees, diffs)
    return StratifiedComplex(complex, poset, strata)


def _taylor_tiers(r: int):
    """The ``(n+1)``-subsets of ``r`` generators, one tier per degree ``n``,
    each listed lexicographically, and per tier the map from a subset to its
    position."""
    tiers = [list(combinations(range(r), n + 1)) for n in range(r)]
    return tiers, [{s: j for j, s in enumerate(tier)} for tier in tiers]


def taylor_resolution(I: MonomialIdeal, field) -> StratifiedComplex:
    """Taylor resolution: degree ``n`` basis indexed by (n+1)-subsets of the
    generators, boundary faces signed alternately and scaled by the monomial
    quotient ``lcm(subset) / lcm(subset minus one)``.  Stratum of a subset:
    its lcm."""
    L = lcm_lattice(I)
    poset = L.poset
    gens = I.generators
    r = len(gens)
    ring = PolyRing(field, I.names)
    tiers, index_of = _taylor_tiers(r)
    lcm_of = {}
    for tier in tiers:
        for s in tier:
            e = gens[s[0]]
            for i in s[1:]:
                e = _join(e, gens[i])
            lcm_of[s] = e
    labels = [["{" + ",".join(str(i) for i in s) + "}" for s in tier]
              for tier in tiers]
    multidegrees = [[lcm_of[s] for s in tier] for tier in tiers]
    strata = [[poset.index[lcm_of[s]] for s in tier] for tier in tiers]
    diffs = []
    for n in range(1, r):
        rows = [[ring.zero() for _ in tiers[n]] for _ in tiers[n - 1]]
        for j, s in enumerate(tiers[n]):
            for t in range(n + 1):
                face = s[:t] + s[t + 1:]
                i = index_of[n - 1][face]
                sign = field.one if t % 2 == 0 else field.neg(field.one)
                quot = tuple(x - y for x, y in zip(lcm_of[s], lcm_of[face]))
                rows[i][j] = rows[i][j] + ring.monomial(quot, sign)
        diffs.append(RingMatrix(ring, rows, ncols=len(tiers[n])))
    complex = BasedComplex(ring, labels, multidegrees, diffs)
    return StratifiedComplex(complex, poset, strata)


_STARTS = {"lcm": order_complex_resolution, "taylor": taylor_resolution}


@dataclass
class ResolveResult:
    resolution: BasedComplex
    field: object
    start: StratifiedComplex          # the start resolution over the work field
    homotopy: Homotopy                # the assembled vector field W
    projection: list                  # stabilized flow matrices, per degree
    iterations: int
    generators: list                  # per degree: ambient columns of the generators
    generator_strata: list
    counts: dict                      # stratum tag -> number of matroidal splittings
    options: dict                     # stratum tag -> per-degree matroidal options
    critical: dict                    # full critical-prime analysis
    plan: object                      # ExtensionPlan or None
    verification: dict
    report: dict

    @property
    def betti(self):
        """Sorted list of (degree, multidegree tuple) with multiplicity."""
        out = []
        for n, degs in enumerate(self.resolution.multidegrees):
            for m in degs:
                out.append((n, tuple(m)))
        return sorted(out)


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
    resolution is delivered over that extension.
    """
    if start not in _STARTS:
        raise InputError(f"unknown start resolution {start!r}")
    if characteristic == 0:
        base_field = QQ
    else:
        base_field = GF(characteristic)
    if mode is None:
        mode = "moore_penrose" if characteristic == 0 else "matroidal_average"
    if mode == "moore_penrose" and characteristic != 0:
        raise InputError("Moore-Penrose requires characteristic zero")
    if mode not in ("moore_penrose", "matroidal_average"):
        raise InputError(f"unknown splitting mode {mode!r}")

    s_base = _STARTS[start](I, base_field)
    issues = s_base.validate()
    if issues:
        raise VerificationError(
            "start resolution failed validation: " + "; ".join(issues))
    poset = s_base.poset
    occupied = s_base.occupied()
    tag_of = {ai: render_monomial(I.names, poset.elements[ai])
              for ai in occupied}
    views_base = {ai: s_base.stratum(ai) for ai in occupied}

    options = {tag_of[ai]: matroidal_options(views_base[ai].complex)
               for ai in occupied}
    counts = {tag: count_choices(opts) for tag, opts in options.items()}
    critical = critical_analysis(counts, characteristic)

    plan = None
    if (mode == "matroidal_average" and characteristic != 0
            and critical.get("critical_strata")):
        work_field, plan = build_extension_field(
            counts, characteristic, order=[tag_of[ai] for ai in occupied])
        work_complex = coerce_complex(s_base.complex, work_field)
        s_work = StratifiedComplex(work_complex, poset, s_base.strata)
    else:
        work_field = base_field
        s_work = s_base

    splittings = {}
    cores = {}
    for ai in occupied:
        view = s_work.stratum(ai)
        if mode == "moore_penrose":
            D = moore_penrose(view.complex)
        else:
            tag = tag_of[ai]
            if plan is not None:
                weights = plan.weights[tag]
            else:
                m = counts[tag]
                weights = [work_field.inv(work_field.from_int(m))] * m
            avg = matroidal_average(views_base[ai].complex, view.complex,
                                    options[tag], weights)
            D = hat(view.complex, avg, verify=False)
        if not classify(view.complex, D).is_splitting:
            raise VerificationError(
                f"stratum {tag_of[ai]}: the {mode} homotopy is not a splitting")
        splittings[ai] = D
        cores[ai] = stratum_core(view.complex, D)

    W = assemble_field(s_work, splittings)
    Pi, iterations = iterate_flow(s_work, W)
    extracted = extract_minimal_summand(s_work, W, cores)
    verification = verify_resolution(extracted.complex, I)
    if not verification["ok"]:
        raise VerificationError(
            "extracted summand is not a minimal resolution: "
            + "; ".join([str(x) for x in verification["failures"]]
                        + verification["validate_issues"]))

    betti = {}
    for n, degs in enumerate(extracted.complex.multidegrees):
        layer = {}
        for mdeg in degs:
            t = render_monomial(I.names, mdeg)
            layer[t] = layer.get(t, 0) + 1
        betti[n] = dict(sorted(layer.items()))
    notes = [
        "matroidal choices are enumerated lexicographically by basis "
        "position, degree 0 outermost",
    ]
    if I.dropped:
        notes.append(f"{I.dropped} redundant generator(s) removed")
    if plan is not None:
        notes.append(
            "averaging weights are generic affine transcendentals; the first "
            "weight of each critical stratum is eliminated as one minus the "
            "sum of the others")
    report = {
        "ideal": {
            "variables": list(I.names),
            "generators": I.generator_strings(),
        },
        "characteristic": characteristic,
        "start": start,
        "mode": mode,
        "field": field_descriptor(work_field),
        "stratum_counts": counts,
        "critical_primes": critical["critical_primes"],
        "critical_strata": critical.get("critical_strata", []),
        "transcendence_degree": critical.get("transcendence_degree", 0),
        "iterations": iterations,
        "stabilization": f"stabilized after {iterations} iterations",
        "ranks": list(extracted.complex.ranks),
        "betti": betti,
        "verification": {
            "minimal": verification["minimal"],
            "exact": verification["exactness_ok"],
            "degrees_checked": verification["checked_degrees"],
        },
        "notes": notes,
    }
    return ResolveResult(
        resolution=extracted.complex,
        field=work_field,
        start=s_work,
        homotopy=W,
        projection=Pi,
        iterations=iterations,
        generators=extracted.generators,
        generator_strata=extracted.generator_strata,
        counts=counts,
        options=options,
        critical=critical,
        plan=plan,
        verification=verification,
        report=report,
    )


def verify_resolution(M: BasedComplex, I: MonomialIdeal) -> dict:
    """Check that ``M`` is a minimal free resolution of ``I``.

    Three layers: (i) ``M`` is a valid homogeneous complex, (ii) no
    differential entry has a nonzero constant term (minimality), and (iii)
    strand-exactness at every lcm-lattice degree ``b``: homology vanishes in
    positive degrees and has dimension one in degree zero except at the
    bottom element.
    """
    issues = M.validate()
    minimal, offenders = minimality_report(M)
    L = lcm_lattice(I)
    failures = []
    checked = 0
    for b in L.elements:
        st = strand(M, b)
        h = homology_ranks(st)
        expected0 = 0 if b == L.bottom else 1
        got0 = h[0] if h else 0
        checked += 1
        bstr = render_monomial(I.names, b)
        if got0 != expected0:
            failures.append(
                f"strand at {bstr}: H_0 has dimension {got0}, expected {expected0}")
        for n in range(1, len(h)):
            if h[n] != 0:
                failures.append(
                    f"strand at {bstr}: H_{n} has dimension {h[n]}, expected 0")
    ok = not issues and minimal and not failures
    return {
        "validate_issues": issues,
        "minimal": minimal,
        "nonminimal_entries": offenders,
        "exactness_ok": not failures,
        "failures": failures,
        "checked_degrees": checked,
        "ok": ok,
    }


def _permute_exps(exps, perm):
    """Apply a variable permutation to an exponent tuple.

    ``perm[i]`` is the image position of variable ``i``; exponents travel
    with their variable."""
    out = [0] * len(exps)
    for i, e in enumerate(exps):
        out[perm[i]] = e
    return tuple(out)


def _signed_basis_map(ring, perm_pairs, size_out, size_in) -> RingMatrix:
    """Matrix of a signed basis bijection given as (target, source, sign)."""
    field = ring.field
    rows = [[ring.zero() for _ in range(size_in)] for _ in range(size_out)]
    for tgt, src, sign in perm_pairs:
        v = field.one if sign > 0 else field.neg(field.one)
        rows[tgt][src] = ring.const(v)
    return RingMatrix(ring, rows, ncols=size_in)


def verify_equivariance(
    I: MonomialIdeal,
    variable_perm,
    result: ResolveResult,
) -> dict:
    """Check that the pipeline respects a symmetry of the ideal.

    ``variable_perm[i]`` is the image position of variable ``i``.  The
    permutation must map the generator set to itself; otherwise it is not a
    symmetry and an error is raised.  The check is on the start resolution:
    the induced signed basis permutation ``P`` satisfies ``d P = P d^g`` and
    ``W P = P W^g``, where ``g`` acts on differential entries by permuting
    the ring variables, and on the (constant) field entries by relabelling
    the transcendental weights along the induced permutation of matroidal
    choices.  Order-complex chains carry no sign; Taylor subsets carry the
    parity of the induced sorting permutation.
    """
    perm = list(variable_perm)
    if sorted(perm) != list(range(I.nvars)):
        raise InputError("variable_perm is not a permutation of the variables")
    gens = I.generators
    gen_map = {}
    gen_set = {g: i for i, g in enumerate(gens)}
    for i, g in enumerate(gens):
        img = _permute_exps(g, perm)
        if img not in gen_set:
            raise InputError("not a symmetry")
        gen_map[i] = gen_set[img]

    s = result.start
    c = s.complex
    ring = c.ring
    field = ring.field
    poset = s.poset
    elem_map = {}
    for ai, e in enumerate(poset.elements):
        img = _permute_exps(e, perm)
        if img not in poset.index:
            raise InputError("not a symmetry")
        elem_map[ai] = poset.index[img]

    # The signed basis permutation, degree by degree.  Basis labels are not
    # consulted: positions are recovered through each start's combinatorics.
    if result.report["start"] == "lcm":
        perm_pairs, choice_actions = _lcm_basis_action(s, elem_map, result)
    else:
        perm_pairs, choice_actions = _taylor_basis_action(
            I, s, gen_map, elem_map, result)
    P = [
        _signed_basis_map(ring, perm_pairs[n], c.rank(n), c.rank(n))
        for n in range(c.top + 1)
    ]

    coeff_map = _weight_substitution(I, field, elem_map, choice_actions, result)

    def act_entry(e):
        e = e.permute_vars(perm)
        if coeff_map is not None:
            e = e.map_coefficients(coeff_map, ring)
        return e

    d_ok = True
    for n in range(1, c.top + 1):
        dg = RingMatrix(
            ring,
            [[act_entry(x) for x in row] for row in c.d(n).rows],
            ncols=c.rank(n),
        )
        if not ((c.d(n) @ P[n]) - (P[n - 1] @ dg)).is_zero():
            d_ok = False
    W = result.homotopy
    w_ok = True
    for n in range(0, c.top):
        wg = RingMatrix(
            ring,
            [[act_entry(x) for x in row] for row in W.D(n).rows],
            ncols=c.rank(n),
        )
        if not ((W.D(n) @ P[n]) - (P[n + 1] @ wg)).is_zero():
            w_ok = False
    return {
        "is_symmetry": True,
        "generator_map": gen_map,
        "d_commutes": d_ok,
        "field_commutes": w_ok,
        "ok": d_ok and w_ok,
    }


def _lcm_basis_action(s: StratifiedComplex, elem_map, result):
    """Chain basis action: permute every chain element, order is preserved.

    Returns per-degree (target, source, sign) triples (sign always +1) and
    the per-stratum local basis index maps needed for the weight action.
    """
    c = s.complex
    chains = _chain_tiers(s.poset)
    index_of = [{ch: j for j, ch in enumerate(tier)} for tier in chains]
    perm_pairs = []
    for n, tier in enumerate(chains):
        pairs = []
        for j, ch in enumerate(tier):
            img = tuple(sorted(elem_map[i] for i in ch))
            pairs.append((index_of[n][img], j, +1))
        perm_pairs.append(pairs)
    # Local index maps per stratum: positions of a stratum's basis inside the
    # stratum complex, before and after the ambient permutation.
    choice_actions = _stratum_local_maps(s, elem_map, perm_pairs)
    return perm_pairs, choice_actions


def _taylor_basis_action(I, s: StratifiedComplex, gen_map, elem_map, result):
    tiers, index_of = _taylor_tiers(len(I.generators))
    perm_pairs = []
    for n, tier in enumerate(tiers):
        pairs = []
        for j, sset in enumerate(tier):
            imgs = [gen_map[i] for i in sset]
            order = sorted(range(len(imgs)), key=lambda t: imgs[t])
            sign = _sort_parity(order)
            img = tuple(sorted(imgs))
            pairs.append((index_of[n][img], j, sign))
        perm_pairs.append(pairs)
    choice_actions = _stratum_local_maps(s, elem_map, perm_pairs)
    return perm_pairs, choice_actions


def _sort_parity(order) -> int:
    """+1 or -1: parity of the permutation that sorts the list."""
    seen = [False] * len(order)
    sign = 1
    for i in range(len(order)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = order[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _stratum_local_maps(s: StratifiedComplex, elem_map, perm_pairs):
    """For each occupied stratum: the induced map of local basis positions.

    Returns {poset index: per-degree list mapping local position in stratum a
    to (local position in stratum elem_map[a], sign)}.
    """
    views = {ai: s.stratum(ai) for ai in s.occupied()}
    local_pos = {}
    for ai, view in views.items():
        local_pos[ai] = [
            {g: t for t, g in enumerate(view.indices[n])}
            for n in range(len(view.indices))
        ]
    actions = {}
    for ai, view in views.items():
        bi = elem_map[ai]
        tgt = views[bi]
        per_degree = []
        for n in range(len(view.indices)):
            amb = {src: (dst, sg) for dst, src, sg in perm_pairs[n]} \
                if n < len(perm_pairs) else {}
            lmap = []
            for g in view.indices[n]:
                dst, sg = amb[g]
                lmap.append((local_pos[bi][n][dst], sg))
            per_degree.append(lmap)
        actions[ai] = per_degree
    return actions


def _weight_substitution(I, field, elem_map, choice_actions, result):
    """Coefficient action on transcendental weights, or None when trivial.

    A critical stratum ``a`` maps to ``b = elem_map[a]``; the local basis
    bijection sends each matroidal choice of ``a`` to one of ``b``, and the
    weight ``y[a][j]`` must be sent to the weight of the image choice —
    ``y[b][j']``, or ``1 - sum`` when the image is the eliminated choice 0.
    """
    plan = result.plan
    if plan is None or not plan.critical:
        return None
    if not isinstance(field, FunctionField):
        return None
    s = result.start
    poset = s.poset
    tag_of = {ai: render_monomial(I.names, poset.elements[ai])
              for ai in s.occupied()}
    tag_to_idx = {t: ai for ai, t in tag_of.items()}
    # The matroidal choices in weight order, on both sides of the symmetry.
    choice_lists = {tag_to_idx[tag]: list_choices(result.options[tag])
                    for tag in plan.critical}
    subst = {}
    for tag in plan.critical:
        ai = tag_to_idx[tag]
        bi = elem_map[ai]
        btag = tag_of[bi]
        if btag not in plan.critical:
            raise InputError("not a symmetry")
        src_choices = choice_lists[ai]
        dst_index = {ch: t for t, ch in enumerate(choice_lists[bi])}
        lmaps = choice_actions[ai]
        for j, ch in enumerate(src_choices):
            if j == 0:
                continue  # y[a][0] never occurs: it was eliminated
            img = _map_choice(ch, lmaps)
            jp = dst_index[img]
            src_var = field.index[weight_name(tag, j)]
            if jp == 0:
                # image is the eliminated weight: 1 - sum of the others
                pd = field.pd_const(1)
                for t in range(1, len(src_choices)):
                    pd = field.pd_sub(
                        pd, field.pd_var(field.index[weight_name(btag, t)]))
                subst[src_var] = pd
            else:
                subst[src_var] = field.pd_var(
                    field.index[weight_name(btag, jp)])
    if not subst:
        return None

    def act(value):
        return field.substitute(value, subst)
    return act


def _map_choice(choice, lmaps):
    """Image of a matroidal choice under per-degree local index maps."""
    from .splittings import MatroidalChoice
    xs = []
    zs = []
    for x_set, z_set in zip(choice.x_sets, choice.z_sets):
        n = len(xs)
        lmap = lmaps[n]
        xs.append(tuple(sorted(lmap[i][0] for i in x_set)))
        zs.append(tuple(sorted(lmap[i][0] for i in z_set)))
    return MatroidalChoice(x_sets=tuple(xs), z_sets=tuple(zs))
