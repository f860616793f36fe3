"""Pointed affine semigroup rings: bar-type start resolutions and their
minimal summands.

The input is a finite piece of the divisibility category of a pointed affine
semigroup ``Q`` inside ``Z^d``: finitely many objects (degree vectors) and
nonidentity morphisms between them, each labelled by a monomial.  The start
resolution in degree ``n`` has one basis element per composable sequence of
``n`` nonidentity morphisms (objects in degree zero); its multidegree is the
degree of the sequence's terminal object, which is also its stratum.  The
same flow pipeline as for monomial ideals then extracts the minimal summand;
strand-exactness is checked at every degree below the resolution's degree
support, with the expected rank-one contribution exactly at the degrees that
lie in ``Q``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InputError, VerificationError
from .scalars import QQ, GF, field_descriptor
from .linalg import PolyRing, RingMatrix
from .complexes import (
    BasedComplex,
    Poset,
    StratifiedComplex,
    _enumerate_monomials,
    homology_ranks,
    minimality_report,
    strand,
)
from .flows import (
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
    matroidal_average,
    matroidal_options,
    stratum_core,
)

__all__ = [
    "BettiCategoryData",
    "ToricResolveResult",
    "bar_resolution",
    "resolve_toric",
    "verify_toric_resolution",
]


def _vec(v):
    return tuple(int(x) for x in v)


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
    category direct and the stratification triangular.
    """

    def __init__(self, names, deg_map, objects, morphisms):
        self.names = tuple(str(n) for n in names)
        self.deg_map = tuple(tuple(int(x) for x in row) for row in deg_map)
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
        self.objects = [_vec(o) for o in objects]
        if len(set(self.objects)) != len(self.objects):
            raise InputError("duplicate objects")
        if any(len(o) != self.dim for o in self.objects):
            raise InputError("object degree has the wrong dimension")
        obj_set = set(self.objects)
        self.morphisms = []
        for m in morphisms:
            src, tgt, mono = _vec(m[0]), _vec(m[1]), _vec(m[2])
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
        self._out = {o: [] for o in self.objects}
        for f in self.morphisms:
            self._out[f.source].append(f)

    def monomial_degree(self, exps):
        return tuple(
            sum(row[i] * e for i, e in enumerate(exps)) for row in self.deg_map)

    def outgoing(self, obj):
        return self._out[obj]

    def compose(self, f: Morphism, g: Morphism) -> Morphism:
        """The composite of consecutive morphisms f then g."""
        if f.target != g.source:
            raise InputError("morphisms are not composable")
        mono = tuple(a + b for a, b in zip(f.monomial, g.monomial))
        return Morphism(f.source, g.target, mono)

    def find(self, f: Morphism) -> Morphism:
        """The stored morphism equal to ``f`` (composites must be present)."""
        for g in self.morphisms:
            if g == f:
                return g
        raise InputError(
            "the category is not closed under composition of its morphisms")


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
    poset, _ = Poset.from_leq(list(data.objects), _componentwise_leq)

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
                    _render_morphism(data, morphs[i]) for i in seq) + "]")
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
                comp = data.find(data.compose(fs[t - 1], fs[t]))
                face = seq[:t - 1] + (morph_index[comp],) + seq[t + 1:]
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


def _render_morphism(data: BettiCategoryData, f: Morphism) -> str:
    parts = []
    for nm, e in zip(data.names, f.monomial):
        if e == 1:
            parts.append(nm)
        elif e > 1:
            parts.append(f"{nm}^{e}")
    return "*".join(parts) if parts else "1"


@dataclass
class ToricResolveResult:
    resolution: BasedComplex
    field: object
    start: StratifiedComplex
    homotopy: object
    projection: list
    iterations: int
    counts: dict
    critical: dict
    plan: object
    verification: dict
    report: dict


def resolve_toric(
    data: BettiCategoryData,
    characteristic: int = 0,
    mode: Optional[str] = None,
) -> ToricResolveResult:
    """Minimal summand of the bar-type resolution, any characteristic.

    Characteristic zero defaults to Moore-Penrose splittings; positive
    characteristic uses the matroidal average, replaced by a generic affine
    combination over a transcendental extension whenever the characteristic
    divides a stratum count (the report notes the substitution).
    """
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

    s_base = bar_resolution(data, base_field)
    issues = s_base.validate()
    if issues:
        raise VerificationError(
            "bar resolution failed validation: " + "; ".join(issues))
    poset = s_base.poset
    occupied = s_base.occupied()
    tag_of = {ai: ",".join(str(x) for x in poset.elements[ai])
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
        s_work = StratifiedComplex(
            coerce_complex(s_base.complex, work_field), poset, s_base.strata)
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
    verification = verify_toric_resolution(extracted.complex, data)
    if not verification["ok"]:
        raise VerificationError(
            "extracted summand is not a minimal resolution: "
            + "; ".join([str(x) for x in verification["failures"]]
                        + verification["validate_issues"]))

    betti = {}
    for n, degs in enumerate(extracted.complex.multidegrees):
        layer = {}
        for mdeg in degs:
            t = ",".join(str(x) for x in mdeg)
            layer[t] = layer.get(t, 0) + 1
        betti[n] = dict(sorted(layer.items()))
    notes = [
        "matroidal choices are enumerated lexicographically by basis "
        "position, degree 0 outermost",
    ]
    if plan is not None:
        notes.append(
            "the plain matroidal average is undefined at this characteristic; "
            "generic affine weights over a transcendental extension were used "
            "instead")
    report = {
        "objects": [list(o) for o in data.objects],
        "morphisms": len(data.morphisms),
        "characteristic": characteristic,
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
    return ToricResolveResult(
        resolution=extracted.complex,
        field=work_field,
        start=s_work,
        homotopy=W,
        projection=Pi,
        iterations=iterations,
        counts=counts,
        critical=critical,
        plan=plan,
        verification=verification,
        report=report,
    )


def verify_toric_resolution(M: BasedComplex, data: BettiCategoryData) -> dict:
    """Validation, minimality and strand-exactness for a toric resolution.

    Strands are checked at every degree vector componentwise below the
    maximal multidegree appearing in ``M``.  The degree-zero homology must
    have dimension one exactly at degrees that lie in the semigroup (some
    monomial in the ring variables reaches them) and zero elsewhere; higher
    homology must vanish everywhere.
    """
    issues = M.validate()
    minimal, offenders = minimality_report(M)
    top = [0] * data.dim
    for degs in M.multidegrees:
        for m in degs:
            for i, x in enumerate(m):
                top[i] = max(top[i], x)
    boxes = [range(t + 1) for t in top]
    from itertools import product as _product

    failures = []
    checked = 0
    for b in _product(*boxes):
        st = strand(M, b)
        h = homology_ranks(st)
        in_q = bool(_enumerate_monomials(data.deg_map, list(b)))
        expected0 = 1 if in_q else 0
        got0 = h[0] if h else 0
        checked += 1
        bstr = ",".join(str(x) for x in b)
        if got0 != expected0:
            failures.append(
                f"strand at ({bstr}): H_0 has dimension {got0}, "
                f"expected {expected0}")
        for n in range(1, len(h)):
            if h[n] != 0:
                failures.append(
                    f"strand at ({bstr}): H_{n} has dimension {h[n]}, expected 0")
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
