"""Per-stratum splittings, and the stratified resolve core built on them.

A *matroidal splitting* of a scalar complex picks, in each degree, a subset
``X_n`` of the basis whose differential columns form a basis of the image of
``d_n``, together with a set ``Z_n`` of corrected cycles (one for each basis
element outside ``X_n`` that is kept) whose classes are independent in
homology.  Each such choice determines a splitting homotopy; the per-degree
options are finite, and the choices are their product, in lexicographic
order with degree 0 outermost.

Averaging all matroidal splittings gives a canonical (basis-permutation
equivariant) homotopy.  The average needs the number ``m`` of splittings to be
invertible; primes dividing some stratum count are *critical*.  At a critical
prime the average is replaced by a generic affine combination with fresh
transcendental weights ``y[a][0..m-1]``, where ``y[a][0]`` is eliminated as
``1 - sum of the others``.

The average is formed without building one homotopy per choice.  Write
``W_n`` for the positions outside ``X_n ∪ Z_n``; ``|W_n| = rk d_{n+1}``.  The
homotopy of a choice has ``D_n`` zero except on rows ``X_{n+1}`` and
columns ``W_n``, where it is the inverse of the square minor
``d_{n+1}[W_n, X_{n+1}]``.  Proof: ``D_n`` holds the first ``rk d_{n+1}``
rows ``L`` of ``T^{-1}``, where ``T`` has the columns ``d(X_{n+1})``, the
cycles ``z_b`` (``b`` in ``Z_n``) and the indicators ``e_x`` (``x`` in
``X_n``).  So ``L d(X_{n+1}) = I``, ``L e_x = 0`` and ``L z_b = 0``; as
``z_b = e_b - sum_{c in X_n} r_c e_c``, also ``L e_b = 0``.  Hence ``L`` is
supported on the columns ``W_n``, and ``L[:, W_n] d_{n+1}[W_n, X_{n+1}] = I``.
Each ``D_n`` of the average is therefore a sum over the distinct pairs
``(W_n, X_{n+1})`` of the summed weights of the choices containing the pair
times that pair's block; :func:`matroidal_average` inverts each minor once.

:func:`resolve_stratified` is the one resolve core behind the monomial and
toric entry points: it slices each stratum once, splits them all in one
step with :func:`split_strata`, assembles the vector field, flows to the
minimal summand and verifies it.

Where the field is decided: :func:`~chainflow.scalars.prime_field` turns
the characteristic into Q or F_p, and the start is built over that field.
:func:`split_strata` keeps it as the work field unless the mode is the
matroidal average and :func:`critical_analysis` finds critical strata; then
:func:`build_extension_field` forms ``F_p(y)`` with their affine weights,
and the start is coerced to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import prod
from typing import Optional

from .errors import InputError, VerificationError
from .scalars import FunctionField, field_descriptor, prime_field
from .linalg import (
    PolyRing, RingMatrix, kernel, rref, s_inverse, s_mul, s_rank,
    s_transpose, solve,
)
from .complexes import BasedComplex, StratifiedComplex
from .flows import (
    Homotopy,
    _satisfies_pdp,
    assemble_field,
    classify,
    dmat,
    extract_minimal_summand,
    hat,
    iterate_flow,
    moore_penrose,
)

__all__ = [
    "MatroidalChoice",
    "enumerate_matroidal",
    "matroidal_options",
    "count_choices",
    "matroidal_average",
    "matroidal_count",
    "critical_analysis",
    "weight_name",
    "build_extension_field",
    "coerce_complex",
    "stratum_core",
    "split_strata",
    "ResolveResult",
    "resolve_stratified",
]


@dataclass(frozen=True)
class MatroidalChoice:
    """Per-degree index data of one matroidal splitting.

    ``x_sets[n]`` lists the basis positions whose columns span the image of
    ``d_n``; ``z_sets[n]`` lists the positions of the kept corrected cycles.
    """

    x_sets: tuple
    z_sets: tuple


def _scalar_diff(c: BasedComplex, n: int):
    m = dmat(c, n)
    return m.scalar_rows(), m.nrows, m.ncols


def _degree_options(c: BasedComplex, n: int):
    """All valid (X_n, Z_n) pairs in lexicographic order, with cycle data.

    Returns (options, rank_dn) where each option is (x_set, z_set, cycles),
    ``cycles`` mapping a kept position b to its corrected cycle vector
    ``e_b - sum r_c e_c`` (coefficients over the base field).

    This is the brute-force oracle: it ranks every candidate ``X_n`` and
    ``Z_n`` from scratch.  Only :func:`enumerate_matroidal` uses it, for the
    cycles that :func:`_build_homotopy` needs; the pipelines list the
    options with :func:`matroidal_options`.
    """
    field = c.ring.field
    dn, _, r_n = _scalar_diff(c, n)
    dn1, _, _ = _scalar_diff(c, n + 1)
    rk_n = s_rank(field, dn)
    rk_n1 = s_rank(field, dn1)
    h = r_n - rk_n - rk_n1
    if h < 0:
        raise InputError("not a complex: negative homology dimension")
    options = []
    for x_set in combinations(range(r_n), rk_n):
        if rk_n:
            sub = [[dn[i][j] for j in x_set] for i in range(len(dn))]
            if s_rank(field, sub) < rk_n:
                continue
        else:
            sub = [[] for _ in range(len(dn))]
        rest = [b for b in range(r_n) if b not in x_set]
        cycles = {}
        ok = True
        for b in rest:
            if rk_n:
                rhs = [dn[i][b] for i in range(len(dn))]
                sol = solve(field, sub, rhs)
                if sol is None:
                    ok = False
                    break
                coeffs = sol
            else:
                coeffs = []
            z = [field.zero] * r_n
            z[b] = field.one
            for cpos, cc in zip(x_set, coeffs):
                z[cpos] = field.sub(z[cpos], cc)
            cycles[b] = z
        if not ok:
            continue
        for z_set in combinations(rest, h):
            if h:
                # Independence in homology: the chosen cycles together with a
                # spanning set of boundaries must have full rank h + rk_{n+1}.
                joint = [
                    [cycles[b][i] for b in z_set] + list(dn1[i]) if dn1 else
                    [cycles[b][i] for b in z_set]
                    for i in range(r_n)
                ]
                if s_rank(field, joint) != h + rk_n1:
                    continue
            options.append((x_set, z_set, cycles))
    return options, rk_n


def _build_homotopy(c: BasedComplex, per_degree) -> Homotopy:
    """The splitting homotopy of one per-degree (X, Z, cycles) selection.

    In each degree ``F_n`` has the basis ``d(X_{n+1})-columns, Z_n-cycles,
    X_n-indicators``; ``D_n`` sends the boundary part to the corresponding
    ``X_{n+1}`` indicators and kills the rest.
    """
    field = c.ring.field
    mats = []
    for n in range(0, c.top):
        r_n = c.rank(n)
        r_n1 = c.rank(n + 1)
        x_n, z_n, cycles_n = per_degree[n]
        x_up, _, _ = per_degree[n + 1]
        dn1, _, _ = _scalar_diff(c, n + 1)
        rk1 = len(x_up)
        cols = []
        for x in x_up:
            cols.append([dn1[i][x] for i in range(r_n)])
        for b in z_n:
            cols.append(list(cycles_n[b]))
        for x in x_n:
            ind = [field.zero] * r_n
            ind[x] = field.one
            cols.append(ind)
        if len(cols) != r_n:
            raise VerificationError("matroidal basis blocks do not fill the degree")
        if r_n:
            T = [[cols[j][i] for j in range(r_n)] for i in range(r_n)]
            Tinv = s_inverse(field, T)
            lift = Tinv[:rk1]
        else:
            lift = []
        Dn = [[field.zero] * r_n for _ in range(r_n1)]
        for t, x in enumerate(x_up):
            for j in range(r_n):
                Dn[x][j] = lift[t][j]
        mats.append(RingMatrix.from_scalar_rows(c.ring, Dn, ncols=r_n))
    return Homotopy(c, mats)


def enumerate_matroidal(c: BasedComplex) -> list:
    """All matroidal splittings of a scalar complex, lexicographically.

    Returns a list of (MatroidalChoice, Homotopy) pairs ordered by the
    per-degree (X, Z) index tuples, degree 0 outermost.
    """
    if not c.is_scalar():
        raise InputError("matroidal enumeration needs a scalar complex")
    per_degree_options = []
    for n in range(0, c.top + 1):
        options, _ = _degree_options(c, n)
        if not options:
            raise VerificationError(
                f"no matroidal choice exists in degree {n}")
        per_degree_options.append(options)
    out = []
    for combo in product(*per_degree_options):
        choice = MatroidalChoice(
            x_sets=tuple(opt[0] for opt in combo),
            z_sets=tuple(opt[1] for opt in combo),
        )
        out.append((choice, _build_homotopy(c, list(combo))))
    return out


def _basis_test(field, mat):
    """The rank of ``mat`` and a test for column bases of it.

    ``mat`` is row-reduced once, to ``R`` with pivot columns ``P``.  A set
    ``S`` of rank-many columns is a basis iff ``R[:, S]`` is invertible; its
    columns in ``P`` are unit vectors, so that holds iff the minor
    ``R[P \\ S, S \\ P]`` is nonsingular.  The minor has at most
    ``min(rank, ncols - rank)`` rows.
    """
    red, pivots = rref(field, mat)
    pivot_row = {col: i for i, col in enumerate(pivots)}

    def is_basis(cols) -> bool:
        free = [j for j in cols if j not in pivot_row]
        if not free:
            return True
        chosen = set(cols)
        minor = [[red[i][j] for j in free]
                 for col, i in pivot_row.items() if col not in chosen]
        return len(rref(field, minor)[1]) == len(free)

    return len(pivots), is_basis


def matroidal_options(c: BasedComplex) -> list:
    """Per-degree matroidal options of a scalar complex, degrees 0..top.

    ``options[n]`` lists the (X_n, Z_n) pairs of degree ``n`` in
    lexicographic order; an empty list means the complex has no matroidal
    splitting.  The corrected cycles are not formed: the average needs only
    the index sets.  On a complex the result equals that of
    :func:`_degree_options`.

    Criterion: ``(X_n, Z_n)`` is valid iff ``X_n`` is a column basis of
    ``d_n`` and the rows ``W_n = [r_n] \\ (X_n ∪ Z_n)`` of ``d_{n+1}`` are
    independent, i.e. a column basis of ``d_{n+1}^T``.  Proof: for a column
    basis ``X_n``, each corrected cycle is ``z_b ≡ e_b`` modulo
    ``span(e_X)``, and ``ker d_n ∩ span(e_X) = 0``.  As ``z_Z`` and
    ``d_{n+1}`` lie in ``ker d_n``, ``[z_Z | d_{n+1}]`` has rank
    ``h + rk d_{n+1} = r_n - |X_n|`` iff ``[e_X | z_Z | d_{n+1}]``, which
    spans what ``[e_X | e_Z | d_{n+1}]`` spans, has rank ``r_n``, iff
    ``d_{n+1}[W_n, :]`` has rank ``|W_n| = rk d_{n+1}``.

    Each differential is therefore row-reduced once, and each candidate is
    decided by the small minor of :func:`_basis_test`; the W-test is
    memoised per ``W_n``.
    """
    if not c.is_scalar():
        raise InputError("matroidal enumeration needs a scalar complex")
    field = c.ring.field
    out = []
    for n in range(0, c.top + 1):
        dn, _, r_n = _scalar_diff(c, n)
        dn1, _, _ = _scalar_diff(c, n + 1)
        rk_n, x_is_basis = _basis_test(field, dn)
        rk_n1, w_is_basis = _basis_test(field, s_transpose(dn1))
        h = r_n - rk_n - rk_n1
        if h < 0:
            raise InputError("not a complex: negative homology dimension")
        w_valid = {}
        options = []
        for x_set in combinations(range(r_n), rk_n):
            if not x_is_basis(x_set):
                continue
            rest = [b for b in range(r_n) if b not in x_set]
            for z_set in combinations(rest, h):
                w_set = tuple(b for b in rest if b not in z_set)
                ok = w_valid.get(w_set)
                if ok is None:
                    ok = w_valid[w_set] = w_is_basis(w_set)
                if ok:
                    options.append((x_set, z_set))
        out.append(options)
    return out


def count_choices(options) -> int:
    """Number of matroidal splittings: the product of per-degree counts."""
    return prod(len(opts) for opts in options)


def matroidal_count(c: BasedComplex) -> int:
    """Number of matroidal splittings (product of per-degree option counts)."""
    return count_choices(matroidal_options(c))


def matroidal_average(c_base: BasedComplex, c_work: BasedComplex,
                      options: list, weights: list) -> Homotopy:
    """Affine combination of all matroidal splittings, one block per pair.

    ``c_base`` is a scalar complex over Q or a prime field and ``options``
    its :func:`matroidal_options`; ``c_work`` is the same complex over the
    working field (the base field or a transcendental extension of it), and
    ``weights`` holds one working-field weight per choice, in enumeration
    order.  The result equals the affine combination of the homotopies of
    :func:`enumerate_matroidal`, but no per-choice homotopy is built.

    Block formula: with ``W_n = [r_n] \\ (X_n ∪ Z_n)``, a choice's ``D_n``
    is zero except on rows ``X_{n+1}`` and columns ``W_n``, where it is the
    inverse of the minor ``d_{n+1}[W_n, X_{n+1}]``.  Proof sketch: its rows
    ``L`` (the first ``rk d_{n+1}`` rows of the basis change inverse)
    satisfy ``L d(X_{n+1}) = I`` and kill the indicators ``e_x`` of ``X_n``
    and the cycles ``z_b = e_b - sum_{c in X_n} r_c e_c`` of ``Z_n``, hence
    every ``e_b`` outside ``W_n``; so ``L[:, W_n] d_{n+1}[W_n, X_{n+1}] = I``.

    One pass over the choices, degree 0 outermost, sums the weights of each
    pair ``(W_n, X_{n+1})``; each minor is then inverted once over the base
    field, and only the weighted entries enter the working field.  As in
    :func:`~chainflow.flows.affine_combination`, the weights must sum to 1
    and the result must satisfy ``d D d = d``; both are verified exactly.
    """
    base = c_base.ring.field
    field = c_work.ring.field
    top = c_base.top
    radices = [len(opts) for opts in options]
    if len(radices) != top + 1:
        raise InputError("matroidal options do not cover every degree")
    if len(weights) != prod(radices):
        raise InputError(
            f"{len(weights)} weights for {prod(radices)} matroidal choices")
    if not weights:
        raise VerificationError("no matroidal choice exists")
    one = field.one
    if not field.eq(field.dot((w, one) for w in weights), one):
        raise VerificationError("affine weights do not sum to 1")
    w_sets = []
    x_sets = []
    for n, opts in enumerate(options):
        r_n = c_base.rank(n)
        w_sets.append([
            tuple(b for b in range(r_n) if b not in x_set and b not in z_set)
            for x_set, z_set in opts])
        x_sets.append([x_set for x_set, _ in opts])
    omega = [{} for _ in range(top)]
    for w, idx in zip(weights, product(*(range(k) for k in radices))):
        for n in range(top):
            key = (w_sets[n][idx[n]], x_sets[n + 1][idx[n + 1]])
            ws = omega[n].get(key)
            if ws is None:
                omega[n][key] = [w]
            else:
                ws.append(w)
    mats = []
    for n in range(top):
        r_n = c_base.rank(n)
        dn1, _, _ = _scalar_diff(c_base, n + 1)
        cells = {}
        for (w_set, x_up), ws in omega[n].items():
            if not x_up:
                continue
            w = field.dot((wt, one) for wt in ws)
            if field.is_zero(w):
                continue
            block = s_inverse(base, [[dn1[i][x] for x in x_up] for i in w_set])
            for x, brow in zip(x_up, block):
                for b, v in zip(w_set, brow):
                    if not base.is_zero(v):
                        pair = (w, v if field is base else field.from_int(v))
                        pairs = cells.get((x, b))
                        if pairs is None:
                            cells[x, b] = [pair]
                        else:
                            pairs.append(pair)
        rows = [[field.zero] * r_n for _ in range(c_base.rank(n + 1))]
        for (x, b), pairs in cells.items():
            rows[x][b] = field.dot(pairs)
        mats.append(RingMatrix.from_scalar_rows(c_work.ring, rows, ncols=r_n))
    out = Homotopy(c_work, mats)
    if not _satisfies_pdp(c_work, out):
        raise VerificationError("matroidal average lost d D d = d")
    return out


def _prime_factors(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def critical_analysis(counts: dict, characteristic: int) -> dict:
    """Critical primes of a family of stratum counts.

    A prime is critical when it divides some stratum's number of matroidal
    splittings (so the plain average cannot be formed over that prime field).
    The per-prime transcendence degree is the total number of fresh weights a
    generic affine combination needs: ``sum (m(a) - 1)`` over critical strata.
    The report also gives the critical strata and transcendence degree at
    ``characteristic``, read from its ``per_prime`` entry; in characteristic
    0, or when ``characteristic`` divides no count, there are none.
    """
    primes = set()
    for m in counts.values():
        if m <= 0:
            raise InputError("stratum with no matroidal splittings")
        primes.update(_prime_factors(m))
    report = {
        "counts": dict(counts),
        "critical_primes": sorted(primes),
        "per_prime": {},
    }
    for p in sorted(primes):
        crit = [a for a, m in counts.items() if m % p == 0]
        report["per_prime"][p] = {
            "critical_strata": crit,
            "transcendence_degree": sum(counts[a] - 1 for a in crit),
        }
    at_char = report["per_prime"].get(characteristic, {})
    report["characteristic"] = characteristic
    report["critical_strata"] = list(at_char.get("critical_strata", []))
    report["transcendence_degree"] = at_char.get("transcendence_degree", 0)
    return report


def weight_name(stratum_key, j: int) -> str:
    return f"y[{stratum_key}][{j}]"


def build_extension_field(critical_counts: dict, p: int):
    """The working field and the critical strata's weights at ``p``.

    ``critical_counts`` maps each critical stratum (``p`` divides its count
    ``m``), in stratum order, to ``m``; the transcendentals are numbered in
    that order.  Each critical stratum gets ``m - 1`` fresh transcendentals
    ``y[a][1..m-1]``; the first weight ``y[a][0]`` is eliminated as
    ``1 - sum`` of the others, which keeps the weights affine and the field
    purely transcendental of degree ``len(field.names)``.  Returns
    ``(field, weights)`` with ``weights`` mapping each critical stratum to
    its ``m`` affine weights.  Non-critical strata keep the constant weight
    ``1/m``, which :func:`split_strata` forms.
    """
    names = [weight_name(a, j)
             for a, m in critical_counts.items() for j in range(1, m)]
    field = FunctionField(p, names, label="generic affine weights")
    weights = {}
    pos = 0
    for a, m in critical_counts.items():
        free = range(pos, pos + m - 1)
        first = field.pd_affine_rest(free)
        field.eliminations[weight_name(a, 0)] = first
        weights[a] = [(first, None)] + [field.var(i) for i in free]
        pos += m - 1
    return field, weights


def coerce_complex(c: BasedComplex, dst_field) -> BasedComplex:
    """Base-change a complex along the embedding of its prime field (or Q)
    into ``dst_field``, a field of the same characteristic."""
    src_field = c.ring.field
    if src_field is dst_field:
        return c
    if src_field.char != dst_field.char:
        raise InputError(
            f"cannot coerce scalars of characteristic {src_field.char} "
            f"into characteristic {dst_field.char}")
    return c.map_coefficients(PolyRing(dst_field, c.ring.names),
                              dst_field.from_int)


def stratum_core(c: BasedComplex, D: Homotopy) -> list:
    """Per-degree basis of the core ``C_n = Ker(D d) ∩ Ker(d D)``.

    For a splitting homotopy the core equals ``Ker(d) ∩ Ker(d D)``, which is
    cheaper: the kernel of the (constant) differential is computed first and
    only the composite ``d D`` touches non-constant weight polynomials.
    """
    field = c.ring.field
    out = []
    for n in range(0, c.top + 1):
        r = c.rank(n)
        if r == 0:
            out.append([])
            continue
        dn, _, _ = _scalar_diff(c, n)
        dn1up, _, _ = _scalar_diff(c, n + 1)
        Dn = D.D(n).scalar_rows()
        if dn and any(not field.is_zero(x) for row in dn for x in row):
            ker = kernel(field, dn)
        else:
            ker = [[field.one if i == j else field.zero for i in range(r)]
                   for j in range(r)]
        if not ker:
            out.append([])
            continue
        # Restrict d D to Ker d and take its kernel there.
        B = s_mul(field, dn1up, Dn) if dn1up and Dn else []
        if not B:
            combos = [[field.one if i == j else field.zero
                       for i in range(len(ker))] for j in range(len(ker))]
        else:
            kmat = [[ker[j][i] for j in range(len(ker))] for i in range(r)]
            bk = s_mul(field, B, kmat)
            combos = kernel(field, bk)
            if not combos:
                out.append([])
                continue
        vecs = s_mul(field, combos, ker)
        clear = getattr(field, "clear_vector_denominators", None)
        if clear is not None:
            vecs = [clear(v) for v in vecs]
        out.append(vecs)
    return out


def _splitting_mode(characteristic: int, mode: Optional[str]) -> str:
    """The splitting mode, defaulting by characteristic, or an input error."""
    if mode is None:
        mode = "moore_penrose" if characteristic == 0 else "matroidal_average"
    if mode == "moore_penrose" and characteristic != 0:
        raise InputError("Moore-Penrose requires characteristic zero")
    if mode not in ("moore_penrose", "matroidal_average"):
        raise InputError(f"unknown splitting mode {mode!r}")
    return mode


def split_strata(complexes: dict, field, mode: str):
    """The certified splitting homotopy and core of every stratum.

    ``complexes`` maps stratum tags, in stratum order, to the stratum
    complexes over ``field``, the prime field (or Q) of the resolve.  The
    options are counted and the critical analysis run at ``field.char``; the
    work field is a transcendental extension, with affine weights for each
    critical stratum, only when ``mode`` is the matroidal average and the
    characteristic divides some count.  Each stratum, coerced to the work
    field, is split by the pseudoinverse or by ``hat`` of the average with
    its critical weights or ``1/m`` each; :func:`classify` certifies the
    split.  Returns ``(critical, field, splittings, cores)``: the critical
    analysis, whose ``counts`` are the stratum counts, the work field, and
    the last two keyed by tag; each homotopy's ``complex`` is its stratum
    over the work field.
    """
    options = {tag: matroidal_options(c) for tag, c in complexes.items()}
    counts = {tag: count_choices(opts) for tag, opts in options.items()}
    critical = critical_analysis(counts, field.char)
    weights = {}
    if mode == "matroidal_average" and critical["critical_strata"]:
        field, weights = build_extension_field(
            {tag: counts[tag] for tag in critical["critical_strata"]},
            field.char)
    splittings = {}
    cores = {}
    for tag, c_base in complexes.items():
        c = coerce_complex(c_base, field)
        if mode == "moore_penrose":
            D = moore_penrose(c)
        else:
            ws = weights.get(tag)
            if ws is None:
                m = counts[tag]
                ws = [field.inv(field.from_int(m))] * m
            D = hat(c, matroidal_average(c_base, c, options[tag], ws))
        if not classify(c, D).is_splitting:
            raise VerificationError(
                f"stratum {tag}: the {mode} homotopy is not a splitting")
        splittings[tag] = D
        cores[tag] = stratum_core(c, D)
    return critical, field, splittings, cores


@dataclass
class ResolveResult:
    resolution: BasedComplex          # over the work field
    start: StratifiedComplex          # the start resolution over the work field
    homotopy: Homotopy                # the assembled vector field W
    report: dict


def resolve_stratified(start, characteristic: int, mode: Optional[str],
                       render, verify) -> ResolveResult:
    """Minimal summand of a stratified start resolution, any characteristic.

    The one construction behind the monomial and toric entry points.
    ``start(field)`` builds the start over the prime field (or Q) of
    ``characteristic``; it is called after the mode check, and a start that
    fails :meth:`StratifiedComplex.validate` raises.  Each occupied
    stratum is sliced once, and :func:`split_strata` splits them all and
    takes their cores, over a transcendental extension when the mode is the
    matroidal average and the characteristic divides a stratum count.  The
    splittings are assembled into a vector field on the start over the work
    field, whose flow is iterated to a projection, and the projected summand
    is extracted.  ``render`` turns a multidegree
    into the string that tags strata and keys the Betti table; ``verify``
    checks the extracted complex and returns a dict with ``ok``,
    ``minimal``, ``exactness_ok``, ``checked_degrees``, ``failures`` and
    ``validate_issues``, and a failed check raises.  The report carries the
    keys common to both entry points; they add their own.
    """
    base_field = prime_field(characteristic)
    mode = _splitting_mode(characteristic, mode)
    s_base = start(base_field)
    issues = s_base.validate()
    if issues:
        raise VerificationError(
            "start resolution failed validation: " + "; ".join(issues))
    poset = s_base.poset
    tags = {ai: render(poset.elements[ai]) for ai in s_base.occupied()}
    critical, work_field, splittings, cores = split_strata(
        {tag: s_base.stratum(ai) for ai, tag in tags.items()},
        base_field, mode)
    s_work = s_base
    if work_field is not base_field:
        s_work = StratifiedComplex(coerce_complex(s_base.complex, work_field),
                                   poset, s_base.strata)

    W = assemble_field(s_work, {ai: splittings[tag] for ai, tag in tags.items()})
    _, iterations = iterate_flow(s_work, W)
    resolution = extract_minimal_summand(
        s_work, W, iterations, {ai: cores[tag] for ai, tag in tags.items()})
    verification = verify(resolution)
    if not verification["ok"]:
        raise VerificationError(
            "extracted summand is not a minimal resolution: "
            + "; ".join([str(x) for x in verification["failures"]]
                        + verification["validate_issues"]))

    betti = {}
    for n, degs in enumerate(resolution.multidegrees):
        layer = {}
        for mdeg in degs:
            t = render(mdeg)
            layer[t] = layer.get(t, 0) + 1
        betti[n] = dict(sorted(layer.items()))
    report = {
        "characteristic": characteristic,
        "mode": mode,
        "field": field_descriptor(work_field),
        "stratum_counts": critical["counts"],
        "critical_primes": critical["critical_primes"],
        "critical_strata": critical["critical_strata"],
        "transcendence_degree": critical["transcendence_degree"],
        "iterations": iterations,
        "stabilization": f"stabilized after {iterations} iterations",
        "ranks": list(resolution.ranks),
        "betti": betti,
        "verification": {
            "minimal": verification["minimal"],
            "exact": verification["exactness_ok"],
            "degrees_checked": verification["checked_degrees"],
        },
        "notes": [
            "matroidal choices are enumerated lexicographically by basis "
            "position, degree 0 outermost",
        ],
    }
    return ResolveResult(resolution=resolution, start=s_work, homotopy=W,
                         report=report)
