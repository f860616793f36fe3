"""Homotopies, flows, classification of splittings, and minimal-summand extraction.

A homotopy ``D`` on a based complex assigns to each homological degree ``n`` a
matrix ``D_n : F_n -> F_{n+1}``.  The induced flow is ``Phi = id - d D - D d``.
Depending on which identities ``D`` satisfies (``D^2 = 0``, ``D d D = D``,
``d D d = d``) the flow ranges from a mere chain map to a projection onto a
direct summand; :func:`classify` detects these cases exactly.  The remaining
operations build such homotopies (Moore-Penrose inverses, affine combinations,
the idempotent-correcting ``hat``) and drive the stabilize-and-extract
pipeline on stratified complexes: :func:`iterate_flow` certifies that
``Phi^{k+1} = Phi^k`` and returns the projection ``Pi = Phi^k``, and
:func:`extract_minimal_summand` projects each core vector ``v`` to ``Pi v``
with the vector step ``u <- u - W(d u)`` instead of a product with ``Pi``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from .errors import InputError, VerificationError
from .linalg import (
    PolyRing,
    RingMatrix,
    kernel,
    mp_inverse,
    rref,
    s_eq,
    s_identity,
    s_inverse,
    s_is_zero,
    s_mul,
    s_rank,
    s_scale,
    s_sub,
    s_zeros,
)
from .complexes import BasedComplex, StratifiedComplex

__all__ = [
    "Homotopy",
    "ClassifyResult",
    "SplittingDecomposition",
    "ExtractedSummand",
    "classify",
    "flow",
    "flow_is_chain_map",
    "compose_flow",
    "iterate_flow",
    "hat",
    "moore_penrose",
    "affine_combination",
    "assemble_field",
    "extract_minimal_summand",
]


def dmat(c: BasedComplex, n: int) -> RingMatrix:
    """Differential ``d_n : F_n -> F_{n-1}``, zero-padded outside 1..top."""
    if 1 <= n <= c.top:
        return c.d(n)
    return RingMatrix.zeros(c.ring, c.rank(n - 1), c.rank(n))


class Homotopy:
    """A degree ``+1`` system of maps ``D_n : F_n -> F_{n+1}`` on a complex."""

    def __init__(self, complex: BasedComplex, mats: list[RingMatrix]):
        self.complex = complex
        top = complex.top
        if len(mats) > max(top, 0):
            raise InputError(
                f"homotopy has {len(mats)} maps but the complex supports {top}")
        self.mats = list(mats)
        for n, m in enumerate(self.mats):
            want = (complex.rank(n + 1), complex.rank(n))
            if m.shape != want:
                raise InputError(
                    f"homotopy map at degree {n} has shape {m.shape}, expected {want}")
        for n in range(len(self.mats), max(top, 0)):
            self.mats.append(
                RingMatrix.zeros(complex.ring, complex.rank(n + 1), complex.rank(n)))

    def D(self, n: int) -> RingMatrix:
        if 0 <= n < len(self.mats):
            return self.mats[n]
        return RingMatrix.zeros(
            self.complex.ring, self.complex.rank(n + 1), self.complex.rank(n))

    def is_scalar(self) -> bool:
        return all(m.is_scalar() for m in self.mats)

    def map_coefficients(self, fn, new_complex: BasedComplex) -> "Homotopy":
        ring = new_complex.ring
        mats = []
        for m in self.mats:
            rows = [[e.map_coefficients(fn, ring) for e in row] for row in m.rows]
            mats.append(RingMatrix(ring, rows, ncols=m.ncols))
        return Homotopy(new_complex, mats)


# --------------------------------------------------------------------------
# Shape-aware scalar matrices.  The raw row-list helpers in linalg lose the
# column count of empty matrices, which matters here because complexes run
# out of degrees at both ends; SMat carries shapes explicitly and falls back
# to zero matrices whenever an inner dimension vanishes.
# --------------------------------------------------------------------------


class SMat:
    __slots__ = ("rows", "nr", "nc")

    def __init__(self, rows, nr, nc):
        self.rows = rows
        self.nr = nr
        self.nc = nc

    @classmethod
    def zeros(cls, field, nr, nc):
        return cls(s_zeros(field, nr, nc), nr, nc)

    @classmethod
    def identity(cls, field, n):
        return cls(s_identity(field, n), n, n)


def _sm_mul(field, a: SMat, b: SMat) -> SMat:
    if a.nc != b.nr:
        raise InputError(f"scalar shape mismatch {a.nr}x{a.nc} @ {b.nr}x{b.nc}")
    if a.nr == 0 or b.nc == 0 or a.nc == 0:
        return SMat.zeros(field, a.nr, b.nc)
    return SMat(s_mul(field, a.rows, b.rows), a.nr, b.nc)


def _sm_sub(field, a: SMat, b: SMat) -> SMat:
    return SMat(s_sub(field, a.rows, b.rows), a.nr, a.nc)


def _sm_eq(field, a: SMat, b: SMat) -> bool:
    if (a.nr, a.nc) != (b.nr, b.nc):
        return False
    return s_eq(field, a.rows, b.rows) if a.nr and a.nc else True


def _sm_is_zero(field, a: SMat) -> bool:
    return s_is_zero(field, a.rows)


def _scalar_system(c: BasedComplex, D: Homotopy):
    """(field, dS, DS) with shape-aware scalar matrices, or None if not scalar."""
    if not c.is_scalar() or not D.is_scalar():
        return None
    field = c.ring.field
    dS = {}
    for n in range(0, c.top + 3):
        m = dmat(c, n)
        dS[n] = SMat(m.scalar_rows(), m.nrows, m.ncols)
    DS = {}
    for n in range(-1, c.top + 2):
        m = D.D(n)
        DS[n] = SMat(m.scalar_rows(), m.nrows, m.ncols)
    return field, dS, DS


@dataclass
class SplittingDecomposition:
    """Per-degree bases splitting each ``F_n`` into ``N + C + M``.

    ``N`` is the image of ``d D`` (boundary-like part), ``M`` the image of
    ``D d`` (cone-like part) and ``C = Ker(D d) ∩ Ker(d D)`` is the core that
    survives projection.  Bases are lists of coefficient-field column vectors.
    """

    n_basis: list = dc_field(default_factory=list)
    c_basis: list = dc_field(default_factory=list)
    m_basis: list = dc_field(default_factory=list)


@dataclass
class ClassifyResult:
    is_pre_vector_field: bool
    is_vector_field: bool
    is_partial_splitting: bool
    is_splitting: bool
    is_weak_partial_splitting: Optional[bool]
    decomposition: Optional[SplittingDecomposition]


def classify(c: BasedComplex, D: Homotopy, want_decomposition: bool = False) -> ClassifyResult:
    """Decide exactly which homotopy identities hold for ``D`` on ``c``.

    Flags: pre-vector field (``D D d = d D D`` degreewise), vector field
    (``D^2 = 0``), partial splitting (vector field with ``D d D = D``), and
    splitting (additionally ``d D d = d``).  The weak-partial check and its
    ``N + C + M`` decomposition need field linear algebra, so they run only
    on scalar data and only when ``want_decomposition`` is set.
    """
    scal = _scalar_system(c, D)
    top = c.top
    if scal is None:
        if want_decomposition:
            raise InputError("decomposition requires a scalar complex and homotopy")
        is_vf = is_pre = is_partial = is_split = True
        for n in range(0, top + 1):
            Dn = D.D(n)
            if is_vf and not (D.D(n + 1) @ Dn).is_zero():
                is_vf = False
            left = (Dn @ D.D(n - 1)) @ dmat(c, n)
            right = dmat(c, n + 2) @ (D.D(n + 1) @ Dn)
            if is_pre and not left.eq(right):
                is_pre = False
            if is_partial and not ((Dn @ dmat(c, n + 1)) @ Dn).eq(Dn):
                is_partial = False
            if is_split and not (
                    (dmat(c, n) @ D.D(n - 1)) @ dmat(c, n)).eq(dmat(c, n)):
                is_split = False
        is_partial = is_partial and is_vf
        is_split = is_split and is_partial
        return ClassifyResult(is_pre, is_vf, is_partial, is_split, None, None)

    field, dS, DS = scal
    is_vf = is_pre = is_partial = is_split = True
    for n in range(0, top + 1):
        if is_vf and not _sm_is_zero(field, _sm_mul(field, DS[n + 1], DS[n])):
            is_vf = False
        left = _sm_mul(field, _sm_mul(field, DS[n], DS[n - 1]), dS[n])
        right = _sm_mul(field, dS[n + 2], _sm_mul(field, DS[n + 1], DS[n]))
        if is_pre and not _sm_eq(field, left, right):
            is_pre = False
        dpd = _sm_mul(field, _sm_mul(field, DS[n], dS[n + 1]), DS[n])
        if is_partial and not _sm_eq(field, dpd, DS[n]):
            is_partial = False
        pdp = _sm_mul(field, _sm_mul(field, dS[n], DS[n - 1]), dS[n])
        if is_split and not _sm_eq(field, pdp, dS[n]):
            is_split = False
    is_partial = is_partial and is_vf
    is_split = is_split and is_partial
    weak: Optional[bool] = None
    decomp: Optional[SplittingDecomposition] = None
    if want_decomposition:
        weak, decomp = _weak_partial_decomposition(field, c, dS, DS)
    return ClassifyResult(is_pre, is_vf, is_partial, is_split, weak, decomp)


def _image_basis_cols(field, mat: SMat) -> list:
    """Columns of ``mat`` forming a basis of its column space (as vectors)."""
    if mat.nr == 0 or mat.nc == 0:
        return []
    _, pivots = rref(field, [list(r) for r in mat.rows])
    return [[mat.rows[i][j] for i in range(mat.nr)] for j in pivots]


def _weak_partial_decomposition(field, c: BasedComplex, dS, DS):
    """Check ``F_n = im(dD) + C + im(Dd)`` with both automorphism conditions."""
    decomp = SplittingDecomposition()
    ok = True
    for n in range(0, c.top + 1):
        r = c.rank(n)
        A = _sm_mul(field, DS[n - 1], dS[n])      # D d on F_n
        B = _sm_mul(field, dS[n + 1], DS[n])      # d D on F_n
        n_cols = _image_basis_cols(field, B)
        m_cols = _image_basis_cols(field, A)
        c_cols = [list(v) for v in kernel(field, A.rows + B.rows)] if r else []
        if len(n_cols) + len(c_cols) + len(m_cols) != r:
            ok = False
        elif r:
            joint = [
                [col[i] for col in n_cols + c_cols + m_cols] for i in range(r)
            ]
            if s_rank(field, joint) != r:
                ok = False
        if ok and r:
            if s_rank(field, _sm_mul(field, B, B).rows) != s_rank(field, B.rows):
                ok = False
            if s_rank(field, _sm_mul(field, A, A).rows) != s_rank(field, A.rows):
                ok = False
        decomp.n_basis.append(n_cols)
        decomp.c_basis.append(c_cols)
        decomp.m_basis.append(m_cols)
    return ok, decomp


def flow(c: BasedComplex, D: Homotopy) -> list[RingMatrix]:
    """The flow ``Phi_n = I - d_{n+1} D_n - D_{n-1} d_n`` for n = 0..top."""
    mats = []
    for n in range(0, c.top + 1):
        I = RingMatrix.identity(c.ring, c.rank(n))
        mats.append(I - (dmat(c, n + 1) @ D.D(n)) - (D.D(n - 1) @ dmat(c, n)))
    return mats


def flow_is_chain_map(c: BasedComplex, mats: list[RingMatrix]) -> bool:
    """Whether ``d_n Phi_n = Phi_{n-1} d_n`` for all n."""
    for n in range(1, c.top + 1):
        if not (c.d(n) @ mats[n]).eq(mats[n - 1] @ c.d(n)):
            return False
    return True


def compose_flow(a: list[RingMatrix], b: list[RingMatrix]) -> list[RingMatrix]:
    return [x @ y for x, y in zip(a, b)]


def iterate_flow(s: StratifiedComplex, W: Homotopy):
    """Iterate the flow of ``W`` until two consecutive powers agree exactly.

    Returns ``(Pi, iterations)`` with ``Pi = Phi^k`` and ``Phi^{k+1} = Phi^k``
    for the smallest such ``k``.  Stabilization is guaranteed within
    ``1 + dim P`` over the occupied strata; exceeding the bound raises.
    """
    c = s.complex
    phi = flow(c, W)
    bound = 1 + max(s.occupied_dimension(), 0)
    power = phi
    k = 1
    while True:
        nxt = compose_flow(power, phi)
        if all(x.eq(y) for x, y in zip(nxt, power)):
            return power, k
        if k >= bound:
            raise VerificationError("stabilization bound exceeded")
        power = nxt
        k += 1


def hat(c: BasedComplex, D: Homotopy, verify: bool = True) -> Homotopy:
    """The corrected homotopy ``D d D (I - D d)`` degreewise.

    Applied to a suitable pre-vector field this produces a partial splitting,
    and a full splitting when the input also satisfied ``d D d = d``; with
    ``verify`` these postconditions are checked exactly.
    """
    scal = _scalar_system(c, D)
    mats: list[RingMatrix] = []
    if scal is not None:
        field, dS, DS = scal
        for n in range(0, c.top):
            r = c.rank(n)
            A_n = _sm_mul(field, DS[n - 1], dS[n])
            IA = _sm_sub(field, SMat.identity(field, r), A_n)
            Q = _sm_mul(field, DS[n], IA)
            P = _sm_mul(field, DS[n], dS[n + 1])
            newD = _sm_mul(field, P, Q)
            mats.append(RingMatrix.from_scalar_rows(c.ring, newD.rows, ncols=r))
    else:
        for n in range(0, c.top):
            A_n = D.D(n - 1) @ dmat(c, n)
            IA = RingMatrix.identity(c.ring, c.rank(n)) - A_n
            Q = D.D(n) @ IA
            P = D.D(n) @ dmat(c, n + 1)
            mats.append(P @ Q)
    out = Homotopy(c, mats)
    if verify:
        res = classify(c, out)
        ok = res.is_partial_splitting
        if ok and _satisfies_pdp(c, D):
            ok = res.is_splitting
        if not ok:
            raise VerificationError("hat postcondition failed")
    return out


def _satisfies_pdp(c: BasedComplex, D: Homotopy) -> bool:
    """Whether ``d D d = d`` holds degreewise."""
    for n in range(1, c.top + 1):
        if not ((dmat(c, n) @ D.D(n - 1)) @ dmat(c, n)).eq(dmat(c, n)):
            return False
    return True


def moore_penrose(c: BasedComplex) -> Homotopy:
    """Degreewise Moore-Penrose pseudoinverse homotopy ``D_n = (d_{n+1})^+``.

    Only defined over the rationals; each pseudoinverse is computed exactly
    through the characteristic polynomial of ``d d^T``.
    """
    if c.ring.field.char != 0:
        raise InputError("Moore-Penrose requires characteristic zero")
    if not c.is_scalar():
        raise InputError("field linear algebra on non-scalar matrix")
    mats = []
    for n in range(0, c.top):
        rn, rn1 = c.rank(n), c.rank(n + 1)
        if rn == 0 or rn1 == 0:
            mats.append(RingMatrix.zeros(c.ring, rn1, rn))
            continue
        plus = mp_inverse(c.d(n + 1).scalar_rows())
        mats.append(RingMatrix.from_scalar_rows(c.ring, plus, ncols=rn))
    return Homotopy(c, mats)


def affine_combination(c: BasedComplex, weighted: list[tuple]) -> Homotopy:
    """Affine combination ``sum w_i D_i`` of homotopies with ``sum w_i = 1``.

    The weight normalization is verified, as is the identity ``d D d = d``
    of the result (affine combinations of splittings keep it, and it is what
    the subsequent ``hat`` correction needs to produce a full splitting).
    """
    if not weighted:
        raise InputError("affine combination needs at least one homotopy")
    field = c.ring.field
    total = field.zero
    for w, _ in weighted:
        total = field.add(total, w)
    if not field.eq(total, field.one):
        raise VerificationError("affine weights do not sum to 1")
    scal = c.is_scalar() and all(D.is_scalar() for _, D in weighted)
    mats = []
    for n in range(0, c.top):
        rn, rn1 = c.rank(n), c.rank(n + 1)
        if scal:
            acc = s_zeros(field, rn1, rn)
            for w, D in weighted:
                term = s_scale(field, D.D(n).scalar_rows(), w)
                acc = [[field.add(x, y) for x, y in zip(r1, r2)]
                       for r1, r2 in zip(acc, term)]
            mats.append(RingMatrix.from_scalar_rows(c.ring, acc, ncols=rn))
        else:
            acc = RingMatrix.zeros(c.ring, rn1, rn)
            for w, D in weighted:
                acc = acc + D.D(n).scale(c.ring.const(w))
            mats.append(acc)
    out = Homotopy(c, mats)
    if not _satisfies_pdp(c, out):
        raise VerificationError("affine combination lost d D d = d")
    return out


def assemble_field(s: StratifiedComplex, splittings: dict) -> Homotopy:
    """Embed per-stratum homotopies block-diagonally into the ambient complex.

    ``splittings`` maps poset indices of occupied strata to scalar homotopies
    on the corresponding stratum complexes.  The assembled field is supported
    on same-stratum blocks only — hence homogeneous of internal degree 0 —
    and is verified to square to zero.
    """
    c = s.complex
    ring = c.ring
    field = ring.field
    views = {a: s.stratum(a) for a in s.occupied()}
    mats = []
    for n in range(0, c.top):
        rows = [[ring.zero() for _ in range(c.rank(n))] for _ in range(c.rank(n + 1))]
        for a, D in splittings.items():
            view = views.get(a)
            if view is None:
                continue
            up = view.indices[n + 1] if n + 1 < len(view.indices) else []
            dn = view.indices[n] if n < len(view.indices) else []
            if not up or not dn:
                continue
            block = D.D(n).scalar_rows()
            for i, gi in enumerate(up):
                for j, gj in enumerate(dn):
                    v = block[i][j]
                    if not field.is_zero(v):
                        rows[gi][gj] = ring.const(v)
        mats.append(RingMatrix(ring, rows, ncols=c.rank(n)))
    W = Homotopy(c, mats)
    for n in range(0, c.top):
        if not (W.D(n + 1) @ W.D(n)).is_zero():
            raise VerificationError("assembled field does not square to zero")
    return W


@dataclass
class ExtractedSummand:
    complex: BasedComplex
    generators: list        # per degree: list of ambient column RingMatrix
    generator_strata: list  # per degree: poset element per generator


def _column(ring: PolyRing, entries: list) -> RingMatrix:
    return RingMatrix(ring, [[e] for e in entries], ncols=1)


def _flow_orbit_limit(d: RingMatrix, W_down: RingMatrix, u: RingMatrix,
                      bound: int):
    """Follow ``u <- u - W(d u)`` to its fixed point; return ``(u, d u)``.

    Raises once more than ``bound`` steps are needed, as ``iterate_flow``
    does.
    """
    for _ in range(bound + 1):
        du = d @ u
        step = W_down @ du
        if step.is_zero():
            return u, du
        u = u - step
    raise VerificationError("stabilization bound exceeded")


def extract_minimal_summand(
    s: StratifiedComplex,
    W: Homotopy,
    core_bases: dict,
) -> ExtractedSummand:
    """Project per-stratum core vectors along the flow of ``W`` and
    re-express ``d``.

    ``W`` is the field from :func:`assemble_field`, built from homotopies
    that :func:`classify` certified as splittings.  ``core_bases`` maps
    poset indices of occupied strata to per-degree lists of scalar column
    vectors spanning the core ``C_n`` of the stratum splitting.  Their
    projections ``Pi v`` generate the summand, where ``Pi = Phi^k`` is the
    stabilized flow of ``Phi = I - d W - W d``.

    Each projection follows ``u <- u - W_{n-1}(d_n u)`` from ``v`` until
    ``W_{n-1}(d_n u) = 0``.  This is the orbit of ``v`` under ``Phi``:

    - Each ``D_a`` is a splitting, so ``D_a = D_a d D_a``.  A core vector
      lies in ``Ker d ∩ Ker dD`` of its stratum, so
      ``D_a v = D_a(d D_a v) = 0``; ``W`` is block-diagonal over the
      strata, so ``W v = 0``.
    - :func:`assemble_field` certified ``W^2 = 0``, so every step keeps
      ``W u = 0``: ``W(u - W d u) = W u``.  Hence along the orbit
      ``Phi u = u - d(W u) - W(d u) = u - W(d u)``.
    - ``Phi^{k+1} = Phi^k``, so the orbit reaches a fixed point of ``Phi``
      within ``k`` steps, and that fixed point is ``Phi^k v = Pi v``.

    A step is ``d`` times a vector, then the lower-stratum blocks of ``W``;
    the dense own-stratum products of ``Pi``, whose sums cancel, are never
    formed.  More than ``1 + dim P`` steps over the occupied strata raise,
    as in :func:`iterate_flow`.

    The induced differential is recovered by back-substitution down the
    stratum order, starting from the ``d_n Pi v`` of the last step.  Each
    generator's own-stratum rows equal the core vector itself (the
    stratum-diagonal block of ``Pi`` fixes the core), which makes the
    back-substitution a sequence of scalar solves.  A nonzero residual means
    the supplied cores do not match the projection and is an error.
    """
    c = s.complex
    ring = c.ring
    field = ring.field
    poset = s.poset
    order = sorted(range(len(poset.elements)), key=lambda i: (poset.depth(i), i))
    views = {a: s.stratum(a) for a in s.occupied()}
    bound = 1 + max(s.occupied_dimension(), 0)
    gens: list = [[] for _ in range(c.top + 1)]
    gen_d: list = [[] for _ in range(c.top + 1)]  # d_n of each generator
    gen_strata: list = [[] for _ in range(c.top + 1)]
    gen_core: list = [dict() for _ in range(c.top + 1)]  # poset idx -> (start, cols)
    for ai in order:
        if ai not in core_bases or ai not in views:
            continue
        view = views[ai]
        per_degree = core_bases[ai]
        for n in range(0, c.top + 1):
            cols = per_degree[n] if n < len(per_degree) else []
            if not cols:
                continue
            idxs = view.indices[n]
            start = len(gens[n])
            for vec in cols:
                amb = [ring.zero() for _ in range(c.rank(n))]
                for local, gi in enumerate(idxs):
                    v = vec[local]
                    if not field.is_zero(v):
                        amb[gi] = ring.const(v)
                g, dg = _flow_orbit_limit(dmat(c, n), W.D(n - 1),
                                          _column(ring, amb), bound)
                gens[n].append(g)
                gen_d[n].append(dg)
                gen_strata[n].append(poset.elements[ai])
            gen_core[n][ai] = (start, [list(v) for v in cols])
    # Scalar solving data per (degree, stratum): a set of rows on which the
    # core-basis matrix is invertible, plus the inverse of that square block.
    solvers: dict = {}
    for n in range(0, c.top + 1):
        for ai, (start, cols) in gen_core[n].items():
            r = len(cols[0])
            mat = [[cols[j][i] for j in range(len(cols))] for i in range(r)]
            _, piv = rref(field, [[mat[i][j] for i in range(r)]
                                  for j in range(len(cols))])
            rows_idx = list(piv)
            square = [[mat[i][j] for j in range(len(cols))] for i in rows_idx]
            solvers[(n, ai)] = (rows_idx, s_inverse(field, square))
    labels = [[f"{_stratum_tag(gen_strata[n][j])}.{n}.{j}"
               for j in range(len(gens[n]))] for n in range(c.top + 1)]
    graded = all(m is not None for degs in c.multidegrees for m in degs)
    multidegrees = [[tuple(gen_strata[n][j]) if graded else None
                     for j in range(len(gens[n]))] for n in range(c.top + 1)]
    diffs = []
    for n in range(1, c.top + 1):
        ncols_new = len(gens[n])
        nrows_new = len(gens[n - 1])
        col_entries = []
        for j in range(ncols_new):
            wvec = [row[0] for row in gen_d[n][j].rows]
            coeffs = [ring.zero() for _ in range(nrows_new)]
            for ai in reversed(order):
                key = (n - 1, ai)
                if key not in solvers:
                    continue
                view = views[ai]
                idxs = view.indices[n - 1]
                rows_idx, inv = solvers[key]
                start, _ = gen_core[n - 1][ai]
                local = [wvec[idxs[i]] for i in rows_idx]
                if all(e.is_zero() for e in local):
                    continue
                for t, inv_row in enumerate(inv):
                    acc = ring.zero()
                    for coef, ent in zip(inv_row, local):
                        if not field.is_zero(coef) and not ent.is_zero():
                            acc = acc + ent.scale(coef)
                    if acc.is_zero():
                        continue
                    coeffs[start + t] = coeffs[start + t] + acc
                    gcol = gens[n - 1][start + t]
                    for i in range(c.rank(n - 1)):
                        e = gcol.rows[i][0]
                        if not e.is_zero():
                            wvec[i] = wvec[i] - e * acc
            if not all(e.is_zero() for e in wvec):
                raise VerificationError("decomposition inconsistent with flow")
            col_entries.append(coeffs)
        rows = [[col_entries[j][i] for j in range(ncols_new)]
                for i in range(nrows_new)]
        diffs.append(RingMatrix(ring, rows, ncols=ncols_new))
    topdim = c.top
    while topdim > 0 and not gens[topdim]:
        topdim -= 1
    out = BasedComplex(
        ring,
        labels[: topdim + 1],
        multidegrees[: topdim + 1],
        diffs[:topdim],
        deg_map=c.deg_map,
    )
    return ExtractedSummand(out, gens[: topdim + 1], gen_strata[: topdim + 1])


def _stratum_tag(a) -> str:
    if isinstance(a, tuple):
        return "x" + "-".join(str(e) for e in a)
    return str(a)
