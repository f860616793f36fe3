"""Homotopies, flows, classification of splittings, and minimal-summand extraction.

A homotopy ``D`` on a based complex assigns to each homological degree ``n`` a
matrix ``D_n : F_n -> F_{n+1}``.  The induced flow is ``Phi = id - d D - D d``.
Depending on which identities ``D`` satisfies (``D^2 = 0``, ``D d D = D``,
``d D d = d``) the flow ranges from a mere chain map to a projection onto a
direct summand; :func:`classify` detects these cases exactly.  The remaining
operations build such homotopies (Moore-Penrose inverses, affine combinations,
the idempotent-correcting ``hat``) and drive the stabilize-and-extract
pipeline on stratified complexes.

The flow of the assembled field ``W`` is walked once.  :func:`iterate_flow`
steps ``X_i = Phi^i W`` until it certifies the step count ``k`` with
``Phi^{k+1} = Phi^k``, and sums ``H = X_0 + ... + X_{k-1}`` on the way.
``Phi`` commutes with ``d``, so the stabilized flow is the flow of ``H``:
``Pi = Phi^k = I - d H - H d``.  :func:`extract_minimal_summand` projects
all core vectors of a degree, the columns of one matrix ``V``, as
``Pi V = V - H(d V)``, which holds because ``W V = 0`` for core vectors.
Neither forms ``Phi`` or a power of it.

The field ``W`` is block-diagonal over the strata.  A homotopy carries
its complex, and :func:`classify` keeps on it the verdict that certifies a
stratum splitting.  :func:`assemble_field` reads each block's verdict to
certify ``W^2 = 0`` block by block, and records on ``W`` whether every
block is a partial splitting; for such a ``W``, :func:`iterate_flow`
multiplies ``W`` only by the cross-stratum part of ``d X_k``.

Every homotopy identity and correction is one ``RingMatrix`` computation,
whatever the entries are (field constants on the stratum complexes,
polynomials elsewhere).  Scalar row lists appear only where elimination
needs them: the Moore-Penrose inverse and the core solves of the
extraction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, VerificationError
from .linalg import RingMatrix, mp_inverse, pivot_columns, s_inverse
from .complexes import BasedComplex, StratifiedComplex

__all__ = [
    "Homotopy",
    "ClassifyResult",
    "classify",
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
    """A degree ``+1`` system of maps ``D_n : F_n -> F_{n+1}`` on a complex,
    one for each ``0 <= n < top``; any other count raises.

    ``verdict`` is the :class:`ClassifyResult` that :func:`classify` keeps
    once it has decided the identities of ``D`` on ``complex``; ``mats`` is
    a tuple, so the verdict cannot go stale.  ``partial_over`` is the
    stratified complex on which :func:`assemble_field` built ``D`` from
    partial splittings only, and ``None`` otherwise.
    """

    def __init__(self, complex: BasedComplex, mats: list[RingMatrix]):
        self.complex = complex
        top = max(complex.top, 0)
        if len(mats) != top:
            raise InputError(
                f"homotopy has {len(mats)} maps but the complex needs {top}")
        for n, m in enumerate(mats):
            want = (complex.rank(n + 1), complex.rank(n))
            if m.shape != want:
                raise InputError(
                    f"homotopy map at degree {n} has shape {m.shape}, expected {want}")
        self.mats = tuple(mats)
        self.verdict: ClassifyResult | None = None
        self.partial_over: StratifiedComplex | None = None

    def D(self, n: int) -> RingMatrix:
        if 0 <= n < len(self.mats):
            return self.mats[n]
        return RingMatrix.zeros(
            self.complex.ring, self.complex.rank(n + 1), self.complex.rank(n))


@dataclass(frozen=True)
class ClassifyResult:
    is_pre_vector_field: bool
    is_vector_field: bool
    is_partial_splitting: bool
    is_splitting: bool


def classify(D: Homotopy) -> ClassifyResult:
    """Decide exactly which homotopy identities hold for ``D`` on its complex.

    Flags: pre-vector field (``D D d = d D D`` degreewise), vector field
    (``D^2 = 0``), partial splitting (vector field with ``D d D = D``), and
    splitting (additionally ``d D d = d``, tested by the same
    :func:`_satisfies_pdp` that certifies affine combinations).  Every
    identity is tested with ``RingMatrix`` products, so entries may be
    polynomials.  Each ``D_{n+1} D_n`` is formed once and serves both the
    ``D^2 = 0`` test and the ``D D d = d D D`` test, which holds with no
    further product when every ``D_{n+1} D_n`` vanishes.

    The verdict is formed once and kept on ``D`` as ``D.verdict``; later
    calls, such as those of :func:`assemble_field`, return it.
    """
    if D.verdict is not None:
        return D.verdict
    c = D.complex
    top = c.top
    d = [dmat(c, n) for n in range(top + 3)]
    DD = {n: D.D(n + 1) @ D.D(n) for n in range(-1, top + 1)}
    is_vf = all(DD[n].is_zero() for n in range(top + 1))
    is_pre = is_vf or all((DD[n - 1] @ d[n]).eq(d[n + 2] @ DD[n])
                          for n in range(top + 1))
    is_partial = is_vf and all(((D.D(n) @ d[n + 1]) @ D.D(n)).eq(D.D(n))
                               for n in range(top + 1))
    is_split = is_partial and _satisfies_pdp(D)
    D.verdict = ClassifyResult(is_pre, is_vf, is_partial, is_split)
    return D.verdict


def iterate_flow(s: StratifiedComplex, W: Homotopy):
    """Certify exactly that the flow ``Phi = I - d W - W d`` stabilizes, and
    sum the homotopy ``H`` of its stable power.

    ``W`` is the field from :func:`assemble_field`, which certified
    ``W^2 = 0``.  Then ``Phi`` commutes with ``d`` and with ``W``, so with
    ``X_k = Phi^k W``:

    - ``Phi^k (I - Phi) = d X_k + X_k d``, hence ``Phi^{k+1} = Phi^k`` in
      degree ``n`` exactly when ``d_{n+1} (X_k)_n + (X_k)_{n-1} d_n = 0``;
    - ``W X_k = Phi^k W^2 = 0``, so ``X_0 = W`` and
      ``X_{k+1} = X_k - W (d X_k)``, one product on the ``d X_k`` of the
      test;
    - ``Phi^k - I = sum_{i<k} Phi^i (Phi - I) = -(d H + H d)`` with
      ``H = X_0 + ... + X_{k-1}``, so ``Phi^k = I - d H - H d``.

    When every block of ``W`` is a partial splitting (``D d D = D``, which
    :func:`classify` certifies and :func:`assemble_field` records as
    ``W.partial_over is s``), the step needs only the part ``nu`` of ``d``
    between basis elements of two strata.  The rest, ``delta``, is the
    slice ``d_a`` on each stratum, where ``D_a`` lives, so
    ``W delta W = W``; with ``X_k = W Phi^k`` that gives
    ``W delta X_k = X_k``, and the step is ``X_{k+1} = W (-nu X_k)``.  Any
    other ``W``, one that carries no such record for this ``s``, takes the
    plain step.

    Neither ``Phi`` nor any power of it is formed.  Returns
    ``(indices, k, H)``: ``indices[n]`` is the smallest ``k`` for which the
    test holds in degree ``n`` (it then holds for every larger ``k``), and
    ``k`` is their maximum, at least 1, the smallest ``k >= 1`` with
    ``Phi^{k+1} = Phi^k``.  ``H`` is ``W`` itself when ``k = 1``; where
    ``W V = 0``, as for core vectors, ``H V = 0`` and
    ``Pi V = V - H(d V)``.  Stabilization is guaranteed within
    ``1 + dim P`` over the occupied strata; exceeding the bound raises.
    """
    c = s.complex
    top = c.top
    bound = 1 + max(s.occupied_dimension(), 0)
    minus_nu = ([_minus_nu(s, n + 1) for n in range(top)]
                if W.partial_over is s else None)
    X = list(W.mats)
    H = None   # X_0 + ... + X_{k-1}
    indices: list = [None] * (top + 1)
    k = 0
    while True:
        dX = [c.d(n + 1) @ X[n] for n in range(top)]
        for n in range(top + 1):
            if indices[n] is not None:
                continue
            test = dX[n] if n < top else None
            if n >= 1:
                right = X[n - 1] @ c.d(n)
                test = right if test is None else test + right
            if test is None or test.is_zero():
                indices[n] = k
        if None not in indices:
            return indices, max(k, 1), W if k <= 1 else Homotopy(c, H)
        if k >= bound:
            raise VerificationError("stabilization bound exceeded")
        H = X if H is None else [h + x for h, x in zip(H, X)]
        if minus_nu is None:
            X = [x - W.D(n) @ dx for n, (x, dx) in enumerate(zip(X, dX))]
        else:
            X = _nu_step(W, minus_nu, X)
        k += 1


def _nu_step(W: Homotopy, minus_nu: list, X: list) -> list:
    """``X_{k+1} = W (-nu X_k)``, the step of a field of partial
    splittings."""
    return [W.D(n) @ (m @ x) for n, (m, x) in enumerate(zip(minus_nu, X))]


def _minus_nu(s: StratifiedComplex, n: int) -> RingMatrix:
    """``-nu_n``: ``-d_n`` with only its entries between basis elements of
    two strata kept."""
    ring = s.complex.ring
    rows = [[-e if a != b else ring.zero() for b, e in zip(s.strata[n], row)]
            for a, row in zip(s.strata[n - 1], s.complex.d(n).rows)]
    return RingMatrix(ring, rows, ncols=s.complex.rank(n))


def hat(D: Homotopy) -> Homotopy:
    """The corrected homotopy ``D d D (I - D d)`` degreewise, formed as
    ``(D_n d_{n+1}) (D_n - D_n (D_{n-1} d_n))``.

    Applied to a suitable pre-vector field this produces a partial
    splitting, and a full splitting when the input also satisfied
    ``d D d = d``.  Those postconditions are not checked here: the caller
    certifies the result with :func:`classify`.
    """
    c = D.complex
    mats = []
    for n in range(0, c.top):
        Dn = D.D(n)
        mats.append((Dn @ dmat(c, n + 1)) @ (Dn - Dn @ (D.D(n - 1) @ dmat(c, n))))
    return Homotopy(c, mats)


def _satisfies_pdp(D: Homotopy) -> bool:
    """Whether ``d D d = d`` holds degreewise on ``D``'s complex."""
    c = D.complex
    for n in range(1, c.top + 1):
        if not ((dmat(c, n) @ D.D(n - 1)) @ dmat(c, n)).eq(dmat(c, n)):
            return False
    return True


def moore_penrose(c: BasedComplex) -> Homotopy:
    """Degreewise Moore-Penrose pseudoinverse homotopy ``D_n = (d_{n+1})^+``.

    Only defined over the rationals; each pseudoinverse is computed exactly
    by :func:`linalg.mp_inverse`, MacDuffee's formula on integer rows.
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
    mats = []
    for n in range(0, c.top):
        acc = RingMatrix.zeros(c.ring, c.rank(n + 1), c.rank(n))
        for w, D in weighted:
            acc = acc + D.D(n).scale(w)
        mats.append(acc)
    out = Homotopy(c, mats)
    if not _satisfies_pdp(out):
        raise VerificationError("affine combination lost d D d = d")
    return out


def assemble_field(s: StratifiedComplex, splittings: dict) -> Homotopy:
    """Embed per-stratum homotopies block-diagonally into the ambient complex.

    ``splittings`` maps poset indices of occupied strata to scalar homotopies
    on the corresponding stratum complexes; a key that is not an occupied
    stratum raises, as does a homotopy whose complex is not the slice of its
    stratum (ranks, and ``d`` entry by entry).  The assembled field ``W`` is
    supported on same-stratum blocks only — hence homogeneous of internal
    degree 0 — and is certified to square to zero.

    No ambient product is formed.  The basis positions of distinct strata
    are disjoint, so ``W_{n+1} W_n`` is block-diagonal with blocks
    ``D_{n+1} D_n``: ``W^2 = 0`` exactly when every block is a vector
    field.  Each block's verdict comes from :func:`classify`, once per
    stratum, so a homotopy that it already certified is not multiplied
    again.  When every block is a partial splitting, ``W.partial_over`` is
    ``s``, which :func:`iterate_flow` reads.
    """
    c = s.complex
    ring = c.ring
    mats = [RingMatrix.zeros(ring, c.rank(n + 1), c.rank(n))
            for n in range(c.top)]
    partial = True
    for a, D in splittings.items():
        indices = s.members.get(a)
        if indices is None:
            raise InputError(f"no occupied stratum {a!r} for a homotopy")
        _check_slice(s, a, D.complex)
        verdict = classify(D)
        if not verdict.is_vector_field:
            raise VerificationError("assembled field does not square to zero")
        partial = partial and verdict.is_partial_splitting
        for n in range(D.complex.top):
            _place(mats[n], D.D(n), indices[n + 1], indices[n])
    W = Homotopy(c, mats)
    if partial:
        W.partial_over = s
    return W


def _check_slice(s: StratifiedComplex, a: int, stratum: BasedComplex):
    """Raise unless ``stratum`` has the ranks and differential of the slice
    of ``s`` at stratum ``a``."""
    indices = s.members[a]
    same = stratum.ranks == [len(idx) for idx in indices] and all(
        s.complex.d(n).rows[gi][gj].eq(stratum.d(n).rows[i][j])
        for n in range(1, len(indices))
        for i, gi in enumerate(indices[n - 1])
        for j, gj in enumerate(indices[n]))
    if not same:
        raise InputError(
            f"the homotopy for stratum {a} is not on its stratum complex")


def _place(m: RingMatrix, block: RingMatrix, up: list, dn: list):
    """Write the scalar ``block`` into ``m`` at rows ``up`` and columns
    ``dn``, as constants of ``m``'s ring."""
    for gi, brow in zip(up, block.scalar_rows()):
        for gj, v in zip(dn, brow):
            m.rows[gi][gj] = m.ring.const(v)


def _rows(m: RingMatrix, idx: list) -> RingMatrix:
    return RingMatrix(m.ring, [m.rows[i] for i in idx], ncols=m.ncols)


def extract_minimal_summand(
    s: StratifiedComplex,
    H: Homotopy,
    core_bases: dict,
) -> BasedComplex:
    """Project per-stratum core vectors along the stabilized flow and
    re-express ``d``.

    ``H`` is the homotopy that :func:`iterate_flow` returns for the field
    ``W`` from :func:`assemble_field`, built from homotopies that
    :func:`classify` certified as splittings.  The stabilized flow is
    ``Pi = Phi^k = I - d H - H d``; it is never formed.  ``core_bases`` maps
    poset indices of occupied strata to per-degree lists of scalar column
    vectors spanning the core ``C_n`` of the stratum splitting; a key that
    is not an occupied stratum raises.  The projections ``Pi v`` of the core
    vectors generate the summand.

    In each degree ``n`` the embedded core vectors are the columns of one
    matrix ``V``, and ``Pi V = V - H_{n-1}(d_n V)``:

    - Each ``D_a`` is a splitting, so ``D_a = D_a d D_a``.  A core vector
      lies in ``Ker d ∩ Ker dD`` of its stratum, so
      ``D_a v = D_a(d D_a v) = 0``; ``W`` is block-diagonal over the
      strata, so ``W V = 0``.
    - ``H`` is a sum of terms ``Phi^i W``, so ``H V = 0`` too, and
      ``Pi V = V - d(H V) - H(d V) = V - H(d V)``.  When ``H(d V) = 0``,
      ``d V`` serves as ``d Pi V``.

    The induced differential ``C`` solves ``G_{n-1} C = d_n G_n`` for the
    generator matrices ``G``, one stratum block at a time down the stratum
    order.  Each generator's own-stratum rows equal its core vector (the
    stratum-diagonal block of ``Pi`` fixes the core), so a block is a scalar
    inverse applied on rows where its core vectors are independent.
    ``G_{n-1} C != d_n G_n`` means the cores do not match the projection
    and raises.
    """
    c = s.complex
    ring = c.ring
    field = ring.field
    poset = s.poset
    for ai in core_bases:
        if ai not in s.members:
            raise InputError(f"no occupied stratum {ai!r} for a core basis")
    order = sorted(core_bases, key=lambda i: (poset.depth(i), i))
    strata: list = []   # per degree, the stratum of each generator
    diffs = []
    for n in range(c.top + 1):
        strata.append([])
        blocks_n = []   # (start, pivot rows, inverse) per stratum
        emb = [[] for _ in range(c.rank(n))]   # core vectors as columns
        for ai in order:
            cols = core_bases[ai][n] if n < len(core_bases[ai]) else []
            if not cols:
                continue
            idxs = s.members[ai][n]
            piv = pivot_columns(field, cols)
            inv = s_inverse(field, [[v[i] for v in cols] for i in piv])
            blocks_n.append((len(strata[n]), [idxs[i] for i in piv],
                             RingMatrix.from_scalar_rows(ring, inv)))
            strata[n].extend([poset.elements[ai]] * len(cols))
            for vec in cols:
                entries = dict(zip(idxs, vec))
                for i, row in enumerate(emb):
                    row.append(entries.get(i, field.zero))
        V = RingMatrix.from_scalar_rows(ring, emb, ncols=len(strata[n]))
        d = dmat(c, n)
        G_n, R = V, d @ V
        step = H.D(n - 1) @ R
        if not step.is_zero():
            G_n = V - step
            R = d @ G_n
        if n:
            C = RingMatrix.zeros(ring, G.ncols, R.ncols)
            for start, rows, inv in reversed(blocks):
                rhs = _rows(R, rows) - _rows(G, rows) @ C
                C.rows[start:start + inv.nrows] = (inv @ rhs).rows
            if not (G @ C).eq(R):
                raise VerificationError("decomposition inconsistent with flow")
            diffs.append(C)
        G, blocks = G_n, blocks_n
    topdim = c.top
    while topdim > 0 and not strata[topdim]:
        topdim -= 1
    graded = all(m is not None for degs in c.multidegrees for m in degs)
    return BasedComplex(
        ring,
        [[f"{_stratum_tag(a)}.{n}.{j}" for j, a in enumerate(strata[n])]
         for n in range(topdim + 1)],
        [[tuple(a) if graded else None for a in strata[n]]
         for n in range(topdim + 1)],
        diffs[:topdim],
        deg_map=c.deg_map,
    )


def _stratum_tag(a) -> str:
    if isinstance(a, tuple):
        return "x" + "-".join(str(e) for e in a)
    return str(a)
