"""Homotopies, flows, classification of splittings, and minimal-summand extraction.

A homotopy ``D`` on a based complex assigns to each homological degree ``n`` a
matrix ``D_n : F_n -> F_{n+1}``.  The induced flow is ``Phi = id - d D - D d``.
Depending on which identities ``D`` satisfies (``D^2 = 0``, ``D d D = D``,
``d D d = d``) the flow ranges from a mere chain map to a projection onto a
direct summand; :func:`classify` detects these cases exactly.  The remaining
operations build such homotopies (Moore-Penrose inverses, affine combinations,
the idempotent-correcting ``hat``) and drive the stabilize-and-extract
pipeline on stratified complexes: :func:`iterate_flow` certifies the step
count ``k`` with ``Phi^{k+1} = Phi^k`` through the recursion
``X_{k+1} = X_k - W(d X_k)`` for ``X_k = Phi^k W``, and
:func:`extract_minimal_summand` applies that certified ``k``-step flow to
all core vectors of a degree at once, as the columns of one matrix ``V``,
with the step ``V <- V - W(d V)``.  Neither forms ``Phi`` or a power of it.

Every homotopy identity and correction is one ``RingMatrix`` computation,
whatever the entries are (field constants on the stratum complexes,
polynomials elsewhere).  Scalar row lists appear only where elimination
needs them: the Moore-Penrose inverse and the core solves of the
extraction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, VerificationError
from .linalg import RingMatrix, mp_inverse, rref, s_inverse
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


@dataclass
class ClassifyResult:
    is_pre_vector_field: bool
    is_vector_field: bool
    is_partial_splitting: bool
    is_splitting: bool


def classify(c: BasedComplex, D: Homotopy) -> ClassifyResult:
    """Decide exactly which homotopy identities hold for ``D`` on ``c``.

    Flags: pre-vector field (``D D d = d D D`` degreewise), vector field
    (``D^2 = 0``), partial splitting (vector field with ``D d D = D``), and
    splitting (additionally ``d D d = d``, tested by the same
    :func:`_satisfies_pdp` that certifies affine combinations).  Every
    identity is tested with ``RingMatrix`` products, so entries may be
    polynomials.  Each ``D_{n+1} D_n`` is formed once and serves both the
    ``D^2 = 0`` test and the ``D D d = d D D`` test, which holds with no
    further product when every ``D_{n+1} D_n`` vanishes.
    """
    top = c.top
    d = [dmat(c, n) for n in range(top + 3)]
    Ds = {n: D.D(n) for n in range(-1, top + 2)}
    DD = {n: Ds[n + 1] @ Ds[n] for n in range(-1, top + 1)}
    is_vf = all(DD[n].is_zero() for n in range(top + 1))
    is_pre = is_vf or all((DD[n - 1] @ d[n]).eq(d[n + 2] @ DD[n])
                          for n in range(top + 1))
    is_partial = is_vf and all(((Ds[n] @ d[n + 1]) @ Ds[n]).eq(Ds[n])
                               for n in range(top + 1))
    is_split = is_partial and _satisfies_pdp(c, D)
    return ClassifyResult(is_pre, is_vf, is_partial, is_split)


def iterate_flow(s: StratifiedComplex, W: Homotopy):
    """Certify exactly that the flow ``Phi = I - d W - W d`` stabilizes.

    ``W`` is the field from :func:`assemble_field`, which certified
    ``W^2 = 0``.  Then ``Phi`` commutes with ``d`` and with ``W``, so with
    ``X_k = Phi^k W``:

    - ``Phi^k (I - Phi) = d X_k + X_k d``, hence ``Phi^{k+1} = Phi^k`` in
      degree ``n`` exactly when ``d_{n+1} (X_k)_n + (X_k)_{n-1} d_n = 0``;
    - ``W X_k = Phi^k W^2 = 0``, so ``X_0 = W`` and
      ``X_{k+1} = X_k - W (d X_k)``, reusing the ``d X_k`` of the test.

    Neither ``Phi`` nor any power of it is formed.  Returns
    ``(indices, k)``: ``indices[n]`` is the smallest ``k`` for which the
    test holds in degree ``n`` (it then holds for every larger ``k``), and
    ``k`` is their maximum, at least 1, the smallest ``k >= 1`` with
    ``Phi^{k+1} = Phi^k``.  Stabilization is guaranteed within ``1 + dim P``
    over the occupied strata; exceeding the bound raises.
    """
    c = s.complex
    top = c.top
    bound = 1 + max(s.occupied_dimension(), 0)
    X = [W.D(n) for n in range(top)]
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
            return indices, max(max(indices), 1)
        if k >= bound:
            raise VerificationError("stabilization bound exceeded")
        X = [x - W.D(n) @ dx for n, (x, dx) in enumerate(zip(X, dX))]
        k += 1


def hat(c: BasedComplex, D: Homotopy) -> Homotopy:
    """The corrected homotopy ``D d D (I - D d)`` degreewise, formed as
    ``(D_n d_{n+1}) (D_n - D_n (D_{n-1} d_n))``.

    Applied to a suitable pre-vector field this produces a partial
    splitting, and a full splitting when the input also satisfied
    ``d D d = d``.  Those postconditions are not checked here: the caller
    certifies the result with :func:`classify`.
    """
    mats = []
    for n in range(0, c.top):
        Dn = D.D(n)
        mats.append((Dn @ dmat(c, n + 1)) @ (Dn - Dn @ (D.D(n - 1) @ dmat(c, n))))
    return Homotopy(c, mats)


def _satisfies_pdp(c: BasedComplex, D: Homotopy) -> bool:
    """Whether ``d D d = d`` holds degreewise."""
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
    mats = []
    for n in range(0, c.top):
        rows = [[ring.zero() for _ in range(c.rank(n))] for _ in range(c.rank(n + 1))]
        for a, D in splittings.items():
            indices = s.members.get(a)
            if indices is None:
                continue
            up = indices[n + 1] if n + 1 < len(indices) else []
            dn = indices[n] if n < len(indices) else []
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


def _flow_power(d: RingMatrix, W_down: RingMatrix, V: RingMatrix, k: int):
    """Apply ``V <- V - W_down(d V)`` at most ``k`` times, stopping early
    once the step vanishes; return ``(V, d V)``."""
    dV = d @ V
    for _ in range(k):
        step = W_down @ dV
        if step.is_zero():
            break
        V = V - step
        dV = d @ V
    return V, dV


def _rows(m: RingMatrix, idx: list) -> RingMatrix:
    return RingMatrix(m.ring, [m.rows[i] for i in idx], ncols=m.ncols)


def extract_minimal_summand(
    s: StratifiedComplex,
    W: Homotopy,
    k: int,
    core_bases: dict,
) -> BasedComplex:
    """Project per-stratum core vectors along the flow of ``W`` and
    re-express ``d``.

    ``W`` is the field from :func:`assemble_field`, built from homotopies
    that :func:`classify` certified as splittings, and ``k`` is the step
    count that :func:`iterate_flow` certified for it.  ``core_bases`` maps
    poset indices of occupied strata to per-degree lists of scalar column
    vectors spanning the core ``C_n`` of the stratum splitting.  Their
    projections ``Pi v`` generate the summand, where ``Pi = Phi^k`` is the
    stabilized flow of ``Phi = I - d W - W d``; ``Pi`` itself is never
    formed.

    In each degree ``n`` the embedded core vectors are the columns of one
    matrix ``V``, and :func:`_flow_power` applies
    ``V <- V - W_{n-1}(d_n V)`` at most ``k`` times.  That is ``Pi V``:

    - Each ``D_a`` is a splitting, so ``D_a = D_a d D_a``.  A core vector
      lies in ``Ker d ∩ Ker dD`` of its stratum, so
      ``D_a v = D_a(d D_a v) = 0``; ``W`` is block-diagonal over the
      strata, so ``W v = 0``.
    - :func:`assemble_field` certified ``W^2 = 0``, so every step keeps
      ``W u = 0``: ``W(u - W d u) = W u``.  Hence along the orbit
      ``Phi u = u - d(W u) - W(d u) = u - W(d u)``.
    - :func:`iterate_flow` certified ``Phi^{k+1} = Phi^k``, so ``k`` steps
      give ``Phi^k V = Pi V``, and a zero step means every later step is
      zero too.

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
            _, piv = rref(field, cols)
            inv = s_inverse(field, [[v[i] for v in cols] for i in piv])
            blocks_n.append((len(strata[n]), [idxs[i] for i in piv],
                             RingMatrix.from_scalar_rows(ring, inv)))
            strata[n].extend([poset.elements[ai]] * len(cols))
            for vec in cols:
                entries = dict(zip(idxs, vec))
                for i, row in enumerate(emb):
                    row.append(entries.get(i, field.zero))
        V = RingMatrix.from_scalar_rows(ring, emb, ncols=len(strata[n]))
        G_n, R = _flow_power(dmat(c, n), W.D(n - 1), V, k)
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
