"""Reference implementations that tests compare the package against."""

from chainflow.complexes import BasedComplex
from chainflow.errors import VerificationError
from chainflow.flows import (
    Homotopy, _column, _stratum_tag, dmat,
)
from fractions import Fraction

from chainflow.errors import InternalError
from chainflow.linalg import (
    RingMatrix, kernel, rref, s_identity, s_inverse, s_mul, s_rank,
    s_transpose, s_zeros,
)
from chainflow.scalars import QQ
from chainflow.splittings import _coerce_scalar


def mp_identities_hold(a, ap):
    """Check the four Moore-Penrose identities for A and candidate A^+."""
    aap = s_mul(QQ, a, ap)
    apa = s_mul(QQ, ap, a)
    return (s_mul(QQ, aap, a) == a
            and s_mul(QQ, apa, ap) == ap
            and s_transpose(aap) == aap
            and s_transpose(apa) == apa)


def weak_partial_decomposition(c: BasedComplex, D: Homotopy):
    """Whether ``D`` is a weak partial splitting of the scalar complex ``c``.

    Checks ``F_n = N + C + M`` in every degree, where ``N`` is the image of
    ``d D``, ``M`` the image of ``D d`` and ``C = Ker(D d) ∩ Ker(d D)``, and
    that ``d D`` and ``D d`` restrict to automorphisms of their images
    (their squares keep their ranks).  Returns ``(ok, pieces)`` with
    ``pieces[n] = (N basis, C basis, M basis)`` as lists of column vectors.
    """
    field = c.ring.field

    def image_basis(rows):
        _, pivots = rref(field, rows)
        return [[row[j] for row in rows] for j in pivots]

    ok = True
    pieces = []
    for n in range(c.top + 1):
        r = c.rank(n)
        A = D.D(n - 1) @ dmat(c, n)      # D d on F_n
        B = dmat(c, n + 1) @ D.D(n)      # d D on F_n
        a_rows, b_rows = A.scalar_rows(), B.scalar_rows()
        n_cols, m_cols = image_basis(b_rows), image_basis(a_rows)
        c_cols = [list(v) for v in kernel(field, a_rows + b_rows)] if r else []
        joint = [[col[i] for col in n_cols + c_cols + m_cols]
                 for i in range(r)]
        if len(n_cols) + len(c_cols) + len(m_cols) != r or (
                r and s_rank(field, joint) != r):
            ok = False
        if ok and r and (
                s_rank(field, (B @ B).scalar_rows()) != s_rank(field, b_rows)
                or s_rank(field, (A @ A).scalar_rows()) != s_rank(field, a_rows)):
            ok = False
        pieces.append((n_cols, c_cols, m_cols))
    return ok, pieces


def char_poly(a):
    """Characteristic polynomial det(xI - A) of a rational square matrix,
    by the trace-recursion method.  Returns coefficients from the leading
    power down: [1, c_1, ..., c_n] meaning x^n + c_1 x^{n-1} + ... + c_n.
    """
    n = len(a)
    a = [[Fraction(x) for x in row] for row in a]
    coeffs = [Fraction(1)]
    m = s_identity(QQ, n)
    for k in range(1, n + 1):
        am = s_mul(QQ, a, m)
        tr = sum((am[i][i] for i in range(n)), Fraction(0))
        ck = -tr / k
        coeffs.append(ck)
        m = [[am[i][j] + (ck if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


def poly_eval_matrix(coeffs_desc, a):
    """Evaluate a polynomial (descending coefficients) at a square matrix."""
    n = len(a)
    out = s_zeros(QQ, n, n)
    for c in coeffs_desc:
        out = s_mul(QQ, a, out)
        for i in range(n):
            out[i][i] += c
    return out


def decell_mp_inverse(a):
    """Moore-Penrose pseudoinverse of a rational matrix, computed exactly
    through the characteristic polynomial of A A^T (Decell's method).

    Write det(xI - AA^T) = x^s g(x) with g(0) != 0, and
    q(x) = (1 - g(x)/g(0))/x.  Then A^+ = A^T q(B) B q(B) with B = AA^T.
    """
    if not a or not a[0]:
        return s_transpose(a)
    a = [[Fraction(x) for x in row] for row in a]
    at = s_transpose(a)
    b = s_mul(QQ, a, at)
    f = char_poly(b)  # descending, degree n
    # strip trailing zeros: f = x^s * g
    g = list(f)
    while len(g) > 1 and g[-1] == 0:
        g.pop()
    g0 = g[-1]
    if g0 == 0:  # A was zero
        return [[Fraction(0)] * len(a) for _ in range(len(at))]
    # q(x) = (1 - g(x)/g0)/x ; numerator has zero constant term
    scaled = [-c / g0 for c in g]
    scaled[-1] += 1  # now this polynomial is 1 - g/g0, descending coeffs
    if scaled[-1] != 0:
        raise InternalError("pseudoinverse: constant term did not cancel")
    q = scaled[:-1]  # divide by x
    qb = poly_eval_matrix(q, b)
    return s_mul(QQ, at, s_mul(QQ, qb, s_mul(QQ, b, qb)))


def coerce_homotopy(D: Homotopy, new_complex: BasedComplex) -> Homotopy:
    """``D`` base-changed to the field of ``new_complex``."""
    src_field = D.complex.ring.field
    dst_field = new_complex.ring.field
    if src_field is dst_field:
        return D
    ring = new_complex.ring

    def coerce(v):
        return _coerce_scalar(v, src_field, dst_field)

    mats = [RingMatrix(ring, [[e.map_coefficients(coerce, ring) for e in row]
                              for row in m.rows], ncols=m.ncols)
            for m in D.mats]
    return Homotopy(new_complex, mats)


def flow(c: BasedComplex, D: Homotopy) -> list:
    """The flow ``Phi_n = I - d_{n+1} D_n - D_{n-1} d_n`` for n = 0..top."""
    mats = []
    for n in range(0, c.top + 1):
        I = RingMatrix.identity(c.ring, c.rank(n))
        mats.append(I - (dmat(c, n + 1) @ D.D(n)) - (D.D(n - 1) @ dmat(c, n)))
    return mats


def flow_is_chain_map(c: BasedComplex, mats: list) -> bool:
    """Whether ``d_n Phi_n = Phi_{n-1} d_n`` for all n."""
    for n in range(1, c.top + 1):
        if not (c.d(n) @ mats[n]).eq(mats[n - 1] @ c.d(n)):
            return False
    return True


def compose_flow(a: list, b: list) -> list:
    return [x @ y for x, y in zip(a, b)]


def dense_iterate_flow(s, W):
    """``flows.iterate_flow`` by dense powers of the flow.

    Returns ``(Pi, k)`` with ``Pi = Phi^k`` and ``Phi^{k+1} = Phi^k`` for the
    smallest such ``k >= 1``; more than ``1 + dim P`` steps over the
    occupied strata raise.
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


def dense_degree_indices(s, W):
    """Per degree ``n``, the smallest ``k >= 0`` with
    ``Phi_n^{k+1} = Phi_n^k``, from dense powers of the flow; ``None`` where
    that takes more than ``1 + dim P`` steps over the occupied strata."""
    c = s.complex
    phi = flow(c, W)
    bound = 1 + max(s.occupied_dimension(), 0)
    power = [RingMatrix.identity(c.ring, c.rank(n)) for n in range(c.top + 1)]
    out = [None] * (c.top + 1)
    for k in range(bound + 1):
        nxt = compose_flow(power, phi)
        for n, (x, y) in enumerate(zip(nxt, power)):
            if out[n] is None and x.eq(y):
                out[n] = k
        power = nxt
    return out


def dense_extract_minimal_summand(s, Pi, core_bases):
    """``flows.extract_minimal_summand`` computed from the dense projection.

    Each generator is ``Pi[n]`` times the embedded core vector, and ``d`` of
    it is formed again for the back-substitution.  ``Pi`` is the stabilized
    flow that :func:`dense_iterate_flow` returns.
    """
    c = s.complex
    ring = c.ring
    field = ring.field
    poset = s.poset
    order = sorted(range(len(poset.elements)), key=lambda i: (poset.depth(i), i))
    views = {a: s.stratum(a) for a in s.occupied()}
    gens: list = [[] for _ in range(c.top + 1)]
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
                gens[n].append(Pi[n] @ _column(ring, amb))
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
            w = c.d(n) @ gens[n][j]
            wvec = [w.rows[i][0] for i in range(c.rank(n - 1))]
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
    return BasedComplex(
        ring,
        labels[: topdim + 1],
        multidegrees[: topdim + 1],
        diffs[:topdim],
        deg_map=c.deg_map,
    )

