"""Reference implementations that tests compare the package against."""

from chainflow.complexes import BasedComplex
from chainflow.errors import VerificationError
from chainflow.flows import ExtractedSummand, _column, _stratum_tag
from chainflow.linalg import RingMatrix, rref, s_inverse


def dense_extract_minimal_summand(s, Pi, core_bases):
    """``flows.extract_minimal_summand`` computed from the dense projection.

    Each generator is ``Pi[n]`` times the embedded core vector, and ``d`` of
    it is formed again for the back-substitution.  ``Pi`` is the stabilized
    flow that ``flows.iterate_flow`` returns.
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
    out = BasedComplex(
        ring,
        labels[: topdim + 1],
        multidegrees[: topdim + 1],
        diffs[:topdim],
        deg_map=c.deg_map,
    )
    return ExtractedSummand(out, gens[: topdim + 1], gen_strata[: topdim + 1])

