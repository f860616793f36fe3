"""Reference implementations that tests compare the package against."""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, product

from sympy import GF, QQ as SQQ
from sympy.polys.matrices import DomainMatrix

from chainflow.complexes import BasedComplex, StratifiedComplex
from chainflow.errors import InputError, InternalError, VerificationError
from chainflow.flows import Homotopy, _stratum_tag
from chainflow.linalg import (
    RingMatrix, kernel, rref, s_identity, s_inverse, s_mul, s_rank,
    s_transpose, s_zeros,
)
from chainflow.monomial import (
    MonomialIdeal, _chain_tiers, _taylor_tiers, render_monomial,
)
from chainflow.scalars import QQ
from chainflow.splittings import (
    MatroidalChoice, ResolveResult, matroidal_options,
    weight_name,
)


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
        A = D.D(n - 1) @ c.d(n)      # D d on F_n
        B = c.d(n + 1) @ D.D(n)      # d D on F_n
        a_rows, b_rows = A.scalar_rows(), B.scalar_rows()
        n_cols, m_cols = image_basis(b_rows), image_basis(a_rows)
        c_cols = [list(v) for v in kernel(field, a_rows + b_rows, r)] if r else []
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
    if D.complex.ring.field is new_complex.ring.field:
        return D
    ring = new_complex.ring
    coerce = ring.field.from_int
    mats = [RingMatrix(ring, [[e.map_coefficients(coerce, ring) for e in row]
                              for row in m.rows], ncols=m.ncols)
            for m in D.mats]
    return Homotopy(new_complex, mats)


def flow(c: BasedComplex, D: Homotopy) -> list:
    """The flow ``Phi_n = I - d_{n+1} D_n - D_{n-1} d_n`` for n = 0..top."""
    mats = []
    for n in range(0, c.top + 1):
        I = RingMatrix.identity(c.ring, c.rank(n))
        mats.append(I - (c.d(n + 1) @ D.D(n)) - (D.D(n - 1) @ c.d(n)))
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


def _column(ring, entries):
    return RingMatrix(ring, [[e] for e in entries], ncols=1)


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
    members = s.members
    gens: list = [[] for _ in range(c.top + 1)]
    gen_strata: list = [[] for _ in range(c.top + 1)]
    gen_core: list = [dict() for _ in range(c.top + 1)]  # poset idx -> (start, cols)
    for ai in order:
        if ai not in core_bases or ai not in members:
            continue
        per_degree = core_bases[ai]
        for n in range(0, c.top + 1):
            cols = per_degree[n] if n < len(per_degree) else []
            if not cols:
                continue
            idxs = members[ai][n]
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
                idxs = members[ai][n - 1]
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


def list_choices(options) -> list:
    """The matroidal choices of per-degree options, in enumeration order."""
    return [
        MatroidalChoice(
            x_sets=tuple(x_set for x_set, _ in combo),
            z_sets=tuple(z_set for _, z_set in combo),
        )
        for combo in product(*options)
    ]


def _permute_exps(exps, perm):
    """Apply a variable permutation to an exponent tuple.

    ``perm[i]`` is the image position of variable ``i``; exponents travel
    with their variable."""
    out = [0] * len(exps)
    for i, e in enumerate(exps):
        out[perm[i]] = e
    return tuple(out)


def _relabel(elements, index, perm) -> dict:
    """Position of the image of each exponent tuple among ``index``; an
    image outside it means ``perm`` is not a symmetry."""
    out = {}
    for i, e in enumerate(elements):
        img = _permute_exps(e, perm)
        if img not in index:
            raise InputError("not a symmetry")
        out[i] = index[img]
    return out


def verify_equivariance(I: MonomialIdeal, variable_perm,
                        result: ResolveResult) -> dict:
    """Check that the resolve pipeline respects a symmetry of the ideal.

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
    gen_map = _relabel(I.generators,
                       {g: i for i, g in enumerate(I.generators)}, perm)
    s = result.start
    c = s.complex
    ring = c.ring
    field = ring.field
    poset = s.poset
    elem_map = _relabel(poset.elements, poset.index, perm)

    # The signed basis permutation, degree by degree.  Basis labels are not
    # consulted: positions are recovered through each start's combinatorics.
    if result.report["start"] == "lcm":
        perm_pairs = _lcm_basis_action(poset, elem_map, poset)
    else:
        perm_pairs = _taylor_basis_action(len(I.generators), gen_map)
    minus_one = field.neg(field.one)
    P = []
    for n in range(c.top + 1):
        m = RingMatrix.zeros(ring, c.rank(n), c.rank(n))
        for tgt, src, sign in perm_pairs[n]:
            m.rows[tgt][src] = ring.const(field.one if sign > 0 else minus_one)
        P.append(m)

    coeff_map = _weight_substitution(
        I, field, elem_map, _stratum_local_maps(s, elem_map, perm_pairs),
        result)

    def act_entry(e):
        e = e.permute_vars(perm)
        return e if coeff_map is None else e.map_coefficients(coeff_map, ring)

    def act(m):
        return RingMatrix(ring, [[act_entry(e) for e in row] for row in m.rows],
                          ncols=m.ncols)

    d_ok = all(((c.d(n) @ P[n]) - (P[n - 1] @ act(c.d(n)))).is_zero()
               for n in range(1, c.top + 1))
    W = result.homotopy
    w_ok = all(((W.D(n) @ P[n]) - (P[n + 1] @ act(W.D(n)))).is_zero()
               for n in range(c.top))
    return {"d_commutes": d_ok, "field_commutes": w_ok, "ok": d_ok and w_ok}


def _lcm_basis_action(poset, elem_map, image_poset):
    """Per-degree (target, source, sign) triples from the chain basis of
    ``poset`` to that of ``image_poset``: every chain element is mapped,
    and the image chain is sorted into the order of ``image_poset``, a
    linear extension, so the sign is +1."""
    index_of = [{ch: j for j, ch in enumerate(tier)}
                for tier in _chain_tiers(image_poset)]
    return [[(index_of[n][tuple(sorted(elem_map[i] for i in ch))], j, +1)
             for j, ch in enumerate(tier)]
            for n, tier in enumerate(_chain_tiers(poset))]


def _taylor_basis_action(r, gen_map):
    """Per-degree (target, source, sign) triples of the Taylor basis: a
    subset goes to the sorted image of its generators, signed by the parity
    of that sort."""
    tiers = _taylor_tiers(r)
    index_of = [{sset: j for j, sset in enumerate(tier)} for tier in tiers]
    perm_pairs = []
    for n, tier in enumerate(tiers):
        pairs = []
        for j, sset in enumerate(tier):
            imgs = [gen_map[i] for i in sset]
            pairs.append((index_of[n][tuple(sorted(imgs))], j,
                          _sort_parity(imgs)))
        perm_pairs.append(pairs)
    return perm_pairs


def relabelling_action(I: MonomialIdeal, J: MonomialIdeal, perm,
                       s: StratifiedComplex, t: StratifiedComplex,
                       start: str) -> list:
    """The signed bijection of start bases that relabelling induces.

    ``J`` is ``I`` with variable ``i`` moved to position ``perm[i]``, its
    generators listed in any order; ``s`` and ``t`` are their starts of
    kind ``start``.  Returns per-degree (target, source, sign) triples from
    the basis of ``s`` to that of ``t``: lcm chains go to their sorted image
    chains, and Taylor subsets to the sorted image of their generators,
    signed by the parity of that sort.
    """
    if start == "lcm":
        return _lcm_basis_action(
            s.poset, _relabel(s.poset.elements, t.poset.index, perm), t.poset)
    return _taylor_basis_action(len(I.generators), _relabel(
        I.generators, {g: i for i, g in enumerate(J.generators)}, perm))


def fields_correspond(W: Homotopy, V: Homotopy, action) -> bool:
    """Whether ``V`` is ``W`` carried along ``action``, the signed basis
    bijection of :func:`relabelling_action`: entry ``(i, j)`` of ``W_n``
    times the signs of ``i`` and ``j`` is entry ``(sigma i, sigma j)`` of
    ``V_n``, entry for entry over the field of ``W``."""
    field = W.complex.ring.field
    if W.complex.ranks != V.complex.ranks:
        return False
    for n in range(W.complex.top):
        w, v = W.D(n).scalar_rows(), V.D(n).scalar_rows()
        for ti, si, sign_i in action[n + 1]:
            for tj, sj, sign_j in action[n]:
                want = w[si][sj] if sign_i == sign_j else field.neg(w[si][sj])
                if not field.eq(v[ti][tj], want):
                    return False
    return True


def _sort_parity(seq) -> int:
    """+1 or -1: the parity of the permutation that sorts the distinct
    entries of ``seq``, which is that of its number of inversions."""
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])
    return -1 if inversions % 2 else 1


def _stratum_local_maps(s: StratifiedComplex, elem_map, perm_pairs):
    """For each occupied stratum: the induced map of local basis positions.

    Returns {poset index: per-degree list mapping local position in stratum a
    to (local position in stratum elem_map[a], sign)}.
    """
    local_pos = {
        ai: [{g: t for t, g in enumerate(idx)} for idx in indices]
        for ai, indices in s.members.items()}
    actions = {}
    for ai, indices in s.members.items():
        tgt = local_pos[elem_map[ai]]
        per_degree = []
        for n, idx in enumerate(indices):
            amb = {src: (dst, sg) for dst, src, sg in perm_pairs[n]}
            per_degree.append([(tgt[n][amb[g][0]], amb[g][1]) for g in idx])
        actions[ai] = per_degree
    return actions


def _weight_substitution(I, field, elem_map, choice_actions, result):
    """Coefficient action on transcendental weights, or None when trivial.

    A critical stratum ``a`` maps to ``b = elem_map[a]``; the local basis
    bijection sends each matroidal choice of ``a`` to one of ``b``, and the
    weight ``y[a][j]`` must be sent to the weight of the image choice —
    ``y[b][j']``, or ``1 - sum`` when the image is the eliminated choice 0.
    """
    critical = result.report["critical_strata"]
    if not critical:
        return None
    s = result.start
    poset = s.poset
    tag_of = {ai: render_monomial(I.names, poset.elements[ai])
              for ai in s.occupied()}
    tag_to_idx = {t: ai for ai, t in tag_of.items()}
    # The matroidal choices in weight order, on both sides of the symmetry.
    # The stratum complexes are over the work field, whose rank tests on
    # their prime-field entries agree with the base field's.
    choice_lists = {ai: list_choices(matroidal_options(s.stratum(ai)))
                    for ai in (tag_to_idx[tag] for tag in critical)}
    subst = {}
    for tag in critical:
        ai = tag_to_idx[tag]
        bi = elem_map[ai]
        btag = tag_of[bi]
        if btag not in critical:
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
                subst[src_var] = field.eliminations[weight_name(btag, 0)]
            else:
                subst[src_var] = field.pd_var(
                    field.index[weight_name(btag, jp)])

    # a critical stratum has at least two choices, so subst is not empty
    def act(value):
        return field.substitute(value, subst)
    return act


def _map_choice(choice, lmaps):
    """Image of a matroidal choice under per-degree local index maps."""
    def image(sets):
        return tuple(tuple(sorted(lmap[i][0] for i in idx))
                     for idx, lmap in zip(sets, lmaps))
    return MatroidalChoice(x_sets=image(choice.x_sets),
                           z_sets=image(choice.z_sets))


# Polynomials over exponent tuples: dicts {exponent tuple: coefficient mod
# p}, with no packing.  They are the reference for the packed keys of
# ``chainflow.keys``, and share no code with it: a key is read and written
# here by arithmetic on powers of two, at the widths the layout documents.

FIELD_BITS = 8    # per transcendental of F_p(Y)
RING_BITS = 16    # per ring variable


def exponent_key(exps, bits=FIELD_BITS):
    """The packed key of the exponent tuple ``exps``, ``bits`` bits per
    variable; ``None`` when an exponent does not fit."""
    base = 2 ** bits
    if not all(0 <= e < base for e in exps):
        return None
    return sum(e * base ** i for i, e in enumerate(exps))


def key_exponents(key, nvars, bits=FIELD_BITS):
    """The exponent tuple of ``key`` over ``nvars`` variables."""
    out = []
    for _ in range(nvars):
        key, e = divmod(key, 2 ** bits)
        out.append(e)
    return tuple(out)


def tuple_poly(pd, nvars, bits=FIELD_BITS):
    """The tuple polynomial of the packed polynomial dict ``pd``."""
    return {key_exponents(k, nvars, bits): c for k, c in pd.items()}


def tuple_mul(p, a, b):
    """The product of two tuple polynomials over F_p."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = (out.get(e, 0) + ca * cb) % p
    return {e: c for e, c in out.items() if c}


def tuple_divexact(p, num, den):
    """``num/den`` over F_p when ``den`` divides ``num``, else ``None``.

    Leading terms are taken in lex order from the last variable, and the
    remainder is updated by a full tuple product at every step.
    """
    def order(e):
        return e[::-1]
    lead = max(den, key=order)
    inv = pow(den[lead], p - 2, p)
    rem, quot = dict(num), {}
    while rem:
        top = max(rem, key=order)
        q = tuple(x - y for x, y in zip(top, lead))
        if min(q) < 0:
            return None
        c = rem[top] * inv % p
        quot[q] = c
        for e, d in tuple_mul(p, {q: c}, den).items():
            rem[e] = (rem.get(e, 0) - d) % p
        rem = {e: c for e, c in rem.items() if c}
    return quot


def tuple_content(exps):
    """The least exponent of each variable over the tuples ``exps``."""
    return tuple(map(min, zip(*exps)))


def heap_divmod(F, num, den):
    """``F._pd_divmod(num, den)`` by the heap loop alone: the divisor's
    tail and the remainder heap are built first, and the loop tests every
    leading term, the first one included.  The reference for the test of
    the first leading term that ``_pd_divmod`` makes up front."""
    p = F.p
    lk = max(den)
    inv_lc = pow(den[lk], p - 2, p)
    tail = [(kb, cb) for kb, cb in den.items() if kb != lk]
    rem = dict(num)
    get = rem.get
    heap = [-k for k in rem]
    heapify(heap)
    quot = {}
    divides, carry = F.keys.divides, F.keys.carry
    while rem:
        rk = -heappop(heap)
        rc = get(rk)
        if rc is None:
            continue
        qk = rk - lk
        if not divides(lk, rk) or carry((qk,), den):
            break
        del rem[rk]
        qc = (rc * inv_lc) % p
        quot[qk] = qc
        for kb, cb in tail:
            k = qk + kb
            old = get(k)
            if old is None:
                rem[k] = (-qc * cb) % p
                heappush(heap, -k)
            else:
                v = (old - qc * cb) % p
                if v:
                    rem[k] = v
                else:
                    del rem[k]
    return quot, rem


def euler_characteristic(generators):
    """The sum over nonempty subsets S of the generators of
    (-1)^(|S|-1) x^lcm(S), as {exponent tuple: coefficient} without zero
    coefficients, from the exponent tuples alone.

    The Taylor complex is a resolution for any generating set, so this is
    the alternating sum of the multigraded Betti numbers of the ideal.
    """
    gens = [tuple(g) for g in generators]
    out = {}
    for size in range(1, len(gens) + 1):
        sign = (-1) ** (size - 1)
        for subset in combinations(gens, size):
            m = tuple(map(max, zip(*subset)))
            out[m] = out.get(m, 0) + sign
    return {m: c for m, c in out.items() if c}


def betti_euler_characteristic(names, betti):
    """The sum over i of (-1)^i beta_{i,b} x^b, as in
    :func:`euler_characteristic`, from a report's Betti table: homological
    degrees as keys, each mapping monomial text such as ``x^2*y`` to its
    Betti number."""
    index = {name: i for i, name in enumerate(names)}
    out = {}
    for i, row in betti.items():
        for text, beta in row.items():
            exps = [0] * len(names)
            for factor in [] if text == "1" else text.split("*"):
                name, _, e = factor.partition("^")
                exps[index[name]] += int(e or 1)
            m = tuple(exps)
            out[m] = out.get(m, 0) + (-1) ** int(i) * beta
    return {m: c for m, c in out.items() if c}


# Betti tables from simplicial homology (Miller-Sturmfels, *Combinatorial
# Commutative Algebra*, Thm 1.34 and Thm 9.2).  They share no code with
# chainflow: a simplicial complex is its faces, sorted tuples of vertices,
# and ranks come from sympy's DomainMatrix over QQ or GF(p).


def _upward_faces(vertices, is_face):
    """The faces of a simplicial complex, by size, grown from the empty face
    through faces only: ``is_face`` decides a candidate whose faces of one
    size less are all known to pass.  The list ends with an empty size; it
    holds no size at all for the void complex, which lacks even the empty
    face."""
    sizes = [[()] if is_face(()) else []]
    while sizes[-1]:
        sizes.append([F + (v,) for F in sizes[-1] for v in vertices
                      if (not F or v > F[-1]) and is_face(F + (v,))])
    return sizes


def _reduced_homology(sizes, characteristic):
    """``h[m] = dim H̃_{m-1}`` of the complex whose faces of size ``m`` are
    ``sizes[m]``, over QQ or GF(p)."""
    K = GF(characteristic) if characteristic else SQQ
    ranks = [0]
    for lower, upper in zip(sizes, sizes[1:]):
        index = {F: i for i, F in enumerate(lower)}
        rows = [[K.zero] * len(upper) for _ in lower]
        for j, F in enumerate(upper):
            for t in range(len(F)):
                rows[index[F[:t] + F[t + 1:]]][j] = K(-1 if t % 2 else 1)
        ranks.append(DomainMatrix(rows, (len(lower), len(upper)), K).rank()
                     if lower and upper else 0)
    ranks.append(0)
    return [len(F) - ranks[m] - ranks[m + 1] for m, F in enumerate(sizes)]


def _betti_table(degrees, complex_at, characteristic, tag):
    """``{i: {tag(b): beta}}`` with ``beta = dim H̃_{i-1}`` of
    ``complex_at(b)``, nonzero entries only, as a report keys its Betti
    table."""
    table = {}
    for b in degrees:
        for i, beta in enumerate(_reduced_homology(complex_at(b),
                                                   characteristic)):
            if beta:
                table.setdefault(i, {})[tag(b)] = beta
    return {i: dict(sorted(row.items())) for i, row in sorted(table.items())}


def monomial_betti_oracle(names, generators, characteristic):
    """The Betti table of the monomial ideal with the given generator
    exponent vectors: ``beta_{i,b} = dim H̃_{i-1}(K^b)`` at each degree ``b``
    of the lcm lattice, with the upper Koszul complex
    ``K^b = {squarefree F in supp b : x^(b-F) in I}``."""
    gens = [tuple(g) for g in generators]
    lattice = set(gens)
    for g in gens:
        lattice |= {tuple(map(max, e, g)) for e in lattice}

    def in_ideal(e):
        return any(all(x >= y for x, y in zip(e, g)) for g in gens)

    def upper_koszul(b):
        return _upward_faces(
            [j for j, x in enumerate(b) if x],
            lambda F: in_ideal([x - (j in F) for j, x in enumerate(b)]))

    def tag(b):
        return "*".join(nm if e == 1 else f"{nm}^{e}"
                        for nm, e in zip(names, b) if e) or "1"
    return _betti_table(lattice, upper_koszul, characteristic, tag)


def toric_betti_oracle(deg_map, top, characteristic):
    """The Betti table of ``k[Q]``, for ``Q`` the semigroup generated by the
    columns ``a_j`` of ``deg_map``, at every degree ``0 <= b <= top``:
    ``beta_{i,b} = dim H̃_{i-1}(Delta_b)`` with the squarefree divisor complex
    ``Delta_b = {F in [n] : b - sum_{j in F} a_j in Q}``."""
    cols = [tuple(row[j] for row in deg_map) for j in range(len(deg_map[0]))]
    member = {}

    def in_semigroup(b):
        # b = 0, or b - a_j lies in Q for some generator a_j <= b
        if b not in member:
            member[b] = not any(b) or any(
                in_semigroup(tuple(x - y for x, y in zip(b, a)))
                for a in cols if all(x >= y for x, y in zip(b, a)))
        return member[b]

    def divisor_complex(b):
        return _upward_faces(range(len(cols)), lambda F: in_semigroup(tuple(
            x - sum(cols[j][k] for j in F) for k, x in enumerate(b))))

    def tag(b):
        return ",".join(str(x) for x in b)
    return _betti_table(product(*(range(t + 1) for t in top)),
                        divisor_complex, characteristic, tag)
