"""A family of monomial ideals whose minimal resolution needs transcendentals.

For each prime ``p`` the family member ``I(p)`` lives in ``2n + 1``
variables (``n = 4`` for ``p = 2``, else ``n = p``): cycle vertices
``v_0..v_n`` and cycle edges ``e_{1,2}, e_{2,3}, ..., e_{n,1}``, indices on
the edge ring read cyclically in ``1..n``.  Writing ``M`` for the product of
all variables, the generators are

    m_0 = M / v_0,
    m_i = v_0 * M / (e_{i-1,i} * v_i * e_{i,i+1})   for i = 1..n (cyclic).

Over any field the quotient by ``I(p)`` has an explicit length-3 resolution
with ranks (1, n+1, n+1, 1) and a cyclic symmetry of order ``n``.  In
characteristic coprime to ``n`` the resolution can be chosen intrinsically
(equivariantly); in characteristic ``p`` dividing ``n`` no equivariant choice
exists — an exhaustive obstruction search certifies this — but a canonical
choice does exist over a transcendental extension ``F_p(y_1..y_{n-1})``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _product

from .errors import InputError, InternalError, VerificationError
from .scalars import QQ, GF, FunctionField, _is_prime, field_descriptor
from .linalg import PolyRing, RingMatrix
from .complexes import BasedComplex, verify_strands
from .monomial import MonomialIdeal, lcm_lattice, render_monomial

__all__ = [
    "CycleFamily",
    "build_Ip",
    "explicit_resolution",
    "intrinsic_resolution",
    "transcendental_resolution",
    "rotation_permutation",
    "equivariance_report",
    "verify_family_resolution",
    "obstruction_search",
    "characteristic_zero_control",
]


@dataclass
class CycleFamily:
    """The ideal ``I(p)`` with its variable layout."""

    p: int
    n: int
    names: tuple
    ideal: MonomialIdeal

    def vertex(self, i: int) -> int:
        """Position of ``v_i`` (i in 0..n)."""
        return i

    def edge(self, i: int) -> int:
        """Position of ``e_{i,i+1}`` for cyclic i in 1..n."""
        i = ((i - 1) % self.n) + 1
        return self.n + i


def _cyc(i: int, n: int) -> int:
    return ((i - 1) % n) + 1


def build_Ip(p: int) -> CycleFamily:
    """The family member at the prime ``p``; ``n = 4`` when ``p = 2``."""
    if not _is_prime(p):
        raise InputError(f"the family is indexed by primes, got {p}")
    n = 4 if p == 2 else p
    names = tuple(f"v{i}" for i in range(n + 1)) + tuple(
        f"e{i}{_cyc(i + 1, n)}" for i in range(1, n + 1))
    nv = len(names)
    full = [1] * nv

    def drop(exps, pos, k=1):
        out = list(exps)
        out[pos] -= k
        return out

    vpos = lambda i: i
    epos = lambda i: n + _cyc(i, n)
    gens = []
    # m_0 = M / v_0
    gens.append(tuple(drop(full, vpos(0))))
    # m_i = v_0 * M / (e_{i-1,i} v_i e_{i,i+1})
    for i in range(1, n + 1):
        exps = list(full)
        exps[vpos(0)] += 1
        exps[epos(i - 1)] -= 1
        exps[vpos(i)] -= 1
        exps[epos(i)] -= 1
        gens.append(tuple(exps))
    I = MonomialIdeal(names, gens)
    if I.dropped or len(I.generators) != n + 1:
        raise InternalError("family generators unexpectedly not minimal")
    return CycleFamily(p, n, names, I)


def _resolution_shell(fam: CycleFamily, field):
    """Common frame: ring, labels and multidegrees of the length-3 shell.

    Homological degrees carry: h (rank 1, degree 0 of the quotient shell is
    the free module on the empty generator), then the ideal generators
    ``h_0..h_n`` in degree 1, then ``g_0, g_{1,2}, ..., g_{n,1}`` in degree
    2, then the single top generator ``f``.  Multidegrees: |h_0| = 2n,
    |h_i| = 2n - 1, |g_0| = 2n + 2, |g_{i,i+1}| = 2n + 1, |f| = 2n + 2 in
    total degree; as exponent vectors they are the obvious lcms.
    """
    n = fam.n
    ring = PolyRing(field, fam.names)
    nv = len(fam.names)
    gens = fam.ideal.generators

    def join(a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    top = gens[0]
    for g in gens[1:]:
        top = join(top, g)
    # top = v_0^2 * (every other variable once) -- the lcm of all generators
    labels = [
        ["1"],
        [f"h{i}" for i in range(n + 1)],
        ["g0"] + [f"g{i}{_cyc(i + 1, n)}" for i in range(1, n + 1)],
        ["f"],
    ]
    multidegrees = [
        [tuple([0] * nv)],
        [tuple(g) for g in gens],
        [top] + [join(gens[i], gens[_cyc(i + 1, n)]) for i in range(1, n + 1)],
        [top],
    ]
    return ring, labels, multidegrees


def explicit_resolution(fam: CycleFamily, field) -> BasedComplex:
    """The hand-built resolution of the quotient ring, over any field.

    ``phi_1`` has the generators as columns; ``phi_2`` sends ``g_0`` to
    ``v_0^2 h_0 - e_{n,1} v_1 e_{1,2} h_1`` and each ``g_{i,i+1}`` to
    ``v_{i+1} e_{i+1,i+2} h_{i+1} - e_{i-1,i} v_i h_i`` (indices cyclic);
    ``phi_3`` sends ``f`` to the sum of ``e_{i,i+1} g_{i,i+1}``.
    """
    n = fam.n
    ring, labels, multidegrees = _resolution_shell(fam, field)
    nv = len(fam.names)
    vpos = lambda i: i
    epos = lambda i: n + _cyc(i, n)
    gens = fam.ideal.generators
    one = field.one
    neg = field.neg(one)

    # phi_1: 1 x (n+1), column i = generator monomial m_i
    phi1 = RingMatrix(ring, [[ring.monomial(g, one) for g in gens]],
                      ncols=n + 1)
    # phi_2: (n+1) x (n+1); rows h_0..h_n, columns g_0, g_{1,2}, ..., g_{n,1}
    rows = [[ring.zero() for _ in range(n + 1)] for _ in range(n + 1)]
    # g_0 column
    e = [0] * nv
    e[vpos(0)] = 2
    rows[0][0] = ring.monomial(tuple(e), one)
    e = [0] * nv
    e[epos(n)] += 1
    e[vpos(1)] += 1
    e[epos(1)] += 1
    rows[1][0] = ring.monomial(tuple(e), neg)
    # g_{i,i+1} columns, i = 1..n: v_{i+1} e_{i+1,i+2} h_{i+1} - e_{i-1,i} v_i h_i
    for i in range(1, n + 1):
        col = i
        ip1 = _cyc(i + 1, n)
        e = [0] * nv
        e[vpos(ip1)] += 1
        e[epos(i + 1)] += 1
        rows[ip1][col] = rows[ip1][col] + ring.monomial(tuple(e), one)
        e = [0] * nv
        e[epos(i - 1)] += 1
        e[vpos(i)] += 1
        rows[i][col] = rows[i][col] + ring.monomial(tuple(e), neg)
    phi2 = RingMatrix(ring, rows, ncols=n + 1)
    # phi_3: (n+1) x 1: f -> sum_i e_{i,i+1} g_{i,i+1}
    rows = [[ring.zero()] for _ in range(n + 1)]
    for i in range(1, n + 1):
        e = [0] * nv
        e[epos(i)] += 1
        rows[i][0] = ring.monomial(tuple(e), one)
    phi3 = RingMatrix(ring, rows, ncols=1)
    c = BasedComplex(ring, labels, multidegrees, [phi1, phi2, phi3])
    issues = c.validate()
    if issues:
        raise VerificationError(
            "explicit resolution failed validation: " + "; ".join(issues))
    return c


def intrinsic_resolution(fam: CycleFamily, field) -> BasedComplex:
    """The equivariant variant: ``g_0``'s column is symmetrised.

    ``phi_2(g_0) = v_0^2 h_0 - (1/n) sum_i e_{i-1,i} v_i e_{i,i+1} h_i``.
    Requires ``n`` invertible; in characteristic dividing ``n`` the inverse
    does not exist and this raises an input error.
    """
    n = fam.n
    if field.char != 0 and n % field.char == 0:
        raise InputError("1/n undefined")
    inv_n = field.inv(field.from_int(n))
    c = explicit_resolution(fam, field)
    ring = c.ring
    nv = len(fam.names)
    vpos = lambda i: i
    epos = lambda i: n + _cyc(i, n)
    phi2 = c.d(2)
    rows = [list(r) for r in phi2.rows]
    coeff = field.neg(inv_n)
    for i in range(1, n + 1):
        e = [0] * nv
        e[epos(i - 1)] += 1
        e[vpos(i)] += 1
        e[epos(i)] += 1
        rows[i][0] = ring.monomial(tuple(e), coeff)
    out = BasedComplex(ring, [list(l) for l in c.labels],
                       [list(m) for m in c.multidegrees],
                       [c.d(1), RingMatrix(ring, rows, ncols=n + 1), c.d(3)])
    issues = out.validate()
    if issues:
        raise VerificationError(
            "intrinsic resolution failed validation: " + "; ".join(issues))
    return out


def transcendental_resolution(fam: CycleFamily):
    """The canonical choice in characteristic ``p``: generic affine weights.

    Over ``F_p(y_1..y_{n-1})`` with ``y_n`` eliminated as ``1 - sum``, the
    ``g_0`` column becomes ``v_0^2 h_0 - sum_i y_i e_{i-1,i} v_i e_{i,i+1}
    h_i``.  Substituting ``y_i -> 1/n`` (possible only when ``n`` is
    invertible) recovers the intrinsic resolution.
    """
    n = fam.n
    p = fam.p
    names = [f"y{i}" for i in range(1, n)]
    field = FunctionField(p, names, label="generic affine weights")
    y_n = field.pd_const(1)
    for j in range(n - 1):
        y_n = field.pd_sub(y_n, field.pd_var(j))
    field.eliminations[f"y{n}"] = y_n
    c = explicit_resolution(fam, field)
    ring = c.ring
    nv = len(fam.names)
    vpos = lambda i: i
    epos = lambda i: n + _cyc(i, n)
    phi2 = c.d(2)
    rows = [list(r) for r in phi2.rows]
    for i in range(1, n + 1):
        e = [0] * nv
        e[epos(i - 1)] += 1
        e[vpos(i)] += 1
        e[epos(i)] += 1
        w = (field.pd_var(i - 1), None) if i < n else (y_n, None)
        rows[i][0] = ring.monomial(tuple(e), field.neg(w))
    out = BasedComplex(ring, [list(l) for l in c.labels],
                       [list(m) for m in c.multidegrees],
                       [c.d(1), RingMatrix(ring, rows, ncols=n + 1), c.d(3)])
    issues = out.validate()
    if issues:
        raise VerificationError(
            "transcendental resolution failed validation: " + "; ".join(issues))
    return out, field


def rotation_permutation(fam: CycleFamily) -> list:
    """The cyclic symmetry on variables: ``v_0`` fixed, ``v_i -> v_{i+1}``
    and ``e_{i,i+1} -> e_{i+1,i+2}``, indices cyclic in 1..n."""
    n = fam.n
    perm = list(range(len(fam.names)))
    for i in range(1, n + 1):
        perm[i] = _cyc(i + 1, n)
        perm[n + i] = n + _cyc(i + 1, n)
    return perm


def equivariance_report(c: BasedComplex, fam: CycleFamily,
                        rotate_weights: bool = False) -> dict:
    """Does the rotation act on the resolution by a basis permutation?

    Checks ``d_k P_k = P_{k-1} A(d_k)`` for the induced basis permutations
    ``P`` (generators ``h_i``, relations ``g``, top ``f``) where ``A`` applies
    the variable rotation to every entry and — when ``rotate_weights`` is set
    on a transcendental resolution — also shifts the weights ``y_i -> y_{i+1}``
    (the last one landing on the eliminated ``1 - sum``).  The explicit
    resolution fails this at the ``g_0`` column; the intrinsic and
    transcendental ones pass.
    """
    n = fam.n
    ring = c.ring
    field = ring.field
    perm = rotation_permutation(fam)

    def rho_h(i):
        return 0 if i == 0 else _cyc(i + 1, n)

    def rho_g(j):
        return 0 if j == 0 else _cyc(j + 1, n)

    def perm_matrix(images, size):
        rows = [[ring.zero() for _ in range(size)] for _ in range(size)]
        for src in range(size):
            rows[images(src)][src] = ring.one()
        return RingMatrix(ring, rows, ncols=size)

    P = [
        RingMatrix.identity(ring, 1),
        perm_matrix(rho_h, n + 1),
        perm_matrix(rho_g, n + 1),
        RingMatrix.identity(ring, 1),
    ]
    subst = None
    if rotate_weights:
        if not isinstance(field, FunctionField):
            raise InputError(
                "weight rotation only applies to a transcendental resolution")
        subst = {}
        y_n = field.pd_const(1)
        for j in range(n - 1):
            y_n = field.pd_sub(y_n, field.pd_var(j))
        for i in range(1, n):
            idx = field.index[f"y{i}"]
            if i < n - 1:
                subst[idx] = field.pd_var(field.index[f"y{i + 1}"])
            else:
                subst[idx] = y_n

    def act(e):
        e = e.permute_vars(perm)
        if subst is not None:
            e = e.map_coefficients(
                lambda v: field.substitute(v, subst), ring)
        return e

    levels = {}
    for k in range(1, c.top + 1):
        dk = c.d(k)
        acted = RingMatrix(
            ring, [[act(x) for x in row] for row in dk.rows], ncols=dk.ncols)
        levels[k] = ((dk @ P[k]) - (P[k - 1] @ acted)).is_zero()
    return {"levels": levels, "equivariant": all(levels.values())}


def verify_family_resolution(c: BasedComplex, fam: CycleFamily) -> dict:
    """Certify that ``c`` is a minimal resolution of the quotient by ``I(p)``.

    Validation (shapes, ``d^2 = 0``, homogeneity), minimality, and
    strand-exactness at every lcm-lattice degree: the degree-zero homology of
    a strand is one-dimensional only at the bottom (the quotient vanishes in
    every degree inside the ideal), higher homology vanishes everywhere.
    """
    L = lcm_lattice(fam.ideal)
    return verify_strands(c, (
        (b, render_monomial(fam.names, b), 1 if b == L.bottom else 0)
        for b in L.elements))


def _augmentation_quotient(c: BasedComplex):
    """Set all ring variables to 1 in the differentials (scalar matrices)."""
    field = c.ring.field
    mats = []
    for k in range(1, c.top + 1):
        m = c.d(k)
        mats.append([[e.augment() for e in row] for row in m.rows])
    return field, mats


def obstruction_search(fam: CycleFamily) -> dict:
    """Exhaustive proof that no equivariant scaling exists over ``F_p``.

    The cyclic symmetry rho (rotating vertices and edges by one step) maps
    the explicit resolution to an isomorphic one; any equivariant structure
    would give, on the augmented quotient (all variables set to 1), a chain
    map ``psi`` over ``F_p`` with

        psi(h_i) = h_{rho(i)},   psi(f) = f,
        psi(g_{i,i+1}) = g_{rho(i),rho(i+1)},
        psi(g_0) = g_0 + sum_i a_i g_{i,i+1}

    for some tuple ``a`` in ``F_p^n``, and ``psi^n = id``.  The search runs
    over all ``p^n`` tuples and records which pass the chain-map condition
    and which pass both; the certificate is that the latter set is empty.

    Every chain-map-compatible tuple fails periodicity in a controlled way:
    ``psi^n(g_0) - g_0`` is a *nonzero* multiple of ``sum_i g_{i,i+1}``;
    this invariant is asserted and returned.
    """
    n = fam.n
    p = fam.p
    if n % p != 0:
        raise InputError(
            "the obstruction occurs only when the characteristic divides n")
    field = GF(p)
    expl = explicit_resolution(fam, field)
    _, (phi1, phi2, phi3) = _augmentation_quotient(expl)

    # rho on basis indices: vertices h_i -> h_{i+1} (h_0 fixed is NOT the
    # vertex rotation: h_0 is the special generator m_0, fixed by rho), and
    # edges g_{i,i+1} -> g_{i+1,i+2}.
    def rho_h(i):
        return 0 if i == 0 else _cyc(i + 1, n)

    def rho_g(col):
        return 0 if col == 0 else _cyc(col + 1, n)

    dim = n + 1

    def mat_mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(len(b))) % p
                 for j in range(len(b[0]))] for i in range(len(a))]

    def psi1():
        m = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            m[rho_h(i)][i] = 1
        return m

    def psi2(a):
        m = [[0] * dim for _ in range(dim)]
        m[0][0] = 1
        for i in range(1, n + 1):
            m[rho_g(i)][i] = 1
            m[i][0] = a[i - 1] % p
        return m

    P1 = psi1()
    chain_ok = []
    both_ok = []
    invariant_checked = 0
    for a in _product(range(p), repeat=n):
        P2 = psi2(a)
        # chain map: phi2 P2 = P1 phi2 (phi1 and phi3 conditions hold by
        # construction for every tuple; they are checked once below).
        if mat_mul(phi2, P2) != mat_mul(P1, phi2):
            continue
        chain_ok.append(a)
        # periodicity: psi^n = id on the g-level
        Pk = P2
        for _ in range(n - 1):
            Pk = mat_mul(Pk, P2)
        ident = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
        if Pk == ident:
            both_ok.append(a)
        else:
            # invariant: psi^n(g_0) - g_0 is a nonzero multiple of sum g_i
            delta = [Pk[i][0] - (1 if i == 0 else 0) for i in range(dim)]
            vals = {delta[i] % p for i in range(1, n + 1)}
            if delta[0] % p != 0 or len(vals) != 1 or vals == {0}:
                raise VerificationError(
                    "obstruction invariant failed for a chain-map tuple")
            invariant_checked += 1
    # sanity: psi commutes with phi1 and phi3 for every tuple
    P0 = [[1]]
    if mat_mul(phi1, P1) != mat_mul(P0, phi1):
        raise VerificationError("vertex rotation is not a chain map at level 1")
    P3 = [[1]]
    # phi3 P3 = P2 phi3 must hold for chain-map tuples; check on them
    for a in chain_ok:
        P2 = psi2(a)
        if mat_mul(phi3, P3) != mat_mul(P2, phi3):
            raise VerificationError(
                "edge rotation breaks the top-level chain condition")
    return {
        "p": p,
        "n": n,
        "tuples_searched": p ** n,
        "chain_map_tuples": chain_ok,
        "equivariant_tuples": both_ok,
        "obstructed": not both_ok,
        "invariant_violations": 0,
        "periodicity_failures_checked": invariant_checked,
    }


def characteristic_zero_control(fam: CycleFamily) -> dict:
    """Over Q the intrinsic resolution is honestly equivariant: the zero
    tuple gives a chain map with ``psi^n = id`` on the augmented quotient."""
    n = fam.n
    field = QQ
    intr = intrinsic_resolution(fam, field)
    _, (phi1, phi2, phi3) = _augmentation_quotient(intr)

    def rho_h(i):
        return 0 if i == 0 else _cyc(i + 1, n)

    def rho_g(col):
        return 0 if col == 0 else _cyc(col + 1, n)

    dim = n + 1
    from fractions import Fraction

    def mat_mul(a, b):
        return [[sum((a[i][k] * b[k][j] for k in range(len(b))),
                     Fraction(0))
                 for j in range(len(b[0]))] for i in range(len(a))]

    P1 = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        P1[rho_h(i)][i] = Fraction(1)
    P2 = [[Fraction(0)] * dim for _ in range(dim)]
    P2[0][0] = Fraction(1)
    for i in range(1, n + 1):
        P2[rho_g(i)][i] = Fraction(1)
    chain = (mat_mul(phi2, P2) == mat_mul(P1, phi2))
    Pk = P2
    for _ in range(n - 1):
        Pk = mat_mul(Pk, P2)
    ident = [[Fraction(1 if i == j else 0) for j in range(dim)]
             for i in range(dim)]
    periodic = (Pk == ident)
    return {"chain_map": chain, "periodic": periodic,
            "ok": chain and periodic}
