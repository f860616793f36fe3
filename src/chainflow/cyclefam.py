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

The three resolutions differ only in the ``g_0`` column of ``d_2``, which
kills the top degree by an affine combination of the ``n`` cycle choices:

    phi_2(g_0) = v_0^2 h_0 - sum_i w_i e_{i-1,i} v_i e_{i,i+1} h_i,

with weights summing to 1.  The explicit resolution takes the first choice,
``w = (1, 0, ..., 0)``; the intrinsic one takes the plain average,
``w = (1/n, ..., 1/n)``, which needs ``n`` invertible; the transcendental
one takes generic affine weights, ``w = (y_1, ..., y_{n-1}, 1 - sum)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _product

from .errors import InputError, InternalError, VerificationError
from .scalars import QQ, GF, FunctionField, _is_prime
from .linalg import PolyRing, RingMatrix, s_identity, s_mul, s_zeros
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
        return self.n + _cyc(i, self.n)


def _cyc(i: int, n: int) -> int:
    return ((i - 1) % n) + 1


def _rotate(i: int, n: int) -> int:
    """The cyclic symmetry on indices 0..n: 0 fixed, i -> i + 1 cyclic in 1..n.

    It moves ``v_i`` and ``h_i`` by index, and ``e_{i,i+1}`` and
    ``g_{i,i+1}`` by their first index, with ``g_0`` at index 0.
    """
    return 0 if i == 0 else _cyc(i + 1, n)


def build_Ip(p: int) -> CycleFamily:
    """The family member at the prime ``p``; ``n = 4`` when ``p = 2``."""
    if not _is_prime(p):
        raise InputError(f"the family is indexed by primes, got {p}")
    n = 4 if p == 2 else p
    names = tuple(f"v{i}" for i in range(n + 1)) + tuple(
        f"e{i}{_cyc(i + 1, n)}" for i in range(1, n + 1))
    fam = CycleFamily(p, n, names, ideal=None)
    # Each generator divides v_0^2 * (every other variable once), m_0 with
    # the cofactor v_0^2 and m_i with the cofactor e_{i-1,i} v_i e_{i,i+1}.
    v, e = fam.vertex, fam.edge
    cofactors = [(v(0), v(0))] + [(e(i - 1), v(i), e(i))
                                  for i in range(1, n + 1)]
    gens = []
    for cofactor in cofactors:
        exps = [2] + [1] * (2 * n)
        for pos in cofactor:
            exps[pos] -= 1
        gens.append(tuple(exps))
    fam.ideal = MonomialIdeal(names, gens)
    # the construction indexes the generators as m_0..m_n
    if fam.ideal.generators != gens:
        raise InternalError("family generators unexpectedly not minimal "
                            "or not in ascending order")
    return fam


def _weighted_resolution(fam: CycleFamily, field, weights, kind: str
                         ) -> BasedComplex:
    """The length-3 resolution whose ``g_0`` column carries ``weights``.

    The basis is 1 in degree 0, the generators ``h_0..h_n`` in degree 1,
    the relations ``g_0, g_{1,2}, ..., g_{n,1}`` in degree 2 and the top
    generator ``f`` in degree 3.  Each basis element sits in the lcm of the
    generators it involves: ``|h_i| = m_i``, ``|g_{i,i+1}| = lcm(m_i,
    m_{i+1})`` and ``|g_0| = |f|`` = the lcm of all generators.  Every entry
    is a scalar times the quotient of the column's multidegree by the row's:

        phi_1(h_i) = m_i,
        phi_2(g_0) = v_0^2 h_0 - sum_i w_i e_{i-1,i} v_i e_{i,i+1} h_i,
        phi_2(g_{i,i+1}) = v_{i+1} e_{i+1,i+2} h_{i+1} - e_{i-1,i} v_i h_i,
        phi_3(f) = sum_i e_{i,i+1} g_{i,i+1},

    indices cyclic, for the weights ``w = (w_1, ..., w_n)``.  ``d_2 d_3 = 0``
    for any weights, and ``d_1 d_2 = 0`` exactly when they sum to 1.
    """
    n = fam.n
    gens = fam.ideal.generators
    top = tuple(map(max, *gens))
    multidegrees = [
        [(0,) * len(fam.names)],
        list(gens),
        [top] + [tuple(map(max, gens[i], gens[_rotate(i, n)]))
                 for i in range(1, n + 1)],
        [top],
    ]
    labels = [
        ["1"],
        [f"h{i}" for i in range(n + 1)],
        ["g0"] + [f"g{i}{_rotate(i, n)}" for i in range(1, n + 1)],
        ["f"],
    ]
    one = field.one
    phi2 = s_zeros(field, n + 1, n + 1)
    phi2[0][0] = one
    for i in range(1, n + 1):
        phi2[i][0] = field.neg(weights[i - 1])
        phi2[_rotate(i, n)][i] = one
        phi2[i][i] = field.neg(one)
    scalars = [[[one] * (n + 1)], phi2, [[field.zero]] + [[one]] * n]
    ring = PolyRing(field, fam.names)
    diffs = [
        RingMatrix(ring, [
            [ring.monomial(tuple(a - b for a, b in zip(col, row)), x)
             for x, col in zip(xs, multidegrees[k])]
            for xs, row in zip(scalars[k - 1], multidegrees[k - 1])],
            ncols=len(multidegrees[k]))
        for k in (1, 2, 3)]
    c = BasedComplex(ring, labels, multidegrees, diffs)
    issues = c.validate()
    if issues:
        raise VerificationError(
            f"{kind} resolution failed validation: " + "; ".join(issues))
    return c


def explicit_resolution(fam: CycleFamily, field) -> BasedComplex:
    """The hand-built resolution of the quotient ring, over any field.

    Its weights are ``(1, 0, ..., 0)``: ``phi_2`` sends ``g_0`` to
    ``v_0^2 h_0 - e_{n,1} v_1 e_{1,2} h_1``.
    """
    weights = [field.one] + [field.zero] * (fam.n - 1)
    return _weighted_resolution(fam, field, weights, "explicit")


def intrinsic_resolution(fam: CycleFamily, field) -> BasedComplex:
    """The equivariant variant: ``g_0``'s column is symmetrised.

    Its weights are the plain average ``(1/n, ..., 1/n)``.  Requires ``n``
    invertible; in characteristic dividing ``n`` the inverse does not exist
    and this raises an input error.
    """
    n = fam.n
    if field.char != 0 and n % field.char == 0:
        raise InputError("1/n undefined")
    weights = [field.inv(field.from_int(n))] * n
    return _weighted_resolution(fam, field, weights, "intrinsic")


def transcendental_resolution(fam: CycleFamily):
    """The canonical choice in characteristic ``p``: generic affine weights.

    Over ``F_p(y_1..y_{n-1})`` with ``y_n`` eliminated as ``1 - sum``, the
    weights are ``(y_1, ..., y_n)``.  Substituting ``y_i -> 1/n`` (possible
    only when ``n`` is invertible) recovers the intrinsic resolution.
    """
    n = fam.n
    field = FunctionField(fam.p, [f"y{i}" for i in range(1, n)],
                          label="generic affine weights")
    y_n = field.pd_affine_rest(range(n - 1))
    field.eliminations[f"y{n}"] = y_n
    weights = [field.var(j) for j in range(n - 1)] + [(y_n, None)]
    return _weighted_resolution(fam, field, weights, "transcendental"), field


def rotation_permutation(fam: CycleFamily) -> list:
    """The cyclic symmetry on variables: ``v_0`` fixed, ``v_i -> v_{i+1}``
    and ``e_{i,i+1} -> e_{i+1,i+2}``, indices cyclic in 1..n."""
    n = fam.n
    return [_rotate(i, n) for i in range(n + 1)] + [
        n + _rotate(i, n) for i in range(1, n + 1)]


def _psi(field, n: int, a=None):
    """The rotation's candidate chain map on generators and relations.

    ``P1`` sends ``h_i`` to ``h_{rho(i)}``.  ``P2`` sends ``g_{i,i+1}`` to
    ``g_{rho(i),rho(i+1)}`` and ``g_0`` to ``g_0 + sum_i a_i g_{i,i+1}``,
    with ``a = 0`` when omitted.  Both are scalar matrices over ``field``.
    """
    P1 = s_zeros(field, n + 1, n + 1)
    P2 = s_zeros(field, n + 1, n + 1)
    for i in range(n + 1):
        P1[_rotate(i, n)][i] = P2[_rotate(i, n)][i] = field.one
    if a is not None:
        for i in range(1, n + 1):
            P2[i][0] = field.from_int(a[i - 1])
    return P1, P2


def _power(field, m, k: int):
    out = m
    for _ in range(k - 1):
        out = s_mul(field, out, m)
    return out


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
    one = RingMatrix.identity(ring, 1)
    P = [one] + [RingMatrix.from_scalar_rows(ring, m)
                 for m in _psi(field, n)] + [one]
    subst = None
    if rotate_weights:
        if (not isinstance(field, FunctionField)
                or f"y{n}" not in field.eliminations):
            raise InputError(
                "weight rotation only applies to a transcendental resolution")
        subst = {field.index[f"y{i}"]: field.pd_var(field.index[f"y{i + 1}"])
                 for i in range(1, n - 1)}
        subst[field.index[f"y{n - 1}"]] = field.eliminations[f"y{n}"]

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


def _augmentation_quotient(c: BasedComplex) -> list:
    """Set all ring variables to 1 in the differentials (scalar matrices)."""
    return [[[e.augment() for e in row] for row in c.d(k).rows]
            for k in range(1, c.top + 1)]


# The most tuples ``obstruction_search`` tries; 7^7 = 823,543 is within it.
MAX_OBSTRUCTION_TUPLES = 10 ** 6


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
    this invariant is asserted and returned.  A search of more than
    ``MAX_OBSTRUCTION_TUPLES`` tuples is refused at entry; solving the
    chain-map condition, affine-linear in ``a``, over ``F_p`` would lift
    that limit.
    """
    n = fam.n
    p = fam.p
    if n % p != 0:
        raise InputError(
            "the obstruction occurs only when the characteristic divides n")
    if p ** n > MAX_OBSTRUCTION_TUPLES:
        raise InputError(
            f"the obstruction search would try {p}^{n} = {p ** n:,} tuples, "
            f"more than the {MAX_OBSTRUCTION_TUPLES:,} it allows; the "
            "checks resolution, intrinsic and transcendental still run at "
            f"p = {p} (pick one with --check)")
    field = GF(p)
    phi1, phi2, phi3 = _augmentation_quotient(explicit_resolution(fam, field))
    # P1 does not depend on the tuple: check the level-1 condition
    # phi1 P1 = phi1 and form the level-2 right side P1 phi2 once.
    P1, _ = _psi(field, n)
    if s_mul(field, phi1, P1) != phi1:
        raise VerificationError("vertex rotation is not a chain map at level 1")
    rotated = s_mul(field, P1, phi2)
    ident = s_identity(field, n + 1)
    chain_ok = []
    both_ok = []
    for a in _product(range(p), repeat=n):
        _, P2 = _psi(field, n, a)
        # chain map at levels 2 and 3: phi2 P2 = P1 phi2 and phi3 = P2 phi3
        if s_mul(field, phi2, P2) != rotated:
            continue
        if s_mul(field, P2, phi3) != phi3:
            raise VerificationError(
                "edge rotation breaks the top-level chain condition")
        chain_ok.append(a)
        # periodicity: psi^n = id on the g-level
        Pk = _power(field, P2, n)
        if Pk == ident:
            both_ok.append(a)
            continue
        # invariant: psi^n(g_0) - g_0 is a nonzero multiple of sum g_i
        multiples = {Pk[i][0] for i in range(1, n + 1)}
        if Pk[0][0] != field.one or len(multiples) != 1 or 0 in multiples:
            raise VerificationError(
                "obstruction invariant failed for a chain-map tuple")
    return {
        "p": p,
        "n": n,
        "tuples_searched": p ** n,
        "chain_map_tuples": chain_ok,
        "equivariant_tuples": both_ok,
        "obstructed": not both_ok,
        "invariant_violations": 0,
        "periodicity_failures_checked": len(chain_ok) - len(both_ok),
    }


def characteristic_zero_control(fam: CycleFamily) -> dict:
    """Over Q the intrinsic resolution is honestly equivariant: the zero
    tuple gives a chain map with ``psi^n = id`` on the augmented quotient."""
    n = fam.n
    _, phi2, _ = _augmentation_quotient(intrinsic_resolution(fam, QQ))
    P1, P2 = _psi(QQ, n)
    chain = s_mul(QQ, phi2, P2) == s_mul(QQ, P1, phi2)
    periodic = _power(QQ, P2, n) == s_identity(QQ, n + 1)
    return {"chain_map": chain, "periodic": periodic,
            "ok": chain and periodic}
