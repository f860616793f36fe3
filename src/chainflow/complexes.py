"""Based chain complexes of free modules, posets, and stratifications.

Conventions used throughout the package:

* A complex F has degrees 0..top; ``diffs[i]`` is the matrix of
  d_{i+1}: F_{i+1} -> F_i (so ``len(diffs) == top``).  ``c.d(n)`` is d_n
  for every n: the zero (rank(n-1), rank(n)) matrix outside 1..top.
* Basis elements carry string labels and optional multidegrees (tuples in
  an ambient Z^d).  A complex may carry ``deg_map`` assigning a degree
  vector to each ring variable (d x nvars, tuple of tuples); ``None``
  means the identity map (ambient = ring variables), the right default
  for monomial-ideal work.
* An entry e in row b (degree n), column a (degree n+1) is homogeneous
  when deg(term) + mdeg(b) = mdeg(a) for every term of e.
* A stratification assigns each basis element to an element of a finite
  poset, such that the differential is triangular: the entry (b, a) can
  be nonzero only when strat(b) <= strat(a), and same-stratum blocks are
  scalar.  The stratification partitions the basis once, into the
  per-stratum position lists ``members``; every stage reads those lists,
  and :meth:`StratifiedComplex.stratum` slices a stratum complex from them.
* Every start resolution comes from one builder, :func:`start_resolution`.
  A start is data: its tiers of tuples (tier n is the degree-n basis), a
  label and a multidegree for each tuple, and a face rule that lists the
  faces of a tuple, each with a monomial.  The builder signs face t by
  (-1)^t, adds faces that coincide, and puts each tuple in the stratum of
  its multidegree.
"""

from __future__ import annotations

from .errors import InputError
from .keys import monomial_text
from .linalg import PolyRing, RingMatrix, s_rank


class Poset:
    """Finite poset with a fixed linear extension as element order.

    ``below[i]`` is the set of indices strictly below element i.  The
    element order must be a linear extension (j in below[i] implies
    j < i); the constructor checks this.
    """

    def __init__(self, elements, below):
        self.elements = list(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise InputError("poset elements not distinct")
        self.below = [frozenset(s) for s in below]
        for i, s in enumerate(self.below):
            for j in s:
                if not 0 <= j < i:
                    raise InputError(
                        f"element order is not a linear extension: element "
                        f"{i} lists {j!r} below it")
                if not self.below[j] <= s:
                    raise InputError("below-sets are not transitively closed")
        self._depth = None

    @classmethod
    def from_leq(cls, elements, leq):
        """Build from a comparability callable, reordering the elements into
        a linear extension; among unrelated elements the given order wins."""
        n = len(elements)
        strictly_below = [set() for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j and leq(elements[j], elements[i]):
                    if leq(elements[i], elements[j]):
                        raise InputError("leq is not antisymmetric on the elements")
                    strictly_below[i].add(j)
        # the smallest unplaced index whose lower set is already placed
        order, placed = [], set()
        while len(order) < n:
            i = next((i for i in range(n)
                      if i not in placed and strictly_below[i] <= placed), None)
            if i is None:
                raise InputError("relation has cycles; not a poset")
            order.append(i)
            placed.add(i)
        newpos = {old: new for new, old in enumerate(order)}
        elems = [elements[old] for old in order]
        below = [frozenset(newpos[j] for j in strictly_below[old]) for old in order]
        return cls(elems, below)

    def __len__(self):
        return len(self.elements)

    def leq(self, i, j):
        return i == j or i in self.below[j]

    def depth(self, i):
        """Length (edge count) of the longest chain ending at element i."""
        if self._depth is None:
            depths = []
            for k in range(len(self.elements)):
                depths.append(1 + max((depths[j] for j in self.below[k]), default=-1))
            self._depth = depths
        return self._depth[i]

    def dimension(self, subset):
        """Longest chain length (edge count) within the indices ``subset``;
        -1 when it is empty."""
        idx = sorted(subset)
        if not idx:
            return -1
        sub = set(idx)
        best = {}
        for i in idx:  # idx is increasing, so predecessors are done first
            best[i] = 1 + max((best[j] for j in self.below[i] if j in sub), default=-1)
        return max(best.values())

    def __repr__(self):
        return f"Poset({len(self.elements)} elements)"


class BasedComplex:
    """A finite complex of based free modules over a PolyRing."""

    def __init__(self, ring, labels, multidegrees, diffs, deg_map=None):
        self.ring = ring
        self.labels = [list(l) for l in labels]
        self.multidegrees = [list(m) if m is not None else [None] * len(l)
                             for l, m in zip(self.labels, multidegrees)]
        self.diffs = list(diffs)
        self.deg_map = tuple(tuple(r) for r in deg_map) if deg_map is not None else None
        self.top = len(self.labels) - 1

    @property
    def ranks(self):
        return [len(l) for l in self.labels]

    def rank(self, n):
        return len(self.labels[n]) if 0 <= n <= self.top else 0

    def d(self, n):
        """Matrix of d_n: F_n -> F_{n-1}; zero outside 1..top."""
        if 1 <= n <= self.top:
            return self.diffs[n - 1]
        return RingMatrix.zeros(self.ring, self.rank(n - 1), self.rank(n))

    def ambient_dim(self):
        if self.deg_map is not None:
            return len(self.deg_map)
        for degs in self.multidegrees:
            for m in degs:
                if m is not None:
                    return len(m)
        return self.ring.nvars

    def degree_of_exps(self, exps):
        """Ambient degree vector of the monomial with the given exponents."""
        if self.deg_map is None:
            if not exps and self.ring.nvars == 0:
                # scalar ring: constants sit in ambient degree zero, whose
                # length comes from the multidegrees rather than the ring
                return (0,) * self.ambient_dim()
            return tuple(exps)
        return tuple(sum(row[i] * e for i, e in enumerate(exps)) for row in self.deg_map)

    def validate(self):
        """Return a list of problems (empty when the complex is well formed)."""
        issues = []
        if len(self.diffs) != self.top:
            issues.append(f"expected {self.top} differentials, found {len(self.diffs)}")
            return issues
        for n in range(1, self.top + 1):
            m = self.d(n)
            want = (self.rank(n - 1), self.rank(n))
            if m.shape != want:
                issues.append(f"d_{n} has shape {m.shape}, expected {want}")
                return issues
        for n in range(2, self.top + 1):
            if not (self.d(n - 1) @ self.d(n)).is_zero():
                issues.append(f"d_{n-1} d_{n} != 0")
        if self.deg_map is not None:
            if any(len(row) != self.ring.nvars for row in self.deg_map):
                issues.append("deg_map column count != number of ring variables")
                return issues
        graded = all(m is not None for degs in self.multidegrees for m in degs)
        if graded and self.top >= 0:
            dim = self.ambient_dim()
            for degs in self.multidegrees:
                for m in degs:
                    if len(m) != dim:
                        issues.append("inconsistent multidegree lengths")
                        return issues
            for n in range(1, self.top + 1):
                mat = self.d(n)
                for i in range(mat.nrows):
                    for j in range(mat.ncols):
                        e = mat.rows[i][j]
                        tgt = self.multidegrees[n - 1][i]
                        src = self.multidegrees[n][j]
                        for key in e.terms:
                            dv = self.degree_of_exps(self.ring.keys.unpack(key))
                            if tuple(a + b for a, b in zip(dv, tgt)) != tuple(src):
                                issues.append(
                                    f"d_{n}[{i}][{j}] not homogeneous: "
                                    f"{e.render()} maps {src} over {tgt}")
                                break
        return issues

    def map_coefficients(self, new_ring, fn):
        """Transport the complex along a coefficient map (e.g. F_p -> F_p(Y))."""
        diffs = []
        for m in self.diffs:
            rows = [[e.map_coefficients(fn, new_ring) for e in r] for r in m.rows]
            diffs.append(RingMatrix(new_ring, rows, ncols=m.ncols))
        return BasedComplex(new_ring, self.labels, self.multidegrees, diffs, self.deg_map)

    def is_scalar(self):
        return all(m.is_scalar() for m in self.diffs)

    def __repr__(self):
        return f"BasedComplex(ranks={self.ranks})"


def scalar_ring(field):
    """The ring with no variables over ``field`` (for stratum/strand work)."""
    return PolyRing(field, ())


def homology_ranks(c):
    """Homology dimensions of a complex with scalar entries."""
    field = c.ring.field
    ranks = []
    dranks = [0] * (c.top + 2)
    for n in range(1, c.top + 1):
        dranks[n] = s_rank(field, c.d(n).scalar_rows())
    for n in range(c.top + 1):
        ranks.append(c.rank(n) - dranks[n] - dranks[n + 1])
    return ranks


def minimality_report(c):
    """(is_minimal, offenders): entries with nonzero constant term."""
    offenders = []
    for n in range(1, c.top + 1):
        mat = c.d(n)
        for i in range(mat.nrows):
            for j in range(mat.ncols):
                if not c.ring.field.is_zero(mat.rows[i][j].constant_term()):
                    offenders.append((n, i, j))
    return (not offenders, offenders)


class StratifiedComplex:
    """A based complex whose basis is labelled by poset elements.

    ``members[a][n]`` lists the positions of stratum ``a``'s degree-``n``
    basis in the whole complex, for ``n`` up to that stratum's own top
    degree; only occupied strata have an entry.
    """

    def __init__(self, complex, poset, strata):
        self.complex = complex
        self.poset = poset
        self.strata = [list(s) for s in strata]
        if len(self.strata) != complex.top + 1 or any(
                len(s) != complex.rank(n) for n, s in enumerate(self.strata)):
            raise InputError("stratum assignment does not match the basis")
        members = {}
        for n, s in enumerate(self.strata):
            for j, a in enumerate(s):
                per = members.setdefault(a, [])
                per.extend([] for _ in range(n + 1 - len(per)))
                per[n].append(j)
        for a in members:
            if type(a) is not int or not 0 <= a < len(poset.elements):
                raise InputError(f"stratum index {a!r} is not an element of "
                                 f"a poset of size {len(poset.elements)}")
        self.members = members

    def validate(self):
        issues = self.complex.validate()
        c = self.complex
        field = c.ring.field
        for n in range(1, c.top + 1):
            mat = c.d(n)
            for i in range(mat.nrows):
                si = self.strata[n - 1][i]
                for j in range(mat.ncols):
                    sj = self.strata[n][j]
                    e = mat.rows[i][j]
                    if e.is_zero():
                        continue
                    if not self.poset.leq(si, sj):
                        issues.append(
                            f"d_{n}[{i}][{j}] nonzero but stratum "
                            f"{self.poset.elements[si]} is not below "
                            f"{self.poset.elements[sj]}")
                    elif si == sj and not e.is_constant():
                        issues.append(f"d_{n}[{i}][{j}] same-stratum entry not scalar")
        return issues

    def occupied(self):
        return sorted(self.members)

    def occupied_dimension(self):
        return self.poset.dimension(self.occupied())

    def stratum(self, ai):
        """The scalar subquotient complex sitting over the poset element of
        index ``ai``, sliced through ``members``."""
        c = self.complex
        sring = scalar_ring(c.ring.field)
        indices = self.members.get(ai, [])
        labels = [[c.labels[n][j] for j in idx] for n, idx in enumerate(indices)]
        mdegs = [[c.multidegrees[n][j] for j in idx]
                 for n, idx in enumerate(indices)]
        diffs = []
        for n in range(1, len(indices)):
            mat = c.d(n)
            rows = [[sring.const(mat.rows[i][j].constant_term())
                     for j in indices[n]] for i in indices[n - 1]]
            diffs.append(RingMatrix(sring, rows, ncols=len(indices[n])))
        return BasedComplex(sring, labels, mdegs, diffs)

    def __repr__(self):
        return f"StratifiedComplex(ranks={self.complex.ranks}, poset={len(self.poset)})"


def start_resolution(ring, poset, tiers, label, multidegree, faces,
                     deg_map) -> StratifiedComplex:
    """The stratified start whose degree ``n`` basis is the tier ``tiers[n]``.

    A tuple ``s`` is named ``label(s)``, has multidegree ``multidegree(s)``
    and sits in the stratum of the poset element equal to it.  ``faces(s)``
    lists the faces of ``s`` in ``tiers[n - 1]`` for ``t = 0..n``, each with
    the exponents of its monomial: face ``t`` enters ``d(s)`` with
    coefficient ``(-1)^t`` times that monomial, and faces that coincide add.
    """
    labels = [[label(s) for s in tier] for tier in tiers]
    multidegrees = [[multidegree(s) for s in tier] for tier in tiers]
    strata = [[poset.index[m] for m in tier] for tier in multidegrees]
    field = ring.field
    signs = (field.one, field.neg(field.one))
    diffs = []
    for lower, upper in zip(tiers, tiers[1:]):
        index_of = {f: i for i, f in enumerate(lower)}
        rows = [[ring.zero()] * len(upper) for _ in lower]
        for j, s in enumerate(upper):
            for t, (f, exps) in enumerate(faces(s)):
                row = rows[index_of[f]]
                row[j] = row[j] + ring.monomial(exps, signs[t % 2])
        diffs.append(RingMatrix(ring, rows, ncols=len(upper)))
    complex = BasedComplex(ring, labels, multidegrees, diffs, deg_map)
    return StratifiedComplex(complex, poset, strata)


def _enumerate_monomials(deg_map, target):
    """All exponent vectors u >= 0 with deg_map . u == target (deg_map columns
    must be nonnegative and nonzero: a pointed grading)."""
    ncols = len(deg_map[0]) if deg_map else 0
    cols = [tuple(row[i] for row in deg_map) for i in range(ncols)]
    for col in cols:
        if all(x == 0 for x in col):
            raise InputError("grading has a variable of degree zero; strand "
                             "enumeration needs a pointed grading")
        if any(x < 0 for x in col):
            raise InputError("grading entries must be nonnegative")
    out = []

    def rec(i, rem, acc):
        if i == ncols:
            if all(x == 0 for x in rem):
                out.append(tuple(acc))
            return
        col = cols[i]
        bound = None
        for x, r in zip(col, rem):
            if x > 0:
                b = r // x
                bound = b if bound is None else min(bound, b)
        bound = 0 if bound is None else bound
        for e in range(bound + 1):
            nrem = tuple(r - e * x for x, r in zip(col, rem))
            if any(x < 0 for x in nrem):
                continue
            acc.append(e)
            rec(i + 1, nrem, acc)
            acc.pop()

    rec(0, tuple(target), [])
    return out


def strand(c, target):
    """The finite-dimensional strand of the complex in internal degree
    ``target``: basis elements are (label, monomial) pairs whose total
    degree is ``target``; returns a scalar BasedComplex."""
    target = tuple(target)
    sring = scalar_ring(c.ring.field)
    identity_grading = c.deg_map is None
    members = []  # members[n] = list of (j, exps)
    for n in range(c.top + 1):
        lst = []
        for j, q in enumerate(c.multidegrees[n]):
            if q is None:
                raise InputError("strand needs a multigraded complex")
            rem = tuple(t - x for t, x in zip(target, q))
            if any(x < 0 for x in rem):
                continue
            if identity_grading:
                lst.append((j, rem))
            else:
                for u in _enumerate_monomials(c.deg_map, rem):
                    lst.append((j, u))
        members.append(lst)
    labels = []
    for n, lst in enumerate(members):
        lab = []
        for j, u in lst:
            mono = monomial_text(c.ring.names, u)
            lab.append(c.labels[n][j] + (f" * {mono}" if mono else ""))
        labels.append(lab)
    diffs = []
    for n in range(1, c.top + 1):
        mat = c.d(n)
        rows = []
        for (i, ub) in members[n - 1]:
            row = []
            for (j, ua) in members[n]:
                diffexp = tuple(x - y for x, y in zip(ub, ua))
                row.append(sring.zero() if any(x < 0 for x in diffexp) else
                           sring.const(mat.rows[i][j].coefficient(diffexp)))
            rows.append(row)
        diffs.append(RingMatrix(sring, rows, ncols=len(members[n])))
    return BasedComplex(sring, labels, [[None] * len(l) for l in labels], diffs)


def verify_strands(c, checks) -> dict:
    """Validation, minimality and strand-exactness of ``c``.

    ``checks`` yields ``(degree, label, expected H_0)`` triples.  At each
    degree the strand's ``H_0`` must have the expected dimension and every
    higher homology must vanish; a failure names the strand by its label.
    """
    issues = c.validate()
    minimal, offenders = minimality_report(c)
    failures = []
    checked = 0
    for b, label, expected0 in checks:
        h = homology_ranks(strand(c, b))
        got0 = h[0] if h else 0
        checked += 1
        if got0 != expected0:
            failures.append(
                f"strand at {label}: H_0 has dimension {got0}, "
                f"expected {expected0}")
        for n in range(1, len(h)):
            if h[n] != 0:
                failures.append(
                    f"strand at {label}: H_{n} has dimension {h[n]}, "
                    "expected 0")
    return {
        "validate_issues": issues,
        "minimal": minimal,
        "nonminimal_entries": offenders,
        "exactness_ok": not failures,
        "failures": failures,
        "checked_degrees": checked,
        "ok": not issues and minimal and not failures,
    }
