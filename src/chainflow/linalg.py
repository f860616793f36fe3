"""Multivariate polynomials over an exact field, matrices, and exact
linear algebra (rref/rank/solve/kernel, and pseudoinverses of rational
matrices).

A PolyRing is field + named variables; MultiPoly stores terms in a dict
keyed by packed exponents (see :mod:`chainflow.keys`).  RingMatrix is a dense
matrix of MultiPoly entries; it carries its shape, so products with a zero
dimension are plain zero matrices, and it is the one matrix type of the
homotopy algebra in ``flows``.

Entries are values.  A MultiPoly and its term dict are shared between
matrices and never mutated; every operation builds a new one or returns an
operand.  Each PolyRing holds one zero, which ``zero()``, ``const`` and
``monomial`` with a zero coefficient, ``RingMatrix.zeros``, negation and
every zero entry of a product or sum return.  A sum with a zero operand is
the other operand itself (``0 - p`` is ``-p``), so summing sparse matrices
copies no entry that the other summand leaves alone.  The field values
inside the terms (F_p(Y) fractions in ``scalars``) are outside this rule.

Scalar row lists (plain lists of lists of field values) exist only for
elimination: ``rref``, ``pivot_columns``, ``s_rank``, ``solve``, ``kernel``
and ``s_inverse`` take a RingMatrix's ``scalar_rows()``, and the
pseudoinverse works on them throughout.  Over Q, elimination and the
pseudoinverse run on integer rows and build each Fraction once, at the
end.

``solve``, ``kernel`` and ``s_inverse`` read the entries of the reduced row
echelon form, so they call ``rref``, which runs Gauss-Jordan elimination.
``pivot_columns`` and ``s_rank`` return only indices, which every row echelon
form of a matrix shares, so over F_p and F_p(Y) they stop after forward
elimination: no pivot row is scaled and no row above a pivot is cleared.
Over F_p(Y) that skips products of large polynomials and exact divisions
that fail.  Reduced F_p(Y) entries stay on Gauss-Jordan: a value is
normalized only partly, so other row operations could reach equal entries
written as different fractions, and the artifacts record that text.

Every exact product (``MultiPoly.__mul__``, ``RingMatrix.__matmul__`` and
``s_mul``) hands the factor pairs of each output coefficient to one
``field.dot`` call, so each coefficient is reduced once, not after every
product.  Over a ring with no variables (the stratum complexes) the pairs
of constants go to ``field.dot`` directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import InputError, InternalError
from .keys import ring_keys
from .scalars import QQ

_ZERO = Fraction(0)


class PolyRing:
    """k[x_1..x_n] for an exact coefficient field k."""

    def __init__(self, field, names):
        self.field = field
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise InputError("duplicate ring variable names")
        self.nvars = len(self.names)
        self.index = {nm: i for i, nm in enumerate(self.names)}
        self.keys = ring_keys(self.names)
        self._zero = MultiPoly(self, {})

    def zero(self):
        return self._zero

    def one(self):
        return MultiPoly(self, {0: self.field.one})

    def const(self, c):
        return self._zero if self.field.is_zero(c) else MultiPoly(self, {0: c})

    def var(self, name_or_index, exp=1):
        i = self.index[name_or_index] if isinstance(name_or_index, str) else name_or_index
        return MultiPoly(self, {self.keys.var(i, exp): self.field.one})

    def monomial(self, exps, coeff=None):
        c = coeff if coeff is not None else self.field.one
        if self.field.is_zero(c):
            return self._zero
        return MultiPoly(self, {self.keys.pack(exps): c})

    def poly(self, terms):
        """The polynomial with the term dict ``terms``, which it keeps: the
        ring's one zero when ``terms`` is empty."""
        return MultiPoly(self, terms) if terms else self._zero

    def __repr__(self):
        return f"PolyRing({self.field!r}, {list(self.names)})"


class MultiPoly:
    """A polynomial: dict of packed-exponent key -> nonzero field value."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def constant_term(self):
        return self.terms.get(0, self.ring.field.zero)

    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def _combine(self, other, subtract):
        """``self + other``, or ``self - other`` when ``subtract``.  A zero
        operand gives the other one itself, or its negation for ``0 - p``."""
        if not other.terms:
            return self
        if not self.terms:
            return -other if subtract else other
        f = self.ring.field
        op = f.sub if subtract else f.add
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = op(out.get(k, f.zero), c)
            if f.is_zero(v):
                out.pop(k, None)
            else:
                out[k] = v
        return self.ring.poly(out)

    def __neg__(self):
        f = self.ring.field
        return self.ring.poly({k: f.neg(c) for k, c in self.terms.items()})

    def __mul__(self, other):
        return self.ring.poly(_poly_dot(
            self.ring.field, [(self.terms, other.terms)]))

    def scale(self, c):
        f = self.ring.field
        out = {}
        for k, v in self.terms.items():
            w = f.mul(c, v)
            if not f.is_zero(w):
                out[k] = w
        return self.ring.poly(out)

    def eq(self, other):
        f = self.ring.field
        if self.terms.keys() != other.terms.keys():
            return False
        return all(f.eq(c, other.terms[k]) for k, c in self.terms.items())

    def coefficient(self, exps):
        return self.terms.get(self.ring.keys.pack(exps), self.ring.field.zero)

    def augment(self):
        """Evaluate at all ring variables = 1 (sum of coefficients)."""
        f = self.ring.field
        total = f.zero
        for c in self.terms.values():
            total = f.add(total, c)
        return total

    def permute_vars(self, perm):
        """Apply x_i -> x_{perm[i]}; perm is a list with perm[i] = image index."""
        keys = self.ring.keys
        return self.ring.poly({
            sum(keys.var(perm[i], e) for i, e in keys.factors(k)): c
            for k, c in self.terms.items()})

    def map_coefficients(self, fn, new_ring):
        out = {}
        f = new_ring.field
        for k, c in self.terms.items():
            v = fn(c)
            if not f.is_zero(v):
                out[k] = v
        return new_ring.poly(out)

    def render(self):
        if not self.terms:
            return "0"
        f = self.ring.field
        text = self.ring.keys.text
        parts = []
        for k in sorted(self.terms, reverse=True):
            cs = f.render(self.terms[k])
            mono = text(k)
            if not mono:
                parts.append(cs if _renders_atomic(cs) else f"({cs})")
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            elif _renders_atomic(cs):
                parts.append(f"{cs}*{mono}")
            else:
                parts.append(f"({cs})*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"<{self.render()}>"


def _poly_dot(field, pairs):
    """Terms of the sum of a*b over pairs (a, b) of term dicts.

    The coefficient pairs of all term products are grouped by their
    exponent key, and each key's group is summed by one ``field.dot``.
    """
    groups = {}
    get = groups.get
    for a, b in pairs:
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                g = get(k)
                if g is None:
                    groups[k] = [(ca, cb)]
                else:
                    g.append((ca, cb))
    dot, is_zero = field.dot, field.is_zero
    out = {}
    for k, g in groups.items():
        v = dot(g)
        if not is_zero(v):
            out[k] = v
    return out


def _product_rows(a, b, nc, nonzero, entry):
    """Rows of the product of the row lists ``a`` and ``b``; the product has
    ``nc`` columns.

    Entry (i, j) is ``entry(pairs)``, where ``pairs`` lists the factor pairs
    ``(a[i][k], b[k][j])`` with both factors ``nonzero``, in increasing k.
    """
    b_nz = [[(j, y) for j, y in enumerate(brow) if nonzero(y)] for brow in b]
    out = []
    for arow in a:
        cells = [[] for _ in range(nc)]
        for x, brow in zip(arow, b_nz):
            if brow and nonzero(x):
                for j, y in brow:
                    cells[j].append((x, y))
        out.append([entry(pairs) for pairs in cells])
    return out


def _renders_atomic(s):
    return not any(ch in s for ch in "+- ") or (s.startswith("-") and not any(ch in s[1:] for ch in "+- "))


class RingMatrix:
    """Dense matrix of MultiPoly entries over a common PolyRing."""

    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring, rows, ncols=None):
        self.ring = ring
        self.rows = rows
        self.nrows = len(rows)
        if rows:
            self.ncols = len(rows[0])
            if ncols is not None and ncols != self.ncols:
                raise InputError("ncols disagrees with row length")
        else:
            self.ncols = 0 if ncols is None else ncols
        for r in rows:
            if len(r) != self.ncols:
                raise InputError("ragged matrix rows")

    @classmethod
    def zeros(cls, ring, nrows, ncols):
        return cls(ring, [[ring.zero()] * ncols for _ in range(nrows)],
                   ncols=ncols)

    @classmethod
    def identity(cls, ring, n):
        m = cls.zeros(ring, n, n)
        for i in range(n):
            m.rows[i][i] = ring.one()
        return m

    @classmethod
    def from_scalar_rows(cls, ring, srows, ncols=None):
        return cls(ring, [[ring.const(c) for c in row] for row in srows],
                   ncols=ncols)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise InternalError(f"matmul shape mismatch {self.shape} @ {other.shape}")
        ring = self.ring
        if not (self.nrows and self.ncols and other.ncols):
            return RingMatrix.zeros(ring, self.nrows, other.ncols)
        field = ring.field
        if ring.nvars:
            def entry(pairs):
                return ring.poly(_poly_dot(field, pairs))
        else:
            # Constant entries: every term has key 0, so the coefficient
            # pairs go straight to one field.dot, with no grouping by key.
            dot = field.dot

            def entry(pairs):
                return ring.const(dot([(a[0], b[0]) for a, b in pairs]))
        rows = _product_rows(
            [[e.terms for e in row] for row in self.rows],
            [[e.terms for e in row] for row in other.rows],
            other.ncols, bool, entry)
        return RingMatrix(ring, rows, ncols=other.ncols)

    def __add__(self, other):
        return self._entrywise(other, MultiPoly.__add__)

    def __sub__(self, other):
        return self._entrywise(other, MultiPoly.__sub__)

    def _entrywise(self, other, op):
        if self.shape != other.shape:
            raise InternalError(f"matrix shape mismatch {self.shape} vs {other.shape}")
        return RingMatrix(self.ring, [list(map(op, r1, r2))
                                      for r1, r2 in zip(self.rows, other.rows)],
                          ncols=self.ncols)

    def scale(self, c):
        return RingMatrix(self.ring, [[a.scale(c) for a in r] for r in self.rows],
                          ncols=self.ncols)

    def is_zero(self):
        return all(a.is_zero() for r in self.rows for a in r)

    def eq(self, other):
        if self.shape != other.shape:
            return False
        return all(a.eq(b) for r1, r2 in zip(self.rows, other.rows) for a, b in zip(r1, r2))

    def is_scalar(self):
        return all(a.is_constant() for r in self.rows for a in r)

    def scalar_rows(self):
        if not self.is_scalar():
            raise InternalError("matrix has non-constant entries")
        return [[a.constant_term() for a in r] for r in self.rows]

    def __repr__(self):
        return f"RingMatrix({self.nrows}x{self.ncols})"


# ---------------------------------------------------------------------------
# scalar matrices: plain lists of lists of field values


def s_zeros(field, nrows, ncols):
    return [[field.zero for _ in range(ncols)] for _ in range(nrows)]


def s_identity(field, n):
    m = s_zeros(field, n, n)
    for i in range(n):
        m[i][i] = field.one
    return m


def s_transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def s_mul(field, a, b):
    """Matrix product of scalar matrices."""
    ni = len(b)
    nc = len(b[0]) if b else 0
    if a and len(a[0]) != ni:
        raise InternalError("scalar matmul shape mismatch")
    is_zero = field.is_zero
    return _product_rows(a, b, nc, lambda x: not is_zero(x), field.dot)


def rref(field, mat):
    """Row-reduce a copy of mat; returns (reduced, pivot_columns).

    Over Q the elimination runs on integer rows (:func:`_int_echelon`) and
    each pivot row is divided by its pivot once, at the end.  The result is
    ``==`` to what :func:`_gauss_jordan` returns: scaling a row by a nonzero
    rational and the fraction-free row updates are invertible row
    operations, so both paths reach a reduced row echelon form of the same
    row space, and that form is unique (two reduced echelon matrices with
    the same row space are equal).  The pivot columns are those not in the
    span of the columns before them, which row operations do not change.
    Other fields take the generic loop.
    """
    if field.char != 0:
        return _gauss_jordan(field, mat)
    nc = len(mat[0]) if mat else 0
    rows, pivots = _int_echelon(mat, nc)
    reduced = [[Fraction(x, row[c]) if x else _ZERO for x in row]
               for row, c in zip(rows, pivots)]
    reduced.extend([_ZERO] * nc for _ in range(len(rows) - len(pivots)))
    return reduced, pivots


def _gauss_jordan(field, mat):
    """:func:`rref` by Gauss-Jordan elimination through the field's
    operations, over any field."""
    a = [list(r) for r in mat]
    nr = len(a)
    nc = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = None
        for i in range(r, nr):
            if not field.is_zero(a[i][c]):
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.mul(inv, x) for x in a[r]]
        for i in range(nr):
            if i != r and not field.is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return a, pivots


def _int_echelon(mat, nc):
    """Fraction-free Gauss-Jordan elimination of the rational rows ``mat``
    in their first ``nc`` columns; returns ``(rows, pivots)``.

    Each row is scaled by the lcm of its denominators, and every row update
    ``u*row - v*pivot_row`` is divided by the gcd of its entries, so all
    arithmetic is on integers of moderate size.  Row ``r`` of the result,
    for ``r < len(pivots)``, is a nonzero multiple of row ``r`` of the
    reduced row echelon form: its entry in column ``pivots[r]`` is nonzero
    and its entries in the other pivot columns are zero.  The other rows
    vanish in the first ``nc`` columns.  ``mat`` is not modified.
    """
    a = []
    for row in mat:
        den = lcm(*[x.denominator for x in row])
        a.append([x.numerator * (den // x.denominator) for x in row])
    nr = len(a)
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        prow = a[r]
        p = prow[c]
        for i in range(nr):
            f = a[i][c]
            if f and i != r:
                g = gcd(p, f)
                u, v = p // g, f // g
                row = [u * x - v * y for x, y in zip(a[i], prow)]
                g = gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return a, pivots


def pivot_columns(field, mat):
    """The pivot columns of ``rref(field, mat)``, without the reduced form.

    Over Q they are the pivots of :func:`_int_echelon`.  Over other fields
    forward elimination finds them: each pivot row, taken as the first row
    with a nonzero entry in its column, is subtracted ``f * inv(p)`` times
    from each row below it.  No pivot row is scaled or subtracted from the
    rows above it.

    The results agree.  Column ``c`` of a matrix is a pivot column of its
    reduced row echelon form exactly when it is not in the span of the
    columns before it.  Row operations multiply the matrix on the left by
    an invertible matrix, which keeps every linear relation among the
    columns, so that set of columns is the same for ``mat``, for the row
    echelon form that forward elimination reaches, and for ``rref(mat)``.
    In a row echelon form, the columns outside that span are those holding
    a leading entry, which are the ones this loop records.  Only results
    that are indices may take this route: F_p(Y) values are normalized
    only partly, so reduced entries stay with :func:`rref`.
    """
    nc = len(mat[0]) if mat else 0
    if field.char == 0:
        return _int_echelon(mat, nc)[1]
    is_zero, mul, sub = field.is_zero, field.mul, field.sub
    a = [list(r) for r in mat]
    nr = len(a)
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if not is_zero(a[i][c])), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        prow = a[r]
        inv = field.inv(prow[c])
        for i in range(r + 1, nr):
            f = a[i][c]
            if not is_zero(f):
                # column c of row i is now zero, and no later step reads it
                m = mul(f, inv)
                a[i][c + 1:] = [x if is_zero(y) else sub(x, mul(m, y))
                                for x, y in zip(a[i][c + 1:], prow[c + 1:])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return pivots


def s_rank(field, mat):
    return len(pivot_columns(field, mat))


def solve(field, a, b):
    """One solution x of A x = b (b a vector), or None if inconsistent."""
    nr = len(a)
    nc = len(a[0]) if a else 0
    aug = [list(r) + [b[i]] for i, r in enumerate(a)]
    red, pivots = rref(field, aug)
    if nc in pivots:
        return None
    x = [field.zero] * nc
    for r, c in enumerate(pivots):
        x[c] = red[r][nc]
    return x

def kernel(field, a, nc):
    """Basis of the right kernel of the matrix A with ``nc`` columns, in
    reduced echelon form (canonical).  A matrix with no rows, or a zero one,
    has the unit vectors e_0..e_{nc-1} as its basis."""
    red, pivots = rref(field, a)
    basis = []
    pivset = set(pivots)
    for c in range(nc):
        if c in pivset:
            continue
        v = [field.zero] * nc
        v[c] = field.one
        for r, pc in enumerate(pivots):
            coeff = red[r][c]
            if not field.is_zero(coeff):
                v[pc] = field.neg(coeff)
        basis.append(v)
    return basis


def s_inverse(field, a):
    n = len(a)
    aug = [list(r) + list(ir) for r, ir in zip(a, s_identity(field, n))]
    red, pivots = rref(field, aug)
    if pivots != list(range(n)):
        raise InternalError("matrix not invertible")
    return [r[n:] for r in red]


def _int_mul(a, b):
    """Product of integer row lists; ``b`` has at least one row."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def mp_inverse(a):
    """Moore-Penrose pseudoinverse of a rational matrix, exactly, by
    MacDuffee's formula on integer rows.

    Write A = A'/s with s the lcm of the denominators, so A' is an integer
    m x n matrix of rank r.  Let P be the pivot columns of A' and Q those of
    A'^T; B = A'[:, P] has full column rank and C = A'[Q, :] full row rank.
    Every column of A' is a combination of B's, A' = B F, and the rows Q
    give C = M F with M = A'[Q, P]; C has rank r, so the r x r matrix M is
    invertible and A' = B M^-1 C.  Then K = B^T A' C^T = (B^T B) M^-1 (C C^T)
    is invertible, and X = C^T K^-1 B^T satisfies

        A' X = B (B^T B)^-1 B^T,    X A' = C^T (C C^T)^-1 C.

    Both are symmetric, A' X A' = B M^-1 C = A' and X A' X = X, so X is the
    pseudoinverse of A' (MacDuffee's formula; Ben-Israel and Greville,
    *Generalized Inverses*, Ch. 1), and A^+ = s X.

    K^-1 B^T comes from one fraction-free elimination of [K | B^T].  Its
    rows are brought over one common denominator L, so X = C^T Y / L with Y
    an integer matrix, and each entry of A^+ is built as one Fraction.
    """
    if not a or not a[0]:
        return s_transpose(a)
    m, n = len(a), len(a[0])
    s = lcm(*[x.denominator for row in a for x in row])
    ai = [[x.numerator * (s // x.denominator) for x in row] for row in a]
    _, cols = _int_echelon(ai, n)
    if not cols:
        return s_zeros(QQ, n, m)
    _, rows = _int_echelon(s_transpose(ai), m)
    r = len(cols)
    bt = [[row[j] for row in ai] for j in cols]
    ct = s_transpose([ai[i] for i in rows])
    k = _int_mul(_int_mul(bt, ai), ct)
    red, _ = _int_echelon([kr + br for kr, br in zip(k, bt)], r)
    den = lcm(*[row[i] for i, row in enumerate(red)])
    y = [[x * (den // row[i]) for x in row[r:]] for i, row in enumerate(red)]
    return [[Fraction(s * x, den) if x else _ZERO for x in row]
            for row in _int_mul(ct, y)]
