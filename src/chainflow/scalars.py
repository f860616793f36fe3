"""Exact coefficient fields: Q, F_p, and rational function fields F_p(Y).

Every field object implements one small protocol used by the rest of the
package:

    char          -- the characteristic (0 or a prime p)
    zero, one     -- canonical elements
    add, sub, mul, neg, inv
    is_zero(a), eq(a, b)
    from_int(n)   -- embed an integer
    render(a)     -- canonical string form
    parse(text)   -- the value that ``render`` wrote as ``text``
    dot(pairs)    -- the sum of a*b over an iterable of (a, b) pairs,
                     reduced once rather than after every product

Values are plain Python objects (Fraction for Q, int for F_p, and a
(numerator, denominator) pair of packed-exponent dicts for F_p(Y)); all
operations return fresh values and never mutate their arguments.

``render`` writes, and ``parse`` reads back, this coefficient grammar:

* Q: ``str`` of a Fraction, ``N`` or ``N/D`` with an optional leading
  ``-``;
* F_p: a decimal integer, reduced mod p (``render`` writes the residue);
* F_p(Y): ``P`` or ``(P)/(Q)``, where ``P`` and ``Q`` are ``0`` or terms
  joined by `` + ``, a term is decimals and names joined by ``*``, and a
  name may carry ``^e`` with ``e`` at most 255.  Names are matched longest
  first, because names like ``y[v0^2*v1][1]`` contain ``^``, ``*`` and
  brackets.

``parse`` raises ``InputError`` on any other text, so a reader never
alters a value it cannot read.  :func:`field_descriptor` and
:func:`field_from_descriptor` write and read the fields themselves.

Polynomials over F_p(Y) are dicts mapping a packed exponent key (laid out
by :mod:`chainflow.keys`) to an int coefficient in [1, p).  The denominator
slot ``None`` means 1, which is the fast path everywhere (the splitting/flow
machinery is division-free by construction).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import starmap
from math import lcm
from operator import mul

from .errors import InputError, InternalError
from .keys import field_keys


# Miller-Rabin with the first 13 prime bases, 2..41, is exact below
# _MR_LIMIT (the least strong pseudoprime to all of them; Sorenson and
# Webster, Math. Comp. 86 (2017)).  The first 12 bases, 2..37, are not
# enough there: 318665857834031151167461 passes all 12 and is composite.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981

_INTEGER = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _is_prime(p):
    """Whether ``p`` is prime, by deterministic Miller-Rabin.

    Numbers with a factor among the bases are decided by it; any other
    number from ``_MR_LIMIT`` up cannot be certified and raises
    ``InputError``.
    """
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    if p >= _MR_LIMIT:
        raise InputError(f"cannot certify that {p} is prime: deterministic "
                         f"primality testing stops below {_MR_LIMIT}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field Q, with Fraction values."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return 1 / Fraction(a)

    @staticmethod
    def is_zero(a):
        return a == 0

    @staticmethod
    def eq(a, b):
        return a == b

    @staticmethod
    def from_int(n):
        return Fraction(n)

    @staticmethod
    def render(a):
        return str(a)

    @staticmethod
    def parse(text):
        if _RATIONAL.fullmatch(text):
            try:
                return Fraction(text)
            except (ValueError, ZeroDivisionError) as e:
                raise InputError(f"bad rational literal {text!r}: {e}")
        raise InputError(f"bad rational literal {text!r}")

    @staticmethod
    def dot(pairs):
        """Sum of a*b over the pairs, with one Fraction built at the end.

        Integer numerators are summed per product denominator; the few
        distinct denominators are then brought over their lcm once.
        """
        sums = {}
        get = sums.get
        for a, b in pairs:
            d = a.denominator * b.denominator
            sums[d] = get(d, 0) + a.numerator * b.numerator
        if not sums:
            return Fraction(0)
        if len(sums) == 1:
            (d, n), = sums.items()
            return Fraction(n, d)
        den = lcm(*sums)
        return Fraction(sum(n * (den // d) for d, n in sums.items()), den)

    def __repr__(self):
        return "QQ"


QQ = Rationals()

_prime_fields = {}


class PrimeField:
    """The field F_p, with int values in [0, p)."""

    def __init__(self, p):
        if not _is_prime(p):
            raise InputError(f"characteristic must be 0 or a prime, got {p}")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def eq(self, a, b):
        return (a - b) % self.p == 0

    def from_int(self, n):
        return n % self.p

    def render(self, a):
        return str(a % self.p)

    def parse(self, text):
        if _INTEGER.fullmatch(text):
            try:
                return int(text) % self.p
            except ValueError as e:
                raise InputError(f"bad prime-field literal {text!r}: {e}")
        raise InputError(f"bad prime-field literal {text!r}")

    def dot(self, pairs):
        return sum(starmap(mul, pairs)) % self.p

    def __repr__(self):
        return f"GF({self.p})"


def GF(p):
    """Cached F_p constructor, so GF(p) is GF(p) holds."""
    f = _prime_fields.get(p)
    if f is None:
        f = _prime_fields[p] = PrimeField(p)
    return f


def prime_field(characteristic):
    """The prime field of ``characteristic``: Q for 0, else F_p.

    The one place where a characteristic picks a field; the work field of a
    resolve is this field or a transcendental extension of it.
    """
    return QQ if characteristic == 0 else GF(characteristic)


class FunctionField:
    """F_p(y_1, ..., y_k): fractions of packed-exponent polynomial dicts.

    ``names`` lists the free transcendentals.  Values are pairs
    (num, den) where num is a dict {packed_key: coeff} and den is either a
    like dict or None meaning 1.  Normalisation is best-effort (constant and
    monomial denominators are cleared, single-variable gcds are cancelled,
    denominators are made monic).  Values with equal numerator and
    denominator dicts are equal; otherwise equality cross-multiplies, so
    the partial normalisation never affects correctness.

    ``keys`` lays out the monomials, with each exponent in [0, 255].  A
    product whose exponent would leave that range raises ``InternalError``
    (``pd_mul``, ``pd_mul_acc``, and so the cross-multiplication of ``eq``)
    instead of carrying into the next variable.
    """

    def __init__(self, p, names, label=""):
        if not _is_prime(p):
            raise InputError(f"function field needs prime characteristic, got {p}")
        self.p = p
        self.char = p
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise InputError("duplicate transcendental names")
        self.nvars = len(self.names)
        self.index = {nm: i for i, nm in enumerate(self.names)}
        self.label = label
        self.zero = ({}, None)
        self.one = ({0: 1}, None)
        # Metadata: substitutions for variables that were eliminated when the
        # field was built (e.g. the first weight of an affine family, replaced
        # by 1 minus the sum of the others).  Maps name -> polynomial dict in
        # the free variables.
        self.eliminations = {}
        self.keys = field_keys(self.names)

    # -- raw polynomial layer ------------------------------------------------

    def pd_const(self, c):
        c %= self.p
        return {0: c} if c else {}

    def pd_var(self, i, exp=1):
        return {self.keys.var(i, exp): 1 % self.p}

    def pd_affine_rest(self, indices):
        """``1 - sum of y_i`` over distinct variable ``indices``: the first
        weight of an affine family, eliminated in terms of the others."""
        out = self.pd_const(1)
        minus_one = self.p - 1
        for i in indices:
            out[self.keys.var(i)] = minus_one
        return out

    def pd_add(self, a, b):
        if not a:
            return dict(b)
        if not b:
            return dict(a)
        out = dict(a)
        p = self.p
        for k, c in b.items():
            v = (out.get(k, 0) + c) % p
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        return out

    def pd_neg(self, a):
        p = self.p
        return {k: p - c for k, c in a.items()}

    def pd_scale(self, a, c):
        c %= self.p
        if not c:
            return {}
        p = self.p
        return {k: (v * c) % p for k, v in a.items()}

    def pd_mul(self, a, b):
        acc = {}
        self.pd_mul_acc(acc, a, b)
        return self.pd_reduce(acc)

    def pd_mul_acc(self, acc, a, b):
        """acc += a*b with deferred coefficient reduction (acc holds raw ints).

        Large products are reduced in flight so the accumulator never holds
        substantially more than the surviving terms.
        """
        if not a or not b:
            return
        if overflow := self.keys.carry(a, b):
            raise InternalError(f"exponent overflow: {overflow}")
        if len(a) > len(b):
            a, b = b, a
        get = acc.get
        p = self.p
        budget = 4_000_000
        for ka, ca in a.items():
            if ka:
                for kb, cb in b.items():
                    k = ka + kb
                    acc[k] = get(k, 0) + ca * cb
            else:
                # ``0 + kb`` would copy every key of b; with thousands of
                # variables the keys are long, so reuse them.
                for kb, cb in b.items():
                    acc[kb] = get(kb, 0) + ca * cb
            if len(acc) > budget:
                for k in [k for k, v in acc.items() if not v % p]:
                    del acc[k]
                for k in acc:
                    acc[k] %= p
                get = acc.get

    def pd_reduce(self, acc):
        p = self.p
        return {k: r for k, v in acc.items() if (r := v % p)}

    def pd_render(self, a):
        if not a:
            return "0"
        parts = []
        for k in sorted(a, reverse=True):
            c, mono = a[k], self.keys.text(k)
            parts.append(f"{c}*{mono}" if c != 1 and mono else mono or str(c))
        return " + ".join(parts)

    # -- fraction layer -------------------------------------------------------

    def _pd_divexact(self, num, den):
        """The quotient ``num/den`` when the division is exact, else None."""
        quot, rem = self._pd_divmod(num, den)
        return None if rem else quot

    def _pd_divmod(self, num, den):
        """``(q, r)`` with num = q*den + r, by leading-term elimination that
        stops when ``r`` is empty or its leading key cannot be divided.

        Leading terms are taken with respect to packed-key order, which is a
        monomial order, so ``r`` is empty exactly when ``den`` divides
        ``num``.  In one variable, ``r`` is the remainder of Euclidean
        division.

        A quotient key ``qk`` whose sum with a divisor key would carry also
        stops the division, as inexact.  In an exact division every quotient
        key is a term of q = num/den, and every term of q*den has
        deg_i <= deg_i(q) + deg_i(den) = deg_i(num) <= 255 in each
        variable, so no such sum carries.  (``qk`` plus the leading key is
        the remainder key it came from, so the test may include it.)
        """
        divides, carry = self.keys.divides, self.keys.carry
        lk = max(den)
        if not num or not divides(lk, max(num)):
            return {}, dict(num)
        p = self.p
        inv_lc = pow(den[lk], p - 2, p)
        # The leading term of the divisor always cancels the leading term of
        # the remainder, so only the rest of the divisor is subtracted.
        tail = [(kb, cb) for kb, cb in den.items() if kb != lk]
        rem = dict(num)
        get = rem.get
        # Max-heap of remainder keys (negated), with lazy deletion: a key is
        # pushed when it enters ``rem`` and skipped when popped after leaving
        # it.  Leading keys strictly decrease, so a popped key never returns.
        heap = [-k for k in rem]
        heapify(heap)
        quot = {}
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

    def _normalize(self, num, den):
        if not num:
            return ({}, None)
        if den is None:
            return (num, None)
        if not den:
            raise ZeroDivisionError("zero denominator in function field")
        if len(den) == 1:
            (k, c) = next(iter(den.items()))
            if k == 0:
                return (self.pd_scale(num, self.inv_int(c)), None)
            # monomial denominator: cancel if the numerator is divisible
            if all(self.keys.divides(k, kn) for kn in num):
                ci = self.inv_int(c)
                return ({kn - k: (cn * ci) % self.p for kn, cn in num.items()}, None)
        shared = self.keys.content([*num, *den])
        if shared:
            num = {k - shared: c for k, c in num.items()}
            den = {k - shared: c for k, c in den.items()}
            if len(den) == 1:
                return self._normalize(num, den)
        if len(self.keys.used([*num, *den])) == 1:
            # one variable: cancel the gcd, found by Euclid's algorithm
            g, r = num, den
            while r:
                g, r = r, self._pd_divmod(g, r)[1]
            if max(g):
                return self._normalize(self._pd_divexact(num, g),
                                       self._pd_divexact(den, g))
        q = self._pd_divexact(num, den)
        if q is not None:
            return (q, None)
        if len(num) > 1:
            q = self._pd_divexact(den, num)
            if q is not None:
                num, den = {0: 1}, q
                if len(den) == 1:
                    return self._normalize(num, den)
        # monic denominator for a more canonical form
        lead = den[max(den)]
        if lead != 1:
            ci = self.inv_int(lead)
            num = self.pd_scale(num, ci)
            den = self.pd_scale(den, ci)
        return (num, den)

    def inv_int(self, c):
        return pow(c % self.p, self.p - 2, self.p)

    def from_int(self, n):
        return (self.pd_const(n), None)

    def var(self, name_or_index):
        i = self.index[name_or_index] if isinstance(name_or_index, str) else name_or_index
        return (self.pd_var(i), None)

    def add(self, a, b):
        na, da = a
        nb, db = b
        if da is None and db is None:
            return (self.pd_add(na, nb), None)
        da1 = da if da is not None else {0: 1}
        db1 = db if db is not None else {0: 1}
        num = self.pd_add(self.pd_mul(na, db1), self.pd_mul(nb, da1))
        return self._normalize(num, self.pd_mul(da1, db1))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return (self.pd_neg(a[0]), a[1])

    def mul(self, a, b):
        na, da = a
        nb, db = b
        if da is None and db is None:
            return (self.pd_mul(na, nb), None)
        da1 = da if da is not None else {0: 1}
        db1 = db if db is not None else {0: 1}
        return self._normalize(self.pd_mul(na, nb), self.pd_mul(da1, db1))

    def dot(self, pairs):
        """Sum of a*b over the pairs.

        Denominator-free products accumulate in one raw dict that is reduced
        once.  From the first pair with a denominator on, the sum is folded
        through ``add`` and ``mul`` instead.
        """
        acc = {}
        mul_acc = self.pd_mul_acc
        pairs = iter(pairs)
        for a, b in pairs:
            if a[1] is None and b[1] is None:
                mul_acc(acc, a[0], b[0])
                continue
            total = self.mul(a, b)
            prefix = self.pd_reduce(acc)
            if prefix:
                total = self.add((prefix, None), total)
            for a, b in pairs:
                total = self.add(total, self.mul(a, b))
            return total
        return (self.pd_reduce(acc), None)

    def inv(self, a):
        na, da = a
        if not na:
            raise ZeroDivisionError("inverse of zero in function field")
        return self._normalize(da if da is not None else {0: 1}, na)

    def is_zero(self, a):
        return not a[0]

    def eq(self, a, b):
        if a == b:
            return True
        na, da = a
        nb, db = b
        if da is None and db is None:
            return False
        da1 = da if da is not None else {0: 1}
        db1 = db if db is not None else {0: 1}
        return self.pd_mul(na, db1) == self.pd_mul(nb, da1)

    def render(self, a):
        na, da = a
        if da is None:
            return self.pd_render(na)
        return f"({self.pd_render(na)})/({self.pd_render(da)})"

    def parse(self, text):
        """The value that ``render`` wrote as ``text``, numerator and
        denominator as written.

        Text outside the grammar of the module docstring, an exponent above
        the packed range and a zero denominator raise ``InputError``.
        """
        try:
            if not text.startswith("("):
                num, pos = self._read_pd(text, 0)
                if pos == len(text):
                    return (num, None)
            else:
                num, pos = self._read_pd(text, 1)
                if text.startswith(")/(", pos):
                    den, pos = self._read_pd(text, pos + 3)
                    if text[pos:] == ")":
                        if not den:
                            raise InputError(
                                f"bad coefficient {text!r}: zero denominator")
                        return (num, den)
        except ValueError as e:  # a numeral beyond int()'s digit limit
            raise InputError(f"bad coefficient {text!r}: {e}")
        raise InputError(f"bad coefficient {text!r} at {pos}: unexpected text")

    @cached_property
    def _factor(self):
        """One factor of a rendered term: a name, longest first, with an
        optional exponent, or else a decimal."""
        names = sorted(self.names, key=len, reverse=True)
        alternatives = "|".join(map(re.escape, names)) or "(?!)"
        return re.compile(rf"({alternatives})(?:\^([0-9]+))?|([0-9]+)")

    def _read_pd(self, text, pos):
        """The polynomial that ``pd_render`` wrote at ``text[pos:]``, and the
        position where it ends."""
        factor = self._factor.match
        var = self.keys.var
        acc = {}
        while True:
            key, c = 0, 1
            while True:
                m = factor(text, pos)
                if m is None:
                    raise InputError(f"bad coefficient {text!r} at {pos}: "
                                     f"expected a name or a number")
                name, exp, digits = m.groups()
                if digits is not None:
                    c = c * int(digits) % self.p
                else:
                    try:
                        key = var(self.index[name], int(exp) if exp else 1,
                                  key)
                    except InputError as e:
                        raise InputError(f"bad coefficient {text!r} at {pos}: {e}")
                pos = m.end()
                if not text.startswith("*", pos):
                    break
                pos += 1
            acc[key] = acc.get(key, 0) + c
            if not text.startswith(" + ", pos):
                return self.pd_reduce(acc), pos
            pos += 3

    def clear_vector_denominators(self, vec):
        """Scale a vector by a common multiple of its denominators.

        Scaling by a nonzero field element keeps a kernel vector a kernel
        vector, and polynomial entries keep later matrix arithmetic free of
        denominator growth.
        """
        dens = []
        for num, den in vec:
            if den is not None and den not in dens:
                dens.append(den)
        if not dens:
            return list(vec)
        # The multiple is the product of the distinct denominators; each
        # numerator is multiplied by its cofactor, the product of the other
        # distinct denominators, so no division is needed.
        n = len(dens)
        prefix = [{0: 1}]
        for d in dens:
            prefix.append(self.pd_mul(prefix[-1], d))
        cofactors = [None] * n
        suffix = {0: 1}
        for j in range(n - 1, -1, -1):
            cofactors[j] = self.pd_mul(prefix[j], suffix)
            suffix = self.pd_mul(dens[j], suffix)
        mult = prefix[n]
        out = []
        for num, den in vec:
            cof = mult if den is None else cofactors[dens.index(den)]
            out.append((self.pd_mul(num, cof), None))
        return out

    # -- variable substitution ------------------------------------------------

    def pd_substitute(self, a, subst):
        """Substitute polynomial dicts for variables (index -> dict)."""
        out = {}
        for k, c in a.items():
            term = self.pd_const(c)
            for i, e in self.keys.factors(k):
                rep = subst.get(i)
                base = rep if rep is not None else self.pd_var(i)
                for _ in range(e):
                    term = self.pd_mul(term, base)
            out = self.pd_add(out, term)
        return out

    def substitute(self, value, subst):
        """Apply a variable substitution (index -> polynomial dict)."""
        num, den = value
        nnum = self.pd_substitute(num, subst)
        if den is None:
            return (nnum, None)
        return self._normalize(nnum, self.pd_substitute(den, subst))

    def __repr__(self):
        tail = f", {self.label}" if self.label else ""
        return f"GF({self.p})({', '.join(self.names)}{tail})"


def field_descriptor(field):
    """JSON-serialisable description of a coefficient field."""
    if isinstance(field, Rationals):
        return "Q"
    if isinstance(field, PrimeField):
        return {"p": field.p}
    if isinstance(field, FunctionField):
        desc = {"p": field.p, "transcendentals": list(field.names)}
        if field.label:
            desc["note"] = field.label
        if field.eliminations:
            desc["eliminations"] = {
                nm: field.pd_render(pd) for nm, pd in sorted(field.eliminations.items())
            }
        return desc
    raise InputError(f"unknown field object {field!r}")


def field_from_descriptor(desc):
    """The field that :func:`field_descriptor` wrote as ``desc``.

    A value of the wrong type is rejected, never converted, and each
    elimination must parse to a polynomial.
    """
    if desc == "Q":
        return QQ
    d = desc if isinstance(desc, dict) else {}
    names, note = d.get("transcendentals", []), d.get("note", "")
    eliminations = d.get("eliminations", {})
    if (type(d.get("p")) is not int or type(names) is not list
            or type(eliminations) is not dict
            or not all(type(t) is str
                       for t in [note, *names, *eliminations.values()])):
        raise InputError(f"unrecognised field descriptor {desc!r}")
    if "transcendentals" not in d:
        return GF(d["p"])
    field = FunctionField(d["p"], names, note)
    for name, text in eliminations.items():
        num, den = field.parse(text)
        if den is not None:
            raise InputError(
                f"elimination of {name!r} has a denominator: {text!r}")
        field.eliminations[name] = num
    return field
