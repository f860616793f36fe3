"""Packed exponent keys: the one place that knows how a monomial's exponents
are laid out in an int.

A :class:`KeyLayout` with field width w stores the exponent of its i-th
variable in bits [w*i, w*i + w) of an int, so each exponent ranges over
[0, 2^w - 1].  Adding keys multiplies monomials as long as no field
carries.  Keys compare as ints in a monomial order in which the last
variable decides first; that order, and so every rendered text, does not
depend on w.  The top bit of each field is its guard bit (Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007): keys that OR together to no guard bit have
every exponent below 2^(w-1), so no sum of two of them carries.

Each owner has one fixed width.  :func:`field_keys` gives 8 bits per
transcendental of F_p(Y), and products there check for a carry; a 16-bit
width kept every artifact but made the critical-case workload slower.
:func:`ring_keys` gives 16 bits per ring variable, and ring products need no
guard.  Every map of a resolution is homogeneous of degree 0, so each term
of a product entry has the exponent of a difference of two multidegrees of
basis elements, and :meth:`KeyLayout.pack` bounded those when the complex
was built or read.

:meth:`KeyLayout.text` renders each distinct key once and keeps the text on
the layout.  An F_p(Y) artifact writes many terms over few monomials: the
1 MB critical-case artifact writes 9,087 terms with 3,783 distinct keys.
"""

from __future__ import annotations

from functools import partial, reduce
from operator import or_

from .errors import InputError


class KeyLayout:
    """Packed exponent keys over ``names``, ``bits`` bits per variable."""

    def __init__(self, names, bits):
        self.names = tuple(names)
        self.nvars = len(self.names)
        self.bits, self.mask = bits, (1 << bits) - 1
        self.guard = sum(1 << (bits * i + bits - 1) for i in range(self.nvars))
        self._texts = {}

    def _range_error(self, i, e):
        side = "below" if e < 0 else "above"
        return InputError(f"exponent {e} {side} the packed range "
                          f"[0, {self.mask}] for {self.names[i]}")

    def pack(self, exps):
        """The key of the exponent vector ``exps``, one entry per variable."""
        if len(exps) != self.nvars:
            raise InputError(f"expected {self.nvars} exponents, got {len(exps)}")
        bits, mask = self.bits, self.mask
        key = 0
        for i, e in enumerate(exps):
            if not 0 <= e <= mask:
                raise self._range_error(i, e)
            key |= e << (bits * i)
        return key

    def unpack(self, key):
        bits, mask = self.bits, self.mask
        return tuple(key >> (bits * i) & mask for i in range(self.nvars))

    def var(self, i, e=1, key=0):
        """The key of x_i^e times the monomial of ``key``; an exponent of
        x_i outside the range raises ``InputError``."""
        total = (key >> (self.bits * i) & self.mask) + e
        if not 0 <= total <= self.mask:
            raise self._range_error(i, total)
        return key + (e << (self.bits * i))

    def factors(self, key):
        """``(i, e)`` for each nonzero exponent e of x_i in ``key``, in
        increasing i.  Keys can span thousands of variables, so only the
        fields up to the highest set bit are read."""
        bits, mask = self.bits, self.mask
        i = 0
        while key:
            if key & mask:
                yield i, key & mask
            key >>= bits
            i += 1

    def text(self, key):
        """The monomial of ``key`` as ``x^2*y``; the empty string for 1.
        Each key is rendered once and its text kept.  The rendering walks
        the fields itself: a generator step per factor made rendering an
        artifact a third slower."""
        text = self._texts.get(key)
        if text is None:
            names, bits, mask = self.names, self.bits, self.mask
            out = []
            i, k = 0, key
            while k:
                e = k & mask
                if e:
                    out.append(names[i] if e == 1 else f"{names[i]}^{e}")
                k >>= bits
                i += 1
            text = self._texts[key] = "*".join(out)
        return text

    def used(self, keys):
        """The indices of the variables that occur in some of ``keys``."""
        return {i for i, _ in self.factors(reduce(or_, keys, 0))}

    def _borrows(self, x, y):
        """The guard bits of the fields whose subtraction borrows in x - y.
        Such a field of x is below that of y or, after a borrow from below,
        equal to it; the lowest such field is below it."""
        return ((~x & y) | (~(x ^ y) & (x - y))) & self.guard

    def divides(self, ka, kb):
        """Whether the monomial of ``ka`` divides that of ``kb``."""
        return not self._borrows(kb, ka)

    def content(self, keys):
        """The largest key dividing every one of ``keys``; 0 for none."""
        out = keys[0] if keys else 0
        for k in keys:
            if not out:
                break
            pick = (self._borrows(out, k) >> (self.bits - 1)) * self.mask
            out = out & pick | k & ~pick
        return out

    def carry(self, a, b):
        """Why adding a key of ``a`` to a key of ``b`` can carry, or None.
        The largest exponents of the two sides are compared in each field
        whose guard bit either side sets."""
        hot = (reduce(or_, a, 0) | reduce(or_, b, 0)) & self.guard
        while hot:
            shift = (hot & -hot).bit_length() - self.bits
            ea = max((k >> shift & self.mask for k in a), default=0)
            eb = max((k >> shift & self.mask for k in b), default=0)
            if ea + eb > self.mask:
                nm = self.names[shift // self.bits]
                return (f"{nm}^{ea} * {nm}^{eb} exceeds the packed range "
                        f"[0, {self.mask}]")
            hot &= hot - 1
        return None


def monomial_text(names, exps):
    """The monomial with exponent vector ``exps`` as ``x^2*y``; the empty
    string for 1."""
    return "*".join([nm if e == 1 else f"{nm}^{e}"
                     for nm, e in zip(names, exps) if e])


# The layouts of the two owners: transcendentals of F_p(Y), ring variables.
field_keys = partial(KeyLayout, bits=8)
ring_keys = partial(KeyLayout, bits=16)
