"""Small front ends to package internals that only tests need."""

from chainflow.errors import InputError
from chainflow.scalars import YBITS, YMASK
from chainflow.serialize import coeff_from_string
from chainflow.splittings import _splitting_mode, split_strata


def split_one_stratum(c, characteristic, mode, tag="a"):
    """The per-stratum step of ``resolve_stratified`` on one scalar complex.

    ``characteristic`` defaults and checks ``mode`` as a resolve does; the
    split runs over the field of ``c``.  Returns ``(D, work, m)``: the
    certified splitting homotopy, the complex over the work field (a
    transcendental extension when the characteristic divides the number
    ``m`` of matroidal splittings) and ``m``.
    """
    critical, _, splittings, _ = split_strata(
        {tag: c}, c.ring.field, _splitting_mode(characteristic, mode))
    D = splittings[tag]
    return D, D.complex, critical["counts"][tag]


def pack_exponents(exps):
    """The packed F_p(y) monomial key of an exponent vector."""
    key = 0
    for i, e in enumerate(exps):
        if e < 0 or e > YMASK:
            raise InputError(f"exponent {e} out of packed range")
        key |= e << (YBITS * i)
    return key


def unpack_exponents(key, nvars):
    return tuple((key >> (YBITS * i)) & YMASK for i in range(nvars))


def poly(F, text):
    """The polynomial dict that ``text`` denotes in the function field ``F``."""
    num, den = coeff_from_string(F, text)
    assert den is None, text
    return num
