"""An artifact checker that shares no code with the package.

It reads a ``resolve`` artifact (the JSON that ``--out`` writes) and the
input ideal (``variables`` and ``generators`` as exponent vectors), and
decides whether the artifact's ``resolution`` is a minimal multigraded free
resolution of that ideal.  It imports only the standard library and sympy,
so a fault in the package's own linear algebra or strand builder cannot
hide behind itself; ``tests/test_artifact_check.py`` keeps it so.

The resolution is read as: ``basis[n]`` lists the multidegrees ``m_j`` of
``F_n``; ``diff[n - 1]`` is ``d_n : F_n -> F_{n-1}``, one row per basis
element of ``F_{n-1}``, each entry a dict from a comma-joined exponent
vector to a coefficient string (an integer, or ``a/b`` over Q).  The
augmentation sends the basis element ``e_j`` of ``F_0`` to the monomial
``x^{m_j}``.  Checked, in this order:

- homogeneity: every term of the entry ``(i, j)`` of ``d_n`` has exponent
  ``m_j - m_i``, so each entry is ``c_ij x^{m_j - m_i}``;
- minimality: no entry has a nonzero constant term;
- ``d^2 = 0``: with homogeneous entries, the ``(i, k)`` entry of
  ``d_n d_{n+1}`` is ``(sum_j c_ij c_jk) x^{m_k - m_i}``, so ``d^2 = 0``
  exactly when the coefficient matrices multiply to zero;
- the premise of the strand check: every basis multidegree is the lcm of
  a nonempty set of generators;
- strand exactness.  The strand at ``b`` keeps the basis elements with
  ``m_j <= b`` and the coefficients between them.  ``H_0``: the
  augmentation kills ``d_1`` (every column of ``d_1``'s coefficients sums
  to zero) and, at every ``b``, maps the strand of ``F_0`` onto the
  one-dimensional ``I_b`` with kernel the image of ``d_1``.  ``H_n = 0``
  for ``n >= 1``: ``dim F_n^b = rank d_n^b + rank d_{n+1}^b``.  The
  strands are taken at the lcm of every nonempty set of generators.  With
  the premise, that covers every ``b``: a basis multidegree below ``b`` is
  an lcm of generators that divide ``b``, so it lies below the lcm ``b'``
  of all generators that divide ``b``, and the strand at ``b`` is the
  strand at ``b'``, or zero, as ``I_b`` is, when no generator divides ``b``.

Ranks are taken with ``sympy.polys.matrices.DomainMatrix`` over ``QQ`` or
``GF(p)``.  Artifacts over a transcendental extension of ``F_p`` are out of
scope and raise.
"""

from __future__ import annotations

import json
from fractions import Fraction

from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix


class ArtifactError(Exception):
    """The artifact fails a property; the message starts with its name."""


def load(artifact_path, ideal_path) -> tuple:
    """The ``resolution`` document of an artifact file and the generators
    of an ideal file."""
    with open(artifact_path) as fh:
        resolution = json.load(fh)["resolution"]
    with open(ideal_path) as fh:
        generators = [tuple(g) for g in json.load(fh)["generators"]]
    return resolution, generators


def check_files(artifact_path, ideal_path) -> int:
    """:func:`check` on the files; returns the number of strands checked."""
    return check(*load(artifact_path, ideal_path))


def check(resolution: dict, generators: list) -> int:
    """Raise :class:`ArtifactError` unless ``resolution`` is a minimal free
    resolution of the ideal of ``generators``; returns the number of
    strands checked."""
    K = _domain(resolution["field"])
    nvars = len(resolution["ring_vars"])
    degrees = [[tuple(e["multidegree"]) for e in basis]
               for basis in resolution["basis"]]
    top = len(degrees) - 1
    diffs = resolution["diff"]
    if len(diffs) != top or any(len(g) != nvars for g in generators):
        raise ArtifactError("shape: one differential per degree and "
                            "one exponent per variable")
    coeffs = [_coefficients(K, n + 1, diffs[n], degrees[n], degrees[n + 1])
              for n in range(top)]
    mats = [_matrix(K, rows, len(degrees[n + 1]))
            for n, rows in enumerate(coeffs)]
    for n in range(1, top):
        if not (mats[n - 1] * mats[n]).is_zero_matrix:
            raise ArtifactError(f"d^2: d_{n} d_{n + 1} != 0")
    lattice = _lcm_lattice(generators)
    for n, degs in enumerate(degrees):
        for m in degs:
            if m not in lattice:
                raise ArtifactError(
                    f"premise: {m} in degree {n} is no lcm of generators")
    if top and any(sum((row[j] for row in coeffs[0]), K.zero) != K.zero
                   for j in range(len(degrees[1]))):
        raise ArtifactError("H_0: the augmentation does not kill d_1")
    for b in sorted(lattice):
        _check_strand(K, b, degrees, coeffs)
    return len(lattice)


def _domain(field):
    if field == "Q":
        return QQ
    if isinstance(field, dict) and set(field) == {"p"}:
        return GF(field["p"])
    raise ArtifactError(f"scope: no check over the field {field!r}")


def _coefficients(K, n, rows, row_degs, col_degs) -> list:
    """The coefficient matrix of ``d_n``, after checking each entry's
    homogeneity and that none has a nonzero constant term."""
    if len(rows) != len(row_degs) or any(len(r) != len(col_degs)
                                         for r in rows):
        raise ArtifactError(f"shape: d_{n} does not match the basis")
    out = []
    for i, row in enumerate(rows):
        out.append([])
        for j, entry in enumerate(row):
            c = K.zero
            for key, text in entry.items():
                exps = tuple(int(e) for e in key.split(","))
                value = Fraction(text)
                if value == 0:
                    continue
                want = tuple(a - b for a, b in zip(col_degs[j], row_degs[i]))
                if exps != want or min(want) < 0:
                    raise ArtifactError(
                        f"homogeneity: d_{n}[{i}][{j}] has exponent {exps}, "
                        f"expected {want}")
                if not any(exps):
                    raise ArtifactError(
                        f"minimality: d_{n}[{i}][{j}] is the constant {text}")
                c += K(value.numerator) / K(value.denominator)
            out[-1].append(c)
    return out


def _matrix(K, rows, ncols) -> DomainMatrix:
    return DomainMatrix(rows, (len(rows), ncols), K)


def _lcm_lattice(generators) -> set:
    """The lcm of every nonempty set of ``generators``."""
    lattice: set = set()
    for g in generators:
        lattice |= {tuple(map(max, g, m)) for m in lattice} | {tuple(g)}
    return lattice


def _check_strand(K, b, degrees, coeffs):
    """Exactness of the augmented strand ``... -> F_1^b -> F_0^b -> I_b``
    at ``b``, a multidegree of the ideal, so ``dim I_b = 1``."""
    keep = [[j for j, m in enumerate(degs) if all(x <= y for x, y in zip(m, b))]
            for degs in degrees]
    ranks = [min(len(keep[0]), 1)]   # the augmentation, all ones on F_0^b
    for n in range(1, len(degrees)):
        rows = [[coeffs[n - 1][i][j] for j in keep[n]] for i in keep[n - 1]]
        ranks.append(_matrix(K, rows, len(keep[n])).rank()
                     if rows and keep[n] else 0)
    ranks.append(0)
    if ranks[0] != 1:
        raise ArtifactError(f"H_0: no generator of degree below {b}")
    for n, idx in enumerate(keep):
        if len(idx) != ranks[n] + ranks[n + 1]:
            raise ArtifactError(f"H_{n}: the strand at {b} is not exact")
