"""Frozen expected values for the library's canonical worked examples.

Everything here was generated once from the implementation after verifying
it against independently known displays, and is now pinned: tests compare
fresh computations against these literals, so any behavioural drift in the
library shows up as a diff against this file.

Conventions used throughout:

* ``cycle3`` is the three-cycle monomial ideal in
  ``Q[v0, v1, v2, v3, e12, e23, e31]`` with the four generators listed in
  ``CYCLE3_GENERATORS``.
* Matrices over the polynomial ring are stored sparsely as
  ``{(row, col): ((coeff, monomial), ...)}`` where ``coeff`` is the string
  of an exact rational and ``monomial`` a ``*``-joined product of variable
  powers (empty string for the constant term).  ``render_ring_matrix``
  produces exactly this form from a live ``RingMatrix``.
* Scalar rational matrices are stored densely as string fractions or as
  integer matrices with a separate scale factor.
"""

from fractions import Fraction

CYCLE3_VARIABLES = ["v0", "v1", "v2", "v3", "e12", "e23", "e31"]
CYCLE3_GENERATORS = [
    "v1*v2*v3*e12*e23*e31",
    "v0^2*v2*v3*e23",
    "v0^2*v1*v3*e31",
    "v0^2*v1*v2*e12",
]

# --------------------------------------------------------------------------
# Hexagon stratum (the top stratum of the cycle3 lcm start): ranks (1, 7, 6).
# Degreewise pseudoinverse data.
# --------------------------------------------------------------------------

HEX_RANKS = [1, 7, 6]

# D_0 = (1/7) * ones(7, 1)
HEX_MP_D0 = [[Fraction(1, 7)] for _ in range(7)]

# D_1 = (1/12) * HEX_MP_D1_TIMES_12  (6 x 7)
HEX_MP_D1_TIMES_12 = [
    [0, -5, 3, -1, 5, -3, 1],
    [0, -5, -1, 3, -3, 5, 1],
    [0, 3, -5, -1, 5, 1, -3],
    [0, -1, -5, 3, -3, 1, 5],
    [0, 3, -1, -5, 1, 5, -3],
    [0, -1, 3, -5, 1, -3, 5],
]

# det(xI - d_2 d_2^T) for the hexagon, descending coefficients.
HEX_CHARPOLY = [1, -12, 54, -112,105, -36, 0, 0]

# --------------------------------------------------------------------------
# cycle3 lcm start over Q: basis chain labels per homological degree.
# These pin the canonical basis order that all golden matrices below use.
# --------------------------------------------------------------------------

M0 = "v1*v2*v3*e12*e23*e31"
M1 = "v0^2*v2*v3*e23"
M2 = "v0^2*v1*v3*e31"
M3 = "v0^2*v1*v2*e12"
M12 = "v0^2*v1*v2*v3*e23*e31"   # lcm(M1, M2): the pair missing e12
M13 = "v0^2*v1*v2*v3*e12*e23"   # lcm(M1, M3): the pair missing e31
M23 = "v0^2*v1*v2*v3*e12*e31"   # lcm(M2, M3): the pair missing e23
MTOP = "v0^2*v1*v2*v3*e12*e23*e31"

F0_LABELS = [f"[{m}]" for m in (M0, M1, M2, M3, M12, M13, M23, MTOP)]
F1_LABELS = [
    f"[{M0} < {MTOP}]",
    f"[{M1} < {M12}]", f"[{M1} < {M13}]", f"[{M1} < {MTOP}]",
    f"[{M2} < {M12}]", f"[{M2} < {M23}]", f"[{M2} < {MTOP}]",
    f"[{M3} < {M13}]", f"[{M3} < {M23}]", f"[{M3} < {MTOP}]",
    f"[{M12} < {MTOP}]", f"[{M13} < {MTOP}]", f"[{M23} < {MTOP}]",
]
F2_LABELS = [
    f"[{M1} < {M12} < {MTOP}]", f"[{M1} < {M13} < {MTOP}]",
    f"[{M2} < {M12} < {MTOP}]", f"[{M2} < {M23} < {MTOP}]",
    f"[{M3} < {M13} < {MTOP}]", f"[{M3} < {M23} < {MTOP}]",
]

# --------------------------------------------------------------------------
# Assembled flow of the pseudoinverse field on the cycle3 lcm start over Q.
# Phi_n = I - d_{n+1} D_n - D_{n-1} d_n in the basis order pinned above.
# --------------------------------------------------------------------------

FLOW0 = {
    (0, 0): (("1", ""),), (0, 7): (("1/7", "v0^2"),),
    (1, 1): (("1", ""),), (1, 4): (("1/2", "v1*e31"),),
    (1, 5): (("1/2", "v1*e12"),), (1, 7): (("1/7", "v1*e12*e31"),),
    (2, 2): (("1", ""),), (2, 4): (("1/2", "v2*e23"),),
    (2, 6): (("1/2", "v2*e12"),), (2, 7): (("1/7", "v2*e12*e23"),),
    (3, 3): (("1", ""),), (3, 5): (("1/2", "v3*e23"),),
    (3, 6): (("1/2", "v3*e31"),), (3, 7): (("1/7", "v3*e23*e31"),),
    (4, 7): (("1/7", "e12"),),
    (5, 7): (("1/7", "e31"),),
    (6, 7): (("1/7", "e23"),),
}

_SEVENTH_ROW = {0: "-1/7", 3: "1/42", 6: "1/42", 9: "1/42",
                10: "1/42", 11: "1/42", 12: "1/42"}

FLOW1 = {
    # the chain [M0 < MTOP]
    (0, 0): (("6/7", ""),), (0, 3): (("-1/7", ""),), (0, 6): (("-1/7", ""),),
    (0, 9): (("-1/7", ""),), (0, 10): (("-1/7", ""),),
    (0, 11): (("-1/7", ""),), (0, 12): (("-1/7", ""),),
    # [M1 < M12]
    (1, 1): (("1/2", ""),), (1, 3): (("5/12", "e12"),),
    (1, 4): (("-1/2", ""),), (1, 6): (("-1/4", "e12"),),
    (1, 9): (("1/12", "e12"),), (1, 10): (("1/12", "e12"),),
    (1, 11): (("1/4", "e12"),), (1, 12): (("-1/12", "e12"),),
    # [M1 < M13]
    (2, 2): (("1/2", ""),), (2, 3): (("5/12", "e31"),),
    (2, 6): (("1/12", "e31"),), (2, 7): (("-1/2", ""),),
    (2, 9): (("-1/4", "e31"),), (2, 10): (("1/4", "e31"),),
    (2, 11): (("1/12", "e31"),), (2, 12): (("-1/12", "e31"),),
    # [M2 < M12]
    (4, 1): (("-1/2", ""),), (4, 3): (("-1/4", "e12"),),
    (4, 4): (("1/2", ""),), (4, 6): (("5/12", "e12"),),
    (4, 9): (("1/12", "e12"),), (4, 10): (("1/12", "e12"),),
    (4, 11): (("-1/12", "e12"),), (4, 12): (("1/4", "e12"),),
    # [M2 < M23]
    (5, 3): (("1/12", "e23"),), (5, 5): (("1/2", ""),),
    (5, 6): (("5/12", "e23"),), (5, 8): (("-1/2", ""),),
    (5, 9): (("-1/4", "e23"),), (5, 10): (("1/4", "e23"),),
    (5, 11): (("-1/12", "e23"),), (5, 12): (("1/12", "e23"),),
    # [M3 < M13]
    (7, 2): (("-1/2", ""),), (7, 3): (("-1/4", "e31"),),
    (7, 6): (("1/12", "e31"),), (7, 7): (("1/2", ""),),
    (7, 9): (("5/12", "e31"),), (7, 10): (("-1/12", "e31"),),
    (7, 11): (("1/12", "e31"),), (7, 12): (("1/4", "e31"),),
    # [M3 < M23]
    (8, 3): (("1/12", "e23"),), (8, 5): (("-1/2", ""),),
    (8, 6): (("-1/4", "e23"),), (8, 8): (("1/2", ""),),
    (8, 9): (("5/12", "e23"),), (8, 10): (("-1/12", "e23"),),
    (8, 11): (("1/4", "e23"),), (8, 12): (("1/12", "e23"),),
}
# rows for the six remaining chains with top MTOP all share one pattern
for _i in (3, 6, 9, 10, 11, 12):
    for _j, _c in _SEVENTH_ROW.items():
        FLOW1[(_i, _j)] = ((_c, ""),)

_PLUS = ("1/6", "")
_MINUS = ("-1/6", "")
_ROW_A = ((_PLUS,), (_MINUS,), (_MINUS,), (_PLUS,), (_PLUS,), (_MINUS,))
_ROW_B = ((_MINUS,), (_PLUS,), (_PLUS,), (_MINUS,), (_MINUS,), (_PLUS,))

FLOW2 = {}
for _i, _row in enumerate((_ROW_A, _ROW_B, _ROW_B, _ROW_A, _ROW_A, _ROW_B)):
    for _j, _terms in enumerate(_row):
        FLOW2[(_i, _j)] = _terms

FLOW_ITERATIONS = 2

# --------------------------------------------------------------------------
# Minimal resolution of cycle3 over Q (and over every prime field computed):
# ranks and Betti multidegrees, keyed by rendered monomial tags.
# --------------------------------------------------------------------------

RES_RANKS = [4, 4, 1]
RES_BETTI = {
    0: {M3: 1, M2: 1, M1: 1, M0: 1},
    1: {M13: 1, MTOP: 1, M23: 1, M12: 1},
    2: {MTOP: 1},
}

# --------------------------------------------------------------------------
# Matroidal stratum counts for cycle3 and the derived critical-prime data.
# --------------------------------------------------------------------------

MATROIDAL_COUNTS = {
    M0: 1, M1: 1, M2: 1, M3: 1,
    M12: 2, M13: 2, M23: 2,
    MTOP: 72,
}
CRITICAL_PRIMES = [2, 3]
CRITICAL_STRATA = {
    2: [M12, M13, M23, MTOP],
    3: [MTOP],
}
TRANSCENDENCE_DEGREE = {2: 74, 3: 71}

# --------------------------------------------------------------------------
# Toric semigroup <2, 3>: two objects (degrees 0 and 6), two morphisms.
# --------------------------------------------------------------------------

TORIC23_RANKS = [1, 1]
# outer keys are ints in-process (stringified only in JSON output);
# inner keys are comma-joined degree vectors, always strings
TORIC23_BETTI = {0: {"0": 1}, 1: {"6": 1}}
TORIC23_ITERATIONS = 1


# --------------------------------------------------------------------------
# Start resolutions: sha256 of ``serialize.dumps(stratified_to_json(start))``,
# keyed by (input, start, characteristic).  The inputs are the bundled
# fixtures, ``bench/inputs/cycle11.json`` and the three-object piece of
# <2, 3> in ``tests/test_toric.py``; they pin every label, tuple order, sign
# and coefficient of the three starts.
# --------------------------------------------------------------------------

START_DIGESTS = {
    ("cycle2", "lcm", 0):
        "0bba05acd02ee54037dc16e82f76d6b06da515ca02ab7fb8f176101ffcfdddf8",
    ("cycle2", "lcm", 2):
        "5cb55436d23e8449fe150a36c79b410a7d6fae008769faab2d30c7f4e57b6234",
    ("cycle2", "taylor", 0):
        "32146b36c9e4830cf7532659425ce8001f5af35c373dd10ec7b51f06f0340d18",
    ("cycle2", "taylor", 2):
        "f2c25561ca3c2ff963feba6f15db94868fe6d1acb6075afedba9b6e7d55967d1",
    ("cycle3", "lcm", 0):
        "d9f68bf1a5d80f7749d86673d72a6a8ee54a9d7ebce4bdc2f522ba04cd457697",
    ("cycle3", "lcm", 2):
        "b480cddfced12a39dc22f60c5d3156fd96a07ad08157ef09416ad1c054d090c9",
    ("cycle3", "taylor", 0):
        "ce8fca2ab93220940afb6733b4160cb1dc97b04c1d0f4be5655306a37810928f",
    ("cycle3", "taylor", 2):
        "9c05b4bb70f1e295e6e4652fdb7c56c6933851fe2643bbc19c2bfe8a6fbfe059",
    ("cycle11", "lcm", 0):
        "cc5a147396cc3e136ff22cac65eb912db8d786ea327f414e27a26ed3533e04ac",
    ("semigroup23", "bar", 0):
        "b5fdfd8c0c5bc371468e1cff2fd7fe1853928f83f8e2bf41c7ecb722109558b6",
    ("semigroup23", "bar", 3):
        "8ee1022ada4476901ba473620e02ed6387e47ab44c2c73a17d7bcbf62600b0e3",
    ("three_objects", "bar", 0):
        "674590da4a7a81e7e295c5c2108b82ee4f4078f87b18da0a6c47a5dd79b80798",
    ("three_objects", "bar", 3):
        "d6c37a7fd768944d44f8b417dcb580ff0df33743f223c5075c77419ff53f68e1",
}


# Ideals in x0..x3 drawn by ``random.Random(k)`` (entries ``randint(0, 3)``,
# five distinct 4-tuples, then minimalized): R6 and R7.  The top stratum of
# R6's lcm start needs a search of R6_OPTION_PAIRS pairs (X_n, Z_n), above
# ``splittings.MAX_OPTION_PAIRS``; R7's largest stratum needs 437,592.
R6_GENERATORS = [[0, 1, 3, 2], [0, 3, 2, 0], [1, 3, 0, 1], [2, 0, 2, 3],
                 [2, 0, 3, 2]]
R7_GENERATORS = [[0, 0, 2, 0], [1, 0, 0, 3], [3, 0, 0, 1], [3, 0, 1, 0]]
R6_OPTION_PAIRS = 1556884050

# The six-vertex triangulation of the real projective plane, vertices
# x1..x6 numbered from 0; its Stanley-Reisner ideal's top lcm stratum needs
# a search of RP2_OPTION_PAIRS pairs.
RP2_FACETS = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
              (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]
RP2_OPTION_PAIRS = 673132974506580171230097


def render_ring_matrix(mat):
    """Sparse text form of a RingMatrix: {(i, j): ((coeff, monomial), ...)}.

    The monomial string multiplies variable powers with ``*`` and renders an
    exponent ``e > 1`` as ``name^e``; the coefficient is the exact value's
    ``str``.  Zero entries are omitted, so the result is comparable with the
    golden dictionaries above by plain equality.
    """
    names = mat.ring.names
    out = {}
    for i, row in enumerate(mat.rows):
        for j, e in enumerate(row):
            if not e.terms:
                continue
            terms = []
            for key, coeff in sorted(e.terms.items()):
                exps = []
                k = key
                while k:
                    exps.append(k & 0xFFFF)
                    k >>= 16
                exps += [0] * (len(names) - len(exps))
                mono = "*".join(
                    f"{nm}^{x}" if x > 1 else nm
                    for nm, x in zip(names, exps) if x)
                terms.append((str(Fraction(coeff)), mono))
            out[(i, j)] = tuple(terms)
    return out
