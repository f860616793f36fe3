"""chainflow: exact flows, splittings and stratifications on chain complexes.

Computes canonical minimal free resolutions of monomial ideals and small
toric rings by averaging matroidal splittings stratum by stratum, assembling
the result into a vector field, and flowing the start resolution onto its
minimal summand — in any characteristic, over transcendental extensions when
a prime divides a splitting count.
"""

from .errors import ChainflowError, InputError, InternalError, VerificationError
from .scalars import QQ, GF
from .monomial import (
    MonomialIdeal,
    ResolveResult,
    resolve_minimal,
    verify_resolution,
)

__version__ = "0.1.0"
