"""chainflow: exact flows, splittings and stratifications on chain complexes.

Computes canonical minimal free resolutions of monomial ideals and small
toric rings by averaging matroidal splittings stratum by stratum, assembling
the result into a vector field, and flowing the start resolution onto its
minimal summand — in any characteristic, over transcendental extensions when
a prime divides a splitting count.
"""

from .errors import ChainflowError, InputError, InternalError, VerificationError
from .scalars import QQ, GF, FunctionField, Rationals, field_descriptor
from .linalg import MultiPoly, PolyRing, RingMatrix
from .complexes import (
    BasedComplex,
    Poset,
    StratifiedComplex,
    StratumView,
    homology_ranks,
    minimality_report,
    strand,
)
from .flows import (
    ClassifyResult,
    ExtractedSummand,
    Homotopy,
    affine_combination,
    assemble_field,
    classify,
    extract_minimal_summand,
    hat,
    iterate_flow,
    moore_penrose,
)
from .splittings import (
    ExtensionPlan,
    MatroidalChoice,
    StratumSplitting,
    build_extension_field,
    build_stratum_splitting,
    critical_analysis,
    enumerate_matroidal,
    matroidal_average,
    matroidal_count,
    matroidal_options,
    stratum_core,
)
from .monomial import (
    LcmLattice,
    MonomialIdeal,
    ResolveResult,
    lcm_lattice,
    order_complex_resolution,
    render_monomial,
    resolve_minimal,
    taylor_resolution,
    verify_equivariance,
    verify_resolution,
)

__version__ = "0.1.0"
