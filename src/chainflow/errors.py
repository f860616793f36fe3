"""Exception types shared across the package.

The CLI maps these to exit codes: InputError -> 2, VerificationError -> 3,
InternalError -> 4.
"""


class ChainflowError(Exception):
    """Base class for all package errors."""


class InputError(ChainflowError):
    """Malformed or unsupported input (bad JSON, wrong characteristic, ...)."""


class SearchBoundError(InputError):
    """Valid input whose exhaustive search would exceed its bound."""


class VerificationError(ChainflowError):
    """A requested check failed (non-exact strand, broken identity, ...)."""


class InternalError(ChainflowError):
    """An internal invariant was violated; indicates a bug, not bad input."""
