"""Exception types shared across the package."""


class EdgeCacheError(Exception):
    """Base class for every error raised by this package."""


class ArgumentError(EdgeCacheError, ValueError):
    """A supplied parameter is malformed (non-positive count, bad type, ...)."""


class FeasibilityError(EdgeCacheError):
    """The per-EN cache budget cannot collectively hold the library."""


class DemandError(EdgeCacheError):
    """The library is too small to pose a worst-case demand (N < K)."""


class RangeError(EdgeCacheError, IndexError):
    """An index, slice or parameter lies outside its valid range."""


class UnsupportedError(EdgeCacheError):
    """The requested parameter combination has no supported scheme or bound."""


class EmptyInputError(EdgeCacheError):
    """An operation requiring at least one element received none."""


class CoverageError(EdgeCacheError):
    """Some requested bits are cached at no edge node."""


class SingularChannelError(EdgeCacheError):
    """A channel draw is rank deficient where full rank is required."""


class SingularH1Error(SingularChannelError):
    """The square corner block of the channel matrix is not invertible."""


class InsufficientDataError(EdgeCacheError):
    """Too few trials or SNR points to fit a reliable slope."""
