"""Exception types shared across the package."""


class QuenchThermError(Exception):
    """Base class for all package errors."""


class NotHermitian(QuenchThermError):
    """Input matrix fails the Hermiticity check."""


class BadFactorCount(QuenchThermError):
    """Operation requires a bipartite operator (exactly two tensor factors)."""


class DimensionMismatch(QuenchThermError):
    """Operands live on incompatible Hilbert spaces."""


class NotPositiveDefinite(QuenchThermError):
    """An operator that must be positive definite has a nonpositive eigenvalue."""


class SupportMismatch(QuenchThermError):
    """Relative entropy diverges: second state lacks support where the first has weight."""


class InvalidSpec(QuenchThermError):
    """A quench specification violates its declared structure."""
