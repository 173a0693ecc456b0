"""Exception types shared across quasilat modules."""


class QuasilatError(Exception):
    """Base class for all structured quasilat errors."""


class DegenerateLatticeError(QuasilatError):
    """Lattice basis is singular or numerically rank-deficient."""


class EnumerationBoundError(QuasilatError):
    """Integer candidate enumeration would exceed the configured cap."""


class InsufficientTruncationError(QuasilatError):
    """A box, scan region or guard radius does not fit inside the truncation."""


class ShiftRangeError(QuasilatError):
    """Requested time or frequency shift exceeds the safe grid range."""


class NotMinimalError(QuasilatError):
    """Gram matrix is numerically singular; no biorthogonal family exists. delta is
    the minimality gap from the same decomposition of the Gram matrix."""

    def __init__(self, message, delta):
        super().__init__(message)
        self.delta = delta


class CoverError(QuasilatError):
    """No cover within the requested size at this truncation."""


class ScenarioValidationError(QuasilatError):
    """Scenario configuration is malformed or internally inconsistent."""
