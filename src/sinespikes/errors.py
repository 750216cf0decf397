"""Exception types shared across the package."""

__all__ = [
    "CertificateFailureError",
    "IllPosedRecoveryError",
    "InvalidConfigurationError",
    "InvalidDimensionError",
    "NumericalFailureError",
    "SineSpikesError",
    "SynthesisFailureError",
    "UndefinedSeparationError",
]


class SineSpikesError(Exception):
    """Base class for all package errors."""


class InvalidDimensionError(SineSpikesError, ValueError):
    """An array argument has an unusable shape (empty, non-square, ...)."""


class InvalidConfigurationError(SineSpikesError, ValueError):
    """A configuration value is out of its documented range."""


class UndefinedSeparationError(SineSpikesError, ValueError):
    """Minimum separation was requested for fewer than two frequencies."""


class SynthesisFailureError(SineSpikesError, RuntimeError):
    """Rejection sampling could not satisfy the separation target."""


class NumericalFailureError(SineSpikesError, RuntimeError):
    """An iterate or factorization produced non-finite values."""


class IllPosedRecoveryError(SineSpikesError, RuntimeError):
    """The amplitude least-squares system is rank deficient."""


class CertificateFailureError(SineSpikesError, RuntimeError):
    """The interpolation system is singular or too ill conditioned."""
