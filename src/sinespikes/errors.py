"""Exception types shared across the package, one per action a caller takes.

``InvalidConfigurationError`` means a bad input: an out-of-range value, an
unusable shape, or a synthesis request no draw can meet; the CLI exits 4.
``NumericalFailureError`` means the solve itself broke down (a non-finite
iterate or a failed factorization); the CLI exits 2, as for a solve that
does not converge. ``IllPosedRecoveryError`` and ``CertificateFailureError``
are outcomes their callers record: ``demix`` drops the spectral estimate,
``run_certificate`` reports the failure. A sweep counts any of them as one
failed trial.
"""

__all__ = [
    "CertificateFailureError",
    "IllPosedRecoveryError",
    "InvalidConfigurationError",
    "NumericalFailureError",
    "SineSpikesError",
]


class SineSpikesError(Exception):
    """Base class for all package errors."""


class InvalidConfigurationError(SineSpikesError, ValueError):
    """An input is out of its documented range or has an unusable shape."""


class NumericalFailureError(SineSpikesError, RuntimeError):
    """An iterate or factorization produced non-finite values."""


class IllPosedRecoveryError(SineSpikesError, RuntimeError):
    """The amplitude least-squares system is rank deficient."""


class CertificateFailureError(SineSpikesError, RuntimeError):
    """The interpolation system is singular or too ill conditioned."""
