"""Demixing of spectral lines and row-sparse outliers from multiple snapshots.

The package solves the dual semidefinite program of the group-sparse
demixing problem with a first-order splitting method, reads the frequencies
off the primal's Toeplitz block and checks them and the corrupted sensors
against the dual variables, and provides a laboratory that constructs and
numerically validates the randomized dual certificate underlying the
recovery guarantee.
"""

from .dual_analysis import DemixReport, demix, success
from .model import MixtureInstance, default_lambda
from .certificate import (
    CertificateReport,
    CertificateSolution,
    ValidationOptions,
    run_certificate,
)
from .solver import DualSdpProblem, SdpSolution, SolverOptions, solve_dual_sdp
from .synthesis import SynthesisConfig, synth_instance

__all__ = [
    "DemixReport", "demix", "success",
    "MixtureInstance", "default_lambda",
    "CertificateReport", "CertificateSolution", "ValidationOptions", "run_certificate",
    "DualSdpProblem", "SdpSolution", "SolverOptions", "solve_dual_sdp",
    "SynthesisConfig", "synth_instance",
]

__version__ = "0.1.0"
