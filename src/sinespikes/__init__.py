"""Demixing of spectral lines and row-sparse outliers from multiple snapshots.

The package solves the dual semidefinite program of the group-sparse
demixing problem with a first-order splitting method, localizes frequencies
and corrupted sensors from the dual variables, and provides a laboratory
that constructs and numerically validates the randomized dual certificate
underlying the recovery guarantee.
"""

from .dual_analysis import (
    DemixReport,
    demix,
    duality_gap,
    locate_frequencies,
    locate_outliers,
    recover_amplitudes,
    success,
)
from .model import (
    MixtureInstance,
    default_lambda,
    min_separation,
    wrap_distance,
)
from .certificate import (
    CertificateReport,
    CertificateSolution,
    Kernel,
    ValidationOptions,
    build_kernel,
    build_system,
    restrict_kernel,
    run_certificate,
    solve_certificate,
    validate_certificate,
)
from .solver import (
    DualSdpProblem,
    SdpSolution,
    SolverOptions,
    project_psd,
    project_row_ball,
    solve_dual_sdp,
)
from .synthesis import (
    SynthesisConfig,
    synth_instance,
)

__version__ = "0.1.0"
