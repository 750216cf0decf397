"""Turning a solved dual program into frequency and outlier estimates.

Frequencies are read from the vector-valued trigonometric polynomial
Q(f) = sum_j Gamma[j] exp(-2i*pi*j*f) of the dual variable Gamma, evaluated
by ``trigpoly``. The SDP's diagonal-sum constraint bounds ||Q|| by one, and
||Q|| reaches one exactly on the recovered support. Outlier rows are the
rows of Gamma on the boundary of the lambda-ball.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import trigpoly
from .errors import IllPosedRecoveryError
from .model import signal_matrix, wrap_distance
from .solver import DualSdpProblem, SdpSolution, SolverOptions, solve_dual_sdp

__all__ = [
    "DemixReport",
    "demix",
    "duality_gap",
    "locate_frequencies",
    "locate_outliers",
    "recover_amplitudes",
    "success",
]


# Peak picking: grid maxima of ||Q|| above 1 - _PEAK_TOL are refined by
# _NEWTON_STEPS Newton ascent steps, and refined peaks are kept when their
# value reaches 1 - _ACCEPT_TOL. Rows of Gamma with norm at least
# lam * (1 - _ROW_TOL) are outlier rows.
_NEWTON_STEPS = 3
_PEAK_TOL = 1e-3
_ACCEPT_TOL = 1e-4
_ROW_TOL = 1e-3


def locate_frequencies(gamma: np.ndarray,
                       grid_size: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies where ||Q|| attains a refined local maximum near one.

    ``gamma`` is the dual variable and ``grid_size`` the size of the scan
    grid (``trigpoly.grid_points``' default when None). Refined locations
    closer than one grid step are merged, keeping the larger value. Returns
    the frequencies and the refined values ||Q|| there.
    """
    coef = trigpoly.coefficients(gamma)
    f, vals = trigpoly.scan(coef, grid_size)
    candidates = trigpoly.local_maxima(vals)
    candidates = candidates[vals[candidates] >= 1.0 - _PEAK_TOL]
    refined, values = trigpoly.refine(coef, f[candidates], _NEWTON_STEPS)
    keep = values >= 1.0 - _ACCEPT_TOL
    return trigpoly.merge_peaks(refined[keep], values[keep], 1.0 / f.size)


def locate_outliers(gamma: np.ndarray, lam: float) -> np.ndarray:
    """Rows of the dual variable whose norm sits on the ball boundary."""
    norms = np.linalg.norm(gamma, axis=1)
    return np.flatnonzero(norms >= lam * (1.0 - _ROW_TOL))


def recover_amplitudes(measurement: np.ndarray, freqs, outlier_rows):
    """Least-squares amplitudes on the clean rows; outliers as the residual.

    Returns (A, Z) where A is K x L and Z is supported on ``outlier_rows``.
    """
    y = np.asarray(measurement, dtype=complex)
    n, l = y.shape
    f = np.atleast_1d(np.asarray(freqs, dtype=float))
    rows = np.asarray(sorted(int(i) for i in np.atleast_1d(outlier_rows)), dtype=int)
    k = f.size
    if k + rows.size > n:
        raise IllPosedRecoveryError(
            f"{k} frequencies plus {rows.size} outlier rows exceed {n} sensors"
        )
    clean = np.setdiff1d(np.arange(n), rows)
    if k == 0:
        amplitudes = np.zeros((0, l), dtype=complex)
        fitted = np.zeros((n, l), dtype=complex)
    else:
        if clean.size < k:
            raise IllPosedRecoveryError("not enough clean rows to fit the amplitudes")
        vander = np.exp(2j * np.pi * np.outer(np.arange(n), f))
        sol, _, rank, _ = np.linalg.lstsq(vander[clean], y[clean], rcond=None)
        if rank < k:
            raise IllPosedRecoveryError(
                f"Vandermonde system is rank deficient ({rank} < {k})"
            )
        amplitudes = sol
        fitted = vander @ amplitudes
    outliers = np.zeros((n, l), dtype=complex)
    outliers[rows] = (y - fitted)[rows]
    return amplitudes, outliers


@dataclass(frozen=True)
class DemixReport:
    """Everything estimated from one demixing run."""

    estimated_frequencies: np.ndarray
    estimated_amplitudes: np.ndarray
    estimated_outlier_rows: np.ndarray
    estimated_outliers: np.ndarray
    estimated_signal: np.ndarray
    duality_gap: float
    peak_values: np.ndarray
    converged: bool = True

    def to_json(self) -> dict:
        a, z = self.estimated_amplitudes, self.estimated_outliers
        return {
            "estimated_frequencies": [float(x) for x in self.estimated_frequencies],
            "estimated_outlier_rows": [int(i) for i in self.estimated_outlier_rows],
            "amplitudes_re": a.real.ravel().tolist(),
            "amplitudes_im": a.imag.ravel().tolist(),
            "outliers_re": z.real.ravel().tolist(),
            "outliers_im": z.imag.ravel().tolist(),
            "duality_gap": self.duality_gap,
            "peak_values": [float(v) for v in self.peak_values],
            "converged": self.converged,
        }


def duality_gap(amplitudes: np.ndarray, outliers: np.ndarray,
                solution: SdpSolution, lam: float) -> float:
    """Normalized gap between the dual objective and the primal value.

    The primal value of the recovered decomposition is
    sum_k ||A[k, :]||_2 + lam * sum of outlier row norms. The sqrt(N) in
    the unit-norm atom cancels against the sqrt(N) relating amplitude rows
    to atomic coefficients, so amplitude row norms enter directly.
    """
    primal = float(np.linalg.norm(np.atleast_2d(amplitudes), axis=1).sum()) if np.size(amplitudes) else 0.0
    primal += lam * float(np.linalg.norm(outliers, axis=1).sum())
    dual = solution.objective
    return abs(dual - primal) / max(1.0, abs(dual))


def success(f_est, f_true, tol: float = 1e-4) -> bool:
    """Exact-count match with max wrap deviation at most ``tol``."""
    a = np.sort(np.atleast_1d(np.asarray(f_est, dtype=float)) % 1.0)
    b = np.sort(np.atleast_1d(np.asarray(f_true, dtype=float)) % 1.0)
    if a.size != b.size:
        return False
    if a.size == 0:
        return True
    return bool(np.max(wrap_distance(a, b)) <= tol)


def demix(measurement: np.ndarray, lam: float,
          solver_opts: SolverOptions | None = None,
          grid_size: int | None = None):
    """Full pipeline: solve the SDP, localize, recover, and audit the gap.

    ``grid_size`` is the scan grid of ``locate_frequencies``. Returns
    (DemixReport, SdpSolution).
    """
    problem = DualSdpProblem(np.asarray(measurement, dtype=complex), lam)
    solution = solve_dual_sdp(problem, solver_opts)
    freqs, peaks = locate_frequencies(solution.gamma, grid_size)
    rows = locate_outliers(solution.gamma, lam)
    try:
        amplitudes, outliers = recover_amplitudes(problem.measurement, freqs, rows)
    except IllPosedRecoveryError:
        # best effort: keep the outlier rows, drop the spectral estimate
        freqs = peaks = np.array([], dtype=float)
        amplitudes, outliers = recover_amplitudes(problem.measurement, freqs, rows)
    if freqs.size:
        signal = signal_matrix(freqs, amplitudes, problem.n_sensors)
    else:
        signal = np.zeros_like(problem.measurement)
    gap = duality_gap(amplitudes, outliers, solution, lam)
    report = DemixReport(
        estimated_frequencies=freqs,
        estimated_amplitudes=amplitudes,
        estimated_outlier_rows=rows,
        estimated_outliers=outliers,
        estimated_signal=signal,
        duality_gap=gap,
        peak_values=peaks,
        converged=solution.converged,
    )
    return report, solution
