"""Turning a solved dual program into frequency and outlier estimates.

Frequencies are read off the primal matrix of the solve: its top-left
Toeplitz block T = sum_k c_k a(f_k) a(f_k)^H, with a(f)_j =
exp(2i*pi*j*f), has a Vandermonde decomposition whose nodes are the
spectral support (Tang, Bhaskar, Shah & Recht 2013; Li & Chi 2016 for
several snapshots), and ESPRIT (Roy & Kailath 1989) reads them off its
eigenvectors. The dual variable Gamma is the evidence: the SDP's
diagonal-sum constraint bounds the vector-valued trigonometric polynomial
Q(f) = sum_j Gamma[j] exp(-2i*pi*j*f) by one, ||Q|| reaches one exactly on
the recovered support, and a frequency is kept only where ``trigpoly``
evaluates ||Q|| near its peak, or near one if the peak lies above. Outlier
rows are read off the same matrix: its top-right block splits the
measurement into an atom part and an outlier part, and a row of the
outlier part is kept only where the row of Gamma sits on the boundary of
the lambda-ball, which is the evidence for rows as ||Q|| is for lines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import trigpoly
from .errors import IllPosedRecoveryError, InvalidConfigurationError, NumericalFailureError
from .model import hermitian_toeplitz, sensor_rows, toeplitz_adjoint, wrap_distance
from .solver import DualSdpProblem, SdpSolution, SolverOptions, solve_dual_sdp

__all__ = [
    "DemixReport",
    "demix",
    "locate_frequencies",
    "locate_outliers",
    "recover_amplitudes",
    "success",
]


# The rank of the Toeplitz block counts its eigenvalues above _RANK_TOL of
# the largest. A frequency read off it is kept when ||Q|| reaches
# 1 - _ACCEPT_TOL of min(1, sup ||Q||) there. An outlier row needs its row of
# Gamma to reach lam * (1 - _ROW_TOL).
_RANK_TOL = 1e-3
_ACCEPT_TOL = 1e-4
_ROW_TOL = 1e-3


def locate_frequencies(gamma: np.ndarray, primal: np.ndarray) -> np.ndarray:
    """Frequencies of the primal's Toeplitz block where ||Q|| reaches its peak.

    ``gamma`` is the N x L dual variable and ``primal`` the primal matrix of
    the solve (``SdpSolution.primal``), of which the top-left N x N block is
    read. T is the Hermitian Toeplitz matrix whose lags are the means of
    that block's superdiagonals. Its rank r counts the eigenvalues above
    _RANK_TOL of the largest, at most N - 1. The top r eigenvectors E span
    the a(f_k), and E[1:] = E[:-1] Psi for a Psi whose eigenvalues are
    exp(2i*pi*f_k) (ESPRIT); Psi is their least-squares solution. Returns,
    sorted in [0, 1), the f_k with ||Q(f_k)|| >= (1 - _ACCEPT_TOL) *
    min(1, p), p being the largest ||Q|| of ``trigpoly.scan``. Where p >= 1
    this is ||Q(f_k)|| >= 1 - _ACCEPT_TOL. The peak-relative level keeps the
    lines of a dual point strictly inside the feasible set, such as an
    iterate of the accelerated solve: a certified gap of 1e-4 still allows
    ||Q|| = 1 - 1.1e-4 at a true line.
    """
    g = np.asarray(gamma, dtype=complex)
    if g.ndim != 2 or g.size == 0:
        raise InvalidConfigurationError(f"expected a nonempty matrix, got shape {g.shape}")
    n = g.shape[0]
    lags = toeplitz_adjoint(np.asarray(primal)[:n, :n]) / np.arange(n, 0, -1)
    try:
        w, v = np.linalg.eigh(hermitian_toeplitz(lags))
        rank = min(np.count_nonzero(w > max(_RANK_TOL * w[-1], 0.0)), n - 1)
        e = v[:, n - rank:]
        nodes = np.linalg.eigvals(np.linalg.lstsq(e[:-1], e[1:], rcond=None)[0])
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"Toeplitz readout failed: {exc}") from exc
    f = np.angle(nodes) / (2.0 * np.pi) % 1.0
    peak = trigpoly.scan(trigpoly.coefficients(g))[1].max()
    level = (1.0 - _ACCEPT_TOL) * min(1.0, peak)
    return np.sort(f[np.linalg.norm(trigpoly.evaluate(g, f), axis=1) >= level])


def locate_outliers(gamma: np.ndarray, primal: np.ndarray, measurement: np.ndarray,
                    lam: float, excess: float) -> np.ndarray:
    """Rows of the primal's outlier part that outweigh the certified gap.

    ``primal`` is the repaired primal matrix M of the solve
    (``SdpSolution.primal``). It splits the N x L measurement Y into the
    atom part S = -2 M[:N, N:] and the outlier part Z = Y + 2 M[:N, N:],
    and the solve's upper bound is the value of M (``solver._upper``),
    which is at least the primal objective |S|_A + lam * sum_j |Z_j| at
    exactly this split, since M's top-left block and its Schur complement
    certify |S|_A. So that objective is at most ``excess`` = upper - lower
    above the optimum, and a row whose term lam * |Z_j| is no larger than
    this gap cannot be told apart from a zero row. The threshold is
    therefore in units of the objective: row j is an outlier row where
    lam * |Z_j| > ``excess`` and, as complementary slackness asks of a row
    where Z_j is not zero, |Gamma_j| >= lam * (1 - _ROW_TOL).

    The dual rule alone over-reports: at an exact optimum a clean row of
    Gamma can sit on the ball too. On the N=50 instances of three lines and
    15 outlier rows (five snapshots, seeds 0-9), solved to a relative gap
    below 1e-8, lam * |Z_j| was above 1e6 times upper - lower on every
    outlier row and below 1e-2 times it on every clean row, where the ball
    alone read one to four clean rows on four of the ten seeds.
    """
    g = np.asarray(gamma)
    n = g.shape[0]
    z = np.asarray(measurement) + 2.0 * np.asarray(primal)[:n, n:]
    weight = lam * np.linalg.norm(z, axis=1)
    on_ball = np.linalg.norm(g, axis=1) >= lam * (1.0 - _ROW_TOL)
    return np.flatnonzero((weight > excess) & on_ball)


def recover_amplitudes(measurement: np.ndarray, freqs, outlier_rows):
    """Least-squares amplitudes on the clean rows; outliers as the residual.

    Returns (A, Z) where A is K x L and Z is supported on ``outlier_rows``,
    distinct integer indices in 0..N-1.
    """
    y = np.asarray(measurement, dtype=complex)
    n, l = y.shape
    f = np.atleast_1d(np.asarray(freqs, dtype=float))
    rows = sensor_rows(outlier_rows, n)
    k = f.size
    if k + rows.size > n:
        raise IllPosedRecoveryError(
            f"{k} frequencies plus {rows.size} outlier rows exceed {n} sensors"
        )
    clean = np.setdiff1d(np.arange(n), rows)
    vander = np.exp(2j * np.pi * np.outer(np.arange(n), f))
    amplitudes, _, rank, _ = np.linalg.lstsq(vander[clean], y[clean], rcond=None)
    if rank < k:
        raise IllPosedRecoveryError(
            f"Vandermonde system is rank deficient ({rank} < {k})"
        )
    outliers = np.zeros((n, l), dtype=complex)
    outliers[rows] = (y - vander @ amplitudes)[rows]
    return amplitudes, outliers


@dataclass(frozen=True)
class DemixReport:
    """Everything estimated from one demixing run.

    ``lower`` and ``upper`` are the solve's certified bounds on the optimum
    (``SdpSolution.lower`` and ``upper``), and ``duality_gap`` their
    relative gap (``SdpSolution.gap``), which bounds how far its dual
    objective can be from the optimum whatever the lines read off it.
    """

    estimated_frequencies: np.ndarray
    estimated_amplitudes: np.ndarray
    estimated_outlier_rows: np.ndarray
    estimated_outliers: np.ndarray
    lower: float
    upper: float
    duality_gap: float
    converged: bool

    def to_json(self) -> dict:
        a, z = self.estimated_amplitudes, self.estimated_outliers
        return {
            "estimated_frequencies": [float(x) for x in self.estimated_frequencies],
            "estimated_outlier_rows": [int(i) for i in self.estimated_outlier_rows],
            "amplitudes_re": a.real.ravel().tolist(),
            "amplitudes_im": a.imag.ravel().tolist(),
            "outliers_re": z.real.ravel().tolist(),
            "outliers_im": z.imag.ravel().tolist(),
            "lower": self.lower,
            "upper": self.upper,
            "duality_gap": self.duality_gap,
            "converged": self.converged,
        }


def success(f_est, f_true, tol: float = 1e-4) -> bool:
    """Exact-count match with max wrap deviation at most ``tol``.

    Both sets are sorted on [0, 1) and paired in circular order: the
    estimates are compared with every cyclic shift of the truth, so an
    estimate just below 1 can match a line just above 0.
    """
    a = np.sort(np.atleast_1d(np.asarray(f_est, dtype=float)) % 1.0)
    b = np.sort(np.atleast_1d(np.asarray(f_true, dtype=float)) % 1.0)
    if a.size != b.size:
        return False
    if a.size == 0:
        return True
    k = np.arange(b.size)
    shifts = b[(k[:, None] + k) % b.size]  # row s is b rolled left by s
    return bool(wrap_distance(a, shifts).max(axis=1).min() <= tol)


def demix(measurement: np.ndarray, lam: float,
          solver_opts: SolverOptions | None = None):
    """Full pipeline: solve the SDP, localize the lines and outliers, recover amplitudes.

    Returns (DemixReport, SdpSolution).
    """
    problem = DualSdpProblem(np.asarray(measurement, dtype=complex), lam)
    solution = solve_dual_sdp(problem, solver_opts)
    freqs = locate_frequencies(solution.gamma, solution.primal)
    rows = locate_outliers(solution.gamma, solution.primal, problem.measurement, lam,
                           solution.upper - solution.lower)
    try:
        amplitudes, outliers = recover_amplitudes(problem.measurement, freqs, rows)
    except IllPosedRecoveryError:
        # best effort: keep the outlier rows, drop the spectral estimate
        freqs = np.array([], dtype=float)
        amplitudes, outliers = recover_amplitudes(problem.measurement, freqs, rows)
    report = DemixReport(
        estimated_frequencies=freqs,
        estimated_amplitudes=amplitudes,
        estimated_outlier_rows=rows,
        estimated_outliers=outliers,
        lower=solution.lower,
        upper=solution.upper,
        duality_gap=solution.gap,
        converged=solution.converged,
    )
    return report, solution
