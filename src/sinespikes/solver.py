"""First-order solver for the dual semidefinite program.

The program maximizes Re<Y, Gamma> over pairs (Lambda, Gamma) subject to

    [[Lambda, Gamma], [Gamma^H, I_L]] >= 0,
    superdiagonal sums of Lambda equal (1, 0, ..., 0),
    every row of Gamma has 2-norm at most lambda.

The diagonal-sum constraint makes the trigonometric polynomial
sum_j Gamma[j] exp(-2i*pi*j*f) bounded by one in row 2-norm for every f,
which is what turns the infinite-dimensional dual constraint into a linear
matrix inequality.

The solver is an ADMM splitting over the (N+L) x (N+L) Hermitian variable
X = [[Lambda, Gamma], [Gamma^H, W]]:

* one block projects onto the PSD cone (eigenvalue clamping);
* the other applies the linear objective as a proximal shift on the
  off-diagonal blocks and then projects exactly onto the affine-plus-ball
  set {W = I, diagonal sums of Lambda = e1, rows of Gamma inside the ball}.

Both projections are exact, so every reported iterate satisfies the affine
and ball constraints to machine precision while PSD feasibility is driven
to zero by the residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    InvalidConfigurationError,
    InvalidDimensionError,
    NumericalFailureError,
)
from .model import toeplitz_adjoint

__all__ = [
    "DualSdpProblem",
    "SdpSolution",
    "SolverOptions",
    "project_affine_lambda",
    "project_psd",
    "project_row_ball",
    "solve_dual_sdp",
]

_DIAG_EVERY = 25

# Fixed ADMM settings: initial penalty rho, over-relaxation factor, and the
# absolute and relative tolerances of the stopping rule in solve_dual_sdp.
_PENALTY = 1.0
_OVER_RELAXATION = 1.6
_EPS_ABS = 1e-7
_EPS_REL = 1e-6


@dataclass(frozen=True)
class DualSdpProblem:
    """Measurement matrix plus the outlier regularization weight."""

    measurement: np.ndarray
    lam: float

    def __post_init__(self):
        y = np.asarray(self.measurement)
        if y.ndim != 2 or y.size == 0:
            raise InvalidDimensionError(f"measurement must be N x L, got {y.shape}")
        if not np.all(np.isfinite(y)):
            raise InvalidConfigurationError("measurement contains non-finite entries")
        if not self.lam > 0:
            raise InvalidConfigurationError(f"lambda must be positive, got {self.lam}")

    @property
    def n_sensors(self) -> int:
        return self.measurement.shape[0]


@dataclass(frozen=True)
class SolverOptions:
    max_iterations: int = 100_000

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InvalidConfigurationError("max_iterations must be at least 1")


@dataclass(frozen=True)
class SdpSolution:
    """Dual variables and convergence diagnostics of one solve.

    ``diagnostics`` has one row per recorded iteration with columns
    (iteration, objective, primal_residual, dual_residual); the last row is
    the returned iterate, so it repeats the row before it when the solve
    stops on a recorded iteration.
    """

    gamma: np.ndarray
    lambda_mat: np.ndarray
    objective: float
    primal_residual: float
    dual_residual: float
    iterations: int
    converged: bool
    diagnostics: np.ndarray = field(repr=False, default=None)


def _hermitize(mat: np.ndarray) -> np.ndarray:
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidDimensionError(f"expected a square matrix, got {m.shape}")
    return (m + m.conj().T) / 2.0


def project_psd(mat: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix (eigenvalue clamping).

    The clamped eigenvalues contribute nothing, so only the eigenpairs with
    a positive eigenvalue enter the product (``eigh`` sorts them ascending).
    """
    try:
        w, v = np.linalg.eigh(_hermitize(mat))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    k = np.searchsorted(w, 0.0, side="right")
    vp = v[:, k:]
    out = (vp * w[k:]) @ vp.conj().T
    return (out + out.conj().T) / 2.0


@lru_cache(maxsize=16)
def _mirror_index(n: int) -> np.ndarray:
    """Index of every n x n entry into [d, conj(d)] for a vector d of lags:
    d[j - i] on and above the diagonal, conj(d[i - j]) below it."""
    offset = np.arange(n)[None, :] - np.arange(n)[:, None]  # j - i
    index = np.where(offset >= 0, offset, n - offset)
    index.flags.writeable = False
    return index


def _affine_hermitian(h: np.ndarray) -> np.ndarray:
    """Affine projection of an exactly Hermitian matrix (see project_affine_lambda)."""
    n = h.shape[0]
    defect = toeplitz_adjoint(h)
    defect[0] -= 1.0
    defect /= np.arange(n, 0, -1)
    return h - np.concatenate((defect, defect.conj()))[_mirror_index(n)]


def project_affine_lambda(mat: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix whose k-th superdiagonal sums to [k == 0].

    Subtracting the mean defect from each superdiagonal (and mirroring) is
    the Frobenius-nearest correction because the constraints decouple per
    diagonal and each one is a hyperplane.
    """
    return _affine_hermitian(_hermitize(mat))


def project_row_ball(gamma: np.ndarray, lam: float) -> np.ndarray:
    """Rescale every row with 2-norm above ``lam`` back onto the sphere."""
    if not lam > 0:
        raise InvalidConfigurationError(f"lambda must be positive, got {lam}")
    g = np.asarray(gamma, dtype=complex)
    norms = np.linalg.norm(g, axis=1)
    scale = np.where(norms > lam, lam / np.where(norms > 0, norms, 1.0), 1.0)
    return g * scale[:, None]


def solve_dual_sdp(problem: DualSdpProblem, opts: SolverOptions | None = None) -> SdpSolution:
    """Run the ADMM splitting until both residuals pass the stopping rule.

    The stopping threshold is ``_EPS_ABS * (N + L) + _EPS_REL * max(|X|_F
    over the last two iterates)`` applied to both the primal residual
    |X - Z|_F and the dual residual rho * |Z - Z_prev|_F. On non-convergence
    the best (final) iterate is returned with ``converged=False``.
    """
    opts = opts or SolverOptions()
    y = np.asarray(problem.measurement, dtype=complex)
    n, l = y.shape
    lam = problem.lam
    dim = n + l
    rho = _PENALTY
    alpha = _OVER_RELAXATION
    eye_l = np.eye(l)

    # The affine step takes z - u as it is: it is already Hermitian bit for
    # bit, so hermitizing it would change no bit. By induction over the
    # iterations: z is exactly Hermitian with a +0 imaginary diagonal, because
    # project_psd symmetrizes the Z it returns; u, x and x_rel are updated
    # elementwise from exactly Hermitian operands and real scalars, which keeps
    # every mirrored pair conjugate and every diagonal imaginary part a zero of
    # either sign (over-relaxation scales +0 by 1 - alpha < 0 and sums it with
    # +0); and +0 minus a zero of either sign is +0. The PSD step is the public
    # project_psd (the layer perfbench times): it hermitizes an input that is
    # already exactly Hermitian, which changes no bit.
    def affine_prox(h: np.ndarray, rho_: float) -> np.ndarray:
        gam = project_row_ball(h[:n, n:] + y / (2.0 * rho_), lam)
        x = np.empty_like(h)
        x[:n, :n] = _affine_hermitian(h[:n, :n])
        x[:n, n:] = gam
        x[n:, :n] = gam.conj().T
        x[n:, n:] = eye_l
        return x

    # start from a point feasible for both blocks
    x = np.zeros((dim, dim), dtype=complex)
    x[:n, :n] = np.eye(n) / n
    x[n:, n:] = eye_l
    z = x.copy()
    u = np.zeros_like(x)
    norm_prev = float(np.linalg.norm(x))

    history = []
    iterations = opts.max_iterations
    converged = False
    r_norm = s_norm = math.inf

    for it in range(1, opts.max_iterations + 1):
        x = affine_prox(z - u, rho)
        x_rel = alpha * x + (1.0 - alpha) * z
        z_new = project_psd(x_rel + u)
        u = u + x_rel - z_new

        r_norm = float(np.linalg.norm(x - z_new))
        s_norm = rho * float(np.linalg.norm(z_new - z))
        z = z_new
        if not (math.isfinite(r_norm) and math.isfinite(s_norm)):
            raise NumericalFailureError(
                f"non-finite residuals at iteration {it} (rho={rho})"
            )

        norm_x = float(np.linalg.norm(x))
        tol = _EPS_ABS * dim + _EPS_REL * max(norm_x, norm_prev)
        norm_prev = norm_x

        if it % _DIAG_EVERY == 0 or it == 1:
            history.append(
                (it, float(np.real(np.vdot(y, x[:n, n:]))), r_norm, s_norm)
            )
        if r_norm < tol and s_norm < tol:
            iterations = it
            converged = True
            break
        # residual balancing; a fixed rho took 7x the iterations at N=50, L=5
        if r_norm > 10.0 * s_norm and rho < 1e4:
            rho *= 2.0
            u /= 2.0
        elif s_norm > 10.0 * r_norm and rho > 1e-4:
            rho /= 2.0
            u *= 2.0

    gamma = x[:n, n:].copy()
    lambda_mat = x[:n, :n].copy()
    objective = float(np.real(np.vdot(y, gamma)))
    history.append((iterations, objective, r_norm, s_norm))
    return SdpSolution(
        gamma=gamma,
        lambda_mat=lambda_mat,
        objective=objective,
        primal_residual=r_norm,
        dual_residual=s_norm,
        iterations=iterations,
        converged=converged,
        diagnostics=np.array(history, dtype=float),
    )

