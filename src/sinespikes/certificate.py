"""Construction and numerical validation of the randomized dual certificate.

The certificate is a dual variable Gamma (N x L) in the layout the solver
and ``trigpoly`` use: row j is the coefficient of exp(-2i*pi*j*f) in
Q(f) = sum_j Gamma[j] exp(-2i*pi*j*f), the polynomial the SDP bounds by one.
With N = 2m + 1, row j carries the kernel index l_j = m - j. The
interpolation kernel is a product of three Dirichlet kernels, held as its
vector of N real coefficients; its coefficients are symmetric in l, so row j
holds the kernel coefficient of both m - j and j - m, and restricting the
kernel to the clean sensors zeroes the outlier rows Omega. The kernel, m
and the scale kappa = 1 / sqrt(|K''(0)|) are fixed by N, so m is read from
the vector's length and kappa from the size table of m.

With E[j, k] = exp(-2i*pi*l_j*f_k), F = [E, kappa diag(2i*pi*l) E] and
C = diag(restricted kernel coefficients), the certificate is
Gamma = C F [alpha; beta] plus lam * r on the rows Omega, which fixes the
outlier rows on the ball boundary. F^H Gamma stacks P(f_k) and -kappa P'(f_k)
for P(f) = exp(2i*pi*m*f) Q(f), which has the same norm as Q. Pinning P to
the drawn sign pattern at the true frequencies with vanishing derivative is
therefore the 2K x 2K system F^H C F [alpha; beta] = [phi; 0] - lam F[Omega]^H r.

Validation reads Gamma through ``trigpoly``. Its node check compares P and
P' at the true frequencies with [phi; 0], the equations the system states;
it then checks the off-support bound, the near-region curvature sign, and
the off-support row norms on finite grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import trigpoly
from .errors import CertificateFailureError, InvalidConfigurationError
from .model import default_lambda, sensor_rows, wrap_distance
from .synthesis import FREQUENCIES, POSITIONS, VALUES, stream, unit_phases

__all__ = [
    "CertificateReport",
    "CertificateSolution",
    "InterpolationSystem",
    "ValidationOptions",
    "build_kernel",
    "build_system",
    "check_sizes",
    "default_separation",
    "restrict_kernel",
    "run_certificate",
    "solve_certificate",
    "validate_certificate",
]

_FACTOR_RATES = (0.247, 0.339, 0.414)

# The near region around each frequency has radius _NEAR_RADIUS / m. The
# curvature check samples it at _NEAR_GRID equispaced points, taken for all
# regions at once by ``trigpoly.arc_curvature``. A system whose
# condition number exceeds _CONDITION_LIMIT is reported as a failure.
_NEAR_RADIUS = 0.09
_NEAR_GRID = 401
_CONDITION_LIMIT = 1e10

# |x - 1| <= _UNIT_TOL is np.allclose(x, 1.0, atol=1e-9) with its default
# rtol of 1e-5; NaN and infinities fail it as they fail allclose.
_UNIT_TOL = 1e-9 + 1e-5


def _is_unit(values: np.ndarray) -> bool:
    return bool(np.all(np.abs(values - 1.0) <= _UNIT_TOL))


def build_kernel(m: int) -> np.ndarray:
    """The kernel's 2m+1 coefficients; entry j is at index l_j = m - j.

    Three Dirichlet coefficient boxes convolved; the peak value is one at
    f=0. The coefficients depend on m only and are computed once per m;
    each call returns its own copy of them.
    """
    return _size_table(m).coefficients.copy()


class _SizeTable(NamedTuple):
    coefficients: np.ndarray       # kernel coefficients over l = -m..m
    kappa: float
    rows: np.ndarray               # kernel indices l_j = m - j of the 2m+1 rows
    row_weight: np.ndarray         # column 2i*pi*l_j, weighting the rows of P into those of P'
    derivative_weight: np.ndarray  # 2i*pi*kappa*l_j, the derivative columns of F


@lru_cache(maxsize=16)
def _size_table(m: int) -> _SizeTable:
    """What the certificate needs of m alone, computed once per m; the arrays are read-only."""
    if m < 4:
        raise InvalidConfigurationError(f"kernel half-length must be >= 4, got {m}")
    coeffs = np.array([1.0])
    for rate in _FACTOR_RATES:
        mi = int(math.floor(rate * m))
        coeffs = np.convolve(coeffs, np.full(2 * mi + 1, 1.0 / (2 * mi + 1)))
    half_support = coeffs.size // 2
    full = np.zeros(2 * m + 1)
    full[m - half_support : m + half_support + 1] = coeffs
    # K''(0) = -sum_l (2*pi*l)^2 c_l
    kappa = 1.0 / math.sqrt(np.sum((2 * np.pi * np.arange(-m, m + 1)) ** 2 * full))
    l = m - np.arange(2 * m + 1)
    row_weight = 2j * np.pi * l[:, None]
    derivative_weight = 2j * np.pi * kappa * l
    for array in (full, l, row_weight, derivative_weight):
        array.flags.writeable = False
    return _SizeTable(full, kappa, l, row_weight, derivative_weight)


def restrict_kernel(kernel, omega) -> np.ndarray:
    """A copy of the kernel's coefficients with the sensor rows ``omega`` zeroed.

    ``omega`` must hold distinct integer indices in 0..N-1.
    """
    weights = np.array(kernel, dtype=float)
    weights[sensor_rows(omega, weights.size)] = 0.0
    return weights


@dataclass(frozen=True)
class InterpolationSystem:
    """The 2K x 2K interpolation system and its right-hand-side pieces.

    N = ``weights.size``, and m and kappa are read from it.
    """

    matrix: np.ndarray          # F^H C F = [[D0, D1], [-D1, D2]]
    basis: np.ndarray           # F, (N, 2K)
    phi: np.ndarray             # (K, L), rows h_k b_k^H
    r: np.ndarray               # (s, L), unit rows; row i belongs to omega[i]
    freqs: np.ndarray
    omega: np.ndarray           # ascending sensor indices of the outlier rows
    weights: np.ndarray         # (N,), the restricted kernel coefficients: the diagonal of C


def build_system(freqs, omega, h, b, r, kernel) -> InterpolationSystem:
    """Fill the interpolation blocks for the given sign pattern.

    ``kernel`` is the vector of N = 2m + 1 restricted kernel coefficients
    (``restrict_kernel``), with m >= 4; m is read from its length. D0, D1,
    D2 hold the restricted kernel and its derivatives, scaled by kappa and
    kappa^2, at the pairwise frequency differences. ``omega``
    must hold s distinct integer indices in 0..N-1, ``h`` K unit phases,
    ``b`` K unit rows of length L, and ``r`` an (s, L) array of unit rows,
    row i for sensor row omega[i]. The system holds omega ascending and r's
    rows in that order. The row indices l_j and the derivative weights
    2i*pi*kappa*l_j depend on m only; they are computed once per m and kept
    read-only.
    """
    weights = np.asarray(kernel, dtype=float)
    if weights.ndim != 1 or weights.size % 2 != 1:
        raise InvalidConfigurationError(
            f"kernel must be a vector of odd length 2m+1, got shape {weights.shape}")
    table = _size_table(weights.size // 2)
    f = np.atleast_1d(np.asarray(freqs, dtype=float))
    om = sensor_rows(omega, weights.size)
    h = np.atleast_1d(np.asarray(h, dtype=complex))
    b = np.atleast_2d(np.asarray(b, dtype=complex))
    r = np.asarray(r, dtype=complex)
    k = f.size
    if h.shape != (k,) or b.shape[0] != k:
        raise InvalidConfigurationError("h and b must provide one row per frequency")
    if r.shape != (om.size, b.shape[1]):
        raise InvalidConfigurationError(
            f"r must have shape {(om.size, b.shape[1])}, one row per outlier row, got {r.shape}")
    if not _is_unit(np.abs(h)):
        raise InvalidConfigurationError("h entries must be unit modulus")
    if not _is_unit(np.linalg.norm(b, axis=1)):
        raise InvalidConfigurationError("b rows must be unit norm")
    if not _is_unit(np.linalg.norm(r, axis=1)):
        raise InvalidConfigurationError("r rows must be unit norm")
    r = r[np.argsort(np.atleast_1d(omega), kind="stable")]  # r's rows in om's order

    e = np.exp(-2j * np.pi * np.outer(table.rows, f))
    basis = np.concatenate([e, table.derivative_weight[:, None] * e], axis=1)
    matrix = basis.conj().T @ (weights[:, None] * basis)
    phi = h[:, None] * b.conj()
    return InterpolationSystem(
        matrix=matrix, basis=basis, phi=phi, r=r, freqs=f, omega=om, weights=weights,
    )


@dataclass(frozen=True)
class CertificateSolution:
    """Solved coefficients and the assembled dual variable.

    The frequencies and outlier rows it certifies are ``system.freqs`` and
    ``system.omega``.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray          # (N, L) dual variable in solver units
    system: InterpolationSystem
    lam: float
    condition_number: float


def solve_certificate(system: InterpolationSystem,
                      lam: float | None = None) -> CertificateSolution:
    """Solve for the coefficient rows and assemble the dual variable.

    The right-hand side subtracts lam * F[Omega]^H r, the node values and
    scaled derivatives of the boundary term contributed by the outlier rows
    (lam = 1/sqrt(N) reproduces the canonical construction). Then
    Gamma = C F [alpha; beta] plus lam * r on the rows Omega, where a
    restricted kernel is zero. A condition number above _CONDITION_LIMIT
    raises ``CertificateFailureError``.
    """
    n = system.weights.size
    k = system.freqs.size
    n_snap = system.phi.shape[1]
    if lam is None:
        lam = default_lambda(n)
    if not 0 < lam < math.inf:
        raise InvalidConfigurationError(f"lambda must be positive and finite, got {lam}")

    cond = float(np.linalg.cond(system.matrix))
    if not np.isfinite(cond) or cond > _CONDITION_LIMIT:
        raise CertificateFailureError(
            f"interpolation system condition number {cond:.3e} exceeds {_CONDITION_LIMIT:.1e}"
        )

    rhs = np.concatenate([system.phi, np.zeros((k, n_snap))])
    rhs -= lam * (system.basis[system.omega].conj().T @ system.r)
    ab = np.linalg.solve(system.matrix, rhs)
    alpha, beta = ab[:k], ab[k:]
    gamma = system.weights[:, None] * (system.basis @ ab)
    gamma[system.omega] += lam * system.r
    return CertificateSolution(
        alpha=alpha, beta=beta, gamma=gamma, system=system, lam=lam,
        condition_number=cond,
    )


@dataclass(frozen=True)
class ValidationOptions:
    """Size of the dense grid on which the off-support bound is checked.

    The near regions, of radius _NEAR_RADIUS / m, shrink with the
    resolution and are excluded from that grid.
    """

    grid_size: int = 1 << 14


@dataclass(frozen=True)
class CertificateReport:
    interpolation_residual: float
    offgrid_max: float
    near_curvature_max: float
    outlier_row_margin: float
    condition_number_d: float
    passed: bool
    failure: str | None = None

    def to_json(self) -> dict:
        return {
            "interpolation_residual": self.interpolation_residual,
            "offgrid_max": self.offgrid_max,
            "near_curvature_max": self.near_curvature_max,
            "outlier_row_margin": self.outlier_row_margin,
            "condition_number_d": self.condition_number_d,
            "pass": self.passed,
            "failure": self.failure,
        }


def _near_indices(grid: np.ndarray, freqs: np.ndarray, radius: float) -> np.ndarray:
    """Indices of the grid points i/G within ``radius`` of some frequency.

    A point within ``radius`` of f_k lies less than radius * G + 1 steps
    from the grid index nearest f_k, so the distance is evaluated on those
    indices only. An index near two frequencies may appear twice.
    """
    size = grid.size
    freqs = np.asarray(freqs, dtype=float)[:, None]
    reach = math.ceil(radius * size) + 1
    idx = (np.rint(freqs * size).astype(int) + np.arange(-reach, reach + 1)) % size
    return idx[wrap_distance(grid[idx], freqs) <= radius]


def validate_certificate(cert: CertificateSolution,
                         opts: ValidationOptions | None = None) -> CertificateReport:
    """Check the optimality conditions of a solved certificate on grids.

    All checks read Q from the assembled dual variable. They are: P and
    kappa P' at the nodes against [phi; 0] for P = exp(2i*pi*m*f) Q
    (interpolation residual), the strict bound ||Q(f)|| < 1 away from the
    near regions, the curvature of ||Q||^2 being negative throughout the
    near regions, and the off-support rows of the dual variable staying
    strictly inside the ball. The on-support rows equal lam times the drawn
    unit rows by construction.

    N is the length of ``cert.system.weights``; m = N // 2, and kappa and
    the node-derivative weights 2i*pi*l_j depend on m only: they are
    computed once per m and kept read-only. The off-support bound is the
    maximum of the scan after its near-region points are set to -inf, so no
    grid-sized mask is built; it is inf when no grid point is left and NaN
    when a value left is NaN.
    """
    opts = opts or ValidationOptions()
    sys = cert.system
    n = sys.weights.size
    m = n // 2
    table = _size_table(m)
    freqs = sys.freqs
    gamma = cert.gamma

    # interpolation residual: P(f) = sum_j gamma[j] exp(2i*pi*l_j*f) with
    # l_j = m - j, so P and P' at the nodes are exp(2i*pi*m*f_k) times the
    # row sums of gamma and of 2i*pi*l_j gamma[j]
    n_snap = gamma.shape[1]
    nodes = np.exp(2j * np.pi * m * freqs)[:, None] * trigpoly.evaluate(
        np.concatenate([gamma, table.row_weight * gamma], axis=1), freqs)
    p_val, p_der = nodes[:, :n_snap], nodes[:, n_snap:]
    res_val = float(np.linalg.norm(p_val - sys.phi, axis=1).max(initial=0.0))
    res_der = float((table.kappa * np.linalg.norm(p_der, axis=1)).max(initial=0.0))
    interpolation_residual = max(res_val, res_der)

    coef = trigpoly.coefficients(gamma)

    # off-support bound on a dense grid, excluding the near regions
    grid, qnorm = trigpoly.scan(coef, opts.grid_size)
    radius = _NEAR_RADIUS / m
    qnorm[_near_indices(grid, freqs, radius)] = -math.inf
    offgrid_max = float(qnorm.max())
    if offgrid_max == -math.inf:
        offgrid_max = math.inf

    # curvature of ||Q||^2 at _NEAR_GRID equispaced points across each near
    # region; every region shares the step, so one chirp-z transform samples all
    curv = trigpoly.arc_curvature(coef, freqs, radius, _NEAR_GRID)
    curv_max = float(curv.max(initial=-math.inf))

    # rows outside the support must stay strictly inside the ball
    row_norms = np.linalg.norm(gamma, axis=1)
    clean = np.ones(n, dtype=bool)
    clean[sys.omega] = False
    outlier_row_margin = float(row_norms[clean].max(initial=0.0) / cert.lam)

    passed = (
        interpolation_residual <= 1e-8
        and offgrid_max < 1.0
        and curv_max < 0.0
        and outlier_row_margin < 1.0
    )
    return CertificateReport(
        interpolation_residual=interpolation_residual,
        offgrid_max=offgrid_max,
        near_curvature_max=curv_max,
        outlier_row_margin=outlier_row_margin,
        condition_number_d=cert.condition_number,
        passed=passed,
    )


def default_separation(n_sensors: int) -> float:
    """Separation 4 / (N - 1) of ``run_certificate``'s train when none is given."""
    return 4.0 / (n_sensors - 1)


def check_sizes(n_sensors: int, n_frequencies: int, n_outliers: int, n_snapshots: int) -> None:
    """Reject the sizes the construction is not defined for (m = (N - 1) / 2 >= 4)."""
    if n_sensors % 2 != 1 or n_sensors < 9:
        raise InvalidConfigurationError(f"n_sensors must be odd and at least 9, got {n_sensors}")
    if n_frequencies < 1:
        raise InvalidConfigurationError(f"n_frequencies must be at least 1, got {n_frequencies}")
    if n_snapshots < 1:
        raise InvalidConfigurationError(f"n_snapshots must be at least 1, got {n_snapshots}")
    if not 0 <= n_outliers <= n_sensors:
        raise InvalidConfigurationError(f"n_outliers must lie in 0..{n_sensors}, got {n_outliers}")


def run_certificate(n_sensors: int, n_frequencies: int, separation: float | None,
                    n_outliers: int, n_snapshots: int = 3, seed: int = 0,
                    lam: float | None = None,
                    opts: ValidationOptions | None = None):
    """Draw a random instance of the construction, solve and validate it.

    Frequencies are an equispaced train at the requested separation (None
    means ``default_separation(n_sensors)``) with a random offset; the
    separation is not checked, so a train may wrap onto itself. The sign
    pattern (node phases, node directions, outlier row directions) follows
    the uniform-phase model. Returns the pair
    (CertificateSolution or None, CertificateReport).
    """
    check_sizes(n_sensors, n_frequencies, n_outliers, n_snapshots)
    if seed < 0:
        raise InvalidConfigurationError(f"seed must be nonnegative, got {seed}")
    opts = opts or ValidationOptions()
    trigpoly.grid_points(n_sensors, opts.grid_size)  # a coarse grid fails before any draw
    m = (n_sensors - 1) // 2
    kernel = build_kernel(m)
    if separation is None:
        separation = default_separation(n_sensors)
    # synthesis' frequency, position and value streams; the amplitude stream is unread
    rng_f, rng_pos, rng_val = (stream(seed, i) for i in (FREQUENCIES, POSITIONS, VALUES))
    freqs = np.sort((rng_f.random() + separation * np.arange(n_frequencies)) % 1.0)
    omega = np.sort(rng_pos.choice(n_sensors, n_outliers, replace=False))
    h = unit_phases(rng_val, n_frequencies)
    b = rng_val.standard_normal((n_frequencies, n_snapshots)) + 1j * rng_val.standard_normal((n_frequencies, n_snapshots))
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    r = unit_phases(rng_val, (n_outliers, n_snapshots)) / math.sqrt(n_snapshots)

    kernel = restrict_kernel(kernel, omega)
    # premodulate the node targets so that Q itself interpolates h_k b_k^H
    h_mod = np.exp(2j * np.pi * m * freqs) * h
    system = build_system(freqs, omega, h_mod, b, r, kernel)
    try:
        cert = solve_certificate(system, lam=lam)
    except CertificateFailureError as exc:
        return None, CertificateReport(
            interpolation_residual=math.nan,
            offgrid_max=math.nan,
            near_curvature_max=math.nan,
            outlier_row_margin=math.nan,
            condition_number_d=float(np.linalg.cond(system.matrix)),
            passed=False,
            failure=str(exc),
        )
    report = validate_certificate(cert, opts)
    return cert, report
