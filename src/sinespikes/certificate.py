"""Construction and numerical validation of the randomized dual certificate.

The certificate is a dual variable Gamma (N x L) in the layout the solver
and ``trigpoly`` use: row j is the coefficient of exp(-2i*pi*j*f) in
Q(f) = sum_j Gamma[j] exp(-2i*pi*j*f), the polynomial the SDP bounds by one.
With N = 2m + 1, row j carries the kernel index l_j = m - j. The
interpolation kernel is a product of three Dirichlet kernels; its
coefficients are symmetric in l, so row j holds the kernel coefficient of
both m - j and j - m, and restricting the kernel to the clean sensors zeroes
the outlier rows Omega.

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
from dataclasses import dataclass, replace

import numpy as np

from . import trigpoly
from .errors import CertificateFailureError, InvalidConfigurationError
from .model import wrap_distance
from .synthesis import _streams, _unit_phases

__all__ = [
    "CertificateReport",
    "CertificateSolution",
    "InterpolationSystem",
    "Kernel",
    "ValidationOptions",
    "build_kernel",
    "build_system",
    "restrict_kernel",
    "run_certificate",
    "solve_certificate",
    "validate_certificate",
]

FACTOR_RATES = (0.247, 0.339, 0.414)

# The near region around each frequency has radius _NEAR_RADIUS / m. The
# curvature check samples it at _NEAR_GRID equispaced points, taken for all
# regions at once by ``trigpoly.arc_curvature``. A system whose
# condition number exceeds _CONDITION_LIMIT is reported as a failure.
_NEAR_RADIUS = 0.09
_NEAR_GRID = 401
_CONDITION_LIMIT = 1e10


@dataclass(frozen=True)
class Kernel:
    """Triple-Dirichlet interpolation kernel laid out over sensor rows.

    ``coefficients[j]`` is the kernel coefficient at index l_j = m - j; a
    restricted kernel has the outlier rows zeroed. ``kappa`` is
    1 / sqrt(|K''(0)|) of the unrestricted kernel.
    """

    half_length: int
    coefficients: np.ndarray  # (2m+1,), real
    kappa: float

    @property
    def n_sensors(self) -> int:
        return 2 * self.half_length + 1


def build_kernel(m: int) -> Kernel:
    """Convolve three Dirichlet coefficient boxes; peak value is one at f=0."""
    if m < 4:
        raise InvalidConfigurationError(f"kernel half-length must be >= 4, got {m}")
    coeffs = np.array([1.0])
    for rate in FACTOR_RATES:
        mi = int(math.floor(rate * m))
        coeffs = np.convolve(coeffs, np.full(2 * mi + 1, 1.0 / (2 * mi + 1)))
    half_support = coeffs.size // 2
    full = np.zeros(2 * m + 1)
    full[m - half_support : m + half_support + 1] = coeffs
    # K''(0) = -sum_l (2*pi*l)^2 c_l
    kappa = 1.0 / math.sqrt(np.sum((2 * np.pi * np.arange(-m, m + 1)) ** 2 * full))
    return Kernel(half_length=m, coefficients=full, kappa=kappa)


def restrict_kernel(kernel: Kernel, omega) -> Kernel:
    """Zero the coefficients on the sensor rows ``omega``; kappa is kept."""
    n = kernel.n_sensors
    idx = np.asarray(sorted(int(i) for i in np.atleast_1d(omega)), dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InvalidConfigurationError(
            f"sensor indices must lie in 0..{n - 1}, got range "
            f"[{idx.min()}, {idx.max()}]"
        )
    coeffs = kernel.coefficients.copy()
    coeffs[idx] = 0.0
    return replace(kernel, coefficients=coeffs)


@dataclass(frozen=True)
class InterpolationSystem:
    """The 2K x 2K interpolation system and its right-hand-side pieces."""

    matrix: np.ndarray          # F^H C F = [[D0, D1], [-D1, D2]]
    basis: np.ndarray           # F, (N, 2K)
    phi: np.ndarray             # (K, L), rows h_k b_k^H
    r: np.ndarray               # (s, L), unit rows
    freqs: np.ndarray
    omega: np.ndarray           # sensor indices of the outlier rows
    kernel: Kernel

    @property
    def b_omega(self) -> np.ndarray:
        """F[Omega]^H, (2K, s): node values and scaled derivatives of the outlier rows."""
        return self.basis[self.omega].conj().T


def build_system(freqs, omega, h, b, r, kernel: Kernel) -> InterpolationSystem:
    """Fill the interpolation blocks for the given sign pattern.

    D0, D1, D2 hold the restricted kernel and its derivatives, scaled by
    kappa and kappa^2, at the pairwise frequency differences.
    """
    f = np.atleast_1d(np.asarray(freqs, dtype=float))
    om = np.asarray(sorted(int(i) for i in np.atleast_1d(omega)), dtype=int)
    h = np.atleast_1d(np.asarray(h, dtype=complex))
    b = np.atleast_2d(np.asarray(b, dtype=complex))
    r = np.asarray(r, dtype=complex).reshape(om.size, -1) if om.size else np.zeros((0, b.shape[1]), complex)
    k = f.size
    if h.shape != (k,) or b.shape[0] != k:
        raise InvalidConfigurationError("h and b must provide one row per frequency")
    if not np.allclose(np.abs(h), 1.0, atol=1e-9):
        raise InvalidConfigurationError("h entries must be unit modulus")
    if not np.allclose(np.linalg.norm(b, axis=1), 1.0, atol=1e-9):
        raise InvalidConfigurationError("b rows must be unit norm")
    if om.size and not np.allclose(np.linalg.norm(r, axis=1), 1.0, atol=1e-9):
        raise InvalidConfigurationError("r rows must be unit norm")

    l = kernel.half_length - np.arange(kernel.n_sensors)
    e = np.exp(-2j * np.pi * np.outer(l, f))
    basis = np.hstack([e, (2j * np.pi * kernel.kappa * l)[:, None] * e])
    matrix = basis.conj().T @ (kernel.coefficients[:, None] * basis)
    phi = h[:, None] * b.conj()
    return InterpolationSystem(
        matrix=matrix, basis=basis, phi=phi, r=r, freqs=f, omega=om, kernel=kernel,
    )


@dataclass(frozen=True)
class CertificateSolution:
    """Solved coefficients and the assembled dual variable."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray          # (N, L) dual variable in solver units
    system: InterpolationSystem
    lam: float
    condition_number: float

    @property
    def freqs(self) -> np.ndarray:
        return self.system.freqs

    @property
    def omega(self) -> np.ndarray:
        return self.system.omega


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
    n = system.kernel.n_sensors
    k = system.freqs.size
    n_snap = system.phi.shape[1]
    if lam is None:
        lam = 1.0 / math.sqrt(n)

    cond = float(np.linalg.cond(system.matrix))
    if not np.isfinite(cond) or cond > _CONDITION_LIMIT:
        raise CertificateFailureError(
            f"interpolation system condition number {cond:.3e} exceeds {_CONDITION_LIMIT:.1e}"
        )

    rhs = np.vstack([system.phi, np.zeros((k, n_snap))])
    if system.omega.size:
        rhs = rhs - lam * (system.b_omega @ system.r)
    ab = np.linalg.solve(system.matrix, rhs)
    alpha, beta = ab[:k], ab[k:]
    gamma = system.kernel.coefficients[:, None] * (system.basis @ ab)
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


def _far_from(grid: np.ndarray, freqs: np.ndarray, radius: float) -> np.ndarray:
    """Mask of the grid points i/G farther than ``radius`` from every frequency.

    A point within ``radius`` of f_k lies less than radius * G + 1 steps
    from the grid index nearest f_k, so the distance is evaluated on those
    indices only.
    """
    size = grid.size
    freqs = np.asarray(freqs, dtype=float)[:, None]
    reach = math.ceil(radius * size) + 1
    idx = (np.rint(freqs * size).astype(int) + np.arange(-reach, reach + 1)) % size
    far = np.ones(size, dtype=bool)
    far[idx[wrap_distance(grid[idx], freqs) <= radius]] = False
    return far


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
    """
    opts = opts or ValidationOptions()
    sys = cert.system
    m = sys.kernel.half_length
    n = sys.kernel.n_sensors
    freqs = sys.freqs
    gamma = cert.gamma

    # interpolation residual: P(f) = sum_j gamma[j] exp(2i*pi*l_j*f) with
    # l_j = m - j, so P and P' at the nodes are exp(2i*pi*m*f_k) times the
    # row sums of gamma and of 2i*pi*l_j gamma[j]
    l = m - np.arange(n)
    nodes = np.exp(2j * np.pi * m * freqs)[:, None] * trigpoly.evaluate(
        np.hstack([gamma, 2j * np.pi * l[:, None] * gamma]), freqs)
    p_val, p_der = np.split(nodes, 2, axis=1)
    res_val = float(np.linalg.norm(p_val - sys.phi, axis=1).max(initial=0.0))
    res_der = float((sys.kernel.kappa * np.linalg.norm(p_der, axis=1)).max(initial=0.0))
    interpolation_residual = max(res_val, res_der)

    coef = trigpoly.coefficients(gamma)

    # off-support bound on a dense grid, excluding the near regions
    grid, qnorm = trigpoly.scan(coef, opts.grid_size)
    radius = _NEAR_RADIUS / m
    far = _far_from(grid, freqs, radius)
    offgrid_max = float(qnorm[far].max()) if far.any() else math.inf

    # curvature of ||Q||^2 at _NEAR_GRID equispaced points across each near
    # region; every region shares the step, so one chirp-z transform samples all
    curv = trigpoly.arc_curvature(coef, freqs, radius, _NEAR_GRID)
    curv_max = float(curv.max(initial=-math.inf))

    # rows outside the support must stay strictly inside the ball
    row_norms = np.linalg.norm(gamma, axis=1)
    clean = np.setdiff1d(np.arange(n), sys.omega)
    outlier_row_margin = float(row_norms[clean].max() / cert.lam) if clean.size else 0.0

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


def run_certificate(n_sensors: int, n_frequencies: int, separation: float,
                    n_outliers: int, n_snapshots: int = 3, seed: int = 0,
                    lam: float | None = None,
                    opts: ValidationOptions | None = None):
    """Draw a random instance of the construction, solve and validate it.

    Frequencies are an equispaced train at the requested separation with a
    random offset; the sign pattern (node phases, node directions, outlier
    row directions) follows the uniform-phase model. Returns the pair
    (CertificateSolution or None, CertificateReport).
    """
    if n_sensors % 2 != 1:
        raise InvalidConfigurationError("the construction needs an odd sensor count")
    if n_frequencies < 1:
        raise InvalidConfigurationError(f"need at least one frequency, got {n_frequencies}")
    if n_snapshots < 1:
        raise InvalidConfigurationError(f"need at least one snapshot, got {n_snapshots}")
    if not 0 <= n_outliers <= n_sensors:
        raise InvalidConfigurationError(
            f"the outlier count must lie in 0..{n_sensors}, got {n_outliers}"
        )
    m = (n_sensors - 1) // 2
    rng_f, _, rng_pos, rng_val = _streams(seed)
    freqs = np.sort((rng_f.random() + separation * np.arange(n_frequencies)) % 1.0)
    omega = np.sort(rng_pos.choice(n_sensors, n_outliers, replace=False)) if n_outliers else np.array([], int)
    h = _unit_phases(rng_val, n_frequencies)
    b = rng_val.standard_normal((n_frequencies, n_snapshots)) + 1j * rng_val.standard_normal((n_frequencies, n_snapshots))
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    r = _unit_phases(rng_val, (n_outliers, n_snapshots)) / math.sqrt(n_snapshots)

    kernel = restrict_kernel(build_kernel(m), omega)
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
