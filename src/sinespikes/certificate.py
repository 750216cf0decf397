"""Construction and numerical validation of the randomized dual certificate.

The interpolation kernel is a product of three Dirichlet kernels whose
coefficient sequence lives on symmetric indices l = -m..m with N = 2m + 1.
Sensor indices j = 0..N-1 map to symmetric indices via l = j - m; because
the dual polynomial pairs rows against exp(-2i*pi*j*f), a polynomial built
from the symmetric kernel picks up a modulation exp(-2i*pi*m*f) once its
coefficients are laid out over sensor rows, and the coefficient that lands
on row j is the symmetric coefficient at m - j (a reflection).  The
reflection is applied when the dual variable is assembled, and the node
targets are premodulated, so that the assembled dual variable, read through
``localization_polynomial``, is exp(-2i*pi*m*f) times the kernel
combination and interpolates the drawn sign pattern itself.

The construction solves a 2K x 2K linear system that pins the polynomial to
a drawn sign pattern at the true frequencies with vanishing derivative,
after subtracting the contribution of the outlier rows, whose dual rows are
fixed on the ball boundary.  Validation evaluates the assembled dual
variable and checks the interpolation residual, the off-support bound, the
near-region curvature sign, and the off-support row norms on finite grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import trigpoly
from .dual_analysis import localization_polynomial
from .errors import CertificateFailureError, InvalidConfigurationError
from .model import wrap_distance
from .synthesis import _streams, _unit_phases

__all__ = [
    "CertificateReport",
    "CertificateSolution",
    "InterpolationSystem",
    "Kernel",
    "RestrictedKernel",
    "ValidationOptions",
    "build_kernel",
    "build_system",
    "curvature_scale",
    "kernel_eval",
    "restrict_kernel",
    "run_certificate",
    "solve_certificate",
    "validate_certificate",
]

FACTOR_RATES = (0.247, 0.339, 0.414)


@dataclass(frozen=True)
class Kernel:
    """Triple-Dirichlet interpolation kernel on symmetric indices -m..m."""

    half_length: int
    coefficients: np.ndarray  # (2m+1,), real; entry l+m holds index l
    factor_orders: tuple

    @property
    def n_sensors(self) -> int:
        return 2 * self.half_length + 1


@dataclass(frozen=True)
class RestrictedKernel:
    """Kernel with the coefficients on a set of symmetric indices zeroed."""

    base: Kernel
    kept_mask: np.ndarray  # (2m+1,) bool over symmetric indices

    @property
    def half_length(self) -> int:
        return self.base.half_length

    @property
    def n_sensors(self) -> int:
        return self.base.n_sensors

    @property
    def coefficients(self) -> np.ndarray:
        return self.base.coefficients * self.kept_mask


def build_kernel(m: int) -> Kernel:
    """Convolve three Dirichlet coefficient boxes; peak value is one at f=0."""
    if m < 4:
        raise InvalidConfigurationError(f"kernel half-length must be >= 4, got {m}")
    orders = tuple(int(math.floor(rate * m)) for rate in FACTOR_RATES)
    coeffs = np.array([1.0])
    for mi in orders:
        coeffs = np.convolve(coeffs, np.full(2 * mi + 1, 1.0 / (2 * mi + 1)))
    half_support = sum(orders)
    full = np.zeros(2 * m + 1)
    full[m - half_support : m + half_support + 1] = coeffs
    return Kernel(half_length=m, coefficients=full, factor_orders=orders)


def restrict_kernel(kernel: Kernel, omega) -> RestrictedKernel:
    """Zero the coefficients at the symmetric images j - m of sensor set omega."""
    m = kernel.half_length
    n = kernel.n_sensors
    idx = np.asarray(sorted(int(i) for i in np.atleast_1d(omega)), dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InvalidConfigurationError(
            f"sensor indices must lie in 0..{n - 1}, got range "
            f"[{idx.min()}, {idx.max()}]"
        )
    mask = np.ones(n, dtype=bool)
    mask[idx] = False  # symmetric index (j - m) is stored at position j
    return RestrictedKernel(base=kernel, kept_mask=mask)


def kernel_eval(kernel, f, order: int = 0):
    """Evaluate sum_l (2i*pi*l)^order c_l exp(2i*pi*l*f) over the kept support."""
    if order not in (0, 1, 2, 3):
        raise InvalidConfigurationError(f"derivative order must be 0..3, got {order}")
    m = kernel.half_length
    l = np.arange(-m, m + 1)
    weights = kernel.coefficients * (2j * np.pi * l) ** order
    farr = np.atleast_1d(np.asarray(f, dtype=float))
    vals = np.exp(2j * np.pi * np.outer(farr, l)) @ weights
    return vals[0] if np.isscalar(f) else vals


def curvature_scale(kernel: Kernel) -> float:
    """kappa = 1 / sqrt(|K''(0)|); K''(0) is negative at the peak."""
    second = np.real(kernel_eval(kernel, 0.0, order=2))
    return 1.0 / math.sqrt(abs(second))


@dataclass(frozen=True)
class InterpolationSystem:
    """The 2K x 2K interpolation system and its right-hand-side pieces."""

    matrix: np.ndarray          # [[D0, D1], [D1^T, D2]]
    phi: np.ndarray             # (K, L), rows h_k b_k^H
    b_omega: np.ndarray         # (2K, s), columns nu(d - m)
    r: np.ndarray               # (s, L), unit rows
    kappa: float
    freqs: np.ndarray
    omega: np.ndarray           # sensor indices of the outlier rows
    kernel: RestrictedKernel


def build_system(freqs, omega, h, b, r, kernel: RestrictedKernel) -> InterpolationSystem:
    """Fill the interpolation blocks for the given sign pattern.

    D0, D1, D2 hold the restricted kernel and its scaled derivatives at the
    pairwise frequency differences; the second block row uses -D1, which
    equals the transpose for the symmetric unrestricted kernel and enforces
    the exact derivative condition in general.
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

    kappa = curvature_scale(kernel.base)
    diff = (f[:, None] - f[None, :]).ravel()
    d0 = kernel_eval(kernel, diff).reshape(k, k)
    d1 = kappa * kernel_eval(kernel, diff, 1).reshape(k, k)
    d2 = -(kappa**2) * kernel_eval(kernel, diff, 2).reshape(k, k)
    matrix = np.block([[d0, d1], [-d1, d2]])

    m = kernel.half_length
    g = om - m  # symmetric indices of the outlier rows
    phase = np.exp(-2j * np.pi * np.outer(f, g))  # (K, s)
    b_omega = np.vstack([phase, (2j * np.pi * g) * kappa * phase]).reshape(2 * k, om.size)

    phi = h[:, None] * b.conj()
    return InterpolationSystem(
        matrix=matrix, phi=phi, b_omega=b_omega, r=r, kappa=kappa,
        freqs=f, omega=om, kernel=kernel,
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
    targets: np.ndarray        # intended node values of Q, (K, L)

    @property
    def freqs(self) -> np.ndarray:
        return self.system.freqs

    @property
    def omega(self) -> np.ndarray:
        return self.system.omega


def solve_certificate(system: InterpolationSystem, lam: float | None = None,
                      condition_limit: float = 1e10) -> CertificateSolution:
    """Solve for the coefficient rows and assemble the dual variable.

    The right-hand side subtracts lam * B_Omega r, the node values and scaled
    derivatives of the boundary term contributed by the outlier rows
    (lam = 1/sqrt(N) reproduces the canonical construction).
    """
    kern = system.kernel
    m = kern.half_length
    n = kern.n_sensors
    k = system.freqs.size
    n_snap = system.phi.shape[1]
    if lam is None:
        lam = 1.0 / math.sqrt(n)

    cond = float(np.linalg.cond(system.matrix))
    if not np.isfinite(cond) or cond > condition_limit:
        raise CertificateFailureError(
            f"interpolation system condition number {cond:.3e} exceeds {condition_limit:.1e}"
        )

    rhs = np.vstack([system.phi, np.zeros((k, n_snap))])
    if system.omega.size:
        rhs = rhs - lam * (system.b_omega @ system.r)
    ab = np.linalg.solve(system.matrix, rhs)
    alpha, beta = ab[:k], ab[k:]

    # plus-convention coefficients of P over symmetric indices
    l = np.arange(-m, m + 1)
    coeffs = kern.coefficients
    p = np.zeros((n, n_snap), dtype=complex)
    for k_idx in range(k):
        phase = coeffs * np.exp(-2j * np.pi * l * system.freqs[k_idx])
        p += np.outer(phase, alpha[k_idx])
        p += np.outer(phase * (2j * np.pi * l) * system.kappa, beta[k_idx])
    for i, d in enumerate(system.omega):
        p[(m - int(d)) + m] += lam * system.r[i]
    # row j of Gamma carries the symmetric coefficient at m - j
    gamma = p[::-1].copy()

    mod = np.exp(-2j * np.pi * m * system.freqs)
    targets = mod[:, None] * system.phi
    return CertificateSolution(
        alpha=alpha, beta=beta, gamma=gamma, system=system, lam=lam,
        condition_number=cond, targets=targets,
    )


@dataclass(frozen=True)
class ValidationOptions:
    """Grids and regions for the numerical validation of a certificate.

    ``near_radius`` is interpreted in units of 1/m when
    ``near_radius_scaled`` is set (the default), matching constructions
    whose near regions shrink with the resolution.
    """

    grid_size: int = 1 << 14
    near_radius: float = 0.09
    near_radius_scaled: bool = True
    near_grid: int = 401
    condition_limit: float = 1e10


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


def _near_radius(opts: ValidationOptions, m: int) -> float:
    return opts.near_radius / m if opts.near_radius_scaled else opts.near_radius


def validate_certificate(cert: CertificateSolution,
                         opts: ValidationOptions | None = None) -> CertificateReport:
    """Check the optimality conditions of a solved certificate on grids.

    All checks read the assembled dual variable through
    ``localization_polynomial``. They are: node values of Q against the
    targets and node derivatives of the unmodulated polynomial
    P = exp(2i*pi*m*f) Q (interpolation residual), the strict bound
    ||Q(f)|| < 1 away from the near regions, the curvature of ||Q||^2 being
    negative throughout the near regions, and the off-support rows of the
    dual variable staying strictly inside the ball. The on-support rows
    equal lam times the drawn unit rows by construction.
    """
    opts = opts or ValidationOptions()
    sys = cert.system
    m = sys.kernel.half_length
    n = sys.kernel.n_sensors
    freqs = sys.freqs
    dp = localization_polynomial(cert.gamma)

    # interpolation residual: Q at the nodes against the targets, and
    # ||P'|| = ||Q' + 2i*pi*m Q|| (critical point of ||Q||) at the nodes
    node_vals = dp(freqs, 0)
    res_val = float(np.linalg.norm(node_vals - cert.targets, axis=1).max())
    node_der = dp(freqs, 1) + 2j * np.pi * m * node_vals
    res_der = float((sys.kappa * np.linalg.norm(node_der, axis=1)).max())
    interpolation_residual = max(res_val, res_der)

    # off-support bound on a dense grid, excluding the near regions
    grid, qnorm = trigpoly.scan(dp.gamma, opts.grid_size)
    radius = _near_radius(opts, m)
    dmin = np.min(
        np.stack([wrap_distance(grid, fk) for fk in freqs]), axis=0
    )
    far = dmin > radius
    offgrid_max = float(qnorm[far].max()) if far.any() else math.inf

    # curvature of ||Q||^2 over the near regions
    near = np.linspace(-radius, radius, opts.near_grid)
    curv_max = max(
        (float(trigpoly.curvature(dp.gamma, fk + near).max()) for fk in freqs),
        default=-math.inf,
    )

    # rows outside the support must stay strictly inside the ball
    row_norms = np.linalg.norm(cert.gamma, axis=1)
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
        raise InvalidConfigurationError("need at least one frequency")
    opts = opts or ValidationOptions()
    m = (n_sensors - 1) // 2
    rng_f, _, rng_pos, rng_val = _streams(seed)
    freqs = np.sort((rng_f.random() + separation * np.arange(n_frequencies)) % 1.0)
    omega = np.sort(rng_pos.choice(n_sensors, n_outliers, replace=False)) if n_outliers else np.array([], int)
    h = _unit_phases(rng_val, n_frequencies)
    b = rng_val.standard_normal((n_frequencies, n_snapshots)) + 1j * rng_val.standard_normal((n_frequencies, n_snapshots))
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    r = _unit_phases(rng_val, (n_outliers, n_snapshots)) / math.sqrt(n_snapshots)

    kernel = build_kernel(m)
    # reflect the sensor set so the zeroed symmetric indices are exactly the
    # ones whose coefficients land on the outlier rows of the dual variable
    reflected = (n_sensors - 1) - omega
    restricted = restrict_kernel(kernel, reflected)
    # premodulate the node targets so that Q itself interpolates h_k b_k^H
    h_mod = np.exp(2j * np.pi * m * freqs) * h
    system = build_system(freqs, omega, h_mod, b, r, restricted)
    try:
        cert = solve_certificate(system, lam=lam, condition_limit=opts.condition_limit)
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
