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

The solve stops once its iterate is certified optimal: a lower bound on
the optimum comes from scaling Gamma by the smallest s >= 1 that the
eigenvalues of X prove feasible, and an upper bound from the primal matrix
M = -rho * U (Boyd et al. 2011) repaired into a point of the MMV
atomic-norm SDP (Yang & Xie 2016): its top-left block is averaged onto
Toeplitz matrices and shifted positive definite, its top-right block is
cut to the leading eigenvectors of that block, and its bottom-right block
is the Schur complement that makes the whole PSD. Weak duality puts the
optimum between the two.

The penalty rho is balanced on residuals relative to their own iterates
(Wohlberg 2017, "ADMM penalty parameter selection by residual balancing"),
so the rule does not depend on the scale of the problem.

Between changes of rho the ADMM is a Douglas-Rachford iteration q -> g(q) on
the one matrix q that the PSD step projects: with Z = P(q), U = q - Z and X
the affine-and-ball step of Z - U, g(q) = alpha X + (1 - alpha) Z + U. Its
fixed point is reached sooner by type-II Anderson acceleration (Walker & Ni
2011), which extrapolates from the last _MEMORY steps, with the safeguard of
Zhang, O'Donoghue & Boyd 2020 (SCS 3.0): an extrapolated q is kept only if
its residual |g(q) - q|_F does not exceed the last accepted point's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigurationError, NumericalFailureError
from .model import hermitian_toeplitz, toeplitz_adjoint, upper_triangle

__all__ = [
    "DualSdpProblem",
    "SdpSolution",
    "SolverOptions",
    "project_psd",
    "project_row_ball",
    "solve_dual_sdp",
]

# Fixed ADMM settings: initial penalty rho, over-relaxation factor, and the
# ratio of the relative residuals at which rho is doubled or halved.
# Over-relaxation 1.8, the top of the 1.5-1.8 range of Boyd et al. 2011, took
# 13% fewer unresolved N=50 sweep iterations than 1.6 at Anderson memory 40.
# Imbalance 30 rather than Wohlberg's 10, which runs most unresolved sweep
# trials to a 3000-iteration cap.
_PENALTY = 1.0
_OVER_RELAXATION = 1.8
_IMBALANCE = 30.0

# Anderson acceleration of the ADMM keeps _MEMORY past steps and damps its
# least-squares weights by _DAMPING * |f|_F^2, f being the fixed-point
# residual of the last accepted point. Memory 40 took the fewest
# unresolved sweep iterations of the memories that kept the solves of 1200
# random problems and their symmetric images within 1e-10 (60 parted one by
# 2e-8). Undamped, the extrapolation amplifies rounding until a problem and
# its symmetric image part by up to 1e-5; damping 0.1 kept them within 1e-10.
_MEMORY = 40
_DAMPING = 0.1

# The gap rule, checked every _GAP_EVERY iterations: the scaled dual point is
# within _GAP_TOL of the unscaled one and the certified gap is below
# _GAP_TOL. _ROUNDING * |matrix|_F pads each smallest eigenvalue against the
# rounding of eigvalsh. Checks every 25 iterations rather than 50 end the
# N=50 sweep trials sooner; with checks every 10, two certified checks in a
# row came too early for the lines read off the fig1 instances (seed 4
# misread a line, leaving a decomposition residual of 2.1, and seed 8 one of
# 4.8e-6), while every 25 the worst residual over seeds 0-9 is 1.6e-7.
_GAP_EVERY = 25
_GAP_TOL = 1e-4
_ROUNDING = 8 * np.finfo(float).eps


@dataclass(frozen=True)
class DualSdpProblem:
    """Measurement matrix plus the outlier regularization weight."""

    measurement: np.ndarray
    lam: float

    def __post_init__(self):
        y = np.asarray(self.measurement)
        if y.ndim != 2 or y.size == 0:
            raise InvalidConfigurationError(f"measurement must be N x L, got {y.shape}")
        if not np.all(np.isfinite(y)):
            raise InvalidConfigurationError("measurement contains non-finite entries")
        if not 0 < self.lam < math.inf:
            raise InvalidConfigurationError(f"lambda must be positive and finite, got {self.lam}")


@dataclass(frozen=True)
class SolverOptions:
    max_iterations: int = 100_000

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InvalidConfigurationError("max_iterations must be at least 1")


@dataclass(frozen=True)
class SdpSolution:
    """Dual variables, primal matrix and convergence diagnostics of one solve.

    ``diagnostics`` has one row per recorded iteration with columns
    (iteration, objective, primal_residual, dual_residual): iteration 1 and
    every gap check, each once. The last iteration is a check, so the last
    row holds the residuals at exit, which at the cap need not be those of
    the returned iterate (see below). Its objective is Re<Y, Gamma> of the
    raw iterate of that iteration, not a certified bound. ``primal`` is the
    (N+L) x (N+L) primal matrix M = -rho * U of the ADMM, U being the
    scaled multiplier of the PSD constraint, as ``_repair`` makes it a
    point of the MMV atomic-norm SDP: exactly Hermitian, positive
    semidefinite to rounding, with a Hermitian Toeplitz top-left N x N block
    that carries the spectral support and a top-right block that splits the
    measurement into atoms and outliers (``dual_analysis``). ``lower`` and
    ``upper`` are the certified bounds on the optimum that the gap check of
    the returned iterate took: ``_lower`` of that iterate and ``_upper`` of
    ``primal``, which is the value of ``primal``. ``gap`` is their relative
    gap (upper - lower) / max(1, |lower|). ``converged`` says that the gap
    rule held at two scheduled gap checks in a row; the solve then returns
    the second check's iterate and primal matrix, so ``gap`` is at most
    ``_GAP_TOL``. A solve that reaches the cap returns, of the checks that
    computed an upper bound, the one with the smallest gap, the later at a
    tie. The last check always computes one, and so does every other check
    whose scale s meets the gap rule.
    """

    gamma: np.ndarray
    lambda_mat: np.ndarray
    iterations: int
    converged: bool
    diagnostics: np.ndarray = field(repr=False)
    primal: np.ndarray = field(repr=False)
    lower: float
    upper: float
    gap: float


def _hermitize(mat: np.ndarray) -> np.ndarray:
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidConfigurationError(f"expected a square matrix, got {m.shape}")
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


def _affine_hermitian(h: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix to the exactly Hermitian ``h`` whose k-th
    superdiagonal sums to [k == 0].

    Subtracting the mean defect from each superdiagonal (and mirroring) is
    the Frobenius-nearest correction because the constraints decouple per
    diagonal and each one is a hyperplane.
    """
    n = h.shape[0]
    defect = toeplitz_adjoint(h)
    defect[0] -= 1.0
    defect /= np.arange(n, 0, -1)
    return h - hermitian_toeplitz(defect)


def project_row_ball(gamma: np.ndarray, lam: float) -> np.ndarray:
    """Rescale every row with 2-norm above ``lam`` back onto the sphere."""
    if not lam > 0:
        raise InvalidConfigurationError(f"lambda must be positive, got {lam}")
    g = np.asarray(gamma, dtype=complex)
    norms = np.linalg.norm(g, axis=1)
    scale = np.where(norms > lam, lam / np.where(norms > 0, norms, 1.0), 1.0)
    return g * scale[:, None]


def _min_eig(mat: np.ndarray) -> float:
    """Smallest eigenvalue of the exactly Hermitian ``mat``, less the rounding pad."""
    try:
        w = np.linalg.eigvalsh(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    return float(w[0]) - _ROUNDING * float(np.linalg.norm(mat))


def _lower(y: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """(lower, s): a certified lower bound on the optimum from one ADMM iterate.

    ``x`` = [[Lambda, Gamma], [Gamma^H, I]] meets the diagonal sums and the
    row ball exactly, and x + tI >= 0 with t = max(0, -lambda_min(x)), the
    smallest eigenvalue carrying the rounding pad of ``_min_eig``. Then
    ||Q(f)||^2 <= (1 + t) a(f)^H (Lambda + tI) a(f) = (1 + t)(1 + N t) = s^2
    for every f, so Gamma / s is dual feasible and lower = Re<Y, Gamma> / s.
    """
    n = y.shape[0]
    t = max(0.0, -_min_eig(x))
    s = math.sqrt((1.0 + t) * (1.0 + n * t))
    return float(np.real(np.vdot(y, x[:n, n:]))) / s, s


def _repair(y: np.ndarray, lam: float, m: np.ndarray) -> np.ndarray:
    """The primal matrix -rho * U of the ADMM repaired into a point of the MMV
    atomic-norm SDP (Yang & Xie 2016), which ``_upper`` values.

    The top-left block of ``m`` becomes the Hermitian Toeplitz T whose lags
    t_k are that block's superdiagonal means, T = V diag(mu) V^H. It is
    shifted by tau = max(0, -mu_min) plus the rounding pad of ``_min_eig``,
    so that T + tau I has the eigenvalues d = mu + tau > 0, taken in
    descending order with the columns of V. With C = V^H m[:N, N:], the cut
    r keeps the top-right block B_r = V_r C_r on the r leading eigenvectors
    and takes the Schur complement C_r^H diag(1 / d_r) C_r as the
    bottom-right block, so that

        M_r = [[T + tau I, B_r], [B_r^H, C_r^H diag(1 / d_r) C_r]] >= 0

    by construction. Its value is t_0 + tau + sum_{i <= r} |C_i|^2 / d_i +
    lam * sum_j ||(Y + 2 B_r)_j||, and the M_r of the smallest value is
    returned (the first at a tie). The sum over i never falls as r grows, so
    a cut whose sum alone exceeds the value of the cut r = 0, which keeps
    nothing, is not evaluated. The result is exactly Hermitian, its
    top-left block is exactly Toeplitz, and it is PSD up to rounding.
    """
    n, l = y.shape
    lags = toeplitz_adjoint(m[:n, :n]) / np.arange(n, 0, -1)
    lags[0] = lags[0].real
    top = hermitian_toeplitz(lags)
    try:
        mu, v = np.linalg.eigh(top)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    tau = max(0.0, -float(mu[0])) + _ROUNDING * float(np.linalg.norm(top))
    d, v = mu[::-1] + tau, v[:, ::-1]
    c = v.conj().T @ m[:n, n:]
    # the value of each cut less t_0 + tau; d > 0 is a prefix of d, empty
    # only where T = 0
    schur = np.cumsum(np.linalg.norm(c, axis=1)[d > 0.0] ** 2 / d[d > 0.0])
    values = [lam * float(np.linalg.norm(y, axis=1).sum())]
    k = int(np.searchsorted(schur, values[0], side="right"))
    twice = np.cumsum(v[:, :k].T[:, :, None] * (2.0 * c[:k, None, :]), axis=0)  # 2 B_r at r - 1
    split = (y + twice).view(float)
    values.extend(schur[:k] + lam * np.sqrt(np.einsum("rjk,rjk->rj", split, split)).sum(axis=1))
    r = int(np.argmin(values))
    top.flat[::n + 1] += tau
    out = np.empty((n + l, n + l), dtype=complex)
    out[:n, :n] = top
    out[:n, n:] = twice[r - 1] / 2.0 if r else 0.0
    out[n:, :n] = out[:n, n:].conj().T
    w = (c[:r].conj().T / d[:r]) @ c[:r]
    out[n:, n:] = (w + w.conj().T) / 2.0
    return out


def _upper(y: np.ndarray, lam: float, primal: np.ndarray) -> float:
    """A certified upper bound on the optimum from a primal matrix of ``_repair``.

    ``primal`` is exactly Hermitian with a Toeplitz top-left block, of lag
    t_0 = primal[0, 0], and primal + eps I >= 0 with eps = max(0,
    -lambda_min), the smallest eigenvalue carrying the rounding pad of
    ``_min_eig``. The Lagrangian of the dual program with the multiplier
    primal + eps I is bounded over the feasible set by its value t_0 +
    tr primal[N:, N:] + (L + 1) eps + lam * sum_j ||(Y + 2 primal[:N, N:])_j||,
    the MMV atomic-norm SDP's objective at the atom part S = -2 primal[:N, N:]
    and the outliers Y - S.
    """
    n, l = y.shape
    eps = max(0.0, -_min_eig(primal))
    return (float(primal[0, 0].real) + float(np.trace(primal[n:, n:]).real) + (l + 1) * eps
            + lam * float(np.linalg.norm(y + 2.0 * primal[:n, n:], axis=1).sum()))


def _relative_gap(lower: float, upper: float) -> float:
    return (upper - lower) / max(1.0, abs(lower))


class _Anderson:
    """Type-II Anderson acceleration of the map q -> g(q), with a safeguard.

    The maps act on exactly Hermitian d x d matrices, so each enters as the
    real view of its upper triangle, half the size of the matrix; in the
    residuals f = g - q the entries off the diagonal are scaled by sqrt(2),
    so that a dot product of two is the Frobenius inner product. The last
    ``memory`` differences of accepted images g and of their residuals sit
    in ring buffers, one per row, beside the Gram matrix of the residual
    differences and their inner products with the last accepted residual.
    A new difference costs one matrix-vector product with the ring for its
    Gram column; the inner products with the residual follow from the old
    ones, since f = f_last + df.
    """

    def __init__(self, memory: int, dim: int):
        self.upper, lag = upper_triangle(dim)
        rows, cols = np.divmod(self.upper, dim)
        self.lower = cols * dim + rows
        # the scale of the residual's real view: re and im of each entry
        self.scale = np.repeat(np.where(lag == 0, 1.0, math.sqrt(2.0)), 2)
        self.dg = np.empty((memory, 2 * lag.size))
        self.df = np.empty((memory, 2 * lag.size))
        self.gram = np.empty((memory, memory))
        self.rhs = np.empty(memory)
        self.clear()

    def clear(self) -> None:
        """Forget every difference, and the last accepted point with them."""
        self.count = self.slot = 0
        self.last = None  # (g, real views of its triangle and f's scaled one, |f|_F)
        self.extrapolated = False

    def step(self, q: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The next point to evaluate, given the point ``q`` and its image ``g``.

        An extrapolated ``q`` is kept only if its residual is no larger than
        the last accepted point's; otherwise the memory is emptied and that
        point's image is returned. An accepted point adds a difference and
        returns g minus the combination of the ring's image differences
        whose residual differences best cancel f, by least squares damped by
        ``_DAMPING`` * |f|_F^2; it is exactly Hermitian.
        """
        g_up = g.reshape(-1)[self.upper]
        f_real = np.subtract(g_up, q.reshape(-1)[self.upper]).view(float)
        f_real *= self.scale
        f_norm = math.sqrt(f_real @ f_real)
        if self.extrapolated and f_norm > self.last[3]:
            self.count = self.slot = 0
            self.extrapolated = False
            return self.last[0]
        if self.last is not None:
            j = self.slot
            np.subtract(g_up.view(float), self.last[1], out=self.dg[j])
            np.subtract(f_real, self.last[2], out=self.df[j])
            self.count = k = min(self.count + 1, len(self.df))
            self.slot = (j + 1) % len(self.df)
            col = self.df[:k] @ self.df[j]
            self.gram[j, :k] = col
            self.gram[:k, j] = col
            self.rhs[:k] += col
            self.rhs[j] = self.df[j] @ f_real
        self.last = (g, g_up.view(float), f_real, f_norm)
        self.extrapolated = self.count > 0 and f_norm > 0.0
        if not self.extrapolated:
            return g
        k = self.count
        gram = self.gram[:k, :k].copy()
        gram.flat[::k + 1] += _DAMPING * f_norm**2
        try:
            weights = np.linalg.solve(gram, self.rhs[:k])
        except np.linalg.LinAlgError:  # the damping rounded away on a singular Gram matrix
            self.extrapolated = False
            return g
        shift = (weights @ self.dg[:k]).view(complex)
        nxt = np.empty_like(g)
        nxt.reshape(-1)[self.upper] = shift
        nxt.reshape(-1)[self.lower] = shift.conj()
        return np.subtract(g, nxt, out=nxt)


def solve_dual_sdp(problem: DualSdpProblem, opts: SolverOptions | None = None) -> SdpSolution:
    """Run the accelerated ADMM until two gap checks in a row certify its iterate.

    Every ``_GAP_EVERY`` iterations, and at the last iteration, the iterate
    X is checked: the scale s of ``_lower`` is at most 1 + ``_GAP_TOL``,
    and only then is the primal matrix M = -rho * U repaired (``_repair``)
    and valued (``_upper``), the certified gap being at most ``_GAP_TOL`` *
    max(1, |lower|). The last check repairs and values M whatever s is. The
    solve stops with ``converged=True`` at the first scheduled check where
    this holds and also held at the check before, and returns that check's
    X, repaired M and bounds. A single certified check is not enough: the
    lines read off an accelerated solve lag its gap, and stopping there left
    an N=50 decomposition 3e-5 off the measurement. At the cap the check
    with the smallest gap among those that computed one is returned with
    ``converged=False``, since the gap of a stalled solve can grow.

    rho starts at 1. After each iteration, it doubles (while below 1e4) when
    the relative primal residual |X - Z|_F / max(|X|_F, |Z|_F) exceeds
    ``_IMBALANCE`` times the relative dual residual rho |Z - Z_prev|_F /
    |rho U|_F, and halves (while above 1e-4) in the opposite case; U is
    rescaled so that rho * U stays put.

    Anderson acceleration (``_Anderson``) acts on the state q = X_rel + U
    that the PSD step projects, X_rel being the over-relaxed X: each
    iteration hands it q and its plain image g(q) and projects the point it
    returns, so an iteration is still one ``project_psd`` call, a rejected
    extrapolation included. A change of rho changes the map, so it resets q
    to Z + U and empties the memory.
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
    # already exactly Hermitian, which changes no bit. An extrapolated q is
    # exactly Hermitian as well, up to the sign of the zero imaginary parts on
    # its diagonal, since _Anderson writes its lower triangle as the conjugate
    # of its upper one.
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
    # q is the matrix the PSD step projects: z = P(q) and u = q - z
    q = z + u
    anderson = _Anderson(_MEMORY, dim)

    history = []
    iterations = opts.max_iterations
    converged = certified = False  # certified: the gap rule held at the last check
    best = None  # (gap, x, m, lower, upper) of the bounded gap check with the smallest gap

    for it in range(1, opts.max_iterations + 1):
        x = affine_prox(z - u, rho)
        x_rel = alpha * x + (1.0 - alpha) * z
        g = x_rel + u
        q = anderson.step(q, g)
        z_new = project_psd(q)
        u = q - z_new

        r_norm = float(np.linalg.norm(x - z_new))
        s_norm = rho * float(np.linalg.norm(z_new - z))
        z = z_new
        if not (math.isfinite(r_norm) and math.isfinite(s_norm)):
            raise NumericalFailureError(
                f"non-finite residuals at iteration {it} (rho={rho})"
            )

        scheduled, last = it % _GAP_EVERY == 0, it == opts.max_iterations
        if scheduled or last or it == 1:
            history.append(
                (it, float(np.real(np.vdot(y, x[:n, n:]))), r_norm, s_norm)
            )
        if scheduled or last:
            # a check whose scale s already breaks the gap rule skips the
            # upper bound, unless it is the last, which the cap may return
            certified_before, certified = certified, False
            lower, s = _lower(y, x)
            if s - 1.0 <= _GAP_TOL or last:
                m = _repair(y, lam, -rho * u)
                upper = _upper(y, lam, m)
                gap = _relative_gap(lower, upper)
                if best is None or gap <= best[0]:
                    best = (gap, x, m, lower, upper)
                certified = s - 1.0 <= _GAP_TOL and gap <= _GAP_TOL
            # a last check off the schedule confirms nothing: one 10
            # iterations after a certified check came too early for fig1
            if certified and certified_before and scheduled:
                iterations, converged = it, True
                break
        # r / max(|X|, |Z|) against s / |rho U|, multiplied out so that a zero
        # U divides by nothing. Against the absolute rule (r against 10 s) it
        # cut the iterations of the N=50 sweep trials by 26-34% (62-69% on
        # resolved ones), and of demix at N=201 from 5102-5531 to 1100-1168
        r_scaled = r_norm * rho * float(np.linalg.norm(u))
        s_scaled = s_norm * max(float(np.linalg.norm(x)), float(np.linalg.norm(z)))
        if r_scaled > _IMBALANCE * s_scaled and rho < 1e4:
            rho *= 2.0
            u /= 2.0
        elif s_scaled > _IMBALANCE * r_scaled and rho > 1e-4:
            rho /= 2.0
            u *= 2.0
        else:
            continue
        q = z + u
        anderson.clear()

    if not converged:
        gap, x, m, lower, upper = best
    return SdpSolution(
        gamma=x[:n, n:].copy(),
        lambda_mat=x[:n, :n].copy(),
        iterations=iterations,
        converged=converged,
        diagnostics=np.array(history, dtype=float),
        primal=m,
        lower=lower,
        upper=upper,
        gap=gap,
    )
