import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from sinespikes import (
    DualSdpProblem,
    SolverOptions,
    default_lambda,
    solve_dual_sdp,
)
from sinespikes import solver
from sinespikes.errors import InvalidConfigurationError
from sinespikes.model import toeplitz_adjoint
from sinespikes.solver import _affine_hermitian, _hermitize, project_psd, project_row_ball

_PATH = Path(__file__).resolve().parent.parent / "tools" / "equivariance_stress.py"
_SPEC = importlib.util.spec_from_file_location("equivariance_stress", _PATH)
stress = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(stress)
spectral_measurement = stress.spectral_measurement


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def brute_affine_projection(mat):
    """Independent per-diagonal mean-shift implementation."""
    n = mat.shape[0]
    h = (mat + mat.conj().T) / 2
    out = h.astype(complex).copy()
    for k in range(n):
        entries = [h[i, i + k] for i in range(n - k)]
        target = 1.0 if k == 0 else 0.0
        shift = (sum(entries) - target) / (n - k)
        for i in range(n - k):
            out[i, i + k] = h[i, i + k] - shift
            if k:
                out[i + k, i] = np.conj(out[i, i + k])
    return out


def brute_row_ball(gamma, lam):
    out = gamma.astype(complex).copy()
    for i in range(out.shape[0]):
        r = np.linalg.norm(out[i])
        if r > lam:
            out[i] *= lam / r
    return out


def eig_psd_oracle(mat):
    """PSD projection through the general (non-Hermitian) eigensolver."""
    h = (mat + mat.conj().T) / 2
    w, v = np.linalg.eig(h)
    w = np.maximum(w.real, 0.0)
    p = v @ np.diag(w) @ np.linalg.inv(v)
    return (p + p.conj().T) / 2


class TestProjectPsd:
    def test_clamp(self):
        np.testing.assert_allclose(
            project_psd(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]), atol=1e-14
        )

    def test_psd_fixed_point(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        m = a @ a.conj().T
        np.testing.assert_allclose(project_psd(m), m, atol=1e-10)

    def test_matches_eig_oracle(self):
        rng = np.random.default_rng(1)
        m = random_hermitian(rng, 8)
        np.testing.assert_allclose(project_psd(m), eig_psd_oracle(m), atol=1e-10)

    def test_moreau_conditions(self):
        # the projection P of M onto the cone satisfies P >= 0, P - M >= 0
        # restricted to the complement, and <P, P - M> = 0
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = random_hermitian(rng, 7)
            p = project_psd(m)
            q = p - m
            assert np.linalg.eigvalsh(p).min() >= -1e-10
            assert np.linalg.eigvalsh(q).min() >= -1e-10
            assert abs(np.vdot(p, q)) <= 1e-10 * (1 + np.linalg.norm(p) * np.linalg.norm(q))

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        m = random_hermitian(rng, 9)
        p = project_psd(m)
        np.testing.assert_allclose(project_psd(p), p, atol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            project_psd(np.ones((2, 3)))


class TestProjectAffineLambda:
    def test_identity(self):
        n = 7
        np.testing.assert_allclose(_affine_hermitian(_hermitize(np.eye(n))), np.eye(n) / n,
                                   atol=1e-14)

    def test_feasible_fixed_point(self):
        rng = np.random.default_rng(4)
        m = _affine_hermitian(_hermitize(random_hermitian(rng, 6)))
        np.testing.assert_allclose(_affine_hermitian(_hermitize(m)), m, atol=1e-13)

    def test_constraint_and_oracle(self):
        rng = np.random.default_rng(5)
        m = random_hermitian(rng, 6)
        p = _affine_hermitian(_hermitize(m))
        target = np.zeros(6)
        target[0] = 1.0
        np.testing.assert_allclose(toeplitz_adjoint(p), target, atol=1e-14)
        np.testing.assert_allclose(p, brute_affine_projection(m), atol=1e-12)

    def test_distance_dominates_feasible_points(self):
        rng = np.random.default_rng(6)
        m = random_hermitian(rng, 5)
        p = _affine_hermitian(_hermitize(m))
        base = np.linalg.norm(m - p)
        for _ in range(25):
            f = _affine_hermitian(_hermitize(random_hermitian(rng, 5)))
            assert np.linalg.norm(m - f) >= base - 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        m = random_hermitian(rng, 8)
        p = _affine_hermitian(_hermitize(m))
        np.testing.assert_allclose(_affine_hermitian(_hermitize(p)), p, atol=1e-12)


class TestProjectRowBall:
    def test_boundary_row_unchanged(self):
        g = np.array([[3.0, 4.0]], dtype=complex)
        np.testing.assert_allclose(project_row_ball(g, 5.0), g, atol=1e-14)

    def test_radial_rescale(self):
        g = np.array([[6.0, 8.0]], dtype=complex)
        np.testing.assert_allclose(project_row_ball(g, 5.0), [[3.0, 4.0]], atol=1e-14)

    def test_zero_matrix(self):
        z = np.zeros((4, 2), dtype=complex)
        np.testing.assert_allclose(project_row_ball(z, 0.3), z)

    def test_matches_row_oracle(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
        np.testing.assert_allclose(project_row_ball(g, 0.7), brute_row_ball(g, 0.7), atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
        p = project_row_ball(g, 0.5)
        np.testing.assert_allclose(project_row_ball(p, 0.5), p, atol=1e-12)


def iterate(solution):
    """The returned iterate X = [[Lambda, Gamma], [Gamma^H, I]]."""
    n, l = solution.gamma.shape
    block = np.zeros((n + l, n + l), dtype=complex)
    block[:n, :n] = solution.lambda_mat
    block[:n, n:] = solution.gamma
    block[n:, :n] = solution.gamma.conj().T
    block[n:, n:] = np.eye(l)
    return block


def feasibility_errors(solution, lam):
    n = solution.gamma.shape[0]
    block = iterate(solution)
    eig_min = np.linalg.eigvalsh((block + block.conj().T) / 2).min()
    target = np.zeros(n)
    target[0] = 1.0
    aff = np.linalg.norm(toeplitz_adjoint(solution.lambda_mat) - target)
    rows = np.linalg.norm(solution.gamma, axis=1).max()
    return eig_min, aff, rows - lam


class TestSolveDualSdp:
    def test_zero_measurement(self):
        lam = default_lambda(12)
        sol = solve_dual_sdp(DualSdpProblem(np.zeros((12, 2), dtype=complex), lam))
        assert sol.converged
        assert np.linalg.norm(sol.gamma) <= 1e-6
        assert -1e-8 <= sol.lower <= 0.0 <= sol.upper <= 1e-8
        eig_min, aff, slack = feasibility_errors(sol, lam)
        assert eig_min >= -1e-6 and aff <= 1e-10 and slack <= 1e-12

    def test_single_atom_objective(self):
        rng = np.random.default_rng(10)
        n, l, c, f0 = 32, 2, 1.3, 0.37
        u = rng.standard_normal(l) + 1j * rng.standard_normal(l)
        u /= np.linalg.norm(u)
        y = np.outer(np.exp(2j * np.pi * np.arange(n) * f0), c * u)
        sol = solve_dual_sdp(DualSdpProblem(y, default_lambda(n)))
        assert sol.converged
        assert sol.lower == pytest.approx(c, rel=1e-3)
        assert sol.upper == pytest.approx(c, rel=1e-3)
        # plain-coefficient polynomial reaches one at the atom frequency
        q = np.exp(-2j * np.pi * np.arange(n) * f0) @ sol.gamma
        assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-3)

    def test_random_measurement_feasible(self):
        rng = np.random.default_rng(11)
        y = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
        lam = default_lambda(20)
        sol = solve_dual_sdp(DualSdpProblem(y, lam))
        assert sol.converged
        eig_min, aff, slack = feasibility_errors(sol, lam)
        assert eig_min >= -1e-5
        assert aff <= 1e-5
        assert slack <= lam * 1e-5

    def test_objective_scaling_invariance(self):
        rng = np.random.default_rng(12)
        y = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
        lam = default_lambda(16)
        a = solve_dual_sdp(DualSdpProblem(y, lam))
        b = solve_dual_sdp(DualSdpProblem(3.0 * y, lam))
        assert np.abs(a.gamma - b.gamma).max() <= 5e-4

    def test_gap_stop_brackets_the_plain_admm_optimum(self):
        # the accelerated solve stops at iteration 125 on a gap of 6e-9, the
        # plain reference loop at 350 on a gap of 2e-5; each pair of certified
        # bounds holds the optimum, so the two overlap
        rng = np.random.default_rng(13)
        y = rng.standard_normal((14, 2)) + 1j * rng.standard_normal((14, 2))
        lam = default_lambda(14)
        sol = solve_dual_sdp(DualSdpProblem(y, lam))
        assert sol.converged
        lower, _ = solver._lower(y, iterate(sol))
        upper = solver._upper(y, lam, sol.primal)
        assert upper - lower <= 1e-4 * max(1.0, abs(lower))
        assert (sol.lower, sol.upper) == (lower, upper)
        assert sol.gap == solver._relative_gap(lower, upper)
        x, primal, *_, converged = reference_admm(y, lam, 100_000)
        assert converged
        lower_ref, _ = dense_lower(y, x)
        upper_ref = dense_value(y, lam, primal)
        assert lower <= upper_ref and lower_ref <= upper

    def test_non_convergence_flag(self):
        rng = np.random.default_rng(14)
        y = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
        sol = solve_dual_sdp(
            DualSdpProblem(y, default_lambda(10)), SolverOptions(max_iterations=5)
        )
        assert not sol.converged
        assert sol.iterations == 5
        assert np.isfinite(sol.lower) and np.isfinite(sol.upper)

    def test_non_finite_measurement_rejected(self):
        y = np.zeros((4, 1), dtype=complex)
        y[0, 0] = np.inf
        with pytest.raises(InvalidConfigurationError):
            DualSdpProblem(y, 0.5)

    def test_option_validation(self):
        with pytest.raises(InvalidConfigurationError):
            SolverOptions(max_iterations=0)


def clamp_psd(mat):
    """PSD projection as the full clamped product, before the positive-pair trim."""
    m = np.asarray(mat, dtype=complex)
    h = (m + m.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    w = np.maximum(w, 0.0)
    out = (v * w) @ v.conj().T
    return (out + out.conj().T) / 2.0


def full_affine(mat):
    """Superdiagonal-sum projection with its index arrays built on every call."""
    m = np.asarray(mat, dtype=complex)
    n = m.shape[0]
    h = (m + m.conj().T) / 2.0
    i, j = np.triu_indices(n)
    upper = h[i, j]
    defect = np.bincount(j - i, upper.real, n) + 1j * np.bincount(j - i, upper.imag, n)
    defect[0] -= 1.0
    defect /= np.arange(n, 0, -1)
    offset = np.arange(n)[None, :] - np.arange(n)[:, None]  # j - i
    shift = defect[np.abs(offset)]
    return h - np.where(offset >= 0, shift, shift.conj())


def dense_min_eig(a):
    return np.linalg.eigvalsh(a)[0] - solver._ROUNDING * np.linalg.norm(a)


def dense_repair(y, lam, m):
    """The primal matrix of solver._repair, with T's diagonals averaged one by
    one, every cut r = 0..N valued in a plain loop and the bottom-right block
    of a cut taken through the explicit inverse of T + tau I on the span of
    its r leading eigenvectors."""
    n = y.shape[0]
    top = m[:n, :n].copy()
    for k in range(n):
        mean = sum(m[i, i + k] for i in range(n - k)) / (n - k)
        for i in range(n - k):
            top[i, i + k] = mean
            top[i + k, i] = np.conj(mean)
    mu, v = np.linalg.eigh(top)
    tau = max(0.0, -mu[0]) + solver._ROUNDING * np.linalg.norm(top)
    top += tau * np.eye(n)
    v = v[:, ::-1]
    best = None
    for r in range(np.count_nonzero(mu + tau > 0.0) + 1):
        kept = v[:, :r]
        b = kept @ (kept.conj().T @ m[:n, n:])
        w = b.conj().T @ kept @ np.linalg.inv(kept.conj().T @ top @ kept) @ kept.conj().T @ b
        value = np.trace(w).real + lam * sum(np.linalg.norm(y[j] + 2.0 * b[j]) for j in range(n))
        if best is None or value < best[0]:
            best = (value, b, (w + w.conj().T) / 2.0)
    _, b, w = best
    return np.block([[top, b], [b.conj().T, w]])


def dense_value(y, lam, primal):
    """The Lagrangian value that solver._upper gives ``primal``, row by row."""
    n, l = y.shape
    eps = max(0.0, -dense_min_eig(primal))
    rows = sum(np.linalg.norm(y[j] + 2.0 * primal[j, n:]) for j in range(n))
    return primal[0, 0].real + np.trace(primal[n:, n:]).real + (l + 1) * eps + lam * rows


def dense_lower(y, x):
    """(lower, s) that solver._lower gives the iterate ``x``."""
    n = y.shape[0]
    t = max(0.0, -dense_min_eig(x))
    s = np.sqrt((1.0 + t) * (1.0 + n * t))
    return np.real(np.vdot(y, x[:n, n:])) / s, s


def dense_bounds(y, lam, x, m):
    """(lower, upper, s, primal) of a gap check on the iterate ``x`` and the
    primal matrix ``m``, which dense_repair repairs into ``primal``."""
    lower, s = dense_lower(y, x)
    primal = dense_repair(y, lam, m)
    return lower, dense_value(y, lam, primal), s, primal


def reference_admm(y, lam, max_iterations, anderson=None):
    """The ADMM loop before its per-iteration trims.

    It hermitizes inside every projection, rebuilds the Toeplitz indices on
    every call, clamps the full eigendecomposition and checks the gap rule
    with dense_bounds, ignoring the upper bound wherever s already breaks
    the rule, as the solve skips it there. Given an ``anderson`` (a fresh
    ``solver._Anderson``), it drives it as solve_dual_sdp does: the point it
    returns for q and the plain image g = X_rel + U is projected, and a
    change of rho resets q to Z + U and empties the memory. Given
    ``solver._Anderson(solver._MEMORY, N + L)``, solve_dual_sdp must
    reproduce it bit for bit, its primal matrix to rounding. Without one it
    is the plain ADMM, the second opinion the accelerated solve is compared
    against. It stops once the gap rule holds at two checks in a row. It
    returns the iterate X, its repaired primal matrix, the iteration count,
    the diagnostics and whether it stopped before the cap. The returned pair
    is that of the stopping check; at the cap it is the pair of the bounded
    gap check with the smallest gap if that gap is below the last pair's,
    and the last pair otherwise.
    """
    n, l = y.shape
    dim = n + l
    rho = solver._PENALTY
    alpha = solver._OVER_RELAXATION
    eye_l = np.eye(l)

    def affine_prox(v, rho_):
        h = (v + v.conj().T) / 2.0
        top = full_affine(h[:n, :n])
        gam = project_row_ball(h[:n, n:] + y / (2.0 * rho_), lam)
        x = np.empty_like(h)
        x[:n, :n] = top
        x[:n, n:] = gam
        x[n:, :n] = gam.conj().T
        x[n:, n:] = eye_l
        return x

    x = np.zeros((dim, dim), dtype=complex)
    x[:n, :n] = np.eye(n) / n
    x[n:, n:] = eye_l
    z = x.copy()
    u = np.zeros_like(x)
    q = z + u
    history = []
    iterations = max_iterations
    converged = certified = False
    best = None  # (gap, X, primal) of the bounded gap check with the smallest gap
    for it in range(1, max_iterations + 1):
        x = affine_prox(z - u, rho)
        x_rel = alpha * x + (1.0 - alpha) * z
        g = x_rel + u
        q = g if anderson is None else anderson.step(q, g)
        z_new = clamp_psd(q)
        u = q - z_new
        r_norm = float(np.linalg.norm(x - z_new))
        s_norm = rho * float(np.linalg.norm(z_new - z))
        z = z_new
        if it % solver._GAP_EVERY == 0 or it == 1:
            history.append((it, float(np.real(np.vdot(y, x[:n, n:]))), r_norm, s_norm))
        if it % solver._GAP_EVERY == 0:
            lower, upper, s, m = dense_bounds(y, lam, x, -rho * u)
            gap = (upper - lower) / max(1.0, abs(lower))
            bounded = s - 1.0 <= solver._GAP_TOL
            if bounded and (best is None or gap < best[0]):
                best = (gap, x, m)
            certified, certified_before = bounded and gap <= solver._GAP_TOL, certified
            if certified and certified_before:
                iterations, converged = it, True
                break
        # relative residuals (Wohlberg 2017), multiplied out
        r_scaled = r_norm * rho * float(np.linalg.norm(u))
        s_scaled = s_norm * max(float(np.linalg.norm(x)), float(np.linalg.norm(z)))
        if r_scaled > solver._IMBALANCE * s_scaled and rho < 1e4:
            rho *= 2.0
            u /= 2.0
        elif s_scaled > solver._IMBALANCE * r_scaled and rho > 1e-4:
            rho /= 2.0
            u *= 2.0
        else:
            continue
        q = z + u
        if anderson is not None:
            anderson.clear()
    if history[-1][0] != iterations:
        history.append((iterations, float(np.real(np.vdot(y, x[:n, n:]))), r_norm, s_norm))
    if not converged:
        lower, upper, _, m = dense_bounds(y, lam, x, -rho * u)
        if best is not None and best[0] < (upper - lower) / max(1.0, abs(lower)):
            _, x, m = best
    return x, m, iterations, np.array(history, dtype=float), converged


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_matches_reference(n, l, cap):
    """solve_dual_sdp capped at ``cap`` against reference_admm, bit for bit;
    returns the solution."""
    y = spectral_measurement(n, l, seed=100 * n + l)
    lam = default_lambda(n)
    anderson = solver._Anderson(solver._MEMORY, n + l)
    x, primal, iterations, history, converged = reference_admm(y, lam, cap, anderson)
    sol = solve_dual_sdp(DualSdpProblem(y, lam), SolverOptions(max_iterations=cap))
    assert_same_bits(sol.gamma, x[:n, n:])
    assert_same_bits(sol.lambda_mat, x[:n, :n])
    assert_same_bits(sol.diagnostics, history)
    assert (sol.iterations, sol.converged) == (iterations, converged)
    # the dense repair sums and inverts in another order, so its primal
    # matrix and gap agree to rounding
    np.testing.assert_allclose(sol.primal, primal, rtol=0, atol=1e-12 * np.abs(primal).max())
    lower, _ = dense_lower(y, x)
    upper = dense_value(y, lam, primal)
    assert sol.gap == pytest.approx((upper - lower) / max(1.0, abs(lower)), rel=0, abs=1e-12)
    return sol


@pytest.mark.parametrize("n", [4, 16, 50])
@pytest.mark.parametrize("l", [1, 3, 5])
def test_solve_matches_reference_loop_bit_for_bit(n, l):
    assert_matches_reference(n, l, 300)


@pytest.mark.parametrize("n, l, cap", [(16, 3, 310), (50, 3, 60), (4, 1, 7)])
def test_solve_matches_reference_loop_at_a_cap_off_the_check_schedule(n, l, cap):
    # the solve's last check falls between two scheduled ones, where the
    # reference values its last iterate after the loop
    sol = assert_matches_reference(n, l, cap)
    assert cap % solver._GAP_EVERY and (sol.iterations, sol.converged) == (cap, False)


def test_capped_solve_repairs_each_primal_matrix_once(monkeypatch):
    # the cap's check is the last iteration's, so the returned bounds need no
    # second repair of the last primal matrix
    digests = []

    def recording_repair(y, lam, m):
        digests.append(hashlib.sha256(m.tobytes()).hexdigest())
        return repair(y, lam, m)

    repair = solver._repair
    monkeypatch.setattr(solver, "_repair", recording_repair)
    y = spectral_measurement(16, 3, 1603)
    sol = solve_dual_sdp(DualSdpProblem(y, default_lambda(16)), SolverOptions(max_iterations=350))
    assert not sol.converged and digests
    assert len(set(digests)) == len(digests)


class CountingAnderson(solver._Anderson):
    """solver._Anderson that counts its resets and its rejected extrapolations."""

    def __init__(self, memory, dim):
        self.resets = self.rejected = 0
        super().__init__(memory, dim)  # calls clear() once

    def clear(self):
        self.resets += 1
        super().clear()

    def step(self, q, g):
        nxt = super().step(q, g)
        self.rejected += nxt is not g and not self.extrapolated
        return nxt


def test_reference_parity_covers_both_endings():
    # the parity cases above take every branch of the loop: N=16, L=3 hits
    # the cap and the others meet the gap rule (N=4, L=1 at iteration 50 and
    # N=16, L=1 at 75), each N=50 case changes rho once, and every case
    # rejects 2-10 extrapolations
    converged, rho_changes, rejected = {}, 0, []
    for n in (4, 16, 50):
        for l in (1, 3, 5):
            anderson = CountingAnderson(solver._MEMORY, n + l)
            y = spectral_measurement(n, l, 100 * n + l)
            converged[n, l] = reference_admm(y, default_lambda(n), 300, anderson)[-1]
            rho_changes += anderson.resets - 1
            rejected.append(anderson.rejected)
    assert converged[4, 1] and converged[16, 1] and not converged[16, 3]
    assert rho_changes >= 1 and min(rejected) >= 1


class DenseAnderson:
    """Textbook type-II Anderson acceleration (Walker & Ni 2011) on full matrices.

    It keeps the images g and residuals f = g - q of the accepted points
    since the last reset, at most ``memory`` + 1 of them, rebuilds their
    differences and Gram matrix at every step and takes every inner product
    as Re vdot, the Frobenius one. The weights are damped by
    solver._DAMPING * |f|_F^2, and the safeguard is solver._Anderson's:
    after an extrapolation whose residual grew, it returns the last accepted
    image and keeps only that point.
    """

    def __init__(self, memory):
        self.memory = memory
        self.accepted = []  # (g, f, |f|_F), oldest first
        self.extrapolated = False
        self.rejected = self.wraps = 0

    def step(self, q, g):
        f = g - q
        f_norm = np.sqrt(np.vdot(f, f).real)
        if self.extrapolated and f_norm > self.accepted[-1][2]:
            del self.accepted[:-1]
            self.extrapolated = False
            self.rejected += 1
            return self.accepted[-1][0]
        self.accepted.append((g, f, f_norm))
        if len(self.accepted) > self.memory + 1:
            del self.accepted[0]
            self.wraps += 1
        pairs = list(zip(self.accepted, self.accepted[1:]))
        self.extrapolated = bool(pairs) and f_norm > 0.0
        if not self.extrapolated:
            return g
        dg = [new[0] - old[0] for old, new in pairs]
        df = [new[1] - old[1] for old, new in pairs]
        gram = np.array([[np.vdot(a, b).real for b in df] for a in df])
        gram += solver._DAMPING * f_norm**2 * np.eye(len(df))
        weights = np.linalg.solve(gram, [np.vdot(a, f).real for a in df])
        return g - sum(w * d for w, d in zip(weights, dg))


def test_anderson_step_matches_the_dense_textbook_step():
    # both are handed the same points and images of a nonlinear map that
    # keeps matrices Hermitian; on this map the safeguard rejects four
    # extrapolations, none of its decisions is within 1.5% of a tie (so
    # rounding cannot flip one), and the ring overwrites its oldest
    # difference 40 times
    d, memory = 6, 3
    rng = np.random.default_rng(0)
    c = random_hermitian(rng, d)

    def image(q):
        m = c + 6.0 * q / (1.0 + np.abs(q))
        return (m + m.conj().T) / 2

    q = random_hermitian(rng, d)
    fast, dense = solver._Anderson(memory, d), DenseAnderson(memory)
    for _ in range(20 * memory):
        g = image(q)
        nxt, expected = fast.step(q, g), dense.step(q, g)
        assert np.abs(nxt - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.array_equal(nxt, nxt.conj().T)
        q = nxt
    assert dense.rejected >= 1 and dense.wraps >= 1


def test_project_affine_lambda_matches_full_affine_bit_for_bit():
    rng = np.random.default_rng(16)
    for n in (1, 2, 7, 30, 55):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert_same_bits(_affine_hermitian(_hermitize(m)), full_affine(m))
        assert_same_bits(_affine_hermitian(_hermitize(m[::-1, ::-1])), full_affine(m[::-1, ::-1]))


def test_project_psd_matches_full_clamp_bit_for_bit():
    rng = np.random.default_rng(15)
    for n in (1, 2, 7, 30, 55):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert_same_bits(project_psd(m), clamp_psd(m))
    assert_same_bits(project_psd(-np.eye(3)), clamp_psd(-np.eye(3)))


# Each example runs four solves at N <= 24, capped at 600 iterations (~0.1 s):
# most of these instances converge within 600, a few need tens of thousands.
# Shrinking would rerun the four solves at every step, so it is left out. The
# 1e-10 bound is only 1.1-1.3 times the worst parting over 400 stress draws,
# so the five examples are the same on every run; tools/equivariance_stress.py
# draws the breadth.
@settings(max_examples=5, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 24), l=st.integers(1, 3),
       mixing_seed=st.integers(0, 2**32 - 1), f0=st.floats(0.0, 1.0, exclude_max=True))
def test_solve_is_equivariant_under_the_problem_symmetries(seed, n, l, mixing_seed, f0):
    # Y -> Y U (U unitary), Y -> D Y (D = diag(exp(2i*pi*j*f0))) and Y -> conj(Y)
    # with its rows reversed map the feasible set onto itself and keep the
    # objective; the ADMM iterates map the same way to rounding, which
    # tools/equivariance_stress.check measures
    worst, failed = stress.check(seed, n, l, mixing_seed, f0)
    assert not failed, (worst, failed)


def bounds_measurement(kind, n, l, seed):
    """A measurement of one of the kinds the bounds are drawn over."""
    if kind == "zero":
        return np.zeros((n, l), dtype=complex)
    rng = np.random.default_rng(seed)
    y = spectral_measurement(n, l, seed) if n >= 2 else np.ones((n, l), dtype=complex)
    if kind == "every row an outlier":
        y = y + 3.0 * (rng.standard_normal((n, l)) + 1j * rng.standard_normal((n, l)))
    return y


# Each example runs two solves at N <= 16 (~10 ms); shrinking is left out, as
# in the equivariance test above.
@settings(max_examples=40, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(kind=st.sampled_from(["lines and two outlier rows", "zero", "every row an outlier"]),
       seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16), l=st.integers(1, 3),
       early=st.integers(1, 200))
def test_every_lower_bound_is_below_every_upper_bound(kind, seed, n, l, early):
    # lower <= optimum <= upper holds at every iterate, so the bounds of an
    # early iterate and of a late one interleave; Y = 0 has optimum 0. Every
    # solve reports the bounds of the iterate it returns, and a converged one
    # returns an iterate whose gap meets the gap rule
    y = bounds_measurement(kind, n, l, seed)
    lam = default_lambda(n)
    bounds = []
    for cap in (early, 3000):
        sol = solve_dual_sdp(DualSdpProblem(y, lam), SolverOptions(max_iterations=cap))
        lower, s = solver._lower(y, iterate(sol))
        upper = solver._upper(y, lam, sol.primal)
        assert s >= 1.0 and (lower, upper) == (sol.lower, sol.upper)
        assert sol.gap == solver._relative_gap(lower, upper)
        if sol.converged:
            assert sol.gap <= solver._GAP_TOL
        bounds.append((lower, upper))
    (early_lower, early_upper), (late_lower, late_upper) = bounds
    assert early_lower <= late_upper and late_lower <= early_upper
    assert early_lower <= early_upper and late_lower <= late_upper
    if kind == "zero":
        assert early_lower <= 0.0 <= early_upper and late_lower <= 0.0 <= late_upper


def random_primal(rng, n, l):
    """A Hermitian (N+L) x (N+L) matrix like -rho * U: neither PSD nor Toeplitz."""
    a = rng.standard_normal((n + l, 3)) + 1j * rng.standard_normal((n + l, 3))
    return a @ a.conj().T + 0.1 * random_hermitian(rng, n + l)


def assert_repaired(primal, n):
    """Exactly Hermitian, exactly Toeplitz top-left, PSD to the rounding pad."""
    assert np.array_equal(primal, primal.conj().T)
    top = primal[:n, :n]
    for k in range(n):
        assert np.all(np.diagonal(top, k) == top[0, k])
    assert np.linalg.eigvalsh(primal)[0] >= -solver._ROUNDING * np.linalg.norm(primal)


@pytest.mark.parametrize("n, l", [(1, 1), (4, 2), (16, 3), (50, 5)])
def test_repair_keeps_the_cut_of_smallest_value(n, l):
    # the dense repair values all N + 1 cuts one by one, so the two reach the
    # same value; the measurement is the scale of the primal's top-right block
    rng = np.random.default_rng(17 + n)
    for _ in range(5):
        m = random_primal(rng, n, l)
        y = rng.standard_normal((n, l)) + 1j * rng.standard_normal((n, l))
        lam = default_lambda(n)
        primal = solver._repair(y, lam, m)
        assert_repaired(primal, n)
        assert solver._upper(y, lam, primal) == pytest.approx(
            dense_value(y, lam, dense_repair(y, lam, m)), rel=1e-12)


def test_repair_of_a_zero_primal_keeps_nothing():
    y = np.ones((6, 2), dtype=complex)
    primal = solver._repair(y, 0.4, np.zeros((8, 8), dtype=complex))
    assert np.array_equal(primal, np.zeros((8, 8)))
    assert solver._upper(y, 0.4, primal) == pytest.approx(0.4 * 6 * np.sqrt(2.0), rel=1e-15)


def test_upper_charges_the_shift_that_makes_the_primal_psd():
    # primal + eps I >= 0 for eps = 0.5 plus the rounding pad, which the
    # bound pays once in t_0 and L times in the bottom-right trace
    n, l = 6, 2
    y = np.ones((n, l), dtype=complex)
    primal = np.zeros((n + l, n + l), dtype=complex)
    primal[:n, :n] = -0.5 * np.eye(n)
    eps = 0.5 + solver._ROUNDING * np.linalg.norm(primal)
    assert solver._upper(y, 0.4, primal) == pytest.approx(
        -0.5 + (l + 1) * eps + 0.4 * n * np.sqrt(2.0), rel=1e-15)


@pytest.mark.parametrize("n, l, cap", [(4, 1, 300), (16, 3, 300), (50, 5, 300), (50, 3, 60)])
def test_solve_returns_a_repaired_primal_and_its_lagrangian_value(n, l, cap):
    # the returned primal is a point of the MMV atomic-norm SDP, and the
    # upper bound is its value, whether the solve converged or was capped
    y = spectral_measurement(n, l, seed=100 * n + l)
    lam = default_lambda(n)
    sol = solve_dual_sdp(DualSdpProblem(y, lam), SolverOptions(max_iterations=cap))
    assert_repaired(sol.primal, n)
    assert sol.upper == pytest.approx(dense_value(y, lam, sol.primal), rel=1e-12)
    assert sol.upper == solver._upper(y, lam, sol.primal)


def test_capped_solve_returns_the_check_with_the_smallest_gap(monkeypatch):
    # capped at 350, this solve's gap checks fall to 1.18e-4 at iteration 300
    # and rise to 1.31e-4 at 350, its last; the checks at 175 and 200 break
    # the gap rule on s alone, so they skip the upper bound
    lowers, gaps = [], []

    def recording_lower(*args):
        bound, s = lower(*args)
        lowers.append(bound)
        return bound, s

    def recording_upper(*args):
        bound = upper(*args)
        gaps.append(solver._relative_gap(lowers[-1], bound))
        return bound

    lower, upper = solver._lower, solver._upper
    monkeypatch.setattr(solver, "_lower", recording_lower)
    monkeypatch.setattr(solver, "_upper", recording_upper)
    y = spectral_measurement(16, 3, 1603)
    sol = solve_dual_sdp(DualSdpProblem(y, default_lambda(16)), SolverOptions(max_iterations=350))
    assert not sol.converged
    checks = 350 // solver._GAP_EVERY
    assert len(lowers) == checks and len(gaps) < checks  # the cap's check is the last
    assert min(gaps[:-1]) < gaps[-1]
    assert sol.gap == min(gaps)


def test_solve_with_rejected_extrapolations_stays_feasible(monkeypatch):
    # the safeguard rejects an extrapolated point by returning the last
    # accepted point's plain image and no longer extrapolating
    rejected = []

    def recording_step(self, q, g):
        nxt = step(self, q, g)
        rejected.append(nxt is not g and not self.extrapolated)
        return nxt

    step = solver._Anderson.step
    monkeypatch.setattr(solver._Anderson, "step", recording_step)
    y = spectral_measurement(50, 3, 503)
    lam = default_lambda(50)
    sol = solve_dual_sdp(DualSdpProblem(y, lam))
    assert sol.converged and any(rejected)
    target = np.zeros(50)
    target[0] = 1.0
    assert np.abs(toeplitz_adjoint(sol.lambda_mat) - target).max() <= 1e-12
    assert np.linalg.norm(sol.gamma, axis=1).max() <= lam * (1.0 + 1e-12)
    early = solve_dual_sdp(DualSdpProblem(y, lam), SolverOptions(max_iterations=40))
    assert sol.lower <= early.upper and early.lower <= sol.upper
    assert sol.lower <= sol.upper and early.lower <= early.upper
