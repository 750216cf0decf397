import numpy as np
import pytest

from sinespikes import (
    DualSdpProblem,
    SolverOptions,
    default_lambda,
    project_affine_lambda,
    project_psd,
    project_row_ball,
    solve_dual_sdp,
    toeplitz_adjoint,
)
from sinespikes.errors import InvalidConfigurationError, InvalidDimensionError


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
        with pytest.raises(InvalidDimensionError):
            project_psd(np.ones((2, 3)))


class TestProjectAffineLambda:
    def test_identity(self):
        n = 7
        np.testing.assert_allclose(project_affine_lambda(np.eye(n)), np.eye(n) / n, atol=1e-14)

    def test_feasible_fixed_point(self):
        rng = np.random.default_rng(4)
        m = project_affine_lambda(random_hermitian(rng, 6))
        np.testing.assert_allclose(project_affine_lambda(m), m, atol=1e-13)

    def test_constraint_and_oracle(self):
        rng = np.random.default_rng(5)
        m = random_hermitian(rng, 6)
        p = project_affine_lambda(m)
        target = np.zeros(6)
        target[0] = 1.0
        np.testing.assert_allclose(toeplitz_adjoint(p), target, atol=1e-14)
        np.testing.assert_allclose(p, brute_affine_projection(m), atol=1e-12)

    def test_distance_dominates_feasible_points(self):
        rng = np.random.default_rng(6)
        m = random_hermitian(rng, 5)
        p = project_affine_lambda(m)
        base = np.linalg.norm(m - p)
        for _ in range(25):
            f = project_affine_lambda(random_hermitian(rng, 5))
            assert np.linalg.norm(m - f) >= base - 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        m = random_hermitian(rng, 8)
        p = project_affine_lambda(m)
        np.testing.assert_allclose(project_affine_lambda(p), p, atol=1e-12)


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


def feasibility_errors(solution, lam):
    n, l = solution.gamma.shape
    block = np.zeros((n + l, n + l), dtype=complex)
    block[:n, :n] = solution.lambda_mat
    block[:n, n:] = solution.gamma
    block[n:, :n] = solution.gamma.conj().T
    block[n:, n:] = np.eye(l)
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
        assert abs(sol.objective) <= 1e-8
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
        assert sol.objective == pytest.approx(c, rel=1e-3)
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

    def test_objective_history_settles(self):
        rng = np.random.default_rng(13)
        y = rng.standard_normal((14, 2)) + 1j * rng.standard_normal((14, 2))
        sol = solve_dual_sdp(DualSdpProblem(y, default_lambda(14)))
        assert sol.converged
        tail = sol.diagnostics[-5:, 1]
        assert np.abs(tail - tail[-1]).max() <= 1e-4 * max(1.0, abs(tail[-1]))

    def test_non_convergence_flag(self):
        rng = np.random.default_rng(14)
        y = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
        sol = solve_dual_sdp(
            DualSdpProblem(y, default_lambda(10)), SolverOptions(max_iterations=5)
        )
        assert not sol.converged
        assert sol.iterations == 5
        assert np.isfinite(sol.objective)

    def test_non_finite_measurement_rejected(self):
        y = np.zeros((4, 1), dtype=complex)
        y[0, 0] = np.inf
        with pytest.raises(InvalidConfigurationError):
            DualSdpProblem(y, 0.5)

    def test_option_validation(self):
        with pytest.raises(InvalidConfigurationError):
            SolverOptions(max_iterations=0)
