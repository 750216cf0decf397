import numpy as np
import pytest

from sinespikes import (
    DualSdpProblem,
    atom,
    default_lambda,
    demix,
    duality_gap,
    locate_frequencies,
    locate_outliers,
    recover_amplitudes,
    signal_matrix,
    solve_dual_sdp,
    success,
    synth_instance,
    SynthesisConfig,
    trigpoly,
)
from sinespikes.errors import (
    IllPosedRecoveryError,
    InvalidConfigurationError,
    InvalidDimensionError,
)
from sinespikes.solver import SdpSolution


def make_solution(gamma):
    return SdpSolution(
        gamma=gamma, lambda_mat=np.eye(gamma.shape[0]) / gamma.shape[0],
        objective=0.0, primal_residual=0.0, dual_residual=0.0,
        iterations=1, converged=True, diagnostics=np.zeros((1, 4)),
    )


def fig1_instance(seed=0):
    return synth_instance(SynthesisConfig(
        n_sensors=50, n_snapshots=5, frequencies=(0.1, 0.4, 0.8),
        total_outliers=15, outlier_mode="distinct-sensors-overall", seed=seed,
    ))


class TestEvalDualPoly:
    def test_single_atom_value(self):
        n, f0 = 16, 0.29
        b = np.array([0.6, 0.8], dtype=complex)
        gamma = np.outer(atom(f0, 0.0, n), b.conj()) / np.sqrt(n)
        q = trigpoly.evaluate(gamma, f0)
        np.testing.assert_allclose(q, b.conj(), atol=1e-12)
        assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)

    def test_zero_everywhere(self):
        gamma = np.zeros((8, 3), dtype=complex)
        weight = (-2j * np.pi * np.arange(8))[:, None]
        for order in (0, 1, 2):
            assert np.abs(trigpoly.evaluate(weight**order * gamma, 0.77)).max() == 0.0

    def test_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        n = 20
        gamma = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        h = 1e-6
        for f in rng.random(10):
            fd = (trigpoly.evaluate(gamma, f + h) - trigpoly.evaluate(gamma, f - h)) / (2 * h)
            an = trigpoly.evaluate((-2j * np.pi * np.arange(n))[:, None] * gamma, f)
            assert np.abs(an - fd).max() <= 1e-4 * n * max(1.0, np.abs(an).max())

    def test_periodicity(self):
        rng = np.random.default_rng(1)
        gamma = rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2))
        for f in rng.random(20):
            a = np.linalg.norm(trigpoly.evaluate(gamma, f))
            b = np.linalg.norm(trigpoly.evaluate(gamma, f + 1.0))
            assert abs(a - b) <= 1e-12


class TestLocateFrequencies:
    def test_zero_polynomial_yields_nothing(self):
        freqs, values = locate_frequencies(np.zeros((16, 2), dtype=complex))
        assert freqs.size == 0 and values.size == 0

    def test_grid_below_twice_the_length_rejected(self):
        gamma = np.ones((16, 2), dtype=complex)
        for grid in (0, -3, 31):
            with pytest.raises(InvalidConfigurationError):
                locate_frequencies(gamma, grid)
        locate_frequencies(gamma, 32)

    def test_gamma_not_a_nonempty_matrix_rejected(self):
        for gamma in (np.ones(16, dtype=complex), np.zeros((0, 2), dtype=complex)):
            with pytest.raises(InvalidDimensionError):
                locate_frequencies(gamma)

    def test_single_atom_solve(self):
        n, f0 = 32, 0.4173
        y = np.outer(np.exp(2j * np.pi * np.arange(n) * f0), [1.1, -0.4j])
        sol = solve_dual_sdp(DualSdpProblem(y, default_lambda(n)))
        freqs, _ = locate_frequencies(sol.gamma)
        assert freqs.size == 1
        assert abs(freqs[0] - f0) <= 1e-4
        # independent check: fine-grid argmax of the polynomial
        fine = np.arange(1 << 16) / (1 << 16)
        vals = np.linalg.norm(
            np.exp(-2j * np.pi * np.outer(fine, np.arange(n))) @ sol.gamma, axis=1
        )
        assert abs(fine[np.argmax(vals)] - f0) <= 1e-4

    def test_fig1_instance_recovery(self):
        inst = fig1_instance(seed=1)
        report, sol = demix(inst.measurement, default_lambda(50))
        assert sol.converged
        assert report.estimated_frequencies.size == 3
        assert np.abs(report.estimated_frequencies - inst.frequencies).max() <= 1e-4
        # feasibility caps the localization polynomial near one
        grid = np.arange(1 << 13) / (1 << 13)
        qn = np.linalg.norm(trigpoly.evaluate(sol.gamma, grid[:512]), axis=1)
        assert qn.max() <= 1.0 + 1e-5 * 10 * np.sqrt(50)
        assert np.all((report.peak_values >= 1 - 1e-3)
                      & (report.peak_values <= 1 + 1e-5 * 10 * np.sqrt(50)))


class TestLocateOutliers:
    def test_row_on_boundary_detected(self):
        lam = 0.25
        gamma = np.zeros((10, 2), dtype=complex)
        gamma[4] = [lam, 0.0]
        rows = locate_outliers(gamma, lam)
        assert list(rows) == [4]

    def test_clean_instance_empty(self):
        inst = synth_instance(SynthesisConfig(
            n_sensors=32, n_snapshots=2, frequencies=(0.2, 0.6), seed=0,
        ))
        lam = default_lambda(32)
        sol = solve_dual_sdp(DualSdpProblem(inst.measurement, lam))
        assert locate_outliers(sol.gamma, lam).size == 0
        assert np.linalg.norm(sol.gamma, axis=1).max() < lam * (1 - 1e-3)


class TestRecoverAmplitudes:
    def test_exact_inverse(self):
        inst = fig1_instance(seed=2)
        a, z = recover_amplitudes(inst.measurement, inst.frequencies, inst.outlier_rows)
        np.testing.assert_allclose(a, inst.amplitudes, atol=1e-8)
        np.testing.assert_allclose(z, inst.outliers, atol=1e-8)

    def test_no_frequencies(self):
        y = np.arange(12, dtype=complex).reshape(6, 2)
        a, z = recover_amplitudes(y, [], [1, 3])
        assert a.shape == (0, 2)
        np.testing.assert_allclose(z[[1, 3]], y[[1, 3]])
        assert np.abs(z[[0, 2, 4, 5]]).max() == 0.0

    def test_all_rows_outliers_rejected(self):
        y = np.ones((5, 2), dtype=complex)
        with pytest.raises(IllPosedRecoveryError):
            recover_amplitudes(y, [0.1], range(5))


class TestDualityGap:
    def test_zero_everything(self):
        sol = make_solution(np.zeros((8, 2), dtype=complex))
        gap = duality_gap(np.zeros((0, 2)), np.zeros((8, 2)), sol, 0.3)
        assert gap == 0.0

    def test_wrong_frequencies_blow_up_the_gap(self):
        inst = fig1_instance(seed=3)
        lam = default_lambda(50)
        report, sol = demix(inst.measurement, lam)
        assert report.duality_gap <= 1e-3
        shifted = (inst.frequencies + 0.05) % 1.0
        a, z = recover_amplitudes(inst.measurement, shifted, report.estimated_outlier_rows)
        bad_gap = duality_gap(a, z, sol, lam)
        assert bad_gap > 10 * report.duality_gap
        assert bad_gap > 1e-3


class TestSuccess:
    def test_exact_match(self):
        assert success([0.2, 0.25], [0.25, 0.2])

    def test_count_mismatch(self):
        assert not success([0.2], [0.2, 0.25])

    def test_threshold_is_strict(self):
        assert not success([0.2 + 1.0001e-4], [0.2])
        assert success([0.2 + 0.9999e-4], [0.2])

    def test_wrap(self):
        assert success([0.99999], [0.00004])


class TestDemixReport:
    def test_decomposition_consistency(self):
        inst = fig1_instance(seed=4)
        report, sol = demix(inst.measurement, default_lambda(50))
        # signal + outliers reproduce the measurement up to the LS residual
        resid = np.abs(report.estimated_signal + report.estimated_outliers
                       - inst.measurement).max()
        assert resid <= 1e-6
        outside = np.setdiff1d(np.arange(50), report.estimated_outlier_rows)
        assert np.abs(report.estimated_outliers[outside]).max() == 0.0
        assert report.duality_gap <= 1e-3

    def test_json_schema(self):
        inst = fig1_instance(seed=5)
        report, _ = demix(inst.measurement, default_lambda(50))
        payload = report.to_json()
        for key in ("estimated_frequencies", "estimated_outlier_rows",
                    "duality_gap", "peak_values", "converged"):
            assert key in payload
