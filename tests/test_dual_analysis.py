import numpy as np
import pytest

from sinespikes import (
    DualSdpProblem,
    SolverOptions,
    default_lambda,
    demix,
    solve_dual_sdp,
    success,
    synth_instance,
    SynthesisConfig,
    trigpoly,
)
from sinespikes import cli
from sinespikes.dual_analysis import (
    locate_frequencies,
    locate_outliers,
    recover_amplitudes,
)
from sinespikes.errors import (
    IllPosedRecoveryError,
    InvalidConfigurationError,
    NumericalFailureError,
)
from sinespikes.model import _signal_matrix, hermitian_toeplitz, toeplitz_adjoint
from test_solver import dense_lower, dense_value, reference_admm


def fig1_instance(seed=0):
    return synth_instance(SynthesisConfig(
        n_sensors=50, n_snapshots=5, frequencies=(0.1, 0.4, 0.8),
        total_outliers=15, outlier_mode="distinct-sensors-overall", seed=seed,
    ))


class TestEvalDualPoly:
    def test_single_atom_value(self):
        n, f0 = 16, 0.29
        b = np.array([0.6, 0.8], dtype=complex)
        gamma = np.outer(np.exp(2j * np.pi * np.arange(n) * f0), b.conj()) / n
        q = trigpoly.evaluate(gamma, [f0])[0]
        np.testing.assert_allclose(q, b.conj(), atol=1e-12)
        assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)

    def test_zero_everywhere(self):
        gamma = np.zeros((8, 3), dtype=complex)
        weight = (-2j * np.pi * np.arange(8))[:, None]
        for order in (0, 1, 2):
            assert np.abs(trigpoly.evaluate(weight**order * gamma, [0.77])).max() == 0.0

    def test_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        n = 20
        gamma = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        h = 1e-6
        for f in rng.random(10):
            below, above = trigpoly.evaluate(gamma, [f - h, f + h])
            fd = (above - below) / (2 * h)
            an = trigpoly.evaluate((-2j * np.pi * np.arange(n))[:, None] * gamma, [f])[0]
            assert np.abs(an - fd).max() <= 1e-4 * n * max(1.0, np.abs(an).max())

    def test_periodicity(self):
        rng = np.random.default_rng(1)
        gamma = rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2))
        for f in rng.random(20):
            a = np.linalg.norm(trigpoly.evaluate(gamma, [f])[0])
            b = np.linalg.norm(trigpoly.evaluate(gamma, [f + 1.0])[0])
            assert abs(a - b) <= 1e-12


class TestLocateFrequencies:
    def test_zero_polynomial_yields_nothing(self):
        freqs = locate_frequencies(np.zeros((16, 2), dtype=complex), np.zeros((18, 18)))
        assert freqs.size == 0

    def test_gamma_not_a_nonempty_matrix_rejected(self):
        for gamma in (np.ones(16, dtype=complex), np.zeros((0, 2), dtype=complex)):
            with pytest.raises(InvalidConfigurationError):
                locate_frequencies(gamma, np.eye(18))

    def test_single_atom_solve(self):
        n, f0 = 32, 0.4173
        y = np.outer(np.exp(2j * np.pi * np.arange(n) * f0), [1.1, -0.4j])
        sol = solve_dual_sdp(DualSdpProblem(y, default_lambda(n)))
        freqs = locate_frequencies(sol.gamma, sol.primal)
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
        at_lines = np.linalg.norm(trigpoly.evaluate(sol.gamma, report.estimated_frequencies),
                                  axis=1)
        assert np.all((at_lines >= 1 - 1e-4) & (at_lines <= 1 + 1e-5 * 10 * np.sqrt(50)))

    def test_noise_rank_is_rejected_by_the_norm_check(self):
        # no lines, only outliers: the Toeplitz block has a rank from the
        # solver's rounding, and ||Q|| stays below one at every node it gives
        inst = synth_instance(SynthesisConfig(
            n_sensors=16, n_snapshots=2, frequencies=(), total_outliers=3,
            outlier_mode="distinct-sensors-overall", seed=4,
        ))
        sol = solve_dual_sdp(DualSdpProblem(inst.measurement, default_lambda(16)))
        assert sol.converged
        lags = toeplitz_adjoint(sol.primal[:16, :16]) / np.arange(16, 0, -1)
        t = np.linalg.eigvalsh(hermitian_toeplitz(lags))
        assert np.count_nonzero(t > 1e-3 * t[-1]) > 1
        assert locate_frequencies(sol.gamma, sol.primal).size == 0

    def test_lines_are_read_relative_to_the_peak_of_q(self):
        # a dual point strictly inside the feasible set peaks below one: Gamma
        # scaled by 1 - 2e-4 peaks below 1 - _ACCEPT_TOL yet keeps its lines
        inst = fig1_instance(seed=1)
        sol = solve_dual_sdp(DualSdpProblem(inst.measurement, default_lambda(50)))
        freqs = locate_frequencies(sol.gamma, sol.primal)
        assert freqs.size == 3
        np.testing.assert_array_equal(locate_frequencies((1 - 2e-4) * sol.gamma, sol.primal),
                                      freqs)

    def test_eigensolver_failure_is_a_numerical_failure(self, monkeypatch):
        def fail(mat):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalFailureError, match="did not converge"):
            locate_frequencies(np.ones((8, 1), dtype=complex), np.eye(9))


class TestLocateOutliers:
    def test_row_on_boundary_detected(self):
        # a row is read where the primal's outlier part outweighs the gap and
        # the dual row sits on the ball; row 6 fails the first test, row 8
        # the second
        lam = 0.25
        gamma = np.zeros((10, 2), dtype=complex)
        gamma[[4, 6]] = [lam, 0.0]
        gamma[8] = [0.9 * lam, 0.0]
        y = np.zeros((10, 2), dtype=complex)
        y[[4, 8]] = [1.0, 0.0]
        y[6] = [0.1, 0.0]
        rows = locate_outliers(gamma, np.zeros((12, 12)), y, lam, 0.1)
        assert list(rows) == [4]

    def test_clean_instance_empty(self):
        inst = synth_instance(SynthesisConfig(
            n_sensors=32, n_snapshots=2, frequencies=(0.2, 0.6), seed=0,
        ))
        lam = default_lambda(32)
        sol = solve_dual_sdp(DualSdpProblem(inst.measurement, lam))
        rows = locate_outliers(sol.gamma, sol.primal, inst.measurement, lam, sol.upper - sol.lower)
        assert rows.size == 0
        assert np.linalg.norm(sol.gamma, axis=1).max() < lam * (1 - 1e-3)

    # sweep trials (L, delta index, trial) of the grid at base seed 0 on which
    # rows of Gamma on the ball alone read clean rows too: 0, 38 and 6
    @pytest.mark.parametrize("l, delta_index, trial", [(5, 10, 3), (1, 10, 8), (3, 13, 13)])
    def test_clean_row_of_gamma_on_the_ball_is_not_an_outlier(self, l, delta_index, trial):
        seed = cli.trial_seed(0, l, delta_index, trial)
        delta = (0.1 + 0.1 * delta_index) / 50
        inst = synth_instance(cli._trial_config(50, l, 0.2, delta, 10, seed))
        report, sol = demix(inst.measurement, default_lambda(50))
        assert sol.converged and success(report.estimated_frequencies, inst.frequencies)
        np.testing.assert_array_equal(report.estimated_outlier_rows, inst.outlier_rows)


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

    def test_no_frequencies_and_every_row_an_outlier(self):
        y = np.arange(12, dtype=complex).reshape(6, 2)
        a, z = recover_amplitudes(y, [], range(6))
        assert a.shape == (0, 2)
        np.testing.assert_array_equal(z, y)

    def test_all_rows_outliers_rejected(self):
        y = np.ones((5, 2), dtype=complex)
        with pytest.raises(IllPosedRecoveryError):
            recover_amplitudes(y, [0.1], range(5))

    @pytest.mark.parametrize("rows", [[2.7], [True, False], [-1], [3, 3], [12]],
                             ids=["float", "boolean-mask", "negative", "repeated", "past-end"])
    def test_bad_outlier_rows_rejected(self, rows):
        # these used to read row 2, rows 0 and 1, row 9, row 3 twice, and
        # raise a bare IndexError
        y = np.arange(20, dtype=complex).reshape(10, 2)
        with pytest.raises(InvalidConfigurationError):
            recover_amplitudes(y, [0.1], rows)

    def test_rows_located_as_outliers_are_accepted(self):
        y = np.arange(20, dtype=complex).reshape(10, 2)
        for norms in (np.zeros(10), np.r_[0.0, 1.0, 0.0, 1.0, np.zeros(6)]):
            rows = locate_outliers(norms[:, None], np.zeros((11, 11)), norms[:, None], 0.5, 0.0)
            _, z = recover_amplitudes(y, [0.1], rows)
            np.testing.assert_array_equal(np.flatnonzero(np.abs(z).sum(axis=1)), rows)


class TestCertifiedGap:
    def test_zero_measurement_has_no_gap(self):
        report, sol = demix(np.zeros((8, 2), dtype=complex), 0.3)
        assert report.duality_gap == sol.gap
        assert (report.lower, report.upper) == (sol.lower, sol.upper)
        assert 0.0 <= sol.gap <= 1e-12

    def test_early_iterate_has_a_large_gap_even_where_its_lines_match(self):
        # the gap vouches for the iterate, not for the lines read off it: at
        # 100 iterations the lines already match the truth within 1e-4
        inst = fig1_instance(seed=3)
        lam = default_lambda(50)
        report, _ = demix(inst.measurement, lam)
        assert report.duality_gap <= 1e-3
        early, _ = demix(inst.measurement, lam, SolverOptions(max_iterations=100))
        assert success(early.estimated_frequencies, inst.frequencies)
        assert early.duality_gap > 10 * report.duality_gap
        assert early.duality_gap > 1e-3


class TestAcceleration:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_accelerated_and_plain_solves_agree(self, seed):
        # the two solves stop on different iterates; each brackets the
        # optimum. The plain ADMM is the solver tests' reference loop, and its
        # lines and rows are read off as demix reads them
        y = fig1_instance(seed=seed).measurement
        lam = default_lambda(50)
        accelerated, fast = demix(y, lam)
        x, primal, iterations, _, converged = reference_admm(y, lam, 100_000)
        lower, _ = dense_lower(y, x)
        upper = dense_value(y, lam, primal)
        gamma = x[:50, 50:]
        lines = locate_frequencies(gamma, primal)
        rows = locate_outliers(gamma, primal, y, lam, upper - lower)
        assert fast.converged and converged and fast.iterations < iterations
        assert accelerated.lower <= upper and lower <= accelerated.upper
        assert accelerated.estimated_frequencies.size == lines.size == 3
        np.testing.assert_allclose(accelerated.estimated_frequencies, lines, rtol=0, atol=1e-8)
        np.testing.assert_array_equal(accelerated.estimated_outlier_rows, rows)


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
        assert not success([0.9999], [0.00004])
        # the estimates are paired with the truth in circular order
        assert success([0.99998, 0.5], [0.00002, 0.5])
        assert success([0.99998, 0.3, 0.6], [0.00001, 0.3, 0.6])


class TestDemixReport:
    def test_decomposition_consistency(self):
        # signal + outliers reproduce the measurement up to the LS residual,
        # on every seed: an accelerated solve that stops on a loose iterate
        # misses on some (1.1e-6-1.3e-6 on seeds 2 and 5 with memory 20)
        for seed in range(10):
            inst = fig1_instance(seed=seed)
            report, sol = demix(inst.measurement, default_lambda(50))
            signal = _signal_matrix(report.estimated_frequencies, report.estimated_amplitudes, 50)
            resid = np.abs(signal + report.estimated_outliers - inst.measurement).max()
            assert resid <= 1e-6, seed
            outside = np.setdiff1d(np.arange(50), report.estimated_outlier_rows)
            assert np.abs(report.estimated_outliers[outside]).max() == 0.0, seed
            assert report.duality_gap <= 1e-3, seed

    def test_fig1_solve_converges_in_under_1000_iterations(self):
        # the accelerated solve stops at 150 iterations, on its sixth gap
        # check; the plain ADMM with rho balanced on absolute residuals took
        # 1810
        inst = fig1_instance(seed=4)
        report, sol = demix(inst.measurement, default_lambda(50))
        assert sol.converged and sol.iterations < 1000
        signal = _signal_matrix(report.estimated_frequencies, report.estimated_amplitudes, 50)
        assert np.abs(signal + report.estimated_outliers - inst.measurement).max() <= 1e-6

    def test_json_schema(self):
        inst = fig1_instance(seed=5)
        report, _ = demix(inst.measurement, default_lambda(50))
        payload = report.to_json()
        for key in ("estimated_frequencies", "estimated_outlier_rows",
                    "duality_gap", "converged", "lower", "upper"):
            assert key in payload
