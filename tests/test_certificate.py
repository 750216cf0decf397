import math

import numpy as np
import pytest

from sinespikes import (
    build_kernel,
    build_system,
    curvature_scale,
    kernel_eval,
    locate_frequencies,
    localization_polynomial,
    restrict_kernel,
    run_certificate,
    solve_certificate,
    validate_certificate,
)
from sinespikes.certificate import ValidationOptions
from sinespikes.errors import InvalidConfigurationError


def dirichlet_product(m, f):
    """Reference evaluation: product of the three normalized Dirichlet factors."""
    orders = [int(math.floor(rate * m)) for rate in (0.247, 0.339, 0.414)]
    f = np.atleast_1d(np.asarray(f, dtype=float))
    out = np.ones_like(f, dtype=complex)
    for mi in orders:
        l = np.arange(-mi, mi + 1)
        out *= np.exp(2j * np.pi * np.outer(f, l)).sum(axis=1) / (2 * mi + 1)
    return out


class TestKernel:
    def test_peak_normalization(self):
        for m in (5, 25, 50, 100):
            k = build_kernel(m)
            assert k.coefficients.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.real(kernel_eval(k, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_dirichlet_product(self):
        m = 50
        k = build_kernel(m)
        f = np.arange(4096) / 4096
        direct = kernel_eval(k, f)
        reference = dirichlet_product(m, f)
        assert np.abs(direct - reference).max() <= 1e-10

    def test_coefficients_symmetric(self):
        k = build_kernel(37)
        np.testing.assert_allclose(k.coefficients, k.coefficients[::-1], atol=1e-15)

    def test_evaluation_is_real(self):
        k = build_kernel(30)
        f = np.random.default_rng(0).random(64)
        assert np.abs(kernel_eval(k, f).imag).max() <= 1e-12

    def test_first_derivative_vanishes_at_origin(self):
        k = build_kernel(40)
        assert abs(kernel_eval(k, 0.0, order=1)) <= 1e-12

    def test_second_derivative_negative_at_origin(self):
        k = build_kernel(40)
        val = kernel_eval(k, 0.0, order=2)
        assert np.real(val) < 0 and abs(np.imag(val)) <= 1e-9

    def test_derivatives_match_finite_differences(self):
        k = build_kernel(25)
        rng = np.random.default_rng(1)
        h = 1e-6
        for f in rng.random(100):
            for order in (1, 2, 3):
                fd = (kernel_eval(k, f + h, order - 1)
                      - kernel_eval(k, f - h, order - 1)) / (2 * h)
                an = kernel_eval(k, f, order)
                scale = max(abs(an), abs(kernel_eval(k, 0.0, order)))
                assert abs(an - fd) <= 1e-5 * scale

    def test_small_half_length_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            build_kernel(3)

    def test_order_range(self):
        k = build_kernel(10)
        with pytest.raises(InvalidConfigurationError):
            kernel_eval(k, 0.1, order=4)


class TestRestrictKernel:
    def test_empty_restriction_is_identity(self):
        k = build_kernel(20)
        r = restrict_kernel(k, [])
        np.testing.assert_allclose(r.coefficients, k.coefficients)

    def test_full_restriction_is_zero(self):
        k = build_kernel(20)
        r = restrict_kernel(k, range(41))
        assert np.abs(r.coefficients).max() == 0.0

    def test_out_of_range_rejected(self):
        k = build_kernel(10)
        with pytest.raises(InvalidConfigurationError):
            restrict_kernel(k, [21])

    def test_expectation_scaling(self):
        # mean of random restrictions approaches (N - s)/N times the kernel
        m, s, draws = 100, 10, 10_000
        k = build_kernel(m)
        n = 2 * m + 1
        rng = np.random.default_rng(2)
        probes = np.linspace(0.0, 0.5, 16, endpoint=False)
        basis = np.exp(2j * np.pi * np.outer(probes, np.arange(-m, m + 1)))
        keep = np.ones((draws, n))
        for i in range(draws):
            keep[i, rng.choice(n, s, replace=False)] = 0.0
        means = (keep * k.coefficients).mean(axis=0)
        mc = basis @ means
        expected = (n - s) / n * (basis @ k.coefficients)
        assert np.abs(mc - expected).max() <= 2e-2


class TestBuildSystem:
    def test_single_frequency_blocks(self):
        k = restrict_kernel(build_kernel(30), [])
        kappa = curvature_scale(k.base)
        sys = build_system([0.3], [], [1.0], np.array([[1.0]]), np.zeros((0, 1)), k)
        d = sys.matrix
        assert d.shape == (2, 2)
        assert d[0, 0] == pytest.approx(np.real(kernel_eval(k, 0.0)), abs=1e-12)
        assert abs(d[0, 1]) <= 1e-12  # kappa K'(0)
        assert d[1, 1] == pytest.approx(1.0, abs=1e-12)  # -kappa^2 K''(0)

    def test_blocks_match_brute_force(self):
        rng = np.random.default_rng(3)
        m, kk, s, l = 40, 3, 4, 2
        kern = restrict_kernel(build_kernel(m), rng.choice(2 * m + 1, 5, replace=False))
        freqs = np.sort(rng.random(kk))
        omega = np.sort(rng.choice(2 * m + 1, s, replace=False))
        h = np.exp(2j * np.pi * rng.random(kk))
        b = rng.standard_normal((kk, l)) + 1j * rng.standard_normal((kk, l))
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        r = np.exp(2j * np.pi * rng.random((s, l))) / math.sqrt(l)
        sys = build_system(freqs, omega, h, b, r, kern)
        kappa = sys.kappa
        for i in range(kk):
            for j in range(kk):
                diff = freqs[i] - freqs[j]
                assert abs(sys.matrix[i, j] - kernel_eval(kern, diff)) <= 1e-12
                assert abs(sys.matrix[i, kk + j] - kappa * kernel_eval(kern, diff, 1)) <= 1e-12
                assert abs(sys.matrix[kk + i, j] + kappa * kernel_eval(kern, diff, 1)) <= 1e-12
                assert abs(sys.matrix[kk + i, kk + j] + kappa**2 * kernel_eval(kern, diff, 2)) <= 1e-12
        for c, d in enumerate(omega):
            g = d - m
            for i in range(kk):
                assert abs(sys.b_omega[i, c] - np.exp(-2j * np.pi * g * freqs[i])) <= 1e-12
                assert abs(sys.b_omega[kk + i, c]
                           - 2j * np.pi * g * kappa * np.exp(-2j * np.pi * g * freqs[i])) <= 1e-12
        np.testing.assert_allclose(sys.phi, h[:, None] * b.conj(), atol=1e-14)


class TestSolveCertificate:
    def test_single_frequency_no_outliers(self):
        cert, report = run_certificate(61, 1, 0.0, 0, n_snapshots=2, seed=0)
        assert report.passed
        assert report.interpolation_residual <= 1e-10
        # derivative of ||Q||^2 vanishes at the node
        dp = localization_polynomial(cert.gamma)
        f0 = cert.freqs[0]
        q0, q1 = dp(f0, 0), dp(f0, 1)
        assert abs(2 * np.real(q1 @ q0.conj().T)) <= 1e-9

    def test_nodes_hit_unit_norm_single_snapshot(self):
        cert, report = run_certificate(101, 3, 0.06, 0, n_snapshots=1, seed=1)
        assert report.interpolation_residual <= 1e-10
        vals = np.linalg.norm(localization_polynomial(cert.gamma)(cert.freqs), axis=1)
        np.testing.assert_allclose(vals, 1.0, atol=1e-10)

    def test_two_assembly_paths_agree(self):
        # the kernel form exp(-2i*pi*m*f) [sum_k alpha_k K(f - f_k)
        # + kappa beta_k K'(f - f_k) + lam sum_d r_d exp(-2i*pi*(d - m)*f)]
        # must equal the polynomial of the assembled dual variable; this pins
        # the reflection of the coefficients onto sensor rows
        cert, _ = run_certificate(201, 2, 4 / 200, 5, seed=0)
        sys = cert.system
        m = sys.kernel.half_length
        f = np.random.default_rng(4).random(512)
        p = np.zeros((f.size, cert.alpha.shape[1]), dtype=complex)
        for fk, a, b in zip(sys.freqs, cert.alpha, cert.beta):
            p += np.outer(kernel_eval(sys.kernel, f - fk), a)
            p += sys.kappa * np.outer(kernel_eval(sys.kernel, f - fk, 1), b)
        p += cert.lam * np.exp(-2j * np.pi * np.outer(f, sys.omega - m)) @ sys.r
        kernel_form = np.exp(-2j * np.pi * m * f)[:, None] * p
        dp = localization_polynomial(cert.gamma)
        assert np.abs(dp(f) - kernel_form).max() <= 1e-8

    def test_outlier_rows_fixed_on_ball(self):
        cert, _ = run_certificate(201, 2, 4 / 200, 5, seed=2)
        np.testing.assert_allclose(
            cert.gamma[cert.omega], cert.lam * cert.system.r, atol=1e-14
        )

    def test_ill_conditioned_reports_failure(self):
        cert, report = run_certificate(21, 2, 4 / 20, 19, seed=1)
        assert cert is None
        assert not report.passed
        assert report.failure is not None
        assert np.isfinite(report.condition_number_d)


class TestValidateCertificate:
    def test_clean_construction_passes(self):
        cert, report = run_certificate(201, 2, 4 / 200, 0, seed=0)
        assert report.passed
        assert report.offgrid_max < 1.0
        assert report.near_curvature_max < 0.0
        assert report.outlier_row_margin < 1.0

    def test_report_fields_consistent_with_pass(self):
        _, report = run_certificate(201, 2, 4 / 200, 5, seed=7)
        expected = (report.interpolation_residual <= 1e-8
                    and report.offgrid_max < 1.0
                    and report.near_curvature_max < 0.0
                    and report.outlier_row_margin < 1.0)
        assert report.passed == expected

    def test_located_frequencies_match_construction(self):
        cert, report = run_certificate(201, 2, 4 / 200, 5, seed=3)
        assert report.passed
        located, _ = locate_frequencies(localization_polynomial(cert.gamma))
        assert located.size == cert.freqs.size
        assert np.abs(np.sort(located) - np.sort(cert.freqs)).max() <= 1e-6

    def test_absolute_near_radius_flag(self):
        cert, _ = run_certificate(201, 2, 4 / 200, 0, seed=0)
        report = validate_certificate(
            cert, ValidationOptions(near_radius=0.002, near_radius_scaled=False)
        )
        assert np.isfinite(report.near_curvature_max)

    def test_json_schema(self):
        _, report = run_certificate(61, 1, 0.0, 0, seed=0)
        payload = report.to_json()
        for key in ("interpolation_residual", "offgrid_max", "near_curvature_max",
                    "outlier_row_margin", "condition_number_d", "pass"):
            assert key in payload
