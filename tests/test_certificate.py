import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinespikes import (
    CertificateSolution,
    MixtureInstance,
    demix,
    run_certificate,
    success,
    trigpoly,
)
from sinespikes import certificate
from sinespikes.certificate import (
    ValidationOptions,
    _is_unit,
    _near_indices,
    build_kernel,
    build_system,
    restrict_kernel,
    solve_certificate,
    validate_certificate,
)
from sinespikes.dual_analysis import locate_frequencies
from sinespikes.errors import InvalidConfigurationError
from sinespikes.model import wrap_distance


def dirichlet_product(m, f):
    """Reference evaluation: product of the three normalized Dirichlet factors."""
    orders = [int(math.floor(rate * m)) for rate in (0.247, 0.339, 0.414)]
    f = np.atleast_1d(np.asarray(f, dtype=float))
    out = np.ones_like(f, dtype=complex)
    for mi in orders:
        l = np.arange(-mi, mi + 1)
        out *= np.exp(2j * np.pi * np.outer(f, l)).sum(axis=1) / (2 * mi + 1)
    return out


def interpolation_matrix(kernel, freqs):
    """build_system's matrix at the given nodes with no outlier rows."""
    k = len(freqs)
    return build_system(freqs, [], np.ones(k), np.ones((k, 1)), np.zeros((0, 1)), kernel).matrix


class TestKernel:
    # the value block D0 of the interpolation matrix holds K(f_i - f_k), the
    # derivative blocks kappa K'(f_i - f_k) and -kappa^2 K''(f_i - f_k)

    def test_peak_normalization(self):
        for m in (5, 25, 50, 100):
            k = build_kernel(m)
            assert k.sum() == pytest.approx(1.0, abs=1e-12)
            assert interpolation_matrix(k, [0.3])[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_dirichlet_product(self):
        m = 50
        k = build_kernel(m)
        f = np.arange(512) / 512
        direct = interpolation_matrix(k, np.append(f, 0.0))[:512, 512]
        reference = dirichlet_product(m, f)
        assert np.abs(direct - reference).max() <= 1e-10

    def test_coefficients_symmetric(self):
        k = build_kernel(37)
        np.testing.assert_allclose(k, k[::-1], atol=1e-15)

    def test_evaluation_is_real(self):
        # real and even: K(f) = K(-f) is real, so D0 is real and symmetric
        k = build_kernel(30)
        f = np.random.default_rng(0).random(64)
        d0 = interpolation_matrix(k, np.append(f, 0.0))[:65, :65]
        assert np.abs(d0.imag).max() <= 1e-12
        np.testing.assert_allclose(d0[:64, 64], d0[64, :64], atol=1e-12)

    def test_first_derivative_vanishes_at_origin(self):
        k = build_kernel(40)
        d = interpolation_matrix(k, [0.3])
        assert abs(d[0, 1]) <= 1e-12 and abs(d[1, 0]) <= 1e-12

    def test_second_derivative_negative_at_origin(self):
        m = 40
        k = build_kernel(m)
        l = m - np.arange(2 * m + 1)
        second = np.sum((2j * np.pi * l) ** 2 * k)  # K''(0) over sensor rows
        assert second.real < 0 and abs(second.imag) <= 1e-9
        assert certificate._size_table(m).kappa == pytest.approx(1.0 / np.sqrt(-second.real), rel=1e-12)

    def test_derivatives_match_finite_differences(self):
        k = build_kernel(25)
        kappa = certificate._size_table(25).kappa
        rng = np.random.default_rng(1)
        h = 1e-6
        for f in rng.random(100):
            # nodes f + h, f - h, f, 0: column 3 holds K, column 7 kappa K'
            d = interpolation_matrix(k, [f + h, f - h, f, 0.0])
            fd1 = (d[0, 3] - d[1, 3]) / (2 * h)
            fd2 = (d[0, 7] - d[1, 7]) / (2 * h)
            assert abs(kappa * fd1 - d[2, 7]) <= 1e-5 * abs(d[2, 7])
            # |kappa^2 K''(f)| <= kappa^2 |K''(0)| = 1, so this is the relative bound at f = 0
            assert abs(kappa * fd2 + d[6, 7]) <= 1e-5

    def test_small_half_length_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            build_kernel(3)

    def test_mutating_returned_coefficients_cannot_change_a_later_kernel(self):
        first = build_kernel(17)
        expected = first.copy()
        first[:] = 7.0
        again = build_kernel(17)
        np.testing.assert_array_equal(again, expected)
        assert again is not first


class TestRestrictKernel:
    def test_empty_restriction_is_identity(self):
        k = build_kernel(20)
        r = restrict_kernel(k, [])
        np.testing.assert_allclose(r, k)
        r = restrict_kernel(k, np.array([], dtype=int))
        np.testing.assert_allclose(r, k)

    def test_full_restriction_is_zero(self):
        k = build_kernel(20)
        r = restrict_kernel(k, range(41))
        assert np.abs(r).max() == 0.0
        np.testing.assert_array_equal(k, build_kernel(20))  # the input is not changed

    def test_out_of_range_rejected(self):
        k = build_kernel(10)
        with pytest.raises(InvalidConfigurationError):
            restrict_kernel(k, [21])

    @pytest.mark.parametrize("omega", [[-1], [4, 21], [3, 3], [0, 5, 0],
                                       [2.7], [True, False], np.array([1.0])],
                             ids=["negative", "one-past-end", "repeated", "repeated-unsorted",
                                  "float", "boolean-mask", "float-array"])
    def test_bad_sensor_rows_rejected(self, omega):
        # a float used to be truncated and a boolean mask read as indices
        k = build_kernel(10)
        with pytest.raises(InvalidConfigurationError):
            restrict_kernel(k, omega)

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
        means = (keep * k).mean(axis=0)
        mc = basis @ means
        expected = (n - s) / n * (basis @ k)
        assert np.abs(mc - expected).max() <= 2e-2


class TestBuildSystem:
    @pytest.mark.parametrize("omega", [[-1], [41], [3, 3], [9, 2, 9],
                                       [2.7], [True, False], np.array([1.0])],
                             ids=["negative", "past-end", "repeated", "repeated-unsorted",
                                  "float", "boolean-mask", "float-array"])
    def test_bad_sensor_rows_rejected(self, omega):
        # -1 would silently address row N-1; a repeated row doubles its
        # boundary term and breaks the interpolation
        kern = build_kernel(20)
        r = np.ones((len(omega), 1), dtype=complex)
        with pytest.raises(InvalidConfigurationError):
            build_system([0.3], omega, [1.0], np.ones((1, 1)), r, kern)

    @pytest.mark.parametrize("r", [np.full((1, 4), 2**-0.5), np.full((2, 3), 3**-0.5),
                                   np.full(4, 2**-0.5)], ids=["1x4", "2x3", "flat"])
    def test_r_must_be_one_row_per_outlier_row_and_snapshot(self, r):
        # every r has unit rows, or unit rows once regrouped in pairs; two
        # outlier rows over two snapshots need a (2, 2) r
        with pytest.raises(InvalidConfigurationError, match="shape"):
            build_system([0.3], [3, 17], [1.0], np.full((1, 2), 2**-0.5), r, build_kernel(20))

    @pytest.mark.parametrize("kernel", [np.full((1, 41), 1 / 41), np.full(40, 1 / 40),
                                        np.full(7, 1 / 7)],
                             ids=["2-D", "even-length", "half-length-3"])
    def test_kernel_must_be_a_vector_of_odd_length_at_least_9(self, kernel):
        with pytest.raises(InvalidConfigurationError):
            build_system([0.3], [], [1.0], np.ones((1, 1)), np.zeros((0, 1)), kernel)

    def test_sensor_rows_are_sorted(self):
        kern = build_kernel(20)
        sys = build_system([0.3], [17, 3], [1.0], np.ones((1, 1)), np.ones((2, 1)), kern)
        np.testing.assert_array_equal(sys.omega, [3, 17])

    def test_row_i_of_r_stays_with_omega_i(self):
        kern = restrict_kernel(build_kernel(20), [17, 3])
        cert = solve_certificate(build_system([0.3], [17, 3], [1.0], [[1.0]], [[1.0], [1j]], kern))
        np.testing.assert_array_equal(cert.gamma[[17, 3], 0], cert.lam * np.array([1.0, 1j]))
        ascending = solve_certificate(
            build_system([0.3], [3, 17], [1.0], [[1.0]], [[1j], [1.0]], kern))
        np.testing.assert_array_equal(cert.gamma, ascending.gamma)

    def test_mutating_a_system_cannot_change_a_later_system(self):
        kern = restrict_kernel(build_kernel(20), [4])
        args = ([0.3, 0.6], [4], [1.0, 1.0], np.ones((2, 1)), np.ones((1, 1)), kern)
        first = build_system(*args)
        expected = first.basis.copy()
        first.basis[:] = 0.0  # the basis is the caller's own
        np.testing.assert_array_equal(build_system(*args).basis, expected)

    @pytest.mark.parametrize("values", [
        # allclose's bound is 1e-9 + 1e-5 * |1| = 1.0001e-5
        [1.0], [1.0 + 1.0000e-5], [1.0 - 1.0000e-5], [1.0 + 1.0002e-5], [1.0 - 1.0002e-5],
        [1.0 + 1e-9 + 1e-5], [np.nan], [np.inf], [-np.inf], [1.0, np.nan], [], [-1.0],
    ])
    def test_unit_check_is_allclose_to_one(self, values):
        values = np.asarray(values, dtype=float)
        assert _is_unit(values) == np.allclose(values, 1.0, atol=1e-9)

    def test_single_frequency_blocks(self):
        k = restrict_kernel(build_kernel(30), [])
        sys = build_system([0.3], [], [1.0], np.array([[1.0]]), np.zeros((0, 1)), k)
        d = sys.matrix
        assert d.shape == (2, 2)
        assert d[0, 0] == pytest.approx(k.sum(), abs=1e-12)  # K(0)
        assert abs(d[0, 1]) <= 1e-12  # kappa K'(0)
        assert d[1, 1] == pytest.approx(1.0, abs=1e-12)  # -kappa^2 K''(0)

    def test_blocks_match_brute_force(self):
        # oracle: explicit sums over sensor rows j, kernel index l_j = m - j
        rng = np.random.default_rng(3)
        m, kk, s, l = 40, 3, 4, 2
        n = 2 * m + 1
        base = build_kernel(m)
        zeroed = rng.choice(n, 5, replace=False)
        kern = restrict_kernel(base, zeroed)
        freqs = np.sort(rng.random(kk))
        omega = np.sort(rng.choice(n, s, replace=False))
        h = np.exp(2j * np.pi * rng.random(kk))
        b = rng.standard_normal((kk, l)) + 1j * rng.standard_normal((kk, l))
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        r = np.exp(2j * np.pi * rng.random((s, l))) / math.sqrt(l)
        sys = build_system(freqs, omega, h, b, r, kern)
        assert np.all(kern[zeroed] == 0.0)
        kappa = 1.0 / math.sqrt(sum((2 * np.pi * (m - j)) ** 2 * base[j] for j in range(n)))
        assert certificate._size_table(m).kappa == pytest.approx(kappa, rel=1e-12)
        for i in range(kk):
            for k in range(kk):
                d0 = d1 = d2 = 0j
                for j in range(n):
                    lj = m - j
                    term = kern[j] * np.exp(2j * np.pi * lj * (freqs[i] - freqs[k]))
                    d0 += term
                    d1 += kappa * 2j * np.pi * lj * term
                    d2 += kappa**2 * (2 * np.pi * lj) ** 2 * term
                assert abs(sys.matrix[i, k] - d0) <= 1e-12
                assert abs(sys.matrix[i, kk + k] - d1) <= 1e-12
                assert abs(sys.matrix[kk + i, k] + d1) <= 1e-12
                assert abs(sys.matrix[kk + i, kk + k] - d2) <= 1e-12
        b_omega = sys.basis[omega].conj().T  # node values and scaled derivatives of rows omega
        for c, d in enumerate(omega):
            g = d - m
            for i in range(kk):
                assert abs(b_omega[i, c] - np.exp(-2j * np.pi * g * freqs[i])) <= 1e-12
                assert abs(b_omega[kk + i, c]
                           - 2j * np.pi * g * kappa * np.exp(-2j * np.pi * g * freqs[i])) <= 1e-12
        np.testing.assert_allclose(sys.phi, h[:, None] * b.conj(), atol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(10, 60), kk=st.integers(1, 3),
           s=st.integers(0, 10))
    def test_matrix_hermitian_positive_definite(self, seed, m, kk, s):
        # F^H C F with C >= 0; at distinct nodes F has full column rank on the
        # kernel's nonzero rows, of which m >= 10 leaves more than 2K
        rng = np.random.default_rng(seed)
        n = 2 * m + 1
        kern = restrict_kernel(build_kernel(m), rng.choice(n, min(s, n // 4), replace=False))
        freqs = (rng.random() + np.arange(kk) * rng.uniform(1.0 / m, 1.0 / kk)) % 1.0
        d = interpolation_matrix(kern, freqs)
        np.testing.assert_allclose(d, d.conj().T, atol=1e-12 * np.abs(d).max())
        assert np.linalg.eigvalsh(d).min() > 0


class TestSolveCertificate:
    def test_single_frequency_no_outliers(self):
        cert, report = run_certificate(61, 1, 0.0, 0, n_snapshots=2, seed=0)
        assert report.passed
        assert report.interpolation_residual <= 1e-10
        # derivative of ||Q||^2 vanishes at the node
        f0 = cert.system.freqs[0]
        weight = (-2j * np.pi * np.arange(cert.gamma.shape[0]))[:, None]
        q0 = trigpoly.evaluate(cert.gamma, [f0])[0]
        q1 = trigpoly.evaluate(weight * cert.gamma, [f0])[0]
        assert abs(2 * np.real(q1 @ q0.conj().T)) <= 1e-9

    def test_nodes_hit_unit_norm_single_snapshot(self):
        cert, report = run_certificate(101, 3, 0.06, 0, n_snapshots=1, seed=1)
        assert report.interpolation_residual <= 1e-10
        vals = np.linalg.norm(trigpoly.evaluate(cert.gamma, cert.system.freqs), axis=1)
        np.testing.assert_allclose(vals, 1.0, atol=1e-10)

    def test_two_assembly_paths_agree(self):
        # the kernel form exp(-2i*pi*m*f) [sum_k alpha_k K(f - f_k)
        # + kappa beta_k K'(f - f_k) + lam sum_d r_d exp(2i*pi*l_d*f)], with
        # K(x) = sum_j c_j exp(2i*pi*l_j*x) summed over sensor rows, must
        # equal Q of the assembled dual variable; this pins row j to l_j = m - j
        cert, _ = run_certificate(201, 2, 4 / 200, 5, seed=0)
        sys = cert.system
        m = sys.weights.size // 2
        l = m - np.arange(sys.weights.size)

        def kern(x, order):
            return (np.exp(2j * np.pi * np.outer(x, l)) * (2j * np.pi * l) ** order) @ sys.weights

        f = np.random.default_rng(4).random(512)
        p = np.zeros((f.size, cert.alpha.shape[1]), dtype=complex)
        for fk, a, b in zip(sys.freqs, cert.alpha, cert.beta):
            p += np.outer(kern(f - fk, 0), a)
            p += certificate._size_table(m).kappa * np.outer(kern(f - fk, 1), b)
        p += cert.lam * np.exp(2j * np.pi * np.outer(f, l[sys.omega])) @ sys.r
        kernel_form = np.exp(-2j * np.pi * m * f)[:, None] * p
        assert np.abs(trigpoly.evaluate(cert.gamma, f) - kernel_form).max() <= 1e-8

    def test_outlier_rows_fixed_on_ball(self):
        cert, _ = run_certificate(201, 2, 4 / 200, 5, seed=2)
        np.testing.assert_allclose(
            cert.gamma[cert.system.omega], cert.lam * cert.system.r, atol=1e-14
        )

    def test_interpolation_holds_for_any_kernel(self):
        # F^H Gamma = [phi; 0] whether or not the kernel is zero on Omega
        rng = np.random.default_rng(5)
        m, l = 40, 2
        n = 2 * m + 1
        freqs = np.array([0.21, 0.64])
        omega = np.array([3, 17, 50])
        h = np.exp(2j * np.pi * rng.random(2))
        b = rng.standard_normal((2, l)) + 1j * rng.standard_normal((2, l))
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        r = np.exp(2j * np.pi * rng.random((3, l))) / math.sqrt(l)
        base = build_kernel(m)
        for kern in (base, restrict_kernel(base, omega)):
            sys = build_system(freqs, omega, h, b, r, kern)
            cert = solve_certificate(sys)
            expected = np.vstack([sys.phi, np.zeros((2, l))])
            np.testing.assert_allclose(sys.basis.conj().T @ cert.gamma, expected, atol=1e-10)
            ab = np.vstack([cert.alpha, cert.beta])
            kernel_part = kern[omega, None] * (sys.basis[omega] @ ab)
            np.testing.assert_allclose(cert.gamma[omega] - kernel_part, cert.lam * r, atol=1e-12)

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
        # a Toeplitz primal with nodes at the construction's lines reads them
        # back, and the certificate's ||Q|| accepts them; moved half a
        # resolution cell off the lines, the same nodes are rejected
        cert, report = run_certificate(201, 2, 4 / 200, 5, seed=3)
        assert report.passed
        for shift, expected in ((0.0, cert.system.freqs), (0.5 / 201, [])):
            atoms = np.exp(2j * np.pi * np.outer(np.arange(201), cert.system.freqs + shift))
            located = locate_frequencies(cert.gamma, atoms @ atoms.conj().T)
            assert located.size == len(expected)
            assert np.abs(located - np.sort(expected)).max(initial=0.0) <= 1e-6

    def test_no_frequencies(self):
        # with K = 0 the dual holds only the outlier rows; no node to interpolate,
        # no near region, and a bound ||Q|| <= 2 lam far below one
        kern = build_kernel(20)
        omega = [3, 17]
        r = np.exp(2j * np.pi * np.array([[0.1, 0.7], [0.4, 0.2]])) / math.sqrt(2)
        sys = build_system([], omega, np.ones(0), np.ones((0, 2)), r,
                           restrict_kernel(kern, omega))
        lam = 1 / math.sqrt(kern.size)
        gamma = np.zeros((kern.size, 2), dtype=complex)
        gamma[omega] = lam * r
        cert = CertificateSolution(alpha=np.zeros((0, 2)), beta=np.zeros((0, 2)), gamma=gamma,
                                   system=sys, lam=lam, condition_number=1.0)
        report = validate_certificate(cert)
        assert report.near_curvature_max == -math.inf
        assert report.interpolation_residual == 0.0
        assert report.offgrid_max <= 2 * lam
        assert report.outlier_row_margin == 0.0
        assert report.passed

    def test_every_row_an_outlier(self):
        # no clean row is left to stay inside the ball
        kern = build_kernel(20)
        omega = np.arange(kern.size)
        r = np.exp(2j * np.pi * np.random.default_rng(0).random((omega.size, 2))) / math.sqrt(2)
        sys = build_system([], omega, np.ones(0), np.ones((0, 2)), r,
                           restrict_kernel(kern, omega))
        lam = 1 / math.sqrt(kern.size)
        cert = CertificateSolution(alpha=np.zeros((0, 2)), beta=np.zeros((0, 2)), gamma=lam * r,
                                   system=sys, lam=lam, condition_number=1.0)
        assert validate_certificate(cert).outlier_row_margin == 0.0

    def test_default_separation_is_four_over_n_minus_one(self):
        _, report = run_certificate(201, 2, None, 5)
        _, expected = run_certificate(201, 2, 4 / 200, 5)
        assert report == expected

    @pytest.mark.parametrize("seed", [0, 11, 2**40 + 3])
    def test_draws_come_from_the_streams_synthesis_spawns(self, seed):
        # run_certificate builds only the generators it reads, children 0, 2
        # and 3 of synthesis' four streams; the draws must be theirs
        cert, _ = run_certificate(61, 3, None, 7, n_snapshots=2, seed=seed)
        rng_f, _, rng_pos, rng_val = (np.random.Generator(np.random.Philox(child))
                                      for child in np.random.SeedSequence(seed).spawn(4))
        freqs = np.sort((rng_f.random() + 4 / 60 * np.arange(3)) % 1.0)
        np.testing.assert_array_equal(cert.system.freqs, freqs)
        np.testing.assert_array_equal(cert.system.omega,
                                      np.sort(rng_pos.choice(61, 7, replace=False)))
        rng_val.random(3)  # h
        rng_val.standard_normal((3, 2))  # b, real and imaginary parts
        rng_val.standard_normal((3, 2))
        r = np.exp(2j * np.pi * rng_val.random((7, 2))) / math.sqrt(2)
        np.testing.assert_array_equal(cert.system.r, r)

    def test_coarse_grid_rejected_before_any_system_is_built(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("build_system ran before the grid was checked")

        monkeypatch.setattr(certificate, "build_system", unreachable)
        with pytest.raises(InvalidConfigurationError, match="too coarse"):
            run_certificate(2001, 2, None, 5, opts=ValidationOptions(100))

    @pytest.mark.parametrize("args, named", [
        ((61, 1, 0.0, 0, 2, -1), "seed"),
        ((7, 1, 0.0, 0, 2, 0), "n_sensors"),
        ((-61, 1, 0.0, 0, 2, 0), "n_sensors"),
        ((61, 0, 0.0, 0, 2, 0), "n_frequencies"),
        ((61, 1, 0.0, 62, 2, 0), "n_outliers"),
        ((61, 1, 0.0, 0, 0, 0), "n_snapshots"),
    ])
    def test_unusable_arguments_rejected_by_name_before_any_draw(self, monkeypatch, args, named):
        def unreachable(*a, **k):
            raise AssertionError("a stream was drawn from")

        monkeypatch.setattr(certificate, "stream", unreachable)
        n, k, separation, s, l, seed = args
        with pytest.raises(InvalidConfigurationError, match=named):
            run_certificate(n, k, separation, s, n_snapshots=l, seed=seed)

    def test_default_separation(self):
        assert certificate.default_separation(201) == 4 / 200

    def test_json_schema(self):
        _, report = run_certificate(61, 1, 0.0, 0, seed=0)
        payload = report.to_json()
        for key in ("interpolation_residual", "offgrid_max", "near_curvature_max",
                    "outlier_row_margin", "condition_number_d", "pass"):
            assert key in payload


# run_certificate(401, 2, 4/400, 5, n_snapshots=3, seed=s) reports computed
# with the dense-matrix evaluator: (seed, passed, offgrid_max,
# near_curvature_max, outlier_row_margin)
PINNED_REPORTS = [
    (0, True, 0.9835999519466463, -123272.94224464265, 0.17897476566807147),
    (1, True, 0.9829824713856434, -146604.21084695356, 0.19741749822521873),
    (2, True, 0.9862523995626876, -124061.91699138819, 0.20806052121967825),
    (3, True, 0.9821683253724175, -149486.11358608818, 0.18995636482375047),
    (4, True, 0.9807083667192305, -146864.9668533136, 0.19879802477785255),
]


@pytest.mark.parametrize("seed, passed, offgrid, curvature, margin", PINNED_REPORTS)
def test_report_matches_pinned_values(seed, passed, offgrid, curvature, margin):
    _, report = run_certificate(401, 2, 4 / 400, 5, n_snapshots=3, seed=seed)
    assert report.passed == passed
    assert abs(report.offgrid_max - offgrid) <= 1e-12
    assert abs(report.outlier_row_margin - margin) <= 1e-12
    assert abs(report.near_curvature_max - curvature) <= 1e-10 * abs(curvature)
    assert report.interpolation_residual <= 1e-8


# (n_sensors, n_frequencies, separation, n_outliers, n_snapshots, seed, lam,
# grid_size) and json.dumps(report.to_json()), captured before the size-only
# results (kernel, scan grid, chirp) were cached; the reports must not move
# by a bit
PINNED_JSON = [
    ((11, 1, None, 0, 1, 0, None, None), '{"interpolation_residual": 8.671119018262734e-16, "offgrid_max": 0.9788634346984348, "near_curvature_max": -116.84602655977824, "outlier_row_margin": 0.6633249580710799, "condition_number_d": 1.0000000000000002, "pass": true, "failure": null}'),
    ((11, 2, None, 0, 3, 1, None, None), '{"interpolation_residual": 1.2177709378935644e-15, "offgrid_max": 0.9793331860586915, "near_curvature_max": -114.20663070586573, "outlier_row_margin": 1.1533093197728126, "condition_number_d": 1.1089165781245913, "pass": false, "failure": null}'),
    ((11, 1, 0.0, 6, 3, 2, None, None), '{"interpolation_residual": 5.1115133683891794e-15, "offgrid_max": 1.4648501628974107, "near_curvature_max": -93.40150108517942, "outlier_row_margin": 1.1382381129719934, "condition_number_d": 5.354624864360026, "pass": false, "failure": null}'),
    ((61, 1, 0.0, 56, 1, 0, None, None), '{"interpolation_residual": 2.1466385401689487e-14, "offgrid_max": 3.2729122263257984, "near_curvature_max": -9235.530969621603, "outlier_row_margin": 5.366832928676876, "condition_number_d": 1.6378744727549561, "pass": false, "failure": null}'),
    ((61, 2, None, 50, 3, 3, None, None), '{"interpolation_residual": 1.7815907042629985e-14, "offgrid_max": 2.1666430436722175, "near_curvature_max": 3331.1199737824445, "outlier_row_margin": 3.365422495562373, "condition_number_d": 3.5414267189017914, "pass": false, "failure": null}'),
    ((201, 3, 0.06, 190, 3, 4, None, None), '{"interpolation_residual": 5.695643894736981e-14, "offgrid_max": 2.575602782753885, "near_curvature_max": 22433.28614989864, "outlier_row_margin": 6.558996641436737, "condition_number_d": 4.669093237086417, "pass": false, "failure": null}'),
    ((21, 2, 4 / 20, 19, 1, 1, None, None), '{"interpolation_residual": NaN, "offgrid_max": NaN, "near_curvature_max": NaN, "outlier_row_margin": NaN, "condition_number_d": 1.2972092244748219e+17, "pass": false, "failure": "interpolation system condition number 1.297e+17 exceeds 1.0e+10"}'),
    ((401, 2, 4 / 400, 5, 3, 0, None, None), '{"interpolation_residual": 8.539638049860881e-14, "offgrid_max": 0.9835999519466466, "near_curvature_max": -123272.94224463392, "outlier_row_margin": 0.17897476566807147, "condition_number_d": 1.0370147246171955, "pass": true, "failure": null}'),
    ((401, 2, 4 / 400, 5, 1, 7, None, None), '{"interpolation_residual": 1.0411412019795186e-14, "offgrid_max": 0.9955436249002174, "near_curvature_max": -41377.3360802486, "outlier_row_margin": 0.20482850691461216, "condition_number_d": 1.0472554310157938, "pass": true, "failure": null}'),
    ((101, 2, None, 3, 3, 6, 0.2, 1000), '{"interpolation_residual": 2.0565781204805766e-14, "offgrid_max": 0.9792423044983098, "near_curvature_max": -9616.976202514325, "outlier_row_margin": 0.1522546914765243, "condition_number_d": 1.1108974635352131, "pass": true, "failure": null}'),
    ((1001, 4, None, 20, 3, 5, None, None), '{"interpolation_residual": 3.5534705671252297e-13, "offgrid_max": 0.9827738067077212, "near_curvature_max": -636404.1881981605, "outlier_row_margin": 0.19641853992741917, "condition_number_d": 1.0669784080658138, "pass": true, "failure": null}'),
]


def pinned_report_json(case):
    n, k, sep, s, l, seed, lam, grid = case
    opts = ValidationOptions() if grid is None else ValidationOptions(grid)
    _, report = run_certificate(n, k, sep, s, n_snapshots=l, seed=seed, lam=lam, opts=opts)
    return json.dumps(report.to_json())


@pytest.mark.parametrize("case, expected", PINNED_JSON,
                         ids=[f"N{c[0]}-K{c[1]}-s{c[3]}-L{c[4]}-seed{c[5]}" for c, _ in PINNED_JSON])
def test_report_json_matches_pinned_bytes(case, expected):
    assert pinned_report_json(case) == expected


def test_cold_and_warm_caches_give_identical_reports():
    caches = (certificate._size_table, trigpoly._grid,
              trigpoly._curvature_weights, trigpoly._bluestein)
    for cache in caches:
        cache.cache_clear()
    cold = [pinned_report_json(case) for case, _ in PINNED_JSON]
    assert all(cache.cache_info().misses for cache in caches)
    warm = [pinned_report_json(case) for case, _ in PINNED_JSON]
    assert all(cache.cache_info().hits for cache in caches)
    assert cold == warm


@pytest.mark.parametrize("cached", [
    lambda: (certificate._size_table(20).coefficients,),
    lambda: (certificate._size_table(20).rows, certificate._size_table(20).row_weight),
    lambda: (certificate._size_table(20).derivative_weight,),
    lambda: trigpoly._curvature_weights(41),
], ids=["kernel-coefficients", "row-indices", "scaled-derivative-weight", "curvature-weights"])
def test_size_only_arrays_are_shared_read_only(cached):
    first = cached()
    for array in first:
        with pytest.raises(ValueError):
            array[0] = 1
    assert all(a is b for a, b in zip(first, cached()))


def dense_offgrid_max(cert, grid_size):
    """max ||Q|| over every scan point farther than the near radius from every node."""
    _, qnorm = trigpoly.scan(trigpoly.coefficients(cert.gamma), grid_size)
    grid = np.arange(qnorm.size) / qnorm.size
    radius = certificate._NEAR_RADIUS / (cert.system.weights.size // 2)
    far = wrap_distance(grid[:, None], cert.system.freqs).min(axis=1, initial=math.inf) > radius
    return float(qnorm[far].max()) if far.any() else math.inf


@settings(max_examples=40, deadline=None)
@given(m=st.integers(5, 100), k=st.integers(1, 4), l=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_offgrid_max_is_the_dense_maximum_off_the_near_regions(m, k, l, seed, data):
    n = 2 * m + 1
    s = data.draw(st.integers(0, n - 5))
    separation = data.draw(st.sampled_from([None, 1.0 / (2 * m), 0.0]))
    grid_size = data.draw(st.sampled_from([None, 2 * n, 2 * n + 1, 1000]))
    opts = ValidationOptions() if grid_size is None else ValidationOptions(grid_size)
    cert, report = run_certificate(n, k, separation, s, n_snapshots=l, seed=seed, opts=opts)
    if cert is not None:
        assert report.offgrid_max == dense_offgrid_max(cert, opts.grid_size)


def test_offgrid_max_is_inf_when_no_grid_point_is_far():
    cert, _ = run_certificate(11, 1, None, 0, n_snapshots=2, seed=0)
    freqs = np.arange(22) / 22  # a node on every point of a 22-point scan
    covering = build_system(freqs, [], np.ones(22), np.full((22, 2), 1 / math.sqrt(2)),
                            np.zeros((0, 2)), cert.system.weights)
    cert = CertificateSolution(alpha=cert.alpha, beta=cert.beta, gamma=cert.gamma,
                               system=covering, lam=cert.lam, condition_number=1.0)
    assert dense_offgrid_max(cert, 22) == math.inf
    assert validate_certificate(cert, ValidationOptions(22)).offgrid_max == math.inf


def test_offgrid_max_propagates_nan():
    cert, _ = run_certificate(21, 1, None, 0, seed=0)
    gamma = cert.gamma.copy()
    gamma[3, 0] = np.nan
    cert = CertificateSolution(alpha=cert.alpha, beta=cert.beta, gamma=gamma,
                               system=cert.system, lam=cert.lam, condition_number=1.0)
    report = validate_certificate(cert)
    assert math.isnan(report.offgrid_max)
    assert not report.passed


@settings(max_examples=200, deadline=None)
@given(size=st.integers(4, 20000), data=st.data())
def test_near_indices_match_distance_to_every_node(size, data):
    # nodes and radii on and halfway between grid points hit the window edges
    steps = st.integers(0, 4 * size).map(lambda k: k / (2 * size))
    freqs = np.array(data.draw(st.lists(st.one_of(steps.map(lambda f: f % 1.0),
                                                  st.floats(0.0, 1.0, exclude_max=True)),
                                        max_size=5)))
    radius = data.draw(st.one_of(steps.map(lambda r: r / 4), st.floats(0.0, 0.6)))
    grid = np.arange(size) / size
    dense = wrap_distance(grid[:, None], freqs).min(axis=1, initial=math.inf) <= radius
    np.testing.assert_array_equal(np.unique(_near_indices(grid, freqs, radius)),
                                  np.flatnonzero(dense))


def certified_instance(cert, seed):
    """The instance a solved certificate certifies.

    Line k is c_k Q(f_k) and outlier row j is d_j r_j on Omega, with c and d
    drawn from U[0.5, 1.5]. Q(f_k) is read from the dual variable itself:
    the premodulated target phi_k differs from it by exp(2i*pi*m*f_k).
    """
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.5, 1.5, cert.system.freqs.size)
    d = rng.uniform(0.5, 1.5, cert.system.omega.size)
    amplitudes = c[:, None] * trigpoly.evaluate(cert.gamma, cert.system.freqs)
    outliers = np.zeros_like(cert.gamma)
    outliers[cert.system.omega] = d[:, None] * cert.system.r
    return MixtureInstance.from_components(cert.system.freqs, amplitudes, outliers, seed=seed)


@pytest.mark.parametrize("seed", range(6))
def test_passing_certificate_predicts_exact_recovery(seed):
    # the certified decomposition is the unique optimum, so demix recovers it
    # to the solver's tolerance: amplitudes included, since a line phase
    # off by exp(2i*pi*m*f_k) still recovers the frequencies
    cert, report = run_certificate(41, 2, None, 3, n_snapshots=3, seed=seed)
    assert report.passed
    inst = certified_instance(cert, seed)
    result, _ = demix(inst.measurement, cert.lam)
    assert success(result.estimated_frequencies, inst.frequencies)
    np.testing.assert_array_equal(result.estimated_outlier_rows, cert.system.omega)
    nearest = wrap_distance(result.estimated_frequencies, inst.frequencies[:, None]).argmin(axis=1)
    assert np.abs(result.estimated_amplitudes[nearest] - inst.amplitudes).max() <= 1e-3
    assert np.abs(result.estimated_outliers - inst.outliers).max() <= 1e-3
