import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinespikes import (
    CertificateSolution,
    build_kernel,
    build_system,
    locate_frequencies,
    restrict_kernel,
    run_certificate,
    solve_certificate,
    trigpoly,
    validate_certificate,
)
from sinespikes.certificate import _far_from
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
            assert k.coefficients.sum() == pytest.approx(1.0, abs=1e-12)
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
        np.testing.assert_allclose(k.coefficients, k.coefficients[::-1], atol=1e-15)

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
        second = np.sum((2j * np.pi * l) ** 2 * k.coefficients)  # K''(0) over sensor rows
        assert second.real < 0 and abs(second.imag) <= 1e-9
        assert k.kappa == pytest.approx(1.0 / np.sqrt(-second.real), rel=1e-12)

    def test_derivatives_match_finite_differences(self):
        k = build_kernel(25)
        rng = np.random.default_rng(1)
        h = 1e-6
        for f in rng.random(100):
            # nodes f + h, f - h, f, 0: column 3 holds K, column 7 kappa K'
            d = interpolation_matrix(k, [f + h, f - h, f, 0.0])
            fd1 = (d[0, 3] - d[1, 3]) / (2 * h)
            fd2 = (d[0, 7] - d[1, 7]) / (2 * h)
            assert abs(k.kappa * fd1 - d[2, 7]) <= 1e-5 * abs(d[2, 7])
            # |kappa^2 K''(f)| <= kappa^2 |K''(0)| = 1, so this is the relative bound at f = 0
            assert abs(k.kappa * fd2 + d[6, 7]) <= 1e-5

    def test_small_half_length_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            build_kernel(3)


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
        sys = build_system([0.3], [], [1.0], np.array([[1.0]]), np.zeros((0, 1)), k)
        d = sys.matrix
        assert d.shape == (2, 2)
        assert d[0, 0] == pytest.approx(k.coefficients.sum(), abs=1e-12)  # K(0)
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
        assert np.all(kern.coefficients[zeroed] == 0.0)
        kappa = 1.0 / math.sqrt(sum((2 * np.pi * (m - j)) ** 2 * base.coefficients[j]
                                    for j in range(n)))
        assert kern.kappa == pytest.approx(kappa, rel=1e-12)
        for i in range(kk):
            for k in range(kk):
                d0 = d1 = d2 = 0j
                for j in range(n):
                    lj = m - j
                    term = kern.coefficients[j] * np.exp(2j * np.pi * lj * (freqs[i] - freqs[k]))
                    d0 += term
                    d1 += kappa * 2j * np.pi * lj * term
                    d2 += kappa**2 * (2 * np.pi * lj) ** 2 * term
                assert abs(sys.matrix[i, k] - d0) <= 1e-12
                assert abs(sys.matrix[i, kk + k] - d1) <= 1e-12
                assert abs(sys.matrix[kk + i, k] + d1) <= 1e-12
                assert abs(sys.matrix[kk + i, kk + k] - d2) <= 1e-12
        for c, d in enumerate(omega):
            g = d - m
            for i in range(kk):
                assert abs(sys.b_omega[i, c] - np.exp(-2j * np.pi * g * freqs[i])) <= 1e-12
                assert abs(sys.b_omega[kk + i, c]
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
        f0 = cert.freqs[0]
        weight = (-2j * np.pi * np.arange(cert.gamma.shape[0]))[:, None]
        q0, q1 = trigpoly.evaluate(cert.gamma, f0), trigpoly.evaluate(weight * cert.gamma, f0)
        assert abs(2 * np.real(q1 @ q0.conj().T)) <= 1e-9

    def test_nodes_hit_unit_norm_single_snapshot(self):
        cert, report = run_certificate(101, 3, 0.06, 0, n_snapshots=1, seed=1)
        assert report.interpolation_residual <= 1e-10
        vals = np.linalg.norm(trigpoly.evaluate(cert.gamma, cert.freqs), axis=1)
        np.testing.assert_allclose(vals, 1.0, atol=1e-10)

    def test_two_assembly_paths_agree(self):
        # the kernel form exp(-2i*pi*m*f) [sum_k alpha_k K(f - f_k)
        # + kappa beta_k K'(f - f_k) + lam sum_d r_d exp(2i*pi*l_d*f)], with
        # K(x) = sum_j c_j exp(2i*pi*l_j*x) summed over sensor rows, must
        # equal Q of the assembled dual variable; this pins row j to l_j = m - j
        cert, _ = run_certificate(201, 2, 4 / 200, 5, seed=0)
        sys = cert.system
        m = sys.kernel.half_length
        l = m - np.arange(sys.kernel.n_sensors)

        def kern(x, order):
            return (np.exp(2j * np.pi * np.outer(x, l)) * (2j * np.pi * l) ** order) @ sys.kernel.coefficients

        f = np.random.default_rng(4).random(512)
        p = np.zeros((f.size, cert.alpha.shape[1]), dtype=complex)
        for fk, a, b in zip(sys.freqs, cert.alpha, cert.beta):
            p += np.outer(kern(f - fk, 0), a)
            p += sys.kernel.kappa * np.outer(kern(f - fk, 1), b)
        p += cert.lam * np.exp(2j * np.pi * np.outer(f, l[sys.omega])) @ sys.r
        kernel_form = np.exp(-2j * np.pi * m * f)[:, None] * p
        assert np.abs(trigpoly.evaluate(cert.gamma, f) - kernel_form).max() <= 1e-8

    def test_outlier_rows_fixed_on_ball(self):
        cert, _ = run_certificate(201, 2, 4 / 200, 5, seed=2)
        np.testing.assert_allclose(
            cert.gamma[cert.omega], cert.lam * cert.system.r, atol=1e-14
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
            kernel_part = kern.coefficients[omega, None] * (sys.basis[omega] @ ab)
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
        cert, report = run_certificate(201, 2, 4 / 200, 5, seed=3)
        assert report.passed
        located, _ = locate_frequencies(cert.gamma)
        assert located.size == cert.freqs.size
        assert np.abs(np.sort(located) - np.sort(cert.freqs)).max() <= 1e-6

    def test_no_frequencies(self):
        # with K = 0 the dual holds only the outlier rows; no node to interpolate,
        # no near region, and a bound ||Q|| <= 2 lam far below one
        kern = build_kernel(20)
        omega = [3, 17]
        r = np.exp(2j * np.pi * np.array([[0.1, 0.7], [0.4, 0.2]])) / math.sqrt(2)
        sys = build_system([], omega, np.ones(0), np.ones((0, 2)), r,
                           restrict_kernel(kern, omega))
        lam = 1 / math.sqrt(kern.n_sensors)
        gamma = np.zeros((kern.n_sensors, 2), dtype=complex)
        gamma[omega] = lam * r
        cert = CertificateSolution(alpha=np.zeros((0, 2)), beta=np.zeros((0, 2)), gamma=gamma,
                                   system=sys, lam=lam, condition_number=1.0)
        report = validate_certificate(cert)
        assert report.near_curvature_max == -math.inf
        assert report.interpolation_residual == 0.0
        assert report.offgrid_max <= 2 * lam
        assert report.outlier_row_margin == 0.0
        assert report.passed

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


@settings(max_examples=200, deadline=None)
@given(size=st.integers(4, 20000), data=st.data())
def test_far_mask_matches_distance_to_every_node(size, data):
    # nodes and radii on and halfway between grid points hit the window edges
    steps = st.integers(0, 4 * size).map(lambda k: k / (2 * size))
    freqs = np.array(data.draw(st.lists(st.one_of(steps.map(lambda f: f % 1.0),
                                                  st.floats(0.0, 1.0, exclude_max=True)),
                                        max_size=5)))
    radius = data.draw(st.one_of(steps.map(lambda r: r / 4), st.floats(0.0, 0.6)))
    grid = np.arange(size) / size
    dense = wrap_distance(grid[:, None], freqs).min(axis=1, initial=math.inf) > radius
    np.testing.assert_array_equal(_far_from(grid, freqs, radius), dense)
