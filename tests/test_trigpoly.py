import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinespikes import atom, locate_frequencies, run_certificate, trigpoly, wrap_distance
from sinespikes.errors import InvalidConfigurationError, InvalidDimensionError

PROPERTY = settings(max_examples=40, deadline=None)


def random_gamma(seed, n, l):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, l)) + 1j * rng.standard_normal((n, l))


def scan(gamma, grid=None):
    return trigpoly.scan(trigpoly.coefficients(gamma), grid)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), l=st.integers(1, 4),
       extra=st.integers(0, 300))
def test_scan_equals_point_evaluation(seed, n, l, extra):
    gamma = random_gamma(seed, n, l)
    grid = 2 * n + extra
    f, norms = scan(gamma, grid)
    assert f.size == grid
    np.testing.assert_array_equal(f, np.arange(grid) / grid)
    points = np.stack([trigpoly.evaluate(gamma, fi) for fi in f])
    scale = np.linalg.norm(gamma)
    assert np.abs(norms - np.linalg.norm(points, axis=1)).max() <= 1e-12 * scale


@pytest.mark.parametrize("grid", [1 << 14, 809])  # the certificate grid; an odd prime >= 2N
def test_scan_equals_point_evaluation_at_full_size(grid):
    n = 401
    gamma = random_gamma(grid, n, 3)
    f, norms = scan(gamma, grid)
    np.testing.assert_array_equal(f, np.arange(grid) / grid)
    idx = np.random.default_rng(grid).choice(grid, 200, replace=False)
    points = trigpoly.evaluate(gamma, f[idx])
    scale = np.linalg.norm(gamma)
    assert np.abs(norms[idx] - np.linalg.norm(points, axis=1)).max() <= 1e-12 * scale


@pytest.mark.parametrize("grid", [-3, 0, 1, 15])
def test_scan_rejects_grid_below_twice_the_length(grid):
    with pytest.raises(InvalidConfigurationError):
        scan(np.ones((8, 1), dtype=complex), grid)


@pytest.mark.parametrize("n, grid", [(2, 4), (2, 64), (2, 1 << 14), (5, 210)])
def test_scan_at_an_exact_zero_is_finite_and_nonnegative(n, grid):
    # Q(f) = sum_{j<n} exp(-2i*pi*j*f) vanishes at f = k/n, grid points here;
    # with n = 5 and G = 210 the rounded ||Q||^2 dips below zero at one of them
    f, norms = scan(np.ones((n, 1)), grid)
    assert np.all(np.isfinite(norms)) and norms.min() >= 0.0
    assert norms[grid // n::grid // n].max() <= 1e-7


def test_scan_matches_point_evaluation_where_a_certificate_is_large():
    # ||Q|| >= 1/2 covers the peaks and the off-support bound, where the
    # coefficients of ||Q||^2 give ||Q|| to about one ulp of one
    cert, report = run_certificate(401, 2, 4 / 400, 5, seed=0)
    assert report.passed
    f, norms = scan(cert.gamma, 1 << 14)
    idx = np.flatnonzero(norms >= 0.5)  # the two main lobes
    assert idx.size > 100
    points = np.linalg.norm(trigpoly.evaluate(cert.gamma, f[idx]), axis=1)
    assert np.abs(norms[idx] - points).max() <= 1e-13


def test_zero_gamma_scans_to_zero_without_maxima():
    _, norms = scan(np.zeros((5, 2), dtype=complex), 64)
    np.testing.assert_array_equal(norms, np.zeros(64))
    assert trigpoly.local_maxima(norms).size == 0


@pytest.mark.parametrize("coef", [np.ones((8, 2)), np.ones(0)], ids=["matrix", "empty"])
@pytest.mark.parametrize("reader", [
    lambda c: trigpoly.scan(c),
    lambda c: trigpoly.refine(c, [0.1], 1),
    lambda c: trigpoly.arc_curvature(c, [0.1], 0.01, 3),
], ids=["scan", "refine", "arc_curvature"])
def test_readers_of_the_norm_reject_anything_but_a_coefficient_vector(reader, coef):
    # the N x L dual variable passed for the coefficients of ||Q||^2 by mistake
    with pytest.raises(InvalidDimensionError):
        reader(coef)


def direct_autocorrelation(gamma):
    n = gamma.shape[0]
    return np.array([np.sum(gamma[k:] * gamma[:n - k].conj()) for k in range(n)])


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), l=st.integers(1, 4))
def test_norm_sq_coefficients_are_the_row_autocorrelation(seed, n, l):
    gamma = random_gamma(seed, n, l)
    coef = trigpoly.coefficients(gamma)
    scale = np.linalg.norm(gamma) ** 2
    assert coef.shape == (n,)
    assert np.abs(coef - direct_autocorrelation(gamma)).max() <= 1e-13 * scale
    assert abs(coef[0] - scale) <= 1e-13 * scale


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), l=st.integers(1, 4),
       shift=st.floats(-1.0, 1.0))
def test_norm_sq_coefficients_under_unitary_mixing_and_row_modulation(seed, n, l, shift):
    # Gamma -> Gamma U leaves ||Q||^2 unchanged; modulating row j by
    # exp(-2i*pi*j*phi) moves it to ||Q(f + phi)||^2, so c_k gains exp(-2i*pi*k*phi)
    gamma = random_gamma(seed, n, l)
    u, _ = np.linalg.qr(random_gamma(seed + 1, l, l))
    coef = trigpoly.coefficients(gamma)
    scale = np.linalg.norm(gamma) ** 2
    mixed = trigpoly.coefficients(gamma @ u)
    assert np.abs(mixed - coef).max() <= 1e-13 * scale
    phase = np.exp(-2j * np.pi * np.arange(n) * shift)
    modulated = trigpoly.coefficients(gamma * phase[:, None])
    assert np.abs(modulated - coef * phase).max() <= 1e-13 * scale


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), l=st.integers(1, 5),
       phase=st.floats(0.0, 2 * np.pi))
def test_norm_invariant_under_unitary_and_global_phase(seed, n, l, phase):
    gamma = random_gamma(seed, n, l)
    u, _ = np.linalg.qr(random_gamma(seed + 1, l, l))
    f = np.random.default_rng(seed).random(64)
    base = np.linalg.norm(trigpoly.evaluate(gamma, f), axis=1)
    scale = np.linalg.norm(gamma)
    for other in (gamma @ u, np.exp(1j * phase) * gamma):
        moved = np.linalg.norm(trigpoly.evaluate(other, f), axis=1)
        assert np.abs(moved - base).max() <= 1e-12 * scale


@PROPERTY
@given(n=st.integers(8, 64), f0=st.floats(0.0, 1.0, exclude_max=True),
       gap=st.floats(3.0, 4.0), two=st.booleans(), c=st.floats(-1.0, 1.0))
def test_row_modulation_shifts_located_peaks(n, f0, gap, two, c):
    # atoms with orthonormal directions, scaled so ||Q|| peaks near one
    freqs = [f0, (f0 + gap / n) % 1.0] if two else [f0]
    dirs = np.eye(len(freqs), 2, dtype=complex)
    gamma = sum(np.outer(atom(fk, 0.0, n), d) for fk, d in zip(freqs, dirs)) / np.sqrt(n)
    modulated = gamma * np.exp(2j * np.pi * np.arange(n) * c)[:, None]
    located, _ = locate_frequencies(gamma)
    shifted, _ = locate_frequencies(modulated)
    assert located.size == shifted.size == len(freqs)
    for fs in (located + c) % 1.0:
        assert wrap_distance(shifted, fs).min() <= 1e-9


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), l=st.integers(1, 4),
       f=st.floats(0.0, 1.0))
def test_curvature_matches_finite_difference(seed, n, l, f):
    gamma = random_gamma(seed, n, l)
    h = 1e-4 / n

    def half_sq(x):
        return 0.5 * np.sum(np.abs(trigpoly.evaluate(gamma, x)) ** 2)

    fd = (half_sq(f + h) - 2 * half_sq(f) + half_sq(f - h)) / h**2
    exact = trigpoly.arc_curvature(trigpoly.coefficients(gamma), [f], h, 3)[1, 0]
    assert abs(exact - fd) <= 1e-5 * (2 * np.pi * n) ** 2 * np.linalg.norm(gamma) ** 2


@PROPERTY
@given(grid=st.integers(64, 1 << 14), left=st.floats(0.0, 0.49), right=st.floats(0.01, 0.49),
       v1=st.floats(0.5, 2.0), v2=st.floats(0.5, 2.0))
def test_peaks_within_one_grid_step_across_zero_merge(grid, left, right, v1, v2):
    # the two peaks are under 0.98 steps apart, clear of the rounding at exactly one
    step = 1.0 / grid
    lo, hi = left * step, 1.0 - right * step
    f, v = trigpoly.merge_peaks([0.5, hi, lo], [1.0, v2, v1], step)
    assert f.tolist() == [lo if v1 >= v2 else hi, 0.5]
    assert v.tolist() == [max(v1, v2), 1.0]


def per_order(gamma, f):
    weight = (-2j * np.pi * np.arange(gamma.shape[0]))[:, None]
    return [trigpoly.evaluate(weight**p * gamma, f) for p in (0, 1, 2)]


def re_inner(a, b):
    return np.sum(a * b.conj(), axis=1).real


def point_curvature(gamma, f):
    # half the second derivative of ||Q||^2, ||Q'||^2 + Re<Q'', Q>
    q0, q1, q2 = per_order(gamma, f)
    return re_inner(q1, q1) + re_inner(q2, q0)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60), l=st.integers(1, 4))
def test_refine_matches_newton_step_from_point_evaluation(seed, n, l):
    gamma = random_gamma(seed, n, l)
    coef = trigpoly.coefficients(gamma)
    # a neighbourhood of the grid maximum, where a Newton step is well posed
    f, vals = trigpoly.scan(coef)
    f0 = f[np.argmax(vals)] + np.linspace(-0.1, 0.1, 9) / n
    q0, q1, q2 = per_order(gamma, f0)
    curv = re_inner(q1, q1) + re_inner(q2, q0)

    ok = curv < 0
    stepped = np.where(ok, f0 - re_inner(q1, q0) / np.where(ok, curv, 1.0), f0)
    refined, values = trigpoly.refine(coef, f0, steps=1)
    assert wrap_distance(refined, stepped).max() <= 1e-12
    np.testing.assert_allclose(values, np.linalg.norm(per_order(gamma, stepped)[0], axis=1),
                               rtol=1e-12)


def dense_arc_curvature(gamma, centers, radius, count):
    steps = np.arange(count) * (2 * radius / (count - 1))
    return np.stack([point_curvature(gamma, c - radius + steps) for c in centers], axis=1)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 80), l=st.integers(1, 4),
       wrap=st.floats(-0.02, 0.02),
       others=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=3),
       radius=st.floats(1e-4, 0.5), count=st.integers(2, 600))
def test_arc_curvature_matches_point_evaluation(seed, n, l, wrap, others, radius, count):
    # the first centre sits near the wrap at f = 0, so its arc crosses it
    gamma = random_gamma(seed, n, l)
    centers = [wrap % 1.0] + others
    fast = trigpoly.arc_curvature(trigpoly.coefficients(gamma), centers, radius, count)
    dense = dense_arc_curvature(gamma, centers, radius, count)
    assert fast.shape == (count, len(centers))
    assert np.abs(fast - dense).max() <= 1e-10 * np.abs(dense).max()


def test_arc_curvature_at_full_size():
    # the near regions of a certificate with N = 1001 and K = 20
    rng = np.random.default_rng(1001)
    gamma = random_gamma(1001, 1001, 3)
    centers = np.sort(rng.random(20))
    radius = 0.09 / 500
    fast = trigpoly.arc_curvature(trigpoly.coefficients(gamma), centers, radius, 401)
    dense = dense_arc_curvature(gamma, centers, radius, 401)
    assert np.abs(fast - dense).max() <= 1e-10 * np.abs(dense).max()


def test_arc_curvature_without_centers():
    coef = trigpoly.coefficients(random_gamma(0, 9, 2))
    assert trigpoly.arc_curvature(coef, [], 0.01, 5).shape == (5, 0)


@pytest.mark.parametrize("count", [-1, 0, 1])
def test_arc_curvature_rejects_fewer_than_two_points(count):
    with pytest.raises(InvalidConfigurationError):
        trigpoly.arc_curvature(trigpoly.coefficients(np.ones((8, 1))), [0.2], 0.01, count)
