import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinespikes import atom, locate_frequencies, trigpoly, wrap_distance
from sinespikes.errors import InvalidConfigurationError

PROPERTY = settings(max_examples=40, deadline=None)


def random_gamma(seed, n, l):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, l)) + 1j * rng.standard_normal((n, l))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), l=st.integers(1, 4),
       extra=st.integers(0, 300))
def test_scan_equals_point_evaluation(seed, n, l, extra):
    gamma = random_gamma(seed, n, l)
    grid = 2 * n + extra
    f, norms = trigpoly.scan(gamma, grid)
    assert f.size == grid
    np.testing.assert_array_equal(f, np.arange(grid) / grid)
    points = np.stack([trigpoly.evaluate(gamma, fi) for fi in f])
    scale = np.linalg.norm(gamma)
    assert np.abs(norms - np.linalg.norm(points, axis=1)).max() <= 1e-12 * scale


@pytest.mark.parametrize("grid", [1 << 14, 809])  # the certificate grid; an odd prime >= 2N
def test_scan_equals_point_evaluation_at_full_size(grid):
    n = 401
    gamma = random_gamma(grid, n, 3)
    f, norms = trigpoly.scan(gamma, grid)
    np.testing.assert_array_equal(f, np.arange(grid) / grid)
    idx = np.random.default_rng(grid).choice(grid, 200, replace=False)
    points = trigpoly.evaluate(gamma, f[idx])
    scale = np.linalg.norm(gamma)
    assert np.abs(norms[idx] - np.linalg.norm(points, axis=1)).max() <= 1e-12 * scale


@pytest.mark.parametrize("grid", [-3, 0, 1, 15])
def test_scan_rejects_grid_below_twice_the_length(grid):
    with pytest.raises(InvalidConfigurationError):
        trigpoly.scan(np.ones((8, 1), dtype=complex), grid)


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
    exact = trigpoly.curvature(gamma, np.array([f]))[0]
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
    return [trigpoly.evaluate(gamma, f, p) for p in (0, 1, 2)]


def re_inner(a, b):
    return np.sum(a * b.conj(), axis=1).real


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60), l=st.integers(1, 4))
def test_shared_basis_matches_per_order_evaluation(seed, n, l):
    gamma = random_gamma(seed, n, l)
    # a neighbourhood of the grid maximum, where a Newton step is well posed
    f, vals = trigpoly.scan(gamma)
    f0 = f[np.argmax(vals)] + np.linspace(-0.1, 0.1, 9) / n
    q0, q1, q2 = per_order(gamma, f0)
    curv = re_inner(q1, q1) + re_inner(q2, q0)
    np.testing.assert_allclose(trigpoly.curvature(gamma, f0), curv, rtol=1e-12)

    ok = curv < 0
    stepped = np.where(ok, f0 - re_inner(q1, q0) / np.where(ok, curv, 1.0), f0)
    refined, values = trigpoly.refine(gamma, f0, steps=1)
    assert wrap_distance(refined, stepped).max() <= 1e-12
    np.testing.assert_allclose(values, np.linalg.norm(per_order(gamma, stepped)[0], axis=1),
                               rtol=1e-12)


def dense_arc_curvature(gamma, centers, radius, count):
    steps = np.arange(count) * (2 * radius / (count - 1))
    return np.stack([trigpoly.curvature(gamma, c - radius + steps) for c in centers], axis=1)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 80), l=st.integers(1, 4),
       wrap=st.floats(-0.02, 0.02),
       others=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=3),
       radius=st.floats(1e-4, 0.5), count=st.integers(2, 600))
def test_arc_curvature_matches_point_evaluation(seed, n, l, wrap, others, radius, count):
    # the first centre sits near the wrap at f = 0, so its arc crosses it
    gamma = random_gamma(seed, n, l)
    centers = [wrap % 1.0] + others
    fast = trigpoly.arc_curvature(gamma, centers, radius, count)
    dense = dense_arc_curvature(gamma, centers, radius, count)
    assert fast.shape == (count, len(centers))
    assert np.abs(fast - dense).max() <= 1e-10 * np.abs(dense).max()


def test_arc_curvature_at_full_size():
    # the near regions of a certificate with N = 1001 and K = 20
    rng = np.random.default_rng(1001)
    gamma = random_gamma(1001, 1001, 3)
    centers = np.sort(rng.random(20))
    radius = 0.09 / 500
    fast = trigpoly.arc_curvature(gamma, centers, radius, 401)
    dense = dense_arc_curvature(gamma, centers, radius, 401)
    assert np.abs(fast - dense).max() <= 1e-10 * np.abs(dense).max()


def test_arc_curvature_without_centers():
    assert trigpoly.arc_curvature(random_gamma(0, 9, 2), [], 0.01, 5).shape == (5, 0)


@pytest.mark.parametrize("count", [-1, 0, 1])
def test_arc_curvature_rejects_fewer_than_two_points(count):
    with pytest.raises(InvalidConfigurationError):
        trigpoly.arc_curvature(np.ones((8, 1), dtype=complex), [0.2], 0.01, count)
