import numpy as np
import pytest

from sinespikes import (
    MixtureInstance,
    atom,
    min_separation,
    signal_matrix,
    toeplitz_adjoint,
    wrap_distance,
)
from sinespikes.errors import (
    InvalidConfigurationError,
    InvalidDimensionError,
    UndefinedSeparationError,
)


def brute_min_separation(freqs):
    """All-pairs wrap-around distance, quadratic reference."""
    f = [x % 1.0 for x in freqs]
    best = 1.0
    for i in range(len(f)):
        for j in range(i + 1, len(f)):
            d = abs(f[i] - f[j])
            best = min(best, d, 1.0 - d)
    return best


def brute_toeplitz_adjoint(mat):
    n = mat.shape[0]
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        for i in range(n - k):
            out[k] += mat[i, i + k]
    return out


class TestAtom:
    def test_zero_frequency(self):
        np.testing.assert_allclose(atom(0.0, 0.0, 4), 0.5 * np.ones(4), atol=1e-15)

    def test_alternating(self):
        np.testing.assert_allclose(
            atom(0.5, 0.0, 2), np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-12
        )

    def test_unit_norm_single(self):
        assert abs(np.linalg.norm(atom(0.3, 1.1, 16)) - 1.0) < 1e-12

    def test_unit_norm_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 100))
            v = atom(rng.random(), 2 * np.pi * rng.random(), n)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_entry_formula(self):
        f, phi, n = 0.17, 0.9, 8
        v = atom(f, phi, n)
        for j in range(n):
            expected = np.exp(1j * (phi + 2 * np.pi * j * f)) / np.sqrt(n)
            assert abs(v[j] - expected) < 1e-14

    def test_zero_length_rejected(self):
        with pytest.raises(InvalidDimensionError):
            atom(0.1, 0.0, 0)


class TestMinSeparation:
    def test_three_points(self):
        assert brute_min_separation([0.1, 0.4, 0.8]) == pytest.approx(0.3)
        assert min_separation([0.1, 0.4, 0.8]) == pytest.approx(0.3, abs=1e-15)

    def test_antipodal(self):
        assert min_separation([0.0, 0.5]) == pytest.approx(0.5)

    def test_wrap_around(self):
        assert min_separation([0.02, 0.98]) == pytest.approx(0.04, abs=1e-15)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            f = rng.random(int(rng.integers(2, 8)))
            assert min_separation(f) == pytest.approx(brute_min_separation(f), abs=1e-12)

    def test_permutation_and_shift_invariance(self):
        rng = np.random.default_rng(2)
        f = rng.random(5)
        base = min_separation(f)
        assert min_separation(f[::-1]) == pytest.approx(base, abs=1e-12)
        for shift in (0.13, 0.77):
            assert min_separation((f + shift) % 1.0) == pytest.approx(base, abs=1e-12)

    def test_too_few(self):
        with pytest.raises(UndefinedSeparationError):
            min_separation([0.4])


class TestToeplitzAdjoint:
    def test_identity(self):
        np.testing.assert_allclose(toeplitz_adjoint(np.eye(5)), [5, 0, 0, 0, 0])

    def test_all_ones(self):
        np.testing.assert_allclose(toeplitz_adjoint(np.ones((3, 3))), [3, 2, 1])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        np.testing.assert_allclose(toeplitz_adjoint(m), brute_toeplitz_adjoint(m), atol=1e-14)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            al, be = rng.standard_normal(2)
            lhs = toeplitz_adjoint(al * a + be * b)
            rhs = al * toeplitz_adjoint(a) + be * toeplitz_adjoint(b)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(InvalidDimensionError):
            toeplitz_adjoint(np.ones((3, 4)))


class TestMixtureInstance:
    def _instance(self):
        rng = np.random.default_rng(7)
        f = np.array([0.12, 0.55, 0.9])
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        z = np.zeros((20, 4), dtype=complex)
        z[3, 1] = 1.0 + 2.0j
        z[11, 0] = -0.5j
        return MixtureInstance.from_components(f, a, z, seed=123)

    def test_measurement_invariant(self):
        inst = self._instance()
        np.testing.assert_allclose(
            inst.measurement,
            signal_matrix(inst.frequencies, inst.amplitudes, inst.n_sensors) + inst.outliers,
            atol=1e-12,
        )

    def test_json_roundtrip_exact(self):
        inst = self._instance()
        back = MixtureInstance.from_json(inst.to_json())
        assert np.array_equal(back.measurement, inst.measurement)
        assert np.array_equal(back.frequencies, inst.frequencies)
        assert np.array_equal(back.outlier_rows, inst.outlier_rows)
        assert back.seed == 123

    def test_save_load(self, tmp_path):
        inst = self._instance()
        inst.save(tmp_path / "inst.json")
        back = MixtureInstance.load(tmp_path / "inst.json")
        assert np.array_equal(back.measurement, inst.measurement)

    def test_duplicate_frequencies_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            MixtureInstance.from_components(
                [0.2, 0.2], np.ones((2, 1)), np.zeros((6, 1))
            )


def test_wrap_distance_symmetry():
    assert wrap_distance(0.02, 0.98) == pytest.approx(0.04, abs=1e-15)
    assert wrap_distance(0.98, 0.02) == pytest.approx(0.04, abs=1e-15)
