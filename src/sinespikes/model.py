"""Core domain types: mixture instances, distances and adjoints.

Conventions used throughout the package:

* sensors are indexed j = 0..N-1, snapshots l = 0..L-1;
* frequencies live on the circle [0, 1) with wrap-around distance;
* complex amplitudes are stored as a K x L matrix A, outliers as an
  N x L matrix Z, and the measurement is Y = S + Z with
  S[j, l] = sum_k A[k, l] * exp(2i*pi*j*f_k).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import InvalidConfigurationError
from .parse import read

__all__ = [
    "MixtureInstance",
    "default_lambda",
    "hermitian_toeplitz",
    "min_separation",
    "resolve_lambda",
    "sensor_rows",
    "toeplitz_adjoint",
    "upper_triangle",
    "wrap_distance",
]


def default_lambda(n_sensors: int) -> float:
    """Outlier regularization weight 1/sqrt(N)."""
    return 1.0 / math.sqrt(n_sensors)


def resolve_lambda(value: float | str | None, n_sensors: int) -> float:
    """lambda from a number or numeric string; "auto" and None give ``default_lambda``."""
    if value is None or value == "auto":
        return default_lambda(n_sensors)
    try:
        lam = float(value)
    except ValueError:
        lam = math.nan
    if not 0 < lam < math.inf:
        raise InvalidConfigurationError(f"lambda must be positive and finite, got {value!r}")
    return lam


def wrap_distance(a, b):
    """Distance on the unit circle: min(|a-b|, 1-|a-b|)."""
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % 1.0
    return np.minimum(d, 1.0 - d)


def sensor_rows(rows, n_sensors: int) -> np.ndarray:
    """The sensor indices ``rows`` sorted, as an integer array.

    Each index must be an integer in 0..n_sensors-1 and appear once. The
    dtype is checked before any cast, so a float is not truncated and a
    boolean mask is not read as indices; an empty input selects no rows.
    """
    idx = np.atleast_1d(np.asarray(rows))
    if idx.size == 0:
        return np.zeros(0, dtype=int)
    if idx.dtype.kind not in "iu":
        raise InvalidConfigurationError(f"sensor indices must be integers, got dtype {idx.dtype}")
    idx = np.sort(idx)
    if idx[0] < 0 or idx[-1] >= n_sensors:
        raise InvalidConfigurationError(
            f"sensor indices must lie in 0..{n_sensors - 1}, got range [{idx[0]}, {idx[-1]}]"
        )
    repeated = idx[1:][idx[1:] == idx[:-1]]
    if repeated.size:
        raise InvalidConfigurationError(
            f"sensor indices must be distinct, got {repeated[0]} more than once"
        )
    return idx.astype(int, copy=False)


def min_separation(freqs) -> float:
    """Smallest pairwise wrap-around distance among the given frequencies.

    Distances wrap because the frequency axis is a circle; two points near
    0 and 1 are close, not far. Fewer than two frequencies have no pair, and
    the minimum over no pairs is +inf.
    """
    f = np.asarray(freqs, dtype=float)
    if f.ndim != 1:
        raise InvalidConfigurationError(f"expected a vector of frequencies, got shape {f.shape}")
    if f.size < 2:
        return math.inf
    s = np.sort(f % 1.0)
    gaps = np.diff(s, append=s[0] + 1.0)
    return float(np.minimum(gaps, 1.0 - gaps).min())


@lru_cache(maxsize=16)
def upper_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the upper triangle of an n x n matrix and their lags j - i.

    Cached per n (the ADMM's affine step needs them every iteration, its
    Anderson acceleration once per solve); the arrays are read-only.
    """
    rows, cols = np.triu_indices(n)
    flat, lag = rows * n + cols, cols - rows
    flat.flags.writeable = lag.flags.writeable = False
    return flat, lag


def toeplitz_adjoint(mat: np.ndarray) -> np.ndarray:
    """Vector of superdiagonal sums: entry k sums the k-th superdiagonal."""
    m = np.asarray(mat)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidConfigurationError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    flat, lag = upper_triangle(n)
    upper = m.ravel()[flat]
    sums = np.bincount(lag, upper.real, n) + 1j * np.bincount(lag, upper.imag, n)
    return sums if np.iscomplexobj(m) else sums.real


@lru_cache(maxsize=16)
def _mirror_index(n: int) -> np.ndarray:
    """Index of every n x n entry into [d, conj(d)] for a vector d of lags:
    d[j - i] on and above the diagonal, conj(d[i - j]) below it."""
    offset = np.arange(n)[None, :] - np.arange(n)[:, None]  # j - i
    index = np.where(offset >= 0, offset, n - offset)
    index.flags.writeable = False
    return index


def hermitian_toeplitz(lags: np.ndarray) -> np.ndarray:
    """The Hermitian Toeplitz matrix with first row ``lags``: entry (i, j) is
    lags[j - i] on and above the diagonal and conj(lags[i - j]) below it."""
    return np.concatenate((lags, lags.conj()))[_mirror_index(lags.size)]


def _signal_matrix(freqs, amplitudes, n_sensors: int) -> np.ndarray:
    """Assemble S[j, l] = sum_k A[k, l] exp(2i*pi*j*f_k)."""
    f = np.asarray(freqs, dtype=float)
    a = np.asarray(amplitudes, dtype=complex)
    if a.ndim != 2 or a.shape[0] != f.size:
        raise InvalidConfigurationError(
            f"amplitudes shape {a.shape} does not match {f.size} frequencies"
        )
    j = np.arange(n_sensors)
    return np.exp(2j * np.pi * np.outer(j, f)) @ a


# ---------------------------------------------------------------------------
# Mixture instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixtureInstance:
    """Ground truth and measurement for one demixing problem.

    Attributes
    ----------
    frequencies : (K,) spectral support in [0, 1), pairwise distinct
    amplitudes : (K, L) complex amplitudes
    outliers : (N, L) row-sparse corruption Z
    measurement : (N, L) observed matrix, equals signal + outliers
    seed : seed the instance was synthesized from, if any

    The sizes N and L and the outlier support (the nonzero rows of Z) are
    read from the arrays, not stored.
    """

    frequencies: np.ndarray
    amplitudes: np.ndarray
    outliers: np.ndarray
    measurement: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        z, y = self.outliers, self.measurement
        if z.ndim != 2 or z.size == 0 or y.shape != z.shape:
            raise InvalidConfigurationError(
                f"outliers and measurement must be nonempty N x L, got {z.shape} and {y.shape}")
        if self.amplitudes.shape != (self.frequencies.size, self.n_snapshots):
            raise InvalidConfigurationError("amplitudes must be K x L")
        if min_separation(self.frequencies) == 0.0:
            raise InvalidConfigurationError("frequencies must be pairwise distinct")

    @property
    def n_sensors(self) -> int:
        return self.outliers.shape[0]

    @property
    def n_snapshots(self) -> int:
        return self.outliers.shape[1]

    @property
    def outlier_rows(self) -> np.ndarray:
        """Sorted indices of the nonzero rows of ``outliers``."""
        return np.flatnonzero(np.linalg.norm(self.outliers, axis=1) > 0)

    @classmethod
    def from_components(cls, frequencies, amplitudes, outliers, seed=None) -> "MixtureInstance":
        """Build an instance from ground truth; the measurement is S + Z."""
        f = np.atleast_1d(np.asarray(frequencies, dtype=float)) % 1.0
        a = np.asarray(amplitudes, dtype=complex)
        z = np.asarray(outliers, dtype=complex)
        return cls(frequencies=f, amplitudes=a, outliers=z,
                   measurement=_signal_matrix(f, a, z.shape[0]) + z, seed=seed)

    def to_json(self) -> dict:
        """JSON-ready dict; complex arrays stored as re/im pairs, row-major."""
        a, z = self.amplitudes, self.outliers
        return {
            "n_sensors": self.n_sensors,
            "n_snapshots": self.n_snapshots,
            "frequencies": [float(x) for x in self.frequencies],
            "amplitudes_re": a.real.ravel().tolist(),
            "amplitudes_im": a.imag.ravel().tolist(),
            "outliers_re": z.real.ravel().tolist(),
            "outliers_im": z.imag.ravel().tolist(),
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, payload) -> "MixtureInstance":
        """Read the layout ``to_json`` writes; every key is checked before use."""
        saved = read(_SavedInstance, payload, "instance")
        k, n, l = len(saved.frequencies), saved.n_sensors, saved.n_snapshots
        a = (np.asarray(saved.amplitudes_re, dtype=float)
             + 1j * np.asarray(saved.amplitudes_im, dtype=float)).reshape(k, l)
        z = (np.asarray(saved.outliers_re, dtype=float)
             + 1j * np.asarray(saved.outliers_im, dtype=float)).reshape(n, l)
        return cls.from_components(saved.frequencies, a, z, seed=saved.seed)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json()))

    @classmethod
    def load(cls, path) -> "MixtureInstance":
        try:
            payload = json.loads(Path(path).read_text())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidConfigurationError(
                f"saved instance {path} is not valid JSON: {exc}") from None
        return cls.from_json(payload)


@dataclass(frozen=True)
class _SavedInstance:
    """The layout ``MixtureInstance.to_json`` writes."""

    n_sensors: int
    n_snapshots: int
    frequencies: tuple[float, ...]
    amplitudes_re: tuple[float, ...]
    amplitudes_im: tuple[float, ...]
    outliers_re: tuple[float, ...]
    outliers_im: tuple[float, ...]
    seed: int | None = None

    def __post_init__(self):
        n, l, k = self.n_sensors, self.n_snapshots, len(self.frequencies)
        if n < 1 or l < 1:
            raise InvalidConfigurationError(f"n_sensors {n} and n_snapshots {l} must be at least 1")
        for key, rows in (("amplitudes_re", k), ("amplitudes_im", k),
                          ("outliers_re", n), ("outliers_im", n)):
            if len(getattr(self, key)) != rows * l:
                raise InvalidConfigurationError(
                    f"{key} must hold {rows} x {l} values, got {len(getattr(self, key))}")
