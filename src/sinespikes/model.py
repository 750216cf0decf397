"""Core domain types: atoms, mixture instances, distances and adjoints.

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
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import (
    InvalidConfigurationError,
    InvalidDimensionError,
    UndefinedSeparationError,
)

__all__ = [
    "MixtureInstance",
    "atom",
    "default_lambda",
    "min_separation",
    "signal_matrix",
    "toeplitz_adjoint",
    "wrap_distance",
]


def atom(f: float, phi: float, n_sensors: int) -> np.ndarray:
    """Unit-norm steering vector with entries exp(i*(phi + 2*pi*j*f)) / sqrt(N).

    Parameters
    ----------
    f : frequency in [0, 1)
    phi : global phase in radians
    n_sensors : number of sensors N (>= 1)
    """
    if n_sensors < 1:
        raise InvalidDimensionError(f"atom length must be >= 1, got {n_sensors}")
    j = np.arange(n_sensors)
    return np.exp(1j * (phi + 2.0 * np.pi * j * f)) / math.sqrt(n_sensors)


def default_lambda(n_sensors: int) -> float:
    """Outlier regularization weight 1/sqrt(N)."""
    return 1.0 / math.sqrt(n_sensors)


def wrap_distance(a, b):
    """Distance on the unit circle: min(|a-b|, 1-|a-b|)."""
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % 1.0
    return np.minimum(d, 1.0 - d)


def min_separation(freqs) -> float:
    """Smallest pairwise wrap-around distance among the given frequencies.

    Distances wrap because the frequency axis is a circle; two points near
    0 and 1 are close, not far.
    """
    f = np.asarray(freqs, dtype=float)
    if f.ndim != 1 or f.size < 2:
        raise UndefinedSeparationError(
            "minimum separation needs at least two frequencies"
        )
    s = np.sort(f % 1.0)
    gaps = np.diff(s, append=s[0] + 1.0)
    return float(np.minimum(gaps, 1.0 - gaps).min())


@lru_cache(maxsize=16)
def _upper_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the upper triangle of an n x n matrix and their lags j - i.

    Cached per n (the ADMM solver needs them every iteration); the arrays are
    read-only.
    """
    rows, cols = np.triu_indices(n)
    flat, lag = rows * n + cols, cols - rows
    flat.flags.writeable = lag.flags.writeable = False
    return flat, lag


def toeplitz_adjoint(mat: np.ndarray) -> np.ndarray:
    """Vector of superdiagonal sums: entry k sums the k-th superdiagonal."""
    m = np.asarray(mat)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidDimensionError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    flat, lag = _upper_triangle(n)
    upper = m.ravel()[flat]
    sums = np.bincount(lag, upper.real, n) + 1j * np.bincount(lag, upper.imag, n)
    return sums if np.iscomplexobj(m) else sums.real


def signal_matrix(freqs, amplitudes, n_sensors: int) -> np.ndarray:
    """Assemble S[j, l] = sum_k A[k, l] exp(2i*pi*j*f_k)."""
    f = np.asarray(freqs, dtype=float)
    a = np.asarray(amplitudes, dtype=complex)
    if a.ndim != 2 or a.shape[0] != f.size:
        raise InvalidDimensionError(
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
    outliers : (N, L) sparse corruption, nonzero rows inside ``outlier_rows``
    measurement : (N, L) observed matrix, equals signal + outliers
    seed : seed the instance was synthesized from, if any
    """

    n_sensors: int
    n_snapshots: int
    frequencies: np.ndarray
    amplitudes: np.ndarray
    outliers: np.ndarray
    outlier_rows: np.ndarray
    measurement: np.ndarray
    seed: int | None = field(default=None)

    def __post_init__(self):
        n, l = self.n_sensors, self.n_snapshots
        k = self.frequencies.size
        if self.amplitudes.shape != (k, l):
            raise InvalidDimensionError("amplitudes must be K x L")
        if self.outliers.shape != (n, l) or self.measurement.shape != (n, l):
            raise InvalidDimensionError("outliers and measurement must be N x L")
        if k >= 2 and min_separation(self.frequencies) == 0.0:
            raise InvalidConfigurationError("frequencies must be pairwise distinct")
        hit = np.flatnonzero(np.linalg.norm(self.outliers, axis=1) > 0)
        if not set(hit).issubset(set(int(i) for i in self.outlier_rows)):
            raise InvalidConfigurationError(
                "outlier support does not cover all nonzero outlier rows"
            )

    @classmethod
    def from_components(cls, frequencies, amplitudes, outliers,
                        outlier_rows=None, seed=None) -> "MixtureInstance":
        """Build an instance from ground truth; the measurement is S + Z."""
        f = np.atleast_1d(np.asarray(frequencies, dtype=float)) % 1.0
        a = np.asarray(amplitudes, dtype=complex)
        z = np.asarray(outliers, dtype=complex)
        n, l = z.shape
        if outlier_rows is None:
            outlier_rows = np.flatnonzero(np.linalg.norm(z, axis=1) > 0)
        s = signal_matrix(f, a, n)
        return cls(
            n_sensors=n,
            n_snapshots=l,
            frequencies=f,
            amplitudes=a,
            outliers=z,
            outlier_rows=np.sort(np.asarray(outlier_rows, dtype=int)),
            measurement=s + z,
            seed=seed,
        )

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
    def from_json(cls, payload: dict) -> "MixtureInstance":
        n = int(payload["n_sensors"])
        l = int(payload["n_snapshots"])
        f = np.asarray(payload["frequencies"], dtype=float)
        k = f.size
        a = (np.asarray(payload["amplitudes_re"], dtype=float)
             + 1j * np.asarray(payload["amplitudes_im"], dtype=float)).reshape(k, l)
        z = (np.asarray(payload["outliers_re"], dtype=float)
             + 1j * np.asarray(payload["outliers_im"], dtype=float)).reshape(n, l)
        return cls.from_components(f, a, z, seed=payload.get("seed"))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json()))

    @classmethod
    def load(cls, path) -> "MixtureInstance":
        return cls.from_json(json.loads(Path(path).read_text()))
