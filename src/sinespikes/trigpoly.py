"""The dual polynomial Q(f) = sum_j gamma[j] exp(-2i*pi*j*f).

This module is the only code that evaluates Q: at points with derivatives,
on a dense grid, at its grid maxima refined by Newton ascent, and through
the curvature of ||Q||^2. On the grid i/G, Q is the zero-padded FFT of the
coefficient rows; at arbitrary points, Q and its derivatives come from one
exponential basis exp(-2i*pi*j*f). Rows of ``gamma`` are the coefficients,
in the scale the SDP bounds by one; only ``dual_atomic_norm`` divides by
sqrt(N), for the pairing with the unit-norm atom of ``model.atom``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidConfigurationError, InvalidDimensionError
from .model import wrap_distance

__all__ = [
    "curvature",
    "dual_atomic_norm",
    "evaluate",
    "grid_points",
    "local_maxima",
    "merge_peaks",
    "refine",
    "scan",
]


def _derivatives(gamma: np.ndarray, freqs, orders) -> list[np.ndarray]:
    """The derivatives of Q of the given orders at ``freqs``, one per order.

    Order p multiplies each coefficient by (-2i*pi*j)^p. All orders share
    one exponential basis and one product with the stacked coefficients.
    """
    g = np.asarray(gamma, dtype=complex)
    j = np.arange(g.shape[0])
    w = (-2j * np.pi * j)[:, None]
    f = np.atleast_1d(np.asarray(freqs, dtype=float))
    out = np.exp(-2j * np.pi * np.outer(f, j)) @ np.hstack([g * w**p for p in orders])
    return np.split(out, len(orders), axis=1)


def evaluate(gamma: np.ndarray, freqs, order: int = 0) -> np.ndarray:
    """Q or its ``order``-th derivative; rows correspond to the f values.

    Order p multiplies each coefficient by (-2i*pi*j)^p. A scalar f yields
    one row of length L.
    """
    if order not in (0, 1, 2):
        raise InvalidConfigurationError(f"derivative order must be 0..2, got {order}")
    (out,) = _derivatives(gamma, freqs, (order,))
    return out[0] if np.isscalar(freqs) else out


def grid_points(n: int, grid_size: int | None = None) -> int:
    """Number of scan points for a polynomial with ``n`` coefficients.

    ``None`` selects max(8192, 32 n) points. Fewer than 2n points cannot
    resolve a polynomial of degree n-1 and are rejected.
    """
    if grid_size is None:
        return max(8192, 32 * n)
    if grid_size < 2 * n:
        raise InvalidConfigurationError(
            f"grid of {grid_size} points is too coarse for degree {n - 1}"
        )
    return grid_size


def scan(gamma: np.ndarray, grid_size: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Grid points i/G and ||Q|| there, with G = ``grid_points(N, grid_size)``.

    Q(i/G) = sum_j gamma[j] exp(-2i*pi*j*i/G) is the length-G FFT of the
    coefficient rows zero-padded from N to G, which G >= 2N allows.
    ``gamma`` must be a nonempty N x L matrix.
    """
    if np.ndim(gamma) != 2 or np.size(gamma) == 0:
        raise InvalidDimensionError(f"expected a nonempty matrix, got shape {np.shape(gamma)}")
    grid_size = grid_points(np.shape(gamma)[0], grid_size)
    f = np.arange(grid_size) / grid_size
    q = np.fft.fft(np.asarray(gamma, dtype=complex), n=grid_size, axis=0)
    return f, np.linalg.norm(q, axis=1)


def local_maxima(values: np.ndarray) -> np.ndarray:
    """Indices of the cyclic local maxima of a periodic grid sampling.

    A plateau counts once, at its last point; a constant sequence has none.
    """
    return np.flatnonzero((values >= np.roll(values, 1)) & (values > np.roll(values, -1)))


def _re_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b.conj()).real


def _curvature(q0: np.ndarray, q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    return _re_inner(q1, q1) + _re_inner(q2, q0)


def curvature(gamma: np.ndarray, freqs) -> np.ndarray:
    """Half the second derivative of ||Q||^2: ||Q'||^2 + Re<Q'', Q>."""
    return _curvature(*_derivatives(gamma, freqs, (0, 1, 2)))


def refine(gamma: np.ndarray, f0, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Newton ascent on ||Q||^2 from the points ``f0``.

    Returns refined locations in [0, 1) and ||Q|| there. A step from a point
    outside the concave neighborhood (curvature >= 0) keeps that point.
    Each step evaluates Q, Q' and Q'' from one exponential basis.
    """
    f = np.atleast_1d(np.asarray(f0, dtype=float))
    for _ in range(steps):
        q = _derivatives(gamma, f, (0, 1, 2))
        slope, curv = _re_inner(q[1], q[0]), _curvature(*q)
        ok = curv < 0
        f = np.where(ok, f - np.divide(slope, curv, out=np.zeros_like(slope), where=ok), f)
    return f % 1.0, np.linalg.norm(evaluate(gamma, f), axis=1)


def dual_atomic_norm(gamma: np.ndarray, grid_size: int | None = None) -> float:
    """sup over f of ||gamma^H a(f, 0)||_2, i.e. of ||Q(f)|| / sqrt(N).

    Found by dense grid plus Newton ascent. The returned value is a lower
    bound on the true supremum, tight to the refinement tolerance because
    the objective is a trigonometric polynomial of degree N-1 sampled at
    >= 16x its bandwidth.
    """
    g = np.asarray(gamma, dtype=complex)
    f, vals = scan(g, grid_size)
    peaks = local_maxima(vals)
    if peaks.size == 0:
        peaks = np.array([int(np.argmax(vals))])
    _, refined = refine(g, f[peaks], steps=3)
    return float(max(refined.max(), vals.max())) / math.sqrt(g.shape[0])


def merge_peaks(freqs, values, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Sort peaks by location and merge those within ``radius`` of each other.

    Each cluster keeps its largest value; the first and last cluster merge
    across the wrap point.
    """
    order = np.argsort(freqs)
    merged_f, merged_v = [], []
    for fr, vr in zip(np.asarray(freqs)[order], np.asarray(values)[order]):
        if merged_f and wrap_distance(fr, merged_f[-1]) <= radius:
            if vr > merged_v[-1]:
                merged_f[-1], merged_v[-1] = fr, vr
        else:
            merged_f.append(fr)
            merged_v.append(vr)
    if len(merged_f) > 1 and wrap_distance(merged_f[0], merged_f[-1]) <= radius:
        if merged_v[-1] > merged_v[0]:
            merged_f[0], merged_v[0] = merged_f[-1], merged_v[-1]
        merged_f.pop()
        merged_v.pop()
    return np.asarray(merged_f, dtype=float), np.asarray(merged_v, dtype=float)
