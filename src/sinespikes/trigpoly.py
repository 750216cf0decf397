"""The dual polynomial Q(f) = sum_j gamma[j] exp(-2i*pi*j*f).

This module is the only code that evaluates Q: at points with derivatives,
on a dense grid, at its grid maxima refined by Newton ascent, and through
the curvature of ||Q||^2. On the grid i/G, Q is the zero-padded FFT of the
coefficient rows; on equispaced arcs around given centres, the curvature
comes from one chirp-z transform (Bluestein's FFT convolution); at
arbitrary points, Q and its derivatives come from one exponential basis
exp(-2i*pi*j*f). Rows of ``gamma`` are the coefficients, in the scale the
SDP bounds by one; only ``dual_atomic_norm`` divides by sqrt(N), for the
pairing with the unit-norm atom of ``model.atom``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidConfigurationError, InvalidDimensionError
from .model import wrap_distance

__all__ = [
    "arc_curvature",
    "curvature",
    "dual_atomic_norm",
    "evaluate",
    "grid_points",
    "local_maxima",
    "merge_peaks",
    "refine",
    "scan",
]


def _stacked(gamma: np.ndarray, orders) -> np.ndarray:
    """The coefficients of the derivatives of the given orders, side by side.

    Order p multiplies each coefficient by (-2i*pi*j)^p.
    """
    g = np.asarray(gamma, dtype=complex)
    w = (-2j * np.pi * np.arange(g.shape[0]))[:, None]
    return np.hstack([g * w**p for p in orders])


def _derivatives(gamma: np.ndarray, freqs, orders) -> list[np.ndarray]:
    """The derivatives of Q of the given orders at ``freqs``, one per order.

    All orders share one exponential basis and one product with the
    stacked coefficients.
    """
    j = np.arange(np.shape(gamma)[0])
    f = np.atleast_1d(np.asarray(freqs, dtype=float))
    out = np.exp(-2j * np.pi * np.outer(f, j)) @ _stacked(gamma, orders)
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


def arc_curvature(gamma: np.ndarray, centers, radius: float, count: int) -> np.ndarray:
    """``curvature`` at c_k - radius + i*h for i < count, h = 2 radius / (count - 1).

    Returns a (count, K) array, one column per centre c_k. With
    a_k = c_k - radius and w = exp(-2i*pi*h), Q^(p)(a_k + i*h) is
    sum_j x_j w^(ij) for x_j = gamma[j] (-2i*pi*j)^p exp(-2i*pi*j*a_k).
    Since ij = (j^2 + i^2 - (i-j)^2) / 2, that is the chirp-z transform
    w^(i^2/2) sum_j (x_j w^(j^2/2)) w^(-(i-j)^2/2): one FFT convolution,
    of a power-of-two length >= N + count - 1, for every centre, order and
    snapshot at once. The output chirp w^(i^2/2) is one unit phase on Q, Q'
    and Q'' at point i, which the curvature pairs with its conjugate, so it
    is left out.
    """
    if count < 2:
        raise InvalidConfigurationError(f"an arc needs at least two points, got {count}")
    n = np.shape(gamma)[0]
    starts = np.atleast_1d(np.asarray(centers, dtype=float)) - radius
    h = 2.0 * radius / (count - 1)
    cols = _stacked(gamma, (0, 1, 2))
    x = np.exp(-2j * np.pi * np.outer(np.arange(n), starts))[:, :, None] * cols[:, None, :]

    chirp = np.exp(-1j * np.pi * h * np.arange(max(n, count), dtype=float) ** 2)  # w^(k^2/2)
    size = 1 << (n + count - 2).bit_length()
    kernel = np.zeros(size, dtype=complex)
    kernel[:count] = chirp[:count].conj()
    kernel[size - n + 1:] = chirp[n - 1:0:-1].conj()
    spectrum = np.fft.fft(chirp[:n, None] * x.reshape(n, -1), n=size, axis=0)
    y = np.fft.ifft(spectrum * np.fft.fft(kernel)[:, None], axis=0)[:count]
    y = y.reshape(-1, cols.shape[1])
    return _curvature(*np.split(y, 3, axis=1)).reshape(count, starts.size)


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
