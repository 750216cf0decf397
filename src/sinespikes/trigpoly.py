"""The dual polynomial Q(f) = sum_j gamma[j] exp(-2i*pi*j*f).

This module is the only code that evaluates trigonometric polynomials, and
it has one point evaluator. ``evaluate(coef, freqs)`` returns
sum_j coef[j] exp(-2i*pi*j*f) for each column of any coefficient matrix
through one exponential basis. It takes no derivative order: the p-th
derivative of Q is ``evaluate`` of the rows of ``gamma`` weighted by
(-2i*pi*j)^p, a weight the caller applies. Everything that reads ||Q||
(the grid scan, Newton refinement of its peaks, the curvature on arcs)
takes the N real coefficients of ||Q||^2, a real trigonometric polynomial
of degree N-1:

    ||Q(f)||^2 = c_0 + 2 Re sum_{k=1}^{N-1} c_k exp(-2i*pi*k*f),
    c_k = sum_j <gamma[j+k], gamma[j]>.

``coefficients`` takes them from the rows with one zero-padded FFT per
snapshot. The grid scan is one real transform of c, Newton refinement
evaluates ||Q||^2 and its derivatives at points through ``evaluate``, and
the curvature on equispaced arcs around given centres is one chirp-z
transform (Bluestein's FFT convolution) of c per centre. These err in
||Q||^2 by a small multiple of eps * ||gamma||_F^2 (the curvature by
(2*pi*N)^2 times that), so they give ||Q|| to about eps * ||gamma||_F^2
where ||Q|| is near one (peaks, the off-support bound) but only to about
sqrt(eps) * ||gamma||_F at an exact zero of Q.

Rows of ``gamma`` are the coefficients, in the scale the SDP bounds by one.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidConfigurationError, InvalidDimensionError
from .model import wrap_distance

__all__ = [
    "arc_curvature",
    "coefficients",
    "evaluate",
    "grid_points",
    "local_maxima",
    "merge_peaks",
    "refine",
    "scan",
]


def evaluate(coef: np.ndarray, freqs) -> np.ndarray:
    """sum_j coef[j] exp(-2i*pi*j*f) per column of ``coef``; rows follow the f values.

    A scalar f yields one row. A derivative is a row weight: the p-th
    derivative of Q is ``evaluate`` of gamma weighted by (-2i*pi*j)^p.
    """
    c = np.asarray(coef, dtype=complex)
    f = np.atleast_1d(np.asarray(freqs, dtype=float))
    out = np.exp(-2j * np.pi * np.outer(f, np.arange(c.shape[0]))) @ c
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


def coefficients(gamma: np.ndarray) -> np.ndarray:
    """The coefficients c_0..c_{N-1} of ||Q||^2 (see the module docstring).

    c_k = sum_j <gamma[j+k], gamma[j]> is the column autocorrelation, the
    inverse FFT of sum_l |fft(gamma[:, l], M)|^2 with M >= 2N - 1 so that
    no lag wraps. Each snapshot is transformed along a contiguous row.
    ``gamma`` must be a nonempty N x L matrix.
    """
    if np.ndim(gamma) != 2 or np.size(gamma) == 0:
        raise InvalidDimensionError(f"expected a nonempty matrix, got shape {np.shape(gamma)}")
    g = np.asarray(gamma, dtype=complex)
    n = g.shape[0]
    size = 1 << (2 * n - 2).bit_length()
    spectrum = np.fft.fft(np.ascontiguousarray(g.T), size)
    return np.fft.ifft((spectrum.real**2 + spectrum.imag**2).sum(axis=0))[:n]


def _check_coefficients(coef) -> None:
    """The readers of ||Q|| take the N coefficients of ||Q||^2, a nonempty vector."""
    if np.ndim(coef) != 1 or np.size(coef) == 0:
        raise InvalidDimensionError(
            f"expected the nonempty coefficient vector of ||Q||^2, got shape {np.shape(coef)}"
        )


def scan(coef: np.ndarray, grid_size: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Grid points i/G and ||Q|| there, with G = ``grid_points(N, grid_size)``.

    ``coef`` holds the N coefficients of ||Q||^2. ||Q(i/G)||^2 is one real
    FFT of length G of them, zero-padded, which G >= 2N allows; the square
    root clamps the rounding below zero at zeros of Q.
    """
    _check_coefficients(coef)
    grid_size = grid_points(coef.size, grid_size)
    f = np.arange(grid_size) / grid_size
    # hfft(c, G)[i] = c_0 + 2 Re sum_{k>0} c_k exp(-2i*pi*k*i/G) = ||Q(i/G)||^2
    sq = np.fft.hfft(coef, grid_size)
    return f, np.sqrt(np.maximum(sq, 0.0, out=sq), out=sq)


def local_maxima(values: np.ndarray) -> np.ndarray:
    """Indices of the cyclic local maxima of a periodic grid sampling.

    A plateau counts once, at its last point; a constant sequence has none.
    """
    return np.flatnonzero((values >= np.roll(values, 1)) & (values > np.roll(values, -1)))


def arc_curvature(coef: np.ndarray, centers, radius: float, count: int) -> np.ndarray:
    """Half the second derivative of ||Q||^2 at c_k - radius + i*h for i < count.

    ``coef`` holds the N coefficients of ||Q||^2, and h = 2 radius /
    (count - 1). Returns a (count, K) array, one column per centre c_k. With
    a_k = c_k - radius and w = exp(-2i*pi*h), the value at a_k + i*h is
    Re sum_j x_j w^(ij) for x_j = -(2*pi*j)^2 c_j exp(-2i*pi*j*a_k). Since
    ij = (j^2 + i^2 - (i-j)^2) / 2, the sum is the chirp-z transform
    w^(i^2/2) sum_j (x_j w^(j^2/2)) w^(-(i-j)^2/2): one FFT convolution, of
    a power-of-two length >= N + count - 1, with one column per centre.
    The absolute error is a small multiple of eps * (2*pi*N)^2 *
    ||gamma||_F^2.
    """
    _check_coefficients(coef)
    if count < 2:
        raise InvalidConfigurationError(f"an arc needs at least two points, got {count}")
    n = coef.size
    starts = np.atleast_1d(np.asarray(centers, dtype=float)) - radius
    h = 2.0 * radius / (count - 1)
    k = np.arange(n)
    x = -(2.0 * np.pi * k) ** 2 * coef * np.exp(-2j * np.pi * np.outer(starts, k))

    chirp = np.exp(-1j * np.pi * h * np.arange(max(n, count), dtype=float) ** 2)  # w^(k^2/2)
    size = 1 << (n + count - 2).bit_length()
    kernel = np.zeros(size, dtype=complex)
    kernel[:count] = chirp[:count].conj()
    kernel[size - n + 1:] = chirp[n - 1:0:-1].conj()
    y = np.fft.ifft(np.fft.fft(chirp[:n] * x, size) * np.fft.fft(kernel))[:, :count]
    # the output chirp w^(i^2/2) must be applied before the real part is taken
    return (y * chirp[:count]).real.T


def refine(coef: np.ndarray, f0, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Newton ascent on g = ||Q||^2 from the points ``f0``.

    ``coef`` holds the N coefficients of g, and each step is -g'/g''.
    Returns refined locations in [0, 1) and ||Q|| = sqrt(max(0, g)) there.
    A step from a point outside the concave neighborhood (g'' >= 0) keeps
    that point.
    """
    _check_coefficients(coef)
    k = np.arange(coef.size)
    # g^(p)(f) = Re sum_k a_k (-2i*pi*k)^p c_k exp(-2i*pi*k*f), a_0 = 1, a_k = 2
    ac = np.where(k > 0, 2.0, 1.0) * coef
    w = -2j * np.pi * k
    derivatives = np.stack([ac * w, ac * w**2], axis=1)
    f = np.atleast_1d(np.asarray(f0, dtype=float))
    for _ in range(steps):
        slope, curv = evaluate(derivatives, f).real.T
        ok = curv < 0
        f = np.where(ok, f - np.divide(slope, curv, out=np.zeros_like(slope), where=ok), f)
    sq = evaluate(ac[:, None], f)[:, 0].real
    return f % 1.0, np.sqrt(np.maximum(sq, 0.0))


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
