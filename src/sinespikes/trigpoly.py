"""The dual polynomial Q(f) = sum_j gamma[j] exp(-2i*pi*j*f).

This module is the only code that evaluates trigonometric polynomials, and
it has one point evaluator. ``evaluate(coef, freqs)`` returns
sum_j coef[j] exp(-2i*pi*j*f) for each column of any coefficient matrix
through one exponential basis; ``demix`` reads ||Q|| at the frequencies it
reads off the primal, and the certificate reads P and P' at its nodes. It
takes no derivative order: the p-th derivative of Q is ``evaluate`` of the
rows of ``gamma`` weighted by (-2i*pi*j)^p, a weight the caller applies.
The readers of ||Q|| on grids (the scan and the curvature on arcs) take the
N real coefficients of ||Q||^2, a real trigonometric polynomial of degree
N-1:

    ||Q(f)||^2 = c_0 + 2 Re sum_{k=1}^{N-1} c_k exp(-2i*pi*k*f),
    c_k = sum_j <gamma[j+k], gamma[j]>.

``coefficients`` takes them from the rows with one zero-padded FFT per
snapshot. The grid scan is one real transform of c, and the curvature on
equispaced arcs around given centres is one chirp-z transform (Bluestein's
FFT convolution) of c per centre. These err in ||Q||^2 by a small multiple
of eps * ||gamma||_F^2 (the curvature by (2*pi*N)^2 times that), so they
give ||Q|| to about eps * ||gamma||_F^2 where ||Q|| is near one (the
off-support bound) but only to about sqrt(eps) * ||gamma||_F at an exact
zero of Q.

Rows of ``gamma`` are the coefficients, in the scale the SDP bounds by one.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InvalidConfigurationError

__all__ = [
    "arc_curvature",
    "coefficients",
    "evaluate",
    "grid_points",
    "scan",
]


def evaluate(coef: np.ndarray, freqs) -> np.ndarray:
    """sum_j coef[j] exp(-2i*pi*j*f) per column of ``coef``; rows follow the f values.

    A derivative is a row weight: the p-th derivative of Q is ``evaluate``
    of gamma weighted by (-2i*pi*j)^p.
    """
    c = np.asarray(coef, dtype=complex)
    f = np.atleast_1d(np.asarray(freqs, dtype=float))
    return np.exp(-2j * np.pi * np.outer(f, np.arange(c.shape[0]))) @ c


def grid_points(n: int, grid_size: int | None = None) -> int:
    """Number of scan points for a polynomial with ``n`` coefficients.

    ``None`` selects max(8192, 32 n) points. Fewer than 2n points cannot
    resolve a polynomial of degree n-1 and are rejected.
    """
    if grid_size is None:
        return max(8192, 32 * n)
    if grid_size < 2 * n:
        raise InvalidConfigurationError(
            f"grid_size {grid_size} is too coarse for degree {n - 1}: need at least {2 * n} points"
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
        raise InvalidConfigurationError(f"expected a nonempty matrix, got shape {np.shape(gamma)}")
    g = np.asarray(gamma, dtype=complex)
    n = g.shape[0]
    size = 1 << (2 * n - 2).bit_length()
    spectrum = np.fft.fft(np.ascontiguousarray(g.T), size)
    return np.fft.ifft((spectrum.real**2 + spectrum.imag**2).sum(axis=0))[:n]


def _check_coefficients(coef) -> None:
    """The readers of ||Q|| take the N coefficients of ||Q||^2, a nonempty vector."""
    if np.ndim(coef) != 1 or np.size(coef) == 0:
        raise InvalidConfigurationError(
            f"expected the nonempty coefficient vector of ||Q||^2, got shape {np.shape(coef)}"
        )


@lru_cache(maxsize=8)
def _grid(size: int) -> np.ndarray:
    """The read-only points i/size, computed once per size."""
    f = np.arange(size) / size
    f.flags.writeable = False
    return f


def scan(coef: np.ndarray, grid_size: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Grid points i/G and ||Q|| there, with G = ``grid_points(N, grid_size)``.

    ``coef`` holds the N coefficients of ||Q||^2. ||Q(i/G)||^2 is one real
    FFT of length G of them, zero-padded, which G >= 2N allows; the square
    root clamps the rounding below zero at zeros of Q. The grid depends on
    G only, so it is computed once per G and returned read-only; the values
    are a new array on every call.
    """
    _check_coefficients(coef)
    grid_size = grid_points(coef.size, grid_size)
    f = _grid(grid_size)
    # hfft(c, G)[i] = c_0 + 2 Re sum_{k>0} c_k exp(-2i*pi*k*i/G) = ||Q(i/G)||^2
    sq = np.fft.hfft(coef, grid_size)
    return f, np.sqrt(np.maximum(sq, 0.0, out=sq), out=sq)


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
    ||gamma||_F^2. The indices j and the weights -(2*pi*j)^2 depend on N
    only, and the chirp and the FFT of the convolution kernel on (N, count,
    h) only; each is computed once per size or triple and kept read-only,
    and every call returns a new array.
    """
    _check_coefficients(coef)
    if count < 2:
        raise InvalidConfigurationError(f"an arc needs at least two points, got {count}")
    n = coef.size
    starts = np.atleast_1d(np.asarray(centers, dtype=float)) - radius
    h = 2.0 * radius / (count - 1)
    k, weight = _curvature_weights(n)
    x = weight * coef * np.exp(-2j * np.pi * np.outer(starts, k))
    in_chirp, out_chirp, kernel_fft = _bluestein(n, count, h)
    y = np.fft.ifft(np.fft.fft(in_chirp * x, kernel_fft.size) * kernel_fft)[:, :count]
    # the output chirp w^(i^2/2) must be applied before the real part is taken
    return (y * out_chirp).real.T


@lru_cache(maxsize=16)
def _curvature_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only indices j < n and second-derivative weights -(2*pi*j)^2."""
    k = np.arange(n)
    weight = -(2.0 * np.pi * k) ** 2
    k.flags.writeable = weight.flags.writeable = False
    return k, weight


@lru_cache(maxsize=16)
def _bluestein(n: int, count: int, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The input chirp w^(j^2/2) for j < n, the output chirp for i < count,
    and the FFT of the convolution kernel w^(-k^2/2), with w = exp(-2i*pi*h).

    They depend on the sizes and the step only, so each triple is computed
    once; the arrays are read-only.
    """
    chirp = np.exp(-1j * np.pi * h * np.arange(max(n, count), dtype=float) ** 2)  # w^(k^2/2)
    size = 1 << (n + count - 2).bit_length()
    kernel = np.zeros(size, dtype=complex)
    kernel[:count] = chirp[:count].conj()
    kernel[size - n + 1:] = chirp[n - 1:0:-1].conj()
    parts = chirp[:n], chirp[:count], np.fft.fft(kernel)
    for part in parts:
        part.flags.writeable = False
    return parts
