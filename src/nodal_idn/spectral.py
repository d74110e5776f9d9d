"""Periodic spectral differentiation on equispaced parameter grids.

All boundary quantities live on the grid t_k = 2*pi*k/N.  Derivatives are
computed through the FFT; the Nyquist mode is zeroed, which is exact for
band-limited data of degree < N/2 and the usual symmetric choice otherwise.
"""
from __future__ import annotations

import numpy as np


def parameter_grid(n: int) -> np.ndarray:
    """Equispaced parameters t_k = 2*pi*k/n, k = 0..n-1."""
    return 2.0 * np.pi * np.arange(n) / n


def wavenumbers(n: int) -> np.ndarray:
    """FFT-ordered integer wavenumbers with the Nyquist bin zeroed."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        k = k.copy()
        k[n // 2] = 0.0
    return k


def fourier_derivative(samples: np.ndarray, order: int = 1) -> np.ndarray:
    """Spectral derivative d^order/dt^order of 2*pi-periodic samples."""
    samples = np.asarray(samples, dtype=complex)
    n = samples.shape[-1]
    mult = (1j * wavenumbers(n)) ** order
    return np.fft.ifft(mult * np.fft.fft(samples, axis=-1), axis=-1)


def conjugation_matrix(n: int) -> np.ndarray:
    """Matrix of the periodic conjugate-function operator.

    Acts as the Fourier multiplier -i*sgn(k); exact on trigonometric
    polynomials of degree < n/2.
    """
    mult = -1j * np.sign(wavenumbers(n))
    spectrum = mult[:, None] * np.fft.fft(np.eye(n), axis=0)
    return np.fft.ifft(spectrum, axis=0).real

