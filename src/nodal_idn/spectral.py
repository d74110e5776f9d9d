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


def fourier_derivative(samples: np.ndarray) -> np.ndarray:
    """Spectral derivative d/dt of 2*pi-periodic samples."""
    samples = np.asarray(samples, dtype=complex)
    n = samples.shape[-1]
    mult = 1j * wavenumbers(n)
    return np.fft.ifft(mult * np.fft.fft(samples, axis=-1), axis=-1)
