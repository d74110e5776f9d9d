"""Layer potentials and the Nystrom/Fredholm Dirichlet solve on general curves.

The operator T maps a boundary density v to the field 2i * int_gamma v dbar(g_z)
off the curve.  With the mundane log kernel this is the conjugated Cauchy
transform of conj(v); with the principal Green kernel of an enclosing disk D
(the realization of the ambient domain) it acquires a smooth correction term
that makes the second-kind Dirichlet equation u = v + (T^- v)|_gamma solvable.
All traces come from the splitting of the Cauchy kernel into the periodic
cotangent singularity, handled spectrally, plus a smooth remainder whose
diagonal is the curvature limit gamma''/(2 gamma').

The engine solves its circle domains in closed form by FFT, so no pipeline
stage runs this layer.  It is the reference for general curves: acceptance
criteria 01-03 reproduce the paper's Dirichlet results with it, and
``annulus_fredholm.py`` builds its annulus solve from its pieces.

Sign conventions are fixed by the jump identity (T^+ - T^-) v = v.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from nodal_idn.errors import ModelError, NodalIdnError, SolveError
from nodal_idn.greens import GreenKernel, enclosing_kernel, near_boundary_threshold
from nodal_idn.model import BoundaryCurve
from nodal_idn.spectral import fourier_derivative, parameter_grid, wavenumbers

log = logging.getLogger("nystrom")

CONDITION_LIMIT = 1e10
LSTSQ_RCOND = 1e-13


class QuadratureError(NodalIdnError):
    """Evaluation point too close to a contour for plain quadrature."""


def conjugation_matrix(n: int) -> np.ndarray:
    """Matrix of the periodic conjugate-function operator.

    Acts as the Fourier multiplier -i*sgn(k); exact on trigonometric
    polynomials of degree < n/2.
    """
    mult = -1j * np.sign(wavenumbers(n))
    spectrum = mult[:, None] * np.fft.fft(np.eye(n), axis=0)
    return np.fft.ifft(spectrum, axis=0).real


def _correction_factor(kernel: GreenKernel, zeta, z):
    """Smooth part of 2i*dbar_zeta g as a dzbar coefficient, times 4pi.

    For the mundane kernel this is zero; for the disk-principal kernel of
    the enclosing domain it is (z')/(rho^2 - conj(zeta')z').
    """
    if kernel.kind == "mundane-log":
        return np.zeros(np.broadcast(zeta, z).shape, dtype=complex)
    zs = np.asarray(z, dtype=complex) - kernel.center
    ws = np.asarray(zeta, dtype=complex) - kernel.center
    return zs / (kernel.radius**2 - np.conj(ws) * zs)


def layer_potential_T(v: np.ndarray, z, curve: BoundaryCurve,
                      kernel: GreenKernel, check_distance: bool = True):
    """Field of the layer operator T at points off the curve.

        Tv(z) = 2i * int_gamma v dbar_zeta g(zeta, z)

    With the mundane log kernel the real part of Tv is the classical double
    layer potential of a real density.
    """
    v = np.asarray(v, dtype=complex)
    if v.size != curve.n:
        raise ModelError("density length does not match the curve")
    z = np.asarray(z, dtype=complex)
    if check_distance:
        dist = curve.distance_to(z)
        if np.any(dist < near_boundary_threshold(curve)):
            raise QuadratureError("near-boundary evaluation: use trace operator")
    dbar = np.conj(curve.derivatives)
    flat = z.ravel()[:, None]
    base = dbar[None, :] / (np.conj(curve.positions)[None, :] - np.conj(flat))
    corr = _correction_factor(kernel, curve.positions[None, :], flat) * dbar[None, :]
    integrand = v[None, :] * (base + corr)
    vals = 1j * np.sum(integrand, axis=1) / (2 * np.pi) * (2 * np.pi / curve.n)
    return vals.reshape(z.shape) if z.shape else complex(vals[0])


def _pv_cauchy_matrix(curve: BoundaryCurve) -> np.ndarray:
    """Principal-value Cauchy transform on the curve as a dense matrix.

    pv C[w](gamma(t_k)) = (1/2pi i) pv int w(s) gamma'(s)/(gamma(s)-gamma(t_k)) ds

    The kernel gamma'(s)/(gamma(s)-gamma(t)) minus its cotangent
    singularity is smooth, with the curvature limit gamma''/(2 gamma') on
    the diagonal; the cotangent part is the conjugate-function operator.
    """
    n = curve.n
    t = parameter_grid(n)
    diff = t[None, :] - t[:, None]
    gap = curve.positions[None, :] - curve.positions[:, None]
    np.fill_diagonal(gap, 1.0)
    np.fill_diagonal(diff, np.pi)
    smooth = curve.derivatives[None, :] / gap - 0.5 / np.tan(diff / 2.0)
    np.fill_diagonal(smooth, fourier_derivative(curve.derivatives)
                     / (2.0 * curve.derivatives))
    return 0.5j * conjugation_matrix(n) + (-1j / n) * smooth


@dataclass
class NystromSystem:
    """Discretized boundary trace of T^- on a single closed curve."""

    curve: BoundaryCurve
    kernel: GreenKernel
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pv = _pv_cauchy_matrix(self.curve)
        corr = _correction_factor(self.kernel, self.curve.positions[None, :],
                                  self.curve.positions[:, None])
        corr = 1j / self.curve.n * corr * np.conj(self.curve.derivatives)[None, :]
        self.matrix = np.conj(pv) - 0.5 * np.eye(self.curve.n) + corr

    @staticmethod
    def build(curve: BoundaryCurve, kernel: GreenKernel | None = None) -> "NystromSystem":
        if kernel is None:
            kernel = enclosing_kernel(curve)
        return NystromSystem(curve, kernel)


def trace_T_minus(v: np.ndarray, system: NystromSystem) -> np.ndarray:
    """Boundary trace (T^- v)|_gamma from the exterior side."""
    v = np.asarray(v, dtype=complex)
    if v.size != system.curve.n:
        raise ModelError("density length does not match the system")
    return system.matrix @ v


def trace_T_plus(v: np.ndarray, system: NystromSystem) -> np.ndarray:
    """Boundary trace (T^+ v)|_gamma; differs from T^- by the jump v."""
    return trace_T_minus(v, system) + np.asarray(v, dtype=complex)


class FredholmExtension:
    """Harmonic extension Eu represented by a layer density."""

    def __init__(self, system: NystromSystem, density: np.ndarray,
                 boundary_values: np.ndarray, condition: float):
        self.system = system
        self.density = density
        self.boundary_values = np.asarray(boundary_values, dtype=complex)
        self.condition = condition

    def value(self, z):
        return layer_potential_T(self.density, z, self.system.curve, self.system.kernel)


def solve_dirichlet_fredholm(u: np.ndarray, system: NystromSystem) -> FredholmExtension:
    """Solve u = v + (T^- v)|_gamma and return the interior evaluator T^+ v.

    The boundary limit of the returned extension is u.  The linear solve is
    a truncated least-squares solve; the high modes of the enclosing-kernel
    operator decay geometrically and carry no information at these sample
    counts for analytic data.
    """
    u = np.asarray(u, dtype=complex)
    n = system.curve.n
    if u.size != n:
        raise ModelError("boundary data length does not match the system")
    a = np.eye(n) + system.matrix
    v, _, _, sing = np.linalg.lstsq(a, u, rcond=LSTSQ_RCOND)
    condition = float(sing[0] / sing[-1]) if sing[-1] > 0 else np.inf
    if not np.isfinite(condition) or condition > CONDITION_LIMIT:
        # the enclosing-kernel operator has geometrically decaying high
        # modes; the truncated solve keeps accuracy, so warn only once
        if not getattr(system, "_condition_warned", False):
            log.warning("Fredholm system condition estimate %.3e exceeds %.1e "
                        "(high modes truncated)", condition, CONDITION_LIMIT)
            system._condition_warned = True
    residual = np.max(np.abs(a @ v - u))
    scale = max(1.0, float(np.max(np.abs(u))))
    if residual > 1e-6 * scale:
        raise SolveError(f"singular Fredholm system on curve with {n} samples: "
                         f"residual {residual:.3e}")
    return FredholmExtension(system, v, u, condition)


class PrincipalGreen:
    """Principal Green function of the enclosed domain, built from a mundane
    kernel by one Fredholm solve per source point (densities are cached)."""

    def __init__(self, mundane: GreenKernel, system: NystromSystem):
        self.mundane = mundane
        self.system = system
        self._cache: dict[complex, FredholmExtension] = {}

    def _extension(self, z: complex) -> FredholmExtension:
        key = complex(z)
        if key not in self._cache:
            data = self.mundane(self.system.curve.positions, key)
            self._cache[key] = solve_dirichlet_fredholm(data.astype(complex), self.system)
        return self._cache[key]

    def __call__(self, z, zeta):
        """G(z, zeta) = g(z, zeta) - (E g_z|_gamma)(zeta); scalar z, array zeta."""
        ext = self._extension(z)
        vals = ext.value(zeta)
        return (self.mundane(zeta, z) - vals).real

    def boundary_values(self, z) -> np.ndarray:
        ext = self._extension(z)
        return self.mundane(self.system.curve.positions, z) - ext.boundary_values
