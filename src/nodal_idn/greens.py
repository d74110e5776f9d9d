"""Green functions and layer potentials.

The operator T maps a boundary density v to the field 2i * int_gamma v dbar(g_z)
off the curve.  With the mundane log kernel this is the conjugated Cauchy
transform of conj(v); with the principal Green kernel of an enclosing disk D
(the realization of the ambient domain) it acquires a smooth correction term
that makes the second-kind Dirichlet equation u = v + (T^- v)|_gamma solvable.
All traces come from the splitting of the Cauchy kernel into the periodic
cotangent singularity, handled spectrally, plus a smooth remainder whose
diagonal is the curvature limit gamma''/(2 gamma').

Sign conventions are fixed by the jump identity (T^+ - T^-) v = v.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError, QuadratureError, SolveError
from .model import AnnulusDomain, BoundaryCurve, DiskDomain
from .spectral import conjugation_matrix, fourier_derivative, parameter_grid

log = logging.getLogger("nodal_idn.greens")

ENCLOSING_FACTOR = 1.25
CONDITION_LIMIT = 1e10
LSTSQ_RCOND = 1e-13


def disk_green(z, zeta, radius: float, center: complex = 0.0):
    """Principal Green function of the disk |w - center| < radius.

        G(z, zeta) = (1/2pi) ln( |z - zeta| * radius / |radius^2 - conj(zeta')z'| )

    with primed coordinates relative to the center.  Harmonic in each
    argument, symmetric, and vanishing for boundary arguments.
    """
    z = np.asarray(z, dtype=complex) - center
    w = np.asarray(zeta, dtype=complex) - center
    dist = np.abs(z - w)
    if np.any(dist == 0.0):
        raise ModelError("diagonal singularity: z equals zeta")
    return np.log(dist * radius / np.abs(radius**2 - np.conj(w) * z)) / (2 * np.pi)


def disk_green_dz(z, zeta, radius: float, center: complex = 0.0):
    """d/dz coefficient of the disk principal Green function."""
    zs = np.asarray(z, dtype=complex) - center
    ws = np.asarray(zeta, dtype=complex) - center
    return (1.0 / (zs - ws) + np.conj(ws) / (radius**2 - np.conj(ws) * zs)) / (4 * np.pi)


def free_log_green(z, zeta):
    """Mundane free-space kernel (1/2pi) ln|z - zeta|."""
    dist = np.abs(np.asarray(z, dtype=complex) - np.asarray(zeta, dtype=complex))
    if np.any(dist == 0.0):
        raise ModelError("diagonal singularity: z equals zeta")
    return np.log(dist) / (2 * np.pi)


def free_log_green_dz(z, zeta):
    return 1.0 / (4 * np.pi * (np.asarray(z, dtype=complex) - np.asarray(zeta, dtype=complex)))


@dataclass(frozen=True)
class GreenKernel:
    """Evaluator for a symmetric Green kernel g(z, zeta).

    kind "mundane-log" is the free-space log kernel; "disk-principal" is the
    closed-form principal kernel of a disk (used both as the reference Green
    function and as the enclosing-domain kernel that drives Fredholm solves).
    """

    kind: str
    radius: float = 0.0
    center: complex = 0.0 + 0.0j

    def __post_init__(self):
        if self.kind not in ("mundane-log", "disk-principal"):
            raise ModelError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "disk-principal" and self.radius <= 0:
            raise ModelError("disk-principal kernel needs a positive radius")

    def __call__(self, z, zeta):
        if self.kind == "mundane-log":
            return free_log_green(z, zeta)
        return disk_green(z, zeta, self.radius, self.center)

    def dz(self, z, zeta):
        """Coefficient of dz in the z-derivative."""
        if self.kind == "mundane-log":
            return free_log_green_dz(z, zeta)
        return disk_green_dz(z, zeta, self.radius, self.center)


def enclosing_kernel(curves, factor: float = ENCLOSING_FACTOR) -> GreenKernel:
    """Principal kernel of a concentric disk enclosing the given curves."""
    if isinstance(curves, BoundaryCurve):
        curves = (curves,)
    pts = np.concatenate([c.positions for c in curves])
    center = complex(np.mean(pts))
    radius = factor * float(np.max(np.abs(pts - center)))
    return GreenKernel("disk-principal", radius=radius, center=center)


def near_boundary_threshold(curve: BoundaryCurve, factor: float = 10.0) -> float:
    return factor * (2 * np.pi / curve.n) * float(np.max(np.abs(curve.derivatives)))


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


def _smooth_cauchy_block(target: BoundaryCurve, source: BoundaryCurve,
                         self_block: bool) -> np.ndarray:
    """Kernel gamma'(s)/(gamma(s)-gamma(t)) minus its cotangent singularity.

    Rows index targets t_k, columns index source nodes s_j.  On the diagonal
    of a self block the curvature limit gamma''/(2 gamma') fills in.
    """
    gs = source.positions[None, :]
    gt = target.positions[:, None]
    if not self_block:
        return source.derivatives[None, :] / (gs - gt)
    n = source.n
    t = parameter_grid(n)
    diff = t[None, :] - t[:, None]
    gap = gs - gt
    np.fill_diagonal(gap, 1.0)
    np.fill_diagonal(diff, np.pi)
    kern = source.derivatives[None, :] / gap - 0.5 / np.tan(diff / 2.0)
    second = source.second_derivatives()
    np.fill_diagonal(kern, second / (2.0 * source.derivatives))
    return kern


def _pv_cauchy_matrix(curve: BoundaryCurve) -> np.ndarray:
    """Principal-value Cauchy transform on the curve as a dense matrix.

    pv C[w](gamma(t_k)) = (1/2pi i) pv int w(s) gamma'(s)/(gamma(s)-gamma(t_k)) ds
    """
    n = curve.n
    smooth = _smooth_cauchy_block(curve, curve, self_block=True)
    conj_op = conjugation_matrix(n)
    return 0.5j * conj_op + (-1j / n) * smooth


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


class AnnulusPrincipalGreen:
    """Principal Green function G(z, a) of an annulus via the two-component
    solve; array z, scalar a, one solve per source point a (cached)."""

    def __init__(self, solver: "AnnulusHarmonicSolver",
                 mundane: GreenKernel | None = None):
        self.solver = solver
        self.mundane = mundane or GreenKernel("mundane-log")
        self._cache: dict[complex, "AnnulusHarmonicExtension"] = {}

    def _extension(self, a: complex):
        key = complex(a)
        if key not in self._cache:
            data_o = self.mundane(self.solver.outer.positions, key).astype(complex)
            data_i = self.mundane(self.solver.inner.positions, key).astype(complex)
            self._cache[key] = self.solver.extend(data_o, data_i)
        return self._cache[key]

    def __call__(self, z, a):
        return (self.mundane(z, a) - self._extension(a).value(z)).real

    def dz(self, z, a):
        """Coefficient of dz in the z-derivative."""
        return self.mundane.dz(z, a) - self._extension(a).dz(z)


class DiskHarmonicSolver:
    """Closed-form Poisson solve on a disk via Fourier coefficients."""

    def __init__(self, domain: DiskDomain, n: int):
        self.domain = domain
        self.n = n

    def extend(self, u: np.ndarray) -> "DiskHarmonicExtension":
        u = np.asarray(u, dtype=complex)
        if u.size != self.n:
            raise ModelError("boundary data length mismatch")
        coeff = np.fft.fft(u) / self.n
        return DiskHarmonicExtension(self, coeff, u)


class DiskHarmonicExtension:
    def __init__(self, solver: DiskHarmonicSolver, coeff: np.ndarray, u: np.ndarray):
        self.solver = solver
        self.coeff = coeff
        self.boundary_values = u
        n = coeff.size
        self._pos = np.arange(1, n // 2)
        self._cpos = coeff[1:n // 2]
        self._cneg = coeff[-1:-(n // 2):-1]
        self._nyq = coeff[n // 2]

    def _scaled(self, z):
        dom = self.solver.domain
        return (np.asarray(z, dtype=complex) - dom.center) / dom.radius

    def value(self, z):
        w = self._scaled(z)
        flat = np.atleast_1d(w).ravel()[:, None]
        powers = flat ** self._pos[None, :]
        out = self.coeff[0] + powers @ self._cpos + np.conj(flat**self._pos) @ self._cneg
        # split the Nyquist bin symmetrically; negligible for analytic data
        k = self.coeff.size // 2
        out = out + 0.5 * self._nyq * (flat.ravel()**k + np.conj(flat.ravel())**k)
        w = np.asarray(w)
        return out.reshape(w.shape) if w.shape else complex(out[0])

    def dz(self, z):
        dom = self.solver.domain
        w = self._scaled(z)
        flat = np.atleast_1d(w).ravel()[:, None]
        powers = flat ** (self._pos[None, :] - 1) * self._pos[None, :]
        out = (powers @ self._cpos) / dom.radius
        k = self.coeff.size // 2
        out = out + 0.5 * self._nyq * k * flat.ravel() ** (k - 1) / dom.radius
        w = np.asarray(w)
        return out.reshape(w.shape) if w.shape else complex(out[0])


class AnnulusHarmonicSolver:
    """Fredholm solve on an annulus.

    The layer operator T alone misses the holomorphic principal parts and
    the log module of annulus harmonics, so the representation is

        Eu = T^+ v + C_inner[w] + alpha * ln|z - center|

    with a plain Cauchy density w on the inner circle.  The resulting
    rectangular system is solved by least squares (min-norm).
    """

    def __init__(self, domain: AnnulusDomain, n: int):
        self.domain = domain
        self.n = n
        self.outer, self.inner = domain.boundaries(n)
        self.kernel = enclosing_kernel((self.outer,))
        self._assemble()

    def _assemble(self):
        n = self.n
        blocks = []
        for target in (self.outer, self.inner):
            row = []
            for source in (self.outer, self.inner):
                if source is target:
                    pv = _pv_cauchy_matrix(source)
                else:
                    pv = (-1j / n) * _smooth_cauchy_block(target, source, False)
                corr = _correction_factor(self.kernel, source.positions[None, :],
                                          target.positions[:, None])
                corr = 1j / n * corr * np.conj(source.derivatives)[None, :]
                row.append(np.conj(pv) + corr)
            blocks.append(row)
        tplus = np.block(blocks) + 0.5 * np.eye(2 * n)
        # plain (unconjugated) Cauchy transform columns of the inner density
        inner_self = _pv_cauchy_matrix(self.inner) + 0.5 * np.eye(n)
        inner_to_outer = (-1j / n) * _smooth_cauchy_block(self.outer, self.inner, False)
        ccol = np.vstack([inner_to_outer, inner_self])
        qcol = np.log(np.abs(np.concatenate([self.outer.positions,
                                             self.inner.positions])
                             - self.domain.center))[:, None]
        self.matrix = np.hstack([tplus, ccol, qcol])

    def extend(self, u_outer: np.ndarray, u_inner: np.ndarray) -> "AnnulusHarmonicExtension":
        rhs = np.concatenate([np.asarray(u_outer, dtype=complex),
                              np.asarray(u_inner, dtype=complex)])
        sol, _, _, sing = np.linalg.lstsq(self.matrix, rhs, rcond=LSTSQ_RCOND)
        residual = np.max(np.abs(self.matrix @ sol - rhs))
        if residual > 1e-6 * max(1.0, float(np.max(np.abs(rhs)))):
            raise SolveError(f"annulus Fredholm solve failed: residual {residual:.3e}")
        n = self.n
        return AnnulusHarmonicExtension(self, sol[:2 * n], sol[2 * n:3 * n],
                                        complex(sol[-1]))


class AnnulusHarmonicExtension:
    def __init__(self, solver: AnnulusHarmonicSolver, density: np.ndarray,
                 cauchy_density: np.ndarray, log_coefficient: complex):
        self.solver = solver
        self.density = density
        self.cauchy_density = cauchy_density
        self.log_coefficient = log_coefficient
        # d/dzeta of the inner Cauchy density; C_inner[w]' = C_inner[w'] off
        # the inner circle, and its from-the-annulus limit on it
        self._wprime = fourier_derivative(cauchy_density) / solver.inner.derivatives

    def _parts(self):
        n = self.solver.n
        return ((self.solver.outer, self.density[:n]),
                (self.solver.inner, self.density[n:]))

    def value(self, z):
        z = np.asarray(z, dtype=complex)
        flat = np.atleast_1d(z).ravel()
        out = np.zeros(flat.shape, dtype=complex)
        for curve, dens in self._parts():
            out = out + np.atleast_1d(layer_potential_T(dens, flat, curve,
                                                        self.solver.kernel))
        inner = self.solver.inner
        kern = inner.derivatives[None, :] / (inner.positions[None, :] - flat[:, None])
        out = out + np.sum(self.cauchy_density[None, :] * kern, axis=1) / (1j * inner.n)
        out = out + self.log_coefficient * np.log(np.abs(flat - self.solver.domain.center))
        return out.reshape(z.shape) if z.shape else complex(out[0])

    def dz(self, z):
        z = np.asarray(z, dtype=complex)
        flat = np.atleast_1d(z).ravel()[:, None]
        inner = self.solver.inner
        kern = inner.derivatives[None, :] / (inner.positions[None, :] - flat)
        out = self._enclosing_dz(flat)
        out = out + np.sum(self._wprime[None, :] * kern, axis=1) / (1j * inner.n)
        out = out + self._log_dz(flat.ravel())
        return out.reshape(z.shape) if z.shape else complex(out[0])

    def _enclosing_dz(self, flat):
        """dz coefficient of T^+ v: only the enclosing-kernel correction has
        one, and it is smooth up to both circles."""
        kernel = self.solver.kernel
        out = np.zeros(flat.shape[0], dtype=complex)
        for curve, dens in self._parts():
            ws = curve.positions[None, :] - kernel.center
            zs = flat - kernel.center
            kern = kernel.radius**2 / (kernel.radius**2 - np.conj(ws) * zs) ** 2
            out = out + 1j * np.sum(dens[None, :] * np.conj(curve.derivatives)[None, :]
                                    * kern, axis=1) / curve.n
        return out

    def _log_dz(self, z):
        return self.log_coefficient / (2.0 * (z - self.solver.domain.center))

    def boundary_dz(self) -> tuple[np.ndarray, np.ndarray]:
        """dz traces on (outer, inner).

        On the outer circle this is ``dz``; on the inner one the Cauchy
        part takes its from-the-annulus limit.
        """
        inner = self.solver.inner
        out = self._enclosing_dz(inner.positions[:, None])
        out = out + _pv_cauchy_matrix(inner) @ self._wprime + 0.5 * self._wprime
        out = out + self._log_dz(inner.positions)
        return self.dz(self.solver.outer.positions), out
