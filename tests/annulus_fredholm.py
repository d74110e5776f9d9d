"""Boundary-integral reference for harmonic extensions on an annulus.

The engine solves the annulus in closed form, mode by mode.  This reference
takes the layer-potential route instead:

    Eu = T^+ v + C_inner[w] + alpha * ln|z - center|

with the enclosing-disk layer operator T on both circles, a plain Cauchy
density w on the inner circle and a log term.  The stacked 2N x (3N+1)
system is solved by least squares (min-norm); its cost is O(N^3), so it
serves small N (64 to 128) only.
"""
import numpy as np

from nodal_idn.greens import enclosing_kernel
from nodal_idn.spectral import fourier_derivative
from nystrom import (LSTSQ_RCOND, _correction_factor, _pv_cauchy_matrix,
                     layer_potential_T)


def _cross_cauchy(target, source):
    """Cauchy transform of densities on ``source`` at the nodes of ``target``."""
    kern = source.derivatives[None, :] / (source.positions[None, :]
                                          - target.positions[:, None])
    return (-1j / source.n) * kern


class FredholmAnnulus:
    def __init__(self, domain, n: int):
        self.domain = domain
        self.n = n
        self.outer, self.inner = domain.boundaries(n)
        self.kernel = enclosing_kernel(self.outer)
        curves = (self.outer, self.inner)
        blocks = []
        for target in curves:
            row = []
            for source in curves:
                pv = (_pv_cauchy_matrix(source) if source is target
                      else _cross_cauchy(target, source))
                corr = _correction_factor(self.kernel, source.positions[None, :],
                                          target.positions[:, None])
                corr = 1j / n * corr * np.conj(source.derivatives)[None, :]
                row.append(np.conj(pv) + corr)
            blocks.append(row)
        tplus = np.block(blocks) + 0.5 * np.eye(2 * n)
        ccol = np.vstack([_cross_cauchy(self.outer, self.inner),
                          _pv_cauchy_matrix(self.inner) + 0.5 * np.eye(n)])
        qcol = np.log(np.abs(np.concatenate([self.outer.positions,
                                             self.inner.positions])
                             - domain.center))[:, None]
        self.matrix = np.hstack([tplus, ccol, qcol])

    def extend(self, u_outer, u_inner) -> "FredholmAnnulusExtension":
        rhs = np.concatenate([np.asarray(u_outer, dtype=complex),
                              np.asarray(u_inner, dtype=complex)])
        sol = np.linalg.lstsq(self.matrix, rhs, rcond=LSTSQ_RCOND)[0]
        residual = np.max(np.abs(self.matrix @ sol - rhs))
        assert residual < 1e-8 * max(1.0, float(np.max(np.abs(rhs))))
        n = self.n
        return FredholmAnnulusExtension(self, sol[:2 * n], sol[2 * n:3 * n],
                                        complex(sol[-1]))


class FredholmAnnulusExtension:
    def __init__(self, solver, density, cauchy_density, log_coefficient):
        self.solver = solver
        self.parts = ((solver.outer, density[:solver.n]),
                      (solver.inner, density[solver.n:]))
        self.cauchy_density = cauchy_density
        self.log_coefficient = log_coefficient
        # C_inner[w]' = C_inner[w'] off the inner circle, w' = dw/dzeta
        self.wprime = fourier_derivative(cauchy_density) / solver.inner.derivatives

    def _cauchy(self, density, flat):
        inner = self.solver.inner
        kern = inner.derivatives[None, :] / (inner.positions[None, :] - flat[:, None])
        return np.sum(density[None, :] * kern, axis=1) / (1j * inner.n)

    def _enclosing_dz(self, flat):
        """dz of T^+ v: only the enclosing-kernel correction carries one."""
        kernel = self.solver.kernel
        out = np.zeros(flat.size, dtype=complex)
        for curve, dens in self.parts:
            ws = curve.positions[None, :] - kernel.center
            zs = flat[:, None] - kernel.center
            kern = kernel.radius**2 / (kernel.radius**2 - np.conj(ws) * zs) ** 2
            out = out + 1j * np.sum(dens[None, :] * np.conj(curve.derivatives)[None, :]
                                    * kern, axis=1) / curve.n
        return out

    def value(self, z):
        flat = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
        out = sum(layer_potential_T(dens, flat, curve, self.solver.kernel)
                  for curve, dens in self.parts)
        out = out + self._cauchy(self.cauchy_density, flat)
        return out + self.log_coefficient * np.log(np.abs(flat - self.solver.domain.center))

    def dz(self, z):
        flat = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
        return (self._enclosing_dz(flat) + self._cauchy(self.wprime, flat)
                + self.log_coefficient / (2.0 * (flat - self.solver.domain.center)))

    def inner_boundary_dz(self):
        """dz trace on the inner circle: the Cauchy part takes its limit
        from the annulus side."""
        pts = self.solver.inner.positions
        pv = _pv_cauchy_matrix(self.solver.inner) @ self.wprime
        return (self._enclosing_dz(pts) + pv + 0.5 * self.wprime
                + self.log_coefficient / (2.0 * (pts - self.solver.domain.center)))
