"""Green functions and harmonic extensions.

The model domains are circles sampled on the FFT grid, and there the
harmonic extension is closed-form per Fourier mode: a power series on the
disk, a Laurent series on the annulus.  Their dz traces on the circles are
one inverse FFT each.  The layer-potential (Nystrom/Fredholm) route for
general curves is a test reference, ``tests/nystrom.py``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .model import AnnulusDomain, BoundaryCurve, DiskDomain
from .spectral import parameter_grid

ENCLOSING_FACTOR = 1.25
NEAR_BOUNDARY_FACTOR = 10.0     # plain-quadrature margin in sample spacings
GRID_TOL = 1e-12


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
    closed-form principal kernel of a disk (the enclosing-disk kernel of the
    Green identity in ``characterize``).
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


def enclosing_kernel(curve: BoundaryCurve) -> GreenKernel:
    """Principal kernel of a concentric disk enclosing the curve."""
    pts = curve.positions
    center = complex(np.mean(pts))
    radius = ENCLOSING_FACTOR * float(np.max(np.abs(pts - center)))
    return GreenKernel("disk-principal", radius=radius, center=center)


def near_boundary_threshold(curve: BoundaryCurve) -> float:
    return (NEAR_BOUNDARY_FACTOR * (2 * np.pi / curve.n)
            * float(np.max(np.abs(curve.derivatives))))


class AnnulusPrincipalGreen:
    """Principal Green function G(z, a) of an annulus via the Laurent solve;
    array z, scalar a, one extension per source point a (cached)."""

    def __init__(self, solver: "AnnulusHarmonicSolver"):
        self.solver = solver
        self.mundane = GreenKernel("mundane-log")
        self._cache: dict[complex, "AnnulusHarmonicExtension"] = {}

    def _extension(self, a: complex):
        key = complex(a)
        if key not in self._cache:
            self._cache[key] = self.solver.extend(
                self.mundane(self.solver.outer.positions, key),
                self.mundane(self.solver.inner.positions, key))
        return self._cache[key]

    def __call__(self, z, a):
        return (self.mundane(z, a) - self._extension(a).value(z)).real

    def dz(self, z, a):
        """Coefficient of dz in the z-derivative."""
        return self.mundane.dz(z, a) - self._extension(a).dz(z)

    def boundary_dz(self, z, a):
        """``dz`` at the samples z of the outer circle: the extension's part
        is its FFT trace there."""
        return self.mundane.dz(z, a) - self._extension(a).boundary_dz()


def _circle_modes(u: np.ndarray, n: int):
    """Mean and the coefficients of e^{ikt}, e^{-ikt}, k = 1..N/2, of data
    sampled at t_k = 2*pi*k/N; the Nyquist bin is split evenly between them."""
    u = np.asarray(u, dtype=complex)
    if u.size != n:
        raise ModelError("boundary data length mismatch")
    c = np.fft.fft(u) / n
    k = np.arange(1, n // 2 + 1)
    pos, neg = c[k], c[-k]
    pos[-1] *= 0.5
    neg[-1] *= 0.5
    return c[0], pos, neg


def _circle_grid(radius: float, n: int) -> np.ndarray:
    """w = radius * exp(i t_k), relative to the circle's center."""
    return radius * np.exp(1j * parameter_grid(n))


def check_fft_circle(domain, curve: BoundaryCurve) -> None:
    """Raise ModelError unless ``curve`` samples the domain's (outer) circle
    ccw at t_k = 2*pi*k/N, to GRID_TOL times its radius: the grid that the
    circle solvers below take their data and traces on."""
    gap = float(np.max(np.abs(curve.positions - domain.center
                              - _circle_grid(domain.outer_radius, curve.n))))
    if not gap <= GRID_TOL * domain.outer_radius:
        raise ModelError(f"boundary is not the {domain.kind}'s FFT circle "
                         f"(t_k = 2*pi*k/N, ccw): gap {gap:.3e}")


class DiskHarmonicSolver:
    """Closed-form Poisson solve on a disk via Fourier coefficients.

    The data are samples on the domain's circle at t_k = 2*pi*k/N, ccw.
    """

    def __init__(self, domain: DiskDomain, n: int):
        self.domain = domain
        self.n = n

    def extend(self, u: np.ndarray) -> "DiskHarmonicExtension":
        return DiskHarmonicExtension(self, *_circle_modes(u, self.n))


class DiskHarmonicExtension:
    """c_0 + sum_k c_k (w/R)^k + c_{-k} (conj(w)/R)^k, k = 1..N/2."""

    def __init__(self, solver: DiskHarmonicSolver, mean, pos: np.ndarray,
                 neg: np.ndarray):
        self.solver = solver
        self.mean = mean
        self.pos = pos
        self.neg = neg
        self._k = np.arange(1, pos.size + 1)

    def _scaled(self, z):
        dom = self.solver.domain
        return np.atleast_1d((np.asarray(z, dtype=complex) - dom.center) / dom.radius).ravel()

    def value(self, z):
        powers = self._scaled(z)[:, None] ** self._k
        out = self.mean + powers @ self.pos + np.conj(powers) @ self.neg
        return out.reshape(np.shape(z)) if np.shape(z) else complex(out[0])

    def dz(self, z):
        powers = self._scaled(z)[:, None] ** (self._k - 1)
        out = powers @ (self._k * self.pos) / self.solver.domain.radius
        return out.reshape(np.shape(z)) if np.shape(z) else complex(out[0])

    def boundary_dz(self) -> np.ndarray:
        """dz trace on the domain's circle at t_k: one inverse FFT of k*c_k."""
        n = self.solver.n
        spec = np.zeros(n, dtype=complex)
        spec[self._k] = self._k * self.pos
        return n * np.fft.ifft(spec) / _circle_grid(self.solver.domain.radius, n)


class AnnulusHarmonicSolver:
    """Fourier-Laurent solve on the annulus r < |z - c| < R.

    With w = z - c, s = r/R and K = N/2 a harmonic function there is

        a_0 + b_0 ln(|w|/R) + sum_{k=1}^{K} [ a_k (w/R)^k + b_k (r/w)^k
                                + a'_k (conj(w)/R)^k + b'_k (r/conj(w))^k ].

    On the outer and inner circle, mode e^{ik phi} of the data reads
    a_k + s^k b'_k and s^k a_k + b'_k; mode e^{-ik phi} pairs b_k with
    a'_k alike.  Each pair is a 2x2 solve with determinant +-(1 - s^{2k}),
    bounded away from zero.  The Nyquist bin is split evenly between
    k = +-K, as in the disk's ``value``.  ``outer`` runs ccw and ``inner``
    cw, both at t_k = 2*pi*k/N; inner data are reindexed onto the ccw grid.
    """

    def __init__(self, domain: AnnulusDomain, n: int):
        self.domain = domain
        self.n = n
        self.outer, self.inner = domain.boundaries(n)
        k = np.arange(1, n // 2 + 1)
        s = (domain.inner_radius / domain.outer_radius) ** k
        one = np.ones_like(s)
        # the holomorphic basis (w/R)^k, (r/w)^k: its mode number on a
        # circle, which is also its dz factor, and its size on each circle
        self.modes = np.concatenate([k, -k])
        self.outer_size = np.concatenate([one, s])
        self.inner_size = np.concatenate([s, one])
        # the cw inner sample j sits at angle -t_j, i.e. at ccw index -j
        self._flip = (-np.arange(n)) % n

    def _spectrum(self, u: np.ndarray):
        """Mean and the coefficients of e^{i m phi}, m in ``modes``."""
        mean, pos, neg = _circle_modes(u, self.n)
        return mean, np.concatenate([pos, neg])

    def extend(self, u_outer: np.ndarray,
               u_inner: np.ndarray | None = None) -> "AnnulusHarmonicExtension":
        """Extension of data on (outer, inner); the inner data default to 0."""
        if u_inner is None:
            u_inner = np.zeros(self.n)
        o0, o = self._spectrum(u_outer)
        i0, i = self._spectrum(np.asarray(u_inner)[self._flip])
        so, si = self.outer_size, self.inner_size
        det = so**2 - si**2
        # the partner of B_j in mode m_j is conj(B) of mode -m_j, half a
        # basis away: (w/R)^k pairs with conj((r/w)^k) and vice versa
        partner = np.roll((so * i - si * o) / det, self.n // 2)
        dom = self.domain
        return AnnulusHarmonicExtension(
            self, o0, (o0 - i0) / np.log(dom.outer_radius / dom.inner_radius),
            (so * o - si * i) / det, partner)


class AnnulusHarmonicExtension:
    """a_0 + b_0 ln(|w|/R) + sum_j hol_j B_j + anti_j conj(B_j) with B the
    basis (w/R)^k, (r/w)^k: ``hol`` is (a_k, b_k), ``anti`` (a'_k, b'_k)."""

    def __init__(self, solver: AnnulusHarmonicSolver, mean, log_coefficient,
                 hol: np.ndarray, anti: np.ndarray):
        self.solver = solver
        self.mean = mean
        self.log_coefficient = log_coefficient
        self.hol = hol
        self.anti = anti

    def _basis(self, z):
        """w = z - c and the basis at the points, as (points, N) arrays."""
        dom = self.solver.domain
        w = np.atleast_1d(np.asarray(z, dtype=complex)).ravel() - dom.center
        k = self.solver.modes[:self.solver.n // 2]
        return w, np.hstack([(w / dom.outer_radius)[:, None] ** k,
                             (dom.inner_radius / w)[:, None] ** k])

    def value(self, z):
        w, basis = self._basis(z)
        out = (self.mean + basis @ self.hol + np.conj(basis) @ self.anti
               + self.log_coefficient * np.log(np.abs(w) / self.solver.domain.outer_radius))
        return out.reshape(np.shape(z)) if np.shape(z) else complex(out[0])

    def dz(self, z):
        w, basis = self._basis(z)
        out = (0.5 * self.log_coefficient + basis @ (self.solver.modes * self.hol)) / w
        return out.reshape(np.shape(z)) if np.shape(z) else complex(out[0])

    def boundary_dz(self) -> np.ndarray:
        """dz trace at the samples of ``solver.outer``: one inverse FFT."""
        solver = self.solver
        n, modes = solver.n, solver.modes
        spec = np.zeros(n, dtype=complex)
        spec[0] = 0.5 * self.log_coefficient
        np.add.at(spec, modes % n, modes * solver.outer_size * self.hol)
        return n * np.fft.ifft(spec) / _circle_grid(solver.domain.outer_radius, n)
