"""Independent brute-force oracles used by tests and derived expected values.

Nothing here calls engine code: the module imports only the error classes
and the companion-matrix roots of the package, never an engine module.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from nodal_idn.errors import ModelError, NodalIdnError
from nodal_idn.oracles import polynomial_roots


def _poly_eval(coeffs: np.ndarray, z):
    return np.polyval(np.asarray(coeffs, dtype=complex)[::-1], z)


def _poly_derivative(coeffs: np.ndarray) -> np.ndarray:
    c = np.asarray(coeffs, dtype=complex)
    if c.size <= 1:
        return np.zeros(1, dtype=complex)
    return c[1:] * np.arange(1, c.size)


def _poly_mul(a, b):
    return np.convolve(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


@dataclass(frozen=True)
class RationalFunction:
    """Finite sum of simple poles plus a polynomial part.

        r(z) = sum_i residues[i] / (z - poles[i]) + sum_k poly[k] z^k
    """

    poles: tuple = ()
    residues: tuple = ()
    poly: tuple = (0.0,)

    def __post_init__(self):
        if len(self.poles) != len(self.residues):
            raise ModelError("poles and residues must pair up")

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = _poly_eval(self.poly, z).astype(complex)
        for a, r in zip(self.poles, self.residues):
            out = out + r / (z - a)
        return out

    def eval_derivative(self, z):
        z = np.asarray(z, dtype=complex)
        out = _poly_eval(_poly_derivative(self.poly), z).astype(complex)
        for a, r in zip(self.poles, self.residues):
            out = out - r / (z - a) ** 2
        return out

    def horner(self, z: complex) -> complex:
        """Scalar re-evaluation by explicit Horner loops (cross-check)."""
        acc = 0.0 + 0.0j
        for c in reversed(self.poly):
            acc = acc * z + c
        for a, r in zip(self.poles, self.residues):
            acc += r / (z - a)
        return acc

    def numerator_of_shift(self, xi: complex) -> np.ndarray:
        """Coefficients of the numerator polynomial of r(z) - xi.

        Multiplying through by prod (z - poles[i]) turns the fiber equation
        r(z) = xi into a polynomial root problem.
        """
        denom = np.array([1.0 + 0.0j])
        for a in self.poles:
            denom = _poly_mul(denom, [-a, 1.0])
        shifted = np.asarray(self.poly, dtype=complex).copy()
        shifted[0] -= xi
        num = _poly_mul(shifted, denom)
        for i, (a, r) in enumerate(zip(self.poles, self.residues)):
            other = np.array([r], dtype=complex)
            for j, b in enumerate(self.poles):
                if j != i:
                    other = _poly_mul(other, [-b, 1.0])
            n = max(num.size, other.size)
            num = np.pad(num, (0, n - num.size))
            num = num + np.pad(other, (0, n - other.size))
        return num


@dataclass(frozen=True)
class DiskDomainSpec:
    """Interior-membership test for fiber filtering."""

    radius: float
    center: complex = 0.0 + 0.0j

    def contains(self, z) -> np.ndarray:
        return np.abs(np.asarray(z, dtype=complex) - self.center) < self.radius

    def boundary_distance(self, z) -> np.ndarray:
        return np.abs(self.radius - np.abs(np.asarray(z, dtype=complex) - self.center))


def fiber_oracle(f2: RationalFunction, xi: complex, domain: DiskDomainSpec,
                 boundary_tol: float = 1e-8) -> np.ndarray:
    """All interior solutions of f2(z) = xi, by companion matrix + polish."""
    num = f2.numerator_of_shift(xi)
    roots = polynomial_roots(num)
    # drop spurious roots landing on poles of f2
    for a in f2.poles:
        roots = roots[np.abs(roots - a) > 1e-10]
    resid = np.abs(f2(roots) - xi)
    good = resid < 1e-6 * max(1.0, abs(xi))
    roots = roots[good]
    # one more Newton polish on the actual rational function
    der = f2.eval_derivative(roots)
    ok = np.abs(der) > 0
    roots[ok] = roots[ok] - (f2(roots[ok]) - xi) / der[ok]
    touching = domain.boundary_distance(roots) < boundary_tol
    if np.any(touching):
        raise NodalIdnError("fiber touches the boundary curve")
    inside = domain.contains(roots)
    out = roots[inside]
    return out[np.argsort(out.real * 1e6 + out.imag)]


@dataclass(frozen=True)
class RationalMapOracle:
    """Closed-form scenario (f1, f2, form coefficients) for oracle tests."""

    f1: RationalFunction
    f2: RationalFunction
    forms: tuple = ()
    domain: DiskDomainSpec = field(default=None)

    def fibers(self, xi: complex) -> np.ndarray:
        return fiber_oracle(self.f2, xi, self.domain)

    def moment(self, m: int, xi: complex) -> complex:
        """Fiber power sum: sum f1(z_j)^m over interior preimages of xi."""
        roots = self.fibers(xi)
        return complex(np.sum(self.f1(roots) ** m))

    def quotients(self, ell: int, xi: complex) -> tuple[np.ndarray, np.ndarray]:
        """Fiber values (h_j, g_j) with g = form_ell / f2' at the preimages."""
        roots = self.fibers(xi)
        g = self.forms[ell](roots) / self.f2.eval_derivative(roots)
        return self.f1(roots), g


def fd_laplacian_check(field_fn, points: np.ndarray, spacing: float) -> float:
    """Max 5-point finite-difference Laplacian residual over sample points."""
    pts = np.asarray(points, dtype=complex).ravel()
    h = float(spacing)
    center = field_fn(pts)
    total = (field_fn(pts + h) + field_fn(pts - h)
             + field_fn(pts + 1j * h) + field_fn(pts - 1j * h) - 4.0 * center)
    return float(np.max(np.abs(total)) / h ** 2)


def argument_principle_count(samples: np.ndarray, xi: complex,
                             safety: float = 0.95) -> int:
    """Winding number of (samples - xi) from summed argument increments."""
    w = np.asarray(samples, dtype=complex) - xi
    if np.any(np.abs(w) == 0.0):
        raise NodalIdnError("value hits the probe point; refine sampling")
    ratio = np.roll(w, -1) / w
    inc = np.angle(ratio)
    if np.max(np.abs(inc)) > safety * np.pi:
        raise NodalIdnError("argument increment > pi between adjacent samples: "
                            "refine sampling")
    total = float(np.sum(inc)) / (2.0 * np.pi)
    winding = int(np.rint(total))
    if abs(total - winding) > 1e-6:
        raise NodalIdnError("winding number failed to round to an integer")
    return winding


def samples_distinct(pos) -> bool:
    """Pairwise distinctness of curve samples from the full N x N gap matrix."""
    pos = np.asarray(pos, dtype=complex)
    gaps = np.abs(pos[:, None] - pos[None, :])
    np.fill_diagonal(gaps, np.inf)
    return bool(np.min(gaps) > 0.0)


def polygon_self_intersects(pos) -> bool:
    """Proper crossing of two non-adjacent sides of the closed polygon,
    tested on all N x N side pairs."""
    pos = np.asarray(pos, dtype=complex)
    n = pos.size
    a = pos
    b = np.roll(pos, -1)
    ax, ay = a.real, a.imag
    bx, by = b.real, b.imag

    def cross(ox, oy, px, py, qx, qy):
        return (px - ox) * (qy - oy) - (py - oy) * (qx - ox)

    d1 = cross(ax[:, None], ay[:, None], bx[:, None], by[:, None],
               ax[None, :], ay[None, :])
    d2 = cross(ax[:, None], ay[:, None], bx[:, None], by[:, None],
               bx[None, :], by[None, :])
    d3 = cross(ax[None, :], ay[None, :], bx[None, :], by[None, :],
               ax[:, None], ay[:, None])
    d4 = cross(ax[None, :], ay[None, :], bx[None, :], by[None, :],
               bx[:, None], by[:, None])
    proper = (d1 * d2 < 0) & (d3 * d4 < 0)
    idx = np.arange(n)
    diff = (idx[:, None] - idx[None, :]) % n
    adjacent = (diff == 0) | (diff == 1) | (diff == n - 1)
    return bool(np.any(proper & ~adjacent))


def min_image_gap(f) -> tuple[float, tuple[int, int]]:
    """Smallest |df0| + |df1| over circularly non-adjacent sample pairs of
    f (shape (2, N)) and the row-major first pair attaining it, from the
    full N x N gap matrix."""
    f = np.asarray(f, dtype=complex)
    n = f.shape[1]
    gaps = np.abs(f[0][:, None] - f[0][None, :]) + np.abs(f[1][:, None] - f[1][None, :])
    idx = np.arange(n)
    circ = (idx[:, None] - idx[None, :]) % n
    nonadjacent = (circ >= 2) & (circ <= n - 2)
    masked = np.where(nonadjacent, gaps, np.inf)
    i, j = np.unravel_index(int(np.argmin(masked)), masked.shape)
    return float(masked[i, j]), (int(i), int(j))
