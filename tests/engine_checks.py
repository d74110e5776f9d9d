"""Checks and builders that only the tests use.

No pipeline stage calls these, so they live beside the tests rather than
in the package: cross-checks that re-verify engine output from outside
(weak holomorphy, contour residues, discrete Cauchy-Riemann residuals,
spectral consistency of a curve), the paper's G function on its own, the
ellipse test curve, and charge-family predicates for the genericity tests.
"""
from dataclasses import dataclass

import numpy as np

from nodal_idn.characterize import _pencil_engine
from nodal_idn.errors import ModelError
from nodal_idn.model import AdmissibleFamily, BoundaryCurve, _zero_sum_masks
from nodal_idn.spectral import fourier_derivative, parameter_grid


def ellipse(a: float, b: float, n: int) -> BoundaryCurve:
    t = parameter_grid(n)
    pos = a * np.cos(t) + 1j * b * np.sin(t)
    der = -a * np.sin(t) + 1j * b * np.cos(t)
    return BoundaryCurve(pos, der)


def compute_G(datum, xi0, xi1):
    """G(xi0, xi1) = (1/2*pi*i) int f1 d(xi0 + xi1 f1 + f2)/(xi0 + xi1 f1 + f2),
    the pencil engine's M_1 at -xi0, for one point or arrays of them.
    Criterion (a) reads G as S_1 of the same pencil power sums."""
    xi0, xi1 = np.broadcast_arrays(np.asarray(xi0, dtype=complex),
                                   np.asarray(xi1, dtype=complex))
    g = np.empty(xi0.shape, dtype=complex)
    for line in dict.fromkeys(xi1.flat):
        on = xi1 == line
        g[on] = _pencil_engine(datum, line).moments([1], -xi0[on])[0]
    return g[()]


def spectral_consistency(curve: BoundaryCurve) -> float:
    """Relative sup-norm gap between stored and re-derived derivatives."""
    rederived = fourier_derivative(curve.positions)
    scale = np.max(np.abs(curve.derivatives))
    return float(np.max(np.abs(rederived - curve.derivatives)) / scale)


def scaled(family: AdmissibleFamily, factor: complex) -> AdmissibleFamily:
    return AdmissibleFamily(tuple(g * factor for g in family.charges))


def zero_sum_subsets(values, tol: float) -> list[tuple[int, ...]]:
    """All nonempty zero-sum index subsets."""
    vals = np.asarray(values, dtype=complex)
    return [tuple(i for i in range(vals.size) if m >> i & 1)
            for m in _zero_sum_masks(vals, tol)]


def has_distinct_pair_magnitudes(family: AdmissibleFamily,
                                 tol: float = 1e-12) -> bool:
    """Genericity predicate for bipolar pairs: |c_j| pairwise distinct.

    Applies to families whose groups are all charge pairs (c, -c); this is
    a different condition from the subset-sum genericity and neither
    implies the other.
    """
    mags = []
    for group in family.charges:
        if group.size != 2 or abs(group[0] + group[1]) > tol * max(
                1.0, float(np.max(np.abs(group)))):
            raise ModelError("predicate applies to bipolar pair families")
        mags.append(abs(group[0]))
    mags = np.asarray(mags)
    gaps = np.abs(mags[:, None] - mags[None, :])
    np.fill_diagonal(gaps, np.inf)
    return bool(np.min(gaps) > tol * max(1.0, float(np.max(mags))))


def residue_at(dist, point: complex, eps: float | None = None,
               nodes: int = 64) -> complex:
    """(1/2*pi*i) contour integral of dU around the point, for a
    ``HarmonicDistribution`` ``dist``."""
    point = complex(point)
    if eps is None:
        gaps = [float(np.min(np.abs(dist.curve.positions - point)))]
        for other in dist.charge_points:
            d = abs(other - point)
            if d > 1e-12:
                gaps.append(d)
        eps = 0.01 * min(gaps)
    ang = 2 * np.pi * np.arange(nodes) / nodes
    ring = point + eps * np.exp(1j * ang)
    dz_ring = 1j * eps * np.exp(1j * ang)
    vals = dist.dz(ring) * dz_ring
    return complex(np.sum(vals) / (1j * nodes))


@dataclass
class HolomorphyReport:
    residues: list
    declared: list
    residues_match: bool
    zero_sum: bool
    bounded_after_polar: bool
    growth_factors: list

    @property
    def passed(self) -> bool:
        return self.residues_match and self.zero_sum and self.bounded_after_polar


def verify_weak_holomorphy(form_dz, points, charges, eps: float = 0.02,
                           halvings: int = 4, nodes: int = 64,
                           tol: float = 1e-6) -> HolomorphyReport:
    """Check the log-singularity model of a (1,0)-form near identified points.

    (i) contour residues match the declared charges, (ii) they sum to zero,
    (iii) the form minus its polar part stays bounded on shrinking circles.
    """
    points = np.asarray(points, dtype=complex)
    charges = np.asarray(charges, dtype=complex)
    ang = 2 * np.pi * np.arange(nodes) / nodes
    unit = np.exp(1j * ang)
    residues = []
    growth_factors = []
    bounded = True
    for a, c in zip(points, charges):
        ring = a + eps * unit
        res = complex(np.sum(form_dz(ring) * 1j * eps * unit) / (1j * nodes))
        residues.append(res)
        sups = []
        for k in range(halvings + 1):
            r = eps / 2**k
            ring = a + r * unit
            sups.append(float(np.max(np.abs(form_dz(ring) - res / (r * unit)))))
        # ratios of sups at roundoff level are noise, not growth
        floor = 1e-9 * max(abs(res) / eps, 1.0)
        factors = [sups[k + 1] / sups[k] if sups[k] > floor else 0.0
                   for k in range(halvings)]
        growth_factors.append(factors)
        if factors and max(factors) > 1.5:
            bounded = False
    scale = max(1.0, float(np.max(np.abs(charges))) if charges.size else 1.0)
    match = all(abs(r - c) < tol * scale for r, c in zip(residues, charges))
    # the zero-sum requirement binds only when the declared charges form a
    # complete node group (a partial set of branches may be checked alone)
    declared_zero = abs(np.sum(charges)) < tol * scale if charges.size else True
    zero = (not declared_zero) or abs(np.sum(residues)) < tol * scale
    return HolomorphyReport(residues, charges.tolist(), match, zero, bounded,
                            growth_factors)


def cr_residual(values: np.ndarray, spacing: float) -> float:
    """Fourth-order discrete Cauchy-Riemann residual |d/dzbar| on a square
    grid of at least 5 x 5 values, rows along x and columns along y."""
    v = np.asarray(values)
    if v.shape[0] < 5 or v.shape[1] < 5:
        raise ValueError("grid too small for the holomorphy cross-check")
    c = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    dx = sum(c[k + 2] * v[2 + k:v.shape[0] - 2 + k or None, 2:-2]
             for k in range(-2, 3)) / spacing
    dy = sum(c[k + 2] * v[2:-2, 2 + k:v.shape[1] - 2 + k or None]
             for k in range(-2, 3)) / spacing
    dbar = 0.5 * (dx + 1j * dy)
    return float(np.max(np.abs(dbar)))
