"""Nodal Dirichlet problems, the DN operator, theta traces and DN-data.

A harmonic distribution on a nodal model is represented as

    U = Eu + sum_{a,j} 4*pi * c_{a,j} * G(. , a_j)

where E is the harmonic extension of the boundary data and G is the
principal Green function of the model domain.  Both model domains are
circles sampled on the FFT grid, where E is closed-form per Fourier mode
(Poisson on the disk, Fourier-Laurent on the annulus).  Near an identified
point U - 2c ln|z - a| extends harmonically and dU has a simple pole with
residue c, so contour residues of dU recover the charges directly.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .errors import ModelError, SolveError
from .greens import (AnnulusHarmonicSolver, AnnulusPrincipalGreen,
                     DiskHarmonicSolver, GreenKernel, check_fft_circle)
from .model import (GRID_FLOOR, AdmissibleFamily, AnnulusDomain, BoundaryCurve,
                    DiskDomain, NodalDomainModel, grid_cell, grid_pairs)
from .spectral import fourier_derivative

DATUM_SCHEMA = "nodal-idn/datum/1"
INJECTIVITY_GAP = 1e-6
IMMERSION_FLOOR = 1e-8
THETA_CROSSCHECK_TOL = 1e-6


@dataclass(frozen=True)
class Prescription:
    """dz coefficient of a prescribed (1,0)-form on the synthetic path,

        w(z) = sum_k poly[k] z^k + sum_i residues[i] / (z - poles[i]).
    """

    poles: tuple = ()
    residues: tuple = ()
    poly: tuple = (0.0,)

    def __post_init__(self):
        if len(self.poles) != len(self.residues):
            raise ModelError("prescription poles and residues must pair up")

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        # Horner from the leading coefficient, then the poles in order
        for c in np.asarray(self.poly, dtype=complex)[::-1]:
            out = out * z + c
        for a, r in zip(self.poles, self.residues):
            out = out + r / (z - a)
        return out


class HarmonicDistribution:
    """Charged harmonic extension U = Eu + sum_a w_a G(., a), w_a = 4*pi*c_a.

    ``ext_re`` and ``ext_im`` extend Re u and Im u; ``green`` evaluates
    G(z, a) and its dz coefficient.  The dz traces on gamma of both
    extensions (their ``boundary_dz``) and of every G(., a) are taken once,
    here; the boundary evaluators only combine them.
    """

    def __init__(self, model: NodalDomainModel, boundary_values: np.ndarray,
                 ext_re, ext_im, green, charge_points: np.ndarray,
                 weights: np.ndarray):
        self.model = model
        self.boundary_values = np.asarray(boundary_values, dtype=complex)
        self._ext_re = ext_re
        self._ext_im = ext_im
        self._green = green
        self.charge_points = charge_points
        self._weights = weights
        self.is_real = bool(np.max(np.abs(self.boundary_values.imag)) == 0.0)
        pts = model.boundary.positions
        self._trace_re = ext_re.boundary_dz()
        self._trace_im = ext_im.boundary_dz()
        # the annulus extension's dz builds an N x N basis at N points;
        # its FFT trace gives the same values on gamma
        trace = green.boundary_dz if isinstance(green, AnnulusPrincipalGreen) \
            else green.dz
        self._charge_traces = [trace(pts, a) for a in charge_points]

    @property
    def curve(self) -> BoundaryCurve:
        return self.model.boundary

    def _plus_charges(self, out, terms):
        """out + sum_a w_a * term_a; the charge sum is formed first."""
        if not self.charge_points.size:
            return out
        acc = 0.0
        for w, term in zip(self._weights, terms):
            acc = acc + w * term
        return out + acc

    def value(self, z):
        return self._plus_charges(self._ext_re.value(z) + 1j * self._ext_im.value(z),
                                  (self._green(z, a) for a in self.charge_points))

    def dz(self, z):
        """Coefficient of dz of the distribution at interior points."""
        return self._plus_charges(self._ext_re.dz(z) + 1j * self._ext_im.dz(z),
                                  (self._green.dz(z, a) for a in self.charge_points))

    def boundary_dz(self) -> np.ndarray:
        return self._plus_charges(self._trace_re + 1j * self._trace_im,
                                  self._charge_traces)

    def boundary_dzbar(self) -> np.ndarray:
        return self._plus_charges(np.conj(self._trace_re) + 1j * np.conj(self._trace_im),
                                  (np.conj(t) for t in self._charge_traces))


@functools.lru_cache(maxsize=1)
def _extend_and_green(domain, n: int):
    """The harmonic extension u -> Eu of data on gamma (zero on an inner
    circle) and the principal Green function of (domain, n), shared by the
    potentials of one datum."""
    if isinstance(domain, DiskDomain):
        green = GreenKernel("disk-principal", radius=domain.radius, center=domain.center)
        return DiskHarmonicSolver(domain, n).extend, green
    if isinstance(domain, AnnulusDomain):
        solver = AnnulusHarmonicSolver(domain, n)
        return solver.extend, AnnulusPrincipalGreen(solver)
    raise ModelError(f"unsupported domain {domain!r}")


def solve_nodal_dirichlet(model: NodalDomainModel, family: AdmissibleFamily | None,
                          u: np.ndarray) -> HarmonicDistribution:
    """Charged Dirichlet solve: U = Eu + sum 4*pi*c*G(., a).

    u samples the data on gamma = model.boundary, which must be the
    domain's (outer) circle on the FFT grid.  On an annulus the inner
    circle carries zero data.
    """
    u = np.asarray(u, dtype=complex)
    if u.size != model.boundary.n:
        raise ModelError("boundary data length does not match the model boundary")
    check_fft_circle(model.domain, model.boundary)
    points, weights = _collect_charges(model, family)
    extend, green = _extend_and_green(model.domain, model.boundary.n)
    ext_re = extend(u.real.astype(complex))
    ext_im = extend(u.imag.astype(complex))
    return HarmonicDistribution(model, u, ext_re, ext_im, green, points, weights)


def _collect_charges(model: NodalDomainModel, family: AdmissibleFamily | None):
    pts, wts = [], []
    if family is not None and len(family.charges):
        model.check_family(family)
        for group_pts, group_charges in zip(model.node_groups, family.charges):
            pts.extend(group_pts.tolist())
            wts.extend((4 * np.pi * group_charges).tolist())
    for p, r in model.auxiliary_poles:
        pts.append(p)
        wts.append(4 * np.pi * r)
    return np.array(pts, dtype=complex), np.array(wts, dtype=complex)


def apply_dn(dist: HarmonicDistribution) -> np.ndarray:
    """Normal derivative of the charged extension on the boundary."""
    curve = dist.curve
    nu = curve.outward_normal
    out = nu * dist.boundary_dz() + np.conj(nu) * dist.boundary_dzbar()
    if dist.is_real:
        return out.real
    return out


def tangential_derivative(curve: BoundaryCurve, u: np.ndarray) -> np.ndarray:
    """Arc-length derivative of boundary samples."""
    return fourier_derivative(np.asarray(u, dtype=complex)) / np.abs(curve.derivatives)


def compute_theta(dist: HarmonicDistribution) -> np.ndarray:
    """dz-coefficient samples of theta(u) = (dU)|_gamma.

    Cross-checked against the operator identity theta u = (Lu)(nu* + i tau*)
    with L = (N - iT)/2; the two sides agree exactly for true DN data.
    """
    direct = dist.boundary_dz()
    curve = dist.curve
    nu_samples = apply_dn(dist)
    tu = tangential_derivative(curve, dist.boundary_values)
    lu = 0.5 * (nu_samples - 1j * tu)
    via_l = lu * 1j * np.conj(curve.unit_tangent)
    scale = max(1.0, float(np.max(np.abs(direct))))
    gap = float(np.max(np.abs(via_l - direct))) / scale
    if gap > THETA_CROSSCHECK_TOL:
        raise SolveError(f"theta/N operator identity violated: gap {gap:.3e}")
    return direct


@dataclass
class DNDatum:
    """Boundary triple (gamma, u, theta u) with the derived embedding f.

    ``hypothesis_a`` holds the margins that ``check_hypothesis_a`` measured
    on f when the datum was built; it raises where f fails.
    """

    curve: BoundaryCurve
    u: np.ndarray          # shape (3, n)
    theta: np.ndarray      # shape (3, n), dz coefficients
    f: np.ndarray          # shape (2, n)
    hypothesis_a: dict

    @property
    def n(self) -> int:
        return self.curve.n

    def reversed(self) -> "DNDatum":
        idx = (-np.arange(self.n)) % self.n
        return DNDatum(self.curve.reversed(), self.u[:, idx], self.theta[:, idx],
                       self.f[:, idx], self.hypothesis_a)

    def to_json(self) -> dict:
        return {
            "schema": DATUM_SCHEMA,
            "curve": self.curve.to_json(),
            "u": [jsonio.encode_complex_array(row) for row in self.u],
            "theta": [jsonio.encode_complex_array(row) for row in self.theta],
            "f": [jsonio.encode_complex_array(row) for row in self.f],
            "hypothesisA": self.hypothesis_a,
        }

    @staticmethod
    def from_json(doc: dict) -> "DNDatum":
        """The datum of a file; ModelError unless u, theta and f are 3, 3 and
        2 rows of finite samples, one per curve sample, and ``hypothesisA``
        holds the two margins (former pass flags beside them are not read)."""
        jsonio.require_schema(doc, DATUM_SCHEMA)
        curve = BoundaryCurve.from_json(doc.get("curve"))
        rows = {}
        for key, count in (("u", 3), ("theta", 3), ("f", 2)):
            items = doc.get(key) if isinstance(doc.get(key), list) else []
            items = [jsonio.decode_complex_array(r) for r in items]
            if len(items) != count or any(r.shape != (curve.n,) for r in items):
                raise ModelError(f"datum {key} is not {count} rows of "
                                 f"{curve.n} samples")
            rows[key] = np.array(items)
            bad = np.flatnonzero(~np.all(np.isfinite(rows[key]), axis=0))
            if bad.size:
                raise ModelError(f"datum {key} is not finite at samples "
                                 f"{bad.tolist()}")
        held, keys = doc.get("hypothesisA"), ("min_image_gap", "min_speed")
        margins = {k: held.get(k) for k in keys} if isinstance(held, dict) else {}
        if not all(isinstance(margins.get(k), (int, float)) for k in keys):
            raise ModelError(f"datum hypothesisA does not hold the margins {keys}")
        return DNDatum(curve, rows["u"], rows["theta"], rows["f"], margins)


def check_hypothesis_a(theta: np.ndarray) -> tuple[np.ndarray, dict]:
    """Derive f = (theta1/theta0, theta2/theta0) and test the embedding;
    ModelError where it fails.  Returns f and its margins: the smallest
    image gap and the smallest speed |df0| + |df1|."""
    theta0 = theta[0]
    scale = np.max(np.abs(theta0), where=np.isfinite(theta0), initial=0.0)
    zero_idx = np.nonzero(np.abs(theta0) < 1e-12 * max(scale, 1e-300))[0]
    if zero_idx.size:
        raise ModelError(f"theta0 u0 vanishes at samples {zero_idx.tolist()}")

    with np.errstate(all="ignore"):
        f = np.vstack([theta[1] / theta0, theta[2] / theta0])
    bad = np.flatnonzero(~np.all(np.isfinite(np.vstack([theta, f])), axis=0))
    if bad.size:
        raise ModelError(f"hypothesis A failed: theta or f is not finite "
                         f"at samples {bad.tolist()}")
    for row in f:
        # a constant coordinate degenerates the embedding (and the moment
        # engine downstream), so it counts as an immersion failure
        if np.max(np.abs(row - np.mean(row))) < 1e-10 * max(1.0, abs(np.mean(row))):
            raise ModelError("hypothesis A failed: constant component in f")
    min_gap, pair = _min_image_gap(f)
    injective = min_gap > INJECTIVITY_GAP
    speed = np.abs(fourier_derivative(f[0])) + np.abs(fourier_derivative(f[1]))
    min_speed = float(np.min(speed))
    immersive = min_speed > IMMERSION_FLOOR
    if not (injective and immersive):
        raise ModelError(f"hypothesis A failed: injective={injective} "
                         f"(min gap {min_gap:.3e}), immersive={immersive} "
                         f"(min speed {min_speed:.3e}), "
                         f"pairs={[] if injective else [pair]}")
    return f, {"min_image_gap": min_gap, "min_speed": min_speed}


def _min_image_gap(f: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Smallest |df0| + |df1| over circularly non-adjacent sample pairs, and
    the first pair (i < j) in lexicographic order that attains it.

    U = min_k gap(k, k+2) bounds the minimum from above, and a pair with gap
    <= U differs by at most U in every real coordinate.  Each sample sits in
    a cell of side >= 2U on the two widest real coordinates of f, and only
    pairs in neighbouring cells are evaluated.
    """
    n = f.shape[1]

    def gap(i, j):
        return np.abs(f[0][i] - f[0][j]) + np.abs(f[1][i] - f[1][j])

    k = np.arange(n)
    bound = float(np.min(gap(k, (k + 2) % n)))
    coords = np.vstack([f.real, f.imag])
    x, y = coords[np.argsort(np.ptp(coords, axis=1))[-2:]]
    h = max(2.0 * bound, GRID_FLOOR * float(np.max(np.abs(np.r_[x, y]))))
    cx, cy = grid_cell(x, h), grid_cell(y, h)
    # a sample registers in the 2x2 cells from its own: two samples share one
    # of them exactly when their cells are neighbours
    best = (np.inf, 0)
    for a, b in grid_pairs(cx, cx + 1, cy, cy + 1):
        i, j = np.minimum(a, b), np.maximum(a, b)
        keep = (j - i >= 2) & (j - i <= n - 2)
        i, j = i[keep], j[keep]
        if i.size:
            g = gap(i, j)
            low = np.min(g)
            best = min(best, (float(low), int(np.min((i * n + j)[g == low]))))
    i, j = divmod(best[1], n)
    return best[0], (i, j)


def build_dn_datum(model: NodalDomainModel,
                   families: tuple,
                   boundary_values: tuple,
                   prescriptions: tuple | None = None) -> DNDatum:
    """Assemble a DN datum from three boundary potentials or prescribed forms.

    The physical path solves three nodal Dirichlet problems; the synthetic
    path takes the dz coefficients of the forms as ``Prescription`` objects
    directly, so inverse-module tests have closed-form references; residue
    admissibility is enforced against the model's node groups either way.
    ``families``, when given, holds one family per potential.
    """
    curve = model.boundary
    if families and len(families) != 3:
        raise ModelError(f"expected one admissible family per potential, "
                         f"got {len(families)} for 3 potentials")
    if [np.size(v) for v in boundary_values] != [curve.n] * 3:
        raise ModelError(f"expected 3 boundary_values rows of {curve.n} "
                         "samples each")
    if prescriptions is not None:
        if len(prescriptions) != 3:
            raise ModelError(f"expected 3 prescriptions, got "
                             f"{len(prescriptions)}")
        theta = np.vstack([p(curve.positions) for p in prescriptions])
        for ell, p in enumerate(prescriptions):
            _check_prescription(model, families[ell] if families else None, p)
        u = np.vstack([np.asarray(v, dtype=complex) for v in boundary_values])
    else:
        rows_u, rows_t = [], []
        for ell in range(3):
            fam = families[ell] if families else None
            dist = solve_nodal_dirichlet(model, fam, boundary_values[ell])
            rows_u.append(dist.boundary_values)
            rows_t.append(compute_theta(dist))
        u = np.vstack(rows_u)
        theta = np.vstack(rows_t)

    f, margins = check_hypothesis_a(theta)
    return DNDatum(curve, u, theta, f, margins)


def _check_prescription(model: NodalDomainModel, family: AdmissibleFamily | None,
                        prescription: Prescription) -> None:
    node_pts = model.all_points().tolist()
    aux_pts = [p for p, _ in model.auxiliary_poles]
    flat_charges = family.flat().tolist() if family is not None else []
    for pole, res in zip(prescription.poles, prescription.residues):
        if not bool(np.all(model.domain.contains(complex(pole)))):
            continue    # poles outside the domain are data, not charges
        dists = [abs(pole - q) for q in node_pts]
        if dists and min(dists) < 1e-9:
            k = int(np.argmin(dists))
            if k >= len(flat_charges):
                raise ModelError(f"prescription pole {pole} is a node point "
                                 "but its potential has no admissible family")
            if abs(res - flat_charges[k]) > 1e-9 * max(1.0, abs(res)):
                raise ModelError("prescription residue disagrees with the "
                                 "admissible family at a node point")
        elif not any(abs(pole - q) < 1e-9 for q in aux_pts):
            raise ModelError(f"prescription pole {pole} is not a model node "
                             "or auxiliary pole")
