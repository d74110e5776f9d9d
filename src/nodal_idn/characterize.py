"""Characterization of DN-data: the G function, shock equation, Green identity.

Three independent criteria decide whether a boundary triple is a plausible
DN-datum: (a) the local fiber functions of the line pencil satisfy the
Riemann-Burgers shock equation h * dh/dxi0 = dh/dxi1 and absorb all the
nonlinearity of G (the second xi0-derivative of G minus their sum is flat);
(b) exactly one orientation of the curve passes, unless G is affine in xi0
in which case both may (algebraic image); (c) a boundary Green identity
holds with the candidate identification points and charges:

    (2/i) int_gamma [ u dg(.,z) + g(.,z) conj(theta u) ] = K * sum c g(a, z)

for exterior probes z.  With the principal kernel of the enclosing disk,
counterclockwise gamma and the residue normalization Res(dU) = c, the
constant is K = -4*pi (fixed analytically by a Stokes computation around
the charge points and verified numerically to machine precision).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .dirichlet import DNDatum
from .errors import CharacterizationError, FiberError, MomentError
from .greens import GreenKernel, enclosing_kernel
from .model import BoundaryCurve
from .moments import MomentEngine, recover_fibers
from .spectral import fourier_derivative

CARACT_SCHEMA = "nodal-idn/caract/1"
GREEN_IDENTITY_CONSTANT = -4.0 * np.pi
FLATNESS_FLOOR = 1e-8


def compute_G(datum: DNDatum, xi0: complex, xi1: complex) -> complex:
    """G(xi0, xi1) = (1/2*pi*i) int f1 d(xi0 + xi1 f1 + f2)/(xi0 + xi1 f1 + f2)."""
    f1, f2 = datum.f
    denom = xi0 + xi1 * f1 + f2
    if np.min(np.abs(denom)) < 1e-6:
        raise CharacterizationError("probe line meets f(gamma)")
    numer = xi1 * fourier_derivative(f1) + fourier_derivative(f2)
    return complex(np.sum(f1 * numer / denom) / (1j * datum.n))


def _pencil_engine(datum: DNDatum, xi1: complex) -> MomentEngine:
    """Moment engine for the pencil coordinate xi1*f1 + f2."""
    f1, f2 = datum.f
    tilted = xi1 * f1 + f2
    return MomentEngine(datum.curve, f1, tilted, datum.theta)


def pencil_fibers(datum: DNDatum, xi0: complex, xi1: complex,
                  p: int | None = None,
                  previous: np.ndarray | None = None) -> np.ndarray:
    """f1-values of the intersections of Y with {xi0 + xi1 w1 + w2 = 0}."""
    engine = _pencil_engine(datum, xi1)
    target = -xi0
    if p is None:
        m0 = engine.moments([0], [target])[0, 0]
        p = int(np.rint(m0.real))
        if abs(m0 - p) > 1e-4 or p < 0:
            raise MomentError("pencil sheet count is not a clean integer")
    if p == 0:
        return np.zeros(0, dtype=complex)
    sums = engine.moments(range(1, p + 1), [target])[:, 0]
    return recover_fibers(sums, p, previous=previous)


@dataclass
class ShockReport:
    grid: list                  # (xi0, xi1) pairs
    p: int
    delta: float
    max_shock: float
    max_flat: float
    shock_ratio: float          # coarse/fine residual ratio under halving
    flat_ratio: float
    flat_band: float            # max |d2G/dxi0^2| over the window
    g_values: list = field(default_factory=list)     # G per grid point
    fibers: list = field(default_factory=list)       # h_j per grid point

    @property
    def is_flat(self) -> bool:
        return self.flat_band < FLATNESS_FLOOR

    def to_json(self) -> dict:
        return {"grid": [[jsonio.encode_complex(a), jsonio.encode_complex(b)]
                         for a, b in self.grid],
                "p": self.p, "delta": self.delta,
                "max_shock": self.max_shock, "max_flat": self.max_flat,
                "shock_ratio": self.shock_ratio, "flat_ratio": self.flat_ratio,
                "flat_band": self.flat_band,
                "G": [jsonio.encode_complex(v) for v in self.g_values],
                "fibers": [jsonio.encode_complex_array(np.asarray(h))
                           for h in self.fibers]}


def shock_residual(datum: DNDatum, center: tuple, extent: float,
                   grid_n: int = 3, delta: float | None = None) -> ShockReport:
    """Shock and flatness residuals of the pencil fibers over a window.

    Residuals use centered differences of step delta and delta/2; the
    second-order ratio (about 4) is reported for both.  Note the flatness
    residual |d2/dxi0^2 (G - sum h_j)| of exact data is pure
    finite-difference noise (the identity holds pointwise), so its halving
    ratio sits at the noise floor 1/4 rather than 4.
    """
    xi0c, xi1c = complex(center[0]), complex(center[1])
    if delta is None:
        # large enough that FD truncation dominates the fiber-recovery noise
        delta = max(1e-3, 0.05 * extent)
    offs = np.linspace(-extent / 2, extent / 2, grid_n) if grid_n > 1 \
        else np.array([0.0])
    grid = [(xi0c + a, xi1c + b) for a in offs for b in offs]

    p_ref = pencil_fibers(datum, grid[0][0], grid[0][1])
    p = p_ref.size
    bases = [p_ref] + [pencil_fibers(datum, x0, x1, p=p) for x0, x1 in grid[1:]]
    results = {}
    for d in (delta, delta / 2):
        max_shock = 0.0
        max_flat = 0.0
        for (x0, x1), base in zip(grid, bases):
            if p == 0:
                flat = (compute_G(datum, x0 + d, x1) - 2 * compute_G(datum, x0, x1)
                        + compute_G(datum, x0 - d, x1)) / d ** 2
                max_flat = max(max_flat, abs(flat))
                continue
            hp0 = pencil_fibers(datum, x0 + d, x1, p=p, previous=base)
            hm0 = pencil_fibers(datum, x0 - d, x1, p=p, previous=base)
            hp1 = pencil_fibers(datum, x0, x1 + d, p=p, previous=base)
            hm1 = pencil_fibers(datum, x0, x1 - d, p=p, previous=base)
            d0 = (hp0 - hm0) / (2 * d)
            d1 = (hp1 - hm1) / (2 * d)
            max_shock = max(max_shock, float(np.max(np.abs(base * d0 - d1))))
            g_pp = compute_G(datum, x0 + d, x1) - np.sum(hp0)
            g_00 = compute_G(datum, x0, x1) - np.sum(base)
            g_mm = compute_G(datum, x0 - d, x1) - np.sum(hm0)
            max_flat = max(max_flat, abs(g_pp - 2 * g_00 + g_mm) / d ** 2)
        results[d] = (max_shock, max_flat)
    coarse, fine = results[delta], results[delta / 2]
    flat_band = _xi0_curvature(datum, grid, extent)
    g_values = [compute_G(datum, x0, x1) for x0, x1 in grid]
    return ShockReport(grid, p, delta, fine[0], fine[1],
                       _safe_ratio(coarse[0], fine[0]),
                       _safe_ratio(coarse[1], fine[1]), flat_band,
                       g_values, bases)


def _xi0_curvature(datum, grid, extent: float) -> float:
    """Robust estimate of max |d^2 G / d xi0^2| over the window.

    A quadratic least-squares fit across the full xi0 extent is immune to
    the noise amplification of small finite-difference stencils, so an
    identically affine G reads as flat at the 1e-8 level.
    """
    xi1s = sorted({complex(b) for _, b in grid}, key=lambda v: (v.real, v.imag))
    xi0s = sorted({complex(a) for a, _ in grid}, key=lambda v: (v.real, v.imag))
    center = xi0s[len(xi0s) // 2]
    offsets = np.linspace(-extent / 2, extent / 2, 7)
    basis = np.vander(offsets / (extent / 2), 3, increasing=True)
    band = 0.0
    for x1 in xi1s:
        vals = np.array([compute_G(datum, center + o, x1) for o in offsets])
        coeff, *_ = np.linalg.lstsq(basis, vals, rcond=None)
        band = max(band, abs(2.0 * coeff[2]) / (extent / 2) ** 2)
    return band


def _safe_ratio(coarse: float, fine: float) -> float:
    if fine <= 1e-14:
        return np.inf if coarse > 1e-14 else 1.0
    return coarse / fine


def green_identity_residual(datum: DNDatum, kernel: GreenKernel | None,
                            points, charges, probes) -> np.ndarray:
    """Green-identity defect per (potential, probe).

    ``charges`` has shape (3, total points) in the residue normalization
    Res(dU) = c; ``kernel`` defaults to the principal kernel of the
    enclosing disk of the datum's curve.  Returns |LHS - K sum c g(a, z)|.
    """
    curve = datum.curve
    if kernel is None:
        kernel = enclosing_kernel(curve)
    probes = np.asarray(probes, dtype=complex)
    if np.any(curve.distance_to(probes) < 1e-9):
        raise CharacterizationError("probe point on the boundary curve")
    points = np.asarray(points, dtype=complex)
    charges = np.asarray(charges, dtype=complex)
    if charges.ndim == 1:
        charges = np.tile(charges, (3, 1))
    out = np.zeros((3, probes.size))
    for ell in range(3):
        defects = green_identity_defect(datum, kernel, points, charges[ell],
                                        probes, ell)
        out[ell] = np.abs(defects)
    return out


def green_identity_defect(datum: DNDatum, kernel: GreenKernel, points,
                          charges_ell, probes, ell: int) -> np.ndarray:
    """Signed complex defects LHS - K sum c g for one potential."""
    curve = datum.curve
    probes = np.asarray(probes, dtype=complex)
    u = datum.u[ell]
    theta_pullback = np.conj(datum.theta[ell] * curve.derivatives)
    defects = np.zeros(probes.size, dtype=complex)
    for i, z in enumerate(probes):
        g_vals = kernel(curve.positions, z)
        dg_vals = kernel.dz(curve.positions, z)
        integrand = u * dg_vals * curve.derivatives + g_vals * theta_pullback
        lhs = (2.0 / 1j) * np.sum(integrand) * (2 * np.pi / curve.n)
        rhs = 0.0 + 0.0j
        for a, c in zip(np.asarray(points, dtype=complex),
                        np.asarray(charges_ell, dtype=complex)):
            rhs += c * kernel(a, z)
        defects[i] = lhs - GREEN_IDENTITY_CONSTANT * rhs
    return defects


@dataclass
class OrientationReport:
    verdict: str                # "gamma" | "-gamma" | "algebraic-ambiguous"
    forward: ShockReport | None
    reversed: ShockReport | None
    forward_error: str = ""
    reversed_error: str = ""

    def to_json(self) -> dict:
        return {"verdict": self.verdict,
                "forward": self.forward.to_json() if self.forward else None,
                "reversed": self.reversed.to_json() if self.reversed else None,
                "forward_error": self.forward_error,
                "reversed_error": self.reversed_error}


def orientation_probe(datum: DNDatum, center: tuple, extent: float,
                      pass_shock: float = 1e-5,
                      pass_flat: float = 1e-5) -> OrientationReport:
    """Which orientation of gamma satisfies the shock criterion.

    When G is affine in xi0 over the window for both orientations the
    criterion cannot separate them (the image is algebraic) and both
    one-sided fiber families are attached for the caller.
    """
    reports = {}
    errors = {"gamma": "", "-gamma": ""}
    for name, d in (("gamma", datum), ("-gamma", datum.reversed())):
        try:
            reports[name] = shock_residual(d, center, extent)
        except (MomentError, FiberError, CharacterizationError) as exc:
            reports[name] = None
            errors[name] = str(exc)

    fwd, rev = reports["gamma"], reports["-gamma"]
    fwd_pass = fwd is not None and fwd.max_shock < pass_shock \
        and fwd.max_flat < pass_flat
    rev_pass = rev is not None and rev.max_shock < pass_shock \
        and rev.max_flat < pass_flat
    if not fwd_pass and not rev_pass:
        raise CharacterizationError("not a DN-datum at tested windows")
    # with valid data, flatness of G signals the algebraic case, in which
    # the criterion cannot separate the orientations (G(-gamma) = -G(gamma))
    if (fwd_pass and fwd.is_flat) or (rev_pass and rev.is_flat):
        verdict = "algebraic-ambiguous"
    elif fwd_pass and not rev_pass:
        verdict = "gamma"
    elif rev_pass and not fwd_pass:
        verdict = "-gamma"
    else:
        verdict = "algebraic-ambiguous"
    return OrientationReport(verdict, fwd, rev, errors["gamma"],
                             errors["-gamma"])


@dataclass
class CharacterizationReport:
    hypothesis_a: dict
    shock: ShockReport
    orientation: OrientationReport
    green_residuals: np.ndarray | None
    green_probes: np.ndarray | None
    thresholds: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        ok = self.hypothesis_a.get("injective", False) \
            and self.hypothesis_a.get("immersive", False)
        ok = ok and self.shock.max_shock < self.thresholds.get("shock", 1e-5)
        ok = ok and self.shock.max_flat < self.thresholds.get("flat", 1e-5)
        if self.green_residuals is not None:
            ok = ok and float(np.max(self.green_residuals)) \
                < self.thresholds.get("green", 1e-6)
        return bool(ok)

    def to_json(self) -> dict:
        return {
            "schema": CARACT_SCHEMA,
            "hypothesisA": self.hypothesis_a,
            "shock": self.shock.to_json(),
            "orientation": self.orientation.to_json(),
            "green_residuals": (None if self.green_residuals is None
                                else [[float(v) for v in row]
                                      for row in self.green_residuals]),
            "green_probes": (None if self.green_probes is None
                             else jsonio.encode_complex_array(self.green_probes)),
            "thresholds": dict(self.thresholds),
            "passed": self.passed,
        }


def characterize(datum: DNDatum, center: tuple, extent: float,
                 candidate_points=None, candidate_charges=None,
                 probe_count: int = 20, seed: int = 7,
                 thresholds: dict | None = None) -> CharacterizationReport:
    """Run all characterization criteria and assemble the report.

    When only the reversed orientation passes the shock criterion, the
    passing orientation's residuals enter the verdict and the report keeps
    the flag, so a relabeled curve is still accepted.
    """
    thresholds = dict(thresholds or {})
    thresholds.setdefault("shock", 1e-5)
    thresholds.setdefault("flat", 1e-5)
    thresholds.setdefault("green", 1e-6)
    orient = orientation_probe(datum, center, extent,
                               pass_shock=thresholds["shock"],
                               pass_flat=thresholds["flat"])

    def passes(rep):
        return rep is not None and rep.max_shock < thresholds["shock"] \
            and rep.max_flat < thresholds["flat"]

    if orient.verdict != "-gamma" and passes(orient.forward):
        shock, oriented = orient.forward, datum
    elif passes(orient.reversed):
        shock, oriented = orient.reversed, datum.reversed()
    else:
        shock, oriented = orient.forward or orient.reversed, datum
    green = None
    probes = None
    if candidate_points is not None:
        probes = exterior_probes(oriented.curve, probe_count, seed)
        green = green_identity_residual(oriented, None, candidate_points,
                                        candidate_charges, probes)
    return CharacterizationReport(datum.hypothesis_a.to_json(), shock, orient,
                                  green, probes, thresholds)


def exterior_probes(curve: BoundaryCurve, count: int, seed: int) -> np.ndarray:
    """Random probe points between the curve and the enclosing disk.

    Probes keep a plain-quadrature-safe margin from the curve.
    """
    from .greens import near_boundary_threshold
    kernel = enclosing_kernel(curve)
    rng = np.random.default_rng(seed)
    r_curve = np.max(np.abs(curve.positions - kernel.center))
    lo = r_curve + near_boundary_threshold(curve)
    hi = 0.98 * kernel.radius
    if lo >= hi:
        raise CharacterizationError("no quadrature-safe probe annulus; "
                                    "raise the sample count")
    radii = rng.uniform(lo, hi, count)
    angles = rng.uniform(0.0, 2 * np.pi, count)
    return kernel.center + radii * np.exp(1j * angles)
