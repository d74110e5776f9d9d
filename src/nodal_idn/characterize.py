"""Characterization of DN-data: the G function, shock equation, Green identity.

Three independent criteria decide whether a boundary triple is a plausible
DN-datum: (a) the local fiber functions of the line pencil satisfy the
Riemann-Burgers shock equation h * dh/dxi0 = dh/dxi1; (b) exactly one
orientation of the curve passes, unless G is affine in xi0 in which case
both may (algebraic image); (c) a boundary Green identity holds with the
candidate identification points and charges:

    (2/i) int_gamma [ u dg(.,z) + g(.,z) conj(theta u) ] = K * sum c g(a, z)

for exterior probes z.  With the principal kernel of the enclosing disk,
counterclockwise gamma and the residue normalization Res(dU) = c, the
constant is K = -4*pi (fixed analytically by a Stokes computation around
the charge points and verified numerically to machine precision).

Criterion (a) runs on the fiber engine alone: on the pencil line xi1 the
moments at -xi0 of the projection (f1, xi1 f1 + f2) are the fiber power
sums, and G(xi0, xi1) is its first moment M_1.  G is thus the sum of the
fibers by construction, so only its curvature in xi0 is read, for the
algebraic verdict of (b).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .dirichlet import DNDatum
from .errors import CharacterizationError, FiberError, MomentError
from .greens import GreenKernel, enclosing_kernel, near_boundary_threshold
from .model import BoundaryCurve
from .moments import MomentEngine, integral_sheet_count, recover_fibers

CARACT_SCHEMA = "nodal-idn/caract/4"
GREEN_IDENTITY_CONSTANT = -4.0 * np.pi
FLATNESS_FLOOR = 1e-8
SHOCK_GRID = 3                  # window grid points per axis
# pass limits of the max shock residual and the max Green-identity defect
DEFAULT_THRESHOLDS = {"shock": 1e-5, "green": 1e-6}
PROBE_COUNT = 20
PROBE_SEED = 7


def _pencil_engine(datum: DNDatum, xi1: complex) -> MomentEngine:
    """Moment engine for the pencil coordinate xi1*f1 + f2."""
    f1, f2 = datum.f
    return MomentEngine(datum.curve, f1, xi1 * f1 + f2)


def _pencil_sums(datum: DNDatum, xi0, xi1):
    """Sheet count p (M_0 at the first point) and fiber power sums
    S_1..S_max(p, 1), S_1 = G, at the points (xi0, xi1) broadcast together:
    one engine and one kernel call per distinct xi1."""
    xi0, xi1 = np.broadcast_arrays(np.asarray(xi0, dtype=complex),
                                   np.asarray(xi1, dtype=complex))
    sums = None
    for line in dict.fromkeys(xi1.flat):
        engine = _pencil_engine(datum, line)
        if sums is None:        # the first point's line comes first
            p = integral_sheet_count(engine.moments([0], [-xi0.flat[0]])[0])
            if p is None:
                raise MomentError("pencil sheet count is not a clean integer")
            sums = np.empty(xi0.shape + (max(p, 1),), dtype=complex)
        on = xi1 == line
        sums[on] = engine.moments(range(1, max(p, 1) + 1), -xi0[on]).T
    return p, sums


def pencil_fibers(datum: DNDatum, xi0, xi1) -> np.ndarray:
    """f1-values of the intersections of Y with {xi0 + xi1 w1 + w2 = 0},
    for one point or arrays of them; shape points + (p,)."""
    p, sums = _pencil_sums(datum, xi0, xi1)
    return recover_fibers(sums, p)


@dataclass
class ShockReport:
    grid: list                  # (xi0, xi1) pairs
    p: int
    delta: float
    max_shock: float
    shock_ratio: float          # coarse/fine residual ratio under halving
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
                "max_shock": self.max_shock, "shock_ratio": self.shock_ratio,
                "flat_band": self.flat_band,
                "G": [jsonio.encode_complex(v) for v in self.g_values],
                "fibers": [jsonio.encode_complex_array(h) for h in self.fibers]}


def shock_residual(datum: DNDatum, center: tuple, extent: float) -> ShockReport:
    """Shock residual of the pencil fibers over a SHOCK_GRID x SHOCK_GRID
    window grid, and the curvature band of G.

    The residual uses centered differences of step delta and delta/2 and
    reports their second-order ratio (about 4).  ``flat_band`` is
    max |d2G/dxi0^2| over the window.
    """
    xi0c, xi1c = complex(center[0]), complex(center[1])
    # large enough that FD truncation dominates the fiber-recovery noise
    delta = max(1e-3, 0.05 * extent)
    offs = np.linspace(-extent / 2, extent / 2, SHOCK_GRID)
    grid = [(xi0c + a, xi1c + b) for a in offs for b in offs]
    x0, x1 = np.array(grid).T
    # stencil points (step, grid point, direction): xi0 + d, xi0 - d,
    # xi1 + d, xi1 - d; the curvature fit takes 7 xi0 on each grid line xi1
    d = np.array([delta, delta / 2])[:, None, None]
    st0 = x0[None, :, None] + d * np.array([1.0, -1.0, 0.0, 0.0])
    st1 = x1[None, :, None] + d * np.array([0.0, 0.0, 1.0, -1.0])
    offsets = np.linspace(-extent / 2, extent / 2, 7)
    cv1, cv0 = np.meshgrid(xi1c + offs, xi0c + offs[offs.size // 2] + offsets,
                           indexing="ij")
    xi0 = np.concatenate([x0, st0.ravel(), cv0.ravel()])
    xi1 = np.concatenate([x1, st1.ravel(), cv1.ravel()])
    p, sums = _pencil_sums(datum, xi0, xi1)
    g = sums[:, 0]
    n, m = x0.size, st0.size
    bases = recover_fibers(sums[:n], p)
    moved = recover_fibers(sums[n:n + m].reshape(st0.shape + (-1,)), p,
                           previous=np.broadcast_to(bases[None, :, None],
                                                    st0.shape + (p,)))
    hp0, hm0, hp1, hm1 = np.moveaxis(moved, 2, 0)
    shock = bases * ((hp0 - hm0) / (2 * d)) - (hp1 - hm1) / (2 * d)
    max_shock = np.max(np.abs(shock), axis=(1, 2), initial=0.0).tolist()
    # max |d2G/dxi0^2| by a quadratic fit over the whole xi0 extent, immune
    # to the noise of small stencils: an affine G reads flat at 1e-8
    fit = np.linalg.lstsq(np.vander(offsets / (extent / 2), 3, increasing=True),
                          g[n + m:].reshape(cv0.shape).T, rcond=None)[0]
    flat_band = float(np.max(np.abs(2.0 * fit[2]))) / (extent / 2) ** 2
    return ShockReport(grid, p, delta, max_shock[1],
                       _safe_ratio(max_shock[0], max_shock[1]), flat_band,
                       list(g[:n]), list(bases))


def _passes(rep: ShockReport | None, shock: float) -> bool:
    return rep is not None and rep.max_shock < shock


def _safe_ratio(coarse: float, fine: float) -> float:
    if fine <= 1e-14:
        return np.inf if coarse > 1e-14 else 1.0
    return coarse / fine


def green_identity_residual(datum: DNDatum, points, charges,
                            probes) -> np.ndarray:
    """Green-identity defect per (potential, probe) with the principal
    kernel of the enclosing disk of the datum's curve.

    ``charges`` has shape (3, total points) in the residue normalization
    Res(dU) = c.  Returns |LHS - K sum c g(a, z)|.
    """
    curve = datum.curve
    probes = np.asarray(probes, dtype=complex)
    if np.any(curve.distance_to(probes) < 1e-9):
        raise CharacterizationError("probe point on the boundary curve")
    return np.abs(green_identity_defects(datum, enclosing_kernel(curve),
                                         points, charges, probes))


def green_identity_defects(datum: DNDatum, kernel: GreenKernel, points,
                           charges, probes) -> np.ndarray:
    """Signed complex defects LHS - K sum c g, shape (3, probes): the
    kernel and its dz on the curve are evaluated once per probe for all
    three potentials."""
    curve = datum.curve
    probes = np.asarray(probes, dtype=complex)
    points = np.asarray(points, dtype=complex)
    theta_pullback = np.conj(datum.theta * curve.derivatives)
    defects = np.zeros((3, probes.size), dtype=complex)
    for i, z in enumerate(probes):
        g_vals = kernel(curve.positions, z)
        dg_vals = kernel.dz(curve.positions, z)
        g_points = [kernel(a, z) for a in points]
        for ell in range(3):
            integrand = (datum.u[ell] * dg_vals * curve.derivatives
                         + g_vals * theta_pullback[ell])
            lhs = (2.0 / 1j) * np.sum(integrand) * (2 * np.pi / curve.n)
            rhs = 0.0 + 0.0j
            for g_a, c in zip(g_points, charges[ell]):
                rhs += c * g_a
            defects[ell, i] = lhs - GREEN_IDENTITY_CONSTANT * rhs
    return defects


@dataclass
class OrientationReport:
    verdict: str                # "gamma" | "-gamma" | "algebraic-ambiguous"
    forward: ShockReport | None
    reversed: ShockReport | None
    forward_error: str = ""
    reversed_error: str = ""
    # the datum with gamma reversed that the probe ran on; not written
    reversed_datum: DNDatum | None = field(default=None, repr=False)

    def to_json(self) -> dict:
        return {"verdict": self.verdict,
                "forward": self.forward.to_json() if self.forward else None,
                "reversed": self.reversed.to_json() if self.reversed else None,
                "forward_error": self.forward_error,
                "reversed_error": self.reversed_error}


def orientation_probe(datum: DNDatum, center: tuple, extent: float,
                      pass_shock: float = DEFAULT_THRESHOLDS["shock"]
                      ) -> OrientationReport:
    """Which orientation of gamma satisfies the shock criterion.

    When G is affine in xi0 over the window for both orientations the
    criterion cannot separate them (the image is algebraic) and both
    one-sided fiber families are attached for the caller.
    """
    reports = {}
    errors = {"gamma": "", "-gamma": ""}
    flipped = datum.reversed()
    for name, d in (("gamma", datum), ("-gamma", flipped)):
        try:
            reports[name] = shock_residual(d, center, extent)
        except (MomentError, FiberError, CharacterizationError) as exc:
            reports[name] = None
            errors[name] = str(exc)

    fwd, rev = reports["gamma"], reports["-gamma"]
    fwd_pass = _passes(fwd, pass_shock)
    rev_pass = _passes(rev, pass_shock)
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
                             errors["-gamma"], flipped)


@dataclass
class CharacterizationReport:
    hypothesis_a: dict          # the datum's margins, echoed
    shock: ShockReport
    orientation: OrientationReport
    green_residuals: np.ndarray | None
    green_probes: np.ndarray | None
    thresholds: dict

    @property
    def passed(self) -> bool:
        ok = self.shock.max_shock < self.thresholds["shock"]
        if self.green_residuals is not None:
            ok = ok and float(np.max(self.green_residuals)) \
                < self.thresholds["green"]
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
                 probe_count: int = PROBE_COUNT, seed: int = PROBE_SEED,
                 thresholds: dict | None = None) -> CharacterizationReport:
    """Run all characterization criteria and assemble the report.

    When only the reversed orientation passes the shock criterion, the
    passing orientation's residuals enter the verdict and the report keeps
    the flag, so a relabeled curve is still accepted.
    """
    thresholds = {**DEFAULT_THRESHOLDS, **(thresholds or {})}
    limit = thresholds["shock"]
    orient = orientation_probe(datum, center, extent, pass_shock=limit)
    if orient.verdict != "-gamma" and _passes(orient.forward, limit):
        shock, oriented = orient.forward, datum
    else:   # the probe raised unless one orientation passes
        shock, oriented = orient.reversed, orient.reversed_datum
    green = None
    probes = None
    if candidate_points is not None:
        probes = exterior_probes(oriented.curve, probe_count, seed)
        green = green_identity_residual(oriented, candidate_points,
                                        candidate_charges, probes)
    return CharacterizationReport(datum.hypothesis_a, shock, orient,
                                  green, probes, thresholds)


def exterior_probes(curve: BoundaryCurve, count: int, seed: int) -> np.ndarray:
    """Random probe points between the curve and the enclosing disk.

    Probes keep a plain-quadrature-safe margin from the curve.
    """
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
