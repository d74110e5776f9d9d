"""Standard scenario constructions used by tests, scripts and shipped files.

Every scenario has closed-form boundary potentials and prescribed rational
forms, so each pipeline stage has an independent oracle.  The engine gets
the oracle's forms as ``Prescription`` objects with the same coefficients.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nodal_idn.dirichlet import DNDatum, Prescription, build_dn_datum
from nodal_idn.model import AdmissibleFamily, DiskDomain, NodalDomainModel
from nodal_idn.moments import WindowPlan

from .oracles import DiskDomainSpec, RationalFunction, RationalMapOracle


def ring_plan(center: complex, ring_radius: float, count: int,
              window_radius: float) -> WindowPlan:
    """``count`` windows of ``window_radius`` evenly spaced on a circle."""
    ang = 2 * np.pi * np.arange(count) / count
    centers = (center + ring_radius * np.exp(1j * ang)).tolist()
    return WindowPlan(centers, window_radius)


@dataclass
class Scenario:
    name: str
    model: NodalDomainModel
    families: tuple | None
    boundary_values: tuple
    oracle: RationalMapOracle
    plan: WindowPlan
    shock_center: tuple
    shock_extent: float

    @property
    def prescriptions(self) -> tuple:
        return tuple(Prescription(w.poles, w.residues, w.poly)
                     for w in self.oracle.forms)

    def datum(self) -> DNDatum:
        return build_dn_datum(self.model, self.families,
                              boundary_values=self.boundary_values,
                              prescriptions=self.prescriptions)


def graph(n: int = 256) -> Scenario:
    """Single-sheet graph w1 = w2^2 over the unit circle; no charges."""
    dom = DiskDomain(1.0)
    curve = dom.boundary(n)
    z = curve.positions
    w0 = RationalFunction(poly=(1.0,))
    w1 = RationalFunction(poly=(0.0, 0.0, 1.0))
    w2 = RationalFunction(poly=(0.0, 1.0))
    us = (2 * z.real, 2 * (z**3 / 3).real, (z**2).real)
    oracle = RationalMapOracle(w1, w2, (w0, w1, w2), DiskDomainSpec(1.0))
    plan = WindowPlan([0.0 + 0.0j, 0.3 + 0.3j, -0.35 + 0.1j], 0.3)
    return Scenario("graph", NodalDomainModel(dom, curve), None, us, oracle,
                    plan, (-0.1, 0.05), 0.02)


def charged4(n: int = 512) -> Scenario:
    """Four-sheet curve with one node: f = (2 + z^3 - z, 3 + z^4 - z^2) on
    the disk of radius 1.5, points +-1 identified, charges (1,-1), (2,-2),
    (3,-3).  The image point (2, 3) carries the node and, coincidentally,
    a ramified spurious component from the critical point of f2 at 0."""
    dom = DiskDomain(1.5)
    curve = dom.boundary(n)
    z = curve.positions
    w0 = RationalFunction(poles=(1.0, -1.0), residues=(1.0, -1.0))
    w1 = RationalFunction(poles=(1.0, -1.0), residues=(2.0, -2.0), poly=(0.0, 2.0))
    w2 = RationalFunction(poles=(1.0, -1.0), residues=(3.0, -3.0),
                          poly=(0.0, 0.0, 2.0))
    log_dipole = np.log(np.abs(z - 1.0)) - np.log(np.abs(z + 1.0))
    us = (2 * log_dipole,
          4 * log_dipole + 2 * (z**2).real,
          6 * log_dipole + (4.0 / 3.0 * z**3).real)
    model = NodalDomainModel(dom, curve, (np.array([1.0 + 0j, -1.0 + 0j]),))
    families = tuple(AdmissibleFamily((np.array([k, -k], dtype=complex),))
                     for k in (1.0, 2.0, 3.0))
    f1 = RationalFunction(poly=(2.0, -1.0, 0.0, 1.0))
    f2 = RationalFunction(poly=(3.0, 0.0, -1.0, 0.0, 1.0))
    oracle = RationalMapOracle(f1, f2, (w0, w1, w2), DiskDomainSpec(1.5))
    plan = ring_plan(3.0 + 0.0j, 0.16, 8, 0.09)
    return Scenario("charged4", model, families, us, oracle, plan,
                    (-3.6, 0.15), 0.02)


def spurious() -> Scenario:
    """Charge-free curve f = (z^2 - 1, z^3 - z) with a spurious double point
    at the origin: f(1) = f(-1) = (0, 0) but nothing is identified."""
    dom = DiskDomain(1.5)
    curve = dom.boundary(512)
    z = curve.positions
    w0 = RationalFunction(poly=(1.0,))
    w1 = RationalFunction(poly=(-1.0, 0.0, 1.0))
    w2 = RationalFunction(poly=(0.0, -1.0, 0.0, 1.0))
    us = (2 * z.real,
          2 * (z**3 / 3 - z).real,
          2 * (z**4 / 4 - z**2 / 2).real)
    model = NodalDomainModel(dom, curve)
    oracle = RationalMapOracle(w1, w2, (w0, w1, w2), DiskDomainSpec(1.5))
    plan = ring_plan(0.0 + 0.0j, 0.14, 6, 0.08)
    return Scenario("spurious", model, None, us, oracle, plan, (-0.05, 0.1),
                    0.02)


def flat_line() -> Scenario:
    """Image contained in the affine line w2 = 0.5 w1 + 0.2, so the second
    xi0-derivative of G vanishes identically (algebraic-ambiguous case)."""
    dom = DiskDomain(1.0)
    curve = dom.boundary(256)
    z = curve.positions
    w0 = RationalFunction(poly=(1.0,))
    w1 = RationalFunction(poly=(0.0, 1.0))
    w2 = RationalFunction(poly=(0.2, 0.5))
    us = (2 * z.real, (z**2).real, (0.25 * z**2 + 0.4 * z).real)
    oracle = RationalMapOracle(w1, w2, (w0, w1, w2), DiskDomainSpec(1.0))
    # inside f2(gamma), the circle |w - 0.2| = 0.5, and well clear of it
    plan = WindowPlan([0.2 + 0.1j], 0.1)
    return Scenario("flat_line", NodalDomainModel(dom, curve), None, us,
                    oracle, plan, (-0.05, 2.0), 0.02)


def corrupted_datum(base: Scenario | None = None) -> DNDatum:
    """A non-holomorphic corruption of the charged scenario's first
    coordinate; breaks extendability, so shock residuals blow up."""
    base = base or charged4()
    datum = base.datum()
    f = datum.f.copy()
    f[0] = f[0] + 0.1 * np.conj(f[0])
    return DNDatum(datum.curve, datum.u, datum.theta, f, datum.hypothesis_a)


def compact_config(degree_one: bool = False) -> dict:
    """Config document for the compact-surface workflow on gamma = bS."""
    if degree_one:
        poles = [[[-1.8, 0.0], [1.6, 0.4]],
                 [[2.0, -0.5], [-0.3, 1.9]],
                 [[-1.8, 0.0], [1.5, 1.5]]]
    else:
        poles = [[[-1.8, 0.0], [1.6, 0.4]],
                 [[2.0, -0.5], [-0.3, 1.9]],
                 [[-1.4, -1.3], [1.5, 1.5]]]
    if degree_one:
        windows = WindowPlan([0.64 - 0.15j], 0.04)
    else:
        windows = ring_plan(0.47 - 0.43j, 0.04, 6, 0.025)
    return {
        "command": "compact",
        "rho": 1.0,
        "n": 512,
        "charges": [[1.0, 0.0], [1.3, 0.0], [0.8, 0.0]],
        "poles": poles,
        "aux": [[], [], []],
        "windows": windows.to_json(),
        "contour_radius": 0.05,
    }
