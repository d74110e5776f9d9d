"""Singularity analysis of the reconstructed curve.

Double points of the image curve are located by intersecting recovered
sheets, refined by Newton iteration on their difference.  Around each
candidate a small contour in the base coordinate is tracked; the monodromy
permutation splits the sheets into cycles, one per local irreducible
branch.  A branch belongs to a node exactly when some contour residue of a
recovered form quotient is nonzero, in which case that residue is the
charge of the branch; zero-residue branches are spurious intersections (or
carry undetectable zero charges).  A logarithmic-divergence test of the
Dirichlet energy on shrinking annuli gives a second, independent verdict.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .errors import FiberError, MomentError, MonodromyError, PartitionError
from .model import finest_zero_sum_partition, is_generic_family
from .moments import (FiberWindow, MomentEngine, ReconstructedCurve,
                      companion_roots, continue_fibers, recover_form_quotient,
                      roots_from_power_sums)

NODES_SCHEMA = "nodal-idn/nodes/1"
DEFAULT_CONTOUR_RADIUS = 0.05
DEFAULT_CONTOUR_NODES = 128
SLOPE_CAP = 50.0


@dataclass
class SingularPointCandidate:
    """A transverse sheet crossing in the image curve."""

    xi: complex
    h: complex
    window_index: int
    sheet_pair: tuple
    slopes: tuple

    @property
    def point(self) -> tuple:
        return (self.h, self.xi)


def _sheet_values_at(engine: MomentEngine, windows: list, xi,
                     steps: int = 12) -> np.ndarray:
    """All sheets of windows[b] at xi[b], continued from the window's grid
    point nearest to xi[b]; the walks of every b advance together (the
    windows share one sheet count).  Returns (B, p)."""
    xi = np.asarray(xi, dtype=complex)
    grid_xi, grid_roots = _nearest_grid_points(windows, xi)
    walks = _walks(grid_xi, xi, steps)
    return continue_fibers(engine, windows[0].p, walks, grid_xi, grid_roots)[:, -1]


def _nearest_grid_points(windows: list, xi: np.ndarray):
    """The grid point of windows[b] nearest to xi[b] and its roots."""
    nearest = [int(np.argmin(np.abs(w.grid - x))) for w, x in zip(windows, xi)]
    return (np.array([w.grid[k] for w, k in zip(windows, nearest)]),
            np.array([w.roots[k] for w, k in zip(windows, nearest)]))


def _walks(start: np.ndarray, end: np.ndarray, steps: int) -> np.ndarray:
    """(B, steps) straight walks from start[b] to end[b], start excluded."""
    return start[:, None] + (end - start)[:, None] * (np.arange(1, steps + 1) / steps)


@dataclass
class _Crossing:
    """A seed of the refinement of one sheet crossing, and its state."""

    window_index: int
    window: FiberWindow
    pair: tuple
    center: complex
    rho: float
    fit: dict | None = None
    live: bool = True


def locate_singularities(curve: ReconstructedCurve, engine: MomentEngine,
                         tau_factor: float = 1e-4,
                         fit_degree: int = 3) -> list[SingularPointCandidate]:
    """Transverse double-point candidates from pairwise sheet crossings.

    Per window, the difference of every sheet pair is modelled by a low
    degree polynomial whose roots seed Newton refinement on the true sheet
    difference; candidates where the difference cannot be driven below
    tau_sing = tau_factor * window radius (branch-point collisions) are
    discarded, as are pairs with near-equal or runaway slopes.
    """
    seeds = _crossing_seeds(curve, fit_degree)
    _refine_crossings(engine, seeds)
    candidates = []
    for seed in seeds:
        scale_h = max(1.0, float(np.max(np.abs(seed.window.roots))))
        found = _accept_crossing(seed, tau_factor * seed.window.radius * scale_h)
        if found is not None:
            candidates.append(found)
    return _cluster_candidates(candidates)


def _crossing_seeds(curve: ReconstructedCurve, fit_degree: int) -> list:
    """One crossing per root of the polynomial model of every sheet
    difference, per window; roots far outside the window are skipped."""
    seeds = []
    for widx, window in enumerate(curve.windows):
        if window.p < 2:
            continue
        x = (window.grid - window.center) / window.radius
        basis = np.vander(x, fit_degree + 1, increasing=True)
        for j in range(window.p):
            for k in range(j + 1, window.p):
                diff = window.roots[:, j] - window.roots[:, k]
                coeffs, *_ = np.linalg.lstsq(basis, diff, rcond=None)
                for root in companion_roots(coeffs):
                    if abs(root) > 3.0:
                        continue
                    seeds.append(_Crossing(widx, window, (j, k),
                                           window.center + root * window.radius,
                                           0.05 * window.radius))
    return seeds


def _refine_crossings(engine: MomentEngine, crossings: list,
                      iterations: int = 3, circle_nodes: int = 16,
                      steps: int = 12) -> None:
    """Locate the zero of h_j - h_k of every crossing from fits on small
    circles.

    Sheets cannot be tracked into the collision itself, so the difference is
    modelled by a quadratic fitted on a circle around the current estimate
    and the model root re-centers the circle.  Each round, the crossings
    still live whose windows share a sheet count are tracked together: a
    walk from the window grid to the circle, then around it.  A crossing
    whose tracking fails (or comes too close to f2(gamma)) or whose fit
    breaks down is dropped, alone.
    """
    ang = 2 * np.pi * np.arange(circle_nodes) / circle_nodes
    for _ in range(iterations):
        live = [c for c in crossings if c.live]
        for p in sorted({c.window.p for c in live}):
            group = [c for c in live if c.window.p == p]
            centers = np.array([c.center for c in group])
            rho = np.array([c.rho for c in group])
            start = centers + rho * np.exp(1j * ang[0])
            circles = centers[:, None] + rho[:, None] * np.exp(1j * ang[1:])
            grid_xi, grid_roots = _nearest_grid_points(
                [c.window for c in group], start)
            paths = np.hstack([_walks(grid_xi, start, steps), circles])
            try:
                tracks = continue_fibers(engine, p, paths, grid_xi, grid_roots)
                failed = np.zeros(len(group), dtype=bool)
            except (FiberError, MomentError) as exc:
                if exc.failed is None:
                    tracks, failed = None, np.ones(len(group), dtype=bool)
                else:
                    tracks, failed = exc.partial, exc.failed
            for b, crossing in enumerate(group):
                if failed[b]:
                    crossing.fit, crossing.live = None, False
                else:
                    _recenter(crossing, ang, tracks[b, steps - 1:])


def _recenter(crossing: _Crossing, ang: np.ndarray, values: np.ndarray) -> None:
    """Fit the circle values and move the crossing's circle to the model
    root; stops the crossing once it converges or its fit breaks down."""
    fit = _circle_fit(crossing.center, crossing.rho, ang, values, *crossing.pair)
    crossing.fit = fit
    if fit is None:
        crossing.live = False
        return
    step = fit["root"] - crossing.center
    crossing.center = fit["root"]
    if abs(step) > 5 * crossing.rho:   # model untrustworthy that far out
        crossing.rho = min(abs(step), crossing.window.radius)
    elif abs(step) < 0.05 * crossing.rho:
        crossing.live = False
        return
    crossing.rho = max(2 * abs(step), 0.2 * crossing.rho)


def _accept_crossing(crossing: _Crossing, tol: float):
    """The candidate of a refined crossing, or None where the sheets do not
    meet (gap above tol) or meet at a branch point: branch-point collisions
    leave a large fit residual (a square-root singularity inside the
    circle) or have runaway or coincident slopes."""
    fit = crossing.fit
    if fit is None or fit["gap"] > tol:
        return None
    slope_j, slope_k = fit["slopes"]
    if max(abs(slope_j), abs(slope_k)) > SLOPE_CAP:
        return None
    if abs(slope_j - slope_k) < 1e-3 * (1.0 + max(abs(slope_j), abs(slope_k))):
        return None
    return SingularPointCandidate(crossing.center, fit["h"], crossing.window_index,
                                  crossing.pair, (slope_j, slope_k))


def _circle_fit(center, rho, ang, values, j, k):
    """Quadratic models of two sheets on a circle; their common value."""
    x = np.exp(1j * ang)     # (xi - center)/rho on the circle
    basis = np.vander(x, 3, increasing=True)
    cj, *_ = np.linalg.lstsq(basis, values[:, j], rcond=None)
    ck, *_ = np.linalg.lstsq(basis, values[:, k], rcond=None)
    resid = max(float(np.max(np.abs(basis @ cj - values[:, j]))),
                float(np.max(np.abs(basis @ ck - values[:, k]))))
    scale = float(np.max(np.abs(values[:, j] - values[:, k]))) + 1e-300
    if resid > 0.02 * scale:
        return None              # not analytic across the circle: branch point
    d = cj - ck
    roots = companion_roots(d)
    if roots.size == 0:
        root_x = 0.0 + 0.0j
    else:
        root_x = roots[np.argmin(np.abs(roots))]
    xi_root = center + rho * root_x
    gap = abs(d[0] + d[1] * root_x + d[2] * root_x**2)
    hj = cj[0] + cj[1] * root_x + cj[2] * root_x**2
    hk = ck[0] + ck[1] * root_x + ck[2] * root_x**2
    slopes = ((cj[1] + 2 * cj[2] * root_x) / rho,
              (ck[1] + 2 * ck[2] * root_x) / rho)
    return {"root": xi_root, "gap": gap, "h": 0.5 * (hj + hk),
            "slopes": slopes}


def _cluster_candidates(candidates, tol: float = 1e-3):
    out: list[SingularPointCandidate] = []
    for c in candidates:
        for seen in out:
            if abs(c.xi - seen.xi) < tol and abs(c.h - seen.h) < tol:
                break
        else:
            out.append(c)
    return out


@dataclass
class BranchContour:
    """A tracked circle in the base coordinate around a singular value."""

    center: complex
    radius: float
    angles: np.ndarray
    roots: np.ndarray           # (nodes + 1, p); last row = first after a loop
    permutation: np.ndarray     # sheet monodromy after one loop
    cycles: list                # list of tuples of sheet indices


def track_branch_contour(engine: MomentEngine, p: int, centers, radius: float,
                         seed_roots: np.ndarray,
                         nodes: int = DEFAULT_CONTOUR_NODES) -> list:
    """Track all fibers once around the contour of every center, together,
    and decompose each monodromy.

    ``seed_roots[b]`` are the roots at centers[b] + radius, where contour b
    starts.  Returns one BranchContour per center.
    """
    centers = np.atleast_1d(np.asarray(centers, dtype=complex))
    ang = 2 * np.pi * np.arange(nodes + 1) / nodes
    paths = centers[:, None] + radius * np.exp(1j * ang)
    tracks = continue_fibers(engine, p, paths, paths[:, 0],
                             np.reshape(seed_roots, (centers.size, p)))
    contours = []
    for center, rows in zip(centers, tracks):
        start, final = rows[0], rows[-1]
        dist = np.abs(start[:, None] - final[None, :])
        perm = np.argmin(dist, axis=0)   # sheet s ends where sheet perm[s] started
        if np.unique(perm).size != perm.size:
            raise MonodromyError("monodromy: sheet tracking did not close into a "
                                 "permutation; branch point too close to contour")
        contours.append(BranchContour(complex(center), radius, ang, rows, perm,
                                      _permutation_cycles(perm)))
    return contours


def _permutation_cycles(perm: np.ndarray) -> list:
    seen = set()
    cycles = []
    for s in range(perm.size):
        if s in seen:
            continue
        cyc = [s]
        seen.add(s)
        t = int(perm[s])
        while t != s:
            cyc.append(t)
            seen.add(t)
            t = int(perm[t])
        cycles.append(tuple(cyc))
    return cycles


def branch_passes_through(contour: BranchContour, cycle: tuple,
                          h_star: complex, tol: float = 1e-3) -> bool:
    """Does the local branch (monodromy cycle) pass through (h_star, center)?

    The cycle's elementary symmetric functions are single-valued on the
    punctured disk and bounded, so their mean over the contour is their
    value at the center; the branch is incident iff every root of the
    extended local polynomial equals h_star.
    """
    vals = contour.roots[:-1][:, list(cycle)]
    mean_sums = np.array([np.mean(np.sum(vals ** m, axis=1))
                          for m in range(1, len(cycle) + 1)])
    roots = roots_from_power_sums(mean_sums)
    scale = max(1.0, abs(h_star))
    return bool(np.all(np.abs(roots - h_star) < tol * scale))


def branch_residues(engine: MomentEngine, contour: BranchContour,
                    cycles: list) -> np.ndarray:
    """Residues (1/2*pi*i) * contour integral of each branch's form quotient.

    Shape (len(cycles), 3), one column per potential.  For a multi-sheet
    cycle the quotients of all its sheets are summed, which is the
    well-defined pushforward on the irreducible local branch.
    """
    n = contour.angles.size - 1
    phase = np.exp(1j * contour.angles[:-1])
    g = recover_form_quotient(engine, contour.center + contour.radius * phase,
                              contour.roots[:-1])
    dxi = 1j * contour.radius * phase
    return np.array([[np.sum(np.sum(g[ell][:, list(cyc)], axis=1) * dxi)
                      for ell in range(3)] for cyc in cycles]) / (1j * n)


@dataclass
class EnergyGrowthReport:
    contributions: list
    ratios: list
    verdict: str                # "divergent" | "convergent" | "undetermined"


def energy_growth_reports(engine: MomentEngine, contour: BranchContour,
                          cycles: list, halvings: int = 4,
                          radial_nodes: int = 4,
                          angular_nodes: int = 64) -> list:
    """Energy of the recovered forms on shrinking annuli around the center.

    Returns an EnergyGrowthReport per (cycle, potential), from one tracking
    pass.  Logarithmically divergent totals (annulus contributions roughly
    constant) flag a charged node branch; decaying contributions flag a
    spurious branch.
    """
    p = contour.roots.shape[1]
    ang = 2 * np.pi * np.arange(angular_nodes) / angular_nodes
    ref_roots = np.zeros((angular_nodes, p), dtype=complex)
    for i, a in enumerate(ang):
        j = int(np.argmin(np.abs((contour.angles[:-1] - a + np.pi) % (2 * np.pi)
                                 - np.pi)))
        ref_roots[i] = contour.roots[j]
    contributions = np.zeros((len(cycles), 3, halvings + 1))
    outer_roots = ref_roots
    outer_radius = contour.radius
    for k in range(halvings + 1):
        eps = contour.radius / 2.0 ** k
        radii = eps / 2.0 + (eps / 2.0) * (np.arange(radial_nodes) + 0.5) / radial_nodes
        for r in sorted(radii, reverse=True):
            ring = contour.center + r * np.exp(1j * ang)
            rays = contour.center + np.linspace(outer_radius, r, 4)[None, 1:] \
                * np.exp(1j * ang)[:, None]
            ring_roots = continue_fibers(
                engine, p, rays, contour.center + outer_radius * np.exp(1j * ang),
                outer_roots)[:, -1]
            dr = (eps / 2.0) / radial_nodes
            weight = r * dr * (2 * np.pi / angular_nodes)
            g = recover_form_quotient(engine, ring, ring_roots)
            for ci, cyc in enumerate(cycles):
                contributions[ci, :, k] += \
                    np.sum(np.abs(g[:, :, list(cyc)]) ** 2, axis=(1, 2)) * weight
            outer_roots = ring_roots
            outer_radius = r
    out = []
    for ci in range(len(cycles)):
        per_ell = []
        for ell in range(3):
            contr = contributions[ci, ell].tolist()
            ratios = [contr[k + 1] / contr[k] if contr[k] > 0 else 0.0
                      for k in range(halvings)]
            if not ratios:
                verdict = "undetermined"
            elif 0.8 <= ratios[-1] <= 1.25:
                verdict = "divergent"
            elif ratios[-1] < 0.8:
                verdict = "convergent"
            else:
                verdict = "undetermined"
            per_ell.append(EnergyGrowthReport(contr, ratios, verdict))
        out.append(per_ell)
    return out


@dataclass
class BranchReport:
    cycle: tuple
    residues: np.ndarray        # shape (3,)
    classification: str = "undetermined"
    energy_verdicts: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {"cycle": [int(s) for s in self.cycle],
                "residues": jsonio.encode_complex_array(self.residues),
                "classification": self.classification,
                "energy_verdicts": list(self.energy_verdicts)}


@dataclass
class SingularPointReport:
    h: complex
    xi: complex
    contour_radius: float
    branches: list

    @property
    def point(self) -> tuple:
        return (self.h, self.xi)

    def to_json(self) -> dict:
        return {"h": jsonio.encode_complex(self.h),
                "xi": jsonio.encode_complex(self.xi),
                "contour_radius": self.contour_radius,
                "branches": [b.to_json() for b in self.branches]}


def analyze_singular_point(engine: MomentEngine, curve: ReconstructedCurve,
                           candidates: list,
                           contour_radius: float = DEFAULT_CONTOUR_RADIUS,
                           nodes: int = DEFAULT_CONTOUR_NODES,
                           with_energy: bool = True) -> list:
    """Track a contour around each candidate and measure branch residues.

    The contours of all candidates whose windows share a sheet count are
    tracked together.  Returns one SingularPointReport per candidate.
    """
    by_sheets: dict[int, list] = {}
    for i, candidate in enumerate(candidates):
        p = curve.windows[candidate.window_index].p
        by_sheets.setdefault(p, []).append(i)
    contours = [None] * len(candidates)
    for p, members in by_sheets.items():
        windows = [curve.windows[candidates[i].window_index] for i in members]
        centers = np.array([candidates[i].xi for i in members])
        start = _sheet_values_at(engine, windows, centers + contour_radius)
        tracked = track_branch_contour(engine, p, centers, contour_radius, start,
                                       nodes)
        for i, contour in zip(members, tracked):
            contours[i] = contour
    return [_point_report(engine, candidate, contour, with_energy)
            for candidate, contour in zip(candidates, contours)]


def _point_report(engine: MomentEngine, candidate: SingularPointCandidate,
                  contour: BranchContour, with_energy: bool) -> SingularPointReport:
    """Residues and energy verdicts of the branches of one tracked contour
    that pass through the candidate."""
    incident = [cyc for cyc in contour.cycles
                if branch_passes_through(contour, cyc, candidate.h)]
    energy = energy_growth_reports(engine, contour, incident) \
        if with_energy else None
    residues = branch_residues(engine, contour, incident) if incident else []
    branches = []
    for ci, cyc in enumerate(incident):
        report = BranchReport(cyc, residues[ci])
        if energy is not None:
            report.energy_verdicts = [energy[ci][ell].verdict for ell in range(3)]
        branches.append(report)
    return SingularPointReport(candidate.h, candidate.xi, contour.radius, branches)


@dataclass
class NodeInventory:
    """Recovered nodes, charges, genericity and uniqueness verdicts."""

    points: list                # (h, xi) per singular point analyzed
    nodes: list                 # dicts: point, branch cycles, charges (3 x width)
    spurious: list              # points with all-zero residues
    family_generic: list        # per ell
    partition_unique: bool
    isomorphism_class: str      # "full" | "rough"
    tau_res: float
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "schema": NODES_SCHEMA,
            "points": [[jsonio.encode_complex(h), jsonio.encode_complex(x)]
                       for h, x in self.points],
            "nodes": [{
                "point": [jsonio.encode_complex(nd["point"][0]),
                          jsonio.encode_complex(nd["point"][1])],
                "branches": [list(map(int, c)) for c in nd["branches"]],
                "charges": [jsonio.encode_complex_array(row)
                            for row in nd["charges"]],
            } for nd in self.nodes],
            "spurious": [[jsonio.encode_complex(h), jsonio.encode_complex(x)]
                         for h, x in self.spurious],
            "family_generic": list(self.family_generic),
            "partition_unique": self.partition_unique,
            "isomorphism_class": self.isomorphism_class,
            "tau_res": self.tau_res,
            "notes": list(self.notes),
        }


def classify_and_partition(reports: list,
                           tau_factor: float = 1e-4) -> NodeInventory:
    """Classify branches, infer the node partition and check genericity.

    A branch is a node branch iff some residue exceeds tau_res; the node
    grouping is the finest zero-sum partition of the residues per image
    point, cross-checked across the three potentials.
    """
    all_res = [abs(r) for rep in reports for b in rep.branches for r in b.residues]
    scale = max(all_res) if all_res else 1.0
    # the absolute floor keeps pure-noise residues of spurious points from
    # masquerading as charges
    tau_res = max(tau_factor * scale, 1e-6)

    points, nodes, spurious, notes = [], [], [], []
    groups_per_ell: dict[int, list] = {0: [], 1: [], 2: []}
    unique_all = True
    for rep in reports:
        points.append(rep.point)
        node_branches = []
        for b in rep.branches:
            if np.max(np.abs(b.residues)) > tau_res:
                b.classification = "node-branch"
                node_branches.append(b)
            else:
                b.classification = "spurious"
            if b.energy_verdicts:
                energy_says_node = any(v == "divergent" for v in b.energy_verdicts)
                if energy_says_node != (b.classification == "node-branch"):
                    notes.append(f"diagnostics disagree at {rep.point} cycle "
                                 f"{b.cycle}: residues say {b.classification}, "
                                 f"energy says {b.energy_verdicts}")
        if not node_branches:
            spurious.append(rep.point)
            continue

        partitions_by_ell = {}
        for ell in range(3):
            vals = [b.residues[ell] for b in node_branches]
            detectable = [i for i, v in enumerate(vals) if abs(v) > tau_res]
            if len(detectable) != len(vals):
                notes.append(f"zero-charge branches for potential {ell} at "
                             f"{rep.point}: undetectable by this potential")
            parts, unique = finest_zero_sum_partition(
                [vals[i] for i in detectable], tol=tau_res)
            mapped = [tuple(sorted(detectable[i] for i in grp)) for grp in parts[0]]
            partitions_by_ell[ell] = (sorted(mapped), unique, parts)
            unique_all = unique_all and unique

        base = None
        for ell, (mapped, unique, parts) in partitions_by_ell.items():
            if base is None:
                base = mapped
            elif mapped != base:
                raise PartitionError(
                    f"inconsistent partitions across potentials at {rep.point}: "
                    f"{base} vs {mapped}")
        for grp in base:
            charges = np.array([[node_branches[i].residues[ell] for i in grp]
                                for ell in range(3)])
            nodes.append({
                "point": rep.point,
                "branches": [node_branches[i].cycle for i in grp],
                "charges": charges,
            })
            for ell in range(3):
                groups_per_ell[ell].append(charges[ell])

    family_generic = []
    for ell in range(3):
        groups = groups_per_ell[ell]
        if not groups:
            family_generic.append(False)
            continue
        centered = tuple(np.asarray(g) - np.mean(g) for g in groups)
        try:
            from .model import AdmissibleFamily
            ok, _ = is_generic_family(AdmissibleFamily(centered), tol=1e-6)
        except Exception:
            ok = False
        family_generic.append(bool(ok))

    iso = "full" if (any(family_generic) and unique_all and nodes) else "rough"
    return NodeInventory(points, nodes, spurious, family_generic, unique_all,
                         iso, tau_res, notes)
