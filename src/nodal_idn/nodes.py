"""Singularity analysis of the reconstructed curve.

Singular points lie over the zeros of the fiber discriminant
Delta(xi) = prod_(j<k) (h_j - h_k)^2: branch points (order 1 when simple)
and base points where local branches meet.  The argument principle counts
the zeros inside a circle and their power sums place them (Delves &
Lyness, Math. Comp. 1967).  Around each zero of order 2 or more a small
contour in the base coordinate is tracked; the monodromy permutation splits
the sheets into cycles, one per local irreducible branch, and cycles that
pass through one fiber point form a singular point.  A branch belongs to a
node exactly when some contour residue of a recovered form quotient is
nonzero, in which case that residue is the charge of the branch;
zero-residue branches are spurious intersections (or carry undetectable
zero charges).  A logarithmic-divergence test of the Dirichlet energy on
shrinking annuli gives a second, independent verdict.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .errors import MomentError, MonodromyError, ModelError, PartitionError
from .model import AdmissibleFamily, finest_zero_sum_partition, is_generic_family
from .moments import (MomentEngine, ReconstructedCurve, continue_fibers,
                      integral_sheet_count, match_rows, recover_form_quotient,
                      roots_from_power_sums)
from .spectral import fourier_derivative

NODES_SCHEMA = "nodal-idn/nodes/1"
DEFAULT_CONTOUR_RADIUS = 0.05
CONTOUR_NODES = 128
CENSUS_REACH = (3.0, 2.0, 1.0)  # census radii in window radii, tried in turn
CLUSTER_LINK = 0.1              # zeros closer than this share of the radius
SHEET_WALK_STEPS = 12           # steps from a window grid point to a contour
BRANCH_MEET = 1e-3              # relative distance at which branches meet
# energy test: annuli eps/2 < r < eps, eps = contour radius / 2^k, k up to
# ENERGY_HALVINGS, with ENERGY_RINGS rings each, on ENERGY_RAYS rays
ENERGY_HALVINGS = 4
ENERGY_RINGS = 4
ENERGY_RAYS = 64
TAU_FACTOR = 1e-4               # tau_res as a share of the largest residue


@dataclass
class SingularPointCandidate:
    """A base point over which the fiber discriminant has a zero of order
    at least 2, where local branches may meet."""

    xi: complex
    order: int
    window_index: int


def discriminant(engine: MomentEngine, p: int, xi) -> np.ndarray:
    """Delta(xi) = det[S_(i+j)]_(i,j<p) = prod_(j<k) (h_j - h_k)^2 of the
    p-sheet fiber at every xi, with S_0 = p; MomentError unless M_0 is p.
    Orders up to 2p, as fiber tracking asks, keep one disc for both."""
    sums = engine.moments(range(2 * p + 1), xi)
    if integral_sheet_count(sums[0]) != p:
        raise MomentError(f"sheet count is not {p} on the census circle")
    sums[0] = p
    index = np.add.outer(np.arange(p), np.arange(p))
    return np.linalg.det(np.moveaxis(sums[index], -1, 0))


def zero_census(engine: MomentEngine, p: int, center: complex, radius: float):
    """(n, sums): the count n of discriminant zeros inside the circle and
    the power sums of (zero - center) / radius for orders 1..n, by the
    argument principle with Delta' by FFT along the circle.  None where the
    engine refuses a point, |Delta| dips below 1e-8 of its maximum (a zero
    near the circle) or the count is not an integer to 1e-6."""
    k = CONTOUR_NODES
    phase = np.exp(2j * np.pi * np.arange(k) / k)
    try:
        delta = discriminant(engine, p, center + radius * phase)
    except MomentError:
        return None
    size = np.abs(delta)
    if np.min(size) <= 1e-8 * np.max(size):
        return None
    # dDelta/dt / Delta dt = Delta'/Delta dxi along xi = center + radius e^it
    weights = fourier_derivative(delta) / delta / (1j * k)
    count = np.sum(weights)
    n = int(np.rint(count.real))
    if abs(count - n) > 1e-6:
        return None
    return n, np.array([np.sum(weights * phase ** m) for m in range(1, n + 1)])


def locate_singularities(curve: ReconstructedCurve,
                         engine: MomentEngine) -> list[SingularPointCandidate]:
    """The discriminant zeros of order 2 or more about every window with
    two or more sheets, each kept once.  A window's census is taken on the
    circles of CENSUS_REACH window radii in turn until one is certified;
    a window that no radius certifies is skipped."""
    candidates: list[SingularPointCandidate] = []
    for widx, window in enumerate(curve.windows):
        if window.p < 2:
            continue
        for reach in CENSUS_REACH:
            zeros = _certified_zeros(engine, window.p, window.center,
                                     reach * window.radius)
            if zeros is not None:
                break
        else:
            continue
        for xi, order in zeros:
            if order >= 2 and all(abs(xi - c.xi) > 1e-6 * max(1.0, abs(xi))
                                  for c in candidates):
                candidates.append(SingularPointCandidate(xi, order, widx))
    return candidates


def _certified_zeros(engine: MomentEngine, p: int, center: complex,
                     radius: float):
    """(xi, order) of each cluster of discriminant zeros inside the
    circle, or None unless certified.  The census' zeros are split by
    single linkage at CLUSTER_LINK radii; a census about each centroid, of
    radius half the gap to the nearest other one and at most half the
    circle's, must count the cluster's size, so the orders account for
    every zero inside.  It also refines the centroid."""
    census = zero_census(engine, p, center, radius)
    if census is None:
        return None
    if census[0] == 0:
        return []
    zeros = center + radius * roots_from_power_sums(census[1],
                                                    clustered=True)
    clusters = _single_linkage(zeros, CLUSTER_LINK * radius)
    centroids = np.array([np.mean(zeros[members]) for members in clusters])
    found = []
    for i, members in enumerate(clusters):
        gaps = np.abs(np.delete(centroids, i) - centroids[i])
        rho = min(0.5 * radius, 0.5 * float(np.min(gaps, initial=np.inf)))
        local = zero_census(engine, p, centroids[i], rho)
        if local is None or local[0] != len(members):
            return None
        found.append((complex(centroids[i] + rho * local[1][0] / len(members)),
                      len(members)))
    return found


def _single_linkage(points: np.ndarray, reach: float) -> list:
    """Index arrays of the clusters of points joined by chains of steps of
    at most reach, in the order of their first members."""
    linked = np.abs(points[:, None] - points[None, :]) <= reach
    label = np.arange(points.size)
    while True:   # each point takes the smallest label within reach
        merged = np.min(np.where(linked, label, points.size), axis=1)
        if np.array_equal(merged, label):
            return [np.flatnonzero(label == lab)
                    for lab in sorted(set(label.tolist()))]
        label = merged


def _sheet_values_at(engine: MomentEngine, windows: list, xi) -> np.ndarray:
    """All sheets of windows[b] at xi[b], continued from the window's grid
    point nearest to xi[b]; the walks of every b advance together (the
    windows share one sheet count).  Returns (B, p)."""
    xi = np.asarray(xi, dtype=complex)
    nearest = [int(np.argmin(np.abs(w.grid - x))) for w, x in zip(windows, xi)]
    grid_xi = np.array([w.grid[k] for w, k in zip(windows, nearest)])
    grid_roots = np.array([w.roots[k] for w, k in zip(windows, nearest)])
    fraction = np.arange(1, SHEET_WALK_STEPS + 1) / SHEET_WALK_STEPS
    walks = grid_xi[:, None] + (xi - grid_xi)[:, None] * fraction
    return continue_fibers(engine, windows[0].p, walks, grid_xi, grid_roots)[:, -1]


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
                         seed_roots: np.ndarray) -> list:
    """Track all fibers once around the contour of every center, together,
    and decompose each monodromy.

    ``seed_roots[b]`` are the roots at centers[b] + radius, where contour b
    starts.  Returns one BranchContour per center.
    """
    centers = np.atleast_1d(np.asarray(centers, dtype=complex))
    ang = 2 * np.pi * np.arange(CONTOUR_NODES + 1) / CONTOUR_NODES
    paths = centers[:, None] + radius * np.exp(1j * ang)
    tracks = continue_fibers(engine, p, paths, paths[:, 0],
                             np.reshape(seed_roots, (centers.size, p)))
    # sheet s ends where sheet perms[b, s] started
    perms, unsafe = match_rows(tracks[:, -1], tracks[:, 0])
    if unsafe.any():
        raise MonodromyError("monodromy: sheet tracking did not close into a "
                             "permutation; branch point too close to contour")
    return [BranchContour(complex(center), radius, ang, rows, perm,
                          _permutation_cycles(perm))
            for center, rows, perm in zip(centers, tracks, perms)]


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


def cycle_centre(contour: BranchContour, cycle: tuple) -> complex | None:
    """The point h_c of the center's fiber that the local branch of a
    monodromy cycle passes through, or None if it meets several.

    The cycle's power sums are single-valued on the punctured disk and
    bounded, so their mean over the contour is their value at the center;
    h_c = S_1 / k, and the branch passes through it iff every root of that
    local polynomial is within BRANCH_MEET * max(1, |h_c|) of it.
    """
    vals = contour.roots[:-1][:, list(cycle)]
    mean_sums = np.array([np.mean(np.sum(vals ** m, axis=1))
                          for m in range(1, len(cycle) + 1)])
    centre = mean_sums[0] / len(cycle)
    roots = roots_from_power_sums(mean_sums, clustered=True)
    if np.all(np.abs(roots - centre) < BRANCH_MEET * max(1.0, abs(centre))):
        return complex(centre)
    return None


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
                          cycles: list) -> list:
    """Energy of the recovered forms on shrinking annuli around the center.

    Returns an EnergyGrowthReport per (cycle, potential), from one tracking
    pass.  Logarithmically divergent totals (annulus contributions roughly
    constant) flag a charged node branch; decaying contributions flag a
    spurious branch.
    """
    p = contour.roots.shape[1]
    ang = 2 * np.pi * np.arange(ENERGY_RAYS) / ENERGY_RAYS
    # the contour node nearest in angle to each ring angle
    turn = (contour.angles[None, :-1] - ang[:, None] + np.pi) % (2 * np.pi)
    ref_roots = contour.roots[np.argmin(np.abs(turn - np.pi), axis=1)]
    # ENERGY_RINGS rings in each annulus eps / 2 < r < eps, eps = radius /
    # 2^k, outermost first; each angle's path runs from the contour through
    # one point on each ring, whose form quotients are the ones solved
    eps = contour.radius / 2.0 ** np.arange(ENERGY_HALVINGS + 1)[:, None]
    radii = (eps / 2.0 + (eps / 2.0) * (np.arange(ENERGY_RINGS) + 0.5)
             / ENERGY_RINGS)[:, ::-1]
    rays = contour.center + radii.ravel() * np.exp(1j * ang)[:, None]
    start = contour.center + contour.radius * np.exp(1j * ang)
    tracks = continue_fibers(engine, p, rays, start, ref_roots)
    g = recover_form_quotient(engine, rays.ravel(), tracks.reshape(-1, p))
    power = np.abs(g.reshape(3, ENERGY_RAYS, radii.size, p)) ** 2
    weight = radii * ((eps / 2.0) / ENERGY_RINGS) * (2 * np.pi / ENERGY_RAYS)
    # per cycle, potential and ring, then over the rings of each annulus
    contributions = np.array([np.sum(np.sum(
        power[..., list(cyc)], axis=(1, 3)).reshape((3,) + radii.shape)
        * weight, axis=2) for cyc in cycles])
    out = []
    for ci in range(len(cycles)):
        per_ell = []
        for ell in range(3):
            contr = contributions[ci, ell].tolist()
            ratios = [contr[k + 1] / contr[k] if contr[k] > 0 else 0.0
                      for k in range(ENERGY_HALVINGS)]
            if 0.8 <= ratios[-1] <= 1.25:
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


@dataclass
class SingularPointReport:
    h: complex
    xi: complex
    branches: list

    @property
    def point(self) -> tuple:
        return (self.h, self.xi)


def analyze_singular_point(engine: MomentEngine, curve: ReconstructedCurve,
                           candidates: list,
                           contour_radius: float = DEFAULT_CONTOUR_RADIUS) -> list:
    """Track a contour around each candidate and measure branch residues.

    A contour must enclose exactly the candidate's discriminant zeros, or
    its monodromy would mix in other singular fibers.  The contours of all
    candidates whose windows share a sheet count are tracked together.
    Returns one SingularPointReport per point where two or more local
    branches meet, candidate by candidate.
    """
    by_sheets: dict[int, list] = {}
    for i, candidate in enumerate(candidates):
        p = curve.windows[candidate.window_index].p
        census = zero_census(engine, p, candidate.xi, contour_radius)
        if census is None or census[0] != candidate.order:
            raise MonodromyError(
                f"contour of radius {contour_radius:g} about {candidate.xi:.6g} "
                f"does not enclose exactly the {candidate.order} discriminant "
                "zeros there: change contour_radius")
        by_sheets.setdefault(p, []).append(i)
    contours = [None] * len(candidates)
    for p, members in by_sheets.items():
        windows = [curve.windows[candidates[i].window_index] for i in members]
        centers = np.array([candidates[i].xi for i in members])
        start = _sheet_values_at(engine, windows, centers + contour_radius)
        tracked = track_branch_contour(engine, p, centers, contour_radius, start)
        for i, contour in zip(members, tracked):
            contours[i] = contour
    return [report for contour in contours
            for report in _point_reports(engine, contour)]


def _point_reports(engine: MomentEngine, contour: BranchContour) -> list:
    """A SingularPointReport for each point of the center's fiber that two
    or more cycles of the contour pass through, at the mean of their
    centres, with the residues and energy verdicts of those cycles."""
    groups: list = []           # (centres, cycles) through one point each
    for cyc in contour.cycles:
        centre = cycle_centre(contour, cyc)
        if centre is None:
            continue
        group = next((g for g in groups if abs(centre - g[0][0])
                      < BRANCH_MEET * max(1.0, abs(centre))), None)
        if group is None:
            group = ([], [])
            groups.append(group)
        group[0].append(centre)
        group[1].append(cyc)
    reports = []
    for centres, cycles in groups:
        if len(cycles) < 2:
            continue
        energy = energy_growth_reports(engine, contour, cycles)
        residues = branch_residues(engine, contour, cycles)
        branches = [BranchReport(cyc, residues[ci], energy_verdicts=[
                        e.verdict for e in energy[ci]])
                    for ci, cyc in enumerate(cycles)]
        reports.append(SingularPointReport(complex(np.mean(centres)),
                                           contour.center, branches))
    return reports


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


def classify_and_partition(reports: list) -> NodeInventory:
    """Classify branches, infer the node partition and check genericity.

    A branch is a node branch iff some residue exceeds tau_res; the node
    grouping is the finest zero-sum partition of the residues per image
    point, cross-checked across the three potentials.
    """
    all_res = [abs(r) for rep in reports for b in rep.branches for r in b.residues]
    scale = max(all_res) if all_res else 1.0
    # the absolute floor keeps pure-noise residues of spurious points from
    # masquerading as charges
    tau_res = max(TAU_FACTOR * scale, 1e-6)

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
            ok, _ = is_generic_family(AdmissibleFamily(centered), tol=1e-6)
        except ModelError:      # more than MAX_GENERIC_POINTS points
            ok = False
        family_generic.append(bool(ok))

    iso = "full" if (any(family_generic) and unique_all and nodes) else "rough"
    return NodeInventory(points, nodes, spurious, family_generic, unique_all,
                         iso, tau_res, notes)
