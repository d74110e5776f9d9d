"""Model domains, nodal identifications, charge families and genericity.

A nodal model is a planar domain (disk or annulus) together with groups of
identified interior points and complex charges that sum to zero per group.
Genericity and partition inference are exact exhaustive searches with hard
size caps; node counts in practice are tiny.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .errors import ModelError, PartitionError
from .spectral import parameter_grid

MODEL_SCHEMA = "nodal-idn/model/1"
MAX_GENERIC_POINTS = 20
MAX_PARTITION_POINTS = 16
INTERIOR_MARGIN = 0.05
# smallest grid cell relative to the coordinate scale: cell indices stay
# below 2^40, where x / h resolves a cell to 2^-13
GRID_FLOOR = 2.0 ** -40
PAIR_CHUNK = 1 << 16


@dataclass(frozen=True)
class BoundaryCurve:
    """Closed oriented curve sampled at t_k = 2*pi*k/N with derivatives."""

    positions: np.ndarray
    derivatives: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=complex)
        der = np.asarray(self.derivatives, dtype=complex)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "derivatives", der)
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(der))):
            raise ModelError("curve samples must be finite")
        n = pos.size
        if n < 4 or n % 2 != 0:
            raise ModelError("sample count must be a positive even integer >= 4")
        if der.size != n:
            raise ModelError("positions and derivatives must have equal length")
        if np.min(np.abs(der)) == 0.0:
            raise ModelError("curve derivative vanishes at a sample")
        ordered = pos[np.lexsort((pos.imag, pos.real))]
        if np.any(ordered[1:] == ordered[:-1]):
            raise ModelError("curve samples are not pairwise distinct")
        if _polygon_self_intersects(pos):
            raise ModelError("polygonal closure of the samples self-intersects")

    @property
    def n(self) -> int:
        return self.positions.size

    @property
    def unit_tangent(self) -> np.ndarray:
        return self.derivatives / np.abs(self.derivatives)

    @property
    def outward_normal(self) -> np.ndarray:
        # (normal, tangent) is a positively oriented frame with the domain
        # on the left of the travel direction.
        return -1j * self.unit_tangent

    def reversed(self) -> "BoundaryCurve":
        """Same geometric curve with the opposite orientation."""
        idx = (-np.arange(self.n)) % self.n
        return BoundaryCurve(self.positions[idx], -self.derivatives[idx])

    def distance_to(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        return np.min(np.abs(z[..., None] - self.positions), axis=-1)

    @staticmethod
    def circle(radius: float, n: int, center: complex = 0.0,
               orientation: int = 1) -> "BoundaryCurve":
        t = parameter_grid(n)
        if orientation == 1:
            pos = center + radius * np.exp(1j * t)
            der = 1j * radius * np.exp(1j * t)
        else:
            pos = center + radius * np.exp(-1j * t)
            der = -1j * radius * np.exp(-1j * t)
        return BoundaryCurve(pos, der)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "positions": jsonio.encode_complex_array(self.positions),
            "derivatives": jsonio.encode_complex_array(self.derivatives),
        }

    @staticmethod
    def from_json(doc) -> "BoundaryCurve":
        """The curve of a file; a former ``orientation`` key is ignored."""
        if not (isinstance(doc, dict) and "positions" in doc
                and "derivatives" in doc):
            raise ModelError("a curve must be an object with positions and "
                             "derivatives")
        return BoundaryCurve(jsonio.decode_complex_array(doc["positions"]),
                             jsonio.decode_complex_array(doc["derivatives"]))


def grid_pairs(x0, x1, y0, y1):
    """Pairs of items whose integer cell ranges [x0, x1] x [y0, y1] share a cell.

    Each item registers in every cell of its range; the registrations are
    sorted by cell and each run of one cell is paired off.  Yields (i, j)
    index arrays in batches of at most PAIR_CHUNK pairs plus the partners of
    one registration, so memory stays linear even when one cell holds every
    item.  A pair sharing several cells comes once per cell.
    """
    nx = x1 - x0 + 1
    reps = nx * (y1 - y0 + 1)
    item = np.repeat(np.arange(reps.size), reps)
    k = np.arange(item.size) - np.repeat(np.cumsum(reps) - reps, reps)
    cx = x0[item] + k % nx[item]
    cy = y0[item] + k // nx[item]
    order = np.lexsort((cy, cx))
    item, cx, cy = item[order], cx[order], cy[order]
    start = np.flatnonzero(np.r_[True, (cx[1:] != cx[:-1]) | (cy[1:] != cy[:-1])])
    run_end = np.repeat(np.r_[start[1:], item.size], np.diff(np.r_[start, item.size]))
    # registration p pairs with every later one of its run
    later = run_end - np.arange(item.size) - 1
    total = np.cumsum(later)
    cuts = np.searchsorted(total, np.arange(PAIR_CHUNK, total[-1], PAIR_CHUNK))
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, item.size]):
        count = later[lo:hi]
        first = np.repeat(np.arange(lo, hi), count)
        step = np.arange(first.size) - np.repeat(np.cumsum(count) - count, count)
        yield item[first], item[first + 1 + step]


def grid_cell(x: np.ndarray, h: float) -> np.ndarray:
    """Cell index floor(x / h); monotone in x, so overlapping ranges share a
    cell under rounding.  Callers keep h >= GRID_FLOOR * max|x|."""
    return np.floor(x / h).astype(np.int64)


def _polygon_self_intersects(pos: np.ndarray) -> bool:
    """Proper crossing of two non-adjacent sides of the closed polygon.

    Only sides whose bounding boxes share a cell of a uniform grid are
    tested; the cell side is the largest side of any bounding box, so a box
    spans at most 2 cells per axis (3 under rounding).  Two sides that meet
    have overlapping boxes and so share a cell.
    """
    n = pos.size
    ax, ay = pos.real, pos.imag
    bx, by = np.roll(ax, -1), np.roll(ay, -1)
    lo_x, hi_x = np.minimum(ax, bx), np.maximum(ax, bx)
    lo_y, hi_y = np.minimum(ay, by), np.maximum(ay, by)
    h = max(float(np.max(hi_x - lo_x)), float(np.max(hi_y - lo_y)),
            GRID_FLOOR * float(np.max(np.abs(np.r_[ax, ay]))))
    if h == 0.0:
        return False    # every sample at the origin

    def cross(ox, oy, px, py, qx, qy):
        return (px - ox) * (qy - oy) - (py - oy) * (qx - ox)

    for i, j in grid_pairs(grid_cell(lo_x, h), grid_cell(hi_x, h),
                           grid_cell(lo_y, h), grid_cell(hi_y, h)):
        keep = ((i - j) % n > 1) & ((j - i) % n > 1)
        i, j = i[keep], j[keep]
        d1 = cross(ax[i], ay[i], bx[i], by[i], ax[j], ay[j])
        d2 = cross(ax[i], ay[i], bx[i], by[i], bx[j], by[j])
        d3 = cross(ax[j], ay[j], bx[j], by[j], ax[i], ay[i])
        d4 = cross(ax[j], ay[j], bx[j], by[j], bx[i], by[i])
        if np.any((d1 * d2 < 0) & (d3 * d4 < 0)):
            return True
    return False


@dataclass(frozen=True)
class DiskDomain:
    radius: float
    center: complex = 0.0 + 0.0j

    kind = "disk"

    def __post_init__(self):
        if not 0 < self.radius < np.inf:
            raise ModelError("disk radius must be finite and positive")

    outer_radius = property(lambda self: self.radius)   # its only circle

    def contains(self, z, margin: float = 0.0) -> np.ndarray:
        r = np.abs(np.asarray(z, dtype=complex) - self.center)
        return r < self.radius - margin

    def boundary(self, n: int) -> BoundaryCurve:
        return BoundaryCurve.circle(self.radius, n, self.center)

    def to_json(self) -> dict:
        return {"kind": "disk", "radius": self.radius,
                "center": jsonio.encode_complex(self.center)}


@dataclass(frozen=True)
class AnnulusDomain:
    inner_radius: float
    outer_radius: float
    center: complex = 0.0 + 0.0j

    kind = "annulus"

    def __post_init__(self):
        if not 0 < self.inner_radius < self.outer_radius < np.inf:
            raise ModelError("annulus radii must satisfy 0 < r < R < inf")

    def contains(self, z, margin: float = 0.0) -> np.ndarray:
        r = np.abs(np.asarray(z, dtype=complex) - self.center)
        return (r > self.inner_radius + margin) & (r < self.outer_radius - margin)

    def boundaries(self, n: int) -> tuple[BoundaryCurve, BoundaryCurve]:
        """Outer (ccw) and inner (cw) components, domain on the left of both."""
        outer = BoundaryCurve.circle(self.outer_radius, n, self.center, 1)
        inner = BoundaryCurve.circle(self.inner_radius, n, self.center, -1)
        return outer, inner

    def to_json(self) -> dict:
        return {"kind": "annulus", "inner_radius": self.inner_radius,
                "outer_radius": self.outer_radius,
                "center": jsonio.encode_complex(self.center)}


def domain_from_json(doc):
    kind = doc.get("kind") if isinstance(doc, dict) else None
    try:
        if kind == "disk":
            return DiskDomain(float(doc["radius"]),
                              jsonio.decode_complex(doc["center"]))
        if kind == "annulus":
            return AnnulusDomain(float(doc["inner_radius"]),
                                 float(doc["outer_radius"]),
                                 jsonio.decode_complex(doc["center"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"malformed {kind} domain: {exc}") from None
    raise ModelError(f"unknown domain kind {kind!r}")


@dataclass(frozen=True)
class AdmissibleFamily:
    """Per node group, complex charges summing to zero."""

    charges: tuple

    def __post_init__(self):
        groups = tuple(np.asarray(g, dtype=complex) for g in self.charges)
        object.__setattr__(self, "charges", groups)
        for g in groups:
            if g.size < 2:
                raise ModelError("each node group needs at least 2 charges")
            scale = np.max(np.abs(g))
            if scale == 0.0:
                continue
            if abs(np.sum(g)) > 1e-12 * scale:
                raise ModelError("charges within a node group must sum to zero")

    @property
    def group_sizes(self) -> tuple:
        return tuple(g.size for g in self.charges)

    @property
    def total_points(self) -> int:
        return sum(self.group_sizes)

    def flat(self) -> np.ndarray:
        return np.concatenate([g for g in self.charges]) if self.charges \
            else np.zeros(0, dtype=complex)

    def to_json(self) -> list:
        return [jsonio.encode_complex_array(g) for g in self.charges]

    @staticmethod
    def from_json(items) -> "AdmissibleFamily":
        return AdmissibleFamily(tuple(jsonio.decode_complex_array(g) for g in items))


@dataclass(frozen=True)
class NodalDomainModel:
    """Planar model domain with identified interior points and charges."""

    domain: object
    boundary: BoundaryCurve
    node_groups: tuple = ()
    auxiliary_poles: tuple = field(default=())

    def __post_init__(self):
        groups = tuple(np.asarray(g, dtype=complex) for g in self.node_groups)
        object.__setattr__(self, "node_groups", groups)
        aux = tuple((complex(p), complex(r)) for p, r in self.auxiliary_poles)
        object.__setattr__(self, "auxiliary_poles", aux)
        margin = INTERIOR_MARGIN * self.domain.outer_radius
        for g in groups:
            if g.size < 2:
                raise ModelError("a node group must identify at least 2 points")
            if not np.all(self.domain.contains(g, margin=margin)):
                raise ModelError("node-group point too close to the boundary "
                                 "or outside the domain")
        points = np.sort(self.all_points())     # equal points are adjacent
        if np.any(points[1:] == points[:-1]):
            raise ModelError("node points must be distinct, within a group "
                             "and across groups")
        if aux:
            pts = np.array([p for p, _ in aux])
            res = np.array([r for _, r in aux])
            if not np.all(self.domain.contains(pts, margin=margin)):
                raise ModelError("auxiliary pole outside the domain interior")
            if abs(np.sum(res)) > 1e-12 * max(1.0, np.max(np.abs(res))):
                raise ModelError("auxiliary-pole residues must sum to zero")

    def check_family(self, family: AdmissibleFamily) -> None:
        if family.group_sizes != tuple(g.size for g in self.node_groups):
            raise ModelError("family group sizes do not match the node groups")

    def all_points(self) -> np.ndarray:
        if not self.node_groups:
            return np.zeros(0, dtype=complex)
        return np.concatenate(self.node_groups)

    def to_json(self) -> dict:
        return {
            "schema": MODEL_SCHEMA,
            "domain": self.domain.to_json(),
            "boundary": self.boundary.to_json(),
            "node_groups": [jsonio.encode_complex_array(g) for g in self.node_groups],
            "auxiliary_poles": [[jsonio.encode_complex(p), jsonio.encode_complex(r)]
                                for p, r in self.auxiliary_poles],
        }

    @staticmethod
    def from_json(doc: dict) -> "NodalDomainModel":
        jsonio.require_schema(doc, MODEL_SCHEMA)
        try:
            groups = tuple(jsonio.decode_complex_array(g)
                           for g in doc["node_groups"])
            aux = tuple((jsonio.decode_complex(p), jsonio.decode_complex(r))
                        for p, r in doc.get("auxiliary_poles", []))
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"malformed model: {exc}") from None
        return NodalDomainModel(domain_from_json(doc.get("domain")),
                                BoundaryCurve.from_json(doc.get("boundary")),
                                groups, aux)


def is_generic_family(family: AdmissibleFamily,
                      tol: float = 1e-12) -> tuple[bool, list | None]:
    """Exhaustively test the proper-subset-sum genericity condition.

    Returns (True, None) when every choice of proper subsets T_a of the
    groups, not all empty, has nonzero total charge sum; otherwise returns
    (False, witness) with one violating subset family (indices per group).
    """
    if family.total_points > MAX_GENERIC_POINTS:
        raise ModelError(f"more than {MAX_GENERIC_POINTS} identified points")
    scale = max(np.max(np.abs(g)) for g in family.charges) if family.charges else 1.0
    per_group = []
    for g in family.charges:
        options = []
        for r in range(g.size):  # proper subsets only: size < group size
            for combo in itertools.combinations(range(g.size), r):
                options.append((combo, complex(np.sum(g[list(combo)]))))
        per_group.append(options)
    for choice in itertools.product(*per_group):
        if all(len(c[0]) == 0 for c in choice):
            continue
        total = sum(c[1] for c in choice)
        if abs(total) <= tol * max(scale, 1e-300):
            return False, [list(c[0]) for c in choice]
    return True, None


def _zero_sum_masks(values: np.ndarray, tol: float) -> list[int]:
    """Bitmasks of all nonempty subsets with |sum| <= tol."""
    n = values.size
    sums = np.zeros(1 << n, dtype=complex)
    for mask in range(1, 1 << n):
        low = mask & (-mask)
        sums[mask] = sums[mask ^ low] + values[low.bit_length() - 1]
    return [m for m in range(1, 1 << n) if abs(sums[m]) <= tol]


def finest_zero_sum_partition(residues, tol: float | None = None):
    """Partition points into minimal nonempty zero-sum groups.

    ``residues`` is a sequence of values.  Returns (partitions, unique)
    where ``partitions`` is a list of partitions (each a list of index
    tuples) that consist solely of minimal zero-sum groups, and ``unique``
    is True when exactly one exists.  Each level of the recursion covers the
    lowest unused index with a distinct minimal group, so no partition is
    found twice.
    """
    values = np.asarray(residues, dtype=complex)
    n = values.size
    if n == 0:
        return [[]], True
    if n > MAX_PARTITION_POINTS:
        raise PartitionError(f"more than {MAX_PARTITION_POINTS} points")
    scale = float(np.max(np.abs(values)))
    if tol is None:
        tol = 1e-6 * max(scale, 1e-300)
    if abs(np.sum(values)) > max(tol * n, tol):
        raise PartitionError("not admissible within tolerance")
    zero_masks = set(_zero_sum_masks(values, tol))
    minimal = [m for m in zero_masks
               if not any(s != m and (s & m) == s for s in zero_masks)]

    partitions: list[list[int]] = []

    def extend(used: int, parts: list[int]):
        if used == (1 << n) - 1:
            partitions.append(sorted(parts))
            return
        rest = ~used & ((1 << n) - 1)
        low = rest & (-rest)
        for m in minimal:
            if (m & low) and not (m & used):
                extend(used | m, parts + [m])

    extend(0, [])
    if not partitions:
        raise PartitionError("not admissible within tolerance")
    as_indices = [[tuple(i for i in range(n) if mask >> i & 1) for mask in p]
                  for p in partitions]
    return as_indices, len(as_indices) == 1
