"""Command-line pipelines: forward, invert, residues, characterize, compact.

All inputs and outputs are UTF-8 JSON with schema-version fields.  Each
command runs straight through; ``main`` maps the engine error that ends it
to an exit code by FAILURES.  Outputs are byte-deterministic for identical
configs (fixed summation order, fixed seeds).
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .characterize import (DEFAULT_THRESHOLDS, PROBE_COUNT, PROBE_SEED,
                           CharacterizationError, characterize)
from .dirichlet import DNDatum, Prescription, build_dn_datum
from .errors import (ConfigError, FiberError, ModelError, MomentError,
                     NodalIdnError, PartitionError, SolveError)
from .model import AdmissibleFamily, BoundaryCurve, DiskDomain, NodalDomainModel
from .moments import (WINDOW_GRID_N, MomentEngine, ReconstructedCurve,
                      WindowPlan, sweep_windows)
from .nodes import (DEFAULT_CONTOUR_RADIUS, analyze_singular_point,
                    classify_and_partition, locate_singularities)


EXIT_CHARACTERIZATION = 5
# (error kinds, exit code, stderr label), first match wins: ConfigError is
# a ModelError, MonodromyError a FiberError
FAILURES = (
    (ConfigError, 2, "bad config: "),
    ((ModelError, SolveError), 2, "bad datum: "),
    ((FiberError, MomentError), 3, ""),
    (PartitionError, 4, ""),
    (CharacterizationError, EXIT_CHARACTERIZATION, ""),
)


@dataclass
class PipelineConfig:
    doc: dict
    out: str | None
    base_dir: str

    def path(self, key: str, default=None) -> str:
        """A file name of the config, resolved against the config dir."""
        value = self.doc.get(key, default)
        if not isinstance(value, str):
            raise ConfigError(f"{key} must name a file, not {value!r}")
        return value if os.path.isabs(value) else os.path.join(self.base_dir, value)


def _positive(value, key: str) -> float:
    """A config value that must be a finite positive number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not 0 < value < np.inf:
        raise ConfigError(f"{key} must be a finite positive number, "
                          f"not {value!r}")
    return float(value)


def _integer(value, key: str, least: int) -> int:
    """A config value that must be an integer of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{key} must be an integer of at least {least}, "
                          f"not {value!r}")
    return value


def _complex_list(value, key: str, count: int | None = None) -> np.ndarray:
    """A config value that must be a list of ``count`` complex numbers, or
    of one or more without ``count``."""
    try:
        values = jsonio.decode_complex_array(value)
    except ModelError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    if values.size == 0 or count is not None and values.size != count:
        raise ConfigError(f"{key} must be a list of {count or 'one or more'} "
                          f"complex numbers, not {value!r}")
    return values


def _decode_plan(value) -> WindowPlan:
    """The window plan: an object with a list of complex ``centers``, a
    finite positive ``radius`` and an integer ``grid_n`` of at least 2
    (WINDOW_GRID_N if absent).  ``max_order`` is gone and read only as null."""
    if not isinstance(value, dict):
        raise ConfigError("windows must be an object with centers and radius")
    if value.get("max_order") is not None:
        raise ConfigError("windows.max_order is no longer supported")
    centers = _complex_list(value.get("centers"), "windows centers")
    return WindowPlan(list(centers),
                      _positive(value.get("radius"), "windows radius"),
                      _integer(value.get("grid_n", WINDOW_GRID_N), "windows grid_n",
                               2))


def _decode_prescription(doc: dict) -> Prescription:
    return Prescription(
        poles=tuple(jsonio.decode_complex_array(doc.get("poles", []))),
        residues=tuple(jsonio.decode_complex_array(doc.get("residues", []))),
        poly=tuple(jsonio.decode_complex_array(doc.get("poly", [0.0]))),
    )


def _entries(value, key: str, kind: type) -> list:
    """A forward config value that must be a list of lists or of objects
    (``kind``); empty if absent."""
    value = value or []
    if not isinstance(value, list) or not all(isinstance(v, kind) for v in value):
        raise ConfigError(f"{key} must be a list of "
                          f"{'objects' if kind is dict else 'lists'}")
    return value


def _decode_families(items) -> tuple | None:
    return tuple(AdmissibleFamily.from_json(f) if f else AdmissibleFamily(())
                 for f in _entries(items, "families", list)) or None


def cmd_forward(cfg: PipelineConfig) -> int:
    model = NodalDomainModel.from_json(jsonio.load(cfg.path("model")))
    families = _decode_families(cfg.doc.get("families"))
    boundary = tuple(jsonio.decode_complex_array(r) for r in _entries(
        cfg.doc.get("boundary_values"), "boundary_values", list))
    prescriptions = tuple(_decode_prescription(p) for p in _entries(
        cfg.doc.get("prescriptions"), "prescriptions", dict)) or None
    datum = build_dn_datum(model, families, boundary, prescriptions)
    jsonio.dump(datum.to_json(), cfg.out or "datum.json")
    return 0


def cmd_invert(cfg: PipelineConfig) -> int:
    datum = DNDatum.from_json(jsonio.load(cfg.path("datum")))
    plan = _decode_plan(cfg.doc.get("windows"))
    engine = MomentEngine.from_datum(datum)
    curve = sweep_windows(engine, plan)
    out = cfg.out or "curve.json"
    jsonio.dump(curve.to_json(), out)
    report_lines = [f"windows analyzed: {len(curve.windows)}"]
    for w in curve.windows:
        line = (f"window center {w.center:.6g} radius {w.radius:.6g}: "
                f"p={w.p}, min sheet separation "
                f"{w.min_root_separation:.3e}")
        if w.relocated_from is not None:
            line += f" [re-centered from {w.relocated_from:.6g}]"
        report_lines.append(line)
    for center, msg in curve.failures:
        report_lines.append(f"window at {center:.6g} failed: {msg}")
    for k, sigma in enumerate(curve.permutations):
        report_lines.append(f"stitch {k}->{k + 1}: sheet map "
                            f"{list(map(int, sigma))}")
    report_lines.extend(curve.notes)
    report_lines.append(f"self-consistency residual: "
                        f"{_self_consistency(engine, curve):.3e}")
    with open(out + ".report.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(report_lines) + "\n")
    return 0


def _self_consistency(engine: MomentEngine, curve: ReconstructedCurve) -> float:
    """Max power-sum defect of the recovered fibers against fresh moments:
    one kernel call per window, as in its sweep, one defect per sheet count."""
    worst = 0.0
    for p in {w.p for w in curve.windows} - {0}:
        group = [w for w in curve.windows if w.p == p]
        sums = np.hstack([engine.moments(range(1, p + 1), w.grid)
                          for w in group])
        roots = np.vstack([w.roots for w in group])
        for m in range(1, p + 1):
            got = np.sum(roots ** m, axis=1)
            worst = max(worst, float(np.max(np.abs(got - sums[m - 1]))))
    return worst


def cmd_residues(cfg: PipelineConfig) -> int:
    datum = DNDatum.from_json(jsonio.load(cfg.path("datum")))
    curve = ReconstructedCurve.from_json(jsonio.load(cfg.path("curve")))
    radius = _positive(cfg.doc.get("contour_radius", DEFAULT_CONTOUR_RADIUS),
                       "contour_radius")
    inventory = _node_inventory(curve, MomentEngine.from_datum(datum), radius)
    jsonio.dump(inventory.to_json(), cfg.out or "nodes.json")
    return 0


def _node_inventory(curve: ReconstructedCurve, engine: MomentEngine,
                    radius: float):
    """Candidates, their contour reports and the classified inventory."""
    candidates = locate_singularities(curve, engine)
    reports = analyze_singular_point(engine, curve, candidates,
                                     contour_radius=radius)
    return classify_and_partition(reports)


def _decode_thresholds(value) -> dict | None:
    """The characterize thresholds: absent, or an object whose keys are
    among DEFAULT_THRESHOLDS, each a finite positive number."""
    if value is None:
        return None
    if not isinstance(value, dict):
        raise ConfigError("thresholds must be an object with keys among "
                          "shock, green")
    for key, limit in value.items():
        if key not in DEFAULT_THRESHOLDS:
            raise ConfigError(f"unknown threshold {key!r}: expected shock "
                              "or green")
        _positive(limit, f"threshold {key!r}")
    return value


def _decode_window(value) -> tuple:
    """The characterize window: an object whose center is a list of two
    complex numbers and whose extent is a finite positive number."""
    if not isinstance(value, dict):
        raise ConfigError("window must be an object with keys center and "
                          "extent")
    center = value.get("center")
    if not isinstance(center, list) or len(center) != 2:
        raise ConfigError("window center must be a list of two complex "
                          f"numbers, not {center!r}")
    try:
        center = tuple(jsonio.decode_complex(c) for c in center)
    except ModelError as exc:
        raise ConfigError(f"window center: {exc}") from None
    return center, _positive(value.get("extent"), "window extent")


def _decode_candidates(value) -> tuple:
    """The characterize candidates: absent, or an object with the candidate
    points and their charges, one row per potential and one charge per
    point.  Returns (points, charges), both None when absent."""
    if not value:
        return None, None
    if not isinstance(value, dict) or not isinstance(value.get("charges"), list):
        raise ConfigError("candidates must be an object with points and "
                          "charges")
    try:
        points = jsonio.decode_complex_array(value.get("points"))
        rows = [jsonio.decode_complex_array(r) for r in value["charges"]]
    except ModelError as exc:
        raise ConfigError(f"candidates: {exc}") from None
    if len(rows) != 3 or any(r.shape != points.shape for r in rows):
        raise ConfigError(f"candidates need 3 rows of {points.size} charges, "
                          "one per potential")
    return points, np.vstack(rows)


def cmd_characterize(cfg: PipelineConfig) -> int:
    datum = DNDatum.from_json(jsonio.load(cfg.path("datum")))
    center, extent = _decode_window(cfg.doc.get("window"))
    thresholds = _decode_thresholds(cfg.doc.get("thresholds"))
    probes = _integer(cfg.doc.get("probes", PROBE_COUNT), "probes", 1)
    seed = _integer(cfg.doc.get("seed", PROBE_SEED), "seed", 0)
    points, charges = _decode_candidates(cfg.doc.get("candidates"))
    report = characterize(datum, center, extent, points, charges,
                          probe_count=probes, seed=seed, thresholds=thresholds)
    jsonio.dump(report.to_json(), cfg.out or "caract.json")
    return 0 if report.passed else EXIT_CHARACTERIZATION


def _compact_potentials(cfg_doc: dict):
    """Closed-form boundary data of the compact scenario on gamma = bS: a
    disk of finite positive radius ``rho`` sampled at an integer ``n`` >= 4
    points (512 if absent), with one charge, one pair of poles and a list
    of auxiliary [pole, residue] pairs per potential."""
    rho = _positive(cfg_doc.get("rho"), "rho")
    n = _integer(cfg_doc.get("n", 512), "n", 4)
    margin = 0.05 * rho
    charges = _complex_list(cfg_doc.get("charges"), "charges", 3)
    poles = cfg_doc.get("poles")
    if not isinstance(poles, list) or len(poles) != 3:
        raise ConfigError("poles must be a list of 3 pairs of complex "
                          f"numbers, one per potential, not {poles!r}")
    poles = [_complex_list(pair, "poles", 2) for pair in poles]
    aux = cfg_doc.get("aux") or [[], [], []]
    if not (isinstance(aux, list) and len(aux) == 3
            and all(isinstance(row, list) for row in aux)):
        raise ConfigError("aux must be a list of 3 lists of [pole, residue] "
                          f"pairs, one per potential, not {aux!r}")
    # as Python complex numbers, whose division rounds unlike numpy's
    aux = [[tuple(map(complex, _complex_list(item, "aux", 2))) for item in row]
           for row in aux]
    curve = BoundaryCurve.circle(rho, n)
    z = curve.positions

    def log_pole_potential(point: complex, residue: complex) -> np.ndarray:
        """Boundary samples of 2*Re(residue * log(z - point)), taking the
        branch whose cut points away from the disk."""
        phat = point / abs(point)
        log_branch = np.log(np.abs(z - point)) \
            + 1j * np.angle((z - point) * np.conj(-phat)) \
            + 1j * np.angle(-phat)
        return 2 * (residue * log_branch).real

    us, prescriptions = [], []
    for ell in range(3):
        aminus, aplus = poles[ell]
        for a in (aminus, aplus):
            if abs(a) <= rho + margin:
                raise ModelError(f"charge point {a} is not inside the "
                                 "measurement subdomain")
        c = charges[ell]
        u = log_pole_potential(aplus, c) + log_pole_potential(aminus, -c)
        w_poles = [aplus, aminus]
        w_res = [c, -c]
        for p, kappa in aux[ell]:
            if abs(p) <= rho + margin:
                raise ModelError(f"auxiliary pole {p} is not inside the "
                                 "measurement subdomain")
            u = u + log_pole_potential(p, kappa)
            w_poles.append(p)
            w_res.append(kappa)
        us.append(u.astype(complex))
        prescriptions.append(Prescription(poles=tuple(w_poles),
                                          residues=tuple(w_res)))
    model = NodalDomainModel(DiskDomain(rho), curve)
    return model, tuple(us), tuple(prescriptions)


def cmd_compact(cfg: PipelineConfig) -> int:
    doc = cfg.doc
    prefix = cfg.out or cfg.path("out_prefix", "compact")
    plan = _decode_plan(doc.get("windows"))
    radius = _positive(doc.get("contour_radius", DEFAULT_CONTOUR_RADIUS),
                       "contour_radius")
    model, us, prescriptions = _compact_potentials(doc)
    datum = build_dn_datum(model, None, us, prescriptions)
    jsonio.dump(datum.to_json(), f"{prefix}.datum.json")
    engine = MomentEngine.from_datum(datum)
    curve = sweep_windows(engine, plan)
    jsonio.dump(curve.to_json(), f"{prefix}.curve.json")
    inventory = _node_inventory(curve, engine, radius)
    jsonio.dump(inventory.to_json(), f"{prefix}.nodes.json")
    summary = {
        "schema": "nodal-idn/compact/1",
        "windows": len(curve.windows),
        "sheet_counts": [w.p for w in curve.windows],
        "singular_points": len(inventory.points),
        "recovered_nodes": len(inventory.nodes),
        "spurious_points": len(inventory.spurious),
    }
    jsonio.dump(summary, f"{prefix}.report.json")
    return 0


COMMANDS = {
    "forward": cmd_forward,
    "invert": cmd_invert,
    "residues": cmd_residues,
    "characterize": cmd_characterize,
    "compact": cmd_compact,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nodal-idn",
        description="Forward/inverse Dirichlet-to-Neumann engine for nodal curves")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        doc = jsonio.load(args.config)
    except (OSError, ValueError) as exc:
        print(f"nodal-idn: cannot read config {args.config}: {exc}",
              file=sys.stderr)
        return 1
    base_dir = os.path.dirname(os.path.abspath(args.config))
    try:
        if not isinstance(doc, dict):
            raise ConfigError("the top level is not a JSON object")
        out = args.out
        if out is None and isinstance(doc.get("out"), str):
            out = doc["out"] if os.path.isabs(doc["out"]) \
                else os.path.join(base_dir, doc["out"])
        return COMMANDS[args.command](PipelineConfig(doc, out, base_dir))
    except NodalIdnError as exc:
        for kinds, code, label in FAILURES:
            if isinstance(exc, kinds):
                print(f"{args.command}: {label}{exc}", file=sys.stderr)
                return code
        raise
    except (OSError, ValueError, KeyError) as exc:
        print(f"nodal-idn: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
