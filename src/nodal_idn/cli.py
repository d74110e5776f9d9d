"""Command-line pipelines: forward, invert, residues, characterize, compact.

All inputs and outputs are UTF-8 JSON with schema-version fields.  Exit
codes: 2 bad datum or config, 3 inversion failure, 4 cross-potential
inconsistency, 5 characterization failure.  Outputs are byte-deterministic
for identical configs (fixed summation order, fixed seeds).
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .characterize import CharacterizationError, characterize
from .dirichlet import DNDatum, Prescription, build_dn_datum
from .errors import (ConfigError, FiberError, ModelError, MomentError,
                     PartitionError, SolveError)
from .model import AdmissibleFamily, BoundaryCurve, DiskDomain, NodalDomainModel
from .moments import MomentEngine, ReconstructedCurve, WindowPlan, sweep_windows
from .nodes import (analyze_singular_point, classify_and_partition,
                    locate_singularities)

log = logging.getLogger("nodal_idn.cli")

EXIT_BAD_DATUM = 2
EXIT_INVERSION = 3
EXIT_INCONSISTENT = 4
EXIT_CHARACTERIZATION = 5
THRESHOLD_KEYS = ("shock", "green")


@dataclass
class PipelineConfig:
    command: str
    doc: dict
    out: str | None
    base_dir: str = "."

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
    finite positive ``radius`` and an integer ``grid_n`` of at least 2 (9
    if absent).  ``max_order`` is gone and read only as null."""
    if not isinstance(value, dict):
        raise ConfigError("windows must be an object with centers and radius")
    if value.get("max_order") is not None:
        raise ConfigError("windows.max_order is no longer supported")
    centers = _complex_list(value.get("centers"), "windows centers")
    return WindowPlan(list(centers),
                      _positive(value.get("radius"), "windows radius"),
                      _integer(value.get("grid_n", 9), "windows grid_n", 2))


def _decode_prescription(doc: dict) -> Prescription:
    return Prescription(
        poles=tuple(jsonio.decode_complex_array(doc.get("poles", []))),
        residues=tuple(jsonio.decode_complex_array(doc.get("residues", []))),
        poly=tuple(jsonio.decode_complex_array(doc.get("poly", [0.0]))),
    )


def _decode_families(items) -> tuple | None:
    if not items:
        return None
    return tuple(AdmissibleFamily.from_json(f) if f else AdmissibleFamily(())
                 for f in items)


def _decode_samples(rows) -> tuple:
    return tuple(jsonio.decode_complex_array(r) for r in rows)


def cmd_forward(cfg: PipelineConfig) -> int:
    model = NodalDomainModel.from_json(jsonio.load(cfg.path("model")))
    families = _decode_families(cfg.doc.get("families"))
    boundary = _decode_samples(cfg.doc.get("boundary_values") or [])
    prescriptions = None
    if cfg.doc.get("prescriptions"):
        prescriptions = tuple(_decode_prescription(p)
                              for p in cfg.doc["prescriptions"])
    try:
        datum = build_dn_datum(model, families, boundary_values=boundary,
                               prescriptions=prescriptions)
    except SolveError as exc:
        print(f"forward: bad datum: {exc}", file=sys.stderr)
        return EXIT_BAD_DATUM
    jsonio.dump(datum.to_json(), cfg.out or "datum.json")
    log.info("forward: wrote %s", cfg.out or "datum.json")
    return 0


def cmd_invert(cfg: PipelineConfig) -> int:
    datum = DNDatum.from_json(jsonio.load(cfg.path("datum")))
    plan = _decode_plan(cfg.doc.get("windows"))
    engine = MomentEngine.from_datum(datum)
    try:
        curve = sweep_windows(engine, plan)
    except (FiberError, MomentError) as exc:
        print(f"invert: {exc}", file=sys.stderr)
        return EXIT_INVERSION
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
    radius = _positive(cfg.doc.get("contour_radius", 0.05), "contour_radius")
    try:
        inventory = _node_inventory(curve, MomentEngine.from_datum(datum),
                                    radius)
    except (FiberError, MomentError) as exc:
        print(f"residues: contour tracking failed: {exc}", file=sys.stderr)
        return EXIT_INVERSION
    except PartitionError as exc:
        print(f"residues: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
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
    among THRESHOLD_KEYS, each a finite positive number."""
    if value is None:
        return None
    if not isinstance(value, dict):
        raise ConfigError("thresholds must be an object with keys among "
                          "shock, green")
    for key, limit in value.items():
        if key not in THRESHOLD_KEYS:
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
    probes = _integer(cfg.doc.get("probes", 20), "probes", 1)
    seed = _integer(cfg.doc.get("seed", 7), "seed", 0)
    points, charges = _decode_candidates(cfg.doc.get("candidates"))
    try:
        report = characterize(datum, center, extent, points, charges,
                              probe_count=probes, seed=seed,
                              thresholds=thresholds)
    except CharacterizationError as exc:
        print(f"characterize: {exc}", file=sys.stderr)
        return EXIT_CHARACTERIZATION
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
    radius = _positive(doc.get("contour_radius", 0.05), "contour_radius")
    try:
        model, us, prescriptions = _compact_potentials(doc)
        datum = build_dn_datum(model, None, boundary_values=us,
                               prescriptions=prescriptions)
    except SolveError as exc:
        print(f"compact: bad scenario: {exc}", file=sys.stderr)
        return EXIT_BAD_DATUM
    jsonio.dump(datum.to_json(), f"{prefix}.datum.json")
    engine = MomentEngine.from_datum(datum)
    try:
        curve = sweep_windows(engine, plan)
    except (FiberError, MomentError) as exc:
        print(f"compact: inversion failed: {exc}", file=sys.stderr)
        return EXIT_INVERSION
    jsonio.dump(curve.to_json(), f"{prefix}.curve.json")
    try:
        inventory = _node_inventory(curve, engine, radius)
    except (FiberError, MomentError) as exc:
        print(f"compact: contour tracking failed: {exc}", file=sys.stderr)
        return EXIT_INVERSION
    except PartitionError as exc:
        print(f"compact: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
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

    level = os.environ.get("NODAL_IDN_LOG", "error").lower()
    logging.basicConfig(level={"error": logging.ERROR, "info": logging.INFO,
                               "debug": logging.DEBUG}.get(level, logging.ERROR))
    try:
        doc = jsonio.load(args.config)
    except (OSError, ValueError) as exc:
        print(f"nodal-idn: cannot read config {args.config}: {exc}",
              file=sys.stderr)
        return 1
    if not isinstance(doc, dict):
        print(f"{args.command}: bad config: the top level is not a JSON "
              "object", file=sys.stderr)
        return EXIT_BAD_DATUM
    base_dir = os.path.dirname(os.path.abspath(args.config))
    out = args.out
    if out is None and isinstance(doc.get("out"), str):
        out = doc["out"] if os.path.isabs(doc["out"]) \
            else os.path.join(base_dir, doc["out"])
    cfg = PipelineConfig(args.command, doc, out, base_dir)
    try:
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"{args.command}: bad config: {exc}", file=sys.stderr)
        return EXIT_BAD_DATUM
    except ModelError as exc:
        # malformed curve, model, family or prescription, in any command
        print(f"{args.command}: bad datum: {exc}", file=sys.stderr)
        return EXIT_BAD_DATUM
    except (OSError, ValueError, KeyError) as exc:
        print(f"nodal-idn: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
