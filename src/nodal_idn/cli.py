"""Command-line pipelines: forward, invert, residues, characterize, compact.

All inputs and outputs are UTF-8 JSON with schema-version fields.  Each
command runs straight through; ``main`` maps the engine error that ends it
to an exit code by FAILURES.  Outputs are byte-deterministic for identical
configs (fixed summation order, fixed seeds).
"""
from __future__ import annotations

import argparse
import math
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
from .jsonio import decode_complex_list, decode_integer, decode_positive
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


def _file(value, name: str, _) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must name a file, not {value!r}")
    return value


def _lists(value, name: str, bounds: tuple | None) -> list:
    """A list of lists, with bounds (count, kind, its bounds): ``count`` of
    them unless None, each decoded by ``kind`` unless None."""
    count, kind, inner = bounds or (None, None, None)
    if not (isinstance(value, list) and all(isinstance(v, list) for v in value)
            and count in (None, len(value))):
        raise ConfigError(f"{name} must be a list of "
                          f"{f'{count} ' if count else ''}lists")
    return value if kind is None else [kind(v, name, inner) for v in value]


def _objects(value, name: str, _) -> list:
    if not (isinstance(value, list) and all(isinstance(v, dict) for v in value)):
        raise ConfigError(f"{name} must be a list of objects")
    return value


def _thresholds(value, name: str, keys: tuple) -> dict:
    """An object whose keys are among ``keys``, each a finite positive number."""
    if not (isinstance(value, dict) and set(value) <= set(keys)):
        raise ConfigError(f"{name} must be an object with keys among "
                          f"{', '.join(keys)}, not {value!r}")
    for key, limit in value.items():
        decode_positive(limit, f"{name} {key!r}", None)
    return value


def _gone(value, name: str, _):
    raise ConfigError(f"{name} is no longer supported")


REQUIRED = object()     # the default of a field that must be given
# Every config field, named once: key path: (commands, kind, bounds,
# default).  The default stands for an absent key; a field whose default is
# None may also be null.  Each integer bound keeps the arrays that the field
# sizes allocatable.  A window always takes max(2p, 1) moment orders, so
# windows.max_order is gone and read only as null.
FIELDS = {
    "out": ("forward invert residues characterize compact", _file, None, None),
    "model": ("forward", _file, None, REQUIRED),
    "families": ("forward", _lists, None, None),
    "boundary_values": ("forward", _lists, None, None),
    "prescriptions": ("forward", _objects, None, None),
    "datum": ("invert residues characterize", _file, None, REQUIRED),
    "curve": ("residues", _file, None, REQUIRED),
    "windows.centers": ("invert compact", decode_complex_list, None, REQUIRED),
    "windows.radius": ("invert compact", decode_positive, None, REQUIRED),
    "windows.grid_n": ("invert compact", decode_integer, (2, 100), WINDOW_GRID_N),
    "windows.max_order": ("invert compact", _gone, None, None),
    "contour_radius": ("residues compact", decode_positive, None, DEFAULT_CONTOUR_RADIUS),
    "window.center": ("characterize", decode_complex_list, 2, REQUIRED),
    "window.extent": ("characterize", decode_positive, None, REQUIRED),
    "thresholds": ("characterize", _thresholds, tuple(DEFAULT_THRESHOLDS), None),
    "probes": ("characterize", decode_integer, (1, 1000), PROBE_COUNT),
    "seed": ("characterize", decode_integer, (0, math.inf), PROBE_SEED),
    "candidates.points": ("characterize", decode_complex_list, None, None),
    "candidates.charges": ("characterize", _lists,
                           (None, decode_complex_list, None), None),
    "out_prefix": ("compact", _file, None, "compact"),
    "rho": ("compact", decode_positive, None, REQUIRED),
    "n": ("compact", decode_integer, (4, 65536), 512),
    "charges": ("compact", decode_complex_list, 3, REQUIRED),
    "poles": ("compact", _lists, (3, decode_complex_list, 2), REQUIRED),
    "aux": ("compact", _lists, (3, _lists, (None, decode_complex_list, 2)), None),
}


@dataclass
class PipelineConfig:
    doc: dict
    out: str | None
    base_dir: str

    def __getitem__(self, path: str):
        """The FIELDS row ``path`` of the config decoded by its kind; a null
        or empty object on the path counts as absent."""
        _, kind, bounds, default = FIELDS[path]
        *parents, key = path.split(".")
        doc = self.doc
        for parent in parents:
            doc = doc.get(parent) or {}
            if not isinstance(doc, dict):
                raise ConfigError(f"{parent} must be an object")
        value = doc.get(key, default)
        if value is None and default is None:
            return None
        try:
            return kind(None if value is REQUIRED else value,
                        path.replace(".", " "), bounds)
        except ModelError as exc:       # of a value kind: a bad config
            raise ConfigError(str(exc)) from None

    def path(self, key: str) -> str:
        """A file name of the config, resolved against the config dir."""
        return os.path.join(self.base_dir, self[key])

    def output(self, default: str) -> str:
        """--out, else the config's out, else ``default``."""
        return self.out or (self.path("out") if self["out"] else default)


def _plan(cfg: PipelineConfig) -> WindowPlan:
    """The window plan; windows.max_order is decoded only to refuse it."""
    centers, radius, grid_n, _ = (cfg[f"windows.{key}"] for key in
                                  ("centers", "radius", "grid_n", "max_order"))
    return WindowPlan(list(centers), radius, grid_n)


def _decode_prescription(doc: dict) -> Prescription:
    return Prescription(
        poles=tuple(jsonio.decode_complex_array(doc.get("poles", []))),
        residues=tuple(jsonio.decode_complex_array(doc.get("residues", []))),
        poly=tuple(jsonio.decode_complex_array(doc.get("poly", [0.0]))),
    )


def cmd_forward(cfg: PipelineConfig) -> int:
    model = jsonio.load(cfg.path("model"), NodalDomainModel.from_json)
    families = tuple(AdmissibleFamily.from_json(f) if f else AdmissibleFamily(())
                     for f in cfg["families"] or ()) or None
    boundary = tuple(jsonio.decode_complex_array(r)
                     for r in cfg["boundary_values"] or ())
    prescriptions = tuple(_decode_prescription(p)
                          for p in cfg["prescriptions"] or ()) or None
    datum = build_dn_datum(model, families, boundary, prescriptions)
    jsonio.dump(datum, cfg.output("datum.json"))
    return 0


def cmd_invert(cfg: PipelineConfig) -> int:
    datum = jsonio.load(cfg.path("datum"), DNDatum.from_json)
    plan = _plan(cfg)
    engine = MomentEngine.from_datum(datum)
    curve = sweep_windows(engine, plan)
    out = cfg.output("curve.json")
    jsonio.dump(curve, out)
    report_lines = [f"windows analyzed: {len(curve.windows)}"]
    for w in curve.windows:
        line = (f"window center {w.center:.6g} radius {w.radius:.6g}: "
                f"p={w.p}, min sheet separation "
                f"{w.min_root_separation:.3e}")
        if w.relocated_from is not None:
            line += f" [re-centered from {w.relocated_from:.6g}]"
        report_lines.append(line)
    report_lines += [f"window at {center:.6g} failed: {msg}"
                     for center, msg in curve.failures]
    report_lines += [f"stitch {k}->{k + 1}: sheet map {list(map(int, sigma))}"
                     for k, sigma in enumerate(curve.permutations)]
    report_lines += curve.notes
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
    datum = jsonio.load(cfg.path("datum"), DNDatum.from_json)
    curve = jsonio.load(cfg.path("curve"), ReconstructedCurve.from_json)
    inventory = _node_inventory(curve, MomentEngine.from_datum(datum),
                                cfg["contour_radius"])
    jsonio.dump(inventory, cfg.output("nodes.json"))
    return 0


def _node_inventory(curve: ReconstructedCurve, engine: MomentEngine,
                    radius: float):
    """Candidates, their contour reports and the classified inventory."""
    candidates = locate_singularities(curve, engine)
    reports = analyze_singular_point(engine, curve, candidates,
                                     contour_radius=radius)
    return classify_and_partition(reports)


def _candidates(cfg: PipelineConfig) -> tuple:
    """Candidate points and charges (a row per potential), or None, None."""
    points, rows = cfg["candidates.points"], cfg["candidates.charges"]
    if points is None or rows is None:
        if points is rows:
            return None, None
        raise ConfigError("candidates must be an object with points and charges")
    if len(rows) != 3 or any(r.shape != points.shape for r in rows):
        raise ConfigError(f"candidates need 3 rows of {points.size} charges, "
                          "one per potential")
    return points, np.vstack(rows)


def cmd_characterize(cfg: PipelineConfig) -> int:
    datum = jsonio.load(cfg.path("datum"), DNDatum.from_json)
    center = tuple(map(complex, cfg["window.center"]))
    points, charges = _candidates(cfg)
    report = characterize(datum, center, cfg["window.extent"], points, charges,
                          probe_count=cfg["probes"], seed=cfg["seed"],
                          thresholds=cfg["thresholds"])
    jsonio.dump(report, cfg.output("caract.json"))
    return 0 if report.passed else EXIT_CHARACTERIZATION


def _compact_potentials(cfg: PipelineConfig):
    """Closed-form boundary data of the compact scenario on gamma = bS: the
    disk of radius rho at n samples, with one charge, one pair of poles and
    a list of auxiliary [pole, residue] pairs per potential."""
    rho, n, charges, poles, aux = (cfg[key] for key in
                                   ("rho", "n", "charges", "poles", "aux"))
    margin = 0.05 * rho
    # as Python complex numbers, whose division rounds unlike numpy's
    aux = [[tuple(map(complex, item)) for item in row]
           for row in aux or [[], [], []]]
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
    for (aminus, aplus), c, extra in zip(poles, charges, aux):
        pairs = [(aplus, c), (aminus, -c), *extra]      # (pole, residue)
        for k, (a, _) in enumerate(pairs):
            if abs(a) <= rho + margin:
                raise ModelError(f"{'auxiliary pole' if k > 1 else 'charge point'} "
                                 f"{a} is not inside the measurement subdomain")
        u = log_pole_potential(*pairs[0])
        for a, residue in pairs[1:]:
            u = u + log_pole_potential(a, residue)
        us.append(u.astype(complex))
        prescriptions.append(Prescription(*zip(*pairs)))
    model = NodalDomainModel(DiskDomain(rho), curve)
    return model, tuple(us), tuple(prescriptions)


def cmd_compact(cfg: PipelineConfig) -> int:
    prefix = cfg.output(cfg.path("out_prefix"))
    plan, radius = _plan(cfg), cfg["contour_radius"]
    model, us, prescriptions = _compact_potentials(cfg)
    datum = build_dn_datum(model, None, us, prescriptions)
    jsonio.dump(datum, f"{prefix}.datum.json")
    engine = MomentEngine.from_datum(datum)
    curve = sweep_windows(engine, plan)
    jsonio.dump(curve, f"{prefix}.curve.json")
    inventory = _node_inventory(curve, engine, radius)
    jsonio.dump(inventory, f"{prefix}.nodes.json")
    jsonio.dump({"schema": "nodal-idn/compact/1", "windows": len(curve.windows),
                 "sheet_counts": [w.p for w in curve.windows],
                 "singular_points": len(inventory.points),
                 "recovered_nodes": len(inventory.nodes),
                 "spurious_points": len(inventory.spurious)}, f"{prefix}.report.json")
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
        return COMMANDS[args.command](PipelineConfig(doc, args.out, base_dir))
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
