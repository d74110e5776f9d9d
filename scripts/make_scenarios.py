#!/usr/bin/env python3
"""Generate the shipped scenario files (models, configs, derived data).

Run from the repository root:

    python3 scripts/make_scenarios.py [--outdir scenarios]

Configs reference files by plain relative paths, so the CLI should be
invoked from the directory holding the generated files.
"""
from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the engine from src, the scenario builders from the tests' reference code
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from nodal_idn import jsonio                       # noqa: E402
from nodal_idn.dirichlet import Prescription       # noqa: E402
from reference import scenarios as sc              # noqa: E402


def encode_prescription(r: Prescription) -> dict:
    return {
        "poles": jsonio.encode_complex_array(np.array(r.poles, dtype=complex)),
        "residues": jsonio.encode_complex_array(np.array(r.residues, dtype=complex)),
        "poly": jsonio.encode_complex_array(np.array(r.poly, dtype=complex)),
    }


def write_scenario(out: pathlib.Path, scn: sc.Scenario,
                   candidates: dict | None = None) -> None:
    name = scn.name
    jsonio.dump(scn.model.to_json(), out / f"{name}.model.json")
    forward = {
        "command": "forward",
        "model": f"{name}.model.json",
        "families": [f.to_json() for f in scn.families] if scn.families else [],
        "prescriptions": [encode_prescription(p) for p in scn.prescriptions],
        "boundary_values": [jsonio.encode_complex_array(u.astype(complex))
                            for u in scn.boundary_values],
        "out": f"{name}.datum.json",
    }
    jsonio.dump(forward, out / f"{name}.forward.json")
    invert = {
        "command": "invert",
        "datum": f"{name}.datum.json",
        "windows": scn.plan.to_json(),
        "out": f"{name}.curve.json",
    }
    jsonio.dump(invert, out / f"{name}.invert.json")
    residues = {
        "command": "residues",
        "datum": f"{name}.datum.json",
        "curve": f"{name}.curve.json",
        "contour_radius": 0.05,
        "out": f"{name}.nodes.json",
    }
    jsonio.dump(residues, out / f"{name}.residues.json")
    caract = {
        "command": "characterize",
        "datum": f"{name}.datum.json",
        "window": {"center": [jsonio.encode_complex(scn.shock_center[0]),
                              jsonio.encode_complex(scn.shock_center[1])],
                   "extent": scn.shock_extent},
        "candidates": candidates,
        "probes": 20,
        "seed": 7,
        "out": f"{name}.caract.json",
    }
    jsonio.dump(caract, out / f"{name}.characterize.json")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--outdir", default="scenarios")
    args = parser.parse_args()
    out = pathlib.Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)

    charged = sc.charged4()
    true_candidates = {
        "points": jsonio.encode_complex_array(np.array([1.0, -1.0], dtype=complex)),
        "charges": [jsonio.encode_complex_array(np.array(row, dtype=complex))
                    for row in ([1, -1], [2, -2], [3, -3])],
    }
    write_scenario(out, charged, candidates=true_candidates)
    # the same potentials through the physical (Dirichlet-solve) path
    physical = jsonio.load(out / "charged4.forward.json")
    del physical["prescriptions"]
    physical["out"] = "charged4_physical.datum.json"
    jsonio.dump(physical, out / "charged4_physical.forward.json")
    write_scenario(out, sc.graph())
    write_scenario(out, sc.spurious())
    write_scenario(out, sc.flat_line())

    # degenerate forward input: second prescription repeats the first, so the
    # embedding map has a constant coordinate and hypothesis A fails
    graph = sc.graph()
    degenerate = {
        "command": "forward",
        "model": "graph.model.json",
        "families": [],
        "prescriptions": [encode_prescription(p) for p in
                          (graph.prescriptions[0], graph.prescriptions[0],
                           graph.prescriptions[2])],
        "boundary_values": [jsonio.encode_complex_array(u.astype(complex))
                            for u in (graph.boundary_values[0],
                                      graph.boundary_values[0],
                                      graph.boundary_values[2])],
        "out": "degenerate.datum.json",
    }
    jsonio.dump(degenerate, out / "degenerate.forward.json")

    # corrupted and reversed datum files for characterization exercises
    corrupted = sc.corrupted_datum(charged)
    jsonio.dump(corrupted.to_json(), out / "charged4_corrupted.datum.json")
    caract_bad = jsonio.load(out / "charged4.characterize.json")
    caract_bad["datum"] = "charged4_corrupted.datum.json"
    caract_bad["out"] = "charged4_corrupted.caract.json"
    jsonio.dump(caract_bad, out / "charged4_corrupted.characterize.json")

    reversed_datum = charged.datum().reversed()
    jsonio.dump(reversed_datum.to_json(), out / "charged4_reversed.datum.json")
    caract_rev = jsonio.load(out / "charged4.characterize.json")
    caract_rev["datum"] = "charged4_reversed.datum.json"
    caract_rev["out"] = "charged4_reversed.caract.json"
    jsonio.dump(caract_rev, out / "charged4_reversed.characterize.json")

    jsonio.dump(sc.compact_config(), out / "compact.json")
    jsonio.dump(sc.compact_config(degree_one=True), out / "compact_deg1.json")
    nocharge = sc.compact_config()
    nocharge["poles"][0][0] = [0.2, 0.1]    # inside S's complement: rejected
    jsonio.dump(nocharge, out / "compact_nocharge.json")

    print(f"wrote scenario files to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
