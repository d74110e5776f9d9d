"""Benchmark inputs, written from closed forms with numpy and json only.

Nothing here imports ``nodal_idn``: a change to the package cannot change
what the benchmark feeds it.  Every workload is built on the charged4 curve

    f = (2 + z^3 - z, 3 + z^4 - z^2)

on the disk of radius 1.5 (or the annulus 0.3 < |z| < 1.5), with the points
+1 and -1 identified into one node carrying the charges (1,-1), (2,-2),
(3,-3) for the three potentials.  The seed fixes the free choices only: the
phase of the invert window ring, the phase of the compact window ring and
the seed of the characterize probes.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

DISK_RADIUS = 1.5
ANNULUS_INNER = 0.3
NODE_POINTS = (1.0, -1.0)
CHARGES = (1.0, 2.0, 3.0)            # charge at +1; the charge at -1 is minus it
INVERT_RING = dict(center=3.0, ring_radius=0.16, count=8, window_radius=0.09)
CHARACTERIZE_WINDOW = ((-3.6, 0.0), (0.15, 0.0))
CHARACTERIZE_EXTENT = 0.02
CHARACTERIZE_PROBES = 20
CONTOUR_RADIUS = 0.05

# the compact.json surface: bipolar forms w_l = c_l/(z - a+) - c_l/(z - a-)
# on the unit circle, with the pole pairs (a-, a+) and charges c_l
COMPACT_RHO = 1.0
COMPACT_CHARGES = (1.0, 1.3, 0.8)
COMPACT_POLES = ((-1.8 + 0.0j, 1.6 + 0.4j),
                 (2.0 - 0.5j, -0.3 + 1.9j),
                 (-1.4 - 1.3j, 1.5 + 1.5j))
COMPACT_RING = dict(center=0.47 - 0.43j, ring_radius=0.04, count=6,
                    window_radius=0.025)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int                  # boundary samples of the disk model
    physical: bool          # disk forward without prescriptions
    stages: tuple           # (stage, cli.main calls per stage process)
    annulus_n: int = 0      # samples of the annulus model of "forward-annulus"


ALL_STAGES = ("forward", "invert", "residues", "characterize", "compact",
              "forward-annulus")
# files each stage writes (removed before every call: truncating a file just
# written forces a flush on ext4, which would be timed with the stage)
OUTPUTS = {
    "forward": ("datum.json",),
    "invert": ("curve.json", "curve.json.report.txt"),
    "residues": ("nodes.json",),
    "characterize": ("caract.json",),
    "compact": ("compact.datum.json", "compact.curve.json", "compact.nodes.json",
                "compact.report.json"),
    "forward-annulus": ("datum-annulus.json",),
}
WORKLOADS = {
    "charged4-small": Workload(
        "charged4-small", 512, False,
        (("forward", 10), ("invert", 3), ("residues", 1), ("characterize", 6),
         ("compact", 4))),
    "charged4-large": Workload(
        "charged4-large", 4096, False,
        tuple((stage, 1) for stage in ALL_STAGES[:5])),
    # the annulus forward rides with the disk one: its 12 lstsq calls alone
    # spread 20-30 % from run to run on a shared host
    "physical": Workload(
        "physical", 2048, True,
        tuple((stage, 1) for stage in ALL_STAGES if stage != "compact"), 512),
}


def command(stage: str) -> str:
    """The CLI command a stage runs ("forward-annulus" runs "forward")."""
    return stage.split("-")[0]


def pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def pairs(a) -> list:
    return [pair(z) for z in np.asarray(a).ravel()]


def circle(radius: float, n: int):
    """Samples z_k = radius * exp(2*pi*i*k/n) and their t-derivatives."""
    t = 2 * np.pi * np.arange(n) / n
    z = radius * np.exp(1j * t)
    return z, 1j * z


def log_dipole(z) -> np.ndarray:
    return np.log(np.abs(z - 1.0)) - np.log(np.abs(z + 1.0))


def charged4_potentials(z) -> np.ndarray:
    """The three boundary potentials u_l; their dz-coefficients are w_l."""
    lg = log_dipole(z)
    return np.vstack([2 * lg,
                      4 * lg + 2 * (z ** 2).real,
                      6 * lg + (4.0 / 3.0 * z ** 3).real])


def charged4_forms(z) -> np.ndarray:
    """w0 = 1/(z-1) - 1/(z+1), w1 = 2 w0 + 2z, w2 = 3 w0 + 2z^2."""
    w0 = 1 / (z - 1) - 1 / (z + 1)
    return np.vstack([w0, 2 * w0 + 2 * z, 3 * w0 + 2 * z ** 2])


def charged4_map(z) -> np.ndarray:
    return np.vstack([2 + z ** 3 - z, 3 + z ** 4 - z ** 2])


def ring_centers(center: complex, ring_radius: float, count: int,
                 phase: float) -> np.ndarray:
    ang = phase + 2 * np.pi * np.arange(count) / count
    return center + ring_radius * np.exp(1j * ang)


@dataclass(frozen=True)
class Choices:
    """The free choices a seed fixes."""

    invert_phase: float
    compact_phase: float
    probe_seed: int

    @staticmethod
    def from_seed(seed: int) -> "Choices":
        rng = np.random.default_rng(seed)
        # a phase within one ring step covers every distinct ring
        invert_phase = float(rng.uniform(0, 2 * np.pi / INVERT_RING["count"]))
        compact_phase = float(rng.uniform(0, 2 * np.pi / COMPACT_RING["count"]))
        return Choices(invert_phase, compact_phase, int(rng.integers(0, 2 ** 31)))


def _dump(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _write_model(path: str, n: int, domain: dict) -> None:
    z, dz = circle(DISK_RADIUS, n)
    _dump({"schema": "nodal-idn/model/1", "domain": domain,
           "boundary": {"n": n, "positions": pairs(z), "derivatives": pairs(dz),
                        "orientation": 1},
           "node_groups": [pairs(NODE_POINTS)], "auxiliary_poles": []}, path)


def _forward_config(model: str, out: str, z) -> dict:
    return {"command": "forward", "model": model, "out": out,
            "boundary_values": [pairs(row) for row in charged4_potentials(z)],
            "families": [[pairs([c, -c])] for c in CHARGES]}


def write_inputs(workload: Workload, seed: int, directory: str) -> dict:
    """Write every config and model file of the workload; returns the config
    path of each stage (relative to ``directory``)."""
    os.makedirs(directory, exist_ok=True)
    choices = Choices.from_seed(seed)
    n = workload.n
    z, _ = circle(DISK_RADIUS, n)
    _write_model(os.path.join(directory, "model.json"), n,
                 {"kind": "disk", "radius": DISK_RADIUS, "center": [0.0, 0.0]})
    forward = _forward_config("model.json", "datum.json", z)
    if not workload.physical:
        forward["prescriptions"] = [
            {"poles": pairs(NODE_POINTS), "residues": pairs([c, -c]),
             "poly": pairs(poly)}
            for c, poly in zip(CHARGES, ([0.0], [0.0, 2.0], [0.0, 0.0, 2.0]))]
    configs = {"forward": forward}
    if workload.annulus_n:
        za, _ = circle(DISK_RADIUS, workload.annulus_n)
        _write_model(os.path.join(directory, "model-annulus.json"),
                     workload.annulus_n,
                     {"kind": "annulus", "inner_radius": ANNULUS_INNER,
                      "outer_radius": DISK_RADIUS, "center": [0.0, 0.0]})
        configs["forward-annulus"] = _forward_config(
            "model-annulus.json", "datum-annulus.json", za)
    ring = INVERT_RING
    configs["invert"] = {
        "command": "invert", "datum": "datum.json", "out": "curve.json",
        "windows": {"centers": pairs(ring_centers(ring["center"],
                                                  ring["ring_radius"],
                                                  ring["count"],
                                                  choices.invert_phase)),
                    "radius": ring["window_radius"], "grid_n": 9,
                    "max_order": None}}
    configs["residues"] = {"command": "residues", "datum": "datum.json",
                           "curve": "curve.json", "out": "nodes.json",
                           "contour_radius": CONTOUR_RADIUS}
    configs["characterize"] = {
        "command": "characterize", "datum": "datum.json", "out": "caract.json",
        "window": {"center": [list(c) for c in CHARACTERIZE_WINDOW],
                   "extent": CHARACTERIZE_EXTENT},
        "candidates": {"points": pairs(NODE_POINTS),
                       "charges": [pairs([c, -c]) for c in CHARGES]},
        "probes": CHARACTERIZE_PROBES, "seed": choices.probe_seed}
    ring = COMPACT_RING
    configs["compact"] = {
        "command": "compact", "out_prefix": "compact",
        "rho": COMPACT_RHO, "n": n,
        "charges": pairs(COMPACT_CHARGES),
        "poles": [pairs(p) for p in COMPACT_POLES], "aux": [[], [], []],
        "windows": {"centers": pairs(ring_centers(ring["center"],
                                                  ring["ring_radius"],
                                                  ring["count"],
                                                  choices.compact_phase)),
                    "radius": ring["window_radius"], "grid_n": 9,
                    "max_order": None},
        "contour_radius": CONTOUR_RADIUS}
    paths = {}
    for stage, _ in workload.stages:
        paths[stage] = f"{stage}.json"
        _dump(configs[stage], os.path.join(directory, paths[stage]))
    return paths
