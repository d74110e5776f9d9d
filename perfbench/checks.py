"""Output checks, computed with numpy alone.

Each check recomputes what a stage must produce from the closed forms of
``inputs`` and raises ``CheckError`` when the stage's JSON output disagrees.
Nothing here imports ``nodal_idn`` or its oracles.
"""
from __future__ import annotations

import json
import os

import numpy as np

import inputs

# relative sup-norm gaps (scratch runs: synthetic ~1e-15, physical disk
# 8e-13 at N=512 and 2.3e-12 at N=2048, physical annulus 7.5e-14)
THETA_TOL = 1e-9
F_TOL = 1e-9
U_TOL = 1e-12
# absolute gaps of recovered sheets, node point and charges
SHEET_TOL = 1e-9
NODE_POINT_TOL = 1e-7
CHARGE_TOL = 1e-9
SAMPLE_STEP = 10            # every 10th grid point of each window is checked


class CheckError(Exception):
    pass


def decode(items) -> np.ndarray:
    return np.array([complex(re, im) for re, im in items], dtype=complex)


def _rows(doc_rows) -> np.ndarray:
    return np.vstack([decode(r) for r in doc_rows])


def _rel_gap(got, want) -> float:
    return float(np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))))


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def annulus_theta(n: int) -> np.ndarray:
    """dz-coefficients on |z| = 1.5 of U_l = 2 sum c ln|z - a| + H_l.

    H_l is harmonic on 0.3 < |z| < 1.5 with data u_l - S_l on the outer
    circle and -S_l on the inner one (S_l the log part); it is solved mode by
    mode in the Fourier-Laurent basis ln r, z^k, z^-k, conj(z)^k, conj(z)^-k.
    """
    big, small = inputs.DISK_RADIUS, inputs.ANNULUS_INNER
    t = 2 * np.pi * np.arange(n) / n
    zo, zi = big * np.exp(1j * t), small * np.exp(1j * t)
    lo, li = inputs.log_dipole(zo), inputs.log_dipole(zi)
    u = inputs.charged4_potentials(zo)
    k = np.arange(1, n // 2)
    q = (small / big) ** k
    unit = np.exp(1j * np.outer(t, k))            # (z/R)^k on the outer circle
    out = np.empty((3, n), dtype=complex)
    for ell, c in enumerate(inputs.CHARGES):
        ho = np.fft.fft(u[ell] - 2 * c * lo) / n
        hi = np.fft.fft(-2 * c * li) / n
        log_coeff = (ho[0] - hi[0]).real / np.log(big / small)
        pos = (ho[k] - q * hi[k]) / (1 - q ** 2)       # alpha_k R^k
        neg = (hi[-k] - q * ho[-k]) / (1 - q ** 2)     # beta_k rho^-k
        dh = (log_coeff / 2 + unit @ (k * pos) - np.conj(unit) @ (k * q * neg)) / zo
        out[ell] = c * (1 / (zo - 1) - 1 / (zo + 1)) + dh
    return out


def check_forward(doc: dict, n: int, domain: str) -> None:
    _expect(doc.get("schema") == "nodal-idn/datum/1", "datum schema")
    z, _ = inputs.circle(inputs.DISK_RADIUS, n)
    _expect(_rel_gap(decode(doc["curve"]["positions"]), z) < U_TOL,
            "datum curve is not the sampled circle")
    u = _rows(doc["u"])
    gap = _rel_gap(u, inputs.charged4_potentials(z))
    _expect(gap < U_TOL, f"u differs from the potentials by {gap:.3e}")
    theta = _rows(doc["theta"])
    want = inputs.charged4_forms(z) if domain == "disk" else annulus_theta(n)
    gap = _rel_gap(theta, want)
    _expect(gap < THETA_TOL, f"theta differs from the closed form by {gap:.3e}")
    f = _rows(doc["f"])
    want_f = inputs.charged4_map(z) if domain == "disk" \
        else np.vstack([want[1] / want[0], want[2] / want[0]])
    gap = _rel_gap(f, want_f)
    _expect(gap < F_TOL, f"f differs from the map by {gap:.3e}")


def _match_sheets(got: np.ndarray, want: np.ndarray, where: str) -> None:
    _expect(got.size == want.size,
            f"{where}: {got.size} sheets recovered, {want.size} expected")
    dist = np.abs(got[:, None] - want[None, :])
    gap = max(float(np.max(np.min(dist, axis=0))),
              float(np.max(np.min(dist, axis=1))))
    _expect(gap < SHEET_TOL, f"{where}: sheets off by {gap:.3e}")


def _check_windows(doc: dict, count: int, p: int, fibers) -> None:
    _expect(doc.get("schema") == "nodal-idn/curve/1", "curve schema")
    _expect(not doc["failures"], f"windows failed: {doc['failures']}")
    _expect(len(doc["windows"]) == count,
            f"{len(doc['windows'])} windows kept, {count} planned")
    for w in doc["windows"]:
        _expect(w["p"] == p, f"window {w['center']}: p={w['p']}, expected {p}")
        grid = decode(w["grid"])
        roots = decode(w["roots"]).reshape(grid.size, p)
        for idx in range(0, grid.size, SAMPLE_STEP):
            _match_sheets(roots[idx], fibers(grid[idx]),
                          f"window {w['center']} point {idx}")


def charged4_fibers(xi: complex) -> np.ndarray:
    """f1 over the roots of z^4 - z^2 + 3 - xi with |z| < 1.5."""
    z = np.roots([1.0, 0.0, -1.0, 0.0, 3.0 - xi])
    z = z[np.abs(z) < inputs.DISK_RADIUS]
    return 2 + z ** 3 - z


def check_invert(doc: dict) -> None:
    _check_windows(doc, inputs.INVERT_RING["count"], 4, charged4_fibers)


def check_residues(doc: dict) -> None:
    _expect(doc.get("schema") == "nodal-idn/nodes/1", "nodes schema")
    _expect(len(doc["nodes"]) == 1, f"{len(doc['nodes'])} nodes, expected 1")
    node = doc["nodes"][0]
    gap = float(np.max(np.abs(decode(node["point"]) - np.array([2.0, 3.0]))))
    _expect(gap < NODE_POINT_TOL, f"node point off (2, 3) by {gap:.3e}")
    _expect(len(node["branches"]) == 2,
            f"node has {len(node['branches'])} branches, expected 2")
    _expect(len(node["charges"]) == 3, "node needs charges for 3 potentials")
    for c, row in zip(inputs.CHARGES, node["charges"]):
        got = np.sort_complex(decode(row))
        _expect(got.size == 2, f"{got.size} charges for potential {c}")
        gap = float(np.max(np.abs(got - np.array([-c, c]))))
        _expect(gap < CHARGE_TOL, f"charges +-{c} off by {gap:.3e}")


def check_characterize(doc: dict) -> None:
    _expect(doc.get("passed") is True, "characterization did not pass")
    verdict = doc["orientation"]["verdict"]
    _expect(verdict == "algebraic-ambiguous",
            f"verdict {verdict!r}, expected 'algebraic-ambiguous'")


def _bipolar(ell: int):
    """w_l = k_l / ((z - a+)(z - a-)) with k_l = c_l (a+ - a-)."""
    aminus, aplus = inputs.COMPACT_POLES[ell]
    c = inputs.COMPACT_CHARGES[ell]
    return c * (aplus - aminus), np.poly([aplus, aminus])


def compact_fibers(xi: complex) -> np.ndarray:
    """w1/w0 over the solutions of w2 = xi w0 in the unit disk."""
    (k0, d0), (k1, d1), (k2, d2) = (_bipolar(ell) for ell in range(3))
    z = np.roots(np.polysub(k2 * d0, xi * k0 * d2))
    z = z[np.abs(z) < inputs.COMPACT_RHO]
    return k1 * np.polyval(d0, z) / (k0 * np.polyval(d1, z))


def check_compact(curve_doc: dict, nodes_doc: dict) -> None:
    _check_windows(curve_doc, inputs.COMPACT_RING["count"], 2, compact_fibers)
    _expect(nodes_doc.get("schema") == "nodal-idn/nodes/1", "nodes schema")
    _expect(not nodes_doc["nodes"], f"{len(nodes_doc['nodes'])} nodes, expected 0")


def _load(directory: str, name: str) -> dict:
    with open(os.path.join(directory, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_stage(workload: inputs.Workload, stage: str, directory: str) -> None:
    """Check the output the stage left in ``directory``."""
    if stage == "forward":
        check_forward(_load(directory, "datum.json"), workload.n, "disk")
    elif stage == "forward-annulus":
        check_forward(_load(directory, "datum-annulus.json"), workload.annulus_n,
                      "annulus")
    elif stage == "invert":
        check_invert(_load(directory, "curve.json"))
    elif stage == "residues":
        check_residues(_load(directory, "nodes.json"))
    elif stage == "characterize":
        check_characterize(_load(directory, "caract.json"))
    elif stage == "compact":
        check_compact(_load(directory, "compact.curve.json"),
                      _load(directory, "compact.nodes.json"))
    else:
        raise CheckError(f"unknown stage {stage!r}")
