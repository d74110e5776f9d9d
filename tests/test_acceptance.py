"""Acceptance suite: every criterion at its stated tolerance and budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Shared scenario data is prepared in fixtures; each criterion
times its own computation against the stated budget.
"""
import json
import os
import pathlib
import shutil
import sys

import numpy as np
import pytest

from cli_runner import run_cli
from engine_checks import ellipse, residue_at
from nodal_idn.characterize import (characterize, exterior_probes,
                                    green_identity_residual,
                                    orientation_probe, shock_residual)
from nodal_idn.dirichlet import solve_nodal_dirichlet
from nodal_idn.errors import CharacterizationError
from nodal_idn.greens import GreenKernel, disk_green, near_boundary_threshold
from nodal_idn.model import (AdmissibleFamily, BoundaryCurve, DiskDomain,
                             NodalDomainModel)
from nodal_idn.moments import MomentEngine, window_grid
from nodal_idn.nodes import (BranchReport, SingularPointReport,
                             analyze_singular_point, classify_and_partition,
                             locate_singularities)
from nodal_idn.scenarios import corrupted_datum
from nodal_idn.spectral import parameter_grid
from nystrom import (NystromSystem, PrincipalGreen, solve_dirichlet_fredholm,
                     trace_T_minus, trace_T_plus)

REPO = pathlib.Path(__file__).resolve().parents[1]

TRUE_POINTS = [1.0, -1.0]
TRUE_CHARGES = np.array([[1, -1], [2, -2], [3, -3]], dtype=complex)
SHOCK_WINDOW = ((-3.6, 0.15), 0.02)


def _cpu_seconds():
    """CPU seconds of this process (all its threads) and of the children
    it has waited for, such as the CLI runs of criterion 10."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class _Budget:
    """A criterion's limit in CPU seconds, so that other processes on the
    host do not count against it."""

    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = _cpu_seconds()
        return self

    def __exit__(self, exc_type, *exc):
        used = _cpu_seconds() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.label}: {status} ({used:.2f} CPU s, "
              f"budget {self.seconds:.0f} s)", flush=True)
        if exc_type is None:
            assert used < self.seconds, \
                f"{self.label} exceeded its {self.seconds}s budget: {used:.2f}s"


def test_criterion_01_jump_identity(rng):
    with _Budget("1 jump identity", 1.0):
        curve = BoundaryCurve.circle(1.0, 256)
        system = NystromSystem.build(curve)
        t = parameter_grid(curve.n)
        worst = 0.0
        for k in range(0, 65):
            for v in (np.cos(k * t), np.sin(k * t) if k else None):
                if v is None:
                    continue
                jump = trace_T_plus(v, system) - trace_T_minus(v, system)
                worst = max(worst, float(np.max(np.abs(jump - v))))
        mixed = sum(rng.normal() * np.cos(k * t) + rng.normal() * np.sin(k * t)
                    for k in range(1, 65))
        jump = trace_T_plus(mixed, system) - trace_T_minus(mixed, system)
        worst = max(worst, float(np.max(np.abs(jump - mixed))))
        assert worst < 1e-7


def test_criterion_02_fredholm_dirichlet():
    sys.path.insert(0, str(REPO / "tests"))
    from fd_oracle import EllipseLaplaceOracle
    with _Budget("2 Fredholm Dirichlet", 2.0):
        circle = NystromSystem.build(BoundaryCurve.circle(1.0, 256))
        t = parameter_grid(circle.curve.n)
        pts = 0.7 * np.exp(1j * np.linspace(0.0, 6.2, 23))
        worst = 0.0
        for k in range(1, 9):
            for data, exact in ((np.cos(k * t), (pts**k).real),
                                (np.sin(k * t), (pts**k).imag)):
                ext = solve_dirichlet_fredholm(data.astype(complex), circle)
                worst = max(worst, float(np.max(np.abs(ext.value(pts) - exact))))
        assert worst < 1e-8

        system = NystromSystem.build(ellipse(1.3, 0.8, 256))
        data = (system.curve.positions ** 3).real
        ext = solve_dirichlet_fredholm(data.astype(complex), system)
        oracle = EllipseLaplaceOracle(1.3, 0.8, lambda z: (z**3).real,
                                      n_mu=64, n_nu=128)
        sample = oracle.sample_points()
        sample = sample[system.curve.distance_to(sample)
                        > near_boundary_threshold(system.curve)]
        gap = float(np.max(np.abs(ext.value(sample) - oracle.value(sample))))
        assert gap < 1e-5


def test_criterion_03_principal_green(rng):
    with _Budget("3 principal Green", 5.0):
        system = NystromSystem.build(BoundaryCurve.circle(1.0, 256))
        g = PrincipalGreen(GreenKernel("mundane-log"), system)
        errors = []
        while len(errors) < 50:
            z = rng.uniform(0, 0.7) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            w = rng.uniform(0, 0.7) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            if abs(z - w) < 0.05:
                continue
            errors.append(abs(g(z, w) - disk_green(z, w, 1.0)))
        assert max(errors) < 1e-8
        assert np.max(np.abs(g.boundary_values(0.3 + 0.2j))) < 1e-7
        sym_pairs = [(0.3 + 0.2j, -0.4 + 0.1j), (0.5 + 0.0j, 0.2j),
                     (-0.2 - 0.4j, 0.1 + 0.5j)]
        for z, w in sym_pairs:
            assert abs(g(z, w) - g(w, z)) < 1e-7


def test_criterion_04_nodal_residues():
    with _Budget("4 nodal Dirichlet residues", 1.0):
        dom = DiskDomain(1.5)
        model = NodalDomainModel(dom, dom.boundary(256),
                                 (np.array([1.0 + 0j, -1.0 + 0j]),
                                  np.array([0.5j, -0.5j])))
        fam = AdmissibleFamily((np.array([2.0, -2.0]),
                                np.array([1.0 + 0.5j, -1.0 - 0.5j])))
        t = parameter_grid(model.boundary.n)
        dist = solve_nodal_dirichlet(model, fam, np.cos(t))
        declared = {1.0 + 0j: 2.0, -1.0 + 0j: -2.0,
                    0.5j: 1.0 + 0.5j, -0.5j: -1.0 - 0.5j}
        for point, charge in declared.items():
            assert abs(residue_at(dist, point) - charge) < 1e-6
        for group in fam.charges:
            assert abs(np.sum(group)) < 1e-6


def test_criterion_05_moment_engine(graph_datum, charged_datum,
                                    charged_scenario):
    with _Budget("5 moment engine", 3.0):
        grid, _ = window_grid(0.1 + 0.1j, 0.5, 5)
        assert grid.size == 25
        engine = MomentEngine.from_datum(graph_datum)
        for m in range(0, 7):
            vals = engine.moments([m], grid)[0]
            assert np.max(np.abs(vals - grid ** (2 * m))) < 1e-10
        assert charged_datum.n == 512
        charged = MomentEngine.from_datum(charged_datum)
        for xi in (3.1, 3.0 + 0.3j, 2.8 - 0.2j, 3.4):
            for m in range(0, 5):
                got = charged.moments([m], [xi])[0, 0]
                want = charged_scenario.oracle.moment(m, xi)
                assert abs(got - want) < 1e-8


def test_criterion_06_fiber_recovery(charged_datum, charged_scenario):
    from nodal_idn.moments import sweep_windows
    with _Budget("6 fiber recovery", 5.0):
        charged_sweep = sweep_windows(MomentEngine.from_datum(charged_datum),
                                      charged_scenario.plan)
        total_grid = 0
        worst = 0.0
        for window in charged_sweep.windows:
            assert window.p == 4  # exact sheet count on every window
            total_grid += window.grid.size
            for idx in range(0, window.grid.size, 5):
                oracle_roots = charged_scenario.oracle.fibers(
                    complex(window.grid[idx]))
                h_oracle = charged_scenario.oracle.f1(oracle_roots)
                for val in h_oracle:
                    worst = max(worst, float(np.min(np.abs(window.roots[idx]
                                                           - val))))
        assert total_grid >= 81
        assert worst < 1e-6


def test_criterion_07_form_quotients(charged_sweep, charged_scenario):
    with _Budget("7 form-quotient recovery", 3.0):
        worst = 0.0
        for window in charged_sweep.windows[:4]:
            for idx in range(0, window.grid.size, 8):
                xi = complex(window.grid[idx])
                for ell in range(3):
                    h_or, g_or = charged_scenario.oracle.quotients(ell, xi)
                    for h_val, g_val in zip(h_or, g_or):
                        j = int(np.argmin(np.abs(window.roots[idx] - h_val)))
                        worst = max(worst, abs(window.quotients[ell, idx, j]
                                               - g_val))
        assert worst < 1e-6


def test_criterion_08_node_classification(charged_datum, charged_sweep,
                                          spurious_datum, spurious_sweep):
    with _Budget("8 node classification", 10.0):
        engine = MomentEngine.from_datum(charged_datum)
        candidates = locate_singularities(charged_sweep, engine)
        reports = analyze_singular_point(engine, charged_sweep, candidates)
        inventory = classify_and_partition(reports)
        assert len(inventory.nodes) == 1
        charges = inventory.nodes[0]["charges"]
        for ell, (a, b) in enumerate([(1, -1), (2, -2), (3, -3)]):
            got = np.sort_complex(np.asarray(charges[ell]))
            assert np.max(np.abs(got - np.array([b, a], dtype=complex))) < 1e-4
        assert inventory.partition_unique
        assert all(inventory.family_generic)

        sp_engine = MomentEngine.from_datum(spurious_datum)
        sp_candidates = locate_singularities(spurious_sweep, sp_engine)
        sp_reports = analyze_singular_point(sp_engine, spurious_sweep,
                                            sp_candidates)
        sp_inventory = classify_and_partition(sp_reports)
        assert sp_inventory.nodes == [] and len(sp_inventory.spurious) == 1
        for rep in sp_reports:
            for branch in rep.branches:
                assert np.max(np.abs(branch.residues)) < 1e-6

        # residue and energy diagnostics agree on all shipped scenarios
        for inv in (inventory, sp_inventory):
            assert not any("disagree" in n for n in inv.notes)

        # the symmetric multiset is flagged as only roughly isomorphic
        sym = [BranchReport((j,), np.array([r, 2 * r, 3 * r]))
               for j, r in enumerate([1.0, -1.0, 1.0, -1.0])]
        sym_inv = classify_and_partition(
            [SingularPointReport(0.0, 0.5, sym)])
        assert not sym_inv.partition_unique
        assert sym_inv.isomorphism_class == "rough"


def test_criterion_09_characterization(charged_datum, charged_scenario,
                                       graph_datum):
    with _Budget("9 characterization", 10.0):
        shock = shock_residual(charged_datum, *SHOCK_WINDOW)
        assert shock.max_shock < 1e-5
        assert not {"max_flat", "flat_ratio"} & shock.to_json().keys()
        assert abs(shock.shock_ratio - 4.0) < 0.8  # 4 +- 20%

        bad = corrupted_datum(charged_scenario)
        assert shock_residual(bad, *SHOCK_WINDOW).max_shock > 1e-2

        probes = exterior_probes(charged_datum.curve, 20, 7)
        res = green_identity_residual(charged_datum, TRUE_POINTS,
                                      TRUE_CHARGES, probes)
        assert float(np.max(res)) < 1e-6
        perturbed = TRUE_CHARGES.copy()
        perturbed[0, 0] += 0.1
        res_bad = green_identity_residual(charged_datum, TRUE_POINTS,
                                          perturbed, probes)
        assert float(np.max(res_bad[0])) > 1e-2

        # exclusivity on a non-flat window (the graph datum; the polynomial
        # four-sheet image is algebraic, hence flat in xi0 by construction)
        assert orientation_probe(graph_datum, (-0.1, 0.05), 0.02).verdict \
            == "gamma"
        assert orientation_probe(graph_datum.reversed(),
                                 (-0.1, 0.05), 0.02).verdict == "-gamma"
        with pytest.raises(CharacterizationError):
            orientation_probe(bad, *SHOCK_WINDOW)

        report = characterize(charged_datum, *SHOCK_WINDOW,
                              candidate_points=TRUE_POINTS,
                              candidate_charges=TRUE_CHARGES)
        assert report.passed
        doc = report.to_json()
        assert doc["schema"] == "nodal-idn/caract/4"
        assert set(doc["thresholds"]) == {"shock", "green"}


def test_criterion_10_determinism(tmp_path):
    with _Budget("10 end-to-end determinism", 40.0):
        def run_all(d):
            d.mkdir()
            for f in (REPO / "scenarios").glob("*.json"):
                shutil.copy(f, d)
            for command, config in (
                    ("forward", "graph.forward.json"),
                    ("invert", "graph.invert.json"),
                    ("residues", "graph.residues.json"),
                    ("characterize", "graph.characterize.json"),
                    ("compact", "compact_deg1.json")):
                proc = run_cli(d, command, config)
                assert proc.returncode == 0, proc.stderr
            return d

        a = run_all(tmp_path / "a")
        b = run_all(tmp_path / "b")
        names = ["graph.datum.json", "graph.curve.json", "graph.nodes.json",
                 "graph.caract.json", "graph.curve.json.report.txt",
                 "compact.datum.json", "compact.curve.json",
                 "compact.nodes.json", "compact.report.json"]
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
