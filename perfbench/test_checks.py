"""Each output check accepts the real output and rejects a copy perturbed
just past its tolerance (and keeps one perturbed just under it).

Run from the repository root:  python3 -m pytest perfbench -q
The outputs come from ``nodal_idn.cli.main`` on the benchmark's own inputs
at small sample counts.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402


def _run(workload, seed, directory, stages=None):
    from nodal_idn import cli
    paths = inputs.write_inputs(workload, seed, str(directory))
    for stage, _ in workload.stages:
        if stages is None or stage in stages:
            code = cli.main([inputs.command(stage), "--config",
                             str(directory / paths[stage])])
            assert code == 0, stage
    return directory


def _load(directory, name):
    return json.loads((directory / name).read_text())


@pytest.fixture(scope="module")
def charged4(tmp_path_factory):
    return _run(inputs.WORKLOADS["charged4-small"], 5,
                tmp_path_factory.mktemp("charged4"))


@pytest.fixture(scope="module")
def physical(tmp_path_factory):
    workload = dataclasses.replace(inputs.WORKLOADS["physical"], n=512,
                                   annulus_n=256)
    return _run(workload, 5, tmp_path_factory.mktemp("physical"),
                ("forward", "forward-annulus"))


def _shift(doc_pair, delta):
    doc_pair[0] += delta


def _rejects(check, *docs):
    with pytest.raises(checks.CheckError):
        check(*docs)


# -- forward ---------------------------------------------------------------

def _forward_cases(directory, name, n, domain):
    doc = _load(directory, name)
    checks.check_forward(doc, n, domain)
    z, _ = inputs.circle(inputs.DISK_RADIUS, n)
    theta = inputs.charged4_forms(z) if domain == "disk" else checks.annulus_theta(n)
    f = np.vstack([theta[1] / theta[0], theta[2] / theta[0]])
    u = inputs.charged4_potentials(z)
    for key, tol, scale in (("theta", checks.THETA_TOL, np.max(np.abs(theta))),
                            ("f", checks.F_TOL, np.max(np.abs(f))),
                            ("u", checks.U_TOL, np.max(np.abs(u)))):
        for factor, ok in ((0.5, True), (1.5, False)):
            bad = copy.deepcopy(doc)
            _shift(bad[key][1][n // 3], factor * tol * max(1.0, scale))
            if ok:
                checks.check_forward(bad, n, domain)
            else:
                _rejects(checks.check_forward, bad, n, domain)


def test_forward_synthetic(charged4):
    _forward_cases(charged4, "datum.json", 512, "disk")


def test_forward_physical_disk(physical):
    _forward_cases(physical, "datum.json", 512, "disk")


def test_forward_physical_annulus(physical):
    _forward_cases(physical, "datum-annulus.json", 256, "annulus")
    # the annulus datum is not the disk's: the reference is not trivial
    _rejects(checks.check_forward, _load(physical, "datum-annulus.json"),
             256, "disk")


# -- invert and compact windows ----------------------------------------------

def _window_cases(check, docs, p):
    check(*docs)
    for factor, ok in ((0.5, True), (1.5, False)):
        bad = copy.deepcopy(docs)
        # root 0 of grid point 0 of window 0, a sampled point
        _shift(bad[0]["windows"][0]["roots"][0], factor * checks.SHEET_TOL)
        if ok:
            check(*bad)
        else:
            _rejects(check, *bad)
    bad = copy.deepcopy(docs)
    bad[0]["windows"][1]["p"] = p - 1
    _rejects(check, *bad)
    bad = copy.deepcopy(docs)
    bad[0]["failures"].append([[0.0, 0.0], "window failed"])
    _rejects(check, *bad)
    bad = copy.deepcopy(docs)
    del bad[0]["windows"][-1]
    _rejects(check, *bad)


def test_invert(charged4):
    _window_cases(checks.check_invert, [_load(charged4, "curve.json")], 4)


def test_compact(charged4):
    docs = [_load(charged4, "compact.curve.json"),
            _load(charged4, "compact.nodes.json")]
    _window_cases(checks.check_compact, docs, 2)
    bad = copy.deepcopy(docs)
    bad[1]["nodes"].append(_load(charged4, "nodes.json")["nodes"][0])
    _rejects(checks.check_compact, *bad)


# -- residues -----------------------------------------------------------------

def test_residues(charged4):
    doc = _load(charged4, "nodes.json")
    checks.check_residues(doc)
    for path, tol in ((("point", 1), checks.NODE_POINT_TOL),
                      (("charges", 2, 0), checks.CHARGE_TOL)):
        for factor, ok in ((0.5, True), (1.5, False)):
            bad = copy.deepcopy(doc)
            target = bad["nodes"][0]
            for key in path:
                target = target[key]
            _shift(target, factor * tol)
            if ok:
                checks.check_residues(bad)
            else:
                _rejects(checks.check_residues, bad)
    bad = copy.deepcopy(doc)
    bad["nodes"][0]["branches"].pop()
    _rejects(checks.check_residues, bad)
    bad = copy.deepcopy(doc)
    bad["nodes"].append(copy.deepcopy(bad["nodes"][0]))
    _rejects(checks.check_residues, bad)


# -- characterize -------------------------------------------------------------

def test_characterize(charged4):
    doc = _load(charged4, "caract.json")
    checks.check_characterize(doc)
    bad = copy.deepcopy(doc)
    bad["passed"] = False
    _rejects(checks.check_characterize, bad)
    bad = copy.deepcopy(doc)
    bad["orientation"]["verdict"] = "gamma"
    _rejects(checks.check_characterize, bad)


# -- inputs ---------------------------------------------------------------------

def test_inputs_depend_on_the_seed_only(tmp_path):
    workload = inputs.WORKLOADS["charged4-small"]
    inputs.write_inputs(workload, 3, str(tmp_path / "a"))
    inputs.write_inputs(workload, 3, str(tmp_path / "b"))
    inputs.write_inputs(workload, 4, str(tmp_path / "c"))
    same = [(tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
            for f in os.listdir(tmp_path / "a")]
    assert all(same)
    assert (tmp_path / "a" / "invert.json").read_bytes() \
        != (tmp_path / "c" / "invert.json").read_bytes()
