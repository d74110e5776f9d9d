"""charged4 at N = 16384 runs forward and invert in bounded memory.

Curve validation and hypothesis A are sort-and-grid checks, so no stage
builds an N x N array.  Each stage runs in its own process, which reports
its exit code and the peak resident size of its own address space.
"""
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from nodal_idn import jsonio
from reference import scenarios

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
N = 16384
PEAK_MB = 300

# ru_maxrss of an exec'd child starts from its parent's peak on Linux, so
# the child reads VmHWM, the high-water mark of its own address space
CHILD = """
import json, sys
from nodal_idn import cli
code = cli.main([sys.argv[1], "--config", sys.argv[2]])
status = open("/proc/self/status").read()
hwm_kb = int(status.split("VmHWM:")[1].split()[0])
print(json.dumps({"code": code, "peak_mb": hwm_kb / 1024}))
"""


def _encode(values) -> list:
    return jsonio.encode_complex_array(np.asarray(values, dtype=complex))


@pytest.fixture(scope="module")
def large_configs(tmp_path_factory):
    path = tmp_path_factory.mktemp("large_n")
    scn = scenarios.charged4(N)
    jsonio.dump(scn.model.to_json(), path / "model.json")
    jsonio.dump({
        "command": "forward", "model": "model.json", "out": "datum.json",
        "families": [f.to_json() for f in scn.families],
        "prescriptions": [{"poles": _encode(p.poles), "residues": _encode(p.residues),
                           "poly": _encode(p.poly)} for p in scn.prescriptions],
        "boundary_values": [_encode(u) for u in scn.boundary_values],
    }, path / "forward.json")
    jsonio.dump({"command": "invert", "datum": "datum.json", "out": "curve.json",
                 "windows": scn.plan.to_json()}, path / "invert.json")
    return path


def _run_stage(workdir, stage):
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    proc = subprocess.run([sys.executable, "-c", CHILD, stage, f"{stage}.json"],
                          cwd=workdir, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_forward_then_invert_within_memory(large_configs):
    for stage in ("forward", "invert"):
        result = _run_stage(large_configs, stage)
        assert result["code"] == 0, stage
        assert result["peak_mb"] < PEAK_MB, (stage, result)
    curve = jsonio.load(large_configs / "curve.json")
    assert curve["schema"].startswith("nodal-idn/curve/")
