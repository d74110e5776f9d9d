"""The shipped scenario files are what scripts/make_scenarios.py writes.

This pins the prescribed forms, and the theta samples they give, to the
bits of the committed configs and derived datum files.
"""
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"


def test_generated_scenarios_match_shipped(tmp_path):
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / "make_scenarios.py"),
                           "--outdir", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    shipped = sorted(p.name for p in SCENARIOS.glob("*.json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == shipped
    assert len(shipped) == 29
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (SCENARIOS / name).read_bytes(), name
