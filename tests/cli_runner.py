"""Run the nodal-idn CLI as a separate process on the in-tree package.

The CLI tests start `python -m nodal_idn.cli` inside temporary working
directories, where a relative `PYTHONPATH` entry such as the `src` of the
documented test command does not resolve.  The child therefore gets the
absolute `src` directory of this checkout ahead of whatever it inherits,
whether or not the package is installed.
"""
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_cli(workdir, command, config, out=None):
    """Run one CLI command from `workdir`; stdout/stderr are captured as text."""
    args = [sys.executable, "-m", "nodal_idn.cli", command, "--config", config]
    if out:
        args += ["--out", out]
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (str(SRC) + os.pathsep + inherited if inherited
                         else str(SRC))
    return subprocess.run(args, cwd=workdir, env=env, capture_output=True,
                          text=True)
