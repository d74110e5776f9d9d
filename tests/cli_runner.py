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


MODULES_PROBE = ("import sys; from nodal_idn import cli; code = cli.main(); "
                 "print(*sorted(sys.modules)); sys.exit(code)")


def run_cli(workdir, command, config, out=None, modules=False):
    """Run one CLI command from `workdir`; stdout/stderr are captured as text.
    With `modules`, stdout ends with a line naming every module the child
    holds after the command."""
    entry = ["-c", MODULES_PROBE] if modules else ["-m", "nodal_idn.cli"]
    args = [sys.executable, *entry, command, "--config", config]
    if out:
        args += ["--out", out]
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (str(SRC) + os.pathsep + inherited if inherited
                         else str(SRC))
    return subprocess.run(args, cwd=workdir, env=env, capture_output=True,
                          text=True)
