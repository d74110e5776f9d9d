"""One stage process: ``cli.main`` for one stage, called ``reps`` times.

Usage (from the workload's directory, with the package on PYTHONPATH):

    python3 stage.py <stage> <config> <reps> <result.json> [<trace.jsonl>]

``<stage>`` is a stage of ``inputs.ALL_STAGES``.  Writes a JSON object with
the wall time and exit code of every call and the peak RSS of the process.
The stage's previous outputs are removed before each call, outside the
timed region.  With a trace path, the layers are wrapped by
``spans.Tracer`` first, the spans are written there as JSONL and their
summary goes into the result.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from inputs import OUTPUTS, command  # noqa: E402
from spans import Tracer, summarize  # noqa: E402


def main(argv) -> int:
    stage, config, reps, result_path = argv[:4]
    trace_path = argv[4] if len(argv) > 4 else None
    from nodal_idn import cli

    tracer = None
    if trace_path:
        tracer = Tracer()
        tracer.install()
    times, codes = [], []
    stderr = io.StringIO()
    for _ in range(int(reps)):
        for name in OUTPUTS[stage]:
            if os.path.exists(name):
                os.unlink(name)
        with contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            code = cli.main([command(stage), "--config", config])
            times.append(time.perf_counter() - start)
        codes.append(int(code))
    result = {"times": times, "codes": codes,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "stderr": stderr.getvalue()[-2000:]}
    if tracer is not None:
        tracer.uninstall()
        tracer.write_jsonl(trace_path)
        result["layers"] = summarize(tracer.spans)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
