"""Benchmark of the nodal-idn CLI stages, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload charged4-small --seed 0 --seconds 30 --trace 0

A run writes the workload's inputs from closed forms (``inputs``), then
repeats whole passes through the workload's stages while another pass
still fits in ``--seconds``.  Every stage runs ``nodal_idn.cli.main`` in a
fresh Python process (``stage.py``) and its output is checked with numpy
alone (``checks``).
Each ``cli.main`` call is one operation; a non-zero exit code or a failed
check marks it failed.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 9
RUN_DEADLINE_S = 170.0      # a run must end within 180 s

sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

# per-layer metric -> key of spans.summarize; every time is a self time
LAYER_KEYS = {
    "model.curve_build_s": "model.curve_build.self_s",
    "model.curve_builds": "model.curve_build.calls",
    "dirichlet.hypothesis_a_s": "dirichlet.hypothesis_a.self_s",
    "dirichlet.datum_decode_s": "dirichlet.datum_decode.self_s",
    "dirichlet.solve_s": "dirichlet.solve.self_s",
    "dirichlet.solves": "dirichlet.solve.calls",
    "dirichlet.theta_s": "dirichlet.theta.self_s",
    "greens.disk_dz_s": "greens.disk_dz.self_s",
    "greens.disk_dz_calls": "greens.disk_dz.calls",
    "greens.annulus_assemble_s": "greens.annulus_assemble.self_s",
    "greens.annulus_assemblies": "greens.annulus_assemble.calls",
    "greens.annulus_extend_s": "greens.annulus_extend.self_s",
    "greens.annulus_extends": "greens.annulus_extend.calls",
    "greens.annulus_trace_s": "greens.annulus_trace.self_s",
    "moments.kernel_s": "moments.kernel.self_s",
    "moments.kernel_calls": "moments.kernel.calls",
    "moments.kernel_points": "moments.kernel.points",
    "moments.roots_s": "moments.roots.self_s",
    "moments.root_solves": "moments.roots.calls",
    "moments.quotient_s": "moments.quotient.self_s",
    "moments.quotient_solves": "moments.quotient.calls",
    "moments.continuation_s": "moments.continuation.self_s",
    "moments.continuation_points": "moments.continuation.points",
    "moments.continuation_solves": "moments.continuation.solves",
    "moments.window_s": "moments.window.self_s",
    "moments.windows": "moments.sweep.windows",
    "moments.window_attempts": "moments.window.calls",
    "moments.sweep_s": "moments.sweep.self_s",
    "oracles.polynomial_roots_s": "oracles.polynomial_roots.self_s",
    "oracles.polynomial_roots_calls": "oracles.polynomial_roots.calls",
    "nodes.locate_s": "nodes.locate.self_s",
    "nodes.analyze_s": "nodes.analyze.self_s",
    "nodes.contour_s": "nodes.contour.self_s",
    "nodes.classify_s": "nodes.classify.self_s",
    "nodes.candidates": "nodes.locate.candidates",
    "characterize.orientation_s": "characterize.orientation.self_s",
    "characterize.green_identity_s": "characterize.green_identity.self_s",
    "characterize.pencil_s": "characterize.pencil.self_s",
    "characterize.pencil_solves": "characterize.pencil.calls",
    "jsonio.load_s": "jsonio.load.self_s",
    "jsonio.dump_s": "jsonio.dump.self_s",
    "jsonio.bytes_written": "jsonio.dump.bytes",
    "cli.self_s": "cli.main.self_s",
}
STAGE_METRICS = {stage: f"cli.{stage.replace('-', '_')}_s"
                 for stage in inputs.ALL_STAGES}


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def environment() -> dict:
    """Interpreter, numpy, BLAS and CPU facts of this run."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "cpu_count": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("NODAL_IDN_LOG", None)
    return env


def set_up(workload, seed: int, directory: str) -> tuple[dict, float]:
    """Write the inputs and start one Python process with nodal_idn
    imported; returns the config paths and the seconds it took."""
    shutil.rmtree(directory, ignore_errors=True)
    start = time.perf_counter()
    paths = inputs.write_inputs(workload, seed, directory)
    proc = subprocess.run([sys.executable, "-c", "import nodal_idn.cli"],
                          cwd=directory, env=child_env(), capture_output=True,
                          text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import nodal_idn: {proc.stderr.strip()}")
    return paths, time.perf_counter() - start


def run_stage(stage: str, config: str, reps: int, directory: str,
              timeout: float, trace: bool) -> dict:
    result_path = os.path.join(directory, f"{stage}.result.json")
    argv = [sys.executable, os.path.join(HERE, "stage.py"), stage, config,
            str(reps), result_path]
    if trace:
        argv.append(os.path.join(directory, f"{stage}.trace.jsonl"))
    try:
        proc = subprocess.run(argv, cwd=directory, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"codes": [-1] * reps, "times": [], "maxrss_kb": 0,
                "stderr": f"stage process killed after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"codes": [-1] * reps, "times": [], "maxrss_kb": 0,
                "stderr": proc.stderr[-2000:]}
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def run_pass(workload, paths: dict, directory: str, deadline: float,
             trace: bool, log) -> dict:
    """One pass through the workload's stages."""
    record = {"traced": trace, "stages": {}, "attempted": 0, "failed": 0,
              "check_failures": 0, "layers": {}}
    for stage, reps in workload.stages:
        timeout = max(1.0, deadline - time.perf_counter())
        res = run_stage(stage, paths[stage], reps, directory, timeout, trace)
        bad = sum(1 for code in res["codes"] if code != 0)
        if bad == 0:
            try:
                checks.check_stage(workload, stage, directory)
            except (checks.CheckError, OSError, ValueError, KeyError) as exc:
                log(f"{stage}: check failed: {exc}")
                record["check_failures"] += reps
                bad = reps
        else:
            log(f"{stage}: exit codes {res['codes']}: {res['stderr'].strip()}")
        record["attempted"] += reps
        record["failed"] += bad
        record["stages"][stage] = {
            "time_s": statistics.median(res["times"]) if res["times"] else None,
            "maxrss_mb": res["maxrss_kb"] / 1024.0}
        for key, value in res.get("layers", {}).items():
            record["layers"][key] = record["layers"].get(key, 0) + value / reps
    times = [s["time_s"] for s in record["stages"].values()]
    record["pipeline_s"] = sum(times) if None not in times else None
    record["peak_rss_mb"] = max(s["maxrss_mb"] for s in record["stages"].values())
    return record


def median_of(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


# stages every workload runs; the others are reported by the traced run
END_TO_END_STAGES = ("forward", "invert", "residues", "characterize")


def end_to_end(setups: list, passes: list) -> dict:
    metrics = {"setup_s": (statistics.median(setups), "s"),
               "pipeline_s": (median_of(p["pipeline_s"] for p in passes), "s")}
    for stage in END_TO_END_STAGES:
        metrics[f"{stage}_s"] = (median_of(p["stages"][stage]["time_s"]
                                           for p in passes), "s")
    metrics["peak_rss_mb"] = (median_of(p["peak_rss_mb"] for p in passes), "MB")
    return metrics


def per_layer(workload, passes: list) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    for name, key in LAYER_KEYS.items():
        metrics[name] = (median_of(p["layers"].get(key, 0) for p in traced),
                         metric_unit(name))
    run = dict(workload.stages)
    for stage, name in STAGE_METRICS.items():
        value = median_of(p["stages"][stage]["time_s"] for p in plain) \
            if stage in run else 0.0
        metrics[name] = (value, "s")
    traced_s = median_of(p["pipeline_s"] for p in traced)
    metrics["trace.pipeline_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - median_of(p["pipeline_s"]
                                                        for p in plain), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    if not os.path.isfile(os.path.join(SRC, "nodal_idn", "cli.py")):
        log(f"perfbench: no nodal_idn sources under {SRC}")
        return 2
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    workload = inputs.WORKLOADS[args.workload]
    directory = os.path.join(OUT, workload.name)
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True), flush=True)
    try:
        setups = [set_up(workload, args.seed, directory) for _ in range(SETUP_REPEATS)]
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        log(f"perfbench: set-up failed: {exc}")
        return 1
    paths = setups[-1][0]

    passes = []
    measure_start = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced passes
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(workload, paths, directory, deadline, traced, log))
        elapsed = time.perf_counter() - measure_start
        # stop before a further pass would run past --seconds
        full = elapsed + elapsed / len(passes) > args.seconds
        if (full and len(passes) >= 1 + args.trace) or time.perf_counter() >= deadline:
            break

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    check_failures = sum(p["check_failures"] for p in passes)
    if args.trace:
        metrics = per_layer(workload, passes)
    else:
        metrics = end_to_end([s for _, s in setups], passes)
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:18s} {name:34s} {value:14.6f} {unit}")
    print(f"{workload.name:18s} passes {len(passes)}, attempted {attempted}, "
          f"failed {failed}, wall {time.perf_counter() - started:.1f} s")
    with open(os.path.join(directory, f"result-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed,
                   "seconds": args.seconds, "environment": env,
                   "setups_s": [s for _, s in setups], "passes": passes}, fh,
                  indent=1)
    result = {"correct": check_failures == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
