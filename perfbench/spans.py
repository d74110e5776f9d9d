"""Spans around the layers of ``nodal_idn``, installed from outside.

``install`` swaps module and class attributes for wrappers that record a
span per call: a name, a start, an end, the id of the parent span and the
counts taken at that boundary.  Names bound by ``from ... import`` are
wrapped in every module that looks them up.  A call made inside a span of
the same name (``DiskDomain.boundary`` building a circle, ``moment`` calling
``moments``) is not split into a second span.  Spans stay in memory until
``write_jsonl``; ``summarize`` turns them into self times and counts.

Nothing inside the package is edited, and ``uninstall`` restores every
attribute it swapped.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time


def _candidates(args, kwargs, result):
    return {"candidates": len(result)}


def _kernel_points(args, kwargs, result):
    # MomentEngine.moments(orders, xi) / theta_moments(ell, orders, xi)
    return {"points": int(result.shape[0] * result.shape[1])}


def _path_points(args, kwargs, result):
    return {"points": int(result.shape[0])}


def _sweep_windows(args, kwargs, result):
    return {"windows": len(result.windows)}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


# (module, owner class or None, attribute, kind, span name, counts)
# kind: "function", "method" or "static"
TARGETS = (
    ("model", "BoundaryCurve", "from_json", "static", "model.curve_build", None),
    ("model", "BoundaryCurve", "circle", "static", "model.curve_build", None),
    ("model", "BoundaryCurve", "reversed", "method", "model.curve_build", None),
    ("model", "DiskDomain", "boundary", "method", "model.curve_build", None),
    ("dirichlet", None, "check_hypothesis_a", "function", "dirichlet.hypothesis_a", None),
    ("dirichlet", "DNDatum", "from_json", "static", "dirichlet.datum_decode", None),
    ("dirichlet", None, "solve_nodal_dirichlet", "function", "dirichlet.solve", None),
    ("dirichlet", None, "compute_theta", "function", "dirichlet.theta", None),
    ("greens", "DiskHarmonicExtension", "dz", "method", "greens.disk_dz", None),
    ("greens", "AnnulusHarmonicSolver", "__init__", "method", "greens.annulus_assemble", None),
    ("greens", "AnnulusHarmonicSolver", "extend", "method", "greens.annulus_extend", None),
    ("greens", "AnnulusHarmonicExtension", "boundary_dz", "method", "greens.annulus_trace", None),
    ("moments", "MomentEngine", "moments", "method", "moments.kernel", _kernel_points),
    ("moments", "MomentEngine", "theta_moments", "method", "moments.kernel", _kernel_points),
    ("moments", None, "recover_fibers", "function", "moments.roots", None),
    ("characterize", None, "recover_fibers", "function", "moments.roots", None),
    ("moments", None, "recover_form_quotient", "function", "moments.quotient", None),
    ("nodes", None, "recover_form_quotient", "function", "moments.quotient", None),
    ("moments", None, "continue_fibers", "function", "moments.continuation", _path_points),
    ("nodes", None, "continue_fibers", "function", "moments.continuation", _path_points),
    ("moments", None, "analyze_window", "function", "moments.window", None),
    ("moments", None, "sweep_windows", "function", "moments.sweep", _sweep_windows),
    ("cli", None, "sweep_windows", "function", "moments.sweep", _sweep_windows),
    ("oracles", None, "polynomial_roots", "function", "oracles.polynomial_roots", None),
    ("nodes", None, "locate_singularities", "function", "nodes.locate", _candidates),
    ("cli", None, "locate_singularities", "function", "nodes.locate", _candidates),
    ("nodes", None, "analyze_singular_point", "function", "nodes.analyze", None),
    ("cli", None, "analyze_singular_point", "function", "nodes.analyze", None),
    ("nodes", None, "track_branch_contour", "function", "nodes.contour", None),
    ("nodes", None, "classify_and_partition", "function", "nodes.classify", None),
    ("cli", None, "classify_and_partition", "function", "nodes.classify", None),
    ("characterize", None, "orientation_probe", "function", "characterize.orientation", None),
    ("characterize", None, "green_identity_residual", "function", "characterize.green_identity", None),
    ("characterize", None, "pencil_fibers", "function", "characterize.pencil", None),
    ("jsonio", None, "load", "function", "jsonio.load", None),
    ("jsonio", None, "dump", "function", "jsonio.dump", _bytes_written),
    ("cli", None, "main", "function", "cli.main", None),
)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._saved: list[tuple] = []

    def wrap(self, fn, name: str, counts=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1]["name"] == name:
                return fn(*args, **kwargs)
            span = {"id": len(tracer.spans), "name": name,
                    "parent": stack[-1]["id"] if stack else None}
            tracer.spans.append(span)
            stack.append(span)
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                stack.pop()
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        for module_name, owner, attr, kind, name, counts in TARGETS:
            module = importlib.import_module(f"nodal_idn.{module_name}")
            target = getattr(module, owner) if owner else module
            original = target.__dict__[attr]
            fn = original.__func__ if kind == "static" else original
            wrapped = self.wrap(fn, name, counts)
            setattr(target, attr, staticmethod(wrapped) if kind == "static" else wrapped)
            self._saved.append((target, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def summarize(spans: list[dict]) -> dict:
    """Self seconds, span counts and summed count fields per span name.

    Self time is a span's duration minus the durations of its direct
    children (spans run on one thread, so children never overlap).  Root
    spans' full durations are summed under ``"<name>.total_s"``.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_ns[span["parent"]] += span["end"] - span["start"]
    by_name = {s["id"]: s["name"] for s in spans}
    out: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for span in spans:
        dur = span["end"] - span["start"]
        name = span["name"]
        add(f"{name}.self_s", (dur - child_ns[span["id"]]) * 1e-9)
        add(f"{name}.calls", 1)
        for key, value in span.items():
            if key not in ("id", "name", "parent", "start", "end"):
                add(f"{name}.{key}", value)
        if span["parent"] is None:
            add(f"{name}.total_s", dur * 1e-9)
        # recover_fibers calls made inside a continuation, at any depth
        if name == "moments.roots":
            parent = span["parent"]
            while parent is not None and by_name[parent] != "moments.continuation":
                parent = spans[parent]["parent"]
            if parent is not None:
                add("moments.continuation.solves", 1)
    return out
