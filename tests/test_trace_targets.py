"""The benchmark's span targets (perfbench/spans.py) name live attributes.

The tracer swaps each target attribute for a wrapper and restores it
afterwards; a rename in the package would make ``--trace 1`` fail, so it
fails here first.
"""
import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_and_is_restored():
    spans = _load_spans()
    originals = []
    for module_name, owner, attr, *_ in spans.TARGETS:
        module = importlib.import_module(f"nodal_idn.{module_name}")
        target = getattr(module, owner) if owner else module
        label = f"nodal_idn.{module_name}.{owner + '.' if owner else ''}{attr}"
        assert attr in vars(target), f"{label} is gone"
        originals.append((label, target, attr, vars(target)[attr]))
    tracer = spans.Tracer()
    try:
        tracer.install()
        for label, target, attr, original in originals:
            assert vars(target)[attr] is not original, f"{label} was not wrapped"
    finally:
        tracer.uninstall()
    for label, target, attr, original in originals:
        assert vars(target)[attr] is original, f"{label} was not restored"
