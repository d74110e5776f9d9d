"""Every input field, changed one at a time, ends in a documented exit.

Each leaf of the graph scenario's configs, model, datum and curve files and
of compact.json (a list longer than 3 at its first entry only, an empty
list or object counted as a leaf) is replaced in turn by each of MUTATIONS.
The decoders run on every mutation: the config fields of cli.FIELDS with
the candidate and compact decoders, and the datum and curve files'
``from_json``.  The whole command runs where a mutated value reaches the
engine: every forward config and model field (a forward on the graph's 256
samples takes a few ms), and the window, contour and sample-count fields of
invert, residues, characterize and compact (compact at n = 192).

A documented outcome is exit 0 or 2-5, a decoder that returns or raises a
ModelError, or exit 1 for a config entry that names no readable file.
"""
import contextlib
import io
import json
import math
import pathlib
import shutil

import pytest

from nodal_idn import cli
from nodal_idn.dirichlet import DNDatum
from nodal_idn.errors import ModelError
from nodal_idn.moments import ReconstructedCurve

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
MUTATIONS = (None, True, "x", -1, 0, 10 ** 400, math.nan, math.inf, [], {},
             [[]], [1, 2, 3], 2 ** 62)
# the fields whose value the engine reads, by command
ENGINE_FIELDS = {"invert": ("windows",), "residues": ("contour_radius",),
                 "characterize": ("window",),
                 "compact": ("windows", "contour_radius", "n")}


def leaves(doc, path=()):
    """The key path of every leaf of a JSON document."""
    if isinstance(doc, (dict, list)) and doc:
        items = doc.items() if isinstance(doc, dict) \
            else list(enumerate(doc))[:1 if len(doc) > 3 else None]
        for key, value in items:
            yield from leaves(value, path + (key,))
    else:
        yield path


def mutants(doc, roots=None):
    """(path, value) per mutation of a leaf under ``roots`` (every leaf
    without), with ``doc`` edited in place until the next one."""
    for path in leaves(doc):
        if roots is not None and path[0] not in roots:
            continue
        node = doc
        for key in path[:-1]:
            node = node[key]
        original = node[path[-1]]
        for value in MUTATIONS:
            node[path[-1]] = value
            yield path, value
        node[path[-1]] = original


def run(workdir, command, doc) -> str | None:
    """Run ``command`` in process on the config ``doc``; None if its
    outcome is documented, else what happened."""
    (workdir / "sweep.json").write_text(json.dumps(doc))
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(workdir / "sweep.json")])
    except Exception as exc:        # a traceback: exit 1
        return f"{type(exc).__name__}: {exc}"
    if code in (0, 2, 3, 4, 5) or code == 1 and "FileNotFoundError" in err.getvalue():
        return None
    return f"exit {code}: {err.getvalue()}"


def decode(decoder, *args) -> str | None:
    try:
        decoder(*args)
    except ModelError:
        pass
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def decode_config(command, doc, workdir):
    cfg = cli.PipelineConfig(doc, None, str(workdir))
    for path, (commands, *_) in cli.FIELDS.items():
        if command in commands.split():
            cfg[path]
    if command == "characterize":
        cli._candidates(cfg)
    if command == "compact":
        cli._compact_potentials(cfg)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The graph scenario with its datum and curve, each config writing
    to its own sweep output, and compact.json."""
    path = tmp_path_factory.mktemp("sweep")
    shutil.copy(SCENARIOS / "graph.model.json", path)
    shutil.copy(SCENARIOS / "compact.json", path)
    for command in ("forward", "invert", "residues", "characterize"):
        doc = json.loads((SCENARIOS / f"graph.{command}.json").read_text())
        doc["out"] = f"sweep.{command}.out"
        (path / f"graph.{command}.json").write_text(json.dumps(doc))
    for command, made in (("forward", "datum"), ("invert", "curve")):
        assert cli.main([command, "--config", str(path / f"graph.{command}.json"),
                         "--out", str(path / f"graph.{made}.json")]) == 0
    return path


def _config(workdir, command):
    name = "compact.json" if command == "compact" else f"graph.{command}.json"
    return json.loads((workdir / name).read_text())


@pytest.mark.parametrize("command", ["invert", "residues", "characterize",
                                     "compact"])
def test_config_decoders(workdir, command):
    doc = _config(workdir, command)
    bad = [(path, value, outcome) for path, value in mutants(doc)
           if (outcome := decode(decode_config, command, doc, workdir))]
    assert not bad


@pytest.mark.parametrize("name, decoder", [("datum", DNDatum.from_json),
                                           ("curve", ReconstructedCurve.from_json)])
def test_file_decoders(workdir, name, decoder):
    doc = json.loads((workdir / f"graph.{name}.json").read_text())
    bad = [(path, value, outcome) for path, value in mutants(doc)
           if (outcome := decode(decoder, doc))]
    assert not bad


def test_forward_config_and_model(workdir, monkeypatch):
    monkeypatch.chdir(workdir)      # where an output falls back to
    doc = _config(workdir, "forward")
    bad = [(path, value, outcome) for path, value in mutants(doc)
           if (outcome := run(workdir, "forward", doc))]
    model = json.loads((workdir / "graph.model.json").read_text())
    doc["model"] = "sweep.model.json"
    for path, value in mutants(model):
        (workdir / "sweep.model.json").write_text(json.dumps(model))
        if outcome := run(workdir, "forward", doc):
            bad.append((("model",) + path, value, outcome))
    assert not bad


@pytest.mark.parametrize("command", sorted(ENGINE_FIELDS))
def test_engine_fields(workdir, command, monkeypatch):
    monkeypatch.chdir(workdir)
    doc = _config(workdir, command)
    if command == "compact":
        doc["n"] = 192
    bad = [(path, value, outcome)
           for path, value in mutants(doc, ENGINE_FIELDS[command])
           if (outcome := run(workdir, command, doc))]
    assert not bad
