import ast
import gc
import json
import os
import pathlib
import shutil

import numpy as np
import pytest

from nodal_idn import cli, jsonio
from nodal_idn.dirichlet import DNDatum
from nodal_idn.errors import ModelError
from nodal_idn.model import BoundaryCurve

REPO = pathlib.Path(__file__).resolve().parents[1]

DOC = {"schema": "x/1", "values": np.arange(5) * 0.1, "z": 1.0 - 2.0j}


def test_rewrite_matches_fresh_write(tmp_path):
    fresh = tmp_path / "fresh.json"
    jsonio.dump(DOC, fresh)
    again = tmp_path / "again.json"
    again.write_text("stale and longer than the document " * 20)
    jsonio.dump(DOC, again)
    jsonio.dump(DOC, again)
    assert again.read_bytes() == fresh.read_bytes()
    assert jsonio.load(again)["z"] == [1.0, -2.0]


def test_symlink_target_is_written_through(tmp_path):
    target = tmp_path / "target.json"
    target.write_text("{}")
    link = tmp_path / "link.json"
    os.symlink(target, link)
    jsonio.dump(DOC, link)
    assert link.is_symlink()
    assert jsonio.load(target)["schema"] == "x/1"


def _bits(pairs):
    return np.asarray(pairs, dtype=float).view(np.uint64)


def test_encode_complex_array_matches_per_element_pairs():
    tiny = np.nextafter(0.0, 1.0)
    values = np.array([-0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1e308,
                       -1e308, 0.1, 1.0 / 3.0])
    z = np.empty((values.size, values.size), dtype=complex)
    z.real = values[:, None]        # set the parts directly: arithmetic
    z.imag = values[None, ::-1]     # would lose -0.0 and mix nan into both
    for a in (z[3, 4], z[0], z, z.T, z[:, ::3]):
        want = [[float(c.real), float(c.imag)] for c in np.asarray(a).ravel()]
        got = jsonio.encode_complex_array(a)
        assert isinstance(got, list) and len(got) == len(want)
        assert all(isinstance(p, list) and len(p) == 2 for p in got)
        assert np.array_equal(_bits(got), _bits(want))
    assert jsonio.encode_complex_array([1, 2.5]) == [[1.0, 0.0], [2.5, 0.0]]


def test_dump_encodes_numpy_and_complex_values(tmp_path):
    doc = {"int": np.int64(7), "f32": np.float32(0.1), "f64": np.float64(0.1),
           "z": complex(1.5, -2.0),
           "grid": np.array([[1 + 2j, 3 - 4j], [0.25, 0.5j]]),
           "tuple": (1, 2.5, "x", None, True)}
    path = tmp_path / "doc.json"
    jsonio.dump(doc, path)
    assert jsonio.load(path) == {
        "int": 7, "f32": 0.10000000149011612, "f64": 0.1,
        "z": [1.5, -2.0],
        "grid": [[[1.0, 2.0], [3.0, -4.0]], [[0.25, 0.0], [0.0, 0.5]]],
        "tuple": [1, 2.5, "x", None, True]}


def test_dump_rejects_unsupported_types(tmp_path):
    path = tmp_path / "doc.json"
    for bad in (object(), {1, 2}, np.bool_(True), b"bytes"):
        with pytest.raises(TypeError):
            jsonio.dump({"x": [bad]}, path)
        assert not path.exists()


def test_dump_format_is_pinned(tmp_path):
    path = tmp_path / "doc.json"
    jsonio.dump({"b": [1, 2.5, -0.0, float("nan")], "a": {"y": 1, "x": None},
                 "c": "é"}, path)
    assert path.read_bytes() == (
        '{"a":{"x":null,"y":1},"b":[1,2.5,-0.0,NaN],"c":"\\u00e9"}\n'
    ).encode("ascii")


def test_decode_complex_array_round_trips():
    z = np.array([1 + 2j, -0.0 - 1e-310j, np.inf + 0j, 1e308 - 0.1j])
    pairs = jsonio.encode_complex_array(z)
    assert np.array_equal(jsonio.decode_complex_array(pairs).view(float),
                          z.view(float))
    mixed = jsonio.decode_complex_array([1.5, [2.0, -3.0], 4, [0, 1]])
    assert mixed.dtype == complex
    assert mixed.tolist() == [1.5, 2 - 3j, 4, 1j]
    reals = jsonio.decode_complex_array([0.5, -2, 1e-300])
    assert reals.tolist() == [0.5, -2, 1e-300]
    assert jsonio.decode_complex_array([]).shape == (0,)


@pytest.mark.parametrize("items", [[[1.0, 2.0], [1.0]],
                                   [[1.0, 2.0], ["a", "b"]],
                                   [[1.0, 2.0], None],
                                   [[1.0, 2.0], [1.0, 0.0, 5.0]],
                                   [[1.0, 0.0, 5.0]], [["1", "2"]], 5, None])
def test_decode_complex_array_rejects_malformed_entries(items):
    with pytest.raises(ModelError):
        jsonio.decode_complex_array(items)


@pytest.mark.parametrize("pair", [10 ** 400, [10 ** 400, 0], [0.5, -10 ** 400]],
                         ids=["real", "re", "im"])
def test_integer_beyond_float_range_is_a_model_error(pair):
    with pytest.raises(ModelError, match="too large for a float"):
        jsonio.decode_complex(pair)
    with pytest.raises(ModelError, match="too large for a float"):
        jsonio.decode_complex_array([[1.0, 2.0], pair])


def test_dump_bytes_match_the_checked_encoder(tmp_path, monkeypatch):
    # dump skips the circular-reference map and builds each document itself;
    # the bytes of every document a charged4 run writes stay those of the
    # default encoder on the same document
    for f in (REPO / "scenarios").glob("charged4.*.json"):
        shutil.copy(f, tmp_path)
    written = []
    real_dump = jsonio.dump

    def record(obj, path):
        real_dump(obj, path)
        written.append((obj, path))

    monkeypatch.setattr(jsonio, "dump", record)
    monkeypatch.chdir(tmp_path)
    for command in ("forward", "invert", "residues", "characterize"):
        assert cli.main([command, "--config", f"charged4.{command}.json"]) == 0
    assert [os.path.basename(path) for _, path in written] == [
        "charged4.datum.json", "charged4.curve.json", "charged4.nodes.json",
        "charged4.caract.json"]
    for obj, path in written:
        want = json.dumps(obj.to_json(), sort_keys=True,
                          separators=(",", ":")) + "\n"
        assert pathlib.Path(path).read_text(encoding="utf-8") == want, path


class _Doc:
    """An engine object whose document is built inside dump."""

    def __init__(self, fail=False):
        self.fail = fail

    def to_json(self):
        assert not gc.isenabled(), "to_json ran with the collector on"
        if self.fail:
            raise ModelError("forced failure")
        return {"schema": "x/1", "z": [[1.0, 2.0]]}


def _decode(doc):
    assert not gc.isenabled(), "decode ran with the collector on"
    return doc["z"]


def _fail(doc):
    raise ModelError("forced failure")


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("fail", [False, True], ids=["ok", "error"])
def test_collector_state_is_restored(tmp_path, enabled, fail):
    path = tmp_path / "doc.json"
    jsonio.dump({"schema": "x/1", "z": [[1.0, 2.0]]}, path)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        if fail:
            with pytest.raises(ModelError, match="forced failure"):
                jsonio.load(path, _fail)
        else:
            assert jsonio.load(path, _decode) == [[1.0, 2.0]]
        assert gc.isenabled() is enabled
        if fail:
            with pytest.raises(ModelError, match="forced failure"):
                jsonio.dump(_Doc(fail=True), path)
        else:
            jsonio.dump(_Doc(), path)
            assert jsonio.load(path) == {"schema": "x/1", "z": [[1.0, 2.0]]}
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_no_collection_while_a_large_datum_crosses_the_file(tmp_path):
    # about 20 N two-float lists go through each side; with the collector
    # running they trigger dozens of scans, a full one among them
    n = 2048
    rng = np.random.default_rng(5)

    def rows(k):
        return rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))

    datum = DNDatum(BoundaryCurve.circle(1.5, n), rows(3), rows(3), rows(2),
                    {"min_image_gap": 0.1, "min_speed": 0.2})
    path = tmp_path / "datum.json"
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(count)
    try:
        jsonio.dump(datum, path)
        written = starts[:]
        back = jsonio.load(path, DNDatum.from_json)
    finally:
        gc.callbacks.remove(count)
    assert written == [] and starts == []
    assert np.array_equal(back.theta, datum.theta)
    assert np.array_equal(back.curve.positions, datum.curve.positions)


def test_only_jsonio_touches_the_collector():
    for source in sorted((REPO / "src" / "nodal_idn").glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        names = {alias.name for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names}
        modules = {node.module for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)}
        touches = "gc" in names or "gc" in modules
        assert touches == (source.name == "jsonio.py"), source.name
