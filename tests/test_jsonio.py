import os

import numpy as np
import pytest

from nodal_idn import jsonio
from nodal_idn.errors import ModelError

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
