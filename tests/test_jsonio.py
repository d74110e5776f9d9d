import os

import numpy as np

from nodal_idn import jsonio

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
