"""JSON helpers: complex values as [re, im] pairs, deterministic output."""
from __future__ import annotations

import json
import os
from typing import Any

import numpy as np


def encode_complex(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def encode_complex_array(a) -> list:
    return [encode_complex(z) for z in np.asarray(a).ravel()]


def decode_complex(pair) -> complex:
    if isinstance(pair, (int, float)):
        return complex(pair)
    return complex(pair[0], pair[1])


def decode_complex_array(items) -> np.ndarray:
    return np.array([decode_complex(p) for p in items], dtype=complex)


def _sanitize(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (np.complexfloating, complex)):
        return encode_complex(obj)
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dump(obj: dict, path) -> None:
    """Write a document deterministically: sorted keys, round-trip floats.

    An existing regular file is unlinked first: truncating a file that was
    just written forces a flush of its old blocks on ext4 (about 50 ms per
    MB), while a new file costs nothing extra.
    """
    text = json.dumps(_sanitize(obj), sort_keys=True, indent=1)
    if os.path.isfile(path) and not os.path.islink(path):
        os.unlink(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def require_schema(doc: dict, schema: str) -> None:
    found = doc.get("schema")
    if found != schema:
        raise ValueError(f"expected schema {schema!r}, found {found!r}")
