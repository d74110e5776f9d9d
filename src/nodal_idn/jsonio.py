"""JSON helpers: complex values as [re, im] pairs, deterministic output.

``load`` and ``dump`` own the file boundary of every stage.  Both run with
CPython's cyclic garbage collector paused: a datum of N samples holds about
10 N two-float lists, and each automatic collection in that span would
rescan all of them for cycles that a JSON tree cannot hold.  No other
module touches the collector.
"""
from __future__ import annotations

import contextlib
import gc
import json
import numbers
import os
import sys

import numpy as np

from .errors import ModelError


def encode_complex(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def encode_complex_array(a) -> list:
    """[re, im] pairs of every element of ``a``, flattened in C order."""
    return np.asarray(a, dtype=complex).ravel().view(float).reshape(-1, 2).tolist()


def decode_complex(pair) -> complex:
    """A real number or an [re, im] pair; anything else, or a number too
    large for a float, is a ModelError."""
    try:
        if isinstance(pair, numbers.Real):
            return complex(pair)
        if isinstance(pair, (list, tuple)) and len(pair) == 2 \
                and all(isinstance(x, numbers.Real) for x in pair):
            return complex(pair[0], pair[1])
    except OverflowError:       # an integer literal beyond the float range
        raise ModelError(f"number too large for a float in {pair!r}") from None
    raise ModelError(f"not a complex number: {pair!r}")


def decode_complex_array(items) -> np.ndarray:
    """A list of real numbers and [re, im] pairs as a complex array.

    A list of pairs alone, or of reals alone, is decoded in one numpy
    conversion; a mixed list entry by entry.
    """
    try:
        values = np.array(items)
    except ValueError:          # ragged entries
        values = None
    if values is not None and values.dtype.kind in "fi":
        if values.ndim == 2 and values.shape[1] == 2:
            return np.ascontiguousarray(values, dtype=float).view(complex).ravel()
        if values.ndim == 1:
            return values.astype(complex)
    if values is not None and values.ndim == 0:
        raise ModelError(f"not a list of complex numbers: {items!r}")
    return np.array([decode_complex(p) for p in items], dtype=complex)


# Value kinds: kind(value, name, bounds) decodes a JSON value or raises a
# ModelError that names it.

def decode_positive(value, name: str, _) -> float:
    """A finite positive number (an integer too large for a float is not)."""
    if type(value) not in (int, float) or not 0 < value <= sys.float_info.max:
        raise ModelError(f"{name} must be a finite positive number, not {value!r}")
    return float(value)


def decode_integer(value, name: str, bounds: tuple) -> int:
    """An integer in [least, most] = ``bounds``."""
    if type(value) is not int or not bounds[0] <= value <= bounds[1]:
        raise ModelError(f"{name} must be an integer in {list(bounds)}, not {value!r}")
    return value


def decode_complex_list(value, name: str, count: int | None) -> np.ndarray:
    """A list of ``count`` finite complex numbers, or of one or more."""
    try:
        values = decode_complex_array(value)
    except ModelError as exc:
        raise ModelError(f"{name}: {exc}") from None
    if values.size == 0 or count not in (None, values.size) \
            or not np.all(np.isfinite(values)):
        raise ModelError(f"{name} must be a list of {count or 'one or more'} "
                         f"finite complex numbers, not {value!r}")
    return values


def _encode_default(obj):
    """The JSON form of what the C encoder cannot write itself."""
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    if isinstance(obj, (complex, np.complexfloating)):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)!r}")


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector; restore its previous state on
    every exit, an exception included.

    Safe over the spans of ``load`` and ``dump``: the documents there are
    trees (``json`` parses only trees, and every ``to_json`` builds one),
    so reference counting alone frees them, and a pause leaves no cyclic
    garbage behind.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def dump(obj, path) -> None:
    """Write a document, or the ``to_json()`` document of an engine object,
    deterministically: one line, sorted keys, round-trip floats, through the
    C encoder (which ``indent`` would turn off).

    The collector stays paused from ``to_json`` to the write.  The document
    is a tree, so the encoder's circular-reference map is skipped; a cyclic
    document would end in a RecursionError instead of a ValueError.

    An existing regular file is unlinked first: truncating a file that was
    just written forces a flush of its old blocks on ext4 (about 50 ms per
    MB), while a new file costs nothing extra.
    """
    with _collector_paused():
        doc = obj if isinstance(obj, dict) else obj.to_json()
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                          check_circular=False, default=_encode_default)
        del doc                 # a built tree is freed inside the pause
        if os.path.isfile(path) and not os.path.islink(path):
            os.unlink(path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")


def load(path, decode=None):
    """The document of a JSON file, or ``decode(document)``.

    The collector stays paused from the parse through ``decode`` until the
    raw tree is released, so its two-float lists are never scanned.
    """
    with _collector_paused():
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if decode is None:
            return doc
        value = decode(doc)
        del doc
    return value


def require_schema(doc: dict, schema: str) -> None:
    """ModelError unless ``doc`` is a JSON object of the given schema."""
    found = doc.get("schema") if isinstance(doc, dict) else None
    if found != schema:
        raise ModelError(f"expected schema {schema!r}, found {found!r}")
