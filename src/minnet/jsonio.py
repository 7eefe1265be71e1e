"""JSON text in and out: reading documents, typed numbers, writing files.

numpy-free, so that a command that only reads and writes text (`export`)
never imports numpy.  Every reader and writer of net, grid, orbit, seed and
report files goes through these functions; `dnet` reads net and grid
documents with them.
"""

from __future__ import annotations

import json
import math
import re

from .errors import BadParameter, ParseError

# A lattice edge of a surface net must be longer than this.  It lives here,
# in the layer every command loads, because both the numpy-free reader
# (dnet) and the array layer (net) test it.
MIN_EDGE = 1e-12
# The largest absolute value of a coordinate, normal component or label in a
# net or grid file (the dnet module docstring derives it), and of a seed
# parameter.  It lives here because generate reads seed files without dnet.
MAX_MAGNITUDE = 1e50


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite float in output")
    return format(float(x), ".17g")


def json_list(items) -> str:
    return "[" + ", ".join(items) + "]"


def write_text(path, text: str) -> None:
    """Write a formatted document; BadParameter naming the path when the
    file cannot be opened or written."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise BadParameter(f"cannot write {path}: {exc.strerror or exc}") from exc


def json_int(value) -> int:
    """An index read from JSON: an integer, or a float of integral value
    such as the -0.0 of a "-0" token.  ValueError for anything else, booleans
    and fractions included, which int() would silently truncate."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"{value!r} is not an integer")


def json_float(value) -> float:
    """A coordinate, label or parameter read from JSON: an integer or a
    float, as a float.  ValueError for anything else, booleans and strings
    included, which float() and numpy would read as numbers."""
    if type(value) is float:
        return value
    if type(value) is int:
        return float(value)
    raise ValueError(f"{value!r} is not a number")


def _parse_int(text: str):
    """A JSON integer; "-0" is the -0.0 that _fmt_float writes."""
    return -0.0 if text == "-0" else int(text)


# Only a document that may hold a "-0" token pays for calling _parse_int per
# integer; an exponent such as 1e-0 also matches, which costs only time.
_NEGATIVE_ZERO = re.compile(r"-0(?![\w.])")


def load_json(path):
    """The JSON document in a file; ParseError with context on failure, naming the
    file when it cannot be opened, is not UTF-8, nests too deep or has too long an int."""
    try:
        with open(path) as fh:
            text = fh.read()
        return json.loads(text, parse_int=_parse_int if _NEGATIVE_ZERO.search(text) else None)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (OSError, RecursionError, ValueError) as exc:   # UnicodeDecodeError is a ValueError
        raise ParseError(f"cannot read {path}: {exc}") from exc
