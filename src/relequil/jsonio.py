"""Deterministic JSON for reports and input files.

Reports must be byte-stable across runs: keys are emitted sorted, floats
with 17 significant digits (zero without a sign), rationals as exact "p/q"
strings, complex numbers as {"im": ..., "re": ...} objects.  The stdlib
encoder cannot pin float formatting, so emission is a small recursive
writer that dispatches on the exact type of each node and encodes each dict
key once per process.

Input files are read by the stdlib parser.  An exact matrix of ints and
"p/q" strings is converted in one pass to its cleared integers (M, d):
each string is split at "/", d is the least common denominator, and
``Matrix._from_cleared`` reduces (M, d); no ``Fraction`` is built per
entry.  A float matrix of ints and floats is converted to one float64 array
with one finiteness check.  Any other float matrix, and every refusal with
its message, goes entry by entry through ``scalar_from_data``.  Unknown
keys of a matrix object are refused (``check_keys``).
"""

from __future__ import annotations

import json
import math
import re
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .matrix_core import FLOAT64, RATIONAL, Matrix, ShapeError

__all__ = [
    "dumps",
    "scalar_from_data",
    "matrix_from_data",
    "check_keys",
    "load_json",
]


def _float_text(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("reports must not contain NaN or infinity")
    return format(x + 0.0, ".17g")  # x + 0.0 is x, but 0.0 for -0.0


_SCALARS = {
    str: _quote,
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


@lru_cache(maxsize=1024)
def _key_text(key) -> str:
    if not isinstance(key, str):
        raise TypeError("JSON object keys must be strings")
    return _quote(key) + ":"


def _emit(obj, out: list) -> None:
    t = type(obj)
    scalar = _SCALARS.get(t)
    if scalar is not None:
        out.append(scalar(obj))
    elif t is dict:
        sep = "{"
        for key in sorted(obj):
            out.append(sep)
            out.append(_key_text(key))
            value = obj[key]
            scalar = _SCALARS.get(type(value))
            if scalar is None:
                _emit(value, out)
            else:
                out.append(scalar(value))
            sep = ","
        out.append("}" if obj else "{}")
    elif t is list or t is tuple:
        sep = "["
        for item in obj:
            out.append(sep)
            scalar = _SCALARS.get(type(item))
            if scalar is None:
                _emit(item, out)
            else:
                out.append(scalar(item))
            sep = ","
        out.append("]" if obj else "[]")
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, Enum):
        _emit(obj.value, out)
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, Fraction):
        out.append(_quote(str(obj)))
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, complex):
        _emit({"im": obj.imag, "re": obj.real}, out)
    elif isinstance(obj, dict):
        _emit(dict(obj), out)
    elif isinstance(obj, (list, tuple)):
        _emit(list(obj), out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text (sorted keys, fixed float precision),
    newline-terminated."""
    out: list = []
    _emit(obj, out)
    return "".join(out) + "\n"


_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")  # an integer or "p/q"


def scalar_from_data(value, field: str):
    """One scalar from parsed JSON or a command-line string: ints and "p/q"
    strings are exact, floats only live in the float backend, which refuses
    NaN, infinities and numbers beyond the float range.  A zero denominator
    is refused on both backends.  An exact string must be an integer or "p/q"
    (``Fraction`` would build 10^e for an exponent e); a float string without
    "/" goes through ``float``, which rounds as ``float(Fraction(s))`` does."""
    if isinstance(value, bool):
        raise ValueError("booleans are not scalars")
    if field == RATIONAL and not (isinstance(value, (int, Fraction)) or (
            isinstance(value, str) and _RATIONAL_TEXT.fullmatch(value))):
        raise ValueError(
            f"the exact backend needs integer or \"p/q\" entries, got {value!r}")
    if not isinstance(value, (int, float, Fraction, str)):
        raise ValueError(f"not a scalar: {value!r}")
    try:
        if field == RATIONAL:
            return Fraction(value)
        if isinstance(value, str) and "/" not in value:
            x = float(value) + 0.0  # no -0.0: Fraction has no negative zero
            if math.isinf(x) and "inf" not in value.lower():
                raise OverflowError  # a finite literal beyond the float range
        else:
            x = float(Fraction(value) if isinstance(value, str) else value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None
    except OverflowError:
        raise ValueError("the float backend needs finite numbers, got one beyond "
                         "the float range") from None
    if not math.isfinite(x):
        raise ValueError(f"the float backend needs finite numbers, got {value!r}")
    return x


def _ratio(x) -> tuple[int, int]:
    """(p, q) with p / q the value and q > 0 for an exact entry that is not
    an int.  A "p/q" string is split here; any other entry, and a
    refused string (a zero denominator, an integer past the digit limit),
    goes through ``scalar_from_data``, which gives a refusal its message."""
    if type(x) is str and _RATIONAL_TEXT.fullmatch(x):
        p, _, q = x.partition("/")
        try:
            p, q = int(p), int(q or 1)
        except ValueError:  # an integer past the digit limit: refused below
            q = 0
        if q:
            return p, q
    v = scalar_from_data(x, RATIONAL)
    return v.numerator, v.denominator


def _one_pass(rows: list, field: str):
    """The matrix of the rows without a per-entry ``Fraction`` or float:
    exact rows go straight to their cleared integers M and least common
    denominator d, refusing a bad entry (in row order) before ragged rows;
    rows of ints and floats go to one float64 array with one finiteness
    check.  None for any other float rows, and for float rows that are
    ragged, beyond the float range or not finite, which the per-entry path
    refuses with its own message."""
    if field == RATIONAL:
        entries = [[x if type(x) is int else _ratio(x) for x in row] for row in rows]
        if any(len(r) != len(rows[0]) for r in rows):
            raise ShapeError("ragged rows")
        pairs = [x for x in chain.from_iterable(entries) if type(x) is tuple]
        d = math.lcm(*(q for _, q in pairs))
        if pairs:  # else every entry is an int, M itself with d = 1
            entries = [[x * d if type(x) is int else x[0] * (d // x[1]) for x in row]
                       for row in entries]
        return Matrix._from_cleared(entries, d)
    if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
        return None
    try:
        arr = np.array(rows, dtype=float)
    except (ValueError, OverflowError):
        return None
    if arr.ndim != 2 or not np.isfinite(arr).all():
        return None
    return Matrix._from_array(arr)


def matrix_from_data(data, field: str) -> Matrix:
    """Matrix from a parsed JSON value: either {"rows": [[...]]} or a bare
    list of rows.  ``field`` selects the backend; exact input must be
    integers or "p/q" strings."""
    if isinstance(data, dict):
        if "rows" not in data:
            raise ValueError("matrix object needs a \"rows\" field")
        check_keys(data, ("rows", "field"), "matrix object keys")
        declared = data.get("field")
        if declared is not None and declared not in (RATIONAL, FLOAT64):
            raise ValueError(f"unknown field {declared!r}")
        if declared == FLOAT64 and field == RATIONAL:
            raise ValueError("float64 input cannot feed the exact backend")
        rows = data["rows"]
    else:
        rows = data
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError("matrix rows must be a list of lists")
    m = _one_pass(rows, field)
    if m is not None:
        return m
    parsed = [[scalar_from_data(x, field) for x in row] for row in rows]
    return Matrix(parsed, field)


def check_keys(data: dict, allowed, what: str) -> None:
    """Refuse the keys of a parsed JSON object that are not ``allowed``,
    naming them, so that a misspelt key is not silently ignored."""
    unknown = set(data) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {what}: {sorted(unknown)}")


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
