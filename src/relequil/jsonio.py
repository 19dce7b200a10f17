"""Deterministic JSON for reports and input files.

Reports must be byte-stable across runs: keys are emitted sorted, floats
with 17 significant digits, rationals as exact "p/q" strings, complex
numbers as {"im": ..., "re": ...} objects.  The stdlib encoder cannot pin
float formatting, so emission is a small recursive writer; parsing uses the
stdlib as usual.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from fractions import Fraction
from typing import Optional

from .matrix_core import FLOAT64, RATIONAL, Matrix, Subspace

__all__ = [
    "dumps",
    "scalar_from_data",
    "matrix_to_data",
    "matrix_from_data",
    "subspace_to_data",
    "load_json",
]


def _emit(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, Enum):
        _emit(obj.value, out)
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, Fraction):
        out.append(json.dumps(str(obj)))
    elif isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            raise ValueError("reports must not contain NaN or infinity")
        out.append(format(obj + 0.0 if obj == 0 else obj, ".17g"))
    elif isinstance(obj, complex):
        _emit({"im": obj.imag, "re": obj.real}, out)
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings")
            if not first:
                out.append(",")
            first = False
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text (sorted keys, fixed float precision),
    newline-terminated."""
    out: list = []
    _emit(obj, out)
    return "".join(out) + "\n"


def scalar_from_data(value, field: str):
    """One scalar from parsed JSON: ints and "p/q" strings are exact,
    floats only live in the float backend, which refuses NaN, infinities
    and numbers beyond the float range."""
    if isinstance(value, bool):
        raise ValueError("booleans are not scalars")
    if field == RATIONAL:
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        raise ValueError(
            f"the exact backend needs integer or \"p/q\" entries, got {value!r}")
    if not isinstance(value, (int, float, Fraction, str)):
        raise ValueError(f"not a scalar: {value!r}")
    try:
        x = float(Fraction(value) if isinstance(value, str) else value)
    except OverflowError:
        raise ValueError("the float backend needs finite numbers, got one beyond "
                         "the float range") from None
    if not math.isfinite(x):
        raise ValueError(f"the float backend needs finite numbers, got {value!r}")
    return x


def matrix_to_data(m: Matrix) -> dict:
    if m.field == RATIONAL:
        rows = [[Fraction(x) for x in row] for row in m.rows()]
    else:
        rows = [[float(x) for x in row] for row in m.rows()]
    return {"field": m.field, "rows": rows}


def matrix_from_data(data, field: str) -> Matrix:
    """Matrix from a parsed JSON value: either {"rows": [[...]]} or a bare
    list of rows.  ``field`` selects the backend; exact input must be
    integers or "p/q" strings."""
    if isinstance(data, dict):
        if "rows" not in data:
            raise ValueError("matrix object needs a \"rows\" field")
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
    parsed = [[scalar_from_data(x, field) for x in row] for row in rows]
    return Matrix(parsed, field)


def subspace_to_data(s: Subspace) -> dict:
    basis = []
    for vec in s.basis:
        col = []
        for x in vec:
            if isinstance(x, complex):
                col.append({"im": x.imag, "re": x.real})
            elif isinstance(x, Fraction):
                col.append(x)
            else:
                col.append(float(x))
        basis.append(col)
    return {"ambient": s.ambient_dim, "basis": basis}


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
