import collections
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from relequil import cli, jsonio
from relequil.matrix_core import FLOAT64, RATIONAL, Matrix, ShapeError, char_poly
from relequil.stability import Verdict


def test_dumps_sorted_and_newline_terminated():
    text = jsonio.dumps({"z": 1, "a": 2})
    assert text == '{"a":2,"z":1}\n'


def test_dumps_scalar_encodings():
    text = jsonio.dumps({
        "flag": True,
        "frac": Fraction(3, 4),
        "int": 7,
        "pair": complex(1.5, -2.0),
        "whole": Fraction(3),
    })
    assert '"frac":"3/4"' in text
    assert '"whole":"3"' in text
    assert '"pair":{"im":-2,"re":1.5}' in text


def test_dumps_float_precision():
    third = 1.0 / 3.0
    text = jsonio.dumps({"x": third})
    assert text == '{"x":0.33333333333333331}\n'
    assert jsonio.dumps({"x": -0.0}) == '{"x":0}\n'


def test_dumps_every_node_kind():
    # the writer dispatches on exact types; subclasses (an enum, a numpy
    # float, a named tuple, an ordered dict) are written as their base kind
    point = collections.namedtuple("Point", "x y")
    text = jsonio.dumps({
        "big": 10**20, "empty": [], "neg0": -0.0, "nested": [[{}], [[]]], "no": False,
        "none": {}, "np": np.float64(0.1), "null": None,
        "od": collections.OrderedDict([("b", 1), ("a", True)]),
        "pt": point(Fraction(-1, 3), 'q"\u00e9'), "tiny": -5e-324, "tuple": (1, 2.5),
        "verdict": Verdict.LINEARLY_STABLE, "z": complex(-0.0, 2),
    })
    assert text == (
        '{"big":100000000000000000000,"empty":[],"neg0":0,"nested":[[{}],[[]]],'
        '"no":false,"none":{},"np":0.10000000000000001,"null":null,'
        '"od":{"a":true,"b":1},"pt":["-1/3","q\\"\\u00e9"],'
        '"tiny":-4.9406564584124654e-324,"tuple":[1,2.5],"verdict":"linearly_stable",'
        '"z":{"im":2,"re":0}}\n')
    with pytest.raises(TypeError, match="keys must be strings"):
        jsonio.dumps({1: 2})
    with pytest.raises(TypeError, match="cannot serialize int64"):
        jsonio.dumps([np.int64(1)])


def test_dumps_rejects_nonfinite():
    with pytest.raises(ValueError):
        jsonio.dumps({"x": math.nan})
    with pytest.raises(ValueError):
        jsonio.dumps({"x": math.inf})


def test_matrix_round_trip_exact():
    m = jsonio.matrix_from_data({"field": "rational", "rows": [[1, "1/3"], ["1/3", "0"]]},
                                RATIONAL)
    assert m.rows() == ((Fraction(1), Fraction(1, 3)), (Fraction(1, 3), Fraction(0)))
    text = jsonio.dumps({"field": m.field, "rows": m.rows()})
    assert text == '{"field":"rational","rows":[["1","1/3"],["1/3","0"]]}\n'
    assert jsonio.matrix_from_data(json.loads(text), RATIONAL).rows() == m.rows()


def test_matrix_from_bare_rows():
    m = jsonio.matrix_from_data([[1, "1/2"], ["1/2", 0]], RATIONAL)
    assert m[0, 1] == Fraction(1, 2)
    f = jsonio.matrix_from_data([[1, 0.25], [0.25, 0]], FLOAT64)
    assert f.field == FLOAT64


def test_exact_backend_rejects_floats():
    with pytest.raises(ValueError):
        jsonio.matrix_from_data([[1.5, 0], [0, 1]], RATIONAL)
    with pytest.raises(ValueError):
        jsonio.matrix_from_data({"field": "float64", "rows": [[1, 0], [0, 1]]},
                                RATIONAL)


def test_scalar_parsing():
    assert jsonio.scalar_from_data("3/2", RATIONAL) == Fraction(3, 2)
    assert jsonio.scalar_from_data(4, RATIONAL) == Fraction(4)
    assert jsonio.scalar_from_data("3/2", FLOAT64) == 1.5
    with pytest.raises(ValueError):
        jsonio.scalar_from_data(True, RATIONAL)
    for field in (RATIONAL, FLOAT64):
        with pytest.raises(ValueError, match="^zero denominator in '3/0'$"):
            jsonio.scalar_from_data("3/0", field)


def test_exact_backend_string_grammar():
    # an integer or "p/q", nothing else: no decimals, exponents or spaces
    for text, want in (("7", 7), ("-7", -7), ("+3/4", Fraction(3, 4)), ("-10/4", Fraction(-5, 2))):
        assert jsonio.scalar_from_data(text, RATIONAL) == want
    for text in ("1e400", "1.5", "3/4 ", " 3", "1_000", "3/-4", "inf", "nan", "0x10", ""):
        with pytest.raises(ValueError, match="^the exact backend needs integer or "
                                             f"\"p/q\" entries, got {text!r}$"):
            jsonio.scalar_from_data(text, RATIONAL)


def test_float_backend_strings_round_as_fraction(rng):
    # float() rounds correctly, so a string without "/" gets the bits of
    # float(Fraction(s)), negative zero included
    texts = ["0.1", "-0", "-0.0", "1e-400", "4.9e-324", "2.4703282292062328e-324",
             "1.7976931348623157e308", " 1.5 ", "1_000.25", ".5", "5.", "-2.5E-3"]
    texts += [f"{rng.randint(-10**20, 10**20)}e{rng.randint(-345, 285)}" for _ in range(200)]
    texts += [f"{rng.randint(0, 10**6)}.{rng.randint(0, 10**30)}" for _ in range(200)]
    for text in texts:
        got = jsonio.scalar_from_data(text, FLOAT64)
        assert got.hex() == float(Fraction(text)).hex(), text
    for text in ("1e400", "-1e309", "1e100000000"):
        with pytest.raises(ValueError, match="beyond the float range"):
            jsonio.scalar_from_data(text, FLOAT64)
    for text in ("inf", "-Infinity", "nan"):
        with pytest.raises(ValueError, match=f"^the float backend needs finite numbers, "
                                             f"got {text!r}$"):
            jsonio.scalar_from_data(text, FLOAT64)


def test_subspace_serialization():
    # exact basis columns nested in lists are written as "p/q" strings
    data = {"ambient": 3, "basis": [[Fraction(1), Fraction(0), Fraction(-2, 3)]]}
    assert jsonio.dumps(data) == '{"ambient":3,"basis":[["1","0","-2/3"]]}\n'


def _entry_by_entry(rows, field):
    """The per-entry parse that a one-pass parse must agree with."""
    return Matrix([[jsonio.scalar_from_data(x, field) for x in row] for row in rows], field)


def _outcome(parse, rows, field):
    try:
        m = parse(rows, field)
    except ValueError as e:
        return type(e), str(e)
    return m, hash(m), [[x.hex() for x in row] for row in m.rows()]


@pytest.mark.parametrize("rows, error", [
    pytest.param([[1.0, True], [0.0, 1.0]], "booleans are not scalars", id="bool"),
    pytest.param([[1.0, 10**400], [0.0, 1.0]], "beyond the float range", id="10^400"),
    pytest.param([[1.0, [2.0]], [0.0, 1.0]], "not a scalar: [2.0]", id="nested"),
    pytest.param([[1.0, 2.0], [3.0]], "ragged rows", id="ragged"),
    pytest.param([[1.0, math.nan], [0.0, 1.0]], "got nan", id="nan"),
    pytest.param([[1.0, "1/0"], [0.0, 1.0]], "zero denominator in '1/0'", id="p/0"),
    pytest.param([[1.0, "1/3"], ["-2/3", 2]], None, id="p/q-mixed"),
    pytest.param([[1, -0.0], [2**60 + 1, 0.1]], None, id="ints-and-floats"),
    pytest.param([[5e-324, -1.7976931348623157e308]], None, id="extremes"),
    pytest.param([], None, id="empty"),
    pytest.param([[], []], None, id="no-columns"),
])
def test_float_matrix_parse_matches_entry_by_entry(rows, error):
    got = _outcome(jsonio.matrix_from_data, rows, FLOAT64)
    assert got == _outcome(_entry_by_entry, rows, FLOAT64)
    if error is None:
        assert got[0].field == FLOAT64 and got[0].shape == (len(rows), len(rows[0]) if rows else 0)
    else:
        assert error in got[1]


@pytest.mark.parametrize("rows", [
    pytest.param([[2, -1], [-1, 3]], id="symmetric"),
    pytest.param([[0, 5], [7, 0]], id="not-symmetric"),
    pytest.param([[10**30, 1, 0], [1, -7, 2], [0, 2, 0]], id="big"),
    pytest.param([], id="empty"),
    pytest.param([[], []], id="no-columns"),
    pytest.param([["2/4", "-0/7"], ["+3/6", "007/014"]], id="p/q-unreduced"),
    pytest.param([[1, "-1/3"], ["-1/3", "2/5"]], id="p/q-mixed"),
    pytest.param([["-6/4", 0], [0, "10/1"]], id="p/q-integers"),
    pytest.param([[f"{10**40 + 1}/3", "1/7"], ["1/7", f"-{10**40}/{10**20}"]], id="p/q-big"),
])
def test_exact_int_rows_match_the_fraction_path(rows):
    m = jsonio.matrix_from_data(rows, RATIONAL)
    ref = Matrix([[Fraction(x) for x in row] for row in rows], RATIONAL)
    assert m == ref and hash(m) == hash(ref) and m.shape == ref.shape
    assert m._ints == ref._ints
    assert m.is_symmetric() == ref.is_symmetric()
    if m.is_square:
        assert char_poly(m) == char_poly(ref)
    for row in rows:  # the matrix keeps no reference to the parsed lists
        row.append(0)
    assert m == ref


@pytest.mark.parametrize("rows, error", [
    pytest.param([[1, 2], [3]], ShapeError, id="ragged"),
    pytest.param([[1, True], [0, 1]], ValueError, id="bool"),
    pytest.param([[1, 0.5], [0, 1]], ValueError, id="float"),
    pytest.param([[1, "1/0"], [0, 1]], ValueError, id="p/0"),
    pytest.param([["1.5"]], ValueError, id="decimal"),
    pytest.param([["1e3"]], ValueError, id="exponent"),
    pytest.param([[" 1/2"]], ValueError, id="space"),
    pytest.param([[1, [2]], [0, 1]], ValueError, id="nested"),
    pytest.param([["1/2", "9" * 5000]], ValueError, id="digit-limit"),
    pytest.param([[1, 2, 3], ["1/2", 1.5]], ValueError, id="ragged-and-bad"),
    pytest.param([[1, 2], [3], ["1/0", 1]], ValueError, id="ragged-then-bad"),
])
def test_exact_int_rows_refusals(rows, error):
    # the message, type and precedence of the per-entry parse: the first bad
    # entry in row order, before ragged rows
    with pytest.raises(error) as got:
        jsonio.matrix_from_data(rows, RATIONAL)
    with pytest.raises(error) as want:
        _entry_by_entry(rows, RATIONAL)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def _exact_text(rng) -> object:
    """An int or a "p/q" string, often not in lowest terms, sometimes with a
    sign, leading zeros or a numerator of 40 digits."""
    p = rng.randint(-10**40, 10**40) if rng.random() < 0.1 else rng.randint(-60, 60)
    if rng.random() < 0.2:
        return p
    k = rng.randint(1, 12)
    text = f"{p * k}/{rng.randint(1, 30) * k}"
    if rng.random() < 0.2:
        text = rng.choice(["+", "0", "00"]) + text if p >= 0 else text.replace("/", "/0")
    return text


def test_exact_p_over_q_rows_match_the_fraction_path(rng):
    for _ in range(200):
        n_rows, n_cols = rng.randint(0, 5), rng.randint(0, 5)
        n_cols = n_cols if n_rows and rng.random() < 0.3 else n_rows
        rows = [[_exact_text(rng) for _ in range(n_cols)] for _ in range(n_rows)]
        m = jsonio.matrix_from_data(rows, RATIONAL)
        ref = Matrix([[Fraction(x) for x in row] for row in rows], RATIONAL)
        assert m == ref and hash(m) == hash(ref) and m.shape == ref.shape, rows
        assert m._ints == ref._ints, rows
        if m.is_square:
            assert char_poly(m) == char_poly(ref), rows


def test_exact_p_over_q_flow_builds_no_fraction_per_entry(tmp_path, capsys, monkeypatch):
    # "p/q" input goes straight to the cleared integers, and an exact linear
    # flow reads only those: neither end matrix builds its Fraction rows
    def refuse(value, field):
        raise AssertionError(f"per-entry parse of {value!r}")

    monkeypatch.setattr(jsonio, "scalar_from_data", refuse)
    rows = [["1/2", "-2/6"], ["-1/3", "2/4"]]
    assert jsonio.matrix_from_data(rows, RATIONAL) == Matrix(rows, RATIONAL)
    made, parse = [], jsonio.matrix_from_data

    def recording(data, field):
        made.append(parse(data, field))
        return made[-1]

    monkeypatch.setattr(jsonio, "matrix_from_data", recording)
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"type": "linear", "start": rows,
                                "end": [["-3/2", "1/6"], ["1/6", "-10/8"]]}))
    assert cli.main(["flow", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["flow"] == -2
    assert len(made) == 2 and all(m._data is None for m in made)
