import argparse
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relequil import cli
from relequil.cli import main, run_examples

COUNTEREXAMPLE_ROWS = [[-2, 0, 0, 0, 0, 0], [0, -1, 0, 0, 0, 0],
                       [0, 0, 1, 0, 0, 0], [0, 0, 0, -1, 0, 0],
                       [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]]
# the zero form, a rank-2 form, a form that is not skew and one of 2 x 2
BAD_OMEGA_ROWS = [[[0] * 4] * 4,
                  [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
                  [[0, -1, 0, 0], [2, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
                  [[0, -1], [1, 0]]]
# J B with an elliptic pair and a nilpotent Jordan pair
SPLIT_JORDAN_ROWS = [[-13, 7, -11, -4], [7, -7, 5, -2], [-11, 5, -11, -6],
                     [-4, -2, -6, -8]]


def write_json(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def count_calls(monkeypatch, name, modules) -> list:
    """Wrap ``name`` in each of the given relequil modules with a counter."""
    calls = []
    for mod_name in modules:
        mod = importlib.import_module(f"relequil.{mod_name}")
        original = getattr(mod, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    return calls


# ---------------------------------------------------------------------------
# classify


def test_classify_report(tmp_path, capsys):
    matrix = write_json(tmp_path / "b.json", COUNTEREXAMPLE_ROWS)
    assert main(["classify", matrix]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "spectrally_stable_not_linear"
    assert report["inertia"] == {"coindex": 1, "morse_index": 3, "nullity": 2}
    assert report["prediction"]["reason"] == "odd_index"
    assert report["semisimple"] is False


def test_classify_computes_inertia_once(tmp_path, capsys, monkeypatch):
    calls = count_calls(monkeypatch, "inertia", ("cli", "stability"))
    matrix = write_json(tmp_path / "b.json", COUNTEREXAMPLE_ROWS)
    assert main(["classify", matrix]) == 0
    assert json.loads(capsys.readouterr().out)["prediction"]["reason"] == "odd_index"
    assert len(calls) == 1


# every module that imports char_poly, and matrix_core for its own callers
CHAR_POLY_SITES = ("matrix_core", "stability")


def test_classify_computes_char_poly_once(tmp_path, capsys, monkeypatch):
    calls = count_calls(monkeypatch, "char_poly", CHAR_POLY_SITES)
    stable_not_linear = write_json(tmp_path / "b.json", COUNTEREXAMPLE_ROWS)
    unstable = write_json(tmp_path / "u.json", [[1, 0], [0, -1]])
    identity = write_json(tmp_path / "i.json", [[1, 0], [0, 1]])
    omega = write_json(tmp_path / "omega.json", [[0, -2], [2, 0]])
    for argv in (["classify", stable_not_linear], ["classify", unstable],
                 ["classify", identity, "--omega", omega]):
        calls.clear()
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["spectrum"]
        assert len(calls) == 1


def test_classify_square_free_stable_needs_no_minimal_poly(tmp_path, capsys, monkeypatch):
    # count at every relequil module that holds minimal_poly
    calls = []
    original = importlib.import_module("relequil.matrix_core").minimal_poly
    for name, mod in list(sys.modules.items()):
        if (name == "relequil" or name.startswith("relequil.")) \
                and getattr(mod, "minimal_poly", None) is original:
            def counted(*args, **kwargs):
                calls.append(args)
                return original(*args, **kwargs)

            monkeypatch.setattr(mod, "minimal_poly", counted)
    # char poly of J B: x^4 + 7 x^2 + 3, square free with roots on the axis
    stable = write_json(tmp_path / "b.json", [[1, 0, 0, 0], [0, 2, 1, 0],
                                              [0, 1, 1, 0], [0, 0, 0, 3]])
    assert main(["classify", stable]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "linearly_stable"
    assert calls == []
    # a defective J B still names its eigenvalue through minimal_poly
    nilpotent = write_json(tmp_path / "n.json", COUNTEREXAMPLE_ROWS)
    assert main(["classify", nilpotent]) == 0
    assert json.loads(capsys.readouterr().out)["semisimple"] is False
    assert len(calls) == 1


def test_classify_sorted_keys(tmp_path, capsys):
    matrix = write_json(tmp_path / "b.json", [[1, 0], [0, 1]])
    main(["classify", matrix])
    out = capsys.readouterr().out
    keys = list(json.loads(out))
    assert keys == sorted(keys)
    assert out.endswith("\n")


def test_classify_with_omega(tmp_path, capsys):
    matrix = write_json(tmp_path / "b.json", [[1, 0], [0, 1]])
    omega = write_json(tmp_path / "omega.json", [[0, -2], [2, 0]])
    assert main(["classify", matrix, "--omega", omega]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "linearly_stable"


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_classify_bad_omega_exits_1(tmp_path, capsys, backend):
    b = write_json(tmp_path / "b.json", [[int(i == j) for j in range(4)] for i in range(4)])
    for k, rows in enumerate(BAD_OMEGA_ROWS):
        omega = write_json(tmp_path / f"omega{k}.json", rows)
        assert main(["classify", b, "--omega", omega, "--backend", backend]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err


def test_classify_float_split_jordan_block_exits_2(tmp_path, capsys):
    b = write_json(tmp_path / "b.json", SPLIT_JORDAN_ROWS)
    assert main(["classify", b, "--backend", "float"]) == 2
    assert json.loads(capsys.readouterr().out)["verdict"] == "indeterminate"
    assert main(["classify", b]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "spectrally_stable_not_linear"


def test_classify_float_indeterminate(tmp_path, capsys):
    matrix = write_json(tmp_path / "b.json",
                        {"field": "float64", "rows": [[0.0, 0.0], [0.0, -1e-8]]})
    assert main(["classify", matrix, "--backend", "float"]) == 2
    assert json.loads(capsys.readouterr().out)["verdict"] == "indeterminate"


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400",
                                  pytest.param("1" + "0" * 400, id="10^400")])
def test_classify_rejects_nonfinite_entries(tmp_path, capsys, text):
    matrix = tmp_path / "b.json"
    matrix.write_text(f"[[1.0, {text}], [0.0, 1.0]]")
    assert main(["classify", str(matrix), "--backend", "float"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the float backend needs finite numbers")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_float_matrix_file_with_nonfinite_entry_exits_1(data):
    n = data.draw(st.integers(1, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows = data.draw(st.lists(st.lists(finite, min_size=n, max_size=n), min_size=n, max_size=n))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    rows[i][j] = data.draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "b.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
        with contextlib.redirect_stderr(err):
            assert main(["classify", path, "--backend", "float"]) == 1
    assert "finite" in err.getvalue()


def test_empty_matrix_same_answers_on_both_backends(tmp_path, capsys):
    matrix = write_json(tmp_path / "b.json", [])
    path = write_json(tmp_path / "path.json", {"type": "krein", "b": [], "s_max": 1})
    answers = []
    for backend in ("exact", "float"):
        assert main(["classify", matrix, "--backend", backend]) == 0
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        assert main(["flow", path, "--backend", backend]) == 0
        report = json.loads(capsys.readouterr().out)
        answers.append((verdict, report["flow"], report["kappa_identity"]["kappa"]))
    assert answers[0] == answers[1] == ("linearly_stable", 0, 0)


def test_classify_input_errors(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "missing.json")]) == 1
    odd = write_json(tmp_path / "odd.json", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert main(["classify", odd]) == 1
    floats = write_json(tmp_path / "floats.json", [[1.5, 0], [0, 1]])
    assert main(["classify", floats]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# flow


def test_flow_linear_report(tmp_path, capsys):
    path = write_json(tmp_path / "path.json", {
        "type": "linear",
        "start": [[-2, 0], [0, -1]],
        "end": [[1, 1], [1, 1]],
    })
    assert main(["flow", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["flow"] == 2
    assert report["relative_morse_index"] == -2
    assert report["end_correction"] == 1
    locations = [c["exact_location"] for c in report["crossings"]]
    assert "2/5" in locations


def test_flow_krein_report(tmp_path, capsys):
    path = write_json(tmp_path / "path.json",
                      {"type": "krein", "b": [[1, 0], [0, 1]], "s_max": 2})
    assert main(["flow", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["flow"] == -1
    assert report["kappa_identity"]["holds"] is True
    assert report["kappa_identity"]["kappa"] == 1


def test_flow_krein_tiny_frequency_is_regular(tmp_path, capsys):
    # the crossing form at s = 1e-12 is -2e-12, definite: counted exactly,
    # not against a float floor that read it as degenerate (exit 3)
    path = write_json(tmp_path / "path.json", {
        "type": "krein", "b": [[1, 0], [0, "1/1000000000000000000000000"]], "s_max": 1})
    assert main(["flow", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["flow"] == -1
    (c,) = report["crossings"]
    assert (c["regular"], c["negative"], c["positive"], c["multiplicity"]) == (True, 1, 0, 1)


GOLDEN_FLOW = os.path.join(os.path.dirname(__file__), "golden_flow_reports.json")


def test_exact_flow_reports_match_golden(tmp_path, capsys):
    # exact reports pinned byte for byte: linear paths with rational and
    # irrational crossings, Krein paths of all three verdicts; their floats
    # come from exact root refinement, not from LAPACK
    with open(GOLDEN_FLOW, encoding="utf-8") as fh:
        cases = json.load(fh)
    assert {c["path"]["type"] for c in cases} == {"linear", "krein"}
    for k, case in enumerate(cases):
        path = write_json(tmp_path / f"{k}.json", case["path"])
        assert main(["flow", path]) == 0, case["case"]
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (case["report"], ""), case["case"]


def test_flow_krein_computes_char_poly_once(tmp_path, capsys, monkeypatch):
    # one Faddeev-LeVerrier pass gives char_poly(J B) to the classification
    # and the mu^1 part of det(mu I - B - s G) to the flow
    calls = count_calls(monkeypatch, "_char_poly_int", ("matrix_core", "spectral_flow"))
    for b in ([[1, 0], [0, 1]], [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]):
        calls.clear()
        path = write_json(tmp_path / "path.json", {"type": "krein", "b": b, "s_max": 2})
        assert main(["flow", path]) == 0
        assert "kappa_identity" in json.loads(capsys.readouterr().out)
        assert len(calls) == 1


def test_exact_flow_computes_no_kernel_of_an_invertible_matrix(tmp_path, capsys, monkeypatch):
    # det B = r(0) for the even part r of char_poly(J B): an invertible B
    # has no kernel, so no elimination runs on it; a linear path reads its
    # end corrections off det(mu I - A(t)) and computes no kernel at all
    kernels = count_calls(monkeypatch, "kernel", ("spectral_flow",))
    ranks = count_calls(monkeypatch, "rank", ("spectral_flow",))
    for path, singular in (
            ({"type": "krein", "b": [[1, 0], [0, 1]], "s_max": 2}, False),
            ({"type": "krein", "b": COUNTEREXAMPLE_ROWS, "s_max": 2}, True),
            ({"type": "linear", "start": [[1, 0], [0, 1]], "end": [[2, 0], [0, 3]]}, False),
            ({"type": "linear", "start": [[0, 0], [0, 1]], "end": [[1, 0], [0, 1]]}, True)):
        kernels.clear()
        ranks.clear()
        assert main(["flow", write_json(tmp_path / "path.json", path)]) == 0
        capsys.readouterr()
        assert bool(kernels) == bool(ranks) == (singular and path["type"] == "krein")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("command", ["classify", "flow"])
def test_tol_must_be_finite_and_nonnegative(tmp_path, capsys, command, value):
    if command == "classify":
        target = write_json(tmp_path / "b.json", [[1.0, 0.0], [0.0, -1.0]])
    else:
        target = write_json(tmp_path / "path.json",
                            {"type": "krein", "b": [[1.0, 0.0], [0.0, 1.0]], "s_max": 2})
    for backend in ("exact", "float"):
        assert main([command, target, "--backend", backend, f"--tol={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --tol: must be a finite number >= 0, got " \
            f"{value!r}" in captured.err
    assert main([command, target, "--backend", "float", "--tol=0"]) == 0
    capsys.readouterr()


def test_flow_rejects_nonfinite_s_max(tmp_path, capsys):
    path = tmp_path / "path.json"
    path.write_text('{"type": "krein", "b": [[1.0, 0.0], [0.0, 1.0]], "s_max": Infinity}')
    assert main(["flow", str(path), "--backend", "float"]) == 1
    assert capsys.readouterr().err == \
        "error: the float backend needs finite numbers, got inf\n"


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_s_max_beyond_float_range_exits_1(tmp_path, capsys, backend):
    # --s-max goes through the same scalar parser as the file's s_max
    path = write_json(tmp_path / "path.json",
                      {"type": "krein", "b": [[1, 0], [0, 1]], "s_max": 2})
    assert main(["flow", path, "--backend", backend, "--s-max", "1e400"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == {
        "exact": "error: the exact backend needs integer or \"p/q\" entries, "
                 "got '1e400'\n",
        "float": "error: the float backend needs finite numbers, got one beyond "
                 "the float range\n"}[backend]


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_s_max_on_a_linear_path_exits_1(tmp_path, capsys, backend):
    path = write_json(tmp_path / "path.json",
                      {"type": "linear", "start": [[1, 0], [0, 1]], "end": [[2, 0], [0, 3]]})
    for value in ("banana", "2"):
        assert main(["flow", path, "--backend", backend, "--s-max", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --s-max applies only to a Krein path\n"


@pytest.mark.parametrize("rows, s_max, flow, crossings", [
    # the crossing at s = 1 lies beyond s_max = 1 - 1e-13
    ([[-1, 0], [0, -1]], "9999999999999/10000000000000", 0, 0),
    # s_max lies just above the crossing at sqrt(2)
    ([[2, 0], [0, 1]], "141421356237310/100000000000000", -1, 1)])
def test_krein_end_is_decided_exactly(tmp_path, capsys, rows, s_max, flow, crossings):
    path = write_json(tmp_path / "path.json", {"type": "krein", "b": rows, "s_max": s_max})
    assert main(["flow", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["flow"], report["end_correction"]) == (flow, 0)
    assert len(report["crossings"]) == crossings


@pytest.mark.parametrize("s_max", [0.9999999999999, 1])
def test_float_krein_crossing_at_s_max_exits_2(tmp_path, capsys, s_max):
    # the crossing at s = 1 lies within the tolerance band of s_max, so
    # floats cannot tell whether it lies before, at or after it; the exact
    # backend decides 1 - 1e-13 in test_krein_end_is_decided_exactly
    path = write_json(tmp_path / "path.json",
                      {"type": "krein", "b": [[-1, 0], [0, -1]], "s_max": s_max})
    assert main(["flow", path, "--backend", "float"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a crossing at s = ")
    assert captured.err.endswith(" lies within the tolerance band of s_max\n")


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_huge_exponent_entry_exits_1_fast(tmp_path, capsys, backend):
    # "1e100000000" would make Fraction build 10^100000000
    huge = "1e100000000"
    matrix = write_json(tmp_path / "b.json", [[huge, 0], [0, 1]])
    krein = write_json(tmp_path / "k.json", {"type": "krein", "b": [[1, 0], [0, 1]],
                                             "s_max": huge})
    ok = write_json(tmp_path / "ok.json", {"type": "krein", "b": [[1, 0], [0, 1]], "s_max": 2})
    for argv in (["classify", matrix], ["flow", krein], ["flow", ok, "--s-max", huge]):
        start = time.perf_counter()
        assert main(argv + ["--backend", backend]) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == {
            "exact": f"error: the exact backend needs integer or \"p/q\" entries, got {huge!r}\n",
            "float": "error: the float backend needs finite numbers, got one beyond "
                     "the float range\n"}[backend]


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_zero_denominator_exits_1(tmp_path, capsys, backend):
    bad = [["1/0", 0], [0, 1]]
    good = [[1, 0], [0, 1]]
    matrix = write_json(tmp_path / "b.json", bad)
    bad_b = write_json(tmp_path / "k1.json", {"type": "krein", "b": bad, "s_max": 2})
    bad_s = write_json(tmp_path / "k2.json", {"type": "krein", "b": good, "s_max": "1/0"})
    linear = write_json(tmp_path / "l.json", {"type": "linear", "start": good, "end": bad})
    ok = write_json(tmp_path / "k3.json", {"type": "krein", "b": good, "s_max": 2})
    for argv in (["classify", matrix], ["flow", bad_b], ["flow", bad_s], ["flow", linear],
                 ["flow", ok, "--s-max", "1/0"]):
        assert main(argv + ["--backend", backend]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: zero denominator in '1/0'\n"


def test_flow_linear_tiny_crossing(tmp_path, capsys):
    # one regular crossing at t = 10^-24, far below the old absolute
    # stopping floor of root refinement
    path = write_json(tmp_path / "path.json", {
        "type": "linear",
        "start": [[-1, 0], [0, 1]],
        "end": [[10**24 - 1, 0], [0, 1]],
    })
    assert main(["flow", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["flow"] == 1
    (crossing,) = report["crossings"]
    assert crossing["location"] == pytest.approx(1e-24, rel=1e-15)
    assert crossing["regular"] is True


def test_flow_s_max_override(tmp_path, capsys):
    path = write_json(tmp_path / "path.json",
                      {"type": "krein", "b": [[1, 0], [0, 1]], "s_max": 2})
    assert main(["flow", path, "--s-max", "1/2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["crossings"] == []
    assert report["flow"] == 0


def test_flow_irregular_exit_code(tmp_path, capsys):
    path = write_json(tmp_path / "path.json", {
        "type": "linear",
        "start": [[0, -1], [-1, 0]],
        "end": [[1, 1], [1, 0]],
    })
    assert main(["flow", path]) == 3
    assert "irregular" in capsys.readouterr().err


def test_flow_bad_type(tmp_path, capsys):
    path = write_json(tmp_path / "path.json", {"type": "circular"})
    assert main(["flow", path]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("payload, missing", [
    ({"type": "linear", "end": [[1]]}, "start"),
    ({"type": "linear", "start": [[1]]}, "end"),
    ({"type": "krein", "s_max": 1}, "b"),
])
def test_flow_path_missing_key(tmp_path, capsys, payload, missing):
    path = write_json(tmp_path / "path.json", payload)
    assert main(["flow", path]) == 1
    assert capsys.readouterr().err == f"error: path file is missing '{missing}'\n"


# ---------------------------------------------------------------------------
# n-body commands


def test_nbody_find_cc(tmp_path, capsys):
    problem = write_json(tmp_path / "p.json", {
        "masses": [1.0, 2.0],
        "alpha": 1.0,
        "positions": [[-1.0, 0.0], [0.5, 0.0]],
    })
    assert main(["nbody-find-cc", problem]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["residual"] <= 1e-10
    assert report["locked_inertia"] == pytest.approx(1.0)


def test_nbody_stability(tmp_path, capsys):
    problem = write_json(tmp_path / "p.json", {
        "masses": [1.0, 1.0, 1.0],
        "alpha": 1.0,
        "positions": [[0.02, -0.01], [1.03, 0.05], [0.48, 0.9]],
        "settings": {"cc_tol": 1e-12},
    })
    assert main(["nbody-stability", problem]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["hessian"]["inertia_shat"]["morse_index"] == 0
    assert report["verdicts"]["e2"]["predicts_instability"] is False


def test_nbody_stability_builds_hessian_once(tmp_path, capsys, monkeypatch):
    calls = count_calls(monkeypatch, "amended_hessian", ("cli", "nbody"))
    problem = write_json(tmp_path / "p.json", {
        "masses": [1.0, 1.0, 1.0],
        "alpha": 1.0,
        "positions": [[-1.0, 0.0], [0.05, 0.0], [1.1, 0.0]],
    })
    assert main(["nbody-stability", problem]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"]["e2"]["reason"] == "odd_index"
    assert report["verdicts"]["reduced"]["predicts_instability"] is True
    assert len(calls) == 1


def test_nbody_rejects_unknown_settings(tmp_path, capsys):
    problem = write_json(tmp_path / "p.json", {
        "masses": [1.0, 1.0],
        "alpha": 1.0,
        "positions": [[-1.0, 0.0], [1.0, 0.0]],
        "settings": {"speed": 11},
    })
    assert main(["nbody-find-cc", problem]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("name, value", [
    *(("cc_tol", v) for v in (0.0, -1e-10, float("inf"), float("nan"), "1e-10", True)),
    *(("max_iter", v) for v in (-1, 2.5, 10.0, True, None)),
    *(("collision_guard", v) for v in (-0.1, 1.0, float("inf"), float("nan"))),
    *(("armijo_factor", v) for v in (0.0, 1.0, 1.5, -0.5, float("nan"))),
])
def test_nbody_rejects_bad_settings(tmp_path, capsys, monkeypatch, name, value):
    # refused before the search: an armijo_factor of 1.0 never shrinks the
    # backtracking step, and the search would not return
    def search(*args):
        raise AssertionError("the search ran on bad settings")

    monkeypatch.setattr(cli, "find_central_configuration", search)
    problem = write_json(tmp_path / "p.json", {
        "masses": [1.0, 1.0, 1.0],
        "alpha": 1.0,
        "positions": [[0.02, -0.01], [1.03, 0.05], [0.48, 0.9]],
        "settings": {"cc_tol": 1e-300, name: value},
    })
    for command in ("nbody-find-cc", "nbody-stability"):
        assert main([command, problem]) == 1
        assert capsys.readouterr().err.startswith(f"error: {name} must be ")


@pytest.mark.parametrize("field", ["masses", "alpha", "positions"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_nbody_rejects_nonfinite_input(tmp_path, capsys, field, value):
    data = {"masses": [1.0, 2.0], "alpha": 1.0, "positions": [[-1.0, 0.0], [0.5, 0.0]]}
    if field == "alpha":
        data["alpha"] = value
    elif field == "masses":
        data["masses"][1] = value
    else:
        data["positions"][0][1] = value
    problem = write_json(tmp_path / "p.json", data)
    for command in ("nbody-find-cc", "nbody-stability"):
        assert main([command, problem]) == 1
        assert capsys.readouterr().err == f"error: {field} must be finite\n"


@pytest.mark.filterwarnings("error")
def test_nbody_rejects_masses_with_overflowing_products(tmp_path, capsys):
    # m_i m_j overflowed in the pair kernel, with a numpy warning, and
    # x ** (-alpha - 2) then raised an uncaught OverflowError
    problem = write_json(tmp_path / "p.json", {
        "masses": [1e300, 1e300, 1e300], "alpha": 1,
        "positions": [[0, 0], [1, 0], [0.5, 0.8]]})
    for command in ("nbody-find-cc", "nbody-stability"):
        assert main([command, problem]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: masses must have finite pairwise products\n"


def test_nbody_convergence_exit_code(tmp_path, capsys):
    problem = write_json(tmp_path / "p.json", {
        "masses": [1.0, 1.0, 1.0],
        "alpha": 1.0,
        "positions": [[0.3, -0.4], [1.3, 0.2], [-0.7, 0.9]],
        "settings": {"cc_tol": 1e-14, "max_iter": 1},
    })
    assert main(["nbody-find-cc", problem]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# examples and plumbing


def test_examples_all_pass_and_deterministic():
    first, second = io.StringIO(), io.StringIO()
    assert run_examples(first) == 0
    assert run_examples(second) == 0
    assert first.getvalue() == second.getvalue()
    assert "FAIL" not in first.getvalue()
    assert first.getvalue().strip().endswith("rows pass")


def test_out_flag_writes_file(tmp_path, capsys):
    matrix = write_json(tmp_path / "b.json", [[1, 0], [0, 1]])
    out = tmp_path / "report.json"
    assert main(["classify", matrix, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["verdict"] == "linearly_stable"


def test_help_and_bad_subcommand(capsys):
    assert main(["--help"]) == 0
    assert main(["not-a-command"]) == 1
    capsys.readouterr()


def _call(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _reentrancy_calls(tmp_path) -> list:
    b = write_json(tmp_path / "b.json", [[1, 0], [0, 1]])
    omega = write_json(tmp_path / "omega.json", [[0, -2], [2, 0]])
    fb = write_json(tmp_path / "fb.json", [[2.0, 1e-7], [1e-7, 3.0]])
    krein = write_json(tmp_path / "krein.json",
                       {"type": "krein", "b": [[1, 0], [0, 1]], "s_max": "1/2"})
    return [
        ["classify", b, "--omega", omega], ["classify", b],
        ["classify", fb, "--backend", "float", "--tol", "1e-6"],
        ["classify", fb, "--backend", "float"],
        ["flow", krein, "--s-max", "2"], ["flow", krein],
        ["--help"], ["classify", b, "--tol", "-1"], ["classify", b],
    ]


def test_main_builds_no_parser(tmp_path, monkeypatch):
    built = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in _reentrancy_calls(tmp_path):
        _call(argv)
    assert built == []
    cli._build_parser()
    assert built  # the counter sees a construction


def _call_alone(argv) -> tuple:
    """The same call in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-W", "error", "-m", "relequil.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_main_is_reentrant(tmp_path, monkeypatch):
    # one process, one parser: each call gives the bytes and exit code of the
    # same call made alone
    monkeypatch.setenv("COLUMNS", "80")
    calls = _reentrancy_calls(tmp_path)
    in_sequence = [_call(argv) for argv in calls]
    assert in_sequence == [_call_alone(argv) for argv in calls]
    assert [rc for rc, _, _ in in_sequence] == [0, 0, 0, 0, 0, 0, 0, 1, 0]
    reports = [json.loads(out) for _, out, _ in in_sequence[:6]]
    assert reports[0]["verdict"] == reports[1]["verdict"] == "linearly_stable"
    assert (reports[2]["tol"], reports[3]["tol"]) == (1e-6, pytest.approx(4e-8))
    assert (reports[4]["flow"], reports[5]["flow"]) == (-1, 0)
    assert in_sequence[6][1].startswith("usage: relequil")
    assert "must be a finite number >= 0" in in_sequence[7][2]
