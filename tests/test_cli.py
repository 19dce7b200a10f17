import argparse
import contextlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relequil import cli
from relequil.cli import main, run_examples
from relequil.matrix_core import FLOAT64, RATIONAL, Matrix, Subspace, is_semisimple
from relequil.spectral_flow import kappa_identity_check
from relequil.stability import invertible_even_index_check

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


def test_classify_runs_one_residue_stack(tmp_path, capsys, monkeypatch):
    # the polynomials of Omega B and of B, for the verdict and the inertia,
    # come from one power-sum stack, with and without --omega
    calls = count_calls(monkeypatch, "_char_poly_int", ("matrix_core", "spectral_flow"))
    b = write_json(tmp_path / "b.json", COUNTEREXAMPLE_ROWS)
    identity = write_json(tmp_path / "i.json", [[1, 0], [0, 1]])
    omega = write_json(tmp_path / "omega.json", [[0, "-2/3"], ["2/3", 0]])
    for argv, verdict in ((["classify", b], "spectrally_stable_not_linear"),
                          (["classify", identity], "linearly_stable"),
                          (["classify", identity, "--omega", omega], "linearly_stable")):
        calls.clear()
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == verdict
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


def test_float_entries_whose_symmetric_part_overflows_exit_1(tmp_path, capsys):
    # (A + A^T) / 2 of 1e308 overflowed: classify refused a nan tolerance and
    # a linear flow exited 0 after overflow warnings
    big = [[1e308, 0.0], [0.0, 1e308]]
    requests = (["classify", write_json(tmp_path / "b.json", big)],
                ["flow", write_json(tmp_path / "path.json", {
                    "type": "linear", "start": big, "end": [[1.0, 0.0], [0.0, 2.0]]})])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in requests:
            assert main(argv + ["--backend", "float"]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: the symmetric part of the matrix overflows\n"
        ok = write_json(tmp_path / "ok.json", [[8e307, 0.0], [0.0, 8e307]])
        assert main(["classify", ok, "--backend", "float"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "linearly_stable"


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


GOLDEN_CLASSIFY = os.path.join(os.path.dirname(__file__), "golden_classify_reports.json")


def test_exact_classify_reports_match_golden(tmp_path, capsys):
    # exact reports pinned byte for byte: defective J B at 2n = 8, 12 and 16,
    # one whose start vector (1, ..., 16) is not cyclic, derogatory ones,
    # "p/q" entries, --omega, and the other two verdicts at 2n = 16; their
    # floats are numpy roots of exact factors, polished in Python
    with open(GOLDEN_CLASSIFY, encoding="utf-8") as fh:
        cases = json.load(fh)
    verdicts = [json.loads(c["report"])["verdict"] for c in cases]
    assert verdicts.count("spectrally_stable_not_linear") >= 8
    assert {"linearly_stable", "spectrally_unstable"} < set(verdicts)
    assert any("omega" in c for c in cases)
    for k, case in enumerate(cases):
        argv = ["classify", write_json(tmp_path / f"{k}-b.json", case["b"])]
        if "omega" in case:
            argv += ["--omega", write_json(tmp_path / f"{k}-omega.json", case["omega"])]
        assert main(argv) == 0, case["case"]
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (case["report"], ""), case["case"]


def test_flow_krein_computes_char_poly_once(tmp_path, capsys, monkeypatch):
    # one power-sum pass over Z[mu] / (mu^2) gives char_poly(J B) to the
    # classification and the mu^1 part of det(mu I - B - s G) to the flow
    calls = count_calls(monkeypatch, "_char_poly_int", ("matrix_core", "spectral_flow"))
    for b in ([[1, 0], [0, 1]], [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]):
        calls.clear()
        path = write_json(tmp_path / "path.json", {"type": "krein", "b": b, "s_max": 2})
        assert main(["flow", path]) == 0
        assert "kappa_identity" in json.loads(capsys.readouterr().out)
        assert len(calls) == 1


# J B stable; with a real pair; with a nilpotent pair block; with a zero pair
KREIN_VERDICT_ROWS = {
    "linearly_stable": [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 1]],
    "spectrally_unstable": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 2]],
    "spectrally_stable_not_linear": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 2]],
    "singular": [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 3]],
}


def test_exact_krein_flow_and_kappa_build_no_float_spectrum(tmp_path, capsys, monkeypatch):
    # the kappa and even-index verdicts read exact counts only: the float
    # display of the classification (np.roots and its polish, the minimal
    # polynomial of a defective J B) is built only where a report prints it
    spectra = count_calls(monkeypatch, "_exact_spectrum", ("matrix_core", "stability"))
    minimal = count_calls(monkeypatch, "minimal_poly", ("matrix_core",))
    verdicts = set()
    for name, rows in KREIN_VERDICT_ROWS.items():
        path = write_json(tmp_path / "path.json", {"type": "krein", "b": rows, "s_max": 4})
        assert main(["flow", path]) == 0
        verdicts.add(json.loads(capsys.readouterr().out)["kappa_identity"]["verdict"])
        kappa_identity_check(Matrix(rows, RATIONAL))
        if name in ("linearly_stable", "spectrally_unstable"):  # B invertible
            invertible_even_index_check(Matrix(rows, RATIONAL))
        assert spectra == minimal == []
    assert verdicts == {"linearly_stable", "spectrally_unstable", "spectrally_stable_not_linear"}
    # classify prints the spectrum, and a defective J B's eigenvalue too
    for rows, expected in zip(KREIN_VERDICT_ROWS.values(), (1, 1, 2, 1)):
        spectra.clear()
        minimal.clear()
        assert main(["classify", write_json(tmp_path / "b.json", rows)]) == 0
        assert json.loads(capsys.readouterr().out)["spectrum"]
        assert (len(spectra), len(minimal)) == (expected, expected - 1)


def test_exact_kappa_takes_the_nullity_from_the_memo(monkeypatch):
    # classify leaves char_poly(B) in B's memo, and kappa reads dim ker B off
    # it: no rank of B by elimination
    bareiss = count_calls(monkeypatch, "_bareiss_echelon", ("matrix_core",))
    expected = {"spectrally_stable_not_linear": (2, 1, 1, False, "spectrally_stable_not_linear"),
                "singular": (2, 1, 2, True, "linearly_stable")}
    for name, want in expected.items():
        k = kappa_identity_check(Matrix(KREIN_VERDICT_ROWS[name], RATIONAL))
        assert (k.n, k.kappa, k.nullity, k.holds, k.classification.verdict.value) == want
    assert bareiss == []


def test_exact_linear_flow_takes_one_pencil_polynomial(tmp_path, capsys, monkeypatch):
    # chi(mu, t) of a linear path is one characteristic polynomial over
    # Z_p[t], of a stack of one matrix, not one per sample of the path
    stacks = []
    for mod_name in ("matrix_core", "spectral_flow"):
        mod = importlib.import_module(f"relequil.{mod_name}")

        def counted(ms, *args, _original=mod._char_poly_int, **kwargs):
            stacks.append(len(ms))
            return _original(ms, *args, **kwargs)

        monkeypatch.setattr(mod, "_char_poly_int", counted)
    for start, end in (([[1, 0, 0], [0, -1, 0], [0, 0, 2]],
                        [["1/2", 1, 0], [1, 3, 0], [0, 0, -1]]),
                       ([[0, 0], [0, 1]], [[1, 0], [0, 1]])):
        stacks.clear()
        path = write_json(tmp_path / "path.json", {"type": "linear", "start": start, "end": end})
        assert main(["flow", path]) == 0
        assert json.loads(capsys.readouterr().out)["path"] == "linear"
        assert stacks == [1]


def test_float_requests_take_one_spectrum(tmp_path, capsys, monkeypatch):
    # float classify clusters one eigvals(J B) and tests semisimplicity on
    # it; a float Krein flow and its kappa check read the same eigenvalues
    calls = []
    original = np.linalg.eigvals

    def counted(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    b = [[2.0, 1.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 3.0]]
    matrix = write_json(tmp_path / "b.json", b)
    assert main(["classify", matrix, "--backend", "float"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "linearly_stable"
    assert calls == [(4, 4)]
    calls.clear()
    path = write_json(tmp_path / "path.json", {"type": "krein", "b": b, "s_max": 2.5})
    assert main(["flow", path, "--backend", "float"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kappa_identity"]["holds"] and report["crossings"]
    assert calls == [(4, 4)]
    # the public test on its own still takes its own spectrum
    calls.clear()
    assert is_semisimple(Matrix(b, FLOAT64)).semisimple
    assert calls == [(4, 4)]


def count_linalg(monkeypatch, names) -> dict:
    """Wrap each named ``np.linalg`` routine with a counter."""
    calls = {name: 0 for name in names}
    for name in names:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_float_flows_take_one_stacked_eigvalsh(tmp_path, capsys, monkeypatch):
    # a float linear flow takes its locations from one eigvals and every
    # count from one stacked eigvalsh, after one check of the ends for a
    # base point; a float Krein flow reads its locations off the shared
    # eigvals(J B), and only kappa's rank takes an SVD: invertible ends
    # compute no kernel
    calls = count_linalg(monkeypatch, ["det", "eigh", "eigvalsh", "eigvals", "svd"])
    start = [[float(-(i + 1) if i < 3 else 1) * (i == j) for j in range(12)] for i in range(12)]
    end = [[float(i == j) for j in range(12)] for i in range(12)]
    path = write_json(tmp_path / "linear.json", {"type": "linear", "start": start, "end": end})
    assert main(["flow", path, "--backend", "float"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["flow"] == 3 and len(report["crossings"]) == 3
    assert calls == {"det": 0, "eigh": 0, "eigvalsh": 2, "eigvals": 1, "svd": 0}
    calls.update(dict.fromkeys(calls, 0))
    b = [[2.0, 1.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 3.0]]
    path = write_json(tmp_path / "krein.json", {"type": "krein", "b": b, "s_max": 3.0})
    assert main(["flow", path, "--backend", "float"]) == 0
    assert len(json.loads(capsys.readouterr().out)["crossings"]) == 2
    assert calls == {"det": 0, "eigh": 0, "eigvalsh": 1, "eigvals": 1, "svd": 1}


def test_float_flow_end_kernel_and_singular_path(tmp_path, capsys):
    # B = diag(1, 0): G vanishes on ker B, so the start correction is 0
    # (the Morse step to the next sample would say 1); a path singular at
    # every parameter exits 3
    path = write_json(tmp_path / "krein.json",
                      {"type": "krein", "b": [[1.0, 0.0], [0.0, 0.0]], "s_max": 1.0})
    assert main(["flow", path, "--backend", "float"]) == 0
    assert capsys.readouterr().out == (
        '{"backend":"float","crossings":[],"end_correction":0,"flow":0,"kappa_identity":'
        '{"holds":false,"kappa":0,"n":1,"nullity":1,"verdict":"spectrally_stable_not_linear"},'
        '"path":"krein","start_correction":0}\n')
    path = write_json(tmp_path / "linear.json", {
        "type": "linear", "start": [[1.0, 0.0], [0.0, 0.0]], "end": [[2.0, 0.0], [0.0, 0.0]]})
    assert main(["flow", path, "--backend", "float"]) == 3
    assert capsys.readouterr().err == \
        "error: irregular crossing at parameter nan: the path is singular at every parameter\n"


def test_exact_flow_computes_no_kernel_of_an_invertible_matrix(tmp_path, capsys, monkeypatch):
    # det B = r(0) for the even part r of char_poly(J B): an invertible B
    # has no kernel, so no elimination runs on it; a singular Krein B takes
    # its start correction from rank B and rank(B J B), and its kappa check
    # the nullity from the same rank B, and a linear path reads its end
    # corrections off det(mu I - A(t)): no exact flow computes a kernel or
    # builds a Subspace
    kernels = count_calls(monkeypatch, "kernel", ("matrix_core", "spectral_flow", "stability"))
    ranks = count_calls(monkeypatch, "rank", ("spectral_flow",))
    subspaces = []
    post_init = Subspace.__post_init__
    monkeypatch.setattr(Subspace, "__post_init__",
                        lambda self: subspaces.append(self) or post_init(self))
    for path, singular in (
            ({"type": "krein", "b": [[1, 0], [0, 1]], "s_max": 2}, False),
            ({"type": "krein", "b": COUNTEREXAMPLE_ROWS, "s_max": 2}, True),
            ({"type": "linear", "start": [[1, 0], [0, 1]], "end": [[2, 0], [0, 3]]}, False),
            ({"type": "linear", "start": [[0, 0], [0, 1]], "end": [[1, 0], [0, 1]]}, True)):
        ranks.clear()
        assert main(["flow", write_json(tmp_path / "path.json", path)]) == 0
        capsys.readouterr()
        assert len(ranks) == (2 if singular and path["type"] == "krein" else 0)
    assert kernels == subspaces == []


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


@pytest.mark.parametrize("s_max", [0.9999999999999, 1, 1 + 1e-9])
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


def test_float_krein_irregular_crossing_message(tmp_path, capsys):
    # J B has a Jordan block at +-i: B + s G is tangent to singular at s = 1;
    # the float location prints as a plain number
    b = [[1, 0, 0, -1], [0, 1, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
    path = write_json(tmp_path / "path.json", {"type": "krein", "b": b, "s_max": 2})
    for backend in ("exact", "float"):
        assert main(["flow", path, "--backend", backend]) == 3
        err = capsys.readouterr().err
        match = re.fullmatch(r"error: irregular crossing at parameter (\S+): "
                             r"degenerate crossing form\n", err)
        assert match and float(match[1]) == pytest.approx(1.0), err


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


_TWO_BODIES = {"masses": [1.0, 2.0], "alpha": 1.0, "positions": [[-1.0, 0.0], [0.5, 0.0]]}
_NONFINITE_AT = {"alpha": lambda v: {"alpha": v}, "masses": lambda v: {"masses": [1.0, v]},
                 "positions": lambda v: {"positions": [[-1.0, v], [0.5, 0.0]]}}
_PAIRS = "(x, y) pairs or a flat list of numbers"


def test_nbody_rejects_unknown_settings(tmp_path, capsys):
    problem = write_json(tmp_path / "p.json", {
        "masses": [1.0, 1.0],
        "alpha": 1.0,
        "positions": [[-1.0, 0.0], [1.0, 0.0]],
        "settings": {"speed": 11},
    })
    assert main(["nbody-find-cc", problem]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command, data, message", [
    pytest.param("nbody-find-cc", {**_TWO_BODIES, "setings": {"cc_tol": 1e-3}},
                 "unknown problem file keys: ['setings']", id="problem"),
    pytest.param("flow", {"type": "linear", "start": [[1]], "end": [[2]], "s_max": 2},
                 "unknown linear path keys: ['s_max']", id="linear-path"),
    pytest.param("flow", {"type": "krein", "b": [[1, 0], [0, 1]], "s_max": 2, "sMax": 3},
                 "unknown krein path keys: ['sMax']", id="krein-path"),
    pytest.param("flow", {"type": "krein", "b": {"rows": [[1, 0], [0, 1]], "feild": "float64"},
                          "s_max": 2}, "unknown matrix object keys: ['feild']", id="path-matrix"),
    pytest.param("classify", {"rows": [[1, 0], [0, 1]], "field": "rational",
                              "omega": [[0, -1], [1, 0]]},
                 "unknown matrix object keys: ['omega']", id="matrix"),
])
def test_input_files_reject_unknown_keys(tmp_path, capsys, command, data, message):
    # a misspelt key was ignored: the file ran with defaults and exited 0
    assert main([command, write_json(tmp_path / "in.json", data)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


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


@pytest.mark.parametrize("change, message", [
    *(pytest.param(_NONFINITE_AT[field](value), f"{field} must be finite", id=f"{value}-{field}")
      for value in (math.nan, math.inf, -math.inf) for field in _NONFINITE_AT),
    pytest.param(_NONFINITE_AT["positions"](10 ** 400), "positions must be finite",
                 id="int-beyond-float-positions"),
    # strings and booleans are not numbers, a string is not read one
    # character per coordinate, and ragged pairs are not regrouped
    pytest.param({"masses": "11", "alpha": 1, "positions": "1001"},
                 "masses must be a list of numbers", id="string-fields"),
    pytest.param({"masses": [1, 2, 1], "positions": ["10", "01", [0.5, 0.9]]},
                 f"positions must be {_PAIRS}", id="string-pairs"),
    pytest.param({"positions": [[1, 0, 5], [0]]}, f"positions must be {_PAIRS}",
                 id="ragged-pairs"),
    pytest.param({"masses": ["1", "1", True], "alpha": "1"},
                 "masses must be a list of numbers", id="string-and-bool-masses"),
    pytest.param({"alpha": "1"}, "alpha must be a number", id="string-alpha"),
])
def test_nbody_rejects_nonfinite_input(tmp_path, capsys, change, message):
    problem = write_json(tmp_path / "p.json", {**_TWO_BODIES, **change})
    for command in ("nbody-find-cc", "nbody-stability"):
        assert main([command, problem]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


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


@pytest.mark.parametrize("alpha", [2000, 1e308])
def test_nbody_rejects_an_overflowing_pair_potential(tmp_path, capsys, alpha):
    # r^-alpha at r < 1 overflowed CPython's float pow in the pair kernel,
    # an uncaught OverflowError with a traceback
    problem = write_json(tmp_path / "p.json", {
        "masses": [1, 1, 1], "alpha": alpha, "positions": [[0, 0], [1, 0], [0, 1.5]]})
    for command in ("nbody-find-cc", "nbody-stability"):
        assert main([command, problem]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the pair potential r^-alpha overflows")


@pytest.mark.filterwarnings("error")
def test_nbody_rejects_a_potential_that_overflows_after_the_power(tmp_path, capsys):
    # m_i m_j is finite, but m_i m_j r^-alpha overflows once the search has
    # rescaled q to I = 1: numpy warned and the search exited 2 with "gauge
    # constraints are rank deficient"
    problem = write_json(tmp_path / "p.json", {
        "masses": [1e150, 1e150, 1e150], "alpha": 1,
        "positions": [[0, 0], [1, 0], [0.5, 0.9]]})
    for command in ("nbody-find-cc", "nbody-stability"):
        assert main([command, problem]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the pair potential r^-alpha overflows the float range "
                                "at alpha = 1.0 and r = 9.806e-76\n")


def test_nbody_rejects_positions_whose_scale_overflows(tmp_path, capsys):
    # finite positions: numpy warned in the pair differences, the center of
    # mass or the rescale to I = 1, then the commands exited 1 with a
    # collision message or "positions must be finite"
    for positions, name in (([[1e308, 0], [-1e308, 0]], "pair difference q_i - q_j"),
                            ([[1e308, 0], [1e308, 1e308]], "center of mass of the positions"),
                            ([[1e200, 0], [-1e200, 0]], "locked inertia q^T M q")):
        problem = write_json(tmp_path / "p.json",
                             {"masses": [1, 1], "alpha": 1, "positions": positions})
        for command in ("nbody-find-cc", "nbody-stability"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([command, problem]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: the {name} overflows the float range\n"


def test_nbody_unbuildable_slice_basis_exits_2(tmp_path, capsys):
    # at masses 1e30 the gauge constraints m and M q differ in scale by
    # 1e15 and lose rank in floating point: an error line, not a traceback
    problem = write_json(tmp_path / "p.json", {
        "masses": [1e30, 1e30, 1e30], "alpha": 1,
        "positions": [[0, 0], [1, 0], [0.5, 0.8]]})
    assert main(["nbody-stability", problem]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: gauge constraints are rank deficient\n"


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
