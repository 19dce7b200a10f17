import contextlib
import importlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relequil.cli import main, run_examples

COUNTEREXAMPLE_ROWS = [[-2, 0, 0, 0, 0, 0], [0, -1, 0, 0, 0, 0],
                       [0, 0, 1, 0, 0, 0], [0, 0, 0, -1, 0, 0],
                       [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]]


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
CHAR_POLY_SITES = ("matrix_core", "stability", "spectral_flow")


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


def test_flow_krein_computes_char_poly_at_most_twice(tmp_path, capsys, monkeypatch):
    calls = count_calls(monkeypatch, "char_poly", CHAR_POLY_SITES)
    for b in ([[1, 0], [0, 1]], [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]):
        calls.clear()
        path = write_json(tmp_path / "path.json", {"type": "krein", "b": b, "s_max": 2})
        assert main(["flow", path]) == 0
        assert "kappa_identity" in json.loads(capsys.readouterr().out)
        assert len(calls) <= 2


def test_flow_rejects_nonfinite_s_max(tmp_path, capsys):
    path = tmp_path / "path.json"
    path.write_text('{"type": "krein", "b": [[1.0, 0.0], [0.0, 1.0]], "s_max": Infinity}')
    assert main(["flow", str(path), "--backend", "float"]) == 1
    assert capsys.readouterr().err == \
        "error: the float backend needs finite numbers, got inf\n"


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
