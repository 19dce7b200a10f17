"""Command-line front end.

Subcommands:
    classify         stability classification of J B (or Omega B) from a matrix file
    flow             spectral flow of a path file (straight segment or Krein deformation)
    nbody-find-cc    central-configuration search from a problem file
    nbody-stability  cc search plus amended-Hessian report and instability verdicts
    examples         built-in worked-example table (deterministic, self-checking)

Exit codes: 0 success, 1 input error, 2 indeterminate outcome, 3 irregular
crossing.  Reports are deterministic JSON (sorted keys, 17-digit floats).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

from . import jsonio
from .matrix_core import (
    FLOAT64,
    RATIONAL,
    IndeterminateError,
    Matrix,
    complex_spectrum,
    inertia,
    is_semisimple,
    standard_symplectic,
)
from .nbody import (
    BasisConstructionError,
    CCSettings,
    CollisionError,
    ConvergenceError,
    NBodySystem,
    amended_hessian,
    e1_linearization,
    find_central_configuration,
    locked_inertia,
    potential_U,
    stability_verdict,
)
from .spectral_flow import (
    IrregularCrossingError,
    KreinPath,
    LinearPath,
    _krein_flow_and_kappa,
    spectral_flow,
)
from .stability import Verdict, block_normal_form, classify, parity_verdict

__all__ = ["main", "run_examples"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INDETERMINATE = 2
EXIT_IRREGULAR = 3


def _field_of(backend: str) -> str:
    return RATIONAL if backend == "exact" else FLOAT64


def _write_report(report: dict, out: Optional[str]) -> None:
    text = jsonio.dumps(report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _complex_or_none(z) -> Optional[dict]:
    if z is None:
        return None
    return {"im": float(z.imag), "re": float(z.real)}


def _inertia_data(report) -> dict:
    return {
        "coindex": report.coindex,
        "morse_index": report.morse_index,
        "nullity": report.nullity,
    }


def _verdict_data(v) -> dict:
    return {
        "morse_index": v.morse_index,
        "nullity": v.nullity,
        "predicts_instability": v.predicts_instability,
        "reason": v.reason,
    }


# ---------------------------------------------------------------------------
# classify


def _run_classify(args) -> int:
    field = _field_of(args.backend)
    b = jsonio.matrix_from_data(jsonio.load_json(args.matrix), field)
    omega = None
    if args.omega:
        omega = jsonio.matrix_from_data(jsonio.load_json(args.omega), field)
    cls = classify(b, omega=omega, tol=args.tol)
    ir = inertia(b, tol=args.tol)
    pred = parity_verdict(ir.morse_index, ir.nullity)
    report = {
        "backend": args.backend,
        "defective_eigenvalue": _complex_or_none(cls.defective_eigenvalue),
        "inertia": _inertia_data(ir),
        "offending_eigenvalue": _complex_or_none(cls.offending_eigenvalue),
        "prediction": _verdict_data(pred),
        "semisimple": cls.semisimple,
        "spectrum": [
            {"im": ev.value.imag, "multiplicity": ev.multiplicity, "re": ev.value.real}
            for ev in cls.spectrum
        ],
        "spectrum_on_axis": cls.spectrum_on_axis,
        "tol": cls.tol,
        "verdict": cls.verdict.value,
    }
    _write_report(report, args.out)
    return EXIT_INDETERMINATE if cls.verdict == Verdict.INDETERMINATE else EXIT_OK


# ---------------------------------------------------------------------------
# flow


def _run_flow(args) -> int:
    field = _field_of(args.backend)
    data = jsonio.load_json(args.path)
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError("path file needs a \"type\" of \"linear\" or \"krein\"")
    kind = data["type"]
    if kind not in ("linear", "krein"):
        raise ValueError(f"unknown path type {kind!r}")
    needed, optional = (("start", "end"), ()) if kind == "linear" else (("b",), ("s_max",))
    for key in needed:
        if key not in data:
            raise ValueError(f"path file is missing {key!r}")
    jsonio.check_keys(data, ("type",) + needed + optional, f"{kind} path keys")
    if kind == "linear":
        if args.s_max is not None:
            raise ValueError("--s-max applies only to a Krein path")
        start = jsonio.matrix_from_data(data["start"], field)
        end = jsonio.matrix_from_data(data["end"], field)
        result = spectral_flow(LinearPath(start, end), tol=args.tol)
    else:
        b = jsonio.matrix_from_data(data["b"], field)
        if args.s_max is not None:
            s_max = jsonio.scalar_from_data(args.s_max, field)
        elif "s_max" in data:
            s_max = jsonio.scalar_from_data(data["s_max"], field)
        else:
            raise ValueError("Krein path needs s_max (file field or --s-max)")
        result, k = _krein_flow_and_kappa(KreinPath(b, s_max), args.tol)
    report = {
        "backend": args.backend,
        "crossings": [
            {
                "exact_location": c.exact_location,
                "location": c.location,
                "multiplicity": c.multiplicity,
                "negative": c.negative,
                "positive": c.positive,
                "regular": c.regular,
                "signature": c.signature,
            }
            for c in result.crossings
        ],
        "end_correction": result.end_correction,
        "flow": result.flow,
        "path": kind,
        "start_correction": result.start_correction,
    }
    if kind == "linear":
        report["relative_morse_index"] = -result.flow
    else:
        report["kappa_identity"] = {
            "holds": bool(k.holds),
            "kappa": k.kappa,
            "n": k.n,
            "nullity": k.nullity,
            "verdict": k.classification.verdict.value,
        }
    _write_report(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# n-body


def _load_problem(path: str):
    data = jsonio.load_json(path)
    if not isinstance(data, dict):
        raise ValueError("problem file must be a JSON object")
    for key in ("masses", "alpha", "positions"):
        if key not in data:
            raise ValueError(f"problem file is missing {key!r}")
    jsonio.check_keys(data, ("masses", "alpha", "positions", "settings"), "problem file keys")
    system = NBodySystem.assemble(data["masses"], data["alpha"], data["positions"])
    raw = data.get("settings", {})
    if not isinstance(raw, dict):
        raise ValueError("settings must be an object")
    jsonio.check_keys(raw, ("cc_tol", "max_iter", "collision_guard", "armijo_factor"), "settings")
    settings = CCSettings(**raw)
    return system, settings


def _cc_data(cc) -> dict:
    return {
        "alpha": cc.system.alpha,
        "locked_inertia": locked_inertia(cc.system),
        "masses": list(cc.system.masses),
        "positions": cc.system.q().reshape(-1, 2).tolist(),
        "potential": cc.potential,
        "residual": cc.residual,
        "xi_squared": cc.xi_squared,
    }


def _run_find_cc(args) -> int:
    system, settings = _load_problem(args.problem)
    cc = find_central_configuration(system, settings)
    _write_report(_cc_data(cc), args.out)
    return EXIT_OK


def _run_nbody_stability(args) -> int:
    system, settings = _load_problem(args.problem)
    cc = find_central_configuration(system, settings)
    verdict = stability_verdict(cc)
    rep = verdict.hessian
    report = {
        "cc": _cc_data(cc),
        "hessian": {
            "dim_shat": rep.dim_shat,
            "dim_v": rep.dim_v,
            "inertia_shat": _inertia_data(rep.inertia_shat),
            "inertia_v": _inertia_data(rep.inertia_v),
            "radial_eigenvalue": rep.radial_eigenvalue,
            "radial_residual": rep.radial_residual,
            "sign_identity_residual": rep.sign_identity_residual,
        },
        "verdicts": {
            "e2": _verdict_data(verdict.e2),
            "reduced": None if verdict.reduced is None else _verdict_data(verdict.reduced),
        },
    }
    _write_report(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# worked examples


def _fmt(x: float) -> str:
    x = float(x)
    return format(x + 0.0 if x == 0 else x, ".12g")


def _fmt_complex(z: complex) -> str:
    return f"{_fmt(z.real)}{'+' if z.imag >= 0 else '-'}{_fmt(abs(z.imag))}i"


def _fmt_spectrum(pairs) -> str:
    return " ".join(f"{_fmt_complex(v)}x{m}" for v, m in pairs)


def _spectrum_pairs(matrix: Matrix):
    return [(ev.value, ev.multiplicity) for ev in complex_spectrum(matrix)]


def run_examples(stream=None) -> int:
    """Recompute the worked examples and print an expected/computed table.

    Every row is checked; any mismatch turns the row into FAIL and the exit
    code nonzero.  The output is deterministic byte for byte.
    """
    stream = stream if stream is not None else sys.stdout
    rows = []

    def row(name: str, expected: str, computed: str):
        rows.append((name, expected, computed, expected == computed))

    # 2x2 block taxonomy
    f = block_normal_form(0, 0)
    row("block-zero", "kind=zero spectrum=0+0ix2",
        f"kind={f.kind} spectrum={_fmt_spectrum(_spectrum_pairs(f.matrix))}")
    f = block_normal_form(2, 0)
    ss = is_semisimple(f.matrix)
    row("block-nilpotent", "kind=nilpotent_jordan semisimple=False",
        f"kind={f.kind} semisimple={ss.semisimple}")
    for name, b_k, b_nk, kind in (("block-imaginary", 1, 2, "imaginary_pair"),
                                  ("block-real", 1, -2, "real_pair")):
        f = block_normal_form(b_k, b_nk)
        pairs = _spectrum_pairs(f.matrix)
        err = max(abs(v - w) for (v, _), w in zip(pairs, sorted(f.eigenvalues,
                                                               key=lambda z: (z.real, z.imag))))
        row(name, f"kind={kind} match<=1e-12",
            f"kind={f.kind} match<=1e-12" if err <= 1e-12 else
            f"kind={f.kind} mismatch={_fmt(err)}")

    # spectrally stable with odd Morse index
    b = Matrix.diagonal([-2, -1, 1, -1, 0, 0])
    cls = classify(b)
    ir = inertia(b)
    row("odd-index-stable-verdict",
        "verdict=spectrally_stable_not_linear morse=3 nullity=2",
        f"verdict={cls.verdict.value} morse={ir.morse_index} nullity={ir.nullity}")
    jb = standard_symplectic(3) @ b
    r2 = math.sqrt(2)
    row("odd-index-stable-spectrum",
        f"spectrum={_fmt_complex(complex(0, -r2))}x1 0+0ix4 "
        f"{_fmt_complex(complex(0, r2))}x1",
        "spectrum=" + _fmt_spectrum(_spectrum_pairs(jb)))

    # the 4x4 symmetry block
    for alpha, expected in ((1, "0+0ix2 0+1ix1 0-1ix1"),
                            (3, "0+0ix2 1+0ix1 -1+0ix1")):
        rep = e1_linearization(1, alpha)
        pairs = _spectrum_pairs(rep.matrix)
        zero_mult = sum(m for v, m in pairs if v == 0)
        nonzero = [(v, m) for v, m in pairs if v != 0]
        closed = [z for z in rep.eigenvalues if z != 0]
        err = 0.0
        for v, _ in nonzero:
            err = max(err, min(abs(v - z) for z in closed)) if closed else abs(v)
        parts = [f"0+0ix{zero_mult}"] + [f"{_fmt_complex(z)}x1" for z in closed]
        ok = zero_mult == 2 and err <= 1e-10 and len(nonzero) == (2 if closed else 0)
        row(f"symmetry-block-alpha-{alpha}", f"spectrum={expected} match<=1e-10",
            f"spectrum={' '.join(parts)} " + ("match<=1e-10" if ok else
                                              f"mismatch={_fmt(err)}"))
    rep = e1_linearization(1, 2)
    row("symmetry-block-alpha-2-jordan", "rank_powers=(3,2,1,0) single_block=True",
        f"rank_powers=({','.join(str(r) for r in rep.rank_powers)}) "
        f"single_block={rep.nilpotent_similar}")

    # two-body pipeline
    cc = find_central_configuration(
        NBodySystem.assemble([1.0, 2.0], 1.0, [(-1.0, 0.0), (0.5, 0.0)]))
    ok = cc.residual <= 1e-10 and abs(locked_inertia(cc.system) - 1.0) <= 1e-12 \
        and abs(cc.xi_squared - cc.system.alpha * potential_U(cc.system)) <= 1e-12
    row("two-body-cc", "residual<=1e-10 inertia=1 xi2=alpha*U",
        "residual<=1e-10 inertia=1 xi2=alpha*U" if ok else
        f"residual={_fmt(cc.residual)}")

    # equilateral pipeline
    s3 = math.sqrt(3) / 2
    cc = find_central_configuration(NBodySystem.assemble(
        [1.0, 1.0, 1.0], 1.0,
        [(0.02, -0.01), (1.03, 0.05), (0.48, s3 + 0.03)]))
    pts = cc.system.q().reshape(-1, 2)
    dists = sorted(
        math.hypot(*(pts[i] - pts[j])) for i in range(3) for j in range(i + 1, 3))
    equal = dists[-1] - dists[0] <= 1e-8
    row("equilateral-cc", "residual<=1e-10 distances-equal<=1e-8",
        ("residual<=1e-10 " if cc.residual <= 1e-10 else f"residual={_fmt(cc.residual)} ")
        + ("distances-equal<=1e-8" if equal else f"spread={_fmt(dists[-1] - dists[0])}"))
    hrep = amended_hessian(cc)
    row("equilateral-indices", "shat=(0,0) v-morse=2",
        f"shat=({hrep.inertia_shat.morse_index},{hrep.inertia_shat.nullity}) "
        f"v-morse={hrep.inertia_v.morse_index}")
    radial_err = abs(hrep.radial_eigenvalue - (2 - cc.system.alpha) * cc.xi_squared)
    row("equilateral-radial", "radial=(2-alpha)*xi2<=1e-8",
        "radial=(2-alpha)*xi2<=1e-8" if radial_err <= 1e-8 else
        f"radial-err={_fmt(radial_err)}")
    row("equilateral-sign-identity", "max-entry<=1e-8",
        "max-entry<=1e-8" if hrep.sign_identity_residual <= 1e-8 else
        f"max-entry={_fmt(hrep.sign_identity_residual)}")

    name_w = max(len(r[0]) for r in rows)
    exp_w = max(len(r[1]) for r in rows)
    failures = []
    lines = [f"{'RESULT':6}  {'ROW':{name_w}}  {'EXPECTED':{exp_w}}  COMPUTED"]
    for name, expected, computed, ok in rows:
        lines.append(f"{'PASS' if ok else 'FAIL':6}  {name:{name_w}}  "
                     f"{expected:{exp_w}}  {computed}")
        if not ok:
            failures.append(name)
    if failures:
        lines.append(f"{len(failures)} of {len(rows)} rows failed: "
                     + " ".join(failures))
    else:
        lines.append(f"all {len(rows)} rows pass")
    stream.write("\n".join(lines) + "\n")
    return EXIT_INPUT if failures else EXIT_OK


def _run_examples_cmd(args) -> int:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            return run_examples(fh)
    return run_examples(sys.stdout)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _tolerance(text: str) -> float:
    """A ``--tol`` value: a finite number >= 0."""
    try:
        t = float(text)
    except ValueError:
        t = math.nan
    if not 0 <= t < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return t


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relequil",
        description="Linear stability of Hamiltonian equilibria: exact "
                    "classification, spectral flow, and relative equilibria "
                    "of planar n-body-type problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, backend=True):
        if backend:
            p.add_argument("--backend", choices=("exact", "float"),
                           default="exact")
            p.add_argument("--tol", type=_tolerance, default=None,
                           help="float-backend tolerance (default scales "
                                "with the matrix)")
        p.add_argument("--out", default=None, help="write the report here "
                                                   "instead of stdout")

    p = sub.add_parser("classify", help="stability classification of a "
                                        "symmetric matrix file")
    p.add_argument("matrix", help="JSON matrix file")
    p.add_argument("--omega", default=None,
                   help="JSON skew form file (defaults to the standard one)")
    common(p)
    p.set_defaults(func=_run_classify)

    p = sub.add_parser("flow", help="spectral flow of a path file")
    p.add_argument("path", help="JSON path file (type linear or krein)")
    p.add_argument("--s-max", dest="s_max", default=None,
                   help="overrides the Krein endpoint from the file")
    common(p)
    p.set_defaults(func=_run_flow)

    p = sub.add_parser("nbody-find-cc", help="central configuration search")
    p.add_argument("problem", help="JSON problem file")
    common(p, backend=False)
    p.set_defaults(func=_run_find_cc)

    p = sub.add_parser("nbody-stability", help="cc search plus instability "
                                               "verdicts")
    p.add_argument("problem", help="JSON problem file")
    common(p, backend=False)
    p.set_defaults(func=_run_nbody_stability)

    p = sub.add_parser("examples", help="recompute the built-in worked "
                                        "examples")
    common(p, backend=False)
    p.set_defaults(func=_run_examples_cmd)
    return parser


# Built once per process, since building costs 20x a parse; ``parse_args``
# fills a fresh Namespace per call, so no option carries over between calls.
_PARSER = _build_parser()


def main(argv: Optional[list] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code in (0, None) else EXIT_INPUT
    try:
        return args.func(args)
    except IrregularCrossingError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IRREGULAR
    except (IndeterminateError, ConvergenceError, BasisConstructionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
