"""The four workloads: what one round of requests holds, and its checks.

A round is a fixed list of requests (subcommand, backend, size class and
input kind), so every run repeats whole rounds of the same operations.  The
inputs of round ``r`` are drawn from ``random.Random(f"{workload}:{seed}:{r}")``.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import construct as C
import oracles as O


@dataclass
class Request:
    label: str  # kind, backend and size class, e.g. "classify-exact-16-linearly_stable"
    size: int  # 2n, or the body count for n-body requests
    argv: list
    check: Callable[[dict], list]
    problem: C.Problem | None = None  # the n-body seed, for the traced hess_U timing
    crossings: bool = False  # whether the report carries a crossing list


@dataclass
class Workload:
    name: str
    make_round: Callable
    largest: int  # the size class that largest_p50_ms is taken over
    pool_rounds: int  # distinct rounds per seed; two passes over them make 100+ requests


def _write(path: str, data) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _as_float(rows) -> list:
    return [[float(x) for x in r] for r in rows]


def _as_exact(rows) -> list:
    return [[x if isinstance(x, int) else str(x) for x in r] for r in rows]


# ---------------------------------------------------------------------------
# classify-exact

_CLASSIFY_ROUND = [  # (2n, verdict, with --omega): 4 of 26 requests pass --omega
    *[(8, "spectrally_unstable", False)] * 9, (8, "spectrally_unstable", True),
    *[(8, "linearly_stable", False)] * 3, (8, "linearly_stable", True),
    *[(8, "spectrally_stable_not_linear", False)] * 4,
    (12, "linearly_stable", True), (12, "spectrally_stable_not_linear", False),
    (12, "spectrally_unstable", True),
    *[(16, "linearly_stable", False)] * 2, *[(16, "spectrally_stable_not_linear", False)] * 2,
    (16, "spectrally_unstable", False),
]


def _classify_request(rng, d: str, k: int, dim: int, verdict: str, omega: bool,
                      backend: str) -> Request:
    h = C.hamiltonian(rng, dim // 2, verdict, with_omega=omega)
    conv = _as_exact if backend == "exact" else _as_float
    if omega:
        argv = ["classify", _write(f"{d}/{k}-b.json", conv(h.b_for_omega)),
                "--omega", _write(f"{d}/{k}-omega.json", conv(h.omega))]
    else:
        argv = ["classify", _write(f"{d}/{k}-b.json", conv(h.b))]
    argv += ["--backend", backend]
    return Request(f"classify-{backend}-{dim}-{verdict}{'-omega' if omega else ''}", dim, argv,
                   lambda rep: O.check_classify(rep, h))


def classify_exact_round(rng, d: str) -> list:
    return [_classify_request(rng, d, k, dim, v, om, "exact")
            for k, (dim, v, om) in enumerate(_CLASSIFY_ROUND)]


# ---------------------------------------------------------------------------
# flow-exact

_FLOW_ROUND = [  # ("linear", 2n) or ("krein", 2n, verdict)
    *[("linear", 6)] * 6, *[("linear", 8)] * 10, *[("linear", 12)] * 2,
    ("krein", 8, "linearly_stable"), ("krein", 8, "spectrally_unstable"),
    ("krein", 12, "linearly_stable"), ("krein", 12, "spectrally_unstable"),
    ("krein", 16, "linearly_stable"), *[("krein", 16, "spectrally_unstable")] * 3,
]


def _linear_request(rng, d: str, k: int, dim: int, backend: str) -> Request:
    seg = C.segment(rng, dim)
    conv = _as_exact if backend == "exact" else _as_float
    path = {"type": "linear", "start": conv(seg.start), "end": conv(seg.end)}
    argv = ["flow", _write(f"{d}/{k}-path.json", path), "--backend", backend]
    return Request(f"flow-{backend}-linear-{dim}", dim, argv,
                   lambda rep: O.check_linear_flow(rep, seg), crossings=True)


def _krein_request(rng, d: str, k: int, dim: int, verdict: str, backend: str) -> Request:
    h = C.hamiltonian(rng, dim // 2, verdict)
    if backend == "exact":
        path = {"type": "krein", "b": h.b, "s_max": str(h.s_max)}
    else:
        path = {"type": "krein", "b": _as_float(h.b), "s_max": float(h.s_max)}
    argv = ["flow", _write(f"{d}/{k}-path.json", path), "--backend", backend]
    return Request(f"flow-{backend}-krein-{dim}-{verdict}", dim, argv,
                   lambda rep: O.check_krein_flow(rep, h), crossings=True)


def _flow_round(rng, d: str, spec: list, backend: str) -> list:
    out = []
    for k, item in enumerate(spec):
        if item[0] == "linear":
            out.append(_linear_request(rng, d, k, item[1], backend))
        else:
            out.append(_krein_request(rng, d, k, item[1], item[2], backend))
    return out


def flow_exact_round(rng, d: str) -> list:
    return _flow_round(rng, d, _FLOW_ROUND, "exact")


# ---------------------------------------------------------------------------
# nbody-stability

_NBODY_ROUND = [  # (shape, bodies on the polygon or ring, alpha)
    *[("polygon", 8, 1.0)] * 3, ("polygon", 16, 1.0), ("polygon", 24, 1.0),
    *[("polygon", 40, 1.0)] * 3, *[("ring", 10, 1.0)] * 2, ("ring", 20, 1.0),
    *[("polygon", 6, 2.0)] * 2, *[("polygon", 12, 2.0)] * 2,
    ("polygon", 6, 3.0), *[("polygon", 12, 3.0)] * 2,
]


def nbody_round(rng, d: str) -> list:
    out = []
    for k, (shape, n, alpha) in enumerate(_NBODY_ROUND):
        prob = C.polygon(rng, n, alpha) if shape == "polygon" else C.ring(rng, n, alpha)
        data = {"masses": prob.masses, "alpha": prob.alpha, "positions": prob.positions}
        argv = ["nbody-stability", _write(f"{d}/{k}-problem.json", data)]
        out.append(Request(f"nbody-{shape}-{n}-alpha{alpha:g}", len(prob.masses), argv,
                           (lambda p: lambda rep: O.check_nbody(rep, p))(prob),
                           problem=prob))
    return out


# ---------------------------------------------------------------------------
# float-backend

_FLOAT_CLASSIFY = [(8, "linearly_stable"), (8, "spectrally_unstable"),
                   (12, "linearly_stable"), (12, "spectrally_unstable"),
                   (16, "linearly_stable"), (16, "spectrally_unstable")]
_FLOAT_FLOW = [("linear", 6), ("linear", 8), ("linear", 12),
               ("krein", 8, "linearly_stable"), ("krein", 8, "spectrally_unstable"),
               ("krein", 12, "linearly_stable"), ("krein", 12, "spectrally_unstable"),
               ("krein", 16, "linearly_stable"), ("krein", 16, "spectrally_unstable")]


def float_round(rng, d: str) -> list:
    return [_classify_request(rng, d, k, dim, v, False, "float")
            for k, (dim, v) in enumerate(_FLOAT_CLASSIFY)] + \
        _flow_round(rng, d, _FLOAT_FLOW, "float")


WORKLOADS = {
    "classify-exact": Workload("classify-exact", classify_exact_round, 16, 2),
    "flow-exact": Workload("flow-exact", flow_exact_round, 16, 5),
    "nbody-stability": Workload("nbody-stability", nbody_round, 40, 3),
    "float-backend": Workload("float-backend", float_round, 16, 21),
}


def generate(workload: Workload, seed: int, root: str) -> list:
    """The pool of distinct rounds of ``workload`` for ``seed``, with their
    input files written under ``root``."""
    rounds = []
    for r in range(workload.pool_rounds):
        d = os.path.join(root, f"round{r:02d}")
        os.makedirs(d, exist_ok=True)
        rng = random.Random(f"{workload.name}:{seed}:{r}")
        rounds.append(workload.make_round(rng, d))
    return rounds
