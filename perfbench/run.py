"""Closed-loop benchmark of the relequil command line, one client, in process.

    python3 perfbench/run.py --workload classify-exact --seed 1 --seconds 25 --trace 0

Run from the root of a checkout that holds ``src/relequil``.  The inputs are
generated from ``--seed`` into ``perfbench/out/``; each request is a call of
``relequil.cli.main`` on one input file, and the next request starts when the
previous one has returned.  Every report is checked against the oracles in
``oracles.py``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code
is 0 only when no request exited non-zero and every report is correct.
"""

from __future__ import annotations

import os

# one BLAS thread: the benchmark is a single client on a small machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from calibrate import REFERENCE_S, kernel_seconds  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
MIN_PASSES = 2  # with each workload's pool, at least 100 requests for the 90th percentile

PER_LAYER_FUNCTIONS = [  # (function span, metrics per request)
    ("matrix_core.char_poly", ("calls", "self_ms")),
    ("matrix_core.minimal_poly", ("self_ms",)),
    ("matrix_core.complex_spectrum", ("calls", "self_ms")),
    ("matrix_core.is_semisimple", ("self_ms",)),
    ("matrix_core.inertia", ("calls", "self_ms")),
    ("matrix_core.kernel", ("calls", "self_ms")),
    ("matrix_core.determinant", ("calls", "self_ms")),
    ("matrix_core.symplectic_reduction", ("self_ms",)),
    ("matrix_core.matmul", ("calls", "self_ms")),
    ("rational_poly.squarefree_decomposition", ("calls", "self_ms")),
    ("rational_poly.gcd", ("calls", "self_ms")),
    ("rational_poly.sturm_chain", ("self_ms",)),
    ("rational_poly.count_distinct_real_roots", ("self_ms",)),
    ("rational_poly.isolate_real_roots", ("self_ms",)),
    ("rational_poly.refine_root", ("self_ms",)),
    ("stability.classify", ("calls", "self_ms")),
    ("stability.theorem_predict", ("self_ms",)),
    ("spectral_flow.spectral_flow", ("self_ms",)),
    ("spectral_flow.kappa_identity_check", ("self_ms",)),
    ("nbody.find_central_configuration", ("self_ms",)),
    ("nbody.amended_hessian", ("self_ms",)),
    ("nbody.stability_verdict", ("self_ms",)),
    ("cli.main", ("self_ms",)),
    ("jsonio.load_json", ("self_ms",)),
    ("jsonio.matrix_from_data", ("self_ms",)),
    ("jsonio.dumps", ("self_ms",)),
]


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _import_cli():
    """Import relequil afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "relequil" or m.startswith("relequil.")]:
        del sys.modules[name]
    cli = importlib.import_module("relequil.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        _fail(f"relequil was imported from {cli.__file__}, not from {SRC}")
    return cli


def _call(cli, argv: list) -> tuple:
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, time.perf_counter() - start, buf.getvalue()


class Run:
    """One closed-loop run: setup, timed passes over the input pool, checks.

    A pass runs every round of the pool once; passes repeat until the time is
    up, at least ``MIN_PASSES`` of them (one when traced, since a traced run
    runs each round untraced and then traced), so every input runs more than
    once and its reports can be compared byte for byte.  After each request
    the reference kernel of ``calibrate.py`` is timed, and the request's time
    is reported at reference speed: multiplied by ``REFERENCE_S`` over the
    mean of the kernel times just before and just after it.
    """

    def __init__(self, workload, rounds: list, seconds: float, trace: bool):
        self.workload = workload
        self.rounds = rounds
        self.seconds = seconds
        self.trace = trace
        self.reports: dict = {}  # (pool round, index) -> first report text
        self.mismatches: list = []
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.wall = 0.0
        self.latencies = ([], [])  # untraced, traced: (label, size, reference seconds)
        self.speed: list = []  # REFERENCE_S / kernel time, one per request
        self.crossings = 0
        self.hess_u_ms: list = []
        self.tracer = None
        self._kernel_s = kernel_seconds()

    def _scale(self) -> float:
        """Reference-speed factor for the interval since the last call."""
        now = kernel_seconds()
        factor = REFERENCE_S / ((now + self._kernel_s) / 2)
        self._kernel_s = now
        return factor

    def setup(self) -> float:
        """Median over SETUP_REPEATS of: import relequil, one warm-up request."""
        times = []
        first = self.rounds[0][0]
        for _ in range(SETUP_REPEATS):
            self._scale()
            start = time.perf_counter()
            self.cli = _import_cli()
            rc, _, text = _call(self.cli, first.argv)
            times.append((time.perf_counter() - start) * self._scale())
            if rc != 0:
                _fail(f"warm-up request {first.label} exited with {rc}")
            self._record((0, 0), text)
        return statistics.median(times)

    def _record(self, key: tuple, text: str) -> None:
        seen = self.reports.setdefault(key, text)
        if seen != text:
            self.mismatches.append(f"{key}: report differs from the first run of the same input")

    def _round(self, pool: int, traced: bool) -> None:
        if traced:
            self.tracer.install()
        for i, req in enumerate(self.rounds[pool]):
            if traced:
                self.tracer.request = self.attempted
            rc, dt, text = _call(self.cli, req.argv)
            hess_s = None
            if traced and req.problem is not None:
                hess_s = self._time_hess_u(req.problem)
            factor = self._scale()
            self.speed.append(factor)
            self.attempted += 1
            self.latencies[traced].append((req.label, req.size, dt * factor))
            if rc != 0:
                self.failed += 1
                self.mismatches.append(f"round {pool} {req.label}: exited with {rc}")
                continue
            self._record((pool, i), text)
            if hess_s is not None:
                self.hess_u_ms.append(1e3 * hess_s * factor)
            if not traced and req.crossings:
                self.crossings += text.count('"signature"')
        if traced:
            self.tracer.uninstall()

    def _time_hess_u(self, prob) -> float:
        """hess_U once on the request's seed, untraced and outside the request."""
        nbody = sys.modules["relequil.nbody"]
        system = nbody.NBodySystem.assemble(prob.masses, prob.alpha, prob.positions)
        start = time.perf_counter()
        nbody.hess_U.__wrapped__(system)
        return time.perf_counter() - start

    def measure(self) -> None:
        if self.trace:
            from spans import Tracer
            self.tracer = Tracer()
        begin = time.perf_counter()
        elapsed = 0.0
        min_passes = 1 if self.trace else MIN_PASSES
        while self.passes < min_passes or elapsed + elapsed / self.passes / 2 < self.seconds:
            for pool in range(len(self.rounds)):
                self._round(pool, False)
                if self.trace:
                    self._round(pool, True)
            self.passes += 1
            elapsed = time.perf_counter() - begin
        self.wall = elapsed

    def check(self) -> None:
        for (pool, i), text in sorted(self.reports.items()):
            req = self.rounds[pool][i]
            for msg in req.check(json.loads(text)):
                self.mismatches.append(f"round {pool} {req.label}: {msg}")

    def end_to_end(self, setup_s: float) -> dict:
        lat = [dt for _, _, dt in self.latencies[False]]
        largest = [dt for _, size, dt in self.latencies[False] if size == self.workload.largest]
        if not largest:
            _fail(f"no request of the largest size class {self.workload.largest} ran")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "setup_s": (setup_s, "s"),
            "requests_per_s": (len(lat) / sum(lat), "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "latency_p90_ms": (1e3 * statistics.quantiles(lat, n=10, method="inclusive")[8], "ms"),
            "largest_p50_ms": (1e3 * statistics.median(largest), "ms"),
            "peak_rss_mb": (rss, "MB"),
        }

    def per_layer(self) -> dict:
        """Means per traced request; span times at the run's median speed."""
        t = self.tracer
        traced = [dt for _, _, dt in self.latencies[True]]
        n = len(traced)
        # span ns summed over all traced requests -> ms per request at reference speed
        ms = statistics.median(self.speed) / 1e6 / n
        out = {}
        for name, kinds in PER_LAYER_FUNCTIONS:
            if "calls" in kinds:
                out[f"{name}.calls"] = (t.calls.get(name, 0) / n, "count")
            if "self_ms" in kinds:
                out[f"{name}.self_ms"] = (t.self_ns.get(name, 0) * ms, "ms")
        from spans import LAYERS
        for layer in LAYERS:
            total = sum(v for k, v in t.self_ns.items() if k.startswith(layer + "."))
            out[f"{layer}.self_ms"] = (total * ms, "ms")
        untraced = [dt for _, _, dt in self.latencies[False]]
        out["spectral_flow.crossings"] = (self.crossings / len(untraced), "count")
        hess = statistics.median(self.hess_u_ms) if self.hess_u_ms else 0.0
        out["nbody.hess_U.ms_per_call"] = (hess, "ms")
        plain_s, traced_s = sum(untraced) / len(untraced), sum(traced) / n
        out["trace.requests_per_s"] = (1.0 / traced_s, "1/s")
        out["trace.overhead_pct"] = (100.0 * (1.0 - plain_s / traced_s), "%")
        return out


def main() -> int:
    import workloads as W

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "relequil", "__init__.py")):
        _fail(f"no relequil sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)

    wl = W.WORKLOADS[args.workload]
    out_dir = os.path.join(HERE, "out")
    in_dir = os.path.join(out_dir, "inputs", f"{wl.name}-{args.seed}")
    shutil.rmtree(in_dir, ignore_errors=True)
    gen_start = time.perf_counter()
    rounds = W.generate(wl, args.seed, in_dir)
    gen_s = time.perf_counter() - gen_start

    run = Run(wl, rounds, args.seconds, bool(args.trace))
    setup_s = run.setup()
    gc.collect()
    gc.freeze()  # keep the benchmark's own objects out of the program's collections
    run.measure()
    run.check()
    for msg in run.mismatches[:20]:
        print(f"perfbench: MISMATCH {msg}", file=sys.stderr)
    metrics = run.per_layer() if args.trace else run.end_to_end(setup_s)
    result = {
        "correct": not run.mismatches,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(result, workload=wl.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, generate_s=gen_s, pool_rounds=len(rounds),
                  passes=run.passes, wall_s=run.wall,
                  wall_requests_per_s=run.attempted / run.wall, mismatches=run.mismatches,
                  kernel_median_s=REFERENCE_S / statistics.median(run.speed),
                  environment={"python": platform.python_version(),
                               "numpy": sys.modules["numpy"].__version__,
                               "machine": platform.machine(), "cpus": os.cpu_count()})
    by_label: dict = {}
    for label, _, dt in run.latencies[False]:
        by_label.setdefault(label, []).append(1e3 * dt)
    detail["median_ms_by_label"] = {k: statistics.median(v) for k, v in sorted(by_label.items())}
    stem = os.path.join(out_dir, f"{wl.name}-{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    if args.trace:
        run.tracer.write(stem + "-spans.jsonl")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
