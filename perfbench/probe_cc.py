"""Reproduce the central-configuration search failures the n-body workload
leaves out, on the benchmark's own seed generators.

    python3 perfbench/probe_cc.py

Run from the root of a checkout.  Prints one line per case: the outcome of
``find_central_configuration`` (residual, or the error it raised) and its
time.  The cases are

* 2%-perturbed regular polygons past the sizes in ``nbody-stability``
  (n = 60 with alpha = 1, n = 40 with alpha = 2, n = 24 with alpha = 3),
  where the absolute residual test stalls above ``cc_tol``;
* a perturbed 16-gon with alpha = 3, whose returned residual can exceed
  ``cc_tol``;
* random seeds: positions U(-2, 2)^2 drawn before masses U(0.5, 2), which
  stall far from any central configuration.
"""

from __future__ import annotations

import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import construct as C  # noqa: E402
from relequil import CCSettings, ConvergenceError, NBodySystem  # noqa: E402
from relequil import find_central_configuration  # noqa: E402


def _search(masses, alpha, positions) -> str:
    system = NBodySystem.assemble(masses, alpha, positions)
    start = time.perf_counter()
    try:
        cc = find_central_configuration(system)
        tol = CCSettings().cc_tol
        outcome = f"residual {cc.residual:.2e}" + (" ABOVE cc_tol" if cc.residual > tol else "")
    except ConvergenceError as e:
        outcome = f"ConvergenceError: {e}"
    return f"{outcome}  ({time.perf_counter() - start:.2f} s)"


def main() -> int:
    for n, alpha in ((60, 1.0), (40, 2.0), (24, 3.0)):
        for seed in (1, 2, 3):
            p = C.polygon(random.Random(f"probe:{n}:{alpha}:{seed}"), n, alpha)
            print(f"polygon n={n} alpha={alpha:g} seed={seed}: "
                  f"{_search(p.masses, p.alpha, p.positions)}", flush=True)
    for seed in range(1, 21):
        p = C.polygon(random.Random(f"probe:16:3.0:{seed}"), 16, 3.0)
        print(f"polygon n=16 alpha=3 seed={seed}: {_search(p.masses, p.alpha, p.positions)}",
              flush=True)
    for seed in (3, 11):
        rng = random.Random(seed)
        positions = [[rng.uniform(-2, 2), rng.uniform(-2, 2)] for _ in range(8)]
        masses = [rng.uniform(0.5, 2) for _ in range(8)]
        print(f"random n=8 alpha=1 Random({seed}): {_search(masses, 1.0, positions)}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
