"""Self-test of the benchmark's own oracles, independent of relequil.

    python3 perfbench/selftest.py

* The symplectic-congruence generator (``construct.hamiltonian``) claims
  S^T J S = J, a verdict, an inertia, a closed-form spectrum and a Jordan
  structure for every B it builds.  For 2n <= 6 these claims are checked
  against sympy's exact eigenvalues and Jordan form, and the --omega variant
  against sympy's characteristic polynomial.
* The vectorized n-body potential, gradient and Hessian in ``oracles.py``
  are checked against central finite differences.

Exits 0 when every claim holds.
"""

from __future__ import annotations

import random
import sys

import numpy as np
import sympy as sp

import construct as C
import oracles as O

VERDICTS = ("linearly_stable", "spectrally_stable_not_linear", "spectrally_unstable")
CASES = 60
SEED = 1


def check_hamiltonian(h: C.Hamiltonian) -> list:
    bad = []
    n = h.n
    b = sp.Matrix(h.b)
    j = sp.Matrix(C.standard_j(n))
    if b != b.T:
        bad.append("B is not symmetric")
    jb = j * b
    got = []
    for ev, mult in jb.eigenvals().items():
        got += [complex(sp.N(ev, 30))] * mult
    if not O.match_multiset(got, h.spectrum(), 1e-12):
        bad.append(f"spectrum {got} != closed form {h.spectrum()}")
    if jb.is_diagonalizable() != (h.verdict != "spectrally_stable_not_linear"):
        bad.append("Jordan structure does not match the verdict")
    if h.verdict == "spectrally_stable_not_linear":
        _, jordan = jb.jordan_form()
        if jordan.rank() != 2 * n - 1:  # exactly one 2x2 Jordan block at 0
            bad.append("expected exactly one nilpotent 2x2 Jordan block")
    signs = [complex(sp.N(ev)).real for ev, m in b.eigenvals().items() for _ in range(m)]
    inertia = {"morse_index": sum(x < -1e-12 for x in signs),
               "nullity": sum(abs(x) <= 1e-12 for x in signs),
               "coindex": sum(x > 1e-12 for x in signs)}
    if inertia != h.inertia():
        bad.append(f"inertia {inertia} != Sylvester {h.inertia()}")
    freqs = sorted(ev.imag for ev in got if abs(ev.real) < 1e-12 and ev.imag > 1e-12)
    if not np.allclose(freqs, h.frequencies(), rtol=1e-12) or len(freqs) != h.kappa():
        bad.append(f"frequencies {freqs} != {h.frequencies()}")
    w = np.linalg.eigvalsh(O.krein_matrix(np.array(h.b, dtype=float), float(h.s_max)))
    if int(np.sum(w < 0)) != n:
        bad.append("B + s_max iJ does not have Morse index n")
    if h.omega is not None:
        om, bo = sp.Matrix(h.omega), sp.Matrix(h.b_for_omega)
        if om != -om.T or om.det() == 0:
            bad.append("Omega is not an invertible skew form")
        x = sp.Symbol("x")
        if (om * bo).charpoly(x) != jb.charpoly(x):
            bad.append("Omega B' and J B have different characteristic polynomials")
    return bad


def check_symplectic(rng: random.Random, n: int) -> list:
    s = sp.Matrix(C.symplectic_integer(rng, n))
    j = sp.Matrix(C.standard_j(n))
    return [] if s.T * j * s == j else ["S^T J S != J"]


def check_potential(rng: random.Random, n: int, alpha: float) -> list:
    m = np.array([rng.uniform(0.5, 2.0) for _ in range(n)])
    q = np.array([rng.uniform(-2, 2) for _ in range(2 * n)])
    u, g, h = O.potential_parts(m, q, alpha)
    eps = 1e-5
    g_fd = np.zeros_like(q)
    h_fd = np.zeros_like(h)
    for k in range(2 * n):
        e = np.zeros_like(q)
        e[k] = eps
        up, gp, _ = O.potential_parts(m, q + e, alpha)
        um, gm, _ = O.potential_parts(m, q - e, alpha)
        g_fd[k] = (up - um) / (2 * eps)
        h_fd[:, k] = (gp - gm) / (2 * eps)
    bad = []
    if np.max(np.abs(g - g_fd)) > 1e-5 * (1 + np.max(np.abs(g))):
        bad.append("gradient disagrees with finite differences")
    if np.max(np.abs(h - h_fd)) > 1e-5 * (1 + np.max(np.abs(h))):
        bad.append("Hessian disagrees with finite differences")
    if np.max(np.abs(h - h.T)) > 1e-12 * np.max(np.abs(h)):
        bad.append("Hessian is not symmetric")
    return bad


def main() -> int:
    rng = random.Random(SEED)
    failures = 0
    for k in range(CASES):
        n = 1 + k % 3
        verdict = VERDICTS[(k // 3) % 3]
        if n == 1 and verdict != "linearly_stable":
            continue  # one block leaves room for nothing but the special block
        h = C.hamiltonian(rng, n, verdict, with_omega=k % 2 == 0)
        for msg in check_hamiltonian(h) + check_symplectic(rng, n):
            failures += 1
            print(f"FAIL 2n={2 * n} {verdict}: {msg}")
    for k in range(10):
        for msg in check_potential(rng, 3 + k % 4, (1.0, 2.0, 3.0, 0.5)[k % 4]):
            failures += 1
            print(f"FAIL potential case {k}: {msg}")
    print("selftest:", "all claims hold" if not failures else f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
