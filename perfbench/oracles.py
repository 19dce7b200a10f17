"""Checks of the program's reports against computations made apart from it.

Exact and float ``classify`` reports are compared with the construction in
``construct.py``; path reports with numpy eigenvalue counts; n-body reports
with a vectorized numpy potential, gradient and Hessian.  Every check returns
a list of mismatch messages, empty when the report is right.
"""

from __future__ import annotations

import numpy as np

from construct import Hamiltonian, Problem, Segment, det_roots, morse_index, standard_j

SPECTRUM_RTOL = 1e-9


def parity(morse: int, nullity: int) -> dict:
    """The parity rule: odd Morse index or odd nullity rules out linear
    stability."""
    if morse % 2:
        reason = "odd_index"
    elif nullity % 2:
        reason = "odd_nullity"
    else:
        reason = "none"
    return {"morse_index": morse, "nullity": nullity,
            "predicts_instability": reason != "none", "reason": reason}


def _close(x: float, y: float, rtol: float) -> bool:
    return abs(x - y) <= rtol * max(1.0, abs(y))


def match_multiset(got: list, want: list, rtol: float) -> bool:
    if len(got) != len(want):
        return False
    left = list(got)
    for w in want:
        k = min(range(len(left)), key=lambda i: abs(left[i] - w))
        if abs(left[k] - w) > rtol * max(1.0, abs(w)):
            return False
        left.pop(k)
    return True


def check_classify(rep: dict, h: Hamiltonian) -> list:
    bad = []
    want_inertia = h.inertia()
    if rep["verdict"] != h.verdict:
        bad.append(f"verdict {rep['verdict']} != {h.verdict}")
    if rep["semisimple"] != h.semisimple:
        bad.append(f"semisimple {rep['semisimple']} != {h.semisimple}")
    if rep["spectrum_on_axis"] != (h.verdict != "spectrally_unstable"):
        bad.append("spectrum_on_axis")
    if rep["inertia"] != want_inertia:
        bad.append(f"inertia {rep['inertia']} != {want_inertia}")
    want_pred = parity(want_inertia["morse_index"], want_inertia["nullity"])
    if rep["prediction"] != want_pred:
        bad.append(f"prediction {rep['prediction']} != {want_pred}")
    got = [complex(e["re"], e["im"]) for e in rep["spectrum"] for _ in range(e["multiplicity"])]
    if not match_multiset(got, h.spectrum(), SPECTRUM_RTOL):
        bad.append(f"spectrum {got} != {h.spectrum()}")
    off, defect = rep["offending_eigenvalue"], rep["defective_eigenvalue"]
    if h.verdict == "spectrally_unstable":
        rate = max(abs(z.real) for z in h.spectrum())
        if off is None or not _close(abs(off["re"]), rate, SPECTRUM_RTOL):
            bad.append(f"offending eigenvalue {off} != +-{rate}")
    elif off is not None:
        bad.append(f"offending eigenvalue {off} on stable input")
    if h.verdict == "spectrally_stable_not_linear":
        if defect is None or abs(complex(defect["re"], defect["im"])) > SPECTRUM_RTOL:
            bad.append(f"defective eigenvalue {defect} != 0")
    elif defect is not None:
        bad.append(f"defective eigenvalue {defect} on semisimple input")
    return bad


def _linear_roots(a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """Real t in (0, 1) with det((1-t) a0 + t a1) = 0."""
    t = det_roots(a0, a1)
    t = t[np.abs(t.imag) <= 1e-9].real
    return np.sort(t[(t > 0) & (t < 1)])


def check_linear_flow(rep: dict, seg: Segment) -> list:
    bad = []
    a0, a1 = seg.start_np(), seg.end_np()
    if rep["flow"] != seg.flow:
        bad.append(f"flow {rep['flow']} != Morse drop {seg.flow}")
    if rep["relative_morse_index"] != -seg.flow:
        bad.append("relative_morse_index")
    if rep["start_correction"] or rep["end_correction"]:
        bad.append("endpoint correction on invertible endpoints")
    crossings = rep["crossings"]
    if sum(c["signature"] for c in crossings) != rep["flow"]:
        bad.append("crossing signatures do not sum to the flow")
    roots = _linear_roots(a0, a1)
    locs = np.array([c["location"] for c in crossings])
    if locs.shape != roots.shape or not np.allclose(locs, roots, rtol=0, atol=1e-7):
        bad.append(f"crossings at {locs.tolist()} != det roots {roots.tolist()}")
    for c in crossings:
        t = c["location"]
        w = np.abs(np.linalg.eigvalsh((1 - t) * a0 + t * a1))
        if not (0 < t < 1) or np.min(w) > 1e-8 * np.max(w):
            bad.append(f"A({t}) is not singular: smallest |eigenvalue| {np.min(w):.3e}")
        if not c["regular"] or c["multiplicity"] != 1:
            bad.append(f"crossing at {t} not simple and regular")
    return bad


def krein_matrix(b: np.ndarray, s: float) -> np.ndarray:
    """B + s iJ, complex Hermitian."""
    n = b.shape[0] // 2
    return b.astype(complex) + 1j * s * np.array(standard_j(n), dtype=float)


def check_krein_flow(rep: dict, h: Hamiltonian) -> list:
    bad = []
    b = np.array(h.b, dtype=float)
    s_max = float(h.s_max)
    want_flow = h.inertia()["morse_index"] - morse_index(krein_matrix(b, s_max))
    if rep["flow"] != want_flow:
        bad.append(f"flow {rep['flow']} != morse(B) - morse(B + s_max iJ) = {want_flow}")
    locs = [c["location"] for c in rep["crossings"]]
    freqs = h.frequencies()
    if len(locs) != len(freqs) or not all(_close(x, y, SPECTRUM_RTOL) for x, y in zip(locs, freqs)):
        bad.append(f"crossings at {locs} != frequencies {freqs}")
    for c in rep["crossings"]:
        if not c["regular"] or c["multiplicity"] != 1:
            bad.append(f"crossing at {c['location']} not simple and regular")
    kappa, nullity = h.kappa(), h.inertia()["nullity"]
    want = {"holds": 2 * h.n == 2 * kappa + nullity, "kappa": kappa, "n": h.n,
            "nullity": nullity, "verdict": h.verdict}
    if rep["kappa_identity"] != want:
        bad.append(f"kappa_identity {rep['kappa_identity']} != {want}")
    return bad


# ---------------------------------------------------------------------------
# n-body


def potential_parts(m: np.ndarray, q: np.ndarray, alpha: float):
    """U, grad U and the Hessian of U = sum_{i<j} m_i m_j / r_ij^alpha,
    vectorized over all pairs."""
    pts = q.reshape(-1, 2)
    n = len(m)
    d = pts[:, None, :] - pts[None, :, :]  # d[i, j] = q_i - q_j
    r2 = np.einsum("ijk,ijk->ij", d, d)
    np.fill_diagonal(r2, 1.0)
    mm = np.outer(m, m)
    np.fill_diagonal(mm, 0.0)
    r = np.sqrt(r2)
    u = 0.5 * float(np.sum(mm / r ** alpha))
    c = -alpha * mm * r ** (-alpha - 2)  # c_ij, so grad_i = sum_j c_ij d_ij
    grad = np.einsum("ij,ijk->ik", c, d).reshape(-1)
    # block (i, j), i != j:  -c_ij (I - (alpha+2) d d^T / r^2)
    outer = d[:, :, :, None] * d[:, :, None, :] / r2[:, :, None, None]
    blocks = -c[:, :, None, None] * (np.eye(2) - (alpha + 2) * outer)
    for i in range(n):
        blocks[i, i] = -blocks[i].sum(axis=0) + blocks[i, i]
    hess = blocks.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)
    return u, grad, hess


def _counts(w: np.ndarray, tol: float) -> dict:
    neg = int(np.sum(w < -tol))
    zero = int(np.sum(np.abs(w) <= tol))
    return {"coindex": len(w) - neg - zero, "morse_index": neg, "nullity": zero}


def check_nbody(rep: dict, prob: Problem) -> list:
    bad = []
    cc, hs = rep["cc"], rep["hessian"]
    m = np.array(cc["masses"], dtype=float)
    alpha = float(cc["alpha"])
    q = np.array(cc["positions"], dtype=float).reshape(-1)
    n = len(m)
    if list(m) != [float(x) for x in prob.masses] or alpha != prob.alpha:
        bad.append("masses or alpha changed")
    u, grad, hess = potential_parts(m, q, alpha)
    mm = np.repeat(m, 2)
    xi2 = alpha * u
    gnorm = float(np.linalg.norm(grad))
    residual = float(np.linalg.norm(grad + xi2 * mm * q))
    if residual > 1e-9 * gnorm:
        bad.append(f"residual {residual:.3e} not small against |grad U| {gnorm:.3e}")
    if not _close(cc["potential"], u, 1e-12) or not _close(cc["xi_squared"], xi2, 1e-12):
        bad.append(f"U {cc['potential']} / xi^2 {cc['xi_squared']} != {u} / alpha U")
    inert = float(mm @ (q * q))
    if abs(inert - 1) > 1e-12 or abs(cc["locked_inertia"] - 1) > 1e-12:
        bad.append(f"locked inertia {cc['locked_inertia']} (recomputed {inert}) != 1")
    com = (m[:, None] * q.reshape(-1, 2)).sum(axis=0)
    if np.max(np.abs(com)) > 1e-12:
        bad.append(f"center of mass {com.tolist()} not at the origin")
    # tangent of the shape sphere: mass-neutral, orthogonal to M q and M q-perp
    perp = np.empty_like(q)
    perp[0::2], perp[1::2] = -q[1::2], q[0::2]
    cons = np.zeros((4, 2 * n))
    cons[0, 0::2] = m
    cons[1, 1::2] = m
    cons[2] = mm * q
    cons[3] = mm * perp
    z = np.linalg.svd(cons)[2][4:].T
    # eigenvalues of D^2U + xi^2 M on the tangent, in the mass metric
    lz = np.linalg.cholesky(z.T @ (mm[:, None] * z))
    zi = np.linalg.solve(lz, z.T)
    w = np.linalg.eigvalsh(zi @ (hess + xi2 * np.diag(mm)) @ zi.T)
    tol = 1e-7 * float(np.max(np.abs(w)))
    shat = _counts(w, tol)
    if hs["inertia_shat"] != shat or hs["dim_shat"] != 2 * n - 4:
        bad.append(f"inertia on the sphere tangent {hs['inertia_shat']} != {shat}")
    # V = span{q} + tangent: the amended form is minus the above on the tangent
    # and (2 - alpha) xi^2 along q
    radial = (2 - alpha) * xi2
    if abs(hs["radial_eigenvalue"] - radial) > 1e-8 * xi2:
        bad.append(f"radial eigenvalue {hs['radial_eigenvalue']} != (2 - alpha) xi^2 = {radial}")
    v = {"coindex": shat["morse_index"] + int(alpha < 2),
         "morse_index": shat["coindex"] + int(alpha > 2),
         "nullity": shat["nullity"] + int(alpha == 2)}
    if hs["inertia_v"] != v or hs["dim_v"] != 2 * n - 3:
        bad.append(f"inertia on V {hs['inertia_v']} != {v}")
    verdicts = rep["verdicts"]
    if verdicts["e2"] != parity(shat["morse_index"], shat["nullity"]):
        bad.append(f"e2 verdict {verdicts['e2']}")
    want_reduced = parity(v["morse_index"], v["nullity"]) if alpha < 2 else None
    if verdicts["reduced"] != want_reduced:
        bad.append(f"reduced verdict {verdicts['reduced']} != {want_reduced}")
    return bad
