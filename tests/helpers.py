"""Independent oracles for the test suite.

Everything here is deliberately written from scratch against the textbook
definitions (Gaussian elimination, Lagrange interpolation, finite
differences, dense eigensolvers) so that agreement with the package is
evidence rather than tautology.  Frozen before the acceptance suite was
written; changes here invalidate the acceptance results.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple

import numpy as np


# ---------------------------------------------------------------------------
# exact linear algebra, the slow and obvious way


def det_gauss(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by fraction-free-less Gaussian elimination with row swaps."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor:
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    return det


def char_poly_lagrange(rows: Sequence[Sequence[Fraction]]) -> List[Fraction]:
    """Coefficients of det(xI - A), lowest degree first, via evaluation at
    x = 0..n and Lagrange interpolation."""
    n = len(rows)
    xs = [Fraction(k) for k in range(n + 1)]
    ys = []
    for x in xs:
        shifted = [[(x if i == j else 0) - Fraction(rows[i][j]) for j in range(n)]
                   for i in range(n)]
        ys.append(det_gauss(shifted))
    coeffs = [Fraction(0)] * (n + 1)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            denom *= xi - xj
            new = [Fraction(0)] * (len(basis) + 1)
            for k, b in enumerate(basis):
                new[k + 1] += b
                new[k] -= xj * b
            basis = new
        scale = yi / denom
        for k, b in enumerate(basis):
            coeffs[k] += scale * b
    return coeffs


def kernel_dim_gauss(rows: Sequence[Sequence[Fraction]]) -> int:
    a = [[Fraction(x) for x in row] for row in rows]
    if not a:
        return 0
    n_rows, n_cols = len(a), len(a[0])
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(row, n_rows) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = 1 / a[row][col]
        for r in range(n_rows):
            if r != row and a[r][col] != 0:
                f = a[r][col] * inv
                for c in range(n_cols):
                    a[r][c] -= f * a[row][c]
        rank += 1
        row += 1
    return n_cols - rank


def minimal_poly_fraction(rows: Sequence[Sequence[Fraction]]) -> List[Fraction]:
    """Monic minimal polynomial, lowest degree first: the first linear
    dependence among the flattened powers I, A, A^2, ..., eliminated as
    Fraction vectors.  The package's own version until it moved to integer
    elimination; kept unchanged as the reference for it."""
    n = len(rows)
    if n == 0:
        return [Fraction(1)]
    a = [[Fraction(x) for x in row] for row in rows]
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    reduced = []  # (unit-pivot vector, pivot index, combination of powers)
    for k in range(n + 1):
        vec = [power[i][j] for i in range(n) for j in range(n)]
        combo = [Fraction(0)] * k + [Fraction(1)]
        for rvec, piv, rcombo in reduced:
            f = vec[piv]
            if f != 0:
                vec = [x - f * y for x, y in zip(vec, rvec)]
                combo = [(combo[i] if i < len(combo) else Fraction(0))
                         - f * (rcombo[i] if i < len(rcombo) else Fraction(0))
                         for i in range(max(len(combo), len(rcombo)))]
        piv = next((i for i, x in enumerate(vec) if x != 0), None)
        if piv is None:
            return [c / combo[k] for c in combo]
        inv = 1 / vec[piv]
        reduced.append(([x * inv for x in vec], piv, [c * inv for c in combo]))
        power = [[sum((a[i][l] * power[l][j] for l in range(n)), Fraction(0))
                  for j in range(n)] for i in range(n)]
    raise AssertionError("power dependence not found by degree n")


# ---------------------------------------------------------------------------
# float spectral oracles


def eig_inertia(sym_rows, tol: float = 1e-9) -> Tuple[int, int, int]:
    """(negative, zero, positive) eigenvalue counts of a symmetric matrix."""
    vals = np.linalg.eigvalsh(np.array(sym_rows, dtype=float))
    neg = int(np.sum(vals < -tol))
    pos = int(np.sum(vals > tol))
    return neg, len(vals) - neg - pos, pos


def standard_j(n: int) -> np.ndarray:
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


def jb_eigenvalues(b_rows) -> np.ndarray:
    b = np.array(b_rows, dtype=float)
    n = b.shape[0] // 2
    return np.linalg.eigvals(standard_j(n) @ b)


def spectrum_on_axis_float(b_rows, tol: float = 1e-9) -> bool:
    return bool(np.all(np.abs(jb_eigenvalues(b_rows).real) <= tol))


def kappa_float(b_rows, tol: float = 1e-9) -> int:
    """Number of s > 0 with det(B + s * iJ) = 0, with multiplicity: half the
    count of nonzero purely imaginary eigenvalues of J B."""
    vals = jb_eigenvalues(b_rows)
    on_axis_nonzero = np.sum((np.abs(vals.real) <= tol) & (np.abs(vals.imag) > tol))
    return int(on_axis_nonzero) // 2


# ---------------------------------------------------------------------------
# finite differences


def fd_gradient(f: Callable[[np.ndarray], float], x: np.ndarray,
                h: float = 1e-6) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_hessian(f: Callable[[np.ndarray], float], x: np.ndarray,
               h: float = 1e-4) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    m = x.size
    out = np.zeros((m, m))
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = h
        for j in range(i, m):
            ej = np.zeros(m)
            ej[j] = h
            val = (f(x + ei + ej) - f(x + ei - ej)
                   - f(x - ei + ej) + f(x - ei - ej)) / (4 * h * h)
            out[i, j] = out[j, i] = val
    return out


def nbody_potential(masses: Sequence[float], alpha: float,
                    flat: np.ndarray) -> float:
    pts = np.asarray(flat, dtype=float).reshape(-1, 2)
    total = 0.0
    for i in range(len(masses)):
        for j in range(i + 1, len(masses)):
            total += masses[i] * masses[j] / np.linalg.norm(pts[i] - pts[j]) ** alpha
    return total


# ---------------------------------------------------------------------------
# random generators


def random_fraction(rng: random.Random, num: int = 4, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_symmetric(rng: random.Random, dim: int, num: int = 4,
                     den: int = 3) -> List[List[Fraction]]:
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            rows[i][j] = rows[j][i] = random_fraction(rng, num, den)
    return rows


def random_invertible_symmetric(rng: random.Random, dim: int,
                                num: int = 4, den: int = 3):
    while True:
        rows = random_symmetric(rng, dim, num, den)
        if det_gauss(rows) != 0:
            return rows


def pair_diagonal(pairs: Sequence[Tuple[Fraction, Fraction]]):
    """diag(b_1..b_n, b_{n+1}..b_{2n}) with (b_k, b_{n+k}) given as pairs."""
    n = len(pairs)
    rows = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for k, (a, b) in enumerate(pairs):
        rows[k][k] = Fraction(a)
        rows[n + k][n + k] = Fraction(b)
    return rows


def random_noncollision_config(rng: random.Random, n: int,
                               min_gap: float = 0.3):
    while True:
        pts = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
        ok = all(math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1]) > min_gap
                 for i in range(n) for j in range(i + 1, n))
        if ok:
            return pts


# ---------------------------------------------------------------------------
# the package's own exact algorithms from before they moved onto modular and
# integer arithmetic, written out on plain integers and Fractions as the
# references for their replacements


def char_poly_faddeev(m: Sequence[Sequence[int]]) -> List[int]:
    """Monic characteristic polynomial of an integer matrix, lowest degree
    first, by Faddeev-LeVerrier with exact integer division by k."""
    n = len(m)
    coeffs = [0] * n + [1]
    work = [list(row) for row in m]
    for k in range(1, n + 1):
        tr = sum(work[i][i] for i in range(n))
        q, r = divmod(tr, k)
        assert r == 0
        coeffs[n - k] = -q
        if k == n:
            break
        for i in range(n):
            work[i][i] -= q
        work = [[sum(m[i][l] * work[l][j] for l in range(n)) for j in range(n)]
                for i in range(n)]
    return coeffs


def _poly_trim(p: List[Fraction]) -> List[Fraction]:
    p = [Fraction(x) for x in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_eval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for a in reversed(p):
        acc = acc * x + a
    return acc


def _poly_rem(p: List[Fraction], d: List[Fraction]) -> List[Fraction]:
    r = _poly_trim(p)
    while len(r) >= len(d):
        c = r[-1] / d[-1]
        k = len(r) - len(d)
        for i, a in enumerate(d):
            r[k + i] -= c * a
        r = _poly_trim(r[:-1])
    return r


def _sign_variations(values) -> int:
    seq = [v for v in values if v != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if (a > 0) != (b > 0))


def sturm_count_fraction(p: Sequence[Fraction], lo=None, hi=None) -> int:
    """Distinct real roots of p in (lo, hi] (None: infinite end) from a
    Sturm chain evaluated by Horner's rule on Fractions."""
    p = _poly_trim(p)
    if len(p) <= 1:
        return 0
    chain = [p, _poly_trim([i * a for i, a in enumerate(p)][1:])]
    while True:
        r = _poly_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-a for a in r])

    def variations(x, at_infinity) -> int:
        if x is None:
            return _sign_variations(at_infinity)
        return _sign_variations([_poly_eval(s, Fraction(x)) for s in chain])

    return (variations(lo, [s[-1] * (-1) ** (len(s) - 1) for s in chain])
            - variations(hi, [s[-1] for s in chain]))


def isolate_fraction(p: Sequence[Fraction]) -> List[Tuple[Fraction, Fraction]]:
    """Isolating intervals (lo, hi] of the real roots of a square-free p by
    bisection of (-B, B] with B the Cauchy bound, left to right."""
    p = _poly_trim(p)
    if len(p) <= 1:
        return []
    bound = 1 + max(abs(a) for a in p[:-1]) / abs(p[-1])
    out = []
    stack = [(-bound, bound)]
    while stack:
        a, b = stack.pop()
        cnt = sturm_count_fraction(p, a, b)
        if cnt == 1:
            out.append((a, b))
        elif cnt > 1:
            m = (a + b) / 2
            stack += [(m, b), (a, m)]
    return sorted(out)


def refine_root_fraction(p: Sequence[Fraction], lo: Fraction, hi: Fraction,
                         max_steps: int = 200):
    """(float, exact root or None) for the root of square-free p in (lo, hi]
    by Fraction bisection to relative width 1e-17, then a test of the best
    rational candidate with denominator at most 1e12."""
    def sign(x: Fraction) -> int:
        v = _poly_eval(p, x)
        return (v > 0) - (v < 0)

    flo, fhi = sign(lo), sign(hi)
    if fhi == 0:
        return float(hi), hi
    while flo == 0:
        mid = (lo + hi) / 2
        fmid = sign(mid)
        if fmid == 0:
            return float(mid), mid
        if fmid == fhi:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    for _ in range(max_steps):
        mid = (lo + hi) / 2
        if hi - lo < abs(mid) * Fraction(1, 10**17) + Fraction(1, 10**20):
            break
        fmid = sign(mid)
        if fmid == 0:
            return float(mid), mid
        if fmid == flo:
            lo = mid
        else:
            hi = mid
    approx = (lo + hi) / 2
    guess = approx.limit_denominator(10**12)
    if lo < guess <= hi and sign(guess) == 0:
        return float(guess), guess
    return float(approx), None


def lagrange_interpolate(nodes: Sequence[Fraction],
                         values: Sequence[Fraction]) -> List[Fraction]:
    """The polynomial of degree < len(nodes) through the points, lowest
    degree first and without trailing zeros."""
    total = [Fraction(0)] * len(nodes)
    for j, vj in enumerate(values):
        term = [Fraction(vj)]
        for i, xi in enumerate(nodes):
            if i == j:
                continue
            scale = 1 / (nodes[j] - xi)
            shifted = [Fraction(0)] + term
            term = [(s - xi * t) * scale for s, t in zip(shifted, term + [Fraction(0)])]
        total = [a + b for a, b in zip(total, term)]
    return _poly_trim(total)


def inertia_congruence(rows: Sequence[Sequence[Fraction]]) -> Tuple[int, int, int]:
    """(negative, zero, positive) counts of a rational symmetric matrix by
    congruence elimination with 1x1 pivots and, when every diagonal entry
    vanishes, 2x2 pivots [[0, c], [c, 0]]."""
    a = {i: {j: Fraction(x) for j, x in enumerate(row)} for i, row in enumerate(rows)}
    active = list(range(len(rows)))
    pos = neg = 0
    while active:
        p = next((i for i in active if a[i][i] != 0), None)
        if p is not None:
            d = a[p][p]
            pos, neg = (pos + 1, neg) if d > 0 else (pos, neg + 1)
            rest = [i for i in active if i != p]
            for i in rest:
                f = a[i][p] / d
                for j in rest:
                    a[i][j] -= f * a[p][j]
            active = rest
            continue
        pq = next(((i, j) for k, i in enumerate(active) for j in active[k + 1:]
                   if a[i][j] != 0), None)
        if pq is None:
            return neg, len(active), pos
        p, q = pq
        c = a[p][q]
        pos, neg = pos + 1, neg + 1
        rest = [i for i in active if i not in (p, q)]
        for i in rest:
            ui, vi = a[i][p], a[i][q]
            for j in rest:
                a[i][j] -= (ui * a[q][j] + vi * a[p][j]) / c
        active = rest
    return neg, 0, pos


# ---------------------------------------------------------------------------
# the n-body pair loops and the float symmetric boundary as they were before
# numpy took them over, the bitwise references for their replacements


def min_pair_distance_loop(q: np.ndarray, guard: float, error=ValueError) -> float:
    """Smallest pair distance, raising ``error`` when it is at most ``guard``
    times the largest one."""
    pts = q.reshape(-1, 2)
    n = pts.shape[0]
    dmin = math.inf
    dmax = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.hypot(*(pts[i] - pts[j])))
            dmin = min(dmin, d)
            dmax = max(dmax, d)
    if dmin <= guard * dmax or dmax == 0.0:
        raise error(
            f"minimum pairwise distance {dmin:.3e} under the guard "
            f"{guard:.1e} x diameter {dmax:.3e}")
    return dmin


def potential_parts_loop(m: np.ndarray, q: np.ndarray, alpha: float,
                         guard: float = 1e-6, error=ValueError):
    """U, its gradient and its Hessian for the pair potential m_i m_j / r^alpha,
    one pair at a time."""
    min_pair_distance_loop(q, guard, error)
    pts = q.reshape(-1, 2)
    n = pts.shape[0]
    u = 0.0
    grad = np.zeros_like(q)
    hess = np.zeros((q.size, q.size))
    eye = np.eye(2)
    for i in range(n):
        for j in range(i + 1, n):
            d = pts[i] - pts[j]
            r2 = float(d @ d)
            r = math.sqrt(r2)
            mm = m[i] * m[j]
            u += mm * r ** (-alpha)
            g = -alpha * mm * r ** (-alpha - 2) * d
            grad[2 * i:2 * i + 2] += g
            grad[2 * j:2 * j + 2] -= g
            k = -alpha * mm * r ** (-alpha - 2) * (
                eye - (alpha + 2) * np.outer(d, d) / r2)
            for (a, b), blk in (((i, i), k), ((j, j), k), ((i, j), -k)):
                hess[2 * a:2 * a + 2, 2 * b:2 * b + 2] += blk
                if a != b:
                    hess[2 * b:2 * b + 2, 2 * a:2 * a + 2] += blk
    return u, grad, hess


def symmetric_inertia_loop(rows: Sequence[Sequence[float]], tol=None):
    """The float path of ``inertia`` entry by entry: check |A - A^T| <= tol
    (default 1e-8 (1 + max |A_ij|)), symmetrize to (A + A^T) / 2 and count the
    eigenvalues below -t, within t and above t, with t from the symmetrized
    matrix.  Returns the symmetrized rows and (negative, zero, positive), or
    raises ValueError."""
    n = len(rows)
    flat = [abs(float(x)) for row in rows for x in row]
    t = 1e-8 * (1.0 + (max(flat) if flat else 0.0)) if tol is None else tol
    a = np.array([[float(x) for x in row] for row in rows], dtype=float)
    if not np.max(np.abs(a - a.T), initial=0.0) <= t:
        raise ValueError("matrix is not symmetric within tolerance")
    sym = [[(rows[i][j] + rows[j][i]) / 2 for j in range(n)] for i in range(n)]
    if n == 0:
        return sym, (0, 0, 0)
    t = 1e-8 * (1.0 + max(abs(x) for row in sym for x in row)) if tol is None else tol
    w = np.linalg.eigvalsh(np.array(sym, dtype=float))
    neg = int(np.sum(w < -t))
    zero = int(np.sum(np.abs(w) <= t))
    return sym, (neg, zero, n - neg - zero)


def _poly_gcd(p: Sequence[Fraction], q: Sequence[Fraction]) -> List[Fraction]:
    """Monic gcd by the Euclidean algorithm on Fractions."""
    a, b = _poly_trim(p), _poly_trim(q)
    while b:
        a, b = b, _poly_rem(a, b)
    return [x / a[-1] for x in a] if a else []


def _even_part_nonzero_roots(p: Sequence[Fraction]) -> List[Fraction]:
    """r with p(x) = r(x^2) and r(0) != 0 after dividing out the roots at 0,
    so that no Sturm count below is taken at a root."""
    p = _poly_trim(p)
    if any(a != 0 for a in p[1::2]):
        raise AssertionError("characteristic polynomial of J B must be even")
    r = _poly_trim(p[0::2])
    while r and r[0] == 0:
        r = r[1:]
    return r


def _derivative(p: Sequence[Fraction]) -> List[Fraction]:
    return _poly_trim([i * a for i, a in enumerate(p)][1:])


def on_axis_even_part(p: Sequence[Fraction]) -> bool:
    """The exact imaginary-axis test of ``classify`` before its per-factor
    counts: with p(x) = r(x^2), every root of r is real and nonpositive.  A
    root at 0 is divided out, and the distinct roots of the rest (as many as
    deg r - deg gcd(r, r')) must all lie on (-inf, 0), by Sturm counts."""
    r = _even_part_nonzero_roots(p)
    distinct = len(r) - len(_poly_gcd(r, _derivative(r))) if len(r) > 1 else 0
    return (sturm_count_fraction(r) == distinct
            and sturm_count_fraction(r, Fraction(0), None) == 0)


def kappa_even_part(p: Sequence[Fraction]) -> int:
    """The old kappa sum: roots of r, p(x) = r(x^2), on the open negative
    axis counted with multiplicity.  A root of multiplicity m is a distinct
    root of each of r_0 = r, r_1 = gcd(r_0, r_0'), ..., r_(m-1)."""
    r = _even_part_nonzero_roots(p)
    kappa = 0
    while len(r) > 1:
        kappa += sturm_count_fraction(r, None, Fraction(0))
        r = _poly_gcd(r, _derivative(r))
    return kappa
