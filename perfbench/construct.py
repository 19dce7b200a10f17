"""Seeded inputs whose answers are known by construction.

Everything here is independent of ``relequil``: the expected verdicts,
inertias, spectra, frequencies and Krein counts come from how each matrix is
built, never from the program under test.

Exact matrices are lists of lists of Python ints (or ``Fraction`` for path
endpoints), so nothing overflows.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

RATIONAL_SHARE = 0.5  # share of elliptic blocks with a rational frequency
MARGIN = 0.05  # endpoint eigenvalues stay this share of the spectral radius from 0
SEPARATION = 1e-3  # least distance between crossings, the ends and complex roots
JITTER = 0.02  # largest move of each coordinate off the polygon or ring
CENTRAL_MASS = 100.0  # the heavy body at the centre of a ring

# ---------------------------------------------------------------------------
# integer matrix helpers


def identity(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: list, b: list) -> list:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def transpose(a: list) -> list:
    return [list(r) for r in zip(*a)]


def standard_j(n: int) -> list:
    """J = [[0, I], [-I, 0]] in (q_1..q_n, p_1..p_n) coordinates."""
    j = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        j[i][n + i] = 1
        j[n + i][i] = -1
    return j


def _random_symmetric_01(rng: random.Random, n: int, density: float) -> list:
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for k in range(i, n):
            if rng.random() < density:
                a[i][k] = a[k][i] = rng.choice((-1, 1))
    return a


def _unimodular_pair(rng: random.Random, n: int, steps: int) -> tuple:
    """An integer matrix U with det 1 and its integer inverse, as a product of
    elementary row additions with coefficients +-1."""
    u, u_inv = identity(n), identity(n)
    for _ in range(steps if n > 1 else 0):
        i, k = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # U <- E U with E = I + c e_i e_k^T;  U^-1 <- U^-1 E^-1
        u[i] = [x + c * y for x, y in zip(u[i], u[k])]
        for row in u_inv:
            row[k] -= c * row[i]
    return u, u_inv


def symplectic_integer(rng: random.Random, n: int) -> list:
    """An integer symplectic S: a symmetric upper shear, a symmetric lower
    shear and a unimodular block diag(U, U^-T)."""
    density = 2.0 / n
    a = _random_symmetric_01(rng, n, density)
    c = _random_symmetric_01(rng, n, density)
    upper = [[int(i == j) for j in range(n)] + a[i] for i in range(n)] + \
        [[0] * n + [int(i == j) for j in range(n)] for i in range(n)]
    lower = [[int(i == j) for j in range(n)] + [0] * n for i in range(n)] + \
        [c[i] + [int(i == j) for j in range(n)] for i in range(n)]
    u, u_inv = _unimodular_pair(rng, n, n)
    u_inv_t = transpose(u_inv)
    block = [u[i] + [0] * n for i in range(n)] + [[0] * n + u_inv_t[i] for i in range(n)]
    return matmul(matmul(upper, lower), block)


# ---------------------------------------------------------------------------
# symplectic congruence B = S^T D S with pair-diagonal D


@dataclass
class Block:
    """D restricted to (q_k, p_k) is diag(a, b); J D there has eigenvalues
    with lambda^2 = -a b."""

    a: int
    b: int

    @property
    def kind(self) -> str:
        if self.a == 0 and self.b == 0:
            return "zero"
        if self.a == 0 or self.b == 0:
            return "nilpotent"
        return "elliptic" if self.a * self.b > 0 else "real"

    @property
    def frequency(self) -> float:
        """omega for an elliptic block (eigenvalues +-i omega)."""
        return math.sqrt(self.a * self.b)


@dataclass
class Hamiltonian:
    """A symmetric B with its answers known from the construction."""

    b: list  # integer rows
    blocks: list
    omega: list | None = None  # skew form file, when the request passes --omega
    b_for_omega: list | None = None  # Q^-T B Q^-1, the matrix sent with --omega
    s_max: Fraction | None = None

    @property
    def n(self) -> int:
        return len(self.blocks)

    @property
    def verdict(self) -> str:
        kinds = [bl.kind for bl in self.blocks]
        if "real" in kinds:
            return "spectrally_unstable"
        if "nilpotent" in kinds:
            return "spectrally_stable_not_linear"
        return "linearly_stable"

    @property
    def semisimple(self):
        return {"spectrally_unstable": None, "spectrally_stable_not_linear": False,
                "linearly_stable": True}[self.verdict]

    def inertia(self) -> dict:
        """Sylvester: the inertia of S^T D S is the inertia of D."""
        diag = [bl.a for bl in self.blocks] + [bl.b for bl in self.blocks]
        return {"morse_index": sum(x < 0 for x in diag),
                "nullity": sum(x == 0 for x in diag),
                "coindex": sum(x > 0 for x in diag)}

    def spectrum(self) -> list:
        """Eigenvalues of J B with multiplicity, in closed form."""
        out = []
        for bl in self.blocks:
            if bl.kind in ("zero", "nilpotent"):
                out += [0j, 0j]
            elif bl.kind == "elliptic":
                out += [complex(0, bl.frequency), complex(0, -bl.frequency)]
            else:
                r = math.sqrt(-bl.a * bl.b)
                out += [complex(r, 0), complex(-r, 0)]
        return out

    def frequencies(self) -> list:
        return sorted(bl.frequency for bl in self.blocks if bl.kind == "elliptic")

    def kappa(self) -> int:
        return sum(bl.kind == "elliptic" for bl in self.blocks)


def _elliptic_block(rng: random.Random, rational: bool, negative: bool,
                    used: set) -> Block:
    """A definite block with a frequency distinct from those in ``used`` (by
    at least 0.05, so a float eigensolver separates them)."""
    while True:
        if rational:
            c, u, v = rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 3)
            a, b = c * u * u, c * v * v
        else:
            a, b = rng.randint(1, 9), rng.randint(1, 9)
            if math.isqrt(a * b) ** 2 == a * b:
                continue
        w = math.sqrt(a * b)
        if all(abs(w - x) >= 0.05 for x in used):
            used.add(w)
            sign = -1 if negative else 1
            return Block(sign * a, sign * b)


def hamiltonian(rng: random.Random, n: int, verdict: str,
                with_omega: bool = False) -> Hamiltonian:
    """B = S^T D S with the verdict chosen up front.

    ``linearly_stable``: n elliptic blocks; ``spectrally_stable_not_linear``:
    one nilpotent pair and n-1 elliptic blocks; ``spectrally_unstable``: one
    real pair and n-1 elliptic blocks.  Elliptic blocks are positive or
    negative definite, so both Krein signs occur.
    """
    used: set = set()
    blocks = []
    special = {"linearly_stable": 0, "spectrally_stable_not_linear": 1,
               "spectrally_unstable": 1}[verdict]
    for _ in range(n - special):
        blocks.append(_elliptic_block(rng, rng.random() < RATIONAL_SHARE,
                                      rng.random() < 0.3, used))
    if verdict == "spectrally_stable_not_linear":
        a = rng.choice((-3, -2, -1, 1, 2, 3))
        blocks.append(Block(a, 0) if rng.random() < 0.5 else Block(0, a))
    elif verdict == "spectrally_unstable":
        a, b = rng.randint(1, 6), rng.randint(1, 6)
        blocks.append(Block(a, -b) if rng.random() < 0.5 else Block(-a, b))
    rng.shuffle(blocks)
    d = [[0] * (2 * n) for _ in range(2 * n)]
    for k, bl in enumerate(blocks):
        d[k][k] = bl.a
        d[n + k][n + k] = bl.b
    s = symplectic_integer(rng, n)
    b = matmul(matmul(transpose(s), d), s)
    h = Hamiltonian(b, blocks)
    if with_omega:
        # Omega = Q J Q^T and B' = Q^-T B Q^-1, so Omega B' = Q (J B) Q^-1.
        q, q_inv = _unimodular_pair(rng, 2 * n, 2 * n)
        h.omega = matmul(matmul(q, standard_j(n)), transpose(q))
        h.b_for_omega = matmul(matmul(transpose(q_inv), b), q_inv)
    freqs = h.frequencies()
    top = max(freqs, default=0.0)
    h.s_max = Fraction(math.floor(top)) + Fraction(3, 2)
    return h


# ---------------------------------------------------------------------------
# straight paths between random rational symmetric endpoints


def morse_index(a: np.ndarray) -> int:
    return int(np.sum(np.linalg.eigvalsh(a) < 0))


@dataclass
class Segment:
    start: list  # Fraction rows
    end: list

    def start_np(self) -> np.ndarray:
        return np.array([[float(x) for x in r] for r in self.start])

    def end_np(self) -> np.ndarray:
        return np.array([[float(x) for x in r] for r in self.end])

    @property
    def flow(self) -> int:
        """Spectral flow of an invertible-ended segment: the Morse-index drop."""
        return morse_index(self.start_np()) - morse_index(self.end_np())


def _random_rational_symmetric(rng: random.Random, m: int) -> list:
    a = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for k in range(i, m):
            a[i][k] = a[k][i] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return a


def det_roots(a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """All complex t with det((1-t) a0 + t a1) = 0: with A(t) = a0 + t d,
    t = -1/mu for the nonzero eigenvalues mu of a0^-1 d."""
    mu = np.linalg.eigvals(np.linalg.solve(a0, a1 - a0))
    mu = mu[np.abs(mu) > 1e-12]
    return -1.0 / mu


def segment(rng: random.Random, m: int) -> Segment:
    """A segment whose endpoints keep every eigenvalue at least ``MARGIN``
    times the spectral radius away from zero, and whose crossings in [0, 1]
    are simple and at least ``SEPARATION`` apart from each other, from the
    ends and from complex roots."""
    while True:
        s, e = _random_rational_symmetric(rng, m), _random_rational_symmetric(rng, m)
        sn = np.array([[float(x) for x in r] for r in s])
        en = np.array([[float(x) for x in r] for r in e])
        ok = True
        for a in (sn, en):
            w = np.abs(np.linalg.eigvalsh(a))
            ok &= bool(np.min(w) >= MARGIN * np.max(w))
        if not ok:
            continue
        roots = det_roots(sn, en)
        near = roots[(roots.real > -SEPARATION) & (roots.real < 1 + SEPARATION)]
        is_real = np.abs(near.imag) <= 1e-9
        if np.any(~is_real & (np.abs(near.imag) <= SEPARATION)):
            continue  # a complex pair this close to [0, 1] reads as a double root
        real = np.sort(near.real[is_real])
        if real.size and (real[0] < SEPARATION or real[-1] > 1 - SEPARATION
                          or np.any(np.diff(real) < SEPARATION)):
            continue
        return Segment(s, e)


# ---------------------------------------------------------------------------
# perturbed polygons and rings for the n-body search


@dataclass
class Problem:
    masses: list
    alpha: float
    positions: list


def polygon(rng: random.Random, n: int, alpha: float) -> Problem:
    """Equal masses on a regular n-gon of unit radius, each coordinate moved
    by up to ``JITTER``."""
    pos = []
    for k in range(n):
        t = 2 * math.pi * k / n
        pos.append([math.cos(t) + rng.uniform(-JITTER, JITTER),
                    math.sin(t) + rng.uniform(-JITTER, JITTER)])
    return Problem([1.0] * n, alpha, pos)


def ring(rng: random.Random, n: int, alpha: float) -> Problem:
    """A heavy body of ``CENTRAL_MASS`` at the origin and n unit masses
    around it (1 + n bodies)."""
    p = polygon(rng, n, alpha)
    p.masses = [CENTRAL_MASS] + p.masses
    p.positions = [[rng.uniform(-JITTER, JITTER), rng.uniform(-JITTER, JITTER)]] + p.positions
    return p
