"""Spectral flow of paths of self-adjoint matrices and Krein-form tools.

The spectral flow of a path counts eigenvalues moving across zero, with
sign.  At a regular crossing the contribution is the signature of the
crossing form, the path derivative compressed to the kernel.  Endpoint
kernels contribute boundary terms: the flow convention here is

    flow = sum of interior signatures
           - dim E_-(Cr[A(start)]) + dim E_+(Cr[A(end)])

with empty endpoint kernels contributing nothing.  Interior crossings with a
degenerate crossing form carry no well-defined count and are refused.

Two path types are supported: the straight segment between two real
symmetric matrices, and the Krein deformation B + s*G with G = i*J, whose
crossings at s >= 0 sit exactly where J B has eigenvalue i*s.  A crossing
keeps its location, multiplicity, regularity and crossing-form counts only.
Rational input takes no tolerance: every count is read off
chi(mu, t) = det(mu I - A(t)) by the rule of ``_crossing_counts``, and exact
signs decide which roots lie inside the parameter interval and whether a
Krein crossing sits at s_max.  The Krein crossing at s = 0, G on ker B, is
the first entry of ``crossing_set`` and gives the flow's start correction.
For rational B its counts are (2n - 2 rank B + rank(B J B)) / 2 each, from
two ranks on integer rows, so no exact flow computes a kernel.  Float input
takes its crossings from the eigenvalues of one pencil (linear) or of J B
(Krein), every interior count from the band [-tol, tol] of one stacked
``eigvalsh`` (``_banded_crossings``), and an end in the band from the
crossing form on its float kernel.  What floats cannot place raises
IndeterminateError (exit 2), also in ``crossing_set``, and so does a float
linear path in the band wherever tried; an irregular interior crossing, or
an exact path singular at every parameter, IrregularCrossingError (exit 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from . import rational_poly as rp
from .matrix_core import (
    FLOAT64,
    RATIONAL,
    FieldError,
    IndeterminateError,
    Matrix,
    ShapeError,
    _char_poly_int,
    _eigenvalues,
    _inertia_float,
    _j_times,
    _require_symmetric,
    _resolve_tol,
    inertia,
    kernel,
    rank,
    standard_symplectic,
)
from .stability import Verdict, _axis_factors, _classify, _fraction_sqrt, _omega_b

__all__ = [
    "IrregularCrossingError",
    "LinearPath",
    "KreinPath",
    "Crossing",
    "SpectralFlowResult",
    "KappaIdentity",
    "krein_form",
    "spectral_flow",
    "relative_morse_index",
    "crossing_set",
    "kappa_identity_check",
]


class IrregularCrossingError(RuntimeError):
    """An interior crossing has a degenerate crossing form."""

    def __init__(self, location: float, detail: str = ""):
        self.location = location
        msg = f"irregular crossing at parameter {location!r}"
        super().__init__(msg + (": " + detail if detail else ""))


def krein_form(n: int) -> np.ndarray:
    """The Hermitian form G = i*J on C^2n; G^2 = I and G has signature 0."""
    if n < 0:
        raise ShapeError("n must be nonnegative")
    return 1j * standard_symplectic(n, FLOAT64)._arr


@dataclass(frozen=True)
class LinearPath:
    """The segment A(t) = (1-t) start + t end, t in [0,1], of the symmetric
    endpoints ``_require_symmetric`` returns."""

    start: Matrix
    end: Matrix

    def __post_init__(self):
        if self.start.shape != self.end.shape or not self.start.is_square:
            raise ShapeError("path endpoints must be square matrices of equal size")
        if self.start.field != self.end.field:
            raise FieldError("path endpoints must share a backend field")
        object.__setattr__(self, "start", _require_symmetric(self.start, None))
        object.__setattr__(self, "end", _require_symmetric(self.end, None))

    @property
    def dim(self) -> int:
        return self.start.n_rows

    @property
    def field(self) -> str:
        return self.start.field

    def value(self, t) -> Matrix:
        one = Fraction(1) if self.field == RATIONAL else 1.0
        return self.start * (one - t) + self.end * t

    @cached_property
    def derivative(self) -> Matrix:
        return self.end - self.start


@dataclass(frozen=True)
class KreinPath:
    """The deformation D(s) = B + s*G for s in [0, s_max], G = i*J.

    D(s) is complex Hermitian; det D(s) = r(-s^2) with the even part r of
    the characteristic polynomial of J B, so ker D(s) is the eigenspace of
    J B for the eigenvalue i*s.  B is what ``_require_symmetric`` returns.
    """

    b: Matrix
    s_max: object  # Fraction or float, finite and > 0

    def __post_init__(self):
        if not self.b.is_square or self.b.n_rows % 2 != 0:
            raise ShapeError("Krein path needs an even-dimensional symmetric matrix")
        object.__setattr__(self, "b", _require_symmetric(self.b, None))
        try:
            s = float(self.s_max)
        except OverflowError:
            s = math.inf
        if not 0 < s < math.inf:
            raise ValueError(f"s_max must be a finite number > 0, got {s!r}")

    @property
    def dim(self) -> int:
        return self.b.n_rows

    @property
    def field(self) -> str:
        return self.b.field


Path = Union[LinearPath, KreinPath]


@dataclass(frozen=True)
class Crossing:
    """A parameter value where the path loses invertibility, with the
    positive and negative counts of its crossing form."""

    location: float
    exact_location: Optional[Fraction]
    multiplicity: int
    positive: int
    negative: int
    regular: bool

    @property
    def signature(self) -> int:
        return self.positive - self.negative


@dataclass(frozen=True)
class SpectralFlowResult:
    flow: int
    crossings: tuple  # interior crossings, ordered by location
    start_correction: int  # dim E_-(Cr[A(start)]), subtracted
    end_correction: int  # dim E_+(Cr[A(end)]), added
    backend: str


@dataclass(frozen=True)
class KappaIdentity:
    n: int
    kappa: int
    nullity: int
    holds: bool
    classification: object


# ---------------------------------------------------------------------------
# chi(mu, t) = det(mu I - A(t)) and the crossing rule on it


def _path_chi(path: LinearPath) -> list[list[int]]:
    """The integer c_j(t), j = 0..m, with sum_j c_j(t) mu^j =
    det(mu I - m d A(t)) for the dimension m and start = S / d, end = E / d.

    m d A(t) = m (S - t (S - E)), so one ``_char_poly_int`` call on S with
    X = S - E and order m gives b_j(t) with det(mu I - S + t X) = sum_j
    b_j(t) mu^j, and c_j = m^(m - j) b_j."""
    m = path.dim
    (s, ds), (e, de) = path.start._ints, path.end._ints
    d = math.lcm(ds, de)
    s = [[v * (d // ds) for v in row] for row in s]
    x = [[a - v * (d // de) for a, v in zip(rs, re)] for rs, re in zip(s, e)]
    (q,) = _char_poly_int([s], x, m)
    return [rp._trim([m ** (m - j) * b[j] for b in q]) for j in range(m + 1)]


def _krein_chi(b: Matrix, order: int) -> list[list[int]]:
    """The q_j(lambda), j <= order, with sum_j q_j mu^j = d^2n det(lambda I -
    J (B - mu I)) mod mu^(order + 1), for B = B' / d: J (B - mu I) is
    (A - mu X) / d for the integers A = J B' and X = d J.  q_0 is d^2n
    char_poly(J B), and since det(mu I - B - s G) = char_poly(J (B - mu I))
    (i s), chi(mu, s) = d^-2n sum_j r_j(-s^2) mu^j for the even parts
    q_j(lambda) = r_j(lambda^2)."""
    a, d = _j_times(b)._ints
    x = [[d * v for v in row] for row in standard_symplectic(len(a) // 2)._ints[0]]
    return [[c * d ** k for k, c in enumerate(q)] for q in _char_poly_int([a], x, order)[0]]


def _at_point(x: Fraction):
    """h -> an integer with the sign of h(x)."""
    return lambda h: rp._sign_at(h, x.numerator, x.denominator)


def _crossing_counts(cs: list[list[int]], sign, reverse: bool = False):
    """(k, negative, zero, positive) at a point theta of a path A from the
    c_j(t) of chi(mu, t) = det(mu I - A(t)) = sum_j c_j(t) mu^j, with
    sign(h) the sign of h(theta); ``reverse`` when t falls as theta rises.

    k = dim ker A(theta) is the least j with c_j(theta) != 0.  The
    eigenvalue branches are analytic (Rellich), so the lowest homogeneous
    part of chi at (0, theta) is a constant times prod_i (mu - phi_i (t -
    theta)) over the eigenvalues phi_i of the crossing form; its
    coefficients are c_j^(k-j)(theta) / (k - j)!, and Descartes' rule is
    exact on it.  The crossing is regular iff k is the multiplicity of
    theta as a root of c_0."""
    k = next(j for j, c in enumerate(cs) if sign(c))
    signs = [sign(reduce(lambda h, _: rp.derivative(h), range(k - j), cs[j]))
             * (-1) ** ((k - j) * reverse) for j in range(k + 1)]
    return (k, *rp.root_sign_counts(signs))


def _real_roots(chains, lo, hi) -> list[tuple]:
    """The real roots in the open interval (lo, hi) of square-free factors
    given as (Sturm chain, multiplicity), None meaning an infinite end, each
    as (float, exact rational or None, multiplicity, sign, a, b): the float
    nearest the root, an isolating interval (a, b] from
    ``rp._roots_between``, and sign(h) the sign of h at the root: at the
    exact root, or by a Tarski query."""
    out = []
    for chain, mult in chains:
        p = chain[0]
        for approx, exact, a, b in rp._roots_between(chain, lo, hi):
            sign = partial(rp._root_sign, p, lo=a, hi=b) if exact is None else _at_point(exact)
            out.append((approx, exact, mult, sign, a, b))
    return out


# ---------------------------------------------------------------------------
# spectral flow: straight segments


def _flow_linear_exact(path: LinearPath) -> SpectralFlowResult:
    """The rule of ``_crossing_counts`` at the roots of c_0 in (0, 1) and at
    the ends.  An irrational simple root of a square-free c_0 that is the
    only root in [a, b] for its isolating interval (a, b] needs no Tarski
    query: the Morse index, the negative root count of sum_j c_j(x) mu^j,
    drops from x = a to x = b by its signature."""
    cs = _path_chi(path)
    if not cs[0]:
        raise IrregularCrossingError(
            float("nan"), "the path is singular at every parameter")
    chains = [(c, m) for _, m, c in rp._yun_chains(cs[0])]
    crossings = []
    for approx, exact, mult, sign, a, b in _real_roots(chains, 0, 1):
        simple = exact is None and len(chains) == mult == 1
        ends = [[_at_point(x)(c) for c in cs] for x in (a, b)] if simple else None
        if ends and ends[0][0] and ends[1][0]:
            step = rp.root_sign_counts(ends[0])[0] - rp.root_sign_counts(ends[1])[0]
            k, neg, pos = 1, (1 - step) // 2, (1 + step) // 2
        else:
            k, neg, _, pos = _crossing_counts(cs, sign)
        if k != mult:
            raise IrregularCrossingError(approx, "degenerate crossing form")
        crossings.append(Crossing(approx, exact, mult, pos, neg, True))
    crossings.sort(key=lambda c: c.location)
    start_corr = _crossing_counts(cs, _at_point(Fraction(0)))[1]
    end_corr = _crossing_counts(cs, _at_point(Fraction(1)))[3]
    total = sum(c.signature for c in crossings) - start_corr + end_corr
    return SpectralFlowResult(total, tuple(crossings), start_corr, end_corr, RATIONAL)


# ---------------------------------------------------------------------------
# float crossings: banded inertia


def _banded_crossings(base: np.ndarray, direction: np.ndarray, hi: float,
                      found: list, tol: float) -> tuple[list, int, int]:
    """The crossings of A(t) = base + t direction at the sorted locations
    ``found``, (theta, multiplicity) in (0, hi), and the band counts at 0
    and hi, from one ``eigvalsh`` of A at 0, the midpoints, the locations
    and hi: Morse counts eigenvalues below -tol, the band those in [-tol,
    tol].  At theta, k = band(theta) and the crossing form's counts are the
    Morse drops to the neighbouring midpoints (Robbin & Salamon 1995),
    regular iff they sum to k = multiplicity; k = 0 is no crossing.  A
    midpoint in the band, or a Morse step that no band explains, is a
    crossing that was not located and raises IndeterminateError."""
    ts = [t for t, _ in found]
    points = [0.0] + [p for x, y in zip([0.0] + ts, ts + [hi]) for p in ((x + y) / 2, y)]
    w = np.linalg.eigvalsh(base + np.array(points)[:, None, None] * direction)
    morse = np.count_nonzero(w < -tol, axis=1).tolist()
    band = np.count_nonzero(np.abs(w) <= tol, axis=1).tolist()
    for i in range(1, len(points), 2):
        if band[i] or not all(0 <= morse[i] - morse[j] <= band[j] for j in (i - 1, i + 1)):
            raise IndeterminateError(
                f"a crossing between {points[i - 1]!r} and {points[i + 1]!r} was not located")
    crossings = []
    for i, (theta, mult) in enumerate(found, 1):
        k, pos, neg = band[2 * i], morse[2 * i - 1] - morse[2 * i], morse[2 * i + 1] - morse[2 * i]
        if k:
            crossings.append(Crossing(theta, None, k, pos, neg, pos + neg == k == mult))
    return crossings, band[0], band[-1]


def _kernel_counts_float(a: Matrix, form: np.ndarray, tol: float) -> tuple[int, int, int]:
    """The dimension of the float kernel of ``a`` and the strict positive
    and negative counts of the Hermitian ``form`` restricted to it."""
    z = kernel(a, tol=tol).basis_numpy()
    f = z.conj().T @ form @ z
    counts = _inertia_float((f + f.conj().T) / 2, tol)
    return z.shape[1], counts.coindex, counts.morse_index


def _cluster(values: list[float], gap: float) -> list[tuple[float, int]]:
    """Group sorted values, each joining the previous group when within
    gap (1 + |x|) of its running mean, as (mean, count) per group."""
    out: list[tuple[float, int]] = []
    for x in values:
        if out and x - out[-1][0] <= gap * (1 + abs(x)):
            loc, cnt = out[-1]
            out[-1] = ((loc * cnt + x) / (cnt + 1), cnt + 1)
        else:
            out.append((x, 1))
    return out


def _linear_locations_float(path: LinearPath, tol: float) -> list[tuple[float, int]]:
    """The t in (0, 1) where A(t) = S + t D may be singular, as (t,
    multiplicity): t0 - 1 / mu for the eigenvalues |mu| >= 1/2 of A(t0)^-1 D
    (t in [0, 1] needs |mu| >= 1), at the better end or else the best of m
    interior t0.  A path in the band at all of them raises
    IndeterminateError: it may be singular everywhere, or its band may be
    wide against a small block of a regular path.
    Within gap = tol / max|D| a root is real, real roots cluster, and an
    end keeps a root.  Rounding splits a p-fold root by about eps^(1/p), so
    the roots within 1e-4 of a real location add to its multiplicity, and
    the other roots within 1e-4 of the axis cluster by real part."""
    s, d, m = path.start._arr, path.derivative._arr, path.dim
    if m == 0:
        return []
    for ts in (np.array([0.0, 1.0]), np.linspace(0.0, 1.0, m + 2)[1:-1]):
        small = np.abs(np.linalg.eigvalsh(s + ts[:, None, None] * d)).min(axis=1)
        if small.max() > tol:
            break
    else:
        raise IndeterminateError("the path lies in the tolerance band at every sampled parameter")
    t0 = float(ts[np.argmax(small)])
    mu = np.linalg.eigvals(np.linalg.solve(s + t0 * d, d))
    roots = t0 - 1 / mu[np.abs(mu) >= 0.5]
    gap = tol / float(np.max(np.abs(d))) if roots.size else 0.0
    real = np.abs(roots.imag) <= gap
    near = roots[~real & (np.abs(roots.imag) <= 1e-4)]
    found = _cluster(sorted(roots.real[real].tolist()), gap)
    split = np.abs(near[:, None] - np.array([t for t, _ in found])) <= 1e-4
    found = [(t, c + int(n)) for (t, c), n in zip(found, split.sum(axis=0))]
    found += _cluster(sorted(near[~split.any(axis=1)].real.tolist()), 1e-4)
    return sorted(f for f in found if gap < f[0] < 1 - gap)


def _flow_linear_float(path: LinearPath, tol: float) -> SpectralFlowResult:
    d, found = path.derivative._arr, _linear_locations_float(path, tol)
    crossings, band0, band1 = _banded_crossings(path.start._arr, d, 1.0, found, tol)
    for c in crossings:
        if not c.regular:
            raise IrregularCrossingError(c.location, "degenerate crossing form")
    start_corr = _kernel_counts_float(path.start, d, tol)[2] if band0 else 0
    end_corr = _kernel_counts_float(path.end, d, tol)[1] if band1 else 0
    total = sum(c.signature for c in crossings) - start_corr + end_corr
    return SpectralFlowResult(total, tuple(crossings), start_corr, end_corr, FLOAT64)


# ---------------------------------------------------------------------------
# spectral flow: Krein deformations


def _krein_locations_float(evals: np.ndarray, s_max: float, tol: float) -> list:
    """The s in (0, s_max) with singular B + s*G, as (s, multiplicity),
    from the eigenvalues of J B; one within tol (1 + s_max) of s_max cannot
    be placed before, at or after it, and raises IndeterminateError."""
    on_axis = (float(e.imag) for e in evals if abs(e.real) <= tol and e.imag > tol)
    found = _cluster(sorted(on_axis), tol)
    for s, _ in found:
        if abs(s - s_max) <= tol * (1 + s_max):
            raise IndeterminateError(
                f"a crossing at s = {float(s)!r} lies within the tolerance band of s_max")
    return [(s, cnt) for s, cnt in found if s < s_max]


def _krein_zero_crossing(b: Matrix, tol: float) -> Optional[Crossing]:
    """The crossing of B + s*G at s = 0, or None when ker B = 0.

    G = i*J restricted to a real subspace has spectrum symmetric about
    zero, so each count is half the rank of x^T J y on ker B = ker J B.
    Its radical is ker J B meet range J B, of dimension r - q for
    r = rank B and q = rank(B J B) = rank((J B)^2), so for rational B each
    count is (2n - 2r + q) / 2, from two ranks on integer rows and no
    kernel.  Float B counts the eigenvalues of the form outside [-tol, tol]."""
    if b.field != RATIONAL:
        dim, pos, neg = _kernel_counts_float(b, krein_form(b.n_rows // 2), tol)
        return Crossing(0.0, None, dim, pos, neg, pos + neg == dim) if dim else None
    dim = b.n_rows - rank(b)
    pos = neg = (2 * dim - b.n_rows + rank(b @ _j_times(b))) // 2
    return Crossing(0.0, Fraction(0), dim, pos, neg, pos + neg == dim) if dim else None


def _krein_chi_factors(b: Matrix) -> tuple:
    """``_krein_chi(b, 1)`` and the ``_axis_factors`` of its q_0."""
    qs = _krein_chi(b, 1)
    return qs, _axis_factors(qs[0])


def _krein_crossings(path: KreinPath, tol: Optional[float], shared=None):
    """The crossings of B + s*G for 0 <= s <= s_max in order of s, each with
    whether it sits at s_max: first the one at s = 0 when ker B != 0.
    Irregular crossings are yielded, not raised.

    A float B takes the eigenvalues of J B from float ``_classify`` as
    ``shared``, computed when not given, and ``_banded_crossings``; B +
    s_max G in the band raises.

    A rational B takes ``_krein_chi_factors(B)`` as ``shared``, computed
    when not given, and no tolerance; when it is invertible no rank is
    computed.  Its crossings are s = sqrt(-x) for the roots x of r in
    (-s_max^2, 0), exact or from the float nearest x (ValueError where x
    has none), then s_max when a Yun factor of r vanishes at -s_max^2;
    factors without negative roots are not isolated.  Each takes the rule
    of ``_crossing_counts`` on the r_j in x, which falls as s rises, signed
    at an irrational x by Tarski queries; a root of multiplicity m needs
    r_0, ..., r_m."""
    b = path.b
    if b.field != RATIONAL:
        tol = _resolve_tol(tol, lambda: b.max_abs() + float(path.s_max))
        if shared is None:
            shared = _eigenvalues(_omega_b(b, None, None))
        s_max = float(path.s_max)
        crossings, band0, band1 = _banded_crossings(
            b._arr, krein_form(b.n_rows // 2), s_max,
            _krein_locations_float(shared, s_max, tol), tol)
        if band1:
            raise IndeterminateError(
                f"B + s*G is within the tolerance band of singular at s_max = {s_max!r}")
        zero = [_krein_zero_crossing(b, tol)] if band0 else []
        yield from ((cr, False) for cr in zero + crossings if cr is not None)
        return
    qs, factors = shared or _krein_chi_factors(b)
    if not all(g[0] for g, _, _, _ in factors):  # det B = r(0) = 0
        yield _krein_zero_crossing(b, None), False
    s_max = Fraction(path.s_max)
    u, v = s_max.numerator ** 2, s_max.denominator ** 2
    chains = [(chain, m) for g, m, c, chain in factors if c > (g[0] == 0)]
    found = []
    for x, exact, mult, sign, _, _ in _real_roots(chains, Fraction(-u, v), 0):
        s_exact = None if exact is None else _fraction_sqrt(-exact)
        if s_exact is None and math.isinf(x):
            raise ValueError("a Krein crossing lies where x = -s^2 is past the float range")
        found.append((float(s_exact) if s_exact is not None else (-x) ** 0.5, s_exact, mult, sign, False))
    found.sort(key=lambda t: t[0])
    found += [(float(s_max), s_max, m, _at_point(Fraction(-u, v)), True)
              for chain, m in chains if rp._sign_at(chain[0], -u, v) == 0]
    order = max((f[2] for f in found), default=0)
    rs = [rp.even_part(q)[0] for q in (qs if order < len(qs) else _krein_chi(b, order))]
    for s, s_exact, mult, sign, at_end in found:
        k, neg, _, pos = _crossing_counts(rs, sign, reverse=True)
        yield Crossing(s, s_exact, k, pos, neg, k == mult), at_end


def _flow_krein(path: KreinPath, tol: Optional[float], shared=None) -> tuple:
    """The flow and the multiplicity of its crossing at s = 0 (0 when there
    is none), which is dim ker B for a rational B.  The crossing at s = 0
    gives the start correction, those at s_max the end correction; an
    irregular one in between raises."""
    crossings, start_corr, end_corr, nullity = [], 0, 0, 0
    for cr, at_end in _krein_crossings(path, tol, shared):
        if cr.location == 0:
            start_corr, nullity = cr.negative, cr.multiplicity
        elif at_end:
            end_corr += cr.positive
        elif not cr.regular:
            raise IrregularCrossingError(cr.location, "degenerate crossing form")
        else:
            crossings.append(cr)
    total = sum(c.signature for c in crossings) - start_corr + end_corr
    return SpectralFlowResult(total, tuple(crossings), start_corr, end_corr, path.field), nullity


def spectral_flow(path: Path, tol: Optional[float] = None) -> SpectralFlowResult:
    """Spectral flow of a path of self-adjoint matrices.

    Interior crossings must be regular; a degenerate crossing form raises
    IrregularCrossingError.  Endpoint kernels enter through the boundary
    convention stated in the module docstring.
    """
    if isinstance(path, LinearPath):
        if path.field == RATIONAL:
            return _flow_linear_exact(path)
        t = _resolve_tol(tol, lambda: max(path.start.max_abs(), path.end.max_abs()))
        return _flow_linear_float(path, t)
    if isinstance(path, KreinPath):
        return _flow_krein(path, tol)[0]
    raise TypeError("unsupported path type")


def relative_morse_index(a0: Matrix, a1: Matrix, tol: Optional[float] = None) -> int:
    """Relative Morse index of the pair (a0, a1): minus the spectral flow of
    the straight segment from a0 to a1.  For invertible endpoints this equals
    morse(a1) - morse(a0).  An explicit float tol is checked first."""
    if tol is not None and a0.field == FLOAT64:
        _resolve_tol(tol, None)
    return -spectral_flow(LinearPath(a0, a1), tol=tol).flow


def crossing_set(b: Matrix, s_max, tol: Optional[float] = None) -> tuple:
    """All crossings of the Krein deformation B + s*G for s in [0, s_max],
    endpoint values included; irregular ones have ``regular=False``.  A
    float B raises IndeterminateError as its flow does: for a crossing not
    located (``_banded_crossings``), or one or B + s_max G in the band of
    s_max.  An explicit float tol is checked before B."""
    if tol is not None and b.field == FLOAT64:
        _resolve_tol(tol, None)
    return tuple(cr for cr, _ in _krein_crossings(KreinPath(b, s_max), tol))


# ---------------------------------------------------------------------------
# the counting identity n = kappa + nullity/2


def kappa_identity_check(b: Matrix, tol: Optional[float] = None) -> KappaIdentity:
    """Check n = kappa + nullity(B)/2, with kappa the number of eigenvalue
    pairs of J B on the punctured imaginary axis, counted with multiplicity.

    The identity is the content of the counting argument behind the parity
    criterion and holds whenever J B is linearly stable.  The exact backend
    reads kappa off the classification's own factors of the even part r of
    the characteristic polynomial: each Yun factor g of r with multiplicity
    m and c distinct roots in (-inf, 0] adds m (c - [g(0) = 0]), its roots
    on the open negative axis.  The float backend needs the nonzero
    frequencies separated from zero by the tolerance and raises
    IndeterminateError when they are not, and when its counts break the
    identity under a linearly stable float verdict, where it must hold.
    """
    return _kappa_identity(b, tol, *_classify(b, None, tol))


def _kappa_identity(b: Matrix, tol: Optional[float], cls, factors, nullity=None) -> KappaIdentity:
    """``kappa_identity_check`` from the classification of B and what
    ``_classify`` returns with it: the factors of r, or the eigenvalues of
    J B on the float backend.  ``nullity`` is dim ker B, when known, for a
    rational B, else its ``inertia`` on the char_poly(B) that ``_classify``
    left in B's memo; a float B takes its own rank at the tolerance."""
    n = b.n_rows // 2
    if b.field == RATIONAL:
        kappa = sum(m * (c - (g[0] == 0)) for g, m, c, _ in factors)
        if nullity is None:
            nullity = inertia(b).nullity
        return KappaIdentity(n, kappa, nullity, n == kappa + Fraction(nullity, 2), cls)
    t = _resolve_tol(tol, b.max_abs)
    nonzero = [e for e in factors if abs(e) > t]
    if any(abs(e) <= 10 * t for e in nonzero):
        raise IndeterminateError(
            "eigenvalues too close to zero to separate kappa from the kernel")
    kappa = sum(1 for e in nonzero if e.imag > 0)
    nullity = b.n_rows - rank(b, tol=t)
    holds = n == kappa + nullity / 2
    if not holds and cls.verdict == Verdict.LINEARLY_STABLE:
        raise IndeterminateError(
            f"kappa = {kappa} and nullity {nullity} break n = kappa + nullity/2 for n = {n},"
            " which holds under the float verdict linearly_stable")
    return KappaIdentity(n, kappa, nullity, holds, cls)


def _krein_flow_and_kappa(path: KreinPath,
                          tol: Optional[float]) -> tuple[SpectralFlowResult, KappaIdentity]:
    """``spectral_flow(path, tol)`` and ``kappa_identity_check(path.b, tol)``
    from one classification of B, which the path has checked.  A rational
    B is classified on the factors of ``_krein_chi_factors``, which the
    flow shares, so char_poly(J B) is computed once; a float B's
    classification takes the eigenvalues of J B that the flow reads.  The
    flow is taken first, so its errors win over those of kappa, and gives
    a rational B's kappa its nullity, so rank B is taken once."""
    b = path.b
    if b.field == RATIONAL:
        shared = _krein_chi_factors(b)
        cls, factors = _classify(b, None, tol, shared[1])
    else:
        cls, factors = _classify(b, None, tol)
        shared = factors
    flow, nullity = _flow_krein(path, tol, shared)
    return flow, _kappa_identity(b, tol, cls, factors, nullity)
