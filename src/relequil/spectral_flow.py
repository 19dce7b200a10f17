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
the first entry of ``crossing_set`` and gives the flow's start correction,
with the exact counts rank(Z^T J Z) / 2 for rational B.  Float input counts
eigenvalues against a tolerance.
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
    Subspace,
    _char_poly_int,
    _cleared,
    _exact_div,
    _require_symmetric,
    _resolve_tol,
    default_tolerance,
    kernel,
    rank,
    standard_symplectic,
)
from .stability import _axis_factors, _classify, _fraction_sqrt

__all__ = [
    "IrregularCrossingError",
    "LinearPath",
    "KreinPath",
    "Crossing",
    "SpectralFlowResult",
    "KappaIdentity",
    "KreinSignatureReport",
    "krein_form",
    "spectral_flow",
    "relative_morse_index",
    "crossing_set",
    "kappa_identity_check",
    "krein_signature",
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
    return 1j * standard_symplectic(n, FLOAT64).to_numpy()


@dataclass(frozen=True)
class LinearPath:
    """The segment A(t) = (1-t) start + t end of symmetric matrices, t in [0,1]."""

    start: Matrix
    end: Matrix

    def __post_init__(self):
        if self.start.shape != self.end.shape or not self.start.is_square:
            raise ShapeError("path endpoints must be square matrices of equal size")
        if self.start.field != self.end.field:
            raise FieldError("path endpoints must share a backend field")
        for m in (self.start, self.end):
            _require_symmetric(m, None)

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
    J B for the eigenvalue i*s.
    """

    b: Matrix
    s_max: object  # Fraction or float, finite and > 0

    def __post_init__(self):
        if not self.b.is_square or self.b.n_rows % 2 != 0:
            raise ShapeError("Krein path needs an even-dimensional symmetric matrix")
        _require_symmetric(self.b, None)
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


@dataclass(frozen=True)
class KreinSignatureReport:
    positive: int
    negative: int
    degenerate: int

    @property
    def signature(self) -> int:
        return self.positive - self.negative

    @property
    def parity(self) -> int:
        """Parity of the negative count."""
        return self.negative % 2

    @property
    def nondegenerate(self) -> bool:
        return self.degenerate == 0


# ---------------------------------------------------------------------------
# chi(mu, t) = det(mu I - A(t)) and the crossing rule on it


def _path_chi(path: LinearPath) -> list[list[int]]:
    """The integer c_j(t), j = 0..m, with sum_j c_j(t) mu^j =
    det(mu I - m d A(t)) for the dimension m and start = S / d, end = E / d.

    m d A(u / m) = (m - u) S + u E, so the characteristic polynomials of
    these samples, u = 0..m, on one ``_char_poly_int`` stack give q_j(u) =
    c_j(u / m), of degree <= m - j.  Each is rebuilt from its forward
    differences: q_j(u) = sum_k a_k u (u - 1) ... (u - k + 1), each
    a_k = Delta^k q_j(0) / k! an integer."""
    m = path.dim
    ints = _cleared(path.start.rows() + path.end.rows())[0]
    polys = [p[0] for p in _char_poly_int([
        [[(m - u) * x + u * y for x, y in zip(rs, re)] for rs, re in zip(ints[:m], ints[m:])]
        for u in range(m + 1)])]
    out = []
    for j in range(m + 1):
        values, newton = [p[j] for p in polys], []
        for k in range(m - j + 1):
            newton.append(_exact_div(values[0], math.factorial(k)))
            values = [y - x for x, y in zip(values, values[1:])]
        q = []
        for k in range(len(newton) - 1, -1, -1):  # q <- q (u - k) + a_k
            q = [a - k * b for a, b in zip([0] + q, q + [0])]
            q[0] += newton[k]
        out.append(rp._trim([c * m ** i for i, c in enumerate(q)]))
    return out


def _krein_chi(b: Matrix, order: int) -> list[list[int]]:
    """The q_j(lambda), j <= order, with sum_j q_j mu^j = d^2n det(lambda I -
    J (B - mu I)) mod mu^(order + 1), for B = B' / d: J (B - mu I) is
    (A - mu X) / d for the integers A = J B' and X = d J.  q_0 is d^2n
    char_poly(J B), and since det(mu I - B - s G) = char_poly(J (B - mu I))
    (i s), chi(mu, s) = d^-2n sum_j r_j(-s^2) mu^j for the even parts
    q_j(lambda) = r_j(lambda^2)."""
    ints, d = _cleared(b.rows())
    n = len(ints) // 2
    a = [[-x for x in row] for row in ints[n:]] + ints[:n]
    x = [[d * int(v) for v in row] for row in standard_symplectic(n).rows()]
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
    as (float, exact rational or None, multiplicity, sign, a, b) with its
    isolating interval (a, b] and sign(h) the sign of h at the root: at the
    exact root, or by a Tarski query.  Only the isolating intervals that
    meet (lo, hi) are found, and only the roots inside them refined: exact
    signs at lo or hi and b place a root whose (a, b] holds lo or hi."""
    out = []
    for chain, mult in chains:
        p = chain[0]
        for a, b in rp._isolate(chain, lo, hi):
            left, right = lo is not None and a < lo, hi is not None and b >= hi
            if left or right:
                fb = rp._sign_at(p, b.numerator, b.denominator)
                # the root is in (lo, b] when p vanishes at b or changes sign from lo
                if left and fb and rp._sign_at(p, lo.numerator, lo.denominator) * fb >= 0:
                    continue
                # and in (a, hi) when p has one nonzero sign on [hi, b]
                if right and rp._sign_at(p, hi.numerator, hi.denominator) * fb <= 0:
                    continue
            approx, exact = rp.refine_root(p, a, b)
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
# float crossings


def _det_poly_float(path: LinearPath) -> np.ndarray:
    m = path.dim
    if m == 0:
        return np.array([1.0])
    nodes = np.linspace(0.0, 1.0, m + 1)
    values = np.array([np.linalg.det(path.value(float(t)).to_numpy()) for t in nodes])
    coeffs = np.polynomial.polynomial.polyfit(nodes, values, m)
    top = np.max(np.abs(coeffs)) if coeffs.size else 0.0
    if top == 0.0:
        return np.zeros(1)
    keep = coeffs.copy()
    while keep.size > 1 and abs(keep[-1]) <= 1e-12 * top:
        keep = keep[:-1]
    return keep


def _crossing_numeric(arr: np.ndarray, deriv: np.ndarray, location: float,
                      exact_location: Optional[Fraction], multiplicity: int,
                      interior: bool, tol: float) -> Crossing:
    """Crossing data from a numeric Hermitian matrix near a known root.

    ``multiplicity`` is the determinant root multiplicity; the kernel is read
    off as the eigenvectors of the smallest absolute eigenvalues, capped at
    the count of eigenvalues below the separation cutoff.
    """
    m = arr.shape[0]
    evals, evecs = np.linalg.eigh(arr)
    order = np.argsort(np.abs(evals))
    scale = 1.0 + float(np.max(np.abs(evals))) if m else 1.0
    cutoff = max(tol, 1e-6 * scale)
    near = int(np.sum(np.abs(evals) <= cutoff))
    k = min(multiplicity, near) if near else multiplicity
    k = max(k, 1)
    z = evecs[:, order[:k]]
    f = z.conj().T @ deriv @ z
    f = (f + f.conj().T) / 2
    pos, neg = _strict_counts_float(f, default_tolerance(np.max(np.abs(f))))
    regular = pos + neg == k and k == multiplicity
    if interior and not regular:
        raise IrregularCrossingError(location, "degenerate crossing form")
    return Crossing(location, exact_location, k, pos, neg, regular)


def _strict_counts_float(form: np.ndarray, tol: float) -> tuple[int, int]:
    w = np.linalg.eigvalsh((form + form.conj().T) / 2)
    return int(np.sum(w > tol)), int(np.sum(w < -tol))


def _kernel_counts_float(a: Matrix, form: np.ndarray, tol: float) -> tuple[int, int]:
    """Strict positive and negative counts of the Hermitian ``form``
    restricted to the float kernel of ``a``."""
    ker = kernel(a, tol=tol)
    if ker.dimension == 0:
        return 0, 0
    z = ker.basis_numpy()
    return _strict_counts_float(z.conj().T @ form @ z, tol)


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


def _flow_linear_float(path: LinearPath, tol: float) -> SpectralFlowResult:
    coeffs = _det_poly_float(path)
    top = float(np.max(np.abs(coeffs)))
    if top == 0.0:
        raise IrregularCrossingError(
            float("nan"), "the path is singular at every parameter")
    crossings = []
    if coeffs.size > 1:
        roots = np.polynomial.polynomial.polyroots(coeffs)
        edge = 1e-9
        real = sorted(r.real for r in roots if abs(r.imag) <= 1e-4)
        for loc, mult in _cluster(real, gap=1e-4):
            if loc <= edge or loc >= 1 - edge:
                continue
            arr = path.value(loc).to_numpy()
            crossings.append(_crossing_numeric(
                arr, path.derivative.to_numpy(), loc, None, mult,
                interior=True, tol=tol))
    crossings.sort(key=lambda c: c.location)
    deriv = path.derivative.to_numpy().astype(complex)
    start_corr = _kernel_counts_float(path.start, deriv, tol)[1]
    end_corr = _kernel_counts_float(path.end, deriv, tol)[0]
    total = sum(c.signature for c in crossings) - start_corr + end_corr
    return SpectralFlowResult(total, tuple(crossings), start_corr, end_corr, FLOAT64)


# ---------------------------------------------------------------------------
# spectral flow: Krein deformations


def _krein_locations_float(b: Matrix, s_max: float, tol: float) -> list:
    """The s in (0, s_max) with singular B + s*G, as (float, None,
    multiplicity, False), from the eigenvalues of J B, none of them at
    s_max: a location within tol (1 + s_max) of s_max cannot be placed
    before, at or after it, and raises IndeterminateError."""
    n = b.n_rows // 2
    jb = standard_symplectic(n, FLOAT64).to_numpy() @ b.to_numpy()
    evals = np.linalg.eigvals(jb)
    onaxis = sorted(e.imag for e in evals if abs(e.real) <= tol and e.imag > tol)
    out = []
    for s, cnt in _cluster(onaxis, tol):
        if abs(s - s_max) <= tol * (1 + s_max):
            raise IndeterminateError(
                f"a crossing at s = {float(s)!r} lies within the tolerance band of s_max")
        if s < s_max:
            out.append((s, None, cnt, False))
    return out


def _krein_zero_crossing(b: Matrix, tol: float) -> Optional[Crossing]:
    """The crossing of B + s*G at s = 0, or None when ker B = 0.

    The restriction of G = i*J to a real subspace has spectrum symmetric
    about zero, so for rational B each count is rank(Z^T J Z) / 2 on the
    exact kernel basis Z; float B counts the eigenvalues of the form
    outside [-tol, tol]."""
    exact = b.field == RATIONAL
    ker = kernel(b, tol=None if exact else tol)
    if ker.dimension == 0:
        return None
    if exact:
        zm = Matrix(list(zip(*ker.basis)), RATIONAL)
        pos = neg = rank(zm.T @ standard_symplectic(b.n_rows // 2) @ zm) // 2
    else:
        z = ker.basis_numpy()
        pos, neg = _strict_counts_float(z.conj().T @ krein_form(b.n_rows // 2) @ z, tol)
    return Crossing(0.0, Fraction(0) if exact else None, ker.dimension, pos, neg,
                    pos + neg == ker.dimension)


def _krein_chi_factors(b: Matrix) -> tuple:
    """``_krein_chi(b, 1)`` and the ``_axis_factors`` of its q_0."""
    qs = _krein_chi(b, 1)
    return qs, _axis_factors(qs[0])


def _krein_crossings(path: KreinPath, tol: Optional[float], shared=None):
    """The crossings of B + s*G for 0 <= s <= s_max in order of s, each with
    whether it sits at s_max: first the one at s = 0 when ker B != 0.
    Irregular crossings are yielded, not raised.

    A rational B takes ``_krein_chi_factors(B)`` as ``shared``, computed
    when not given, and no tolerance; when it is invertible no kernel is
    computed.  Its crossings are s = sqrt(-x) for the roots x of r in
    (-s_max^2, 0), then s_max when a Yun factor of r vanishes at -s_max^2;
    factors without negative roots are not isolated.  Each takes the rule
    of ``_crossing_counts`` on the r_j in x, which falls as s rises, signed
    at an irrational x by Tarski queries; a root of multiplicity m needs
    r_0, ..., r_m."""
    b = path.b
    if b.field != RATIONAL:
        tol = _resolve_tol(tol, lambda: b.max_abs() + float(path.s_max))
        g = krein_form(b.n_rows // 2)
        base = b.to_numpy().astype(complex)
        zero = _krein_zero_crossing(b, tol)
        if zero:
            yield zero, False
        for s, _, mult, at_end in _krein_locations_float(b, float(path.s_max), tol):
            yield _crossing_numeric(base + s * g, g, s, None, mult,
                                    interior=False, tol=tol), at_end
        return
    qs, factors = shared or _krein_chi_factors(b)
    if not _invertible(factors):
        yield _krein_zero_crossing(b, None), False
    s_max = Fraction(path.s_max)
    u, v = s_max.numerator ** 2, s_max.denominator ** 2
    chains = [(chain, m) for g, m, c, chain in factors if c > (g[0] == 0)]
    found = []
    for x, exact, mult, sign, _, _ in _real_roots(chains, Fraction(-u, v), 0):
        s_exact = None if exact is None else _fraction_sqrt(-exact)
        found.append((float(s_exact) if s_exact is not None else (-x) ** 0.5, s_exact, mult, sign, False))
    found.sort(key=lambda t: t[0])
    found += [(float(s_max), s_max, m, _at_point(Fraction(-u, v)), True)
              for chain, m in chains if rp._sign_at(chain[0], -u, v) == 0]
    order = max((f[2] for f in found), default=0)
    rs = [rp.even_part(q)[0] for q in (qs if order < len(qs) else _krein_chi(b, order))]
    for s, s_exact, mult, sign, at_end in found:
        k, neg, _, pos = _crossing_counts(rs, sign, reverse=True)
        yield Crossing(s, s_exact, k, pos, neg, k == mult), at_end


def _invertible(factors) -> bool:
    """Whether B is invertible, from the ``_axis_factors`` of char_poly(J B):
    det B = r(0), so when no Yun factor of r vanishes at 0."""
    return all(g[0] for g, _, _, _ in factors)


def _flow_krein(path: KreinPath, tol: Optional[float], shared=None) -> SpectralFlowResult:
    """The crossing at s = 0 gives the start correction, those at s_max the
    end correction; an irregular one in between raises."""
    crossings, start_corr, end_corr = [], 0, 0
    for cr, at_end in _krein_crossings(path, tol, shared):
        if cr.location == 0:
            start_corr = cr.negative
        elif at_end:
            end_corr += cr.positive
        elif not cr.regular:
            raise IrregularCrossingError(cr.location, "degenerate crossing form")
        else:
            crossings.append(cr)
    total = sum(c.signature for c in crossings) - start_corr + end_corr
    return SpectralFlowResult(total, tuple(crossings), start_corr, end_corr, path.field)


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
        return _flow_krein(path, tol)
    raise TypeError("unsupported path type")


def relative_morse_index(a0: Matrix, a1: Matrix, tol: Optional[float] = None) -> int:
    """Relative Morse index of the pair (a0, a1): minus the spectral flow of
    the straight segment from a0 to a1.  For invertible endpoints this equals
    morse(a1) - morse(a0)."""
    return -spectral_flow(LinearPath(a0, a1), tol=tol).flow


def crossing_set(b: Matrix, s_max, tol: Optional[float] = None) -> tuple:
    """All crossings of the Krein deformation B + s*G for s in [0, s_max],
    endpoint values included.  Purely descriptive: irregular crossings are
    reported with ``regular=False`` rather than raised."""
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
    IndeterminateError when they are not.
    """
    cls, factors = _classify(b, None, tol)
    if b.field == RATIONAL:
        return _kappa_identity_exact(b, cls, factors)
    n = b.n_rows // 2
    t = _resolve_tol(tol, b.max_abs)
    jb = standard_symplectic(n, FLOAT64).to_numpy() @ b.to_numpy()
    evals = np.linalg.eigvals(jb)
    nonzero = [e for e in evals if abs(e) > t]
    if any(abs(e) <= 10 * t for e in nonzero):
        raise IndeterminateError(
            "eigenvalues too close to zero to separate kappa from the kernel")
    kappa = sum(1 for e in nonzero if e.imag > 0)
    nullity = b.n_rows - rank(b, tol=t)
    holds = n == kappa + nullity / 2
    return KappaIdentity(n, kappa, nullity, holds, cls)


def _kappa_identity_exact(b: Matrix, cls, factors) -> KappaIdentity:
    n = b.n_rows // 2
    kappa = sum(m * (c - (g[0] == 0)) for g, m, c, _ in factors)
    nullity = 0 if _invertible(factors) else b.n_rows - rank(b)
    return KappaIdentity(n, kappa, nullity, n == kappa + Fraction(nullity, 2), cls)


def _krein_flow_and_kappa(path: KreinPath,
                          tol: Optional[float]) -> tuple[SpectralFlowResult, KappaIdentity]:
    """``spectral_flow(path, tol)`` and ``kappa_identity_check(path.b, tol)``.
    A rational B, already checked by the path, is classified on the factors
    of ``_krein_chi_factors``, which the flow shares, so char_poly(J B) is
    computed once."""
    if path.field != RATIONAL:
        return spectral_flow(path, tol), kappa_identity_check(path.b, tol)
    shared = _krein_chi_factors(path.b)
    cls, factors = _classify(path.b, None, tol, shared[1])
    return _flow_krein(path, tol, shared), _kappa_identity_exact(path.b, cls, factors)


def krein_signature(subspace: Subspace, tol: Optional[float] = None) -> KreinSignatureReport:
    """Signature data of the form G = i*J restricted to a subspace of C^2n.

    For the eigenspace of J B at a simple purely imaginary eigenvalue the
    form is definite and its sign is the Krein sign of that eigenvalue."""
    if subspace.ambient_dim % 2 != 0:
        raise ShapeError("the Krein form lives on an even-dimensional space")
    if subspace.dimension == 0:
        return KreinSignatureReport(0, 0, 0)
    z = subspace.basis_numpy()
    f = z.conj().T @ krein_form(subspace.ambient_dim // 2) @ z
    f = (f + f.conj().T) / 2
    t = _resolve_tol(tol, lambda: np.max(np.abs(f)))
    pos, neg = _strict_counts_float(f, t)
    return KreinSignatureReport(pos, neg, subspace.dimension - pos - neg)
