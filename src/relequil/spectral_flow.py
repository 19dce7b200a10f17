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
crossings at s >= 0 sit exactly where J B has eigenvalue i*s.  For rational
input both use exact determinant polynomials, so crossing locations and
multiplicities carry proofs; kernels at irrational locations are then
extracted in floating point at exactly isolated positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    _cleared,
    _exact_div,
    _int_det,
    char_poly,
    default_tolerance,
    determinant,
    inertia,
    kernel,
    rank,
    restrict_form,
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
    g = np.zeros((2 * n, 2 * n), dtype=complex)
    for i in range(n):
        g[i, n + i] = -1j
        g[n + i, i] = 1j
    return g


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
            if not m.is_symmetric():
                raise ValueError("path endpoints must be symmetric")

    @property
    def dim(self) -> int:
        return self.start.n_rows

    @property
    def field(self) -> str:
        return self.start.field

    def value(self, t) -> Matrix:
        one = Fraction(1) if self.field == RATIONAL else 1.0
        return self.start * (one - t) + self.end * t

    @property
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
    s_max: object  # Fraction or float, > 0

    def __post_init__(self):
        if not self.b.is_square or self.b.n_rows % 2 != 0:
            raise ShapeError("Krein path needs an even-dimensional symmetric matrix")
        if not self.b.is_symmetric():
            raise ValueError("Krein path needs a symmetric matrix")
        if not float(self.s_max) > 0:
            raise ValueError("s_max must be positive")

    @property
    def dim(self) -> int:
        return self.b.n_rows

    @property
    def field(self) -> str:
        return self.b.field

    def value(self, s) -> np.ndarray:
        n = self.dim // 2
        return self.b.to_numpy().astype(complex) + float(s) * krein_form(n)

    @property
    def derivative(self) -> np.ndarray:
        return krein_form(self.dim // 2)


Path = Union[LinearPath, KreinPath]


@dataclass(frozen=True)
class Crossing:
    """A parameter value where the path loses invertibility.

    ``form`` is the crossing form on the kernel basis: exact Fractions for a
    rational location on a rational segment, floats or complex otherwise.
    """

    location: float
    exact_location: Optional[Fraction]
    multiplicity: int
    kernel: Subspace
    form: tuple
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
# determinant polynomials


def _det_poly_exact(path: LinearPath) -> list[Fraction]:
    """det A(t) as an exact polynomial in t, lowest degree first.

    The endpoints are cleared together, start = S / d and end = E / d, so
    A(u / m) = ((m - u) S + u E) / (m d) for the dimension m.  The integer
    polynomial q(u) = det((m - u) S + u E) of degree <= m is sampled at
    u = 0..m by Bareiss and rebuilt from its forward differences: in
    q(u) = sum_k c_k u (u - 1) ... (u - k + 1) each c_k = Delta^k q(0) / k!
    is an integer.  Then det A(t) = q(m t) / (m d)^m.
    """
    m = path.dim
    if m == 0:
        return [Fraction(1)]
    ints, d = _cleared(path.start.rows() + path.end.rows())
    s, e = ints[:m], ints[m:]
    values = [_int_det([[(m - u) * x + u * y for x, y in zip(rs, re)] for rs, re in zip(s, e)])
              for u in range(m + 1)]
    newton = []
    for k in range(m + 1):
        newton.append(_exact_div(values[0], math.factorial(k)))
        values = [y - x for x, y in zip(values, values[1:])]
    q = [newton[m]]
    for k in range(m - 1, -1, -1):  # q <- q (u - k) + c_k
        q = [a - k * b for a, b in zip([0] + q, q + [0])]
        q[0] += newton[k]
    scale = (m * d) ** m
    return rp.trim(Fraction(c * m ** i, scale) for i, c in enumerate(q))


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


# ---------------------------------------------------------------------------
# crossing construction


def _crossing_exact(path: LinearPath, theta: Fraction, multiplicity: int) -> Crossing:
    """The interior crossing at a rational location; irregular ones raise."""
    a = path.value(theta)
    ker = kernel(a)
    k = ker.dimension
    if k == 0:
        raise AssertionError("exact crossing location with trivial kernel")
    form = restrict_form(path.derivative, ker)
    ir = inertia(form)
    if ir.nullity:
        raise IrregularCrossingError(float(theta), "degenerate crossing form")
    if k != multiplicity:
        raise AssertionError("regular crossing with mismatched determinant multiplicity")
    return Crossing(
        location=float(theta),
        exact_location=theta,
        multiplicity=k,
        kernel=ker,
        form=tuple(tuple(row) for row in form.rows()),
        positive=ir.coindex,
        negative=ir.morse_index,
        regular=True,
    )


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
    w = np.linalg.eigvalsh(f)
    ftol = default_tolerance(float(np.max(np.abs(f))) if f.size else 0.0)
    pos = int(np.sum(w > ftol))
    neg = int(np.sum(w < -ftol))
    regular = pos + neg == k and k == multiplicity
    if interior and not regular:
        raise IrregularCrossingError(location, "degenerate crossing form")
    if np.max(np.abs(z.imag)) <= 1e-300:
        basis = tuple(tuple(float(x) for x in z[:, i].real) for i in range(k))
    else:
        basis = tuple(tuple(complex(x) for x in z[:, i]) for i in range(k))
    return Crossing(
        location=location,
        exact_location=exact_location,
        multiplicity=k,
        kernel=Subspace(m, basis),
        form=tuple(tuple(complex(x) if abs(x.imag) > 0 else float(x.real) for x in row)
                   for row in f),
        positive=pos,
        negative=neg,
        regular=regular,
    )


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


def _real_roots(factors, lo, hi) -> list[tuple[float, Optional[Fraction], int]]:
    """The real roots in the open interval (lo, hi) of square-free factors
    given as (factor, multiplicity), None meaning an infinite end, each as
    (float, exact rational or None, multiplicity).  Isolating intervals
    outside (lo, hi) are skipped before refinement."""
    out = []
    for factor, mult in factors:
        for a, b in rp.isolate_real_roots(factor):
            if (lo is not None and b <= lo) or (hi is not None and a >= hi):
                continue
            approx, exact = rp.refine_root(factor, a, b)
            x = approx if exact is None else exact
            if (lo is None or x > lo) and (hi is None or x < hi):
                out.append((approx, exact, mult))
    return out


# ---------------------------------------------------------------------------
# spectral flow: straight segments


def _flow_linear_exact(path: LinearPath) -> SpectralFlowResult:
    d = _det_poly_exact(path)
    if not d:
        raise IrregularCrossingError(
            float("nan"), "the path is singular at every parameter")
    crossings = []
    for approx, exact, mult in _real_roots(rp.squarefree_decomposition(d), 0, 1):
        if exact is not None:
            crossings.append(_crossing_exact(path, exact, mult))
        else:
            arr = path.value(Fraction(approx))
            crossings.append(_crossing_numeric(
                arr.to_numpy(), path.derivative.to_numpy(), approx,
                None, mult, interior=True, tol=0.0))
    crossings.sort(key=lambda c: c.location)
    start_corr = inertia(restrict_form(path.derivative, kernel(path.start))).morse_index
    end_corr = inertia(restrict_form(path.derivative, kernel(path.end))).coindex
    total = sum(c.signature for c in crossings) - start_corr + end_corr
    return SpectralFlowResult(total, tuple(crossings), start_corr, end_corr, RATIONAL)


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


def _krein_interior_locations_exact(b: Matrix) -> list[tuple[float, Optional[Fraction], int]]:
    """All s > 0 with singular B + s*G, as (float, exact or None, multiplicity):
    s^2 = -x for the negative roots x of the even part of char_poly(J B).
    Factors without such roots are not isolated."""
    p = char_poly(standard_symplectic(b.n_rows // 2) @ b)
    factors = [(g, m) for g, m, c in _axis_factors(p) if c > (g[0] == 0)]
    out = []
    for x, exact, mult in _real_roots(factors, None, 0):
        s_exact = None if exact is None else _fraction_sqrt(-exact)
        out.append((float(s_exact) if s_exact is not None else (-x) ** 0.5, s_exact, mult))
    return sorted(out, key=lambda t: t[0])


def _krein_interior_locations_float(b: Matrix, tol: float) -> list[tuple[float, None, int]]:
    n = b.n_rows // 2
    jb = standard_symplectic(n, FLOAT64).to_numpy() @ b.to_numpy()
    evals = np.linalg.eigvals(jb)
    onaxis = sorted(e.imag for e in evals if abs(e.real) <= tol and e.imag > tol)
    return [(s, None, cnt) for s, cnt in _cluster(onaxis, tol)]


def _krein_start_correction(b: Matrix, tol: float) -> int:
    """dim E_-(G restricted to ker B); exact when B is rational.

    The restriction of i*J to a real subspace has spectrum symmetric about
    zero, so the dimension is rank(Z^T J Z) / 2.
    """
    if b.field == RATIONAL:
        ker0 = kernel(b)
        if ker0.dimension == 0:
            return 0
        z = Matrix([list(row) for row in zip(*ker0.basis)], RATIONAL)
        rk = rank(z.T @ standard_symplectic(b.n_rows // 2) @ z)
        if rk % 2 != 0:
            raise AssertionError("skew form with odd rank")
        return rk // 2
    return _kernel_counts_float(b, krein_form(b.n_rows // 2), tol)[1]


def _krein_crossings(path: KreinPath, tol: float):
    """The crossings of B + s*G for 0 < s <= s_max in order of s, each with
    whether it sits at s_max.  Irregular crossings are yielded, not raised."""
    b = path.b
    g = krein_form(b.n_rows // 2)
    base = b.to_numpy().astype(complex)
    if b.field == RATIONAL:
        locations = _krein_interior_locations_exact(b)
    else:
        locations = _krein_interior_locations_float(b, tol)
    s_hi = float(path.s_max)
    for s_float, s_exact, mult in locations:
        # an exact location equal to s_max has s_float == s_hi
        at_end = abs(s_float - s_hi) <= 1e-12 * (1 + s_hi)
        if at_end or s_float < s_hi:
            yield _crossing_numeric(base + s_float * g, g, s_float, s_exact, mult,
                                    interior=False, tol=tol), at_end


def _flow_krein(path: KreinPath, tol: float) -> SpectralFlowResult:
    crossings = []
    end_corr = 0
    for cr, at_end in _krein_crossings(path, tol):
        if at_end:
            end_corr += cr.positive
        elif not cr.regular:
            raise IrregularCrossingError(cr.location, "degenerate crossing form")
        else:
            crossings.append(cr)
    start_corr = _krein_start_correction(path.b, tol)
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
        t = default_tolerance(max(path.start.max_abs(), path.end.max_abs())) \
            if tol is None else tol
        return _flow_linear_float(path, t)
    if isinstance(path, KreinPath):
        t = default_tolerance(path.b.max_abs() + float(path.s_max)) if tol is None else tol
        return _flow_krein(path, t)
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
    path = KreinPath(b, s_max)
    t = default_tolerance(b.max_abs() + float(s_max)) if tol is None else tol
    g = krein_form(b.n_rows // 2)
    exact = b.field == RATIONAL
    singular_at_zero = (determinant(b) == 0) if exact else (rank(b, tol=t) < b.n_rows)
    out = []
    if singular_at_zero:
        ker0 = kernel(b, tol=None if exact else t)
        z = ker0.basis_numpy()
        f = z.conj().T @ g @ z
        pos, neg = _strict_counts_float(f, t)
        out.append(Crossing(
            location=0.0,
            exact_location=Fraction(0) if exact else None,
            multiplicity=ker0.dimension,
            kernel=ker0,
            form=tuple(tuple(complex(x) for x in row) for row in f),
            positive=pos,
            negative=neg,
            regular=pos + neg == ker0.dimension,
        ))
    out.extend(cr for cr, _ in _krein_crossings(path, t))
    return tuple(out)


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
    n = b.n_rows // 2
    if b.field == RATIONAL:
        kappa = sum(m * (c - (g[0] == 0)) for g, m, c in factors)
        nullity = inertia(b).nullity
        return KappaIdentity(n, kappa, nullity, n == kappa + Fraction(nullity, 2), cls)
    t = default_tolerance(b.max_abs()) if tol is None else tol
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


def krein_signature(subspace: Subspace, tol: Optional[float] = None) -> KreinSignatureReport:
    """Signature data of the form G = i*J restricted to a subspace of C^2n.

    For the eigenspace of J B at a simple purely imaginary eigenvalue the
    form is definite and its sign is the Krein sign of that eigenvalue."""
    if subspace.ambient_dim % 2 != 0:
        raise ShapeError("the Krein form lives on an even-dimensional space")
    if subspace.dimension == 0:
        return KreinSignatureReport(0, 0, 0)
    z = subspace.basis_numpy()
    g = krein_form(subspace.ambient_dim // 2)
    f = z.conj().T @ g @ z
    f = (f + f.conj().T) / 2
    w = np.linalg.eigvalsh(f)
    t = default_tolerance(float(np.max(np.abs(f)))) if tol is None else tol
    pos = int(np.sum(w > t))
    neg = int(np.sum(w < -t))
    return KreinSignatureReport(pos, neg, subspace.dimension - pos - neg)
