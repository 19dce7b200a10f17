"""Linear stability of x' = J B x for a symmetric matrix B.

A linearized Hamiltonian system is spectrally stable when the whole spectrum
of J B lies on the imaginary axis, and linearly stable when J B is in
addition semisimple.  The central criterion implemented here: if the Morse
index or the nullity of B is odd, J B is linearly unstable.  A general
invertible skew form Omega takes the place of J: Omega = Q J Q^T for some Q,
so Omega B is similar to J (Q^T B Q), and it is Omega B that is classified.

The exact backend decides the imaginary-axis condition through the
characteristic polynomial of J B, computed once per classification.  It is
always even in this setting (the spectrum is symmetric under negation):
writing p(x) = r(x^2), the spectrum is on the axis iff r has only real,
nonpositive roots.  One Sturm count per Yun factor g of r, with
multiplicity m, gives the number c of distinct roots of g in (-inf, 0]: the
spectrum is on the axis iff c = deg g for every factor, and the eigenvalue
pairs on the punctured imaginary axis number kappa = sum m (c - [g(0) = 0]).
The same factors give the Yun factors of p and its square-free part s, and
J B is semisimple iff s(J B) = 0: at once when p is square-free, else by a
modular test.  The float eigenvalues that a classification reports are a
display, built from these factors when first read.  Only a read of the
defective eigenvalue of a defective J B computes its minimal polynomial,
from Krylov sequences modulo primes: a Krylov matrix that is nonsingular
modulo one prime proves that it is p, and any other is a CRT lift checked
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Optional

from . import rational_poly as rp
from .matrix_core import (
    FLOAT64,
    RATIONAL,
    Eigenvalue,
    FieldError,
    IndexReport,
    Matrix,
    SemisimplicityReport,
    ShapeError,
    SingularMatrixError,
    Subspace,
    SymmetryError,
    _cleared,
    _eigenvalues,
    _exact_spectrum,
    _int_char_polys,
    _is_invariant,
    _j_times,
    _kernel_exact,
    _require_symmetric,
    _resolve_tol,
    _semisimple_exact,
    _semisimple_float,
    _symmetric_part,
    char_poly,
    complex_spectrum,
    determinant,
    inertia,
    kernel,
    rank,
    restrict_form,
    solve_exact,
    standard_symplectic,
)

__all__ = [
    "Verdict",
    "StabilityClassification",
    "TheoremVerdict",
    "KernelInvarianceResult",
    "EvenIndexConsistency",
    "InvariantSplit",
    "InstabilityCertificate",
    "BlockNormalForm",
    "KernelNotInvariantError",
    "HypothesisFailure",
    "classify",
    "theorem_predict",
    "parity_verdict",
    "kernel_invariance_test",
    "invertible_even_index_check",
    "invariant_split",
    "spectral_instability_certificate",
    "block_normal_form",
]


class Verdict(str, Enum):
    SPECTRALLY_UNSTABLE = "spectrally_unstable"
    SPECTRALLY_STABLE_NOT_LINEAR = "spectrally_stable_not_linear"
    LINEARLY_STABLE = "linearly_stable"
    INDETERMINATE = "indeterminate"


class KernelNotInvariantError(ValueError):
    """Raised when a construction needs a J-invariant kernel and the kernel
    is not J-invariant."""


class HypothesisFailure(ValueError):
    """One or more hypotheses of a certificate failed; see ``failures``."""

    def __init__(self, failures: list[str]):
        self.failures = list(failures)
        super().__init__("hypotheses failed: " + ", ".join(failures))


@dataclass(frozen=True)
class StabilityClassification:
    """A verdict with ``spectrum``, the eigenvalues and multiplicities of
    the matrix it was decided on, as ``complex_spectrum`` lists them; an
    unstable verdict names the entry farthest off the imaginary axis.

    Only the verdict, ``spectrum_on_axis`` and ``semisimple`` are decided
    when it is made.  The eigenvalues are a display of what decided them:
    the exact Yun factors of the characteristic polynomial (``source``, as
    (coefficients, multiplicity); on the float backend the spectrum itself)
    and the semisimplicity ``report`` (None off the axis).  They are
    computed on first read and then kept; equality compares their sources."""

    verdict: Verdict
    spectrum_on_axis: bool
    backend: str
    tol: float
    source: tuple
    report: Optional[SemisimplicityReport]

    def __post_init__(self):
        v = self.verdict
        if v == Verdict.SPECTRALLY_UNSTABLE and self.spectrum_on_axis:
            raise ValueError("unstable verdict with spectrum on the axis")
        if v != Verdict.SPECTRALLY_UNSTABLE and not self.spectrum_on_axis:
            raise ValueError("non-unstable verdict with spectrum off the axis")
        if v == Verdict.LINEARLY_STABLE and self.semisimple is not True:
            raise ValueError("linear stability requires semisimplicity")
        if v == Verdict.SPECTRALLY_STABLE_NOT_LINEAR and self.semisimple is not False:
            raise ValueError("stable-not-linear requires a defective spectrum")
        if v == Verdict.INDETERMINATE and self.semisimple is not None:
            raise ValueError("indeterminate verdict with a decided semisimplicity")

    @property
    def semisimple(self) -> Optional[bool]:
        return None if self.report is None else self.report.semisimple

    @cached_property
    def spectrum(self) -> tuple[Eigenvalue, ...]:
        return _exact_spectrum(self.source) if self.backend == RATIONAL else self.source

    @cached_property
    def offending_eigenvalue(self) -> Optional[complex]:
        return None if self.spectrum_on_axis else _off_axis_witness(self.spectrum, self.tol)

    @cached_property
    def defective_eigenvalue(self) -> Optional[complex]:
        defective = () if self.report is None else self.report.defective_eigenvalues
        return defective[0] if defective else None


@dataclass(frozen=True)
class TheoremVerdict:
    """Parity-based instability prediction from the inertia of B."""

    morse_index: int
    nullity: int
    predicts_instability: bool
    reason: str  # "odd_index" | "odd_nullity" | "none"

    def __post_init__(self):
        expected = self.morse_index % 2 == 1 or self.nullity % 2 == 1
        if self.predicts_instability != expected:
            raise ValueError("prediction inconsistent with the stated parities")


@dataclass(frozen=True)
class KernelInvarianceResult:
    j_invariant: bool
    kernel: Subspace
    # w with J B w != 0 and (J B)^2 w = 0 when J B is not semisimple at 0,
    # else None; a kernel that is not J-invariant can still have none
    witness: Optional[tuple]


@dataclass(frozen=True)
class EvenIndexConsistency:
    morse_index: int
    index_odd: bool
    classification: StabilityClassification
    det_product_positive: bool  # sign of det(Omega B)
    consistent: bool


@dataclass(frozen=True)
class InvariantSplit:
    kernel: Subspace
    complement: Subspace
    restricted_form: Matrix


@dataclass(frozen=True)
class InstabilityCertificate:
    conclusion: str  # "spectrally_unstable" | "no_conclusion"
    subspace: Subspace
    restricted_index: IndexReport
    hypotheses: dict


@dataclass(frozen=True)
class BlockNormalForm:
    kind: str  # "zero" | "nilpotent_jordan" | "imaginary_pair" | "real_pair"
    eigenvalues: tuple[complex, complex]
    eigenvalue_squared: object  # -b_k * b_{n+k}, exact for rational input
    exact_magnitude: Optional[Fraction]
    matrix: Matrix


def _omega_b(b: Matrix, omega: Optional[Matrix], tol: Optional[float]) -> Matrix:
    """Omega B (J B by default) for an invertible skew Omega of the shape of
    B; a float Omega must be finite and enters as (Omega - Omega^T) / 2."""
    if omega is None:
        if b.field == RATIONAL:
            return _j_times(b)
        return standard_symplectic(b.n_rows // 2, FLOAT64) @ b
    if omega.shape != b.shape:
        raise ShapeError("B and Omega must have the same shape")
    if omega.field == FLOAT64:
        omega = Matrix._from_array(_symmetric_part(omega, tol, -1))
    elif not omega.is_skew_symmetric():
        raise SymmetryError("matrix is not exactly skew-symmetric")
    if rank(omega, tol) < b.n_rows:
        raise SingularMatrixError("skew form is degenerate")
    return omega @ b


def _require_even_symmetric(b: Matrix, tol: Optional[float]) -> Matrix:
    if not b.is_square or b.n_rows % 2 != 0:
        raise ShapeError("Hamiltonian stability needs an even-dimensional symmetric matrix")
    return _require_symmetric(b, tol)


def _axis_factors(p: list[Fraction]) -> list[tuple[list[int], int, int, list]]:
    """The Yun factors g of r, where p(x) = r(x^2) is the characteristic
    polynomial of J B, each as (g, multiplicity, distinct roots of g in
    (-inf, 0], Sturm chain of g), with g in the normal form of
    ``rational_poly``.  The chain that counts the roots also isolates them
    on a Krein path."""
    r, is_even = rp.even_part(rp.cleared(p))
    if not is_even:
        raise AssertionError("characteristic polynomial of J B must be even")
    return [(g, m, rp._count(chain, None, 0), chain) for g, m, chain in rp._yun_chains(r)]


def _even_yun(factors: list[tuple[list[int], int, int, list]]) -> list[tuple[list[int], int]]:
    """The Yun factors of p(x) = r(x^2), as ``rp.squarefree_decomposition(p)``
    lists them, from the ``_axis_factors`` of r.

    A Yun factor g of r with multiplicity m gives g(x^2), square-free when
    g(0) != 0, to the factor of p of multiplicity m.  When g(0) = 0, g = x h
    gives h(x^2) to multiplicity m and x to multiplicity 2m.  Distinct g are
    coprime, so each Yun factor of p is the product of what it is given.
    g(x^2), h(x^2) and x are in normal form when g is, and so are their
    products (Gauss's lemma); Yun factors in normal form are unique, so
    these are the same exact coefficients."""
    parts: dict[int, list[int]] = {}
    for g, m, _, _ in factors:
        g_sq = [0] * (2 * len(g) - 1)
        g_sq[::2] = g
        if g[0] == 0:
            parts[2 * m] = rp.mul(parts.get(2 * m, [1]), [0, 1])
            g_sq = g_sq[2:]
        if len(g_sq) > 1:
            parts[m] = rp.mul(parts.get(m, [1]), g_sq)
    return [(parts[i], i) for i in sorted(parts)]


def _off_axis_witness(spectrum: tuple[Eigenvalue, ...], tol: float) -> Optional[complex]:
    worst = None
    for ev in spectrum:
        if abs(ev.value.real) > tol:
            if worst is None or abs(ev.value.real) > abs(worst.real):
                worst = ev.value
    return worst


def _classify(b: Matrix, omega: Optional[Matrix], tol: Optional[float], factors=None):
    """``classify``, returning also the ``_axis_factors`` of the exact
    characteristic polynomial p of Omega B, or on the float backend the
    eigenvalues of Omega B; a caller that has checked an exact B and has
    these factors passes them.

    A float Omega B takes ``eigvals`` once (``_eigenvalues``): their
    clusters are the spectrum, which the verdict and the semisimplicity
    test (``_semisimple_float``) read.

    p is computed and decomposed once per call, on one residue stack with
    the characteristic polynomial of B, which B keeps in its memo for the
    ``inertia(b)`` that a caller takes next.  The verdict reads only exact
    counts: the axis test those of the factors of r, and semisimplicity the
    Yun factors of p, which come from those of r (``_even_yun``), as does
    the square-free part s of p, their product.  Exact semisimplicity needs
    no matrix work when p is square-free (deg s = deg p); otherwise it is
    s(Omega B) = 0, decided modulo primes (``_semisimple_exact``).  The
    classification keeps the Yun factors of p and the semisimplicity
    report, and builds its float display from them only when it is read:
    ``np.roots`` and a Newton polish per factor for the spectrum, and for a
    defective Omega B ``minimal_poly`` (Krylov sequences modulo primes),
    whose m / s = gcd(m, m') has the defective eigenvalues as its roots."""
    if factors is None:
        b = _require_even_symmetric(b, tol)
    ob = _omega_b(b, omega, tol)
    if b.field == RATIONAL:
        t = 0.0
        if factors is None:
            _int_char_polys([ob, b])
            factors = _axis_factors(char_poly(ob))
        yun = _even_yun(factors)
        source = tuple((tuple(g), m) for g, m in yun)
        on_axis = all(c == rp.degree(g) for g, _, c, _ in factors)
    else:
        t = _resolve_tol(tol, ob.max_abs)
        source = complex_spectrum(ob, tol=t)
        factors = _eigenvalues(ob)
        on_axis = _off_axis_witness(source, t) is None
    if not on_axis:
        return StabilityClassification(Verdict.SPECTRALLY_UNSTABLE, False, b.field, t, source,
                                       None), factors
    if b.field == RATIONAL:
        ss = _semisimple_exact(ob, *(f for f, _ in yun))
    else:
        ss = _semisimple_float(ob._arr, source, t)
    if ss.semisimple is None:
        verdict = Verdict.INDETERMINATE
    elif ss.semisimple:
        verdict = Verdict.LINEARLY_STABLE
    else:
        verdict = Verdict.SPECTRALLY_STABLE_NOT_LINEAR
    return StabilityClassification(verdict, True, b.field, t, source, ss), factors


def classify(b: Matrix, omega: Optional[Matrix] = None,
             tol: Optional[float] = None) -> StabilityClassification:
    """Spectral and linear stability of Omega B (Omega defaults to J).

    The verdict and the returned ``spectrum`` both come from Omega B itself.
    Exact backend: zero-tolerance decisions through the per-factor counts
    of the module docstring.  Float backend: eigenvalues of Omega B against
    a tolerance; an undecidable semisimplicity test yields the
    indeterminate verdict rather than a guess.
    """
    return _classify(b, omega, tol)[0]


def parity_verdict(morse_index: int, nullity: int) -> TheoremVerdict:
    """Parity rule on a precomputed index pair."""
    if morse_index % 2 == 1:
        return TheoremVerdict(morse_index, nullity, True, "odd_index")
    if nullity % 2 == 1:
        return TheoremVerdict(morse_index, nullity, True, "odd_nullity")
    return TheoremVerdict(morse_index, nullity, False, "none")


def theorem_predict(b: Matrix, tol: Optional[float] = None) -> TheoremVerdict:
    """Predict linear instability of J B from the inertia of B alone:
    an odd Morse index or an odd nullity rules out linear stability."""
    ir = inertia(b, tol=tol)
    return parity_verdict(ir.morse_index, ir.nullity)


def kernel_invariance_test(b: Matrix) -> KernelInvarianceResult:
    """Exact test whether ker(B) is J-invariant, with a Jordan chain of J B
    at 0 when one exists.

    Write V = ker(B) = ker(J B).  A chain w -> x = J B w -> 0 needs x != 0 in
    V and in range(J B) = J V^perp, and x lies in J V^perp exactly when
    x^T J v = 0 for every v in V.  So J B is semisimple at 0 exactly when
    the form omega(x, y) = x^T J y is nondegenerate on V.  A J-invariant V
    is nondegenerate (x^T J (J x) = -|x|^2) and of even dimension, which is
    asserted; a V that is not J-invariant can be nondegenerate too, and then
    the witness is None.  Otherwise x is taken from the radical of omega on
    V, the null space of the Gram matrix V^T J V, and the witness w solves
    B w = -J x, so that J B w = x != 0 and (J B)^2 w = 0.
    """
    if b.field != RATIONAL:
        raise FieldError("kernel_invariance_test is exact-backend only")
    b = _require_even_symmetric(b, None)
    j = standard_symplectic(b.n_rows // 2)
    v = kernel(b)
    if _is_invariant(j, v):
        if v.dimension % 2 != 0:
            raise AssertionError("J-invariant kernel with odd dimension")
        return KernelInvarianceResult(True, v, None)
    basis = Matrix(list(zip(*v.basis)), RATIONAL)
    radical = _kernel_exact((basis.T @ j @ basis)._ints[0], v.dimension)
    if not radical:
        return KernelInvarianceResult(False, v, None)
    x = basis.matvec(radical[0])
    # (-J x)^T v = x^T J v = 0 on V: -J x lies in V^perp = range(B)
    w = solve_exact(b.to_lists(), [-c for c in j.matvec(x)])
    jbw = j.matvec(b.matvec(w))
    if jbw != x or any(j.matvec(b.matvec(jbw))):
        raise AssertionError("constructed witness violates the Jordan relations")
    return KernelInvarianceResult(False, v, tuple(w))


def invertible_even_index_check(b: Matrix, omega: Optional[Matrix] = None,
                                tol: Optional[float] = None) -> EvenIndexConsistency:
    """For invertible B: an odd Morse index forces spectral instability of
    Omega B.  Returns both sides of the implication, plus the sign of
    det(Omega B), which is positive exactly when the index is even."""
    b_sym = _require_even_symmetric(b, tol)
    if rank(b_sym, tol) != b_sym.n_rows:
        raise SingularMatrixError("invertible_even_index_check needs invertible B")
    ir = inertia(b_sym, tol=tol)
    cls = classify(b, omega=omega, tol=tol)
    n = b.n_rows // 2
    om = omega if omega is not None else standard_symplectic(n, b.field)
    det_prod = determinant(om) * determinant(b_sym)
    index_odd = ir.morse_index % 2 == 1
    consistent = (not index_odd) or cls.verdict == Verdict.SPECTRALLY_UNSTABLE
    return EvenIndexConsistency(
        morse_index=ir.morse_index,
        index_odd=index_odd,
        classification=cls,
        det_product_positive=bool(det_prod > 0),
        consistent=consistent,
    )


def invariant_split(b: Matrix) -> InvariantSplit:
    """Split R^2n = ker(B) + W with W the Euclidean complement, valid when
    ker(B) is J-invariant; W is then J- and B-invariant and B restricts to an
    isomorphism of W.  Returns the kernel, the complement and the restricted
    form on W."""
    result = kernel_invariance_test(b)
    if not result.j_invariant:
        raise KernelNotInvariantError(
            "kernel is not J-invariant, so neither is its Euclidean complement")
    two_n = b.n_rows
    v = result.kernel
    comp_basis = tuple(tuple(w) for w in _kernel_exact(_cleared(v.basis)[0], two_n))
    comp = Subspace(two_n, comp_basis)
    if not _is_invariant(standard_symplectic(two_n // 2), comp):
        raise AssertionError("complement of a J-invariant kernel must be J-invariant")
    if not _is_invariant(b, comp):
        raise AssertionError("complement must be B-invariant for symmetric B")
    restricted = restrict_form(b, comp)
    if rank(restricted) != comp.dimension:
        raise AssertionError("B must restrict to an isomorphism of the complement")
    return InvariantSplit(v, comp, restricted)


def spectral_instability_certificate(b: Matrix,
                                     w: Optional[Subspace] = None) -> InstabilityCertificate:
    """Sufficient condition for spectral instability of J B: a subspace W
    that is J-invariant, B-invariant and on which B is an isomorphism, with
    odd restricted Morse index.  W defaults to the complement produced by
    ``invariant_split``."""
    if b.field != RATIONAL:
        raise FieldError("spectral_instability_certificate is exact-backend only")
    b = _require_even_symmetric(b, None)
    if w is None:
        w = invariant_split(b).complement
    # restrict_form refuses a W of another ambient dimension or an inexact basis
    restricted = restrict_form(b, w)
    failures = []
    if not _is_invariant(standard_symplectic(b.n_rows // 2), w):
        failures.append("not J-invariant")
    if not _is_invariant(b, w):
        failures.append("not B-invariant")
    if rank(restricted) != w.dimension:
        failures.append("B is not an isomorphism on W")
    if failures:
        raise HypothesisFailure(failures)
    ir = inertia(restricted)
    conclusion = "spectrally_unstable" if ir.morse_index % 2 == 1 else "no_conclusion"
    return InstabilityCertificate(
        conclusion=conclusion,
        subspace=w,
        restricted_index=ir,
        hypotheses={"j_invariant": True, "b_invariant": True, "isomorphism": True},
    )


def _fraction_sqrt(q: Fraction) -> Optional[Fraction]:
    """The rational square root of q, or None when q has none."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def block_normal_form(b_k, b_nk) -> BlockNormalForm:
    """Classify the 2x2 Hamiltonian block [[0, -b_{n+k}], [b_k, 0]] coming
    from a diagonal B paired by J.

    The eigenvalues are the two square roots of -b_k * b_{n+k}: a vanishing
    product with a nonzero entry gives a nilpotent Jordan block, a positive
    product a purely imaginary pair, a negative product a real pair.
    """
    exact = not (isinstance(b_k, float) or isinstance(b_nk, float))
    if exact:
        b_k = Fraction(b_k)
        b_nk = Fraction(b_nk)
        field = RATIONAL
    else:
        b_k = float(b_k)
        b_nk = float(b_nk)
        field = FLOAT64
    product = b_k * b_nk
    lam_sq = -product
    mat = Matrix([[0, -b_nk], [b_k, 0]], field)
    exact_mag = _fraction_sqrt(abs(lam_sq)) if exact else None
    mag = float(exact_mag) if exact_mag is not None else float(abs(lam_sq)) ** 0.5
    if b_k == 0 and b_nk == 0:
        return BlockNormalForm("zero", (0j, 0j), lam_sq, Fraction(0) if exact else None, mat)
    if product == 0:
        return BlockNormalForm(
            "nilpotent_jordan", (0j, 0j), lam_sq, Fraction(0) if exact else None, mat)
    if product > 0:
        lams = (complex(0.0, mag), complex(0.0, -mag))
        return BlockNormalForm("imaginary_pair", lams, lam_sq, exact_mag, mat)
    lams = (complex(mag, 0.0), complex(-mag, 0.0))
    return BlockNormalForm("real_pair", lams, lam_sq, exact_mag, mat)
