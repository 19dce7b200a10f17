"""Dense linear algebra over two backends: exact rationals and binary64.

One storage per field; ``Fraction``s only on read.  An exact matrix is its
cleared integers, integer rows M and d > 0 with A = M / d in lowest terms,
and never degrades to floats, so inertia, kernels, characteristic
polynomials and semisimplicity tests are decision procedures.  A float
matrix is one float64 array, and the float backend wraps numpy with a
single tolerance convention: rank and eigenvalue-cluster decisions
default to ``tol = 1e-8 * (1 + max_abs(A))`` and are overridable per call by
a finite tol >= 0.

Conventions used throughout the package:

* the standard symplectic matrix is J = [[0, -I], [I, 0]];
* inertia of a symmetric matrix is the triple (morse_index, nullity,
  coindex), i.e. the counts of negative, zero and positive eigenvalues;
* subspaces are stored as tuples of basis column vectors.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import accumulate
from operator import mul
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import rational_poly as rp

__all__ = [
    "RATIONAL",
    "FLOAT64",
    "Matrix",
    "Subspace",
    "IndexReport",
    "Eigenvalue",
    "SemisimplicityReport",
    "ShapeError",
    "FieldError",
    "SymmetryError",
    "SingularMatrixError",
    "IndeterminateError",
    "default_tolerance",
    "inertia",
    "kernel",
    "rank",
    "determinant",
    "char_poly",
    "minimal_poly",
    "complex_spectrum",
    "is_semisimple",
    "restrict_form",
    "standard_symplectic",
    "solve_exact",
]

RATIONAL = "rational"
FLOAT64 = "float64"

Scalar = Union[Fraction, float]


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class FieldError(ValueError):
    """Operands live over different or unsupported fields."""


class SymmetryError(ValueError):
    """A matrix required to be (skew-)symmetric is not."""


class SingularMatrixError(ValueError):
    """An invertibility precondition failed."""


class IndeterminateError(RuntimeError):
    """A float-backend decision fell inside the tolerance band."""


def default_tolerance(max_abs: float) -> float:
    return 1e-8 * (1.0 + float(max_abs))


def _resolve_tol(tol: Optional[float], max_abs: Callable[[], float]) -> float:
    """The tolerance of a float decision: ``tol`` when the caller gives one,
    which must be a finite number >= 0 and not a bool, else
    ``default_tolerance(max_abs())``."""
    if tol is None:
        return default_tolerance(max_abs())
    if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and 0 <= tol < math.inf):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    return tol


def _coerce_rational(x):
    if type(x) is Fraction or type(x) is int:
        return x
    if isinstance(x, float):
        raise FieldError("float entry in a rational matrix; use the float64 field")
    return Fraction(x)


class Matrix:
    """Immutable dense matrix over the rational or float64 field: one
    storage per field, and ``Fraction``s only on read.

    An exact matrix A is its cleared integers (``_ints``): integer rows M
    and d > 0 with A = M / d, gcd(content M, d) = 1.  Its arithmetic,
    products, transposes, equality and hashing work on M, and so do
    ``matvec`` and ``to_numpy``; ``__init__`` clears its entries once
    (ints, strings and other rationals; a float raises ``FieldError``).
    A float matrix holds one read-only C-contiguous float64 array
    (``_arr``), which ``from_numpy`` copies in and ``to_numpy`` copies
    out.  The tuple rows of ``rows()``, ``[i, j]`` and ``to_lists``, and
    of ``matvec`` on a float matrix, are built when first read.  A matrix
    memoizes, outside equality and hashing, the characteristic polynomial
    of M (``_int_char_polys``) or its float eigenvalues (``_eigenvalues``).
    Every matrix stores its shape, so a 0 x n or n x 0 matrix keeps it
    through ``T`` and products.
    """

    __slots__ = ("_data", "field", "shape", "_ints", "_char", "_arr")

    def __init__(self, rows: Sequence[Sequence], field: str):
        if field not in (RATIONAL, FLOAT64):
            raise FieldError(f"unknown field {field!r}")
        coerce = _coerce_rational if field == RATIONAL else float
        data = tuple(tuple(map(coerce, row)) for row in rows)
        shape = (len(data), len(data[0]) if data else 0)
        if any(len(r) != shape[1] for r in data):
            raise ShapeError("ragged rows")
        if field == RATIONAL:
            return self._set(field, _cleared(data), None, shape)
        arr = np.array(data, dtype=float).reshape(shape)
        arr.flags.writeable = False
        self._set(field, None, arr, shape)

    def _set(self, field: str, ints, arr, shape) -> None:
        for name, value in (("field", field), ("_data", None), ("_ints", ints),
                            ("_char", None), ("_arr", arr), ("shape", shape)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _from_cleared(cls, ints: list[list[int]], d: int,
                      n_cols: Optional[int] = None) -> "Matrix":
        """The exact matrix M / d for integer rows M and d > 0, stored as
        (M, d) reduced to lowest terms; ``n_cols`` is needed only when M has
        no rows.  Callers must not modify M afterwards."""
        g = math.gcd(d, *(x for row in ints for x in row)) if d > 1 else 1
        if g > 1:
            ints, d = [[x // g for x in row] for row in ints], d // g
        a = object.__new__(cls)
        shape = (len(ints), len(ints[0]) if ints else n_cols or 0)
        a._set(RATIONAL, (ints, d), None, shape)
        return a

    @classmethod
    def _from_array(cls, arr: np.ndarray) -> "Matrix":
        """The float matrix of a 2-d float64 array the caller gives up: it
        is kept (made C-contiguous and read-only), not copied."""
        a = object.__new__(cls)
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        a._set(FLOAT64, None, arr, arr.shape)
        return a

    # -- constructors -------------------------------------------------

    @classmethod
    def from_numpy(cls, arr) -> "Matrix":
        a = np.array(arr, dtype=float)
        if a.ndim != 2:
            raise ShapeError("a matrix needs a 2-d array")
        return cls._from_array(a)

    @classmethod
    def identity(cls, n: int, field: str = RATIONAL) -> "Matrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)], field)

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int, field: str = RATIONAL) -> "Matrix":
        if field == FLOAT64:
            return cls._from_array(np.zeros((n_rows, n_cols)))
        if field != RATIONAL:
            raise FieldError(f"unknown field {field!r}")
        return cls._from_cleared([[0] * n_cols for _ in range(n_rows)], 1, n_cols)

    @classmethod
    def diagonal(cls, entries, field: str = RATIONAL) -> "Matrix":
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)], field)

    # -- basic queries ------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self.rows()[i][j]

    def rows(self) -> tuple:
        """The tuple rows, of ``Fraction``s or Python floats, built on first
        read and kept."""
        if self._data is None:
            if self._arr is not None:
                rows = tuple(map(tuple, self._arr.tolist()))
            else:
                ints, d = self._ints
                rows = tuple(tuple(Fraction(x, d) for x in r) for r in ints)
            object.__setattr__(self, "_data", rows)
        return self._data

    def to_lists(self) -> list[list]:
        return [list(r) for r in self.rows()]

    def to_numpy(self) -> np.ndarray:
        """The float64 array; an exact entry is M_ij / d, Python's correctly
        rounded int division, which is float(Fraction(M_ij, d))."""
        if self._arr is not None:
            return self._arr.copy()
        m, d = self._ints
        return np.array([[x / d for x in row] for row in m], dtype=float).reshape(self.shape)

    def max_abs(self) -> float:
        if self._arr is not None:
            return float(np.max(np.abs(self._arr), initial=0.0))
        m, d = self._ints
        return max((abs(x) for row in m for x in row), default=0) / d

    # -- algebra ------------------------------------------------------

    def _check_same_field(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldError("mixed-field matrix operation")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.shape != other.shape:
            raise ShapeError("shape mismatch in addition")
        if self._arr is not None:
            return Matrix._from_array(self._arr + other._arr)
        (a, da), (b, db) = self._ints, other._ints
        return Matrix._from_cleared([[db * x + da * y for x, y in zip(r1, r2)]
                                     for r1, r2 in zip(a, b)], da * db, self.n_cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return self * -1

    def __mul__(self, c) -> "Matrix":
        if self._arr is not None:
            return Matrix._from_array(float(c) * self._arr)
        c = _coerce_rational(c)
        a, d = self._ints
        return Matrix._from_cleared([[c.numerator * x for x in row] for row in a],
                                    c.denominator * d, self.n_cols)

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Matrix product.

        Over the rationals, with A = M / da and B = N / db, the dot products
        are taken on the integers: A B = M N / (da db), in lowest terms."""
        self._check_same_field(other)
        if self.n_cols != other.n_rows:
            raise ShapeError("shape mismatch in product")
        if self.field == FLOAT64:
            return Matrix._from_array(self._arr @ other._arr)
        (a, da), (b, db) = self._ints, other._ints
        cols = list(zip(*b)) if b else [()] * other.n_cols
        return Matrix._from_cleared([[sum(map(mul, row, col)) for col in cols] for row in a],
                                    da * db, other.n_cols)

    def matvec(self, v: Sequence) -> list:
        """A v as a list; exactly, (M w)_i / (d e) with v = w / e cleared."""
        coerce = float if self._arr is not None else _coerce_rational
        vec = [coerce(x) for x in v]
        if len(vec) != self.n_cols:
            raise ShapeError("vector length mismatch")
        if self._arr is not None:
            return [sum((a * b for a, b in zip(row, vec)), 0.0) for row in self.rows()]
        (m, d), ((w,), e) = self._ints, _cleared([vec])
        return [Fraction(sum(map(mul, row, w)), d * e) for row in m]

    @property
    def T(self) -> "Matrix":
        if self._arr is not None:
            return Matrix._from_array(self._arr.T)
        ints, d = self._ints
        n_rows, n_cols = self.shape
        return Matrix._from_cleared([[r[j] for r in ints] for j in range(n_cols)], d, n_rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix) or (self.field, self.shape) != (other.field, other.shape):
            return False
        return self._ints == other._ints if self._arr is None else self.rows() == other.rows()

    def __hash__(self):
        m, d = self._ints or (self.rows(), None)
        return hash((self.field, tuple(map(tuple, m)), d))

    def __repr__(self) -> str:
        return f"Matrix({self.n_rows}x{self.n_cols}, {self.field})"

    def is_symmetric(self, tol: Optional[float] = None) -> bool:
        """A = A^T, exactly when ``_require_symmetric`` accepts A: exact over
        the rationals; over floats every entry finite, |A - A^T| <= tol
        entrywise (default: 1e-8 (1 + max |A_ij|)) and (A + A^T) / 2 finite."""
        return self._is_symmetric(1, tol)

    def is_skew_symmetric(self, tol: Optional[float] = None) -> bool:
        """A = -A^T, with the tolerance and finiteness of ``is_symmetric``."""
        return self._is_symmetric(-1, tol)

    def _is_symmetric(self, sign: int, tol: Optional[float]) -> bool:
        """Whether ``_require_symmetric`` accepts A with this sign and tol."""
        try:
            _require_symmetric(self, tol, sign)
        except (ShapeError, SymmetryError):
            return False
        return True


def _j_times(b: Matrix) -> Matrix:
    """J B = [-B_lower; B_upper] for B with an even number of rows: for an
    exact B by a row swap of its cleared integer rows."""
    if b.field == FLOAT64:
        return standard_symplectic(b.n_rows // 2, FLOAT64) @ b
    ints, d = b._ints
    n = len(ints) // 2
    return Matrix._from_cleared([[-x for x in r] for r in ints[n:]] + ints[:n], d, b.n_cols)


@lru_cache(maxsize=64)
def standard_symplectic(n: int, field: str = RATIONAL) -> Matrix:
    """The 2n x 2n matrix J = [[0, -I], [I, 0]], one per (n, field): a
    Matrix is immutable, so it is shared."""
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[i][n + i] = -1
        rows[n + i][i] = 1
    return Matrix(rows, field)


# ---------------------------------------------------------------------------
# subspaces


@dataclass(frozen=True)
class Subspace:
    """A linear subspace given by an independent tuple of basis columns.

    Basis entries may be Fractions (exact), floats, or complex floats; the
    complex case appears in crossing kernels of Hermitian paths.
    """

    ambient_dim: int
    basis: tuple[tuple, ...]

    def __post_init__(self):
        for v in self.basis:
            if len(v) != self.ambient_dim:
                raise ShapeError("basis vector has wrong length")
        if self.is_exact:
            r = len(_bareiss_echelon(_cleared(self.basis)[0])[1])
        else:
            r = int(np.linalg.matrix_rank(self.basis_numpy()))
        if r != len(self.basis):
            raise ValueError("basis vectors are linearly dependent")

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def is_exact(self) -> bool:
        return all(isinstance(x, (Fraction, int)) for v in self.basis for x in v)

    def basis_numpy(self) -> np.ndarray:
        if not self.basis:
            return np.zeros((self.ambient_dim, 0), dtype=complex)
        return np.array(self.basis, dtype=complex).T


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class IndexReport:
    """Inertia of a symmetric form: counts of negative, zero and positive
    eigenvalues on the given subspace dimension."""

    morse_index: int
    nullity: int
    coindex: int

    def __post_init__(self):
        for v in (self.morse_index, self.nullity, self.coindex):
            if v < 0:
                raise ValueError("negative count in an inertia triple")


@dataclass(frozen=True)
class Eigenvalue:
    value: complex
    multiplicity: int


@dataclass(frozen=True)
class SemisimplicityReport:
    """Outcome of a diagonalizability test.

    ``semisimple`` is True/False for a decided answer and None when the float
    backend could not separate a rank decision from its tolerance band.
    ``defective_eigenvalues`` approximates the eigenvalues with a nontrivial
    Jordan block when the answer is False, from ``defect``: the float test
    passes them there, and a defective exact A passes (A, the Yun pairs
    (f, k) of its characteristic polynomial p, the witness (q, w) that s(A)
    != 0 for the square-free part s of p), from which they are computed on
    first read, as the roots of m / s for the minimal polynomial m of A
    (``_semisimple_exact``), and then kept.  Equality compares ``defect``.
    """

    semisimple: Optional[bool]
    backend: str
    tol: float
    defect: tuple = ()

    @cached_property
    def defective_eigenvalues(self) -> tuple[complex, ...]:
        if self.backend == FLOAT64 or self.semisimple:
            return self.defect
        a, yun, (q, w) = self.defect
        g = reduce(rp.mul, (f for f, k in yun for _ in range(k - 1)), [1])  # p / s
        if rp.degree(g) > 1 and _krylov_dependence(a._ints[0], w, q, rp.degree(g)) is not None:
            g = rp.quotient(rp.cleared(minimal_poly(a)), reduce(rp.mul, (f for f, _ in yun), [1]))
        if rp.degree(g) <= 0:
            raise AssertionError("s does not properly divide m although s(A) != 0")
        return tuple(e.value for e in _exact_spectrum([(g, 1)]))


# ---------------------------------------------------------------------------
# exact elimination utilities


def _cleared(rows) -> tuple[list[list[int]], int]:
    """Integer rows M and the least common denominator d with rows = M / d."""
    d = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def _bareiss_echelon(m: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form; returns (pivot rows, pivot columns)."""
    m = [row[:] for row in m]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    piv_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(n_cols):
        pr = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        for i in range(r + 1, n_rows):
            for j in range(c + 1, n_cols):
                q, rem = divmod(m[r][c] * m[i][j] - m[i][c] * m[r][j], prev)
                if rem:
                    raise ArithmeticError("non-exact division in fraction-free elimination")
                m[i][j] = q
            m[i][c] = 0
        prev = m[r][c]
        piv_cols.append(c)
        r += 1
        if r == n_rows:
            break
    return m[:r], piv_cols


def _back_substitute(echelon: list[list[int]], piv_cols: list[int],
                     y: list[Fraction]) -> list[Fraction]:
    """Fill the pivot entries of y, its other entries given, so that every
    echelon row annihilates y."""
    for row, pc in zip(reversed(echelon), reversed(piv_cols)):
        y[pc] = -sum((row[j] * y[j] for j in range(pc + 1, len(y))), Fraction(0)) / row[pc]
    return y


def _kernel_exact(ints: list[list[int]], n_cols: int) -> list[list[Fraction]]:
    """A basis of the null space of integer rows with n_cols columns, one
    vector per free column of their Bareiss echelon form."""
    echelon, piv_cols = _bareiss_echelon(ints)
    return [_back_substitute(echelon, piv_cols, [Fraction(int(j == f)) for j in range(n_cols)])
            for f in range(n_cols) if f not in piv_cols]


def _is_invariant(m: Matrix, w: Subspace) -> bool:
    """Whether an exact subspace W is invariant under an exact square M: the
    basis of W is independent, so W is M-invariant iff rank [W; M W] = dim W.
    Rows may be scaled, so both come from the cleared integer rows of W and
    M, in one elimination."""
    ints = _cleared(w.basis)[0]
    mi = m._ints[0]
    images = [[sum(map(mul, row, v)) for row in mi] for v in ints]
    return len(_bareiss_echelon(ints + images)[1]) == w.dimension


def solve_exact(a_rows: list[list[Fraction]], b: list[Fraction]) -> Optional[list[Fraction]]:
    """One exact solution of A x = b, free variables zero, or None when
    inconsistent: the Bareiss echelon form of [A | b] with x extended by -1.
    Raises ``ShapeError`` on ragged rows or a b with another number of
    entries than A has rows."""
    n_cols = len(a_rows[0]) if a_rows else 0
    if len(b) != len(a_rows) or any(len(row) != n_cols for row in a_rows):
        raise ShapeError("A x = b needs rows of one length and one entry of b per row")
    aug = [[Fraction(x) for x in row] + [Fraction(bi)] for row, bi in zip(a_rows, b)]
    echelon, piv_cols = _bareiss_echelon(_cleared(aug)[0])
    if n_cols in piv_cols:
        return None
    return _back_substitute(echelon, piv_cols, [Fraction(0)] * n_cols + [Fraction(-1)])[:n_cols]


# ---------------------------------------------------------------------------
# inertia


def _require_symmetric(b: Matrix, tol: Optional[float], sign: int = 1) -> Matrix:
    """B = sign B^T (sign = -1: skew-symmetric), the one symmetry rule.  An
    exact B is returned as it is when its cleared integers are sign times
    their transpose.  A float B, read after an explicit tol is checked, must
    be finite with |B - sign B^T| <= tol entrywise (default: 1e-8 (1 + max
    |B_ij|)); it is returned as (B + sign B^T) / 2, refused if that overflows."""
    kind = "skew-symmetric" if sign < 0 else "symmetric"
    if b.field == FLOAT64:
        a = b._arr
        t = _resolve_tol(tol, b.max_abs)
    if not b.is_square:
        raise ShapeError("symmetric operations need a square matrix")
    if b.field == RATIONAL:
        m = b._ints[0]
        cols = map(list, zip(*m)) if sign > 0 else ([-x for x in c] for c in zip(*m))
        if not all(map(list.__eq__, m, cols)):
            raise SymmetryError(f"matrix is not exactly {kind}")
        return b
    if not np.isfinite(a).all():
        raise SymmetryError("matrix has a non-finite entry")
    at = a.T if sign > 0 else -a.T
    with np.errstate(over="ignore"):
        if not np.max(np.abs(a - at), initial=0.0) <= t:
            raise SymmetryError(f"matrix is not {kind} within tolerance")
        s = (a + at) / 2
    if not np.isfinite(s).all():
        raise SymmetryError(f"the {kind} part of the matrix overflows")
    return Matrix._from_array(s)


def _inertia_float(s: np.ndarray, tol: Optional[float]) -> IndexReport:
    """``inertia`` of a real symmetric or complex Hermitian float array,
    counting its eigenvalues against ``tol`` (default: 1e-8 (1 + max
    |s_ij|)); no symmetry check."""
    if s.size == 0:
        return IndexReport(0, 0, 0)
    t = _resolve_tol(tol, lambda: np.max(np.abs(s)))
    w = np.linalg.eigvalsh(s)
    neg = int(np.sum(w < -t))
    zero = int(np.sum(np.abs(w) <= t))
    return IndexReport(morse_index=neg, nullity=zero, coindex=len(w) - neg - zero)


def inertia(b: Matrix, tol: Optional[float] = None) -> IndexReport:
    """Counts of negative, zero and positive eigenvalues of a symmetric matrix.

    Exact over the rationals, by Descartes' rule of signs
    (``rp.root_sign_counts``): the characteristic polynomial of a real
    symmetric matrix has only real roots.  It is taken of the cleared
    integer matrix, whose eigenvalues are those of b times a positive
    denominator.
    Eigenvalue counting with the default tolerance over floats.
    """
    b = _require_symmetric(b, tol)
    if b.field == FLOAT64:
        return _inertia_float(b._arr, tol)
    neg, zero, pos = rp.root_sign_counts(_int_char_polys([b])[0])
    return IndexReport(morse_index=neg, nullity=zero, coindex=pos)


# ---------------------------------------------------------------------------
# kernel and rank


def kernel(a: Matrix, tol: Optional[float] = None) -> Subspace:
    """Basis of the null space; exact fraction-free elimination over the
    rationals, SVD over floats."""
    if a.field == RATIONAL:
        basis = _kernel_exact(a._ints[0], a.n_cols)
        return Subspace(a.n_cols, tuple(tuple(v) for v in basis))
    t = _resolve_tol(tol, a.max_abs)
    arr = a._arr
    if arr.size == 0:
        return Subspace(a.n_cols, tuple(tuple(row) for row in np.eye(a.n_cols)))
    _, s, vh = np.linalg.svd(arr)
    r = int(np.sum(s > t))
    basis = vh[r:].conj()
    return Subspace(a.n_cols, tuple(tuple(float(x) for x in v) for v in basis))


def rank(a: Matrix, tol: Optional[float] = None) -> int:
    if a.field == RATIONAL:
        return len(_bareiss_echelon(a._ints[0])[1])
    t = _resolve_tol(tol, a.max_abs)
    arr = a._arr
    if arr.size == 0:
        return 0
    s = np.linalg.svd(arr, compute_uv=False)
    return int(np.sum(s > t))


def determinant(a: Matrix) -> Scalar:
    if not a.is_square:
        raise ShapeError("determinant of a non-square matrix")
    if a.n_rows == 0:
        return Fraction(1) if a.field == RATIONAL else 1.0
    if a.field == FLOAT64:
        return float(np.linalg.det(a._arr))
    # det A = (-1)^n p(0) / d^n for the characteristic polynomial p of A = M / d
    n, d = a.n_rows, a._ints[1]
    return Fraction((-1) ** n * _int_char_polys([a])[0][0], d ** n)


# ---------------------------------------------------------------------------
# characteristic and minimal polynomials (exact)


_PRIMES: dict[int, list[int]] = {}  # bit size -> the primes found so far, largest first


def _prime_bits(n: int) -> int:
    """Bit size b of the primes for an n x n matrix.  With p < 2^b and
    n < 2^(n.bit_length()), 2 n p^2 < 2^(1 + n.bit_length() + 2b) <= 2^53,
    so a dot product of n residues below p and 2p is an integer below
    2^53, which float64 holds exactly (``_mulmod``)."""
    return (52 - n.bit_length()) // 2


def _is_prime(c: int) -> bool:
    """Miller-Rabin to the bases 2, 3, 5 and 7, deterministic for odd c with
    7 < c < 3,215,031,751, so for every candidate of ``_primes``."""
    s = ((c - 1) & (1 - c)).bit_length() - 1  # c - 1 = d 2^s with d odd
    for a in (2, 3, 5, 7):
        x = pow(a, (c - 1) >> s, c)
        if x != 1 and all(pow(x, 1 << r, c) != c - 1 for r in range(s)):
            return False
    return True


def _primes(bits: int):
    """The primes below 2**bits, largest first, for 4 <= bits <= 31 (the
    range of ``_prime_bits`` holds 16 <= bits <= 25 up to n = 2^20);
    cached per bit size, never capped."""
    cache = _PRIMES.setdefault(bits, [])
    yield from cache
    c = cache[-1] if cache else (1 << bits) + 1
    while True:
        c -= 2
        if _is_prime(c):
            cache.append(c)
            yield c


def _crt_primes(n: int, bound: int) -> list[int]:
    """The primes of ``_primes(_prime_bits(n))``, largest first, taken until
    their product exceeds 2 * bound: an integer of absolute value at most
    ``bound`` is then determined by its residues modulo them, and is zero
    when they all are."""
    primes, modulus = [], 1
    for p in _primes(_prime_bits(n)):
        primes.append(p)
        modulus *= p
        if modulus > 2 * bound:
            break
    return primes


def _residues(m: list, primes: list[int]) -> np.ndarray:
    """The int64 residues of a nested list of integers m (one matrix or a
    stack of them) modulo each prime, stacked along a new first axis."""
    try:
        a, pv = np.array(m, dtype=np.int64), np.array(primes, dtype=np.int64)
    except OverflowError:  # entries beyond int64: reduce them as Python ints
        a, pv = np.array(m, dtype=object), np.array(primes, dtype=object)
    return (a % pv.reshape((-1,) + (1,) * a.ndim)).astype(np.int64)


def _mulmod(a: np.ndarray, b: np.ndarray, pv: np.ndarray) -> np.ndarray:
    """The stacked product a @ b modulo the primes pv (broadcast against
    it), for a float64 residue stack a with entries in [0, p), an int64 or
    float64 one b with entries in [0, 2p), and p below 2^``_prime_bits(n)``.
    Every product of two entries, and every partial sum of n of them, is an
    integer below 2 n p^2 <= 2^53, which float64 holds exactly: the product
    runs as BLAS dgemm, exact in any summation order and on any number of
    threads, and is reduced in int64.  This needs a dgemm that sums the n
    products of each entry, as OpenBLAS, MKL and the reference BLAS do,
    not a Strassen-like scheme with differences of partial products."""
    return (a @ b.astype(np.float64)).astype(np.int64) % pv


def _crt_lift(residues: list[list[int]], primes: list[int]) -> list[int]:
    """The integers with the given residues, one list per prime, in the
    symmetric range of the product of the primes (Garner's CRT)."""
    coeffs, modulus = [0] * len(residues[0]), 1
    for p, r in zip(primes, residues):
        inv = pow(modulus, -1, p)
        coeffs = [c + modulus * ((ri - c) * inv % p) for c, ri in zip(coeffs, r)]
        modulus *= p
    return [c - modulus if 2 * c > modulus else c for c in coeffs]


_SPREAD = 0x9E3779B9  # 2^32 / golden ratio: its powers modulo a prime spread over [0, p)


def _int_poly_at_matrix_witness(c: list[int], m: list[list[int]]
                                ) -> Optional[tuple[int, tuple[int, ...]]]:
    """None when sum c_k M^k = 0 for an integer polynomial c (lowest degree
    first, nonempty) and a nonempty square integer matrix M; otherwise a
    witness (p, w) that it is not: a prime p of ``_prime_bits(n)`` modulo
    which the sum is nonzero, and a vector w != 0 mod p in its column
    space, entries in [0, p): the sum times v = (1, r, ..., r^(n-1)) mod p
    for r = ``_SPREAD``, or when that is 0 mod p its first column that is
    not.  A linear form with small integer coefficients, as the kernels of
    matrices with small entries have, vanishes on v only when p divides
    its value at r, a nonzero integer; so w is as general a vector of the
    column space as a random one, on all but crafted input.

    Every entry of M^k is at most (n max|M_ij|)^k in absolute value, so
    every entry of the sum is at most sum |c_k| (n max|M_ij|)^k; primes are
    taken until their product exceeds twice that bound, and the sum is zero
    exactly when it is zero modulo every one of them (the CRT argument of
    ``_char_poly_int``).  Horner's scheme runs modulo a stack of primes at
    once: first the largest prime alone, which already shows a nonzero sum
    in all but rare cases, then the others.  Each step multiplies residues
    below p by residues below 2p, so its dot products stay below
    2 n p^2 <= 2^53 and run exactly on float64 BLAS (``_mulmod``)."""
    n = len(m)
    big = n * max(abs(x) for row in m for x in row)
    primes = _crt_primes(n, sum(abs(ck) * big ** k for k, ck in enumerate(c)))
    for batch in filter(None, (primes[:1], primes[1:])):
        pv = np.array(batch, dtype=np.int64)[:, None, None]
        mods = _residues(m, batch).astype(np.float64)
        work = np.zeros(mods.shape, dtype=np.int64)
        for coeff in np.array([[ck % p for p in batch] for ck in reversed(c)], dtype=np.int64):
            work = _mulmod(mods, work, pv)
            work.reshape(len(batch), n * n)[:, :: n + 1] += coeff[:, None]  # now below 2p
        for p, r in zip(batch, work % pv):
            if r.any():
                w = r @ np.array([pow(_SPREAD, i, p) for i in range(n)]) % p  # below n p^2
                if not w.any():
                    w = r[:, np.flatnonzero(r.any(axis=0))[0]]
                return p, tuple(w.tolist())
    return None


def _coefficient_bound(ms: list, x: Optional[list], order: int) -> int:
    """A bound on |out[s][j][k]| of ``_char_poly_int`` over the whole stack.

    The coefficient of lambda^(n-k) in det(lambda I - M + mu X) is a signed
    sum of the C(n, k) principal k x k minors of M - mu X.  A minor is
    multilinear in its rows M_r - mu X_r, so its mu^j part is a signed sum
    of C(k, j) determinants, each with j rows of X and k - j rows of M,
    and each at most the product of its row 2-norms (Hadamard), so at most
    the product of the k largest max(|M_r|, |X_r|) (X = M without X).
    Only j <= order is computed, and C(k, j) <= C(k, min(order, k // 2)).
    Each norm is taken as isqrt(sum of squares) + 1."""
    n, bound = len(ms[0]), 1
    weights = [math.comb(n, k) * math.comb(k, min(order, k // 2)) for k in range(1, n + 1)]
    for m in ms:
        sq = [max(sum(map(mul, r, r)), sum(map(mul, y, y))) for r, y in zip(m, x or m)]
        norms = sorted((math.isqrt(a) + 1 for a in sq), reverse=True)
        bound = max(bound, *map(mul, weights, accumulate(norms, mul)))
    return bound


def _power_sum_bound(ms: list, x: Optional[list]) -> int:
    """n F^(n-1) max(F, G) for F, G above the Frobenius norms of the n x n
    integer matrices M of a stack and of X (G = 1 without X): it bounds
    |tr(M^(k-1) Y)| <= ||M^(k-1)||_F ||Y||_F <= sqrt(n) F^(k-1) ||Y||_F for
    Y = M, X and k = 1..n (Cauchy-Schwarz and submultiplicativity, with
    ||I||_F = sqrt(n)).  The all-(-1) M has |tr M^n| = n^n = ||M||_F^n."""
    *norms, g = [math.isqrt(sum(sum(map(mul, r, r)) for r in a)) + 1 for a in ms + [x or []]]
    return len(ms[0]) * max(norms) ** (len(ms[0]) - 1) * max(*norms, g)


def _char_poly_int(ms: list, x: Optional[list] = None,
                   order: int = 0) -> list[list[list[int]]]:
    """For a stack of square integer matrices M of one size n, out[s][j][k]
    is the coefficient of mu^j lambda^k in F(mu) = det(lambda I - M_s +
    mu X) for j <= order; X is an integer matrix, needed when order > 0.
    Products run modulo primes p of ``_prime_bits(n)`` bits, for the whole
    stack and all primes at once, on float64 BLAS (``_mulmod``), and the
    residues are lifted by CRT to the symmetric range.

    order <= 1, by power sums: with s = ceil(sqrt n) and G = M^s, each M^k
    and M^(k-1) X, k <= n, is M^i G^j (X), i < s, j <= n // s.  So s + n // s
    - 2 products give M^0..M^(s-1) and G^0..G^(n//s), one more all G^j X,
    and one stacked product over the rows a all (M^i G^j (X))_aa (Paterson
    and Stockmeyer 1973).  Factors are residues below p, so dot products are
    below n p^2 <= 2^52; each (.)_aa is reduced mod p before the n of them
    are summed in int64, below n p < 2^63 (unreduced, n^2 p^2 passes 2^63
    from n ~ 2^11.5).  Primes cover twice ``_power_sum_bound``, so every tr
    M^k and tr(M^(k-1) X) lifts exactly, and ``_newton`` finishes over Z.

    order >= 2, by Faddeev-LeVerrier over Z_p[mu] / (mu^(order + 1)), with
    primes taken until their product exceeds twice the largest
    ``_coefficient_bound`` and division by k through k^-1 mod p.  N_(k-1),
    the lambda^(n-k) coefficient of adj(lambda I - M + mu X), has mu-degree
    below k, so step k carries its min(k, order + 1) live mu^j parts; one
    stacked product of [M; X] (2n x n) by them gives every M N_j and X N_j,
    and (M - mu X) N_(k-1) has the parts M N_j - X N_(j-1), formed in int64.
    Every factor has entries below p and every N_j + c I entries below 2p,
    so each dot product of length n is below 2 n p^2 <= 2^53."""
    n, size = len(ms[0]), len(ms)
    if n == 0:
        return [[[1]] + [[]] * order for _ in ms]
    if order <= 1:
        s = math.isqrt(n - 1) + 1
        primes = _crt_primes(n, _power_sum_bound(ms, x if order else None))
        pv = np.array(primes, dtype=np.int64).reshape(-1, 1, 1, 1)
        rows = np.empty((len(primes), size, s + 1, n, n))  # M^0..M^s
        rows[:, :, 0], rows[:, :, 1] = np.eye(n), _residues(ms, primes)
        for i in range(2, s + 1):
            rows[:, :, i] = _mulmod(rows[:, :, 1], rows[:, :, i - 1], pv)
        cols = np.empty((len(primes), size, (order + 1) * (n // s + 1), n, n))  # (G^j (X))^T
        cols[:, :, 0], cols[:, :, 1] = np.eye(n), rows[:, :, s].swapaxes(-1, -2)
        for j in range(2, n // s + 1):
            cols[:, :, j] = _mulmod(cols[:, :, 1], cols[:, :, j - 1], pv)
        if order:  # (G^j X)^T = X^T (G^j)^T
            xt = _residues(x, primes).swapaxes(-1, -2).astype(np.float64)[:, None, None]
            cols[:, :, n // s + 1:] = _mulmod(xt, cols[:, :, :n // s + 1], pv[..., None])
        # [prime, matrix, a, j, i] = sum_b (G^j (X))_ba (M^i)_ab
        diag = cols.transpose(0, 1, 3, 2, 4) @ rows[:, :, :s].transpose(0, 1, 3, 4, 2)
        tr = (diag.astype(np.int64) % pv[..., None]).sum(axis=2) % pv  # [.., j, i]: i + s j
        tr = tr.reshape(len(primes), size, order + 1, -1)
        keep = np.concatenate([tr[:, :, j, 1 - j:n + 1 - j] for j in range(order + 1)], axis=2)
        sums, w = _crt_lift(keep.reshape(len(primes), -1).tolist(), primes), (order + 1) * n
        return [_newton(sums[i:i + n], sums[i + n:i + w]) for i in range(0, len(sums), w)]
    primes = _crt_primes(n, _coefficient_bound(ms, x, order))
    p3 = np.array(primes, dtype=np.int64).reshape(-1, 1, 1)
    pv = p3[..., None, None]
    mods = _residues([m + x for m in ms], primes)[:, :, None].astype(np.float64)
    work = np.broadcast_to(np.eye(n, dtype=np.int64), (len(primes), size, 1, n, n))  # N_0 = I
    res = np.zeros((len(primes), size, order + 1, n + 1), dtype=np.int64)
    res[:, :, 0, n] = 1
    neg_inv = np.array([[-pow(k, -1, p) % p for p in primes] for k in range(1, n + 1)],
                       dtype=np.int64)[:, :, None, None]
    for k in range(1, n + 1):
        top = min(k + 1, order + 1)
        prod = (mods @ work.astype(np.float64)).astype(np.int64)
        work = np.zeros((len(primes), size, top, n, n), dtype=np.int64)
        work[:, :, :prod.shape[2]] = prod[..., :n, :]
        work[:, :, 1:] -= prod[:, :, :top - 1, n:]
        work %= pv
        # c_(n-k) = -tr((M - mu X) N_(k-1)) / k, the trace below n p and -1/k mod p below p
        res[..., :top, n - k] = np.trace(work, axis1=3, axis2=4) * neg_inv[k - 1] % p3
        work.reshape(len(primes), size, top, n * n)[..., :: n + 1] += res[..., :top, n - k, None]
    coeffs = _crt_lift(res.reshape(len(primes), -1).tolist(), primes)
    return [[coeffs[i:i + n + 1] for i in range(s, s + (order + 1) * (n + 1), n + 1)]
            for s in range(0, len(coeffs), (order + 1) * (n + 1))]


def _newton(p: list[int], q: list[int]) -> list[list[int]]:
    """det(lambda I - M + mu X) mod mu^2 as ``_char_poly_int`` gives it (mu^0
    alone when q is empty) from p_k = tr M^k and q_k = tr(M^(k-1) X), k =
    1..n: Newton's identities k c_(n-k) = -sum_(i<k) c_(n-i) P_(k-i) over
    Z[mu] / (mu^2), P_k = p_k - mu k q_k, each division by k exact."""
    r = [-k * v for k, v in enumerate(q, 1)]
    a, b = [1], [0]  # the mu^0 and mu^1 parts of c_n, c_(n-1), ...
    for k in range(1, len(p) + 1):
        pk = p[k - 1::-1]
        sums = [sum(map(mul, a, pk))]
        if q:
            sums.append(sum(map(mul, a, r[k - 1::-1])) + sum(map(mul, b, pk)))
        for out, v in zip((a, b), sums):
            c, rem = divmod(-v, k)
            if rem:
                raise ArithmeticError("a power sum lifted outside its bound")
            out.append(c)
    return [a[::-1], b[::-1]][:1 + bool(q)]


def _int_char_polys(mats: list[Matrix]) -> list[list[int]]:
    """The characteristic polynomials of the cleared integer rows of exact
    square matrices of one size, lowest degree first, kept in each matrix's
    memo; the ones not yet known come from one ``_char_poly_int`` stack."""
    todo = [a for a in mats if a._char is None]
    if todo:
        polys = _char_poly_int([a._ints[0] for a in todo])
        for a, (c,) in zip(todo, polys):
            object.__setattr__(a, "_char", c)
    return [a._char for a in mats]


def char_poly(a: Matrix) -> list[Fraction]:
    """Monic characteristic polynomial det(xI - A), exact, lowest degree
    first.  Requires the rational field.  With A = M / d for the cleared
    integer matrix M, det(xI - A) = d^-n det((d x) I - M)."""
    if a.field != RATIONAL:
        raise FieldError("char_poly is exact-backend only")
    if not a.is_square:
        raise ShapeError("characteristic polynomial of a non-square matrix")
    n, d = a.n_rows, a._ints[1]
    c = _int_char_polys([a])[0]
    # det(xI - A) = d^-n * det((dx)I - dA)
    return [Fraction(c[k], d ** (n - k)) for k in range(n + 1)]


def _poly_times_vector(c: list[int], m: list[list[int]], v: list[int]) -> list[int]:
    """c(M) v by Horner's scheme, for an integer polynomial c (lowest degree
    first, nonempty), a square integer matrix M and an integer vector v."""
    w = [c[-1] * x for x in v]
    for ck in reversed(c[:-1]):
        w = [sum(map(mul, row, w)) + ck * x for row, x in zip(m, v)]
    return w


def _krylov_dependence(m: list[list[int]], w: list[int], p: int,
                       k: int) -> Optional[list[int]]:
    """The first dependence among w, M w, ..., M^(k-1) w modulo a prime p of
    ``_prime_bits(n)``, for a square integer matrix M, an integer vector w
    and 1 <= k <= n: the monic x^c - sum_i a_i x^i with
    M^c w = sum_i a_i M^i w mod p, lowest degree first with coefficients in
    [0, p), or None when the k vectors are independent modulo p.

    Each vector is one ``_mulmod`` of M mod p by the last one.  Gauss-Jordan
    elimination modulo p then takes the columns [w, M w, ...] in order, in
    int64 with every product below p^2: the columns 0..c-1 have pivots in
    the rows 0..c-1 and are unit columns, so the first column c without a
    pivot holds a_0..a_(c-1) in them."""
    mods = _residues(m, [p])[0].astype(np.float64)
    a = np.empty((len(m), k), dtype=np.int64)
    a[:, 0] = _residues(w, [p])[0]
    for j in range(1, k):
        a[:, j] = _mulmod(mods, a[:, j - 1], p)
    for c in range(k):
        nonzero = np.flatnonzero(a[c:, c])
        if not nonzero.size:
            return [-x % p for x in a[:c, c].tolist()] + [1]
        r = c + int(nonzero[0])
        if r != c:
            a[[c, r]] = a[[r, c]]
        a[c, c:] = a[c, c:] * pow(int(a[c, c]), -1, p) % p
        col = a[:, c].copy()
        col[c] = 0
        a[:, c:] = (a[:, c:] - np.outer(col, a[c, c:])) % p
    return None


def _vector_min_poly(m: list[list[int]], w: list[int], f: list[int]) -> list[int]:
    """The minimal polynomial mu_w of a nonzero integer vector w under a
    square integer matrix M, monic with integer coefficients, lowest degree
    first, given a monic integer multiple f of it.

    mu_w mod p annihilates w mod p, so the first dependence mu_(w,p) of
    w, M w, ... modulo a prime p divides it: deg mu_(w,p) <= deg mu_w.
    Degree proof: when w, ..., M^(k-1) w are independent modulo a prime,
    k = deg f, then deg mu_w >= k, so mu_w = f.  Otherwise mu_w is lifted.
    Every coefficient of a monic degree-j divisor of f is at most
    C(j, i) ||f||_2 (Landau-Mignotte), so primes, largest first, whose
    mu_(w,p) share the highest degree j seen are taken until their product
    exceeds twice C(j, j // 2) (isqrt(||f||_2^2) + 1); a prime of lower
    degree is skipped.  The CRT lift g is checked exactly: if g(M) w = 0,
    mu_w divides g, which has degree j <= deg mu_w, so g = mu_w.  If not,
    every prime kept was unlucky (j < deg mu_w) and more primes are taken."""
    k = len(f) - 1
    norm = math.isqrt(sum(c * c for c in f)) + 1
    kept: dict[int, list[int]] = {}  # prime -> mu_(w,p), all of degree deg
    deg, modulus = 0, 1
    for p in _primes(_prime_bits(len(m))):
        dep = _krylov_dependence(m, w, p, k)
        if dep is None:
            return f
        if len(dep) - 1 > deg:
            kept, deg, modulus = {}, len(dep) - 1, 1
        if len(dep) - 1 == deg:
            kept[p] = dep
            modulus *= p
            if modulus > 2 * math.comb(deg, deg // 2) * norm:
                g = _crt_lift(list(kept.values()), list(kept))
                if not any(_poly_times_vector(g, m, w)):
                    return g
                kept, deg, modulus = {}, deg + 1, 1


def minimal_poly(a: Matrix) -> list[Fraction]:
    """Monic minimal polynomial, exact, lowest degree first.

    With A = M / d for an integer matrix M, the minimal polynomial mu of M
    is the lcm of those of the start vectors (1, ..., n), e_1, ..., e_n
    (Wiedemann).  With the running lcm L, lcm(L, mu_v) = L mu_w for
    w = L(M) v, and mu_w divides chi / L for the characteristic polynomial
    chi of M, kept in the matrix's memo.  ``_vector_min_poly`` finds mu_w
    from Krylov sequences modulo primes: when w, M w, ... are independent
    modulo a prime up to degree n - deg L, mu = chi with no lift, and
    otherwise mu_w is a CRT lift checked exactly.  L divides mu, so L = mu
    once deg L = n or once ``_int_poly_at_matrix_witness`` proves L(M) = 0,
    at the latest after e_n.  m(x) = mu(d x) / d^k is that of A, k = deg mu.
    """
    if a.field != RATIONAL:
        raise FieldError("minimal_poly is exact-backend only")
    if not a.is_square:
        raise ShapeError("minimal polynomial of a non-square matrix")
    n = a.n_rows
    if n == 0:
        return [Fraction(1)]
    m, d = a._ints
    mu, rest = [1], _int_char_polys([a])[0]  # the running lcm L and chi / L
    for v in [list(range(1, n + 1))] + [[int(i == j) for i in range(n)] for j in range(n)]:
        w = _poly_times_vector(mu, m, v)
        if any(w):
            mu_w = _vector_min_poly(m, w, rest)
            mu = rp.mul(mu, mu_w)
            if len(mu) == n + 1 or _int_poly_at_matrix_witness(mu, m) is None:
                break
            rest = rp.quotient(rest, mu_w)
    return [Fraction(c * d ** i, d ** (len(mu) - 1)) for i, c in enumerate(mu)]


# ---------------------------------------------------------------------------
# spectra

_POLISH_STEPS = 3  # the most Newton steps ``_polish_root`` takes


def _horner(cs: list[float], x: complex) -> complex:
    acc = 0.0 + 0.0j
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _polish_root(coeffs_float: list[float], dcoeffs: list[float], z: complex) -> complex:
    """Newton steps from z on a polynomial and its derivative ``dcoeffs``,
    each kept only while it lowers |p|."""
    best, f_best = z, _horner(coeffs_float, z)
    for _ in range(_POLISH_STEPS):
        dp = _horner(dcoeffs, best)
        if dp == 0:
            break
        cand = best - f_best / dp
        f_cand = _horner(coeffs_float, cand)
        if abs(f_cand) < abs(f_best):
            best, f_best = cand, f_cand
        else:
            break
    return best


def _exact_spectrum(yun: Sequence[tuple[Sequence[int], int]]) -> tuple[Eigenvalue, ...]:
    """Eigenvalues with multiplicities from the Yun factors of an exact
    characteristic polynomial, as ``rp.squarefree_decomposition`` gives them.
    Each factor enters numpy as its monic coefficients, correctly rounded:
    true division of two ints is, and it raises ``OverflowError`` on a
    quotient beyond the float range, as ``float(Fraction(c, lead))`` does.

    Its roots are those of ``np.roots``, bit for bit, from the same call:
    ``np.linalg.eigvals`` of the companion matrix that ``np.roots`` builds
    (trailing zero coefficients stripped, first row -c_(k-1), ..., -c_0 of
    the monic rest), then a zero root per stripped coefficient.  LAPACK
    returns a complex pair as exactly (x + iy, x - iy), y > 0 first, and
    every step of ``_polish_root`` (complex *, /, - and + float, ``abs``)
    commutes with conjugation in CPython's arithmetic, but for the sign of
    a zero.  So only a root with y >= 0 is polished, and its partner takes
    the conjugate of the result: the same values, up to the sign of a zero
    real or imaginary part, which reports print alike."""
    out: list[Eigenvalue] = []
    for factor, m in yun:
        cf = [c / factor[-1] for c in factor]
        dcf = [i * c for i, c in enumerate(cf)][1:]
        zeros = next(i for i, c in enumerate(cf) if c)  # cf[-1] = 1.0
        rest, roots = cf[zeros:-1], []
        if rest:
            companion = np.eye(len(rest), k=-1)
            companion[0] = [-c for c in reversed(rest)]
            roots = np.linalg.eigvals(companion).tolist()
        prev = value = None
        for z in map(complex, roots + [0.0] * zeros):
            if z.imag < 0 and prev is not None and z == prev.conjugate():
                value = value.conjugate()
            else:
                value = _polish_root(cf, dcf, z)
            prev = z
            out.append(Eigenvalue(value=value, multiplicity=m))
    out.sort(key=lambda e: (e.value.real, e.value.imag))
    return tuple(out)


def complex_spectrum(a: Matrix, tol: Optional[float] = None) -> tuple[Eigenvalue, ...]:
    """Eigenvalues with algebraic multiplicities.

    Exact backend: multiplicities come from the square-free decomposition of
    the characteristic polynomial, values from polished numeric roots of the
    square-free factors.  Float backend: numpy eigenvalues (``_eigenvalues``),
    sorted; each joins the first cluster whose first member lies within the
    tolerance of it, and a cluster is its mean with its size as multiplicity.
    """
    if not a.is_square:
        raise ShapeError("spectrum of a non-square matrix")
    if a.n_rows == 0:
        return ()
    if a.field == RATIONAL:
        return _exact_spectrum(rp.squarefree_decomposition(rp.cleared(char_poly(a))))
    t = _resolve_tol(tol, a.max_abs)
    # Python complex numbers round as numpy's do (hypot for abs), only faster
    clusters: list[list[complex]] = []
    for z in sorted(_eigenvalues(a).astype(complex).tolist(), key=lambda z: (z.real, z.imag)):
        for cl in clusters:
            if abs(z - cl[0]) <= t:
                cl.append(z)
                break
        else:
            clusters.append([z])
    # np.mean of a single value v is v + 0j, bit for bit
    out = [Eigenvalue(value=cl[0] + 0j if len(cl) == 1 else complex(np.mean(cl)),
                      multiplicity=len(cl)) for cl in clusters]
    out.sort(key=lambda e: (e.value.real, e.value.imag))
    return tuple(out)


def _eigenvalues(a: Matrix) -> np.ndarray:
    """``np.linalg.eigvals`` of a square float matrix, taken once per
    matrix: kept, read-only, in its memo."""
    if a._char is None:
        w = np.linalg.eigvals(a._arr)
        w.flags.writeable = False
        object.__setattr__(a, "_char", w)
    return a._char


def _semisimple_exact(a: Matrix, yun: Sequence[tuple[Sequence[int], int]]
                      ) -> SemisimplicityReport:
    """Exact semisimplicity of a rational square matrix A, given the Yun
    pairs (f, k) of its characteristic polynomial p in normal form
    (``rational_poly``); the product s of the f is the square-free part of p.

    A is semisimple iff s(A) = 0.  When deg s = n, p itself is square-free
    and that needs no matrix work.  Otherwise, with A = M / d for the
    cleared integer matrix M, s(A) = 0 iff S(M) = 0 for the integer
    polynomial S = sum_k s_k d^(deg s - k) x^k over its content, which
    ``_int_poly_at_matrix_witness`` decides modulo primes.  That decides
    the answer; a defective A's report keeps (A, the Yun pairs, the witness
    (q, w): w is in the column space of S(M) and nonzero modulo the prime
    q), and only a read of its ``defective_eigenvalues`` computes m / s for
    the minimal polynomial m, whose roots name the defective eigenvalues.

    m / s divides g = p / s = prod f^(k-1), read off the Yun pairs.  The
    minimal polynomial of w under M modulo q divides m / s (rescaled to
    M), since (m / s)(M) S(M) is an integer multiple of m(M) = 0.  So when
    w, M w, ..., M^(deg g - 1) w are independent modulo q, deg(m / s) >=
    deg g and m / s = g: a proof in exact modular arithmetic that needs no
    minimal polynomial.  For deg g = 1, as for a nilpotent pair, that asks
    only w != 0 mod q, which the witness is; otherwise it takes deg g
    Krylov vectors (``_krylov_dependence``).  A derogatory A, or an unlucky
    q, shows a dependence, and then m comes from ``minimal_poly`` and m / s
    is one exact ``quotient``."""
    s = reduce(rp.mul, (f for f, _ in yun), [1])
    k = rp.degree(s)
    if k == a.n_rows:
        return SemisimplicityReport(True, RATIONAL, 0.0)
    ints, d = a._ints
    coeffs = [x * d ** (k - i) for i, x in enumerate(s)]
    content = math.gcd(*coeffs)
    witness = _int_poly_at_matrix_witness([c // content for c in coeffs], ints)
    if witness is None:
        return SemisimplicityReport(True, RATIONAL, 0.0)
    pairs = tuple((tuple(f), mult) for f, mult in yun)
    return SemisimplicityReport(False, RATIONAL, 0.0, (a, pairs, witness))


def is_semisimple(a: Matrix, tol: Optional[float] = None) -> SemisimplicityReport:
    """Diagonalizability over the complex numbers.

    Exact backend: A is semisimple iff s(A) = 0 for the square-free part s
    of its characteristic polynomial, decided by ``_semisimple_exact`` from
    the Yun factors, as ``classify`` decides it; the defective eigenvalues
    of a defective A, the roots of gcd(m, m') = m / s, are computed when
    first read, and with a minimal polynomial only for a derogatory A.
    Float backend: rank(A - zI) versus rank((A - zI)^2) per eigenvalue
    cluster, with an indeterminate outcome when a singular value lands
    inside the band [tol/10, 10*tol] or two clusters lie within 10*tol of
    each other, as a split Jordan block does.
    """
    if not a.is_square:
        raise ShapeError("semisimplicity of a non-square matrix")
    if a.field == RATIONAL:
        yun = rp.squarefree_decomposition(rp.cleared(char_poly(a)))
        return _semisimple_exact(a, yun)
    t = _resolve_tol(tol, a.max_abs)
    return _semisimple_float(a._arr, complex_spectrum(a, tol=t), t)


def _semisimple_float(arr: np.ndarray, spectrum: tuple[Eigenvalue, ...],
                      t: float) -> SemisimplicityReport:
    """The float ``is_semisimple`` of a square array whose
    ``complex_spectrum`` at the tolerance t is given."""
    n = arr.shape[0]

    def banded_rank(mat: np.ndarray, cutoff: float) -> Optional[int]:
        s = np.linalg.svd(mat, compute_uv=False)
        if np.any((s > cutoff / 10) & (s < cutoff * 10)):
            return None
        return int(np.sum(s > cutoff))

    if any(abs(x.value - y.value) <= 10 * t
           for i, x in enumerate(spectrum) for y in spectrum[i + 1:]):
        return SemisimplicityReport(None, FLOAT64, t)
    defective: list[complex] = []
    indeterminate = False
    for ev in spectrum:
        if ev.multiplicity == 1:
            continue
        e = arr - ev.value * np.eye(n)
        r1 = banded_rank(e, t)
        r2 = banded_rank(e @ e, t * max(1.0, float(np.max(np.abs(e)))))
        if r1 is None or r2 is None:
            indeterminate = True
            continue
        if r1 != r2:
            defective.append(ev.value)
    if indeterminate and not defective:
        return SemisimplicityReport(None, FLOAT64, t)
    if defective:
        return SemisimplicityReport(False, FLOAT64, t, tuple(defective))
    return SemisimplicityReport(True, FLOAT64, t)


# ---------------------------------------------------------------------------
# restriction of forms


def restrict_form(b: Matrix, w: Subspace) -> Matrix:
    """Gram matrix of the symmetric form b on the basis of w."""
    if b.n_rows != w.ambient_dim:
        raise ShapeError("form and subspace have different ambient dimensions")
    b = _require_symmetric(b, None)
    if w.dimension == 0:
        return Matrix.zeros(0, 0, b.field)
    if b.field == RATIONAL:
        if not w.is_exact:
            raise FieldError("rational form restricted to a non-exact basis")
        z = Matrix(list(zip(*w.basis)), RATIONAL)
        return z.T @ b @ z
    z = np.real_if_close(w.basis_numpy())
    if np.iscomplexobj(z):
        raise FieldError("restrict_form expects a real basis")
    z = z.astype(float)
    return Matrix._from_array(z.T @ b._arr @ z)
