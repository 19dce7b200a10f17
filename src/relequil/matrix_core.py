"""Dense linear algebra over two backends: exact rationals and binary64.

The exact backend keeps every entry a ``fractions.Fraction`` and never
degrades to floats, so inertia, kernels, characteristic polynomials and
semisimplicity tests are decision procedures.  The float backend wraps numpy
with a single tolerance convention: rank and eigenvalue-cluster decisions
default to ``tol = 1e-8 * (1 + max_abs(A))`` and are overridable per call.

Conventions used throughout the package:

* the standard symplectic matrix is J = [[0, -I], [I, 0]];
* inertia of a symmetric matrix is the triple (morse_index, nullity,
  coindex), i.e. the counts of negative, zero and positive eigenvalues;
* subspaces are stored as tuples of basis column vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence, Union

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
    "symplectic_reduction",
    "restrict_form",
    "standard_symplectic",
    "solve_exact",
    "in_span",
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


def _coerce_rational(x) -> Fraction:
    if isinstance(x, float):
        raise FieldError("float entry in a rational matrix; use the float64 field")
    return Fraction(x)


class Matrix:
    """Immutable dense matrix over the rational or float64 field."""

    __slots__ = ("_rows", "field")

    def __init__(self, rows: Sequence[Sequence], field: str):
        if field not in (RATIONAL, FLOAT64):
            raise FieldError(f"unknown field {field!r}")
        coerce = _coerce_rational if field == RATIONAL else float
        data = tuple(tuple(map(coerce, row)) for row in rows)
        if data and any(len(r) != len(data[0]) for r in data):
            raise ShapeError("ragged rows")
        object.__setattr__(self, "_rows", data)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def rational(cls, rows) -> "Matrix":
        return cls(rows, RATIONAL)

    @classmethod
    def float64(cls, rows) -> "Matrix":
        return cls(rows, FLOAT64)

    @classmethod
    def from_numpy(cls, arr) -> "Matrix":
        return cls(np.asarray(arr, dtype=float).tolist(), FLOAT64)

    @classmethod
    def identity(cls, n: int, field: str = RATIONAL) -> "Matrix":
        one = Fraction(1) if field == RATIONAL else 1.0
        zero = Fraction(0) if field == RATIONAL else 0.0
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)], field)

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int, field: str = RATIONAL) -> "Matrix":
        zero = Fraction(0) if field == RATIONAL else 0.0
        return cls([[zero] * n_cols for _ in range(n_rows)], field)

    @classmethod
    def diagonal(cls, entries, field: str = RATIONAL) -> "Matrix":
        entries = list(entries)
        n = len(entries)
        zero = Fraction(0) if field == RATIONAL else 0.0
        return cls([[entries[i] if i == j else zero for j in range(n)] for i in range(n)], field)

    # -- basic queries ------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self._rows)

    @property
    def n_cols(self) -> int:
        return len(self._rows[0]) if self._rows else 0

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self._rows[i][j]

    def rows(self):
        return self._rows

    def to_lists(self) -> list[list]:
        return [list(r) for r in self._rows]

    def to_numpy(self) -> np.ndarray:
        arr = np.array([[float(x) for x in row] for row in self._rows], dtype=float)
        return arr.reshape(self.shape)

    def to_float(self) -> "Matrix":
        if self.field == FLOAT64:
            return self
        return Matrix([[float(x) for x in row] for row in self._rows], FLOAT64)

    def max_abs(self) -> float:
        if not self._rows or not self._rows[0]:
            return 0.0
        return max(abs(float(x)) for row in self._rows for x in row)

    def trace(self) -> Scalar:
        if not self.is_square:
            raise ShapeError("trace of a non-square matrix")
        zero = Fraction(0) if self.field == RATIONAL else 0.0
        return sum((self._rows[i][i] for i in range(self.n_rows)), zero)

    # -- algebra ------------------------------------------------------

    def _check_same_field(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldError("mixed-field matrix operation")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.shape != other.shape:
            raise ShapeError("shape mismatch in addition")
        return Matrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._rows, other._rows)],
            self.field,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix([[-x for x in row] for row in self._rows], self.field)

    def __mul__(self, c) -> "Matrix":
        coerce = _coerce_rational if self.field == RATIONAL else float
        c = coerce(c)
        return Matrix([[c * x for x in row] for row in self._rows], self.field)

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Matrix product.

        Over the rationals each operand is cleared once to an integer matrix
        over one common denominator, A = M / da and B = N / db; the dot
        products are taken on the integers and each entry of the product is
        a single ``Fraction((M N)_ij, da * db)``.
        """
        self._check_same_field(other)
        if self.n_cols != other.n_rows:
            raise ShapeError("shape mismatch in product")
        if self.field == FLOAT64:
            return Matrix.from_numpy(self.to_numpy() @ other.to_numpy())
        a, da = _cleared(self._rows)
        b, db = _cleared(other._rows)
        d = da * db
        return Matrix([[Fraction(x, d) for x in row] for row in _int_matmul(a, b)], RATIONAL)

    def matvec(self, v: Sequence) -> list:
        coerce = _coerce_rational if self.field == RATIONAL else float
        vec = [coerce(x) for x in v]
        if len(vec) != self.n_cols:
            raise ShapeError("vector length mismatch")
        zero = Fraction(0) if self.field == RATIONAL else 0.0
        return [sum((a * b for a, b in zip(row, vec)), zero) for row in self._rows]

    @property
    def T(self) -> "Matrix":
        return Matrix(list(zip(*self._rows)) if self._rows else [], self.field)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.field, self._rows))

    def __repr__(self) -> str:
        return f"Matrix({self.n_rows}x{self.n_cols}, {self.field})"

    def is_symmetric(self, tol: Optional[float] = None) -> bool:
        if not self.is_square:
            return False
        if self.field == RATIONAL:
            return self._rows == self.T._rows
        t = default_tolerance(self.max_abs()) if tol is None else tol
        a = self.to_numpy()
        return bool(np.max(np.abs(a - a.T), initial=0.0) <= t)

    def is_skew_symmetric(self, tol: Optional[float] = None) -> bool:
        if not self.is_square:
            return False
        if self.field == RATIONAL:
            return self._rows == (-self.T)._rows
        t = default_tolerance(self.max_abs()) if tol is None else tol
        a = self.to_numpy()
        return bool(np.max(np.abs(a + a.T), initial=0.0) <= t)


def standard_symplectic(n: int, field: str = RATIONAL) -> Matrix:
    """The 2n x 2n matrix J = [[0, -I], [I, 0]]."""
    one = Fraction(1) if field == RATIONAL else 1.0
    zero = Fraction(0) if field == RATIONAL else 0.0
    rows = [[zero] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[i][n + i] = -one
        rows[n + i][i] = one
    return Matrix(rows, field)


# ---------------------------------------------------------------------------
# subspaces


def _exact_rank(rows: list[list[Fraction]]) -> int:
    return len(_bareiss_echelon(_cleared(rows)[0])[1])


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
        if not self.basis:
            return
        if self.is_exact:
            r = _exact_rank([list(col) for col in zip(*self.basis)])
        else:
            arr = np.array(self.basis, dtype=complex).T
            r = int(np.linalg.matrix_rank(arr))
        if r != len(self.basis):
            raise ValueError("basis vectors are linearly dependent")

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def is_exact(self) -> bool:
        return all(isinstance(x, (Fraction, int)) for v in self.basis for x in v)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def from_columns(cls, cols, ambient_dim: Optional[int] = None) -> "Subspace":
        cols = [tuple(c) for c in cols]
        if ambient_dim is None:
            if not cols:
                raise ValueError("ambient dimension required for an empty basis")
            ambient_dim = len(cols[0])
        return cls(ambient_dim, tuple(cols))

    def basis_numpy(self) -> np.ndarray:
        if not self.basis:
            return np.zeros((self.ambient_dim, 0), dtype=complex)
        return np.array(self.basis, dtype=complex).T

    def contains(self, vector, tol: Optional[float] = None) -> bool:
        """Membership test: exact when both the basis and vector are exact."""
        vec = list(vector)
        if len(vec) != self.ambient_dim:
            raise ShapeError("vector has wrong length")
        if self.is_exact and all(isinstance(x, (Fraction, int)) for x in vec):
            return in_span([list(col) for col in self.basis], vec)
        if self.dimension == 0:
            return bool(np.linalg.norm(np.array(vec, dtype=complex)) <= (tol or 1e-12))
        arr = self.basis_numpy()
        v = np.array(vec, dtype=complex)
        c, *_ = np.linalg.lstsq(arr, v, rcond=None)
        resid = np.linalg.norm(arr @ c - v)
        scale = max(1.0, float(np.max(np.abs(v), initial=0.0)))
        t = default_tolerance(scale) if tol is None else tol
        return bool(resid <= t * scale)


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

    @property
    def subspace_dim(self) -> int:
        return self.morse_index + self.nullity + self.coindex


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
    Jordan block when the answer is False.
    """

    semisimple: Optional[bool]
    defective_eigenvalues: tuple[complex, ...]
    backend: str
    tol: float


# ---------------------------------------------------------------------------
# exact elimination utilities


def _cleared(rows) -> tuple[list[list[int]], int]:
    """Integer rows M and the least common denominator d with rows = M / d."""
    d = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("non-exact division in fraction-free elimination")
    return q


def _bareiss_echelon(m: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free row echelon form; returns (pivot rows, pivot columns,
    sign of the row permutation).  The last pivot of a nonsingular square
    matrix is its determinant times that sign."""
    m = [row[:] for row in m]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    piv_cols: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(n_cols):
        pr = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            sign = -sign
        for i in range(r + 1, n_rows):
            for j in range(c + 1, n_cols):
                m[i][j] = _exact_div(m[r][c] * m[i][j] - m[i][c] * m[r][j], prev)
            m[i][c] = 0
        prev = m[r][c]
        piv_cols.append(c)
        r += 1
        if r == n_rows:
            break
    return m[:r], piv_cols, sign


def _back_substitute(echelon: list[list[int]], piv_cols: list[int],
                     y: list[Fraction]) -> list[Fraction]:
    """Fill the pivot entries of y, its other entries given, so that every
    echelon row annihilates y."""
    for row, pc in zip(reversed(echelon), reversed(piv_cols)):
        y[pc] = -sum((row[j] * y[j] for j in range(pc + 1, len(y))), Fraction(0)) / row[pc]
    return y


def _kernel_exact(rows: list[list[Fraction]], n_cols: int) -> list[list[Fraction]]:
    echelon, piv_cols, _ = _bareiss_echelon(_cleared(rows)[0])
    return [_back_substitute(echelon, piv_cols, [Fraction(int(j == f)) for j in range(n_cols)])
            for f in range(n_cols) if f not in piv_cols]


def solve_exact(a_rows: list[list[Fraction]], b: list[Fraction]) -> Optional[list[Fraction]]:
    """One exact solution of A x = b, free variables zero, or None when
    inconsistent: the Bareiss echelon form of [A | b] with x extended by -1."""
    n_cols = len(a_rows[0]) if a_rows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(bi)] for row, bi in zip(a_rows, b)]
    echelon, piv_cols, _ = _bareiss_echelon(_cleared(aug)[0])
    if n_cols in piv_cols:
        return None
    return _back_substitute(echelon, piv_cols, [Fraction(0)] * n_cols + [Fraction(-1)])[:n_cols]


def in_span(columns: list[list[Fraction]], vector: list[Fraction]) -> bool:
    if not columns:
        return all(x == 0 for x in vector)
    a = [[columns[k][i] for k in range(len(columns))] for i in range(len(vector))]
    return solve_exact(a, vector) is not None


# ---------------------------------------------------------------------------
# inertia


def _require_symmetric(b: Matrix, tol: Optional[float]) -> Matrix:
    if b.field == FLOAT64:
        return Matrix.from_numpy(_symmetric_part(b, tol))
    if not b.is_square:
        raise ShapeError("symmetric operations need a square matrix")
    if not b.is_symmetric():
        raise SymmetryError("matrix is not exactly symmetric")
    return b


def _symmetric_part(b: Matrix, tol: Optional[float]) -> np.ndarray:
    """(A + A^T) / 2 of a float matrix A, which must satisfy |A - A^T| <= tol
    entrywise (default: 1e-8 (1 + max |A_ij|))."""
    if not b.is_square:
        raise ShapeError("symmetric operations need a square matrix")
    a = b.to_numpy()
    t = default_tolerance(np.max(np.abs(a), initial=0.0)) if tol is None else tol
    if not np.max(np.abs(a - a.T), initial=0.0) <= t:
        raise SymmetryError("matrix is not symmetric within tolerance")
    return (a + a.T) / 2


def inertia(b: Matrix, tol: Optional[float] = None) -> IndexReport:
    """Counts of negative, zero and positive eigenvalues of a symmetric matrix.

    Exact over the rationals, by Descartes' rule of signs: the
    characteristic polynomial p of a real symmetric matrix has only real
    roots, and for such a polynomial the sign variations of the coefficients
    of p(x) / x^z and of p(-x) / x^z are exactly the counts of positive and
    negative roots, with z the nullity.  p is taken of the cleared integer
    matrix, whose eigenvalues are those of b times a positive denominator.
    Eigenvalue counting with the default tolerance over floats.
    """
    if b.field == FLOAT64:
        s = _symmetric_part(b, tol)
        if s.size == 0:
            return IndexReport(0, 0, 0)
        t = default_tolerance(np.max(np.abs(s))) if tol is None else tol
        w = np.linalg.eigvalsh(s)
        neg = int(np.sum(w < -t))
        zero = int(np.sum(np.abs(w) <= t))
        return IndexReport(morse_index=neg, nullity=zero, coindex=len(w) - neg - zero)
    b = _require_symmetric(b, tol)
    if b.n_rows == 0:
        return IndexReport(0, 0, 0)
    p = _char_poly_int(_cleared(b.rows())[0])
    z = next(k for k, c in enumerate(p) if c)
    pos = rp._variations(p[z:])
    neg = rp._variations([-c if k % 2 else c for k, c in enumerate(p[z:])])
    return IndexReport(morse_index=neg, nullity=z, coindex=pos)


# ---------------------------------------------------------------------------
# kernel and rank


def kernel(a: Matrix, tol: Optional[float] = None) -> Subspace:
    """Basis of the null space; exact fraction-free elimination over the
    rationals, SVD over floats."""
    if a.field == RATIONAL:
        basis = _kernel_exact(a.to_lists(), a.n_cols)
        return Subspace(a.n_cols, tuple(tuple(v) for v in basis))
    arr = a.to_numpy()
    if arr.size == 0:
        return Subspace(a.n_cols, tuple(tuple(row) for row in np.eye(a.n_cols)))
    t = default_tolerance(a.max_abs()) if tol is None else tol
    _, s, vh = np.linalg.svd(arr)
    r = int(np.sum(s > t))
    basis = vh[r:].conj()
    return Subspace(a.n_cols, tuple(tuple(float(x) for x in v) for v in basis))


def rank(a: Matrix, tol: Optional[float] = None) -> int:
    if a.field == RATIONAL:
        return _exact_rank(a.to_lists())
    arr = a.to_numpy()
    if arr.size == 0:
        return 0
    t = default_tolerance(a.max_abs()) if tol is None else tol
    s = np.linalg.svd(arr, compute_uv=False)
    return int(np.sum(s > t))


def determinant(a: Matrix) -> Scalar:
    if not a.is_square:
        raise ShapeError("determinant of a non-square matrix")
    if a.n_rows == 0:
        return Fraction(1) if a.field == RATIONAL else 1.0
    if a.field == FLOAT64:
        return float(np.linalg.det(a.to_numpy()))
    ints, d = _cleared(a.rows())
    return Fraction(_int_det(ints), d ** a.n_rows)


def _int_det(m: list[list[int]]) -> int:
    """Determinant of a nonempty square integer matrix by Bareiss."""
    echelon, piv_cols, sign = _bareiss_echelon(m)
    return sign * echelon[-1][-1] if len(piv_cols) == len(m) else 0


# ---------------------------------------------------------------------------
# characteristic and minimal polynomials (exact)


_PRIMES: dict[int, list[int]] = {}  # bit size -> the primes found so far, largest first


def _prime_bits(n: int) -> int:
    """Bit size b of the primes for an n x n matrix: n p^2 < 2^62 for every
    p < 2^b, so no int64 dot product of residues below 2p overflows."""
    return (62 - n.bit_length()) // 2


def _primes(bits: int):
    """The primes below 2**bits, largest first, by trial division (a
    deterministic test at this size); cached per bit size, never capped."""
    cache = _PRIMES.setdefault(bits, [])
    yield from cache
    c = cache[-1] if cache else (1 << bits) + 1
    while True:
        c -= 2
        if all(c % f for f in range(3, math.isqrt(c) + 1, 2)):
            cache.append(c)
            yield c


def _char_poly_int(m: list[list[int]]) -> list[int]:
    """Monic characteristic polynomial of a nonempty square integer matrix,
    lowest degree first.

    The coefficient of x^(n-k) sums C(n, k) principal k x k minors, each at
    most (sqrt(k) max|m_ij|)^k (Hadamard), so primes are taken until their
    product exceeds twice the largest bound.  Faddeev-LeVerrier runs modulo
    all of them at once in int64, dividing by k through k^-1 mod p, and the
    residues are lifted by CRT to the symmetric range."""
    n = len(m)
    big = max(abs(x) for row in m for x in row)
    bound = max(math.comb(n, k) * (math.isqrt(k ** k) + 1) * big ** k for k in range(n + 1))
    primes, modulus = [], 1
    for p in _primes(_prime_bits(n)):
        primes.append(p)
        modulus *= p
        if modulus > 2 * bound:
            break
    pv = np.array(primes, dtype=np.int64)
    mods = np.array([[[x % p for x in row] for row in m] for p in primes], dtype=np.int64)
    work = mods.copy()  # M_1 = A
    res = np.zeros((len(primes), n + 1), dtype=np.int64)
    res[:, n] = 1
    for k in range(1, n + 1):
        inv_k = np.array([pow(k, -1, p) for p in primes], dtype=np.int64)
        res[:, n - k] = -np.trace(work, axis1=1, axis2=2) % pv * inv_k % pv
        if k < n:
            # entries below 2p after the shift keep each dot product under 2 n p^2
            work.reshape(len(primes), n * n)[:, :: n + 1] += res[:, n - k, None]
            work = mods @ work % pv[:, None, None]
    coeffs, modulus = [0] * (n + 1), 1
    for p, r in zip(primes, res.tolist()):
        inv = pow(modulus, -1, p)
        coeffs = [c + modulus * ((ri - c) * inv % p) for c, ri in zip(coeffs, r)]
        modulus *= p
    return [c - modulus if 2 * c > modulus else c for c in coeffs]


def char_poly(a: Matrix) -> list[Fraction]:
    """Monic characteristic polynomial det(xI - A), exact, lowest degree
    first.  Requires the rational field.  With A = M / d for the cleared
    integer matrix M, det(xI - A) = d^-n det((d x) I - M)."""
    if a.field != RATIONAL:
        raise FieldError("char_poly is exact-backend only")
    if not a.is_square:
        raise ShapeError("characteristic polynomial of a non-square matrix")
    n = a.n_rows
    if n == 0:
        return [Fraction(1)]
    ints, d = _cleared(a.rows())
    c = _char_poly_int(ints)
    # det(xI - A) = d^-n * det((dx)I - dA)
    return rp.trim([Fraction(c[k], d ** (n - k)) for k in range(n + 1)])


def minimal_poly(a: Matrix) -> list[Fraction]:
    """Monic minimal polynomial, exact, lowest degree first.

    With A = M / d for an integer matrix M, the first linear dependence among
    the flattened integer powers I, M, M^2, ... is found by fraction-free
    elimination: each new power is reduced against the earlier reduced rows
    by cross-multiplication, and each stored row is divided, together with
    its combination of powers, by their content gcd.  The dependence gives
    the monic minimal polynomial mu of M, of degree k, and
    m(x) = mu(d x) / d^k is that of A.
    """
    if a.field != RATIONAL:
        raise FieldError("minimal_poly is exact-backend only")
    if not a.is_square:
        raise ShapeError("minimal polynomial of a non-square matrix")
    n = a.n_rows
    if n == 0:
        return [Fraction(1)]
    m, d = _cleared(a.rows())
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    # reduced rows: (vector, pivot index, combination over the powers 0..n)
    reduced: list[tuple[list[int], int, list[int]]] = []
    for k in range(n + 1):
        vec = [x for row in power for x in row]
        combo = [int(i == k) for i in range(n + 1)]
        for rvec, piv, rcombo in reduced:
            f = vec[piv]
            if f:
                p = rvec[piv]
                g = math.gcd(p, f)
                p, f = p // g, f // g
                vec = [p * x - f * y for x, y in zip(vec, rvec)]
                combo = [p * x - f * y for x, y in zip(combo, rcombo)]
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is None:
            # sum_i combo[i] M^i = 0 with combo[k] != 0
            lead = combo[k] * d ** k
            return [Fraction(c * d ** i, lead) for i, c in enumerate(combo[:k + 1])]
        g = math.gcd(*vec, *combo)
        reduced.append(([x // g for x in vec], piv, [c // g for c in combo]))
        power = _int_matmul(power, m)
    raise AssertionError("power dependence not found by degree n")


# ---------------------------------------------------------------------------
# spectra


def _polish_root(coeffs_float: list[float], z: complex, steps: int = 3) -> complex:
    dcoeffs = [i * c for i, c in enumerate(coeffs_float)][1:]

    def ev(cs, x):
        acc = 0.0 + 0.0j
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    best = z
    best_val = abs(ev(coeffs_float, z))
    for _ in range(steps):
        dp = ev(dcoeffs, best)
        if dp == 0:
            break
        cand = best - ev(coeffs_float, best) / dp
        v = abs(ev(coeffs_float, cand))
        if v < best_val:
            best, best_val = cand, v
        else:
            break
    return best


def _exact_spectrum(p: list[Fraction]) -> tuple[Eigenvalue, ...]:
    """Eigenvalues with multiplicities from an exact characteristic polynomial."""
    out: list[Eigenvalue] = []
    for factor, m in rp.squarefree_decomposition(p):
        cf = [float(c) for c in factor]
        roots = np.roots(list(reversed(cf))) if rp.degree(factor) >= 1 else []
        for z in roots:
            z = _polish_root(cf, complex(z))
            out.append(Eigenvalue(value=complex(z), multiplicity=m))
    out.sort(key=lambda e: (e.value.real, e.value.imag))
    return tuple(out)


def complex_spectrum(a: Matrix, tol: Optional[float] = None) -> tuple[Eigenvalue, ...]:
    """Eigenvalues with algebraic multiplicities.

    Exact backend: multiplicities come from the square-free decomposition of
    the characteristic polynomial, values from polished numeric roots of the
    square-free factors.  Float backend: numpy eigenvalues clustered within
    the tolerance.
    """
    if not a.is_square:
        raise ShapeError("spectrum of a non-square matrix")
    if a.n_rows == 0:
        return ()
    if a.field == RATIONAL:
        return _exact_spectrum(char_poly(a))
    t = default_tolerance(a.max_abs()) if tol is None else tol
    w = sorted(np.linalg.eigvals(a.to_numpy()), key=lambda z: (z.real, z.imag))
    clusters: list[list[complex]] = []
    for z in w:
        placed = False
        for cl in clusters:
            if abs(z - cl[0]) <= t:
                cl.append(z)
                placed = True
                break
        if not placed:
            clusters.append([complex(z)])
    out = [
        Eigenvalue(value=complex(np.mean(cl)), multiplicity=len(cl)) for cl in clusters
    ]
    out.sort(key=lambda e: (e.value.real, e.value.imag))
    return tuple(out)


def is_semisimple(a: Matrix, tol: Optional[float] = None) -> SemisimplicityReport:
    """Diagonalizability over the complex numbers.

    Exact backend: the minimal polynomial m is square-free iff gcd(m, m') is
    constant; the roots of the gcd name the defective eigenvalues.  Float
    backend: rank(A - zI) versus rank((A - zI)^2) per eigenvalue cluster,
    with an indeterminate outcome when a singular value lands inside the
    band [tol/10, 10*tol].
    """
    if not a.is_square:
        raise ShapeError("semisimplicity of a non-square matrix")
    if a.field == RATIONAL:
        m = minimal_poly(a)
        g = rp.gcd(m, rp.derivative(m))
        if rp.degree(g) <= 0:
            return SemisimplicityReport(True, (), RATIONAL, 0.0)
        cf = [float(c) for c in g]
        roots = tuple(
            complex(_polish_root(cf, complex(z))) for z in np.roots(list(reversed(cf)))
        )
        roots = tuple(sorted(roots, key=lambda z: (z.real, z.imag)))
        return SemisimplicityReport(False, roots, RATIONAL, 0.0)
    t = default_tolerance(a.max_abs()) if tol is None else tol
    arr = a.to_numpy()
    n = arr.shape[0]

    def banded_rank(mat: np.ndarray, cutoff: float) -> Optional[int]:
        s = np.linalg.svd(mat, compute_uv=False)
        if np.any((s > cutoff / 10) & (s < cutoff * 10)):
            return None
        return int(np.sum(s > cutoff))

    defective: list[complex] = []
    indeterminate = False
    for ev in complex_spectrum(a, tol=t):
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
        return SemisimplicityReport(None, (), FLOAT64, t)
    if defective:
        return SemisimplicityReport(False, tuple(defective), FLOAT64, t)
    return SemisimplicityReport(True, (), FLOAT64, t)


# ---------------------------------------------------------------------------
# symplectic reduction


def symplectic_reduction(omega: Matrix, tol: Optional[float] = None) -> Matrix:
    """Invertible Q with Q J Q^T = Omega for an invertible skew Omega.

    Built from a symplectic (Darboux) basis u_1..u_n, v_1..v_n of the
    bilinear form w(x, y) = x^T Omega y via skew Gram-Schmidt on the
    standard basis: u is the first nonzero seed, v = -s / w(u, s) for the
    first seed s with w(u, s) != 0, and every seed loses its w-components
    along u and v.  With P = [u | v], P^T Omega P = J, so
    Q = P^-T = Omega P J^-1 has the columns -Omega v_k and Omega u_k.

    Over the rationals the seeds are one integer matrix over a common
    denominator; each step takes Omega times the seeds as one integer
    product, reads the needed values of w off it, and updates the seeds
    fraction-free.  The columns of Q come from the same product, so nothing
    is inverted.  Over floats the result is validated against ``tol``.
    """
    if not omega.is_square or omega.n_rows % 2 != 0:
        raise ShapeError("an invertible skew form needs even dimension")
    two_n = omega.n_rows
    n = two_n // 2
    if omega.field == RATIONAL:
        if not omega.is_skew_symmetric():
            raise SymmetryError("matrix is not exactly skew-symmetric")
        w_int, dw = _cleared(omega.rows())
        seeds = [[int(i == k) for i in range(two_n)] for k in range(two_n)]
        den = 1  # the seeds are seeds[k] / den
        q_cols: list[list[Fraction]] = [[] for _ in range(two_n)]
        for step in range(n):
            iu = next((k for k, s in enumerate(seeds) if any(s)), None)
            if iu is None:
                raise SingularMatrixError("skew form is degenerate")
            u = seeds[iu]
            # Omega s_k = w_seeds[k] / (dw den), w(u, s_k) = wu[k] / (dw den^2)
            w_seeds = [[sum(map(mul, row, s)) for row in w_int] for s in seeds]
            wu = [sum(map(mul, u, ws)) for ws in w_seeds]
            ip = next((k for k, x in enumerate(wu) if x), None)
            if ip is None:
                raise SingularMatrixError("skew form is degenerate")
            p = seeds[ip]
            wp = [sum(map(mul, p, ws)) for ws in w_seeds]
            c = wu[ip]
            # -Omega v = Omega p / w(u, p) and Omega u
            q_cols[step] = [Fraction(x * den, c) for x in w_seeds[ip]]
            q_cols[n + step] = [Fraction(x, dw * den) for x in w_seeds[iu]]
            # s <- s - w(v, s) u + w(u, s) v = s + (wp[k] u - wu[k] p) / c
            seeds = [[c * si + a * ui - b * pi for si, ui, pi in zip(s, u, p)]
                     for s, a, b in zip(seeds, wp, wu)]
            den *= c
            g = math.gcd(den, *(x for s in seeds for x in s))
            if den < 0:
                g = -g
            seeds = [[x // g for x in s] for s in seeds]
            den //= g
        q = Matrix([list(row) for row in zip(*q_cols)], RATIONAL)
        j = standard_symplectic(n)
        if (q @ j @ q.T) != omega:
            raise AssertionError("symplectic reduction failed to reproduce the form")
        return q
    t = default_tolerance(omega.max_abs()) if tol is None else tol
    if not omega.is_skew_symmetric(t):
        raise SymmetryError("matrix is not skew-symmetric within tolerance")
    arr = omega.to_numpy()
    arr = (arr - arr.T) / 2
    seeds = [np.eye(two_n)[:, k].copy() for k in range(two_n)]
    us, vs = [], []
    for _ in range(n):
        norms = [float(np.linalg.norm(s)) for s in seeds]
        iu = int(np.argmax(norms))
        if norms[iu] <= t:
            raise SingularMatrixError("skew form is numerically degenerate")
        u = seeds[iu]
        vals = [float(abs(u @ arr @ s)) for s in seeds]
        iv = int(np.argmax(vals))
        c = u @ arr @ seeds[iv]
        if abs(c) <= t:
            raise SingularMatrixError("skew form is numerically degenerate")
        v = seeds[iv] * (-1.0 / c)
        seeds = [s - (v @ arr @ s) * u + (u @ arr @ s) * v for s in seeds]
        us.append(u)
        vs.append(v)
    p = np.column_stack(us + vs)
    q_arr = np.linalg.inv(p).T
    j = standard_symplectic(n, FLOAT64).to_numpy()
    resid = float(np.max(np.abs(q_arr @ j @ q_arr.T - omega.to_numpy())))
    if resid > max(t, default_tolerance(omega.max_abs())) * 100:
        raise SingularMatrixError(f"reduction residual {resid:.3e} exceeds tolerance")
    return Matrix.from_numpy(q_arr)


# ---------------------------------------------------------------------------
# restriction of forms


def restrict_form(b: Matrix, w: Subspace) -> Matrix:
    """Gram matrix of the symmetric form b on the basis of w."""
    if b.n_rows != w.ambient_dim:
        raise ShapeError("form and subspace have different ambient dimensions")
    _require_symmetric(b, None)
    if w.dimension == 0:
        return Matrix.zeros(0, 0, b.field)
    if b.field == RATIONAL:
        if not w.is_exact:
            raise FieldError("rational form restricted to a non-exact basis")
        cols = [[Fraction(x) for x in v] for v in w.basis]
        bw = [b.matvec(v) for v in cols]
        gram = [[sum((x * y for x, y in zip(cols[i], bw[j])), Fraction(0))
                 for j in range(w.dimension)] for i in range(w.dimension)]
        return Matrix(gram, RATIONAL)
    z = np.real_if_close(w.basis_numpy())
    if np.iscomplexobj(z):
        raise FieldError("restrict_form expects a real basis")
    z = z.astype(float)
    return Matrix.from_numpy(z.T @ b.to_numpy() @ z)
