"""Dense linear algebra over two backends: exact rationals and binary64.

The exact backend keeps every entry a ``fractions.Fraction`` and never
degrades to floats, so inertia, kernels, characteristic polynomials and
semisimplicity tests are decision procedures.  The float backend wraps numpy
with a single tolerance convention: rank and eigenvalue-cluster decisions
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


def _resolve_tol(tol: Optional[float], max_abs: Callable[[], float]) -> float:
    """The tolerance of a float decision: ``tol`` when the caller gives one,
    which must be a finite number >= 0, else ``default_tolerance(max_abs())``."""
    if tol is None:
        return default_tolerance(max_abs())
    if not (isinstance(tol, numbers.Real) and 0 <= tol < math.inf):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    return tol


def _coerce_rational(x) -> Fraction:
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise FieldError("float entry in a rational matrix; use the float64 field")
    return Fraction(x)


class Matrix:
    """Immutable dense matrix over the rational or float64 field.

    Entries are coerced to the field once, on construction: ints, strings
    and other rationals become ``Fraction``, a float in a rational matrix
    raises ``FieldError``.  An entry already in the field (a ``Fraction``
    in a rational matrix) is kept as it is, not coerced again.
    """

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
        return np.array(self._rows, dtype=float).reshape(self.shape)

    def max_abs(self) -> float:
        if not self._rows or not self._rows[0]:
            return 0.0
        return max(abs(float(x)) for row in self._rows for x in row)

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
        cols, d = list(zip(*b)), da * db
        return Matrix([[Fraction(sum(map(mul, row, col)), d) for col in cols] for row in a],
                      RATIONAL)

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
        """A = A^T: exact over the rationals; over floats every entry finite
        and |A - A^T| <= tol entrywise (default: 1e-8 (1 + max |A_ij|))."""
        if not self.is_square:
            return False
        if self.field == RATIONAL:
            return self._rows == tuple(zip(*self._rows))
        t = _resolve_tol(tol, self.max_abs)
        a = self.to_numpy()
        return bool(np.isfinite(a).all() and np.max(np.abs(a - a.T), initial=0.0) <= t)

    def is_skew_symmetric(self, tol: Optional[float] = None) -> bool:
        """A = -A^T, with the tolerance and finiteness of ``is_symmetric``."""
        if not self.is_square:
            return False
        if self.field == RATIONAL:
            return all(x == -y for row, col in zip(self._rows, zip(*self._rows))
                       for x, y in zip(row, col))
        t = _resolve_tol(tol, self.max_abs)
        a = self.to_numpy()
        return bool(np.isfinite(a).all() and np.max(np.abs(a + a.T), initial=0.0) <= t)


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
        v = np.array(vec, dtype=complex)
        scale = max(1.0, float(np.max(np.abs(v), initial=0.0)))
        t = _resolve_tol(tol, lambda: scale)
        if self.dimension == 0:
            return bool(np.linalg.norm(v) <= (1e-12 if tol is None else tol))
        arr = self.basis_numpy()
        c, *_ = np.linalg.lstsq(arr, v, rcond=None)
        resid = np.linalg.norm(arr @ c - v)
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


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("non-exact division in fraction-free elimination")
    return q


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
                m[i][j] = _exact_div(m[r][c] * m[i][j] - m[i][c] * m[r][j], prev)
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


def _kernel_exact(rows: list[list[Fraction]], n_cols: int) -> list[list[Fraction]]:
    echelon, piv_cols = _bareiss_echelon(_cleared(rows)[0])
    return [_back_substitute(echelon, piv_cols, [Fraction(int(j == f)) for j in range(n_cols)])
            for f in range(n_cols) if f not in piv_cols]


def solve_exact(a_rows: list[list[Fraction]], b: list[Fraction]) -> Optional[list[Fraction]]:
    """One exact solution of A x = b, free variables zero, or None when
    inconsistent: the Bareiss echelon form of [A | b] with x extended by -1."""
    n_cols = len(a_rows[0]) if a_rows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(bi)] for row, bi in zip(a_rows, b)]
    echelon, piv_cols = _bareiss_echelon(_cleared(aug)[0])
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


def _finite_array(b: Matrix) -> np.ndarray:
    """The float array of b, refused with ``SymmetryError`` unless finite."""
    a = b.to_numpy()
    if not np.isfinite(a).all():
        raise SymmetryError("matrix has a non-finite entry")
    return a


def _symmetric_part(b: Matrix, tol: Optional[float]) -> np.ndarray:
    """(A + A^T) / 2 of a float matrix A, which must be finite and satisfy
    |A - A^T| <= tol entrywise (default: 1e-8 (1 + max |A_ij|))."""
    if not b.is_square:
        raise ShapeError("symmetric operations need a square matrix")
    a = _finite_array(b)
    t = _resolve_tol(tol, lambda: np.max(np.abs(a), initial=0.0))
    if not np.max(np.abs(a - a.T), initial=0.0) <= t:
        raise SymmetryError("matrix is not symmetric within tolerance")
    return (a + a.T) / 2


def _inertia_float(s: np.ndarray, tol: Optional[float]) -> IndexReport:
    """``inertia`` of a symmetric float array, counting its eigenvalues
    against ``tol`` (default: 1e-8 (1 + max |s_ij|)); no symmetry check."""
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
    if b.field == FLOAT64:
        return _inertia_float(_symmetric_part(b, tol), tol)
    b = _require_symmetric(b, tol)
    neg, zero, pos = rp.root_sign_counts(_char_poly_int([_cleared(b.rows())[0]])[0][0])
    return IndexReport(morse_index=neg, nullity=zero, coindex=pos)


# ---------------------------------------------------------------------------
# kernel and rank


def kernel(a: Matrix, tol: Optional[float] = None) -> Subspace:
    """Basis of the null space; exact fraction-free elimination over the
    rationals, SVD over floats."""
    if a.field == RATIONAL:
        basis = _kernel_exact(a.to_lists(), a.n_cols)
        return Subspace(a.n_cols, tuple(tuple(v) for v in basis))
    t = _resolve_tol(tol, a.max_abs)
    arr = a.to_numpy()
    if arr.size == 0:
        return Subspace(a.n_cols, tuple(tuple(row) for row in np.eye(a.n_cols)))
    _, s, vh = np.linalg.svd(arr)
    r = int(np.sum(s > t))
    basis = vh[r:].conj()
    return Subspace(a.n_cols, tuple(tuple(float(x) for x in v) for v in basis))


def rank(a: Matrix, tol: Optional[float] = None) -> int:
    if a.field == RATIONAL:
        return _exact_rank(a.to_lists())
    t = _resolve_tol(tol, a.max_abs)
    arr = a.to_numpy()
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
        return float(np.linalg.det(a.to_numpy()))
    ints, d = _cleared(a.rows())
    # det A = (-1)^n p(0) for the characteristic polynomial p of A
    return Fraction((-1) ** a.n_rows * _char_poly_int([ints])[0][0][0], d ** a.n_rows)


# ---------------------------------------------------------------------------
# characteristic and minimal polynomials (exact)


_PRIMES: dict[int, list[int]] = {}  # bit size -> the primes found so far, largest first


def _prime_bits(n: int) -> int:
    """Bit size b of the primes for an n x n matrix: n p^2 < 2^62 for every
    p < 2^b, so no int64 dot product of residues below 2p overflows."""
    return (62 - n.bit_length()) // 2


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
    """The primes below 2**bits, largest first, for 16 <= bits <= 31 (the
    range of ``_prime_bits``); cached per bit size, never capped."""
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


def _int_poly_at_matrix_is_zero(c: list[int], m: list[list[int]]) -> bool:
    """Whether sum c_k M^k = 0 for an integer polynomial c (lowest degree
    first, nonempty) and a nonempty square integer matrix M.

    Every entry of M^k is at most (n max|M_ij|)^k in absolute value, so
    every entry of the sum is at most sum |c_k| (n max|M_ij|)^k; primes are
    taken until their product exceeds twice that bound, and the sum is zero
    exactly when it is zero modulo every one of them (the CRT argument of
    ``_char_poly_int``).  Horner's scheme runs modulo a stack of primes at
    once in int64: first the largest prime alone, which already shows a
    nonzero sum in all but rare cases, then the others."""
    n = len(m)
    big = n * max(abs(x) for row in m for x in row)
    primes = _crt_primes(n, sum(abs(ck) * big ** k for k, ck in enumerate(c)))
    for batch in filter(None, (primes[:1], primes[1:])):
        pv = np.array(batch, dtype=np.int64)[:, None, None]
        mods = _residues(m, batch)
        work = np.zeros_like(mods)
        for coeff in np.array([[ck % p for p in batch] for ck in reversed(c)], dtype=np.int64):
            # entries below 2p after the shift keep each dot product under 2 n p^2
            work = mods @ work % pv
            work.reshape(len(batch), n * n)[:, :: n + 1] += coeff[:, None]
        if (work % pv).any():
            return False
    return True


def _char_poly_int(ms: list, x: Optional[list] = None,
                   order: int = 0) -> list[list[list[int]]]:
    """For a stack of square integer matrices M of one size n, out[s][j][k]
    is the coefficient of mu^j lambda^k in F(mu) = det(lambda I - M_s +
    mu X) for j <= order; X is an integer matrix, needed when order > 0.

    Each coefficient of lambda^(n-k) sums C(n, k) principal minors whose
    mu^j parts are sums of at most 2^k determinants, each at most (sqrt(k)
    max|M_ij, X_ij|)^k (Hadamard).  Primes are taken until their product
    exceeds twice the largest bound, and Faddeev-LeVerrier runs modulo all
    of them and for the whole stack at once in int64, dividing by k through
    k^-1 mod p; the residues are lifted by CRT to the symmetric range.  Its
    N_k are the coefficients of adj(lambda I - M + mu X), and F'(mu) =
    tr(adj X) (Jacobi), so F_order costs one trace per step.  The lower
    orders run N <- (M - mu X) N over Z_p[mu] / (mu^order)."""
    n, size, width = len(ms[0]), len(ms), max(order, 1)
    if n == 0:
        return [[[1]] + [[]] * order for _ in ms]
    big = max(abs(v) for m in ms + [x or []] for row in m for v in row) * (2 if order else 1)
    bound = max(math.comb(n, k) * (math.isqrt(k ** k) + 1) * big ** k for k in range(n + 1))
    primes = _crt_primes(n, bound)
    p3 = np.array(primes, dtype=np.int64).reshape(-1, 1, 1)
    pv = p3[..., None, None]
    mods = _residues(ms, primes)[:, :, None]  # (prime, sample, 1, n, n)
    work = np.zeros((len(primes), size, width, n, n), dtype=np.int64)
    work[:, :, 0] = np.eye(n, dtype=np.int64)  # N_0 = I
    res = np.zeros((len(primes), size, order + 1, n + 1), dtype=np.int64)
    res[:, :, 0, n] = 1
    if order:
        xs = _residues(x, primes)[:, None, None]
        x_t = np.swapaxes(xs, 3, 4)[:, :, 0]
        inv_order = np.array([pow(order, -1, p) for p in primes], dtype=np.int64)[:, None]
    for k in range(1, n + 1):
        if order:  # tr(N_(k-1) X) by row sums, each under 2 n p^2
            rows = (work[:, :, order - 1] * x_t).sum(axis=3) % p3
            res[:, :, order, n - k] = rows.sum(axis=2) % p3[..., 0] * inv_order % p3[..., 0]
        # entries below 2p after the shift keep each dot product under 2 n p^2
        step = mods @ work % pv
        if width > 1:
            step[:, :, 1:] = (step[:, :, 1:] - xs @ work[:, :, :-1] % pv) % pv
        work = step
        inv_k = np.array([pow(k, -1, p) for p in primes], dtype=np.int64).reshape(-1, 1, 1)
        res[..., :width, n - k] = -np.trace(work, axis1=3, axis2=4) % p3 * inv_k % p3
        work.reshape(len(primes), size, width, n * n)[..., :: n + 1] += res[..., :width, n - k, None]
    coeffs, modulus = [0] * res[0].size, 1
    for p, r in zip(primes, res.reshape(len(primes), -1).tolist()):
        inv = pow(modulus, -1, p)
        coeffs = [c + modulus * ((ri - c) * inv % p) for c, ri in zip(coeffs, r)]
        modulus *= p
    coeffs = [c - modulus if 2 * c > modulus else c for c in coeffs]
    return [[coeffs[i:i + n + 1] for i in range(s, s + (order + 1) * (n + 1), n + 1)]
            for s in range(0, len(coeffs), (order + 1) * (n + 1))]


def char_poly(a: Matrix) -> list[Fraction]:
    """Monic characteristic polynomial det(xI - A), exact, lowest degree
    first.  Requires the rational field.  With A = M / d for the cleared
    integer matrix M, det(xI - A) = d^-n det((d x) I - M)."""
    if a.field != RATIONAL:
        raise FieldError("char_poly is exact-backend only")
    if not a.is_square:
        raise ShapeError("characteristic polynomial of a non-square matrix")
    n = a.n_rows
    ints, d = _cleared(a.rows())
    c = _char_poly_int([ints])[0][0]
    # det(xI - A) = d^-n * det((dx)I - dA)
    return [Fraction(c[k], d ** (n - k)) for k in range(n + 1)]


def _vector_min_poly(m: list[list[int]], v: list[int]) -> list[int]:
    """Integer coefficients, lowest degree first, of the minimal polynomial
    of a nonzero integer vector v under a square integer matrix M: the first
    linear dependence among v, M v, M^2 v, ...  Each new vector is reduced
    against the earlier rows by cross-multiplication, and each stored row is
    divided, with its combination of powers, by their content gcd."""
    n = len(m)
    # reduced rows: (vector, pivot index, combination over the powers 0..n)
    reduced: list[tuple[list[int], int, list[int]]] = []
    for k in range(n + 1):
        vec = v
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
            # sum_i combo[i] M^i v = 0 with combo[k] != 0
            g = math.gcd(*combo)
            return [c // g for c in combo[:k + 1]]
        g = math.gcd(*vec, *combo)
        reduced.append(([x // g for x in vec], piv, [c // g for c in combo]))
        v = [sum(map(mul, row, v)) for row in m]
    raise AssertionError("Krylov dependence not found by degree n")


def minimal_poly(a: Matrix) -> list[Fraction]:
    """Monic minimal polynomial, exact, lowest degree first.

    With A = M / d for an integer matrix M, the minimal polynomial mu of M
    is the lcm of those of the start vectors (1, ..., n), e_1, ..., e_n
    (Wiedemann).  With the running lcm L, lcm(L, mu_v) = L mu_w for
    w = L(M) v (``_vector_min_poly``).  L divides mu, so L = mu once
    deg L = n or once ``_int_poly_at_matrix_is_zero`` proves L(M) = 0, at
    the latest after e_n.  m(x) = mu(d x) / d^k is that of A, k = deg mu.
    """
    if a.field != RATIONAL:
        raise FieldError("minimal_poly is exact-backend only")
    if not a.is_square:
        raise ShapeError("minimal polynomial of a non-square matrix")
    n = a.n_rows
    if n == 0:
        return [Fraction(1)]
    m, d = _cleared(a.rows())
    mu = [1]  # an integer multiple of the running lcm, lowest degree first
    for v in [list(range(1, n + 1))] + [[int(i == j) for i in range(n)] for j in range(n)]:
        w = [mu[-1] * x for x in v]
        for c in reversed(mu[:-1]):  # w = mu(M) v by Horner
            w = [sum(map(mul, row, w)) + c * x for row, x in zip(m, v)]
        if any(w):
            mu = rp.mul(mu, _vector_min_poly(m, w))
            if len(mu) == n + 1 or _int_poly_at_matrix_is_zero(mu, m):
                break
    return [Fraction(c * d ** i, mu[-1] * d ** (len(mu) - 1)) for i, c in enumerate(mu)]


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


def _exact_spectrum(yun: list[tuple[list[int], int]]) -> tuple[Eigenvalue, ...]:
    """Eigenvalues with multiplicities from the Yun factors of an exact
    characteristic polynomial, as ``rp.squarefree_decomposition`` gives them.
    Each factor enters numpy as its monic coefficients, correctly rounded."""
    out: list[Eigenvalue] = []
    for factor, m in yun:
        cf = [float(Fraction(c, factor[-1])) for c in factor]
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
        return _exact_spectrum(rp.squarefree_decomposition(rp.cleared(char_poly(a))))
    t = _resolve_tol(tol, a.max_abs)
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


def _defect_report(g: list[int]) -> SemisimplicityReport:
    """Semisimple iff g = gcd(m, m') of the minimal polynomial m is constant;
    the roots of g are the defective eigenvalues."""
    roots = tuple(e.value for e in _exact_spectrum([(g, 1)]))
    return SemisimplicityReport(not roots, roots, RATIONAL, 0.0)


def _semisimple_exact(a: Matrix, s: list[int]) -> SemisimplicityReport:
    """Exact semisimplicity of a rational square matrix A, given the
    square-free part s of its characteristic polynomial p in normal form
    (``rational_poly``).

    A is semisimple iff s(A) = 0.  When deg s = n, p itself is square-free
    and that needs no matrix work.  Otherwise, with A = M / d for the
    cleared integer matrix M, s(A) = 0 iff sum_k s_k d^(deg s - k) M^k = 0,
    taken over the content of those coefficients, which
    ``_int_poly_at_matrix_is_zero`` decides modulo primes.  Only a defective
    A runs ``minimal_poly``: its minimal polynomial m has the roots of p, so
    gcd(m, m') = m / s, one exact ``quotient``, and its roots name the
    defective eigenvalues."""
    k = rp.degree(s)
    if k == a.n_rows:
        return SemisimplicityReport(True, (), RATIONAL, 0.0)
    ints, d = _cleared(a.rows())
    coeffs = [x * d ** (k - i) for i, x in enumerate(s)]
    content = math.gcd(*coeffs)
    if _int_poly_at_matrix_is_zero([c // content for c in coeffs], ints):
        return SemisimplicityReport(True, (), RATIONAL, 0.0)
    g = rp.quotient(rp.cleared(minimal_poly(a)), s)
    if rp.degree(g) <= 0:
        raise AssertionError("s does not properly divide m although s(A) != 0")
    return _defect_report(g)


def is_semisimple(a: Matrix, tol: Optional[float] = None) -> SemisimplicityReport:
    """Diagonalizability over the complex numbers.

    Exact backend: A is semisimple iff its minimal polynomial m
    (``minimal_poly``, integer Krylov sequences checked modulo primes) is
    square-free, i.e. gcd(m, m') = 1; otherwise the roots of gcd(m, m')
    name the defective eigenvalues.  ``classify``, which has the square-free
    part of the characteristic polynomial at hand, decides by
    ``_semisimple_exact`` instead.  Float backend: rank(A - zI) versus
    rank((A - zI)^2) per eigenvalue cluster, with an indeterminate outcome
    when a singular value lands inside the band [tol/10, 10*tol] or two
    clusters lie within 10*tol of each other, as a split Jordan block does.
    """
    if not a.is_square:
        raise ShapeError("semisimplicity of a non-square matrix")
    if a.field == RATIONAL:
        m = rp.cleared(minimal_poly(a))
        return _defect_report(rp.gcd(m, rp.derivative(m)))
    t = _resolve_tol(tol, a.max_abs)
    arr = a.to_numpy()
    n = arr.shape[0]

    def banded_rank(mat: np.ndarray, cutoff: float) -> Optional[int]:
        s = np.linalg.svd(mat, compute_uv=False)
        if np.any((s > cutoff / 10) & (s < cutoff * 10)):
            return None
        return int(np.sum(s > cutoff))

    spectrum = complex_spectrum(a, tol=t)
    if any(abs(x.value - y.value) <= 10 * t
           for i, x in enumerate(spectrum) for y in spectrum[i + 1:]):
        return SemisimplicityReport(None, (), FLOAT64, t)
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
        return SemisimplicityReport(None, (), FLOAT64, t)
    if defective:
        return SemisimplicityReport(False, tuple(defective), FLOAT64, t)
    return SemisimplicityReport(True, (), FLOAT64, t)


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
        z = Matrix(list(zip(*w.basis)), RATIONAL)
        return z.T @ b @ z
    z = np.real_if_close(w.basis_numpy())
    if np.iscomplexobj(z):
        raise FieldError("restrict_form expects a real basis")
    z = z.astype(float)
    return Matrix.from_numpy(z.T @ b.to_numpy() @ z)
