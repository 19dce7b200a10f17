import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers as H
from relequil import matrix_core
from relequil import rational_poly as rp
from relequil.matrix_core import (
    FLOAT64,
    RATIONAL,
    FieldError,
    IndeterminateError,
    IndexReport,
    Matrix,
    ShapeError,
    Subspace,
    SymmetryError,
    char_poly,
    complex_spectrum,
    default_tolerance,
    determinant,
    in_span,
    inertia,
    is_semisimple,
    kernel,
    minimal_poly,
    rank,
    restrict_form,
    solve_exact,
    standard_symplectic,
)
from relequil.matrix_core import (
    _char_poly_int,
    _int_poly_at_matrix_is_zero,
    _prime_bits,
    _primes,
    _require_symmetric,
    _semisimple_exact,
)
from relequil.stability import classify


# ---------------------------------------------------------------------------
# construction and fields


def test_matrix_basics():
    m = Matrix([[1, 2], [3, 4]], RATIONAL)
    assert m.n_rows == 2 and m.n_cols == 2
    assert m.field == RATIONAL
    assert m[0, 1] == Fraction(2)
    t = m.T
    assert t[1, 0] == Fraction(2)
    with pytest.raises(ShapeError):
        Matrix([[1, 2], [3]], RATIONAL)


def test_field_mixing_rejected():
    a = Matrix([[1]], RATIONAL)
    b = Matrix([[1.0]], FLOAT64)
    with pytest.raises(FieldError):
        a @ b
    with pytest.raises(FieldError):
        a + b


def test_identity_diagonal_zeros():
    assert Matrix.identity(3)[2, 2] == 1
    d = Matrix.diagonal([1, -2, 0])
    assert d[1, 1] == -2
    assert Matrix.zeros(2, 3).n_cols == 3


def test_scalar_multiplication():
    m = Matrix([[1, 2], [3, 4]], RATIONAL)
    assert (m * Fraction(1, 2))[1, 1] == 2


def test_rational_entries_coerced_once():
    # a Fraction is kept as it is; ints and strings become Fractions; a float
    # is refused, in the constructor and as a scalar factor
    f = Fraction(-7, 3)
    m = Matrix([[f, 2], ["1/3", True]], RATIONAL)
    assert m[0, 0] is f
    assert [type(x) for row in m.rows() for x in row] == [Fraction] * 4
    assert m.rows() == ((f, Fraction(2)), (Fraction(1, 3), Fraction(1)))
    assert (m * Fraction(1, 2)).rows() == ((f / 2, Fraction(1)), (Fraction(1, 6), Fraction(1, 2)))
    for make in (lambda: Matrix([[1, 1.5]], RATIONAL), lambda: Matrix([[1]], RATIONAL) * 1.5,
                 lambda: 1.5 * Matrix([[1]], RATIONAL), lambda: Matrix([[0.0]], RATIONAL)):
        with pytest.raises(FieldError, match="float entry in a rational matrix"):
            make()


def _to_numpy_cases(rng):
    yield Matrix([], RATIONAL)
    yield Matrix([], FLOAT64)
    yield Matrix([[], [], []], RATIONAL)
    yield Matrix([[], [], []], FLOAT64)
    for bits in (1, 8, 30, 53, 54, 60):
        for shape in ((1, 1), (2, 3), (4, 4), (5, 1)):
            yield Matrix([[Fraction(rng.randint(-2 ** 62, 2 ** 62), rng.randint(1, 2 ** bits))
                           for _ in range(shape[1])] for _ in range(shape[0])], RATIONAL)
    yield Matrix([[Fraction(1, 3), Fraction(-2, 2 ** 60 - 1)],
                  [Fraction(2 ** 60 + 1, 2 ** 60), Fraction(10 ** 300, 7)]], RATIONAL)
    gen = np.random.default_rng(5)
    for scale in (1e-300, 1.0, 1e300):
        yield Matrix((gen.standard_normal((3, 4)) * scale).tolist(), FLOAT64)
    yield Matrix([[-0.0, 5e-324, math.inf], [-math.inf, math.nan, 1.7976931348623157e308]],
                 FLOAT64)


def test_to_numpy_matches_entrywise(rng):
    for m in _to_numpy_cases(rng):
        got = m.to_numpy()
        want = H.to_numpy_entrywise(m.rows(), m.shape)
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape == m.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("entry", [10 ** 400, -10 ** 400, Fraction(10 ** 400, 3)])
def test_to_numpy_overflow_like_entrywise(entry):
    m = Matrix([[1, 0], [0, entry]], RATIONAL)
    with pytest.raises(OverflowError):
        H.to_numpy_entrywise(m.rows(), m.shape)
    with pytest.raises(OverflowError):
        m.to_numpy()


def test_exact_symmetry_predicates_match_transpose(rng):
    for dim in range(7):
        for _ in range(12):
            rows = [[H.random_fraction(rng) for _ in range(dim)] for _ in range(dim)]
            sym = H.random_symmetric(rng, dim)
            skew = [[rows[i][j] - rows[j][i] for j in range(dim)] for i in range(dim)]
            cases = [rows, sym, skew, [[0] * dim for _ in range(dim)]]
            if dim:
                i, j = rng.randrange(dim), rng.randrange(dim)
                for base in (sym, skew):
                    nudged = [list(r) for r in base]
                    nudged[i][j] += Fraction(1, rng.randint(1, 9))
                    cases.append(nudged)
            for case in cases:
                m = Matrix(case, RATIONAL)
                assert m.is_symmetric() == H.is_symmetric_transpose(m.rows())
                assert m.is_skew_symmetric() == H.is_skew_symmetric_transpose(m.rows())
    assert Matrix(H.random_symmetric(rng, 3), RATIONAL).is_symmetric()
    assert not Matrix([[0, 1, 2]], RATIONAL).is_symmetric()
    assert not Matrix([[0], [0]], RATIONAL).is_skew_symmetric()


# ---------------------------------------------------------------------------
# exact computations against the independent oracles


def test_determinant_matches_gauss(rng):
    for _ in range(20):
        rows = H.random_symmetric(rng, rng.randint(1, 5))
        assert determinant(Matrix(rows, RATIONAL)) == H.det_gauss(rows)


def test_char_poly_matches_lagrange(rng):
    for dim in (2, 3, 4, 5):
        rows = H.random_symmetric(rng, dim)
        assert char_poly(Matrix(rows, RATIONAL)) == H.char_poly_lagrange(rows)


def _big_int_matrix(rng, dim, bits):
    """Integer entries of magnitude at least 2^bits, random signs."""
    return [[rng.choice((-1, 1)) * rng.randint(2**bits, 2**(bits + 2)) for _ in range(dim)]
            for _ in range(dim)]


def test_char_poly_matches_faddeev_reference(rng):
    # entries >= 2^40 need about 2 n 40 / 29 primes of 29-30 bits each
    cases = [_big_int_matrix(rng, dim, 40) for dim in (1, 2, 3, 5, 8)]
    cases += [
        [[0] * 4 for _ in range(4)],
        [[-7]],
        [[0]],
        # nilpotent: strictly upper triangular with large entries
        [[rng.randint(-2**45, 2**45) if j > i else 0 for j in range(5)] for i in range(5)],
        # scalar
        [[-(3**30) if i == j else 0 for j in range(4)] for i in range(4)],
    ]
    for m in cases:
        assert _char_poly_int([m])[0][0] == H.char_poly_faddeev(m)
    nilpotent, scalar = cases[-2], cases[-1]
    assert _char_poly_int([nilpotent])[0][0] == [0] * 5 + [1]
    assert _char_poly_int([scalar])[0][0] == [3**120, 4 * 3**90, 6 * 3**60, 4 * 3**30, 1]


def test_char_poly_stack_and_pencil_match_faddeev_reference(rng):
    # a stack of samples gives each sample's polynomial, and with order = n
    # the pencil coefficients give char_poly(M - mu X) at every integer mu
    for n, bits in ((1, 3), (3, 3), (4, 40), (6, 70)):
        ms = [_big_int_matrix(rng, n, bits) for _ in range(3)]
        assert [p[0] for p in _char_poly_int(ms)] == [H.char_poly_faddeev(m) for m in ms]
        x = _big_int_matrix(rng, n, bits)
        out = _char_poly_int(ms[:1], x, n)[0]
        assert _char_poly_int(ms[:1], x, 1)[0] == out[:2]
        for mu in (-2, 0, 3):
            m = [[a - mu * b for a, b in zip(ra, rb)] for ra, rb in zip(ms[0], x)]
            assert [sum(out[j][k] * mu ** j for j in range(n + 1)) for k in range(n + 1)] == \
                H.char_poly_faddeev(m)


def test_char_poly_rational_big_entries_matches_lagrange(rng):
    for dim in (1, 3, 4):
        rows = [[Fraction(rng.choice((-1, 1)) * rng.randint(2**40, 2**41), rng.randint(1, 9))
                 for _ in range(dim)] for _ in range(dim)]
        assert char_poly(Matrix(rows, RATIONAL)) == H.char_poly_lagrange(rows)


def test_char_poly_prime_size_shrinks_with_dimension(rng):
    for n in (1, 2, 3, 4, 16, 20, 33, 1000):
        assert n * (2 ** _prime_bits(n)) ** 2 <= 2**62
    assert _prime_bits(20) < _prime_bits(2)
    m = [[rng.randint(-2**30, 2**30) for _ in range(20)] for _ in range(20)]
    assert _char_poly_int([m])[0][0] == H.char_poly_faddeev(m)


def test_inertia_matches_congruence_reference(rng):
    cases = [
        [[0, 1], [1, 0]],
        [[0, 0, 1], [0, 0, 2], [1, 2, 0]],
        [[0] * 3 for _ in range(3)],
        [[Fraction(-3, 7)]],
    ]
    for dim in (2, 3, 4, 5, 6):
        # zero diagonal
        rows = H.random_symmetric(rng, dim, num=5, den=4)
        for i in range(dim):
            rows[i][i] = Fraction(0)
        cases.append(rows)
        # singular: R^T D R with a rank-deficient diagonal D of mixed signs
        r = [[H.random_fraction(rng, 5, 3) for _ in range(dim)] for _ in range(dim)]
        d = [rng.choice((-2, -1, 0, 0, 1, Fraction(3, 2))) for _ in range(dim)]
        cases.append([[sum(r[k][i] * d[k] * r[k][j] for k in range(dim)) for j in range(dim)]
                      for i in range(dim)])
    for rows in cases:
        report = inertia(Matrix(rows, RATIONAL))
        expected = H.inertia_congruence(rows)
        assert (report.morse_index, report.nullity, report.coindex) == expected
        assert expected == H.eig_inertia(rows)


def test_inertia_large_entries(rng):
    # Descartes counts on a char poly lifted from many primes
    rows = [[Fraction(x, 3) for x in row] for row in _big_int_matrix(rng, 6, 44)]
    rows = [[rows[min(i, j)][max(i, j)] for j in range(6)] for i in range(6)]
    report = inertia(Matrix(rows, RATIONAL))
    assert (report.morse_index, report.nullity, report.coindex) == H.inertia_congruence(rows)


def test_kernel_dimension_matches_gauss(rng):
    for _ in range(10):
        dim = rng.randint(2, 5)
        rows = H.random_symmetric(rng, dim)
        # force a kernel: zero the last row and column
        for i in range(dim):
            rows[i][dim - 1] = rows[dim - 1][i] = Fraction(0)
        m = Matrix(rows, RATIONAL)
        sub = kernel(m)
        assert sub.dimension == H.kernel_dim_gauss(rows)
        for vec in sub.basis:
            image = [sum(r[j] * vec[j] for j in range(dim)) for r in rows]
            assert all(x == 0 for x in image)


def test_rank_and_inertia(rng):
    for _ in range(15):
        dim = rng.randint(1, 6)
        rows = H.random_symmetric(rng, dim)
        m = Matrix(rows, RATIONAL)
        report = inertia(m)
        assert (report.morse_index, report.nullity, report.coindex) == \
            H.eig_inertia(rows)
        assert rank(m) == dim - report.nullity


def test_inertia_requires_symmetry():
    with pytest.raises(SymmetryError):
        inertia(Matrix([[0, 1], [2, 0]], RATIONAL))


def _fraction_product(a, b):
    """Entrywise sums of Fraction products, the textbook definition."""
    return [[sum((Fraction(a[i][l]) * Fraction(b[l][j]) for l in range(len(b))),
                 Fraction(0)) for j in range(len(b[0]))] for i in range(len(a))]


def _jordan(blocks):
    """Block-diagonal Jordan matrix from (eigenvalue, block size) pairs."""
    n = sum(size for _, size in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    i = 0
    for lam, size in blocks:
        for k in range(size):
            rows[i + k][i + k] = Fraction(lam)
            if k + 1 < size:
                rows[i + k][i + k + 1] = Fraction(1)
        i += size
    return rows


def _similar(rows, rng):
    """S A S^-1 for a random unimodular integer S, built together with its
    inverse from elementary row additions."""
    n = len(rows)
    s = [[int(i == j) for j in range(n)] for i in range(n)]
    s_inv = [r[:] for r in s]
    for _ in range(3 * n if n > 1 else 0):
        i, k = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        s[i] = [x + c * y for x, y in zip(s[i], s[k])]
        for r in s_inv:
            r[k] -= c * r[i]
    return _fraction_product(_fraction_product(s, rows), s_inv)


def test_minimal_poly_matches_fraction_reference(rng):
    cases = [H.random_symmetric(rng, dim, num=7, den=5) for dim in range(1, 6)]
    cases += [[[H.random_fraction(rng, 6, 5) for _ in range(dim)] for _ in range(dim)]
              for dim in (2, 3, 4, 5, 6)]
    cases += [
        _similar(_jordan([(Fraction(1, 2), 3), (Fraction(-2, 3), 1)]), rng),
        _similar(_jordan([(Fraction(3, 2), 3), (Fraction(3, 2), 2), (0, 1)]), rng),
        # Yun factor (x - 1)(x - 2) of multiplicity 2: 1 defective, 2 not
        _similar(_jordan([(1, 2), (2, 1), (2, 1)]), rng),
        [[Fraction(0)] * 4 for _ in range(4)],
        (Matrix.identity(4) * Fraction(3, 4)).to_lists(),
        [[Fraction(-5, 7)]],
        [[Fraction(0)]],
        # derogatory: no vector is cyclic
        (Matrix.identity(3) * Fraction(-2, 5)).to_lists(),
        Matrix.diagonal([1, 1, 2]).to_lists(),
        _similar(_jordan([(Fraction(2, 3), 2), (Fraction(2, 3), 2)]), rng),
        _similar(_jordan([(-1, 2), (-1, 2), (3, 1), (3, 1)]), rng),
        # non-integral entries: m(x) = mu(d x) / d^k for the cleared M = d A
        [[x / 7 for x in row] for row in _similar(_jordan([(Fraction(1, 3), 2), (-2, 1)]), rng)],
        [[x / 2 ** 40 for x in row] for row in _similar(_jordan([(5, 1), (5, 1), (1, 1)]), rng)],
    ]
    for rows in cases:
        assert minimal_poly(Matrix(rows, RATIONAL)) == H.minimal_poly_fraction(rows)
    assert minimal_poly(Matrix.zeros(0, 0)) == [Fraction(1)] == H.minimal_poly_fraction([])


def _conjugate(columns, eigenvalues):
    """P diag(eigenvalues) P^-1 for the invertible P with the given columns."""
    n = len(columns)
    p = [[Fraction(columns[j][i]) for j in range(n)] for i in range(n)]
    p_inv_cols = [solve_exact(p, [Fraction(int(i == k)) for i in range(n)]) for k in range(n)]
    return [[sum(p[i][j] * eigenvalues[j] * p_inv_cols[k][j] for j in range(n))
             for k in range(n)] for i in range(n)]


def test_minimal_poly_lcm_over_start_vectors(monkeypatch):
    # the dense start vector (1, ..., n) is an eigenvector, so its minimal
    # polynomial is linear and the lcm needs e_1 (and e_2) as well
    calls = []
    original = matrix_core._vector_min_poly

    def counted(m, v):
        calls.append(v)
        return original(m, v)

    monkeypatch.setattr(matrix_core, "_vector_min_poly", counted)
    two = _conjugate([(1, 2), (0, 1)], [3, 0])
    # e_1 is an eigenvector too, and the eigenvalue 2 needs e_2
    three = _conjugate([(1, 2, 3, 4), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], [5, 1, 2, 2])
    for rows, used, degree in ((two, 2, 2), (three, 3, 3)):
        calls.clear()
        m = minimal_poly(Matrix(rows, RATIONAL))
        assert m == H.minimal_poly_fraction(rows)
        assert len(m) - 1 == degree
        assert len(calls) == used
        ints = matrix_core._cleared(rows)[0]
        assert len(original(ints, list(range(1, len(rows) + 1)))) == 2


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(-3, 3), st.sampled_from([1, 2, 3]), st.integers(1, 2)),
                max_size=3),
       st.integers(2, 3), st.integers(0, 2 ** 32))
def test_m_over_s_is_gcd_of_m_and_derivative(blocks, defect, seed):
    # a defective matrix: at least one Jordan block of size >= 2
    jordan = [(Fraction(a, b), size) for a, b, size in blocks]
    jordan.append((jordan[0][0] if jordan else Fraction(1, 2), defect))
    a = Matrix(_similar(_jordan(jordan), random.Random(seed)), RATIONAL)
    m = rp.cleared(minimal_poly(a))
    s = rp.cleared(H.squarefree_part(char_poly(a)))
    g = rp.quotient(m, s)
    assert rp.degree(g) > 0 and rp.mul(g, s) == m
    assert g == rp.gcd(m, rp.derivative(m))
    # s + 1 shares no root with s, so it cannot divide m
    with pytest.raises(ArithmeticError):
        rp.quotient(m, [s[0] + 1] + s[1:])
    assert is_semisimple(a) == _semisimple_exact(a, s)


def test_minimal_poly_structured_cases(rng):
    # (x - 1/2)^3 (x + 2/3)
    expected = [Fraction(-1, 12), Fraction(3, 8), Fraction(-1, 4), Fraction(-5, 6), Fraction(1)]
    a = Matrix(_similar(_jordan([(Fraction(1, 2), 3), (Fraction(-2, 3), 1)]), rng), RATIONAL)
    assert minimal_poly(a) == expected
    partly = Matrix(_similar(_jordan([(1, 2), (2, 1), (2, 1)]), rng), RATIONAL)
    assert minimal_poly(partly) == [Fraction(-2), Fraction(5), Fraction(-4), Fraction(1)]
    report = is_semisimple(partly)
    assert report.semisimple is False
    assert [complex(round(z.real, 9), round(z.imag, 9))
            for z in report.defective_eigenvalues] == [1]
    assert minimal_poly(Matrix.zeros(3, 3)) == [Fraction(0), Fraction(1)]
    assert minimal_poly(Matrix.identity(3) * Fraction(3, 4)) == [Fraction(-3, 4), Fraction(1)]
    assert minimal_poly(Matrix([[Fraction(-5, 7)]], RATIONAL)) == [Fraction(5, 7), Fraction(1)]


def test_rational_matmul_matches_fraction_sums(rng):
    for n_rows, inner, n_cols in ((3, 5, 2), (1, 4, 3), (4, 1, 4), (2, 3, 1)):
        a = [[H.random_fraction(rng, 9, 7) for _ in range(inner)] for _ in range(n_rows)]
        b = [[H.random_fraction(rng, 9, 7) for _ in range(n_cols)] for _ in range(inner)]
        product = Matrix(a, RATIONAL) @ Matrix(b, RATIONAL)
        assert product.shape == (n_rows, n_cols)
        assert product.to_lists() == _fraction_product(a, b)


def test_minimal_poly_divides_and_annihilates():
    # diag(1,1,2) has minimal polynomial (x-1)(x-2)
    m = Matrix.diagonal([1, 1, 2])
    mp = minimal_poly(m)
    assert len(mp) - 1 == 2
    cp, mp = rp.cleared(char_poly(m)), rp.cleared(mp)
    assert rp.mul(rp.quotient(cp, mp), mp) == cp
    with pytest.raises(ArithmeticError):
        rp.quotient(mp, cp)


def test_complex_spectrum_known():
    j = standard_symplectic(1)
    found = complex_spectrum(j)
    vals = sorted((ev.value.imag, ev.multiplicity) for ev in found)
    assert vals == [(-1.0, 1), (1.0, 1)]


def test_complex_spectrum_multiplicity():
    m = Matrix.diagonal([2, 2, 3])
    found = {(round(ev.value.real, 9), ev.multiplicity) for ev in complex_spectrum(m)}
    assert found == {(2.0, 2), (3.0, 1)}


def test_semisimple_exact():
    assert is_semisimple(Matrix.diagonal([1, 1, 2])).semisimple is True
    jordan = Matrix([[1, 1], [0, 1]], RATIONAL)
    report = is_semisimple(jordan)
    assert report.semisimple is False
    assert len(report.defective_eigenvalues) > 0


def _semisimple_reference(rows) -> bool:
    """A is semisimple iff gcd(m, m') is constant for the minimal polynomial
    m of the frozen Fraction elimination."""
    m = H.minimal_poly_fraction(rows)
    return len(H._poly_gcd(m, H._derivative(m))) <= 1


def _companion(coeffs):
    """Companion matrix of the monic polynomial with the given coefficients,
    lowest degree first, leading 1 omitted."""
    n = len(coeffs)
    return [[Fraction(int(i == j + 1)) if j < n - 1 else Fraction(-coeffs[i])
             for j in range(n)] for i in range(n)]


def _block_diagonal(*blocks):
    n = sum(len(b) for b in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    i = 0
    for b in blocks:
        for r, row in enumerate(b):
            rows[i + r][i:i + len(b)] = [Fraction(x) for x in row]
        i += len(b)
    return rows


def _big_similar(rows, big):
    """S A S^-1 for S = I + N, N strictly upper triangular with entries near
    ``big``; S^-1 = I - N + N^2 - ... since N is nilpotent."""
    n = len(rows)
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    nil = [[Fraction(big + i - j) if j > i else Fraction(0) for j in range(n)]
           for i in range(n)]
    s = [[x + y for x, y in zip(r, q)] for r, q in zip(ident, nil)]
    s_inv, term = ident, ident
    for _ in range(n - 1):
        term = [[-x for x in row] for row in _fraction_product(term, nil)]
        s_inv = [[x + y for x, y in zip(r, q)] for r, q in zip(s_inv, term)]
    return _fraction_product(_fraction_product(s, rows), s_inv)


def _hamiltonian(pairs):
    """J D for the pair diagonal D: a 2x2 block [[0, -b_{n+k}], [b_k, 0]] per
    pair, nilpotent when exactly one of the pair is zero."""
    return (standard_symplectic(len(pairs)) @ Matrix(H.pair_diagonal(pairs), RATIONAL)).to_lists()


def test_semisimple_exact_matches_minimal_poly_reference(rng):
    big = 2 ** 40 + 15
    x2_plus_2 = [2, 0]
    cases = [
        # repeated semisimple eigenvalues: S diag(lam, lam, mu) S^-1
        _similar(_jordan([(Fraction(3, 2), 1), (Fraction(3, 2), 1), (-1, 1)]), rng),
        _similar(_jordan([(0, 1), (0, 1), (0, 1), (Fraction(2, 7), 1)]), rng),
        # Jordan blocks of size 2 and 3 at rational eigenvalues
        _similar(_jordan([(2, 2), (5, 1)]), rng),
        _similar(_jordan([(Fraction(-1, 3), 3), (Fraction(-1, 3), 1)]), rng),
        _similar(_jordan([(0, 2), (0, 1), (1, 1)]), rng),
        # Yun factor (x - 1)(x - 2) of multiplicity 2: 1 defective, 2 not
        _similar(_jordan([(1, 2), (2, 1), (2, 1)]), rng),
        # irrational eigenvalues: (x^2 + 2)^2 and (x^2 + 2)^3 as one
        # companion (Jordan blocks of size 2 and 3 at +-i sqrt 2) against
        # copies of the companion of x^2 + 2 (semisimple, same p)
        _companion([4, 0, 4, 0]),
        _block_diagonal(_companion(x2_plus_2), _companion(x2_plus_2)),
        _similar(_companion([8, 0, 12, 0, 6, 0]), rng),
        _similar(_block_diagonal(*[_companion(x2_plus_2)] * 3), rng),
        _block_diagonal(_companion([4, 0, 4, 0]), _companion(x2_plus_2)),
        # golden ratio: (x^2 - x - 1)^2 nonderogatory against two copies
        _companion([1, 2, -1, -2]),
        _block_diagonal(_companion([-1, -1]), _companion([-1, -1])),
        # Hamiltonian J D: equal frequencies, a J-invariant kernel (zero
        # pair), a nilpotent pair
        _hamiltonian([(1, 4), (2, 2), (4, 1)]),
        _hamiltonian([(0, 0), (1, 1)]),
        _hamiltonian([(0, 0), (0, 0), (3, 3)]),
        _hamiltonian([(1, 0), (2, 2)]),
        _hamiltonian([(0, 5), (0, 0)]),
        # entries near 2^40 and near 2^80, and denominators near 2^40
        _big_similar(_jordan([(3, 1), (3, 1), (5, 1)]), big),
        _big_similar(_jordan([(3, 2), (5, 1)]), big),
        _big_similar(_jordan([(big, 1), (big, 1), (-big, 1), (1, 1)]), big),
        _big_similar(_jordan([(big, 2), (-big, 1), (1, 1)]), big),
        [[x / big for x in row] for row in _big_similar(_jordan([(7, 1), (7, 1), (1, 1)]), big)],
        [[x / big for x in row] for row in _big_similar(_jordan([(7, 3), (1, 1)]), big)],
        # empty, 1 x 1 and zero matrices
        [], [[Fraction(-5, 7)]], [[Fraction(0)]], [[Fraction(0)] * 4 for _ in range(4)],
    ]
    outcomes = set()
    for rows in cases:
        a = Matrix(rows, RATIONAL) if rows else Matrix.zeros(0, 0)
        expected = _semisimple_reference(rows)
        report = is_semisimple(a)
        assert report.semisimple is expected
        outcomes.add(expected)
        if expected:
            assert report.defective_eigenvalues == ()
            continue
        m = H.minimal_poly_fraction(rows)
        g = H._poly_gcd(m, H._derivative(m))
        roots = sorted(np.roots([float(c) for c in reversed(g)]),
                       key=lambda z: (z.real, z.imag))
        assert len(report.defective_eigenvalues) == len(roots)
        for got, want in zip(report.defective_eigenvalues, roots):
            assert abs(got - want) <= 1e-6 * (1 + abs(want))
    assert outcomes == {True, False}


def test_poly_at_matrix_kernel():
    rng = np.random.default_rng(5)
    big = 2 ** 40 + 15
    for n in (1, 2, 5, 16):
        for scale in (1, 2 ** 9, big):
            m = (rng.integers(-scale, scale, (n, n), endpoint=True)).tolist()
            # Cayley-Hamilton: p(M) = 0, and p(M) + k I != 0
            p = _char_poly_int([m])[0][0]
            assert _int_poly_at_matrix_is_zero(p, m)
            assert not _int_poly_at_matrix_is_zero([p[0] + 1] + p[1:], m)
            assert not _int_poly_at_matrix_is_zero([p[0] + 2 ** 200] + p[1:], m)
    jordan = [[big, 1], [0, big]]
    assert not _int_poly_at_matrix_is_zero([-big, 1], jordan)
    assert _int_poly_at_matrix_is_zero([big * big, -2 * big, 1], jordan)
    assert _int_poly_at_matrix_is_zero([0], [[0, 0], [0, 0]])
    assert _int_poly_at_matrix_is_zero([0, 1], [[0, 0], [0, 0]])
    assert not _int_poly_at_matrix_is_zero([1, 1], [[0, 0], [0, 0]])


def test_poly_at_matrix_prime_bound():
    # c = [P] gives P I, zero modulo each of the first k primes the kernel
    # uses but not zero: the kernel must take a prime beyond them
    for n in (1, 2, 16):
        primes = _primes(_prime_bits(n))
        product = 1
        for _ in range(6):
            product *= next(primes)
            for m in ([[0] * n for _ in range(n)], [[int(i == j) for j in range(n)]
                                                    for i in range(n)]):
                assert not _int_poly_at_matrix_is_zero([product], m)
                assert not _int_poly_at_matrix_is_zero([-product], m)


def test_primes_match_trial_division(monkeypatch):
    # the first 200 primes of each bit size, from an empty cache, are those
    # found by trial division of the odd numbers below 2^bits, largest first
    monkeypatch.setattr(matrix_core, "_PRIMES", {})
    small = np.array([p for p in range(3, 1 << 16, 2)
                      if all(p % f for f in range(3, math.isqrt(p) + 1, 2))])
    for bits in range(20, 31):
        expected, c = [], (1 << bits) - 1
        while len(expected) < 200:
            if np.all(c % small[small <= math.isqrt(c)]):
                expected.append(c)
            c -= 2
        primes = _primes(bits)
        assert [next(primes) for _ in range(200)] == expected, bits


def test_semisimple_float_band():
    arr = np.array([[1.0, 1.0], [0.0, 1.0]])
    report = is_semisimple(Matrix.from_numpy(arr))
    assert report.semisimple is False
    diag = Matrix.from_numpy(np.diag([1.0, 2.0]))
    assert is_semisimple(diag).semisimple is True


def test_restrict_form():
    b = Matrix.diagonal([1, -1, 5])
    w = Subspace(3, ((Fraction(1), Fraction(0), Fraction(0)),
                     (Fraction(0), Fraction(1), Fraction(0))))
    r = restrict_form(b, w)
    assert r.rows() == Matrix.diagonal([1, -1]).rows()


def test_restrict_form_matches_fraction_gram(rng):
    # bases with int and Fraction entries, the empty basis included
    for dim in (1, 2, 3, 5):
        for k in range(dim + 1):
            b = H.random_symmetric(rng, dim, num=5, den=4)
            basis = []
            while len(basis) < k:
                v = tuple(rng.randint(-3, 3) if rng.random() < 0.5 else H.random_fraction(rng)
                          for _ in range(dim))
                if H.kernel_dim_gauss([list(c) for c in zip(*basis, v)]) == 0:
                    basis.append(v)
            r = restrict_form(Matrix(b, RATIONAL), Subspace(dim, tuple(basis)))
            assert r.shape == (k, k)
            assert [list(row) for row in r.rows()] == H.gram_fraction(b, basis)


def test_solve_and_span():
    rows = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]
    x = solve_exact(rows, [Fraction(4), Fraction(9)])
    assert x == [Fraction(2), Fraction(3)]
    assert in_span([(Fraction(1), Fraction(0))], (Fraction(5), Fraction(0)))
    assert not in_span([(Fraction(1), Fraction(0))], (Fraction(0), Fraction(1)))


def test_subspace_contains():
    s = Subspace(2, ((Fraction(1), Fraction(2)),))
    assert s.contains((Fraction(2), Fraction(4)))
    assert not s.contains((Fraction(1), Fraction(0)))


def test_zero_subspace_contains_honours_explicit_tol():
    zero = Subspace.zero(2)
    assert not zero.contains((1e-13, 0.0), tol=0.0)
    assert zero.contains((0.0, 0.0), tol=0.0)
    assert zero.contains((1e-13, 0.0), tol=1e-12)
    assert not zero.contains((1e-13, 0.0), tol=1e-14)
    # the default keeps its absolute 1e-12
    assert zero.contains((1e-13, 0.0))
    assert not zero.contains((1e-11, 0.0))


def test_default_tolerance_scales():
    assert default_tolerance(0.0) == pytest.approx(1e-8)
    assert default_tolerance(100.0) == pytest.approx(1.01e-6)


def test_float_inertia_matches_entrywise_path():
    # the numpy symmetric boundary against the per-entry one it replaced:
    # same report, same symmetrized rows bit for bit, same refusals on
    # finite input (non-finite input is refused before, see below)
    gen = np.random.default_rng(11)
    cases = [[]]
    for dim in range(1, 9):
        for scale in (1e-3, 1.0, 1e6):
            a = gen.standard_normal((dim, dim)) * scale
            a = a + a.T + gen.standard_normal((dim, dim)) * scale * 1e-10
            a[0, 0] = 0.0 if dim % 2 else -0.0
            cases.append(a.tolist())
    cases.append([[1.0, 2.0], [2.0 + 1e-3, -1.0]])
    cases.append([[0.0, 1e-9], [0.0, -1e-9]])
    for rows in cases:
        for tol in (None, 1e-12, 1e-2):
            m = Matrix(rows, FLOAT64)
            try:
                sym, counts = H.symmetric_inertia_loop(rows, tol)
            except ValueError as e:
                for call in (inertia, _require_symmetric):
                    with pytest.raises(SymmetryError) as got:
                        call(m, tol=tol)
                    assert str(got.value) == str(e)
                continue
            assert inertia(m, tol=tol) == IndexReport(*counts)
            got = np.array(_require_symmetric(m, tol).rows(), dtype=float)
            assert got.tobytes() == np.array(sym, dtype=float).tobytes()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_float_symmetric_part_rejects_nonfinite(value):
    # one non-finite entry, its mirror alone, both, and a diagonal one; the
    # entrywise path let [[1, inf], [0, 1]] through with an infinite default
    # tolerance and counted IndexReport(0, 0, 2)
    for rows in ([[1.0, value], [0.0, 1.0]], [[1.0, 0.0], [value, 1.0]],
                 [[1.0, value], [value, 1.0]], [[value, 0.0], [0.0, 1.0]],
                 [[1.0, 0.0, 0.0], [0.0, -2.0, value], [0.0, 0.0, 3.0]]):
        m = Matrix(rows, FLOAT64)
        for tol in (None, 0.0, 1e-12, 1e-2, 1e300):
            for call in (inertia, _require_symmetric):
                with pytest.raises(SymmetryError, match="^matrix has a non-finite entry$"):
                    call(m, tol=tol)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_float_skew_forms_reject_nonfinite(value):
    # the default tolerance 1e-8 (1 + max |A_ij|) is infinite for an infinite
    # entry; both predicates answered True for these, and classify then
    # called the form degenerate
    sym = Matrix([[1.0, value], [0.0, 1.0]], FLOAT64)
    skew = Matrix([[0.0, value], [-1.0, 0.0]], FLOAT64)
    both = Matrix([[0.0, value], [-value, 0.0]], FLOAT64)
    for tol in (None, 0.0, 1e-2, 1e300):
        for m in (sym, skew, both, Matrix([[value]], FLOAT64)):
            assert not m.is_symmetric(tol)
            assert not m.is_skew_symmetric(tol)
        for omega in (skew, both):
            with pytest.raises(SymmetryError, match="^matrix has a non-finite entry$"):
                classify(Matrix.identity(2, FLOAT64), omega=omega, tol=tol)
    # finite forms keep their answers
    assert Matrix([[1.0, 2.0], [2.0, 1.0]], FLOAT64).is_symmetric()
    assert Matrix([[0.0, 2.0], [-2.0, 0.0]], FLOAT64).is_skew_symmetric()
    assert not Matrix([[0.0, 2.0], [-1.0, 0.0]], FLOAT64).is_skew_symmetric()


def test_float_kernel_and_inertia():
    arr = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -2.0]])
    m = Matrix.from_numpy(arr)
    assert kernel(m).dimension == 1
    r = inertia(m)
    assert (r.morse_index, r.nullity, r.coindex) == (1, 1, 1)
