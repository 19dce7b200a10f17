import math
from fractions import Fraction

import numpy as np
import pytest

import helpers as H
from relequil.matrix_core import (
    FLOAT64,
    RATIONAL,
    FieldError,
    IndeterminateError,
    IndexReport,
    Matrix,
    ShapeError,
    SingularMatrixError,
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
    symplectic_reduction,
)
from relequil.matrix_core import _char_poly_int, _prime_bits, _require_symmetric


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
        assert _char_poly_int(m) == H.char_poly_faddeev(m)
    nilpotent, scalar = cases[-2], cases[-1]
    assert _char_poly_int(nilpotent) == [0] * 5 + [1]
    assert _char_poly_int(scalar) == [3**120, 4 * 3**90, 6 * 3**60, 4 * 3**30, 1]


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
    assert _char_poly_int(m) == H.char_poly_faddeev(m)


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
    ]
    for rows in cases:
        assert minimal_poly(Matrix(rows, RATIONAL)) == H.minimal_poly_fraction(rows)


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
    cp = char_poly(m)
    from relequil.rational_poly import divmod_exact

    _, rem = divmod_exact(cp, mp)
    assert rem == []


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


def test_semisimple_float_band():
    arr = np.array([[1.0, 1.0], [0.0, 1.0]])
    report = is_semisimple(Matrix.from_numpy(arr))
    assert report.semisimple is False
    diag = Matrix.from_numpy(np.diag([1.0, 2.0]))
    assert is_semisimple(diag).semisimple is True


def test_symplectic_reduction_exact():
    omega = standard_symplectic(2) * Fraction(3)
    q = symplectic_reduction(omega)
    j = standard_symplectic(2)
    assert (q @ j @ q.T).rows() == omega.rows()


def test_symplectic_reduction_rational_form(rng):
    # Omega = R J R^T for a random rational R: a non-standard skew form
    # with denominators
    for n in (1, 2, 3):
        j = standard_symplectic(n).to_lists()
        while True:
            r = [[H.random_fraction(rng, 3, 4) for _ in range(2 * n)] for _ in range(2 * n)]
            if H.det_gauss(r) != 0:
                break
        omega = _fraction_product(_fraction_product(r, j), [list(c) for c in zip(*r)])
        q = symplectic_reduction(Matrix(omega, RATIONAL)).to_lists()
        assert _fraction_product(_fraction_product(q, j), [list(c) for c in zip(*q)]) == omega


def test_symplectic_reduction_float():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    skew = a - a.T
    while abs(np.linalg.det(skew)) < 1e-6:
        a = rng.normal(size=(4, 4))
        skew = a - a.T
    omega = Matrix.from_numpy(skew)
    q = symplectic_reduction(omega)
    j = standard_symplectic(2, FLOAT64)
    recon = (q @ j @ q.T).to_numpy()
    assert np.allclose(recon, skew, atol=1e-10)


def test_symplectic_reduction_rejects_degenerate():
    omega = Matrix.zeros(2, 2)
    with pytest.raises((SingularMatrixError, ValueError)):
        symplectic_reduction(omega)


def test_restrict_form():
    b = Matrix.diagonal([1, -1, 5])
    w = Subspace(3, ((Fraction(1), Fraction(0), Fraction(0)),
                     (Fraction(0), Fraction(1), Fraction(0))))
    r = restrict_form(b, w)
    assert r.rows() == Matrix.diagonal([1, -1]).rows()


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


def test_default_tolerance_scales():
    assert default_tolerance(0.0) == pytest.approx(1e-8)
    assert default_tolerance(100.0) == pytest.approx(1.01e-6)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_float_inertia_matches_entrywise_path():
    # the numpy symmetric boundary against the per-entry one it replaced:
    # same report, same symmetrized rows bit for bit, same refusals
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
    for value in (math.nan, math.inf, -math.inf):
        cases += [[[value, 0.0], [0.0, 1.0]], [[1.0, value], [value, 1.0]],
                  [[1.0, value], [0.0, 1.0]]]
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


def test_float_kernel_and_inertia():
    arr = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -2.0]])
    m = Matrix.from_numpy(arr)
    assert kernel(m).dimension == 1
    r = inertia(m)
    assert (r.morse_index, r.nullity, r.coindex) == (1, 1, 1)
