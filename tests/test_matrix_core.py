import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers as H
from relequil import jsonio, matrix_core
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
    _coefficient_bound,
    _int_poly_at_matrix_is_zero,
    _j_times,
    _krylov_dependence,
    _newton,
    _power_sum_bound,
    _prime_bits,
    _primes,
    _require_symmetric,
    _semisimple_exact,
)
from relequil.stability import Verdict, classify


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


@pytest.mark.parametrize("field", [RATIONAL, FLOAT64])
def test_empty_shapes_survive_transpose_zeros_and_products(field):
    # a matrix with rows but no columns, or columns but no rows, keeps its
    # shape through .T, zeros, products and kernel on both backends
    three_by_0 = Matrix([[], [], []], field)
    assert three_by_0.shape == (3, 0) and three_by_0.T.shape == (0, 3)
    assert three_by_0.T.T.shape == (3, 0)
    assert Matrix.zeros(0, 3, field).shape == (0, 3) == Matrix.zeros(0, 3, field).T.T.shape
    product = three_by_0 @ Matrix.zeros(0, 2, field)
    assert product.shape == (3, 2) and product == Matrix.zeros(3, 2, field)
    assert Matrix.zeros(0, 3, field) != Matrix.zeros(0, 0, field)
    assert kernel(Matrix.zeros(0, 3, field)).dimension == 3
    wide = Matrix([[1, 2, 3]], field)
    assert (Matrix.zeros(0, 1, field) @ wide).shape == (0, 3)
    assert wide.T.shape == (3, 1) and wide.T.T == wide


def test_scalar_multiplication():
    m = Matrix([[1, 2], [3, 4]], RATIONAL)
    assert (m * Fraction(1, 2))[1, 1] == 2


def test_rational_entries_coerced_once():
    # entries are cleared once to the integers (M, d) and read back as
    # Fractions, ints and strings alike; a float is refused, in the
    # constructor and as a scalar factor
    f = Fraction(-7, 3)
    m = Matrix([[f, 2], ["1/3", True]], RATIONAL)
    assert m._ints == ([[-7, 6], [1, 3]], 3) and m._data is None
    assert m[0, 0] == f
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


def test_exact_matvec_and_to_numpy_read_the_cleared_integers(rng):
    # M_ij / d is Python's correctly rounded int division, float(Fraction(M_ij, d)),
    # and A v is (M w) / (d e) for v = w / e: neither builds the Fraction rows
    cases = [m.to_lists() for m in _to_numpy_cases(rng) if m.field == RATIONAL]
    cases += [[[H.random_fraction(rng, 10 ** 20, 10 ** 18) for _ in range(c)]
               for _ in range(r)] for r, c in ((1, 1), (2, 3), (4, 4), (0, 3), (3, 0))]
    for rows in cases:
        shape = (len(rows), len(rows[0]) if rows else 3)
        a = Matrix(rows, RATIONAL) if rows else Matrix.zeros(0, 3)
        v = [H.random_fraction(rng, 10 ** 12, 10 ** 9) for _ in range(shape[1])]
        got, arr = a.matvec(v), a.to_numpy()
        assert a._data is None
        want = [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a.rows()]
        assert got == want and all(type(c) is Fraction for c in got)
        assert arr.shape == shape and arr.tobytes() == np.array(
            [[float(x) for x in row] for row in a.rows()], dtype=float).reshape(shape).tobytes()


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


def _pencil_cases(rng):
    """(stack of M, X) for n = 1..6: a random X, X = 0, a singular X of rank
    at most 1, and stacks of two and three matrices, with entries small or
    beyond int64."""
    for n in range(1, 7):
        def small():
            return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]

        big = _big_int_matrix(rng, n, rng.choice((3, 40, 70)))
        u, v = [rng.randint(-5, 5) for _ in range(n)], [rng.randint(-5, 5) for _ in range(n)]
        yield [small()], small()
        yield [big], [[0] * n for _ in range(n)]
        yield [small(), big], [[a * b for b in v] for a in u]
        yield [small(), small(), small()], _big_int_matrix(rng, n, 40)


def test_char_poly_pencil_matches_gauss_determinants_on_a_grid(rng):
    # F(lambda, mu) = det(lambda I - M + mu X) has degree <= n in each
    # variable, so its values on an (n + 1) x (n + 1) integer grid fix it;
    # each lower order is the truncation of order n, all within the bound
    for ms, x in _pencil_cases(rng):
        n = len(x)
        outs = _char_poly_int(ms, x, n)
        assert len(outs) == len(ms)
        for m, out in zip(ms, outs):
            for lam in range(-1, n):
                for mu in range(-1, n):
                    det = H.det_gauss([[Fraction(lam * (i == j) - m[i][j] + mu * x[i][j])
                                        for j in range(n)] for i in range(n)])
                    assert sum(c * mu ** j * lam ** k for j, row in enumerate(out)
                               for k, c in enumerate(row)) == det
        for order in range(n):
            assert _char_poly_int(ms, x, order) == [out[:order + 1] for out in outs]
        bound = _coefficient_bound(ms, x, n)
        assert max(abs(c) for out in outs for row in out for c in row) <= bound
    # the row norms give a smaller pencil bound than the largest entry alone
    m, x = ([[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)] for _ in range(2))
    old = max(math.comb(12, k) * (math.isqrt(k ** k) + 1) * 18 ** k for k in range(13))
    assert _coefficient_bound([m], x, 12) < old


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


def test_prime_size_keeps_float64_dot_products_exact():
    # residues below p and 2p: every dot product of length n is below 2^53
    for n in range(1, 1001):
        assert 2 * n * (2 ** _prime_bits(n)) ** 2 <= 2 ** 53


def test_char_poly_all_residues_p_minus_1():
    # every entry -1 is p - 1 modulo every prime, the largest residue, so
    # each float64 dot product sits at the top of its range; the matrix has
    # the eigenvalues -n and 0 (n - 1 times)
    for n in (31, 32, 63, 64):
        m = [[-1] * n for _ in range(n)]
        p = _char_poly_int([m])[0][0]
        assert p == H.char_poly_faddeev(m)
        assert p == [0] * (n - 1) + [n, 1]
        assert _int_poly_at_matrix_is_zero(p, m)
        assert _int_poly_at_matrix_is_zero([0, n, 1], m)  # the minimal polynomial
        assert not _int_poly_at_matrix_is_zero([p[0] + 1] + p[1:], m)


def test_char_poly_stack_equals_separate_calls(rng):
    # one stack of two matrices gives each its own polynomial, also when the
    # entries are beyond int64 and the two need different numbers of primes
    for n, bits in ((1, 3), (4, 3), (5, 70), (8, 64), (16, 5)):
        a = _big_int_matrix(rng, n, bits)
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert _char_poly_int([a, b]) == _char_poly_int([a]) + _char_poly_int([b])
        assert _char_poly_int([b, a]) == _char_poly_int([b]) + _char_poly_int([a])
        assert [p[0] for p in _char_poly_int([a, b])] == \
            [H.char_poly_faddeev(a), H.char_poly_faddeev(b)]


def _sylvester_hadamard(k: int) -> list[list[int]]:
    m = [[1]]
    for _ in range(k):
        m = [row + row for row in m] + [row + [-x for x in row] for row in m]
    return m


def test_coefficient_bound_covers_every_coefficient(rng):
    # a Hadamard matrix meets Hadamard's bound on its determinant: det H =
    # n^(n/2), the product of its row norms; the bound must still cover it
    cases = [_sylvester_hadamard(k) for k in (0, 1, 2, 3, 4)]
    cases += [_big_int_matrix(rng, n, bits) for n, bits in ((2, 3), (6, 40), (12, 70))]
    cases += [[[0] * 3 for _ in range(3)], [[-(2 ** 70)] * 4 for _ in range(4)]]
    for m in cases:
        bound = _coefficient_bound([m], None, 0)
        p = _char_poly_int([m])[0][0]
        assert p == H.char_poly_faddeev(m)
        assert max(abs(c) for c in p) <= bound
    n = 16
    assert abs(H.char_poly_faddeev(_sylvester_hadamard(4))[0]) == n ** (n // 2)
    # the row norms give a far smaller bound than the largest entry alone
    m = [[rng.randint(-9, 9) for _ in range(48)] for _ in range(48)]
    old = max(math.comb(48, k) * (math.isqrt(k ** k) + 1) * 9 ** k for k in range(49))
    assert _coefficient_bound([m], None, 0) < old


def _power_traces(m, x):
    """tr M^k and tr(M^(k-1) X), k = 1..n, over the integers."""
    a, power, p, q = np.array(m, dtype=object), np.eye(len(m), dtype=int).astype(object), [], []
    for _ in m:
        q.append(int(np.trace(power @ np.array(x, dtype=object))))
        power = power @ a
        p.append(int(np.trace(power)))
    return p, q


def test_power_sum_bound_covers_every_trace(rng):
    # the all-(-1) matrix has tr M^k = (-n)^k = (-||M||_F)^k, so the bound
    # is tight up to a factor of about e n; Hadamard matrices have
    # ||M||_F^2 = n^2 and eigenvalues of modulus sqrt(n); entries beyond
    # int64 take the object path of the residues
    ones = [[[-1] * n for _ in range(n)] for n in (1, 2, 5, 16, 31)]
    for m in ones:
        n = len(m)
        assert _power_traces(m, m)[0] == [(-n) ** k for k in range(1, n + 1)]
    cases = ones + [_sylvester_hadamard(k) for k in (0, 1, 2, 3, 4)]
    cases += [_big_int_matrix(rng, n, bits) for n, bits in ((2, 3), (3, 64), (6, 70), (9, 40))]
    cases += [[[0] * 3 for _ in range(3)]]
    for m in cases:
        n = len(m)
        for x in (m, [[-v for v in row] for row in reversed(m)], _big_int_matrix(rng, n, 65)):
            p, q = _power_traces(m, x)
            assert max(map(abs, p + q)) <= _power_sum_bound([m], x)
            assert max(map(abs, p)) <= _power_sum_bound([m], None)
            out = _char_poly_int([m], x, 1)[0]
            assert out[0] == H.char_poly_faddeev(m)
            if 1 < n < 10:  # order n runs Faddeev-LeVerrier, under its own bound
                assert out == _char_poly_int([m], x, n)[0][:2]


def test_newton_refuses_power_sums_of_no_integer_matrix():
    # p_1 = 1 and p_2 = 0 give c_0 = (p_1^2 - p_2) / 2 = 1/2: no integer
    # matrix has them, so power sums lifted wrongly raise, never return
    for q in ([], [0, 0]):
        with pytest.raises(ArithmeticError):
            _newton([1, 0], q)
    assert _newton([3, 5], [1, 1]) == [[2, -3, 1], [-2, 1, 0]]  # M = diag(1, 2), X = diag(1, 0)


def test_char_poly_power_sums_at_n_1_and_2(rng):
    # s = ceil(sqrt n) is 1 and 2: det(lambda I - M + mu X) in closed form,
    # mod mu^2, for small entries and entries beyond int64
    for bits in (2, 40, 70):
        m0, x0 = (rng.choice((-1, 1)) * rng.randint(2 ** bits, 2 ** (bits + 2)) for _ in range(2))
        assert _char_poly_int([[[m0]], [[x0]]], [[3]], 1) == \
            [[[-m0, 1], [3, 0]], [[-x0, 1], [3, 0]]]
        m, x = _big_int_matrix(rng, 2, bits), _big_int_matrix(rng, 2, bits)
        tr_m, tr_x = m[0][0] + m[1][1], x[0][0] + x[1][1]
        det_m = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        # det(M - mu X) = det M - mu (m11 x22 + m22 x11 - m12 x21 - m21 x12) + O(mu^2)
        cross = m[0][0] * x[1][1] + m[1][1] * x[0][0] - m[0][1] * x[1][0] - m[1][0] * x[0][1]
        assert _char_poly_int([m], x, 1) == [[[det_m, -tr_m, 1], [-cross, tr_x, 0]]]
        assert _char_poly_int([m, x]) == [[[det_m, -tr_m, 1]],
                                          [[x[0][0] * x[1][1] - x[0][1] * x[1][0], -tr_x, 1]]]


def test_pair_block_chi_and_inertia_at_48(rng):
    # B = S^T D S at 2n = 48 with distinct products a_k b_k: chi(J B) is
    # prod (x^2 + a_k b_k) and the inertia of B is that of D, both known by
    # construction (Sylvester's law of inertia)
    pairs = [(a, b) for a in range(1, 10) for b in range(a, 10)]
    pairs = list({a * b: (a, b) for a, b in rng.sample(pairs, len(pairs))}.values())[:24]
    pairs = [(-a, -b) if rng.random() < 0.3 else (a, b) for a, b in pairs]
    b = Matrix(_pair_block_b(pairs, rng), RATIONAL)
    chi = [1]
    for a, c in pairs:
        chi = rp.mul(chi, [a * c, 0, 1])
    assert char_poly(_j_times(b)) == chi
    diag = [v for pair in pairs for v in pair]
    assert inertia(b) == IndexReport(sum(v < 0 for v in diag), 0, sum(v > 0 for v in diag))


def test_exact_matrix_memo_is_outside_equality():
    rows = [[Fraction(1, 2), 3], [3, Fraction(-5, 4)]]
    a, b = Matrix(rows, RATIONAL), Matrix(rows, RATIONAL)
    assert a._ints == ([[2, 12], [12, -5]], 4)
    assert inertia(a) == IndexReport(1, 0, 1)
    assert a == b and hash(a) == hash(b)
    assert char_poly(a) == char_poly(b) == H.char_poly_lagrange(rows)
    assert determinant(a) == determinant(b) == Fraction(-5, 8) - 9
    with pytest.raises(AttributeError):
        a._ints = None


def test_exact_storage_is_cleared_integers_in_lowest_terms(rng):
    # every exact constructor and operation stores (M, d) with d > 0 and
    # gcd(content M, d) = 1, the clearing of its Fraction rows; +, -,
    # scalar *, == and hash work on M and build no Fraction rows
    def fractions(n_rows, n_cols):
        return [[Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 6, 9)))
                 for _ in range(n_cols)] for _ in range(n_rows)]

    def exact(rows, n_cols):
        return Matrix(rows, RATIONAL) if rows else Matrix.zeros(0, n_cols)

    def check(x, rows, shape):
        ints, d = x._ints
        assert d > 0 and math.gcd(d, *(v for r in ints for v in r)) == 1
        assert (x._ints, x.shape) == (matrix_core._cleared(rows), shape)

    def same(x, y, rows_x, rows_y):
        equal = (x.shape, rows_x) == (y.shape, rows_y)
        assert (x == y) == equal and (y == x) == equal
        assert not equal or hash(x) == hash(y)

    for _ in range(80):
        n, k, m = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 3)
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        ra, rb, rc = fractions(n, k), fractions(n, k), fractions(k, m)
        a, b, right = exact(ra, k), exact(rb, k), exact(rc, m)
        check(Matrix(ra, RATIONAL), ra, (n, k if n else 0))
        total, diff, neg, scaled = a + b, a - b, -a, c * a
        sums = [[x + y for x, y in zip(r, s)] for r, s in zip(ra, rb)]
        check(total, sums, (n, k))
        check(diff, [[x - y for x, y in zip(r, s)] for r, s in zip(ra, rb)], (n, k))
        check(neg, [[-x for x in r] for r in ra], (n, k))
        check(scaled, [[c * x for x in r] for r in ra], (n, k))
        assert a * c == scaled
        same(a, b, ra, rb)
        same(total - b, a, [[x - y for x, y in zip(r, s)] for r, s in zip(sums, rb)], ra)
        same(a * 0, Matrix.zeros(n, k), [[0] * k for _ in ra], [[0] * k] * n)
        assert all(x._data is None for x in (a, b, total, diff, neg, scaled))
        check(a @ right, [[sum((x * y for x, y in zip(r, col)), Fraction(0))
                           for col in zip(*rc)] if rc else [0] * m for r in ra], (n, m))
        check(a.T, [list(col) for col in zip(*ra)] if ra else [[]] * k, (k, n))
        rows = ra + rb  # an even number of rows
        check(_j_times(exact(rows, k)), [[-x for x in r] for r in rb] + ra, (2 * n, k))
        texts = [[f"{x.numerator * 3}/{x.denominator * 3}" for x in r] for r in ra]
        check(jsonio.matrix_from_data(texts, RATIONAL), ra, (n, k if n else 0))
        entries = [x for r in ra for x in r][:4] + [2, "1/3"]
        diag = [[Fraction(x) if i == j else Fraction(0) for j in range(len(entries))]
                for i, x in enumerate(entries)]
        check(Matrix.diagonal(entries), diag, (len(entries),) * 2)
        check(Matrix.zeros(n, k), [[0] * k for _ in range(n)], (n, k))
        check(Matrix.identity(n), [[int(i == j) for j in range(n)] for i in range(n)], (n, n))
        j = [[0] * 2 * m for _ in range(2 * m)]
        for i in range(m):
            j[i][m + i], j[m + i][i] = -1, 1
        check(standard_symplectic(m), j, (2 * m, 2 * m))
    empty = [(Matrix.zeros(r, c), (r, c)) for r in (0, 2) for c in (0, 3)]
    empty += [(Matrix([], RATIONAL), (0, 0)), (Matrix([[], []], RATIONAL), (2, 0))]
    for x, shape_x in empty:
        for y, shape_y in empty:
            same(x, y, [[]] * shape_x[0], [[]] * shape_y[0])


def test_j_times_keeps_cleared_rows(rng):
    for n in (1, 2, 4):
        b = Matrix(H.random_symmetric(rng, 2 * n, num=5, den=3), RATIONAL)
        jb, product = _j_times(b), standard_symplectic(n) @ b
        assert jb == product
        assert jb._ints == product._ints
        assert char_poly(jb) == H.char_poly_lagrange(product.to_lists())


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
        # derogatory and defective: a nilpotent Jordan pair beside two equal
        # elliptic blocks x^2 + 2, so mu = x^2 (x^2 + 2) has degree 4 < 6
        _similar(_block_diagonal(_jordan([(0, 2)]), _companion([2, 0]), _companion([2, 0])), rng),
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

    def counted(m, v, f):
        calls.append(v)
        return original(m, v, f)

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
        chi = _char_poly_int([ints])[0][0]
        assert len(original(ints, list(range(1, len(rows) + 1)), chi)) == 2


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


# ---------------------------------------------------------------------------
# minimal polynomial from Krylov sequences modulo primes


def test_minimal_poly_survives_a_bad_largest_prime():
    # diag(0, p) for the largest prime p of its size: M (1, 2) = (0, 2p) is
    # zero mod p, so the start vector's dependence mod p is x, while
    # mu = x^2 - p x; diag(0, p, p) has the same mu and is derogatory, so
    # the lift must skip p, whose dependence has the lower degree
    p = next(_primes(_prime_bits(2)))
    assert p == next(_primes(_prime_bits(3)))
    expected = [Fraction(0), Fraction(-p), Fraction(1)]
    for rows in ([[0, 0], [0, p]], [[0, 0, 0], [0, p, 0], [0, 0, p]]):
        v = list(range(1, len(rows) + 1))
        assert _krylov_dependence(rows, v, p, len(rows)) == [0, 1]
        assert minimal_poly(Matrix(rows, RATIONAL)) == expected == H.minimal_poly_fraction(rows)


def test_minimal_poly_drops_a_lift_that_fails_its_check(monkeypatch):
    # the first two primes report x for diag(0, 5) and (1, 2), a dependence
    # of too low a degree: the lift x of the first fails the exact check
    # M w = 0, the second has the degree just refuted and is skipped, and
    # the third proves mu = chi
    real, calls, lifts = matrix_core._krylov_dependence, [], []
    crt_lift = matrix_core._crt_lift

    def unlucky(m, w, p, k):
        calls.append(p)
        return [0, 1] if len(calls) <= 2 else real(m, w, p, k)

    def counted(residues, primes):
        lifts.append(len(primes))
        return crt_lift(residues, primes)

    rows = [[0, 0], [0, 5]]
    a = Matrix(rows, RATIONAL)
    char_poly(a)
    monkeypatch.setattr(matrix_core, "_krylov_dependence", unlucky)
    monkeypatch.setattr(matrix_core, "_crt_lift", counted)
    assert minimal_poly(a) == [Fraction(0), Fraction(-5), Fraction(1)] == H.minimal_poly_fraction(rows)
    assert (len(calls), lifts) == (3, [1])


def test_minimal_poly_when_the_start_vector_is_not_cyclic(monkeypatch):
    # P D P^-1 with P = [v, e_2, ..., e_6], v = (1, ..., 6), so P^-1 = 2 I - P
    # and v = P e_1; D is the companion of (x - 1)^2 (x^2 + 2) beside that of
    # x^2 + 3, so mu = chi, while mu_v = (x - 1)^2 (x^2 + 2) has degree 4: v
    # needs a checked lift, and e_1 then proves mu = chi
    n = 6
    d = _block_diagonal(_companion([2, -4, 3, -2]), _companion([3, 0]))
    p_mat = [[Fraction(i + 1 if j == 0 else int(i == j)) for j in range(n)] for i in range(n)]
    p_inv = [[2 * int(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(p_mat)]
    rows = _fraction_product(_fraction_product(p_mat, d), p_inv)
    ints = matrix_core._cleared(rows)[0]
    largest = next(_primes(_prime_bits(n)))
    assert len(_krylov_dependence(ints, list(range(1, n + 1)), largest, n)) == 5
    lifts = []
    original = matrix_core._crt_lift

    def counted(residues, primes):
        lifts.append(len(primes))
        return original(residues, primes)

    a = Matrix(rows, RATIONAL)
    char_poly(a)  # chi in the memo, so that the one lift left is that of mu_v
    monkeypatch.setattr(matrix_core, "_crt_lift", counted)
    m = minimal_poly(a)
    assert m == H.minimal_poly_fraction(rows)
    assert m == [Fraction(c) for c in (6, -12, 11, -10, 6, -2, 1)]  # chi
    assert len(lifts) == 1


def test_minimal_poly_random_block_matrices(rng):
    # Jordan blocks at small rational eigenvalues and companions of
    # x^2 + c, the first block repeated half of the time (derogatory), under
    # a random unimodular similarity, and scaled by 1/5 now and then
    for _ in range(50):
        blocks = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                lam = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
                blocks.append(_jordan([(lam, rng.randint(1, 2))]))
            else:
                blocks.append(_companion([rng.randint(1, 4), 0]))
        if rng.random() < 0.5:
            blocks.append(blocks[0])
        rows = _similar(_block_diagonal(*blocks), rng)
        if rng.random() < 0.3:
            rows = [[x / 5 for x in row] for row in rows]
        assert minimal_poly(Matrix(rows, RATIONAL)) == H.minimal_poly_fraction(rows)


def _pair_block_b(pairs, rng):
    """B = S^T D S for the pair diagonal D of the pairs and the integer
    symplectic S = [[I, K], [0, I]] [[I, 0], [L, I]], with K and L each a
    sum of two random symmetric {-1, 0, 1} matrices."""
    n = len(pairs)

    def sym():
        m = [[0] * n for _ in range(n)]
        for _ in range(2):
            for i in range(n):
                for j in range(i, n):
                    x = rng.choice((-1, 0, 1))
                    m[i][j] += x
                    m[j][i] += x if i != j else 0
        return m

    k, l_ = sym(), sym()
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    upper = [eye[i] + k[i] for i in range(n)] + [[0] * n + eye[i] for i in range(n)]
    lower = [eye[i] + [0] * n for i in range(n)] + [l_[i] + eye[i] for i in range(n)]
    s = _fraction_product(upper, lower)
    s_t = [list(col) for col in zip(*s)]
    return _fraction_product(_fraction_product(s_t, H.pair_diagonal(pairs)), s)


def test_defective_classify_runs_no_bareiss_and_builds_no_fraction(monkeypatch):
    # a nilpotent pair (1, 0) and 7 pairs of distinct products at 2n = 16:
    # J B is defective, with mu = chi, and (1, ..., 16) is cyclic modulo the
    # largest prime, so mu needs no lift and no elimination over the integers
    pairs = [(1, 0), (1, 2), (1, 3), (2, 2), (1, 5), (2, 3), (1, 7), (2, 4)]
    b = Matrix(_pair_block_b(pairs, random.Random(16)), RATIONAL)
    jb = matrix_core._cleared(_j_times(b).to_lists())[0]
    assert _krylov_dependence(jb, list(range(1, 17)), next(_primes(_prime_bits(16))), 16) is None
    eliminations, fractions, results = [], [], []
    bareiss, original = matrix_core._bareiss_echelon, matrix_core.minimal_poly

    def counted_bareiss(m):
        eliminations.append(len(m))
        return bareiss(m)

    def counted_fraction(*args):
        fractions.append(args)
        return Fraction(*args)

    def counted(a):
        monkeypatch.setattr(matrix_core, "Fraction", counted_fraction)
        try:
            results.append(original(a))
        finally:
            monkeypatch.setattr(matrix_core, "Fraction", Fraction)
        return results[-1]

    monkeypatch.setattr(matrix_core, "_bareiss_echelon", counted_bareiss)
    monkeypatch.setattr(matrix_core, "minimal_poly", counted)
    report = classify(b)
    assert report.verdict == Verdict.SPECTRALLY_STABLE_NOT_LINEAR
    assert report.defective_eigenvalue == 0
    assert eliminations == []
    # one minimal polynomial, of degree 16, whose 17 coefficients are the
    # only Fractions built: those of the final rescaling
    assert [len(m) for m in results] == [17]
    assert len(fractions) == 17


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


def test_exact_is_semisimple_computes_no_minimal_poly(monkeypatch, rng):
    calls = []
    original = matrix_core.minimal_poly

    def counted(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(matrix_core, "minimal_poly", counted)
    # S diag(3/2, 3/2, -1, 0, 0) S^-1: repeated eigenvalues, semisimple
    a = Matrix(_similar(_jordan([(Fraction(3, 2), 1), (Fraction(3, 2), 1), (-1, 1), (0, 1),
                                 (0, 1)]), rng), RATIONAL)
    assert is_semisimple(a).semisimple is True
    assert calls == []
    # a defective matrix is decided without one, and names its eigenvalue
    # through one minimal polynomial when that is first read
    report = is_semisimple(Matrix(_similar(_jordan([(Fraction(3, 2), 2), (-1, 1)]), rng),
                                  RATIONAL))
    assert report.semisimple is False and calls == []
    assert [complex(round(z.real, 9), round(z.imag, 9))
            for z in report.defective_eigenvalues] == [1.5]
    assert len(calls) == 1
    assert report.defective_eigenvalues is report.defective_eigenvalues and len(calls) == 1


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


def test_exact_solvers_refuse_mismatched_shapes():
    one, five = Fraction(1), Fraction(5)
    for rows, b in (([[one]], [one, five]),  # a second equation without a row
                    ([[one], [one]], [one]),  # a row without an entry of b
                    ([[one, 0], [one]], [one, one])):  # ragged rows
        with pytest.raises(ShapeError):
            solve_exact(rows, b)
    assert solve_exact([], []) == []


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


def test_float_matrix_is_a_snapshot_of_its_array():
    rows = [[1.0, -0.0], [2.5, 1e-310]]
    src = np.array(rows)
    read_late, read_early = Matrix.from_numpy(src), Matrix.from_numpy(src)
    early = (read_early.rows(), hash(read_early))
    src[:] = 7.0  # neither the source array ...
    out = read_early.to_numpy()
    out[0, 0] = 9.0  # ... nor a returned one reaches the matrix
    read_late.to_numpy()[1, 1] = 9.0
    direct = Matrix(rows, FLOAT64)
    for m in (read_late, read_early):
        assert m.rows() == ((1.0, -0.0), (2.5, 1e-310))
        assert all(type(x) is float for row in m.rows() for x in row)
        assert m == direct and hash(m) == hash(direct) == early[1]
        assert math.copysign(1.0, m[0, 1]) == -1.0
        assert math.copysign(1.0, m.to_numpy()[0, 1]) == -1.0
    assert read_early.rows() == early[0]
    assert math.copysign(1.0, read_late.T[1, 0]) == -1.0
    assert (-read_late)[0, 1] == 0.0 and math.copysign(1.0, (-read_late)[0, 1]) == 1.0
    with pytest.raises(ShapeError):
        Matrix.from_numpy(np.zeros(3))


def test_float_algebra_on_arrays_matches_entrywise():
    # the array operations round as the entrywise Python loops do; products
    # were numpy's before and stay numpy's
    rng = np.random.default_rng(7)
    a, b, c = (rng.standard_normal(shape).tolist() for shape in ((3, 4), (3, 4), (4, 2)))
    ma, mb, mc = (Matrix(x, FLOAT64) for x in (a, b, c))
    for got, want in ((ma + mb, [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]),
                      (ma - mb, [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]),
                      (ma * 2.5, [[2.5 * x for x in r] for r in a]),
                      (3 * ma, [[3.0 * x for x in r] for r in a]),
                      (-ma, [[-x for x in r] for r in a]),
                      (ma.T, [list(col) for col in zip(*a)]),
                      (ma @ mc, (np.array(a) @ np.array(c)).tolist())):
        assert got.field == FLOAT64 and [[x.hex() for x in r] for r in got.rows()] == \
            [[x.hex() for x in r] for r in want]
    assert ma.max_abs() == max(abs(x) for r in a for x in r)
    assert Matrix.zeros(2, 0, FLOAT64).max_abs() == 0.0
    assert Matrix.zeros(2, 0, FLOAT64).shape == (2, 0)
    assert standard_symplectic(2, FLOAT64) is standard_symplectic(2, FLOAT64)
