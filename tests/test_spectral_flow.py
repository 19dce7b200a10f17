import json
import math
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest

import helpers as H
from relequil.matrix_core import (
    FLOAT64,
    RATIONAL,
    IndeterminateError,
    Matrix,
    SymmetryError,
    default_tolerance,
    inertia,
    is_semisimple,
    kernel,
    rank,
)
from relequil.rational_poly import cleared
from relequil.spectral_flow import (
    IrregularCrossingError,
    KreinPath,
    LinearPath,
    crossing_set,
    kappa_identity_check,
    krein_form,
    relative_morse_index,
    spectral_flow,
)
from relequil.spectral_flow import (
    _banded_crossings,
    _kernel_counts_float,
    _krein_flow_and_kappa,
    _linear_locations_float,
    _path_chi,
)
from relequil.stability import Verdict, classify


def diag(*entries) -> Matrix:
    return Matrix.diagonal(list(entries))


# ---------------------------------------------------------------------------
# straight-line paths, exact backend


def _lagrange_det_poly(start, end):
    m = len(start)
    nodes = [Fraction(j, m) for j in range(m + 1)]
    values = [H.det_gauss([[(1 - t) * x + t * y for x, y in zip(rs, re)]
                           for rs, re in zip(start, end)]) for t in nodes]
    return H.lagrange_interpolate(nodes, values)


def _primitive(p):
    """An integer polynomial over its positive content: equal for any two
    positive multiples of one polynomial."""
    g = math.gcd(*p)
    return [c // g for c in p]


def _congruent(r, diagonal):
    """R^T D R for the square rational R and the diagonal D."""
    dim = len(diagonal)
    return [[sum(r[k][i] * Fraction(diagonal[k]) * r[k][j] for k in range(dim))
             for j in range(dim)] for i in range(dim)]


def _random_square(rng, dim):
    return [[H.random_fraction(rng, 4, 3) for _ in range(dim)] for _ in range(dim)]


def test_det_poly_matches_lagrange_reference(rng):
    cases = [(H.random_symmetric(rng, dim, num=6, den=5), H.random_symmetric(rng, dim, 6, 5))
             for dim in (1, 2, 3, 4, 5, 6)]
    # roots at t = 0 and t = 1: both endpoints singular
    cases.append((_congruent(_random_square(rng, 3), [0, 1, -2]),
                  _congruent(_random_square(rng, 3), [3, 0, 1])))
    cases.append(([[Fraction(0)]], [[Fraction(5, 3)]]))
    cases.append((H.pair_diagonal([(0, 1), (2, 0)]), H.pair_diagonal([(1, 0), (0, 3)])))
    # large entries
    big = [[Fraction(2**50 + 3, 7), Fraction(-2**45, 3)], [Fraction(-2**45, 3), Fraction(1, 2**40)]]
    cases.append((big, H.random_symmetric(rng, 2)))
    for start, end in cases:
        path = LinearPath(Matrix(start, RATIONAL), Matrix(end, RATIONAL))
        chi = _path_chi(path)
        m = len(start)
        # c_0 = det(-m d A(t)): (-1)^m c_0 is a positive integer multiple of det A(t)
        d = [(-1) ** m * c for c in chi[0]]
        assert all(type(c) is int for cj in chi for c in cj)
        assert _primitive(d) == _primitive(cleared(_lagrange_det_poly(start, end)))
        assert d and d[-1] != 0
        # the whole chi: sum_j c_j(t) mu^j = det(mu I - m d A(t)) at t = 2/7
        t = Fraction(2, 7)
        scale = m * math.lcm(*(x.denominator for row in start + end for x in row))
        at_t = [[scale * ((1 - t) * x + t * y) for x, y in zip(rs, re)]
                for rs, re in zip(start, end)]
        assert [sum(c * t ** i for i, c in enumerate(cj)) for cj in chi] == \
            H.char_poly_lagrange(at_t)
    d = _path_chi(LinearPath(Matrix(cases[6][0], RATIONAL), Matrix(cases[6][1], RATIONAL)))[0]
    assert d[0] == 0 and sum(d) == 0  # det vanishes at t = 0 and t = 1


def _path_chi_by_samples(start, end):
    """The c_j(t) of ``_path_chi`` by the route it took before one pencil
    polynomial: the characteristic polynomials q(u) of the integer samples
    (m - u) S + u E, u = 0..m, for start = S / d and end = E / d, give
    c_j(u / m) = q_j(u), each rebuilt from its integer forward differences."""
    m = len(start)
    d = math.lcm(*(x.denominator for row in start + end for x in row))
    s, e = ([[int(x * d) for x in row] for row in a] for a in (start, end))
    polys = [H.char_poly_faddeev([[(m - u) * x + u * y for x, y in zip(rs, re)]
                                  for rs, re in zip(s, e)]) for u in range(m + 1)]
    out = []
    for j in range(m + 1):
        values, newton = [p[j] for p in polys], []
        for k in range(m - j + 1):
            a, r = divmod(values[0], math.factorial(k))
            assert r == 0
            newton.append(a)
            values = [y - x for x, y in zip(values, values[1:])]
        q = []
        for k in range(len(newton) - 1, -1, -1):  # q <- q (u - k) + a_k
            q = [a - k * b for a, b in zip([0] + q, q + [0])]
            q[0] += newton[k]
        c = [a * m ** i for i, a in enumerate(q)]
        while c and c[-1] == 0:
            c.pop()
        out.append(c)
    return out


def test_path_chi_matches_sampled_forward_differences(rng):
    # 110 segments, m = 1..10: random rational ones, ones with singular
    # endpoints, and constant paths S = E
    for k in range(110):
        m = k % 10 + 1
        start, end = H.random_symmetric(rng, m, 6, 5), H.random_symmetric(rng, m, 6, 5)
        if k % 3 == 1:
            zeros = rng.sample(range(m), rng.randint(1, m))
            start = _congruent(_random_square(rng, m), [0 if i in zeros else rng.randint(-3, 3)
                                                        for i in range(m)])
            end = _congruent(_random_square(rng, m), [0] * (m // 2) + [1] * (m - m // 2))
        elif k % 3 == 2:
            end = start
        path = LinearPath(Matrix(start, RATIONAL), Matrix(end, RATIONAL))
        assert _path_chi(path) == _path_chi_by_samples(start, end)


def test_linear_path_derivative_built_once(rng):
    start, end = H.random_symmetric(rng, 3), H.random_symmetric(rng, 3)
    path = LinearPath(Matrix(start, RATIONAL), Matrix(end, RATIONAL))
    assert path.derivative is path.derivative
    assert path.derivative == Matrix(end, RATIONAL) - Matrix(start, RATIONAL)
    twin = LinearPath(Matrix(start, RATIONAL), Matrix(end, RATIONAL))
    assert path == twin and hash(path) == hash(twin)


def test_det_poly_identically_singular_path(rng):
    # a common kernel vector keeps every A(t) singular
    r = _random_square(rng, 3)
    while H.det_gauss(r) == 0:
        r = _random_square(rng, 3)
    start, end = _congruent(r, [0, 1, -1]), _congruent(r, [0, 2, 5])
    path = LinearPath(Matrix(start, RATIONAL), Matrix(end, RATIONAL))
    assert _path_chi(path)[0] == [] == _lagrange_det_poly(start, end)
    with pytest.raises(IrregularCrossingError):
        spectral_flow(path)


def test_single_regular_crossing():
    result = spectral_flow(LinearPath(diag(-1, 1), diag(1, 1)))
    assert result.flow == 1
    assert result.start_correction == 0 and result.end_correction == 0
    (c,) = result.crossings
    assert c.exact_location == Fraction(1, 2)
    assert c.multiplicity == 1
    assert c.regular is True
    assert (c.positive, c.negative) == (1, 0)
    assert c.signature == 1


def test_non_dyadic_crossing_location():
    start = Matrix([[-2, 0], [0, -1]], RATIONAL)
    end = Matrix([[1, 1], [1, 1]], RATIONAL)
    result = spectral_flow(LinearPath(start, end))
    assert result.flow == 2
    locs = [c.exact_location for c in result.crossings]
    assert Fraction(2, 5) in locs
    # the end matrix is singular: its kernel contributes the end correction
    assert result.end_correction == 1


def test_irrational_crossings():
    # eigenvalue branches cross at the two roots of 2t^2 - 3t + 1/2... pick
    # a pair with non-rational crossing parameters instead
    start = diag(-1, -1)
    end = Matrix([[3, 1], [1, 2]], RATIONAL)
    result = spectral_flow(LinearPath(start, end))
    assert result.flow == 2
    for c in result.crossings:
        assert c.signature == 1
        assert 0 < c.location < 1
    assert result.crossings[0].exact_location is None or \
        result.crossings[1].exact_location is None


def test_irregular_crossing_raises():
    start = Matrix([[0, -1], [-1, 0]], RATIONAL)
    end = Matrix([[1, 1], [1, 0]], RATIONAL)
    with pytest.raises(IrregularCrossingError) as exc:
        spectral_flow(LinearPath(start, end))
    assert exc.value.location == pytest.approx(0.5)


def _block_diagonal(*blocks):
    dim = sum(len(b) for b in blocks)
    out, at = [[Fraction(0)] * dim for _ in range(dim)], 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = [Fraction(x) for x in row]
        at += len(b)
    return out


def test_flow_equals_index_difference(rng):
    pairs = []
    for _ in range(20):
        dim = rng.choice([2, 3, 4])
        pairs.append((H.random_invertible_symmetric(rng, dim),
                      H.random_invertible_symmetric(rng, dim)))
    # diag(C0, C0) -> diag(C1, C1) crosses at the irrational roots of
    # det((1 - t) C0 + t C1), each with multiplicity 2
    c0, c1 = [[-1, 1], [1, -2]], [[3, 1], [1, 2]]
    pairs.append((_block_diagonal(c0, c0), _block_diagonal(c1, c1)))
    for start, end in pairs:
        a0, a1 = Matrix(start, RATIONAL), Matrix(end, RATIONAL)
        try:
            flow = spectral_flow(LinearPath(a0, a1)).flow
        except IrregularCrossingError:
            continue
        assert flow == inertia(a0).morse_index - inertia(a1).morse_index
    crossings = spectral_flow(LinearPath(a0, a1)).crossings
    assert [(c.multiplicity, c.exact_location, c.positive) for c in crossings] == [(2, None, 2)] * 2


def test_relative_morse_index():
    assert relative_morse_index(Matrix.identity(2), diag(-1, 1)) == 1
    assert relative_morse_index(diag(-1, 1), Matrix.identity(2)) == -1
    assert relative_morse_index(Matrix.identity(2), Matrix.identity(2)) == 0


def test_crossing_a_rounding_error_from_the_end_is_counted():
    # det A(t) = t^2 + t - g^2 has a root at 1 - 4.6e-17, which rounds to
    # 1.0, inside (0, 1); both ends are invertible, so the flow is
    # morse(start) - morse(end) = 1
    g = Fraction(1414213562373095, 10**15)
    start = Matrix([[0, g], [g, 1]], RATIONAL)
    end = Matrix([[1, g], [g, 2]], RATIONAL)
    result = spectral_flow(LinearPath(start, end))
    assert result.flow == 1
    assert (result.start_correction, result.end_correction) == (0, 0)
    (c,) = result.crossings
    assert c.location == 1.0 and c.exact_location is None and c.signature == 1
    assert relative_morse_index(start, end) == -1


def test_float_backend_linear_path():
    a0 = Matrix.from_numpy(np.diag([-1.0, 1.0]))
    a1 = Matrix.from_numpy(np.diag([1.0, 1.0]))
    result = spectral_flow(LinearPath(a0, a1))
    assert result.flow == 1
    assert result.backend == "float64"
    (c,) = result.crossings
    assert c.location == pytest.approx(0.5, abs=1e-9)


SEGMENTS = os.path.join(os.path.dirname(__file__), "float_flow_segments.json")


def test_float_flow_matches_the_exact_run_at_large_size():
    # three segments of size 28 and 32 with well-conditioned ends and
    # separated simple crossings, frozen with the flow and crossings of the
    # exact run; a determinant fit read them as flow -2 against 0, three
    # crossings against one, and -3 against -1, warning only of a poorly
    # conditioned fit
    with open(SEGMENTS, encoding="utf-8") as fh:
        cases = json.load(fh)
    for case in cases:
        start, end = ([[float(Fraction(x)) for x in row] for row in case[key]]
                      for key in ("start", "end"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = spectral_flow(LinearPath(Matrix.from_numpy(np.array(start)),
                                              Matrix.from_numpy(np.array(end))))
        assert result.flow == case["flow"], case["case"]
        assert len(result.crossings) == len(case["crossings"]), case["case"]
        for c, want in zip(result.crossings, case["crossings"]):
            assert (c.multiplicity, c.positive, c.negative, c.regular) == \
                (want["multiplicity"], want["positive"], want["negative"], want["regular"])
            assert abs(c.location - want["location"]) <= 1e-7


def test_banded_crossing_rule():
    # A(t) = base + t direction sampled at the ends, the midpoints and the
    # locations: counts are Morse steps to the neighbouring midpoints
    tol = 1e-8
    base, direction = np.diag([-1.0, 1.0, -2.0]), np.diag([2.0, 0.0, 3.0])
    found = [(0.5, 1), (2 / 3, 1)]
    crossings, band0, band1 = _banded_crossings(base, direction, 1.0, found, tol)
    assert (band0, band1) == (0, 0)
    assert [(c.location, c.multiplicity, c.positive, c.negative, c.regular)
            for c in crossings] == [(0.5, 1, 1, 0, True), (2 / 3, 1, 1, 0, True)]
    # a location left out: its midpoint is in the band, or a Morse step
    # between a sample and its midpoint has no band to come from
    with pytest.raises(IndeterminateError, match="^a crossing between 0.0 and 1.0 was not"):
        _banded_crossings(base, direction, 1.0, [], tol)
    with pytest.raises(IndeterminateError, match="^a crossing between 0.5 and 0.8 was not"):
        _banded_crossings(base, direction, 0.8, [(0.5, 1)], tol)
    # a location outside the band, which no Morse step crosses, is no crossing
    assert _banded_crossings(base, direction, 1.0, [(0.25, 2)] + found, tol)[0] == crossings
    # det A(t) = -(2t - 1)^2: a negative eigenvalue touches zero at t = 1/2
    # and goes back, so both Morse steps are 1 on a kernel of dimension 1
    base, direction = np.array([[0.0, -1.0], [-1.0, 0.0]]), np.array([[1.0, 2.0], [2.0, 0.0]])
    (c,), _, _ = _banded_crossings(base, direction, 1.0, [(0.5, 2)], tol)
    assert (c.multiplicity, c.positive, c.negative, c.regular) == (1, 1, 1, False)
    # float runs of degenerate crossings, irregular as on the exact backend:
    # test_irregular_crossing_raises; a congruent copy of det A(t) =
    # -(2t - 1)^3 on a kernel of dimension 1, whose triple root rounding
    # splits into one real root and a complex pair about 1e-5 away; and a
    # congruent copy of the tangency above, moved to t = 1/4 and padded by
    # a crossing at t = 1/2, whose double root splits off the axis
    cubic = ([[32, 25, 24], [25, 17, 21], [24, 21, 15]],
             [[16, 11, 28], [11, 7, 23], [28, 23, 33]])
    tangency = ([[-7, -14, 15, 29], [-14, -15, 4, 14], [15, 4, 23, 27], [29, 14, 27, 19]],
                [[-3, 16, -45, -67], [16, 51, -32, -34], [-45, -32, -39, -43],
                 [-67, -34, -43, -19]])
    cases = (((base, base + direction), [(0.5, 2)]), (cubic, [(0.5, 3)]),
             (tangency, [(0.25, 2), (0.5, 1)]))
    for (start, end), locations in cases:
        fl = LinearPath(Matrix.from_numpy(np.asarray(start, dtype=float)),
                        Matrix.from_numpy(np.asarray(end, dtype=float)))
        assert [(pytest.approx(t, abs=1e-4), c) for t, c in locations] == \
            _linear_locations_float(fl, default_tolerance(fl.end.max_abs()))
        for path in (LinearPath(*(Matrix([[Fraction(x) for x in row] for row in m], RATIONAL)
                                  for m in (np.asarray(start).tolist(), np.asarray(end).tolist()))),
                     fl):
            with pytest.raises(IrregularCrossingError, match="degenerate crossing form$") as exc:
                spectral_flow(path)
            assert exc.value.location == pytest.approx(locations[0][0], abs=1e-4)


def test_float_end_kernels_take_the_crossing_form():
    # an end with an eigenvalue in the band is counted on its kernel by the
    # crossing form, as the exact backend counts it, not by the Morse step
    # to the next sample: here the form is degenerate on the kernel, and the
    # two differ
    start, end = diag(0, 0, 1), Matrix([[1, 0, 0], [0, 0, 1], [0, 1, 1]], RATIONAL)
    exact = spectral_flow(LinearPath(start, end))
    fl_start, fl_end = (Matrix.from_numpy(m.to_numpy()) for m in (start, end))
    result = spectral_flow(LinearPath(fl_start, fl_end))
    counts = _kernel_counts_float(fl_start, (fl_end - fl_start).to_numpy(), default_tolerance(1))
    assert (result.flow, result.start_correction, result.end_correction) == \
        (exact.flow, exact.start_correction, exact.end_correction) == (0, counts[2], 0)
    assert inertia(start).morse_index - inertia(end).morse_index == -1
    # both ends singular: the locations come from an interior base point
    start, end = diag(0, 1, -1), diag(1, 0, 2)
    exact = spectral_flow(LinearPath(start, end))
    result = spectral_flow(LinearPath(*(Matrix.from_numpy(m.to_numpy()) for m in (start, end))))
    assert (result.flow, result.start_correction, result.end_correction) == \
        (exact.flow, exact.start_correction, exact.end_correction) == (1, 0, 0)
    assert [(c.location, c.positive, c.negative) for c in result.crossings] == \
        [(pytest.approx(1 / 3, abs=1e-12), 1, 0)]
    # B = diag(1, 0): G vanishes on ker B, so the start correction is 0
    for b, s_max in ((diag(1, 0), Fraction(1)), (Matrix.from_numpy(np.diag([1.0, 0.0])), 1.0)):
        result = spectral_flow(KreinPath(b, s_max))
        assert (result.flow, result.start_correction, result.crossings) == (0, 0, ())


def test_float_krein_refuses_a_pseudo_singular_sample():
    # S^T C S for the symplectic shear S = [[I, 30 I], [0, I]] and C with the
    # frequency 1 of both Krein signs coupled by 1e-4: J B has eigenvalues
    # +-1e-4 +- i, off the axis by more than the tolerance 9e-6, and
    # S^T C S + s G = S^T (C + s G) S has its smallest eigenvalue at s = 1
    # shrunk to about 2e-7, inside the band; the exact flow is 0
    rows = [[1, "1/10000", 30, "3/1000"], ["1/10000", -1, "3/1000", -30],
            [30, "3/1000", 901, "899/10000"], ["3/1000", -30, "899/10000", -901]]
    exact = Matrix(rows, RATIONAL)
    b = Matrix.from_numpy(exact.to_numpy())
    assert spectral_flow(KreinPath(b, 0.5)).flow == 0
    with pytest.raises(IndeterminateError, match="singular at s_max = 1.0$"):
        spectral_flow(KreinPath(b, 1.0))
    with pytest.raises(IndeterminateError, match="^a crossing between 0.0 and 2.0 was not"):
        spectral_flow(KreinPath(b, 2.0))
    assert spectral_flow(KreinPath(exact, Fraction(1))).flow == 0


def test_path_validation():
    with pytest.raises(ValueError):
        LinearPath(Matrix.identity(2), Matrix.identity(3))
    with pytest.raises(ValueError):
        LinearPath(Matrix.identity(2),
                   Matrix.from_numpy(np.eye(2)))


def test_paths_refuse_nonfinite_input():
    # a non-finite entry used to pass the symmetry test with an infinite
    # default tolerance and fail later inside numpy; s_max = inf gave flow 0
    for value in (math.inf, -math.inf, math.nan):
        bad = Matrix([[1.0, value], [0.0, 1.0]], FLOAT64)
        for make in (lambda: KreinPath(bad, 1.0),
                     lambda: LinearPath(bad, Matrix.identity(2, FLOAT64)),
                     lambda: LinearPath(Matrix.identity(2, FLOAT64), bad)):
            with pytest.raises(ValueError, match="^matrix has a non-finite entry$"):
                make()
    one = Matrix.identity(2, FLOAT64)
    for b, s_max in ((one, math.inf), (one, math.nan), (one, -math.inf), (one, 0.0),
                     (Matrix.identity(2), Fraction(-1)), (Matrix.identity(2), Fraction(10**400))):
        with pytest.raises(ValueError, match="^s_max must be a finite number > 0, got "):
            KreinPath(b, s_max)
    assert spectral_flow(KreinPath(one, 3.0)).flow == -1


@pytest.mark.parametrize("tol", [math.inf, math.nan, -math.inf, -1.0])
def test_library_tol_must_be_finite_and_nonnegative(tol):
    # tol = inf used to count diag(1, -1) as IndexReport(0, 2, 0), and
    # tol = nan gave rank 0
    b = Matrix([[1.0, 0.0], [0.0, -1.0]], FLOAT64)
    calls = (inertia, kernel, rank, classify,
             lambda m, tol: spectral_flow(KreinPath(m, 3.0), tol=tol),
             lambda m, tol: spectral_flow(LinearPath(m, -m), tol=tol))
    for call in calls:
        with pytest.raises(ValueError, match="^tol must be a finite number >= 0, got "):
            call(b, tol=tol)
        call(b, tol=1e-12)


@pytest.mark.parametrize("tol", [True, False])
def test_library_tol_refuses_booleans(tol):
    # a bool is an int to Python: tol=True was kept as the tolerance and
    # tol=False ran as tolerance 0; every other input check refuses it
    b = Matrix([[1.0, 0.0], [0.0, -1.0]], FLOAT64)
    calls = (inertia, kernel, rank, classify, is_semisimple, kappa_identity_check,
             lambda m, tol: m.is_symmetric(tol),
             lambda m, tol: crossing_set(m, 3.0, tol=tol),
             lambda m, tol: spectral_flow(KreinPath(m, 3.0), tol=tol),
             lambda m, tol: spectral_flow(LinearPath(m, -m), tol=tol))
    for call in calls:
        with pytest.raises(ValueError, match="^tol must be a finite number >= 0, got "):
            call(b, tol=tol)
        call(b, tol=1e-12)


@pytest.mark.parametrize("tol", [True, -1.0, math.nan])
def test_explicit_tol_is_refused_before_a_nonfinite_matrix(tol):
    # the float predicates refused the tol first but inertia, classify and
    # the path functions refused the non-finite matrix first
    bad = Matrix([[1.0, math.nan], [math.nan, 1.0]], FLOAT64)
    skew = Matrix([[0.0, math.inf], [-math.inf, 0.0]], FLOAT64)
    one = Matrix.identity(2, FLOAT64)
    calls = (lambda: bad.is_symmetric(tol), lambda: bad.is_skew_symmetric(tol),
             lambda: skew.is_skew_symmetric(tol), lambda: inertia(bad, tol=tol),
             lambda: classify(bad, tol=tol), lambda: classify(one, omega=skew, tol=tol),
             lambda: relative_morse_index(bad, one, tol=tol),
             lambda: relative_morse_index(one, bad, tol=tol),
             lambda: crossing_set(bad, 3.0, tol=tol))
    for call in calls:
        with pytest.raises(ValueError, match="^tol must be a finite number >= 0, got "):
            call()


def test_float_entries_whose_symmetric_part_overflows_are_refused():
    # (A + A^T) / 2 of an entry near 1e308 overflowed: classify then refused
    # a nan tolerance nobody gave, and a linear path ran on after warnings
    big, one = 1e308, Matrix.identity(2, FLOAT64)
    calls = (classify, inertia, lambda m: classify(one, omega=m),
             lambda m: LinearPath(m, one), lambda m: LinearPath(one, m),
             lambda m: KreinPath(m, 1.0), lambda m: relative_morse_index(m, one),
             lambda m: crossing_set(m, 1.0), kappa_identity_check)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rows in ([[big, 0.0], [0.0, big]], [[-big, 0.0], [0.0, 1.0]],
                     [[0.0, big], [big, 0.0]], [[0.0, -big], [big, 0.0]]):
            m = Matrix(rows, FLOAT64)
            assert not m.is_symmetric() and not m.is_skew_symmetric()
            for tol in (None, 0.0, 1e300):
                assert not m.is_symmetric(tol) and not m.is_skew_symmetric(tol)
            for call in calls:
                with pytest.raises(SymmetryError):
                    call(m)
        # half the largest float still has a finite symmetric part
        ok = Matrix([[8e307, 0.0], [0.0, 8e307]], FLOAT64)
        assert ok.is_symmetric()
        assert classify(ok).verdict == Verdict.LINEARLY_STABLE
        assert inertia(ok).coindex == 2


def test_paths_keep_the_symmetric_part_of_their_matrices():
    # a float matrix asymmetric within tol enters a path as (A + A^T) / 2,
    # so the flow never reads its raw lower triangle; exact input is kept
    gen = np.random.default_rng(7)

    def near(diagonal):
        a = np.diag(diagonal) + gen.standard_normal((len(diagonal),) * 2) * 1e-12
        return Matrix(a.tolist(), FLOAT64), (a + a.T) / 2

    (s, s_sym), (e, e_sym), (b, b_sym) = (
        near([1.0, -1.0, 2.0, -2.0]), near([-1.0, 2.0, -3.0, 1.0]), near([1.0, 2.0, 3.0, 1.0]))
    assert not np.array_equal(s.to_numpy(), s_sym)
    path, krein = LinearPath(s, e), KreinPath(b, 3.0)
    for got, want in ((path.start, s_sym), (path.end, e_sym), (krein.b, b_sym)):
        assert got.to_numpy().tobytes() == want.tobytes()
    sym = [Matrix(x.tolist(), FLOAT64) for x in (s_sym, e_sym, b_sym)]
    flow = spectral_flow(path)
    assert len(flow.crossings) == 4
    assert flow == spectral_flow(LinearPath(sym[0], sym[1]))
    assert spectral_flow(krein) == spectral_flow(KreinPath(sym[2], 3.0))
    crossings = crossing_set(b, 3.0)
    assert len(crossings) == 2
    assert crossings == crossing_set(sym[2], 3.0)
    exact = [diag(1, -1), diag(-1, 2), diag(1, 2, 3, 1)]
    path, krein = LinearPath(exact[0], exact[1]), KreinPath(exact[2], Fraction(3))
    assert (path.start, path.end, krein.b) == tuple(exact)
    assert path.start is exact[0] and path.end is exact[1] and krein.b is exact[2]


# ---------------------------------------------------------------------------
# Krein deformation paths


def test_krein_path_identity():
    result = spectral_flow(KreinPath(Matrix.identity(2), Fraction(2)))
    assert result.flow == -1
    (c,) = result.crossings
    assert c.exact_location == Fraction(1)
    assert c.signature == -1


def test_krein_start_correction_with_kernel():
    # ker B = span{e1, e3}; the Krein form restricted there has one negative
    # direction, so the start contributes one unit on top of the s=1 crossing
    b = diag(0, 1, 0, 1)
    result = spectral_flow(KreinPath(b, Fraction(3)))
    assert result.start_correction == 1
    (c,) = result.crossings
    assert c.exact_location == Fraction(1) and c.signature == -1
    assert result.flow == -1 - result.start_correction


def _krein_morse(rows, s) -> int:
    """morse(B + s iJ) from the real form [[B, -s J], [s J, B]] of the
    Hermitian matrix, which has each of its eigenvalues twice."""
    dim = len(rows)
    sj = [[s * int(x) for x in row] for row in H.standard_j(dim // 2)]
    real = [list(rows[i]) + [-x for x in sj[i]] for i in range(dim)] + \
        [sj[i] + list(rows[i]) for i in range(dim)]
    neg, _, _ = H.inertia_congruence(real)
    assert neg % 2 == 0
    return neg // 2


def test_krein_flow_matches_the_index_difference(rng):
    # flow = morse(B) - morse(B + s_max iJ) on pair-diagonal B with repeated
    # frequencies, both Krein signs, zero blocks and real pairs, with s_max
    # on a crossing, 1e-13 below and above one, just above sqrt(2) and
    # between crossings; the nilpotent (0, c) block is left out, its s = 0
    # crossing is irregular
    pairs = [(1, 1), (1, 4), (4, 1), (2, 2), (1, 2), (-1, -9), (-2, -2), (0, 0),
             (1, -1), (2, -3)]
    near = Fraction(1, 10**13)
    ends = [Fraction(c) + d for c in (1, 2, 3) for d in (0, -near, near)] + \
        [Fraction(141421356237310, 10**14), Fraction(3, 2), Fraction(5, 2), Fraction(7, 2)]
    cases = [H.pair_diagonal(rng.choices(pairs, k=rng.choice([1, 2, 3]))) for _ in range(30)]
    # dense B = R^T D R: the roots x = -s^2 of r are irrational, so the
    # crossing signs come from Tarski queries on their isolating intervals
    scales = [Fraction(1, 4), Fraction(1, 2), 1, Fraction(-1, 4), Fraction(-1, 2)]
    cases += [_congruent(_random_square(rng, dim), rng.choices(scales, k=dim))
              for dim in (4, 4, 4, 6, 6, 6)]
    for rows in cases:
        b = Matrix(rows, RATIONAL)
        morse_b = H.inertia_congruence(rows)[0]
        for s_max in ends:
            result = spectral_flow(KreinPath(b, s_max))
            assert result.flow == morse_b - _krein_morse(rows, s_max), (rows, s_max)
            assert all(0 < c.exact_location < s_max for c in result.crossings
                       if c.exact_location is not None)


def _refuse(*args, **kwargs):
    raise AssertionError("an exact flow called a float eigenvalue routine")


def test_exact_flows_take_no_float_step(monkeypatch):
    # every count of an exact flow is read off det(mu I - A(t)): with eigh
    # and eigvalsh refused, the flows return or raise as before
    monkeypatch.setattr(np.linalg, "eigh", _refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", _refuse)
    # k^2 = 2 I, so blocks that are polynomials in k act as numbers of
    # Q(sqrt 2): q = 2 I + k gives the frequencies^2 2 +- sqrt 2, and
    # w = I + k the frequencies 1 +- sqrt 2
    q, mq = [[3, 1], [1, 1]], [[-3, -1], [-1, -1]]
    one, neg, zero = [[1, 0], [0, 1]], [[-1, 0], [0, -1]], [[0, 0], [0, 0]]
    w, mw = [[2, 1], [1, 0]], [[-2, -1], [-1, 0]]
    # B0(w) = [[1, 0, 0, -w], [0, 1, w, 0], [0, w, 0, 0], [-w, 0, 0, 0]]:
    # J B0 has a 2 x 2 Jordan block at each of +-i w
    blocks = [[one, zero, zero, mw], [zero, one, w, zero], [zero, w, zero, zero],
              [mw, zero, zero, zero]]
    defect = [[blocks[i // 2][j // 2][i % 2][j % 2] for j in range(8)] for i in range(8)]
    krein = [  # (B, s_max, flow, (multiplicity, positive, negative) per crossing)
        (_block_diagonal(one, q), 3, -2, [(1, 0, 1)] * 2),
        (_block_diagonal(one, neg, q, mq), 3, 0, [(2, 1, 1)] * 2),
        (_block_diagonal(one, one, neg, q, q, mq), 3, -2, [(3, 1, 2)] * 2),
        (diag(1, 1, -1, 1, 1, -1).to_lists(), 2, -1, [(3, 1, 2)]),
        (diag(1, Fraction(1, 10**24)).to_lists(), 1, -1, [(1, 0, 1)]),
        ([[1, 0, 0, -1], [0, 1, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], 3, None, None),
        (defect, 3, None, None),
    ]
    for rows, s_max, flow, counts in krein:
        path = KreinPath(Matrix(rows, RATIONAL), Fraction(s_max))
        if flow is None:
            with pytest.raises(IrregularCrossingError):
                spectral_flow(path)
            assert not all(c.regular for c in crossing_set(path.b, path.s_max))
            continue
        result = spectral_flow(path)
        assert result.flow == flow
        assert [(c.multiplicity, c.positive, c.negative) for c in result.crossings] == counts
    c0, c1 = [[-1, 1], [1, -2]], [[3, 1], [1, 2]]
    linear = [  # (start, end, flow, (multiplicity, exact location) per crossing)
        (diag(-1, -1, -1).to_lists(), diag(1, 1, 1).to_lists(), 3, [(3, Fraction(1, 2))]),
        (diag(-1, -1).to_lists(), c1, 2, [(1, None)] * 2),
        (_block_diagonal(c0, c0, c0), _block_diagonal(c1, c1, c1), 6, [(3, None)] * 2),
        ([[0, -1], [-1, 0]], [[1, 1], [1, 0]], None, None),
    ]
    for start, end, flow, crossings in linear:
        path = LinearPath(Matrix(start, RATIONAL), Matrix(end, RATIONAL))
        if flow is None:
            with pytest.raises(IrregularCrossingError):
                spectral_flow(path)
            continue
        result = spectral_flow(path)
        assert result.flow == flow
        assert [(c.multiplicity, c.exact_location) for c in result.crossings] == crossings


def test_krein_form_matches_entrywise_loop():
    for n in range(12):
        g, ref = krein_form(n), H.krein_form_loop(n)
        assert (g.dtype, g.shape) == (ref.dtype, ref.shape)
        assert g.tobytes() == ref.tobytes()


def test_zero_crossing_gives_the_start_correction(rng):
    # singular pair-diagonal B, plain and sheared to R^T B R by a unit upper
    # triangular R, on both backends: the s = 0 entry of crossing_set is the
    # Krein start correction, and over the rationals each of its counts,
    # taken from rank B and rank(B J B), is rank(Z^T J Z) / 2 on a kernel
    # basis Z
    pairs = [(0, 0), (0, 1), (0, 3), (2, 0), (1, 1), (2, 2), (-1, -9), (1, -1)]
    checked = 0
    for _ in range(20):
        rows = H.pair_diagonal(rng.choices(pairs, k=rng.choice([1, 2, 3])))
        dim = len(rows)
        if H.kernel_dim_gauss(rows) == 0:
            continue
        r = [[int(i == j) if i >= j else rng.randint(-2, 2) for j in range(dim)]
             for i in range(dim)]
        j_rows = [[int(x) for x in row] for row in H.standard_j(dim // 2)]
        for b_rows in (rows, _congruent(r, [rows[i][i] for i in range(dim)])):
            for backend in (RATIONAL, FLOAT64):
                b = Matrix(b_rows, RATIONAL)
                s_max = Fraction(5, 2)
                if backend == FLOAT64:
                    b, s_max = Matrix.from_numpy(b.to_numpy()), float(s_max)
                zero = crossing_set(b, s_max)[0]
                assert zero.location == 0.0
                assert zero.multiplicity == H.kernel_dim_gauss(b_rows)
                assert zero.negative == spectral_flow(KreinPath(b, s_max)).start_correction
                if backend == RATIONAL:
                    basis = kernel(b).basis
                    skew_rank = len(basis) - H.kernel_dim_gauss(H.gram_fraction(j_rows, basis))
                    assert zero.positive == zero.negative == skew_rank // 2
                checked += 1
    assert checked > 20


def test_crossing_set_is_descriptive():
    crossings = crossing_set(diag(0, 0), Fraction(1))
    assert len(crossings) == 1
    c = crossings[0]
    assert c.location == 0.0
    assert c.multiplicity == 2


def test_crossing_set_tiny_frequencies():
    # J B has eigenvalues +-i sqrt(b_2); the crossing sits at s = sqrt(b_2)
    (c,) = crossing_set(diag(1, Fraction(1, 10**24)), Fraction(1))
    assert c.location == pytest.approx(1e-12, rel=1e-15)
    # the crossing form -2e-12 is definite: the crossing is regular
    assert (c.regular, c.multiplicity, c.positive, c.negative) == (True, 1, 0, 1)
    (c,) = crossing_set(diag(1, Fraction(1, 10**10)), Fraction(1))
    assert c.exact_location == Fraction(1, 10**5)


def test_crossing_set_agrees_with_spectral_flow(rng):
    # frequencies 1, 2 (twice), 3 with the other Krein sign, a nilpotent
    # block and a real pair; no s_max sits on a crossing
    pairs = [(1, 1), (1, 4), (2, 2), (-1, -9), (0, 3), (1, -1)]
    found = 0
    for backend in (RATIONAL, FLOAT64):
        for _ in range(8):
            b = Matrix(H.pair_diagonal(rng.choices(pairs, k=rng.choice([1, 2, 3]))), RATIONAL)
            if backend == FLOAT64:
                b = Matrix.from_numpy(b.to_numpy())
            for s_max in (Fraction(3, 2), Fraction(5, 2), Fraction(7, 2)):
                s_max = s_max if backend == RATIONAL else float(s_max)
                inner = [c for c in crossing_set(b, s_max) if c.location > 0]
                assert inner == list(spectral_flow(KreinPath(b, s_max)).crossings)
                found += len(inner)
    assert found > 0


def test_krein_flow_and_kappa_match_the_public_pair(rng):
    # the shared classification gives the flow and the kappa check of the
    # two public calls, on both backends, with and without a tolerance
    pairs = [(1, 1), (1, 4), (2, 2), (-1, -9), (0, 3), (0, 0), (1, -1)]
    for backend in (RATIONAL, FLOAT64):
        for _ in range(8):
            rows = H.pair_diagonal(rng.choices(pairs, k=rng.choice([1, 2, 3])))
            b = Matrix(rows, RATIONAL)
            b = b if backend == RATIONAL else Matrix.from_numpy(b.to_numpy())
            for s_max, tol in ((Fraction(5, 2), None), (Fraction(7, 2), 1e-6)):
                path = KreinPath(b, s_max if backend == RATIONAL else float(s_max))
                try:
                    expected = (spectral_flow(path, tol), kappa_identity_check(b, tol))
                except (RuntimeError, ValueError) as e:
                    with pytest.raises(type(e)):
                        _krein_flow_and_kappa(path, tol)
                    continue
                assert _krein_flow_and_kappa(path, tol) == expected


def test_crossing_set_never_raises_on_irregular():
    # crossing_set reports degenerate crossings instead of raising
    b = diag(0, 0)
    crossings = crossing_set(b, Fraction(2))
    assert all(isinstance(c.regular, bool) for c in crossings)


# ---------------------------------------------------------------------------
# the counting identity


def test_kappa_identity_stable_case():
    k = kappa_identity_check(Matrix.identity(2))
    assert (k.n, k.kappa, k.nullity) == (1, 1, 0)
    assert k.holds is True
    assert k.classification.verdict == Verdict.LINEARLY_STABLE


def test_kappa_identity_degenerate_case():
    k = kappa_identity_check(Matrix.zeros(2, 2))
    assert (k.n, k.kappa, k.nullity) == (1, 0, 2)
    assert k.holds is True


def test_kappa_identity_fails_off_identity():
    b = Matrix.diagonal([-2, -1, 1, -1, 0, 0])
    k = kappa_identity_check(b)
    assert k.n == 3
    assert k.kappa == H.kappa_float(b.to_lists())
    assert k.holds is False


def test_float_kappa_refuses_a_broken_identity_under_linear_stability():
    # B = diag(1, 1e-12): J B has eigenvalues +-1e-6 i, outside the default
    # band, so kappa = 1, while the band puts 1e-12 in the kernel of B, so
    # nullity 1; n = kappa + nullity/2 holds under linear stability, so the
    # linearly stable float verdict and these counts cannot all be right
    b = Matrix.from_numpy(np.diag([1.0, 1e-12]))
    assert classify(b).verdict == Verdict.LINEARLY_STABLE
    with pytest.raises(IndeterminateError, match="linearly_stable"):
        kappa_identity_check(b)
    # a band below 1e-12 counts both right, and the identity holds
    k = kappa_identity_check(b, tol=1e-13)
    assert (k.n, k.kappa, k.nullity, k.holds) == (1, 1, 0, True)
    # under another verdict a broken identity is reported, not refused
    k = kappa_identity_check(Matrix.from_numpy(np.diag([-2.0, -1, 1, -1, 0, 0])))
    assert k.holds is False
    assert k.classification.verdict == Verdict.SPECTRALLY_STABLE_NOT_LINEAR
    # B = diag(1, 1e-14): +-1e-7 i are outside the band of 2e-8 but within
    # ten times it, too close to zero to count in kappa or in the kernel
    with pytest.raises(IndeterminateError, match="^eigenvalues too close to zero"):
        kappa_identity_check(Matrix.from_numpy(np.diag([1.0, 1e-14])))


def test_kappa_matches_float_oracle(rng):
    for _ in range(20):
        n = rng.choice([1, 2])
        rows = H.random_symmetric(rng, 2 * n)
        b = Matrix(rows, RATIONAL)
        k = kappa_identity_check(b)
        assert k.kappa == H.kappa_float(rows)
