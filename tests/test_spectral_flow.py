import math
from fractions import Fraction

import numpy as np
import pytest

import helpers as H
from relequil.matrix_core import FLOAT64, RATIONAL, Matrix, inertia, kernel, rank
from relequil.rational_poly import cleared
from relequil.spectral_flow import (
    IrregularCrossingError,
    KreinPath,
    LinearPath,
    crossing_set,
    kappa_identity_check,
    krein_form,
    krein_signature,
    relative_morse_index,
    spectral_flow,
)
from relequil.spectral_flow import _krein_flow_and_kappa, _path_chi
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
    # Krein start correction, and over the rationals each of its counts is
    # rank(Z^T J Z) / 2 on its kernel basis Z
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


def test_kappa_matches_float_oracle(rng):
    for _ in range(20):
        n = rng.choice([1, 2])
        rows = H.random_symmetric(rng, 2 * n)
        b = Matrix(rows, RATIONAL)
        k = kappa_identity_check(b)
        assert k.kappa == H.kappa_float(rows)


# ---------------------------------------------------------------------------
# Krein signature of invariant subspaces


def test_krein_signature_flags_negative_energy():
    from relequil.matrix_core import Subspace

    s = Subspace(2, ((1.0, -1j),))
    report = krein_signature(s)
    assert (report.positive, report.negative) == (0, 1)
    assert report.signature == -1
    assert report.parity == 1
    assert report.nondegenerate is True
