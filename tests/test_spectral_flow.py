from fractions import Fraction

import numpy as np
import pytest

import helpers as H
from relequil.matrix_core import FLOAT64, RATIONAL, Matrix, inertia
from relequil.spectral_flow import (
    IrregularCrossingError,
    KreinPath,
    LinearPath,
    crossing_set,
    kappa_identity_check,
    krein_signature,
    relative_morse_index,
    spectral_flow,
)
from relequil.spectral_flow import _det_poly_exact
from relequil.stability import Verdict


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
        d = _det_poly_exact(path)
        assert d == _lagrange_det_poly(start, end)
        assert d and d[-1] != 0
    d = _det_poly_exact(LinearPath(Matrix(cases[6][0], RATIONAL), Matrix(cases[6][1], RATIONAL)))
    assert d[0] == 0 and sum(d) == 0  # det vanishes at t = 0 and t = 1


def test_det_poly_identically_singular_path(rng):
    # a common kernel vector keeps every A(t) singular
    r = _random_square(rng, 3)
    while H.det_gauss(r) == 0:
        r = _random_square(rng, 3)
    start, end = _congruent(r, [0, 1, -1]), _congruent(r, [0, 2, 5])
    path = LinearPath(Matrix(start, RATIONAL), Matrix(end, RATIONAL))
    assert _det_poly_exact(path) == [] == _lagrange_det_poly(start, end)
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


def test_flow_equals_index_difference(rng):
    for _ in range(20):
        dim = rng.choice([2, 3, 4])
        a0 = Matrix(H.random_invertible_symmetric(rng, dim), RATIONAL)
        a1 = Matrix(H.random_invertible_symmetric(rng, dim), RATIONAL)
        try:
            flow = spectral_flow(LinearPath(a0, a1)).flow
        except IrregularCrossingError:
            continue
        assert flow == inertia(a0).morse_index - inertia(a1).morse_index


def test_relative_morse_index():
    assert relative_morse_index(Matrix.identity(2), diag(-1, 1)) == 1
    assert relative_morse_index(diag(-1, 1), Matrix.identity(2)) == -1
    assert relative_morse_index(Matrix.identity(2), Matrix.identity(2)) == 0


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
                b = b.to_float()
            for s_max in (Fraction(3, 2), Fraction(5, 2), Fraction(7, 2)):
                s_max = s_max if backend == RATIONAL else float(s_max)
                inner = [c for c in crossing_set(b, s_max) if c.location > 0]
                assert inner == list(spectral_flow(KreinPath(b, s_max)).crossings)
                found += len(inner)
    assert found > 0


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
