from fractions import Fraction

import numpy as np
import pytest

import helpers as H
from relequil import matrix_core
from relequil.matrix_core import (
    FLOAT64,
    RATIONAL,
    Matrix,
    ShapeError,
    SingularMatrixError,
    Subspace,
    SymmetryError,
    char_poly,
    complex_spectrum,
    inertia,
    is_semisimple,
    minimal_poly,
    rank,
    solve_exact,
    standard_symplectic,
)
from relequil.stability import (
    HypothesisFailure,
    KernelNotInvariantError,
    Verdict,
    block_normal_form,
    classify,
    invariant_split,
    invertible_even_index_check,
    kernel_invariance_test,
    parity_verdict,
    spectral_instability_certificate,
    theorem_predict,
)
from relequil.rational_poly import cleared, mul, quotient, squarefree_decomposition
from relequil.spectral_flow import kappa_identity_check
from relequil.stability import _axis_factors, _even_yun, _omega_b

COUNTEREXAMPLE = Matrix.diagonal([-2, -1, 1, -1, 0, 0])


# ---------------------------------------------------------------------------
# classification


def test_counterexample_classification():
    cls = classify(COUNTEREXAMPLE)
    assert cls.verdict == Verdict.SPECTRALLY_STABLE_NOT_LINEAR
    assert cls.spectrum_on_axis is True
    assert cls.semisimple is False
    assert cls.defective_eigenvalue == 0j
    assert cls.tol == 0


def test_counterexample_indices():
    report = inertia(COUNTEREXAMPLE)
    assert report.morse_index == 3
    assert report.nullity == 2
    pred = theorem_predict(COUNTEREXAMPLE)
    assert pred.predicts_instability is True
    assert pred.reason == "odd_index"


def test_classify_spectrally_unstable():
    cls = classify(Matrix.diagonal([1, -1]))
    assert cls.verdict == Verdict.SPECTRALLY_UNSTABLE
    assert cls.offending_eigenvalue is not None
    assert cls.offending_eigenvalue.real != 0


def test_classify_factors_char_poly_once(monkeypatch):
    from relequil import matrix_core, stability

    calls = []
    for mod in (matrix_core, stability):
        def counted(a, _original=mod.char_poly):
            calls.append(a)
            return _original(a)

        monkeypatch.setattr(mod, "char_poly", counted)
    # J B has the real pair -1, 1 and the imaginary pair +-2i
    cls = classify(Matrix.diagonal([1, 4, -1, 1]))
    assert cls.verdict == Verdict.SPECTRALLY_UNSTABLE
    assert abs(cls.offending_eigenvalue.real) == pytest.approx(1.0)
    assert len(calls) == 1


def _sheared(rng, rows):
    """S^T B S for the symplectic shear S = [[I, X], [0, I]], X symmetric:
    J S^T B S is similar to J B."""
    n = len(rows) // 2
    x = H.random_symmetric(rng, n, num=2, den=2)
    s = [[Fraction(int(i == j)) for j in range(2 * n)] for i in range(2 * n)]
    for i in range(n):
        for j in range(n):
            s[i][n + j] = x[i][j]
    m = Matrix(s, RATIONAL)
    return m.T @ Matrix(rows, RATIONAL) @ m


def test_axis_test_and_kappa_match_frozen_oracles(rng):
    # structured B: zero, nilpotent, repeated frequencies, unstable, and the
    # counterexample; then seeded random B, mostly unstable, and sheared pair
    # diagonals with zero, imaginary, real and repeated pairs
    cases = [Matrix.zeros(4, 4), Matrix.diagonal([2, 0]), Matrix.diagonal([0, 2, 0, 0]),
             Matrix(H.pair_diagonal([(1, 4), (2, 2), (-1, -4)]), RATIONAL),
             Matrix.diagonal([1, 4, -1, 1]), COUNTEREXAMPLE]
    cases += [Matrix(H.random_symmetric(rng, 2 * rng.choice([1, 2, 3])), RATIONAL)
              for _ in range(20)]
    products = [(1, 1), (1, 4), (2, 2), (-1, -1), (0, 3), (0, 0), (1, -1)]
    cases += [_sheared(rng, H.pair_diagonal(rng.choices(products, k=rng.choice([1, 2, 3]))))
              for _ in range(20)]
    seen = set()
    for b in cases:
        p = H.char_poly_lagrange((standard_symplectic(b.n_rows // 2) @ b).to_lists())
        cls = classify(b)
        assert cls.spectrum_on_axis == H.on_axis_even_part(p)
        assert kappa_identity_check(b).kappa == H.kappa_even_part(p)
        seen.add(cls.verdict)
    assert len(seen) == 3


def test_even_yun_is_the_yun_decomposition_of_p(rng):
    # the Yun factors of p(x) = r(x^2) built from those of r are the ones
    # Yun's algorithm finds on p, coefficient for coefficient
    products = [(1, 1), (1, 4), (2, 2), (-1, -1), (0, 3), (0, 0), (1, -1)]
    cases = [Matrix.zeros(4, 4), Matrix.diagonal([2, 0]), COUNTEREXAMPLE,
             Matrix(H.pair_diagonal([(0, 0), (0, 2), (0, 0), (1, 1)]), RATIONAL)]
    cases += [Matrix(H.random_symmetric(rng, 2 * rng.choice([1, 2, 3])), RATIONAL)
              for _ in range(20)]
    cases += [_sheared(rng, H.pair_diagonal(rng.choices(products, k=rng.choice([1, 2, 3, 4]))))
              for _ in range(40)]
    for b in cases:
        p = char_poly(standard_symplectic(b.n_rows // 2) @ b)
        assert _even_yun(_axis_factors(p)) == squarefree_decomposition(cleared(p))


def _semisimple_reference(rows) -> bool:
    m = H.minimal_poly_fraction(rows)
    return len(H._poly_gcd(m, H._derivative(m))) <= 1


def test_classify_semisimple_matches_minimal_poly_reference(rng):
    # sheared pair diagonals with equal frequencies, nilpotent pairs, zero
    # pairs and real pairs, plus a Krein collision: J B with a Jordan block
    # at each of +-i sqrt 3
    collision = Matrix([[0, 2, -1, 0], [2, -1, -1, -1], [-1, -1, -2, 2], [0, -1, 2, 0]],
                       RATIONAL)
    products = [(1, 4), (2, 2), (4, 1), (1, 1), (0, 3), (2, 0), (0, 0), (1, -1)]
    cases = [collision] + [
        _sheared(rng, H.pair_diagonal(rng.choices(products, k=rng.choice([1, 2, 3]))))
        for _ in range(80)]
    seen = set()
    for b in cases:
        jb = standard_symplectic(b.n_rows // 2) @ b
        cls = classify(b)
        seen.add(cls.verdict)
        if not cls.spectrum_on_axis:
            continue
        assert cls.semisimple is _semisimple_reference(jb.to_lists())
        report = is_semisimple(jb)
        assert cls.semisimple is report.semisimple
        assert cls.defective_eigenvalue == (report.defective_eigenvalues or (None,))[0]
    assert seen == {Verdict.LINEARLY_STABLE, Verdict.SPECTRALLY_STABLE_NOT_LINEAR,
                    Verdict.SPECTRALLY_UNSTABLE}
    cls = classify(collision)
    assert cls.verdict == Verdict.SPECTRALLY_STABLE_NOT_LINEAR
    assert abs(cls.defective_eigenvalue) == pytest.approx(3 ** 0.5)


def test_classify_spectrum_is_that_of_omega_b(rng):
    for _ in range(12):
        n = rng.choice([1, 2])
        b = Matrix(H.random_symmetric(rng, 2 * n), RATIONAL)
        q = Matrix(H.random_invertible_symmetric(rng, 2 * n), RATIONAL)
        omega = q @ standard_symplectic(n) @ q.T
        assert classify(b, omega=omega).spectrum == complex_spectrum(omega @ b)
        assert classify(b).spectrum == complex_spectrum(standard_symplectic(n) @ b)


def _bits(z):
    return None if z is None else (z.real.hex(), z.imag.hex())


def test_classify_display_is_the_exact_spectrum_of_its_factors(rng):
    # pair-block B = S^T D S of each verdict, and B' = Q^-1 B Q^-1 with
    # Omega = Q J Q for a rational diagonal Q, so that Omega B' = Q (J B) Q^-1
    # has the verdict of J B.  Equality and the verdict read no display; the
    # display read afterwards is, bit for bit, _exact_spectrum of the Yun
    # factors of p, and of m / s for a defective Omega B, and is kept
    products = [(1, 4), (2, 2), (0, 3), (0, 0), (1, -1)]
    display = {"spectrum", "offending_eigenvalue", "defective_eigenvalue"}
    seen = set()
    for _ in range(16):
        b = _sheared(rng, H.pair_diagonal(rng.choices(products, k=rng.choice([1, 2, 3]))))
        n = b.n_rows // 2
        q = [H.random_fraction(rng, 3, 4) or Fraction(1) for _ in range(2 * n)]
        q_inv = Matrix.diagonal([1 / x for x in q])
        for b_used, omega in ((b, None),
                              (q_inv @ b @ q_inv,
                               Matrix.diagonal(q) @ standard_symplectic(n) @ Matrix.diagonal(q))):
            cls = classify(b_used, omega=omega)
            assert cls == classify(b_used, omega=omega)
            assert not display & set(vars(cls))
            ob = _omega_b(b_used, omega, None)
            yun = squarefree_decomposition(cleared(char_poly(ob)))
            spectrum = matrix_core._exact_spectrum(yun)
            off = [e.value for e in spectrum if e.value.real != 0]
            # _off_axis_witness keeps the first of the largest |Re|
            worst = None if cls.spectrum_on_axis else max(off, key=lambda z: abs(z.real))
            report = is_semisimple(ob)
            defective = ()
            if report.semisimple is False:
                s = [1]
                for g, _ in yun:
                    s = mul(s, g)
                g = quotient(cleared(minimal_poly(ob)), s)
                defective = tuple(e.value for e in matrix_core._exact_spectrum([(g, 1)]))
            assert [(_bits(e.value), e.multiplicity) for e in cls.spectrum] == \
                [(_bits(e.value), e.multiplicity) for e in spectrum]
            assert _bits(cls.offending_eigenvalue) == _bits(worst)
            # an unstable verdict takes no semisimplicity test
            first = (defective or (None,))[0] if cls.spectrum_on_axis else None
            assert _bits(cls.defective_eigenvalue) == _bits(first)
            assert [_bits(z) for z in report.defective_eigenvalues] == \
                [_bits(z) for z in defective]
            for name in display:
                assert getattr(cls, name) is getattr(cls, name)
            assert report.defective_eigenvalues is report.defective_eigenvalues
            seen.add((omega is None, cls.verdict))
    assert seen == {(j, v) for j in (True, False)
                    for v in (Verdict.LINEARLY_STABLE, Verdict.SPECTRALLY_STABLE_NOT_LINEAR,
                              Verdict.SPECTRALLY_UNSTABLE)}


def _int_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_defective_jb_at_32_known_by_construction():
    # B = S^T D S for D = diag(b_1..b_n, b_{n+1}..b_{2n}) with 15 pairs of
    # distinct positive products a_k b_k and one nilpotent pair (4, 0), and
    # the integer symplectic S = [[I, X], [0, I]] [[I, 0], [Y, I]], X and Y
    # symmetric: J B = S^-1 (J D) S, whose minimal polynomial is
    # x^2 prod_k (x^2 + a_k b_k)
    n = 16
    pairs = [(-1, -k) if k % 3 == 0 else (1, k) for k in range(1, n)] + [(4, 0)]
    x = [[int(abs(i - j) == 1) + (i % 3 - 1) * (i == j) for j in range(n)] for i in range(n)]
    y = [[int(abs(i - j) == 2) + (i % 2) * (i == j) for j in range(n)] for i in range(n)]
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    zero = [[0] * n for _ in range(n)]
    upper = [r + q for r, q in zip(eye, x)] + [r + q for r, q in zip(zero, eye)]
    lower = [r + q for r, q in zip(eye, zero)] + [r + q for r, q in zip(y, eye)]
    s = _int_product(upper, lower)
    d = [[0] * (2 * n) for _ in range(2 * n)]
    for k, (a, b) in enumerate(pairs):
        d[k][k], d[n + k][n + k] = a, b
    b = Matrix(_int_product(_int_product([list(c) for c in zip(*s)], d), s), RATIONAL)
    expected = [0, 0, 1]
    for a, c in pairs[:-1]:  # times x^2 + a c, lowest degree first
        expected = [u + v for u, v in zip([a * c * e for e in expected] + [0, 0],
                                          [0, 0] + expected)]
    jb = standard_symplectic(n) @ b
    assert minimal_poly(jb) == [Fraction(c) for c in expected]
    cls = classify(b)
    assert cls.verdict == Verdict.SPECTRALLY_STABLE_NOT_LINEAR
    assert cls.semisimple is False
    assert cls.defective_eigenvalue == 0


def test_classify_linearly_stable():
    cls = classify(Matrix.identity(2))
    assert cls.verdict == Verdict.LINEARLY_STABLE
    assert cls.semisimple is True


def test_classify_rejects_odd_dimension():
    with pytest.raises(ValueError):
        classify(Matrix.identity(3))


def test_classify_general_skew_form():
    omega = standard_symplectic(1) * Fraction(2)
    cls = classify(Matrix.identity(2), omega=omega)
    assert cls.verdict == Verdict.LINEARLY_STABLE


def test_classify_omega_b_matches_standard_form(rng):
    # Omega = Q J Q^T and B' = Q^-T B Q^-1 give Omega B' = Q (J B) Q^-1, so
    # classify(B', Omega) reports what classify(B) does, for B of each verdict
    products = [(1, 4), (2, 2), (0, 3), (0, 0), (1, -1)]
    cases = [COUNTEREXAMPLE, Matrix.diagonal([1, 4, 2, 3]), Matrix.diagonal([1, -1])]
    cases += [_sheared(rng, H.pair_diagonal(rng.choices(products, k=rng.choice([1, 2]))))
              for _ in range(10)]
    seen = set()
    for b in cases:
        two_n = b.n_rows
        while True:
            rows = [[H.random_fraction(rng, 3, 4) for _ in range(two_n)] for _ in range(two_n)]
            if H.det_gauss(rows) != 0:
                break
        # row k of Q^-T solves Q x = e_k
        q_inv_t = Matrix([solve_exact(rows, e) for e in Matrix.identity(two_n).to_lists()],
                         RATIONAL)
        q = Matrix(rows, RATIONAL)
        omega = q @ standard_symplectic(two_n // 2) @ q.T
        got = classify(q_inv_t @ b @ q_inv_t.T, omega=omega)
        expected = classify(b)
        for name in ("verdict", "semisimple", "spectrum", "offending_eigenvalue",
                     "defective_eigenvalue"):
            assert getattr(got, name) == getattr(expected, name)
        seen.add(got.verdict)
    assert seen == {Verdict.LINEARLY_STABLE, Verdict.SPECTRALLY_STABLE_NOT_LINEAR,
                    Verdict.SPECTRALLY_UNSTABLE}


BAD_OMEGAS = [  # (rows, error) for a 4 x 4 B
    ([[0] * 4] * 4, SingularMatrixError),
    ([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], SingularMatrixError),
    ([[0, -1, 0, 0], [2, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], SymmetryError),
    ([[0, -1], [1, 0]], ShapeError),
]


@pytest.mark.parametrize("field", [RATIONAL, FLOAT64])
def test_classify_refuses_bad_omega(field):
    for rows, error in BAD_OMEGAS:
        with pytest.raises(error):
            classify(Matrix.identity(4, field), omega=Matrix(rows, field))


SPLIT_JORDAN = [[-13, 7, -11, -4], [7, -7, 5, -2], [-11, 5, -11, -6], [-4, -2, -6, -8]]


def test_classify_float_split_jordan_block_is_indeterminate():
    # J B has an elliptic pair and a nilpotent Jordan pair, which eigvals
    # splits into +-1.15e-7 i: on the axis within tol = 1.4e-7, yet two
    # clusters of multiplicity 1 that the rank test alone would pass
    assert classify(Matrix(SPLIT_JORDAN, RATIONAL)).verdict == \
        Verdict.SPECTRALLY_STABLE_NOT_LINEAR
    b = Matrix(SPLIT_JORDAN, FLOAT64)
    cls = classify(b)
    assert cls.verdict == Verdict.INDETERMINATE and cls.semisimple is None
    assert is_semisimple(standard_symplectic(2, FLOAT64) @ b).semisimple is None


def test_classify_float_three_valued():
    clear = classify(Matrix.from_numpy(np.diag([1.0, 1.0])))
    assert clear.verdict == Verdict.LINEARLY_STABLE
    unstable = classify(Matrix.from_numpy(np.diag([1.0, -1.0])))
    assert unstable.verdict == Verdict.SPECTRALLY_UNSTABLE
    fuzzy = classify(Matrix.from_numpy(np.diag([0.0, -1e-8])))
    assert fuzzy.verdict == Verdict.INDETERMINATE


def test_parity_verdict_table():
    assert parity_verdict(2, 0).predicts_instability is False
    assert parity_verdict(3, 0).reason == "odd_index"
    assert parity_verdict(2, 1).reason == "odd_nullity"
    assert parity_verdict(0, 0).reason == "none"


def test_theorem_on_random_matrices(rng):
    # odd index or odd nullity must never coexist with linear stability
    for _ in range(60):
        n = rng.choice([1, 2, 3])
        rows = H.random_symmetric(rng, 2 * n)
        b = Matrix(rows, RATIONAL)
        pred = theorem_predict(b)
        if pred.predicts_instability:
            assert classify(b).verdict != Verdict.LINEARLY_STABLE


# ---------------------------------------------------------------------------
# kernel invariance and splitting


def test_kernel_invariance_negative_case():
    res = kernel_invariance_test(Matrix.diagonal([0, 1]))
    assert res.j_invariant is False
    assert res.witness is not None


def test_kernel_invariance_positive_case():
    res = kernel_invariance_test(Matrix.diagonal([0, 1, 0, -1]))
    assert res.j_invariant is True
    assert res.witness is None


def test_kernel_invariance_symplectic_kernel_without_chain():
    # ker(B) is not J-invariant, yet omega = x^T J y is nondegenerate on it,
    # so J B is semisimple at 0 and no Jordan-chain witness exists
    f = Fraction
    b = Matrix([[f(-4, 27), f(-4, 9), f(-13, 18), f(4, 9)],
                [f(-4, 9), f(-4, 3), f(-13, 6), f(4, 3)],
                [f(-13, 18), f(-13, 6), f(-11, 24), f(-3, 4)],
                [f(4, 9), f(4, 3), f(-3, 4), f(13, 9)]], "rational")
    res = kernel_invariance_test(b)
    assert (res.j_invariant, res.witness, res.kernel.dimension) == (False, None, 2)
    assert is_semisimple(standard_symplectic(2) @ b).semisimple is True
    with pytest.raises(KernelNotInvariantError):
        invariant_split(b)


def test_kernel_invariance_witness_exactly_for_jordan_chains(rng):
    # rank-deficient B = R^T D R: a witness exactly when rank(J B) differs
    # from rank((J B)^2), and every witness is a Jordan chain at 0
    seen = set()
    for _ in range(120):
        dim = rng.choice((2, 4, 6))
        r = Matrix([[H.random_fraction(rng, 3, 3) for _ in range(dim)]
                    for _ in range(dim)], "rational")
        d = Matrix.diagonal([H.random_fraction(rng, 3, 3) if rng.random() < 0.6 else 0
                             for _ in range(dim)])
        b = r.T @ d @ r
        jb = standard_symplectic(dim // 2) @ b
        res = kernel_invariance_test(b)
        assert (res.witness is not None) == (rank(jb) != rank(jb @ jb))
        if res.witness is not None:
            assert any(jb.matvec(res.witness))
            assert not any((jb @ jb).matvec(res.witness))
        seen.add((res.j_invariant, res.witness is not None))
    assert seen == {(True, False), (False, False), (False, True)}


def test_invariant_split_restricts():
    b = Matrix.diagonal([0, 1, 0, -1])
    split = invariant_split(b)
    assert split.kernel.dimension == 2
    assert split.complement.dimension == 2
    r = inertia(split.restricted_form)
    assert (r.morse_index, r.coindex) == (1, 1)
    assert r.nullity == 0


def test_invariant_split_raises_without_invariance():
    with pytest.raises(KernelNotInvariantError):
        invariant_split(Matrix.diagonal([0, 1]))


def test_invertible_even_index_check():
    b = Matrix.diagonal([1, -1])
    res = invertible_even_index_check(b, standard_symplectic(1), None)
    assert res.consistent is True
    with pytest.raises(SingularMatrixError):
        invertible_even_index_check(Matrix.diagonal([0, 1]),
                                    standard_symplectic(1), None)


def test_instability_certificate():
    cert = spectral_instability_certificate(Matrix.diagonal([-1, 1]))
    assert cert.conclusion == "spectrally_unstable"
    assert cert.restricted_index.morse_index % 2 == 1


def test_certificate_even_index_is_inconclusive():
    cert = spectral_instability_certificate(Matrix.diagonal([-1, -1]))
    assert cert.conclusion == "no_conclusion"
    assert all(cert.hypotheses.values())


def test_certificate_reports_hypothesis_failures():
    from relequil.matrix_core import Subspace

    # span{e1} is not J-invariant in the plane
    w = Subspace(2, ((Fraction(1), Fraction(0)),))
    with pytest.raises(HypothesisFailure) as exc:
        spectral_instability_certificate(Matrix.diagonal([-1, 1]), w=w)
    assert "J-invariant" in str(exc.value)
    # span{e1, e3} is J-invariant in R^4; B e1 = e1 + e2 leaves it, and
    # diag(0, 1, 0, 1) keeps it but vanishes on it
    w = Subspace(4, tuple(tuple(Fraction(int(i == k)) for i in range(4)) for k in (0, 2)))
    b = Matrix([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], RATIONAL)
    for form, failures in ((b, ["not B-invariant"]),
                           (Matrix.diagonal([0, 1, 0, 1]), ["B is not an isomorphism on W"])):
        with pytest.raises(HypothesisFailure) as exc:
            spectral_instability_certificate(form, w=w)
        assert exc.value.failures == failures


def test_certificate_one_elimination_per_invariance_test(monkeypatch):
    # J- and B-invariance are one rank [W; M W] = dim W test each; the third
    # elimination is the rank of the restricted form
    b = Matrix(H.pair_diagonal([(-1, 2), (3, 5), (0, 0)]), RATIONAL)
    cases = [(b, invariant_split(b).complement, True),
             (Matrix.diagonal([-1, 1]), Subspace(2, ((Fraction(1), Fraction(0)),)), False)]
    calls = []
    original = matrix_core._bareiss_echelon

    def counted(m):
        calls.append(len(m))
        return original(m)

    monkeypatch.setattr(matrix_core, "_bareiss_echelon", counted)
    for form, w, holds in cases:
        calls.clear()
        if holds:
            spectral_instability_certificate(form, w)
        else:
            with pytest.raises(HypothesisFailure):
                spectral_instability_certificate(form, w)
        k = w.dimension
        assert calls == [2 * k, 2 * k, k]


# ---------------------------------------------------------------------------
# 2x2 block taxonomy


def test_block_zero():
    f = block_normal_form(0, 0)
    assert f.kind == "zero"
    assert f.eigenvalues == (0j, 0j)


def test_block_nilpotent():
    f = block_normal_form(2, 0)
    assert f.kind == "nilpotent_jordan"
    assert f.eigenvalues == (0j, 0j)


def test_block_imaginary_pair():
    f = block_normal_form(1, 2)
    assert f.kind == "imaginary_pair"
    vals = sorted(z.imag for z in f.eigenvalues)
    assert vals[1] == pytest.approx(2 ** 0.5, abs=1e-12)
    assert f.exact_magnitude is None
    g = block_normal_form(1, 4)
    assert g.exact_magnitude == Fraction(2)


def test_block_real_pair():
    f = block_normal_form(1, -2)
    assert f.kind == "real_pair"
    vals = sorted(z.real for z in f.eigenvalues)
    assert vals[1] == pytest.approx(2 ** 0.5, abs=1e-12)


def test_block_matrix_consistency(rng):
    # the assembled 2x2 has exactly the closed-form spectrum
    for _ in range(20):
        a = H.random_fraction(rng)
        b = H.random_fraction(rng)
        f = block_normal_form(a, b)
        arr = f.matrix.to_numpy()
        vals = sorted(np.linalg.eigvals(arr), key=lambda z: (z.real, z.imag))
        want = sorted(f.eigenvalues, key=lambda z: (z.real, z.imag))
        for got, expect in zip(vals, want):
            assert abs(got - expect) < 1e-10


def test_j_b_by_row_swap_is_the_product(rng):
    # exact J B = [-B_lower; B_upper] is the exact product J @ B; the float
    # backend keeps the numpy product
    for n in (1, 2, 3, 5):
        rows = H.random_symmetric(rng, 2 * n)
        b = Matrix(rows, RATIONAL)
        jb = _omega_b(b, None, None)
        assert jb.field == RATIONAL
        assert jb.rows() == (standard_symplectic(n) @ b).rows()
        bf = Matrix(rows, FLOAT64)
        expected = standard_symplectic(n, FLOAT64).to_numpy() @ bf.to_numpy()
        assert np.array_equal(_omega_b(bf, None, None).to_numpy(), expected)
