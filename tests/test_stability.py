from fractions import Fraction

import numpy as np
import pytest

import helpers as H
from relequil.matrix_core import (
    FLOAT64,
    RATIONAL,
    Matrix,
    SingularMatrixError,
    complex_spectrum,
    inertia,
    is_semisimple,
    rank,
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
from relequil.spectral_flow import kappa_identity_check

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


def test_classify_spectrum_is_that_of_omega_b(rng):
    for _ in range(12):
        n = rng.choice([1, 2])
        b = Matrix(H.random_symmetric(rng, 2 * n), RATIONAL)
        q = Matrix(H.random_invertible_symmetric(rng, 2 * n), RATIONAL)
        omega = q @ standard_symplectic(n) @ q.T
        assert classify(b, omega=omega).spectrum == complex_spectrum(omega @ b)
        assert classify(b).spectrum == complex_spectrum(standard_symplectic(n) @ b)


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
    assert (res.j_invariant, res.witness, res.kernel_dimension) == (False, None, 2)
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
