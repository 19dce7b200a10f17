import math
import random

import numpy as np
import pytest

import helpers as H
from relequil import nbody
from relequil.nbody import (
    CCSettings,
    CollisionError,
    ConvergenceError,
    NBodySystem,
    amended_hessian,
    e1_linearization,
    find_central_configuration,
    grad_U,
    hess_U,
    inertia_gradient,
    locked_inertia,
    potential_U,
    stability_verdict,
)

EQUILATERAL = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]


def system(masses, alpha, positions) -> NBodySystem:
    return NBodySystem.assemble(masses, alpha, positions)


# ---------------------------------------------------------------------------
# configuration space


def test_assemble_recenters():
    s = system([1.0, 1.0], 1.0, [(0.0, 0.0), (2.0, 0.0)])
    pts = s.q().reshape(-1, 2)
    com = pts.mean(axis=0)
    assert np.allclose(com, 0.0, atol=1e-12)


def test_validation_errors():
    with pytest.raises(ValueError):
        system([1.0], 1.0, [(0.0, 0.0)])  # need two bodies
    with pytest.raises(ValueError):
        system([1.0, -1.0], 1.0, [(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(ValueError):
        system([1.0, 1.0], 0.0, [(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(CollisionError):
        system([1.0, 1.0], 1.0, [(0.0, 0.0), (0.0, 0.0)])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="masses must be finite"):
            NBodySystem((1.0, bad), 1.0, (0.0, 0.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="alpha must be finite"):
            NBodySystem((1.0, 1.0), bad, (-0.5, 0.0, 0.5, 0.0))
        with pytest.raises(ValueError, match="positions must be finite"):
            NBodySystem((1.0, 1.0), 1.0, (-0.5, bad, 0.5, 0.0))


def test_potential_closed_form():
    s = system([1.0, 1.0], 1.0, [(-0.5, 0.0), (0.5, 0.0)])
    assert potential_U(s) == pytest.approx(1.0, abs=1e-14)
    t = system([1.0, 1.0, 1.0], 1.0, EQUILATERAL)
    assert potential_U(t) == pytest.approx(3.0, abs=1e-14)


def test_locked_inertia_and_gradient():
    s = system([2.0, 1.0], 1.0, [(0.0, 0.0), (3.0, 0.0)])
    pts = s.q()
    masses = np.repeat([2.0, 1.0], 2)
    assert locked_inertia(s) == pytest.approx(float(masses @ (pts * pts)))
    assert np.allclose(inertia_gradient(s), 2.0 * masses * pts)


def test_gradient_matches_finite_differences(rng):
    for alpha in (0.5, 1.0, 2.0):
        pts = H.random_noncollision_config(rng, 3)
        s = system([1.0, 2.0, 0.5], alpha, pts)
        x = s.q()
        f = lambda y: H.nbody_potential([1.0, 2.0, 0.5], alpha, y)
        assert np.allclose(grad_U(s), H.fd_gradient(f, x), rtol=1e-6, atol=1e-8)


def test_hessian_matches_finite_differences(rng):
    pts = H.random_noncollision_config(rng, 3)
    s = system([1.0, 1.0, 1.0], 1.0, pts)
    x = s.q()
    f = lambda y: H.nbody_potential([1.0, 1.0, 1.0], 1.0, y)
    fd = H.fd_hessian(f, x)
    got = hess_U(s).to_numpy()
    assert np.allclose(got, fd, rtol=1e-4, atol=1e-6)


def test_euler_homogeneity():
    # q . grad U = -alpha U for the homogeneous potential
    for alpha in (0.5, 1.0, 3.0):
        s = system([1.0, 2.0, 3.0], alpha, [(0.0, 0.1), (1.0, 0.0), (-0.3, 0.9)])
        lhs = float(s.q() @ grad_U(s))
        assert lhs == pytest.approx(-alpha * potential_U(s), rel=1e-12)


def _bits(parts) -> list:
    return [np.asarray(x).tobytes() for x in parts]


def test_potential_parts_bitwise_match_pair_loop():
    # random, x-collinear and y-collinear configurations (zero components of
    # q_i - q_j) with unequal masses, against the scalar loop bit for bit
    rng = random.Random("pair-loop")
    alphas = (0.5, 1.0, 1.5, 2.0, 3.0)
    for n in range(2, 41):
        m = np.array([rng.uniform(0.5, 2.0) for _ in range(n)])
        line = [k + rng.uniform(-0.3, 0.3) for k in range(n)]
        configs = (
            np.array(H.random_noncollision_config(rng, n, min_gap=0.01), dtype=float).reshape(-1),
            np.array([(x, 0.0) for x in line]).reshape(-1),
            np.array([(0.0, -x) for x in line]).reshape(-1),
        )
        for kind, q in enumerate(configs):
            alpha = alphas[(n + kind) % len(alphas)]
            expected = H.potential_parts_loop(m, q, alpha)
            assert _bits(nbody._potential_parts(m, q, alpha)) == _bits(expected), (n, kind)


def test_collision_guard_matches_pair_loop():
    m = np.array([1.0, 2.0, 0.5])
    guard = nbody.COLLISION_GUARD
    for gap in (0.999 * guard, guard, 1.001 * guard, 0.0):
        q = np.array([0.0, 0.0, 1.0, 0.0, 1.0 + gap, 0.0])
        try:
            expected = H.potential_parts_loop(m, q, 1.0, guard, CollisionError)
        except CollisionError as e:
            with pytest.raises(CollisionError) as got:
                nbody._potential_parts(m, q, 1.0, guard)
            assert str(got.value) == str(e)
        else:
            assert _bits(nbody._potential_parts(m, q, 1.0, guard)) == _bits(expected)
    with pytest.raises(CollisionError, match="diameter 0.000e"):
        nbody._potential_parts(m, np.zeros(6), 1.0)


def test_cc_search_bitwise_matches_pair_loop(monkeypatch):
    seeds = []
    for seed in (2, 14, 18):
        rng = random.Random(f"probe:16:3.0:{seed}")
        pts = [(math.cos(2 * math.pi * k / 16) + rng.uniform(-0.02, 0.02),
                math.sin(2 * math.pi * k / 16) + rng.uniform(-0.02, 0.02))
               for k in range(16)]
        seeds.append(system([1.0] * 16, 3.0, pts))
    fast = [find_central_configuration(s) for s in seeds]
    monkeypatch.setattr(
        nbody, "_potential_parts",
        lambda m, q, alpha, guard=nbody.COLLISION_GUARD:
            H.potential_parts_loop(m, q, alpha, guard, CollisionError))
    for s, cc in zip(seeds, fast):
        ref = find_central_configuration(s)
        assert _bits([cc.system.q(), cc.residual, cc.xi_squared]) == \
            _bits([ref.system.q(), ref.residual, ref.xi_squared])


# ---------------------------------------------------------------------------
# central configurations


def test_two_body_cc():
    cc = find_central_configuration(
        system([1.0, 2.0], 1.0, [(-1.0, 0.0), (0.5, 0.0)]))
    assert cc.residual <= 1e-12
    assert locked_inertia(cc.system) == pytest.approx(1.0, abs=1e-12)
    assert cc.xi_squared == pytest.approx(
        cc.system.alpha * potential_U(cc.system), abs=1e-12)
    # gauge: first body on the positive x-axis, second opposite
    pts = cc.system.q().reshape(-1, 2)
    assert pts[0, 0] > 0 and abs(pts[0, 1]) <= 1e-12
    assert pts[1, 0] < 0


def test_equilateral_cc_from_perturbed_seed():
    seed = [(0.02, -0.01), (1.03, 0.05), (0.48, math.sqrt(3) / 2 + 0.03)]
    cc = find_central_configuration(system([1.0] * 3, 1.0, seed))
    assert cc.residual <= 1e-10
    pts = cc.system.q().reshape(-1, 2)
    dists = sorted(np.linalg.norm(pts[i] - pts[j])
                   for i in range(3) for j in range(i + 1, 3))
    assert dists[-1] - dists[0] <= 1e-10
    assert cc.xi_squared == pytest.approx(3.0 * dists[0] ** -1, rel=1e-6)


def test_collinear_three_body_cc():
    cc = find_central_configuration(
        system([1.0] * 3, 1.0, [(-1.0, 0.0), (0.05, 0.0), (1.1, 0.0)]))
    assert cc.residual <= 1e-10
    pts = cc.system.q().reshape(-1, 2)
    assert np.allclose(pts[:, 1], 0.0, atol=1e-9)


def test_returned_residual_within_tolerance():
    # perturbed regular 16-gons with alpha = 3 whose search ends within a
    # few 1e-11 of cc_tol: the returned residual is the one tested
    tol = CCSettings().cc_tol
    for seed in (2, 14, 18):
        rng = random.Random(f"probe:16:3.0:{seed}")
        pts = [(math.cos(2 * math.pi * k / 16) + rng.uniform(-0.02, 0.02),
                math.sin(2 * math.pi * k / 16) + rng.uniform(-0.02, 0.02))
               for k in range(16)]
        cc = find_central_configuration(system([1.0] * 16, 3.0, pts))
        assert cc.residual <= tol
        m = np.repeat(cc.system.mass_vector(), 2)
        f = grad_U(cc.system) + cc.xi_squared * m * cc.system.q()
        assert float(np.linalg.norm(f)) == cc.residual


def test_convergence_error_on_tiny_budget():
    seed = [(0.3, -0.4), (1.3, 0.2), (-0.7, 0.9)]
    with pytest.raises(ConvergenceError):
        find_central_configuration(system([1.0] * 3, 1.0, seed),
                                   CCSettings(cc_tol=1e-14, max_iter=1))


# ---------------------------------------------------------------------------
# amended Hessian and index relations


def test_equilateral_hessian_report():
    cc = find_central_configuration(system([1.0] * 3, 1.0, EQUILATERAL))
    rep = amended_hessian(cc)
    assert rep.dim_v == 3 and rep.dim_shat == 2
    assert (rep.inertia_shat.morse_index, rep.inertia_shat.nullity,
            rep.inertia_shat.coindex) == (0, 0, 2)
    assert (rep.inertia_v.morse_index, rep.inertia_v.nullity,
            rep.inertia_v.coindex) == (2, 0, 1)
    assert rep.radial_eigenvalue == pytest.approx(
        (2 - cc.system.alpha) * cc.xi_squared, rel=1e-10)
    assert rep.radial_residual <= 1e-12
    assert rep.sign_identity_residual <= 1e-12


def test_index_relations_hold(rng):
    # nullities agree and Morse indices satisfy the 2n-4 complement rule
    for seed_pts, n in (([(-1.0, 0.0), (0.05, 0.0), (1.1, 0.0)], 3),
                        (EQUILATERAL, 3)):
        cc = find_central_configuration(system([1.0] * n, 1.0, seed_pts))
        rep = amended_hessian(cc)
        assert rep.inertia_v.nullity == rep.inertia_shat.nullity
        assert rep.inertia_v.morse_index == \
            2 * n - 4 - rep.inertia_shat.nullity - rep.inertia_shat.morse_index


def test_collinear_three_body_is_odd():
    cc = find_central_configuration(
        system([1.0] * 3, 1.0, [(-1.0, 0.0), (0.05, 0.0), (1.1, 0.0)]))
    rep = amended_hessian(cc)
    assert rep.inertia_shat.morse_index == 1
    verdict = stability_verdict(cc)
    assert verdict.e2.predicts_instability is True
    assert verdict.e2.reason == "odd_index"
    assert verdict.reduced is not None
    assert verdict.reduced.predicts_instability is True


def test_collinear_four_body_shape_index():
    # equal masses on a line: the shape-sphere index comes out even, checked
    # against central differences of U restricted to the sphere
    seed = [(-1.5, 0.0), (-0.4, 0.0), (0.4, 0.0), (1.5, 0.0)]
    cc = find_central_configuration(system([1.0] * 4, 1.0, seed))
    rep = amended_hessian(cc)
    assert (rep.inertia_shat.morse_index, rep.inertia_shat.nullity,
            rep.inertia_shat.coindex) == (2, 0, 2)
    assert stability_verdict(cc).e2.predicts_instability is False


def test_stability_verdict_alpha_range():
    cc = find_central_configuration(system([1.0] * 3, 3.0, EQUILATERAL))
    verdict = stability_verdict(cc)
    assert verdict.reduced is None  # index relations need 0 < alpha < 2
    assert verdict.e2 is not None


# ---------------------------------------------------------------------------
# the symmetry block


def test_e1_eigenvalues():
    rep = e1_linearization(1, 1)
    vals = sorted(rep.eigenvalues, key=lambda z: (z.real, z.imag))
    assert vals[0] == pytest.approx(-1j)
    assert vals[-1] == pytest.approx(1j)
    assert rep.eigenvalue_squared == -1


def test_e1_kernel_vector():
    rep = e1_linearization(2, 1)
    arr = rep.matrix.to_numpy()
    v = np.array([float(x) for x in rep.kernel_vector])
    assert np.allclose(arr @ v, 0.0, atol=1e-14)


def test_e1_alpha_two_is_one_jordan_block():
    rep = e1_linearization(1, 2)
    assert rep.rank_powers == (3, 2, 1, 0)
    assert rep.nilpotent_similar is True
    off = e1_linearization(1, 3)
    assert off.nilpotent_similar is False


def test_e1_matches_float_eigensolver():
    # the zero eigenvalue is defective, so a float eigensolver smears it; the
    # nonzero pair is well conditioned and must match to 1e-10, while the
    # double zero is certified by the exact characteristic polynomial
    from fractions import Fraction

    from relequil.matrix_core import char_poly

    for xi in (1, 2):
        for alpha in (0.5, 1.5, 3):
            rep = e1_linearization(xi, alpha)
            got = np.linalg.eigvals(rep.matrix.to_numpy())
            for want in (z for z in rep.eigenvalues if z != 0):
                assert min(abs(got - want)) < 1e-10
            cp = char_poly(rep.matrix)
            lam2 = Fraction(alpha - 2) * Fraction(xi) ** 2
            assert cp == [0, 0, -lam2, 0, 1]
