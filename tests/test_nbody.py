import json
import math
import os
import random

import numpy as np
import pytest

import helpers as H
from relequil import cli, nbody
from relequil.cli import main
from relequil.matrix_core import Matrix, _inertia_float, inertia
from relequil.stability import parity_verdict
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


@pytest.mark.filterwarnings("error")
def test_positions_whose_scale_overflows_are_refused():
    # finite positions whose center of mass, pair difference q_i - q_j or
    # locked inertia overflows, through the constructor and assemble()
    for flat, name in (((1e308, 0.0, 1e308, 1e308), "center of mass of the positions"),
                       ((1e308, 0.0, -1e308, 0.0), "pair difference q_i - q_j"),
                       ((1e200, 0.0, -1e200, 0.0), "locked inertia q^T M q")):
        for build in (NBodySystem, NBodySystem.assemble):
            with pytest.raises(ValueError) as e:
                build((1.0, 1.0), 1.0, flat)
            assert str(e.value) == f"the {name} overflows the float range"
    # far from the origin, the inertia overflows before recentering only
    s = system([1.0, 1.0], 1.0, [(1e160, 0.0), (1.0000001e160, 0.0)])
    assert locked_inertia(s) == pytest.approx(2 * (0.5e153) ** 2, rel=1e-6)


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


def test_potential_parts_bitwise_match_pair_loop_at_rounded_exponents():
    # alphas whose -alpha - 2 rounds, and the benchmark's alphas 1, 2 and 3,
    # up to 60 bodies, unequal masses, on random, x-collinear and
    # y-collinear configurations
    rng = random.Random("pair-loop-rounded")
    alphas = (0.1, 1 / 3, 2.2, 7.3)
    integral = (1.0, 2.0, 3.0)
    for n in range(2, 61):
        m = np.array([rng.uniform(0.5, 2.0) for _ in range(n)])
        line = [k + rng.uniform(-0.3, 0.3) for k in range(n)]
        configs = (
            np.array(H.random_noncollision_config(rng, n, min_gap=0.01), dtype=float).reshape(-1),
            np.array([(x, 0.0) for x in line]).reshape(-1),
            np.array([(0.0, -x) for x in line]).reshape(-1),
        )
        for kind, q in enumerate(configs):
            for alpha in (alphas[(n + kind) % len(alphas)], integral[(n + kind) % 3]):
                expected = H.potential_parts_loop(m, q, alpha)
                assert _bits(nbody._potential_parts(m, q, alpha)) == _bits(expected), \
                    (n, kind, alpha)


def test_float_power_is_libm_pow():
    # the pair kernel takes its powers from np.float_power and its bits from
    # libm pow, which math.pow calls; np.power is not used because its SIMD
    # loop differs in the last bit
    r = np.exp(np.random.default_rng(20260819).uniform(
        math.log(1e-150), math.log(1e150), 20000))
    for alpha in (0.1, 1 / 3, 1.0, 2.0, 2.2, 3.0, 7.3):
        for e in (-alpha, -alpha - 2):
            with np.errstate(over="ignore"):
                got = np.float_power(r, e)
            expected = []
            for x in r.tolist():
                try:
                    expected.append(math.pow(x, e))
                except OverflowError:
                    expected.append(math.inf)
            differ = np.flatnonzero(got != np.array(expected))
            assert differ.size == 0, (
                f"np.float_power(r, {e!r}) differs from libm pow (math.pow) at "
                f"{differ.size} of {r.size} r, the first r = {float(r[differ[0]])!r}: this "
                f"numpy does not route float_power to libm pow, so the pair "
                f"kernel no longer rounds as the scalar pair loop does")


@pytest.mark.filterwarnings("error")
def test_potential_parts_refuses_a_squared_distance_that_underflows():
    # r^2 = 1e-340 rounds to 0 and r^-alpha to inf; math.pow raised "math
    # domain error" there
    s = system([1.0, 1.0], 1.0, [(0.0, 0.0), (1e-170, 0.0)])
    with pytest.raises(ValueError) as e:
        potential_U(s)
    assert str(e.value) == ("the pair potential r^-alpha overflows the float range at "
                            "alpha = 1.0 and r = 0.000e+00")


@pytest.mark.filterwarnings("error")
def test_potential_parts_refuses_overflow():
    # in the power itself, and in m_i m_j r^-alpha after it, with no warning
    with pytest.raises(ValueError) as e:
        nbody._potential_parts(np.array([1., 1.]), np.array([0., 0., .1, 0.]), 400.0)
    assert str(e.value) == ("the pair potential r^-alpha overflows the float range at "
                            "alpha = 400.0 and r = 1.000e-01")
    with pytest.raises(ValueError) as e:
        nbody._potential_parts(np.array([1e200, 1e200]), np.array([0., 0., .5, 0.]), 1.0)
    assert str(e.value) == ("the pair potential r^-alpha overflows the float range at "
                            "alpha = 1.0 and r = 5.000e-01")


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


def _perturbed_polygon(n: int, alpha: float, label: str) -> NBodySystem:
    rng = random.Random(label)
    pts = [(math.cos(2 * math.pi * k / n) + rng.uniform(-0.02, 0.02),
            math.sin(2 * math.pi * k / n) + rng.uniform(-0.02, 0.02))
           for k in range(n)]
    return system([1.0] * n, alpha, pts)


def test_cc_carries_the_last_search_evaluation():
    # U and D^2U of the returned configuration are those the search computed
    # at it, bit for bit a fresh evaluation there
    for seed in (2, 14, 18):
        cc = find_central_configuration(_perturbed_polygon(16, 3.0, f"probe:16:3.0:{seed}"))
        s = cc.system
        u, _, h = nbody._potential_parts(s.mass_vector(), s.q(), s.alpha)
        assert _bits([cc.potential, cc.hess_u]) == _bits([u, h])


def _amended_reference(cc):
    # the forms of amended_hessian as np.diag sums
    s = cc.system
    m, q, xi2, h = s.mass_vector(), s.q(), cc.xi_squared, cc.hess_u
    mm = np.repeat(m, 2)
    mq = mm * q
    form = -h - xi2 * np.diag(mm) + 4.0 * xi2 * np.outer(mq, mq)
    z_shat = nbody._m_orthonormalize(nbody._slice_basis(m, q), mm)
    y = np.column_stack([q, z_shat])
    on_v = y.T @ form @ y
    constrained = h + xi2 * np.diag(mm)
    on_shat = z_shat.T @ constrained @ z_shat
    on_shat = (on_shat + on_shat.T) / 2
    op = form / mm[:, None]
    lam = float(q @ form @ q)
    radial = float(np.linalg.norm(op @ q - lam * q)) / (float(np.linalg.norm(op, 2)) or 1.0)
    sign = float(np.max(np.abs(z_shat.T @ form @ z_shat + on_shat)))
    return (on_v + on_v.T) / 2, on_shat, lam, radial, sign


def test_amended_hessian_bitwise_matches_diag_sums():
    with open(GOLDEN_NBODY, encoding="utf-8") as fh:
        systems = [system(**case["problem"]) for case in json.load(fh)]
    rng = random.Random("unequal-ring")
    ring = [(0.01, -0.02)] + [(math.cos(2 * math.pi * k / 9) + rng.uniform(-0.02, 0.02),
                               math.sin(2 * math.pi * k / 9) + rng.uniform(-0.02, 0.02))
                              for k in range(9)]
    systems.append(system([7.5] + [rng.uniform(0.5, 2.0) for _ in range(9)], 3.0, ring))
    for s in systems:
        cc = find_central_configuration(s)
        rep = amended_hessian(cc)
        got = [rep.on_v, rep.on_shat, rep.radial_eigenvalue, rep.radial_residual,
               rep.sign_identity_residual]
        assert _bits(got) == _bits(_amended_reference(cc)), s.n


def test_inertia_float_matches_inertia(rng):
    # on exactly symmetric arrays of every rank, the empty one included
    for dim in range(9):
        for r in sorted({0, dim // 2, dim}):
            x = np.array([rng.uniform(-1, 1) for _ in range(dim * r)]).reshape(dim, r)
            a = x @ np.diag([rng.choice((-1.0, 1.0)) for _ in range(r)]) @ x.T
            a = (a + a.T) / 2
            for tol in (None, 1e-6):
                assert _inertia_float(a, tol) == inertia(Matrix.from_numpy(a), tol)


def test_nbody_stability_evaluates_once_per_search_point(tmp_path, capsys, monkeypatch):
    # one pair-kernel call per point the search visits and none after the
    # search: the report reads U and D^2U off the search's last evaluation
    events = []

    def logged(name, fn):
        def wrapper(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(nbody, "_potential_parts", logged("kernel", nbody._potential_parts))
    monkeypatch.setattr(nbody, "_residual", logged("point", nbody._residual))
    search = cli.find_central_configuration

    def search_then_mark(*args):
        cc = search(*args)
        events.append("done")
        return cc

    monkeypatch.setattr(cli, "find_central_configuration", search_then_mark)
    s = _perturbed_polygon(40, 1.0, "40-gon")
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"masses": list(s.masses), "alpha": s.alpha,
                                   "positions": list(s.positions)}))
    assert main(["nbody-stability", str(problem)]) == 0
    assert json.loads(capsys.readouterr().out)["cc"]["residual"] <= 1e-10
    points = events.count("point")
    assert points > 1
    assert events == ["point", "kernel"] * points + ["done"]


GOLDEN_NBODY = os.path.join(os.path.dirname(__file__), "golden_nbody_reports.json")


def test_nbody_stability_reports_match_golden(tmp_path, capsys):
    # float reports pinned byte for byte on polygons and rings, alpha = 1, 2
    # and 3, up to 40 bodies; captured on x86-64 with numpy 2.4.6 and its
    # OpenBLAS 0.3.31, since another BLAS may round the search's linear
    # algebra differently in the last bit
    with open(GOLDEN_NBODY, encoding="utf-8") as fh:
        cases = json.load(fh)
    assert {c["problem"]["alpha"] for c in cases} == {1.0, 2.0, 3.0}
    for k, case in enumerate(cases):
        problem = tmp_path / f"{k}.json"
        problem.write_text(json.dumps(case["problem"]))
        assert main(["nbody-stability", str(problem)]) == 0, case["case"]
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (case["report"], ""), case["case"]


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


def test_cc_settings_ranges():
    assert CCSettings() == CCSettings(1e-10, 200, nbody.COLLISION_GUARD, 0.5)
    CCSettings(cc_tol=1e-300, max_iter=0, collision_guard=0.0, armijo_factor=0.999)
    for name, value in (("cc_tol", 0.0), ("max_iter", 1.0), ("max_iter", False),
                        ("collision_guard", 1.0), ("armijo_factor", 1.0)):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            CCSettings(**{name: value})


def test_convergence_error_on_tiny_budget():
    seed = [(0.3, -0.4), (1.3, 0.2), (-0.7, 0.9)]
    with pytest.raises(ConvergenceError):
        find_central_configuration(system([1.0] * 3, 1.0, seed),
                                   CCSettings(cc_tol=1e-14, max_iter=1))


# ---------------------------------------------------------------------------
# amended Hessian and index relations


def test_hessian_report_builds_matrices_on_access(monkeypatch):
    # the report keeps the two forms as arrays; the Matrix views are built
    # only when read
    cc = find_central_configuration(system([1.0, 2.0, 3.0, 4.0], 1.0,
                                           [(1.0, 0.0), (0.0, 1.1), (-1.2, 0.0), (0.0, -0.9)]))
    built = []
    original = Matrix.from_numpy.__func__

    def counted(cls, arr):
        built.append(np.shape(arr))
        return original(cls, arr)

    monkeypatch.setattr(Matrix, "from_numpy", classmethod(counted))
    rep = amended_hessian(cc)
    assert built == []
    assert (rep.dim_v, rep.dim_shat) == (5, 4) == (rep.on_v.shape[0], rep.on_shat.shape[0])
    assert np.array_equal(rep.matrix_on_v.to_numpy(), rep.on_v)
    assert np.array_equal(rep.hess_u_on_shat.to_numpy(), rep.on_shat)
    assert built == [(5, 5), (4, 4)]
    assert rep.inertia_v == inertia(rep.matrix_on_v)
    assert rep.inertia_shat == inertia(rep.hess_u_on_shat)


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


def test_stability_verdict_reads_its_hessian():
    collinear = [(-1.0, 0.0), (0.05, 0.0), (1.1, 0.0)]
    for alpha, seed in ((1.0, collinear), (1.0, EQUILATERAL), (3.0, EQUILATERAL)):
        cc = find_central_configuration(system([1.0] * 3, alpha, seed))
        verdict = stability_verdict(cc)
        rep = verdict.hessian
        assert rep == amended_hessian(cc)
        shat, v = rep.inertia_shat, rep.inertia_v
        assert verdict.e2 == parity_verdict(shat.morse_index, shat.nullity)
        assert verdict.reduced == (
            parity_verdict(v.morse_index, v.nullity) if alpha < 2 else None)


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
