"""Planar n-body-type potentials, central configurations and the amended
Hessian at a relative equilibrium.

Bodies carry positive masses and interact through the attracting pair
potential m_i m_j / r^alpha.  A central configuration is a critical point of
U on the inertia sphere I(q) = q^T M q = 1 with the center of mass pinned at
the origin; there DU = -xi^2 M q with xi^2 = alpha U(q).  The second
variation of the amended potential on the slice V orthogonal to the rotation
orbit is assembled as the bilinear form

    -D^2 U - xi^2 M + 4 xi^2 (Mq)(Mq)^T

represented on an M-orthonormal basis of V = span{q} (+) T_q Shat.  The
configuration q itself is a radial eigenvector with eigenvalue (2-alpha)xi^2,
and on the sphere-tangent part the form is minus the constrained Hessian of
U, which ties the instability parity test to the Morse data of the central
configuration.

Everything here is float-backend: central configurations have irrational
coordinates in general.  U and its derivatives are numpy sums over the
pairs i < j, with no Python step per pair, that round exactly as a scalar
loop over the pairs does: the squared distance is the BLAS dot of a
stacked matmul (as ``d @ d``); the powers are ``np.float_power``, whose
float64 loop calls libm ``pow`` per element, as CPython's ``**`` and
``math.pow`` do (``np.power`` stays out: its SIMD loop differs from libm
``pow`` in the last bit); the pair terms are built for all pairs at once,
each operation in the loop's order; and every sum keeps the loop's order
(a sequential accumulate for U, one weighted ``np.bincount`` in pair order
for the gradient and one for the Hessian).  A pair potential that
overflows the float range, in the power or in the mass product after it,
is refused with a ValueError, and so are finite positions whose center of
mass, pair differences or locked inertia overflow it.  The CC
search tests an absolute residual close to its rounding floor, so another
rounding of these sums changes the configurations it converges to, or
whether it does.  The search returns U and D^2U at the configuration it
stops at, and the report reads them from there instead of evaluating the
pair sums again.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .matrix_core import IndexReport, Matrix, ShapeError, _inertia_float, rank
from .stability import TheoremVerdict, _fraction_sqrt, parity_verdict

__all__ = [
    "CollisionError",
    "ConvergenceError",
    "BasisConstructionError",
    "CCSettings",
    "NBodySystem",
    "CentralConfiguration",
    "AmendedHessianReport",
    "E1Report",
    "RelativeEquilibriumVerdict",
    "potential_U",
    "grad_U",
    "hess_U",
    "locked_inertia",
    "find_central_configuration",
    "amended_hessian",
    "e1_linearization",
    "stability_verdict",
]

COLLISION_GUARD = 1e-6  # fraction of the configuration diameter


class CollisionError(ValueError):
    """Two bodies are closer than the collision guard allows."""


class ConvergenceError(RuntimeError):
    """The central-configuration search exhausted its budget."""


class BasisConstructionError(RuntimeError):
    """The slice basis could not be built (rank-deficient constraints)."""


@dataclass(frozen=True)
class CCSettings:
    cc_tol: float = 1e-10
    max_iter: int = 200
    collision_guard: float = COLLISION_GUARD
    armijo_factor: float = 0.5

    def __post_init__(self):
        # an armijo_factor >= 1 never shrinks the backtracking step, so the
        # search would loop forever; every field is checked at the boundary
        rules = (
            ("cc_tol", numbers.Real, "a finite number > 0", lambda x: 0 < x < math.inf),
            ("max_iter", numbers.Integral, "an integer >= 0", lambda x: x >= 0),
            ("collision_guard", numbers.Real, "a number in [0, 1)", lambda x: 0 <= x < 1),
            ("armijo_factor", numbers.Real, "a number in (0, 1)", lambda x: 0 < x < 1),
        )
        for name, kind, text, ok in rules:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind) or not ok(value):
                raise ValueError(f"{name} must be {text}, got {value!r}")


def _reals(values, name: str, text: str, pairs: bool = False) -> list:
    """The floats of a sequence of real numbers (with ``pairs``, of (x, y)
    pairs, flattened); anything else raises a ValueError naming ``name``."""
    if not isinstance(values, str) and np.iterable(values):
        values = list(values)
        if pairs and values and all(np.iterable(p) and not isinstance(p, str) and len(p) == 2
                                    for p in values):
            values = [x for p in values for x in p]
        # plain floats and ints (JSON's numbers) first: the ABC check is slow
        if all(type(x) in (float, int) or isinstance(x, numbers.Real) and not isinstance(x, bool)
               for x in values):
            try:
                return [float(x) for x in values]
            except OverflowError:
                raise ValueError(f"{name} must be finite") from None
    raise ValueError(f"{name} must be {text}")


def _require_finite(masses, alpha, positions) -> None:
    for name, values in (("masses", masses), ("alpha", (alpha,)), ("positions", positions)):
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{name} must be finite")
    top = max(abs(float(x)) for x in masses) if len(masses) else 0.0
    if not math.isfinite(top * top):  # the pair kernel multiplies m_i m_j
        raise ValueError("masses must have finite pairwise products")


@dataclass(frozen=True)
class NBodySystem:
    """Planar bodies: positive masses, exponent alpha > 0, flat positions
    (x1, y1, x2, y2, ...) with the weighted center of mass at the origin."""

    masses: tuple
    alpha: float
    positions: tuple

    def __post_init__(self):
        if len(self.masses) < 2:
            raise ValueError("need at least two bodies")
        _require_finite(self.masses, self.alpha, self.positions)
        if any(not (m > 0) for m in self.masses):
            raise ValueError("masses must be positive")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if len(self.positions) != 2 * len(self.masses):
            raise ShapeError("positions must hold two coordinates per body")
        q = self.q()
        com, d = _finite_scale(self.mass_vector(), q)
        scale = 1.0 + float(np.max(np.abs(q)))
        if float(np.max(np.abs(com))) > 1e-8 * scale:
            raise ValueError("center of mass must sit at the origin; use assemble()")
        _min_pair_distance(d, guard=COLLISION_GUARD)

    @classmethod
    def assemble(cls, masses, alpha, positions) -> "NBodySystem":
        """Build a system from per-body (x, y) pairs or a flat sequence of
        real numbers, recentering the weighted center of mass to the origin;
        strings, booleans and ragged pairs raise ValueError (``_reals``)."""
        m = _reals(masses, "masses", "a list of numbers")
        (alpha,) = _reals([alpha], "alpha", "a number")
        q = _reals(positions, "positions", "(x, y) pairs or a flat list of numbers", pairs=True)
        if len(q) != 2 * len(m):
            raise ShapeError("positions must hold two coordinates per body")
        _require_finite(m, alpha, q)
        m, q = np.asarray(m, dtype=float), np.asarray(q, dtype=float)
        if np.any(m <= 0):
            raise ValueError("masses must be positive")
        # the inertia of q before recentering may overflow where that after
        # it does not; __post_init__ checks the latter
        com, _ = _finite_scale(m, q, inertia=False)
        q = (q.reshape(-1, 2) - com).reshape(-1)
        return cls(tuple(m.tolist()), alpha, tuple(q.tolist()))

    @property
    def n(self) -> int:
        return len(self.masses)

    def q(self) -> np.ndarray:
        return np.asarray(self.positions, dtype=float)

    def mass_vector(self) -> np.ndarray:
        return np.asarray(self.masses, dtype=float)


@dataclass(frozen=True)
class CentralConfiguration:
    system: NBodySystem
    xi_squared: float
    residual: float
    potential: float  # U and D^2U at the configuration, from the search
    hess_u: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class AmendedHessianReport:
    """The two forms of ``amended_hessian`` as symmetric float arrays,
    ``on_v`` and ``on_shat``, with their inertias; ``matrix_on_v`` and
    ``hess_u_on_shat`` wrap them as float64 ``Matrix`` objects on access."""

    on_v: np.ndarray = field(repr=False, compare=False)
    inertia_v: IndexReport
    on_shat: np.ndarray = field(repr=False, compare=False)
    inertia_shat: IndexReport
    radial_eigenvalue: float
    radial_residual: float
    sign_identity_residual: float
    xi_squared: float
    alpha: float

    @property
    def matrix_on_v(self) -> Matrix:
        return Matrix.from_numpy(self.on_v)

    @property
    def hess_u_on_shat(self) -> Matrix:
        return Matrix.from_numpy(self.on_shat)

    @property
    def dim_v(self) -> int:
        return self.on_v.shape[0]

    @property
    def dim_shat(self) -> int:
        return self.on_shat.shape[0]


@dataclass(frozen=True)
class E1Report:
    """The 4-dimensional block of the linearized field spanned by the
    configuration, its rotation, and their momenta."""

    matrix: Matrix
    xi: Fraction
    alpha: Fraction
    eigenvalue_squared: Fraction  # (alpha - 2) xi^2
    eigenvalues: tuple  # (0, 0, +lambda, -lambda)
    kernel_vector: tuple
    rank_powers: tuple  # ranks of matrix^1..4, exact
    nilpotent_similar: bool  # one 4x4 Jordan block; true exactly when alpha = 2


@dataclass(frozen=True)
class RelativeEquilibriumVerdict:
    """The parity verdicts of a relative equilibrium with the amended Hessian
    report they were read from: ``e2`` from ``hessian.inertia_shat``,
    ``reduced`` from ``hessian.inertia_v``."""

    hessian: AmendedHessianReport
    reduced: Optional[TheoremVerdict]  # emitted only for 0 < alpha < 2
    e2: TheoremVerdict


# ---------------------------------------------------------------------------
# potential and derivatives


def _weighted_com(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    pts = q.reshape(-1, 2)
    return (m[:, None] * pts).sum(axis=0) / m.sum()


def _inertia(m: np.ndarray, q: np.ndarray) -> float:
    """I(q) = q^T M q."""
    return float(np.repeat(m, 2) @ (q * q))


def _finite_scale(m: np.ndarray, q: np.ndarray, inertia: bool = True):
    """The weighted center of mass of q and its pair differences d = q_i - q_j
    (``_pairs``), checking with ``inertia`` the locked inertia q^T M q too.
    Finite positions can overflow any of these; the first that is not finite
    raises a ValueError that names it, with no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        com, d = _weighted_com(m, q), _pairs(q)[-1]
        parts = (("center of mass of the positions", com), ("pair difference q_i - q_j", d),
                 ("locked inertia q^T M q", _inertia(m, q) if inertia else 0.0))
    for name, x in parts:
        if not np.isfinite(x).all():
            raise ValueError(f"the {name} overflows the float range")
    return com, d


@functools.lru_cache(maxsize=32)
def _pair_index(n: int):
    """For n bodies: the pairs i < j in lexicographic order; the flat indices
    of the gradient entries of the ends j, then i, of all pairs; those of the
    Hessian blocks (j, j), (i, i), (i, j), then (j, i) of all pairs.  Each
    index array runs over the group, then the coordinate (the entry of the
    2x2 block, row-major), then the pair.  A body b is the end j of the
    pairs (h, b), h < b, which come before the pairs (b, j) in pair order,
    so each entry meets its terms in pair order.  Cached, so read-only."""
    i, j = np.triu_indices(n, 1)
    two = np.arange(2)[:, None]
    rows, cols = np.stack([j, i, i, j]), np.stack([j, i, j, i])
    out = (i, j, (2 * np.stack([j, i])[:, None] + two).reshape(-1),
           ((2 * rows[:, None, None] + two[:, None]) * (2 * n)
            + 2 * cols[:, None, None] + two).reshape(-1))
    for a in out:
        a.setflags(write=False)
    return out


def _pairs(q: np.ndarray):
    """``_pair_index`` of the bodies of q, then d = q_i - q_j per pair."""
    pts = q.reshape(-1, 2)
    index = _pair_index(pts.shape[0])
    return (*index, pts.take(index[0], axis=0) - pts.take(index[1], axis=0))


def _min_pair_distance(d: np.ndarray, guard: float) -> float:
    dist = np.hypot(d[:, 0], d[:, 1])
    dmin = float(dist.min(initial=math.inf))
    dmax = float(dist.max(initial=0.0))
    if dmin <= guard * dmax or dmax == 0.0:
        raise CollisionError(
            f"minimum pairwise distance {dmin:.3e} under the guard "
            f"{guard:.1e} x diameter {dmax:.3e}")
    return dmin


def _overflow(alpha: float, r: np.ndarray) -> ValueError:
    return ValueError(f"the pair potential r^-alpha overflows the float range at "
                      f"alpha = {alpha!r} and r = {r.min():.3e}")


def _potential_parts(m: np.ndarray, q: np.ndarray, alpha: float,
                     guard: float = COLLISION_GUARD):
    """U, DU and D^2U at q, summed over the pairs i < j.

    Each pair contributes m_i m_j r^-alpha to U, g = -alpha m_i m_j
    r^(-alpha-2) d to the gradient of body i and -g to that of body j, and
    the 2x2 block k = -alpha m_i m_j r^(-alpha-2) (I - (alpha+2) d d^T / r^2)
    to the Hessian, +k on the blocks (i, i) and (j, j), -k on (i, j) and
    (j, i).  The result is bit for bit that of the scalar loop over pairs:
    r^2 is the BLAS dot of the stacked matmul, as ``d @ d`` is (x*x + y*y
    rounds differently where the dot fuses the multiply-add); the powers
    r^-alpha and r^(-alpha-2) are one ``np.float_power`` each, whose
    float64 loop calls libm ``pow`` per element as CPython's ``**`` and
    ``math.pow`` do, so no step runs once per pair in Python (``np.power``
    stays out: its SIMD loop differs from libm ``pow`` in the last bit);
    U is a sequential sum in pair order, not
    numpy's pairwise ``sum``; g and the four entries of k are computed for
    all pairs at once, with the loop's operations in the loop's order; the
    gradient and the Hessian take their terms from 0.0 in pair order
    (``_pair_index``) by one weighted ``np.bincount`` each, which adds in
    input order as ``np.add.at`` does; and each off-diagonal block is a
    zero block plus -k, so its zeros are unsigned.  A power that
    overflows to inf (r^2 that underflows to 0 included), or a U, DU or
    D^2U that is not finite (large masses overflow m_i m_j r^-alpha after
    the power), raises a ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        i, j, grad_at, hess_at, d = _pairs(q)
        _min_pair_distance(d, guard)
        n = q.size // 2
        r2 = np.matmul(d[:, None, :], d[:, :, None]).reshape(-1)
        r = np.sqrt(r2)
        p_u = np.float_power(r, -alpha)
        p_c = np.float_power(r, -alpha - 2)
        mm = m[i] * m[j]
        u = np.add.accumulate(mm * p_u)[-1]
        c = -alpha * mm * p_c
        g = c * d.T  # coordinate, then pair
        x, y = d[:, 0], d[:, 1]
        xy = x * y
        k = np.stack([x * x, xy, xy, y * y])  # d d^T: entry of the block, then pair
        k *= alpha + 2
        k /= r2
        np.subtract(np.eye(2).reshape(4, 1), k, out=k)
        k *= c
        grad = np.bincount(grad_at, np.concatenate([-g, g]).reshape(-1), 2 * n)
        nk = -k
        hess = np.bincount(hess_at, np.concatenate([k, k, nk, nk]).reshape(-1), 4 * n * n)
    if not (math.isfinite(u) and np.isfinite(grad).all() and np.isfinite(hess).all()):
        raise _overflow(alpha, r)
    return u, grad, hess.reshape(2 * n, 2 * n)


def potential_U(sys: NBodySystem) -> float:
    """U(q) = sum over pairs of m_i m_j / |q_i - q_j|^alpha."""
    u, _, _ = _potential_parts(sys.mass_vector(), sys.q(), sys.alpha)
    return u


def grad_U(sys: NBodySystem) -> np.ndarray:
    _, g, _ = _potential_parts(sys.mass_vector(), sys.q(), sys.alpha)
    return g


def hess_U(sys: NBodySystem) -> Matrix:
    _, _, h = _potential_parts(sys.mass_vector(), sys.q(), sys.alpha)
    return Matrix.from_numpy((h + h.T) / 2)


def locked_inertia(sys: NBodySystem) -> float:
    """I(q) = q^T M q."""
    return _inertia(sys.mass_vector(), sys.q())


def _perp(q: np.ndarray) -> np.ndarray:
    out = np.empty_like(q)
    out[0::2] = -q[1::2]
    out[1::2] = q[0::2]
    return out


# ---------------------------------------------------------------------------
# central configurations


def _gauge_normalize(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Recenter, rotate body 1 onto the positive x-axis, rescale to I = 1."""
    q = (q.reshape(-1, 2) - _weighted_com(m, q)).reshape(-1)
    r1 = math.hypot(q[0], q[1])
    scale = float(np.max(np.abs(q))) or 1.0
    if r1 > 1e-13 * scale:
        c, s = q[0] / r1, q[1] / r1
        rot = np.array([[c, s], [-s, c]])
        q = (q.reshape(-1, 2) @ rot.T).reshape(-1)
    inert = _inertia(m, q)
    if inert <= 0:
        raise CollisionError("total collapse to the origin")
    return q / math.sqrt(inert)


def _slice_basis(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean-orthonormal basis of the Newton slice: center-of-mass
    neutral, orthogonal to M q (sphere tangent) and to M q-perp (rotation)."""
    mm = np.repeat(m, 2)
    rows = np.zeros((4, q.size))
    rows[0, 0::2] = m
    rows[1, 1::2] = m
    rows[2] = mm * q
    rows[3] = mm * _perp(q)
    _, sv, vt = np.linalg.svd(rows)
    if np.min(sv) <= 1e-12 * np.max(sv):
        raise BasisConstructionError("gauge constraints are rank deficient")
    return vt[4:].T


def _residual(m: np.ndarray, mm: np.ndarray, q: np.ndarray, alpha: float, guard: float):
    """|DU + xi^2 M q| (``mm`` is m with each mass twice), U, DU, D^2U, xi^2."""
    u, g, h = _potential_parts(m, q, alpha, guard)
    xi2 = alpha * u
    f = g + xi2 * mm * q
    return math.sqrt(f @ f), u, g, h, xi2  # np.linalg.norm of a 1-D float array


def _plus_diagonal(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """h + diag(v) as a new array.  Equal to ``h + np.diag(v)`` bit for bit
    where h holds no -0.0, as the pair kernel's Hessians do."""
    out = h.copy()
    out.reshape(-1)[::h.shape[0] + 1] += v
    return out


def find_central_configuration(sys: NBodySystem,
                               settings: Optional[CCSettings] = None) -> CentralConfiguration:
    """Projected Newton search for a central configuration near the seed.

    Works on the gauge-fixed slice (center of mass at the origin, body 1 on
    the positive x-axis, I = 1); falls back to a projected gradient step with
    Armijo backtracking whenever the Newton step fails to reduce the
    residual DU + alpha U Mq.
    """
    cfg = settings or CCSettings()
    m = sys.mass_vector()
    alpha = sys.alpha
    mm = np.repeat(m, 2)
    q = _gauge_normalize(m, sys.q())
    res, u, g, h, xi2 = _residual(m, mm, q, alpha, cfg.collision_guard)
    for _ in range(cfg.max_iter):
        if res <= cfg.cc_tol:
            break
        z = _slice_basis(m, q)
        if z.shape[1] == 0:
            raise ConvergenceError(
                "zero-dimensional slice with residual above tolerance")
        red_grad = z.T @ g
        red_hess = z.T @ _plus_diagonal(h, xi2 * mm) @ z
        directions = []
        try:
            directions.append(np.linalg.solve(red_hess, -red_grad))
        except np.linalg.LinAlgError:
            pass
        directions.append(-red_grad)
        moved = False
        for c in directions:
            if not np.all(np.isfinite(c)):
                continue
            t = 1.0
            while t >= 2.0 ** -40:
                try:
                    q_new = _gauge_normalize(m, q + t * (z @ c))
                    res_new, u_n, g_n, h_n, xi2_n = _residual(
                        m, mm, q_new, alpha, cfg.collision_guard)
                except CollisionError:
                    t *= cfg.armijo_factor
                    continue
                if res_new < res * (1.0 - 1e-4 * t) or res_new < cfg.cc_tol:
                    q, res, u, g, h, xi2 = q_new, res_new, u_n, g_n, h_n, xi2_n
                    moved = True
                    break
                t *= cfg.armijo_factor
            if moved:
                break
        if not moved:
            raise ConvergenceError(
                f"no descent direction at residual {res:.3e}")
    else:
        if res > cfg.cc_tol:
            raise ConvergenceError(
                f"residual {res:.3e} above {cfg.cc_tol:.1e} "
                f"after {cfg.max_iter} iterations")
    # _gauge_normalize has centered q: recentering it again would move the
    # residual off the value tested against cc_tol
    system = NBodySystem(tuple(float(x) for x in m), float(alpha), tuple(float(x) for x in q))
    return CentralConfiguration(system, xi2, res, u, h)


# ---------------------------------------------------------------------------
# the amended Hessian on the slice


def _m_orthonormalize(z: np.ndarray, mm: np.ndarray) -> np.ndarray:
    gram = z.T @ (mm[:, None] * z)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as e:
        raise BasisConstructionError("slice basis degenerate in the mass metric") from e
    return z @ np.linalg.inv(chol).T


def amended_hessian(cc: CentralConfiguration) -> AmendedHessianReport:
    """Second variation of the amended potential at a central configuration.

    Returns the form -D^2U - xi^2 M + 4 xi^2 (Mq)(Mq)^T on an M-orthonormal
    basis of V = span{q} (+) T_q Shat together with the constrained Hessian
    D^2U + xi^2 M of U restricted to the sphere tangent, both with inertias,
    plus the residuals of the radial eigenvector identity and of the sign
    identity relating the two forms.
    """
    sys = cc.system
    m = sys.mass_vector()
    mm = np.repeat(m, 2)
    q = sys.q()
    alpha = sys.alpha
    n = sys.n
    if n < 2:
        raise ShapeError("need at least two bodies")
    xi2 = cc.xi_squared
    h = cc.hess_u  # D^2U at q, as the search evaluated it
    mq = mm * q
    constrained = _plus_diagonal(h, xi2 * mm)
    # -D^2U - xi^2 M + 4 xi^2 (Mq)(Mq)^T, bit for bit: negation and the sum
    # commute exactly in round-to-nearest
    form = 4.0 * xi2 * np.outer(mq, mq)
    form -= constrained
    z_shat = _m_orthonormalize(_slice_basis(m, q), mm)
    if z_shat.shape[1] != 2 * n - 4:
        raise BasisConstructionError("sphere-tangent slice has the wrong dimension")
    y = np.column_stack([q, z_shat])  # already M-orthonormal jointly
    on_v = y.T @ form @ y
    on_v = (on_v + on_v.T) / 2
    on_shat = z_shat.T @ constrained @ z_shat
    on_shat = (on_shat + on_shat.T) / 2
    op = form / mm[:, None]  # M^{-1} (form), the operator of the second variation
    lam = float(q @ form @ q)  # Rayleigh value, q is M-normalized
    radial_res = float(np.linalg.norm(op @ q - lam * q))
    op_scale = float(np.linalg.norm(op, 2)) or 1.0
    sign_res = float(np.max(np.abs(z_shat.T @ form @ z_shat + on_shat))) \
        if z_shat.shape[1] else 0.0
    return AmendedHessianReport(
        on_v=on_v,
        inertia_v=_inertia_float(on_v, None),  # both forms are exactly symmetric
        on_shat=on_shat,
        inertia_shat=_inertia_float(on_shat, None),
        radial_eigenvalue=lam,
        radial_residual=radial_res / op_scale,
        sign_identity_residual=sign_res,
        xi_squared=xi2,
        alpha=alpha,
    )


# ---------------------------------------------------------------------------
# the 4-dimensional symmetry block


def e1_linearization(xi, alpha) -> E1Report:
    """Linearized field on the block spanned by the configuration, its
    rotation, and their momenta.

    The matrix has eigenvalues {0, 0, +sqrt(alpha-2) xi, -sqrt(alpha-2) xi};
    the zero eigenvalue sits in a 2x2 Jordan block (kernel spanned by
    (0, 1, xi, 0)), and for alpha = 2 the whole matrix is one nilpotent 4x4
    Jordan block, certified by the ranks of its powers.
    """
    xi_f = Fraction(xi)
    alpha_f = Fraction(alpha)
    if xi_f == 0:
        raise ValueError("xi must be nonzero")
    a = Matrix([
        [0, -xi_f, 1, 0],
        [xi_f, 0, 0, 1],
        [(alpha_f + 1) * xi_f ** 2, 0, 0, -xi_f],
        [0, -xi_f ** 2, xi_f, 0],
    ], "rational")
    lam2 = (alpha_f - 2) * xi_f ** 2
    if lam2 == 0:
        lam = 0j
    else:
        root = _fraction_sqrt(abs(lam2))
        mag = float(root) if root is not None else math.sqrt(abs(lam2))
        lam = complex(mag, 0.0) if lam2 > 0 else complex(0.0, mag)
    eigenvalues = (0j, 0j, lam, -lam)
    powers = []
    acc = a
    for _ in range(4):
        powers.append(rank(acc))
        acc = acc @ a
    rank_powers = tuple(powers)
    return E1Report(
        matrix=a,
        xi=xi_f,
        alpha=alpha_f,
        eigenvalue_squared=lam2,
        eigenvalues=eigenvalues,
        kernel_vector=(Fraction(0), Fraction(1), xi_f, Fraction(0)),
        rank_powers=rank_powers,
        nilpotent_similar=rank_powers == (3, 2, 1, 0),
    )


# ---------------------------------------------------------------------------
# instability verdicts


def stability_verdict(cc: CentralConfiguration) -> RelativeEquilibriumVerdict:
    """Parity-based instability verdicts for the relative equilibrium.

    For 0 < alpha < 2 the verdict on the reduced space applies the parity
    rule to the amended form on V; for every alpha > 0 the verdict on the
    symplectic complement of the symmetry block applies it to the Morse data
    of the central configuration itself.  Both verdicts are reported; odd
    index or odd nullity anywhere means linear instability there.  The
    amended Hessian is built once and returned as ``hessian``.
    """
    rep = amended_hessian(cc)
    e2 = parity_verdict(rep.inertia_shat.morse_index, rep.inertia_shat.nullity)
    reduced = None
    if 0 < rep.alpha < 2:
        reduced = parity_verdict(rep.inertia_v.morse_index, rep.inertia_v.nullity)
    return RelativeEquilibriumVerdict(rep, reduced, e2)
