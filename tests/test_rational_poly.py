import math
import time
import warnings
from fractions import Fraction
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import helpers as H
import relequil.rational_poly as rp
from conftest import SEED
from relequil.matrix_core import RATIONAL, Matrix, char_poly, standard_symplectic
from relequil.rational_poly import (
    cauchy_root_bound,
    cleared,
    count_distinct_real_roots,
    degree,
    derivative,
    even_part,
    gcd,
    isolate_real_roots,
    mul,
    quotient,
    refine_root,
    squarefree_decomposition,
    sturm_chain,
)
from relequil.spectral_flow import _real_roots


def poly(*coeffs):
    """The integer form of a rational polynomial, lowest degree first."""
    return cleared(coeffs)


def from_roots(roots):
    p = [1]
    for r in roots:
        r = Fraction(r)
        p = mul(p, [-r.numerator, r.denominator])
    return p


def _assert_nearest(p, lo, hi, x: float, exact: Optional[Fraction]):
    """(x, exact) from the root of p in (lo, hi]: exact is that root, and x
    its float; or exact signs of p at the midpoints between x and its
    neighbours, cut to (lo, hi], prove the root inside x's half-ulp cell."""
    lo, hi = Fraction(lo), Fraction(hi)
    if exact is not None:
        assert H._poly_eval(p, exact) == 0 and lo < exact <= hi and x == float(exact)
        return
    a = max(lo, (Fraction(math.nextafter(x, -math.inf)) + Fraction(x)) / 2)
    b = min(hi, (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2)
    fa, fb = H._poly_eval(p, a), H._poly_eval(p, b)
    assert a < b and fb and (fa * fb < 0 or a == lo and fa == 0)


def _assert_bounded_by(got: tuple, want: tuple):
    """got is within one ulp of a bisection reference's float, and finds
    every exact root that the reference finds."""
    assert abs(got[0] - want[0]) <= math.ulp(want[0])
    assert want[1] is None or got[1] == want[1]


def test_arithmetic_round_trip():
    p = poly(1, 0, -3, 2)  # (x - 1)^2 (2x + 1)
    q = poly(-1, 1)
    prod = mul(p, q)
    assert quotient(prod, q) == p
    assert quotient(p, poly(1, 2)) == poly(1, -2, 1)
    assert degree(prod) == degree(p) + 1
    with pytest.raises(ArithmeticError):
        quotient(prod, poly(-5, 1))
    with pytest.raises(ArithmeticError):
        quotient(p, poly(3, 0, 1))
    # 2 (x - 1) divides p over the rationals, not in Z[x]
    with pytest.raises(ArithmeticError):
        quotient(p, poly(-2, 2))


def test_eval_and_derivative():
    p = poly(Fraction(1, 2), 0, 1)  # x^2 + 1/2, cleared to 2 x^2 + 1
    assert p == [1, 0, 2]
    assert poly(Fraction(-2, 3), Fraction(5, 6), 0, 0) == [-4, 5]
    assert H._poly_eval(p, Fraction(2)) == 9
    assert derivative(p) == poly(0, 4)


def test_gcd_and_squarefree():
    p = mul(from_roots([1, 1, 2]), poly(1))
    q = from_roots([1, 3])
    g = gcd(p, q)
    assert H._poly_eval(g, Fraction(1)) == 0
    assert degree(g) == 1
    sf = H.squarefree_part(p)
    assert degree(sf) == 2
    assert H._poly_eval(sf, Fraction(1)) == 0 and H._poly_eval(sf, Fraction(2)) == 0


def test_gcd_at_zero_coprime_and_negative_arguments():
    # gcd is the normal form of the last member of sturm_chain(p, q): a zero
    # argument, a remainder sequence that ends in a constant and negative
    # leading coefficients must all come out as the Fraction reference's
    p = mul(from_roots([1, 2]), poly(-6))  # -6 (x-1)(x-2)
    q = mul(from_roots([1, -4]), poly(-2))
    cases = [(p, []), ([], p), (q, p), (p, mul(p, q)), (poly(-5), []), (poly(-5), q),
             (poly(3, -1), poly(-1, 0, -1)), (poly(-1, 0, -1), poly(3, -1))]
    for a, b in cases:
        g = gcd(a, b)
        assert g == cleared(H._poly_gcd([Fraction(x) for x in a], [Fraction(x) for x in b]))
        assert g[-1] > 0 and math.gcd(*g) == 1
    assert gcd(p, q) == gcd(q, p) == [-1, 1]
    assert gcd(p, []) == [2, -3, 1]
    assert gcd(poly(3, -1), poly(-1, 0, -1)) == gcd(poly(-5), q) == [1]
    assert gcd([], []) == []


def test_squarefree_decomposition_multiplicities():
    # (x-1)^3 (x+2)^1
    p = mul(from_roots([1, 1, 1]), from_roots([-2]))
    parts = squarefree_decomposition(p)
    mults = sorted(m for factor, m in parts if degree(factor) > 0)
    assert mults == [1, 3]


def test_sturm_counts():
    p = from_roots([-2, Fraction(1, 3), 5])
    assert count_distinct_real_roots(p, Fraction(0), Fraction(10)) == 2
    # half-open (lo, hi]: a root exactly at lo is not counted
    assert count_distinct_real_roots(p, Fraction(1, 3), Fraction(10)) == 1
    chain = sturm_chain(p)
    assert degree(chain[0]) == 3


def test_isolate_and_refine_rational_root():
    p = from_roots([Fraction(1, 3), 2])
    intervals = isolate_real_roots(p)
    assert len(intervals) == 2
    found = []
    for lo, hi in intervals:
        approx, exact = refine_root(p, lo, hi)
        found.append((approx, exact))
    found.sort()
    assert found[0][1] == Fraction(1, 3)
    assert found[1][1] == Fraction(2)


def test_refine_irrational_root():
    p = poly(-2, 0, 1)  # x^2 - 2
    intervals = isolate_real_roots(p)
    roots = sorted(refine_root(p, lo, hi)[0] for lo, hi in intervals)
    assert roots[0] == pytest.approx(-(2 ** 0.5), abs=1e-12)
    assert roots[1] == pytest.approx(2 ** 0.5, abs=1e-12)
    for lo, hi in intervals:
        assert refine_root(p, lo, hi)[1] is None
    # (2, 3] holds no root of x^2 - 1, and p has one sign at both ends
    with pytest.raises(ValueError, match="no sign change"):
        refine_root(poly(-1, 0, 1), Fraction(2), Fraction(3))


def test_cauchy_bound_contains_roots():
    p = from_roots([-7, Fraction(5, 2), 1])
    bound = cauchy_root_bound(p)
    assert bound > 7
    assert count_distinct_real_roots(p, -bound, bound) == 3


def test_even_part_round_trip():
    # p(x) = (x^2 + 2)(x^2 - 3) is even
    p = mul(poly(2, 0, 1), poly(-3, 0, 1))
    r, is_even = even_part(p)
    assert is_even
    assert H._poly_eval(r, Fraction(-2)) == 0 or H._poly_eval(r, Fraction(3)) == 0


def test_even_part_rejects_odd():
    p = poly(1, 1, 1)
    _, is_even = even_part(p)
    assert not is_even


def test_sturm_and_refine_match_fraction_reference():
    base = [
        # roots at 0, the first bisection midpoint of the symmetric Cauchy box
        from_roots([-1, 0, 1]),
        # rational roots that no dyadic midpoint hits
        from_roots([Fraction(1, 3), Fraction(-2, 7), Fraction(5, 3)]),
        mul(from_roots([Fraction(1, 3)]), poly(-2, 0, 1)),
        # irrational roots only, and a single root
        mul(poly(-2, 0, 1), poly(-3, 0, 1)),
        from_roots([Fraction(-9, 4)]),
        # large coefficients
        mul(from_roots([Fraction(10**9 + 7, 3), Fraction(-1, 10**6)]), poly(-5, 0, 1)),
        # remainder degrees that drop by 2, so that a pseudo-remainder's
        # multiplier lc^e has an odd e and needs |lc| to keep its sign
        poly(3, 2, 0, 0, 2), poly(0, 3, 0, 0, 0, 0, 1), poly(-1, 1, 2, 0, 0, -2),
    ]
    # the references run on rational p, the module on its integer form:
    # non-monic, and with a negative leading coefficient
    cases = base + [[-c for c in p] for p in base] + \
        [[Fraction(-7, 2) * c for c in p] for p in base]
    ends = [None, Fraction(0), Fraction(1, 3), Fraction(-1), Fraction(5, 2)]
    for q in cases:
        p = cleared(q)
        for lo in ends:
            for hi in ends:
                assert count_distinct_real_roots(p, lo, hi) == H.sturm_count_fraction(q, lo, hi)
        assert isolate_real_roots(p) == H.isolate_fraction(q)
        for lo, hi in isolate_real_roots(p):
            got = refine_root(p, lo, hi)
            _assert_nearest(p, lo, hi, *got)
            _assert_bounded_by(got, H.refine_root_fraction(q, lo, hi))


def test_refine_root_left_endpoint_root():
    # lo = 0 is itself a root outside the half-open interval (0, 1]
    for p in (from_roots([0, Fraction(3, 4)]), mul(poly(0, 1), poly(-2, 0, 4)),
              from_roots([0, Fraction(1, 3)]), from_roots([Fraction(1, 2), 0, 1])):
        hi = Fraction(1)
        if H._poly_eval(p, hi) == 0:
            hi = Fraction(7, 8)
        assert refine_root(p, Fraction(0), hi) == H.refine_root_fraction(p, Fraction(0), hi)
    # the walk from a root at lo lands exactly on the root (the midpoint 1/2)
    assert refine_root(from_roots([0, Fraction(1, 2)]), Fraction(0), Fraction(1)) == \
        (0.5, Fraction(1, 2))
    assert refine_root(from_roots([0, Fraction(3, 4)]), Fraction(0), Fraction(1))[1] == \
        Fraction(3, 4)
    assert refine_root(from_roots([0, Fraction(1, 3)]), Fraction(0), Fraction(1))[1] == \
        Fraction(1, 3)


_COEFF = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_FACTOR = st.lists(_COEFF, min_size=1, max_size=4).filter(lambda p: p[-1] != 0)


def _fraction_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_FACTOR, st.integers(1, 3)), min_size=1, max_size=3), _FACTOR)
def test_gcd_and_yun_match_fraction_reference(powers, other):
    # p = prod f^e and q = other times the first factor of p, as rationals
    p = [Fraction(1)]
    for f, e in powers:
        for _ in range(e):
            p = _fraction_mul(p, f)
    q = _fraction_mul(other, powers[0][0])
    assert gcd(cleared(p), cleared(q)) == cleared(H._poly_gcd(p, q))
    normal = cleared([c / p[-1] for c in p])
    parts = squarefree_decomposition(cleared(p))
    assert [i for _, i in parts] == sorted({i for _, i in parts})
    rebuilt = [1]
    for g, i in parts:
        assert degree(g) > 0 and g[-1] > 0 and math.gcd(*g) == 1
        for _ in range(i):
            rebuilt = mul(rebuilt, g)
    assert rebuilt == normal
    if degree(p) > 0:
        squarefree = [1]
        for g, _ in parts:
            squarefree = mul(squarefree, g)
        assert squarefree == cleared(H.squarefree_part(p))


def test_yun_chains_carry_each_factors_sturm_chain():
    for p in (from_roots([1, Fraction(-2, 3), 5]), mul(from_roots([1, 1, 2]), poly(-2, 0, 1)),
              mul(mul(from_roots([0, 0, 0]), poly(3, 0, 1)), poly(3, 0, 1))):
        parts = rp._yun_chains(p)
        assert [(g, m) for g, m, _ in parts] == squarefree_decomposition(p)
        for g, _, chain in parts:
            assert chain == sturm_chain(g)
    # a square-free p keeps the one chain that showed it square-free
    p = from_roots([1, Fraction(-2, 3), 5])
    ((g, m, chain),) = rp._yun_chains(p)
    assert (g, m) == (p, 1) and chain[0] is g


def test_isolate_refuses_a_polynomial_that_is_not_square_free():
    # x^3 (3 - x^3): a triple root at 0, the first bisection midpoint
    start = time.perf_counter()
    with pytest.raises(ValueError, match="square-free"):
        isolate_real_roots([0, 0, 0, 3, 0, 0, -1])
    with pytest.raises(ValueError, match="square-free"):
        isolate_real_roots(from_roots([Fraction(1, 3), Fraction(1, 3), 2]), 0, 1)
    assert time.perf_counter() - start < 1


def _pair_block_even_part(n: int) -> list:
    """The even part r of char_poly(J B) for the 2n x 2n pair-block
    B = S^T D S: D has n blocks diag(a, b), 1 <= a <= b <= 9, with the n
    smallest distinct products a b, every third negated, and S is the
    symplectic shear [[I, K], [0, I]] for the tridiagonal 0/1 matrix K."""
    blocks = {}
    for a in range(1, 10):
        for b in range(a, 10):
            blocks.setdefault(a * b, (a, b))
    d = [0] * (2 * n)
    for k, c in enumerate(sorted(blocks)[:n]):
        sign = -1 if k % 3 == 1 else 1
        d[k], d[n + k] = sign * blocks[c][0], sign * blocks[c][1]
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    shear = [[int(abs(i - j) <= 1) for j in range(n)] for i in range(n)]
    s = Matrix([eye[i] + shear[i] for i in range(n)] + [[0] * n + row for row in eye], RATIONAL)
    r, is_even = even_part(cleared(char_poly(standard_symplectic(n) @ s.T @ Matrix.diagonal(d) @ s)))
    assert is_even
    return r


def test_refine_root_sign_evaluations(monkeypatch):
    # the even part r of char_poly(J B) for a linearly stable 16 x 16 B, whose
    # eight roots -w^2 on the negative axis give the Krein crossings; plain
    # bisection takes about 60 signs per root
    r16 = [391910400, 724818240, 418238016, 94732684, 9918652, 530713, 14767, 199, 1]
    # the same for a 48 x 48 pair-block B: its roots -a b are integers, each
    # decided by one sign once the cell holds one integer; r + 1 has an
    # irrational root beside each, whose search runs to the half-ulp cell
    r48 = _pair_block_even_part(24)
    assert r48 == from_roots([-c for c in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14,
                                           15, 16, 18, 20, 21, 24, 25, 27, 28, 30, 32, 35)])
    calls, plain = [], []
    sign_at, plain_sign_at = rp._sign_at, _plain_sign_at
    monkeypatch.setattr(rp, "_sign_at", lambda c, u, v: calls.append((c, v)) or sign_at(c, u, v))
    monkeypatch.setitem(globals(), "_plain_sign_at",
                        lambda c, u, v: plain.append(v) or plain_sign_at(c, u, v))
    for r, most in ((r16, 15), (r48, 15), ([r48[0] + 1] + r48[1:], 24)):
        intervals = isolate_real_roots(r, None, 0)
        assert len(intervals) == len(r) - 1
        for lo, hi in intervals:
            calls.clear()
            plain.clear()
            got = refine_root(r, lo, hi)
            assert len(calls) <= most
            _assert_nearest(r, lo, hi, *got)
            _assert_bounded_by(got, _plain_refine_root(r, lo, hi))
            # every sign is on the grid of float midpoints, not finer than
            # twice plain bisection's last cell
            assert max(v for c, v in calls if c is r) <= 2 * max(plain)


# ---------------------------------------------------------------------------
# Plain bisection, the module's own code before refine_root located the
# nearest float, kept verbatim below: the intervals must be the same, every
# float within one ulp of its float, and every exact root it finds found.

Poly = list


def _plain_variations(values) -> int:
    seq = [x > 0 for x in values if x]
    return sum(1 for a, b in zip(seq, seq[1:]) if a != b)


def _plain_sign_at(c: Poly, u: int, v: int) -> int:
    """Sign of the integer polynomial c at u / v, v > 0: the sign of the
    homogeneous form sum c_i u^i v^(deg - i), taken by integer Horner."""
    h, w = 0, 1
    for a in reversed(c):
        h = h * u + a * w
        w *= v
    return (h > 0) - (h < 0)


def _plain_variations_at(chain: list[Poly], x) -> int:
    if x == "-inf":
        return _plain_variations([s[-1] * (-1) ** degree(s) if s else 0 for s in chain])
    if x == "+inf":
        return _plain_variations([s[-1] if s else 0 for s in chain])
    return _plain_variations([_plain_sign_at(s, x.numerator, x.denominator) for s in chain])


def _plain_isolate_real_roots(p: Poly) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals for the real roots of a square-free polynomial.

    Returns disjoint half-open intervals (lo, hi], each containing exactly
    one real root, ordered left to right.
    """
    if degree(p) <= 0:
        return []
    chain = sturm_chain(p)

    def vcount(a: Fraction, b: Fraction) -> int:
        return _plain_variations_at(chain, a) - _plain_variations_at(chain, b)

    bound = cauchy_root_bound(p)
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(-bound, bound, vcount(-bound, bound))]
    while stack:
        a, b, cnt = stack.pop()
        if cnt == 1:
            out.append((a, b))
        elif cnt > 1:
            m = (a + b) / 2
            cl = vcount(a, m)
            stack += [(m, b, cnt - cl), (a, m, cl)]
    out.sort(key=lambda iv: iv[0])
    return out


def _plain_refine_root(p: Poly, lo: Fraction, hi: Fraction,
                       max_steps: int = 200) -> tuple[float, Optional[Fraction]]:
    """Shrink an isolating interval (lo, hi] of a square-free p by bisection.

    Returns (float approximation, exact rational root or None).  The interval
    must contain exactly one root of square-free p.  The endpoints are
    integer numerators a, b over one shared denominator that doubles at each
    halving, and every sign is ``_plain_sign_at`` of p, so the intervals, the
    float and the rational candidate are those of plain ``Fraction``
    bisection without building a ``Fraction`` per step.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    den = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    flo = _plain_sign_at(p, a, den)
    fhi = _plain_sign_at(p, b, den)
    if fhi == 0:
        return float(hi), hi
    while flo == 0:
        # lo is a different root of p sitting just outside the half-open
        # interval; walk the left endpoint inward until the sign is usable
        m, a, b, den = a + b, 2 * a, 2 * b, 2 * den
        fmid = _plain_sign_at(p, m, den)
        if fmid == 0:
            return float(Fraction(m, den)), Fraction(m, den)
        if fmid == fhi:
            # a simple root strictly between mid and hi would flip the sign,
            # so the root lies in (lo, mid]
            b, fhi = m, fmid
        else:
            a, flo = m, fmid
    if flo == fhi:
        raise ValueError("no sign change over the isolating interval")
    for _ in range(max_steps):
        # stop once hi - lo < |mid| 1e-17 + min(1e-20, |mid| 1e-17), with
        # mid = (a + b) / (2 den): relative below |mid| = 1e-3, so that
        # roots of small magnitude keep their leading digits
        rel = 10**3 * abs(a + b)
        if 2 * 10**20 * (b - a) < rel + min(2 * den, rel):
            break
        m, a, b, den = a + b, 2 * a, 2 * b, 2 * den
        fmid = _plain_sign_at(p, m, den)
        if fmid == 0:
            return float(Fraction(m, den)), Fraction(m, den)
        if fmid == flo:
            a = m
        else:
            b = m
    approx = Fraction(a + b, 2 * den)
    # bisection midpoints are dyadic and miss rational roots like 1/3, so
    # test the best small-denominator candidate before settling for a float
    guess = approx.limit_denominator(10**12)
    u, v = guess.numerator, guess.denominator
    if a * v < u * den <= b * v and _plain_sign_at(p, u, v) == 0:
        return float(guess), guess
    return float(approx), None


# dyadic roots, which bisection meets as midpoints; rational roots off the
# dyadic grid; tiny roots, relative to the stop rule's 1e-20
_DYADIC = st.builds(lambda j, k: Fraction(j, 2**k), st.integers(-40, 40), st.integers(0, 10))
_RATIONAL = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
_TINY = st.builds(lambda j, k: Fraction(j, 10**k), st.integers(1, 9), st.integers(6, 14))
# d x^2 - c: the pair +-sqrt(c / d), irrational unless c / d is a square
_PAIR = st.builds(lambda c, d: [-c, 0, d], st.integers(2, 60), st.integers(1, 5))


def _pair_at_rounding_boundary(x: float) -> list:
    """d t^2 - c with sqrt(c / d) within 1e-40 of the midpoint between x and
    the next double: there the float depends on the last bisection cell."""
    m = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    c = (m * m).limit_denominator(10**40)
    return [-c.numerator, 0, c.denominator]


_BOUNDARY = st.builds(_pair_at_rounding_boundary, st.floats(1e-9, 1e6))
_END = st.one_of(st.none(), _DYADIC, _RATIONAL)
_CELLS = [(Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)), (Fraction(-1, 2), Fraction(3, 4))]


@seed(SEED)
@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(_DYADIC, _RATIONAL, _TINY), max_size=5),
       st.lists(st.one_of(_PAIR, _BOUNDARY), max_size=2), _END, _END)
def test_isolate_and_refine_match_plain_bisection(roots, pairs, lo, hi):
    p = [1]
    for r in roots:
        p = mul(p, [-r.numerator, r.denominator])
    for q in pairs:
        p = mul(p, q)
    for g, _ in squarefree_decomposition(p):
        intervals = _plain_isolate_real_roots(g)
        assert isolate_real_roots(g) == intervals
        # the drawn ends, and ends on the intervals' own ends
        ends = [(lo, hi)] + [(b, None) for _, b in intervals] + [(None, a) for a, _ in intervals]
        for x, y in ends:
            assert isolate_real_roots(g, x, y) == [
                (a, b) for a, b in intervals if (x is None or b > x) and (y is None or a < y)]
        cells = intervals + [(a, b) for a, b in _CELLS if count_distinct_real_roots(g, a, b) == 1]
        for a, b in cells:
            got = refine_root(g, a, b)
            # the float is the nearest, proved by exact signs at its midpoints
            _assert_nearest(g, a, b, *got)
            _assert_bounded_by(got, _plain_refine_root(g, a, b))


# ---------------------------------------------------------------------------
# Seeded isolation: half-ulp cells found from float seeds and proved by exact
# signs must give the roots that isolation by bisection gives.


def _factors(roots, pairs) -> list:
    p = [1]
    for r in roots:
        p = mul(p, [-r.numerator, r.denominator])
    for q in pairs:
        p = mul(p, q)
    return [g for g, _ in squarefree_decomposition(p)]


def _root_path(g: Poly, a: Fraction, b: Fraction) -> list:
    """The cells of the bisection of (a, b] that hold the one root of g in
    it, from (a, b] down to the first narrower than the root's float cell
    or that has the root at its midpoint or right end."""
    path = []
    while True:
        path.append((a, b))
        mid = (a + b) / 2
        if H._poly_eval(g, mid) == 0 or H._poly_eval(g, b) == 0 or \
                b - a < math.ulp(float(mid)) / 4:
            return path
        a, b = (a, mid) if count_distinct_real_roots(g, a, mid) else (mid, b)


@seed(SEED)
@settings(max_examples=25, deadline=None)
@given(st.lists(st.one_of(_DYADIC, _RATIONAL, _TINY), max_size=4),
       st.lists(st.one_of(_PAIR, _BOUNDARY), max_size=2))
def test_refine_root_is_bisections_from_every_cell_on_the_roots_path(roots, pairs):
    # refine_root from any bisection cell on a root's path, down to cells
    # narrower than the root's float cell, gives what it gives from the
    # isolating interval: the float nearest the root, and the same exact
    # root, since the rules that find it read the float's cell only
    for g in _factors(roots, pairs):
        for lo, hi in _plain_isolate_real_roots(g):
            want = refine_root(g, lo, hi)
            _assert_nearest(g, lo, hi, *want)
            assert all(refine_root(g, a, b) == want for a, b in _root_path(g, lo, hi))


def _check_seeded(g: Poly, lo=None, hi=None):
    """The seeded roots of g, which must be proved or None, with no
    warning; ``_real_roots`` must give from them the (float, exact,
    multiplicity) it gives from ``_isolate`` alone."""
    chain = sturm_chain(g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cells = rp._seeded(chain)
        seeded = [root[:3] for root in _real_roots([(chain, 1)], lo, hi)]
    with mock.patch.object(rp, "_seeded", lambda *_: None):
        assert seeded == [root[:3] for root in _real_roots([(chain, 1)], lo, hi)]
    if cells is not None:
        assert len(cells) == count_distinct_real_roots(g)
        assert [k for k, _, _, _ in cells] == sorted({k for k, _, _, _ in cells})
        for k, exact, a, b in cells:
            # an exact root, or the half-ulp cell of float k with a sign change
            x = rp._float(k)
            _assert_nearest(g, a if exact is None else exact - 1, b if exact is None else exact, x, exact)
            assert exact is not None or (a, b) == (
                (Fraction(math.nextafter(x, -math.inf)) + Fraction(x)) / 2,
                (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2)
    return cells


@seed(SEED)
@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(_DYADIC, _RATIONAL, _TINY), max_size=5),
       st.lists(st.one_of(_PAIR, _BOUNDARY), max_size=2), _END, _END)
def test_seeded_cells_give_the_roots_of_isolation(roots, pairs, lo, hi):
    for g in _factors(roots, pairs):
        _check_seeded(g, lo, hi)


def test_seeded_cells_refuse_coefficients_that_overflow_a_float():
    # c_0 / c_2 = -1e400 has no float, so the seeds are refused; the
    # isolating intervals from the box of width 2e400 still give the floats
    # nearest the roots +-10^200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chain = sturm_chain([-(10**400), 0, 1])
        assert rp._seeded(chain) is None
        assert [root[:2] for root in _real_roots([(chain, 1)], None, None)] == [
            (-1e200, None), (1e200, None)]


def test_refine_root_past_the_float_range_gives_inf():
    # the roots -+10^400 of x^2 - 10^800 round to -+inf, as they do in IEEE
    # arithmetic; the rational root -10^400 of x + 10^400 is not found
    # there, since no float cell narrows it
    for lo, hi in isolate_real_roots([-(10**800), 0, 1]):
        assert refine_root([-(10**800), 0, 1], lo, hi) == (math.inf if lo + hi > 0 else -math.inf, None)
    (lo, hi), = isolate_real_roots([10**400, 1])
    assert refine_root([10**400, 1], lo, hi) == (-math.inf, None)


@pytest.mark.parametrize("g, proved", [
    # a complex pair 1e-20 off the axis beside a real root
    (mul([-3, 1], [10**40 + 1, -2 * 10**40, 10**40]), None),
    # two roots closer than their seeds' error: here with one nearest float,
    # and in the second a pair of complex seeds, refused only by the count
    (from_roots([1, 1 + Fraction(1, 10**20)]), False),
    (from_roots([1, 1 + Fraction(1, 10**10), 3]), False),
    # a root on the end of every cell from level 21 of the Cauchy-box tree
    # down, x - r with r = B (2^19 + 1) / 2^20 for B = 1 + r
    ([-(2**19 + 1), 2**19 - 1], True),
    # a tiny root
    ([-1, 10**14], True),
    # a root 1e-60, 200 halvings below the box of width 2 + 2e-60
    ([-1, 10**60], True),
    # a rational root beside irrational ones, whose cells hold no multiple
    # of 1 / |p_n|, so that the one below them is no candidate
    (mul([-1, 1], [-2, 0, 1]), True),
])
def test_seeded_cells_prove_or_refuse(g, proved):
    cells = _check_seeded(g)
    assert proved is None or (cells is not None) == proved


def test_seeded_cells_take_no_seed_on_trust(monkeypatch):
    # seeds 1e-6 off their roots, about 2^33 floats away: each search walks
    # to its root's cell and proves it; two seeds of one root in place of one
    # for each of two, where the sign of p above the second root leads its
    # search there; one seed for two roots, refused by the count; and three
    # seeds between the roots 1/2 and 7/10 of three, where the sign of p
    # above the last root leads its search to 1/2 too, refused
    roots = np.roots
    monkeypatch.setattr(rp.np, "roots", lambda c: roots(c) * (1 + 1e-6))
    for g in (from_roots([1, 2, 3]), _pair_block_even_part(6)):
        assert _check_seeded(g) is not None
    monkeypatch.setattr(rp.np, "roots", lambda c: np.array([1.0, 1.0]))
    assert [exact for _, exact, _, _ in _check_seeded(from_roots([1, 3]))] == [1, 3]
    monkeypatch.setattr(rp.np, "roots", lambda c: np.array([1.0]))
    assert _check_seeded(from_roots([1, 3])) is None
    monkeypatch.setattr(rp.np, "roots", lambda c: np.array([0.6, 0.6, 0.6]))
    assert _check_seeded(from_roots([Fraction(1, 2), Fraction(7, 10), Fraction(9, 10)])) is None


def test_a_seed_across_a_cell_end_from_its_root_finds_the_root(monkeypatch):
    # the root r of g sits 2e-15 above 3 B / 8, and its seed below that
    # point: the search crosses it to the float nearest r
    r = Fraction(3 * 10**14 + 1, 5 * 10**14 - 1)
    g = [-r.numerator, r.denominator]
    end = 3 * cauchy_root_bound(g) / 8
    x = float(end) if Fraction(float(end)) < end else math.nextafter(float(end), 0)
    monkeypatch.setattr(rp.np, "roots", lambda c: np.array([x]))
    cells = _check_seeded(g)
    assert cells is not None and rp._float(cells[0][0]) == float(r) != x


def test_seeded_krein_roots_take_few_exact_signs(monkeypatch):
    # the even parts r of char_poly(J B) of test_refine_root_sign_evaluations:
    # a seed in its root's cell takes two signs, one some floats off a few
    # more: 32 signs for r16 against 156 by bisection from the box; 90
    # against 598 for a 40 x 40 pair block, whose seeds are up to 1e12 floats
    # off.  r48's integer roots -1..-35 come out of np.roots as complex
    # pairs, so it is isolated by bisection (895 signs)
    r16 = [391910400, 724818240, 418238016, 94732684, 9918652, 530713, 14767, 199, 1]
    calls = []
    sign_at = rp._sign_at
    monkeypatch.setattr(rp, "_sign_at", lambda c, u, v: calls.append(v) or sign_at(c, u, v))
    for r, most in ((r16, 48), (_pair_block_even_part(20), 150), (_pair_block_even_part(24), 900)):
        calls.clear()
        assert len(_real_roots([(sturm_chain(r), 1)], None, 0)) == degree(r)
        assert len(calls) <= most
