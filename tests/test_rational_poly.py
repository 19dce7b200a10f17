import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers as H
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


def poly(*coeffs):
    """The integer form of a rational polynomial, lowest degree first."""
    return cleared(coeffs)


def from_roots(roots):
    p = [1]
    for r in roots:
        r = Fraction(r)
        p = mul(p, [-r.numerator, r.denominator])
    return p


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
            assert refine_root(p, lo, hi) == H.refine_root_fraction(q, lo, hi)


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
