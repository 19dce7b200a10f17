"""Exact univariate polynomials with integer coefficients.

A polynomial is a list of ``int`` coefficients, lowest degree first, with no
trailing zeros; the zero polynomial is the empty list.  A rational
polynomial enters once, through ``cleared``.  A positive multiple of p has
the roots and signs of p, so no count, interval or refined root below
depends on the scale.  ``gcd`` and the Yun factors come back in normal form:
primitive with a positive leading coefficient, which is unique; for a monic
rational p that is ``cleared(p)``.  Remainders are pseudo-remainders with a
positive multiplier |lc|^e, so Sturm chains keep their signs, divided by
their content (primitive PRS; Collins 1967, Brown 1971).  ``Fraction``
appears only in isolating intervals and in what ``refine_root`` returns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

__all__ = [
    "cleared",
    "degree",
    "mul",
    "derivative",
    "quotient",
    "gcd",
    "squarefree_decomposition",
    "sturm_chain",
    "count_distinct_real_roots",
    "root_sign_counts",
    "cauchy_root_bound",
    "isolate_real_roots",
    "refine_root",
    "even_part",
]

Poly = list  # list[int], index = power


def _trim(c: list) -> Poly:
    while c and c[-1] == 0:
        c.pop()
    return c


def cleared(p) -> Poly:
    """d p for a rational polynomial p (ints or ``Fraction``s, lowest degree
    first) and the least common denominator d > 0 of its coefficients."""
    d = math.lcm(*(a.denominator for a in p))
    return _trim([a.numerator * (d // a.denominator) for a in p])


def degree(p: Poly) -> int:
    return len(p) - 1  # zero polynomial has degree -1


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def derivative(p: Poly) -> Poly:
    return [i * a for i, a in enumerate(p)][1:]


def _normal(p: Poly) -> Poly:
    """p over its content, signed so that the leading coefficient is > 0."""
    g = math.gcd(*p) if p[-1] > 0 else -math.gcd(*p)
    return [a // g for a in p]


def _prem(p: Poly, d: Poly) -> Poly:
    """The remainder of |lc(d)|^e p on division by d, e = deg p - deg d + 1:
    a positive multiple of the rational remainder, so it has that sign at
    every point.  p is returned as it is when deg p < deg d."""
    lead, low = abs(d[-1]), d[:-1]
    r = list(p)
    for k in range(len(p) - len(d), -1, -1):
        c = r.pop() if d[-1] > 0 else -r.pop()
        r = [lead * x for x in r]
        for j, y in enumerate(low, k):
            r[j] -= c * y
    return _trim(r)


def quotient(p: Poly, d: Poly) -> Poly:
    """The exact quotient p / d in Z[x]; ``ArithmeticError`` when d does not
    divide p there.  For a primitive d that is when d does not divide p over
    the rationals (Gauss's lemma)."""
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(p)
    q = [0] * max(len(p) - len(d) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        q[k] = c = r[k + len(d) - 1] // d[-1]
        for j, y in enumerate(d, k):  # leaves the remainder of that division
            r[j] -= c * y
    if any(r):
        raise ArithmeticError("divisor does not divide the polynomial")
    return q


def gcd(p: Poly, q: Poly) -> Poly:
    """Greatest common divisor in normal form, by the primitive remainder
    sequence; gcd(0, 0) is the zero polynomial."""
    a, b = p, q
    while b:
        r = _prem(a, b)
        a, b = b, r and [x // math.gcd(*r) for x in r]
    return a and _normal(a)


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun decomposition: return [(g_i, i)] with prod g_i^i the normal form
    of p.

    The g_i are in normal form, square-free and pairwise coprime; factors
    equal to 1 are omitted.  Every division is a ``quotient`` by a primitive
    gcd, so it stays in Z[x].  Requires p nonzero.
    """
    if not p:
        raise ValueError("square-free decomposition of the zero polynomial")
    p = _normal(p)
    if degree(p) == 0:
        return []
    dp = derivative(p)
    g = gcd(p, dp)
    if degree(g) == 0:
        return [(p, 1)]
    c = quotient(p, g)
    d = _trim([x - y for x, y in zip(quotient(dp, g), derivative(c))])
    out: list[tuple[Poly, int]] = []
    i = 1
    while degree(c) > 0:
        a = gcd(c, d)
        if degree(a) > 0:
            out.append((a, i))
        c = quotient(c, a)
        # d / a and c' both have degree deg c - 1, or are both zero (Yun)
        d = _trim([x - y for x, y in zip(quotient(d, a), derivative(c))])
        i += 1
    return out


def sturm_chain(p: Poly) -> list[Poly]:
    """p, p' and the negated primitive pseudo-remainders: each member a
    positive multiple of the canonical Sturm chain's."""
    chain = [p, derivative(p)]
    if not chain[1]:
        return chain[:1]
    while True:
        r = _prem(chain[-2], chain[-1])
        if not r:
            break
        g = -math.gcd(*r)
        chain.append([x // g for x in r])
        if degree(chain[-1]) == 0:
            break
    return chain


def _variations(values) -> int:
    seq = [x > 0 for x in values if x]
    return sum(1 for a, b in zip(seq, seq[1:]) if a != b)


def _sign_at(c: Poly, u: int, v: int) -> int:
    """Sign of the integer polynomial c at u / v, v > 0: the sign of the
    homogeneous form sum c_i u^i v^(deg - i), taken by integer Horner."""
    h, w = 0, 1
    for a in reversed(c):
        h = h * u + a * w
        w *= v
    return (h > 0) - (h < 0)


def _variations_at(chain: list[Poly], x) -> int:
    if x == "-inf":
        return _variations([s[-1] * (-1) ** degree(s) if s else 0 for s in chain])
    if x == "+inf":
        return _variations([s[-1] if s else 0 for s in chain])
    return _variations([_sign_at(s, x.numerator, x.denominator) for s in chain])


def count_distinct_real_roots(p: Poly, lo=None, hi=None) -> int:
    """Number of distinct real roots of p in (lo, hi], with None meaning an
    infinite endpoint.  Multiple roots are counted once (Sturm chain, signs
    by ``_sign_at``)."""
    if degree(p) <= 0:
        return 0
    chain = sturm_chain(p)
    va = _variations_at(chain, "-inf" if lo is None else Fraction(lo))
    vb = _variations_at(chain, "+inf" if hi is None else Fraction(hi))
    return va - vb


def root_sign_counts(p: Poly) -> tuple[int, int, int]:
    """(negative, zero, positive) root counts, with multiplicity, of a
    nonzero p with only real roots: z = mult(0), and by Descartes' rule the
    sign variations of p(-x) / x^z and p(x) / x^z, exact for such a p."""
    z = next(k for k, c in enumerate(p) if c)
    neg = _variations(-c if k % 2 else c for k, c in enumerate(p[z:]))
    return neg, z, _variations(p[z:])


def cauchy_root_bound(p: Poly) -> Fraction:
    """Strict bound: every complex root of p has modulus < the bound."""
    if degree(p) < 1:
        return Fraction(1)
    return 1 + Fraction(max(abs(a) for a in p[:-1]), abs(p[-1]))


def isolate_real_roots(p: Poly) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals for the real roots of a square-free polynomial.

    Returns disjoint half-open intervals (lo, hi], each containing exactly
    one real root, ordered left to right.
    """
    if degree(p) <= 0:
        return []
    chain = sturm_chain(p)

    def vcount(a: Fraction, b: Fraction) -> int:
        return _variations_at(chain, a) - _variations_at(chain, b)

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


def refine_root(p: Poly, lo: Fraction, hi: Fraction,
                max_steps: int = 200) -> tuple[float, Optional[Fraction]]:
    """Shrink an isolating interval (lo, hi] of a square-free p by bisection.

    Returns (float approximation, exact rational root or None).  The interval
    must contain exactly one root of square-free p.  The endpoints are
    integer numerators a, b over one shared denominator that doubles at each
    halving, and every sign is ``_sign_at`` of p, so the intervals, the
    float and the rational candidate are those of plain ``Fraction``
    bisection without building a ``Fraction`` per step.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    den = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    flo = _sign_at(p, a, den)
    fhi = _sign_at(p, b, den)
    if fhi == 0:
        return float(hi), hi
    while flo == 0:
        # lo is a different root of p sitting just outside the half-open
        # interval; walk the left endpoint inward until the sign is usable
        m, a, b, den = a + b, 2 * a, 2 * b, 2 * den
        fmid = _sign_at(p, m, den)
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
        fmid = _sign_at(p, m, den)
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
    if a * v < u * den <= b * v and _sign_at(p, u, v) == 0:
        return float(guess), guess
    return float(approx), None


def even_part(p: Poly) -> tuple[Poly, bool]:
    """Split p(x) = r(x^2) when p is even.

    Returns (r, is_even) where r collects the even-degree coefficients; the
    flag reports whether every odd-degree coefficient vanishes.
    """
    return _trim(p[0::2]), not any(p[1::2])

