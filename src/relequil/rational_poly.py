"""Exact univariate polynomial arithmetic over the rationals.

Coefficient lists run lowest degree first and carry no trailing zeros; the
zero polynomial is the empty list.  These routines back the exact linear
algebra layer: characteristic and minimal polynomials, Yun square-free
decomposition, Sturm chains for real root counting, and bisection isolation
of real roots.  All decisions made here are exact; floats only appear when a
caller asks for a numeric approximation of an isolated root.

The hot loops run on integers.  Division is pseudo-division of the cleared
coefficients.  A sign at a rational point u / v (v > 0) is the sign of the
homogeneous form sum c_i u^i v^(deg - i) of a positive integer multiple c of
the polynomial, so Sturm counts and bisection never evaluate on ``Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional

__all__ = [
    "trim",
    "degree",
    "poly",
    "sub",
    "mul",
    "derivative",
    "divmod_exact",
    "monic",
    "gcd",
    "squarefree_decomposition",
    "sturm_chain",
    "count_distinct_real_roots",
    "cauchy_root_bound",
    "isolate_real_roots",
    "refine_root",
    "even_part",
]

Poly = list  # list[Fraction], index = power


def trim(coeffs: Iterable) -> Poly:
    c = [Fraction(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return c


def poly(*coeffs) -> Poly:
    """Build a polynomial from coefficients, lowest degree first."""
    return trim(coeffs)


def degree(p: Poly) -> int:
    return len(p) - 1  # zero polynomial has degree -1


def sub(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0) for i in range(n)])


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def derivative(p: Poly) -> Poly:
    return trim([i * a for i, a in enumerate(p)][1:])


def divmod_exact(p: Poly, d: Poly) -> tuple[Poly, Poly]:
    """Polynomial long division, exact over the rationals.

    Runs as pseudo-division on integers: with p = P / dp and d = D / dd
    cleared by ``_cleared``, lc(D)^e P = Q D + R for e = deg p - deg d + 1,
    so the quotient is dd Q / (lc(D)^e dp) and the remainder R / (lc(D)^e dp).
    """
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    p = trim(p)
    if len(p) < len(d):
        return [], p
    (r, dp), (big_d, dd) = _cleared(p), _cleared(d)
    lead = big_d[-1]
    n = len(d) - 1
    q = [0] * (len(p) - n)
    for k in range(len(q) - 1, -1, -1):
        c = r[n + k]
        q = [lead * x for x in q]
        q[k] = c
        r = [lead * x for x in r]
        for j, y in enumerate(big_d):
            r[j + k] -= c * y
    den = lead ** len(q) * dp
    r = r[:n]
    while r and r[-1] == 0:
        r.pop()
    # q leads with lc(P) lc(D)^(e-1) != 0, so only r needs trimming
    return [Fraction(x * dd, den) for x in q], [Fraction(x, den) for x in r]


def monic(p: Poly) -> Poly:
    if not p:
        return []
    lead = p[-1]
    return [a / lead for a in p]


def gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) is the zero polynomial."""
    a, b = list(p), list(q)
    while b:
        a, b = b, divmod_exact(a, b)[1]
        # keep coefficients small; positive scaling preserves the gcd
        if b:
            m = max(abs(x) for x in b)
            b = [x / m for x in b]
    return monic(a)


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun decomposition: return [(g_i, i)] with p = lc * prod g_i^i.

    The g_i are monic, square-free, pairwise coprime; factors equal to 1 are
    omitted.  Requires p nonzero.
    """
    if not p:
        raise ValueError("square-free decomposition of the zero polynomial")
    p = monic(p)
    if degree(p) == 0:
        return []
    dp = derivative(p)
    g = gcd(p, dp)
    if degree(g) == 0:
        return [(p, 1)]
    c = divmod_exact(p, g)[0]
    d = sub(divmod_exact(dp, g)[0], derivative(c))
    out: list[tuple[Poly, int]] = []
    i = 1
    while degree(c) > 0:
        a = gcd(c, d)
        if degree(a) > 0:
            out.append((a, i))
        c_next = divmod_exact(c, a)[0]
        d = sub(divmod_exact(d, a)[0], derivative(c_next))
        c = c_next
        i += 1
    return out


def sturm_chain(p: Poly) -> list[Poly]:
    chain = [list(p), derivative(p)]
    if not chain[1]:
        return chain[:1]
    while True:
        r = divmod_exact(chain[-2], chain[-1])[1]
        if not r:
            break
        m = max(abs(x) for x in r)
        chain.append([-x / m for x in r])
        if degree(chain[-1]) == 0:
            break
    return chain


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _variations(signs: list[int]) -> int:
    seq = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if a * b < 0)


def _cleared(p: Poly) -> tuple[list[int], int]:
    """Integer coefficients P and the least common denominator d > 0 with
    p = P / d; P has the sign of p at every point."""
    d = math.lcm(*(a.denominator for a in p))
    return [a.numerator * (d // a.denominator) for a in p], d


def _sign_at(c: list[int], u: int, v: int) -> int:
    """Sign of the integer polynomial c at u / v, v > 0: the sign of the
    homogeneous form sum c_i u^i v^(deg - i), taken by integer Horner."""
    h = 0
    w = 1
    for a in reversed(c):
        h = h * u + a * w
        w *= v
    return _sign(h)


def _variations_at(chain: list[list[int]], x) -> int:
    if x == "-inf":
        return _variations([_sign(s[-1]) * (-1) ** degree(s) if s else 0 for s in chain])
    if x == "+inf":
        return _variations([_sign(s[-1]) if s else 0 for s in chain])
    return _variations([_sign_at(s, x.numerator, x.denominator) for s in chain])


def count_distinct_real_roots(p: Poly, lo=None, hi=None) -> int:
    """Number of distinct real roots of p in (lo, hi], with None meaning an
    infinite endpoint.  Multiple roots are counted once (canonical Sturm
    chain, signs by ``_sign_at``)."""
    if degree(p) <= 0:
        return 0
    chain = [_cleared(s)[0] for s in sturm_chain(p)]
    va = _variations_at(chain, "-inf" if lo is None else Fraction(lo))
    vb = _variations_at(chain, "+inf" if hi is None else Fraction(hi))
    return va - vb


def cauchy_root_bound(p: Poly) -> Fraction:
    """Strict bound: every complex root of p has modulus < the bound."""
    if degree(p) < 1:
        return Fraction(1)
    lead = abs(p[-1])
    return Fraction(1) + max(abs(a) for a in p[:-1]) / lead


def isolate_real_roots(p: Poly) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals for the real roots of a square-free polynomial.

    Returns disjoint half-open intervals (lo, hi], each containing exactly
    one real root, ordered left to right.
    """
    if degree(p) <= 0:
        return []
    chain = [_cleared(s)[0] for s in sturm_chain(p)]

    def vcount(a: Fraction, b: Fraction) -> int:
        return _variations_at(chain, a) - _variations_at(chain, b)

    bound = cauchy_root_bound(p)
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(-bound, bound, vcount(-bound, bound))]
    while stack:
        a, b, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            out.append((a, b))
            continue
        m = (a + b) / 2
        cl = vcount(a, m)
        stack.append((m, b, cnt - cl))
        stack.append((a, m, cl))
    out.sort(key=lambda iv: iv[0])
    return out


def refine_root(p: Poly, lo: Fraction, hi: Fraction,
                max_steps: int = 200) -> tuple[float, Optional[Fraction]]:
    """Shrink an isolating interval (lo, hi] of a square-free p by bisection.

    Returns (float approximation, exact rational root or None).  The interval
    must contain exactly one root of square-free p.  The endpoints are
    integer numerators a, b over one shared denominator that doubles at each
    halving, and every sign is ``_sign_at`` of p cleared to integers, so the
    intervals, the float and the rational candidate are those of plain
    ``Fraction`` bisection without building a ``Fraction`` per step.
    """
    c = _cleared(p)[0]
    lo, hi = Fraction(lo), Fraction(hi)
    den = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    flo = _sign_at(c, a, den)
    fhi = _sign_at(c, b, den)
    if fhi == 0:
        return float(hi), hi
    while flo == 0:
        # lo is a different root of p sitting just outside the half-open
        # interval; walk the left endpoint inward until the sign is usable
        m, a, b, den = a + b, 2 * a, 2 * b, 2 * den
        fmid = _sign_at(c, m, den)
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
        fmid = _sign_at(c, m, den)
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
    if a * v < u * den <= b * v and _sign_at(c, u, v) == 0:
        return float(guess), guess
    return float(approx), None


def even_part(p: Poly) -> tuple[Poly, bool]:
    """Split p(x) = r(x^2) when p is even.

    Returns (r, is_even) where r collects the even-degree coefficients; the
    flag reports whether every odd-degree coefficient vanishes.
    """
    r = trim(p[0::2])
    is_even = all(a == 0 for a in p[1::2])
    return r, is_even

