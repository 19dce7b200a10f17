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
appears only in interval ends, root probes and what ``refine_root`` returns.

Real roots are isolated by bisecting the Cauchy box (-B, B], B = u / v, with
Sturm counts.  A node (u c_a / (v 2^k), u c_b / (v 2^k)] carries the number
N of roots <= each end, N(x) = V(-inf) - V(x) for the sign variations V of
the chain, so a split evaluates the chain once, at its midpoint, and not at
all where the midpoint lies outside (-2^e, 2^e) of ``_root_exponent``.
``isolate_real_roots(p, lo, hi)`` descends only nodes that meet (lo, hi).
Signs are those of the homogeneous form ``_sign_at`` at (numerator,
denominator).

A root r is located as the float nearest it: the float k whose half-ulp
cell (m(k - 1), m(k)] holds r, m(k) the midpoint of floats k and k + 1, so
that exact signs of p at m(k - 1) and m(k) prove it.  ``_search`` probes
midpoints only, from an isolating interval or a float guess: the secant
through the last two probes, aimed one float past its root so that a good
guess closes the cell in two signs; regula falsi on the cell's ends with
Illinois' halving where the secant leaves them; a doubling step from an
open end; and a bisection where three probes did not halve the cell.  The
root is exact where a probe is a zero, or where a candidate that passes the
rational root test (u / v with u | p_0, v | p_n) is one: the one multiple
of 1 / |p_n| in a cell that holds at most one, else the float itself or
its ``limit_denominator(10**12)``.
``refine_root`` runs it from an isolating interval; ``_seeded`` from each
real root of ``np.roots``, with exact signs as the proof (Kobel, Rouillier
& Sagraloff, ISSAC 2016): a sign change over each cell or an exact zero,
floats that increase, and as many as p has real roots, V(-inf) - V(+inf).
Where the seeds are complex, missing or unproved, ``_roots_between`` takes
``_isolate``'s intervals instead; both give the same floats and roots.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from typing import Optional

import numpy as np

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
    """Greatest common divisor in normal form: the last member of
    ``sturm_chain(p, q)``, a primitive remainder sequence, up to its sign;
    gcd(0, 0) is the zero polynomial."""
    g = sturm_chain(p, q)[-1]
    return g and _normal(g)


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
    return _yun(p, sturm_chain(p)) if degree(p) > 0 else []


def _yun(p: Poly, chain: list[Poly]) -> list[tuple[Poly, int]]:
    """Yun's factors of p in normal form, deg p > 0, from its Sturm chain:
    the chain's last member is gcd(p, p') up to a constant factor, so a
    constant one means that p is square-free."""
    if degree(chain[-1]) == 0:
        return [(p, 1)]
    g = _normal(chain[-1])
    c = quotient(p, g)
    d = _trim([x - y for x, y in zip(quotient(chain[1], g), derivative(c))])
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


def _yun_chains(p: Poly) -> list[tuple[Poly, int, list[Poly]]]:
    """``squarefree_decomposition(p)`` with the Sturm chain of each factor,
    as (g, multiplicity, chain): a square-free p keeps the chain that showed
    it square-free, so its remainder sequence runs once."""
    p = _normal(p)
    if degree(p) <= 0:
        return []
    chain = sturm_chain(p)
    return [(g, m, chain if g is p else sturm_chain(g)) for g, m in _yun(p, chain)]


def sturm_chain(p: Poly, q: Optional[Poly] = None) -> list[Poly]:
    """p, q (default p') and the negated primitive pseudo-remainders: each
    member a positive multiple of the canonical signed remainder sequence's."""
    chain = [p, derivative(p) if q is None else q]
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
    """The homogeneous form sum c_i u^i v^(deg - i) = v^deg c(u / v) for
    v > 0, by integer Horner: an integer with the sign of c at u / v."""
    h, w = 0, 1
    for a in reversed(c):
        h = h * u + a * w
        w *= v
    return h


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
    return _count(sturm_chain(p), lo, hi)


def _count(chain: list[Poly], lo=None, hi=None) -> int:
    """``count_distinct_real_roots`` of chain[0] from its Sturm chain."""
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


def _root_sign(g: Poly, h: Poly, lo: Fraction, hi: Fraction) -> int:
    """The sign of h at the one root of the square-free g in (lo, hi], an
    irrational root: the Tarski query V(lo) - V(hi) on the signed remainder
    sequence seeded with (g, g' h mod g) (Sturm-Tarski; Basu, Pollack & Roy,
    ch. 2).  It needs g(lo) != 0, so a root of g at lo, outside the
    interval, is first left out by halving toward the root."""
    while not _sign_at(g, lo.numerator, lo.denominator):
        mid = (lo + hi) / 2
        if _sign_at(g, mid.numerator, mid.denominator) * _sign_at(g, hi.numerator, hi.denominator) > 0:
            hi = mid
        else:
            lo = mid
    chain = sturm_chain(g, _prem(mul(derivative(g), h), g))
    return _variations_at(chain, lo) - _variations_at(chain, hi)


def cauchy_root_bound(p: Poly) -> Fraction:
    """Strict bound: every complex root of p has modulus < the bound."""
    if degree(p) < 1:
        return Fraction(1)
    return 1 + Fraction(max(abs(a) for a in p[:-1]), abs(p[-1]))


def _root_exponent(p: Poly) -> int:
    """The least e with |p_n| 2^(e n) > sum_{k<n} |p_k| 2^(e k), n = deg p
    >= 1: no complex root has modulus >= 2^e, where the sum would outweigh
    |p_n z^n|.  The search starts at 1 + max ceil((bits p_k - bits p_n + 1)
    / (n - k)), where it holds: a power-of-two Fujiwara bound."""
    n, lead = degree(p), abs(p[-1])
    low = [(k, abs(a)) for k, a in enumerate(p[:-1]) if a]
    if not low:
        return 0
    e = 1 + max(-((lead.bit_length() - a.bit_length() - 1) // (n - k)) for k, a in low)
    while True:  # both sides over 2^m, the least power, to shift on integers
        m = min((e - 1) * n, (e - 1) * low[0][0])
        if lead << ((e - 1) * n - m) <= sum(a << ((e - 1) * k - m) for k, a in low):
            return e
        e -= 1


def isolate_real_roots(p: Poly, lo=None, hi=None) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals for the real roots of a square-free polynomial.

    Returns disjoint half-open intervals (a, b], each containing exactly
    one real root, ordered left to right: those of the bisection of the
    Cauchy box (-B, B] that meet (lo, hi), None meaning an infinite end.
    ``ValueError`` when p is not square-free.
    """
    if degree(p) <= 0:
        return []
    chain = sturm_chain(p)
    if degree(chain[-1]) > 0:
        raise ValueError("isolate_real_roots needs a square-free polynomial; "
                         "gcd(p, p') has degree %d" % degree(chain[-1]))
    return _isolate(chain, lo, hi)


def _isolate(chain: list[Poly], lo=None, hi=None) -> list[tuple[Fraction, Fraction]]:
    """``isolate_real_roots`` of chain[0] from its Sturm chain, which ends
    in a constant: see the module docstring."""
    p = chain[0]
    bound = cauchy_root_bound(p)
    u, v = bound.numerator, bound.denominator
    e = _root_exponent(p)
    lo, hi = (None if x is None else Fraction(x) for x in (lo, hi))
    v_neg = _variations_at(chain, "-inf")
    total = v_neg - _variations_at(chain, "+inf")

    def roots_to(c: int, k: int) -> int:
        x, y = u * c, v << k
        if (abs(x) << max(-e, 0)) >= (y << max(e, 0)):
            return 0 if c < 0 else total
        return v_neg - _variations([_sign_at(s, x, y) for s in chain])

    def meets(ca: int, cb: int, k: int) -> bool:
        y = v << k
        return ((lo is None or u * cb * lo.denominator > lo.numerator * y)
                and (hi is None or u * ca * hi.denominator < hi.numerator * y))

    out: list[tuple[Fraction, Fraction]] = []
    stack = [(-1, 1, 0, 0, total)]
    while stack:
        ca, cb, k, na, nb = stack.pop()
        if nb == na or not meets(ca, cb, k):
            continue
        if nb - na == 1:
            out.append((Fraction(u * ca, v << k), Fraction(u * cb, v << k)))
            continue
        nm = roots_to(ca + cb, k + 1)
        stack += [(ca + cb, 2 * cb, k + 1, nm, nb), (2 * ca, ca + cb, k + 1, na, nm)]
    return out


# Floats by place: float k is the k-th float above 0 for k > 0 and minus
# float -k for k < 0; +-_INF are +-inf.  m(k) is the midpoint of floats k and
# k + 1, and m(_INF - 1) = 2^1024 - 2^970, from which on numbers round to inf.
_INF = 0x7FF0000000000000


def _float(k: int) -> float:
    x = struct.unpack("<d", struct.pack("<q", abs(k)))[0]
    return -x if k < 0 else x


def _nearest(u: int, v: int) -> int:
    """The place of the float nearest u / v, v > 0, ties to even."""
    try:
        x = u / v  # int / int rounds correctly
    except OverflowError:
        return _INF if u > 0 else -_INF
    k = struct.unpack("<q", struct.pack("<d", abs(x)))[0]
    return -k if x < 0 else k


def _mid(k: int) -> Fraction:
    """m(k), -_INF <= k < _INF; m(k) = -m(-1 - k) for k < 0."""
    e, f = divmod(k if k >= 0 else -1 - k, 1 << 52)
    u, s = 2 * f + 1 + (e and 1 << 53), 1076 - max(e, 1)
    u = u if k >= 0 else -u
    return Fraction(u, 1 << s) if s > 0 else Fraction(u << -s)


def _secant(e1: tuple, e2: tuple, halve: int = 0) -> Optional[int]:
    """The place of the float nearest the root of the line through the
    points e = (x, h, d), p(x) = h / d, the value at e1 divided by 2^halve;
    None for a level line."""
    (x1, h1, d1), (x2, h2, d2) = e1, e2
    t, w = h2 * d1 << halve, (h2 * d1 << halve) - h1 * d2  # p(x2) / (p(x2) - p(x1))
    if not w:
        return None
    n1, m1, n2, m2 = x1.numerator, x1.denominator, x2.numerator, x2.denominator
    num, den = n2 * m1 * w - (n2 * m1 - n1 * m2) * t, m1 * m2 * w
    return _nearest(num, den) if den > 0 else _nearest(-num, -den)


def _search(p: Poly, up: int, k: Optional[int], lo=None, hi=None) -> tuple:
    """(place K of the float nearest r, r or None, a, b) for the one root r
    of p in (lo, hi], (a, b] its half-ulp cell or (r, r) where r is found.
    p has the sign of ``up`` just above r; lo and hi are (end, integer with
    the sign of p there) or None, an infinite end; k is a guess's place."""
    n, lead = degree(p), abs(p[-1])
    # r is in (m(i), m(j)] = (a, b], a or b None at -+_INF; fi and fj are
    # the points (x, h, d), p(x) = h / d, at the ends, None where p is not
    # known there
    i, j, a, b, fi, fj = -_INF - 1, _INF, None, None, None, None
    if lo is not None:
        (lo, fa), i = lo, _nearest(lo[0].numerator, lo[0].denominator)
        if i == _INF or _mid(i) > lo:
            i -= 1
        a = _mid(i) if i >= -_INF else None
        fi = (lo, fa, lo.denominator ** n) if fa else None
    if hi is not None:
        (hi, fb), j = hi, _nearest(hi[0].numerator, hi[0].denominator)
        if j > -_INF and _mid(j - 1) >= hi:
            j -= 1
        b = _mid(j) if j < _INF else None
        fj = (hi, fb, hi.denominator ** n)
    points = [f for f in (fi, fj) if f]

    def root(r: Fraction) -> bool:
        """r in (lo, hi] and (a, b] is a root, signed only where r = u / v
        in lowest terms passes the rational root test u | p_0, v | p_n."""
        if lo is not None and r <= lo or hi is not None and r > hi or not a < r <= b:
            return False
        if not r:
            return not p[0]
        return p[-1] % r.denominator == 0 and p[0] % r.numerator == 0 and \
            _sign_at(p, r.numerator, r.denominator) == 0

    tried, side, last, moved, stale, span, misses = None, len(points) and 1, j, 1, 0, j - i, 0
    while True:
        if tried is None and a is not None and b is not None:
            c = b.numerator * lead // b.denominator
            if c - a.numerator * lead // a.denominator < 2:  # one multiple of 1 / |p_n| at most
                tried = Fraction(c, lead)
                if root(tried):
                    return _nearest(c, lead), tried, tried, tried
        if j - i == 1:
            break
        # the secant through the last two points, aimed one place past its
        # root; where that leaves (i, j), regula falsi on the ends with the
        # end kept ``stale`` times halved (Illinois), or from an open end a
        # step twice the last; bisection where three points did not halve
        # (i, j), alternately on values and on places
        if len(points) < 2:
            g = (i + j) >> 1 if k is None else k
        else:
            g = _secant(points[-2], points[-1])
            if g is not None and i < g - (side > 0) < j:
                g -= side > 0
                if a is None or b is None:
                    g = min(g, last - 2 * moved) if side > 0 else max(g, last + 2 * moved)
            elif fi and fj:
                g = _secant(fi, fj, stale) - 1 if side > 0 else _secant(fj, fi, stale)
            else:
                g = last - 2 * moved if side > 0 else last + 2 * moved
        if misses > 2:
            g = (i + j) >> 1 if misses % 2 == 0 else _nearest(*((a + b) / 2).as_integer_ratio())
        g = min(max(g, i + 1), j - 1)
        x = _mid(g)
        h = _sign_at(p, x.numerator, x.denominator)
        if not h:
            return _nearest(*x.as_integer_ratio()), x, x, x
        points.append((x, h, x.denominator ** n))
        was, side, moved, last = side, 1 if (h > 0) == (up > 0) else -1, abs(g - last), g
        if side > 0:
            j, b, fj = g, x, points[-1]
        else:
            i, a, fi = g, x, points[-1]
        stale = stale + 1 if side == was else 0
        if a is None or b is None or 2 * (j - i) <= span:
            span, misses = j - i, 0
        else:
            misses += 1
    if tried is None and abs(j) < _INF:  # else any rational root in (a, b] was tried
        x = Fraction(_float(j))
        for r in dict.fromkeys((x, x.limit_denominator(10**12))):
            if root(r):
                return j, r, r, r
    return j, None, a, b


def refine_root(p: Poly, lo: Fraction, hi: Fraction) -> tuple[float, Optional[Fraction]]:
    """The float nearest the one root r of a square-free p in (lo, hi], and
    r where it is rational and found.  ``ValueError`` when p has one nonzero
    sign at both ends.  See the module docstring."""
    lo, hi = Fraction(lo), Fraction(hi)
    fb = _sign_at(p, hi.numerator, hi.denominator)
    if not fb:
        return _float(_nearest(hi.numerator, hi.denominator)), hi
    fa = _sign_at(p, lo.numerator, lo.denominator)
    if fa and (fa > 0) == (fb > 0):
        raise ValueError("no sign change over the isolating interval")
    k, exact, _, _ = _search(p, fb, None, (lo, fa), (hi, fb))
    return _float(k), exact


def _seeded(chain: list[Poly]) -> Optional[list[tuple]]:
    """``_search`` from each real root of ``np.roots`` on chain[0] over its
    leading coefficient, or None where the floats do not increase.  Then
    only the first or last search can end in the cell of -+inf, whose outer
    end has the sign of p at -+inf, so every cell is proved."""
    p = chain[0]
    total = _variations_at(chain, "-inf") - _variations_at(chain, "+inf")
    if not total:
        return []
    try:
        z = np.roots([a / p[-1] for a in reversed(p)])
    except (OverflowError, np.linalg.LinAlgError):
        return None
    real = np.sort(z[z.imag == 0].real)
    if len(real) != total or not np.isfinite(real).all():
        return None
    out = []
    for t, x in enumerate(real.tolist()):  # above root t, p has the sign of p_n (-1)^(total - 1 - t)
        out.append(_search(p, p[-1] * (-1) ** (total - 1 - t), _nearest(*x.as_integer_ratio())))
        if len(out) > 1 and out[-1][0] <= out[-2][0]:
            return None
    return out


def _roots_between(chain: list[Poly], lo=None, hi=None) -> list[tuple]:
    """The real roots of the square-free chain[0] in the open interval
    (lo, hi), None meaning an infinite end, left to right, as (float, exact
    root or None, a, b): those of ``refine_root``, and an isolating interval
    (a, b], p(b) != 0 where the root is not exact."""
    p = chain[0]
    lo, hi = (None if x is None else Fraction(x) for x in (lo, hi))
    seeded = _seeded(chain)
    if seeded is None:
        found = [(*refine_root(p, a, b), a, b) for a, b in _isolate(chain, lo, hi)]
    else:
        found = [(_float(k), exact, a, b) for k, exact, a, b in seeded]

    def sign(x: Fraction) -> int:
        return _sign_at(p, x.numerator, x.denominator)

    def inside(exact: Optional[Fraction], a: Fraction, b: Fraction) -> bool:
        if exact is not None:
            return (lo is None or lo < exact) and (hi is None or exact < hi)
        # the root is in (a, b): exact signs at lo or hi place it when (a, b) holds them
        return (lo is None or a >= lo or b > lo and sign(lo) * sign(b) < 0) and \
            (hi is None or b <= hi or a < hi and sign(hi) * sign(b) > 0)

    return [root for root in found if inside(*root[1:])]


def even_part(p: Poly) -> tuple[Poly, bool]:
    """Split p(x) = r(x^2) when p is even.

    Returns (r, is_even) where r collects the even-degree coefficients; the
    flag reports whether every odd-degree coefficient vanishes.
    """
    return _trim(p[0::2]), not any(p[1::2])

