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

Real roots are isolated by bisecting the Cauchy box (-B, B], B = u / v, with
Sturm counts.  A node (u c_a / (v 2^k), u c_b / (v 2^k)] carries the number
N of roots <= each end, N(x) = V(-inf) - V(x) for the sign variations V of
the chain, so a split evaluates the chain once, at its midpoint, and not at
all where the midpoint lies outside (-2^e, 2^e) of ``_root_exponent``.
``isolate_real_roots(p, lo, hi)`` descends only nodes that meet (lo, hi).
``refine_root`` gives plain bisection's answer from one shrink loop and one
read-off.  The loop jumps s levels at once (quadratic interval refinement;
Abbott 2006): an integer secant through the cell's ends picks the grid point
nearest its root among the 2^s cells below, the signs there and at one or
two neighbours find the root's cell, and s doubles, or halves when they
miss, up to the level where the stop rule must hold below the cell (or, for
a cell with an end at 0, can first hold).  The loop ends where its cell
stops, where a sign vanishes, or where the cell holds one point k / |p_n|
and p vanishes there: a rational root u / v in lowest terms has v | p_n.
The read-off finds bisection's last cell by index arithmetic.  Signs are
those of the homogeneous form ``_sign_at`` at (numerator, denominator).

``_seeded_cells`` does ``_isolate``'s task with float roots as guides and
exact signs as proof (Kobel, Rouillier & Sagraloff, ISSAC 2016).  Each real
root x of ``np.roots`` on p over its leading coefficient picks a cell of the
same tree about 2^-30 |x| wide, and goes up a level, at most 8 times, until
p changes sign over the cell or, where x lies within an eighth of the width
of an end, over the neighbour across it; where that fails for some x, all
start again from cells also wider than 16 times their first-order error.  The certificate is exact: p has nonzero signs of
opposite sign at the ends of each cell, the cells are disjoint, and there
are as many as p has real roots, V(-inf) - V(+inf) from the leading
coefficients of the chain; so each cell holds one root, inside it, where no
midpoint of a cell above is.  ``refine_root`` then gives what it gives from
``_isolate``'s interval, an ancestor: bisection from any tree cell on a
root's path meets the same cells below it, and the first of them that stops
is the same, since ``_stops`` holds on the halves of a cell where it holds.
Two guards keep that true: the seeded cell must not stop, and bisection
must stop within ``_MAX_STEPS`` levels of the box, so that the cap binds
neither from the box nor from the cell.  Where a seed is missing or
complex, or a check fails, it returns None, and the caller isolates by
bisection.
"""

from __future__ import annotations

import math
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


def _stops(m2: int, w: int, den: int) -> bool:
    """The stop rule of ``refine_root`` on a cell of width w / den with
    midpoint m2 / (2 den): the width is below |mid| 1e-17 + min(1e-20,
    |mid| 1e-17), relative below |mid| = 1e-3 so that roots of small
    magnitude keep their leading digits.  Where it holds on a cell it holds
    on both halves: the width halves, and |mid| moves by a quarter of it."""
    rel = 10**3 * abs(m2)
    return 2 * 10**20 * w < rel + min(2 * den, rel)


_MAX_STEPS = 200  # the most halvings ``refine_root`` takes
_SEED_BITS = 30  # a seeded cell starts about 2^-30 |seed| wide


def _seeded_cells(chain: list[Poly], lo=None, hi=None) -> Optional[list[tuple[Fraction, Fraction]]]:
    """``_isolate(chain, lo, hi)``'s task from float seeds: cells of the
    Cauchy-box bisection tree, left to right, one for each real root of
    chain[0], those that meet (lo, hi) returned; None where the cells
    cannot be proved.  See the module docstring."""
    p = chain[0]
    total = _variations_at(chain, "-inf") - _variations_at(chain, "+inf")
    if not total:
        return []
    bound = cauchy_root_bound(p)
    u, v = bound.numerator, bound.denominator
    try:
        c = np.array([a / p[-1] for a in reversed(p)])
        z = np.roots(c)
        scale = math.frexp(float(bound))[1]
    except (OverflowError, np.linalg.LinAlgError):
        return None
    real = np.sort(z[z.imag == 0].real)
    if len(real) != total or not np.isfinite(real).all():
        return None

    def changes(j: int, den: int) -> bool:  # p < 0 < p or p > 0 > p at the ends
        return _sign_at(p, u * j, den) * _sign_at(p, u * (j + 1), den) < 0

    def place(widths) -> Optional[list[tuple[int, int]]]:
        """The proved cells (j, v 2^m), or None."""
        cells: list[tuple[int, int]] = []
        for x, w in zip(real.tolist(), widths.tolist()):
            n, d = x.as_integer_ratio()
            # level m + 1 has the cells (u j / (v 2^m), u (j + 1) / (v 2^m)];
            # start at the first whose cells are wider than w
            level = max(scale - math.frexp(w)[1] - 1, 0)
            for m in range(level, max(level - 8, 0) - 1, -1):
                j, r = divmod(((n * v) << m) - 1, d * u)  # x 2^m / B = j + (r + 1) / (d u)
                den = v << m
                if changes(j, den):
                    break
                # x within an eighth of the width of an end may sit across it
                side = -1 if 8 * (r + 1) <= d * u else 1 if 8 * (r + 1) >= 7 * d * u else 0
                if side and changes(j + side, den):
                    j += side
                    break
            else:
                return None
            # the guards, with refine_root's bound: all cells ``below``
            # levels under one clear of 0 stop
            low = u * min(abs(j), abs(j + 1))
            below = max((10**17 * u).bit_length() - low.bit_length() + 1, 1)
            if (not low or _stops(u * (2 * j + 1), u, den) or m + below >= _MAX_STEPS
                    or cells and (cells[-1][0] + 1) * den > j * cells[-1][1]):
                return None
            cells.append((j, den))
        return cells

    widths = np.ldexp(np.abs(real), -_SEED_BITS)
    cells = place(widths)
    if cells is None:
        with np.errstate(all="ignore"):
            # 16 times the seeds' first-order error from relative errors of
            # 2^-52 in the coefficients: 2^-48 sum |c_k| |x|^k / |p'(x)|
            err = 2.0**-48 * np.polyval(np.abs(c), np.abs(real)) / np.abs(
                np.polyval(np.polyder(c), real))
        cells = place(np.fmax(widths, err))
    if cells is None:
        return None
    lo, hi = (None if x is None else Fraction(x) for x in (lo, hi))
    return [(Fraction(u * j, den), Fraction(u * (j + 1), den)) for j, den in cells
            if (lo is None or u * (j + 1) * lo.denominator > lo.numerator * den)
            and (hi is None or u * j * hi.denominator < hi.numerator * den)]


def refine_root(p: Poly, lo: Fraction, hi: Fraction) -> tuple[float, Optional[Fraction]]:
    """Shrink an isolating interval (lo, hi] of a square-free p.

    Returns (float approximation, exact rational root or None).  The interval
    must contain exactly one root of square-free p.  The result is that of
    plain bisection: halve the cell until ``_stops`` holds or
    ``_MAX_STEPS`` halvings are done, returning a midpoint at which p
    vanishes, then test the best candidate with denominator <= 1e12
    (``limit_denominator``).
    How the same cell is reached with few signs of p is in the module
    docstring.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    den = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    n = degree(p)
    fa = _sign_at(p, a, den)
    fb = _sign_at(p, b, den)
    if fb == 0:
        return float(hi), hi
    while fa == 0:
        # lo is a different root of p sitting just outside the half-open
        # interval; walk the left endpoint inward until the sign is usable
        m, a, b, den = a + b, 2 * a, 2 * b, 2 * den
        fm = _sign_at(p, m, den)
        if fm == 0:
            return float(Fraction(m, den)), Fraction(m, den)
        if (fm > 0) == (fb > 0):
            # a simple root strictly between mid and hi would flip the sign,
            # so the root lies in (lo, mid]
            b, fb = m, fm
        else:  # the form at (2u, 2v) is 2^n times that at (u, v)
            a, fa, fb = m, fm, fb << n
    if (fa > 0) == (fb > 0):
        raise ValueError("no sign change over the isolating interval")
    # the cell i of level t is (a0 2^t + i w, a0 2^t + (i + 1) w] / (den0 2^t)
    a0, den0, w = a, den, b - a
    wide, lead = 10**17 * w, abs(p[-1])
    root, rational = None, True
    level, jump, first = 0, 1, 0
    while not _stops(2 * a + w, w, den):
        # a cell below this one stops only where its width is under
        # 2e-17 |mid| <= 2e-17 max |end| / den: not above level ``first``
        first = level + (5 * 10**16 * w // max(abs(a), abs(a + w))).bit_length()
        if level == _MAX_STEPS:
            break
        if rational and (a + w) * lead // den - a * lead // den < 2:
            r = Fraction((a + w) * lead // den, lead)
            rational = a * r.denominator < r.numerator * den and \
                (p[0] % r.numerator == 0 if r else p[0] == 0) and \
                _sign_at(p, r.numerator, r.denominator) == 0
            if rational:
                root = r
                break
        # below a cell clear of 0, all cells stop once min |end| 2^s >= 1e17 w,
        # and below one with an end at 0 none stops before 2^s > 5e16
        low = min(abs(a), abs(a + w)) or w
        s = min(jump, _MAX_STEPS - level, max(wide.bit_length() - low.bit_length() + 1, 1))
        grid, big = den << s, a << s
        seen = {0: fa << n * s, 1 << s: fb << n * s}

        def at(i: int) -> int:  # p at grid point i of the 2^s cells
            if i not in seen:
                seen[i] = _sign_at(p, big + i * w, grid)
            return seen[i]

        # from the grid point nearest the secant's root, step toward the
        # root as the signs say, until the sign changes or two steps are done
        i = j = ((fa << (s + 1)) // (fa - fb) + 1) >> 1
        step = 1 if (at(i) > 0) == (fa > 0) else -1
        while at(j) and (at(j) > 0) == (at(i) > 0) and abs(j - i) < 2:
            j += step
        zero = next((k for k, v in seen.items() if v == 0), None)
        if zero is not None:
            root = Fraction(big + zero * w, grid)
            break
        if (at(j) > 0) == (at(i) > 0):
            jump = max(s // 2, 1)  # the guess missed; s = 1 cannot miss
            continue
        g = min(j, j - step)
        a, den, fa, fb = big + g * w, grid, seen[g], seen[g + 1]
        level, jump = level + s, 2 * s
    # Bisection's answer, read off x: the place in the level-0 cell of the
    # root or, when it is unknown, of the last cell's midpoint, whose cells
    # above are the root's.  The cell of level t holding x is ceil(x 2^t) - 1;
    # the first to stop is the answer, unless x has denominator 2^q and no
    # cell above level q stops: bisection meets x there as a midpoint.  An
    # unknown root's last cell stops or is at _MAX_STEPS, before its q.
    xn, xd = (2 * a + w, 2 * den) if root is None else (root.numerator, root.denominator)
    xn, d = xn * den0 - a0 * xd, xd * w  # x = xn / d, in lowest terms below
    g = math.gcd(xn, d)
    xn, d = xn // g, d // g
    q = d.bit_length() - 1
    end = min(q, _MAX_STEPS) if d == 1 << q else _MAX_STEPS
    for t in range(min(first, end), end + 1):
        a, den = (a0 << t) - ((-xn << t) // d + 1) * w, den0 << t
        if t == end or _stops(2 * a + w, w, den):
            break
    if d == 1 << t:
        return float(root), root
    if not rational:
        return (2 * a + w) / (2 * den), None
    if root is not None and root.denominator <= 10**12 and abs(
            (2 * a + w) * root.denominator - 2 * den * root.numerator) * 10**12 < den:
        # mid is within 1 / (2e12 v) of the root u / v, v <= 1e12, and any
        # other fraction with denominator <= 1e12 is 1 / (1e12 v) from it,
        # so limit_denominator gives the root
        return float(root), root
    approx = Fraction(2 * a + w, 2 * den)
    # bisection midpoints are dyadic and miss rational roots like 1/3, so
    # test the best small-denominator candidate before settling for a float
    guess = approx.limit_denominator(10**12)
    u, v = guess.numerator, guess.denominator
    if a * v < u * den <= (a + w) * v and (
            guess == root if root is not None else _sign_at(p, u, v) == 0):
        return float(guess), guess
    return float(approx), None


def even_part(p: Poly) -> tuple[Poly, bool]:
    """Split p(x) = r(x^2) when p is even.

    Returns (r, is_even) where r collects the even-degree coefficients; the
    flag reports whether every odd-degree coefficient vanishes.
    """
    return _trim(p[0::2]), not any(p[1::2])

