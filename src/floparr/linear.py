"""Exact linear algebra over the rationals.

Every geometric question in this package reduces to a small linear
system: does a strict sign pattern have a solution, does a closed
chamber touch the window boundary, which flats make up the intersection
poset.  All of them are decided here with Fraction arithmetic.  No
floats enter any decision.

``feasible_point`` is the one feasibility kernel.  It takes
inequalities only: triples ``(a, b, strict)`` meaning ``a . x > b`` when
strict and ``a . x >= b`` otherwise.  Fourier-Motzkin elimination with
normalization-based pruning decides the system, and a rational witness
point is rebuilt by back-substitution.  A caller that needs a flat
substitutes it away first.  ``rref`` serves the intersection poset.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Ineq = tuple[tuple[Fraction, ...], Fraction, bool]

ZERO = Fraction(0)
ONE = Fraction(1)


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), ZERO)


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns nonzero rows and pivot columns."""
    rows = [list(r) for r in rows]
    cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _normalize(a, b, strict):
    """Scale (a, b) by a positive rational to a primitive integer form."""
    denom = 1
    for v in list(a) + [b]:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in a] + [int(b * denom)]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints[:-1]), ints[-1], strict


def _prune(dim, ineqs):
    """Drop constants and duplicates; None signals a constant contradiction."""
    seen = {}
    for a, b, strict in ineqs:
        if all(v == 0 for v in a):
            if b > 0 or (strict and b == 0):
                return None
            continue
        key = _normalize(a, b, strict)[:2]
        prev = seen.get(key)
        if prev is None:
            seen[key] = (a, b, strict)
        elif strict and not prev[2]:
            seen[key] = (a, b, strict)
    return list(seen.values())


def _fm(dim, ineqs):
    """Fourier-Motzkin core: witness tuple for a strict/weak system or None."""
    ineqs = _prune(dim, ineqs)
    if ineqs is None:
        return None
    if dim == 0:
        return ()
    k = dim - 1
    lows, ups, rest = [], [], []
    for a, b, strict in ineqs:
        c = a[k]
        if c > 0:
            lows.append((a, b, strict))
        elif c < 0:
            ups.append((a, b, strict))
        else:
            rest.append((a[:k], b, strict))
    combos = []
    for la, lb, ls in lows:
        for ua, ub, us in ups:
            c, f = la[k], ua[k]
            coeffs = tuple(c * uv - f * lv for lv, uv in zip(la[:k], ua[:k]))
            combos.append((coeffs, c * ub - f * lb, ls or us))
    sub = _fm(k, rest + combos)
    if sub is None:
        return None
    lo = max(((b - dot(a[:k], sub)) / a[k] for a, b, _ in lows), default=None)
    hi = min(((b - dot(a[:k], sub)) / a[k] for a, b, _ in ups), default=None)
    if lo is None and hi is None:
        val = ZERO
    elif lo is None:
        val = hi - 1
    elif hi is None:
        val = lo + 1
    else:
        val = (lo + hi) / 2
    return sub + (val,)


def feasible_point(dim: int, ineqs) -> tuple[Fraction, ...] | None:
    """Exact witness for a mixed strict/weak system, or None if empty.

    The returned point satisfies every constraint exactly.
    """
    ineqs = [(tuple(Fraction(v) for v in a), Fraction(b), s) for a, b, s in ineqs]
    return _fm(dim, ineqs)


def box_constraints(dim: int, radius: Fraction, strict: bool = True) -> list[Ineq]:
    """Constraints for the box (-radius, radius)^dim (or its closure)."""
    out = []
    for i in range(dim):
        e = tuple(ONE if j == i else ZERO for j in range(dim))
        ne = tuple(-v for v in e)
        out.append((e, -radius, strict))
        out.append((ne, -radius, strict))
    return out
