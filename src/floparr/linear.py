"""Exact linear algebra over the integers and the rationals.

Every geometric question in this package reduces to a small linear
system: does a strict sign pattern have a solution, does a closed
chamber touch the window boundary, which flats make up the intersection
poset.  All of them are decided here in exact integer and rational
arithmetic.  No floats enter any decision.

``feasible_point`` is the one feasibility kernel.  It takes
inequalities only: triples ``(a, b, strict)`` meaning ``a . x > b`` when
strict and ``a . x >= b`` otherwise.  A caller that needs a flat
substitutes it away first.  ``rref`` serves the intersection poset.

Rows come in as integers, ``a`` and ``b`` at any positive scale, and
go to the elimination as given.  Fourier-Motzkin elimination removes
the last variable first, in integers: a lower row l and an upper row u
combine to ``(-u_k) * l + l_k * u``, divided by its gcd.  Before each
step a dominance filter keeps one row per direction of ``a`` (rows are
compared after dividing by the gcd of ``a``): the one with the largest
right-hand side, and the strict one on a tie.  A dropped row is implied
by the row kept, so the filter never changes the feasible set.  Nor
does the scale of a row: the filter keys on ``a / gcd(a)`` and compares
``b / gcd(a)``, every combination is divided by its own gcd, and
back-substitution divides by ``a_k``, so a row times c > 0 is pruned,
combined and substituted exactly as the row itself.

The witness is rebuilt by back-substitution, the only place Fraction
arithmetic runs.  It is canonical: given the coordinates already fixed,
the rows that bound ``x_k`` describe exactly the fiber of the projected
feasible set over them, because Fourier-Motzkin projections are exact.
The value chosen for ``x_k`` (the midpoint of that interval, ``lo + 1``,
``hi - 1`` or 0) is a function of that interval alone, so the witness
depends only on the feasible set and not on which rows describe it.
Scaling rows or dropping dominated ones cannot move it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Ineq = tuple[tuple[int, ...], int, bool]

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


def _prune(rows):
    """Keep the strongest row per direction; None on a constant contradiction."""
    best = {}
    for row in rows:
        a, b, strict = row
        g = gcd(*a)
        if g == 0:
            if b > 0 or (strict and b == 0):
                return None
            continue
        key = a if g == 1 else tuple(v // g for v in a)
        prev = best.get(key)
        if prev is not None:
            # compare b / g with the kept row's right-hand side over its gcd
            pg, (_, pb, pstrict) = prev
            lead = b * pg - pb * g
            if lead < 0 or (lead == 0 and (pstrict or not strict)):
                continue
        best[key] = (g, row)
    return [row for _, row in best.values()]


def _fm(dim, rows):
    """Fourier-Motzkin core on integer rows: witness tuple or None."""
    rows = _prune(rows)
    if rows is None:
        return None
    if dim == 0:
        return ()
    k = dim - 1
    lows, ups, rest = [], [], []
    for a, b, strict in rows:
        c = a[k]
        if c > 0:
            lows.append((a, b, strict))
        elif c < 0:
            ups.append((a, b, strict))
        else:
            rest.append((a[:k], b, strict))
    for la, lb, ls in lows:
        lk = la[k]
        lhead = la[:k]
        for ua, ub, us in ups:
            uk = -ua[k]
            ints = [uk * lv + lk * uv for lv, uv in zip(lhead, ua)]
            ints.append(uk * lb + lk * ub)
            g = gcd(*ints)
            if g > 1:
                ints = [v // g for v in ints]
            rest.append((tuple(ints[:-1]), ints[-1], ls or us))
    sub = _fm(k, rest)
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

    Each row ``(a, b, strict)`` has integer ``a`` and ``b`` at any
    positive scale, not necessarily primitive; scaling a row cannot move
    the witness.  The returned point satisfies every constraint exactly.
    """
    return _fm(dim, ineqs)


def box_constraints(dim: int, radius: Fraction, strict: bool = True) -> list[Ineq]:
    """Integer rows ``+-q x_i > -p`` of the box (-p/q, p/q)^dim (or its closure)."""
    p, q = radius.numerator, radius.denominator
    out = []
    for i in range(dim):
        for side in (q, -q):
            out.append((tuple(side if j == i else 0 for j in range(dim)), -p, strict))
    return out
