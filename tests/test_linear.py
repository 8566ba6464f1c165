import random
from fractions import Fraction
from math import gcd

from floparr.linear import _prune, box_constraints, dot, feasible_point, rref

from helpers import integral


def _satisfies(point, ineqs):
    for coeffs, rhs, strict in ineqs:
        value = dot(coeffs, point)
        if strict and not value > rhs:
            return False
        if not strict and not value >= rhs:
            return False
    return True


def test_rref_identity():
    rows = [(Fraction(2), Fraction(0), Fraction(4)), (Fraction(0), Fraction(3), Fraction(6))]
    reduced, pivots = rref(rows)
    assert reduced == [[1, 0, 2], [0, 1, 2]]
    assert pivots == [0, 1]


def test_rref_dependent_rows_collapse():
    rows = [(1, 2, 3), (2, 4, 6), (1, 2, 4)]
    rows = [tuple(Fraction(v) for v in r) for r in rows]
    reduced, pivots = rref(rows)
    assert len(reduced) == 2
    assert pivots == [0, 2]


def test_feasible_strict_sector():
    point = feasible_point(2, [((1, 0), 0, True), ((0, 1), 0, True)])
    assert point is not None
    assert point[0] > 0 and point[1] > 0


def test_feasible_empty_strict():
    assert feasible_point(1, [((1,), 0, True), ((-1,), 0, True)]) is None


def test_feasible_weak_degenerate():
    point = feasible_point(1, [((1,), 0, False), ((-1,), 0, False)])
    assert point == (0,)


def test_box_constraints():
    ineqs = box_constraints(2, Fraction(3, 2), strict=True)
    assert len(ineqs) == 4
    assert _satisfies((Fraction(1), Fraction(-1)), ineqs)
    assert not _satisfies((Fraction(3, 2), Fraction(0)), ineqs)


def test_feasible_thin_strip():
    # 0 < x < 1/1000, the upper bound written as -1000 x > -1
    ineqs = [((1,), 0, True), ((-1000,), -1, True)]
    point = feasible_point(1, ineqs)
    assert point is not None and _satisfies(point, ineqs)


def test_random_feasible_systems():
    # systems built around a known interior point are always satisfiable
    rng = random.Random(20260816)
    for _ in range(60):
        dim = rng.randrange(1, 5)
        center = tuple(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(dim))
        ineqs = []
        for _ in range(rng.randrange(1, 8)):
            coeffs = tuple(rng.randrange(-3, 4) for _ in range(dim))
            if not any(coeffs):
                continue
            strict = rng.random() < 0.5
            # strict constraints need positive slack so the center stays interior
            slack = Fraction(rng.randrange(1, 4) if strict else rng.randrange(0, 3))
            ineqs.append((coeffs, dot(coeffs, center) - slack, strict))
        point = feasible_point(dim, integral(ineqs))
        assert point is not None
        assert _satisfies(point, ineqs)


def test_random_infeasible_pairs():
    # a strict inequality plus its negation can never be satisfied
    rng = random.Random(99)
    for _ in range(40):
        dim = rng.randrange(1, 4)
        coeffs = tuple(rng.randrange(-3, 4) for _ in range(dim))
        if not any(coeffs):
            coeffs = (1,) + coeffs[1:]
        rhs = Fraction(rng.randrange(-4, 5))
        ineqs = [
            (coeffs, rhs, True),
            (tuple(-c for c in coeffs), -rhs, True),
        ]
        extra = tuple(rng.randrange(-2, 3) for _ in range(dim))
        if any(extra):
            ineqs.append((extra, Fraction(-10), False))
        assert feasible_point(dim, integral(ineqs)) is None


def test_witness_is_exact():
    point = feasible_point(2, box_constraints(2, Fraction(7, 2), strict=True))
    assert all(isinstance(v, (int, Fraction)) for v in point)


# Reference: the rational kernel this one replaced, kept as an oracle.
# It eliminates on Fraction rows and drops only exact duplicates, so its
# witness must match the integer kernel's coordinate for coordinate.


def _ref_normalize(a, b, strict):
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


def _ref_prune(ineqs):
    seen = {}
    for a, b, strict in ineqs:
        if all(v == 0 for v in a):
            if b > 0 or (strict and b == 0):
                return None
            continue
        key = _ref_normalize(a, b, strict)[:2]
        prev = seen.get(key)
        if prev is None or (strict and not prev[2]):
            seen[key] = (a, b, strict)
    return list(seen.values())


def _ref_fm(dim, ineqs):
    ineqs = _ref_prune(ineqs)
    if ineqs is None:
        return None
    if dim == 0:
        return ()
    k = dim - 1
    lows, ups, rest = [], [], []
    for a, b, strict in ineqs:
        if a[k] > 0:
            lows.append((a, b, strict))
        elif a[k] < 0:
            ups.append((a, b, strict))
        else:
            rest.append((a[:k], b, strict))
    combos = []
    for la, lb, ls in lows:
        for ua, ub, us in ups:
            c, f = la[k], ua[k]
            coeffs = tuple(c * uv - f * lv for lv, uv in zip(la[:k], ua[:k]))
            combos.append((coeffs, c * ub - f * lb, ls or us))
    sub = _ref_fm(k, rest + combos)
    if sub is None:
        return None
    lo = max(((b - dot(a[:k], sub)) / a[k] for a, b, _ in lows), default=None)
    hi = min(((b - dot(a[:k], sub)) / a[k] for a, b, _ in ups), default=None)
    if lo is None and hi is None:
        val = Fraction(0)
    elif lo is None:
        val = hi - 1
    elif hi is None:
        val = lo + 1
    else:
        val = (lo + hi) / 2
    return sub + (val,)


def _reference_point(dim, ineqs):
    return _ref_fm(dim, [(tuple(Fraction(v) for v in a), Fraction(b), s) for a, b, s in ineqs])


def _random_coefficient(rng):
    if rng.random() < 0.7:
        return rng.randrange(-3, 4)
    return Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))


def _random_system(rng, dim):
    ineqs = []
    for _ in range(rng.randrange(1, 7)):
        coeffs = tuple(_random_coefficient(rng) for _ in range(dim))
        ineqs.append((coeffs, _random_coefficient(rng), rng.random() < 0.5))
    for _ in range(rng.randrange(0, 4)):
        # a positive multiple of an earlier row, as strong or weaker
        a, b, strict = rng.choice(ineqs)
        scale = Fraction(rng.randrange(1, 5), rng.randrange(1, 4))
        slack = rng.choice([0, 0, 1, Fraction(1, 2)])
        ineqs.append((tuple(scale * v for v in a), scale * b - slack, rng.random() < 0.5))
    if rng.random() < 0.2:
        # the negation of a row: empty when either side is strict
        a, b, _ = rng.choice(ineqs)
        ineqs.append((tuple(-v for v in a), -b, rng.random() < 0.5))
    rng.shuffle(ineqs)
    return ineqs


def test_integer_kernel_matches_rational_reference():
    rng = random.Random(20261018)
    # a second stream for the row scales keeps the systems those of rng alone
    scales = random.Random(6)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        dim = rng.randrange(1, 6)
        ineqs = _random_system(rng, dim)
        # the kernel takes integer rows at any positive scale
        scaled = []
        for a, b, strict in integral(ineqs):
            c = scales.randrange(1, 7)
            scaled.append((tuple(c * v for v in a), c * b, strict))
        point = feasible_point(dim, scaled)
        assert point == _reference_point(dim, ineqs), ineqs
        if point is not None:
            assert _satisfies(point, ineqs)
            assert all(type(v) is Fraction for v in point)
        verdicts[point is not None] += 1
    assert min(verdicts.values()) >= 50, verdicts


def test_prune_keeps_strongest_row_per_direction():
    weak, strict = ((1,), 0, False), ((1,), 0, True)
    assert _prune([strict, weak]) == [strict]
    assert _prune([weak, strict]) == [strict]
    # x >= 1 dominates x > 0, and 2x >= 3 is x >= 3/2
    assert _prune([strict, ((1,), 1, False), ((2,), 3, False)]) == [((2,), 3, False)]
    assert _prune([((0,), 1, False)]) is None
    assert _prune([((0,), 0, True)]) is None
    assert _prune([((0,), 0, False), ((0,), -1, True)]) == []


def test_tie_rules():
    assert feasible_point(1, [((1,), 0, True), ((1,), 0, False), ((-1,), 0, False)]) is None
    assert feasible_point(1, [((1,), 0, False), ((-1,), 0, False)]) == (0,)
    assert feasible_point(1, [((1,), 0, True), ((-1,), 0, False)]) is None

