import random
from fractions import Fraction


from floparr.linear import box_constraints, dot, feasible_point, rref


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
    point = feasible_point(2, [((1, 0), Fraction(0), True), ((0, 1), Fraction(0), True)])
    assert point is not None
    assert point[0] > 0 and point[1] > 0


def test_feasible_empty_strict():
    assert feasible_point(1, [((1,), Fraction(0), True), ((-1,), Fraction(0), True)]) is None


def test_feasible_weak_degenerate():
    point = feasible_point(1, [((1,), Fraction(0), False), ((-1,), Fraction(0), False)])
    assert point == (0,)


def test_box_constraints():
    ineqs = box_constraints(2, Fraction(3, 2), strict=True)
    assert len(ineqs) == 4
    assert _satisfies((Fraction(1), Fraction(-1)), ineqs)
    assert not _satisfies((Fraction(3, 2), Fraction(0)), ineqs)


def test_feasible_thin_strip():
    # 0 < x < 1/1000
    ineqs = [((1,), Fraction(0), True), ((-1,), Fraction(-1, 1000), True)]
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
        point = feasible_point(dim, ineqs)
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
        assert feasible_point(dim, ineqs) is None


def test_witness_is_exact():
    point = feasible_point(2, box_constraints(2, Fraction(7, 2), strict=True))
    assert all(isinstance(v, (int, Fraction)) for v in point)
