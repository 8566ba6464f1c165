"""The antipodal memo and the row table against the loop they replaced.

``enumerate_chambers`` settles the mirror of every solved sign vector
without a solve when each hyperplane (a, k) has a partner (a, -k), and
picks its rows from a table built once.  The reference below is the
earlier loop: every new vector solved in full, on rows rebuilt for each
solve.  On random small integer arrangements, symmetric by construction
or not, central and windowed, both must give the same graph, witnesses
and boundary flags included.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from floparr import (
    Arrangement,
    Hyperplane,
    arrangement_from_json,
    arrangement_to_json,
    enumerate_chambers,
    graph_to_json,
    seed_chamber,
)
from floparr.arrangement import _primitive
from floparr.chambers import Chamber, ChamberGraph, Edge, _breaks_class_order, _partners
from floparr.linear import box_constraints, feasible_point

from helpers import affine, parallel_line


def reference_rows(arr, signs, strict=True):
    rows = [
        (tuple(s * v for v in plane.normal), s * plane.level, strict)
        for plane, s in zip(arr.hyperplanes, signs)
    ]
    if arr.radius is not None:
        rows += box_constraints(arr.dim, arr.radius, strict)
    return rows


def reference_touches_boundary(arr, signs):
    if arr.radius is None:
        return False
    weak = reference_rows(arr, signs, strict=False)
    p, q = arr.radius.numerator, arr.radius.denominator
    for i in range(arr.dim):
        for side in (p, -p):
            face = [
                (tuple(q * v for v in a[:i] + a[i + 1 :]), q * b - a[i] * side, s)
                for a, b, s in weak
            ]
            if feasible_point(arr.dim - 1, face) is not None:
                return True
    return False


def reference_enumeration(arr):
    # one solve per new sign vector, no mirror
    planes = arr.hyperplanes
    seed = seed_chamber(arr)
    chambers = [seed]
    index = {seed.signs: 0}
    edges = []
    for current in chambers:
        signs = current.signs
        for h in range(len(planes)):
            if _breaks_class_order(planes, signs, h):
                continue
            flipped = signs[:h] + (-signs[h],) + signs[h + 1 :]
            if flipped not in index:
                witness = feasible_point(arr.dim, reference_rows(arr, flipped))
                if witness is None:
                    index[flipped] = None
                else:
                    index[flipped] = len(chambers)
                    boundary = reference_touches_boundary(arr, flipped)
                    chambers.append(Chamber(len(chambers), flipped, witness, boundary))
            if index[flipped] is not None:
                edges.append(Edge(len(edges), current.id, index[flipped], h))
    return ChamberGraph(arr, chambers, edges)


@st.composite
def arrangements(draw):
    """Up to six integer normals in dimension 1 to 3, central or in a box.

    A symmetric window arrangement holds each (a, k) with its partner
    (a, -k); an asymmetric one takes its levels as drawn.
    """
    dim = draw(st.integers(1, 3))
    windowed = draw(st.booleans())
    symmetric = draw(st.booleans())
    normal = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any)
    planes = set()
    for _ in range(draw(st.integers(1, 6))):
        a = tuple(draw(normal))
        level = draw(st.integers(-2, 2)) if windowed else 0
        planes.add(Hyperplane(*_primitive(a, level)))
        if symmetric:
            planes.add(Hyperplane(*_primitive(a, -level)))
    radius = Fraction(draw(st.sampled_from([1, 3, 5])), 2) if windowed else None
    return Arrangement(dim, radius, tuple(sorted(planes, key=lambda h: (h.normal, h.level))))


# a symmetric window with a line parallel to a box face, the same lines
# less one translate, and a repeated hyperplane, whose partner map would
# not be injective (Arrangement rejects repeats, so only _partners sees it)
SYMMETRIC = Arrangement(
    2,
    Fraction(3, 2),
    (Hyperplane((0, 1), -1), Hyperplane((0, 1), 1), Hyperplane((1, 1), 0), Hyperplane((1, 2), -1), Hyperplane((1, 2), 1)),
)
ONE_SIDED = Arrangement(2, SYMMETRIC.radius, SYMMETRIC.hyperplanes[1:])
REPEATED = (Hyperplane((1,), 0), Hyperplane((1,), 0))

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(arrangements())
@example(SYMMETRIC)
@example(ONE_SIDED)
def test_enumeration_matches_reference_loop(arr):
    assert graph_to_json(enumerate_chambers(arr)) == graph_to_json(reference_enumeration(arr))


def test_partners():
    assert _partners(SYMMETRIC.hyperplanes) == [1, 0, 2, 4, 3]
    assert _partners(ONE_SIDED.hyperplanes) is None
    assert _partners(REPEATED) is None


def _a2_less_one_translate():
    doc = arrangement_to_json(affine("A2:J={}", Fraction(7, 2)))
    dropped = next(i for i, h in enumerate(doc["hyperplanes"]) if h["level"] == 3)
    del doc["hyperplanes"][dropped]
    return arrangement_from_json(doc)


def test_asymmetric_input_falls_back():
    # level -150 of the parallel line has no partner
    for arr in (parallel_line(300), _a2_less_one_translate()):
        assert _partners(arr.hyperplanes) is None
        assert graph_to_json(enumerate_chambers(arr)) == graph_to_json(reference_enumeration(arr))
