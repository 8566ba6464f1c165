"""The antipodal memo and the row table against the loop they replaced.

``enumerate_chambers`` settles the mirror of every solved sign vector
without a solve when each hyperplane (a, k) comes with (a, -k), and
picks its rows from a table built once.  The reference below is the
earlier loop: every new vector solved in full, on rows rebuilt for each
solve.  On random small integer arrangements, symmetric by construction
or not, central and windowed, both must give the same graph, witnesses
and boundary flags included.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import floparr.chambers
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
from floparr.chambers import Chamber, ChamberGraph, Edge
from floparr.linear import box_constraints, feasible_point

from helpers import affine, antipodal, parallel_line


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
    # one solve per new sign vector, every hyperplane tried at every
    # chamber: no mirror and no class rule
    seed = seed_chamber(arr)
    chambers = [seed]
    index = {seed.signs: 0}
    edges = []
    for current in chambers:
        signs = current.signs
        for h in range(len(arr.hyperplanes)):
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


# a symmetric window with a line parallel to a box face, and the same
# lines less one translate
SYMMETRIC = Arrangement(
    2,
    Fraction(3, 2),
    (Hyperplane((0, 1), -1), Hyperplane((0, 1), 1), Hyperplane((1, 1), 0), Hyperplane((1, 2), -1), Hyperplane((1, 2), 1)),
)
ONE_SIDED = Arrangement(2, SYMMETRIC.radius, SYMMETRIC.hyperplanes[1:])

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(arrangements())
@example(SYMMETRIC)
@example(ONE_SIDED)
def test_enumeration_matches_reference_loop(arr):
    assert graph_to_json(enumerate_chambers(arr)) == graph_to_json(reference_enumeration(arr))


def looked_up(graph):
    """The flips the search looks up, less the seed: at each chamber, the
    last + and the first - of each run of translates of one normal."""
    planes = graph.arrangement.hyperplanes
    out = set()
    for c in graph.chambers:
        for h, s in enumerate(c.signs):
            n = h + s  # the next translate on the side of h that s points to
            if not (0 <= n < len(planes) and planes[n].normal == planes[h].normal and c.signs[n] == s):
                out.add(c.signs[:h] + (-c.signs[h],) + c.signs[h + 1 :])
    return out - {graph.chambers[0].signs}


def test_mirror_saves_solves_only_when_symmetric(monkeypatch):
    solves = []
    solve = floparr.chambers._solve

    def counted(table, signs):
        solves.append(signs)
        return solve(table, signs)

    monkeypatch.setattr(floparr.chambers, "_solve", counted)
    vectors = looked_up(enumerate_chambers(SYMMETRIC))
    assert len(set(solves)) == len(solves) < len(vectors)
    for arr in (ONE_SIDED, parallel_line(300)):
        solves.clear()
        vectors = looked_up(enumerate_chambers(arr))
        assert len(solves) == len(vectors) and set(solves) == vectors


def _a2_less_one_translate():
    doc = arrangement_to_json(affine("A2:J={}", Fraction(7, 2)))
    dropped = next(i for i, h in enumerate(doc["hyperplanes"]) if h["level"] == 3)
    del doc["hyperplanes"][dropped]
    return arrangement_from_json(doc)


def test_asymmetric_input_falls_back():
    # level -150 of the parallel line has no partner
    for arr in (parallel_line(300), _a2_less_one_translate()):
        assert not antipodal(arr)
        assert graph_to_json(enumerate_chambers(arr)) == graph_to_json(reference_enumeration(arr))
