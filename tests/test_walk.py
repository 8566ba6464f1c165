"""The one gallery walk against the per-pair searches it replaced.

``atoms``, ``generators`` and ``atom_groups`` all read ``atoms_from``,
one depth-first walk per source chamber.  The reference functions below
are the earlier code: a separate targeted search per chamber pair, and
nested loops over all pairs filtered by their separating sets.  On random
small integer arrangements, central and windowed, both must give the same
lists in the same order.
"""

import sys
import warnings
from fractions import Fraction

import pytest

from floparr import (
    Arrangement,
    BoundaryContactWarning,
    Hyperplane,
    Overflow,
    Pi1Generator,
    PositivePath,
    Unreachable,
    atom_groups,
    atoms,
    atoms_from,
    base_chamber,
    enumerate_chambers,
    generators,
    loop_word,
    path_touches_boundary,
    separating_set,
    walls,
)
from floparr.arrangement import _primitive
from floparr.chambers import Chamber, ChamberGraph, Edge

from helpers import central_graph

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def reference_atoms(graph, source, target):
    # one search per chamber pair, crossing a hyperplane only while the
    # current chamber and the target disagree on it
    graph.chamber(source)
    goal = graph.chamber(target).signs
    out = []
    trail = []

    def grow(at):
        if at == target:
            out.append(PositivePath(source, tuple(trail)))
            return
        signs = graph.chambers[at].signs
        for e in graph.out_edges(at):
            if signs[e.hyperplane] != goal[e.hyperplane]:
                trail.append(e.id)
                grow(e.target)
                trail.pop()

    grow(source)
    if not out:
        raise Unreachable(f"no positive path from {source} to {target}")
    return out


def reference_atom_groups(graph, length_cap=None):
    for source in graph.chambers:
        for target in graph.chambers:
            length = len(separating_set(graph, source.id, target.id))
            if length < 2 or (length_cap is not None and length > length_cap):
                continue
            found = reference_atoms(graph, source.id, target.id)
            if len(found) >= 2:
                yield found


def reference_generators(graph):
    base = base_chamber(graph)
    out = []
    for chamber in graph.chambers:
        for atom in reference_atoms(graph, base, chamber.id):
            if graph.arrangement.is_affine and path_touches_boundary(graph, atom):
                continue
            for wall in walls(graph, chamber.id):
                out.append(Pi1Generator(atom, wall, loop_word(graph, atom, wall)))
    return out


@st.composite
def arrangements(draw):
    """Up to six integer hyperplanes in dimension 1 to 3, central or in a box."""
    dim = draw(st.integers(1, 3))
    windowed = draw(st.booleans())
    normal = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any)
    planes = set()
    for _ in range(draw(st.integers(1, 6))):
        level = draw(st.integers(-2, 2)) if windowed else 0
        planes.add(Hyperplane(*_primitive(tuple(draw(normal)), level)))
    radius = Fraction(draw(st.sampled_from([1, 3, 5])), 2) if windowed else None
    return Arrangement(dim, radius, tuple(sorted(planes, key=lambda h: (h.normal, h.level))))


def _quiet(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryContactWarning)
        return fn(*args)


# three lines through the origin and a windowed plane with a line
# parallel to a box face; both run every time
A2_LIKE = Arrangement(2, None, (Hyperplane((0, 1), 0), Hyperplane((1, -1), 0), Hyperplane((1, 0), 0)))
WINDOWED = Arrangement(
    2, Fraction(3, 2), (Hyperplane((0, 1), -1), Hyperplane((0, 1), 1), Hyperplane((1, 1), 0), Hyperplane((1, 2), 1))
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(arrangements())
@example(A2_LIKE)
@example(WINDOWED)
def test_atoms_match_targeted_search(arr):
    g = enumerate_chambers(arr)
    for s in g.chambers:
        walk = atoms_from(g, s.id)
        assert sorted(walk) == [c.id for c in g.chambers]
        for t in g.chambers:
            expect = reference_atoms(g, s.id, t.id)
            assert _quiet(atoms, g, s.id, t.id) == expect
            assert walk[t.id] == expect
        capped = atoms_from(g, s.id, 1)
        assert sorted(capped) == sorted(t.id for t in g.chambers if len(separating_set(g, s.id, t.id)) <= 1)


@PROPERTY
@given(arrangements())
@example(A2_LIKE)
@example(WINDOWED)
def test_atom_groups_match_nested_loop(arr):
    g = enumerate_chambers(arr)
    for cap in (None, 2):
        assert list(atom_groups(g, cap)) == list(reference_atom_groups(g, cap))


@PROPERTY
@given(arrangements())
@example(A2_LIKE)
@example(WINDOWED)
def test_generators_match_per_chamber_loop(arr):
    g = enumerate_chambers(arr)
    assert _quiet(generators, g) == reference_generators(g)


@PROPERTY
@given(arrangements())
@example(A2_LIKE)
def test_atom_overflow_names_the_target(arr):
    # every chamber the aimed walk passes has at most as many atoms as
    # the target, so the cap trips exactly when the target's list is long
    g = enumerate_chambers(arr)
    for t in g.chambers:
        count = len(reference_atoms(g, 0, t.id))
        assert len(_quiet(atoms, g, 0, t.id, count)) == count
        with pytest.raises(Overflow, match=f"more than {count - 1} atoms from 0 to {t.id}$"):
            _quiet(atoms, g, 0, t.id, count - 1)


def test_disconnected_graph_is_unreachable():
    g = central_graph("A1:J={}")
    lonely = ChamberGraph(g.arrangement, g.chambers, ())
    assert atoms_from(lonely, 0) == {0: [PositivePath(0, ())]}
    with pytest.raises(Unreachable):
        atoms(lonely, 0, 1)
    with pytest.raises(Unreachable):
        generators(lonely)
    # a pair the walk cannot reach has no atoms and forms no group
    assert list(atom_groups(lonely)) == []


def test_atoms_longer_than_the_recursion_limit():
    # a windowed line with more hyperplanes than Python's recursion limit;
    # a recursive walk raised RecursionError here.  The graph is built by
    # hand because enumerating that many chambers takes tens of seconds.
    n = sys.getrecursionlimit() + 10
    chambers = [Chamber(i, (1,) * i + (-1,) * (n - i), (Fraction(i),), False) for i in range(n + 1)]
    edges = []
    for h in range(n):
        edges += [Edge(len(edges), h, h + 1, h), Edge(len(edges) + 1, h + 1, h, h)]
    line = ChamberGraph(None, chambers, edges)
    (atom,) = atoms(line, 0, n)
    assert atom == PositivePath(0, tuple(range(0, 2 * n, 2)))
    assert atoms_from(line, 0)[n] == [atom]
    assert len(generators(line)) == 2 * n
