"""The one gallery walk against the per-pair searches it replaced.

``atoms``, ``generators`` and ``atom_groups`` all read ``atoms_from``,
one depth-first walk per source chamber.  The reference functions below
are the earlier code: a separate targeted search per chamber pair, and
nested loops over all pairs filtered by their separating sets.  On random
small integer arrangements, central and windowed, both must give the same
lists in the same order.

Every function that takes a path or a word checks it with one walk; on
random letter chains, valid and broken, each must end where a lookup in
a table of moves ends, or raise NonComposable.
"""

import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floparr import (
    Arrangement,
    BoundaryContactWarning,
    GroupoidWord,
    Hyperplane,
    NonComposable,
    Overflow,
    Pi1Generator,
    PositivePath,
    Unreachable,
    atom_groups,
    atoms,
    atoms_from,
    base_chamber,
    compose,
    crossing_homomorphism,
    crossings,
    enumerate_chambers,
    generators,
    initial_label,
    is_reduced,
    loop_word,
    mutation_walk,
    path_target,
    path_touches_boundary,
    separating_set,
    walls,
    word_concat,
    word_end,
    word_inverse,
)
from floparr.arrangement import _primitive
from floparr.chambers import Chamber, ChamberGraph, Edge

from helpers import central_graph



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
            if graph.arrangement.radius is not None and path_touches_boundary(graph, atom):
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


def reference_visits(graph, source, letters):
    # a lookup per letter in the table of every move the graph allows:
    # (chamber, (edge id, sign)) -> the chamber it leads to; None for a
    # chain with a letter the table lacks
    moves = {}
    for e in graph.edges:
        moves[e.source, (e.id, 1)] = e.target
        moves[e.target, (e.id, -1)] = e.source
    visits = [source]
    for letter in letters:
        if (visits[-1], letter) not in moves:
            return None
        visits.append(moves[visits[-1], letter])
    return visits


@st.composite
def chains(draw):
    """A graph, a start chamber and one to six letters.  Each letter is a
    move the graph allows from where the chain is, except that a broken
    chain has one random letter: an edge id from -2 to two past the last,
    and a sign of 1, -1, 0 or 2.  A positive chain has sign 1 throughout."""
    g = enumerate_chambers(draw(arrangements()))
    source = draw(st.integers(0, len(g.chambers) - 1))
    signs = (1,) if draw(st.booleans()) else (1, -1, 0, 2)
    length = draw(st.integers(1, 6))
    broken = draw(st.none() | st.integers(0, length - 1))
    letters = []
    at = source
    for i in range(length):
        here = [(e.id, 1) for e in g.edges if e.source == at]
        here += [(e.id, -1) for e in g.edges if e.target == at and -1 in signs]
        if here and i != broken:
            letter = draw(st.sampled_from(here))
        else:
            letter = (draw(st.integers(-2, len(g.edges) + 1)), draw(st.sampled_from(signs)))
        letters.append(letter)
        at = (reference_visits(g, source, letters) or [None])[-1]
    return g, source, tuple(letters)


def _each_walk(g, source, letters):
    # every walking function on the chain, as (name, result or the error
    # raised); mutation_walk raises ValueError where the wall count changes
    word = GroupoidWord(source, letters)
    calls = {
        "word_end": lambda: word_end(g, word),
        "crossing_homomorphism": lambda: crossing_homomorphism(g, word),
        "word_inverse": lambda: word_inverse(g, word),
        "word_concat first": lambda: word_concat(g, word, GroupoidWord(word_end(g, word), ())),
        "word_concat second": lambda: word_concat(g, GroupoidWord(source, ()), word),
    }
    if all(s == 1 for _, s in letters):
        path = PositivePath(source, tuple(eid for eid, _ in letters))
        calls.update({
            "path_target": lambda: path_target(g, path),
            "path_touches_boundary": lambda: path_touches_boundary(g, path),
            "crossings": lambda: crossings(g, path),
            "is_reduced": lambda: is_reduced(g, path),
            "compose": lambda: compose(g, PositivePath(source, ()), path),
            "mutation_walk": lambda: mutation_walk(g, initial_label(g, source), path),
        })
    for name, call in calls.items():
        try:
            yield name, call()
        except (NonComposable, ValueError) as exc:
            yield name, exc


@settings(PROPERTY, max_examples=200)
@given(chains())
def test_walks_match_a_table_of_moves(chain):
    g, source, letters = chain
    visits = reference_visits(g, source, letters)
    results = dict(_each_walk(g, source, letters))
    if visits is None:
        assert all(isinstance(got, NonComposable) for got in results.values()), results
        return
    end = visits[-1]
    hyperplanes = [g.edges[eid].hyperplane for eid, _ in letters]
    counts = [0] * len(g.arrangement.hyperplanes)
    for h, (_, s) in zip(hyperplanes, letters):
        counts[h] += s
    assert results.pop("word_end") == end
    assert results.pop("crossing_homomorphism") == tuple(counts)
    assert word_end(g, results.pop("word_inverse")) == source
    assert results.pop("word_concat first").letters == letters
    assert results.pop("word_concat second").letters == letters
    if "path_target" in results:
        assert results.pop("path_target") == end
        assert results.pop("path_touches_boundary") == any(g.chambers[c].boundary for c in visits)
        assert results.pop("crossings") == tuple(hyperplanes)
        assert results.pop("is_reduced") == (len(set(hyperplanes)) == len(hyperplanes))
        assert results.pop("compose").edges == tuple(eid for eid, _ in letters)
        labels = results.pop("mutation_walk")
        if len({len(walls(g, c)) for c in visits}) == 1:
            assert len(labels) == len(visits)
        else:
            assert isinstance(labels, ValueError)
    assert results == {}


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
