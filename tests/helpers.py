"""Shared oracles and builders for the test suite.

The oracles are deliberately independent of the library code they
check: interval vectors for type A roots, the rank * coxeter / 2 count
formula, the 2m sector count for central line arrangements, and
networkx shortest-path enumeration for atoms.
"""

from fractions import Fraction
from math import lcm

import networkx as nx

from floparr import (
    Arrangement,
    Hyperplane,
    arrangement_from_json,
    build_affine,
    build_finite,
    enumerate_chambers,
    parse_data,
    walls,
)
from floparr.linear import dot


def integral(ineqs):
    """Rational rows ``(a, b, strict)`` times the lcm of each row's denominators."""
    out = []
    for a, b, strict in ineqs:
        values = [Fraction(v) for v in (*a, b)]
        scale = lcm(*(v.denominator for v in values))
        ints = [int(v * scale) for v in values]
        out.append((tuple(ints[:-1]), ints[-1], strict))
    return out


def central(text):
    return build_finite(parse_data(text))


def affine(text, radius):
    return build_affine(parse_data(text), Fraction(radius))


def parallel_line(n):
    """n translates x = -(n // 2) .. n - n // 2 - 1 of one point in a dim-1 window."""
    low = -(n // 2)
    return Arrangement(1, Fraction(n // 2 + 1), tuple(Hyperplane((1,), k) for k in range(low, low + n)))


def antipodal(arr):
    """Does x -> -x map the arrangement onto itself: is each (a, -k) there with (a, k)?"""
    planes = set(arr.hyperplanes)
    return all(Hyperplane(h.normal, -h.level) in planes for h in planes)


def a5_height_two():
    """The nine roots of A5 of height at most 2: a central arrangement in dim 5."""
    normals = sorted(
        [1 if start <= i <= stop else 0 for i in range(5)]
        for start in range(5)
        for stop in range(start, min(start + 2, 5))
    )
    return arrangement_from_json({
        "dim": 5,
        "kind": "central",
        "hyperplanes": [{"normal": n, "level": 0} for n in normals],
    })


def central_graph(text):
    return enumerate_chambers(central(text))


def affine_graph(text, radius):
    return enumerate_chambers(affine(text, radius))


def interval_roots(n):
    """Positive roots of A_n: indicator vectors of intervals [i, j]."""
    out = []
    for i in range(n):
        for j in range(i, n):
            out.append(tuple(1 if i <= k <= j else 0 for k in range(n)))
    return tuple(sorted(out))


def coxeter_count(family, rank):
    """Positive root count as rank * coxeter_number / 2."""
    h = {"A": rank + 1, "D": 2 * rank - 2, "E": {6: 12, 7: 18, 8: 30}.get(rank)}[family]
    return rank * h // 2


def sector_count(arr):
    """A central arrangement of m distinct lines in the plane has 2m sectors."""
    assert arr.dim == 2 and arr.radius is None
    return 2 * len(arr.hyperplanes)


def nx_digraph(graph):
    g = nx.DiGraph()
    g.add_nodes_from(c.id for c in graph.chambers)
    g.add_edges_from((e.source, e.target) for e in graph.edges)
    return g


def nx_shortest_chamber_sequences(graph, source, target):
    """All geodesics as chamber id tuples, via networkx."""
    g = nx_digraph(graph)
    try:
        return {tuple(p) for p in nx.all_shortest_paths(g, source, target)}
    except nx.NetworkXNoPath:
        return set()


def chamber_sequence(graph, path):
    seq = [path.source]
    for eid in path.edges:
        seq.append(graph.edges[eid].target)
    return tuple(seq)


def check_graph_invariants(graph):
    """Structural sanity every enumerated graph must satisfy."""
    arr = graph.arrangement
    for i, c in enumerate(graph.chambers):
        assert c.id == i
        assert len(c.signs) == len(arr.hyperplanes)
        assert all(s in (1, -1) for s in c.signs)
        for h, plane in enumerate(arr.hyperplanes):
            value = dot(c.witness, plane.normal) - plane.level
            assert value != 0 and (value > 0) == (c.signs[h] > 0)
        if arr.radius is not None:
            assert all(abs(x) < arr.radius for x in c.witness)
        else:
            assert not c.boundary
    seen = set()
    for e in graph.edges:
        diff = [
            h
            for h, (a, b) in enumerate(
                zip(graph.chambers[e.source].signs, graph.chambers[e.target].signs)
            )
            if a != b
        ]
        assert diff == [e.hyperplane]
        assert (e.source, e.target, e.hyperplane) not in seen
        seen.add((e.source, e.target, e.hyperplane))
        assert (e.target, e.source, e.hyperplane) in seen or any(
            x.source == e.target and x.target == e.source and x.hyperplane == e.hyperplane
            for x in graph.edges
        )
    for c in graph.chambers:
        assert walls(graph, c.id) == tuple(sorted(e.hyperplane for e in graph.out_edges(c.id)))
