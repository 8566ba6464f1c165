"""Positive paths in the chamber graph: galleries, atoms, mutation labels.

A positive path crosses walls one at a time, never backwards.  The
minimal-length positive paths between two chambers are the atoms; they
cross exactly the hyperplanes separating the endpoints, once each
(Deligne 1972).  So one walk per source finds them all: it follows only
edges whose hyperplane still has the source's sign, so it crosses no
hyperplane twice, and every path it takes is an atom to where it ends.
Aimed at a target, it crosses only separating hyperplanes and never
gets stuck, because the window (all of space for a central arrangement)
is convex: a generic segment from any other chamber to the target stays
inside it and leaves through a wall separating the two.

Mutation bookkeeping is purely formal.  A label lists one summand
symbol per wall of its chamber in increasing hyperplane order; crossing
wall h applies the involution nu_h to the symbol sitting at h, keeps it
attached to h, and carries the other symbols over to the remaining
walls of the new chamber in order.  Crossing the same wall twice
restores the label exactly.
"""

from __future__ import annotations

import warnings
from collections import namedtuple

from .chambers import ChamberGraph, walls
from .errors import NonComposable, Overflow, Unreachable

DEFAULT_ATOM_CAP = 10**6


class BoundaryContactWarning(UserWarning):
    """A shortest path ran through a window-boundary chamber."""


class PositivePath(namedtuple("PositivePath", "source edges")):
    """A start chamber plus an ordered tuple of directed edge ids."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.edges)


def path_target(graph: ChamberGraph, path: PositivePath) -> int:
    """Endpoint of the path; raises NonComposable on a broken edge chain."""
    at = graph.chamber(path.source).id
    for eid in path.edges:
        if not 0 <= eid < len(graph.edges):
            raise NonComposable(f"no edge {eid} in this graph")
        edge = graph.edges[eid]
        if edge.source != at:
            raise NonComposable(f"edge {eid} starts at {edge.source}, path is at {at}")
        at = edge.target
    return at


def crossings(graph: ChamberGraph, path: PositivePath) -> tuple[int, ...]:
    """Hyperplane labels along the path, in crossing order."""
    path_target(graph, path)
    return tuple(graph.edges[eid].hyperplane for eid in path.edges)


def compose(graph: ChamberGraph, first: PositivePath, second: PositivePath) -> PositivePath:
    """first followed by second; their endpoints must meet."""
    end = path_target(graph, first)
    if second.source != end:
        raise NonComposable(f"second path starts at {second.source}, first ends at {end}")
    path_target(graph, second)
    return PositivePath(first.source, first.edges + second.edges)


def path_touches_boundary(graph: ChamberGraph, path: PositivePath) -> bool:
    """True when any visited chamber, endpoints included, is boundary-flagged."""
    at = path.source
    if graph.chamber(at).boundary:
        return True
    for eid in path.edges:
        at = graph.edges[eid].target
        if graph.chamber(at).boundary:
            return True
    return False


def atoms_from(
    graph: ChamberGraph, source: int, length_cap: int | None = None, cap: int = DEFAULT_ATOM_CAP
) -> dict[int, list[PositivePath]]:
    """Every atom from source of length at most ``length_cap``, keyed by end chamber.

    One depth-first walk crossing any hyperplane that still has the
    source's sign, so each list is lexicographic by edge ids.  Raises
    Overflow when more than ``cap`` atoms end at one chamber.
    """
    return _walk(graph, source, tuple(-s for s in graph.chamber(source).signs), length_cap, cap)


def _walk(graph, source, goal, length_cap, cap):
    # the walk of atoms_from, crossing only hyperplanes where the current
    # signs differ from goal; an explicit stack, since atoms can be longer
    # than Python's recursion limit
    found = {}
    stack = [(source, ())]
    while stack:
        at, trail = stack.pop()
        paths = found.setdefault(at, [])
        if len(paths) >= cap:
            raise Overflow(f"more than {cap} atoms from {source} to {at}")
        paths.append(PositivePath(source, trail))
        if len(trail) != length_cap:
            signs = graph.chambers[at].signs
            # pushed last edge first, so the smallest edge id is walked first
            for e in reversed(graph.out_edges(at)):
                if signs[e.hyperplane] != goal[e.hyperplane]:
                    stack.append((e.target, trail + (e.id,)))
    return found


def atoms(graph: ChamberGraph, source: int, target: int, cap: int = DEFAULT_ATOM_CAP) -> list[PositivePath]:
    """All minimal positive paths from source to target, lexicographic by edge ids.

    The walk of ``atoms_from`` aimed at the target, read there.  Raises
    Unreachable when no positive path exists and Overflow when more than
    ``cap`` atoms would be produced (no chamber between the two has more
    atoms than the target).  In windowed graphs a BoundaryContactWarning
    is issued if any atom touches a boundary-flagged chamber.
    """
    graph.chamber(source)
    goal = graph.chamber(target).signs
    try:
        out = _walk(graph, source, goal, None, cap).get(target)
    except Overflow:
        raise Overflow(f"more than {cap} atoms from {source} to {target}") from None
    if out is None:
        raise Unreachable(f"no positive path from {source} to {target}")
    if any(path_touches_boundary(graph, p) for p in out):
        message = f"some atoms from {source} to {target} touch the window boundary"
        warnings.warn(message, BoundaryContactWarning, stacklevel=2)
    return out


def is_reduced(graph: ChamberGraph, path: PositivePath) -> bool:
    """True when no hyperplane is crossed twice."""
    seq = crossings(graph, path)
    return len(set(seq)) == len(seq)


def separating_set(graph: ChamberGraph, a: int, b: int) -> frozenset[int]:
    """Hyperplanes whose sign differs between the two chambers."""
    ca = graph.chamber(a)
    cb = graph.chamber(b)
    return frozenset(h for h, (x, y) in enumerate(zip(ca.signs, cb.signs)) if x != y)


class MutationLabel(namedtuple("MutationLabel", "symbols")):
    """Formal summand symbols, one per wall of the labeled chamber."""

    __slots__ = ()


def initial_label(graph: ChamberGraph, cid: int, stem: str = "M") -> MutationLabel:
    """A fresh label with one named symbol per wall of the chamber."""
    return MutationLabel(tuple(f"{stem}{i}" for i in range(len(walls(graph, cid)))))


def mutate_symbol(hyperplane: int, symbol):
    """The formal involution nu_h; applying it twice gives back the symbol."""
    if isinstance(symbol, tuple) and len(symbol) == 3 and symbol[0] == "nu" and symbol[1] == hyperplane:
        return symbol[2]
    return ("nu", hyperplane, symbol)


def mutation_walk(graph: ChamberGraph, start: MutationLabel, path: PositivePath) -> list[MutationLabel]:
    """Transport a label along a positive path, one label per visited chamber.

    Each crossing replaces exactly one summand.  The walk requires every
    visited chamber to have the same number of walls (true away from
    window-boundary artifacts).
    """
    at = path.source
    current_walls = walls(graph, at)
    if len(start.symbols) != len(current_walls):
        raise ValueError(
            f"label has {len(start.symbols)} symbols, chamber {at} has {len(current_walls)} walls"
        )
    attached = dict(zip(current_walls, start.symbols))
    labels = [start]
    for eid in path.edges:
        edge = graph.edges[eid]
        if edge.source != at:
            raise NonComposable(f"edge {eid} starts at {edge.source}, walk is at {at}")
        h = edge.hyperplane
        next_walls = walls(graph, edge.target)
        if len(next_walls) != len(current_walls):
            raise ValueError(
                f"wall count changes from {len(current_walls)} to {len(next_walls)} across edge {eid}"
            )
        carried = dict(
            zip((w for w in next_walls if w != h), (attached[w] for w in current_walls if w != h))
        )
        carried[h] = mutate_symbol(h, attached[h])
        attached = carried
        at = edge.target
        current_walls = next_walls
        labels.append(MutationLabel(tuple(attached[w] for w in next_walls)))
    return labels


def path_to_json(path: PositivePath) -> dict:
    return {"source": path.source, "edges": list(path.edges)}


def path_from_json(obj: dict) -> PositivePath:
    return PositivePath(obj["source"], tuple(obj["edges"]))
