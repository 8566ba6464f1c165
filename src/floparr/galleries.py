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

Paths and words are walked by one checked function, ``_visits``: every
function here or in ``pi1`` that takes a path or a word raises
NonComposable through it on a broken chain.

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


def _visits(graph: ChamberGraph, source: int, letters) -> list[int]:
    """The chambers a chain of signed letters visits, ``source`` first.

    The one checked walk of paths and words: ``(eid, 1)`` crosses edge
    ``eid`` forward and ``(eid, -1)`` backward.  A letter that is not a
    pair of ints (bools excluded), an edge id outside the graph, a sign
    other than +-1 or a letter that does not start where the chain is
    raises NonComposable; a bad source raises UnknownChamber.
    """
    at = graph.chamber(source).id
    out = [at]
    for letter in letters:
        if not (type(letter) is tuple and len(letter) == 2 and type(letter[0]) is type(letter[1]) is int):
            raise NonComposable(f"a letter is a pair of ints, got {letter!r}")
        eid, sign = letter
        if not 0 <= eid < len(graph.edges) or sign not in (1, -1):
            raise NonComposable(f"no letter ({eid}, {sign}) in this graph")
        edge = graph.edges[eid]
        tail, head = (edge.source, edge.target) if sign == 1 else (edge.target, edge.source)
        if tail != at:
            raise NonComposable(f"letter ({eid}, {sign}) starts at {tail}, the chain is at {at}")
        at = head
        out.append(at)
    return out


def path_target(graph: ChamberGraph, path: PositivePath) -> int:
    """Endpoint of the path; raises NonComposable on a broken edge chain."""
    return _visits(graph, path.source, [(eid, 1) for eid in path.edges])[-1]


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
    return any(graph.chambers[at].boundary for at in _visits(graph, path.source, [(eid, 1) for eid in path.edges]))


def atoms_from(
    graph: ChamberGraph, source: int, length_cap: int | None = None, cap: int = DEFAULT_ATOM_CAP
) -> dict[int, list[PositivePath]]:
    """Every atom from source of length at most ``length_cap``, keyed by end chamber.

    One depth-first walk crossing any hyperplane that still has the
    source's sign, so each list is lexicographic by edge ids.  Raises
    Overflow when more than ``cap`` atoms end at one chamber.
    """
    return _walk(graph, source, tuple(-s for s in graph.chamber(source).signs), length_cap, cap)


def atom_counts(graph: ChamberGraph, source: int, length_cap: int | None = None) -> dict[int, int]:
    """How many atoms ``atoms_from`` lists at each end chamber, without listing them.

    The same recursion as its walk: each step crosses a hyperplane that
    still has the source's sign, so it moves one hyperplane further from
    the source, and the chambers k steps out form one layer.  A chamber's
    count is the sum of the counts of the chambers one such edge before it.
    """
    signs = graph.chamber(source).signs
    counts = {}
    layer = {source: 1}
    depth = 0
    while layer:
        counts.update(layer)
        if depth == length_cap:
            break
        after = {}
        for at, n in layer.items():
            here = graph.chambers[at].signs
            for e in graph.out_edges(at):
                if here[e.hyperplane] == signs[e.hyperplane]:
                    after[e.target] = after.get(e.target, 0) + n
        layer = after
        depth += 1
    return counts


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


def initial_label(graph: ChamberGraph, cid: int) -> MutationLabel:
    """A fresh label with one named symbol M0, M1, ... per wall of the chamber."""
    return MutationLabel(tuple(f"M{i}" for i in range(len(walls(graph, cid)))))


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
    visits = _visits(graph, path.source, [(eid, 1) for eid in path.edges])
    current_walls = walls(graph, path.source)
    if len(start.symbols) != len(current_walls):
        raise ValueError(
            f"label has {len(start.symbols)} symbols, chamber {path.source} has {len(current_walls)} walls"
        )
    attached = dict(zip(current_walls, start.symbols))
    labels = [start]
    for eid, at in zip(path.edges, visits[1:]):
        h = graph.edges[eid].hyperplane
        next_walls = walls(graph, at)
        if len(next_walls) != len(current_walls):
            raise ValueError(
                f"wall count changes from {len(current_walls)} to {len(next_walls)} across edge {eid}"
            )
        carried = dict(
            zip((w for w in next_walls if w != h), (attached[w] for w in current_walls if w != h))
        )
        carried[h] = mutate_symbol(h, attached[h])
        attached = carried
        current_walls = next_walls
        labels.append(MutationLabel(tuple(attached[w] for w in next_walls)))
    return labels


def path_to_json(path: PositivePath) -> dict:
    return {"source": path.source, "edges": list(path.edges)}


def path_text(source: int, edges, nl: str) -> str:
    """The text of the path ``{"source": source, "edges": list(edges)}`` for
    a place indented as ``nl``: its ``dumps``, less the final newline, with
    ``nl`` for each line break.  ``pi1`` splices its atoms from these."""
    inner = nl + "  "
    listed = "[" + inner + "  " + ("," + inner + "  ").join(map(str, edges)) + inner + "]" if edges else "[]"
    return "{" + inner + '"source": ' + str(source) + "," + inner + '"edges": ' + listed + nl + "}"


def path_from_json(obj: dict) -> PositivePath:
    return PositivePath(obj["source"], tuple(obj["edges"]))
