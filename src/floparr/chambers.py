"""Chambers of an arrangement and the graph of wall crossings.

A chamber is a maximal connected piece of the complement: a strict sign
vector over the hyperplanes that has a solution (inside the open window
box, for affine arrangements).  Enumeration is a breadth-first search
from a deterministic seed chamber; every question is decided exactly in
rational arithmetic, so chamber ids, witnesses and edges are
reproducible run to run and machine to machine.

Walls are found by flipping one sign: h is a wall of C exactly when C
with h's sign flipped is a chamber, so one witness solve per new sign
vector finds the neighbour.  Vectors proven empty are remembered, and a
flip that breaks the +...+-...- sign order along the translates of one
normal is skipped unsolved.  The boundary flag substitutes each window
face ``x_i = +-radius`` into the closed chamber's weak system.

Ids are assigned in discovery order, with each chamber expanding its
hyperplanes in increasing index.  For each adjacent pair both directed
edges appear, labeled by the separating hyperplane.

``region_count_zaslavsky`` counts the chambers of the full space (the
window plays no role) through the Moebius function of the intersection
poset, which is an independent check on the search for central
arrangements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arrangement import Arrangement
from .errors import UnknownChamber, WindowTooSmall
from .linear import box_constraints, dot, feasible_point, rref

_PROBE_LIMIT = 10000


def _primes(limit):
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(limit) if sieve[i]]


_PRIMES = _primes(_PROBE_LIMIT)


@dataclass(frozen=True)
class Chamber:
    id: int
    signs: tuple[int, ...]
    witness: tuple[Fraction, ...]
    boundary: bool


@dataclass(frozen=True)
class Edge:
    id: int
    source: int
    target: int
    hyperplane: int


class ChamberGraph:
    """Chambers plus directed wall-crossing edges of one arrangement."""

    def __init__(self, arrangement: Arrangement, chambers, edges):
        self.arrangement = arrangement
        self.chambers = tuple(chambers)
        self.edges = tuple(edges)
        self._out = {c.id: [] for c in self.chambers}
        self._by_wall = {}
        for e in self.edges:
            self._out[e.source].append(e)
            self._by_wall[(e.source, e.hyperplane)] = e
        self._by_signs = {c.signs: c.id for c in self.chambers}

    def __len__(self) -> int:
        return len(self.chambers)

    def chamber(self, cid: int) -> Chamber:
        if not 0 <= cid < len(self.chambers):
            raise UnknownChamber(f"no chamber {cid} in a graph of {len(self.chambers)}")
        return self.chambers[cid]

    def out_edges(self, cid: int) -> list[Edge]:
        self.chamber(cid)
        return self._out[cid]

    def edge_across(self, cid: int, hyperplane: int) -> Edge | None:
        self.chamber(cid)
        return self._by_wall.get((cid, hyperplane))

    def id_of_signs(self, signs) -> int | None:
        return self._by_signs.get(tuple(signs))


def _sign_constraints(arr, signs, strict=True):
    out = []
    for h, plane in enumerate(arr.hyperplanes):
        s = signs[h]
        a = tuple(Fraction(s * v) for v in plane.normal)
        out.append((a, Fraction(s * plane.level), strict))
    return out


def _window(arr, strict=True):
    if arr.radius is None:
        return []
    return box_constraints(arr.dim, arr.radius, strict)


def _witness(arr, signs):
    return feasible_point(arr.dim, _sign_constraints(arr, signs) + _window(arr))


def _touches_boundary(arr, signs) -> bool:
    """Does the closure of the chamber meet the window boundary?"""
    if arr.radius is None:
        return False
    weak = _sign_constraints(arr, signs, strict=False) + _window(arr, strict=False)
    for i in range(arr.dim):
        for value in (arr.radius, -arr.radius):
            # substitute x_i = value, leaving dim - 1 variables
            face = [(a[:i] + a[i + 1 :], b - a[i] * value, s) for a, b, s in weak]
            if feasible_point(arr.dim - 1, face) is not None:
                return True
    return False


def _breaks_class_order(planes, signs, h) -> bool:
    """Is flipping h empty by the sign order of its parallel class?

    Translates of one normal sit together sorted by level, so a nonempty
    vector reads +...+-...- along them: h may not take the sign opposite
    to its neighbour g on the far side of its level.
    """
    s = signs[h]
    g = h + s
    if not 0 <= g < len(planes) or planes[g].normal != planes[h].normal:
        return False
    return signs[g] == s and s * (planes[g].level - planes[h].level) > 0


def seed_chamber(arr: Arrangement) -> Chamber:
    """The chamber of the first generic probe point p = (t, t^2, ..., t^dim).

    Probes use t = 1/N over the primes N = 2, 3, 5, ...; the first point
    lying strictly off every hyperplane (and inside the window) wins.
    Primes below 10000 are tried before giving up.
    """
    for n in _PRIMES:
        t = Fraction(1, n)
        if arr.radius is not None and not t < arr.radius:
            continue
        point = tuple(t**i for i in range(1, arr.dim + 1))
        values = [dot(point, h.normal) - h.level for h in arr.hyperplanes]
        if all(v != 0 for v in values):
            signs = tuple(1 if v > 0 else -1 for v in values)
            return Chamber(0, signs, point, _touches_boundary(arr, signs))
    raise WindowTooSmall(f"no probe point 1/N with N prime below {_PROBE_LIMIT} fits")


def enumerate_chambers(arr: Arrangement) -> ChamberGraph:
    """Breadth-first enumeration of all chambers with exact certificates."""
    planes = arr.hyperplanes
    seed = seed_chamber(arr)
    chambers = [seed]
    index = {seed.signs: 0}
    empty = set()
    edges = []
    head = 0
    while head < len(chambers):
        current = chambers[head]
        head += 1
        signs = current.signs
        for h in range(len(planes)):
            # The other signs and the open window cut out a convex open
            # region; it meets h exactly when both sides of h are
            # nonempty, so h is a wall exactly when the flip is a chamber.
            flipped = signs[:h] + (-signs[h],) + signs[h + 1 :]
            nid = index.get(flipped)
            if nid is None:
                if flipped in empty or _breaks_class_order(planes, signs, h):
                    continue
                witness = _witness(arr, flipped)
                if witness is None:
                    empty.add(flipped)
                    continue
                nid = len(chambers)
                chambers.append(Chamber(nid, flipped, witness, _touches_boundary(arr, flipped)))
                index[flipped] = nid
            edges.append(Edge(len(edges), current.id, nid, h))
    return ChamberGraph(arr, chambers, edges)


def walls(graph: ChamberGraph, cid: int) -> tuple[int, ...]:
    """Hyperplanes bounding the chamber along a facet, in increasing index."""
    return tuple(sorted(e.hyperplane for e in graph.out_edges(cid)))


@dataclass(frozen=True)
class Flat:
    """An intersection of hyperplanes, named by all hyperplanes containing it."""

    members: frozenset[int]
    dim: int


class IntersectionPoset:
    """Nonempty intersections ordered by reverse inclusion, with Moebius values."""

    def __init__(self, flats, mobius):
        self.flats = tuple(flats)
        self.mobius = tuple(mobius)

    def region_count(self) -> int:
        return sum(abs(m) for m in self.mobius)


def intersection_poset(arr: Arrangement) -> IntersectionPoset:
    dim = arr.dim
    eqs = [
        [Fraction(v) for v in h.normal] + [Fraction(h.level)]
        for h in arr.hyperplanes
    ]
    ambient_key = ()
    flats = {ambient_key: (frozenset(), dim, [])}
    frontier = [ambient_key]
    while frontier:
        key = frontier.pop()
        members, fdim, rows = flats[key]
        for h in range(len(arr.hyperplanes)):
            if h in members:
                continue
            red, pivots = rref(rows + [eqs[h]])
            if dim in pivots:
                continue
            new_key = tuple(tuple(r) for r in red)
            if new_key in flats:
                continue
            inside = frozenset(
                g for g in range(len(arr.hyperplanes))
                if rref(red + [eqs[g]])[0] == red
            )
            flats[new_key] = (inside, dim - len(pivots), red)
            frontier.append(new_key)
    ordered = sorted(
        ((members, fdim) for members, fdim, _ in flats.values()),
        key=lambda t: (t[1] * -1, sorted(t[0])),
    )
    mobius = []
    for i, (members, _) in enumerate(ordered):
        if not members:
            mobius.append(1)
            continue
        below = sum(
            mobius[j] for j, (other, _) in enumerate(ordered[:i]) if other < members
        )
        mobius.append(-below)
    return IntersectionPoset([Flat(m, d) for m, d in ordered], mobius)


def region_count_zaslavsky(arr: Arrangement) -> int:
    """Chamber count of the full space via the intersection poset."""
    return intersection_poset(arr).region_count()


def graph_to_json(graph: ChamberGraph) -> dict:
    return {
        "chambers": [
            {
                "id": c.id,
                "signs": list(c.signs),
                "witness": [str(v) for v in c.witness],
                "boundary": c.boundary,
            }
            for c in graph.chambers
        ],
        "edges": [
            {"from": e.source, "to": e.target, "hyperplane": e.hyperplane}
            for e in graph.edges
        ],
    }
