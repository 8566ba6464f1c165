"""Chambers of an arrangement and the graph of wall crossings.

A chamber is a maximal connected piece of the complement: a strict sign
vector over the hyperplanes that has a solution (inside the open window
box, for affine arrangements).  Enumeration is a breadth-first search
from a deterministic seed chamber; every question is decided in exact
integer and rational arithmetic, so chamber ids, witnesses and edges are
reproducible run to run and machine to machine.

Walls are found by flipping one sign: h is a wall of C exactly when C
with h's sign flipped is a chamber, so one witness solve per new sign
vector finds the neighbour.  One memo maps each sign vector solved so
far to its chamber id, or to None once it is proven empty.  A flip that
breaks the +...+-...- sign order along the translates of one normal is
empty, so it is skipped before the flipped vector is even built.  Each
hyperplane's row is built once per enumeration, on both sides, for the
open chamber and for each closed window face ``x_i = +-p/q`` (for radius
p/q), where the weak row is substituted and scaled by q so the rows stay
integral; a solve only picks rows from that table.

Antipodal memo: when every hyperplane (a, k) has a partner (a, -k), as
in every arrangement built from Dynkin data, x -> -x maps the
arrangement and the symmetric window box onto themselves.  The mirror
of a sign vector v, ``m[h] = -v[partner(h)]``, then cuts out exactly
the negated region.  So one solve of v also settles m: m is empty when v
is, m's witness is exactly -(v's witness), because the kernel's witness
depends only on the feasible set and its interval rule is odd under
negation, and m's boundary flag equals v's.  The result waits in a side
dict until the search reaches m.  The seed's witness comes from the
probe and not from the kernel, so nothing is mirrored onto it.  An
arrangement without partners (possible for ``--in`` input) is searched
with one solve per vector.

Ids are assigned in discovery order, with each chamber expanding its
hyperplanes in increasing index.  For each adjacent pair both directed
edges appear, labeled by the separating hyperplane.

``region_count_zaslavsky`` counts the chambers of the full space (the
window plays no role) through the Moebius function of the intersection
poset, which is an independent check on the search for central
arrangements.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb

from .arrangement import Arrangement
from .errors import Overflow, UnknownChamber
from .linear import ONE, box_constraints, dot, feasible_point, rref

_PROBE_LIMIT = 10000
# Buck's bound on the chambers of H hyperplanes in R^dim is the sum of
# C(H, i) for i <= dim; enumeration refuses one above this (E6:J={}: 2,391,496)
MAX_CHAMBERS = 10**7


def _primes(limit):
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(limit) if sieve[i]]


_PRIMES = _primes(_PROBE_LIMIT)


class Chamber(namedtuple("Chamber", "id signs witness boundary")):
    """A chamber: its id, sign vector, an interior witness point, and
    whether its closure meets the window boundary."""

    __slots__ = ()


class Edge(namedtuple("Edge", "id source target hyperplane")):
    """A directed wall crossing from ``source`` to ``target`` across ``hyperplane``."""

    __slots__ = ()


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


def _row_table(arr):
    """Every row a solve needs, each built once: ``(dim, chamber, faces)``.

    A system is a pair ``(sides, tail)``: ``sides[h]`` is the triple
    ``(None, row on the + side, row on the - side)`` of hyperplane h, so
    that ``sides[h][s]`` is its row for sign s, and ``tail`` holds the
    window rows after them.  ``chamber`` is the open chamber: strict rows,
    then the open box.  ``faces`` holds one system per closed window face
    ``x_i = +-p/q``: the weak rows with x_i substituted and scaled by q,
    leaving dim - 1 variables.  A central arrangement has no faces.
    """

    def signed(a, b, strict):
        return (None, (a, b, strict), (tuple(-v for v in a), -b, strict))

    planes = [(tuple(plane.normal), plane.level) for plane in arr.hyperplanes]
    window = [] if arr.radius is None else box_constraints(arr.dim, arr.radius)
    chamber = ([signed(a, b, True) for a, b in planes], window)
    if arr.radius is None:
        return arr.dim, chamber, ()
    box = box_constraints(arr.dim, arr.radius, strict=False)
    p, q = arr.radius.numerator, arr.radius.denominator
    faces = []
    for i in range(arr.dim):
        for side in (p, -p):

            def sub(a, b):
                # substitute x_i = side / q and scale by q
                return tuple(q * v for v in a[:i] + a[i + 1 :]), q * b - a[i] * side

            faces.append(([signed(*sub(a, b), False) for a, b in planes], [(*sub(a, b), s) for a, b, s in box]))
    return arr.dim, chamber, faces


def _rows(system, signs):
    """Each hyperplane's row on its side of the chamber, then the window rows."""
    sides, tail = system
    return [pair[s] for pair, s in zip(sides, signs)] + tail


def _touches_boundary(table, signs) -> bool:
    """Does the closure of the chamber meet the window boundary?"""
    dim, _, faces = table
    return any(feasible_point(dim - 1, _rows(face, signs)) is not None for face in faces)


def _solve(table, signs):
    """``(witness, boundary flag)`` of a sign vector, or None if it is empty."""
    dim, chamber, _ = table
    witness = feasible_point(dim, _rows(chamber, signs))
    if witness is None:
        return None
    return witness, _touches_boundary(table, signs)


def _partners(planes):
    """The index of (a, -k) for each hyperplane (a, k), or None if one has none."""
    where = {(plane.normal, plane.level): h for h, plane in enumerate(planes)}
    partner = [where.get((plane.normal, -plane.level)) for plane in planes]
    # a repeated hyperplane would make the map non-injective
    if len(where) < len(planes) or None in partner:
        return None
    return partner


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


def _probes(arr):
    """Probe values t: 1/N over the primes N below 10000, then a fallback.

    The primes keep today's seeds.  Each hyperplane meets the curve
    (t, t^2, ..., t^dim) in at most dim values of t, because its normal
    is nonzero, so H * dim + 1 distinct values in (0, min(radius, 1))
    always include one off every hyperplane.
    """
    top = ONE if arr.radius is None else min(arr.radius, ONE)
    for n in _PRIMES:
        if Fraction(1, n) < top:
            yield Fraction(1, n)
    for k in range(len(arr.hyperplanes) * arr.dim + 1):
        yield top / (k + 2)


def seed_chamber(arr: Arrangement) -> Chamber:
    """The chamber of the first generic probe point p = (t, t^2, ..., t^dim).

    Every probe has 0 < t < min(radius, 1), so p lies inside the window;
    the first p strictly off every hyperplane wins.
    """
    for t in _probes(arr):
        point = tuple(t**i for i in range(1, arr.dim + 1))
        values = [dot(point, h.normal) - h.level for h in arr.hyperplanes]
        if all(v != 0 for v in values):
            signs = tuple(1 if v > 0 else -1 for v in values)
            return Chamber(0, signs, point, _touches_boundary(_row_table(arr), signs))
    raise AssertionError("more than dim roots of a nonzero polynomial of degree dim")


def enumerate_chambers(arr: Arrangement) -> ChamberGraph:
    """Breadth-first enumeration of all chambers with exact certificates."""
    planes = arr.hyperplanes
    bound = sum(comb(len(planes), i) for i in range(arr.dim + 1))
    if bound > MAX_CHAMBERS:
        raise Overflow(f"up to {bound} chambers by Buck's bound, more than {MAX_CHAMBERS}")
    table = _row_table(arr)
    partner = _partners(planes)
    seed = seed_chamber(arr)
    chambers = [seed]
    # sign vector -> chamber id, or None once the vector is proven empty
    index = {seed.signs: 0}
    # mirrors of solved vectors the search has not reached yet, with
    # their (witness, boundary flag), or None when empty
    pending = {}
    edges = []
    for current in chambers:
        signs = current.signs
        for h in range(len(planes)):
            # The other signs and the open window cut out a convex open
            # region; it meets h exactly when both sides of h are
            # nonempty, so h is a wall exactly when the flip is a chamber.
            if _breaks_class_order(planes, signs, h):
                continue
            flipped = signs[:h] + (-signs[h],) + signs[h + 1 :]
            if flipped not in index:
                if flipped in pending:
                    found = pending.pop(flipped)
                else:
                    found = _solve(table, flipped)
                    if partner is not None:
                        mirror = tuple(-flipped[g] for g in partner)
                        # the seed is in index, so nothing lands on it
                        if mirror not in index and mirror != flipped:
                            pending[mirror] = None if found is None else (tuple(-v for v in found[0]), found[1])
                if found is None:
                    index[flipped] = None
                else:
                    index[flipped] = len(chambers)
                    chambers.append(Chamber(len(chambers), flipped, *found))
            if index[flipped] is not None:
                edges.append(Edge(len(edges), current.id, index[flipped], h))
    return ChamberGraph(arr, chambers, edges)


def walls(graph: ChamberGraph, cid: int) -> tuple[int, ...]:
    """Hyperplanes bounding the chamber along a facet, in increasing index."""
    return tuple(sorted(e.hyperplane for e in graph.out_edges(cid)))


class Flat(namedtuple("Flat", "members dim")):
    """An intersection of hyperplanes, named by all hyperplanes containing it."""

    __slots__ = ()


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
