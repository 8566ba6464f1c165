"""Chambers of an arrangement and the graph of wall crossings.

A chamber is a maximal connected piece of the complement: a strict sign
vector over the hyperplanes that has a solution (inside the open window
box, for affine arrangements).  Enumeration is a breadth-first search
from a deterministic seed chamber; every question is decided in exact
integer and rational arithmetic, so chamber ids, witnesses and edges are
reproducible run to run and machine to machine.

Walls are found by flipping one sign: h is a wall of C exactly when C
with h's sign flipped is a chamber, so one witness solve per new sign
vector finds the neighbour.  ``Arrangement`` sorts its hyperplanes by
(normal, level), so each parallel class k is a run of indices along
which a chamber reads +...+-...-: only the last + and the first - of a
class can be walls, and they are the only flips tried.  So a vector is
fixed by its slab index: the count r_k of + signs in each class, which
one memo keys by the int sum of r_k * stride_k, where stride_k is the
product of (size + 1) over the classes before k.  Flipping the last +
of class k subtracts stride_k and flipping its first - adds it; for a
central arrangement, one hyperplane per class, the key sets bit h for
sign +1.  A chamber's vector maps to its id, an empty one to None, and
a mirror waiting to be reached (below) to its result.  Each chamber
keeps its own key.  Each flip looks its key up first, and builds its
sign tuple only to solve it or to make it a chamber.  Each hyperplane's
row is built once per enumeration, on both sides, for the open chamber
and for each closed window face ``x_i = +-p/q`` (for radius p/q), where
the weak row is substituted and scaled by q so the rows stay integral; a
solve only picks rows from that table.

Antipodal memo: when the levels of every class read the same negated
back to front, as in every arrangement built from Dynkin data, x -> -x
maps the arrangement and the symmetric window box onto themselves, and
each class onto itself with r_k sent to size_k - r_k.  The mirror m of
a sign vector v, with key ``top - key`` where top = prod(size_k + 1) - 1,
then cuts out exactly the negated region.  So one solve of v also
settles m: m is empty when v is, m's witness is exactly -(v's witness),
because the kernel's witness depends only on the feasible set and its
interval rule is odd under negation, and m's boundary flag equals v's.
Unless m is in the memo already, its result waits there until the
search reaches m.  The seed's witness comes from the probe and not from
the kernel, so nothing is mirrored onto it.  An arrangement with an
unbalanced class (possible for ``--in`` input) is searched with one
solve per vector.

Ids are assigned in discovery order, with each chamber expanding its
hyperplanes in increasing index.  For each adjacent pair both directed
edges appear, labeled by the separating hyperplane.  A witness with a
number too long for ``str`` to write raises Overflow as it is found, so
a report streamed from the graph cannot fail after its first byte.
Before any solve, enumeration raises Overflow when Buck's bound on the
chamber count times the H signs of each chamber exceeds ``MAX_SIGNS``,
which bounds the memory the sign vectors can take, not only their count.

``region_count_zaslavsky`` counts the chambers of the full space (the
window plays no role) through the Moebius function of the intersection
poset, which is an independent check on the search for central
arrangements.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, isqrt

from .arrangement import Arrangement, check_printable
from .errors import Overflow, UnknownChamber
from .linear import ONE, box_constraints, dot, feasible_point, rref

_PROBE_LIMIT = 10000
# Buck's bound on the chambers of H hyperplanes in R^dim is the sum of
# C(H, i) for i <= dim, each chamber holding H signs; enumeration refuses
# an arrangement whose bound times H is above this (E6:J={}: 86,093,856)
MAX_SIGNS = 10**8
_UNSOLVED = object()


class Chamber(namedtuple("Chamber", "id signs witness boundary")):
    """A chamber: its id, sign vector, an interior witness point, and
    whether its closure meets the window boundary."""

    __slots__ = ()


class Edge(namedtuple("Edge", "id source target hyperplane")):
    """A directed wall crossing from ``source`` to ``target`` across ``hyperplane``."""

    __slots__ = ()


class ChamberGraph:
    """Chambers plus directed wall-crossing edges of one arrangement.

    Each chamber keeps one list of its out-edges; ``edge_across`` scans
    that list, which holds one edge per wall of the chamber.  The graph
    keeps no index by sign vector: ``id_of_signs`` scans the chambers.
    """

    def __init__(self, arrangement: Arrangement, chambers, edges):
        self.arrangement = arrangement
        self.chambers = tuple(chambers)
        self.edges = tuple(edges)
        self._out = [[] for _ in self.chambers]
        for e in self.edges:
            self._out[e.source].append(e)

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
        return next((e for e in self.out_edges(cid) if e.hyperplane == hyperplane), None)

    def id_of_signs(self, signs) -> int | None:
        signs = tuple(signs)
        return next((c.id for c in self.chambers if c.signs == signs), None)


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

    planes = arr.hyperplanes
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
    check_printable(witness, "a chamber witness")
    return witness, _touches_boundary(table, signs)


def _probes(arr):
    """Probe values t: 1/N over the primes N below 10000, then a fallback.

    The primes keep today's seeds.  Trial division finds each one only
    once the probe before it has missed, from the least N with 1/N below
    min(radius, 1).  Each hyperplane meets the curve
    (t, t^2, ..., t^dim) in at most dim values of t, because its normal
    is nonzero, so H * dim + 1 distinct values in (0, min(radius, 1))
    always include one off every hyperplane.
    """
    top = ONE if arr.radius is None else min(ONE, arr.radius)  # a Fraction even for an int radius of 1
    for n in range(top.denominator // top.numerator + 1, _PROBE_LIMIT):
        if all(n % d for d in range(2, isqrt(n) + 1)):
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
            check_printable(point, "the seed chamber's witness")
            return Chamber(0, signs, point, _touches_boundary(_row_table(arr), signs))
    raise AssertionError("more than dim roots of a nonzero polynomial of degree dim")


def enumerate_chambers(arr: Arrangement) -> ChamberGraph:
    """Breadth-first enumeration of all chambers with exact certificates."""
    planes = arr.hyperplanes
    bound = sum(comb(len(planes), i) for i in range(arr.dim + 1))
    if bound * len(planes) > MAX_SIGNS:
        raise Overflow(
            f"up to {bound} chambers by Buck's bound, of {len(planes)} signs each: more than {MAX_SIGNS} signs in all"
        )
    table = _row_table(arr)
    # each parallel class [lo, hi) with its stride in the slab key
    starts = [h for h in range(len(planes)) if h == 0 or planes[h].normal != planes[h - 1].normal]
    classes, stride = [], 1
    for lo, hi in zip(starts, starts[1:] + [len(planes)]):
        classes.append((lo, hi, stride))
        stride *= hi - lo + 1
    top = stride - 1  # the key of the all-+ vector
    # does x -> -x map each class onto itself?
    mirrored = all(planes[lo + i].level == -planes[hi - 1 - i].level for lo, hi, _ in classes for i in range(hi - lo))
    seed = seed_chamber(arr)
    chambers = [seed]
    # keys[cid] is chamber cid's memo key
    keys = [sum(seed.signs[lo:hi].count(1) * stride for lo, hi, stride in classes)]
    # the memo, keyed by the slab key of each sign vector met so far: a
    # chamber's id, None for an empty vector, or the (witness, boundary
    # flag) of a mirror the search has not reached yet
    memo = {keys[0]: 0}
    edges = []
    for current in chambers:
        signs = current.signs
        here = keys[current.id]
        for lo, hi, stride in classes:
            # The other signs and the open window cut out a convex open
            # region; it meets h exactly when both sides of h are
            # nonempty, so h is a wall exactly when the flip is a chamber.
            # The class reads + before index cut and - from it on.
            cut = lo + signs[lo:hi].count(1)
            for h in range(max(lo, cut - 1), min(hi, cut + 1)):
                key = here - signs[h] * stride
                found = memo.get(key, _UNSOLVED)
                if found is None:
                    continue
                if type(found) is int:
                    cid = found
                else:
                    flipped = signs[:h] + (-signs[h],) + signs[h + 1 :]
                    if found is _UNSOLVED:
                        found = _solve(table, flipped)
                        if mirrored:
                            # the seed is in the memo, so nothing lands on it
                            memo.setdefault(top - key, None if found is None else (tuple(-v for v in found[0]), found[1]))
                    if found is None:
                        memo[key] = None
                        continue
                    cid = memo[key] = len(chambers)
                    chambers.append(Chamber(cid, flipped, *found))
                    keys.append(key)
                edges.append(Edge(len(edges), current.id, cid, h))
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


def chamber_to_json(c: Chamber) -> dict:
    return {"id": c.id, "signs": list(c.signs), "witness": [str(v) for v in c.witness], "boundary": c.boundary}


def edge_to_json(e: Edge) -> dict:
    return {"from": e.source, "to": e.target, "hyperplane": e.hyperplane}


def graph_to_json(graph: ChamberGraph) -> dict:
    return {
        "chambers": [chamber_to_json(c) for c in graph.chambers],
        "edges": [edge_to_json(e) for e in graph.edges],
    }
