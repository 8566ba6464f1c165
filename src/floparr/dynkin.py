"""Simply laced Dynkin diagrams, their positive roots, and contractions.

Node numbering convention used everywhere in this package:

* ``A_n``: a path ``0 - 1 - ... - (n-1)``.
* ``D_n``: node ``1`` is the branch node, with leaves ``0`` and ``2``
  attached to it and the tail ``3 - 4 - ... - (n-1)`` continuing from it.
* ``E_n`` (n = 6, 7, 8): a path ``0 - 2 - 3 - ... - (n-1)`` with node
  ``1`` attached to node ``3``.

Roots are plain integer tuples: the coefficient vector over the simple
roots, indexed by node id.  Positive roots have all coordinates >= 0.

A :class:`DynkinData` is a diagram together with a set ``J`` of
contracted nodes; the surviving nodes ``J^c`` index the coordinates of
the arrangements built downstream.  Its textual form is
``"<family><rank>:J={i,j,...}"``, e.g. ``"D4:J={0,2}"``, and round-trips
exactly.
"""

from __future__ import annotations

import functools
import re
from collections import namedtuple

from .errors import EmptySurvivingSet, InvalidType, Overflow

FAMILIES = ("A", "D", "E")

# Largest rank, and largest arrangement dimension, accepted anywhere: the
# root closure costs about rank**4 and a witness about dim**2 digits.
MAX_RANK = 64

_RANK_MIN = {"A": 1, "D": 4, "E": 6}
_RANK_MAX = {"A": None, "D": None, "E": 8}

_DATA_RE = re.compile(r"([A-Z])([0-9]+):J=\{([0-9]+(?:,[0-9]+)*)?\}")  # matched whole, ASCII digits only


class DynkinType(namedtuple("DynkinType", "family rank")):
    """A simply laced type such as A4, D5 or E7."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, family: str, rank: int):
        if family not in FAMILIES:
            raise InvalidType(f"unknown family {family!r}")
        lo = _RANK_MIN[family]
        hi = _RANK_MAX[family]
        if rank < lo or (hi is not None and rank > hi):
            raise InvalidType(f"{family}{rank} is not a valid type")
        if rank > MAX_RANK:
            raise Overflow(f"rank {rank} of {family}{rank} is above the cap {MAX_RANK}")
        return super().__new__(cls, family, rank)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def diagram_edges(delta: DynkinType) -> list[tuple[int, int]]:
    """Edges of the diagram under the numbering documented above."""
    n = delta.rank
    if delta.family == "A":
        return [(i, i + 1) for i in range(n - 1)]
    if delta.family == "D":
        return [(0, 1), (1, 2), (1, 3)] + [(i, i + 1) for i in range(3, n - 1)]
    return [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]


def cartan_matrix(delta: DynkinType) -> tuple[tuple[int, ...], ...]:
    """Symmetric Cartan matrix: 2 on the diagonal, -1 on diagram edges."""
    n = delta.rank
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2
    for i, j in diagram_edges(delta):
        m[i][j] = -1
        m[j][i] = -1
    return tuple(tuple(row) for row in m)


@functools.cache
def positive_roots(delta: DynkinType) -> tuple[tuple[int, ...], ...]:
    """All positive roots, lexicographically sorted coefficient vectors.

    Computed as the closure of the simple roots under the simple
    reflections s_i(b) = b - <b, a_i> a_i, keeping only vectors with
    nonnegative coordinates.  Every positive root arises this way:
    any positive root of height >= 2 admits some s_i that lowers its
    height without leaving the positive cone.  Cached per type: the
    result is an immutable tuple and ``DynkinType`` is frozen.
    """
    n = delta.rank
    cartan = cartan_matrix(delta)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        beta = frontier.pop()
        for i in range(n):
            pairing = sum(cartan[i][j] * beta[j] for j in range(n))
            image = list(beta)
            image[i] -= pairing
            image = tuple(image)
            if min(image) >= 0 and image not in roots:
                roots.add(image)
                frontier.append(image)
    return tuple(sorted(roots))


class DynkinData(namedtuple("DynkinData", "delta contracted")):
    """A diagram with a set of contracted nodes J.

    The surviving nodes J^c must be nonempty; they are kept sorted and
    index the coordinates of every arrangement built from this data.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, delta: DynkinType, contracted: frozenset[int]):
        nodes = range(delta.rank)
        bad = [i for i in contracted if i not in nodes]
        if bad:
            raise InvalidType(f"contracted nodes {sorted(bad)} outside {delta}")
        contracted = frozenset(contracted)
        if len(contracted) == delta.rank:
            raise EmptySurvivingSet(f"every node of {delta} is contracted")
        return super().__new__(cls, delta, contracted)

    @property
    def surviving(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.delta.rank) if i not in self.contracted)

    def __str__(self) -> str:
        inner = ",".join(str(i) for i in sorted(self.contracted))
        return f"{self.delta}:J={{{inner}}}"


def parse_data(text: str) -> DynkinData:
    """Parse the textual form, e.g. ``"A3:J={1}"`` or ``"E6:J={}"``.

    The output of ``str(data)`` parses back to an equal object, and
    parsing a canonical string then formatting reproduces it byte for
    byte.
    """
    m = _DATA_RE.fullmatch(text)
    if m is None:
        raise InvalidType(f"cannot parse Dynkin data from {text!r}")
    family, inner = m.group(1), m.group(3)
    try:
        rank = int(m.group(2))
        contracted = frozenset(int(p) for p in inner.split(",")) if inner else frozenset()
    except ValueError:  # int() refuses strings of more than 4300 digits
        raise InvalidType(f"a number in {text[:40]!r}... has too many digits") from None
    return DynkinData(DynkinType(family, rank), contracted)
