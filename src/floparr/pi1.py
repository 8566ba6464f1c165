"""Loops around hyperplanes, their relations, and bounded word problems.

The fundamental group of the complexified complement is generated by
loops of the shape ``word(atom) e_i f_i word(atom)^{-1}``: travel a
minimal gallery from the base chamber to some chamber D, cross wall i
of D there and back, and return.  Pairs of atoms with common endpoints
give the defining relations at this combinatorial level.

Words are sequences of signed directed edges.  The crossing
homomorphism counts signed crossings per hyperplane; it kills every
relation, so it separates words with distinct images.  A small
rewriting search (free cancellation plus atom swaps) proves word
equalities up to a depth bound; it never claims a false equality.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from collections.abc import Iterator
from enum import Enum
from itertools import chain, combinations
from math import comb

from .chambers import ChamberGraph, walls
from .errors import BaseMismatch, MissingEdgeAssignment, NonComposable, Overflow, Unreachable
from .galleries import (
    DEFAULT_ATOM_CAP,
    BoundaryContactWarning,
    PositivePath,
    _visits,
    atom_counts,
    atoms_from,
    path_target,
    path_touches_boundary,
)

# far above every listing the tests, demos and benchmark make (131,268
# relations for E6:J={0,1,2}); A4:J={} would list 47,854,200
MAX_RELATIONS = 10**7


class GroupoidWord(namedtuple("GroupoidWord", "base letters")):
    """A base chamber plus signed edge letters (edge id, +1 or -1)."""

    __slots__ = ()


class Pi1Generator(namedtuple("Pi1Generator", "atom wall loop")):
    """The loop ``word(atom) e_i f_i word(atom)^{-1}`` around ``wall``."""

    __slots__ = ()


class GroupoidEquality(Enum):
    PROVEN_EQUAL = "proven-equal"
    UNKNOWN = "unknown"


def word_of_path(path: PositivePath) -> GroupoidWord:
    return GroupoidWord(path.source, tuple((eid, 1) for eid in path.edges))


def word_inverse(graph: ChamberGraph, word: GroupoidWord) -> GroupoidWord:
    end = word_end(graph, word)
    return GroupoidWord(end, tuple((eid, -s) for eid, s in reversed(word.letters)))


def word_concat(graph: ChamberGraph, first: GroupoidWord, second: GroupoidWord) -> GroupoidWord:
    if word_end(graph, first) != second.base:
        raise NonComposable("word endpoints do not meet")
    word_end(graph, second)
    return GroupoidWord(first.base, first.letters + second.letters)


def word_end(graph: ChamberGraph, word: GroupoidWord) -> int:
    """Endpoint of the word; raises NonComposable on a broken chain."""
    return _visits(graph, word.base, word.letters)[-1]


def base_chamber(graph: ChamberGraph) -> int:
    """The seed chamber; for central arrangements of positive roots it is
    the all-positive chamber."""
    return graph.chamber(0).id


def loop_word(graph: ChamberGraph, atom: PositivePath, wall: int) -> GroupoidWord:
    """word(atom) e_i f_i word(atom)^{-1} around the given wall."""
    end = path_target(graph, atom)
    out = graph.edge_across(end, wall)
    if out is None:
        raise NonComposable(f"hyperplane {wall} is not a wall of chamber {end}")
    back = graph.edge_across(out.target, wall)
    letters = tuple((eid, 1) for eid in atom.edges)
    letters += ((out.id, 1), (back.id, 1))
    letters += tuple((eid, -1) for eid in reversed(atom.edges))
    return GroupoidWord(atom.source, letters)


def generators(graph: ChamberGraph, max_atoms_per_chamber: int = DEFAULT_ATOM_CAP) -> list[Pi1Generator]:
    """One loop per (atom from the base, wall of its endpoint), in order.

    Atoms come from one ``atoms_from`` walk at the base, chambers by id,
    atoms lexicographically, walls in increasing hyperplane index.  A
    chamber the base cannot reach raises Unreachable.  In windowed graphs
    atoms touching a boundary chamber are skipped with a warning.
    Duplicate group elements are not detected or removed.
    """
    base = base_chamber(graph)
    walk = atoms_from(graph, base, cap=max_atoms_per_chamber)
    out = []
    skipped = 0
    for chamber in graph.chambers:
        if chamber.id not in walk:
            raise Unreachable(f"no positive path from {base} to {chamber.id}")
        for atom in walk[chamber.id]:
            if path_touches_boundary(graph, atom):
                skipped += 1
                continue
            for wall in walls(graph, chamber.id):
                out.append(Pi1Generator(atom, wall, loop_word(graph, atom, wall)))
    if skipped:
        message = f"skipped {skipped} atoms touching the window boundary"
        warnings.warn(message, BoundaryContactWarning, stacklevel=2)
    return out


def atom_groups(graph: ChamberGraph, length_cap: int | None = None) -> Iterator[list[PositivePath]]:
    """The atoms of each ordered chamber pair that has at least two.

    One ``atoms_from`` walk per source, in chamber id order, cut at
    ``length_cap``; its lists of two or more atoms come in target id
    order, each lexicographic by edge ids.  Each unordered pair appears
    in both orientations; an unreachable pair is skipped.  The relations
    are the pairs ``combinations(group, 2)``, group by group, numbered
    from 0 in that order; a caller can render or fold each atom once.
    """
    for source in graph.chambers:
        walk = atoms_from(graph, source.id, length_cap)
        yield from (walk[target] for target in sorted(walk) if len(walk[target]) >= 2)


def relation_count(graph: ChamberGraph, length_cap: int | None = None) -> int:
    """How many relations ``atom_groups`` lists, counted without listing them.

    The sum of C(N, 2) over ordered chamber pairs, with N from
    ``atom_counts``, one source at a time.  Raises Overflow once the sum
    passes ``MAX_RELATIONS``, or when more than ``DEFAULT_ATOM_CAP`` atoms
    join two chambers; once it returns, walking ``atom_groups`` cannot raise.
    """
    total = 0
    for source in graph.chambers:
        for target, n in atom_counts(graph, source.id, length_cap).items():
            if n > DEFAULT_ATOM_CAP:
                raise Overflow(f"more than {DEFAULT_ATOM_CAP} atoms from {source.id} to {target}")
            total += comb(n, 2)
        if total > MAX_RELATIONS:
            raise Overflow(f"more than {MAX_RELATIONS} relations between atoms")
    return total


def crossing_homomorphism(graph: ChamberGraph, word: GroupoidWord) -> tuple[int, ...]:
    """Signed crossing count per hyperplane; kills all relations."""
    word_end(graph, word)
    counts = [0] * len(graph.arrangement.hyperplanes)
    for eid, sign in word.letters:
        counts[graph.edges[eid].hyperplane] += sign
    return tuple(counts)


class CheckReport(namedtuple("CheckReport", "checked failures")):
    """How many relations were evaluated, and the indices of those that failed."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def check_representation(graph: ChamberGraph, assignment, groups) -> CheckReport:
    """Evaluate the relations of ``atom_groups`` in a finite group.

    ``groups`` is read once, and its pairs ``combinations(group, 2)``
    are the relations, in order.  ``assignment`` maps every directed
    edge id, and no other key, to a group element (for example a Perm);
    a missing or extra id raises MissingEdgeAssignment.  Elements need only
    ``*`` and ``!=``, not hashing.  An atom ``e_1 ... e_k`` folds to
    ``a[e_k] * fold(e_1 ... e_{k-1})``, later edges acting last.  Every
    prefix of an atom is an atom, so with folds memoised by edge tuple
    each distinct atom costs one product.  An atom's first edge leaves
    its source, so the memo is cleared when the source changes.
    Returns the indices of the relations whose two sides disagree.
    """
    ids = range(len(graph.edges))
    for eid in ids:
        if eid not in assignment:
            raise MissingEdgeAssignment(f"edge {eid} has no assigned element")
    for eid in assignment:
        if eid not in ids:
            raise MissingEdgeAssignment(f"no edge {eid!r} in this graph")
    folded = {}

    def fold(edges):
        if edges not in folded:
            last = assignment[edges[-1]]
            folded[edges] = last * fold(edges[:-1]) if len(edges) > 1 else last
        return folded[edges]

    checked, failures, source = 0, [], None
    for group in groups:
        if group[0].source != source:
            source = group[0].source
            folded.clear()
        for p, q in combinations([fold(path.edges) for path in group], 2):
            if p != q:
                failures.append(checked)
            checked += 1
    return CheckReport(checked, tuple(failures))


def _cancellations(letters):
    for i in range(len(letters) - 1):
        (e1, s1), (e2, s2) = letters[i], letters[i + 1]
        if e1 == e2 and s1 == -s2:
            yield letters[:i] + letters[i + 2 :]


def _swaps(letters, rules):
    """Each one-rule rewrite, by position, then by rule, then by replacement."""
    for i, letter in enumerate(letters):
        for old, side in rules.get(letter, ()):
            if letters[i : i + len(old)] == old:
                yield from (letters[:i] + new + letters[i + len(old) :] for new in side if new != old)


def rewrite_rules(groups) -> dict:
    """The prover's rewrite patterns: the relations ``combinations(group,
    2)`` of ``atom_groups``, each in both directions, and both inverted.
    Build them once and pass them to every ``equal_in_groupoid`` call.

    Each atom and each inverse is stored once under its first letter, as
    ``letter -> [(old, side), ...]`` with ``side`` the words of old's
    group, inverted with it; ``_swaps`` puts each other one in its place.
    """
    rules = {}
    for group in groups:
        words = [tuple((eid, 1) for eid in path.edges) for path in group]
        inverses = [tuple((eid, -1) for eid in reversed(path.edges)) for path in group]
        for side in (words, inverses):
            for old in side:
                rules.setdefault(old[0], []).append((old, side))
    return rules


def equal_in_groupoid(
    graph: ChamberGraph,
    rules,
    first: GroupoidWord,
    second: GroupoidWord,
    depth: int,
) -> GroupoidEquality:
    """Bounded two-sided rewriting search; never a false PROVEN_EQUAL.

    Rewrites are free cancellation of adjacent inverse letters and
    replacement of one relation side by the other (either orientation,
    or both inverted), with ``rules`` from ``rewrite_rules``; empty
    ``rules`` (``{}`` or ``[]``) leave free cancellation only.  Each side
    is expanded up to ``depth`` rewrites.  The order of the rules cannot
    change the verdict: while one side expands, the other side's seen
    set is fixed, so whether some rewrite hits it, and the sets each
    level adds, do not depend on the order rewrites are tried in.
    """
    rules = rules or {}
    if first.base != second.base:
        raise BaseMismatch(f"bases {first.base} and {second.base} differ")
    if word_end(graph, first) != word_end(graph, second):
        raise BaseMismatch("word endpoints differ")
    seen = ({first.letters}, {second.letters})
    frontier = ([first.letters], [second.letters])
    if first.letters in seen[1]:
        return GroupoidEquality.PROVEN_EQUAL
    for _ in range(depth):
        progressed = False
        for side in (0, 1):
            fresh = []
            for letters in frontier[side]:
                for rewritten in chain(_cancellations(letters), _swaps(letters, rules)):
                    if rewritten in seen[1 - side]:
                        return GroupoidEquality.PROVEN_EQUAL
                    if rewritten not in seen[side]:
                        seen[side].add(rewritten)
                        fresh.append(rewritten)
            frontier = (fresh, frontier[1]) if side == 0 else (frontier[0], fresh)
            progressed = progressed or bool(fresh)
        if not progressed:
            break
    return GroupoidEquality.UNKNOWN


def word_to_json(word: GroupoidWord) -> dict:
    return {"base": word.base, "letters": [[eid, sign] for eid, sign in word.letters]}


def word_from_json(obj: dict) -> GroupoidWord:
    return GroupoidWord(obj["base"], tuple((eid, sign) for eid, sign in obj["letters"]))
