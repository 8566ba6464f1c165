import warnings
from fractions import Fraction

import pytest

from floparr import (
    BoundaryContactWarning,
    MutationLabel,
    NonComposable,
    Overflow,
    PositivePath,
    Unreachable,
    atoms,
    compose,
    crossings,
    enumerate_chambers,
    initial_label,
    is_reduced,
    mutate_symbol,
    mutation_walk,
    path_from_json,
    path_target,
    path_to_json,
    path_touches_boundary,
    product_arrangement,
    separating_set,
)
from floparr.chambers import ChamberGraph

from helpers import (
    affine_graph,
    central,
    central_graph,
    chamber_sequence,
    nx_shortest_chamber_sequences,
)


def _antipode(g, cid):
    signs = tuple(-s for s in g.chamber(cid).signs)
    other = g.id_of_signs(signs)
    assert other is not None
    return other


def test_path_target_and_compose():
    g = central_graph("A2:J={}")
    first = g.out_edges(0)[0]
    second = g.out_edges(first.target)[0]
    p = PositivePath(0, (first.id,))
    q = PositivePath(first.target, (second.id,))
    pq = compose(g, p, q)
    assert path_target(g, pq) == second.target
    assert len(pq) == 2


def test_compose_rejects_mismatch():
    g = central_graph("A2:J={}")
    p = PositivePath(0, (g.out_edges(0)[0].id,))
    with pytest.raises(NonComposable):
        compose(g, p, PositivePath(0, ()))


def test_path_target_rejects_broken_chain():
    g = central_graph("A2:J={}")
    eid = g.out_edges(1)[0].id
    with pytest.raises(NonComposable):
        path_target(g, PositivePath(0, (eid,)))


def test_same_chamber_single_empty_atom():
    g = central_graph("A2:J={}")
    got = atoms(g, 3, 3)
    assert got == [PositivePath(3, ())]
    assert is_reduced(g, got[0])


def test_a2_antipodal_atoms():
    g = central_graph("A2:J={}")
    far = _antipode(g, 0)
    got = atoms(g, 0, far)
    assert len(got) == 2
    assert {crossings(g, p) for p in got} == {(0, 2, 1), (1, 2, 0)}
    for p in got:
        assert len(p) == 3
        assert is_reduced(g, p)
        assert set(crossings(g, p)) == separating_set(g, 0, far)


def test_atoms_lex_order():
    g = central_graph("A2:J={}")
    got = atoms(g, 0, _antipode(g, 0))
    assert [p.edges for p in got] == sorted(p.edges for p in got)


def test_atom_law_against_networkx():
    # atom count and chamber sequences must match an independent
    # shortest-path enumeration
    cases = [
        central_graph("A2:J={}"),
        central_graph("A3:J={}"),
        affine_graph("A1:J={}", Fraction(5, 2)),
        affine_graph("A2:J={}", Fraction(3, 2)),
        affine_graph("D4:J={0,2}", 1),
        enumerate_chambers(product_arrangement(central("A2:J={}"), central("A1:J={}"))),
    ]
    assert [len(g.chambers) for g in cases[-2:]] == [16, 12]
    for g in cases:
        ids = [c.id for c in g.chambers]
        for s in ids:
            for t in ids:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    got = atoms(g, s, t)
                expect = nx_shortest_chamber_sequences(g, s, t)
                assert sorted(chamber_sequence(g, p) for p in got) == sorted(expect)
                assert [p.edges for p in got] == sorted(p.edges for p in got)
                sep = separating_set(g, s, t)
                for p in got:
                    order = crossings(g, p)
                    assert len(order) == len(sep)
                    assert set(order) == sep
                    assert is_reduced(g, p)


def test_unreachable():
    g = central_graph("A1:J={}")
    lonely = ChamberGraph(g.arrangement, g.chambers, ())
    with pytest.raises(Unreachable):
        atoms(lonely, 0, 1)


def test_overflow_cap():
    g = central_graph("A2:J={}")
    with pytest.raises(Overflow):
        atoms(g, 0, _antipode(g, 0), cap=1)


def test_boundary_contact_warning():
    g = affine_graph("A1:J={}", Fraction(5, 2))
    ids = [c.id for c in g.chambers]
    edge_ids = sorted(ids, key=lambda c: g.chamber(c).witness[0])
    left, right = edge_ids[0], edge_ids[-1]
    assert g.chamber(left).boundary and g.chamber(right).boundary
    with pytest.warns(BoundaryContactWarning):
        got = atoms(g, left, right)
    assert len(got) == 1
    assert len(got[0]) == 5
    assert path_touches_boundary(g, got[0])


def test_interior_atoms_do_not_warn():
    g = affine_graph("A2:J={}", Fraction(3, 2))
    interior = [c.id for c in g.chambers if not c.boundary]
    src = interior[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", BoundaryContactWarning)
        got = atoms(g, src, src)
    assert got == [PositivePath(src, ())]


def test_nonreduced_path_detected():
    g = central_graph("A1:J={}")
    out = g.out_edges(0)[0]
    back = g.edge_across(out.target, out.hyperplane)
    p = PositivePath(0, (out.id, back.id))
    assert not is_reduced(g, p)
    assert path_target(g, p) == 0


def test_mutate_symbol_involution():
    s = "M0"
    assert mutate_symbol(3, mutate_symbol(3, s)) == s
    assert mutate_symbol(3, s) == ("nu", 3, s)
    assert mutate_symbol(2, mutate_symbol(3, s)) == ("nu", 2, ("nu", 3, s))


def test_initial_label_matches_walls():
    g = central_graph("A2:J={}")
    label = initial_label(g, 0)
    assert label == MutationLabel(("M0", "M1"))


def test_mutation_walk_single_replacement_per_step():
    g = affine_graph("A1:J={}", Fraction(5, 2))
    interior = sorted(c.id for c in g.chambers if not c.boundary)
    src = interior[0]
    path = next(
        p
        for t in interior
        for p in atoms(g, src, t)
        if len(p) == 2 and not path_touches_boundary(g, p)
    )
    labels = mutation_walk(g, initial_label(g, src), path)
    assert len(labels) == 3
    # one summand swaps out per crossing; the rest carry over unchanged
    from collections import Counter

    for before, after in zip(labels, labels[1:]):
        kept = Counter(before.symbols) & Counter(after.symbols)
        assert sum(kept.values()) == len(before.symbols) - 1


def test_mutation_walk_there_and_back_restores():
    g = central_graph("A2:J={}")
    out = g.out_edges(0)[0]
    back = g.edge_across(out.target, out.hyperplane)
    start = initial_label(g, 0)
    labels = mutation_walk(g, start, PositivePath(0, (out.id, back.id)))
    assert labels[0] == labels[2] == start
    assert labels[1] != start


def test_mutation_walk_rejects_wrong_arity():
    g = central_graph("A2:J={}")
    with pytest.raises(ValueError):
        mutation_walk(g, MutationLabel(("M0",)), PositivePath(0, ()))


def test_mutation_walk_rejects_broken_chain():
    g = central_graph("A2:J={}")
    eid = g.out_edges(1)[0].id
    with pytest.raises(NonComposable):
        mutation_walk(g, initial_label(g, 0), PositivePath(0, (eid,)))


@pytest.mark.parametrize("edges", [(-1,), (3,), (99,)], ids=["edge -1", "broken chain", "edge 99"])
def test_bad_path_rejected(edges):
    # A1 in a 5/2 window: edge 3 runs 1 -> 0.  path_touches_boundary read
    # False for edge -1 (an index from the end) and for the broken chain,
    # and both functions raised IndexError for edge 99
    g = affine_graph("A1:J={}", Fraction(5, 2))
    path = PositivePath(0, edges)
    with pytest.raises(NonComposable):
        path_touches_boundary(g, path)
    with pytest.raises(NonComposable):
        mutation_walk(g, initial_label(g, 0), path)


def test_path_json_round_trip():
    g = central_graph("A2:J={}")
    p = atoms(g, 0, _antipode(g, 0))[0]
    assert path_from_json(path_to_json(p)) == p
