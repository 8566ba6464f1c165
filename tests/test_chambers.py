import hashlib
from fractions import Fraction

import pytest

import floparr.chambers
from floparr import (
    UnknownChamber,
    arrangement_from_json,
    build_affine,
    enumerate_chambers,
    graph_to_json,
    intersection_poset,
    parse_data,
    product_arrangement,
    region_count_zaslavsky,
    seed_chamber,
    walls,
)
from floparr.arrangement import dumps
from floparr.linear import box_constraints, dot, feasible_point

from helpers import (
    a5_height_two,
    affine,
    affine_graph,
    central,
    central_graph,
    check_graph_invariants,
    integral,
    parallel_line,
    sector_count,
)


def test_single_line_two_chambers():
    g = central_graph("A1:J={}")
    assert len(g.chambers) == 2
    assert len(g.edges) == 2
    assert g.chambers[0].signs == (1,)
    assert g.chambers[1].signs == (-1,)
    check_graph_invariants(g)


def test_a2_golden_order():
    # breadth-first discovery from the all-positive seed, walls ascending
    g = central_graph("A2:J={}")
    assert [c.signs for c in g.chambers] == [
        (1, 1, 1),
        (-1, 1, 1),
        (1, -1, 1),
        (-1, 1, -1),
        (1, -1, -1),
        (-1, -1, -1),
    ]
    for c in g.chambers:
        assert g.id_of_signs(c.signs) == g.id_of_signs(list(c.signs)) == c.id
    # too short, on a hyperplane, and the empty flip x > 0, y > 0, x + y < 0
    assert g.id_of_signs((1, 1)) is g.id_of_signs((1, 0, 1)) is g.id_of_signs((1, 1, -1)) is None
    assert len(g.edges) == 12
    check_graph_invariants(g)


def test_a2_edges_paired():
    g = central_graph("A2:J={}")
    for e in g.edges:
        back = g.edge_across(e.target, e.hyperplane)
        assert back is not None and back.target == e.source


def test_walls_of_a2_chambers():
    # every sector of three concurrent lines is bounded by exactly two of them
    g = central_graph("A2:J={}")
    seen = set()
    for c in g.chambers:
        w = walls(g, c.id)
        assert len(w) == 2
        seen.update(w)
    assert seen == {0, 1, 2}


def test_seed_chamber_all_positive():
    arr = central("A2:J={}")
    seed = seed_chamber(arr)
    assert seed.signs == (1, 1, 1)
    assert all(dot(h.normal, seed.witness) > 0 for h in arr.hyperplanes)


def test_affine_line_structure():
    # five parallel walls cut the window into six cells on a path
    g = affine_graph("A1:J={}", Fraction(5, 2))
    assert len(g.chambers) == 6
    assert len(g.edges) == 10
    degrees = sorted(len(g.out_edges(c.id)) for c in g.chambers)
    assert degrees == [1, 1, 2, 2, 2, 2]
    boundary = [c.id for c in g.chambers if c.boundary]
    assert len(boundary) == 2
    assert sorted(len(walls(g, b)) for b in boundary) == [1, 1]
    check_graph_invariants(g)


def test_affine_a2_interior_alcoves_are_triangles():
    g = affine_graph("A2:J={}", Fraction(3, 2))
    interior = [c for c in g.chambers if not c.boundary]
    assert interior
    for c in interior:
        assert len(walls(g, c.id)) == 3
    check_graph_invariants(g)


def test_central_chambers_have_no_boundary_flag():
    for text in ("A2:J={}", "A3:J={}"):
        g = central_graph(text)
        assert not any(c.boundary for c in g.chambers)


def test_unknown_chamber():
    g = central_graph("A1:J={}")
    with pytest.raises(UnknownChamber):
        g.chamber(99)


def test_seed_inside_tiny_window():
    # below 1/9973 no prime probe fits; the fallback probes still find a seed
    for radius in (Fraction(1, 20000), Fraction(1, 10**30)):
        for text in ("A1:J={}", "A3:J={}"):
            arr = build_affine(parse_data(text), radius)
            seed = seed_chamber(arr)
            assert all(-radius < v < radius for v in seed.witness), (text, radius)
            for plane, s in zip(arr.hyperplanes, seed.signs):
                assert s * (dot(plane.normal, seed.witness) - plane.level) > 0, (text, radius)


def test_probes_are_fractions_for_an_int_radius():
    # min(radius, ONE) was the int 1 here, so the fallback probes top / (k + 2) were floats
    arr = build_affine(parse_data("A2:J={}"), 1)
    assert all(type(t) is Fraction for t in floparr.chambers._probes(arr))


def test_zaslavsky_boolean():
    assert region_count_zaslavsky(central("A1:J={}")) == 2
    two = product_arrangement(central("A1:J={}"), central("A1:J={}"))
    assert region_count_zaslavsky(two) == 4


def test_zaslavsky_weyl():
    assert region_count_zaslavsky(central("A2:J={}")) == 6
    assert region_count_zaslavsky(central("A3:J={}")) == 24


def test_poset_a2_shape():
    poset = intersection_poset(central("A2:J={}"))
    dims = sorted(f.dim for f in poset.flats)
    assert dims == [0, 1, 1, 1, 2]
    assert poset.region_count() == 6


def test_enumeration_matches_zaslavsky():
    texts = ["A1:J={}", "A2:J={}", "A3:J={}", "A3:J={1}", "A4:J={1,2}", "A4:J={0,3}"]
    for text in texts:
        arr = central(text)
        g = enumerate_chambers(arr)
        assert len(g.chambers) == region_count_zaslavsky(arr), text
        check_graph_invariants(g)


def test_enumeration_matches_sector_formula():
    # central rank-two arrangements: m lines give 2m sectors
    for text in ("A2:J={}", "A3:J={1}", "A4:J={0,3}"):
        arr = central(text)
        assert len(enumerate_chambers(arr).chambers) == sector_count(arr)


def test_product_chamber_count():
    prod = product_arrangement(central("A2:J={}"), central("A1:J={}"))
    g = enumerate_chambers(prod)
    assert len(g.chambers) == 12
    assert region_count_zaslavsky(prod) == 12
    check_graph_invariants(g)


def test_triple_product():
    one = central("A1:J={}")
    arr = product_arrangement(product_arrangement(one, one), one)
    assert len(enumerate_chambers(arr).chambers) == 8


def test_enumeration_deterministic():
    a = graph_to_json(central_graph("A2:J={}"))
    b = graph_to_json(central_graph("A2:J={}"))
    assert a == b


def test_graph_json_shape():
    doc = graph_to_json(affine_graph("A1:J={}", Fraction(5, 2)))
    assert len(doc["chambers"]) == 6
    assert len(doc["edges"]) == 10
    first = doc["chambers"][0]
    assert set(first) == {"id", "signs", "witness", "boundary"}
    assert all(isinstance(v, str) for v in first["witness"])
    edge = doc["edges"][0]
    assert set(edge) == {"from", "to", "hyperplane"}


def _strict_signs(arr, signs, skip=None):
    return [
        (tuple(s * v for v in plane.normal), s * plane.level, True)
        for h, (plane, s) in enumerate(zip(arr.hyperplanes, signs))
        if h != skip
    ]


def _open_window(arr, strict=True):
    return [] if arr.radius is None else box_constraints(arr.dim, arr.radius, strict)


def _wall_reference(arr, signs, h):
    """Is there a point of h with the other signs strict, in the open window?

    h's equation normal . x = level is solved for its first nonzero
    coordinate k and substituted into every other constraint.
    """
    plane = arr.hyperplanes[h]
    k = next(i for i, v in enumerate(plane.normal) if v != 0)
    lead = Fraction(plane.normal[k])
    reduced = []
    for a, b, strict in _strict_signs(arr, signs, skip=h) + _open_window(arr):
        f = a[k] / lead
        coeffs = tuple(a[j] - f * plane.normal[j] for j in range(arr.dim) if j != k)
        reduced.append((coeffs, b - f * plane.level, strict))
    return feasible_point(arr.dim - 1, integral(reduced)) is not None


def _boundary_reference(arr, signs):
    """Closed chamber plus x_i >= r or x_i <= -r, in full dimension."""
    if arr.radius is None:
        return False
    weak = [(a, b, False) for a, b, _ in _strict_signs(arr, signs)] + _open_window(arr, strict=False)
    for i in range(arr.dim):
        for side in (1, -1):
            face = tuple(side if j == i else 0 for j in range(arr.dim))
            if feasible_point(arr.dim, integral(weak + [(face, arr.radius, False)])) is not None:
                return True
    return False


def _parallel_json_arrangement():
    # x = 0 and 2x = 1 are parallel with different normal tuples; x = 5
    # lies outside the window
    planes = [((0, 1), 0), ((1, 0), 0), ((1, 0), 5), ((2, 0), 1)]
    return arrangement_from_json({
        "dim": 2,
        "kind": {"affine": {"radius": "1"}},
        "hyperplanes": [{"normal": list(n), "level": lv} for n, lv in planes],
    })


ORACLE_CASES = {
    "A2": lambda: central("A2:J={}"),
    "A3:J={1}": lambda: central("A3:J={1}"),
    "A3": lambda: central("A3:J={}"),
    "A2xA1": lambda: product_arrangement(central("A2:J={}"), central("A1:J={}")),
    "A1 r=5/2": lambda: affine("A1:J={}", Fraction(5, 2)),
    "A2 r=3/2": lambda: affine("A2:J={}", Fraction(3, 2)),
    "D4:J={0,2} r=1": lambda: affine("D4:J={0,2}", 1),
    "parallel json r=1": _parallel_json_arrangement,
}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_walls_and_boundary_match_direct_systems(name):
    arr = ORACLE_CASES[name]()
    g = enumerate_chambers(arr)
    check_graph_invariants(g)
    for c in g.chambers:
        for h in range(len(arr.hyperplanes)):
            edge = g.edge_across(c.id, h)
            assert (edge is not None) == _wall_reference(arr, c.signs, h), (c.id, h)
        assert c.boundary == _boundary_reference(arr, c.signs), c.id


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_mirror_results_match_full_solves(monkeypatch, name):
    # every vector the antipodal memo decided, solved again in full:
    # the same emptiness, the same witness and the same boundary flag
    arr = ORACLE_CASES[name]()
    solved = set()
    solve = floparr.chambers._solve

    def recorded(table, signs):
        solved.add(signs)
        return solve(table, signs)

    monkeypatch.setattr(floparr.chambers, "_solve", recorded)
    g = enumerate_chambers(arr)
    planes = arr.hyperplanes
    looked_up = {
        c.signs[:h] + (-c.signs[h],) + c.signs[h + 1 :]
        for c in g.chambers
        for h in range(len(planes))
        if not floparr.chambers._breaks_class_order(planes, c.signs, h)
    }
    decided = looked_up - solved - {g.chambers[0].signs}
    symmetric = floparr.chambers._partners(planes) is not None
    assert symmetric == (name != "parallel json r=1")
    assert bool(decided) == symmetric
    table = floparr.chambers._row_table(arr)
    for signs in decided:
        witness = feasible_point(arr.dim, integral(_strict_signs(arr, signs) + _open_window(arr)))
        cid = g.id_of_signs(signs)
        if witness is None:
            assert cid is None, signs
        else:
            assert cid is not None, signs
            assert g.chambers[cid].witness == witness, signs
            assert g.chambers[cid].boundary == floparr.chambers._touches_boundary(table, signs), signs


@pytest.mark.parametrize(
    "arr, digest",
    [
        (lambda: central("A3:J={}"), "531e7fe2124ab93dc005e3d5e2adf71feb02bece3e4d7f1a76932a1bc2fa608c"),
        (lambda: affine("A2:J={}", Fraction(3, 2)), "d0ac71acb0554e8517afe9d22cac6c43fb552d4c75067140dfb06bb0d940a8d3"),
        (lambda: affine("A3:J={}", 1), "8515f554ba4ce85f5355e62c63c88259492990198ba90e067745de3f3d5250f6"),
        (a5_height_two, "db07b3a005cd4be367413fec814d37190afc6d13394c6743e3724bc3717b12ac"),
        (lambda: central("D4:J={}"), "c9d0f92ca21f1819730fb6d0418b2a010e8082cbfac6858c9a0251d51add2648"),
        (lambda: affine("D4:J={0,2}", Fraction(3, 2)), "e3691635b70fae45577aae19ef7a702f523d01d9639946efa74a37efe4ba7995"),
    ],
    ids=["A3", "A2 r=3/2", "A3 r=1", "A5 height<=2", "D4", "D4:J={0,2} r=3/2"],
)
def test_graph_json_pinned(arr, digest):
    # ids, signs, edges, boundary flags and witnesses, byte for byte
    text = dumps(graph_to_json(enumerate_chambers(arr())))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "arr, witness, boundary",
    [
        (lambda: central("D4:J={}"), 672, 0),
        (a5_height_two, 216, 0),
        (lambda: affine("A2:J={}", Fraction(7, 2)), 124, 200),
        (lambda: affine("A3:J={}", 1), 199, 33),
        (lambda: affine("D4:J={0,2}", Fraction(3, 2)), 101, 75),
        (lambda: parallel_line(300), 300, 601),
    ],
    ids=["D4", "A5 height<=2", "A2 r=7/2", "A3 r=1", "D4:J={0,2} r=3/2", "300 parallel"],
)
def test_enumeration_solve_counts_pinned(monkeypatch, arr, witness, boundary):
    # feasibility solves are the enumeration's machine-independent cost:
    # full-dimension witness solves, and dim - 1 window-face solves for
    # boundary flags.  The antipodal memo settles each solved vector's
    # mirror as well, which halves both; the parallel line has no partner
    # for its lowest level, so it solves every vector itself, and no
    # empty one at all.  Every row sent is integral, as the kernel requires.
    arr = arr()
    calls = {arr.dim: 0, arr.dim - 1: 0}

    def counted(dim, ineqs):
        calls[dim] += 1
        assert all(type(v) is int for a, b, _ in ineqs for v in (*a, b))
        return feasible_point(dim, ineqs)

    monkeypatch.setattr(floparr.chambers, "feasible_point", counted)
    enumerate_chambers(arr)
    assert calls == {arr.dim: witness, arr.dim - 1: boundary}


def test_long_parallel_family():
    g = enumerate_chambers(parallel_line(300))
    assert len(g.chambers) == 301
    assert len(g.edges) == 600
    ends = {g.id_of_signs((1,) * 300), g.id_of_signs((-1,) * 300)}
    assert None not in ends
    assert {c.id for c in g.chambers if c.boundary} == ends
    check_graph_invariants(g)
